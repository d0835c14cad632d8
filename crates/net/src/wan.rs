//! Wide-area path and relay models.
//!
//! Used by the call-population experiments (paper Tables 1 and 2): the WAN
//! leg between peers adds base delay, heavy-tailed jitter and a light loss
//! process; a relay node adds queueing that collapses under overload —
//! which is exactly what made the paper's relayed NetTest calls so poor
//! (42–63% PCR, an artifact of relay overload the authors call out).

use diversifi_simcore::{RngStream, SimDuration};
use serde::Serialize;

/// A one-way WAN path.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct WanPath {
    /// Propagation + transmission floor.
    pub base_delay: SimDuration,
    /// Lognormal jitter: mu of underlying normal (of milliseconds).
    pub jitter_mu_ms: f64,
    /// Lognormal jitter: sigma of underlying normal.
    pub jitter_sigma: f64,
    /// Independent loss probability per packet.
    pub loss: f64,
}

impl WanPath {
    /// A well-provisioned intra-continental path (~25 ms, light jitter).
    pub fn good() -> WanPath {
        WanPath {
            base_delay: SimDuration::from_millis(25),
            jitter_mu_ms: 0.3,
            jitter_sigma: 0.7,
            loss: 0.0005,
        }
    }

    /// A long intercontinental path (~120 ms, more jitter and loss).
    pub fn long_haul() -> WanPath {
        WanPath {
            base_delay: SimDuration::from_millis(120),
            jitter_mu_ms: 0.9,
            jitter_sigma: 0.9,
            loss: 0.003,
        }
    }

    /// Traverse the path: `None` if the packet is lost, otherwise the
    /// one-way delay.
    pub fn traverse(&self, rng: &mut RngStream) -> Option<SimDuration> {
        if rng.chance(self.loss) {
            return None;
        }
        let jitter_ms = rng.lognormal(self.jitter_mu_ms, self.jitter_sigma);
        Some(self.base_delay + SimDuration::from_secs_f64(jitter_ms.min(500.0) / 1000.0))
    }
}

/// A cloud relay carrying many concurrent calls.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct RelayNode {
    /// Utilisation of the relay's forwarding capacity, 0..1+. The paper's
    /// overloaded relays correspond to ρ near (or past) 1.
    pub utilization: f64,
    /// Mean forwarding time when idle.
    pub base_service: SimDuration,
}

impl RelayNode {
    /// A relay with headroom.
    pub fn healthy() -> RelayNode {
        RelayNode { utilization: 0.3, base_service: SimDuration::from_micros(200) }
    }

    /// An overloaded relay like the ones that poisoned the paper's relayed
    /// call categories.
    pub fn overloaded() -> RelayNode {
        RelayNode { utilization: 0.97, base_service: SimDuration::from_micros(200) }
    }

    /// Queueing loss probability: past saturation the relay drops what it
    /// cannot queue.
    pub fn drop_prob(&self) -> f64 {
        if self.utilization <= 0.9 {
            0.0
        } else {
            // Rises steeply from 0 at ρ=0.9 (10% per 0.01 of overload,
            // capped).
            ((self.utilization - 0.9) * 6.0).min(0.5)
        }
    }

    /// Forward a packet through the relay: `None` if dropped, otherwise the
    /// M/M/1-ish sojourn time.
    pub fn forward(&self, rng: &mut RngStream) -> Option<SimDuration> {
        if rng.chance(self.drop_prob()) {
            return None;
        }
        let rho = self.utilization.min(0.99);
        let mean = self.base_service.as_secs_f64() / (1.0 - rho);
        Some(SimDuration::from_secs_f64(rng.exponential(mean).min(0.4)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diversifi_simcore::SeedFactory;

    fn rng() -> RngStream {
        SeedFactory::new(0x3A11).stream("wan-test", 0)
    }

    #[test]
    fn good_path_is_fast_and_reliable() {
        let p = WanPath::good();
        let mut r = rng();
        let mut losses = 0;
        let mut total = SimDuration::ZERO;
        let n = 20_000;
        for _ in 0..n {
            match p.traverse(&mut r) {
                Some(d) => {
                    assert!(d >= p.base_delay);
                    total += d;
                }
                None => losses += 1,
            }
        }
        let mean_ms = total.as_millis_f64() / (n - losses) as f64;
        assert!(mean_ms < 30.0, "mean {mean_ms}");
        assert!((losses as f64 / n as f64) < 0.002);
    }

    #[test]
    fn long_haul_is_slower_and_lossier() {
        let g = WanPath::good();
        let l = WanPath::long_haul();
        assert!(l.base_delay > g.base_delay);
        assert!(l.loss > g.loss);
    }

    #[test]
    fn jitter_has_a_tail() {
        let p = WanPath::good();
        let mut r = rng();
        let mut max = SimDuration::ZERO;
        for _ in 0..20_000 {
            if let Some(d) = p.traverse(&mut r) {
                max = max.max(d);
            }
        }
        // Lognormal tail should occasionally exceed base + 5 ms.
        assert!(max > p.base_delay + SimDuration::from_millis(5), "max {max}");
    }

    #[test]
    fn healthy_relay_is_invisible() {
        let relay = RelayNode::healthy();
        assert_eq!(relay.drop_prob(), 0.0);
        let mut r = rng();
        let mean: f64 = (0..5000)
            .map(|_| relay.forward(&mut r).unwrap().as_secs_f64())
            .sum::<f64>()
            / 5000.0;
        assert!(mean < 0.001, "healthy relay mean sojourn {mean}s");
    }

    #[test]
    fn overloaded_relay_drops_and_delays() {
        let relay = RelayNode::overloaded();
        assert!(relay.drop_prob() > 0.2);
        let mut r = rng();
        let mut drops = 0;
        let mut sum = 0.0;
        let mut n_fwd = 0;
        for _ in 0..5000 {
            match relay.forward(&mut r) {
                None => drops += 1,
                Some(d) => {
                    sum += d.as_secs_f64();
                    n_fwd += 1;
                }
            }
        }
        assert!(drops > 500, "drops {drops}");
        assert!(sum / n_fwd as f64 > 0.003, "overloaded sojourn too small");
    }

    #[test]
    fn drop_prob_monotone_in_utilization() {
        let mut prev = -1.0;
        for u in [0.1, 0.5, 0.9, 0.93, 0.96, 1.0] {
            let d = RelayNode { utilization: u, base_service: SimDuration::from_micros(200) }
                .drop_prob();
            assert!(d >= prev);
            prev = d;
        }
    }
}
