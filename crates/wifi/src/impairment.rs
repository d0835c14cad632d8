//! Link impairments: the four challenging conditions of the paper's
//! evaluation corpus (Fig. 6) — microwave-oven interference, client
//! mobility, weak links, and wireless congestion.

use crate::channel::{Band, Channel};
use diversifi_simcore::{RngStream, SimDuration, SimTime};
use serde::Serialize;

/// A microwave oven near the client.
///
/// Domestic magnetrons radiate in bursts locked to the mains cycle
/// (~8 ms on / ~8 ms off at 60 Hz), sweeping the upper half of the
/// 2.4 GHz ISM band. The 16.7 ms cycle is deliberately *not* a multiple of
/// the 20 ms VoIP packet clock, so the interference phase drifts across
/// packets — with a 20 ms cycle the two would phase-lock and every packet
/// would see the same (escapable) oven phase. While the burst is on, frames on affected channels are
/// destroyed with high probability; 5 GHz links are untouched. This is why
/// the paper's Fig. 6 shows cross-link replication helping least for the
/// microwave impairment when both links are 2.4 GHz.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct MicrowaveOven {
    /// Full mains cycle (on + off): 16.67 ms at 60 Hz mains.
    pub period: SimDuration,
    /// Fraction of the period the magnetron radiates (≈ 0.5).
    pub duty: f64,
    /// Erasure probability on the most-affected channel while radiating.
    pub peak_loss: f64,
    /// Residual erasure on the most-affected channel even in the off phase
    /// (magnetron leakage and the splatter that defeats link-layer
    /// retries in measured oven traces).
    pub off_loss: f64,
    /// Sweep centre frequency in MHz (ovens sit around 2450–2460 MHz).
    pub center_mhz: f64,
    /// Half-width (MHz) over which the interference tapers off.
    pub half_width_mhz: f64,
}

impl Default for MicrowaveOven {
    fn default() -> Self {
        MicrowaveOven {
            period: SimDuration::from_micros(16_667),
            duty: 0.55,
            peak_loss: 0.95,
            off_loss: 0.22,
            center_mhz: 2455.0,
            half_width_mhz: 80.0,
        }
    }
}

impl MicrowaveOven {
    /// Is the magnetron radiating at time `t`?
    pub fn radiating(&self, t: SimTime) -> bool {
        let phase = t.as_nanos() % self.period.as_nanos();
        (phase as f64) < self.duty * self.period.as_nanos() as f64
    }

    /// Channel susceptibility in `[0, 1]`: 1 at the sweep centre, tapering
    /// linearly to 0 at `half_width_mhz` away; 0 for 5 GHz.
    pub fn susceptibility(&self, channel: Channel) -> f64 {
        if channel.band != Band::Ghz2_4 {
            return 0.0;
        }
        let dist = (channel.center_mhz() as f64 - self.center_mhz).abs();
        (1.0 - dist / self.half_width_mhz).clamp(0.0, 1.0)
    }

    /// Erasure probability contributed at time `t` on `channel`.
    pub fn erasure(&self, t: SimTime, channel: Channel) -> f64 {
        let base = if self.radiating(t) { self.peak_loss } else { self.off_loss };
        base * self.susceptibility(channel)
    }
}

/// Contention from other traffic on the same channel.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Congestion {
    /// Long-run fraction of airtime occupied by other stations.
    pub busy_fraction: f64,
    /// Extra per-attempt erasure probability from collisions.
    pub collision_prob: f64,
    /// Probability that a transmission attempt lands behind a *traffic
    /// burst* (someone's download/backup saturating the channel).
    pub burst_prob: f64,
    /// Mean extra wait when stuck behind such a burst.
    pub burst_mean: SimDuration,
}

impl Congestion {
    /// A heavily loaded channel, as in the paper's "Wireless Congestion"
    /// scenario.
    pub fn heavy() -> Congestion {
        Congestion {
            busy_fraction: 0.55,
            collision_prob: 0.08,
            burst_prob: 0.02,
            burst_mean: SimDuration::from_millis(90),
        }
    }

    /// Extra medium-access wait before a transmission attempt: we model the
    /// wait for other stations' frames as exponential, scaled so the mean
    /// wait grows super-linearly as the channel saturates (M/M/1-like).
    pub fn access_wait(&self, rng: &mut RngStream) -> SimDuration {
        if self.busy_fraction <= 0.0 {
            return SimDuration::ZERO;
        }
        let rho = self.busy_fraction.min(0.95);
        // Mean occupancy of a competing frame ~1.2 ms (a 1500 B frame at a
        // mid-ladder rate); queueing factor rho/(1-rho).
        let mean_ms = 1.2 * rho / (1.0 - rho);
        let mut wait = rng.exponential(mean_ms) / 1_000.0;
        // Heavy tail: occasionally the medium is saturated by a competing
        // burst for tens to hundreds of milliseconds — the mechanism that
        // actually blows real-time deadlines on congested channels.
        if rng.chance(self.burst_prob) {
            wait += rng.exponential(self.burst_mean.as_secs_f64());
        }
        SimDuration::from_secs_f64(wait)
    }
}

/// Client mobility: a slow, large-amplitude swing in path loss (walking
/// between rooms) on top of faster shadowing handled by the link's OU
/// process.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct MobilityPattern {
    /// Peak extra path loss (dB) at the far end of the walk.
    pub amplitude_db: f64,
    /// Duration of one walk cycle (away and back).
    pub period: SimDuration,
    /// Phase offset in `[0, 1)` so different links see different geometry.
    pub phase: f64,
}

impl MobilityPattern {
    /// A typical "pacing while on a call" pattern.
    pub fn walking(phase: f64) -> MobilityPattern {
        MobilityPattern {
            amplitude_db: 14.0,
            period: SimDuration::from_secs(35),
            phase,
        }
    }

    /// Extra path loss (dB) at time `t`: raised-cosine between 0 and
    /// `amplitude_db`.
    pub fn extra_loss_db(&self, t: SimTime) -> f64 {
        let cycle = (t.as_nanos() as f64 / self.period.as_nanos() as f64 + self.phase)
            * std::f64::consts::TAU;
        self.amplitude_db * 0.5 * (1.0 - cycle.cos())
    }
}

/// The label the evaluation corpus attaches to a simulated call, matching
/// the categories of the paper's Fig. 6.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize)]
pub enum ImpairmentKind {
    /// No special impairment (ordinary office conditions).
    None,
    /// Microwave oven interference.
    Microwave,
    /// Client walking while streaming.
    ClientMobility,
    /// A link with low RSSI.
    WeakLink,
    /// Heavy competing traffic on the channel.
    WirelessCongestion,
}

impl ImpairmentKind {
    /// All the labelled impairments of Fig. 6 (excluding `None`).
    pub const FIG6: [ImpairmentKind; 4] = [
        ImpairmentKind::Microwave,
        ImpairmentKind::ClientMobility,
        ImpairmentKind::WeakLink,
        ImpairmentKind::WirelessCongestion,
    ];

    /// Human-readable label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            ImpairmentKind::None => "None",
            ImpairmentKind::Microwave => "Microwave",
            ImpairmentKind::ClientMobility => "Client Mobility",
            ImpairmentKind::WeakLink => "Weak Link",
            ImpairmentKind::WirelessCongestion => "Wireless Congestion",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diversifi_simcore::SeedFactory;

    #[test]
    fn microwave_duty_cycle() {
        let mw = MicrowaveOven::default();
        assert!(mw.radiating(SimTime::from_millis(3)));
        assert!(!mw.radiating(SimTime::from_millis(13)));
        assert!(mw.radiating(SimTime::from_millis(23)));
    }

    #[test]
    fn microwave_hits_upper_channels_harder() {
        let mw = MicrowaveOven::default();
        let s1 = mw.susceptibility(Channel::CH1); // 2412 MHz, 43 MHz away
        let s11 = mw.susceptibility(Channel::CH11); // 2462 MHz, 7 MHz away
        assert!(s11 > s1, "ch11 ({s11}) should exceed ch1 ({s1})");
        assert!(s11 > 0.8);
        assert!(s1 > 0.0, "ch1 is still affected (paper: most links impacted)");
    }

    #[test]
    fn microwave_spares_5ghz() {
        let mw = MicrowaveOven::default();
        assert_eq!(mw.susceptibility(Channel::CH36), 0.0);
        assert_eq!(mw.erasure(SimTime::from_millis(1), Channel::CH36), 0.0);
    }

    #[test]
    fn microwave_erasure_low_when_off_high_when_on() {
        let mw = MicrowaveOven::default();
        let off = mw.erasure(SimTime::from_millis(15), Channel::CH11);
        let on = mw.erasure(SimTime::from_millis(5), Channel::CH11);
        assert!(on > 0.7, "on-phase {on}");
        assert!(off > 0.05 && off < 0.4, "off-phase residual {off}");
        assert!(on > 3.0 * off);
    }

    #[test]
    fn congestion_wait_scales_with_load() {
        let f = SeedFactory::new(1);
        let mut rng = f.stream("t", 0);
        let light = Congestion { busy_fraction: 0.1, collision_prob: 0.01, burst_prob: 0.0, burst_mean: SimDuration::ZERO };
        let heavy = Congestion::heavy();
        let n = 5_000;
        let avg = |c: &Congestion, rng: &mut diversifi_simcore::RngStream| {
            (0..n).map(|_| c.access_wait(rng).as_secs_f64()).sum::<f64>() / n as f64
        };
        let wl = avg(&light, &mut rng);
        let wh = avg(&heavy, &mut rng);
        assert!(wh > 5.0 * wl, "heavy {wh} vs light {wl}");
    }

    #[test]
    fn congestion_zero_load_no_wait() {
        let f = SeedFactory::new(2);
        let mut rng = f.stream("t", 0);
        let c = Congestion { busy_fraction: 0.0, collision_prob: 0.0, burst_prob: 0.0, burst_mean: SimDuration::ZERO };
        assert_eq!(c.access_wait(&mut rng), SimDuration::ZERO);
    }

    #[test]
    fn mobility_swings_between_zero_and_amplitude() {
        let m = MobilityPattern::walking(0.0);
        let at = |s: u64| m.extra_loss_db(SimTime::from_secs(s));
        assert!(at(0) < 0.2, "starts at near side");
        let half = at(17); // roughly mid-cycle: far end
        assert!((half - m.amplitude_db).abs() < 1.0, "far end {half}");
        assert!(at(35) < 0.5, "back near the AP");
    }

    #[test]
    fn mobility_phase_decorrelates_links() {
        let a = MobilityPattern::walking(0.0);
        let b = MobilityPattern::walking(0.5);
        let t = SimTime::from_secs(17);
        assert!((a.extra_loss_db(t) - b.extra_loss_db(t)).abs() > 5.0);
    }

    #[test]
    fn labels() {
        assert_eq!(ImpairmentKind::Microwave.label(), "Microwave");
        assert_eq!(ImpairmentKind::FIG6.len(), 4);
    }
}
