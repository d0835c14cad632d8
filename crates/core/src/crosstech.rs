//! Cross-technology replication — the future-work direction of §4.4.
//!
//! The paper observes that its weakest case is microwave-oven interference
//! when *every* available WiFi link is 2.4 GHz: cross-link replication
//! can't escape an impairment that hits the whole band. It suggests that
//! "greater diversity could be had from cross-technology replication (e.g.,
//! across WiFi and 3G/4G), but keeping the duplication overhead manageable
//! would be more challenging", and defers it. This module builds that
//! extension: an LTE-class cellular bearer model and a WiFi+cellular
//! replication driver, so the deferred experiment can actually be run.

use crate::twonic::run_single;
use diversifi_simcore::{RngStream, SeedFactory, SimDuration, SimTime};
use diversifi_voip::{StreamSpec, StreamTrace};
use diversifi_wifi::LinkConfig;
use serde::Serialize;

/// An LTE-class cellular bearer.
///
/// Compared to WiFi: higher base latency, heavier jitter tail (scheduler +
/// HARQ), *much* rarer loss — and complete immunity to ISM-band
/// interference. Periodic handovers produce short outages.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct CellularConfig {
    /// One-way air + core-network latency floor.
    pub base_delay: SimDuration,
    /// Lognormal jitter parameters (of milliseconds).
    pub jitter_mu_ms: f64,
    /// Lognormal sigma.
    pub jitter_sigma: f64,
    /// Residual packet loss probability (after HARQ/RLC).
    pub loss: f64,
    /// Mean interval between handovers.
    pub handover_every: SimDuration,
    /// Outage duration per handover.
    pub handover_outage: SimDuration,
}

impl Default for CellularConfig {
    fn default() -> Self {
        CellularConfig {
            base_delay: SimDuration::from_millis(35),
            jitter_mu_ms: 1.2,
            jitter_sigma: 0.8,
            loss: 0.002,
            handover_every: SimDuration::from_secs(45),
            handover_outage: SimDuration::from_millis(300),
        }
    }
}

/// Simulate the stream over a cellular bearer.
pub fn run_cellular(
    spec: &StreamSpec,
    cfg: &CellularConfig,
    seeds: &SeedFactory,
) -> StreamTrace {
    let mut rng: RngStream = seeds.stream("cellular", 0);
    let mut trace = StreamTrace::new(*spec, SimTime::ZERO);

    // Pre-draw handover instants.
    let mut handovers: Vec<(SimTime, SimTime)> = Vec::new();
    let mut t = SimTime::ZERO;
    loop {
        let gap = SimDuration::from_secs_f64(
            rng.exponential(cfg.handover_every.as_secs_f64()).max(1.0),
        );
        t += gap;
        if t > SimTime::ZERO + spec.duration {
            break;
        }
        handovers.push((t, t + cfg.handover_outage));
    }

    for (seq, sent) in spec.schedule(SimTime::ZERO) {
        if rng.chance(cfg.loss) {
            continue;
        }
        if handovers.iter().any(|(a, b)| sent >= *a && sent < *b) {
            continue; // swallowed by a handover outage
        }
        let jitter_ms = rng.lognormal(cfg.jitter_mu_ms, cfg.jitter_sigma).min(400.0);
        let arrival = sent + cfg.base_delay + SimDuration::from_secs_f64(jitter_ms / 1000.0);
        trace.record_arrival(seq, arrival);
    }
    trace
}

/// Result of one cross-technology call.
#[derive(Clone, Debug)]
pub struct CrossTechRun {
    /// The WiFi leg alone.
    pub wifi: StreamTrace,
    /// The cellular leg alone.
    pub cellular: StreamTrace,
    /// Full replication across both.
    pub merged: StreamTrace,
}

/// Replicate the stream across one WiFi link and one cellular bearer.
pub fn run_cross_technology(
    spec: &StreamSpec,
    wifi: &LinkConfig,
    cellular: &CellularConfig,
    seeds: &SeedFactory,
) -> CrossTechRun {
    let wifi_trace = run_single(spec, wifi, seeds, 0).trace;
    let cell_trace = run_cellular(spec, cellular, seeds);
    let merged = wifi_trace.merged_with(&cell_trace);
    CrossTechRun { wifi: wifi_trace, cellular: cell_trace, merged }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::twonic::{run_two_nic, TwoNicScenario};
    use diversifi_simcore::mean;
    use diversifi_voip::DEFAULT_DEADLINE;
    use diversifi_wifi::{Channel, MicrowaveOven, RealizationCache};

    fn spec() -> StreamSpec {
        StreamSpec {
            packet_bytes: 160,
            interval: SimDuration::from_millis(20),
            duration: SimDuration::from_secs(60),
        }
    }

    #[test]
    fn cellular_is_slow_but_reliable() {
        let tr = run_cellular(&spec(), &CellularConfig::default(), &SeedFactory::new(1));
        let loss = tr.loss_rate(DEFAULT_DEADLINE);
        assert!(loss < 0.03, "cellular loss {loss}");
        let mean_delay = mean(&tr.delays_ms());
        assert!(mean_delay > 30.0, "cellular delay {mean_delay} should exceed WiFi's");
    }

    #[test]
    fn handovers_create_outage_bursts() {
        let cfg = CellularConfig {
            handover_every: SimDuration::from_secs(10),
            handover_outage: SimDuration::from_millis(400),
            ..CellularConfig::default()
        };
        let tr = run_cellular(&spec(), &cfg, &SeedFactory::new(2));
        let bursts = tr.burst_lengths(DEFAULT_DEADLINE);
        assert!(
            bursts.iter().any(|b| *b >= 10),
            "a 400 ms outage should lose ≥10 consecutive packets: {bursts:?}"
        );
    }

    #[test]
    fn cross_tech_beats_wifi_wifi_under_microwave() {
        // The §4.4 scenario: a microwave hammers every 2.4 GHz link in the
        // room. WiFi+WiFi replication can't escape; WiFi+LTE can.
        let oven = MicrowaveOven::default();
        let mut wifi_a = LinkConfig::office(Channel::CH6, 14.0);
        wifi_a.microwave = Some(oven);
        let mut wifi_b = LinkConfig::office(Channel::CH11, 18.0);
        wifi_b.microwave = Some(oven);

        let mut wifi_wifi = 0.0;
        let mut wifi_cell = 0.0;
        for i in 0..4 {
            let seeds = SeedFactory::new(0xC7 + i);
            let two = run_two_nic(
                &TwoNicScenario::new(spec(), wifi_a.clone(), wifi_b.clone()),
                &seeds,
                &RealizationCache::new(2),
            );
            wifi_wifi += two.a.trace.merged_with(&two.b.trace).loss_rate(DEFAULT_DEADLINE);
            let xt = run_cross_technology(&spec(), &wifi_a, &CellularConfig::default(), &seeds);
            wifi_cell += xt.merged.loss_rate(DEFAULT_DEADLINE);
        }
        assert!(
            wifi_cell < 0.5 * wifi_wifi,
            "cross-tech ({wifi_cell}) must escape the microwave; wifi-wifi ({wifi_wifi}) cannot"
        );
    }

    #[test]
    fn cross_tech_latency_cost_is_visible() {
        // The diversity is not free: recovered packets ride the slower
        // bearer. Delay of merged ≤ wifi alone per packet, but the
        // *recovered* packets carry cellular-class delay.
        let wifi = LinkConfig::office(Channel::CH1, 16.0);
        let xt = run_cross_technology(
            &spec(),
            &wifi,
            &CellularConfig::default(),
            &SeedFactory::new(9),
        );
        // Merged loss is the intersection.
        assert!(
            xt.merged.loss_rate(DEFAULT_DEADLINE)
                <= xt.wifi.loss_rate(DEFAULT_DEADLINE).min(xt.cellular.loss_rate(DEFAULT_DEADLINE))
        );
        // Delays on merged are never worse than WiFi's own (min of arrivals).
        let dw = mean(&xt.wifi.delays_ms());
        let dm = mean(&xt.merged.delays_ms());
        assert!(dm <= dw + 5.0, "merged {dm} vs wifi {dw}");
    }

    #[test]
    fn deterministic() {
        let wifi = LinkConfig::office(Channel::CH1, 16.0);
        let a = run_cross_technology(&spec(), &wifi, &CellularConfig::default(), &SeedFactory::new(3));
        let b = run_cross_technology(&spec(), &wifi, &CellularConfig::default(), &SeedFactory::new(3));
        assert_eq!(a.merged.fates, b.merged.fates);
    }

    #[test]
    fn microwave_duty_cycle_matches_configured_fraction() {
        // The magnetron follows the mains: 16.667 ms period, radiating 55%
        // of it. Sample on the VoIP packet grid (20 ms) with a small prime
        // drift so the incommensurate period is swept through every phase —
        // the fraction of samples that land in the on-phase must converge
        // to the configured duty.
        let mw = MicrowaveOven::default();
        let n = 20_000u64;
        let on = (0..n)
            .filter(|k| {
                let t = SimTime::from_nanos(k * 20_000_000 + k * 7_919);
                mw.radiating(t)
            })
            .count();
        let duty = on as f64 / n as f64;
        assert!((duty - mw.duty).abs() < 0.01, "sampled duty {duty} vs configured {}", mw.duty);
    }

    #[test]
    fn microwave_off_phase_is_the_complement() {
        // Within any single period the on-window is exactly [0, duty·T).
        let mw = MicrowaveOven::default();
        let t_on = SimTime::from_nanos((0.54 * mw.period.as_nanos() as f64) as u64);
        let t_off = SimTime::from_nanos((0.56 * mw.period.as_nanos() as f64) as u64);
        assert!(mw.radiating(t_on));
        assert!(!mw.radiating(t_off));
        // And the pattern is periodic.
        assert!(mw.radiating(t_on + mw.period + mw.period));
        assert!(!mw.radiating(t_off + mw.period + mw.period));
    }

    #[test]
    fn handover_outage_duty_matches_expectation() {
        // With residual loss disabled and jitter far below the deadline,
        // every effective loss is a handover outage: the long-run loss rate
        // must track outage / mean-handover-interval. (Gaps are
        // exponential with a 1 s floor, so the effective mean interval is
        // E[max(Exp(5 s), 1 s)] ≈ 5.09 s.)
        let cfg = CellularConfig {
            handover_every: SimDuration::from_secs(5),
            handover_outage: SimDuration::from_millis(300),
            loss: 0.0,
            ..CellularConfig::default()
        };
        let long = StreamSpec {
            packet_bytes: 160,
            interval: SimDuration::from_millis(20),
            duration: SimDuration::from_secs(600),
        };
        let mut rate = 0.0;
        for seed in 0..3u64 {
            let tr = run_cellular(&long, &cfg, &SeedFactory::new(0xD117 + seed));
            rate += tr.loss_rate(DEFAULT_DEADLINE) / 3.0;
        }
        let expected = cfg.handover_outage.as_secs_f64() / 5.09;
        assert!(
            (rate - expected).abs() < 0.02,
            "outage duty {rate} should be near {expected}"
        );
    }
}
