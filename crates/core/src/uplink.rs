//! Uplink DiversiFi — the direction the paper argues "would likely be
//! easier to implement because the client would have direct control over
//! what packets are sent over which link and when" (§5).
//!
//! On the uplink the client *is* the transmitter, so it learns each
//! frame's fate from the MAC ACK immediately — no loss-detection timeout,
//! no network-side buffering, no wasted duplicates at all: when a frame
//! exhausts its retries on the primary link, the client hops to the
//! secondary, retransmits exactly that frame, and hops back. The only
//! costs are the switch latency (2 × 2.8 ms) and the packets that would
//! have been transmitted during the excursion (they queue at the client
//! and go out slightly late).

use crate::twonic::channel_horizon;
use diversifi_simcore::{SeedFactory, SimDuration, SimTime};
use diversifi_voip::{StreamSpec, StreamTrace};
use diversifi_wifi::{
    mac, AdapterId, ClientId, FlowId, Frame, LinkConfig, LinkModel, MacConfig,
};
use serde::Serialize;

/// Client behaviour on the uplink.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum UplinkMode {
    /// Transmit on the primary link only.
    SingleLink,
    /// Retransmit MAC-failed frames over the secondary link.
    Diversifi,
}

/// Counters from an uplink run.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct UplinkStats {
    /// Frames that exhausted retries on the primary.
    pub primary_failures: u64,
    /// Of those, recovered via the secondary link.
    pub recovered: u64,
    /// Link switches performed (×2 per excursion).
    pub switches: u64,
}

/// One uplink call: the stream as the wired peer received it.
pub fn run_uplink(
    spec: &StreamSpec,
    primary: &LinkConfig,
    secondary: &LinkConfig,
    seeds: &SeedFactory,
    mode: UplinkMode,
) -> (StreamTrace, UplinkStats) {
    let mac_cfg = MacConfig::default();
    let horizon = channel_horizon(spec);
    let mut link_p = LinkModel::new(primary.clone(), seeds, 0, horizon);
    let mut link_s = LinkModel::new(secondary.clone(), seeds, 1, horizon);
    let mut trace = StreamTrace::new(*spec, SimTime::ZERO);
    let mut stats = UplinkStats::default();
    let switch = SimDuration::from_micros(2800);
    let lan = SimDuration::from_micros(500);

    // The client serialises its own transmissions.
    let mut radio_free = SimTime::ZERO;
    // While we are on the secondary (recovering), primary-bound frames wait.
    for (seq, sent) in spec.schedule(SimTime::ZERO) {
        let start = radio_free.max(sent);
        let frame = Frame::data(
            FlowId(0),
            seq,
            spec.wire_bytes(),
            sent,
            ClientId(0),
            AdapterId(0),
        );
        let out = mac::transmit(&mut link_p, &mac_cfg, &frame, start);
        radio_free = out.completed_at;
        if out.delivered {
            trace.record_arrival(seq, out.completed_at + lan);
            continue;
        }
        stats.primary_failures += 1;
        if mode == UplinkMode::SingleLink {
            continue;
        }
        // Hop over, retransmit exactly this frame, hop back. The secondary
        // link model must be queried monotonically, which holds because
        // excursions are serialised on the same radio timeline.
        stats.switches += 2;
        let excursion_start = out.completed_at + switch;
        let retry = mac::transmit(&mut link_s, &mac_cfg, &frame, excursion_start);
        if retry.delivered {
            stats.recovered += 1;
            trace.record_arrival(seq, retry.completed_at + lan);
        }
        radio_free = retry.completed_at + switch;
    }
    (trace, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use diversifi_simcore::mean;
    use diversifi_voip::DEFAULT_DEADLINE;
    use diversifi_wifi::{Channel, GeParams};

    fn spec() -> StreamSpec {
        StreamSpec {
            packet_bytes: 160,
            interval: SimDuration::from_millis(20),
            duration: SimDuration::from_secs(60),
        }
    }

    fn links() -> (LinkConfig, LinkConfig) {
        let mut a = LinkConfig::office(Channel::CH1, 24.0);
        a.ge = GeParams::weak_link();
        let mut b = LinkConfig::office(Channel::CH11, 28.0);
        b.ge = GeParams::weak_link();
        (a, b)
    }

    #[test]
    fn uplink_diversifi_recovers_failures() {
        let (a, b) = links();
        let mut single = 0.0;
        let mut dvf = 0.0;
        let mut total_recovered = 0u64;
        for i in 0..5 {
            let seeds = SeedFactory::new(0x0B + i);
            let (ts, _) = run_uplink(&spec(), &a, &b, &seeds, UplinkMode::SingleLink);
            let (td, st) = run_uplink(&spec(), &a, &b, &seeds, UplinkMode::Diversifi);
            single += ts.loss_rate(DEFAULT_DEADLINE);
            dvf += td.loss_rate(DEFAULT_DEADLINE);
            total_recovered += st.recovered;
        }
        assert!(single > 0.0, "weak link must fail sometimes");
        assert!(dvf < 0.4 * single, "uplink DiversiFi {dvf} vs single {single}");
        assert!(total_recovered > 0);
    }

    #[test]
    fn recovery_latency_is_one_switch_pair() {
        // Recovered packets are delayed by ~2×2.8 ms + one MAC exchange,
        // far under the 100 ms budget — no network-side buffer needed.
        let (a, b) = links();
        let seeds = SeedFactory::new(0xB2);
        let (trace, stats) = run_uplink(&spec(), &a, &b, &seeds, UplinkMode::Diversifi);
        if stats.recovered > 0 {
            let worst = trace
                .delays_ms()
                .into_iter()
                .fold(0.0f64, f64::max);
            assert!(worst < 100.0, "worst uplink delivery {worst} ms");
        }
    }

    #[test]
    fn no_wasted_duplicates_on_uplink() {
        // Every secondary transmission is for a frame known to be lost:
        // switches == 2 × primary excursions, recovered ≤ failures.
        let (a, b) = links();
        let (_, stats) = run_uplink(&spec(), &a, &b, &SeedFactory::new(0xB3), UplinkMode::Diversifi);
        assert_eq!(stats.switches, 2 * stats.primary_failures);
        assert!(stats.recovered <= stats.primary_failures);
    }

    #[test]
    fn excursions_delay_following_packets_slightly() {
        let (a, b) = links();
        let seeds = SeedFactory::new(0xB4);
        let (ts, _) = run_uplink(&spec(), &a, &b, &seeds, UplinkMode::SingleLink);
        let (td, st) = run_uplink(&spec(), &a, &b, &seeds, UplinkMode::Diversifi);
        if st.switches > 0 {
            let ds = mean(&ts.delays_ms());
            let dd = mean(&td.delays_ms());
            assert!(dd >= ds - 0.5, "excursions should not *reduce* delay");
            assert!(dd < ds + 5.0, "excursion cost should be small: {dd} vs {ds}");
        }
    }
}
