//! # diversifi-voip
//!
//! The streaming/QoE substrate of the DiversiFi reproduction:
//!
//! - [`stream`] — the paper's CBR workloads (G.711-like VoIP, 5 Mbps
//!   gaming/video).
//! - [`trace`] — per-packet delivery records ([`StreamTrace`]); every
//!   strategy produces one, every figure consumes them.
//! - [`playout`] — playout buffer and G.711 interpolation/extrapolation
//!   concealment accounting (the paper's §3.2 methodology).
//! - [`emodel`] — ITU-T G.107 E-model with burst-ratio-aware loss
//!   impairment, MOS mapping, and the Poor-Call-Rate classifier.
//! - [`metrics`] — figure-level helpers: loss correlation, burst
//!   histograms, worst-window ECDFs.
//! - [`workload`] — the workload layer: what the world simulates *for*
//!   (source shape, delivery accounting, FPS deadline reduction).
//! - [`fps`] — the cloud-gaming FPS workload: tick traffic with hard
//!   per-tick deadlines and a deadline-based QoE score.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library diagnostics go through `diversifi_simcore::telemetry`, never
// stdout/stderr; CI's `clippy -D warnings` enforces this.
#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod emodel;
pub mod fps;
pub mod metrics;
pub mod playout;
pub mod stream;
pub mod trace;
pub mod workload;

pub use emodel::{burst_ratio, evaluate, CallQuality, CodecModel, PcrModel};
pub use fps::{
    fps_qoe, session_metrics, tick_stats, FpsConfig, FpsOutcome, FpsSessionMetrics, TickStats,
    FPS_QOE_POOR,
};
pub use playout::{conceal, delay_histogram_into, ConcealmentStats, PlayoutConfig};
pub use stream::StreamSpec;
pub use trace::{PacketFate, StreamTrace, DEFAULT_DEADLINE};
pub use workload::{InputFate, WorkloadKind, WorkloadState};

#[cfg(test)]
mod proptests {
    use super::*;
    use diversifi_simcore::{SimDuration, SimTime};
    use proptest::prelude::*;

    fn arb_trace() -> impl Strategy<Value = StreamTrace> {
        proptest::collection::vec(proptest::option::of(0u64..400), 1..400).prop_map(|pattern| {
            let spec = StreamSpec {
                packet_bytes: 160,
                interval: SimDuration::from_millis(20),
                duration: SimDuration::from_millis(20 * pattern.len() as u64),
            };
            let mut tr = StreamTrace::new(spec, SimTime::ZERO);
            for (i, p) in pattern.iter().enumerate() {
                if let Some(ms) = p {
                    let sent = tr.fates[i].sent;
                    tr.record_arrival(i as u64, sent + SimDuration::from_millis(*ms));
                }
            }
            tr
        })
    }

    proptest! {
        /// Merging a trace with another can only reduce (or keep) the loss
        /// rate, at every deadline — the fundamental monotonicity behind
        /// cross-link replication.
        #[test]
        fn merge_never_hurts(a in arb_trace(), b in arb_trace(), deadline_ms in 1u64..500) {
            let n = a.len().min(b.len());
            let mut a = a; a.fates.truncate(n);
            let mut b = b; b.fates.truncate(n);
            // Make send times consistent.
            for i in 0..n { b.fates[i].sent = a.fates[i].sent; }
            let m = a.merged_with(&b);
            let d = SimDuration::from_millis(deadline_ms);
            prop_assert!(m.loss_rate(d) <= a.loss_rate(d) + 1e-12);
            prop_assert!(m.loss_rate(d) <= b.loss_rate(d) + 1e-12);
        }

        /// Concealment accounting is conservative: played + concealed
        /// equals the stream length, and concealed matches the trace's
        /// effective losses at the playout deadline.
        #[test]
        fn concealment_accounts_for_every_packet(tr in arb_trace()) {
            let cfg = PlayoutConfig { playout_delay: SimDuration::from_millis(150) };
            let c = conceal(&tr, &cfg);
            prop_assert_eq!(c.total(), tr.len() as u64);
            let lost = (tr.len() as f64 * tr.loss_rate(cfg.playout_delay)).round() as u64;
            prop_assert_eq!(c.interpolated + c.extrapolated, lost);
        }

        /// Burst lengths partition the losses: sum of burst lengths equals
        /// the number of effectively lost packets.
        #[test]
        fn bursts_partition_losses(tr in arb_trace(), deadline_ms in 1u64..500) {
            let d = SimDuration::from_millis(deadline_ms);
            let bursts = tr.burst_lengths(d);
            let total: usize = bursts.iter().sum();
            let lost = tr.loss_indicator(d).iter().sum::<f64>() as usize;
            prop_assert_eq!(total, lost);
            prop_assert!(bursts.iter().all(|b| *b >= 1));
        }

        /// MOS is always in [1, 4.5] and injecting extra loss into the same
        /// trace never improves it by more than numerical noise.
        #[test]
        fn mos_bounded_and_monotone(tr in arb_trace()) {
            let cfg = PlayoutConfig::default();
            let codec = CodecModel::g711_plc();
            let d = DEFAULT_DEADLINE;
            let extra = SimDuration::from_millis(60);
            let c = conceal(&tr, &cfg);
            let q = evaluate(&tr, &c, &codec, d, extra);
            prop_assert!((1.0..=4.5).contains(&q.mos), "mos {}", q.mos);

            // Lose every 3rd delivered packet → strictly more loss.
            let mut worse = tr.clone();
            let mut k = 0;
            for f in worse.fates.iter_mut() {
                if f.arrival.is_some() {
                    if k % 3 == 0 { f.arrival = None; }
                    k += 1;
                }
            }
            let cw = conceal(&worse, &cfg);
            let qw = evaluate(&worse, &cw, &codec, d, extra);
            prop_assert!(qw.mos <= q.mos + 0.25, "worse {} vs {}", qw.mos, q.mos);
        }

        /// worst-window loss ≥ overall loss rate (in percent), always.
        #[test]
        fn worst_window_dominates_mean(tr in arb_trace()) {
            let d = DEFAULT_DEADLINE;
            let w = tr.worst_window_loss_pct(SimDuration::from_secs(5), d);
            prop_assert!(w + 1e-9 >= tr.loss_rate(d) * 100.0 - 1e-9);
        }

        /// Late packets are a subset of deliveries.
        #[test]
        fn late_packets_bounded_by_deliveries(tr in arb_trace()) {
            let c = conceal(&tr, &PlayoutConfig::default());
            prop_assert!(c.late <= tr.delivered_count(), "late {} > delivered {}", c.late, tr.delivered_count());
        }

        /// The trace is insensitive to network reordering: arrivals recorded
        /// in any order (duplicates included — earliest copy wins) produce
        /// the identical per-packet fate vector.
        #[test]
        fn arrival_order_does_not_matter(
            arrivals in proptest::collection::vec((0u64..100, 0u64..400), 0..300),
        ) {
            let spec = StreamSpec {
                packet_bytes: 160,
                interval: SimDuration::from_millis(20),
                duration: SimDuration::from_millis(20 * 100),
            };
            let build = |order: &[(u64, u64)]| {
                let mut tr = StreamTrace::new(spec, SimTime::ZERO);
                for &(seq, ms) in order {
                    let sent = tr.fates[seq as usize].sent;
                    tr.record_arrival(seq, sent + SimDuration::from_millis(ms));
                }
                tr
            };
            let forward = build(&arrivals);
            let mut reversed = arrivals.clone();
            reversed.reverse();
            let backward = build(&reversed);
            let fates = |tr: &StreamTrace| tr.fates.iter().map(|f| f.arrival).collect::<Vec<_>>();
            prop_assert_eq!(fates(&forward), fates(&backward));
        }
    }
}
