//! Cloud-gaming FPS workload: tick traffic with hard per-tick deadlines.
//!
//! Models the traffic shape of "Can a Wi-Fi WLAN Support a First Person
//! Shooter?": the server streams fixed-cadence state bursts down to the
//! client, the client sends small input ticks up every frame, and quality
//! is a function of *deadline hits*, not throughput — a state tick that
//! arrives after the next frame renders is as useless as one that never
//! arrives. The per-tick reducers here mirror the VoIP trace reducers
//! (single pass, regression-tested against naive references) so both
//! workloads hold the same determinism and testing contract.

use crate::stream::StreamSpec;
use crate::trace::StreamTrace;
use diversifi_simcore::SimDuration;
use serde::{Deserialize, Serialize};

/// Static parameters of one FPS session.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FpsConfig {
    /// Frame cadence — one state burst down and one input tick up per tick.
    pub tick: SimDuration,
    /// Server→client state burst payload per tick.
    pub state_bytes: u32,
    /// Client→server input payload per tick.
    pub input_bytes: u32,
    /// Session length.
    pub duration: SimDuration,
    /// A state tick arriving later than this after its send is a miss.
    pub deadline: SimDuration,
    /// An input tick arriving at the server later than this is a miss.
    pub input_deadline: SimDuration,
    /// Window for the worst-window tick-outage metric.
    pub window: SimDuration,
}

impl FpsConfig {
    /// The committed office preset: ~67 Hz tick, 420 B state bursts, 48 B
    /// inputs, deadlines well inside human-noticeable FPS lag.
    pub fn office() -> FpsConfig {
        FpsConfig {
            tick: SimDuration::from_millis(15),
            state_bytes: 420,
            input_bytes: 48,
            duration: SimDuration::from_secs(120),
            deadline: SimDuration::from_millis(80),
            input_deadline: SimDuration::from_millis(60),
            window: SimDuration::from_secs(1),
        }
    }

    /// The downlink state stream as a [`StreamSpec`] — this is what the
    /// world's source model, channel horizon, and queue-backend selection
    /// all key off, exactly as for VoIP.
    pub fn downlink_spec(&self) -> StreamSpec {
        StreamSpec { packet_bytes: self.state_bytes, interval: self.tick, duration: self.duration }
    }

    /// The uplink input-tick stream as a [`StreamSpec`].
    pub fn input_spec(&self) -> StreamSpec {
        StreamSpec { packet_bytes: self.input_bytes, interval: self.tick, duration: self.duration }
    }
}

/// Per-tick deadline metrics for one direction of one session.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TickStats {
    /// Ticks in the session.
    pub ticks: u64,
    /// Ticks that arrived within the deadline.
    pub on_time: u64,
    /// Ticks that arrived, but after the deadline.
    pub late: u64,
    /// Ticks that never arrived.
    pub lost: u64,
    /// Missed-tick rate (percent) in the worst `window` of the session.
    pub worst_window_pct: f64,
    /// Longest run of consecutive missed ticks.
    pub longest_outage_ticks: u64,
}

impl TickStats {
    /// Fraction of ticks missed (late or lost). 0 for an empty session.
    pub fn miss_rate(&self) -> f64 {
        if self.ticks == 0 {
            return 0.0;
        }
        (self.late + self.lost) as f64 / self.ticks as f64
    }
}

/// Reduce a per-tick trace to deadline metrics in one pass.
///
/// Mirrors `StreamTrace::worst_window_loss_pct`: windows are consecutive
/// `per_window`-tick blocks (the last may be shorter), flushed into the
/// running maximum as each completes; the outage run counter rides the
/// same loop. Equivalent to — and property-tested against — naive
/// separate scans (`fps::proptests`).
pub fn tick_stats(trace: &StreamTrace, deadline: SimDuration, window: SimDuration) -> TickStats {
    let per_window = (window / trace.spec.interval).max(1) as usize;
    let mut s = TickStats { ticks: trace.len() as u64, ..TickStats::default() };
    // Track the worst window as a *fraction* and scale once at the end —
    // the exact operation order of `StreamTrace::worst_window_loss_pct`,
    // so the two reducers agree bit-for-bit on pure-loss traces.
    let mut worst: f64 = 0.0;
    let mut window_missed = 0usize;
    let mut in_window = 0usize;
    let mut run = 0u64;
    for f in &trace.fates {
        let missed = match f.arrival {
            None => {
                s.lost += 1;
                true
            }
            Some(at) if at.saturating_since(f.sent) > deadline => {
                s.late += 1;
                true
            }
            Some(_) => {
                s.on_time += 1;
                false
            }
        };
        if missed {
            window_missed += 1;
            run += 1;
            s.longest_outage_ticks = s.longest_outage_ticks.max(run);
        } else {
            run = 0;
        }
        in_window += 1;
        if in_window == per_window {
            worst = worst.max(window_missed as f64 / per_window as f64);
            window_missed = 0;
            in_window = 0;
        }
    }
    if in_window > 0 {
        worst = worst.max(window_missed as f64 / in_window as f64);
    }
    s.worst_window_pct = worst * 100.0;
    s
}

/// Full quality summary of one FPS session, attached to run reports and
/// resilience artifacts.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct FpsOutcome {
    /// Downlink state-tick metrics (deadline = `cfg.deadline`).
    pub state: TickStats,
    /// Uplink input-tick metrics (deadline = `cfg.input_deadline`).
    pub input: TickStats,
    /// Input ticks that fired while the client had no usable radio.
    pub input_blackout: u64,
    /// Session QoE per [`fps_qoe`].
    pub qoe: f64,
}

/// Deadline-based session QoE on a 0–100 scale (the FPS analogue of the
/// E-model MOS): 100 for a perfect session, heavily penalising missed
/// state ticks, concentrated outages, and missed inputs. Poor below
/// [`FPS_QOE_POOR`]. Monotone non-increasing in every impairment.
pub fn fps_qoe(cfg: &FpsConfig, state: &TickStats, input: &TickStats) -> f64 {
    let outage_ms = state.longest_outage_ticks as f64 * cfg.tick.as_millis_f64();
    let q = 100.0
        - 600.0 * state.miss_rate()
        - 0.8 * state.worst_window_pct
        - 25.0 * (1.0 - (-outage_ms / 250.0).exp())
        - 400.0 * input.miss_rate();
    q.clamp(0.0, 100.0)
}

/// Sessions scoring below this are "poor" in campaign tables (the FPS
/// analogue of the MOS < 3.6 poor-call threshold).
pub const FPS_QOE_POOR: f64 = 60.0;

/// Session-level FPS metrics estimated from per-call *hop statistics*
/// (the fleet population model's loss / burstiness / delay draws), for
/// campaign folds where no per-tick trace exists.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct FpsSessionMetrics {
    /// Estimated state-tick miss fraction (loss + deadline-late).
    pub state_miss: f64,
    /// Estimated worst-window miss percentage.
    pub worst_window_pct: f64,
    /// Estimated longest-outage duration (ms).
    pub outage_ms: f64,
    /// Session QoE per [`fps_qoe`]'s impairment shape.
    pub qoe: f64,
}

/// Map per-call hop statistics to FPS session metrics. Same shape as
/// [`fps_qoe`]: the loss rate stands in for the tick miss rate,
/// burstiness concentrates misses into windows and outages, and one-way
/// delay near the deadline turns on-time ticks late.
///
/// `delay_ms` is the one-way *network* delay — no codec/playout budget
/// (a game pipeline has none). Per-tick delays spread around that mean,
/// so the late fraction is the jitter tail past each deadline: a
/// logistic in (deadline − delay) whose spread grows with the path
/// length (long backhauls jitter more). State and input ticks see the
/// same network but are judged against their own deadlines.
pub fn session_metrics(
    cfg: &FpsConfig,
    loss_pct: f64,
    burst_ratio: f64,
    delay_ms: f64,
) -> FpsSessionMetrics {
    let miss = (loss_pct / 100.0).clamp(0.0, 1.0);
    let jitter_ms = 4.0 + 0.12 * delay_ms.max(0.0);
    let late = |deadline: SimDuration| {
        (1.0 - miss) / (1.0 + ((deadline.as_millis_f64() - delay_ms) / jitter_ms).exp())
    };
    let state_miss = (miss + late(cfg.deadline)).min(1.0);
    let input_miss = (miss + late(cfg.input_deadline)).min(1.0);
    // Burstier loss concentrates the same misses into worse windows and
    // longer outages.
    let b = burst_ratio.max(1.0);
    let worst_window_pct = (100.0 * state_miss * b).min(100.0);
    let outage_ms = state_miss * b * 40.0 * cfg.tick.as_millis_f64();
    let q = 100.0
        - 600.0 * state_miss
        - 0.8 * worst_window_pct
        - 25.0 * (1.0 - (-outage_ms / 250.0).exp())
        - 400.0 * input_miss;
    FpsSessionMetrics { state_miss, worst_window_pct, outage_ms, qoe: q.clamp(0.0, 100.0) }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use diversifi_simcore::SimTime;
    use proptest::prelude::*;

    /// Naive reference: each metric by its own scan, the worst window via
    /// the verbatim old-style `chunks()` sweep the VoIP reducer was ported
    /// from. The single-pass [`tick_stats`] must agree bit-for-bit.
    fn tick_stats_reference(
        trace: &StreamTrace,
        deadline: SimDuration,
        window: SimDuration,
    ) -> TickStats {
        let missed: Vec<bool> = trace
            .fates
            .iter()
            .map(|f| match f.arrival {
                None => true,
                Some(at) => at.saturating_since(f.sent) > deadline,
            })
            .collect();
        let lost = trace.fates.iter().filter(|f| f.arrival.is_none()).count() as u64;
        let late = missed.iter().filter(|m| **m).count() as u64 - lost;
        let per_window = (window / trace.spec.interval).max(1) as usize;
        let worst_window_pct = missed
            .chunks(per_window)
            .map(|c| c.iter().filter(|m| **m).count() as f64 / c.len() as f64)
            .fold(0.0f64, f64::max)
            * 100.0;
        let longest = missed
            .split(|m| !*m)
            .map(|run| run.len() as u64)
            .max()
            .unwrap_or(0);
        TickStats {
            ticks: trace.len() as u64,
            on_time: trace.len() as u64 - late - lost,
            late,
            lost,
            worst_window_pct,
            longest_outage_ticks: longest,
        }
    }

    fn arb_tick_trace() -> impl Strategy<Value = StreamTrace> {
        proptest::collection::vec(proptest::option::of(0u64..300), 1..400).prop_map(|pattern| {
            let spec = StreamSpec {
                packet_bytes: 420,
                interval: SimDuration::from_millis(15),
                duration: SimDuration::from_millis(15 * pattern.len() as u64),
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
        /// The single-pass reducer equals the naive reference bit-for-bit:
        /// counts exactly, the worst-window and outage floats via
        /// `to_bits` so not even a rounding change slips through.
        #[test]
        fn single_pass_matches_naive_reference(
            tr in arb_tick_trace(),
            deadline_ms in 1u64..250,
            window_ticks in 1u64..80,
        ) {
            let d = SimDuration::from_millis(deadline_ms);
            let w = SimDuration::from_millis(15 * window_ticks);
            let got = tick_stats(&tr, d, w);
            let want = tick_stats_reference(&tr, d, w);
            prop_assert_eq!(got.ticks, want.ticks);
            prop_assert_eq!(got.on_time, want.on_time);
            prop_assert_eq!(got.late, want.late);
            prop_assert_eq!(got.lost, want.lost);
            prop_assert_eq!(got.worst_window_pct.to_bits(), want.worst_window_pct.to_bits());
            prop_assert_eq!(got.longest_outage_ticks, want.longest_outage_ticks);
        }

        /// Structural invariants: the fates partition the ticks, the worst
        /// window dominates the mean miss rate, and the longest outage
        /// can't exceed the total number of missed ticks.
        #[test]
        fn tick_stats_invariants(tr in arb_tick_trace(), deadline_ms in 1u64..250) {
            let d = SimDuration::from_millis(deadline_ms);
            let s = tick_stats(&tr, d, SimDuration::from_secs(1));
            prop_assert_eq!(s.on_time + s.late + s.lost, s.ticks);
            prop_assert!(s.worst_window_pct + 1e-9 >= 100.0 * s.miss_rate() - 1e-9);
            prop_assert!(s.longest_outage_ticks <= s.late + s.lost);
        }

        /// QoE stays in [0, 100] and never *rises* when ticks that were on
        /// time become lost.
        #[test]
        fn qoe_bounded_and_monotone(tr in arb_tick_trace()) {
            let cfg = FpsConfig::office();
            let perfect = TickStats { ticks: 1, on_time: 1, ..TickStats::default() };
            let s = tick_stats(&tr, cfg.deadline, cfg.window);
            let q = fps_qoe(&cfg, &s, &perfect);
            prop_assert!((0.0..=100.0).contains(&q));

            let mut worse = tr.clone();
            let mut k = 0usize;
            for f in worse.fates.iter_mut() {
                if f.arrival.is_some() {
                    if k.is_multiple_of(3) { f.arrival = None; }
                    k += 1;
                }
            }
            let sw = tick_stats(&worse, cfg.deadline, cfg.window);
            let qw = fps_qoe(&cfg, &sw, &perfect);
            prop_assert!(qw <= q + 1e-9, "more loss must not raise QoE: {} vs {}", qw, q);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diversifi_simcore::SimTime;

    fn trace_from(pattern: &[Option<u64>], interval_ms: u64) -> StreamTrace {
        let spec = StreamSpec {
            packet_bytes: 420,
            interval: SimDuration::from_millis(interval_ms),
            duration: SimDuration::from_millis(interval_ms * pattern.len() as u64),
        };
        let mut t = StreamTrace::new(spec, SimTime::ZERO);
        for (i, p) in pattern.iter().enumerate() {
            if let Some(delay_ms) = p {
                let sent = t.fates[i].sent;
                t.record_arrival(i as u64, sent + SimDuration::from_millis(*delay_ms));
            }
        }
        t
    }

    #[test]
    fn counts_on_time_late_lost() {
        // deadline 80 ms: 10 on time, 200 late, None lost.
        let t = trace_from(&[Some(10), Some(200), None, Some(80), Some(81)], 15);
        let s = tick_stats(&t, SimDuration::from_millis(80), SimDuration::from_secs(1));
        assert_eq!((s.ticks, s.on_time, s.late, s.lost), (5, 2, 2, 1));
        assert!((s.miss_rate() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn outage_is_longest_missed_run() {
        let t = trace_from(&[Some(1), None, None, Some(200), Some(1), None, Some(1)], 15);
        let s = tick_stats(&t, SimDuration::from_millis(80), SimDuration::from_secs(1));
        assert_eq!(s.longest_outage_ticks, 3);
    }

    #[test]
    fn worst_window_matches_voip_reducer_on_pure_loss() {
        // With only true losses (no lates), the FPS worst-window must agree
        // with the VoIP trace reducer bit-for-bit.
        let pattern: Vec<Option<u64>> =
            (0..300).map(|i| if i % 7 == 0 || (100..140).contains(&i) { None } else { Some(5) }).collect();
        let t = trace_from(&pattern, 15);
        let w = SimDuration::from_secs(1);
        let d = SimDuration::from_millis(80);
        let s = tick_stats(&t, d, w);
        assert_eq!(s.worst_window_pct.to_bits(), t.worst_window_loss_pct(w, d).to_bits());
    }

    #[test]
    fn perfect_session_scores_100_and_degrades_monotonically() {
        let cfg = FpsConfig::office();
        let perfect = TickStats { ticks: 8000, on_time: 8000, ..TickStats::default() };
        assert_eq!(fps_qoe(&cfg, &perfect, &perfect).to_bits(), 100f64.to_bits());
        let mut prev = 100.0;
        for lost in [10u64, 80, 400, 2000, 8000] {
            let s = TickStats {
                ticks: 8000,
                on_time: 8000 - lost,
                lost,
                worst_window_pct: 100.0 * lost as f64 / 8000.0,
                longest_outage_ticks: lost / 10,
                ..TickStats::default()
            };
            let q = fps_qoe(&cfg, &s, &perfect);
            assert!(q <= prev, "QoE must not rise with more loss: {q} after {prev}");
            prev = q;
        }
        assert_eq!(prev.to_bits(), 0f64.to_bits());
    }

    #[test]
    fn session_qoe_monotone_in_each_impairment() {
        let cfg = FpsConfig::office();
        let mut prev = f64::INFINITY;
        for loss in [0.0, 0.5, 2.0, 10.0, 50.0] {
            let q = session_metrics(&cfg, loss, 1.0, 20.0).qoe;
            assert!(q <= prev);
            prev = q;
        }
        let mut prev = f64::INFINITY;
        for delay in [5.0, 40.0, 70.0, 90.0, 200.0] {
            let q = session_metrics(&cfg, 1.0, 1.0, delay).qoe;
            assert!(q <= prev);
            prev = q;
        }
        let mut prev = f64::INFINITY;
        for burst in [1.0, 2.0, 4.0, 8.0] {
            let q = session_metrics(&cfg, 5.0, burst, 20.0).qoe;
            assert!(q <= prev);
            prev = q;
        }
        assert!(session_metrics(&cfg, 0.0, 1.0, 5.0).qoe > 99.9);
    }
}
