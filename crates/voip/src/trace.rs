//! Delivery traces: the per-packet record of one stream over one (or a
//! combination of) link(s).
//!
//! Every strategy in the paper — `stronger`, `better`, `Divert`,
//! `temporal`, `cross-link`, DiversiFi itself — ultimately produces a
//! [`StreamTrace`], and every figure is computed from these traces, exactly
//! mirroring the paper's methodology of running captured packet traces
//! through the G.711 pipeline.

use crate::stream::StreamSpec;
use diversifi_simcore::{SimDuration, SimTime};
use serde::Serialize;

/// What happened to one packet.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct PacketFate {
    /// When the source emitted it.
    pub sent: SimTime,
    /// Earliest arrival at the receiving application, if any.
    pub arrival: Option<SimTime>,
}

impl PacketFate {
    /// Lost outright, or delivered later than `deadline` after sending —
    /// either way useless to a real-time application.
    pub fn effectively_lost(&self, deadline: SimDuration) -> bool {
        match self.arrival {
            None => true,
            Some(at) => at.saturating_since(self.sent) > deadline,
        }
    }

    /// One-way delay, if delivered.
    pub fn delay(&self) -> Option<SimDuration> {
        self.arrival.map(|at| at.saturating_since(self.sent))
    }
}

/// The full per-packet record of one stream at one receiver.
#[derive(Clone, Debug, Serialize)]
pub struct StreamTrace {
    /// The stream's static parameters.
    pub spec: StreamSpec,
    /// Fate of packet `seq` at index `seq`.
    pub fates: Vec<PacketFate>,
}

/// Default usefulness deadline on the access hop: the paper budgets 100 ms
/// for the WiFi hop (§4.2); we allow a little margin for the switch-back.
pub const DEFAULT_DEADLINE: SimDuration = SimDuration::from_millis(150);

impl StreamTrace {
    /// An all-lost trace skeleton for `spec` starting at `start` (fates are
    /// filled in as deliveries happen).
    pub fn new(spec: StreamSpec, start: SimTime) -> StreamTrace {
        let fates = spec
            .schedule(start)
            .map(|(_, sent)| PacketFate { sent, arrival: None })
            .collect();
        StreamTrace { spec, fates }
    }

    /// Record an arrival for `seq`, keeping the earliest if already set.
    pub fn record_arrival(&mut self, seq: u64, at: SimTime) {
        let fate = &mut self.fates[seq as usize];
        fate.arrival = Some(match fate.arrival {
            Some(prev) => prev.min(at),
            None => at,
        });
    }

    /// Number of packets in the stream.
    pub fn len(&self) -> usize {
        self.fates.len()
    }

    /// `true` when the trace holds no packets.
    pub fn is_empty(&self) -> bool {
        self.fates.is_empty()
    }

    /// Overall effective loss rate (fraction), given a usefulness deadline.
    pub fn loss_rate(&self, deadline: SimDuration) -> f64 {
        if self.fates.is_empty() {
            return 0.0;
        }
        let lost = self.fates.iter().filter(|f| f.effectively_lost(deadline)).count();
        lost as f64 / self.fates.len() as f64
    }

    /// Binary loss indicator per packet (1.0 = lost) — the series behind
    /// the paper's correlation analysis (Fig. 4).
    pub fn loss_indicator(&self, deadline: SimDuration) -> Vec<f64> {
        self.fates.iter().map(|f| if f.effectively_lost(deadline) { 1.0 } else { 0.0 }).collect()
    }

    /// Loss rate (percent) in the worst `window` of the call, sliding by
    /// whole windows, as in every "worst 5-second period" figure.
    ///
    /// Single pass with running counters: windows are consecutive
    /// `per_window`-packet blocks (the last may be shorter), each flushed
    /// into the running maximum as it completes. Equivalent to — and
    /// regression-tested against — the original `chunks()` scan.
    pub fn worst_window_loss_pct(&self, window: SimDuration, deadline: SimDuration) -> f64 {
        let per_window = (window / self.spec.interval).max(1) as usize;
        let mut worst: f64 = 0.0;
        let mut lost = 0usize;
        let mut in_window = 0usize;
        for f in &self.fates {
            if f.effectively_lost(deadline) {
                lost += 1;
            }
            in_window += 1;
            if in_window == per_window {
                worst = worst.max(lost as f64 / per_window as f64);
                lost = 0;
                in_window = 0;
            }
        }
        if in_window > 0 {
            worst = worst.max(lost as f64 / in_window as f64);
        }
        worst * 100.0
    }

    /// Lengths of maximal runs of consecutive lost packets.
    pub fn burst_lengths(&self, deadline: SimDuration) -> Vec<usize> {
        let mut out = Vec::new();
        let mut run = 0usize;
        for f in &self.fates {
            if f.effectively_lost(deadline) {
                run += 1;
            } else if run > 0 {
                out.push(run);
                run = 0;
            }
        }
        if run > 0 {
            out.push(run);
        }
        out
    }

    /// Total lost packets and the subset lost in bursts of ≥ 2 — the two
    /// numbers quoted for Figures 5 and 9.
    pub fn loss_burst_split(&self, deadline: SimDuration) -> (u64, u64) {
        let bursts = self.burst_lengths(deadline);
        let total: usize = bursts.iter().sum();
        let bursty: usize = bursts.iter().filter(|b| **b >= 2).sum();
        (total as u64, bursty as u64)
    }

    /// One-way delays of delivered packets, in milliseconds.
    pub fn delays_ms(&self) -> Vec<f64> {
        self.fates.iter().filter_map(|f| f.delay()).map(|d| d.as_millis_f64()).collect()
    }

    /// Per-packet delay jitter series (ms) for trace plots like Fig. 3:
    /// |transit − previous transit| per delivered packet.
    pub fn jitter_series_ms(&self) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        let mut prev: Option<f64> = None;
        for (seq, f) in self.fates.iter().enumerate() {
            if let Some(d) = f.delay() {
                let t = d.as_millis_f64();
                if let Some(p) = prev {
                    out.push((seq as u64, (t - p).abs()));
                }
                prev = Some(t);
            }
        }
        out
    }

    /// The cross-link union of two traces of the same stream: per packet,
    /// the earliest arrival on either link. This is what a two-NIC receiver
    /// sees under full replication.
    pub fn merged_with(&self, other: &StreamTrace) -> StreamTrace {
        assert_eq!(self.len(), other.len(), "traces of different streams");
        let fates = self
            .fates
            .iter()
            .zip(&other.fates)
            .map(|(a, b)| {
                diversifi_simcore::sim_assert_eq!(
                    a.sent,
                    b.sent,
                    "merged traces disagree on send times: {:?} vs {:?}",
                    a.sent,
                    b.sent
                );
                let arrival = match (a.arrival, b.arrival) {
                    (Some(x), Some(y)) => Some(x.min(y)),
                    (x, y) => x.or(y),
                };
                PacketFate { sent: a.sent, arrival }
            })
            .collect();
        StreamTrace { spec: self.spec, fates }
    }

    /// Count of packets delivered (before any deadline filtering).
    pub fn delivered_count(&self) -> u64 {
        self.fates.iter().filter(|f| f.arrival.is_some()).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_trace(pattern: &[Option<u64>]) -> StreamTrace {
        // pattern[i]: Some(delay_ms) = delivered with that delay; None = lost.
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
    }

    #[test]
    fn loss_rate_counts_missing_and_late() {
        let tr = mk_trace(&[Some(5), None, Some(5), Some(500), Some(5)]);
        assert_eq!(tr.loss_rate(DEFAULT_DEADLINE), 2.0 / 5.0);
        // With a huge deadline the late packet counts as delivered.
        assert_eq!(tr.loss_rate(SimDuration::from_secs(10)), 1.0 / 5.0);
    }

    #[test]
    fn record_arrival_keeps_earliest() {
        let mut tr = mk_trace(&[None]);
        tr.record_arrival(0, SimTime::from_millis(30));
        tr.record_arrival(0, SimTime::from_millis(10));
        tr.record_arrival(0, SimTime::from_millis(20));
        assert_eq!(tr.fates[0].arrival, Some(SimTime::from_millis(10)));
    }

    #[test]
    fn worst_window() {
        // 10 packets = 2 windows of 5 (window = 100 ms at 20 ms spacing).
        let tr = mk_trace(&[
            Some(5),
            Some(5),
            Some(5),
            Some(5),
            Some(5), // window 1: 0%
            None,
            None,
            Some(5),
            Some(5),
            Some(5), // window 2: 40%
        ]);
        let w = tr.worst_window_loss_pct(SimDuration::from_millis(100), DEFAULT_DEADLINE);
        assert!((w - 40.0).abs() < 1e-9);
    }

    /// The pre-rewrite `chunks()`-based windowed scan, kept verbatim as the
    /// regression reference for the single-pass implementation.
    fn worst_window_loss_pct_reference(
        tr: &StreamTrace,
        window: SimDuration,
        deadline: SimDuration,
    ) -> f64 {
        let per_window = (window / tr.spec.interval).max(1) as usize;
        let mut worst: f64 = 0.0;
        for chunk in tr.fates.chunks(per_window) {
            let lost = chunk.iter().filter(|f| f.effectively_lost(deadline)).count();
            worst = worst.max(lost as f64 / chunk.len() as f64);
        }
        worst * 100.0
    }

    #[test]
    fn worst_window_single_pass_matches_chunked_reference() {
        // A fixed corpus of adversarial patterns: clean, all-lost, bursts
        // straddling window boundaries, loss concentrated in the ragged
        // tail window, and pseudo-random mixes.
        let mut corpus: Vec<StreamTrace> = vec![
            mk_trace(&[Some(5); 17]),
            mk_trace(&[None; 13]),
            mk_trace(&(0..23).map(|i| if (3..9).contains(&i) { None } else { Some(5) }).collect::<Vec<_>>()),
            mk_trace(&(0..11).map(|i| if i >= 9 { None } else { Some(5) }).collect::<Vec<_>>()),
        ];
        for seed in 0..8u64 {
            let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            let pattern: Vec<Option<u64>> = (0..97)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    if x >> 61 == 0 {
                        None
                    } else {
                        Some(1 + (x >> 32) % 400) // some arrivals past the deadline
                    }
                })
                .collect();
            corpus.push(mk_trace(&pattern));
        }
        // Window sizes spanning sub-packet, even-divisor, ragged-tail and
        // larger-than-call cases.
        for win_ms in [1u64, 20, 60, 100, 140, 500, 10_000] {
            let window = SimDuration::from_millis(win_ms);
            for (i, tr) in corpus.iter().enumerate() {
                let got = tr.worst_window_loss_pct(window, DEFAULT_DEADLINE);
                let want = worst_window_loss_pct_reference(tr, window, DEFAULT_DEADLINE);
                assert_eq!(got.to_bits(), want.to_bits(), "trace {i}, window {win_ms} ms");
            }
        }
    }

    #[test]
    fn burst_lengths_found() {
        let tr = mk_trace(&[
            None,
            Some(5),
            None,
            None,
            None,
            Some(5),
            None,
            None,
            Some(5),
            None,
        ]);
        assert_eq!(tr.burst_lengths(DEFAULT_DEADLINE), vec![1, 3, 2, 1]);
        let (total, bursty) = tr.loss_burst_split(DEFAULT_DEADLINE);
        assert_eq!(total, 7);
        assert_eq!(bursty, 5);
    }

    #[test]
    fn merge_takes_earliest_of_either() {
        let a = mk_trace(&[Some(10), None, Some(30), None]);
        let b = mk_trace(&[Some(20), Some(15), None, None]);
        let m = a.merged_with(&b);
        assert_eq!(m.fates[0].delay().unwrap(), SimDuration::from_millis(10));
        assert_eq!(m.fates[1].delay().unwrap(), SimDuration::from_millis(15));
        assert_eq!(m.fates[2].delay().unwrap(), SimDuration::from_millis(30));
        assert!(m.fates[3].arrival.is_none());
        assert_eq!(m.loss_rate(DEFAULT_DEADLINE), 0.25);
    }

    #[test]
    fn merge_dominates_both_inputs() {
        let a = mk_trace(&[Some(5), None, None, Some(5), None, Some(5)]);
        let b = mk_trace(&[None, Some(5), None, Some(5), Some(5), None]);
        let m = a.merged_with(&b);
        let d = DEFAULT_DEADLINE;
        assert!(m.loss_rate(d) <= a.loss_rate(d));
        assert!(m.loss_rate(d) <= b.loss_rate(d));
        assert_eq!(m.loss_rate(d), 1.0 / 6.0);
    }

    #[test]
    fn jitter_of_constant_delay_is_zero() {
        let tr = mk_trace(&[Some(7), Some(7), Some(7), Some(7)]);
        assert!(tr.jitter_series_ms().iter().all(|(_, j)| *j == 0.0));
    }

    #[test]
    fn jitter_reflects_delay_variation() {
        let tr = mk_trace(&[Some(5), Some(45), Some(5), Some(45), Some(5), Some(45)]);
        let series = tr.jitter_series_ms();
        assert_eq!(series.len(), 5);
        assert!(series.iter().all(|(_, j)| (*j - 40.0).abs() < 1e-9));
    }

    #[test]
    fn loss_indicator_matches_loss_rate() {
        let tr = mk_trace(&[Some(5), None, Some(5), None]);
        let ind = tr.loss_indicator(DEFAULT_DEADLINE);
        assert_eq!(ind, vec![0.0, 1.0, 0.0, 1.0]);
        assert_eq!(
            ind.iter().sum::<f64>() / ind.len() as f64,
            tr.loss_rate(DEFAULT_DEADLINE)
        );
    }

    #[test]
    fn delays_only_for_delivered() {
        let tr = mk_trace(&[Some(5), None, Some(15)]);
        assert_eq!(tr.delays_ms(), vec![5.0, 15.0]);
        assert_eq!(tr.delivered_count(), 2);
    }
}
