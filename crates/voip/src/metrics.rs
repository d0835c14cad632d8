//! Figure-level metric helpers built on [`StreamTrace`]s.

use crate::trace::StreamTrace;
use diversifi_simcore::stats::BucketHistogram;
use diversifi_simcore::{autocorrelation, cross_correlation, telemetry, Ecdf, SimDuration};

/// Autocorrelation of a trace's loss process at lags `1..=max_lag` packets
/// (paper Fig. 4, "Auto Correlation" series).
pub fn loss_autocorrelation(
    trace: &StreamTrace,
    deadline: SimDuration,
    max_lag: usize,
) -> Vec<(usize, f64)> {
    let _span = telemetry::span(telemetry::Phase::MetricsReduce);
    let loss = trace.loss_indicator(deadline);
    (1..=max_lag).map(|lag| (lag, autocorrelation(&loss, lag))).collect()
}

/// Cross-correlation of two links' loss processes at lags `0..=max_lag`
/// (paper Fig. 4, "Cross Correlation" series).
pub fn loss_cross_correlation(
    a: &StreamTrace,
    b: &StreamTrace,
    deadline: SimDuration,
    max_lag: usize,
) -> Vec<(usize, f64)> {
    let _span = telemetry::span(telemetry::Phase::MetricsReduce);
    let (la, lb) = (a.loss_indicator(deadline), b.loss_indicator(deadline));
    (0..=max_lag).map(|lag| (lag, cross_correlation(&la, &lb, lag))).collect()
}

/// Aggregate burst-length histogram over a corpus of calls, bucketed
/// 1..=10 plus ">10" (paper Figs. 5 and 9).
pub fn burst_histogram(traces: &[StreamTrace], deadline: SimDuration) -> BucketHistogram {
    let mut h = BucketHistogram::new(10);
    for tr in traces {
        for b in tr.burst_lengths(deadline) {
            // Weight by the number of packets in the burst so the y-axis is
            // "average count of lost packets" as in the paper.
            h.add_weighted(b, b as u64);
        }
    }
    h
}

/// ECDF of worst-window loss percentages over a corpus (the paper's
/// Fig. 2/8 series).
pub fn worst_window_ecdf(
    traces: &[StreamTrace],
    window: SimDuration,
    deadline: SimDuration,
) -> Ecdf {
    Ecdf::new(traces.iter().map(|t| t.worst_window_loss_pct(window, deadline)).collect())
}

/// Mean per-call (total losses, losses in bursts ≥ 2) over a corpus — the
/// summary numbers quoted around Figs. 5 and 9.
pub fn mean_loss_burst_split(traces: &[StreamTrace], deadline: SimDuration) -> (f64, f64) {
    if traces.is_empty() {
        return (0.0, 0.0);
    }
    let mut total = 0u64;
    let mut bursty = 0u64;
    for tr in traces {
        let (t, b) = tr.loss_burst_split(deadline);
        total += t;
        bursty += b;
    }
    (total as f64 / traces.len() as f64, bursty as f64 / traces.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamSpec;
    use crate::trace::DEFAULT_DEADLINE;
    use diversifi_simcore::{SimDuration, SimTime};

    fn trace_where(n: usize, lose: impl Fn(usize) -> bool) -> StreamTrace {
        let spec = StreamSpec {
            packet_bytes: 160,
            interval: SimDuration::from_millis(20),
            duration: SimDuration::from_millis(20 * n as u64),
        };
        let mut tr = StreamTrace::new(spec, SimTime::ZERO);
        for i in 0..n {
            if !lose(i) {
                let sent = tr.fates[i].sent;
                tr.record_arrival(i as u64, sent + SimDuration::from_millis(8));
            }
        }
        tr
    }

    #[test]
    fn autocorrelation_positive_for_bursty_trace() {
        // Bursts of 8 every 100 → strong positive short-lag autocorrelation.
        let tr = trace_where(5000, |i| i % 100 < 8);
        let ac = loss_autocorrelation(&tr, DEFAULT_DEADLINE, 20);
        assert_eq!(ac.len(), 20);
        assert!(ac[0].1 > 0.5, "lag-1 {}", ac[0].1);
        assert!(ac[0].1 > ac[15].1, "autocorr should decay");
    }

    #[test]
    fn cross_correlation_near_zero_for_unrelated() {
        let a = trace_where(5000, |i| i % 97 < 5);
        let b = trace_where(5000, |i| (i + 31) % 89 < 5);
        let cc = loss_cross_correlation(&a, &b, DEFAULT_DEADLINE, 20);
        assert_eq!(cc.len(), 21);
        for (lag, v) in cc {
            assert!(v.abs() < 0.15, "lag {lag}: {v}");
        }
    }

    #[test]
    fn burst_histogram_weights_by_packets() {
        let traces = vec![trace_where(1000, |i| i % 100 < 3)]; // 10 bursts of 3
        let h = burst_histogram(&traces, DEFAULT_DEADLINE);
        assert_eq!(h.count(3), 30, "10 bursts × 3 packets each");
        assert_eq!(h.count(1), 0);
    }

    #[test]
    fn worst_window_ecdf_has_one_point_per_call() {
        let traces: Vec<StreamTrace> =
            (0..7).map(|k| trace_where(500, move |i| i % (20 + k) == 0)).collect();
        let e = worst_window_ecdf(&traces, SimDuration::from_secs(5), DEFAULT_DEADLINE);
        assert_eq!(e.len(), 7);
    }

    #[test]
    fn mean_split_averages_over_calls() {
        let traces = vec![
            trace_where(1000, |i| i % 100 < 2), // 20 lost, all in bursts of 2
            trace_where(1000, |i| i % 100 == 0), // 10 lost, none bursty
        ];
        let (total, bursty) = mean_loss_burst_split(&traces, DEFAULT_DEADLINE);
        assert_eq!(total, 15.0);
        assert_eq!(bursty, 10.0);
        assert_eq!(mean_loss_burst_split(&[], DEFAULT_DEADLINE), (0.0, 0.0));
    }
}
