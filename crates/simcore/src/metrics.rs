//! Counters, gauges and fixed-bin log-scale histograms.
//!
//! Components own their instruments directly — a [`LogHistogram`] is a
//! plain struct field recorded into with integer math (no floating point,
//! no allocation) — and *export* them into a [`MetricsRegistry`] snapshot
//! at the end of a run. The registry is just a flat, deterministic list of
//! `(component, name, value)` rows: sweeps merge per-run registries into a
//! per-sweep table, and the exporters in [`crate::export`] render them.
//!
//! # Binning scheme
//!
//! [`LogHistogram`] uses half-octave bins: values 0–3 get exact unit bins,
//! and every power of two above that is split in two (`4, 6, 8, 12, 16,
//! 24, 32, 48, …`). `bin_index` is two integer ops off `leading_zeros`,
//! edges are exactly representable in `u64`, and 128 bins cover the full
//! `u64` range — wide enough for nanosecond latencies and narrow enough
//! (≤ 50% relative error per bin) for queue depths and retry counts.

use std::fmt;

use crate::trace::ComponentId;

/// Number of bins in a [`LogHistogram`].
pub const HIST_BINS: usize = 128;

/// Bin index for a value: exact bins below 4, half-octave bins above.
#[inline]
pub fn bin_index(v: u64) -> usize {
    if v < 4 {
        v as usize
    } else {
        let e = 63 - v.leading_zeros() as usize;
        2 * e + ((v >> (e - 1)) & 1) as usize
    }
}

/// Inclusive lower edge of bin `i` (the smallest value mapping to it).
#[inline]
pub fn bin_lower(i: usize) -> u64 {
    if i < 4 {
        i as u64
    } else {
        let e = i / 2;
        if i.is_multiple_of(2) {
            1u64 << e
        } else {
            3u64 << (e - 1)
        }
    }
}

/// Exclusive upper edge of bin `i` (`u64::MAX` for the last bin, whose
/// upper edge is inclusive).
#[inline]
pub fn bin_upper(i: usize) -> u64 {
    if i + 1 >= HIST_BINS {
        u64::MAX
    } else {
        bin_lower(i + 1)
    }
}

/// A fixed-size log-scale histogram of `u64` samples.
///
/// Recording is branch-light integer math into a fixed array — safe to
/// call on simulation hot paths when telemetry is active. Merging adds
/// bin-wise, so per-run histograms aggregate losslessly across a sweep.
#[derive(Clone)]
pub struct LogHistogram {
    bins: [u64; HIST_BINS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram { bins: [0; HIST_BINS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LogHistogram(n={}, min={}, max={})", self.count, self.min(), self.max)
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram::default()
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.bins[bin_index(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Record a (non-negative) float sample, rounding to the nearest
    /// integer; negatives clamp to zero.
    #[inline]
    pub fn record_f64(&mut self, v: f64) {
        self.record(if v <= 0.0 { 0 } else { v.round() as u64 });
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded samples (exact — tracked outside the bins).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Raw bin counts.
    pub fn bins(&self) -> &[u64; HIST_BINS] {
        &self.bins
    }

    /// Approximate quantile: the inclusive lower edge of the bin where the
    /// cumulative count first reaches `q * count` (clamped to the observed
    /// min/max so single-sample histograms answer exactly).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        if rank >= self.count {
            return self.max;
        }
        let mut seen = 0u64;
        for (i, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bin_lower(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Add another histogram bin-wise.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.bins.iter_mut().zip(other.bins.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Iterator over `(lower_edge, count)` for non-empty bins.
    pub fn nonzero_bins(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.bins
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bin_lower(i), c))
    }
}

// Checkpoint serialisation (`campaign` shard digests): sparse
// `[bin_index, count]` pairs plus the exact aggregates. The `u128` sum is
// split into two `u64` halves — every field round-trips through JSON
// exactly, which the campaign resume contract (bit-identical merged
// digests) depends on.
impl serde::Serialize for LogHistogram {
    fn to_value(&self) -> serde::Value {
        use serde::Value;
        let bins: Vec<Value> = self
            .bins
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| Value::Array(vec![Value::U64(i as u64), Value::U64(c)]))
            .collect();
        Value::Object(vec![
            ("count".to_string(), Value::U64(self.count)),
            ("sum_hi".to_string(), Value::U64((self.sum >> 64) as u64)),
            ("sum_lo".to_string(), Value::U64(self.sum as u64)),
            ("min".to_string(), Value::U64(self.min)),
            ("max".to_string(), Value::U64(self.max)),
            ("bins".to_string(), Value::Array(bins)),
        ])
    }
}

impl serde::Deserialize for LogHistogram {
    fn from_value(v: &serde::Value) -> Result<Self, String> {
        let field = |name: &str| {
            v.get(name)
                .and_then(|f| f.as_u64())
                .ok_or_else(|| format!("LogHistogram: missing/invalid field `{name}`"))
        };
        let mut h = LogHistogram {
            bins: [0; HIST_BINS],
            count: field("count")?,
            sum: ((field("sum_hi")? as u128) << 64) | field("sum_lo")? as u128,
            min: field("min")?,
            max: field("max")?,
        };
        let bins = v
            .get("bins")
            .and_then(|b| b.as_array())
            .ok_or("LogHistogram: missing `bins` array")?;
        for pair in bins {
            let p = pair.as_array().ok_or("LogHistogram: bin entry is not a pair")?;
            let (i, c) = match p {
                [i, c] => (
                    i.as_u64().ok_or("LogHistogram: bad bin index")?,
                    c.as_u64().ok_or("LogHistogram: bad bin count")?,
                ),
                _ => return Err("LogHistogram: bin entry is not a pair".to_string()),
            };
            if i as usize >= HIST_BINS {
                return Err(format!("LogHistogram: bin index {i} out of range"));
            }
            h.bins[i as usize] = c;
        }
        Ok(h)
    }
}

/// One snapshot value in a [`MetricsRegistry`].
//
// A registry holds at most a few dozen rows, so the size spread between
// `Counter` and the fixed-array `Histogram` costs nothing worth a Box's
// per-sample indirection on the record path.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum MetricValue {
    /// A monotone count.
    Counter(u64),
    /// A point-in-time level, stored as `(sum, n)` so merged gauges
    /// render as a mean across runs.
    Gauge {
        /// Sum of the gauge readings merged so far.
        sum: f64,
        /// Number of readings.
        n: u64,
    },
    /// A full log-scale distribution.
    Histogram(LogHistogram),
}

/// One `(component, name, value)` row.
#[derive(Clone, Debug)]
pub struct MetricRow {
    /// Which component exported the value.
    pub who: ComponentId,
    /// Stable metric name (static so snapshots never allocate strings).
    pub name: &'static str,
    /// The value.
    pub value: MetricValue,
}

/// A flat, deterministic snapshot of component metrics for one run (or,
/// after merging, one sweep).
///
/// Components push rows in export-time order; `sort_rows` gives a
/// canonical ordering and `merge_from` folds another run's snapshot in
/// (counters add, gauges average, histograms merge bin-wise).
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    rows: Vec<MetricRow>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Remove all rows, keeping the allocation.
    pub fn clear(&mut self) {
        self.rows.clear();
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows have been exported.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows, in insertion (or, after [`sort_rows`](Self::sort_rows),
    /// canonical) order.
    pub fn rows(&self) -> &[MetricRow] {
        &self.rows
    }

    /// Export a counter.
    pub fn counter(&mut self, who: ComponentId, name: &'static str, v: u64) {
        self.rows.push(MetricRow { who, name, value: MetricValue::Counter(v) });
    }

    /// Export a gauge reading.
    pub fn gauge(&mut self, who: ComponentId, name: &'static str, v: f64) {
        self.rows.push(MetricRow { who, name, value: MetricValue::Gauge { sum: v, n: 1 } });
    }

    /// Export a histogram (cloned — the component keeps recording into
    /// its own).
    pub fn histogram(&mut self, who: ComponentId, name: &'static str, h: &LogHistogram) {
        self.rows.push(MetricRow { who, name, value: MetricValue::Histogram(h.clone()) });
    }

    /// Look up a row by component and name.
    pub fn get(&self, who: ComponentId, name: &str) -> Option<&MetricValue> {
        self.rows.iter().find(|r| r.who == who && r.name == name).map(|r| &r.value)
    }

    /// Sort rows by `(component, name)` for a canonical, thread-count
    /// independent ordering.
    pub fn sort_rows(&mut self) {
        self.rows.sort_by(|a, b| (a.who, a.name).cmp(&(b.who, b.name)));
    }

    /// Fold another snapshot in: matching `(who, name)` rows combine
    /// (counters add, gauges accumulate toward a mean, histograms merge),
    /// unmatched rows are appended.
    pub fn merge_from(&mut self, other: &MetricsRegistry) {
        for row in &other.rows {
            let pos = self.rows.iter().position(|r| r.who == row.who && r.name == row.name);
            let combined = match pos {
                Some(i) => match (&mut self.rows[i].value, &row.value) {
                    (MetricValue::Counter(a), MetricValue::Counter(b)) => {
                        *a += b;
                        true
                    }
                    (MetricValue::Gauge { sum, n }, MetricValue::Gauge { sum: s2, n: n2 }) => {
                        *sum += s2;
                        *n += n2;
                        true
                    }
                    (MetricValue::Histogram(a), MetricValue::Histogram(b)) => {
                        a.merge(b);
                        true
                    }
                    // Mismatched types under one name: keep both visible.
                    _ => false,
                },
                None => false,
            };
            if !combined {
                self.rows.push(row.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_edges_are_strictly_monotone() {
        for i in 1..HIST_BINS {
            assert!(bin_lower(i) > bin_lower(i - 1), "bin {i}");
        }
    }

    #[test]
    fn bin_index_respects_edges() {
        for v in [0u64, 1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 13, 100, 1023, 1024, u64::MAX] {
            let i = bin_index(v);
            assert!(bin_lower(i) <= v, "v={v} bin={i}");
            if i + 1 < HIST_BINS {
                assert!(v < bin_lower(i + 1), "v={v} bin={i}");
            }
        }
        // Spot-check the documented edge sequence.
        let edges: Vec<u64> = (0..12).map(bin_lower).collect();
        assert_eq!(edges, vec![0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48]);
    }

    #[test]
    fn histogram_basic_stats() {
        let mut h = LogHistogram::new();
        for v in [1u64, 2, 3, 10, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 1116.0 / 6.0).abs() < 1e-9);
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 1000); // clamped to observed max
        assert!(h.quantile(0.5) <= h.quantile(0.9));
    }

    #[test]
    fn histogram_merge_equals_combined_recording() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut both = LogHistogram::new();
        for v in 0..500u64 {
            let x = v * v % 7919;
            if v % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            both.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.bins(), both.bins());
        assert_eq!(a.min(), both.min());
        assert_eq!(a.max(), both.max());
        assert_eq!(a.quantile(0.9), both.quantile(0.9));
    }

    #[test]
    fn registry_merge_and_lookup() {
        let who = ComponentId::ap(0);
        let mut run1 = MetricsRegistry::new();
        run1.counter(who, "drops", 3);
        run1.gauge(who, "load", 0.5);
        let mut h1 = LogHistogram::new();
        h1.record(10);
        run1.histogram(who, "depth", &h1);

        let mut run2 = MetricsRegistry::new();
        run2.counter(who, "drops", 4);
        run2.gauge(who, "load", 1.5);
        let mut h2 = LogHistogram::new();
        h2.record(20);
        run2.histogram(who, "depth", &h2);
        run2.counter(ComponentId::tcp(), "timeouts", 1);

        run1.merge_from(&run2);
        match run1.get(who, "drops") {
            Some(MetricValue::Counter(n)) => assert_eq!(*n, 7),
            other => panic!("{other:?}"),
        }
        match run1.get(who, "load") {
            Some(MetricValue::Gauge { sum, n }) => {
                assert_eq!(*n, 2);
                assert!((sum / *n as f64 - 1.0).abs() < 1e-12);
            }
            other => panic!("{other:?}"),
        }
        match run1.get(who, "depth") {
            Some(MetricValue::Histogram(h)) => assert_eq!(h.count(), 2),
            other => panic!("{other:?}"),
        }
        assert!(run1.get(ComponentId::tcp(), "timeouts").is_some());
        run1.sort_rows();
        let names: Vec<_> = run1.rows().iter().map(|r| (r.who, r.name)).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn record_f64_clamps_and_rounds() {
        let mut h = LogHistogram::new();
        h.record_f64(-3.0);
        h.record_f64(2.6);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 3);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A reference histogram binning through `f64` logarithms: compute the
    /// half-octave bin as `floor(2 * log2(v))` adjusted for the half step,
    /// by scanning the (f64-converted) edge table. Restricted to values
    /// ≤ 2^53 where `u64 → f64` is exact.
    fn reference_bin(v: u64) -> usize {
        if v < 4 {
            return v as usize;
        }
        let x = v as f64;
        let e = x.log2().floor() as usize;
        // log2 rounding near exact powers of two can be off by one; probe
        // the three candidate exponents with exact integer edges.
        for cand_e in [e.saturating_sub(1), e, e + 1] {
            for half in [0usize, 1] {
                let i = 2 * cand_e + half;
                if i < HIST_BINS && bin_lower(i) <= v && v < bin_upper(i) {
                    return i;
                }
            }
        }
        unreachable!("no bin for {v}");
    }

    proptest! {
        /// The integer `leading_zeros` binning agrees with the f64-log
        /// reference everywhere f64 can represent the value exactly.
        #[test]
        fn bin_index_matches_f64_reference(v in 0u64..(1u64 << 53)) {
            prop_assert_eq!(bin_index(v), reference_bin(v));
        }

        /// Bin membership invariant over the full u64 range: every value
        /// lands in a bin whose edges bracket it.
        #[test]
        fn bin_edges_bracket_all_values(v in any::<u64>()) {
            let i = bin_index(v);
            prop_assert!(i < HIST_BINS);
            prop_assert!(bin_lower(i) <= v);
            if i + 1 < HIST_BINS {
                prop_assert!(v < bin_lower(i + 1));
            }
        }

        /// Quantiles are monotone in q and bracketed by min/max.
        #[test]
        fn quantiles_monotone(mut vs in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut h = LogHistogram::new();
            for &v in &vs {
                h.record(v);
            }
            vs.sort_unstable();
            let (mut last, qs) = (0u64, [0.0, 0.25, 0.5, 0.75, 0.9, 1.0]);
            for q in qs {
                let got = h.quantile(q);
                prop_assert!(got >= last);
                prop_assert!(got >= h.min() && got <= h.max());
                last = got;
            }
            // The histogram quantile never overshoots the true quantile by
            // more than one bin's relative width (50%) downward.
            let true_median = vs[(vs.len() - 1) / 2];
            let got = h.quantile(0.5);
            prop_assert!(got <= true_median);
            prop_assert!(bin_upper(bin_index(got)) > true_median / 2);
        }

        /// Merge is commutative and associative, bit for bit — the
        /// property the campaign's shard-order-invariant health fold (and
        /// every digest histogram channel) rests on.
        #[test]
        fn merge_is_commutative_and_associative(
            a in proptest::collection::vec(any::<u64>(), 0..60),
            b in proptest::collection::vec(any::<u64>(), 0..60),
            c in proptest::collection::vec(any::<u64>(), 0..60),
        ) {
            let of = |vs: &[u64]| {
                let mut h = LogHistogram::new();
                for &v in vs {
                    h.record(v);
                }
                h
            };
            let same = |x: &LogHistogram, y: &LogHistogram| {
                x.bins == y.bins
                    && x.count == y.count
                    && x.sum == y.sum
                    && x.min == y.min
                    && x.max == y.max
            };

            // Commutativity: a ⊕ b == b ⊕ a.
            let mut ab = of(&a);
            ab.merge(&of(&b));
            let mut ba = of(&b);
            ba.merge(&of(&a));
            prop_assert!(same(&ab, &ba));

            // Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
            let mut left = ab.clone();
            left.merge(&of(&c));
            let mut bc = of(&b);
            bc.merge(&of(&c));
            let mut right = of(&a);
            right.merge(&bc);
            prop_assert!(same(&left, &right));

            // And merging equals recording the concatenated stream.
            let mut all = a.clone();
            all.extend_from_slice(&b);
            all.extend_from_slice(&c);
            prop_assert!(same(&left, &of(&all)));
        }
    }
}
