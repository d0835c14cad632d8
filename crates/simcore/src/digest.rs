//! Mergeable shard digests for constant-memory campaign aggregation.
//!
//! A million-call campaign cannot materialise per-call records the way
//! `Vec`-returning sweeps do — it folds every call into a [`ShardDigest`]:
//! a fixed set of named channels, each one of
//!
//! - a **counter** (`u64`),
//! - a **summary** (Welford mean/variance plus min/max),
//! - a **histogram** (the half-octave [`LogHistogram`]),
//! - a **sketch** (a deterministic multi-level quantile sketch,
//!   [`QuantileSketch`]).
//!
//! Digests are *mergeable*: shard digests combine pairwise into the
//! campaign digest with no loss beyond each channel's own approximation,
//! and the merge is a pure function of the operand order, so a campaign
//! aggregated at any thread count — or resumed from checkpointed shard
//! digests — produces bit-identical results as long as shards are merged
//! in index order (which [`crate::campaign`] guarantees).
//!
//! Channel layout is fixed up front by a [`DigestSchema`]: folding code
//! holds `ChannelId`s (plain indices), so the per-call hot path is an
//! array index away from its accumulator — no string hashing per call.
//!
//! Everything serialises to the vendored `serde` value tree with exact
//! round-tripping, which is what checkpoint/resume relies on: summary
//! floats are finite by construction and print in shortest-round-trip
//! form, and sketch levels, nearly all of a checkpoint's numbers, go out
//! as exact `u64` bit patterns.

use serde::{Deserialize, Serialize, Value};

use crate::metrics::LogHistogram;
use crate::stats::quantile_unsorted;

/// Default base capacity of a [`QuantileSketch`] level (items per level
/// before compaction). With `k = 256` the sketch answers quantiles of a
/// million-sample stream within a fraction of a percent of rank while
/// holding at most a few thousand values.
pub const SKETCH_K: usize = 256;

/// A deterministic, mergeable streaming quantile sketch.
///
/// Classic multi-level compaction (GK/KLL family) with one twist: the
/// compaction offset alternates deterministically (per-level compaction
/// parity) instead of being drawn at random, so inserting the same stream
/// — or merging the same digests in the same order — always yields the
/// same sketch, bit for bit. Level `i` stores items of weight `2^i`; a
/// level past capacity is sorted and every other item is promoted.
///
/// While fewer than `2k` items have been inserted the sketch has never
/// compacted and answers **exactly**, matching
/// [`quantile_unsorted`] bit for bit — the property the
/// campaign smoke tests pin.
#[derive(Clone, Debug)]
pub struct QuantileSketch {
    k: usize,
    count: u64,
    /// Per-level compaction parities (deterministic offset alternation).
    parity: Vec<u64>,
    /// `levels[i]` holds items of weight `2^i`.
    levels: Vec<Vec<f64>>,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::new(SKETCH_K)
    }
}

impl QuantileSketch {
    /// An empty sketch with level capacity `2k`.
    pub fn new(k: usize) -> QuantileSketch {
        assert!(k >= 2, "sketch capacity too small");
        QuantileSketch { k, count: 0, parity: vec![0], levels: vec![Vec::new()] }
    }

    /// Number of items inserted.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Total values currently retained (the memory bound: `O(k log n/k)`).
    pub fn retained(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Insert one observation. Non-finite values are rejected (they would
    /// break both ordering and checkpoint serialisation); `-0.0` is
    /// normalised to `0.0` so exactness pins are bit-stable.
    #[inline]
    pub fn insert(&mut self, x: f64) {
        assert!(x.is_finite(), "QuantileSketch::insert: non-finite value {x}");
        let x = if x == 0.0 { 0.0 } else { x };
        self.levels[0].push(x);
        self.count += 1;
        if self.levels[0].len() > 2 * self.k {
            self.compact_from(0);
        }
    }

    /// Compact every over-full level from `start` up, stopping at the
    /// first level within capacity: sort the level, promote every other
    /// item (from the offset the level's parity picks) into the next level
    /// and clear it.
    ///
    /// The sort runs on [`order_key`]s, whose `u64` order is the values'
    /// order. Level 0 holds unordered inserts, so it takes the unstable
    /// sort. An upper level is a concatenation of sorted runs (each earlier
    /// compaction, and each `merge`, appends one), which the stable sort
    /// merges in near-linear time. On finite values without `-0.0`, equal
    /// keys are bit-identical values, so either sort yields the one sorted
    /// order.
    fn compact_from(&mut self, start: usize) {
        let mut keys: Vec<u64> = Vec::new();
        let mut i = start;
        while i < self.levels.len() && self.levels[i].len() > 2 * self.k {
            keys.clear();
            keys.extend(self.levels[i].iter().map(|&x| order_key(x)));
            if i == 0 {
                keys.sort_unstable();
            } else {
                keys.sort();
            }
            let offset = (self.parity[i] & 1) as usize;
            self.parity[i] += 1;
            if i + 1 == self.levels.len() {
                self.levels.push(Vec::new());
                self.parity.push(0);
            }
            let (lower, upper) = self.levels.split_at_mut(i + 1);
            lower[i].clear();
            upper[0].extend(keys.iter().skip(offset).step_by(2).map(|&k| from_order_key(k)));
            i += 1;
        }
    }

    /// Merge another sketch in (operand order matters for bit-identity;
    /// callers merge shards in index order).
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert_eq!(self.k, other.k, "merging sketches of different capacity");
        while self.levels.len() < other.levels.len() {
            self.levels.push(Vec::new());
            self.parity.push(0);
        }
        for (i, lvl) in other.levels.iter().enumerate() {
            self.levels[i].extend_from_slice(lvl);
        }
        for (p, q) in self.parity.iter_mut().zip(other.parity.iter()) {
            *p += q;
        }
        self.count += other.count;
        self.compact_from(0);
    }

    /// The nearest-rank quantile estimate.
    ///
    /// Exact (bit-identical to [`quantile_unsorted`]) while the sketch has
    /// never compacted, i.e. while `count ≤ 2k`; approximate afterwards.
    /// Panics on an empty sketch, like its exact counterpart.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(self.count > 0, "quantile of empty sketch");
        if self.levels.len() == 1 {
            // Never compacted: answer on the raw sample, through the exact
            // routine itself so the two can never drift.
            let mut buf = self.levels[0].clone();
            return quantile_unsorted(&mut buf, q);
        }
        let mut weighted: Vec<(u64, u64)> = Vec::with_capacity(self.retained());
        for (i, lvl) in self.levels.iter().enumerate() {
            let w = 1u64 << i;
            weighted.extend(lvl.iter().map(|&x| (order_key(x), w)));
        }
        weighted.sort_unstable();
        let total: u64 = weighted.iter().map(|(_, w)| w).sum();
        // Same nearest-rank convention as `quantile_unsorted`.
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for &(key, w) in &weighted {
            seen += w;
            if seen >= rank {
                return from_order_key(key);
            }
        }
        from_order_key(weighted.last().unwrap().0)
    }
}

/// The `u64` whose unsigned order is `x`'s order (IEEE 754 total order):
/// a negative value has every bit flipped, a non-negative one only its
/// sign bit. On the sketch's domain, finite values with `-0.0` normalised
/// away, this is the `partial_cmp` order, and two values share a key only
/// when they share their bits.
#[inline]
fn order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    let sign_mask = ((bits as i64) >> 63) as u64;
    bits ^ (sign_mask | 1 << 63)
}

/// The inverse of [`order_key`].
#[inline]
fn from_order_key(key: u64) -> f64 {
    let sign_mask = !((key as i64) >> 63) as u64;
    f64::from_bits(key ^ (sign_mask | 1 << 63))
}

/// The retained values go out as their exact `u64` bit patterns under
/// `level_bits`, as `WorstK` writes its scores: nothing is formatted or
/// parsed as a float, and a checkpoint that still carries the decimal
/// `levels` form fails to load, so its shard re-runs rather than merges.
impl Serialize for QuantileSketch {
    fn to_value(&self) -> Value {
        let level_bits = self
            .levels
            .iter()
            .map(|lvl| Value::Array(lvl.iter().map(|x| Value::U64(x.to_bits())).collect()))
            .collect();
        Value::Object(vec![
            ("k".to_string(), Value::U64(self.k as u64)),
            ("count".to_string(), Value::U64(self.count)),
            ("parity".to_string(), self.parity.to_value()),
            ("level_bits".to_string(), Value::Array(level_bits)),
        ])
    }
}

impl Deserialize for QuantileSketch {
    fn from_value(v: &Value) -> Result<Self, String> {
        let k = v
            .get("k")
            .and_then(Value::as_u64)
            .ok_or("QuantileSketch: missing `k`")? as usize;
        let count =
            v.get("count").and_then(Value::as_u64).ok_or("QuantileSketch: missing `count`")?;
        let parity: Vec<u64> =
            Deserialize::from_value(v.get("parity").ok_or("QuantileSketch: missing `parity`")?)?;
        let level_bits: Vec<Vec<u64>> = Deserialize::from_value(
            v.get("level_bits").ok_or("QuantileSketch: missing `level_bits`")?,
        )?;
        let levels: Vec<Vec<f64>> = level_bits
            .into_iter()
            .map(|lvl| lvl.into_iter().map(f64::from_bits).collect())
            .collect();
        if levels.is_empty() || levels.len() != parity.len() {
            return Err("QuantileSketch: level/parity shape mismatch".to_string());
        }
        if levels.iter().flatten().any(|x| !x.is_finite()) {
            return Err("QuantileSketch: non-finite retained value".to_string());
        }
        Ok(QuantileSketch { k, count, parity, levels })
    }
}

/// Welford running moments plus min/max, mergeable and serialisable, as
/// used inside shard digests.
#[derive(Clone, Copy, Debug)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Welford {
    fn default() -> Self {
        Welford { count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Welford {
        Welford::default()
    }

    /// Add one (finite) observation.
    #[inline]
    pub fn add(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "Welford::add: non-finite value {x}");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Chan's parallel-merge update. Order-sensitive in the last bit —
    /// callers merge shards in index order for reproducibility.
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * (other.count as f64 / n as f64);
        self.m2 += other.m2 + delta * delta * (self.count as f64 * other.count as f64 / n as f64);
        self.count = n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (0 when empty, so reports stay finite).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }
}

impl Serialize for Welford {
    fn to_value(&self) -> Value {
        if self.count == 0 {
            // min/max are ±inf when empty, which JSON cannot carry; the
            // empty state is fully described by its count.
            return Value::Object(vec![("count".to_string(), Value::U64(0))]);
        }
        Value::Object(vec![
            ("count".to_string(), Value::U64(self.count)),
            ("mean".to_string(), Value::F64(self.mean)),
            ("m2".to_string(), Value::F64(self.m2)),
            ("min".to_string(), Value::F64(self.min)),
            ("max".to_string(), Value::F64(self.max)),
        ])
    }
}

impl Deserialize for Welford {
    fn from_value(v: &Value) -> Result<Self, String> {
        let count = v.get("count").and_then(Value::as_u64).ok_or("Welford: missing `count`")?;
        if count == 0 {
            return Ok(Welford::new());
        }
        let f = |name: &str| {
            v.get(name)
                .and_then(Value::as_f64)
                .filter(|x| x.is_finite())
                .ok_or_else(|| format!("Welford: missing/non-finite `{name}`"))
        };
        Ok(Welford { count, mean: f("mean")?, m2: f("m2")?, min: f("min")?, max: f("max")? })
    }
}

/// What a digest channel accumulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChannelKind {
    /// Monotone `u64` count.
    Counter,
    /// Welford moments + min/max.
    Summary,
    /// Half-octave [`LogHistogram`].
    Histogram,
    /// Deterministic [`QuantileSketch`].
    Sketch,
}

impl ChannelKind {
    fn tag(self) -> &'static str {
        match self {
            ChannelKind::Counter => "counter",
            ChannelKind::Summary => "summary",
            ChannelKind::Histogram => "histogram",
            ChannelKind::Sketch => "sketch",
        }
    }

    fn from_tag(s: &str) -> Option<ChannelKind> {
        Some(match s {
            "counter" => ChannelKind::Counter,
            "summary" => ChannelKind::Summary,
            "histogram" => ChannelKind::Histogram,
            "sketch" => ChannelKind::Sketch,
            _ => return None,
        })
    }
}

/// Handle to one channel of a [`ShardDigest`] — a plain index, cheap to
/// copy into fold closures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChannelId(usize);

/// The fixed channel layout every shard digest of a campaign shares.
///
/// Names are `&'static str` (like [`crate::metrics::MetricsRegistry`]
/// rows): channels are declared by folding *code*, not by scenario files,
/// so the static lifetime costs nothing and keeps snapshots
/// allocation-free.
#[derive(Clone, Debug, Default)]
pub struct DigestSchema {
    channels: Vec<(&'static str, ChannelKind)>,
}

impl DigestSchema {
    /// An empty schema.
    pub fn new() -> DigestSchema {
        DigestSchema::default()
    }

    fn push(&mut self, name: &'static str, kind: ChannelKind) -> ChannelId {
        assert!(
            self.channels.iter().all(|(n, _)| *n != name),
            "duplicate digest channel `{name}`"
        );
        self.channels.push((name, kind));
        ChannelId(self.channels.len() - 1)
    }

    /// Declare a counter channel.
    pub fn counter(&mut self, name: &'static str) -> ChannelId {
        self.push(name, ChannelKind::Counter)
    }

    /// Declare a summary channel.
    pub fn summary(&mut self, name: &'static str) -> ChannelId {
        self.push(name, ChannelKind::Summary)
    }

    /// Declare a histogram channel.
    pub fn histogram(&mut self, name: &'static str) -> ChannelId {
        self.push(name, ChannelKind::Histogram)
    }

    /// Declare a quantile-sketch channel.
    pub fn sketch(&mut self, name: &'static str) -> ChannelId {
        self.push(name, ChannelKind::Sketch)
    }

    /// Channel count.
    pub fn len(&self) -> usize {
        self.channels.len()
    }

    /// True when no channels are declared.
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }

    /// `(name, kind)` of every channel, in declaration order.
    pub fn channels(&self) -> &[(&'static str, ChannelKind)] {
        &self.channels
    }

    /// Look a channel up by name (for reporting; fold paths hold ids).
    pub fn id(&self, name: &str) -> Option<ChannelId> {
        self.channels.iter().position(|(n, _)| *n == name).map(ChannelId)
    }

    /// A stable fingerprint of the layout, folded into campaign ids so a
    /// checkpoint written under a different schema is never resumed.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for (name, kind) in &self.channels {
            h.write(name.as_bytes());
            h.write(kind.tag().as_bytes());
        }
        h.finish()
    }
}

#[derive(Clone, Debug)]
enum ChannelState {
    Counter(u64),
    Summary(Welford),
    Histogram(Box<LogHistogram>),
    Sketch(QuantileSketch),
}

impl ChannelState {
    fn new(kind: ChannelKind) -> ChannelState {
        match kind {
            ChannelKind::Counter => ChannelState::Counter(0),
            ChannelKind::Summary => ChannelState::Summary(Welford::new()),
            ChannelKind::Histogram => ChannelState::Histogram(Box::default()),
            ChannelKind::Sketch => ChannelState::Sketch(QuantileSketch::default()),
        }
    }

    fn kind(&self) -> ChannelKind {
        match self {
            ChannelState::Counter(_) => ChannelKind::Counter,
            ChannelState::Summary(_) => ChannelKind::Summary,
            ChannelState::Histogram(_) => ChannelKind::Histogram,
            ChannelState::Sketch(_) => ChannelKind::Sketch,
        }
    }
}

/// The streaming accumulator for one shard (or, after merging, a whole
/// campaign): one channel state per schema channel plus the call range
/// covered.
#[derive(Clone, Debug)]
pub struct ShardDigest {
    first: u64,
    len: u64,
    channels: Vec<ChannelState>,
}

impl ShardDigest {
    /// A fresh digest for calls `[first, first + len)`.
    pub fn new(schema: &DigestSchema, first: u64, len: u64) -> ShardDigest {
        ShardDigest {
            first,
            len,
            channels: schema.channels.iter().map(|&(_, k)| ChannelState::new(k)).collect(),
        }
    }

    /// First call index covered.
    pub fn first(&self) -> u64 {
        self.first
    }

    /// Number of calls covered.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the digest covers no calls.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bump a counter channel.
    #[inline]
    pub fn add(&mut self, id: ChannelId, n: u64) {
        match &mut self.channels[id.0] {
            ChannelState::Counter(c) => *c += n,
            other => panic!("channel {} is a {:?}, not a counter", id.0, other.kind()),
        }
    }

    /// Add an observation to a summary channel.
    #[inline]
    pub fn observe(&mut self, id: ChannelId, x: f64) {
        match &mut self.channels[id.0] {
            ChannelState::Summary(w) => w.add(x),
            other => panic!("channel {} is a {:?}, not a summary", id.0, other.kind()),
        }
    }

    /// Record a sample into a histogram channel.
    #[inline]
    pub fn record(&mut self, id: ChannelId, v: u64) {
        match &mut self.channels[id.0] {
            ChannelState::Histogram(h) => h.record(v),
            other => panic!("channel {} is a {:?}, not a histogram", id.0, other.kind()),
        }
    }

    /// Insert an observation into a sketch channel.
    #[inline]
    pub fn sketch_insert(&mut self, id: ChannelId, x: f64) {
        match &mut self.channels[id.0] {
            ChannelState::Sketch(s) => s.insert(x),
            other => panic!("channel {} is a {:?}, not a sketch", id.0, other.kind()),
        }
    }

    /// Counter value.
    pub fn count(&self, id: ChannelId) -> u64 {
        match &self.channels[id.0] {
            ChannelState::Counter(c) => *c,
            other => panic!("channel {} is a {:?}, not a counter", id.0, other.kind()),
        }
    }

    /// Summary accumulator.
    pub fn summary(&self, id: ChannelId) -> &Welford {
        match &self.channels[id.0] {
            ChannelState::Summary(w) => w,
            other => panic!("channel {} is a {:?}, not a summary", id.0, other.kind()),
        }
    }

    /// Histogram accumulator.
    pub fn histogram(&self, id: ChannelId) -> &LogHistogram {
        match &self.channels[id.0] {
            ChannelState::Histogram(h) => h,
            other => panic!("channel {} is a {:?}, not a histogram", id.0, other.kind()),
        }
    }

    /// Sketch accumulator.
    pub fn sketch(&self, id: ChannelId) -> &QuantileSketch {
        match &self.channels[id.0] {
            ChannelState::Sketch(s) => s,
            other => panic!("channel {} is a {:?}, not a sketch", id.0, other.kind()),
        }
    }

    /// Merge the digest of the immediately following call range.
    ///
    /// Panics unless `other` starts exactly where `self` ends and the
    /// channel layouts match — merging shards out of order would silently
    /// change sketch/summary bits, so it is a hard error instead.
    pub fn merge_from(&mut self, other: &ShardDigest) {
        assert_eq!(
            self.first + self.len,
            other.first,
            "digest merge out of order: [{}, {}) then [{}, {})",
            self.first,
            self.first + self.len,
            other.first,
            other.first + other.len
        );
        assert_eq!(self.channels.len(), other.channels.len(), "digest channel count mismatch");
        for (a, b) in self.channels.iter_mut().zip(other.channels.iter()) {
            match (a, b) {
                (ChannelState::Counter(x), ChannelState::Counter(y)) => *x += y,
                (ChannelState::Summary(x), ChannelState::Summary(y)) => x.merge(y),
                (ChannelState::Histogram(x), ChannelState::Histogram(y)) => x.merge(y),
                (ChannelState::Sketch(x), ChannelState::Sketch(y)) => x.merge(y),
                (a, b) => panic!("digest channel kind mismatch: {:?} vs {:?}", a.kind(), b.kind()),
            }
        }
        self.len += other.len;
    }

    /// A 64-bit FNV-1a fingerprint of the full digest state (range, every
    /// channel's exact accumulator bits). Two digests with equal
    /// fingerprints are — for the campaign contract's purposes —
    /// bit-identical; the resume tests pin interrupted-and-resumed
    /// campaigns to uninterrupted ones through this value.
    pub fn fingerprint(&self, schema: &DigestSchema) -> u64 {
        let mut h = Fnv::new();
        h.write_u64(self.first);
        h.write_u64(self.len);
        for ((name, _), state) in schema.channels.iter().zip(self.channels.iter()) {
            h.write(name.as_bytes());
            h.write(state.kind().tag().as_bytes());
            match state {
                ChannelState::Counter(c) => h.write_u64(*c),
                ChannelState::Summary(w) => {
                    h.write_u64(w.count);
                    h.write_u64(w.mean.to_bits());
                    h.write_u64(w.m2.to_bits());
                    h.write_u64(w.min.to_bits());
                    h.write_u64(w.max.to_bits());
                }
                ChannelState::Histogram(hist) => {
                    h.write_u64(hist.count());
                    for (edge, c) in hist.nonzero_bins() {
                        h.write_u64(edge);
                        h.write_u64(c);
                    }
                    h.write_u64(hist.min());
                    h.write_u64(hist.max());
                    h.write_u64(hist.mean().to_bits());
                }
                ChannelState::Sketch(s) => {
                    h.write_u64(s.count);
                    for (p, lvl) in s.parity.iter().zip(s.levels.iter()) {
                        h.write_u64(*p);
                        h.write_u64(lvl.len() as u64);
                        for x in lvl {
                            h.write_u64(x.to_bits());
                        }
                    }
                }
            }
        }
        h.finish()
    }

    /// Serialise with channel names from `schema` (the inverse of
    /// [`ShardDigest::from_value_checked`]).
    pub fn to_value(&self, schema: &DigestSchema) -> Value {
        let channels: Vec<Value> = schema
            .channels
            .iter()
            .zip(self.channels.iter())
            .map(|(&(name, _), state)| {
                let payload = match state {
                    ChannelState::Counter(c) => Value::U64(*c),
                    ChannelState::Summary(w) => w.to_value(),
                    ChannelState::Histogram(h) => h.to_value(),
                    ChannelState::Sketch(s) => s.to_value(),
                };
                Value::Object(vec![
                    ("name".to_string(), Value::Str(name.to_string())),
                    ("kind".to_string(), Value::Str(state.kind().tag().to_string())),
                    ("state".to_string(), payload),
                ])
            })
            .collect();
        Value::Object(vec![
            ("first".to_string(), Value::U64(self.first)),
            ("len".to_string(), Value::U64(self.len)),
            ("channels".to_string(), Value::Array(channels)),
        ])
    }

    /// Deserialise, verifying the channel layout matches `schema` (name,
    /// kind and order) — a checkpoint from a different campaign layout is
    /// an error, never a silent partial load.
    pub fn from_value_checked(schema: &DigestSchema, v: &Value) -> Result<ShardDigest, String> {
        let first = v.get("first").and_then(Value::as_u64).ok_or("digest: missing `first`")?;
        let len = v.get("len").and_then(Value::as_u64).ok_or("digest: missing `len`")?;
        let channels =
            v.get("channels").and_then(Value::as_array).ok_or("digest: missing `channels`")?;
        if channels.len() != schema.channels.len() {
            return Err(format!(
                "digest: {} channels, schema has {}",
                channels.len(),
                schema.channels.len()
            ));
        }
        let mut states = Vec::with_capacity(channels.len());
        for (cv, &(want_name, want_kind)) in channels.iter().zip(schema.channels.iter()) {
            let name = cv.get("name").and_then(Value::as_str).ok_or("digest: channel name")?;
            let kind = cv
                .get("kind")
                .and_then(Value::as_str)
                .and_then(ChannelKind::from_tag)
                .ok_or("digest: channel kind")?;
            if name != want_name || kind != want_kind {
                return Err(format!(
                    "digest: channel `{name}` ({kind:?}) does not match schema \
                     `{want_name}` ({want_kind:?})"
                ));
            }
            let state = cv.get("state").ok_or("digest: channel state")?;
            states.push(match kind {
                ChannelKind::Counter => ChannelState::Counter(
                    state.as_u64().ok_or("digest: counter state must be u64")?,
                ),
                ChannelKind::Summary => ChannelState::Summary(Welford::from_value(state)?),
                ChannelKind::Histogram => {
                    ChannelState::Histogram(Box::new(LogHistogram::from_value(state)?))
                }
                ChannelKind::Sketch => ChannelState::Sketch(QuantileSketch::from_value(state)?),
            });
        }
        Ok(ShardDigest { first, len, channels: states })
    }
}

/// FNV-1a, 64-bit — tiny, dependency-free, stable across platforms. The
/// workspace's one implementation: seed labels, campaign ids, digest,
/// scenario and chaos fingerprints all hash through it.
#[derive(Debug)]
pub struct Fnv(u64);

impl Fnv {
    /// The FNV-1a offset basis.
    #[inline]
    pub fn new() -> Fnv {
        Fnv(0xcbf29ce484222325)
    }

    /// Fold `bytes` in, one at a time.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    /// Fold `v` in as its eight little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The hash of everything written so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedFactory;

    #[test]
    fn sketch_is_exact_before_first_compaction() {
        // The acceptance pin: while count ≤ 2k the sketch must reproduce
        // `quantile_unsorted` bit for bit.
        let factory = SeedFactory::new(0xD16E57);
        let mut rng = factory.stream("sketch", 0);
        for n in [1usize, 2, 5, 100, 512] {
            let mut s = QuantileSketch::new(256);
            let mut xs: Vec<f64> = Vec::new();
            for _ in 0..n {
                let x = rng.normal(10.0, 3.0);
                s.insert(x);
                xs.push(x);
            }
            for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
                let mut buf = xs.clone();
                let exact = quantile_unsorted(&mut buf, q);
                assert_eq!(
                    s.quantile(q).to_bits(),
                    exact.to_bits(),
                    "n={n} q={q}: sketch {} vs exact {exact}",
                    s.quantile(q)
                );
            }
        }
    }

    #[test]
    fn sketch_stays_close_after_compaction() {
        let factory = SeedFactory::new(0xD16E58);
        let mut rng = factory.stream("sketch", 1);
        let n = 200_000usize;
        let mut s = QuantileSketch::new(256);
        let mut xs: Vec<f64> = Vec::with_capacity(n);
        for _ in 0..n {
            let x = rng.exponential(5.0);
            s.insert(x);
            xs.push(x);
        }
        assert!(s.retained() < 8 * 2 * 256, "retained {} values", s.retained());
        xs.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.1, 0.5, 0.9, 0.99] {
            let est = s.quantile(q);
            // Rank error: where does the estimate land in the true sorted
            // sample vs the target rank?
            let pos = xs.partition_point(|&x| x < est) as f64 / n as f64;
            assert!(
                (pos - q).abs() < 0.02,
                "q={q}: estimate {est} sits at rank {pos:.4}"
            );
        }
    }

    #[test]
    fn sketch_merge_matches_sequential_insert_order_contract() {
        // Merging shard sketches in index order must be deterministic:
        // two identical merge sequences give identical bits.
        let factory = SeedFactory::new(0xD16E59);
        let build = || {
            let mut parts: Vec<QuantileSketch> = Vec::new();
            for shard in 0..7u64 {
                let mut rng = factory.stream("m", shard);
                let mut s = QuantileSketch::new(64);
                for _ in 0..900 {
                    s.insert(rng.range_f64(0.0, 1.0));
                }
                parts.push(s);
            }
            let mut all = parts[0].clone();
            for p in &parts[1..] {
                all.merge(p);
            }
            all
        };
        let (a, b) = (build(), build());
        assert_eq!(a.count(), 6300);
        for q in [0.05, 0.5, 0.95] {
            assert_eq!(a.quantile(q).to_bits(), b.quantile(q).to_bits());
        }
    }

    #[test]
    fn sketch_round_trips_through_value_exactly() {
        let factory = SeedFactory::new(0xD16E5A);
        let mut rng = factory.stream("rt", 0);
        let mut s = QuantileSketch::new(16);
        for _ in 0..5000 {
            s.insert(rng.normal(0.0, 1.0));
        }
        let v = s.to_value();
        let back = QuantileSketch::from_value(&v).unwrap();
        assert_eq!(s.count, back.count);
        assert_eq!(s.levels.len(), back.levels.len());
        for (a, b) in s.levels.iter().zip(back.levels.iter()) {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }

        // The decimal `levels` form older checkpoints carry is refused, and
        // so is a bit pattern that decodes to a non-finite value.
        let rename = |key: &str, levels: Value| {
            let Value::Object(mut pairs) = v.clone() else { unreachable!() };
            pairs.retain(|(k, _)| k != "level_bits");
            pairs.push((key.to_string(), levels));
            Value::Object(pairs)
        };
        let old = rename("levels", s.levels.to_value());
        assert!(QuantileSketch::from_value(&old).unwrap_err().contains("`level_bits`"));
        let mut nan: Vec<Vec<u64>> =
            s.levels.iter().map(|l| l.iter().map(|x| x.to_bits()).collect()).collect();
        nan[0][0] = f64::NAN.to_bits();
        assert!(QuantileSketch::from_value(&rename("level_bits", nan.to_value())).is_err());
    }

    /// The comparison-sort compaction the order-key sort replaced, kept
    /// verbatim as the reference it must match bit for bit.
    fn reference_compact_from(s: &mut QuantileSketch, start: usize) {
        let mut i = start;
        while i < s.levels.len() && s.levels[i].len() > 2 * s.k {
            s.levels[i].sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
            let offset = (s.parity[i] & 1) as usize;
            s.parity[i] += 1;
            let promoted: Vec<f64> = s.levels[i].iter().copied().skip(offset).step_by(2).collect();
            s.levels[i].clear();
            s.levels[i].shrink_to(2 * s.k + 1);
            if i + 1 == s.levels.len() {
                s.levels.push(Vec::new());
                s.parity.push(0);
            }
            s.levels[i + 1].extend(promoted);
            i += 1;
        }
    }

    fn reference_insert(s: &mut QuantileSketch, x: f64) {
        assert!(x.is_finite());
        let x = if x == 0.0 { 0.0 } else { x };
        s.levels[0].push(x);
        s.count += 1;
        if s.levels[0].len() > 2 * s.k {
            reference_compact_from(s, 0);
        }
    }

    fn reference_merge(s: &mut QuantileSketch, other: &QuantileSketch) {
        assert_eq!(s.k, other.k);
        while s.levels.len() < other.levels.len() {
            s.levels.push(Vec::new());
            s.parity.push(0);
        }
        for (i, lvl) in other.levels.iter().enumerate() {
            s.levels[i].extend_from_slice(lvl);
        }
        for (p, q) in s.parity.iter_mut().zip(other.parity.iter()) {
            *p += q;
        }
        s.count += other.count;
        reference_compact_from(s, 0);
    }

    /// The double with these bits, or, for an infinity or NaN pattern,
    /// the finite one with the exponent's top bit cleared.
    pub(super) fn finite_from_bits(bits: u64) -> f64 {
        let x = f64::from_bits(bits);
        if x.is_finite() {
            x
        } else {
            f64::from_bits(bits & !(1 << 62))
        }
    }

    /// A stream that exercises every corner of the order: negatives,
    /// a small pool of repeated values, `0.0` and `-0.0` inserts,
    /// subnormals of both signs and arbitrary finite bit patterns.
    pub(super) fn mixed_stream(seed: u64, n: usize) -> Vec<f64> {
        let mut rng = SeedFactory::new(seed).stream("mixed", 0);
        let pool: Vec<f64> = (0..7).map(|_| rng.normal(0.0, 10.0)).collect();
        (0..n)
            .map(|_| match rng.index(7) {
                0 | 1 => rng.normal(0.0, 1e3),
                2 => pool[rng.index(pool.len())],
                3 => 0.0,
                4 => -0.0,
                5 => {
                    let sub = f64::from_bits(rng.range_u64(1, 1 << 52));
                    if rng.chance(0.5) {
                        -sub
                    } else {
                        sub
                    }
                }
                _ => finite_from_bits(rng.range_u64(0, u64::MAX)),
            })
            .collect()
    }

    /// Sketch `xs` in shards of `shard` values and merge them in shard
    /// order, through the order-key path and through the reference.
    pub(super) fn sketch_both_ways(
        xs: &[f64],
        k: usize,
        shard: usize,
    ) -> (QuantileSketch, QuantileSketch) {
        let (mut fast, mut slow) = (QuantileSketch::new(k), QuantileSketch::new(k));
        for chunk in xs.chunks(shard) {
            let (mut a, mut b) = (QuantileSketch::new(k), QuantileSketch::new(k));
            for &x in chunk {
                a.insert(x);
                reference_insert(&mut b, x);
            }
            fast.merge(&a);
            reference_merge(&mut slow, &b);
        }
        (fast, slow)
    }

    pub(super) fn assert_same_sketch(fast: &QuantileSketch, slow: &QuantileSketch) {
        assert_eq!(fast.count, slow.count);
        assert_eq!(fast.parity, slow.parity);
        let bits = |s: &QuantileSketch| -> Vec<Vec<u64>> {
            s.levels.iter().map(|l| l.iter().map(|x| x.to_bits()).collect()).collect()
        };
        assert_eq!(bits(fast), bits(slow));
        let mut schema = DigestSchema::new();
        schema.sketch("x");
        let digest = |s: &QuantileSketch| ShardDigest {
            first: 0,
            len: s.count,
            channels: vec![ChannelState::Sketch(s.clone())],
        };
        assert_eq!(digest(fast).fingerprint(&schema), digest(slow).fingerprint(&schema));
        for q in [0.0, 0.1, 0.5, 0.9, 1.0] {
            assert_eq!(fast.quantile(q).to_bits(), slow.quantile(q).to_bits(), "q={q}");
        }
    }

    #[test]
    fn order_key_compaction_matches_comparison_sort_reference() {
        // At the campaign's own capacity: a never-compacted stream, one
        // that has compacted once, and two several levels deep, each
        // inserted whole and merged from shards of several sizes.
        for (seed, n, depth) in
            [(1u64, 2 * SKETCH_K, 1), (2, 2 * SKETCH_K + 1, 2), (3, 5_000, 5), (4, 200_000, 10)]
        {
            let xs = mixed_stream(seed, n);
            for shard in [n, 511, 1000, 4096] {
                let (fast, slow) = sketch_both_ways(&xs, SKETCH_K, shard);
                assert_same_sketch(&fast, &slow);
                if shard == n {
                    assert_eq!(fast.levels.len(), depth, "n={n}");
                }
            }
        }
    }

    #[test]
    fn order_key_orders_and_inverts_edge_values() {
        let edges = [
            f64::MIN,
            -1.0,
            -f64::MIN_POSITIVE,
            -f64::from_bits(1),
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            1.0,
            f64::MAX,
        ];
        for w in edges.windows(2) {
            assert!(order_key(w[0]) < order_key(w[1]), "{} vs {}", w[0], w[1]);
        }
        for x in edges.into_iter().chain([-0.0]) {
            assert_eq!(from_order_key(order_key(x)).to_bits(), x.to_bits());
        }
    }

    #[test]
    fn welford_merge_and_round_trip() {
        let factory = SeedFactory::new(0xD16E5B);
        let mut rng = factory.stream("w", 0);
        let mut whole = Welford::new();
        let mut parts = [Welford::new(), Welford::new(), Welford::new()];
        for i in 0..3000 {
            let x = rng.lognormal(1.0, 0.5);
            whole.add(x);
            parts[i % 3].add(x);
        }
        // Welford merge is algebraically exact for count/min/max and
        // within float rounding for the moments.
        let mut merged = parts[0];
        merged.merge(&parts[1]);
        merged.merge(&parts[2]);
        assert_eq!(merged.count(), whole.count());
        assert_eq!(merged.min().to_bits(), whole.min().to_bits());
        assert_eq!(merged.max().to_bits(), whole.max().to_bits());
        assert!((merged.mean() - whole.mean()).abs() < 1e-9);
        assert!((merged.variance() - whole.variance()).abs() < 1e-6);

        let back = Welford::from_value(&merged.to_value()).unwrap();
        assert_eq!(back.count, merged.count);
        assert_eq!(back.mean.to_bits(), merged.mean.to_bits());
        assert_eq!(back.m2.to_bits(), merged.m2.to_bits());

        // Empty summaries round-trip too (their min/max are ±inf).
        let empty = Welford::from_value(&Welford::new().to_value()).unwrap();
        assert_eq!(empty.count(), 0);
    }

    #[test]
    fn digest_merge_equals_single_pass_and_round_trips() {
        let mut schema = DigestSchema::new();
        let calls = schema.counter("calls");
        let mos = schema.summary("mos");
        let delay = schema.histogram("delay_us");
        let loss = schema.sketch("loss_pct");

        let factory = SeedFactory::new(0xD16E5C);
        let fold = |d: &mut ShardDigest, i: u64| {
            let mut rng = factory.stream("call", i);
            d.add(calls, 1);
            d.observe(mos, rng.range_f64(1.0, 4.5));
            d.record(delay, rng.range_u64(100, 60_000));
            d.sketch_insert(loss, rng.range_f64(0.0, 20.0));
        };

        let n = 4000u64;
        let mut whole = ShardDigest::new(&schema, 0, n);
        for i in 0..n {
            fold(&mut whole, i);
        }

        // Fold the same calls twice through the same shard plan; one pass
        // round-trips every shard through its checkpoint encoding. The two
        // passes must agree bit for bit (the resume contract), and the
        // merged digest must agree with the single-pass fold exactly on
        // counters/histograms and to float rounding on the moments (the
        // shard plan moves sketch-compaction and Welford-merge boundaries,
        // so those bits legitimately depend on the plan — which is why a
        // campaign id pins the plan).
        let sharded = |roundtrip: bool| {
            let shard = 512u64;
            let mut merged: Option<ShardDigest> = None;
            let mut first = 0;
            while first < n {
                let len = shard.min(n - first);
                let mut d = ShardDigest::new(&schema, first, len);
                for i in first..first + len {
                    fold(&mut d, i);
                }
                if roundtrip {
                    let rt =
                        ShardDigest::from_value_checked(&schema, &d.to_value(&schema)).unwrap();
                    assert_eq!(rt.fingerprint(&schema), d.fingerprint(&schema));
                    d = rt;
                }
                match &mut merged {
                    None => merged = Some(d),
                    Some(m) => m.merge_from(&d),
                }
                first += len;
            }
            merged.unwrap()
        };
        let merged = sharded(true);
        assert_eq!(merged.fingerprint(&schema), sharded(false).fingerprint(&schema));
        assert_eq!(merged.count(calls), n);
        assert_eq!(merged.summary(mos).count(), n);
        assert_eq!(merged.histogram(delay).count(), n);
        assert_eq!(merged.sketch(loss).count(), n);
        assert_eq!(whole.count(calls), n);
        let (hm, hw) = (merged.histogram(delay), whole.histogram(delay));
        assert_eq!(hm.min(), hw.min());
        assert_eq!(hm.max(), hw.max());
        assert_eq!(hm.bins(), hw.bins());
        assert!((merged.summary(mos).mean() - whole.summary(mos).mean()).abs() < 1e-9);
        assert!((merged.sketch(loss).quantile(0.5) - whole.sketch(loss).quantile(0.5)).abs() < 0.5);
    }

    #[test]
    fn digest_rejects_out_of_order_merge_and_wrong_schema() {
        let mut schema = DigestSchema::new();
        schema.counter("calls");
        let a = ShardDigest::new(&schema, 0, 10);
        let c = ShardDigest::new(&schema, 20, 10);
        let mut first = a.clone();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            first.merge_from(&c);
        }));
        assert!(r.is_err(), "gap merge must panic");

        let mut other = DigestSchema::new();
        other.summary("calls");
        let v = a.to_value(&schema);
        assert!(ShardDigest::from_value_checked(&other, &v).is_err());
    }

    #[test]
    fn schema_fingerprint_tracks_layout() {
        let mut a = DigestSchema::new();
        a.counter("x");
        a.summary("y");
        let mut b = DigestSchema::new();
        b.counter("x");
        b.summary("y");
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = DigestSchema::new();
        c.counter("x");
        c.sketch("y");
        assert_ne!(a.fingerprint(), c.fingerprint());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::stats::quantile_unsorted;
    use proptest::prelude::*;

    proptest! {
        /// Shard-boundary contract: splitting a stream into shards,
        /// sketching each shard independently, and merging in shard index
        /// order answers every quantile bit-identically to the exact
        /// routine on the whole stream — as long as the merged total stays
        /// within the never-compacted regime (`count ≤ 2k`). This is the
        /// exactness guarantee campaign digests rely on at typical shard
        /// sizes.
        #[test]
        fn sharded_merge_is_exact_below_compaction(
            xs in proptest::collection::vec(-1.0e9f64..1.0e9, 1..120),
            shard in 1usize..40,
            q in 0.0f64..=1.0,
        ) {
            let k = 64; // 2k = 128 > max stream length above
            let mut merged = QuantileSketch::new(k);
            for chunk in xs.chunks(shard) {
                let mut s = QuantileSketch::new(k);
                for &x in chunk {
                    s.insert(x);
                }
                merged.merge(&s);
            }
            prop_assert_eq!(merged.count(), xs.len() as u64);
            let mut buf = xs.clone();
            let exact = quantile_unsorted(&mut buf, q);
            prop_assert_eq!(
                merged.quantile(q).to_bits(),
                exact.to_bits(),
                "q={} sharded={} exact={}", q, merged.quantile(q), exact
            );
        }

        /// The order-key compaction keeps every stored bit of the
        /// comparison-sort reference: levels, parities, count and digest
        /// fingerprint, for streams inserted and merged in shard order, at
        /// capacities small enough to stack many levels.
        #[test]
        fn order_key_compaction_matches_reference(
            seed in any::<u64>(),
            n in 1usize..6000,
            k in 2usize..40,
            shard in 1usize..3000,
        ) {
            let xs = super::tests::mixed_stream(seed, n);
            let (fast, slow) = super::tests::sketch_both_ways(&xs, k, shard);
            super::tests::assert_same_sketch(&fast, &slow);
        }

        /// The order key is strictly monotone in IEEE 754 total order (the
        /// `partial_cmp` order away from `-0.0`) and inverts exactly, on
        /// every finite double.
        #[test]
        fn order_key_is_monotone_and_invertible(a in any::<u64>(), b in any::<u64>()) {
            let (x, y) = (super::tests::finite_from_bits(a), super::tests::finite_from_bits(b));
            prop_assert_eq!(order_key(x).cmp(&order_key(y)), x.total_cmp(&y));
            if x < y {
                prop_assert!(order_key(x) < order_key(y));
            }
            prop_assert_eq!(from_order_key(order_key(x)).to_bits(), x.to_bits());
        }

        /// Past the compaction threshold exactness is no longer promised,
        /// but the sketch must stay sane: the count is conserved and any
        /// quantile answer is a value that was actually inserted.
        #[test]
        fn sharded_merge_past_compaction_stays_within_the_sample(
            xs in proptest::collection::vec(-1.0e6f64..1.0e6, 30..400),
            shard in 1usize..64,
            q in 0.0f64..=1.0,
        ) {
            let k = 8; // force compaction for most streams
            let mut merged = QuantileSketch::new(k);
            for chunk in xs.chunks(shard) {
                let mut s = QuantileSketch::new(k);
                for &x in chunk {
                    s.insert(x);
                }
                merged.merge(&s);
            }
            prop_assert_eq!(merged.count(), xs.len() as u64);
            let got = merged.quantile(q);
            prop_assert!(
                xs.iter().any(|&x| x.to_bits() == got.to_bits()),
                "quantile {} not drawn from the inserted sample", got
            );
        }
    }
}
