//! Shared channel realisations for paired replay.
//!
//! Every experiment in the paper is a *paired* comparison — DiversiFi on vs
//! off, custom-AP vs middlebox, with-TCP vs without — over the **same**
//! channel realisation. Lazily advancing the stochastic processes inside each
//! arm re-samples the whole Gilbert–Elliott / shadowing timeline N times per
//! seed. This module builds the realisation **once** per
//! `(link parameters, seed)` ([`ChannelRealization`]) for every
//! [`crate::link::LinkModel`] holding it to replay, and provides a small LRU
//! cache ([`RealizationCache`]) so sweep drivers whose arms share channel
//! parameters stop recomputing the radio environment entirely.
//!
//! A realisation is the one source of a link's channel state: a
//! [`crate::link::LinkModel`] either materialises its own or replays one
//! from the cache, and the two are bit-identical because a realisation is a
//! pure function of its [`RealizationKey`].
//!
//! # What a realisation is a function of
//!
//! - The GE timeline is produced by
//!   [`GilbertElliott::materialize_until`], which consumes the exact draw
//!   sequence lazy [`GilbertElliott::state_at`] queries would; the tests
//!   compare segment replay against those queries.
//! - Shadowing is sampled on a fixed tick grid ([`SHADOW_TICK`]). The
//!   Ornstein–Uhlenbeck transition draws one normal per grid step regardless
//!   of who asks, so the track's values do not depend on its readers' query
//!   times. (Exact-transition OU sampled at *event* times would make the
//!   draw sequence depend on each arm's query pattern — the grid is what
//!   makes the track shareable across arms.)
//! - The track is drawn on demand, in tick order, by whichever holder first
//!   reads past its drawn prefix, so ticks no arm reads are never drawn
//!   (a primary-only arm never draws the secondary link's track). Draw
//!   order is fixed by the grid, not by the readers, so tick `k` is the
//!   same value whichever arm, thread or query pattern drew it.
//! - Interference (microwave ovens, mobility) is a pure deterministic
//!   function of time and config — there is nothing to materialise, so it
//!   stays in [`crate::link::LinkConfig`] and is *not* part of the cache key.
//! - The per-attempt erasure/backoff stream (`"link-attempts"`) is **never**
//!   cached: each arm must keep its own attempt randomness, only the channel
//!   environment is shared.

use crate::fading::{GeSegment, GilbertElliott, OrnsteinUhlenbeck};
use crate::link::LinkConfig;
use diversifi_simcore::{SeedFactory, SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Grid spacing of the shadowing track. 2 ms is far below the
/// office shadowing decorrelation time (seconds), so the staircase
/// approximation is indistinguishable from exact-transition sampling at the
/// packet clock while keeping a 120 s track under half a megabyte.
pub const SHADOW_TICK: SimDuration = SimDuration::from_millis(2);

/// Ticks a [`ChannelRealization`] draws beyond the tick a read asked for
/// when that read lands past the drawn prefix. Forward replay moves a few
/// ticks per packet, so the block turns one generator lock per tick into
/// one per 512 ms of simulated time, and bounds what is drawn but never
/// read.
pub const SHADOW_BLOCK: usize = 256;

/// Ticks a [`ShadowCursor`] draws per block, into a stack buffer.
const SHADOW_CHUNK: usize = 64;

/// An Ornstein–Uhlenbeck process advanced on the [`SHADOW_TICK`] grid: the
/// generator behind a realisation's track.
///
/// Draws exactly one normal per grid step, independent of the caller's
/// query times. The OU transition coefficients for one tick are computed
/// once here, so a step is one multiply-add and one normal draw. `dt` is
/// always exactly [`SHADOW_TICK`], so the hoisted coefficients are
/// bit-identical to the per-query ones. A track's extensions are drawn in
/// blocks of up to 64 ticks by [`OrnsteinUhlenbeck::fill_grid`], whose
/// normals come from one call-free Box–Muller loop.
#[derive(Clone, Debug)]
pub(crate) struct ShadowCursor {
    ou: OrnsteinUhlenbeck,
    /// Decay and noise s.d. of one [`SHADOW_TICK`] transition.
    a: f64,
    noise_sd: f64,
    tick: u64,
    value: f64,
}

impl ShadowCursor {
    /// Wrap an OU process; the cursor holds its stationary initial value
    /// until the first grid step.
    pub(crate) fn new(mut ou: OrnsteinUhlenbeck) -> ShadowCursor {
        let value = ou.at(SimTime::ZERO);
        let (a, noise_sd) = ou.transition_coeffs(SHADOW_TICK.as_secs_f64());
        ShadowCursor { ou, a, noise_sd, tick: 0, value }
    }

    /// Shadowing value (dB) at `t`, snapped down to the grid, stepping the
    /// process forward in blocks. Queries must be non-decreasing in `t`.
    /// The reference a realisation's track is tested against.
    #[cfg(test)]
    fn at(&mut self, t: SimTime) -> f64 {
        let k = t.as_nanos() / SHADOW_TICK.as_nanos();
        let mut buf = [0.0; SHADOW_CHUNK];
        while self.tick < k {
            let n = ((k - self.tick) as usize).min(SHADOW_CHUNK);
            self.fill(&mut buf[..n]);
        }
        self.value
    }

    /// Step `out.len()` ticks, writing ticks `tick + 1 ..= tick + len`.
    fn fill(&mut self, out: &mut [f64]) {
        self.ou.fill_grid(SHADOW_TICK, self.a, self.noise_sd, out);
        self.tick += out.len() as u64;
        if let Some(&last) = out.last() {
            self.value = last;
        }
    }
}

/// One link's channel environment over `[0, horizon]`: the Gilbert–Elliott
/// dwell timeline, built up-front, plus the shadowing track on the
/// [`SHADOW_TICK`] grid, drawn on demand.
///
/// N paired arms share one realisation behind an [`Arc`]. The track's
/// storage is allocated whole at construction, but a tick is drawn only
/// when some holder first reads it (or a tick up to [`SHADOW_BLOCK`]
/// before it): a read inside the drawn prefix is lock-free, a read past it
/// takes the generator's lock and draws ticks in order. Whichever arm
/// extends first, tick `k` is the `k`-th grid step of the same
/// `"link-shadow"` stream, so every value is the same pure function of
/// `(RealizationKey, k)` an eager track would hold. Queries past the
/// horizon clamp to the final segment / tick, deterministically; a
/// [`crate::link::LinkModel`] never makes one without tripping the audit
/// layer, so the horizon a caller picks is a checked bound.
#[derive(Debug)]
pub struct ChannelRealization {
    horizon: SimTime,
    ge: Vec<GeSegment>,
    /// Shadowing (dB) as `f64` bits, one slot per grid tick in
    /// `[0, horizon]`; slots below `drawn` hold their final value.
    shadow: Box<[AtomicU64]>,
    /// Length of the drawn prefix of `shadow`. Published with `Release`
    /// after the slots it covers are written, so an `Acquire` load that
    /// sees it also sees them.
    drawn: AtomicUsize,
    /// The generator that extends the track, positioned at tick
    /// `drawn - 1` (or at tick 0 before the first draw).
    cursor: Mutex<ShadowCursor>,
}

impl ChannelRealization {
    /// Build the realisation for `(cfg, seeds, index)` over `[0, horizon]`
    /// from the `"link-ge"` / `"link-shadow"` streams.
    ///
    /// The Gilbert–Elliott timeline (tens of segments) is materialised
    /// here; the shadowing track is allocated here and drawn by
    /// [`shadow_at`](Self::shadow_at) as reads reach it, tick by tick
    /// from the `"link-shadow"` stream.
    pub fn materialize(
        cfg: &LinkConfig,
        seeds: &SeedFactory,
        index: u64,
        horizon: SimTime,
    ) -> ChannelRealization {
        let ge = GilbertElliott::new(cfg.ge, seeds.stream("link-ge", index))
            .materialize_until(horizon);
        let cursor = ShadowCursor::new(OrnsteinUhlenbeck::new(
            cfg.shadow_sigma_db,
            cfg.shadow_tau,
            seeds.stream("link-shadow", index),
        ));
        let ticks = horizon.as_nanos() / SHADOW_TICK.as_nanos();
        let shadow = (0..=ticks).map(|_| AtomicU64::new(0)).collect();
        ChannelRealization {
            horizon,
            ge,
            shadow,
            drawn: AtomicUsize::new(0),
            cursor: Mutex::new(cursor),
        }
    }

    /// The materialisation horizon; queries past it freeze at the last value.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// The Gilbert–Elliott dwell timeline.
    pub fn ge_segments(&self) -> &[GeSegment] {
        &self.ge
    }

    /// Shadowing value (dB) at `t` (frozen past the horizon). Reads may come
    /// in any order and from any thread holding the realisation.
    #[inline]
    pub fn shadow_at(&self, t: SimTime) -> f64 {
        let k = ((t.as_nanos() / SHADOW_TICK.as_nanos()) as usize).min(self.shadow.len() - 1);
        if k < self.drawn.load(Ordering::Acquire) {
            return f64::from_bits(self.shadow[k].load(Ordering::Relaxed));
        }
        self.draw_through(k)
    }

    /// Extend the drawn prefix past tick `k` (by up to [`SHADOW_BLOCK`]
    /// more ticks, clamped to the horizon) and return tick `k`.
    #[cold]
    fn draw_through(&self, k: usize) -> f64 {
        let mut cursor = self.cursor.lock().expect("shadow track poisoned");
        // Only the lock holder stores `drawn`, so the lock orders this load.
        let drawn = self.drawn.load(Ordering::Relaxed);
        if k >= drawn {
            let end = (k + SHADOW_BLOCK).min(self.shadow.len() - 1);
            // Tick 0 is the process's stationary start; every later slot is
            // one grid step past the one before.
            let mut next = drawn;
            if next == 0 {
                self.shadow[0].store(cursor.value.to_bits(), Ordering::Relaxed);
                next = 1;
            }
            let mut buf = [0.0; SHADOW_CHUNK];
            for slots in self.shadow[next..=end].chunks(SHADOW_CHUNK) {
                let buf = &mut buf[..slots.len()];
                cursor.fill(buf);
                for (slot, v) in slots.iter().zip(buf.iter()) {
                    slot.store(v.to_bits(), Ordering::Relaxed);
                }
            }
            self.drawn.store(end + 1, Ordering::Release);
        }
        f64::from_bits(self.shadow[k].load(Ordering::Relaxed))
    }

    /// Grid ticks of the shadowing track drawn so far, out of
    /// `horizon / SHADOW_TICK + 1`. A diagnostic: reads draw at most
    /// [`SHADOW_BLOCK`] ticks past the furthest tick any holder has read.
    pub fn drawn_ticks(&self) -> usize {
        self.drawn.load(Ordering::Acquire)
    }

    /// Index of the GE segment covering `t`, resuming the scan from a
    /// caller-held `cursor` so forward replay is O(1) amortised. Clamps to
    /// the final segment past the horizon.
    pub fn ge_index_at(&self, cursor: usize, t: SimTime) -> usize {
        let mut i = cursor.min(self.ge.len() - 1);
        while i + 1 < self.ge.len() && self.ge[i].until <= t {
            i += 1;
        }
        i
    }

}

/// Identity of a realisation: exactly the inputs
/// [`ChannelRealization::materialize`] consumes.
///
/// Deliberately *excludes* distance, TX power, channel, diversity order,
/// mobility, microwave and congestion parameters — those shape the loss
/// composition deterministically (or draw from the per-arm attempts stream)
/// but never touch the `"link-ge"` / `"link-shadow"` streams, so ablation
/// points that vary only client/AP knobs share one realisation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RealizationKey {
    ge_bits: [u64; 6],
    shadow_sigma_bits: u64,
    shadow_tau_ns: u64,
    horizon_ns: u64,
    master: u64,
    index: u64,
}

impl RealizationKey {
    /// Build the key for `(cfg, seeds, index, horizon)`.
    pub fn new(
        cfg: &LinkConfig,
        seeds: &SeedFactory,
        index: u64,
        horizon: SimTime,
    ) -> RealizationKey {
        RealizationKey {
            ge_bits: [
                cfg.ge.mean_good.as_nanos(),
                cfg.ge.mean_bad_short.as_nanos(),
                cfg.ge.mean_bad_long.as_nanos(),
                cfg.ge.p_long.to_bits(),
                cfg.ge.bad_loss.to_bits(),
                cfg.ge.good_loss.to_bits(),
            ],
            shadow_sigma_bits: cfg.shadow_sigma_db.to_bits(),
            shadow_tau_ns: cfg.shadow_tau.as_nanos(),
            horizon_ns: horizon.as_nanos(),
            master: seeds.master(),
            index,
        }
    }
}

#[derive(Debug)]
struct Entry {
    last_used: u64,
    real: Arc<ChannelRealization>,
}

#[derive(Debug)]
struct CacheInner {
    map: HashMap<RealizationKey, Entry>,
    clock: u64,
    capacity: usize,
    hits: u64,
    misses: u64,
}

/// A thread-safe LRU cache of channel realisations keyed by
/// [`RealizationKey`].
///
/// Because a realisation is a pure function of its key, materialisation runs
/// *outside* the lock: two workers racing on the same key build identical
/// values and the first insert wins. Sweep drivers typically keep one cache
/// per worker (no contention) or one per study (cross-point sharing).
#[derive(Debug)]
pub struct RealizationCache {
    inner: Mutex<CacheInner>,
}

impl Default for RealizationCache {
    fn default() -> Self {
        RealizationCache::new(64)
    }
}

impl RealizationCache {
    /// A cache holding at most `capacity` realisations (LRU eviction).
    pub fn new(capacity: usize) -> RealizationCache {
        assert!(capacity > 0, "realization cache capacity must be positive");
        RealizationCache {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                clock: 0,
                capacity,
                hits: 0,
                misses: 0,
            }),
        }
    }

    /// The realisation for `(cfg, seeds, index, horizon)`, materialising on
    /// miss. Cached or fresh, the returned value is bit-identical to calling
    /// [`ChannelRealization::materialize`] directly.
    pub fn get_or_materialize(
        &self,
        cfg: &LinkConfig,
        seeds: &SeedFactory,
        index: u64,
        horizon: SimTime,
    ) -> Arc<ChannelRealization> {
        let key = RealizationKey::new(cfg, seeds, index, horizon);
        {
            let mut inner = self.inner.lock().expect("realization cache poisoned");
            inner.clock += 1;
            let clock = inner.clock;
            let hit = inner.map.get_mut(&key).map(|e| {
                e.last_used = clock;
                Arc::clone(&e.real)
            });
            if let Some(real) = hit {
                inner.hits += 1;
                return real;
            }
            inner.misses += 1;
        }

        let real = Arc::new(ChannelRealization::materialize(cfg, seeds, index, horizon));

        let mut inner = self.inner.lock().expect("realization cache poisoned");
        inner.clock += 1;
        let clock = inner.clock;
        if inner.map.len() >= inner.capacity && !inner.map.contains_key(&key) {
            let evict = inner.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| *k);
            if let Some(k) = evict {
                inner.map.remove(&k);
            }
        }
        let entry = inner.map.entry(key).or_insert(Entry { last_used: clock, real });
        entry.last_used = clock;
        Arc::clone(&entry.real)
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.inner.lock().expect("realization cache poisoned");
        (inner.hits, inner.misses)
    }

    /// Number of realisations currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("realization cache poisoned").map.len()
    }

    /// `true` if nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Channel;
    use crate::fading::GeState;
    use crate::link::LinkModel;

    fn seeds() -> SeedFactory {
        SeedFactory::new(0x5EA1)
    }

    /// The eager reference: the OU process queried tick by tick through its
    /// general transition over `[0, horizon]`, as bits. Each of its ticks
    /// takes one scalar normal draw, so comparing a track with it checks
    /// the block fills against scalar draws.
    fn eager_track(cfg: &LinkConfig, index: u64, horizon: SimTime) -> Vec<u64> {
        let mut ou = OrnsteinUhlenbeck::new(
            cfg.shadow_sigma_db,
            cfg.shadow_tau,
            seeds().stream("link-shadow", index),
        );
        let ticks = horizon.as_nanos() / SHADOW_TICK.as_nanos();
        (0..=ticks)
            .map(|k| ou.at(SimTime::from_nanos(k * SHADOW_TICK.as_nanos())).to_bits())
            .collect()
    }

    fn tick_of(t: SimTime) -> usize {
        (t.as_nanos() / SHADOW_TICK.as_nanos()) as usize
    }

    #[test]
    fn shadow_cursor_matches_materialized_track() {
        // A zero-sigma link too: the hoisted grid loop must draw nothing
        // there, exactly like the cursor.
        let mut flat = LinkConfig::office(Channel::CH11, 14.0);
        flat.shadow_sigma_db = 0.0;
        for cfg in [LinkConfig::office(Channel::CH6, 14.0), flat] {
            let horizon = SimTime::from_secs(10);
            let real = ChannelRealization::materialize(&cfg, &seeds(), 0, horizon);
            let ou = OrnsteinUhlenbeck::new(
                cfg.shadow_sigma_db,
                cfg.shadow_tau,
                seeds().stream("link-shadow", 0),
            );
            let mut cur = ShadowCursor::new(ou);
            // Irregular query times: the cursor and track must still agree.
            let mut t = SimTime::ZERO;
            let mut step = 313u64;
            while t <= horizon {
                assert_eq!(cur.at(t).to_bits(), real.shadow_at(t).to_bits(), "diverged at {t}");
                step = step * 7 % 9973 + 17;
                t += SimDuration::from_micros(step);
            }
        }
    }

    #[test]
    fn ge_replay_matches_lazy_process() {
        let cfg = LinkConfig::office(Channel::CH1, 30.0);
        let horizon = SimTime::from_secs(20);
        let real = ChannelRealization::materialize(&cfg, &seeds(), 1, horizon);
        let mut lazy = GilbertElliott::new(cfg.ge, seeds().stream("link-ge", 1));
        let mut cursor = 0usize;
        let mut t = SimTime::ZERO;
        while t <= horizon {
            cursor = real.ge_index_at(cursor, t);
            let seg = real.ge_segments()[cursor];
            assert_eq!(seg.state, lazy.state_at(t));
            assert_eq!(
                seg.state == GeState::Bad && seg.long,
                lazy.bad_is_long_at(t),
            );
            t += SimDuration::from_micros(911);
        }
    }

    #[test]
    fn queries_past_horizon_freeze() {
        let cfg = LinkConfig::office(Channel::CH11, 12.0);
        let horizon = SimTime::from_secs(1);
        let want = eager_track(&cfg, 0, horizon);
        let last = *want.last().unwrap();
        // A first read far past the horizon draws the whole track, clamps
        // to its last tick and leaves every tick as the eager one.
        let real = ChannelRealization::materialize(&cfg, &seeds(), 0, horizon);
        let far = SimTime::from_secs(1000);
        assert_eq!(real.shadow_at(far).to_bits(), last);
        assert_eq!(real.drawn_ticks(), want.len());
        assert_eq!(real.shadow_at(far + SimDuration::from_secs(5)).to_bits(), last);
        for (k, w) in want.iter().enumerate() {
            let t = SimTime::from_nanos(k as u64 * SHADOW_TICK.as_nanos());
            assert_eq!(real.shadow_at(t).to_bits(), *w, "tick {k}");
        }
        let i = real.ge_index_at(0, far);
        assert_eq!(i, real.ge_segments().len() - 1);
        // Past the horizon after a partial draw clamps the same way.
        let real = ChannelRealization::materialize(&cfg, &seeds(), 0, horizon);
        assert_eq!(real.shadow_at(SimTime::from_millis(10)).to_bits(), want[5]);
        assert_eq!(real.shadow_at(horizon + SHADOW_TICK).to_bits(), last);
        assert_eq!(real.shadow_at(horizon).to_bits(), last);
    }

    #[test]
    fn cache_hits_on_same_key_and_misses_on_different_seed() {
        let cfg = LinkConfig::office(Channel::CH1, 10.0);
        let cache = RealizationCache::new(8);
        let horizon = SimTime::from_secs(2);
        let a = cache.get_or_materialize(&cfg, &seeds(), 0, horizon);
        let b = cache.get_or_materialize(&cfg, &seeds(), 0, horizon);
        assert!(Arc::ptr_eq(&a, &b), "same key must hit");
        // Client-side knobs do not change the realisation identity.
        let mut knobs = cfg.clone();
        knobs.distance_m = 55.0;
        knobs.diversity_order = 3;
        let c = cache.get_or_materialize(&knobs, &seeds(), 0, horizon);
        assert!(Arc::ptr_eq(&a, &c), "client/AP knobs must share the realisation");
        let other = cache.get_or_materialize(&cfg, &SeedFactory::new(0xBEEF), 0, horizon);
        assert!(!Arc::ptr_eq(&a, &other), "different master seed must miss");
        let (hits, misses) = cache.stats();
        assert_eq!((hits, misses), (2, 2));
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let cfg = LinkConfig::office(Channel::CH1, 10.0);
        let cache = RealizationCache::new(2);
        let horizon = SimTime::from_secs(1);
        cache.get_or_materialize(&cfg, &SeedFactory::new(1), 0, horizon);
        cache.get_or_materialize(&cfg, &SeedFactory::new(2), 0, horizon);
        // Touch seed 1 so seed 2 is the LRU victim.
        cache.get_or_materialize(&cfg, &SeedFactory::new(1), 0, horizon);
        cache.get_or_materialize(&cfg, &SeedFactory::new(3), 0, horizon);
        assert_eq!(cache.len(), 2);
        let (hits, _) = cache.stats();
        cache.get_or_materialize(&cfg, &SeedFactory::new(1), 0, horizon);
        let (hits_after, _) = cache.stats();
        assert_eq!(hits_after, hits + 1, "seed 1 should have survived eviction");
    }

    #[test]
    fn cached_value_is_bit_identical_to_direct_materialization() {
        let cfg = LinkConfig::office(Channel::CH6, 22.0);
        let horizon = SimTime::from_secs(5);
        let cache = RealizationCache::default();
        let cached = cache.get_or_materialize(&cfg, &seeds(), 1, horizon);
        let direct = ChannelRealization::materialize(&cfg, &seeds(), 1, horizon);
        assert_eq!(cached.ge_segments(), direct.ge_segments());
        let ticks = horizon.as_nanos() / SHADOW_TICK.as_nanos();
        for k in 0..=ticks {
            let t = SimTime::from_nanos(k * SHADOW_TICK.as_nanos());
            assert_eq!(cached.shadow_at(t).to_bits(), direct.shadow_at(t).to_bits(), "tick {k}");
        }
    }

    #[test]
    fn interleaved_arms_sharing_one_track_match_eager_reference() {
        let cfg = LinkConfig::office(Channel::CH6, 18.0);
        let horizon = SimTime::from_secs(6);
        let want = eager_track(&cfg, 3, horizon);
        let real = Arc::new(ChannelRealization::materialize(&cfg, &seeds(), 3, horizon));
        // The paired-arm pattern: two links over one `Arc`, each reading
        // forward at its own pace in alternating bursts of 50 reads. Each
        // burst carries its arm past the other, so the lead (and with it
        // which arm extends the track) changes hands every burst. An arm
        // that has reached the horizon stops reading: a link never reads
        // past its realisation.
        let mut arms = [
            LinkModel::from_realization(cfg.clone(), Arc::clone(&real), &seeds(), 0),
            LinkModel::from_realization(cfg.clone(), Arc::clone(&real), &seeds(), 0),
        ];
        let mean = cfg.mean_rssi_dbm();
        let mut t = [SimTime::ZERO; 2];
        let strides = [SimDuration::from_micros(3_917), SimDuration::from_micros(4_111)];
        let mut round = 0u64;
        while t[0] <= horizon || t[1] <= horizon {
            let arm = usize::from(round / 50 % 2 == 1);
            round += 1;
            if t[arm] > horizon {
                continue;
            }
            let got = arms[arm].rssi_at(t[arm]);
            let k = tick_of(t[arm]);
            let expect = mean + f64::from_bits(want[k]);
            assert_eq!(got.to_bits(), expect.to_bits(), "arm {arm} tick {k}");
            t[arm] += strides[arm];
        }
        assert_eq!(real.drawn_ticks(), want.len());
    }

    #[test]
    fn racing_readers_match_eager_reference() {
        let cfg = LinkConfig::office(Channel::CH1, 25.0);
        let horizon = SimTime::from_secs(4);
        let want = eager_track(&cfg, 5, horizon);
        for round in 0..16u64 {
            let real = ChannelRealization::materialize(&cfg, &seeds(), 5, horizon);
            let barrier = std::sync::Barrier::new(2);
            std::thread::scope(|scope| {
                for reader in 0..2u64 {
                    let (real, want, barrier) = (&real, &want, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        // Different strides and phases per reader and round,
                        // so extensions interleave differently each time.
                        let stride = 1 + reader * 2 + round % 3;
                        let mut k = (reader * round) % 7;
                        while (k as usize) < want.len() + 8 {
                            let t = SimTime::from_nanos(k * SHADOW_TICK.as_nanos());
                            let w = want[(k as usize).min(want.len() - 1)];
                            assert_eq!(real.shadow_at(t).to_bits(), w, "tick {k}");
                            k += stride;
                        }
                    });
                }
            });
            assert_eq!(real.drawn_ticks(), want.len());
        }
    }

    #[test]
    fn reads_draw_at_most_one_block_past_the_furthest_read() {
        let cfg = LinkConfig::office(Channel::CH11, 14.0);
        let horizon = SimTime::from_secs(3);
        let len = tick_of(horizon) + 1;
        let real = ChannelRealization::materialize(&cfg, &seeds(), 0, horizon);
        assert_eq!(real.drawn_ticks(), 0, "building a realisation draws no shadowing");
        real.shadow_at(SimTime::from_millis(100));
        assert_eq!(real.drawn_ticks(), 50 + SHADOW_BLOCK + 1);
        // Reads inside the drawn prefix draw nothing.
        real.shadow_at(SimTime::ZERO);
        real.shadow_at(SimTime::from_nanos((50 + SHADOW_BLOCK as u64) * SHADOW_TICK.as_nanos()));
        assert_eq!(real.drawn_ticks(), 50 + SHADOW_BLOCK + 1);
        // The first read past it extends from the read, not the old mark.
        real.shadow_at(SimTime::from_secs(2));
        assert_eq!(real.drawn_ticks(), 1_000 + SHADOW_BLOCK + 1);
        // Near the horizon the block clamps to the track.
        real.shadow_at(horizon);
        assert_eq!(real.drawn_ticks(), len);
    }
}
