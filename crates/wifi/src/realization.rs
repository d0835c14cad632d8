//! Pre-materialised channel realisations for paired replay.
//!
//! Every experiment in the paper is a *paired* comparison — DiversiFi on vs
//! off, custom-AP vs middlebox, with-TCP vs without — over the **same**
//! channel realisation. Lazily advancing the stochastic processes inside each
//! arm re-samples the whole Gilbert–Elliott / shadowing timeline N times per
//! seed. This module materialises the realisation **once** per
//! `(link parameters, seed)` as a compact piecewise timeline
//! ([`ChannelRealization`]) that [`crate::link::LinkModel`] replays read-only,
//! and provides a small LRU cache ([`RealizationCache`]) so sweep drivers
//! whose arms share channel parameters stop recomputing the radio
//! environment entirely.
//!
//! # Replay ≡ lazy sampling
//!
//! - The GE timeline is produced by
//!   [`GilbertElliott::materialize_until`], which consumes the exact draw
//!   sequence lazy `state_at` queries would — segment replay is bit-identical.
//! - Shadowing is sampled on a fixed tick grid ([`SHADOW_TICK`]). The
//!   Ornstein–Uhlenbeck transition draws one normal per grid step regardless
//!   of who asks, so a live [`ShadowCursor`] and a pre-computed track read
//!   the same values. (Exact-transition OU sampled at *event* times would
//!   make the draw sequence depend on each arm's query pattern — the grid is
//!   what makes the track shareable across arms.)
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
use std::sync::{Arc, Mutex};

/// Grid spacing of the pre-sampled shadowing track. 2 ms is far below the
/// office shadowing decorrelation time (seconds), so the staircase
/// approximation is indistinguishable from exact-transition sampling at the
/// packet clock while keeping a 120 s track under half a megabyte.
pub const SHADOW_TICK: SimDuration = SimDuration::from_millis(2);

/// A live Ornstein–Uhlenbeck process advanced on the [`SHADOW_TICK`] grid.
///
/// Draws exactly one normal per grid step, independent of the caller's query
/// times — the property that makes a live link and a replayed
/// [`ChannelRealization`] consume identical randomness.
#[derive(Clone, Debug)]
pub struct ShadowCursor {
    ou: OrnsteinUhlenbeck,
    tick: u64,
    value: f64,
}

impl ShadowCursor {
    /// Wrap an OU process; the cursor holds its stationary initial value
    /// until the first grid step.
    pub fn new(mut ou: OrnsteinUhlenbeck) -> ShadowCursor {
        let value = ou.at(SimTime::ZERO);
        ShadowCursor { ou, tick: 0, value }
    }

    /// Shadowing value (dB) at `t`, snapped down to the grid. Queries must
    /// be non-decreasing in `t`.
    pub fn at(&mut self, t: SimTime) -> f64 {
        let k = t.as_nanos() / SHADOW_TICK.as_nanos();
        while self.tick < k {
            self.tick += 1;
            self.value = self.ou.at(SimTime::from_nanos(self.tick * SHADOW_TICK.as_nanos()));
        }
        self.value
    }
}

/// One link's channel environment over `[0, horizon]`, materialised up-front:
/// the Gilbert–Elliott dwell timeline plus the shadowing track on the
/// [`SHADOW_TICK`] grid.
///
/// Read-only after construction, so N paired arms can share one realisation
/// behind an [`Arc`]. Queries past the horizon clamp to the final segment /
/// tick, deterministically.
#[derive(Clone, Debug)]
pub struct ChannelRealization {
    horizon: SimTime,
    ge: Vec<GeSegment>,
    shadow: Vec<f64>,
}

impl ChannelRealization {
    /// Materialise the realisation for `(cfg, seeds, index)` over
    /// `[0, horizon]`, consuming the same `"link-ge"` / `"link-shadow"`
    /// streams a live [`crate::link::LinkModel`] would.
    ///
    /// The shadowing track advances on the [`SHADOW_TICK`] grid with the
    /// OU transition coefficients hoisted out of the tick loop, so the
    /// `exp` and `sqrt` run once per *track* instead of once per *tick*.
    /// Both evaluate the same expressions, so the track is bit-identical
    /// to querying the process tick by tick (and to a live
    /// [`ShadowCursor`]).
    pub fn materialize(
        cfg: &LinkConfig,
        seeds: &SeedFactory,
        index: u64,
        horizon: SimTime,
    ) -> ChannelRealization {
        let ge = GilbertElliott::new(cfg.ge, seeds.stream("link-ge", index))
            .materialize_until(horizon);
        let mut ou = OrnsteinUhlenbeck::new(
            cfg.shadow_sigma_db,
            cfg.shadow_tau,
            seeds.stream("link-shadow", index),
        );
        let ticks = horizon.as_nanos() / SHADOW_TICK.as_nanos();
        let (a, noise_sd) = ou.transition_coeffs(SHADOW_TICK.as_secs_f64());
        let mut shadow = Vec::with_capacity(ticks as usize + 1);
        shadow.push(ou.at(SimTime::ZERO));
        for _ in 1..=ticks {
            shadow.push(ou.step_grid(SHADOW_TICK, a, noise_sd));
        }
        ChannelRealization { horizon, ge, shadow }
    }

    /// The materialisation horizon; queries past it freeze at the last value.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// The Gilbert–Elliott dwell timeline.
    pub fn ge_segments(&self) -> &[GeSegment] {
        &self.ge
    }

    /// Shadowing value (dB) at `t` (frozen past the horizon).
    pub fn shadow_at(&self, t: SimTime) -> f64 {
        let k = (t.as_nanos() / SHADOW_TICK.as_nanos()) as usize;
        self.shadow[k.min(self.shadow.len() - 1)]
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

    /// Approximate heap footprint, for cache sizing diagnostics.
    pub fn approx_bytes(&self) -> usize {
        self.ge.len() * std::mem::size_of::<GeSegment>()
            + self.shadow.len() * std::mem::size_of::<f64>()
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

    fn seeds() -> SeedFactory {
        SeedFactory::new(0x5EA1)
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
        let real = ChannelRealization::materialize(&cfg, &seeds(), 0, horizon);
        let far = SimTime::from_secs(1000);
        let frozen = real.shadow_at(far);
        assert_eq!(frozen.to_bits(), real.shadow_at(far + SimDuration::from_secs(5)).to_bits());
        let i = real.ge_index_at(0, far);
        assert_eq!(i, real.ge_segments().len() - 1);
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
        assert_eq!(
            cached.shadow.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            direct.shadow.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }
}
