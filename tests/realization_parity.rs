//! Cache-on vs cache-off parity for the channel-realisation layer.
//!
//! The realisation cache must be pure memoisation: replaying a cached
//! `ChannelRealization` has to produce bit-identical output to
//! materialising the channel fresh — for every arm of a paired experiment,
//! at every worker count. These tests fingerprint *complete* corpus
//! outputs (every per-packet trace, every counter) through `serde_json`
//! and `f64::to_bits`, so any single-bit divergence fails.

use diversifi::analysis::{self, AnalysisOptions, CallRecord};
use diversifi::corpus;
use diversifi::evaluation::{run_eval_corpus, testbed_location, EvalOptions, EvalRun};
use diversifi::twonic::{run_temporal, run_two_nic, TwoNicScenario};
use diversifi::world::{RunMode, World, WorldConfig};
use diversifi_simcore::{SeedFactory, SimDuration, SimTime, WorkerArena};
use diversifi_voip::StreamTrace;
use diversifi_wifi::{GeParams, RealizationCache, SHADOW_BLOCK, SHADOW_TICK};
use std::fmt::Write as _;

fn trace_fp(out: &mut String, t: &StreamTrace) {
    out.push_str(&serde_json::to_string(t).expect("trace serialises"));
}

fn eval_fp(runs: &[EvalRun]) -> String {
    let mut s = String::new();
    for r in runs {
        for rep in [&r.primary, &r.secondary, &r.diversifi] {
            trace_fp(&mut s, &rep.trace);
            write!(s, "waste={},air={};", rep.secondary_wasteful_tx, rep.secondary_air_tx)
                .unwrap();
        }
        s.push('\n');
    }
    s
}

/// The §6 evaluation corpus runs its three paired arms per location; with
/// the cache on, each location's two links are materialised exactly once
/// and replayed three times. Output must be bit-identical to the
/// cache-off path at 1, 2, 4 and 8 worker threads.
#[test]
fn eval_corpus_cache_on_equals_cache_off_across_thread_counts() {
    let mut opts = EvalOptions { n_runs: 3, ..EvalOptions::default() };
    opts.threads = 1;
    opts.use_realization_cache = false;
    let reference = eval_fp(&run_eval_corpus(&opts, 0x9EA1));

    for threads in [1usize, 2, 4, 8] {
        opts.threads = threads;
        opts.use_realization_cache = true;
        let cached = eval_fp(&run_eval_corpus(&opts, 0x9EA1));
        assert_eq!(cached, reference, "cache-on diverged at threads={threads}");
    }
    // And the cache-off path is itself thread-count invariant.
    opts.threads = 4;
    opts.use_realization_cache = false;
    assert_eq!(
        eval_fp(&run_eval_corpus(&opts, 0x9EA1)),
        reference,
        "cache-off diverged at threads=4"
    );
}

/// World-level cache accounting: n locations × 3 paired arms through
/// `World::new_cached_in` on one cache. Each world looks up its two links
/// once, so a location's first arm misses twice and the other two arms hit
/// twice each: `(hits, misses) == (4n, 2n)`, the pair the perf ledger
/// reports as `realization.hits`/`realization.misses`. Every arm also runs
/// bit-identical to a fresh `World::new`.
#[test]
fn world_cache_lookups_count_four_hits_and_two_misses_per_location() {
    let n = 3u64;
    let seeds = SeedFactory::new(0x9EA3);
    let cache = RealizationCache::new(16);
    let mut arena = WorkerArena::new();
    for i in 0..n {
        let call_seeds = seeds.subfactory("eval-run", i);
        let (p, s) = testbed_location(&mut call_seeds.stream("location", 0));
        let mut cfg = WorldConfig::testbed(p, s);
        cfg.spec.duration = SimDuration::from_secs(5);
        for mode in [RunMode::PrimaryOnly, RunMode::SecondaryOnly, RunMode::DiversifiCustomAp] {
            cfg.mode = mode;
            let cached =
                World::new_cached_in(&cfg, &call_seeds, &cache, &mut arena).run_in(&mut arena);
            let fresh = World::new(&cfg, &call_seeds).run();
            let (mut got, mut want) = (String::new(), String::new());
            trace_fp(&mut got, &cached.trace);
            trace_fp(&mut want, &fresh.trace);
            assert_eq!(got, want, "location {i} {mode:?}: cached world diverged");
        }
    }
    assert_eq!(cache.stats(), (4 * n, 2 * n));
}

fn corpus_fp(records: &[CallRecord]) -> String {
    let mut s = String::new();
    for r in records {
        for (trace, rssi) in [(&r.a.trace, r.a.rssi_dbm), (&r.b.trace, r.b.rssi_dbm)] {
            trace_fp(&mut s, trace);
            write!(s, "rssi={:016x};", rssi.to_bits()).unwrap();
        }
        for t in [&r.temporal_0, &r.temporal_100] {
            match t {
                Some(t) => trace_fp(&mut s, t),
                None => s.push('-'),
            }
        }
        s.push('\n');
    }
    s
}

/// The §4 two-NIC corpus driver replays realisations from per-worker
/// caches shared across calls. Rebuild the same corpus serially, with a
/// fresh cache per call, and demand identical traces.
#[test]
fn two_nic_corpus_matches_uncached_reference() {
    let opts = AnalysisOptions {
        n_calls: 5,
        spec: diversifi_voip::StreamSpec {
            packet_bytes: 160,
            interval: SimDuration::from_millis(20),
            duration: SimDuration::from_secs(10),
        },
        mix: corpus::CorpusMix::default(),
        diversity: 1,
        temporal: true,
        shared_fate: true,
        threads: 4,
    };
    let seed = 0x9EA2;
    let cached = corpus_fp(&analysis::run_corpus(&opts, seed));

    // Serial reconstruction of exactly the same corpus, one cache per call.
    let seeds = SeedFactory::new(seed);
    let envs = corpus::generate(opts.n_calls, &opts.mix, &seeds, opts.diversity, true);
    let mut reference = String::new();
    for (env, call_seeds) in &envs {
        let scn = TwoNicScenario::new(opts.spec, env.link_a.clone(), env.link_b.clone());
        let cache = RealizationCache::new(2);
        let run = run_two_nic(&scn, call_seeds, &cache);
        let stronger_cfg = if env.link_a.mean_rssi_dbm() >= env.link_b.mean_rssi_dbm() {
            &env.link_a
        } else {
            &env.link_b
        };
        let t0 = run_temporal(&opts.spec, stronger_cfg, call_seeds, SimDuration::ZERO, &cache);
        let t100 =
            run_temporal(&opts.spec, stronger_cfg, call_seeds, SimDuration::from_millis(100), &cache);
        for (trace, rssi) in [(&run.a.trace, run.a.rssi_dbm), (&run.b.trace, run.b.rssi_dbm)] {
            trace_fp(&mut reference, trace);
            write!(reference, "rssi={:016x};", rssi.to_bits()).unwrap();
        }
        trace_fp(&mut reference, &t0);
        trace_fp(&mut reference, &t100);
        reference.push('\n');
    }
    assert_eq!(cached, reference, "cached corpus diverged from the per-call-cache reference");
}

/// Shadowing tracks are drawn only as far as some arm reads them. Run each
/// arm on a fresh cache, then look its two realisations up again (both
/// lookups must hit) and read how far their tracks were drawn. A world
/// reads nothing after its `Done` event at `duration + 500 ms`, so no track
/// may be drawn more than one block past that tick; the realisation
/// horizon reaches 2 s further, so an eager prefetch of the whole track
/// fails this.
#[test]
fn worlds_draw_only_the_shadowing_their_arms_read() {
    let seeds = SeedFactory::new(0x9EA4);
    let (p, s) = testbed_location(&mut seeds.stream("location", 0));
    let mut cfg = WorldConfig::testbed(p, s);
    cfg.spec.duration = SimDuration::from_secs(5);
    // A lossy primary, so the DiversiFi arm recovers over the secondary.
    cfg.primary.ge = GeParams::weak_link();
    // The horizon `World` materialises over: duration + drain + RSSI tail.
    let horizon = SimTime::ZERO + cfg.spec.duration + SimDuration::from_millis(2_500);
    let track_len = (horizon.as_nanos() / SHADOW_TICK.as_nanos()) as usize + 1;
    let last_read = ((cfg.spec.duration + SimDuration::from_millis(500)).as_nanos()
        / SHADOW_TICK.as_nanos()) as usize;
    let bound = last_read + SHADOW_BLOCK + 1;
    assert!(bound < track_len, "the test needs a horizon longer than one block past the run");

    let mut drawn = |mode: RunMode| {
        cfg.mode = mode;
        let cache = RealizationCache::new(2);
        let mut arena = WorkerArena::new();
        World::new_cached_in(&cfg, &seeds, &cache, &mut arena).run_in(&mut arena);
        let primary = cache.get_or_materialize(&cfg.primary, &seeds, 0, horizon);
        let secondary = cache.get_or_materialize(&cfg.secondary, &seeds, 1, horizon);
        assert_eq!(cache.stats(), (2, 2), "{mode:?}: the lookups must find the world's tracks");
        (primary.drawn_ticks(), secondary.drawn_ticks())
    };

    let (primary, secondary) = drawn(RunMode::PrimaryOnly);
    assert_eq!(secondary, 0, "a primary-only world must not draw the secondary track");
    assert!(primary > 0 && primary <= bound, "primary-only drew {primary} of {track_len}");

    let (primary, secondary) = drawn(RunMode::DiversifiCustomAp);
    assert!(primary > 0 && primary <= bound, "DiversiFi primary drew {primary} of {track_len}");
    assert!(
        secondary > 0 && secondary <= bound,
        "DiversiFi secondary drew {secondary} of {track_len}"
    );
}
