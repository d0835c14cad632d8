//! Hot-path benchmarks (`BENCH_hotpath.json`): hoisted-coefficient channel
//! materialisation + arena-backed worlds + calendar event queue + k-way
//! trace merge fast path, measured as one workload.
//!
//! - `hotpath/three_arm_10s/*` — the `channel/three_arm_10s` paired
//!   workload on the sweep steady state: a **persistent** warm
//!   realization cache and per-worker arena across iterations (the
//!   per-iteration cold cache of the `channel` bench measures first-call
//!   cost, not the corpus regime). `warm_arena` is the full fast path;
//!   `warm_no_arena` (a fresh arena per world) isolates what the arena
//!   recycling buys.
//! - `hotpath/materialize_batch_60s/scattered_x4` — four 60 s links
//!   materialised one after another through the one `materialize` (OU
//!   coefficients hoisted out of the tick loop). The group and arm names
//!   are kept so the committed baseline stays comparable.
//! - `hotpath/queue_churn/calendar` — the event queue on the dense-timer
//!   schedule shape (20 ms periodic + jittered sub-ms completions).
//! - `hotpath/traced_sweep_4x` — `run_indexed_traced` end to end (4
//!   traced runs + loser-tree k-way merge), the `telemetry/post/
//!   merge_sort` workload; only built with `--features trace`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use diversifi::world::{RunMode, World, WorldConfig};
use diversifi_simcore::{EventQueue, SeedFactory, SimDuration, SimTime, WorkerArena};
use diversifi_voip::StreamSpec;
use diversifi_wifi::{Channel, ChannelRealization, GeParams, LinkConfig, RealizationCache};

fn links() -> (LinkConfig, LinkConfig) {
    let a = LinkConfig::office(Channel::CH1, 16.0);
    let mut b = LinkConfig::office(Channel::CH11, 26.0);
    b.ge = GeParams::weak_link();
    (a, b)
}

fn three_arm_cfg(a: &LinkConfig, b: &LinkConfig, mode: RunMode) -> WorldConfig {
    let mut cfg = WorldConfig::testbed(a.clone(), b.clone());
    cfg.mode = mode;
    cfg.spec = StreamSpec::voip();
    cfg.spec.duration = SimDuration::from_secs(10);
    cfg
}

/// The steady-state sweep regime: same links across calls, so every arm
/// after the very first iteration is a pure cache hit, and the arena
/// recycles the queue + bookkeeping capacity run over run.
fn bench_three_arm(c: &mut Criterion) {
    let (a, b) = links();
    let modes = [RunMode::PrimaryOnly, RunMode::DiversifiCustomAp, RunMode::DiversifiMiddlebox];
    let mut g = c.benchmark_group("hotpath/three_arm_10s");
    g.bench_function("warm_arena", |bch| {
        let cache = RealizationCache::new(4);
        let mut arena = WorkerArena::new();
        let seeds = SeedFactory::new(7);
        bch.iter(|| {
            for mode in modes {
                let cfg = three_arm_cfg(&a, &b, mode);
                black_box(
                    World::new_cached_in(&cfg, &seeds, &cache, &mut arena).run_in(&mut arena),
                );
            }
        })
    });
    g.bench_function("warm_no_arena", |bch| {
        let cache = RealizationCache::new(4);
        let seeds = SeedFactory::new(7);
        bch.iter(|| {
            for mode in modes {
                let cfg = three_arm_cfg(&a, &b, mode);
                let world = World::new_cached_in(&cfg, &seeds, &cache, &mut WorkerArena::new());
                black_box(world.run());
            }
        })
    });
    g.finish();
}

/// Channel materialisation for a 4-link world: each link's GE chain and
/// OU track on the 2 ms grid, one link after another.
fn bench_materialize(c: &mut Criterion) {
    let (a, b) = links();
    let c2 = LinkConfig::office(Channel::CH6, 21.0);
    let mut d = LinkConfig::office(Channel::CH11, 29.0);
    d.ge = GeParams::weak_link();
    let all = [a, b, c2, d];
    let horizon = SimTime::ZERO + SimDuration::from_secs(60);
    let mut g = c.benchmark_group("hotpath/materialize_batch_60s");
    g.bench_function("scattered_x4", |bch| {
        let mut k = 0u64;
        bch.iter(|| {
            k += 1;
            let seeds = SeedFactory::new(k);
            let reals: Vec<ChannelRealization> = all
                .iter()
                .enumerate()
                .map(|(i, l)| ChannelRealization::materialize(l, &seeds, i as u64, horizon))
                .collect();
            black_box(reals)
        })
    });
    g.finish();
}

/// The event queue on the world's timer shape: a 20 ms periodic tick
/// plus a burst of jittered sub-millisecond completions per tick. The
/// `calendar` label is kept so the committed baseline stays comparable.
fn bench_queue_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath/queue_churn");
    g.bench_function("calendar", |bch| {
        bch.iter(|| {
            let mut q: EventQueue<u32> = EventQueue::new();
            let mut rng = SeedFactory::new(11).stream("churn", 0);
            q.schedule(SimTime::ZERO, 0);
            let mut pops = 0u64;
            while let Some((now, tag)) = q.pop() {
                pops += 1;
                if tag == 0 && pops < 4000 {
                    // Periodic tick: re-arm and fan out completions.
                    q.schedule(now + SimDuration::from_millis(20), 0);
                    for i in 1..=6u32 {
                        let d = SimDuration::from_micros(rng.range_u64(40, 900));
                        q.schedule(now + d, i);
                    }
                }
            }
            black_box(pops)
        })
    });
    g.finish();
}

/// End-to-end traced sweep: 4 runs absorbed in run order, loser-tree
/// merged, finished. Same workload as `telemetry/post/merge_sort` — the
/// before/after for the k-way merge (plus the faster worlds beneath it).
#[cfg(feature = "trace")]
fn bench_traced_sweep(c: &mut Criterion) {
    use diversifi_simcore::SweepRunner;
    // Same scenario as `telemetry/post/merge_sort` (weak/weak pair, 5 s)
    // so the two numbers are directly comparable.
    let mut primary = LinkConfig::office(Channel::CH1, 26.0);
    primary.ge = GeParams::weak_link();
    let mut secondary = LinkConfig::office(Channel::CH11, 30.0);
    secondary.ge = GeParams::weak_link();
    let mut cfg = WorldConfig::testbed(primary, secondary);
    cfg.mode = RunMode::DiversifiCustomAp;
    cfg.spec.duration = SimDuration::from_secs(5);
    let seeds = SeedFactory::new(0x7E1E);
    let mut g = c.benchmark_group("hotpath/traced_sweep_4x");
    g.sample_size(10);
    g.bench_function("run_and_merge", |bch| {
        bch.iter(|| {
            let (_, merged) = SweepRunner::available().run_indexed_traced(4, 1 << 14, |i| {
                World::new(&cfg, &seeds.subfactory("bench", i as u64)).run().primary_deliveries
            });
            black_box(merged.events.len())
        })
    });
    g.finish();
}

#[cfg(not(feature = "trace"))]
fn bench_traced_sweep(_c: &mut Criterion) {}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(3));
    targets = bench_three_arm, bench_materialize, bench_queue_churn, bench_traced_sweep
}
criterion_main!(benches);
