//! Channel-realisation benchmarks: what does it cost to materialise a
//! `(link, seed)` realisation, and what do paired N-arm experiments save
//! by replaying one realisation instead of re-sampling the channel per
//! arm? `uncached` vs `cached` pairs below are the before/after for the
//! realisation cache (`BENCH_channel.json`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use diversifi::world::{RunMode, World, WorldConfig};
use diversifi_simcore::{SeedFactory, SimDuration, SimTime, WorkerArena};
use diversifi_voip::StreamSpec;
use diversifi_wifi::{Channel, ChannelRealization, GeParams, LinkConfig, RealizationCache};

fn links() -> (LinkConfig, LinkConfig) {
    let a = LinkConfig::office(Channel::CH1, 16.0);
    let mut b = LinkConfig::office(Channel::CH11, 26.0);
    b.ge = GeParams::weak_link();
    (a, b)
}

fn bench_materialize(c: &mut Criterion) {
    let (a, _) = links();
    let horizon = SimTime::ZERO + SimDuration::from_secs(60);
    let mut g = c.benchmark_group("channel/materialize_60s");
    g.bench_function("fresh", |bch| {
        let mut k = 0u64;
        bch.iter(|| {
            k += 1;
            black_box(ChannelRealization::materialize(&a, &SeedFactory::new(k), 0, horizon))
        })
    });
    g.bench_function("cache_hit", |bch| {
        let cache = RealizationCache::new(4);
        let seeds = SeedFactory::new(7);
        cache.get_or_materialize(&a, &seeds, 0, horizon);
        bch.iter(|| black_box(cache.get_or_materialize(&a, &seeds, 0, horizon)))
    });
    g.finish();
}

/// One §6-style paired experiment: the same `(links, seed)` world run in
/// all three modes. `uncached` materialises both channels per arm;
/// `cached` materialises once and replays.
fn bench_three_arm(c: &mut Criterion) {
    let (a, b) = links();
    let modes =
        [RunMode::PrimaryOnly, RunMode::DiversifiCustomAp, RunMode::DiversifiMiddlebox];
    let cfg_for = |mode| {
        let mut cfg = WorldConfig::testbed(a.clone(), b.clone());
        cfg.mode = mode;
        cfg.spec = StreamSpec::voip();
        cfg.spec.duration = SimDuration::from_secs(10);
        cfg
    };
    let mut g = c.benchmark_group("channel/three_arm_10s");
    g.bench_function("uncached", |bch| {
        let mut k = 0u64;
        bch.iter(|| {
            k += 1;
            let seeds = SeedFactory::new(k);
            for mode in modes {
                let cfg = cfg_for(mode);
                black_box(World::new(&cfg, &seeds).run());
            }
        })
    });
    g.bench_function("cached", |bch| {
        let mut k = 0u64;
        bch.iter(|| {
            k += 1;
            let seeds = SeedFactory::new(k);
            let cache = RealizationCache::new(4);
            for mode in modes {
                let cfg = cfg_for(mode);
                let world = World::new_cached_in(&cfg, &seeds, &cache, &mut WorkerArena::new());
                black_box(world.run());
            }
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(3));
    targets = bench_materialize, bench_three_arm
}
criterion_main!(benches);
