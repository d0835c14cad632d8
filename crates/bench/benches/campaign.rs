//! Campaign-engine overhead benchmarks (`BENCH_campaign.json`).
//!
//! The contract under test is "the engine is free": running a fleet
//! campaign through `run_campaign_observed` (shard planning, per-shard
//! digests, ordered merge, no-op observers — checkpointing off) must cost
//! within a few percent of the raw loop a caller would hand-write over
//! `SweepRunner`. The ISSUE acceptance bound is <5% on the parallel
//! pair; EXPERIMENTS.md records the measured numbers.
//!
//! - `campaign/fold_32k/engine` vs `raw_sweep` — 32k population-model
//!   calls folded into the fleet digest, auto threads: the engine's
//!   sharded run against a hand-rolled `run_indexed` over the same
//!   shard plan with the same ordered merge.
//! - `campaign/fold_32k/engine_1t` vs `raw_loop_1t` — the same work on
//!   one thread, the raw side a single straight fold loop with no
//!   sharding at all: the engine's total bookkeeping in isolation.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use diversifi::campaign::FleetSchema;
use diversifi::population::{CallSampler, PopulationModel};
use diversifi_simcore::{run_campaign_observed, CampaignConfig, ShardDigest, SweepRunner};

const CALLS: u64 = 32_768;
const SHARD: u64 = 4_096;

fn cfg(threads: usize) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(CALLS);
    cfg.shard_size = SHARD;
    cfg.threads = threads;
    cfg
}

fn bench_fold(c: &mut Criterion) {
    let model = PopulationModel::default();
    let sampler = CallSampler::new(&model, 0xCA11);
    let fleet = FleetSchema::new();

    let mut g = c.benchmark_group("campaign/fold_32k");
    g.sample_size(10);

    g.bench_function("engine", |b| {
        b.iter(|| {
            let out = run_campaign_observed(
                &cfg(0),
                &fleet.schema,
                |i, _scratch, digest, _worst| {
                    fleet.fold(&sampler.call(i), digest);
                },
                |_| {},
                |_| {},
            )
            .expect("in-memory campaign cannot fail");
            black_box(out.fingerprint)
        })
    });

    g.bench_function("raw_sweep", |b| {
        b.iter(|| {
            let shards = CALLS.div_ceil(SHARD) as usize;
            let digests = SweepRunner::available().run_indexed(shards, |s| {
                let first = s as u64 * SHARD;
                let len = SHARD.min(CALLS - first);
                let mut d = ShardDigest::new(&fleet.schema, first, len);
                for i in first..first + len {
                    fleet.fold(&sampler.call(i), &mut d);
                }
                d
            });
            let mut merged = digests[0].clone();
            for d in &digests[1..] {
                merged.merge_from(d);
            }
            black_box(merged.fingerprint(&fleet.schema))
        })
    });

    g.bench_function("engine_1t", |b| {
        b.iter(|| {
            let out = run_campaign_observed(
                &cfg(1),
                &fleet.schema,
                |i, _scratch, digest, _worst| {
                    fleet.fold(&sampler.call(i), digest);
                },
                |_| {},
                |_| {},
            )
            .expect("in-memory campaign cannot fail");
            black_box(out.fingerprint)
        })
    });

    g.bench_function("raw_loop_1t", |b| {
        b.iter(|| {
            let mut d = ShardDigest::new(&fleet.schema, 0, CALLS);
            for i in 0..CALLS {
                fleet.fold(&sampler.call(i), &mut d);
            }
            black_box(d.fingerprint(&fleet.schema))
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
    targets = bench_fold
}
criterion_main!(benches);
