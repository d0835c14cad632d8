//! Flight-recorder overhead benchmarks (`BENCH_flight.json`).
//!
//! The contract under test is "the recorder is free when armed": folding
//! a 100k-call fps-office campaign with the top-K worst-call selector
//! live (scoring every call against the poor trigger, offering misses
//! into the bounded `WorstK` heap) must cost within 5% of the same
//! campaign with the recorder off. The ISSUE acceptance bound is <5%;
//! EXPERIMENTS.md records the measured numbers.
//!
//! - `campaign/flight_100k/recorder_off` — `run_campaign_observed` with
//!   `flight_k = 0`, folding the fps fleet digest with no selection at
//!   all.
//! - `campaign/flight_100k/recorder_on` — `run_campaign_observed` with
//!   `flight_k = 8`, scoring each call and offering those below
//!   `FPS_QOE_POOR` into the per-shard selector.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use diversifi::campaign::FleetSchema;
use diversifi::population::{CallSampler, PopulationModel};
use diversifi_simcore::{run_campaign_observed, CampaignConfig, FlightKey};
use diversifi_voip::{FpsConfig, WorkloadKind, FPS_QOE_POOR};

const CALLS: u64 = 100_000;
const SHARD: u64 = 8_192;
const SEED: u64 = 0xF11E57;

fn cfg(flight_k: usize) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(CALLS);
    cfg.shard_size = SHARD;
    cfg.threads = 0;
    cfg.flight_k = flight_k;
    cfg
}

fn bench_flight(c: &mut Criterion) {
    let model = PopulationModel::default();
    let sampler = CallSampler::new(&model, SEED);
    let fleet = FleetSchema::for_workload(WorkloadKind::Fps(FpsConfig::office()));

    let mut g = c.benchmark_group("campaign/flight_100k");
    g.sample_size(10);

    g.bench_function("recorder_off", |b| {
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

    g.bench_function("recorder_on", |b| {
        b.iter(|| {
            let out = run_campaign_observed(
                &cfg(8),
                &fleet.schema,
                |i, _scratch, digest, worst| {
                    let score = fleet.fold(&sampler.call(i), digest);
                    if score < FPS_QOE_POOR {
                        worst.offer(FlightKey { score, seed: SEED, index: i });
                    }
                },
                |_| {},
                |_| {},
            )
            .expect("in-memory campaign cannot fail");
            black_box((out.fingerprint, out.flight.map(|w| w.len())))
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
    targets = bench_flight
}
criterion_main!(benches);
