//! Metrics-pipeline benchmarks: the Fig. 4/8 reductions and the
//! trace-level scans under them, over realistic traces from a simulated
//! corpus (`BENCH_metrics.json`). Each reduction has one (allocating)
//! form; the `alloc` names are kept so the committed baselines still
//! match.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use diversifi::{run_two_nic, TwoNicScenario};
use diversifi_simcore::{SeedFactory, SimDuration};
use diversifi_voip::{metrics, StreamSpec, StreamTrace};
use diversifi_wifi::{Channel, GeParams, LinkConfig};

const DEADLINE: SimDuration = SimDuration::from_millis(150);

/// A small corpus of 60 s traces over a weak link — long bursty traces
/// are the worst case for the collect-then-sort paths.
fn corpus(n: usize) -> Vec<StreamTrace> {
    let a = LinkConfig::office(Channel::CH1, 16.0);
    let mut b = LinkConfig::office(Channel::CH11, 26.0);
    b.ge = GeParams::weak_link();
    let mut spec = StreamSpec::voip();
    spec.duration = SimDuration::from_secs(60);
    let scn = TwoNicScenario::new(spec, a, b);
    (0..n)
        .map(|k| run_two_nic(&scn, &SeedFactory::new(0xBE7C + k as u64)).b.trace)
        .collect()
}

fn bench_worst_window(c: &mut Criterion) {
    let traces = corpus(32);
    let window = SimDuration::from_millis(500);
    let mut g = c.benchmark_group("metrics/worst_window_p90");
    g.bench_function("alloc_ecdf", |bch| {
        bch.iter(|| black_box(metrics::worst_window_ecdf(&traces, window, DEADLINE).quantile(0.9)))
    });
    g.finish();
}

fn bench_correlation(c: &mut Criterion) {
    let traces = corpus(2);
    let mut g = c.benchmark_group("metrics/correlation_60s");
    g.bench_function("auto/alloc", |bch| {
        bch.iter(|| black_box(metrics::loss_autocorrelation(&traces[0], DEADLINE, 50)))
    });
    g.bench_function("cross/alloc", |bch| {
        bch.iter(|| {
            black_box(metrics::loss_cross_correlation(&traces[0], &traces[1], DEADLINE, 50))
        })
    });
    g.finish();
}

fn bench_trace_reductions(c: &mut Criterion) {
    let traces = corpus(1);
    let trace = &traces[0];
    let mut g = c.benchmark_group("metrics/trace_60s");
    g.bench_function("loss_indicator/alloc", |bch| {
        bch.iter(|| black_box(trace.loss_indicator(DEADLINE)))
    });
    g.bench_function("worst_window_single_pass", |bch| {
        bch.iter(|| black_box(trace.worst_window_loss_pct(SimDuration::from_millis(500), DEADLINE)))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_worst_window, bench_correlation, bench_trace_reductions
}
criterion_main!(benches);
