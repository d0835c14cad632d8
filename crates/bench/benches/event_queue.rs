//! Event-queue hot-path benchmarks: steady-state churn at increasing
//! numbers of pending events, plus the peek path.
//!
//! Every simulated world spends its inner loop in
//! `EventQueue::{schedule, pop}`, so these measure the calendar wheel and
//! its overflow heap at the pending-set sizes the corpus (1k–10k) and
//! multi-client fleets (100k–1M) actually reach. Offsets spread over 1 s,
//! so most pending events wait in the overflow heap.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use diversifi_simcore::{EventQueue, SimDuration, SimTime};

/// Deterministic pseudo-random nanosecond offset for event `i`.
fn pseudo_nanos(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 1_000_000_000
}

/// Pre-fill a queue with `n` pending events.
fn prefill(n: u64) -> EventQueue<u64> {
    let mut q = EventQueue::new();
    for i in 0..n {
        q.schedule(SimTime::from_nanos(pseudo_nanos(i)), i);
    }
    q
}

fn bench_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue_churn");
    for n in [1_000u64, 10_000, 100_000, 1_000_000] {
        // Steady state: the queue holds ~n pending events throughout; each
        // measured batch pops 1024 events and schedules 1024 replacements,
        // which is exactly the simulator's inner-loop shape.
        let mut q = prefill(n);
        let mut next_id = n;
        g.bench_with_input(BenchmarkId::new("pop_schedule_1024", n), &n, |b, _| {
            b.iter(|| {
                let mut acc = 0u64;
                for _ in 0..1024 {
                    let (t, v) = q.pop().expect("queue is never drained");
                    acc = acc.wrapping_add(v);
                    // Reschedule after the popped time so the pending count
                    // stays at n forever.
                    q.schedule(t + SimDuration::from_nanos(pseudo_nanos(next_id)), next_id);
                    next_id += 1;
                }
                black_box(acc)
            })
        });
    }
    g.finish();
}

fn bench_peek(c: &mut Criterion) {
    // `peek_time` compares the wheel head with the overflow-heap head.
    let q = prefill(100_000);
    c.bench_function("event_queue_peek/100000", |b| b.iter(|| black_box(q.peek_time())));
}

criterion_group!(benches, bench_churn, bench_peek);
criterion_main!(benches);
