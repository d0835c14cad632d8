//! Deterministic parallel sweep execution.
//!
//! Every batch experiment in the workspace — corpus-scale call rating,
//! multi-world fleets, ablations, population studies — is a map over
//! *independent* simulation tasks: task `i` derives its own RNG streams
//! from a [`SeedFactory`](crate::SeedFactory) sub-stream, runs a `World`,
//! and yields a record. [`SweepRunner`] is the single execution substrate
//! for those maps.
//!
//! # Determinism contract
//!
//! [`SweepRunner::run_indexed_with`] — and its two delegates,
//! [`run_indexed`](SweepRunner::run_indexed) and
//! [`run_indexed_traced`](SweepRunner::run_indexed_traced) — guarantee
//! **bit-identical output regardless of thread count**, because:
//!
//! 1. every task is a pure function of its index — RNG state is never
//!    shared across tasks (task `i` derives `seeds.subfactory(label, i)`
//!    itself, and indexes its own input slice if it has one);
//! 2. results are written into a pre-sized slot vector at the task's own
//!    index, so output order is input order, not completion order;
//! 3. the scheduler only decides *which thread* runs a task, never what
//!    the task computes.
//!
//! # Execution model
//!
//! There is one worker loop, in [`SweepRunner::run_indexed_with`].
//! Workers claim task indices from a shared atomic counter (work-stealing
//! by next-index claim, so a slow task never stalls the queue behind it)
//! and publish results through per-slot [`OnceLock`]s — there is no mutex
//! around the result vector and no cross-thread ordering requirement
//! beyond the scope join. With one worker (or one task) the runner
//! degrades to a plain inline loop with zero thread overhead.

use crate::telemetry::{self, MergedTelemetry};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Cap on auto-detected workers; sweeps are memory-light but a fleet of
/// `World`s past this point is scheduler churn, not speedup.
const MAX_AUTO_THREADS: usize = 16;

/// Hardware parallelism, clamped to [1, `MAX_AUTO_THREADS`].
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_AUTO_THREADS)
}

/// A deterministic parallel executor for independent simulation tasks.
///
/// See the [module docs](self) for the determinism contract.
#[derive(Clone, Copy, Debug)]
pub struct SweepRunner {
    threads: usize,
}

impl Default for SweepRunner {
    fn default() -> Self {
        SweepRunner::available()
    }
}

impl SweepRunner {
    /// A runner with an explicit worker count; `0` means auto-detect
    /// (`available_parallelism`, capped at 16).
    pub fn new(threads: usize) -> SweepRunner {
        let threads = if threads == 0 { default_parallelism() } else { threads };
        SweepRunner { threads }
    }

    /// A runner using all available hardware parallelism.
    pub fn available() -> SweepRunner {
        SweepRunner::new(0)
    }

    /// The serial reference runner (one worker, inline execution).
    pub fn serial() -> SweepRunner {
        SweepRunner { threads: 1 }
    }

    /// The worker count this runner will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Map `f` over `0..n`, returning results in index order.
    ///
    /// `f` must be a pure function of the index for the determinism
    /// contract to hold; a panic in any task propagates after all workers
    /// stop claiming new tasks.
    pub fn run_indexed<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send + Sync,
        F: Fn(usize) -> R + Sync,
    {
        self.run_indexed_with(n, || (), |i, _: &mut ()| f(i))
    }

    /// Like [`run_indexed`](Self::run_indexed), but hands every task a
    /// mutable per-worker scratch value built by `init` (one per worker
    /// thread, created on that thread).
    ///
    /// This is the zero-alloc hook: workers reuse buffers, caches and
    /// arenas across the tasks they claim instead of allocating per task.
    /// The determinism contract still requires `f(i, scratch)` to return a
    /// value independent of the scratch's *history* — scratch state may
    /// only serve as a buffer or a cache of pure functions, never carry
    /// task-to-task information into results.
    pub fn run_indexed_with<S, R, I, F>(&self, n: usize, init: I, f: F) -> Vec<R>
    where
        R: Send + Sync,
        I: Fn() -> S + Sync,
        F: Fn(usize, &mut S) -> R + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let workers = self.threads.min(n);
        if workers <= 1 {
            let mut scratch = init();
            return (0..n).map(|i| f(i, &mut scratch)).collect();
        }

        let slots: Vec<OnceLock<R>> = (0..n).map(|_| OnceLock::new()).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut scratch = init();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            // Each index is claimed exactly once, so the
                            // slot is always empty here.
                            assert!(
                                slots[i].set(f(i, &mut scratch)).is_ok(),
                                "sweep slot {i} written twice"
                            );
                        }
                    })
                })
                .collect();
            for handle in handles {
                // Re-raise a task panic with its original payload instead
                // of scope's generic "a scoped thread panicked".
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.into_inner().unwrap_or_else(|| panic!("sweep task {i} did not complete"))
            })
            .collect()
    }

    /// Like [`run_indexed`](Self::run_indexed), but wraps every task in a
    /// telemetry session (a per-worker bounded ring of `capacity` events
    /// plus a metrics snapshot) and deterministically merges the per-run
    /// captures by `(sim-time, run-index, seq)`.
    ///
    /// Because a task's session lives on whichever worker thread claimed
    /// it and each run's event stream is a pure function of the run, the
    /// merged trace is bit-identical at any thread count — the same
    /// contract as the results themselves. When telemetry is compiled out
    /// ([`telemetry::TRACE_COMPILED`] is false) this is `run_indexed` plus
    /// an empty [`MergedTelemetry`].
    ///
    /// Must not be called while a telemetry session is active on the
    /// calling thread: the serial path runs tasks inline and would
    /// clobber it.
    pub fn run_indexed_traced<R, F>(&self, n: usize, capacity: usize, f: F) -> (Vec<R>, MergedTelemetry)
    where
        R: Send + Sync,
        F: Fn(usize) -> R + Sync,
    {
        debug_assert!(
            !telemetry::active(),
            "run_indexed_traced would clobber the active telemetry session"
        );
        let out = self.run_indexed_with(n, || (), |i, _scratch: &mut ()| {
            telemetry::begin(capacity);
            let r = f(i);
            (r, telemetry::end())
        });
        let mut merged = MergedTelemetry::default();
        let mut results = Vec::with_capacity(out.len());
        for (run, (r, session)) in out.into_iter().enumerate() {
            results.push(r);
            merged.absorb(run as u32, session);
        }
        merged.finish();
        (results, merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedFactory;

    /// A deterministic, seed-dependent stand-in for a simulation task.
    fn fake_sim(i: usize, seeds: &SeedFactory) -> Vec<u64> {
        let mut rng = seeds.stream("work", i as u64);
        (0..16).map(|_| rng.range_u64(0, 1 << 48)).collect()
    }

    #[test]
    fn results_are_in_task_order() {
        let out = SweepRunner::new(4).run_indexed(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_does_not_change_output() {
        let seeds = SeedFactory::new(0xDEAD);
        let tasks: Vec<u64> = (0..33).map(|i| i * 7).collect();
        let reference: Vec<(u64, Vec<u64>)> = (0..33)
            .map(|i| (tasks[i], fake_sim(i, &seeds.subfactory("task", i as u64))))
            .collect();
        for threads in [1, 2, 3, 8] {
            // Each task indexes its own input and derives its own seeds.
            let got = SweepRunner::new(threads).run_indexed_with(tasks.len(), || (), |i, _| {
                (tasks[i], fake_sim(i, &seeds.subfactory("task", i as u64)))
            });
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn scratch_runner_is_thread_count_invariant() {
        let seeds = SeedFactory::new(0xBEEF);
        let reference: Vec<Vec<u64>> = (0..29)
            .map(|i| fake_sim(i, &seeds.subfactory("task", i as u64)))
            .collect();
        for threads in [1, 2, 3, 8] {
            // Scratch reuses a buffer across tasks; output must not change.
            let got = SweepRunner::new(threads).run_indexed_with(
                29,
                Vec::<u64>::new,
                |i, buf| {
                    buf.clear();
                    buf.extend(fake_sim(i, &seeds.subfactory("task", i as u64)));
                    buf.clone()
                },
            );
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn scratch_is_created_per_worker_not_per_task() {
        use std::sync::atomic::AtomicUsize;
        let inits = AtomicUsize::new(0);
        let runner = SweepRunner::new(4);
        let out = runner.run_indexed_with(
            64,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0u64
            },
            |i, _| i,
        );
        assert_eq!(out.len(), 64);
        let created = inits.load(Ordering::Relaxed);
        assert!(created <= 4, "expected at most one scratch per worker, got {created}");
    }

    #[test]
    fn empty_and_singleton_sweeps() {
        let out: Vec<u32> = SweepRunner::available().run_indexed(0, |_| unreachable!());
        assert!(out.is_empty());
        let one = SweepRunner::available().run_indexed(1, |i| i + 41);
        assert_eq!(one, vec![41]);
    }

    #[test]
    fn zero_threads_means_auto() {
        let r = SweepRunner::new(0);
        assert!(r.threads() >= 1);
        assert_eq!(SweepRunner::serial().threads(), 1);
    }

    #[test]
    fn more_workers_than_tasks_is_fine() {
        let out = SweepRunner::new(16).run_indexed(3, |i| i);
        assert_eq!(out, vec![0, 1, 2]);
    }

    /// A fake task that emits a deterministic event pattern: run `i`
    /// emits `i + 1` deliveries at staggered times, so runs interleave in
    /// the merged timeline.
    fn traced_task(i: usize) -> usize {
        use crate::trace::{ComponentId, TraceDetail, TraceKind};
        use crate::SimTime;
        for k in 0..=i as u64 {
            crate::trace_event!(
                SimTime::from_micros(10 * k + i as u64),
                TraceKind::Delivery,
                ComponentId::client(0),
                TraceDetail::Seq(k)
            );
        }
        crate::telemetry::with_metrics(|m| {
            m.counter(crate::trace::ComponentId::client(0), "emitted", i as u64 + 1)
        });
        i
    }

    #[test]
    fn traced_merge_is_thread_count_invariant() {
        if !crate::telemetry::TRACE_COMPILED {
            return;
        }
        let (ref_results, ref_merged) = SweepRunner::serial().run_indexed_traced(9, 64, traced_task);
        assert_eq!(ref_results, (0..9).collect::<Vec<_>>());
        assert_eq!(ref_merged.events.len(), (1..=9).sum::<usize>());
        // Merge order: (sim-time, run, seq), so equal-time events from
        // different runs are ordered by run index.
        for w in ref_merged.events.windows(2) {
            assert!(
                (w[0].event.at, w[0].run, w[0].seq) < (w[1].event.at, w[1].run, w[1].seq),
                "merge order violated"
            );
        }
        match ref_merged.metrics.get(crate::trace::ComponentId::client(0), "emitted") {
            Some(crate::metrics::MetricValue::Counter(n)) => assert_eq!(*n, (1..=9).sum::<u64>()),
            other => panic!("{other:?}"),
        }
        for threads in [2, 4, 8] {
            let (results, merged) = SweepRunner::new(threads).run_indexed_traced(9, 64, traced_task);
            assert_eq!(results, ref_results, "threads={threads}");
            assert_eq!(merged.events, ref_merged.events, "threads={threads}");
            assert_eq!(merged.dropped, ref_merged.dropped);
        }
    }

    #[test]
    fn traced_runner_reports_ring_eviction() {
        if !crate::telemetry::TRACE_COMPILED {
            return;
        }
        // Capacity 2 with runs emitting up to 6 events: the merged trace
        // keeps each run's suffix and counts the evictions.
        let (_, merged) = SweepRunner::new(3).run_indexed_traced(6, 2, traced_task);
        let total: u64 = (1..=6).sum();
        let kept = merged.events.len() as u64;
        assert_eq!(kept + merged.dropped, total);
        assert_eq!(kept, 1 + 2 + 2 + 2 + 2 + 2);
        // Surviving events are each run's *last* emissions.
        for e in &merged.events {
            let run_total = e.run as u64 + 1;
            assert!(e.seq + 2 >= run_total, "run {} kept seq {}", e.run, e.seq);
        }
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn task_panic_propagates() {
        SweepRunner::new(2).run_indexed(8, |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }
}
