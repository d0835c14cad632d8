//! # diversifi-simcore
//!
//! The discrete-event simulation core that every other crate in the
//! DiversiFi reproduction builds on:
//!
//! - [`SimTime`] / [`SimDuration`] — nanosecond virtual time newtypes.
//! - [`EventQueue`] — deterministic time-ordered event queue with FIFO
//!   tie-breaking: a calendar wheel holding events inline, with an
//!   overflow heap for far ones.
//! - [`SeedFactory`] / [`RngStream`] — independent, reproducible random
//!   streams per component, so runs are pure functions of (scenario, seed)
//!   and A/B comparisons are paired.
//! - [`stats`] — summaries, ECDFs, burst histograms, auto-/cross-correlation
//!   (the machinery behind every figure in the paper).
//! - [`MetricsScratch`] — the per-worker scratch slot the campaign fold
//!   hands every call.
//! - [`telemetry`] — zero-alloc structured tracing ([`TraceEvent`] is a
//!   32-byte `Copy` record), a [`metrics`] registry of counters / gauges /
//!   log-scale histograms, span-based event-loop self-profiling, and one
//!   [`export`] path: every event timeline is a [`MergedTelemetry`]
//!   rendered by one JSONL and one Chrome trace-event / Perfetto writer.
//!   Compiled in for debug builds and `--features trace` release builds;
//!   otherwise the emission sites const-fold to no-ops.
//! - [`flight`] — the campaign flight recorder: a deterministic,
//!   thread-count-invariant top-K worst-call selector ([`WorstK`]) that
//!   rides the campaign fold. The worst calls are later replayed as a
//!   traced sweep, one labelled run per (call, arm).
//! - [`check`] — the invariant-audit layer: [`sim_assert!`]/[`sim_assert_eq!`]
//!   plus the packet-conservation [`check::PacketLedger`], active in debug
//!   builds and `--features audit` release builds.
//! - [`fault`] — deterministic fault plans ([`FaultPlan`]): seed-stable
//!   schedules of AP power cycles and flaps, middlebox restarts, WAN/LAN
//!   brownouts, uplink outages and interference storms, expanded into flat
//!   impairment windows the world model schedules up front.
//! - [`chaos`] — adversarial fault-plan fuzzing: seeded plan generation
//!   under a [`ChaosBudget`], delta-debugging [`shrink_plan`]ning of
//!   violations to minimal reproducers, and the committed-corpus
//!   [`ChaosReproducer`] format.
//!
//! The design follows the smoltcp idiom: components are poll-driven state
//! machines with no I/O, no threads in the data path, and no wall-clock
//! reads; the event loop is owned by the caller.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library diagnostics go through `telemetry`, never stdout/stderr; CI's
// `clippy -D warnings` turns these into hard errors.
#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod arena;
pub mod campaign;
pub mod chaos;
pub mod check;
pub mod digest;
pub mod export;
pub mod fault;
pub mod flight;
pub mod metrics;
pub mod par;
mod queue;
mod rng;
pub mod scratch;
pub mod stats;
pub mod telemetry;
mod time;
mod trace;

pub use arena::WorkerArena;
pub use campaign::{
    run_campaign_observed, CampaignConfig, CampaignHealth, CampaignOutcome, CampaignProgress,
    HeartbeatSample, ShardQuarantine,
};
pub use chaos::{
    generate_plan, max_concurrency, outage_fraction, shrink_plan, ChaosBudget, ChaosReproducer,
    ShrinkOutcome, FAULT_KIND_COUNT, SHRINK_FLOOR,
};
pub use digest::{ChannelId, ChannelKind, DigestSchema, Fnv, QuantileSketch, ShardDigest, Welford};
pub use fault::{FaultEffect, FaultKind, FaultOutcome, FaultPlan, FaultSpec, FaultWindow};
pub use flight::{FlightKey, WorstK};
pub use metrics::{LogHistogram, MetricsRegistry};
pub use par::SweepRunner;
pub use queue::{EventQueue, DAY_NANOS, WHEEL_DAYS};
pub use rng::{RngStream, SeedFactory};
pub use scratch::MetricsScratch;
pub use stats::{
    autocorrelation, cross_correlation, mean, pearson, quantile_unsorted, BucketHistogram, Ecdf,
};
pub use telemetry::{MergedTelemetry, RunInfo, SweepEvent, TelemetrySession};
pub use time::{SimDuration, SimTime};
pub use trace::{
    ComponentId, ComponentKind, DecisionKind, FaultEdge, RingSink, TraceDetail, TraceEvent,
    TraceKind,
};

#[cfg(test)]
mod integration_tests {
    use super::*;

    /// A miniature end-to-end simulation: a periodic source scheduling its
    /// own next event, with random per-event jitter — exercising queue, time
    /// and RNG together the way the real world model does.
    #[test]
    fn periodic_source_with_jitter_is_deterministic() {
        fn run(seed: u64) -> Vec<u64> {
            let factory = SeedFactory::new(seed);
            let mut rng = factory.stream("jitter", 0);
            let mut q: EventQueue<u32> = EventQueue::new();
            q.schedule(SimTime::ZERO, 0);
            let mut arrivals = Vec::new();
            while let Some((now, n)) = q.pop() {
                arrivals.push(now.as_micros());
                if n < 50 {
                    let jitter = SimDuration::from_micros(rng.range_u64(0, 500));
                    q.schedule(now + SimDuration::from_millis(20) + jitter, n + 1);
                }
            }
            arrivals
        }
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b, "same seed must give identical runs");
        assert_ne!(a, c, "different seeds should differ");
        assert_eq!(a.len(), 51);
        // Each arrival is 20ms..20.5ms after the previous one.
        for w in a.windows(2) {
            let gap = w[1] - w[0];
            assert!((20_000..20_500).contains(&gap), "gap {gap}us");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Events always pop in non-decreasing time order, regardless of the
        /// scheduling order.
        #[test]
        fn queue_pops_sorted(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule(SimTime::from_nanos(*t), i);
            }
            let mut last = SimTime::ZERO;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
            }
        }

        /// FIFO tie-break: for equal timestamps, insertion order is preserved.
        #[test]
        fn queue_fifo_on_ties(n in 1usize..100) {
            let mut q = EventQueue::new();
            for i in 0..n {
                q.schedule(SimTime::from_millis(1), i);
            }
            let popped: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|(_, i)| i).collect();
            prop_assert_eq!(popped, (0..n).collect::<Vec<_>>());
        }

        /// SimTime arithmetic is consistent: (t + d) - t == d.
        #[test]
        fn time_add_sub_roundtrip(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
            let time = SimTime::from_nanos(t);
            let dur = SimDuration::from_nanos(d);
            prop_assert_eq!((time + dur) - time, dur);
            prop_assert_eq!((time + dur).saturating_since(time), dur);
        }

        /// Quantile is always an element of the sample and at() of max is 1.
        #[test]
        fn ecdf_quantile_within_sample(mut xs in proptest::collection::vec(-1e6f64..1e6, 1..300), q in 0.0f64..=1.0) {
            xs.iter_mut().for_each(|x| *x = x.floor());
            let e = Ecdf::new(xs.clone());
            let v = e.quantile(q);
            prop_assert!(xs.contains(&v));
            let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert_eq!(e.at(max), 1.0);
        }

        /// Pearson is symmetric and bounded in [-1, 1].
        #[test]
        fn pearson_bounds(
            a in proptest::collection::vec(-100f64..100.0, 2..100),
        ) {
            let b: Vec<f64> = a.iter().map(|x| x * 2.0 + 1.0).collect();
            let ab = pearson(&a, &b);
            let ba = pearson(&b, &a);
            prop_assert!((-1.0001..=1.0001).contains(&ab));
            prop_assert!((ab - ba).abs() < 1e-9);
        }

        /// Seeded streams are reproducible for any seed/label.
        #[test]
        fn rng_streams_reproducible(seed in any::<u64>(), idx in 0u64..32) {
            let f = SeedFactory::new(seed);
            let mut a = f.stream("x", idx);
            let mut b = f.stream("x", idx);
            for _ in 0..16 {
                prop_assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
            }
        }

        /// Model-based check of the event queue against
        /// [`queue::ReferenceQueue`], a list sorted by `(at, seq)`: random
        /// interleavings of schedule / pop / reset must agree on every
        /// popped timestamp and payload, on `len()`, on `peek_time()` and
        /// on the clock. Delays are mostly sub-millisecond (wheel buckets)
        /// with an occasional far one (the overflow heap); some snap to a
        /// shared 1 ms or 1 s grid so same-instant events wait in a bucket
        /// or in the heap, and handler-style steps pop one event and then
        /// schedule at the new clock, behind any events still due at `now`.
        #[test]
        fn event_queue_matches_reference_model(
            ops in proptest::collection::vec(0u32..1_000_000, 1..300),
        ) {
            let mut q = EventQueue::new();
            let mut model = queue::ReferenceQueue::new();
            for (tag, op) in ops.iter().enumerate() {
                let op = *op;
                match op % 8 {
                    0..=3 => {
                        let base = u64::from(op / 8) % 10_000;
                        let delta = if op % 97 == 0 {
                            SimDuration::from_nanos(base * 100_000_000)
                        } else {
                            SimDuration::from_nanos(base)
                        };
                        let mut at = q.now() + delta;
                        if op % 5 == 0 {
                            let grid = if op % 3 == 0 { 1_000_000_000 } else { 1_000_000 };
                            at = SimTime::from_nanos(at.as_nanos().div_ceil(grid) * grid);
                        }
                        q.schedule(at, tag);
                        model.schedule(at, tag);
                    }
                    4..=6 => prop_assert_eq!(q.pop(), model.pop()),
                    // Rare reset: a recycled queue must replay like a
                    // fresh one.
                    _ if op % 13 == 0 => {
                        q.reset();
                        model = queue::ReferenceQueue::new();
                    }
                    // Handler step: pop, then kick at the new clock.
                    _ => {
                        prop_assert_eq!(q.pop(), model.pop());
                        for _ in 0..(op / 8) % 4 {
                            prop_assert_eq!(q.len(), model.len());
                            prop_assert_eq!(q.peek_time(), model.peek_time());
                            q.schedule(q.now(), tag);
                            model.schedule(model.now(), tag);
                        }
                    }
                }
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(q.peek_time(), model.peek_time());
                prop_assert_eq!(q.now(), model.now());
            }
        }
    }
}
