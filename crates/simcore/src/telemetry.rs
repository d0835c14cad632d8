//! The thread-local telemetry collector: sessions, spans, merging.
//!
//! The component crates never thread a sink through their APIs. Instead,
//! the [`trace_event!`](crate::trace_event) macro (and metric recording
//! sites) check a two-level gate:
//!
//! 1. **Compile-time** — [`TRACE_COMPILED`] is `false` in release builds
//!    without the `trace` cargo feature, so the whole emission branch
//!    const-folds away: telemetry-off *is* the no-op path, not a cheap
//!    path. Debug builds always compile it in (like the audit layer), so
//!    the ordinary test suite exercises telemetry end to end.
//! 2. **Run-time** — a thread-local `active` flag set by [`begin`] /
//!    cleared by [`end`]. A sweep worker is one thread, so "per-worker
//!    sink" and "per-thread collector" are the same thing, and because
//!    each task runs begin→end on whichever thread claimed it, per-run
//!    event streams are identical no matter how tasks land on workers.
//!
//! # Determinism contract
//!
//! Telemetry observes, never participates: recording reads simulation
//! state but draws no randomness and schedules nothing, so results are
//! bit-identical with telemetry on or off (pinned by
//! `tests/telemetry_parity.rs` at 1/2/4/8 threads). The only wall-clock
//! reads live in [`Span`] self-profiling, whose measurements flow into
//! the [`TelemetrySession`] — never back into the simulation.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use crate::metrics::MetricsRegistry;
use crate::trace::{RingSink, TraceEvent};

/// True when telemetry emission is compiled in: every debug build, and
/// release builds with `--features trace`. When false, all emission sites
/// const-fold to nothing.
pub const TRACE_COMPILED: bool = cfg!(any(debug_assertions, feature = "trace"));

struct Collector {
    ring: RingSink,
    profile: PhaseProfile,
    metrics: MetricsRegistry,
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static COLLECTOR: RefCell<Collector> = RefCell::new(Collector {
        ring: RingSink::new(0),
        profile: PhaseProfile::default(),
        metrics: MetricsRegistry::new(),
    });
}

/// Fast-path check: telemetry compiled in *and* a session is active on
/// this thread. Emission sites branch on this; when [`TRACE_COMPILED`] is
/// false the whole call folds to `false` at compile time.
#[inline(always)]
pub fn active() -> bool {
    TRACE_COMPILED && ACTIVE.with(|a| a.get())
}

/// Start a telemetry session on the current thread with a bounded event
/// ring of `capacity` (oldest events evicted, counted as dropped).
///
/// Replaces any session already active on this thread — the sweep entry
/// points (`SweepRunner::run_indexed_traced`) rely on begin/end pairs per
/// task, so don't nest sessions on one thread. No-op (and free) when
/// telemetry is compiled out.
pub fn begin(capacity: usize) {
    if !TRACE_COMPILED {
        return;
    }
    COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        c.ring.reset(capacity);
        c.profile = PhaseProfile::default();
        c.metrics.clear();
    });
    ACTIVE.with(|a| a.set(true));
}

/// End the current thread's session, returning everything it captured.
/// Returns an empty session when telemetry is compiled out or no session
/// was active.
pub fn end() -> TelemetrySession {
    if !TRACE_COMPILED {
        return TelemetrySession::default();
    }
    ACTIVE.with(|a| a.set(false));
    COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        let (dropped, events) = c.ring.drain();
        TelemetrySession {
            events,
            dropped,
            profile: std::mem::take(&mut c.profile),
            metrics: std::mem::take(&mut c.metrics),
        }
    })
}

/// Record one event into the active session's ring. Callers should gate on
/// [`active`] (the [`trace_event!`](crate::trace_event) macro does).
#[inline]
pub fn record(event: TraceEvent) {
    if !TRACE_COMPILED {
        return;
    }
    COLLECTOR.with(|c| c.borrow_mut().ring.record(event));
}

/// Give a closure access to the active session's metrics snapshot. Does
/// nothing (closure not called) when no session is active — so components
/// can export unconditionally at end-of-run.
pub fn with_metrics<F: FnOnce(&mut MetricsRegistry)>(f: F) {
    if !active() {
        return;
    }
    COLLECTOR.with(|c| f(&mut c.borrow_mut().metrics));
}

/// Event-loop phases measured by the self-profiler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Popping and dispatching one event in `World::run`.
    Dispatch,
    /// Sampling the channel / running a MAC exchange.
    ChannelSample,
    /// Post-run metric reduction (trace → loss/delay/quantile pipeline).
    MetricsReduce,
}

/// Number of profiled phases.
pub const PHASES: usize = 3;

impl Phase {
    /// Stable lowercase name for tables and exports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Dispatch => "dispatch",
            Phase::ChannelSample => "channel_sample",
            Phase::MetricsReduce => "metrics_reduce",
        }
    }

    /// All phases, in index order.
    pub const ALL: [Phase; PHASES] = [Phase::Dispatch, Phase::ChannelSample, Phase::MetricsReduce];
}

/// Accumulated wall-clock time for one phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of spans closed.
    pub calls: u64,
    /// Total wall-clock nanoseconds across those spans.
    pub total_ns: u64,
}

/// Wall-clock self-profile of the event loop, one [`SpanStat`] per
/// [`Phase`]. Values are measurements *about* the simulator, not part of
/// it — they are nondeterministic and never feed back into results.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    stats: [SpanStat; PHASES],
}

impl PhaseProfile {
    /// The accumulated stat for one phase.
    pub fn get(&self, phase: Phase) -> SpanStat {
        self.stats[phase as usize]
    }

    /// Add one measurement.
    #[inline]
    pub fn add(&mut self, phase: Phase, ns: u64) {
        let s = &mut self.stats[phase as usize];
        s.calls += 1;
        s.total_ns += ns;
    }

    /// Fold another profile in.
    pub fn merge(&mut self, other: &PhaseProfile) {
        for (a, b) in self.stats.iter_mut().zip(other.stats.iter()) {
            a.calls += b.calls;
            a.total_ns += b.total_ns;
        }
    }

    /// One-line human summary, e.g. for the metrics table footer.
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for phase in Phase::ALL {
            let s = self.get(phase);
            if s.calls == 0 {
                continue;
            }
            if !out.is_empty() {
                out.push_str("  ");
            }
            let _ = write!(
                &mut out,
                "{}: {} spans, {:.3} ms",
                phase.name(),
                s.calls,
                s.total_ns as f64 / 1e6
            );
        }
        if out.is_empty() {
            out.push_str("(no spans recorded)");
        }
        out
    }
}

/// An RAII phase timer: measures wall-clock time from creation to drop
/// and folds it into the active session's [`PhaseProfile`]. Inert (no
/// clock read) when no session is active or telemetry is compiled out.
#[must_use = "a span measures the scope it lives in"]
pub struct Span {
    phase: Phase,
    start: Option<Instant>,
}

/// Open a span for `phase`. Two clock reads per span when a session is
/// active; nothing otherwise.
#[inline]
pub fn span(phase: Phase) -> Span {
    Span { phase, start: if active() { Some(Instant::now()) } else { None } }
}

impl Drop for Span {
    // Inlined so an inert span (always, when telemetry is compiled out)
    // costs nothing at the event loop's per-event span sites.
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            record_span(self.phase, start);
        }
    }
}

#[cold]
fn record_span(phase: Phase, start: Instant) {
    let ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    COLLECTOR.with(|c| c.borrow_mut().profile.add(phase, ns));
}

/// Everything one telemetry session captured: the surviving event suffix,
/// how much was evicted, the wall-clock profile, and the end-of-run
/// metrics snapshot.
#[derive(Debug, Default)]
pub struct TelemetrySession {
    /// Surviving events in emission order; event `i` has per-run sequence
    /// number `dropped + i`.
    pub events: Vec<TraceEvent>,
    /// Events evicted from the ring: the oldest ones, so this is also the
    /// per-run sequence number of `events[0]`.
    pub dropped: u64,
    /// Wall-clock self-profile.
    pub profile: PhaseProfile,
    /// Metrics exported at end of run.
    pub metrics: MetricsRegistry,
}

/// One event of a merged sweep trace, tagged with its run index and
/// per-run sequence number.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepEvent {
    /// Index of the run (sweep task) that emitted the event.
    pub run: u32,
    /// Per-run emission sequence number.
    pub seq: u64,
    /// The event itself.
    pub event: TraceEvent,
}

/// One absorbed run of a [`MergedTelemetry`]: what names it, and how many
/// of its events the ring evicted.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunInfo {
    /// Display label; empty for the runs of a plain sweep. A forensic
    /// capture's label carries its arm, call and seed, e.g.
    /// `diversifi/call-000042 score=2.25 seed=0x7`.
    pub label: String,
    /// Events evicted from this run's ring.
    pub dropped: u64,
}

/// The deterministic merge of every per-run [`TelemetrySession`] in a
/// sweep: events ordered by `(sim-time, run-index, seq)`, metrics folded
/// into one table, profiles summed. This is the one event-timeline type:
/// a plain traced sweep and a forensic capture (a traced sweep of labelled
/// replays) are both rendered from it by [`crate::export`].
#[derive(Debug, Default)]
pub struct MergedTelemetry {
    /// All surviving events across the sweep, `(at, run, seq)`-ordered
    /// once [`finish`](Self::finish) has run. Events pushed here directly
    /// (the field is public for exporter tests and ad-hoc assembly) are
    /// put in order by the next `finish`.
    pub events: Vec<SweepEvent>,
    /// One entry per run index absorbed (gaps filled with unlabelled,
    /// empty runs).
    pub runs: Vec<RunInfo>,
    /// Total events evicted across all runs.
    pub dropped: u64,
    /// Aggregated metrics (counters summed, gauges averaged, histograms
    /// merged), in canonical row order.
    pub metrics: MetricsRegistry,
    /// Summed wall-clock profile across runs.
    pub profile: PhaseProfile,
}

impl MergedTelemetry {
    /// Fold one run's session in. Call [`finish`](Self::finish) after the
    /// last run to establish the merge order.
    pub fn absorb(&mut self, run: u32, session: TelemetrySession) {
        let TelemetrySession { events, dropped, profile, metrics } = session;
        self.events.extend(
            events
                .into_iter()
                .enumerate()
                .map(|(i, event)| SweepEvent { run, seq: dropped + i as u64, event }),
        );
        let slot = run as usize;
        if self.runs.len() <= slot {
            self.runs.resize_with(slot + 1, RunInfo::default);
        }
        self.runs[slot].dropped += dropped;
        self.dropped += dropped;
        self.profile.merge(&profile);
        self.metrics.merge_from(&metrics);
    }

    /// Establish the merge order: events by `(sim-time, run, seq)`,
    /// metrics rows canonical. Idempotent; the resulting order is
    /// independent of worker count and of the order runs were absorbed
    /// in, because the key is unique per event (one `seq` per run), so
    /// an unstable sort leaves nothing to chance.
    pub fn finish(&mut self) {
        self.events.sort_unstable_by_key(|e| (e.event.at, e.run, e.seq));
        self.metrics.sort_rows();
    }

    /// Merge a single session as run 0 — lets one-off runs reuse the
    /// sweep exporters.
    pub fn from_single(session: TelemetrySession) -> MergedTelemetry {
        let mut merged = MergedTelemetry::default();
        merged.absorb(0, session);
        merged.finish();
        merged
    }
}

/// Emit one structured trace event into the active telemetry session.
///
/// The arguments after `$at` are only evaluated when telemetry is
/// compiled in *and* a session is active on this thread; in release
/// builds without the `trace` feature the whole statement const-folds
/// away.
///
/// ```
/// use diversifi_simcore::{trace_event, ComponentId, SimTime, TraceDetail, TraceKind};
/// # let (now, seq) = (SimTime::ZERO, 7u64);
/// trace_event!(now, TraceKind::Delivery, ComponentId::client(0), TraceDetail::Seq(seq));
/// ```
#[macro_export]
macro_rules! trace_event {
    ($at:expr, $kind:expr, $who:expr, $detail:expr $(,)?) => {
        if $crate::telemetry::active() {
            $crate::telemetry::record($crate::TraceEvent {
                at: $at,
                kind: $kind,
                who: $who,
                detail: $detail,
            });
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use crate::trace::{ComponentId, TraceDetail, TraceKind};

    fn ev(ms: u64, seq: u64) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_millis(ms),
            kind: TraceKind::Delivery,
            who: ComponentId::client(0),
            detail: TraceDetail::Seq(seq),
        }
    }

    #[test]
    fn session_captures_events_and_metrics() {
        assert!(!active());
        begin(16);
        assert_eq!(active(), TRACE_COMPILED);
        trace_event!(SimTime::from_millis(1), TraceKind::Enqueue, ComponentId::ap(0), TraceDetail::Seq(1));
        record(ev(2, 2));
        with_metrics(|m| m.counter(ComponentId::ap(0), "drops", 5));
        let session = end();
        assert!(!active());
        assert_eq!(session.dropped, 0);
        if TRACE_COMPILED {
            assert_eq!(session.events.len(), 2);
            assert_eq!(session.metrics.len(), 1);
        } else {
            // Compiled out: the session is empty.
            assert!(session.events.is_empty());
            assert!(session.metrics.is_empty());
        }
        // After end(), emission is inert again.
        record(ev(3, 3));
        with_metrics(|_| panic!("must not run without a session"));
        let empty = end();
        // The stray record landed in the (inactive) collector ring, which
        // the next begin() resets; end() without begin returns it drained.
        assert!(empty.metrics.is_empty());
    }

    #[test]
    fn macro_skips_evaluation_when_inactive() {
        assert!(!active());
        fn boom() -> TraceDetail {
            panic!("detail must not be evaluated while inactive")
        }
        trace_event!(SimTime::ZERO, TraceKind::Decision, ComponentId::client(0), boom());
    }

    #[test]
    fn ring_eviction_sets_first_seq() {
        begin(4);
        for i in 0..10 {
            record(ev(i, i));
        }
        let s = end();
        if TRACE_COMPILED {
            assert_eq!(s.events.len(), 4);
            assert_eq!(s.dropped, 6);
            assert_eq!(s.events[0].detail, TraceDetail::Seq(6));
        } else {
            // Compiled out: nothing is recorded, so nothing is evicted.
            assert!(s.events.is_empty());
            assert_eq!(s.dropped, 0);
        }
    }

    #[test]
    fn spans_accumulate_only_when_active() {
        {
            let _g = span(Phase::Dispatch); // inactive: no clock read
        }
        begin(4);
        {
            let _g = span(Phase::Dispatch);
            let _h = span(Phase::MetricsReduce);
        }
        {
            let _g = span(Phase::Dispatch);
        }
        let s = end();
        if !TRACE_COMPILED {
            // Compiled out: spans never read the clock, so none accumulate.
            assert_eq!(s.profile, PhaseProfile::default());
            return;
        }
        assert_eq!(s.profile.get(Phase::Dispatch).calls, 2);
        assert_eq!(s.profile.get(Phase::MetricsReduce).calls, 1);
        assert_eq!(s.profile.get(Phase::ChannelSample).calls, 0);
        assert!(s.profile.summary().contains("dispatch: 2 spans"));
        let mut sum = PhaseProfile::default();
        sum.merge(&s.profile);
        sum.merge(&s.profile);
        assert_eq!(sum.get(Phase::Dispatch).calls, 4);
    }

    #[test]
    fn merged_telemetry_orders_by_time_run_seq() {
        let mut merged = MergedTelemetry::default();
        // Run 1: events at t=5 and t=1.
        let s1 = TelemetrySession {
            events: vec![ev(5, 50), ev(5, 51)],
            dropped: 3,
            ..TelemetrySession::default()
        };
        // Run 0: event at t=5 — same instant as run 1's, must sort first.
        let s0 = TelemetrySession { events: vec![ev(5, 40)], ..TelemetrySession::default() };
        merged.absorb(1, s1);
        merged.absorb(0, s0);
        merged.finish();
        let order: Vec<(u32, u64)> = merged.events.iter().map(|e| (e.run, e.seq)).collect();
        assert_eq!(order, vec![(0, 0), (1, 3), (1, 4)]);
        assert_eq!(merged.dropped, 3);
        let runs: Vec<u64> = merged.runs.iter().map(|r| r.dropped).collect();
        assert_eq!(runs, vec![0, 3], "one table entry per run, in run order");
    }

    #[test]
    fn merge_falls_back_on_unsorted_sessions_and_external_events() {
        // A hand-built session whose events go backwards in time must
        // still merge into the exact same total order as a full sort.
        let mut merged = MergedTelemetry::default();
        let unsorted =
            TelemetrySession { events: vec![ev(9, 0), ev(2, 1)], ..TelemetrySession::default() };
        merged.absorb(0, unsorted);
        merged.absorb(1, TelemetrySession { events: vec![ev(4, 0)], ..TelemetrySession::default() });
        // Plus an event pushed straight into the public field.
        merged.events.push(SweepEvent { run: 7, seq: 0, event: ev(3, 9) });
        merged.finish();
        let times: Vec<u64> =
            merged.events.iter().map(|e| e.event.at.as_micros() / 1_000).collect();
        assert_eq!(times, vec![2, 3, 4, 9]);
        // finish() is idempotent.
        merged.finish();
        let again: Vec<u64> =
            merged.events.iter().map(|e| e.event.at.as_micros() / 1_000).collect();
        assert_eq!(again, vec![2, 3, 4, 9]);
    }

    #[test]
    fn kway_merge_matches_sort_over_many_runs() {
        // Differential: absorb many sorted runs, compare against the
        // naive concatenate-and-sort on the same data.
        let mut merged = MergedTelemetry::default();
        let mut naive: Vec<(SimTime, u32, u64)> = Vec::new();
        for run in 0..13u32 {
            let events: Vec<TraceEvent> =
                (0..17).map(|i| ev(u64::from((i * (run + 3)) % 29), u64::from(i))).collect();
            let mut sorted = events.clone();
            sorted.sort_by_key(|e| e.at);
            for (i, e) in sorted.iter().enumerate() {
                naive.push((e.at, run, i as u64));
            }
            merged
                .absorb(run, TelemetrySession { events: sorted, ..TelemetrySession::default() });
        }
        merged.finish();
        naive.sort_unstable();
        let got: Vec<(SimTime, u32, u64)> =
            merged.events.iter().map(|e| (e.event.at, e.run, e.seq)).collect();
        assert_eq!(got, naive);
    }
}
