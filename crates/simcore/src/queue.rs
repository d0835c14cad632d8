//! Deterministic event queue for the discrete-event engine.
//!
//! Events scheduled for the same instant are delivered in the order they were
//! scheduled (FIFO tie-break via a monotonically increasing sequence number),
//! so a simulation run is a pure function of (scenario, seed) — never of
//! container internals or hash ordering. Pop order is the total order on
//! `(at, seq)`.
//!
//! # Storage
//!
//! One calendar wheel of [`DAY_NANOS`]-wide buckets spanning [`WHEEL_DAYS`]
//! days from the current clock, plus an overflow heap for events beyond the
//! span. Every pending event is stored once, inline, as `(at, seq, event)`:
//! there is no payload slab and no handle, so a schedule or a pop moves one
//! small record and touches no second allocation.
//!
//! - An event whose day lies within the span lands in its day's bucket at
//!   schedule time (sorted insertion into a short vector). Pop takes the
//!   tail of the first non-empty bucket at-or-after `now`, found through an
//!   occupancy bitmap, so the dense-timer regime the world model generates
//!   (20 ms VoIP ticks, sub-ms MAC service chains, keepalives and probes)
//!   schedules and pops in O(1) with no heap rebalancing.
//! - Far events (call teardown, sparse packet clocks, timers beyond the
//!   span) wait in the overflow heap and are compared against the wheel
//!   head at pop. They never migrate into the wheel.
//!
//! Scheduled events cannot be cancelled: a superseded timer still fires,
//! and its handler checks whether anything is due. The TCP sender's RTO
//! check does, and so do the worlds' client timers: only the wakeup armed
//! last runs Algorithm 1, a superseded one returns at once. The pop order
//! is pinned against a list sorted by `(at, seq)` (the test-only
//! `ReferenceQueue`) by the differential tests below and the model-based
//! proptest in `lib.rs`.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Width of one calendar bucket, in nanoseconds (250 µs). Chosen so one
/// VoIP tick's burst of MAC events (service times are tens to hundreds of
/// µs) spreads over a handful of buckets instead of piling into one.
pub const DAY_NANOS: u64 = 250_000;

/// Number of buckets in the calendar wheel. Span = `DAY_NANOS *
/// WHEEL_DAYS` = 128 ms: comfortably covers the 20 ms tick cadence, the
/// 50 ms TCP timer and per-frame retry backoffs; anything further out
/// (keepalives, call teardown) waits in the overflow heap.
pub const WHEEL_DAYS: u64 = 512;

/// Words in the wheel's occupancy bitmap (one bit per bucket).
const OCC_WORDS: usize = WHEEL_DAYS as usize / 64;

/// One pending event, stored inline with its ordering key.
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

// BinaryHeap is a max-heap; invert the ordering so the earliest (at, seq)
// pops first.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// A time-ordered queue of events of type `E`.
///
/// This is the only scheduling primitive in the simulator. Higher layers
/// define their own event enums and drive a loop:
///
/// ```
/// use diversifi_simcore::{EventQueue, SimTime, SimDuration};
///
/// #[derive(Debug, PartialEq)]
/// enum Ev { Tick(u32) }
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(20), Ev::Tick(1));
/// q.schedule(SimTime::from_millis(10), Ev::Tick(0));
/// let (t, ev) = q.pop().unwrap();
/// assert_eq!(t, SimTime::from_millis(10));
/// assert_eq!(ev, Ev::Tick(0));
/// ```
///
/// Invariant: every pending event satisfies `at >= now`, and an event is
/// bucketed only when its day is within [`WHEEL_DAYS`] of the clock at
/// schedule time. So every bucketed day lies in `[now/DAY_NANOS,
/// now/DAY_NANOS + WHEEL_DAYS)`: each bucket holds events of exactly one
/// day, and a circular scan from `now`'s bucket visits days in increasing
/// order.
pub struct EventQueue<E> {
    /// `buckets[day % WHEEL_DAYS]`, each sorted by `(at, seq)`
    /// *descending* so the bucket minimum pops from the back in O(1).
    /// Allocated on first use.
    buckets: Vec<Vec<Entry<E>>>,
    /// One bit per bucket: set iff the bucket is non-empty. Pop finds the
    /// next occupied bucket with a handful of word scans instead of
    /// walking up to [`WHEEL_DAYS`] empty vectors between sparse events.
    occ: [u64; OCC_WORDS],
    /// Total entries across buckets.
    bucketed: usize,
    /// Events beyond the wheel span, in a min-(at, seq) heap.
    overflow: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at [`SimTime::ZERO`]. Allocates
    /// nothing until the first [`schedule`](Self::schedule).
    pub fn new() -> Self {
        EventQueue {
            buckets: Vec::new(),
            occ: [0; OCC_WORDS],
            bucketed: 0,
            overflow: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// An empty queue with the wheel allocated and room for `cap` far
    /// events in the overflow heap.
    pub fn with_capacity(cap: usize) -> Self {
        let mut q = Self::new();
        q.buckets.resize_with(WHEEL_DAYS as usize, Vec::new);
        q.overflow.reserve(cap);
        q
    }

    /// Clear everything — pending events, clock, sequence counter — while
    /// keeping allocated capacity. A reset queue is observationally
    /// identical to a fresh one; this is what makes queues poolable in a
    /// [`WorkerArena`](crate::WorkerArena) without breaking run-to-run
    /// determinism.
    pub fn reset(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.occ = [0; OCC_WORDS];
        self.bucketed = 0;
        self.overflow.clear();
        self.next_seq = 0;
        self.now = SimTime::ZERO;
    }

    /// The current simulated time: the timestamp of the most recently popped
    /// event (or zero before the first pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.bucketed + self.overflow.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error in the caller and panics: a
    /// discrete-event simulation that silently reorders causality produces
    /// quietly wrong results, which is worse than crashing.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduled event at {at:?} but simulation time is already {:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry { at, seq, event };
        let day = at.as_nanos() / DAY_NANOS;
        if day >= self.now.as_nanos() / DAY_NANOS + WHEEL_DAYS {
            self.overflow.push(entry);
            return;
        }
        if self.buckets.is_empty() {
            self.buckets.resize_with(WHEEL_DAYS as usize, Vec::new);
        }
        let idx = (day % WHEEL_DAYS) as usize;
        let bucket = &mut self.buckets[idx];
        // Descending (at, seq). `seq` exceeds every pending sequence number,
        // so the new entry sorts just below every strictly later event.
        let pos = bucket.partition_point(|e| e.at > at);
        bucket.insert(pos, entry);
        self.occ[idx >> 6] |= 1u64 << (idx & 63);
        self.bucketed += 1;
    }

    /// The bucket holding the wheel's earliest event: the first occupied
    /// bucket in circular order from `now`'s, which by the wheel invariant
    /// is the earliest day.
    fn wheel_head(&self) -> Option<usize> {
        if self.bucketed == 0 {
            return None;
        }
        let start = ((self.now.as_nanos() / DAY_NANOS) % WHEEL_DAYS) as usize;
        let word0 = start >> 6;
        let w = self.occ[word0] & (!0u64 << (start & 63));
        if w != 0 {
            return Some((word0 << 6) + w.trailing_zeros() as usize);
        }
        for step in 1..=OCC_WORDS {
            let wi = (word0 + step) % OCC_WORDS;
            let mut w = self.occ[wi];
            if step == OCC_WORDS {
                // Wrapped all the way back: only the bits below `start`.
                w &= !(!0u64 << (start & 63));
            }
            if w != 0 {
                return Some((wi << 6) + w.trailing_zeros() as usize);
            }
        }
        unreachable!("bucketed events but an empty occupancy bitmap")
    }

    /// The earliest pending entry of bucket `idx` (which must be occupied).
    fn bucket_min(&self, idx: usize) -> &Entry<E> {
        self.buckets[idx].last().expect("occupied bucket is non-empty")
    }

    /// Pop the earliest pending event, advancing the clock to its timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = match self.wheel_head() {
            Some(idx)
                if self
                    .overflow
                    .peek()
                    .is_none_or(|far| self.bucket_min(idx).key() < far.key()) =>
            {
                let bucket = &mut self.buckets[idx];
                let entry = bucket.pop().expect("occupied bucket is non-empty");
                if bucket.is_empty() {
                    self.occ[idx >> 6] &= !(1u64 << (idx & 63));
                }
                self.bucketed -= 1;
                entry
            }
            _ => self.overflow.pop()?,
        };
        crate::sim_assert!(
            entry.at >= self.now,
            "event queue produced time travel: popped {:?} with clock at {:?}",
            entry.at,
            self.now
        );
        self.now = entry.at;
        Some((entry.at, entry.event))
    }

    /// Timestamp of the earliest pending event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let near = self.wheel_head().map(|idx| self.bucket_min(idx).at);
        let far = self.overflow.peek().map(|e| e.at);
        near.into_iter().chain(far).min()
    }
}

impl<E: 'static> crate::arena::Recycle for EventQueue<E> {
    fn fresh() -> Self {
        EventQueue::new()
    }
    fn recycle(&mut self) {
        self.reset();
    }
}

/// The queue's specification as a plain list kept sorted by `(at, seq)`:
/// the oracle the wheel is checked against.
#[cfg(test)]
pub(crate) struct ReferenceQueue<E> {
    pending: Vec<(SimTime, u64, E)>,
    next_seq: u64,
    now: SimTime,
}

#[cfg(test)]
impl<E> ReferenceQueue<E> {
    pub(crate) fn new() -> Self {
        ReferenceQueue { pending: Vec::new(), next_seq: 0, now: SimTime::ZERO }
    }

    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    pub(crate) fn len(&self) -> usize {
        self.pending.len()
    }

    pub(crate) fn schedule(&mut self, at: SimTime, event: E) {
        let key = (at, self.next_seq);
        let pos = self.pending.partition_point(|&(t, s, _)| (t, s) < key);
        self.pending.insert(pos, (at, self.next_seq, event));
        self.next_seq += 1;
    }

    pub(crate) fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.pending.is_empty() {
            return None;
        }
        let (at, _, event) = self.pending.remove(0);
        self.now = at;
        Some((at, event))
    }

    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.pending.first().map(|&(at, _, _)| at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use crate::WorkerArena;

    #[derive(Debug, PartialEq, Clone, Copy)]
    struct Tag(u32);

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), Tag(3));
        q.schedule(SimTime::from_millis(10), Tag(1));
        q.schedule(SimTime::from_millis(20), Tag(2));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, t)| t.0).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_tie_break_at_same_instant() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.schedule(t, Tag(i));
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, t)| t.0).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(7), Tag(0));
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(7));
    }

    #[test]
    #[should_panic(expected = "scheduled event at")]
    fn scheduling_in_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), Tag(0));
        q.pop();
        q.schedule(SimTime::from_millis(5), Tag(1));
    }

    /// The past-schedule guard also holds after the clock jumped through
    /// the overflow heap, far beyond the wheel span.
    #[test]
    #[should_panic(expected = "scheduled event at")]
    fn calendar_scheduling_in_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), Tag(0));
        q.pop();
        q.schedule(SimTime::from_secs(9), Tag(1));
    }

    #[test]
    fn relative_scheduling_pattern() {
        // The common caller pattern: schedule "now + d".
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), Tag(0));
        let (now, _) = q.pop().unwrap();
        q.schedule(now + SimDuration::from_millis(20), Tag(1));
        assert_eq!(q.pop().unwrap().0, SimTime::from_millis(30));
    }

    #[test]
    fn with_capacity_behaves_identically() {
        let mut a = EventQueue::new();
        let mut b = EventQueue::with_capacity(64);
        for i in 0..32u32 {
            a.schedule(SimTime::from_millis((i % 7) as u64), Tag(i));
            b.schedule(SimTime::from_millis((i % 7) as u64), Tag(i));
        }
        loop {
            match (a.pop(), b.pop()) {
                (None, None) => break,
                (x, y) => assert_eq!(x, y),
            }
        }
    }

    #[test]
    fn overflow_events_pop_in_order_with_fifo_ties() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), Tag(3));
        q.schedule(SimTime::from_millis(10), Tag(1));
        q.schedule(SimTime::from_millis(10), Tag(2));
        // Far beyond the wheel span — these wait in the overflow heap.
        q.schedule(SimTime::from_secs(300), Tag(9));
        q.schedule(SimTime::from_secs(300), Tag(10));
        q.schedule(SimTime::from_millis(20), Tag(4));
        assert_eq!(q.len(), 6);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(10)));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, t)| t.0).collect();
        assert_eq!(order, vec![1, 2, 4, 3, 9, 10]);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut q: EventQueue<Tag> = EventQueue::new();
        q.schedule(SimTime::from_millis(5), Tag(1));
        q.schedule(SimTime::from_secs(500), Tag(2));
        q.pop().unwrap();
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.peek_time(), None);
        // The sequence counter restarts too: a reset queue behaves exactly
        // like a fresh one.
        q.schedule(SimTime::from_millis(1), Tag(7));
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), Tag(7))));
    }

    /// Deterministic xorshift so the differential tests need no RNG crate.
    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// Drive `q` and a fresh [`ReferenceQueue`] through `rounds` random
    /// schedule/pop steps whose delays come from `delay`, comparing every
    /// pop, `len`, `peek_time` and clock, then drain both. With `kicks > 0`
    /// one pop in four is followed, the way a handler kicks an AP, by up
    /// to `kicks` schedules at the new clock, each checked the same way.
    /// (Kicking after every pop would pin the clock: at-now work would
    /// arrive faster than pops drain it.)
    fn check_against_reference(
        q: &mut EventQueue<u32>,
        seed: u64,
        rounds: u32,
        kicks: u64,
        mut delay: impl FnMut(&mut dyn FnMut() -> u64) -> u64,
    ) {
        let mut next = xorshift(seed);
        let mut model = ReferenceQueue::new();
        let check = |q: &EventQueue<u32>, model: &ReferenceQueue<u32>, round: u32| {
            assert_eq!(q.len(), model.len(), "round {round}");
            assert_eq!(q.peek_time(), model.peek_time(), "round {round}");
            assert_eq!(q.now(), model.now(), "round {round}");
        };
        for round in 0..rounds {
            if next() % 5 < 3 {
                let at = q.now() + SimDuration::from_nanos(delay(&mut next));
                q.schedule(at, round);
                model.schedule(at, round);
            } else {
                assert_eq!(q.pop(), model.pop(), "round {round}");
                let n = if kicks > 0 && next().is_multiple_of(4) {
                    next() % (kicks + 1)
                } else {
                    0
                };
                for _ in 0..n {
                    check(q, &model, round);
                    q.schedule(q.now(), round);
                    model.schedule(model.now(), round);
                }
            }
            check(q, &model, round);
        }
        while let Some(want) = model.pop() {
            assert_eq!(q.pop(), Some(want));
        }
        assert!(q.pop().is_none() && q.is_empty());
    }

    const SPAN_NANOS: u64 = DAY_NANOS * WHEEL_DAYS;

    /// The VoIP regime: 20 ms ticks fanning out sub-millisecond MAC
    /// completions, everything inside the wheel span, with handler kicks.
    #[test]
    fn pop_order_matches_reference_on_dense_schedules() {
        check_against_reference(&mut EventQueue::new(), 0xDEAD_BEEF, 4_000, 2, |next| {
            if next() % 7 == 0 {
                20_000_000
            } else {
                40_000 + next() % 900_000
            }
        });
    }

    /// Sparse timers up to 10 s: mostly overflow-heap territory, racing
    /// the wheel for the head.
    #[test]
    fn pop_order_matches_reference_on_sparse_schedules() {
        check_against_reference(&mut EventQueue::new(), 0xCAFE_F00D, 4_000, 0, |next| {
            if next() % 2 == 0 {
                next() % 10_000_000_000
            } else {
                next() % 2_000_000
            }
        });
    }

    /// Bursts at one instant (zero delay) and a handful of shared
    /// timestamps: the FIFO tie-break inside one bucket and in the heap.
    #[test]
    fn pop_order_matches_reference_on_same_instant_bursts() {
        check_against_reference(&mut EventQueue::new(), 0xB0B5, 4_000, 0, |next| match next() % 4 {
            0 | 1 => 0,
            2 => DAY_NANOS,
            _ => SPAN_NANOS * 2,
        });
    }

    /// Handler-style schedules at `now` issued between pops, mixed with
    /// same-instant events already pending in a bucket and in the overflow
    /// heap (one-bucket and twice-the-span delays pile up on shared
    /// instants; the kicks must queue behind them) and with an empty
    /// instant.
    #[test]
    fn pop_order_matches_reference_with_handler_kicks_at_now() {
        check_against_reference(&mut EventQueue::new(), 0x4B1C, 6_000, 3, |next| {
            match next() % 4 {
                0 => 0,
                1 | 2 => DAY_NANOS,
                _ => SPAN_NANOS * 2,
            }
        });
    }

    /// Delays straddling the wheel edge (`SPAN ± one bucket`) over a clock
    /// that travels more than ten spans, so buckets are reused across laps
    /// and the wheel/overflow split is tested at its boundary, with
    /// handler kicks.
    #[test]
    fn pop_order_matches_reference_across_wheel_wrap_around() {
        let mut q = EventQueue::new();
        check_against_reference(&mut q, 0x5EED, 20_000, 2, |next| {
            SPAN_NANOS - DAY_NANOS + next() % (2 * DAY_NANOS + 1)
        });
        assert!(q.now().as_nanos() > 10 * SPAN_NANOS, "clock must lap the wheel many times");
    }

    /// A queue reset with events pending, or recycled through a
    /// [`WorkerArena`], replays exactly like a fresh one.
    #[test]
    fn pop_order_matches_reference_after_reset_and_arena_recycle() {
        let dense = |next: &mut dyn FnMut() -> u64| next() % 30_000_000;
        let mut q = EventQueue::new();
        for i in 0..200u32 {
            q.schedule(SimTime::from_millis(u64::from(i)), i);
        }
        q.schedule(SimTime::from_secs(100), 0);
        q.pop();
        q.reset();
        check_against_reference(&mut q, 1, 3_000, 2, dense);

        let mut arena = WorkerArena::new();
        for seed in 2..5 {
            let mut q: EventQueue<u32> = arena.take();
            check_against_reference(&mut q, seed, 3_000, 2, dense);
            // Leave near and far work pending for the recycle to clear.
            q.schedule(q.now() + SimDuration::from_millis(1), 7);
            q.schedule(SimTime::from_secs(1_000), 9);
            arena.put(q);
        }
        assert!(arena.stats().hits > 0, "the arena must hand back a recycled queue");
    }

    #[test]
    fn heavy_churn_stays_consistent() {
        // Schedule/pop interleaving; len must track exactly and ordering
        // must hold throughout.
        let mut q = EventQueue::new();
        let mut expect_len = 0usize;
        let mut last = SimTime::ZERO;
        for round in 0u64..200 {
            q.schedule(SimTime::from_millis(round / 2 + 1), Tag(round as u32));
            expect_len += 1;
            if round % 3 == 0 {
                let (t, _) = q.pop().expect("pending events");
                assert!(t >= last, "round {round}");
                last = t;
                expect_len -= 1;
            }
            assert_eq!(q.len(), expect_len, "round {round}");
        }
    }
}
