//! Zero-alloc structured event tracing.
//!
//! Components emit fixed-size, `Copy` [`TraceEvent`]s: the emitter is an
//! interned [`ComponentId`] (formatted lazily on export, never on the hot
//! path) and the payload is a fixed-layout [`TraceDetail`] enum — no
//! `String`s, no heap traffic per record. Events land in the thread-local
//! collector of [`crate::telemetry`], whose per-run [`RingSink`] keeps the
//! newest events and counts the evicted ones; the sweep engine and
//! `World::run` both record through it. This mirrors smoltcp's approach of
//! making observability a pluggable, zero-overhead-by-default concern
//! rather than wiring a logging framework through the data path.

use crate::time::SimTime;
use serde::Serialize;
use std::collections::VecDeque;
use std::fmt;

/// Category of a trace event — coarse, stable identifiers that tests and the
/// reproduction harness can filter on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum TraceKind {
    /// A packet was handed to an AP / middlebox queue.
    Enqueue,
    /// A packet was dropped from a queue (head- or tail-drop).
    QueueDrop,
    /// A frame transmission started on the air.
    TxStart,
    /// A frame was delivered to the client.
    Delivery,
    /// A frame exhausted its MAC retries and was lost over the air.
    AirLoss,
    /// The client changed channel / link.
    LinkSwitch,
    /// A power-save state change (PM bit) reached an AP.
    PowerSave,
    /// Strategy-level decision (loss detected, recovery scheduled, …).
    Decision,
    /// Transport-level event (TCP segment, retransmit, cwnd change, …).
    Transport,
    /// An injected fault changed state (onset, clear, recovery).
    Fault,
}

impl TraceKind {
    /// Every kind, in declaration order — for coverage checks and filters.
    pub const ALL: [TraceKind; 10] = [
        TraceKind::Enqueue,
        TraceKind::QueueDrop,
        TraceKind::TxStart,
        TraceKind::Delivery,
        TraceKind::AirLoss,
        TraceKind::LinkSwitch,
        TraceKind::PowerSave,
        TraceKind::Decision,
        TraceKind::Transport,
        TraceKind::Fault,
    ];

    /// Stable lowercase name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Enqueue => "enqueue",
            TraceKind::QueueDrop => "queue_drop",
            TraceKind::TxStart => "tx_start",
            TraceKind::Delivery => "delivery",
            TraceKind::AirLoss => "air_loss",
            TraceKind::LinkSwitch => "link_switch",
            TraceKind::PowerSave => "power_save",
            TraceKind::Decision => "decision",
            TraceKind::Transport => "transport",
            TraceKind::Fault => "fault",
        }
    }
}

/// The class of component an event or metric belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum ComponentKind {
    /// The event-loop / world harness itself.
    World,
    /// The VoIP packet source (switch side).
    Source,
    /// An access point (queues, associations, power save).
    Ap,
    /// The 802.11 MAC/PHY exchange beneath an AP.
    Mac,
    /// The client device (Algorithm 1, NIC, playout).
    Client,
    /// The recovery middlebox.
    Middlebox,
    /// The background TCP sender.
    Tcp,
    /// The playout / concealment stage.
    Playout,
}

impl ComponentKind {
    fn label(self) -> &'static str {
        match self {
            ComponentKind::World => "world",
            ComponentKind::Source => "source",
            ComponentKind::Ap => "ap",
            ComponentKind::Mac => "mac",
            ComponentKind::Client => "client",
            ComponentKind::Middlebox => "middlebox",
            ComponentKind::Tcp => "tcp",
            ComponentKind::Playout => "playout",
        }
    }

    /// True when instances are always shown with their index (APs, MACs).
    /// Other kinds show a non-zero index only (`client:1`), so a single
    /// client reads `client`.
    fn indexed(self) -> bool {
        matches!(self, ComponentKind::Ap | ComponentKind::Mac)
    }
}

/// Interned, copyable component identity: a kind plus an instance index.
///
/// Replaces the old `who: String` — two bytes wide, `Copy`, and formatted
/// lazily (`"ap:1"`, `"client"`, `"client:2"`) only when a trace is
/// exported or printed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct ComponentId {
    /// Which class of component.
    pub kind: ComponentKind,
    /// Instance index within the kind (0 for singletons).
    pub index: u16,
}

impl ComponentId {
    /// A component id for any kind/index pair.
    pub const fn new(kind: ComponentKind, index: u16) -> ComponentId {
        ComponentId { kind, index }
    }

    /// The world / event-loop harness.
    pub const fn world() -> ComponentId {
        ComponentId::new(ComponentKind::World, 0)
    }

    /// The VoIP source.
    pub const fn source() -> ComponentId {
        ComponentId::new(ComponentKind::Source, 0)
    }

    /// Access point `i`.
    pub const fn ap(i: u16) -> ComponentId {
        ComponentId::new(ComponentKind::Ap, i)
    }

    /// The MAC/PHY under access point `i`.
    pub const fn mac(i: u16) -> ComponentId {
        ComponentId::new(ComponentKind::Mac, i)
    }

    /// Client device `i` of a fleet (0 for a single client).
    pub const fn client(i: u16) -> ComponentId {
        ComponentId::new(ComponentKind::Client, i)
    }

    /// The recovery middlebox.
    pub const fn middlebox() -> ComponentId {
        ComponentId::new(ComponentKind::Middlebox, 0)
    }

    /// The background TCP sender.
    pub const fn tcp() -> ComponentId {
        ComponentId::new(ComponentKind::Tcp, 0)
    }

    /// The playout / concealment stage.
    pub const fn playout() -> ComponentId {
        ComponentId::new(ComponentKind::Playout, 0)
    }
}

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.kind.indexed() || self.index > 0 {
            write!(f, "{}:{}", self.kind.label(), self.index)
        } else {
            f.write_str(self.kind.label())
        }
    }
}

/// Which Algorithm-1 / control-plane decision a [`TraceDetail::Decision`]
/// records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum DecisionKind {
    /// Client decided to hop to the secondary AP.
    SwitchToSecondary,
    /// Client decided to return to the primary AP.
    SwitchToPrimary,
    /// Client asked the middlebox to start replicating.
    MiddleboxStart,
    /// Client asked the middlebox to stop replicating.
    MiddleboxStop,
}

impl DecisionKind {
    /// Stable lowercase name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            DecisionKind::SwitchToSecondary => "switch_to_secondary",
            DecisionKind::SwitchToPrimary => "switch_to_primary",
            DecisionKind::MiddleboxStart => "middlebox_start",
            DecisionKind::MiddleboxStop => "middlebox_stop",
        }
    }
}

/// Fixed-payload event detail — replaces the old free-form `String`.
///
/// Every variant is `Copy` with a fixed layout, so recording an event is a
/// plain store into a ring buffer; formatting happens only on export.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceDetail {
    /// No payload.
    None,
    /// A bare sequence number.
    Seq(u64),
    /// A queue admission: packet `seq`, queue depth after the operation,
    /// and the queue's capacity.
    Queue {
        /// Sequence number of the admitted packet.
        seq: u64,
        /// Queue depth after the operation.
        depth: u16,
        /// Configured queue capacity.
        cap: u16,
    },
    /// A queue drop: the victim's sequence number and whether it was a
    /// head-drop (victim ≠ the packet being offered).
    Drop {
        /// Sequence number of the dropped packet.
        seq: u64,
        /// True for head-drop (oldest evicted), false for tail-drop.
        head: bool,
    },
    /// An air exchange: sequence, MAC attempts used, and the exchange
    /// duration in microseconds.
    Air {
        /// Sequence number of the frame.
        seq: u64,
        /// MAC attempts consumed (1 = first try).
        attempts: u8,
        /// Duration of the exchange, microseconds.
        dur_us: u32,
    },
    /// A link / channel change.
    Link {
        /// True when moving toward the secondary AP.
        to_secondary: bool,
    },
    /// A power-management transition as seen by an AP.
    Power {
        /// True when the client told this AP it is asleep.
        sleeping: bool,
    },
    /// A strategy decision, with the sequence number that triggered it
    /// (0 when not applicable).
    Decision {
        /// Which decision.
        kind: DecisionKind,
        /// Triggering sequence number, if any.
        seq: u64,
    },
    /// A transport-layer data point: segment sequence and flight size.
    Transport {
        /// Transport-level sequence number.
        seq: u64,
        /// Segments in flight (cwnd occupancy) after the event.
        flight: u16,
    },
    /// An uninterpreted value, for ad-hoc instrumentation.
    Value(u64),
    /// An injected-fault state change: which window of the run's
    /// [`crate::fault::FaultPlan`] and which edge (onset / clear /
    /// service recovered).
    Fault {
        /// Index of the window in `FaultPlan::windows()` order.
        window: u16,
        /// The edge being recorded.
        edge: FaultEdge,
    },
}

/// Which edge of a fault window a [`TraceDetail::Fault`] event records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum FaultEdge {
    /// The impairment began.
    Onset,
    /// The impairment cleared (device healthy again).
    Clear,
    /// First in-deadline stream delivery after the impairment cleared.
    Recovered,
}

impl FaultEdge {
    /// Stable lowercase name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            FaultEdge::Onset => "onset",
            FaultEdge::Clear => "clear",
            FaultEdge::Recovered => "recovered",
        }
    }
}

impl fmt::Display for TraceDetail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TraceDetail::None => Ok(()),
            TraceDetail::Seq(seq) => write!(f, "seq={seq}"),
            TraceDetail::Queue { seq, depth, cap } => {
                write!(f, "seq={seq} depth={depth}/{cap}")
            }
            TraceDetail::Drop { seq, head } => {
                write!(f, "seq={seq} {}", if head { "head" } else { "tail" })
            }
            TraceDetail::Air { seq, attempts, dur_us } => {
                write!(f, "seq={seq} attempts={attempts} dur={dur_us}us")
            }
            TraceDetail::Link { to_secondary } => {
                write!(f, "to={}", if to_secondary { "secondary" } else { "primary" })
            }
            TraceDetail::Power { sleeping } => {
                write!(f, "pm={}", if sleeping { "sleep" } else { "awake" })
            }
            TraceDetail::Decision { kind, seq } => {
                if seq != 0 {
                    write!(f, "{} seq={seq}", kind.name())
                } else {
                    f.write_str(kind.name())
                }
            }
            TraceDetail::Transport { seq, flight } => {
                write!(f, "seq={seq} flight={flight}")
            }
            TraceDetail::Value(v) => write!(f, "value={v}"),
            TraceDetail::Fault { window, edge } => {
                write!(f, "window={window} {}", edge.name())
            }
        }
    }
}

/// One structured trace record — 32 bytes, `Copy`, no heap pointers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// When it happened (simulation time).
    pub at: SimTime,
    /// What kind of event.
    pub kind: TraceKind,
    /// Which component emitted it.
    pub who: ComponentId,
    /// Fixed-payload detail.
    pub detail: TraceDetail,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {:?} {} {}", self.at, self.kind, self.who, self.detail)
    }
}

/// A bounded ring of `(seq, event)` pairs: the per-worker telemetry sink.
///
/// Every admitted event gets a monotonically increasing sequence number;
/// at capacity the *oldest* event is evicted (the tail of a run matters
/// more than its start) and counted in [`dropped`](Self::dropped).
/// Because eviction is strictly from the front, the surviving events are
/// the contiguous suffix `dropped..next_seq` of the emission order — which
/// is what makes the deterministic (time, run, seq) merge in
/// `SweepRunner::run_indexed_traced` possible.
#[derive(Default, Debug)]
pub struct RingSink {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
}

impl RingSink {
    /// A ring holding at most `capacity` events (0 disables recording).
    pub fn new(capacity: usize) -> RingSink {
        RingSink { buf: VecDeque::new(), capacity, ..RingSink::default() }
    }

    /// Clear contents and counters, adopt a (possibly new) capacity, and
    /// keep the allocated buffer for reuse.
    pub fn reset(&mut self, capacity: usize) {
        self.buf.clear();
        self.capacity = capacity;
        self.next_seq = 0;
        self.dropped = 0;
    }

    /// Admit one event, evicting the oldest at capacity.
    #[inline]
    pub fn record(&mut self, event: TraceEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            self.next_seq += 1;
            return;
        }
        if self.buf.len() >= self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event);
        self.next_seq += 1;
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted (or rejected) so far. Equals the sequence number of
    /// the oldest surviving event.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Move the surviving events out in emission order, keeping the
    /// ring's allocation for the next run. Returns `(first_seq, events)`:
    /// event `i` of the returned vector has sequence `first_seq + i`.
    pub fn drain(&mut self) -> (u64, Vec<TraceEvent>) {
        let first = self.dropped;
        (first, self.buf.drain(..).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ms: u64, kind: TraceKind, seq: u64) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_millis(ms),
            kind,
            who: ComponentId::client(0),
            detail: TraceDetail::Seq(seq),
        }
    }

    #[test]
    fn ring_sink_evicts_oldest_and_keeps_suffix() {
        let mut r = RingSink::new(4);
        for i in 0..10u64 {
            r.record(ev(i, TraceKind::Delivery, i));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        let (first_seq, events) = r.drain();
        assert_eq!(first_seq, 6);
        let seqs: Vec<u64> = events
            .iter()
            .map(|e| match e.detail {
                TraceDetail::Seq(s) => s,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        // reset() reuses the buffer and restarts counters.
        r.reset(2);
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
        r.record(ev(0, TraceKind::Enqueue, 0));
        assert_eq!(r.drain().1.len(), 1);
    }

    #[test]
    fn zero_capacity_ring_counts_everything() {
        let mut r = RingSink::new(0);
        for i in 0..5u64 {
            r.record(ev(i, TraceKind::Enqueue, i));
        }
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 5);
    }

    #[test]
    fn component_display() {
        assert_eq!(ComponentId::ap(1).to_string(), "ap:1");
        assert_eq!(ComponentId::mac(0).to_string(), "mac:0");
        assert_eq!(ComponentId::client(0).to_string(), "client");
        assert_eq!(ComponentId::client(2).to_string(), "client:2");
        assert_eq!(ComponentId::middlebox().to_string(), "middlebox");
        assert_eq!(ComponentId::world().to_string(), "world");
    }

    #[test]
    fn detail_display() {
        assert_eq!(TraceDetail::Seq(9).to_string(), "seq=9");
        assert_eq!(TraceDetail::Queue { seq: 4, depth: 2, cap: 10 }.to_string(), "seq=4 depth=2/10");
        assert_eq!(TraceDetail::Drop { seq: 7, head: true }.to_string(), "seq=7 head");
        assert_eq!(
            TraceDetail::Air { seq: 1, attempts: 3, dur_us: 850 }.to_string(),
            "seq=1 attempts=3 dur=850us"
        );
        assert_eq!(TraceDetail::Link { to_secondary: true }.to_string(), "to=secondary");
        assert_eq!(TraceDetail::Power { sleeping: false }.to_string(), "pm=awake");
        assert_eq!(
            TraceDetail::Decision { kind: DecisionKind::MiddleboxStart, seq: 42 }.to_string(),
            "middlebox_start seq=42"
        );
        assert_eq!(TraceDetail::Transport { seq: 5, flight: 3 }.to_string(), "seq=5 flight=3");
        assert_eq!(
            TraceDetail::Fault { window: 2, edge: FaultEdge::Onset }.to_string(),
            "window=2 onset"
        );
        assert_eq!(
            TraceDetail::Fault { window: 0, edge: FaultEdge::Recovered }.to_string(),
            "window=0 recovered"
        );
        assert_eq!(TraceDetail::None.to_string(), "");
    }

    #[test]
    fn event_display_format() {
        let e = TraceEvent {
            at: SimTime::from_millis(20),
            kind: TraceKind::LinkSwitch,
            who: ComponentId::client(0),
            detail: TraceDetail::Link { to_secondary: true },
        };
        let s = e.to_string();
        assert!(s.contains("LinkSwitch"));
        assert!(s.contains("client"));
        assert!(s.contains("to=secondary"));
    }

    #[test]
    fn event_is_small_and_copy() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<TraceEvent>();
        // The whole point of the rework: fixed-size records, no Strings.
        assert!(std::mem::size_of::<TraceEvent>() <= 40, "{}", std::mem::size_of::<TraceEvent>());
    }
}
