//! The access point: per-station queues, 802.11 power-save buffering, and
//! the queue-management variants at the heart of DiversiFi's design.
//!
//! Stations here are *virtual adapters* — DiversiFi clients present several
//! MAC addresses (DEF, primary, secondary), and each association gets its
//! own queue, exactly as a real AP would see them.
//!
//! Three behaviours matter for the paper:
//!
//! 1. **Stock PSM** (the "End-to-End" design, §5.3): a sleeping station's
//!    frames accumulate in a *tail-drop* queue that can grow large (64 in
//!    OpenWrt). On wake, everything queued is delivered — flooding the
//!    client with stale duplicates.
//! 2. **Customized AP** (§5.3.1): the per-station queue becomes *head-drop*
//!    with a small settable cap (signalled in an association-request IE), so
//!    it always holds the most recent few packets.
//! 3. **Hardware-queue batching** (§5.3.1): on wake the AP hands a batch of
//!    queued frames down to the hardware queue in one go; frames already in
//!    hardware are transmitted even if the station immediately sleeps again.
//!    This is the source of the paper's residual 0.62% wasteful duplication.

use crate::channel::Channel;
use crate::frame::Frame;
use crate::ids::{AdapterId, ApId};
use crate::mac::MacConfig;
use diversifi_simcore::metrics::{LogHistogram, MetricsRegistry};
use diversifi_simcore::{telemetry, ComponentId};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// How a station's power-save buffer sheds load when full.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueueDiscipline {
    /// Drop the arriving frame when the queue is full (stock behaviour).
    TailDrop {
        /// Maximum queued frames.
        cap: usize,
    },
    /// Drop the oldest queued frame to admit the arriving one (the
    /// "Customized AP" change; also what CoDel-era firmwares support).
    HeadDrop {
        /// Maximum queued frames.
        cap: usize,
    },
}

impl QueueDiscipline {
    /// The queue capacity.
    pub fn cap(&self) -> usize {
        match self {
            QueueDiscipline::TailDrop { cap } | QueueDiscipline::HeadDrop { cap } => *cap,
        }
    }

    /// Stock OpenWrt-style default: tail-drop, 64 frames.
    pub fn stock() -> QueueDiscipline {
        QueueDiscipline::TailDrop { cap: 64 }
    }
}

/// Result of offering a frame to a station queue.
#[derive(Clone, Debug, PartialEq)]
pub enum Enqueued {
    /// The frame was queued (or committed straight to hardware).
    Ok,
    /// The frame displaced `dropped` (head-drop) or was itself rejected
    /// (tail-drop — then `dropped` is the offered frame).
    Dropped {
        /// The frame that was lost.
        dropped: Frame,
    },
}

/// Per-association state at the AP.
#[derive(Clone, Debug)]
struct Station {
    awake: bool,
    discipline: QueueDiscipline,
    /// The driver-level queue (PSM buffer while asleep).
    queue: VecDeque<Frame>,
    /// Frames committed to the hardware; transmitted regardless of the
    /// station's current PM state.
    hw: VecDeque<Frame>,
}

impl Station {
    fn new(discipline: QueueDiscipline) -> Station {
        Station { awake: true, discipline, queue: VecDeque::new(), hw: VecDeque::new() }
    }
}

/// Static AP parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ApConfig {
    /// This AP's identity.
    pub id: ApId,
    /// Operating channel.
    pub channel: Channel,
    /// MAC timing/retry parameters.
    pub mac: MacConfig,
    /// How many queued frames are handed to hardware in one go when a
    /// sleeping station wakes.
    pub wake_batch: usize,
}

impl ApConfig {
    /// An AP with default 802.11n MAC parameters.
    pub fn new(id: ApId, channel: Channel) -> ApConfig {
        ApConfig { id, channel, mac: MacConfig::default(), wake_batch: 2 }
    }
}

/// Telemetry instruments owned by an [`AccessPoint`]. Recorded only while
/// a telemetry session is active (free otherwise) and exported into a
/// [`MetricsRegistry`] snapshot at end of run.
#[derive(Clone, Debug, Default)]
pub struct ApMetrics {
    /// Frames offered to station queues (admitted or not).
    pub enqueued: u64,
    /// Distribution of driver-queue depth sampled after every enqueue.
    pub queue_depth: LogHistogram,
    /// Power-management edges (awake↔asleep) observed by this AP.
    pub ps_transitions: u64,
}

/// The access point device model (control/queueing plane; the radio itself
/// is driven by the world through [`crate::mac::transmit`]).
#[derive(Clone, Debug)]
pub struct AccessPoint {
    cfg: ApConfig,
    /// Associations, sorted by adapter id: a flat table the radio service
    /// walks by index, with binary-search lookups.
    stations: Vec<(AdapterId, Station)>,
    /// Round-robin pointer (an index into `stations`) for radio service.
    rr_next: usize,
    /// Frames dropped from queues since creation (for overhead accounting).
    pub drops: u64,
    /// Telemetry instruments (live only during a telemetry session).
    pub metrics: ApMetrics,
}

impl AccessPoint {
    /// Create an AP.
    pub fn new(cfg: ApConfig) -> AccessPoint {
        AccessPoint {
            cfg,
            stations: Vec::new(),
            rr_next: 0,
            drops: 0,
            metrics: ApMetrics::default(),
        }
    }

    /// Static configuration.
    pub fn config(&self) -> &ApConfig {
        &self.cfg
    }

    /// The AP's channel.
    pub fn channel(&self) -> Channel {
        self.cfg.channel
    }

    /// Where `adapter` sits in the station table: `Ok(index)` if it is
    /// associated, else `Err(index)` at which inserting it keeps the order.
    fn slot(&self, adapter: AdapterId) -> Result<usize, usize> {
        self.stations.binary_search_by_key(&adapter, |&(a, _)| a)
    }

    fn station(&self, adapter: AdapterId) -> Option<&Station> {
        self.slot(adapter).ok().map(|i| &self.stations[i].1)
    }

    /// Register an association. `discipline` reflects the queue-management
    /// IE from the association request ([`QueueDiscipline::stock`] when the
    /// client asks for nothing special). Re-associating an adapter resets
    /// its station in place.
    pub fn associate(&mut self, adapter: AdapterId, discipline: QueueDiscipline) {
        match self.slot(adapter) {
            Ok(i) => self.stations[i].1 = Station::new(discipline),
            Err(i) => self.stations.insert(i, (adapter, Station::new(discipline))),
        }
    }

    /// Remove an association.
    pub fn disassociate(&mut self, adapter: AdapterId) {
        if let Ok(i) = self.slot(adapter) {
            self.stations.remove(i);
        }
    }

    /// Is this adapter associated here?
    pub fn is_associated(&self, adapter: AdapterId) -> bool {
        self.slot(adapter).is_ok()
    }

    /// Is the station awake (from the AP's point of view)?
    pub fn is_awake(&self, adapter: AdapterId) -> bool {
        self.station(adapter).map(|s| s.awake).unwrap_or(false)
    }

    /// Current driver-queue length for a station.
    pub fn queue_len(&self, adapter: AdapterId) -> usize {
        self.station(adapter).map(|s| s.queue.len()).unwrap_or(0)
    }

    /// Current hardware-queue length for a station.
    pub fn hw_len(&self, adapter: AdapterId) -> usize {
        self.station(adapter).map(|s| s.hw.len()).unwrap_or(0)
    }

    /// Negotiated driver-queue capacity for a station (0 if not associated).
    pub fn queue_cap(&self, adapter: AdapterId) -> usize {
        self.station(adapter).map(|s| s.discipline.cap()).unwrap_or(0)
    }

    /// Offer a downlink frame for `adapter`.
    pub fn enqueue(&mut self, adapter: AdapterId, frame: Frame) -> Enqueued {
        let Ok(i) = self.slot(adapter) else {
            // Not associated: the frame has nowhere to go.
            self.drops += 1;
            return Enqueued::Dropped { dropped: frame };
        };
        let st = &mut self.stations[i].1;
        let cap = st.discipline.cap();
        let result = if st.queue.len() < cap {
            st.queue.push_back(frame);
            Enqueued::Ok
        } else {
            match st.discipline {
                QueueDiscipline::TailDrop { .. } => {
                    self.drops += 1;
                    Enqueued::Dropped { dropped: frame }
                }
                QueueDiscipline::HeadDrop { .. } => {
                    let dropped = st.queue.pop_front().expect("cap > 0");
                    st.queue.push_back(frame);
                    self.drops += 1;
                    Enqueued::Dropped { dropped }
                }
            }
        };
        // §5.3.1 invariant: the per-station PSM buffer never exceeds the
        // negotiated depth, whatever the discipline or arrival pattern.
        diversifi_simcore::sim_assert!(
            st.queue.len() <= cap,
            "station queue depth {} exceeded negotiated cap {} on {:?}",
            st.queue.len(),
            cap,
            adapter
        );
        if telemetry::active() {
            self.metrics.enqueued += 1;
            self.metrics.queue_depth.record(st.queue.len() as u64);
        }
        result
    }

    /// Process a power-management change for `adapter` (a received Null
    /// frame, or the PM bit on a data frame).
    ///
    /// On wake, up to `wake_batch` buffered frames are committed to the
    /// hardware queue in one go — they will be transmitted even if the
    /// station goes right back to sleep.
    pub fn set_power_save(&mut self, adapter: AdapterId, sleeping: bool) {
        let batch = self.cfg.wake_batch;
        if let Ok(i) = self.slot(adapter) {
            let st = &mut self.stations[i].1;
            let was_awake = st.awake;
            st.awake = !sleeping;
            if was_awake == sleeping && telemetry::active() {
                self.metrics.ps_transitions += 1;
            }
            if !was_awake && st.awake {
                for _ in 0..batch {
                    match st.queue.pop_front() {
                        Some(f) => st.hw.push_back(f),
                        None => break,
                    }
                }
            }
        }
    }

    /// Pick the next frame the radio should transmit, round-robin over
    /// stations. Hardware-committed frames go out regardless of PM state;
    /// driver-queue frames only when the station is awake.
    ///
    /// Returns `None` when nothing is eligible. The returned frame is
    /// removed from its queue — the world owns it until `tx` completes.
    pub fn next_tx(&mut self) -> Option<(AdapterId, Frame)> {
        let n = self.stations.len();
        for i in 0..n {
            let idx = (self.rr_next + i) % n;
            let (adapter, st) = &mut self.stations[idx];
            let frame = match st.hw.pop_front() {
                Some(f) => Some(f),
                None if st.awake => st.queue.pop_front(),
                None => None,
            };
            if let Some(f) = frame {
                self.rr_next = (idx + 1) % n;
                return Some((*adapter, f));
            }
        }
        None
    }

    /// Does any station have an eligible frame?
    pub fn has_eligible_traffic(&self) -> bool {
        self.stations.iter().any(|(_, s)| !s.hw.is_empty() || (s.awake && !s.queue.is_empty()))
    }

    /// Drain and return every frame currently buffered for `adapter`
    /// (driver queue only; hardware-committed frames are past recall).
    pub fn flush(&mut self, adapter: AdapterId) -> Vec<Frame> {
        match self.slot(adapter) {
            Ok(i) => self.stations[i].1.queue.drain(..).collect(),
            Err(_) => Vec::new(),
        }
    }

    /// Power-cycle the AP: every association is torn down and every buffered
    /// frame (driver and hardware queues alike) is destroyed. Returns the
    /// destroyed frames so the caller can account for them; they count as
    /// queue drops. Stations must re-associate afterwards, and the AP has
    /// forgotten all power-save state.
    pub fn power_cycle(&mut self) -> Vec<Frame> {
        let mut lost = Vec::new();
        for (_, st) in &mut self.stations {
            lost.extend(st.queue.drain(..));
            lost.extend(st.hw.drain(..));
        }
        self.stations.clear();
        self.rr_next = 0;
        self.drops += lost.len() as u64;
        lost
    }

    /// Snapshot this AP's instruments into a metrics registry under `who`
    /// (typically `ComponentId::ap(index)`).
    pub fn export_metrics(&self, who: ComponentId, reg: &mut MetricsRegistry) {
        reg.counter(who, "enqueued", self.metrics.enqueued);
        reg.counter(who, "drops", self.drops);
        reg.counter(who, "ps_transitions", self.metrics.ps_transitions);
        reg.histogram(who, "queue_depth", &self.metrics.queue_depth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ClientId, FlowId};
    use diversifi_simcore::SimTime;

    const A: AdapterId = AdapterId(1);

    fn ap() -> AccessPoint {
        AccessPoint::new(ApConfig::new(ApId(0), Channel::CH1))
    }

    fn frame(seq: u64) -> Frame {
        Frame::data(FlowId(0), seq, 160, SimTime::from_millis(seq * 20), ClientId(0), A)
    }

    #[test]
    fn awake_station_gets_frames_in_order() {
        let mut ap = ap();
        ap.associate(A, QueueDiscipline::stock());
        for s in 0..3 {
            assert_eq!(ap.enqueue(A, frame(s)), Enqueued::Ok);
        }
        let seqs: Vec<u64> = std::iter::from_fn(|| ap.next_tx()).map(|(_, f)| f.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn sleeping_station_buffers() {
        let mut ap = ap();
        ap.associate(A, QueueDiscipline::stock());
        ap.set_power_save(A, true);
        ap.enqueue(A, frame(0));
        assert!(ap.next_tx().is_none(), "asleep: nothing eligible");
        assert_eq!(ap.queue_len(A), 1);
        ap.set_power_save(A, false);
        assert_eq!(ap.next_tx().unwrap().1.seq, 0);
    }

    #[test]
    fn tail_drop_rejects_newcomers() {
        let mut ap = ap();
        ap.associate(A, QueueDiscipline::TailDrop { cap: 3 });
        ap.set_power_save(A, true);
        for s in 0..3 {
            assert_eq!(ap.enqueue(A, frame(s)), Enqueued::Ok);
        }
        match ap.enqueue(A, frame(3)) {
            Enqueued::Dropped { dropped } => assert_eq!(dropped.seq, 3),
            other => panic!("expected drop, got {other:?}"),
        }
        // Queue still holds the *oldest* 3 — stale for a real-time stream.
        ap.set_power_save(A, false);
        let first = ap.next_tx().unwrap().1;
        assert_eq!(first.seq, 0);
    }

    #[test]
    fn head_drop_keeps_most_recent() {
        let mut ap = ap();
        ap.associate(A, QueueDiscipline::HeadDrop { cap: 5 });
        ap.set_power_save(A, true);
        for s in 0..20 {
            ap.enqueue(A, frame(s));
        }
        assert_eq!(ap.queue_len(A), 5);
        ap.set_power_save(A, false);
        // Wake batch (2) + the rest when polled again.
        let mut seqs = Vec::new();
        while let Some((_, f)) = ap.next_tx() {
            seqs.push(f.seq);
        }
        assert_eq!(seqs, vec![15, 16, 17, 18, 19], "most recent 5 survive");
        assert_eq!(ap.drops, 15);
    }

    #[test]
    fn wake_batch_commits_to_hardware() {
        let mut ap = ap(); // wake_batch = 2
        ap.associate(A, QueueDiscipline::HeadDrop { cap: 5 });
        ap.set_power_save(A, true);
        for s in 0..4 {
            ap.enqueue(A, frame(s));
        }
        ap.set_power_save(A, false);
        assert_eq!(ap.hw_len(A), 2, "wake batch committed");
        assert_eq!(ap.queue_len(A), 2);
        // Station sleeps again immediately — hardware frames still go out.
        ap.set_power_save(A, true);
        assert_eq!(ap.next_tx().unwrap().1.seq, 0);
        assert_eq!(ap.next_tx().unwrap().1.seq, 1);
        assert!(ap.next_tx().is_none(), "driver queue stays parked while asleep");
        assert_eq!(ap.queue_len(A), 2);
    }

    #[test]
    fn repeated_wake_does_not_rebatch() {
        let mut ap = ap();
        ap.associate(A, QueueDiscipline::stock());
        ap.set_power_save(A, true);
        ap.enqueue(A, frame(0));
        ap.set_power_save(A, false);
        assert_eq!(ap.hw_len(A), 1);
        // A second wake edge while already awake must not duplicate.
        ap.set_power_save(A, false);
        assert_eq!(ap.hw_len(A), 1);
    }

    #[test]
    fn round_robin_between_stations() {
        let b = AdapterId(2);
        let mut ap = ap();
        ap.associate(A, QueueDiscipline::stock());
        ap.associate(b, QueueDiscipline::stock());
        for s in 0..2 {
            ap.enqueue(A, frame(s));
            let mut f = frame(s + 100);
            f.dst_adapter = b;
            ap.enqueue(b, f);
        }
        let order: Vec<(AdapterId, u64)> =
            std::iter::from_fn(|| ap.next_tx()).map(|(a, f)| (a, f.seq)).collect();
        assert_eq!(order, vec![(A, 0), (b, 100), (A, 1), (b, 101)]);
    }

    #[test]
    fn unassociated_enqueue_drops() {
        let mut ap = ap();
        match ap.enqueue(A, frame(0)) {
            Enqueued::Dropped { dropped } => assert_eq!(dropped.seq, 0),
            other => panic!("expected drop, got {other:?}"),
        }
        assert_eq!(ap.drops, 1);
    }

    #[test]
    fn flush_recalls_driver_queue_only() {
        let mut ap = ap();
        ap.associate(A, QueueDiscipline::stock());
        ap.set_power_save(A, true);
        for s in 0..5 {
            ap.enqueue(A, frame(s));
        }
        ap.set_power_save(A, false); // 2 committed to hw
        let recalled = ap.flush(A);
        assert_eq!(recalled.len(), 3);
        assert_eq!(recalled[0].seq, 2);
        assert_eq!(ap.hw_len(A), 2);
    }

    #[test]
    fn disassociate_clears_state() {
        let mut ap = ap();
        ap.associate(A, QueueDiscipline::stock());
        ap.enqueue(A, frame(0));
        ap.disassociate(A);
        assert!(!ap.is_associated(A));
        assert!(ap.next_tx().is_none());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::ids::{ClientId, FlowId};
    use diversifi_simcore::SimTime;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, VecDeque};

    const A: AdapterId = AdapterId(1);

    fn frame(seq: u64) -> Frame {
        Frame::data(FlowId(0), seq, 160, SimTime::from_millis(seq * 20), ClientId(0), A)
    }

    /// An obviously-correct single-station model of the AP's queueing plane:
    /// a bounded ring with the discipline's drop rule, an awake flag, and a
    /// hardware queue fed `wake_batch`-at-a-time on the sleep→awake edge.
    struct RefStation {
        awake: bool,
        head_drop: bool,
        cap: usize,
        wake_batch: usize,
        ring: VecDeque<u64>,
        hw: VecDeque<u64>,
        drops: u64,
    }

    impl RefStation {
        fn new(head_drop: bool, cap: usize, wake_batch: usize) -> RefStation {
            RefStation {
                awake: true,
                head_drop,
                cap,
                wake_batch,
                ring: VecDeque::new(),
                hw: VecDeque::new(),
                drops: 0,
            }
        }

        /// Returns the dropped seq, if any.
        fn enqueue(&mut self, seq: u64) -> Option<u64> {
            if self.ring.len() < self.cap {
                self.ring.push_back(seq);
                None
            } else if self.head_drop {
                let victim = self.ring.pop_front();
                self.ring.push_back(seq);
                self.drops += 1;
                victim
            } else {
                self.drops += 1;
                Some(seq)
            }
        }

        fn set_sleeping(&mut self, sleeping: bool) {
            let was_awake = self.awake;
            self.awake = !sleeping;
            if !was_awake && self.awake {
                for _ in 0..self.wake_batch {
                    match self.ring.pop_front() {
                        Some(s) => self.hw.push_back(s),
                        None => break,
                    }
                }
            }
        }

        fn next_tx(&mut self) -> Option<u64> {
            if let Some(s) = self.hw.pop_front() {
                return Some(s);
            }
            if self.awake {
                return self.ring.pop_front();
            }
            None
        }

        fn flush(&mut self) -> Vec<u64> {
            self.ring.drain(..).collect()
        }
    }

    fn run_ops(ops: &[u32], head_drop: bool, cap: usize) {
        let discipline = if head_drop {
            QueueDiscipline::HeadDrop { cap }
        } else {
            QueueDiscipline::TailDrop { cap }
        };
        let mut ap = AccessPoint::new(ApConfig::new(ApId(0), Channel::CH1));
        ap.associate(A, discipline);
        let mut model = RefStation::new(head_drop, cap, ap.config().wake_batch);
        let mut next_seq = 0u64;
        for op in ops {
            match op % 8 {
                // Enqueue dominates so queues actually fill.
                0..=3 => {
                    let seq = next_seq;
                    next_seq += 1;
                    let got = ap.enqueue(A, frame(seq));
                    let want = model.enqueue(seq);
                    match (got, want) {
                        (Enqueued::Ok, None) => {}
                        (Enqueued::Dropped { dropped }, Some(w)) => {
                            assert_eq!(dropped.seq, w, "wrong victim")
                        }
                        (got, want) => panic!("device {got:?} vs model {want:?}"),
                    }
                }
                4 => {
                    ap.set_power_save(A, true);
                    model.set_sleeping(true);
                }
                5 => {
                    ap.set_power_save(A, false);
                    model.set_sleeping(false);
                }
                6 => {
                    let got = ap.next_tx().map(|(_, f)| f.seq);
                    assert_eq!(got, model.next_tx(), "next_tx diverged");
                }
                _ => {
                    let got: Vec<u64> = ap.flush(A).iter().map(|f| f.seq).collect();
                    assert_eq!(got, model.flush(), "flush diverged");
                }
            }
            assert_eq!(ap.queue_len(A), model.ring.len(), "driver queue depth diverged");
            assert_eq!(ap.hw_len(A), model.hw.len(), "hw queue depth diverged");
            assert_eq!(ap.drops, model.drops, "drop accounting diverged");
            assert_eq!(ap.is_awake(A), model.awake);
        }
    }

    /// The AP's station table as it was before it went flat: a `BTreeMap`
    /// of [`RefStation`]s whose radio service lists the keys in order and
    /// walks them round-robin from `rr_next`.
    #[derive(Default)]
    struct RefAp {
        stations: BTreeMap<AdapterId, RefStation>,
        rr_next: usize,
        drops: u64,
    }

    impl RefAp {
        fn next_tx(&mut self) -> Option<(AdapterId, u64)> {
            let keys: Vec<AdapterId> = self.stations.keys().copied().collect();
            let n = keys.len();
            for i in 0..n {
                let idx = (self.rr_next + i) % n;
                if let Some(seq) = self.stations.get_mut(&keys[idx]).unwrap().next_tx() {
                    self.rr_next = (idx + 1) % n;
                    return Some((keys[idx], seq));
                }
            }
            None
        }

        fn drops(&self) -> u64 {
            self.drops + self.stations.values().map(|s| s.drops).sum::<u64>()
        }
    }

    /// Drive the AP and [`RefAp`] through the same operations over
    /// `adapters` adapters; every observable must agree after every step.
    fn run_table_ops(ops: &[u32], adapters: u16) {
        let mut ap = AccessPoint::new(ApConfig::new(ApId(0), Channel::CH1));
        let wake_batch = ap.config().wake_batch;
        let mut model = RefAp::default();
        let mut next_seq = 0u64;
        for &op in ops {
            let adapter = AdapterId((op >> 4) as u16 % adapters);
            let cap = 1 + (op >> 8) as usize % 6;
            match op % 16 {
                0 | 1 => {
                    let head_drop = (op >> 12) % 2 == 0;
                    let discipline = if head_drop {
                        QueueDiscipline::HeadDrop { cap }
                    } else {
                        QueueDiscipline::TailDrop { cap }
                    };
                    ap.associate(adapter, discipline);
                    // A re-association resets the station; its drops stay
                    // counted at the AP.
                    if let Some(old) = model
                        .stations
                        .insert(adapter, RefStation::new(head_drop, cap, wake_batch))
                    {
                        model.drops += old.drops;
                    }
                }
                2 => {
                    ap.disassociate(adapter);
                    if let Some(old) = model.stations.remove(&adapter) {
                        model.drops += old.drops;
                    }
                }
                3..=7 => {
                    let seq = next_seq;
                    next_seq += 1;
                    let mut f = frame(seq);
                    f.dst_adapter = adapter;
                    let got = match ap.enqueue(adapter, f) {
                        Enqueued::Ok => None,
                        Enqueued::Dropped { dropped } => Some(dropped.seq),
                    };
                    let want = match model.stations.get_mut(&adapter) {
                        Some(st) => st.enqueue(seq),
                        None => {
                            model.drops += 1;
                            Some(seq)
                        }
                    };
                    assert_eq!(got, want, "enqueue diverged");
                }
                8 | 9 => {
                    let sleeping = op % 2 == 0;
                    ap.set_power_save(adapter, sleeping);
                    if let Some(st) = model.stations.get_mut(&adapter) {
                        st.set_sleeping(sleeping);
                    }
                }
                10..=13 => {
                    let got = ap.next_tx().map(|(a, f)| (a, f.seq));
                    assert_eq!(got, model.next_tx(), "next_tx diverged");
                }
                14 => {
                    let got: Vec<u64> = ap.flush(adapter).iter().map(|f| f.seq).collect();
                    let want =
                        model.stations.get_mut(&adapter).map(|s| s.flush()).unwrap_or_default();
                    assert_eq!(got, want, "flush diverged");
                }
                _ => {
                    let got: Vec<u64> = ap.power_cycle().iter().map(|f| f.seq).collect();
                    let mut want = Vec::new();
                    for st in std::mem::take(&mut model.stations).into_values() {
                        model.drops += st.drops + (st.ring.len() + st.hw.len()) as u64;
                        want.extend(st.ring.iter().chain(&st.hw));
                    }
                    model.rr_next = 0;
                    assert_eq!(got, want, "power_cycle diverged");
                }
            }
            assert_eq!(ap.drops, model.drops(), "drop accounting diverged");
            for a in 0..adapters {
                let a = AdapterId(a);
                let st = model.stations.get(&a);
                assert_eq!(ap.is_associated(a), st.is_some());
                assert_eq!(ap.queue_len(a), st.map_or(0, |s| s.ring.len()), "queue_len diverged");
                assert_eq!(ap.hw_len(a), st.map_or(0, |s| s.hw.len()), "hw_len diverged");
                assert_eq!(ap.is_awake(a), st.is_some_and(|s| s.awake), "is_awake diverged");
            }
        }
    }

    proptest! {
        /// The flat, sorted station table serves, drops and reports exactly
        /// as the `BTreeMap` it replaced, under arbitrary association churn
        /// and queue traffic over 1–6 adapters.
        #[test]
        fn station_table_matches_btreemap_reference(
            ops in proptest::collection::vec(0u32..1_000_000, 1..300),
            adapters in 1u16..=6,
        ) {
            run_table_ops(&ops, adapters);
        }

        /// Head-drop AP queue is observationally equal to a reference
        /// bounded ring under arbitrary enqueue/PS/tx/flush interleavings.
        #[test]
        fn head_drop_matches_reference_ring(
            ops in proptest::collection::vec(0u32..1_000_000, 1..250),
            cap in 1usize..8,
        ) {
            run_ops(&ops, true, cap);
        }

        /// Same for the stock tail-drop queue.
        #[test]
        fn tail_drop_matches_reference_ring(
            ops in proptest::collection::vec(0u32..1_000_000, 1..250),
            cap in 1usize..8,
        ) {
            run_ops(&ops, false, cap);
        }
    }
}
