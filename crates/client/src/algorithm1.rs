//! The DiversiFi single-NIC client logic — Algorithm 1 of the paper.
//!
//! The client normally resides on its **primary** link. Upon missing a
//! packet (not received within `PacketLossTimeout` of its expected
//! arrival), it schedules a hop to the **secondary** link timed so that it
//! arrives *just before the missing packet reaches the head of the
//! secondary AP's short head-drop queue* (or just in time to fetch it from
//! the middlebox), grabs it, and hops back — recovering the loss while
//! transmitting almost nothing extra over the air. It also visits the
//! secondary every `AssociationKeepaliveTimeout` to keep the association
//! alive.
//!
//! Paper constants (Algorithm 1): IPS = 20 ms, MTD = 100 ms, LSL = 2.8 ms,
//! SRT = 40 ms, PLT = 2·IPS = 40 ms, AKT = 30 s, APQL = MTD/IPS = 5,
//! ETTRH = IPS·APQL − LSL.
//!
//! This module is a *pure state machine*: the world feeds it packet
//! arrivals, residency changes and timer pokes; it answers with
//! [`Command`]s. That makes the trickiest logic in the system directly
//! unit-testable without a radio model.

use diversifi_simcore::{SimDuration, SimTime};
use serde::Serialize;
use std::collections::BTreeMap;

use crate::strategy::LinkSide;

/// Where the replicated copy is buffered (§5.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum DeploymentMode {
    /// §5.3.1 — the secondary AP itself buffers, in a short head-drop
    /// queue; packet selection is implicit via arrival timing.
    CustomizedAp,
    /// §5.3.2 — an off-path middlebox buffers; the client runs an explicit
    /// start/stop retrieval protocol through the (unmodified) secondary AP.
    Middlebox,
}

/// Algorithm 1 constants.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Algorithm1Config {
    /// IPS: stream inter-packet spacing (from the RTP profile).
    pub inter_packet_spacing: SimDuration,
    /// MTD: maximum tolerable extra delay for a recovered packet.
    pub max_tolerable_delay: SimDuration,
    /// LSL: total latency of one link switch (PS exchange + channel change).
    pub link_switch_latency: SimDuration,
    /// SRT: how long a keepalive visit lingers on the secondary.
    pub secondary_residency: SimDuration,
    /// PLT: how long past the expected arrival before a packet is declared
    /// missing (and the cap on a recovery visit's duration).
    pub packet_loss_timeout: SimDuration,
    /// AKT: maximum silence on the secondary before a keepalive visit.
    pub keepalive_timeout: SimDuration,
    /// Safety margin subtracted from the visit time so the client arrives
    /// strictly before the missing packet rolls off the head-drop queue.
    pub visit_safety_margin: SimDuration,
    /// Consecutive secondary visits that hear *nothing* before the client
    /// declares the secondary dead and degrades to primary-only.
    pub dead_visit_threshold: u32,
    /// Initial spacing of re-association probes while degraded.
    pub probe_backoff_start: SimDuration,
    /// Probe spacing cap (the backoff doubles until it reaches this).
    pub probe_backoff_max: SimDuration,
}

impl Algorithm1Config {
    /// The paper's constants for the VoIP stream.
    pub fn voip() -> Algorithm1Config {
        Algorithm1Config {
            inter_packet_spacing: SimDuration::from_millis(20),
            max_tolerable_delay: SimDuration::from_millis(100),
            link_switch_latency: SimDuration::from_micros(2800),
            secondary_residency: SimDuration::from_millis(40),
            packet_loss_timeout: SimDuration::from_millis(40),
            keepalive_timeout: SimDuration::from_secs(30),
            visit_safety_margin: SimDuration::from_millis(4),
            dead_visit_threshold: 3,
            probe_backoff_start: SimDuration::from_secs(1),
            probe_backoff_max: SimDuration::from_secs(8),
        }
    }

    /// APQL: the queue length the client requests from the secondary AP
    /// (via the association-request IE): MaxTolerableDelay / IPS.
    pub fn ap_queue_len(&self) -> usize {
        (self.max_tolerable_delay / self.inter_packet_spacing).max(1) as usize
    }

    /// ETTRH: expected time (after a packet's normal arrival instant) until
    /// it reaches the head of the secondary queue, minus the switch latency.
    pub fn ettrh(&self) -> SimDuration {
        self.inter_packet_spacing * self.ap_queue_len() as u64 - self.link_switch_latency
    }
}

/// Instructions to the world (the radio/driver layer).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Command {
    /// Begin the switch to the secondary link: send Null(PM=1) to the
    /// primary AP, retune, send Null(PM=0) to the secondary AP.
    SwitchToSecondary,
    /// Begin the switch back: Null(PM=1) to secondary, retune, Null(PM=0)
    /// to primary.
    SwitchToPrimary,
    /// Middlebox mode: ask the middlebox to start streaming from `from_seq`.
    MiddleboxStart {
        /// First sequence number the client still needs.
        from_seq: u64,
    },
    /// Middlebox mode: ask the middlebox to stop.
    MiddleboxStop,
}

/// Why the client is (or will be) on the secondary.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
enum VisitReason {
    Recovery,
    Keepalive,
    /// Degraded mode: a backed-off re-association probe checking whether
    /// the (presumed dead) secondary has come back.
    Probe,
}

/// Where the client's NIC currently is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Residency {
    /// Tuned to the primary AP's channel, awake there.
    Primary,
    /// Mid-switch toward the secondary.
    ToSecondary,
    /// Tuned to the secondary AP's channel, awake there.
    Secondary,
    /// Mid-switch toward the primary.
    ToPrimary,
}

/// Counters the evaluation reads out.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct Alg1Stats {
    /// Recovery visits to the secondary.
    pub recovery_visits: u64,
    /// Keepalive visits.
    pub keepalive_visits: u64,
    /// Packets recovered via the secondary link.
    pub recovered_on_secondary: u64,
    /// Duplicate receptions (already had the packet) — the wasteful
    /// duplication the paper quantifies (0.62%).
    pub duplicate_packets: u64,
    /// Losses never recovered within MaxTolerableDelay.
    pub expired_losses: u64,
    /// Recovery visits that were cancelled because the packet showed up
    /// (e.g. drained from the primary AP's PSM buffer) before the hop.
    pub cancelled_visits: u64,
    /// Re-association probes launched while degraded.
    pub probe_visits: u64,
    /// Times the client declared the secondary dead and fell back to
    /// primary-only operation.
    pub degraded_entries: u64,
    /// Total time spent degraded (primary-only fallback), in nanoseconds.
    pub degraded_ns: u64,
}

/// The Algorithm 1 state machine.
#[derive(Clone, Debug)]
pub struct Algorithm1 {
    cfg: Algorithm1Config,
    mode: DeploymentMode,
    residency: Residency,
    /// Estimated arrival time of seq 0 (set by the first reception).
    base: Option<SimTime>,
    /// Smallest sequence number whose loss deadline has not yet been
    /// evaluated.
    next_unchecked: u64,
    /// received[seq] — grows as the stream progresses.
    received: Vec<bool>,
    /// Declared-missing packets → recovery expiry time.
    outstanding: BTreeMap<u64, SimTime>,
    planned_visit: Option<(SimTime, VisitReason)>,
    /// When we arrived on the secondary (while `residency == Secondary`).
    visit_arrived: Option<SimTime>,
    visit_reason: VisitReason,
    /// Did the current (or just-ended) secondary visit hear any packet?
    visit_heard: bool,
    /// Consecutive completed visits that heard nothing — the dead-secondary
    /// detector (reset by any secondary reception).
    silent_visits: u32,
    /// `Some(entered)` while in primary-only fallback.
    degraded_since: Option<SimTime>,
    /// Current probe spacing (doubles per probe up to the configured cap).
    probe_backoff: SimDuration,
    /// Earliest instant the next re-association probe may launch.
    next_probe: SimTime,
    last_secondary_contact: SimTime,
    started_at: SimTime,
    /// Timestamp of the most recent input (audit only: the world must feed
    /// the state machine in causal order).
    last_input: SimTime,
    /// One past the last sequence number of the stream, once known; loss
    /// detection never looks past it.
    stream_end: Option<u64>,
    /// Counters.
    pub stats: Alg1Stats,
}

impl Algorithm1 {
    /// A client that begins residing on the primary at `start`.
    pub fn new(cfg: Algorithm1Config, mode: DeploymentMode, start: SimTime) -> Algorithm1 {
        Algorithm1 {
            cfg,
            mode,
            residency: Residency::Primary,
            base: None,
            next_unchecked: 0,
            received: Vec::new(),
            outstanding: BTreeMap::new(),
            planned_visit: None,
            visit_arrived: None,
            visit_reason: VisitReason::Keepalive,
            visit_heard: false,
            silent_visits: 0,
            degraded_since: None,
            probe_backoff: cfg.probe_backoff_start,
            next_probe: start,
            last_secondary_contact: start,
            started_at: start,
            last_input: start,
            stream_end: None,
            stats: Alg1Stats::default(),
        }
    }

    /// Current residency.
    pub fn residency(&self) -> Residency {
        self.residency
    }

    /// The configuration in force.
    pub fn config(&self) -> &Algorithm1Config {
        &self.cfg
    }

    /// Deployment mode.
    pub fn mode(&self) -> DeploymentMode {
        self.mode
    }

    /// Tell the client where the stream ends (e.g. from the RTP BYE or
    /// the session description), so it stops hunting for packets past it.
    pub fn set_stream_end(&mut self, packet_count: u64) {
        self.stream_end = Some(packet_count);
    }

    /// Number of packets currently declared missing and unrecovered.
    pub fn outstanding_count(&self) -> usize {
        self.outstanding.len()
    }

    /// Is the client in primary-only fallback (secondary presumed dead)?
    pub fn is_degraded(&self) -> bool {
        self.degraded_since.is_some()
    }

    /// Close the books at end of run: a degraded interval still open at
    /// `now` is folded into `stats.degraded_ns` so the counter reflects
    /// the whole run even when the secondary never came back.
    pub fn finish(&mut self, now: SimTime) {
        if let Some(entered) = self.degraded_since.take() {
            self.stats.degraded_ns += now.saturating_since(entered).as_nanos();
        }
    }

    /// Snapshot the state machine's counters into a metrics registry.
    pub fn export_metrics(
        &self,
        who: diversifi_simcore::ComponentId,
        reg: &mut diversifi_simcore::MetricsRegistry,
    ) {
        reg.counter(who, "recovery_visits", self.stats.recovery_visits);
        reg.counter(who, "keepalive_visits", self.stats.keepalive_visits);
        reg.counter(who, "recovered_on_secondary", self.stats.recovered_on_secondary);
        reg.counter(who, "duplicate_packets", self.stats.duplicate_packets);
        reg.counter(who, "expired_losses", self.stats.expired_losses);
        reg.counter(who, "cancelled_visits", self.stats.cancelled_visits);
        reg.counter(who, "probe_visits", self.stats.probe_visits);
        reg.counter(who, "degraded_entries", self.stats.degraded_entries);
        reg.counter(who, "degraded_us", self.stats.degraded_ns / 1_000);
        reg.gauge(who, "outstanding", self.outstanding.len() as f64);
    }

    fn expected_arrival(&self, seq: u64) -> SimTime {
        self.base.expect("no base yet") + self.cfg.inter_packet_spacing * seq
    }

    fn loss_deadline(&self, seq: u64) -> SimTime {
        self.expected_arrival(seq) + self.cfg.packet_loss_timeout
    }

    /// When to *start* the switch so we arrive just before `seq` reaches
    /// the head of (or rolls off) the secondary queue.
    fn visit_time(&self, seq: u64) -> SimTime {
        let offset = self
            .cfg
            .ettrh()
            .saturating_sub(self.cfg.visit_safety_margin);
        self.expected_arrival(seq) + offset
    }

    fn recovery_expiry(&self, seq: u64) -> SimTime {
        // A packet recovered later than MTD (+ a grace for the switch
        // itself) is useless; stop hunting for it then.
        self.expected_arrival(seq)
            + self.cfg.max_tolerable_delay
            + self.cfg.packet_loss_timeout
    }

    fn is_received(&self, seq: u64) -> bool {
        self.received.get(seq as usize).copied().unwrap_or(false)
    }

    fn mark_received(&mut self, seq: u64) {
        let idx = seq as usize;
        if idx >= self.received.len() {
            self.received.resize(idx + 1, false);
        }
        self.received[idx] = true;
    }

    /// Audit: inputs arrive in causal order (the world feeds the state
    /// machine from a monotone event loop; a violation means an event was
    /// delivered out of order or with a stale timestamp).
    fn audit_input(&mut self, now: SimTime) {
        diversifi_simcore::sim_assert!(
            now >= self.last_input,
            "Algorithm 1 fed out of causal order: input at {now:?} after {:?}",
            self.last_input
        );
        self.last_input = now;
    }

    /// Feed one received stream packet (on either link). Returns commands.
    pub fn on_packet(&mut self, seq: u64, now: SimTime, via: LinkSide) -> Vec<Command> {
        self.audit_input(now);
        // Algorithm 1 legality: the NIC can only hear the secondary link
        // after the hop completed (and until the return hop retunes away) —
        // a secondary reception in any other residency means the world's
        // radio gating is broken.
        diversifi_simcore::sim_assert!(
            via != LinkSide::Secondary
                || matches!(self.residency, Residency::Secondary | Residency::ToPrimary),
            "secondary-link packet {seq} received while residency is {:?}",
            self.residency
        );
        if self.base.is_none() {
            // Calibrate the expected-arrival clock off the first packet.
            self.base = Some(now - self.cfg.inter_packet_spacing * seq);
        }
        if via == LinkSide::Secondary {
            self.last_secondary_contact = now;
            self.visit_heard = true;
            self.silent_visits = 0;
            // Hearing the secondary at all means it is alive again: leave
            // degraded mode and re-arm normal replication handling.
            if let Some(entered) = self.degraded_since.take() {
                self.stats.degraded_ns += now.saturating_since(entered).as_nanos();
                self.probe_backoff = self.cfg.probe_backoff_start;
            }
        }
        if self.is_received(seq) {
            self.stats.duplicate_packets += 1;
            return Vec::new();
        }
        self.mark_received(seq);
        // Received packets can never become losses: advance the checker
        // over any contiguous received prefix so wakeups stay sparse.
        while self.is_received(self.next_unchecked) {
            self.next_unchecked += 1;
        }
        if self.outstanding.remove(&seq).is_some() && via == LinkSide::Secondary {
            self.stats.recovered_on_secondary += 1;
        }
        // A recovery visit ends the moment nothing is outstanding; a probe
        // ends on its first reception (the question was only "alive?").
        if self.residency == Residency::Secondary
            && ((self.visit_reason == VisitReason::Recovery && self.outstanding.is_empty())
                || (self.visit_reason == VisitReason::Probe && via == LinkSide::Secondary))
        {
            return self.leave_secondary(now);
        }
        Vec::new()
    }

    fn leave_secondary(&mut self, now: SimTime) -> Vec<Command> {
        // Algorithm 1 legality: hop dwell is bounded — a recovery visit by
        // PLT, a keepalive visit by SRT (plus one IPS of timer-quantisation
        // grace). An unbounded stay would starve the primary link.
        if let Some(arrived) = self.visit_arrived {
            let max_stay = match self.visit_reason {
                VisitReason::Recovery => self.cfg.packet_loss_timeout,
                VisitReason::Keepalive | VisitReason::Probe => self.cfg.secondary_residency,
            };
            diversifi_simcore::sim_assert!(
                now.saturating_since(arrived) <= max_stay + self.cfg.inter_packet_spacing,
                "secondary dwell {:?} exceeded bound {:?} ({:?} visit)",
                now.saturating_since(arrived),
                max_stay + self.cfg.inter_packet_spacing,
                self.visit_reason
            );
        }
        // Dead-secondary detection: a completed visit that heard nothing is
        // a strike; enough consecutive strikes and the client stops paying
        // for hops that cannot recover anything, falling back to
        // primary-only with backed-off re-association probes.
        if !self.visit_heard {
            self.silent_visits += 1;
            if self.silent_visits >= self.cfg.dead_visit_threshold && self.degraded_since.is_none()
            {
                self.degraded_since = Some(now);
                self.stats.degraded_entries += 1;
                self.stats.expired_losses += self.outstanding.len() as u64;
                self.outstanding.clear();
                self.planned_visit = None;
                self.probe_backoff = self.cfg.probe_backoff_start;
                self.next_probe = now + self.probe_backoff;
            }
        }
        self.residency = Residency::ToPrimary;
        self.visit_arrived = None;
        let mut cmds = Vec::new();
        if self.mode == DeploymentMode::Middlebox {
            cmds.push(Command::MiddleboxStop);
        }
        cmds.push(Command::SwitchToPrimary);
        cmds
    }

    /// The world reports that a switch finished.
    pub fn on_residency(&mut self, residency: Residency, now: SimTime) -> Vec<Command> {
        self.audit_input(now);
        // Algorithm 1 legality: a completed retune must match the hop in
        // progress — Secondary only lands from ToSecondary, Primary only
        // from ToPrimary. Anything else is a phantom switch.
        diversifi_simcore::sim_assert!(
            match residency {
                Residency::Secondary => self.residency == Residency::ToSecondary,
                Residency::Primary => self.residency == Residency::ToPrimary,
                _ => false,
            },
            "illegal residency transition {:?} -> {residency:?}",
            self.residency
        );
        self.residency = residency;
        match residency {
            Residency::Secondary => {
                self.visit_arrived = Some(now);
                self.last_secondary_contact = now;
                self.visit_heard = false;
                // Recovery visits pull the ring from the missing packet on;
                // probes re-arm replication the same way (a restarted
                // middlebox keeps the flow table but has lost the streaming
                // state, so the start request is exactly the re-install).
                if self.mode == DeploymentMode::Middlebox
                    && matches!(self.visit_reason, VisitReason::Recovery | VisitReason::Probe)
                {
                    let from_seq = self
                        .outstanding
                        .keys()
                        .next()
                        .copied()
                        .unwrap_or(self.next_unchecked);
                    return vec![Command::MiddleboxStart { from_seq }];
                }
                Vec::new()
            }
            _ => Vec::new(),
        }
    }

    /// Timer poke: run all due bookkeeping and return any commands.
    /// The world should call this at (or after) [`Self::next_wakeup`].
    pub fn on_timer(&mut self, now: SimTime) -> Vec<Command> {
        self.audit_input(now);
        let mut cmds = Vec::new();

        // 1. Declare losses whose deadline has passed.
        if self.base.is_some() {
            while self.stream_end.is_none_or(|end| self.next_unchecked < end)
                && self.loss_deadline(self.next_unchecked) <= now
            {
                let seq = self.next_unchecked;
                self.next_unchecked += 1;
                if self.is_received(seq) {
                    continue;
                }
                if self.degraded_since.is_some() {
                    // Primary-only fallback: there is no live secondary to
                    // recover from, so the loss expires on the spot instead
                    // of scheduling a doomed hop.
                    self.stats.expired_losses += 1;
                    continue;
                }
                self.outstanding.insert(seq, self.recovery_expiry(seq));
                // Plan (or keep the earlier of) a recovery visit.
                let vt = self.visit_time(seq).max(now);
                match self.planned_visit {
                    Some((t, _)) if t <= vt => {}
                    _ => self.planned_visit = Some((vt, VisitReason::Recovery)),
                }
            }
        }

        // 2. Expire stale outstanding packets.
        let expired: Vec<u64> = self
            .outstanding
            .iter()
            .filter(|(_, exp)| **exp <= now)
            .map(|(s, _)| *s)
            .collect();
        for seq in expired {
            self.outstanding.remove(&seq);
            self.stats.expired_losses += 1;
        }

        match self.residency {
            Residency::Primary => {
                // 3a. Degraded: the only reason to hop is a re-association
                // probe, paced by the exponential backoff.
                if self.degraded_since.is_some() {
                    if self.next_probe <= now {
                        self.visit_reason = VisitReason::Probe;
                        self.stats.probe_visits += 1;
                        self.probe_backoff =
                            (self.probe_backoff * 2).min(self.cfg.probe_backoff_max);
                        self.next_probe = now + self.probe_backoff;
                        self.residency = Residency::ToSecondary;
                        cmds.push(Command::SwitchToSecondary);
                    }
                    return cmds;
                }
                // 3b. Execute or cancel a planned visit.
                if let Some((t, reason)) = self.planned_visit {
                    if t <= now {
                        self.planned_visit = None;
                        if reason == VisitReason::Recovery && self.outstanding.is_empty() {
                            self.stats.cancelled_visits += 1;
                        } else {
                            self.visit_reason = reason;
                            match reason {
                                VisitReason::Recovery => self.stats.recovery_visits += 1,
                                VisitReason::Keepalive => self.stats.keepalive_visits += 1,
                                VisitReason::Probe => self.stats.probe_visits += 1,
                            }
                            self.residency = Residency::ToSecondary;
                            cmds.push(Command::SwitchToSecondary);
                            return cmds;
                        }
                    }
                }
                // 4. Keepalive.
                if self.planned_visit.is_none()
                    && now.saturating_since(self.last_secondary_contact)
                        >= self.cfg.keepalive_timeout
                {
                    self.planned_visit = Some((now, VisitReason::Keepalive));
                    // Recurse once to execute immediately.
                    cmds.extend(self.on_timer(now));
                }
            }
            Residency::Secondary => {
                // 5. Leave when the visit has run its course.
                let arrived = self.visit_arrived.unwrap_or(now);
                let max_stay = match self.visit_reason {
                    VisitReason::Recovery => self.cfg.packet_loss_timeout,
                    VisitReason::Keepalive | VisitReason::Probe => self.cfg.secondary_residency,
                };
                let done = now.saturating_since(arrived) >= max_stay
                    || (self.visit_reason == VisitReason::Recovery
                        && self.outstanding.is_empty())
                    || (self.visit_reason == VisitReason::Probe && self.visit_heard);
                if done {
                    cmds.extend(self.leave_secondary(now));
                }
            }
            Residency::ToSecondary | Residency::ToPrimary => {}
        }
        cmds
    }

    /// Earliest instant at which [`Self::on_timer`] has work to do.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        let mut earliest: Option<SimTime> = None;
        let mut consider = |t: SimTime| {
            earliest = Some(earliest.map_or(t, |e: SimTime| e.min(t)));
        };
        if self.base.is_some()
            && self.stream_end.is_none_or(|end| self.next_unchecked < end)
        {
            consider(self.loss_deadline(self.next_unchecked));
        }
        // A planned visit can only be executed (or cancelled) from the
        // primary; considering it in other residencies would produce
        // wakeups the state machine cannot act on (and a same-instant
        // livelock in the driver).
        if self.residency == Residency::Primary {
            if let Some((t, _)) = self.planned_visit {
                consider(t);
            }
        }
        if let Some((_, exp)) = self.outstanding.iter().next() {
            consider(*exp);
        }
        match self.residency {
            Residency::Primary => {
                if self.degraded_since.is_some() {
                    // Degraded: keepalives are moot; the probe schedule is
                    // the only reason to wake for the secondary.
                    consider(self.next_probe);
                } else {
                    consider(self.last_secondary_contact + self.cfg.keepalive_timeout);
                }
            }
            Residency::Secondary => {
                let arrived = self.visit_arrived.unwrap_or(self.started_at);
                let stay = match self.visit_reason {
                    VisitReason::Recovery => self.cfg.packet_loss_timeout,
                    VisitReason::Keepalive | VisitReason::Probe => self.cfg.secondary_residency,
                };
                consider(arrived + stay);
            }
            _ => {}
        }
        earliest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IPS: SimDuration = SimDuration::from_millis(20);

    fn mk(mode: DeploymentMode) -> Algorithm1 {
        Algorithm1::new(Algorithm1Config::voip(), mode, SimTime::ZERO)
    }

    /// Deliver packets 0..n on the primary, 20 ms apart, starting at 5 ms.
    fn feed_clean(alg: &mut Algorithm1, n: u64) -> SimTime {
        let mut t = SimTime::from_millis(5);
        for seq in 0..n {
            assert!(alg.on_packet(seq, t, LinkSide::Primary).is_empty());
            let cmds = alg.on_timer(t);
            assert!(cmds.is_empty(), "unexpected {cmds:?} at seq {seq}");
            t += IPS;
        }
        t
    }

    #[test]
    fn derived_constants_match_paper() {
        let cfg = Algorithm1Config::voip();
        assert_eq!(cfg.ap_queue_len(), 5, "APQL = 100/20 = 5");
        // ETTRH = 20*5 − 2.8 = 97.2 ms.
        assert_eq!(cfg.ettrh(), SimDuration::from_micros(97_200));
        assert_eq!(cfg.packet_loss_timeout, IPS * 2, "PLT = 2·IPS");
    }

    #[test]
    fn clean_stream_never_switches() {
        let mut alg = mk(DeploymentMode::CustomizedAp);
        feed_clean(&mut alg, 500); // 10 s
        assert_eq!(alg.stats.recovery_visits, 0);
        assert_eq!(alg.residency(), Residency::Primary);
        assert_eq!(alg.outstanding_count(), 0);
    }

    #[test]
    fn single_loss_triggers_timed_visit() {
        let mut alg = mk(DeploymentMode::CustomizedAp);
        // Packets 0..10 arrive, 11 is lost, 12.. continue.
        let mut t = SimTime::from_millis(5);
        for seq in 0..=10 {
            alg.on_packet(seq, t, LinkSide::Primary);
            alg.on_timer(t);
            t += IPS;
        }
        // Skip 11. Deliver 12..20; poke timers along the way.
        t += IPS;
        let mut switch_at = None;
        for seq in 12..20u64 {
            alg.on_packet(seq, t, LinkSide::Primary);
            for c in alg.on_timer(t) {
                if c == Command::SwitchToSecondary {
                    switch_at = Some(t);
                }
            }
            t += IPS;
        }
        let expected_arrival_11 = SimTime::from_millis(5) + IPS * 11;
        let visit = switch_at.expect("a recovery visit must have been commanded");
        let offset = visit.saturating_since(expected_arrival_11);
        // Visit should start ETTRH − safety ≈ 93.2 ms after the expected
        // arrival (quantised by our 20 ms poke cadence).
        assert!(
            offset >= SimDuration::from_millis(93) && offset <= SimDuration::from_millis(115),
            "visit offset {offset}"
        );
        assert_eq!(alg.stats.recovery_visits, 1);
    }

    #[test]
    fn recovery_visit_fetches_and_returns() {
        let mut alg = mk(DeploymentMode::CustomizedAp);
        let mut t = SimTime::from_millis(5);
        for seq in 0..=10 {
            alg.on_packet(seq, t, LinkSide::Primary);
            alg.on_timer(t);
            t += IPS;
        }
        // 11 lost; the stream continues on the primary while we wait.
        let mut switched = false;
        let mut now = t;
        for seq in 12..22 {
            now += IPS;
            alg.on_packet(seq, now, LinkSide::Primary);
            if alg.on_timer(now).contains(&Command::SwitchToSecondary) {
                switched = true;
                break;
            }
        }
        assert!(switched);
        assert_eq!(alg.residency(), Residency::ToSecondary);
        // World completes the switch.
        let lsl = alg.config().link_switch_latency;
        let arrive = now + lsl;
        assert!(alg.on_residency(Residency::Secondary, arrive).is_empty());
        // The secondary AP delivers the missing packet.
        let cmds = alg.on_packet(11, arrive + SimDuration::from_millis(1), LinkSide::Secondary);
        assert_eq!(cmds, vec![Command::SwitchToPrimary], "returns immediately on recovery");
        assert_eq!(alg.stats.recovered_on_secondary, 1);
        alg.on_residency(Residency::Primary, arrive + SimDuration::from_millis(1) + lsl);
        assert_eq!(alg.residency(), Residency::Primary);
    }

    #[test]
    fn visit_cancelled_if_packet_arrives_late_on_primary() {
        let mut alg = mk(DeploymentMode::CustomizedAp);
        let mut t = SimTime::from_millis(5);
        for seq in 0..=10 {
            alg.on_packet(seq, t, LinkSide::Primary);
            alg.on_timer(t);
            t += IPS;
        }
        // 11 delayed: declared lost at +40 ms, then arrives at +60 ms
        // (e.g. drained from the primary AP's queue).
        let expected_11 = SimTime::from_millis(5) + IPS * 11;
        alg.on_timer(expected_11 + SimDuration::from_millis(45));
        assert_eq!(alg.outstanding_count(), 1);
        alg.on_packet(11, expected_11 + SimDuration::from_millis(60), LinkSide::Primary);
        assert_eq!(alg.outstanding_count(), 0);
        // 12..16 drain from the primary AP's queue right behind it.
        for k in 0..5u64 {
            let at = expected_11 + SimDuration::from_millis(62) + SimDuration::from_millis(2) * k;
            alg.on_packet(12 + k, at, LinkSide::Primary);
        }
        // When the planned visit time comes, it is cancelled.
        let cmds = alg.on_timer(expected_11 + SimDuration::from_millis(120));
        assert!(cmds.is_empty());
        assert_eq!(alg.stats.cancelled_visits, 1);
        assert_eq!(alg.stats.recovery_visits, 0);
    }

    #[test]
    fn unrecovered_loss_expires() {
        let mut alg = mk(DeploymentMode::CustomizedAp);
        let mut t = SimTime::from_millis(5);
        for seq in 0..=10 {
            alg.on_packet(seq, t, LinkSide::Primary);
            alg.on_timer(t);
            t += IPS;
        }
        // 11 lost forever; visit happens but nothing arrives. The rest of
        // the stream keeps flowing (buffered at the primary while away).
        let mut now = t;
        for seq in 12..24 {
            now += IPS;
            alg.on_packet(seq, now, LinkSide::Primary);
            let cmds = alg.on_timer(now);
            if cmds.contains(&Command::SwitchToSecondary) {
                now += alg.config().link_switch_latency;
                alg.on_residency(Residency::Secondary, now);
            }
            if cmds.contains(&Command::SwitchToPrimary) {
                now += alg.config().link_switch_latency;
                alg.on_residency(Residency::Primary, now);
            }
        }
        assert_eq!(alg.outstanding_count(), 0, "loss must not be hunted forever");
        assert_eq!(alg.stats.expired_losses, 1);
        assert_eq!(alg.residency(), Residency::Primary, "client returned home");
    }

    #[test]
    fn recovery_visit_caps_at_plt() {
        let mut alg = mk(DeploymentMode::CustomizedAp);
        let mut t = SimTime::from_millis(5);
        for seq in 0..=10 {
            alg.on_packet(seq, t, LinkSide::Primary);
            alg.on_timer(t);
            t += IPS;
        }
        alg.set_stream_end(12);
        let mut now = t;
        loop {
            now += SimDuration::from_millis(5);
            if alg.on_timer(now).contains(&Command::SwitchToSecondary) {
                break;
            }
        }
        now += alg.config().link_switch_latency;
        alg.on_residency(Residency::Secondary, now);
        // Nothing arrives; after PLT the client must give up and go home.
        let leave_by = now + alg.config().packet_loss_timeout;
        let cmds = alg.on_timer(leave_by);
        assert!(cmds.contains(&Command::SwitchToPrimary), "{cmds:?}");
    }

    #[test]
    fn keepalive_visit_after_akt() {
        let mut alg = mk(DeploymentMode::CustomizedAp);
        alg.set_stream_end(100);
        let end = feed_clean(&mut alg, 100);
        // Jump past AKT without any secondary contact.
        let later = SimTime::ZERO + alg.config().keepalive_timeout + SimDuration::from_millis(1);
        assert!(later > end);
        let cmds = alg.on_timer(later);
        assert!(cmds.contains(&Command::SwitchToSecondary), "{cmds:?}");
        assert_eq!(alg.stats.keepalive_visits, 1);
        // Arrive; keepalive stays SRT then leaves.
        let arrive = later + alg.config().link_switch_latency;
        alg.on_residency(Residency::Secondary, arrive);
        let at_srt = arrive + alg.config().secondary_residency;
        assert!(alg.on_timer(at_srt).contains(&Command::SwitchToPrimary));
    }

    #[test]
    fn middlebox_mode_runs_start_stop_protocol() {
        let mut alg = mk(DeploymentMode::Middlebox);
        let mut t = SimTime::from_millis(5);
        for seq in 0..=10 {
            alg.on_packet(seq, t, LinkSide::Primary);
            alg.on_timer(t);
            t += IPS;
        }
        let mut now = t;
        let mut seq = 12;
        let mut next_feed = t;
        loop {
            now += SimDuration::from_millis(5);
            if now >= next_feed {
                alg.on_packet(seq, now, LinkSide::Primary);
                seq += 1;
                next_feed += IPS;
            }
            if alg.on_timer(now).contains(&Command::SwitchToSecondary) {
                break;
            }
        }
        now += alg.config().link_switch_latency;
        let cmds = alg.on_residency(Residency::Secondary, now);
        assert_eq!(cmds, vec![Command::MiddleboxStart { from_seq: 11 }]);
        // Recovery arrives via the middlebox → stop, then switch back.
        let cmds = alg.on_packet(11, now + SimDuration::from_millis(3), LinkSide::Secondary);
        assert_eq!(cmds, vec![Command::MiddleboxStop, Command::SwitchToPrimary]);
    }

    #[test]
    fn duplicates_are_counted_not_redelivered() {
        let mut alg = mk(DeploymentMode::CustomizedAp);
        let t = SimTime::from_millis(5);
        alg.on_packet(0, t, LinkSide::Primary);
        // A retransmitted copy shows up right behind the original.
        alg.on_packet(0, t + SimDuration::from_millis(1), LinkSide::Primary);
        assert_eq!(alg.stats.duplicate_packets, 1);
    }

    #[test]
    fn secondary_packet_outside_visit_trips_audit() {
        if !diversifi_simcore::check::AUDIT_COMPILED {
            return; // nothing to catch in an audit-free build
        }
        // The legality checker must reject a secondary-link reception while
        // the NIC is resident on the primary (the radio cannot hear it).
        let mut alg = mk(DeploymentMode::CustomizedAp);
        let t = SimTime::from_millis(5);
        alg.on_packet(0, t, LinkSide::Primary);
        let r = std::panic::catch_unwind(move || {
            alg.on_packet(1, t + SimDuration::from_millis(1), LinkSide::Secondary)
        });
        assert!(r.is_err(), "audit must reject the phantom secondary reception");
    }

    #[test]
    fn out_of_order_input_trips_audit() {
        if !diversifi_simcore::check::AUDIT_COMPILED {
            return; // nothing to catch in an audit-free build
        }
        let mut alg = mk(DeploymentMode::CustomizedAp);
        alg.on_packet(0, SimTime::from_millis(50), LinkSide::Primary);
        let r = std::panic::catch_unwind(move || alg.on_timer(SimTime::from_millis(10)));
        assert!(r.is_err(), "audit must reject time travel in the input feed");
    }

    #[test]
    fn next_wakeup_tracks_loss_deadline() {
        let mut alg = mk(DeploymentMode::CustomizedAp);
        let t = SimTime::from_millis(5);
        alg.on_packet(0, t, LinkSide::Primary);
        alg.on_timer(t);
        // Next deadline: seq 1 expected at 25 ms, deadline +PLT = 65 ms.
        let wake = alg.next_wakeup().unwrap();
        assert_eq!(wake, SimTime::from_millis(65));
    }

    /// Feed 0..=10 cleanly, then let the primary fall silent while the
    /// secondary is stone dead: every recovery visit hears nothing. Drives
    /// the machine until it declares the secondary dead, responding to
    /// switch commands like the world would. Returns the current time.
    fn drive_to_degraded(alg: &mut Algorithm1) -> SimTime {
        alg.set_stream_end(100_000);
        let mut t = SimTime::from_millis(5);
        for seq in 0..=10 {
            alg.on_packet(seq, t, LinkSide::Primary);
            alg.on_timer(t);
            t += IPS;
        }
        let mut now = t;
        while !alg.is_degraded() {
            now += SimDuration::from_millis(5);
            assert!(now < SimTime::from_secs(10), "degradation never triggered");
            if alg.on_timer(now).contains(&Command::SwitchToSecondary) {
                now += alg.config().link_switch_latency;
                alg.on_residency(Residency::Secondary, now);
                // Hear nothing; dwell until the machine gives up.
                loop {
                    now += SimDuration::from_millis(5);
                    if alg.on_timer(now).contains(&Command::SwitchToPrimary) {
                        break;
                    }
                }
                now += alg.config().link_switch_latency;
                alg.on_residency(Residency::Primary, now);
            }
        }
        now
    }

    #[test]
    fn dead_secondary_degrades_after_threshold_silent_visits() {
        let mut alg = mk(DeploymentMode::CustomizedAp);
        drive_to_degraded(&mut alg);
        assert_eq!(alg.stats.degraded_entries, 1);
        assert_eq!(
            alg.stats.recovery_visits,
            alg.config().dead_visit_threshold as u64,
            "exactly the threshold number of silent visits before giving up"
        );
        assert_eq!(alg.outstanding_count(), 0, "outstanding cleared on entry");
    }

    #[test]
    fn degraded_probes_back_off_exponentially() {
        let mut alg = mk(DeploymentMode::CustomizedAp);
        let mut now = drive_to_degraded(&mut alg);
        let mut probe_times = Vec::new();
        while now < SimTime::from_secs(40) && probe_times.len() < 4 {
            now += SimDuration::from_millis(5);
            if alg.on_timer(now).contains(&Command::SwitchToSecondary) {
                probe_times.push(now);
                now += alg.config().link_switch_latency;
                alg.on_residency(Residency::Secondary, now);
                loop {
                    now += SimDuration::from_millis(5);
                    if alg.on_timer(now).contains(&Command::SwitchToPrimary) {
                        break;
                    }
                }
                now += alg.config().link_switch_latency;
                alg.on_residency(Residency::Primary, now);
            }
        }
        assert_eq!(probe_times.len(), 4, "probing must continue while degraded");
        assert_eq!(alg.stats.probe_visits, 4);
        // Consecutive probe gaps double (1 s quantisation slack from the
        // 5 ms poke cadence): 2 s, 4 s, 8 s.
        let gaps: Vec<SimDuration> =
            probe_times.windows(2).map(|w| w[1].saturating_since(w[0])).collect();
        for pair in gaps.windows(2) {
            assert!(
                pair[1] > pair[0] + SimDuration::from_millis(500),
                "probe gaps must grow: {gaps:?}"
            );
        }
        // Losses declared while degraded expire on the spot, never hunted.
        assert_eq!(alg.outstanding_count(), 0);
        assert!(alg.stats.expired_losses > 0);
    }

    #[test]
    fn probe_reception_exits_degraded_and_resets_backoff() {
        let mut alg = mk(DeploymentMode::CustomizedAp);
        let mut now = drive_to_degraded(&mut alg);
        // Ride to the first probe.
        loop {
            now += SimDuration::from_millis(5);
            if alg.on_timer(now).contains(&Command::SwitchToSecondary) {
                break;
            }
        }
        now += alg.config().link_switch_latency;
        alg.on_residency(Residency::Secondary, now);
        // The secondary is back: it delivers a fresh packet. The probe ends
        // immediately and the client re-enters normal operation.
        let seq = 5000;
        let cmds = alg.on_packet(seq, now + SimDuration::from_millis(1), LinkSide::Secondary);
        assert!(cmds.contains(&Command::SwitchToPrimary), "{cmds:?}");
        assert!(!alg.is_degraded(), "hearing the secondary ends the fallback");
        assert!(alg.stats.degraded_ns > 0, "the degraded interval was accounted");
        alg.on_residency(Residency::Primary, now + SimDuration::from_millis(1) + alg.config().link_switch_latency);
        // Back to normal: losses are hunted again.
        assert!(alg.next_wakeup().is_some());
    }

    #[test]
    fn middlebox_probe_reissues_start_request() {
        let mut alg = mk(DeploymentMode::Middlebox);
        let mut now = drive_to_degraded(&mut alg);
        loop {
            now += SimDuration::from_millis(5);
            if alg.on_timer(now).contains(&Command::SwitchToSecondary) {
                break;
            }
        }
        now += alg.config().link_switch_latency;
        let cmds = alg.on_residency(Residency::Secondary, now);
        assert_eq!(
            cmds.len(),
            1,
            "a probe visit in middlebox mode must re-arm replication: {cmds:?}"
        );
        assert!(
            matches!(cmds[0], Command::MiddleboxStart { .. }),
            "expected a start request, got {cmds:?}"
        );
    }

    #[test]
    fn burst_loss_single_visit_recovers_all() {
        let mut alg = mk(DeploymentMode::CustomizedAp);
        let mut t = SimTime::from_millis(5);
        for seq in 0..=10 {
            alg.on_packet(seq, t, LinkSide::Primary);
            alg.on_timer(t);
            t += IPS;
        }
        // 11, 12, 13 all lost. The stream continues from 14 while we poke.
        let mut now = t;
        let mut seq = 14;
        let mut next_feed = t + IPS * 3;
        loop {
            now += SimDuration::from_millis(5);
            if now >= next_feed {
                alg.on_packet(seq, now, LinkSide::Primary);
                seq += 1;
                next_feed += IPS;
            }
            if alg.on_timer(now).contains(&Command::SwitchToSecondary) {
                break;
            }
        }
        assert!(alg.outstanding_count() >= 1);
        now += alg.config().link_switch_latency;
        alg.on_residency(Residency::Secondary, now);
        // Secondary delivers 11, 12, 13 back-to-back; only the last ends
        // the visit (all outstanding by then).
        now += SimDuration::from_millis(1);
        alg.on_timer(now); // let deadlines for 12/13 be declared if due
        let c1 = alg.on_packet(11, now, LinkSide::Secondary);
        let c2 = alg.on_packet(12, now + SimDuration::from_micros(800), LinkSide::Secondary);
        let c3 = alg.on_packet(13, now + SimDuration::from_micros(1600), LinkSide::Secondary);
        let went_home = [c1.as_slice(), c2.as_slice(), c3.as_slice()]
            .iter()
            .any(|c| c.contains(&Command::SwitchToPrimary));
        assert!(went_home, "visit must end after recovering the burst");
        assert!(alg.stats.recovered_on_secondary >= 1);
        assert_eq!(alg.stats.recovery_visits, 1, "one visit covers the whole burst");
    }
}
