//! The closed-loop single-NIC world: the paper's §6 evaluation testbed.
//!
//! One wired sender, an SDN switch (or source replication), two APs on
//! different channels, an optional middlebox, and a single-NIC client
//! running the Algorithm-1 state machine with real PSM signalling. An
//! optional greedy TCP flow shares the DEF link for the coexistence
//! experiment.
//!
//! ```text
//!   sender ──LAN──► SDN switch ──► primary AP ───ch1───► client (DEF/primary)
//!                        │                                  ▲ hops
//!                        └────────► middlebox ─► secondary AP ─ch11─┘
//!                                   (or directly to the secondary AP
//!                                    in customized-AP mode)
//! ```
//!
//! Everything stochastic draws from per-component seeded streams, so a run
//! is a pure function of `(WorldConfig, seed)` and DiversiFi-on vs -off are
//! paired experiments over the same channel realisation.

use diversifi_client::{
    Algorithm1, Algorithm1Config, Command, DeploymentMode, LinkSide, Residency,
};
use diversifi_net::{Middlebox, MiddleboxConfig, StreamPacket, TcpConfig, TcpReceiver, TcpSender};
use diversifi_simcore::telemetry::{self, Phase, TelemetrySession};
use diversifi_simcore::{
    trace_event, ComponentId, DecisionKind, EventQueue, FaultEdge, FaultEffect, FaultOutcome,
    FaultPlan, FaultWindow, RngStream, SeedFactory, SimDuration, SimTime, TraceDetail, TraceKind,
    WorkerArena,
};
use diversifi_voip::{
    InputFate, StreamSpec, StreamTrace, WorkloadKind, WorkloadOutcome, WorkloadState,
};
use diversifi_wifi::{
    mac, AccessPoint, AdapterId, ApConfig, ApId, ChannelRealization, ClientId, Enqueued, FlowId,
    Frame, FrameKind, LinkConfig, LinkModel, MacMetrics, QueueDiscipline, RealizationCache,
    TxOutcome,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which client behaviour this run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunMode {
    /// Client stays on the primary link; no replication (baseline).
    PrimaryOnly,
    /// Client stays on the secondary link; no replication (baseline).
    SecondaryOnly,
    /// DiversiFi with the §5.3.1 customized secondary AP (head-drop, short
    /// settable queue).
    DiversifiCustomAp,
    /// DiversiFi with an unmodified secondary AP and the §5.3.2 middlebox.
    DiversifiMiddlebox,
    /// The §5.3 "End-to-End" strawman: DiversiFi client logic against a
    /// *stock* secondary AP (tail-drop, deep queue) — kept as an ablation
    /// of why the queue discipline matters.
    EndToEndPsm,
}

impl RunMode {
    /// Does this mode replicate the stream to the secondary path?
    pub fn replicates(self) -> bool {
        !matches!(self, RunMode::PrimaryOnly | RunMode::SecondaryOnly)
    }
}

/// Static configuration of one world run.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// The real-time stream workload.
    pub spec: StreamSpec,
    /// Which workload the stream carries (VoIP or FPS tick traffic). The
    /// downlink shape always comes from `spec`; the workload adds the
    /// delivery accounting, the optional uplink tick stream, and the
    /// QoE reduction. Set through [`WorldConfig::set_workload`] so `spec`
    /// stays consistent.
    pub workload: WorkloadKind,
    /// Radio link to the primary AP.
    pub primary: LinkConfig,
    /// Radio link to the secondary AP.
    pub secondary: LinkConfig,
    /// Client behaviour.
    pub mode: RunMode,
    /// Algorithm-1 constants.
    pub alg: Algorithm1Config,
    /// Sender → switch → AP wired latency.
    pub lan_delay: SimDuration,
    /// Switch → middlebox → secondary AP extra latency (one way).
    pub middlebox_net_delay: SimDuration,
    /// Middlebox tuning.
    pub middlebox: MiddleboxConfig,
    /// Run a concurrent greedy TCP download on the DEF link.
    pub with_tcp: bool,
    /// Per-attempt loss probability of an uplink control message
    /// (PS-Null, middlebox request, TCP ACK); the driver retries Null
    /// frames 5 times, as in the paper's ath9k fix.
    pub uplink_loss: f64,
    /// One-way latency of an uplink control message.
    pub uplink_delay: SimDuration,
    /// Frames the secondary AP hands to its hardware queue in one go when
    /// the client wakes (§5.3.1's residual-duplication source).
    pub wake_batch: usize,
    /// Fault injection: a deterministic schedule of heterogeneous faults
    /// (AP power cycles and flaps, middlebox restarts, brownouts, uplink
    /// outages, interference storms). Empty in normal runs. The legacy
    /// single-reboot knob converts losslessly via `ApReboot::into()`.
    pub faults: FaultPlan,
}

/// A scheduled AP power cycle — the legacy single-fault knob, kept as the
/// back-compat constructor for [`FaultPlan`] (`reboot.into()`).
#[derive(Clone, Copy, Debug)]
pub struct ApReboot {
    /// Which AP: 0 = primary, 1 = secondary.
    pub ap: usize,
    /// When the AP goes down.
    pub at: SimTime,
    /// How long it stays down before accepting re-associations.
    pub outage: SimDuration,
}

impl From<ApReboot> for FaultPlan {
    fn from(rb: ApReboot) -> FaultPlan {
        FaultPlan::single_ap_reboot(rb.ap, rb.at, rb.outage)
    }
}

impl WorldConfig {
    /// The §6.1 testbed shape: two 2.4 GHz APs on channels 1 and 11 across
    /// an office, VoIP stream, customized-AP DiversiFi.
    pub fn testbed(primary: LinkConfig, secondary: LinkConfig) -> WorldConfig {
        WorldConfig {
            spec: StreamSpec::voip(),
            workload: WorkloadKind::Voip,
            primary,
            secondary,
            mode: RunMode::DiversifiCustomAp,
            alg: Algorithm1Config::voip(),
            lan_delay: SimDuration::from_micros(500),
            middlebox_net_delay: SimDuration::from_micros(250),
            middlebox: MiddleboxConfig::default(),
            with_tcp: false,
            uplink_loss: 0.05,
            uplink_delay: SimDuration::from_micros(250),
            wake_batch: 1,
            faults: FaultPlan::none(),
        }
    }

    /// Select the workload, deriving the downlink `spec` from it (an FPS
    /// session's downlink is its state-tick stream). Tests may shorten
    /// `spec.duration` afterwards — the workload state follows `spec`.
    pub fn set_workload(&mut self, kind: WorkloadKind) {
        self.workload = kind;
        if let WorkloadKind::Fps(fps) = kind {
            self.spec = fps.downlink_spec();
            // Algorithm 1's IPS clock must match the stream's real cadence:
            // the expected-arrival base calibrates off `now - IPS * seq`,
            // which underflows (and mis-schedules every visit) if IPS stays
            // at the VoIP 20 ms while state ticks arrive every `fps.tick`.
            // MTD scales with it so the requested AP queue still covers the
            // same wall-clock depth of recoverable packets.
            self.alg.inter_packet_spacing = fps.tick;
            self.alg.max_tolerable_delay = fps.deadline;
        }
    }
}

/// Measured components of one primary→secondary recovery switch, feeding
/// Table 3.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct SwitchDelaySample {
    /// Channel switch + PS signalling (ms).
    pub switching_ms: f64,
    /// Network leg: wake message / middlebox round trip (ms).
    pub network_ms: f64,
    /// Queueing at the middlebox (ms); zero in AP mode.
    pub queuing_ms: f64,
}

impl SwitchDelaySample {
    /// Total recovery-path latency (ms).
    pub fn total_ms(&self) -> f64 {
        self.switching_ms + self.network_ms + self.queuing_ms
    }
}

/// Everything a run produces.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The stream as the client's application saw it.
    pub trace: StreamTrace,
    /// What the primary link alone delivered (before recovery).
    pub primary_deliveries: u64,
    /// Client-side Algorithm-1 counters.
    pub alg_stats: diversifi_client::Alg1Stats,
    /// Frames transmitted over the secondary air interface.
    pub secondary_air_tx: u64,
    /// Of those, frames that were *wasteful* (already received or for an
    /// absent client).
    pub secondary_wasteful_tx: u64,
    /// TCP goodput in bits/s (0 when `with_tcp` is false).
    pub tcp_throughput_bps: f64,
    /// TCP diagnostics: (transmissions, acked segments, fast retransmits,
    /// RTO expiries).
    pub tcp_diag: (u64, u64, u64, u64),
    /// Per-switch delay breakdowns (Table 3).
    pub switch_delays: Vec<SwitchDelaySample>,
    /// One entry per injected fault window: when it struck, when it cleared,
    /// and when the stream was first heard again (MTTR).
    pub fault_outcomes: Vec<FaultOutcome>,
    /// Workload-native quality summary (`Voip` carries nothing extra; FPS
    /// carries per-tick deadline metrics and the deadline-based QoE).
    pub workload: WorkloadOutcome,
}

const DEF: AdapterId = AdapterId(0);
const PRIMARY: AdapterId = AdapterId(1);
const SECONDARY: AdapterId = AdapterId(2);
// The real-time stream's flow id — VoIP or FPS state ticks, depending on
// the configured workload (historically `VOIP_FLOW`; the id is unchanged).
const STREAM_FLOW: FlowId = FlowId(1);
const TCP_FLOW: FlowId = FlowId(2);
const CLIENT: ClientId = ClientId(0);

/// A world event. Every pop moves one of these through the run loop, so
/// it stays small: bulky per-exchange state (the in-flight frame and its
/// MAC outcome) lives in `World::in_flight`, not in the event. The
/// explicit word-sized tag puts every payload at an 8-byte-aligned offset,
/// so an event moves as whole words; with a 1-byte tag the move from pop
/// to dispatch copied 47 bytes at odd offsets and stalled on store
/// forwarding.
#[derive(Debug)]
#[repr(u64)]
enum Ev {
    /// The sender emits stream packet `seq`.
    SourceEmit(u64),
    /// A stream packet reaches an AP's queue. `ap`: 0 = primary, 1 = secondary.
    ApArrival { ap: usize, frame: Frame },
    /// The AP's radio finished the exchange held in `World::in_flight[ap]`.
    ApTxDone(usize),
    /// Try to start a transmission at an idle AP.
    ApKick(usize),
    /// Client state-machine timer.
    ClientTimer,
    /// The PS exchange is done; the client tears off the current channel.
    BeginRetune { side: LinkSide },
    /// The client finished retuning to `side`.
    RetuneDone { side: LinkSide },
    /// A power-save Null frame reached an AP. `sleeping` = PM bit.
    PsDelivered { ap: usize, adapter: AdapterId, sleeping: bool },
    /// A replicated packet reaches the middlebox.
    MiddleboxIngest(StreamPacket),
    /// A middlebox control message (true = start-from, false = stop).
    MiddleboxControl { start: Option<u64> },
    /// TCP sender wants to (re)fill the window.
    TcpKick,
    /// A TCP ACK reaches the sender.
    TcpAck(u64),
    /// Periodic TCP RTO check.
    TcpTimer,
    /// The client fires uplink input tick `tick` (FPS workloads only;
    /// never scheduled when the workload has no input stream, so VoIP
    /// runs see zero extra events and zero extra RNG draws).
    InputTick(u64),
    /// Fault injection: an AP powers down (`up == false`) or comes back.
    /// `outage` is how long this window keeps the AP down; `window` indexes
    /// the world's expanded fault-window table, so overlapping plans never
    /// read each other's durations.
    ApReboot { ap: usize, up: bool, outage: SimDuration, window: usize },
    /// A non-AP fault window opens (middlebox restart, brownout, uplink
    /// outage, interference storm).
    FaultStart { window: usize },
    /// The matching window closes (for middlebox restarts this fires only
    /// after the SDN rule re-install delay).
    FaultEnd { window: usize },
    /// End of measurement.
    Done,
}

const _: () = assert!(std::mem::size_of::<Ev>() <= 48, "world::Ev must stay at most 48 bytes");

/// The world simulator. Borrows its configuration so paired arms (N modes ×
/// one seed) share a single `WorldConfig` instead of cloning it per run.
pub struct World<'a> {
    cfg: &'a WorldConfig,
    q: EventQueue<Ev>,
    aps: [AccessPoint; 2],
    links: [LinkModel; 2],
    /// The frame exchange each AP's radio is running, as `(adapter, frame,
    /// outcome)`: set when the exchange starts, taken by its
    /// `Ev::ApTxDone`. `Some` means the radio is busy, so an AP never has
    /// more than one exchange in flight.
    in_flight: [Option<(AdapterId, Frame, TxOutcome)>; 2],
    client_side: Option<LinkSide>, // None while retuning
    alg: Algorithm1,
    mbox: Middlebox,
    workload: WorkloadState,
    tcp_tx: TcpSender,
    tcp_rx: TcpReceiver,
    rng: RngStream,
    // Instrumentation.
    primary_deliveries: u64,
    secondary_air_tx: u64,
    secondary_wasteful_tx: u64,
    switch_delays: Vec<SwitchDelaySample>,
    /// Per-AP MAC telemetry (attempt/airtime distributions); fed only while
    /// a telemetry session is active, exported at finalize.
    mac_metrics: [MacMetrics; 2],
    /// Time the most recent switch-to-secondary started.
    pending_switch_started: Option<SimTime>,
    client_timer_armed: Option<SimTime>,
    done: bool,
    /// Packet-conservation audit over every stream copy that enters the
    /// network (TCP is excluded: retransmission breaks one-copy-one-fate).
    /// Counter updates are unconditional and behaviour-neutral; the
    /// assertions they feed are gated on `simcore::check`.
    ledger: diversifi_simcore::check::PacketLedger,
    /// Conservation audit over uplink input ticks (FPS workloads; stays
    /// all-zero for workloads without an input stream). Same gating rules
    /// as `ledger`.
    tick_ledger: diversifi_simcore::check::TickLedger,
    // Fault engine. `fault_windows` is the plan expanded once at build
    // time; the rest is the live impairment state those windows drive.
    fault_windows: Vec<FaultWindow>,
    /// `Some(t)` once the stream was first heard again after window `i`
    /// cleared; `None` if the run ended degraded.
    fault_recovered: Vec<Option<SimTime>>,
    /// Windows that have cleared but not yet been confirmed recovered by a
    /// heard stream delivery.
    pending_recovery: Vec<usize>,
    /// The middlebox process is down (restart window open): replicated
    /// copies are discarded at the door and control messages are lost.
    mbox_down: bool,
    /// Open brownout windows (indices into `fault_windows`).
    active_brownouts: Vec<usize>,
    /// Open uplink-outage windows (count; overlaps nest).
    uplink_down: u32,
    /// Open interference-storm windows (indices into `fault_windows`).
    active_storms: Vec<usize>,
}

impl<'a> World<'a> {
    /// Build a world for `cfg`, seeding all components from `seeds`.
    ///
    /// Both links' channel realisations are materialised fresh over the run
    /// horizon and replayed, so a run is a pure function of `(cfg, seed)`
    /// and [`World::new_cached_in`] is bit-identical to this by
    /// construction. This is the reference the parity suites pin the
    /// cached path against.
    pub fn new(cfg: &'a WorldConfig, seeds: &SeedFactory) -> World<'a> {
        let horizon = Self::channel_horizon(cfg);
        let reals = [(&cfg.primary, 0), (&cfg.secondary, 1)].map(|(link, index)| {
            Arc::new(ChannelRealization::materialize(link, seeds, index, horizon))
        });
        Self::build(cfg, seeds, reals, &mut WorkerArena::new())
    }

    /// Like [`World::new`], but fetches the channel realisations from
    /// `cache`, so paired arms and repeated seeds materialise each
    /// `(link, seed)` environment exactly once, and takes the hot-path
    /// containers (the event queue and the fault-bookkeeping vectors) from
    /// a per-worker `arena` instead of allocating them. Pair with
    /// [`World::run_in`] so the containers return to the arena when the
    /// run finishes. Results are bit-identical to [`World::new`]: the cache
    /// only replays pure functions of `(link, seed)` and the arena only
    /// supplies capacity (see `diversifi_simcore::arena`).
    pub fn new_cached_in(
        cfg: &'a WorldConfig,
        seeds: &SeedFactory,
        cache: &RealizationCache,
        arena: &mut WorkerArena,
    ) -> World<'a> {
        let horizon = Self::channel_horizon(cfg);
        let reals = [(&cfg.primary, 0), (&cfg.secondary, 1)]
            .map(|(link, index)| cache.get_or_materialize(link, seeds, index, horizon));
        Self::build(cfg, seeds, reals, arena)
    }

    /// Horizon the realisations must cover: the measurement window plus the
    /// drain tail, plus slack for MAC exchanges straddling the end. Queries
    /// past it freeze deterministically, so the slack only has to be
    /// generous, not exact.
    fn channel_horizon(cfg: &WorldConfig) -> SimTime {
        SimTime::ZERO + cfg.spec.duration + SimDuration::from_millis(500) + SimDuration::from_secs(2)
    }

    /// The one constructor behind [`World::new`] and
    /// [`World::new_cached_in`]: links replay `reals` (primary, secondary)
    /// and the recyclable containers come from `arena`.
    fn build(
        cfg: &'a WorldConfig,
        seeds: &SeedFactory,
        reals: [Arc<ChannelRealization>; 2],
        arena: &mut WorkerArena,
    ) -> World<'a> {
        let [primary, secondary] = reals;
        let links = [
            LinkModel::from_realization(cfg.primary.clone(), primary, seeds, 0),
            LinkModel::from_realization(cfg.secondary.clone(), secondary, seeds, 1),
        ];
        let fault_windows = cfg.faults.windows();
        let mut ap0_cfg = ApConfig::new(ApId(0), cfg.primary.channel);
        ap0_cfg.wake_batch = cfg.wake_batch;
        let mut ap1_cfg = ApConfig::new(ApId(1), cfg.secondary.channel);
        ap1_cfg.wake_batch = cfg.wake_batch;
        let mut ap0 = AccessPoint::new(ap0_cfg);
        let mut ap1 = AccessPoint::new(ap1_cfg);

        // Associations. DEF and the primary real-time adapter live on the
        // primary AP; the secondary adapter on the secondary AP, with the
        // queue discipline the deployment calls for.
        ap0.associate(DEF, QueueDiscipline::stock());
        ap0.associate(PRIMARY, QueueDiscipline::stock());
        ap1.associate(SECONDARY, Self::secondary_discipline(cfg));

        let deployment = match cfg.mode {
            RunMode::DiversifiMiddlebox => DeploymentMode::Middlebox,
            _ => DeploymentMode::CustomizedAp,
        };
        let mut alg = Algorithm1::new(cfg.alg, deployment, SimTime::ZERO);
        alg.set_stream_end(cfg.spec.packet_count());

        let mut mbox = Middlebox::new(cfg.middlebox);
        mbox.register(STREAM_FLOW, Some(cfg.alg.ap_queue_len()));
        let workload = WorkloadState::new(cfg.workload, cfg.spec, SimTime::ZERO);

        let client_side = match cfg.mode {
            RunMode::SecondaryOnly => Some(LinkSide::Secondary),
            _ => Some(LinkSide::Primary),
        };

        let tcp_tx = TcpSender::new(TcpConfig::default());

        let q = arena.take();
        let pending_recovery = arena.take();
        let active_brownouts = arena.take();
        let active_storms = arena.take();
        let mut fault_recovered: Vec<Option<SimTime>> = arena.take();
        fault_recovered.resize(fault_windows.len(), None);

        World {
            q,
            aps: [ap0, ap1],
            links,
            in_flight: [None, None],
            client_side,
            alg,
            mbox,
            workload,
            tcp_tx,
            tcp_rx: TcpReceiver::new(),
            rng: seeds.stream("world", 0),
            primary_deliveries: 0,
            secondary_air_tx: 0,
            secondary_wasteful_tx: 0,
            switch_delays: Vec::new(),
            mac_metrics: [MacMetrics::default(), MacMetrics::default()],
            pending_switch_started: None,
            client_timer_armed: None,
            done: false,
            ledger: diversifi_simcore::check::PacketLedger::new(),
            tick_ledger: diversifi_simcore::check::TickLedger::new(),
            fault_recovered,
            fault_windows,
            pending_recovery,
            mbox_down: false,
            active_brownouts,
            uplink_down: 0,
            active_storms,
            cfg,
        }
    }

    /// Run to completion and produce the report.
    pub fn run(self) -> RunReport {
        self.run_with_arena(None)
    }

    /// [`World::run`], but handing the recyclable hot-path containers (the
    /// event queue and fault-bookkeeping vectors) back to `arena` once the
    /// report is built, so the next [`World::new_cached_in`] on this worker
    /// reuses their capacity. The report is bit-identical to [`World::run`].
    pub fn run_in(self, arena: &mut WorkerArena) -> RunReport {
        self.run_with_arena(Some(arena))
    }

    fn run_with_arena(mut self, arena: Option<&mut WorkerArena>) -> RunReport {
        // In the secondary-only baseline the client listens on the
        // secondary adapter; mark it awake and the primary ones asleep.
        if self.cfg.mode == RunMode::SecondaryOnly {
            self.aps[0].set_power_save(DEF, true);
            self.aps[0].set_power_save(PRIMARY, true);
        } else {
            self.aps[1].set_power_save(SECONDARY, true);
        }

        self.q.schedule(SimTime::ZERO, Ev::SourceEmit(0));
        // Uplink input ticks ride alongside the downlink stream for
        // workloads that have them (FPS); VoIP schedules nothing here.
        if self.workload.input_spec().is_some() {
            self.q.schedule(SimTime::ZERO, Ev::InputTick(0));
        }
        if self.cfg.with_tcp {
            self.q.schedule(SimTime::ZERO, Ev::TcpKick);
            self.q.schedule(SimTime::from_millis(50), Ev::TcpTimer);
        }
        for i in 0..self.fault_windows.len() {
            let w = self.fault_windows[i];
            match w.effect {
                FaultEffect::ApDown { ap } => {
                    self.q.schedule(
                        w.start,
                        Ev::ApReboot {
                            ap,
                            up: false,
                            outage: w.end.saturating_since(w.start),
                            window: i,
                        },
                    );
                }
                FaultEffect::MiddleboxDown { reinstall_delay } => {
                    self.q.schedule(w.start, Ev::FaultStart { window: i });
                    // The process is back at `w.end`, but replication stays
                    // dark until the SDN mirror rule is re-installed.
                    self.q.schedule(w.end + reinstall_delay, Ev::FaultEnd { window: i });
                }
                _ => {
                    self.q.schedule(w.start, Ev::FaultStart { window: i });
                    self.q.schedule(w.end, Ev::FaultEnd { window: i });
                }
            }
        }
        let end = SimTime::ZERO + self.cfg.spec.duration + SimDuration::from_millis(500);
        self.q.schedule(end, Ev::Done);

        while let Some((now, ev)) = self.q.pop() {
            if self.done {
                break;
            }
            let _dispatch = telemetry::span(Phase::Dispatch);
            self.handle(now, ev);
        }

        // Close the degradation books: a primary-only fallback still open
        // at end of run must show up in `degraded_ns`/`degraded_us`.
        if self.uses_alg() {
            self.alg.finish(end);
        }

        // Horizon audit: every emitted VoIP copy must have reached exactly
        // one fate or still be in a stage the devices corroborate. The DEF
        // association never carries VoIP, so the audited queues are the
        // PRIMARY station on AP 0 and the SECONDARY station on AP 1.
        let queued_truth = self.aps[0].queue_len(PRIMARY)
            + self.aps[0].hw_len(PRIMARY)
            + self.aps[1].queue_len(SECONDARY)
            + self.aps[1].hw_len(SECONDARY);
        self.ledger.finalize(queued_truth, self.mbox.buffered(STREAM_FLOW), 2);
        self.tick_ledger.finalize();

        // Snapshot every component's instruments into the active telemetry
        // session's registry. The closure never runs when telemetry is off,
        // so the finalize cost (including the E-model evaluation below) is
        // strictly session-gated.
        telemetry::with_metrics(|reg| {
            self.aps[0].export_metrics(ComponentId::ap(0), reg);
            self.aps[1].export_metrics(ComponentId::ap(1), reg);
            self.mac_metrics[0].export(ComponentId::mac(0), reg);
            self.mac_metrics[1].export(ComponentId::mac(1), reg);
            self.mbox.export_metrics(ComponentId::middlebox(), reg);
            if self.cfg.with_tcp {
                self.tcp_tx.export_metrics(ComponentId::tcp(), reg);
            }
            if self.cfg.mode.replicates() {
                self.alg.export_metrics(ComponentId::client(), reg);
            }
            // Recovery-hop latency distribution (Table 3's total), µs.
            let mut hop = diversifi_simcore::LogHistogram::new();
            for s in &self.switch_delays {
                hop.record_f64(s.total_ms() * 1000.0);
            }
            reg.histogram(ComponentId::world(), "hop_latency_us", &hop);
            // Delivered-packet one-way delay distribution, µs, plus the
            // workload-native view of the finished session: the playout/
            // E-model MOS for VoIP, per-tick deadline metrics for FPS.
            let mut delay = diversifi_simcore::LogHistogram::new();
            diversifi_voip::delay_histogram_into(self.workload.trace(), &mut delay);
            reg.histogram(ComponentId::playout(), "delay_us", &delay);
            match &self.workload {
                WorkloadState::Voip(_) => {
                    let pcfg = diversifi_voip::PlayoutConfig::default();
                    let conceal = diversifi_voip::conceal(self.workload.trace(), &pcfg);
                    let q = diversifi_voip::evaluate(
                        self.workload.trace(),
                        &conceal,
                        &diversifi_voip::CodecModel::g711_plc(),
                        pcfg.playout_delay,
                        SimDuration::ZERO,
                    );
                    reg.gauge(ComponentId::playout(), "emodel_r", q.r_factor);
                    reg.gauge(ComponentId::playout(), "mos", q.mos);
                }
                WorkloadState::Fps(_) => {
                    if let WorkloadOutcome::Fps(o) = self.workload.outcome() {
                        reg.counter(ComponentId::playout(), "ticks_on_time", o.state.on_time);
                        reg.counter(ComponentId::playout(), "ticks_late", o.state.late);
                        reg.counter(ComponentId::playout(), "ticks_lost", o.state.lost);
                        reg.counter(ComponentId::playout(), "input_ticks_on_time", o.input.on_time);
                        reg.counter(
                            ComponentId::playout(),
                            "input_ticks_missed",
                            o.input.late + o.input.lost,
                        );
                        reg.counter(ComponentId::playout(), "input_ticks_blackout", o.input_blackout);
                        reg.gauge(
                            ComponentId::playout(),
                            "tick_worst_window_pct",
                            o.state.worst_window_pct,
                        );
                        reg.gauge(
                            ComponentId::playout(),
                            "tick_longest_outage",
                            o.state.longest_outage_ticks as f64,
                        );
                        reg.gauge(ComponentId::playout(), "fps_qoe", o.qoe);
                    }
                }
            }
            reg.counter(ComponentId::world(), "primary_deliveries", self.primary_deliveries);
            reg.counter(ComponentId::world(), "secondary_air_tx", self.secondary_air_tx);
            reg.counter(
                ComponentId::world(),
                "secondary_wasteful_tx",
                self.secondary_wasteful_tx,
            );
            // Fault engine: how many windows struck, how many the run never
            // recovered from, and the MTTR distribution (µs from onset to
            // the first heard stream delivery after clearing).
            if !self.fault_windows.is_empty() {
                let mut mttr = diversifi_simcore::LogHistogram::new();
                let mut unrecovered = 0u64;
                for (i, w) in self.fault_windows.iter().enumerate() {
                    match self.fault_recovered[i] {
                        Some(r) => mttr.record(r.saturating_since(w.start).as_micros()),
                        None => unrecovered += 1,
                    }
                }
                reg.counter(
                    ComponentId::world(),
                    "faults_injected",
                    self.fault_windows.len() as u64,
                );
                reg.counter(ComponentId::world(), "faults_unrecovered", unrecovered);
                reg.histogram(ComponentId::world(), "fault_mttr_us", &mttr);
            }
        });

        let fault_outcomes = self
            .fault_windows
            .iter()
            .enumerate()
            .map(|(i, w)| FaultOutcome {
                fault: w.fault,
                label: w.label(),
                start: w.start,
                end: w.end,
                recovered_at: self.fault_recovered[i],
            })
            .collect();

        let duration = self.cfg.spec.duration.as_secs_f64();
        let tcp_throughput_bps = self.tcp_tx.acked_bytes() as f64 * 8.0 / duration;
        let (trace, workload_outcome) = self.workload.finish();
        let report = RunReport {
            trace,
            primary_deliveries: self.primary_deliveries,
            alg_stats: self.alg.stats,
            secondary_air_tx: self.secondary_air_tx,
            secondary_wasteful_tx: self.secondary_wasteful_tx,
            tcp_throughput_bps,
            tcp_diag: (
                self.tcp_tx.transmissions,
                self.tcp_tx.acked_segments,
                self.tcp_tx.fast_retransmits,
                self.tcp_tx.timeouts,
            ),
            switch_delays: self.switch_delays,
            fault_outcomes,
            workload: workload_outcome,
        };
        if let Some(arena) = arena {
            arena.put(self.q);
            arena.put(self.pending_recovery);
            arena.put(self.active_brownouts);
            arena.put(self.active_storms);
            arena.put(self.fault_recovered);
        }
        report
    }

    /// Run to completion with a private telemetry session: trace events go
    /// to a ring of `capacity` slots and every component's metrics are
    /// snapshotted at the end. Results are bit-identical to [`World::run`];
    /// in a release build without the `trace` feature the session is empty.
    pub fn run_traced(self, capacity: usize) -> (RunReport, TelemetrySession) {
        telemetry::begin(capacity);
        let report = self.run();
        (report, telemetry::end())
    }

    fn uses_alg(&self) -> bool {
        self.cfg.mode.replicates()
    }

    /// The queue-management IE the client's secondary association requests.
    fn secondary_discipline(cfg: &WorldConfig) -> QueueDiscipline {
        match cfg.mode {
            RunMode::DiversifiCustomAp => {
                QueueDiscipline::HeadDrop { cap: cfg.alg.ap_queue_len() }
            }
            _ => QueueDiscipline::stock(),
        }
    }

    fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::Done => self.done = true,
            Ev::SourceEmit(seq) => self.on_source_emit(now, seq),
            Ev::ApArrival { ap, frame } => self.on_ap_arrival(now, ap, frame),
            Ev::ApKick(ap) => self.kick_ap(now, ap),
            Ev::ApTxDone(ap) => self.on_tx_done(now, ap),
            Ev::ClientTimer => self.on_client_timer(now),
            Ev::BeginRetune { side } => {
                // Only now does the client stop hearing its current channel
                // (the driver retunes strictly after the PS message is
                // delivered — the ath9k fix described in §5.4).
                diversifi_simcore::sim_assert!(
                    self.client_side.is_some(),
                    "retune began while a previous retune was still in flight"
                );
                self.client_side = None;
                trace_event!(
                    now,
                    TraceKind::LinkSwitch,
                    ComponentId::client(),
                    TraceDetail::Link { to_secondary: side == LinkSide::Secondary },
                );
                self.q.schedule(
                    now + SimDuration::from_micros(2300),
                    Ev::RetuneDone { side },
                );
            }
            Ev::RetuneDone { side } => self.on_retune_done(now, side),
            Ev::PsDelivered { ap, adapter, sleeping } => {
                trace_event!(
                    now,
                    TraceKind::PowerSave,
                    ComponentId::ap(ap as u16),
                    TraceDetail::Power { sleeping },
                );
                self.aps[ap].set_power_save(adapter, sleeping);
                self.q.schedule(now, Ev::ApKick(ap));
            }
            Ev::MiddleboxIngest(pkt) => {
                if self.mbox_down {
                    // The process is restarting (or its SDN mirror rule is
                    // not yet re-installed): the copy dies at the door.
                    trace_event!(
                        now,
                        TraceKind::QueueDrop,
                        ComponentId::middlebox(),
                        TraceDetail::Drop { seq: pkt.seq, head: false },
                    );
                    self.ledger.mbox_discard();
                    return;
                }
                let rolled_before = self.mbox.rolled_over;
                let seq = pkt.seq;
                if let Some(fwd) = self.mbox.ingest(pkt) {
                    // Streaming state: the copy passes straight through and
                    // stays in transit toward the secondary AP.
                    self.ledger.mbox_forward_live();
                    self.forward_from_middlebox(now, fwd);
                } else {
                    trace_event!(
                        now,
                        TraceKind::Enqueue,
                        ComponentId::middlebox(),
                        TraceDetail::Queue {
                            seq,
                            depth: self.mbox.buffered(STREAM_FLOW) as u16,
                            cap: self.cfg.alg.ap_queue_len() as u16,
                        },
                    );
                    self.ledger.mbox_buffer();
                    if self.mbox.rolled_over > rolled_before {
                        self.ledger.mbox_rollover();
                    }
                }
            }
            Ev::MiddleboxControl { start } => self.on_middlebox_control(now, start),
            Ev::TcpKick => self.on_tcp_kick(now),
            Ev::TcpAck(ack) => {
                self.tcp_tx.on_ack(ack, now);
                self.q.schedule(now, Ev::TcpKick);
            }
            Ev::TcpTimer => {
                self.tcp_tx.on_timer(now);
                self.q.schedule(now, Ev::TcpKick);
                self.q.schedule(now + SimDuration::from_millis(50), Ev::TcpTimer);
            }
            Ev::InputTick(tick) => self.on_input_tick(now, tick),
            Ev::ApReboot { ap, up, outage, window } => {
                self.on_ap_reboot(now, ap, up, outage, window)
            }
            Ev::FaultStart { window } => self.on_fault_edge(now, window, true),
            Ev::FaultEnd { window } => self.on_fault_edge(now, window, false),
        }
    }

    /// A non-AP fault window opens (`opening == true`) or closes. AP power
    /// cycles route through [`World::on_ap_reboot`] instead, because their
    /// teardown/re-association logic predates the fault engine.
    fn on_fault_edge(&mut self, now: SimTime, window: usize, opening: bool) {
        trace_event!(
            now,
            TraceKind::Fault,
            ComponentId::world(),
            TraceDetail::Fault {
                window: window as u16,
                edge: if opening { FaultEdge::Onset } else { FaultEdge::Clear },
            },
        );
        match self.fault_windows[window].effect {
            // Scheduled as Ev::ApReboot, never as FaultStart/FaultEnd.
            FaultEffect::ApDown { .. } => unreachable!("ApDown windows use Ev::ApReboot"),
            FaultEffect::MiddleboxDown { .. } => {
                if opening {
                    self.mbox_down = true;
                    // Process restart wipes the replication rings; the
                    // buffered copies are stale the moment they are lost.
                    let wiped = self.mbox.restart();
                    self.ledger.mbox_drain(0, wiped);
                } else {
                    self.mbox_down = false;
                    self.pending_recovery.push(window);
                }
            }
            FaultEffect::Brownout { .. } => {
                if opening {
                    self.active_brownouts.push(window);
                } else {
                    self.active_brownouts.retain(|&i| i != window);
                    self.pending_recovery.push(window);
                }
            }
            FaultEffect::UplinkDown => {
                if opening {
                    self.uplink_down += 1;
                } else {
                    self.uplink_down -= 1;
                    self.pending_recovery.push(window);
                }
            }
            FaultEffect::Storm { .. } => {
                if opening {
                    self.active_storms.push(window);
                } else {
                    self.active_storms.retain(|&i| i != window);
                    self.pending_recovery.push(window);
                }
                self.apply_storms();
            }
        }
    }

    /// Recompute each link's extra erasure from the set of open storm
    /// windows. Overlapping storms compose multiplicatively, matching how
    /// the link itself composes its PHY/fading/interference terms.
    fn apply_storms(&mut self) {
        for (link_idx, link) in self.links.iter_mut().enumerate() {
            let mut p_ok = 1.0;
            for &i in &self.active_storms {
                if let FaultEffect::Storm { erasure, link: target } = self.fault_windows[i].effect {
                    if target.is_none() || target == Some(link_idx) {
                        p_ok *= 1.0 - erasure.clamp(0.0, 1.0);
                    }
                }
            }
            link.set_extra_erasure(1.0 - p_ok);
        }
    }

    /// Effective loss probability for one uplink control message right now:
    /// the configured baseline composed with every open brownout's burst
    /// loss, or certain loss during an uplink outage. With no fault open
    /// this returns `cfg.uplink_loss` untouched, so healthy runs draw the
    /// exact same randomness as before the fault engine existed.
    fn control_loss(&self) -> f64 {
        if self.uplink_down > 0 {
            return 1.0; // chance(1.0) short-circuits: no draw consumed
        }
        if self.active_brownouts.is_empty() {
            return self.cfg.uplink_loss;
        }
        let mut p_ok = 1.0 - self.cfg.uplink_loss;
        for &i in &self.active_brownouts {
            if let FaultEffect::Brownout { control_loss, .. } = self.fault_windows[i].effect {
                p_ok *= 1.0 - control_loss.clamp(0.0, 1.0);
            }
        }
        1.0 - p_ok
    }

    /// Extra one-way latency on LAN legs from open brownouts (the max of
    /// the open windows — latency spikes don't stack additively).
    fn brownout_extra_delay(&self) -> SimDuration {
        let mut extra = SimDuration::ZERO;
        for &i in &self.active_brownouts {
            if let FaultEffect::Brownout { extra_delay, .. } = self.fault_windows[i].effect {
                extra = extra.max(extra_delay);
            }
        }
        extra
    }

    /// Fault injection: power-cycle an AP. Going down destroys every
    /// association and buffered frame; coming back up restores the steady-
    /// state associations (the client driver re-associates promptly) but the
    /// AP has forgotten all power-save state — stations start awake, which
    /// is exactly the desynchronisation a real power cycle causes.
    fn on_ap_reboot(
        &mut self,
        now: SimTime,
        ap: usize,
        up: bool,
        outage: SimDuration,
        window: usize,
    ) {
        trace_event!(
            now,
            TraceKind::Fault,
            ComponentId::world(),
            TraceDetail::Fault {
                window: window as u16,
                edge: if up { FaultEdge::Clear } else { FaultEdge::Onset },
            },
        );
        if !up {
            let lost = self.aps[ap].power_cycle();
            let voip_lost = lost.iter().filter(|f| f.flow == STREAM_FLOW).count();
            self.ledger.flushed(voip_lost);
            // The outage rides on the event itself (it used to be read back
            // from the global config knob, which breaks the moment a plan
            // schedules two power cycles with different durations).
            self.q.schedule(now + outage, Ev::ApReboot { ap, up: true, outage, window });
            return;
        }
        if ap == 0 {
            self.aps[0].associate(DEF, QueueDiscipline::stock());
            self.aps[0].associate(PRIMARY, QueueDiscipline::stock());
        } else {
            self.aps[1].associate(SECONDARY, Self::secondary_discipline(self.cfg));
        }
        self.pending_recovery.push(window);
        self.q.schedule(now, Ev::ApKick(ap));
    }

    fn on_source_emit(&mut self, now: SimTime, seq: u64) {
        let spec = self.cfg.spec;
        if seq + 1 < spec.packet_count() {
            self.q.schedule(spec.send_time(SimTime::ZERO, seq + 1), Ev::SourceEmit(seq + 1));
        }
        let bytes = spec.wire_bytes();
        let lan = self.cfg.lan_delay
            + self.brownout_extra_delay()
            + SimDuration::from_micros(self.rng.range_u64(0, 120));

        // Primary copy (except in the secondary-only baseline).
        if self.cfg.mode != RunMode::SecondaryOnly {
            let frame = Frame::data(STREAM_FLOW, seq, bytes, now, CLIENT, PRIMARY);
            self.ledger.emit();
            self.q.schedule(now + lan, Ev::ApArrival { ap: 0, frame });
        }

        // Secondary copy.
        match self.cfg.mode {
            RunMode::PrimaryOnly => {}
            RunMode::SecondaryOnly => {
                let frame = Frame::data(STREAM_FLOW, seq, bytes, now, CLIENT, SECONDARY);
                self.ledger.emit();
                self.q.schedule(now + lan, Ev::ApArrival { ap: 1, frame });
            }
            RunMode::DiversifiCustomAp | RunMode::EndToEndPsm => {
                let frame = Frame::data(STREAM_FLOW, seq, bytes, now, CLIENT, SECONDARY);
                self.ledger.emit();
                self.q.schedule(now + lan, Ev::ApArrival { ap: 1, frame });
            }
            RunMode::DiversifiMiddlebox => {
                let pkt = StreamPacket::new(STREAM_FLOW, seq, bytes, now);
                self.ledger.emit();
                self.q.schedule(
                    now + lan + self.cfg.middlebox_net_delay,
                    Ev::MiddleboxIngest(pkt),
                );
            }
        }
    }

    fn on_ap_arrival(&mut self, now: SimTime, ap: usize, frame: Frame) {
        let adapter = frame.dst_adapter;
        let seq = frame.seq;
        let is_voip = frame.flow == STREAM_FLOW;
        // Queue drops (head- or tail-) are final for this copy; recovery,
        // if any, happens through the other path.
        let outcome = self.aps[ap].enqueue(adapter, frame);
        match &outcome {
            Enqueued::Ok => trace_event!(
                now,
                TraceKind::Enqueue,
                ComponentId::ap(ap as u16),
                TraceDetail::Queue {
                    seq,
                    depth: self.aps[ap].queue_len(adapter) as u16,
                    cap: self.aps[ap].queue_cap(adapter) as u16,
                },
            ),
            Enqueued::Dropped { dropped } => trace_event!(
                now,
                TraceKind::QueueDrop,
                ComponentId::ap(ap as u16),
                TraceDetail::Drop { seq: dropped.seq, head: dropped.seq != seq },
            ),
        }
        if is_voip {
            match outcome {
                Enqueued::Ok => self.ledger.enqueue_ok(),
                // The victim is the offered frame itself (tail-drop full, or
                // no association — e.g. mid-reboot): rejected at the door.
                Enqueued::Dropped { dropped } if dropped.seq == seq => {
                    self.ledger.enqueue_rejected()
                }
                // Head-drop: admitted, displacing the oldest queued copy.
                Enqueued::Dropped { .. } => self.ledger.enqueue_displaced(),
            }
        }
        self.q.schedule(now, Ev::ApKick(ap));
    }

    /// Start a transmission at `ap` if its radio is idle and traffic is
    /// eligible.
    fn kick_ap(&mut self, now: SimTime, ap: usize) {
        if self.in_flight[ap].is_some() {
            return;
        }
        let Some((adapter, frame)) = self.aps[ap].next_tx() else { return };
        if frame.flow == STREAM_FLOW {
            self.ledger.tx_start();
        }
        let mac_cfg = self.aps[ap].config().mac;
        let outcome = {
            let _sample = telemetry::span(Phase::ChannelSample);
            mac::transmit(&mut self.links[ap], &mac_cfg, &frame, now)
        };
        trace_event!(
            now,
            TraceKind::TxStart,
            ComponentId::mac(ap as u16),
            TraceDetail::Air {
                seq: frame.seq,
                attempts: outcome.attempts,
                dur_us: outcome.completed_at.saturating_since(now).as_micros() as u32,
            },
        );
        self.in_flight[ap] = Some((adapter, frame, outcome));
        self.q.schedule(outcome.completed_at, Ev::ApTxDone(ap));
    }

    fn client_listening(&self, ap: usize) -> bool {
        matches!(
            (self.client_side, ap),
            (Some(LinkSide::Primary), 0) | (Some(LinkSide::Secondary), 1)
        )
    }

    fn on_tx_done(&mut self, now: SimTime, ap: usize) {
        let (adapter, frame, outcome) =
            self.in_flight[ap].take().expect("ApTxDone fires only for the exchange in flight");
        self.q.schedule(now, Ev::ApKick(ap));

        if ap == 1 && frame.kind == FrameKind::Data {
            self.secondary_air_tx += 1;
        }
        if telemetry::active() {
            self.mac_metrics[ap].record(&outcome);
        }

        let heard = outcome.delivered && self.client_listening(ap);
        if heard {
            trace_event!(
                now,
                TraceKind::Delivery,
                ComponentId::client(),
                TraceDetail::Air {
                    seq: frame.seq,
                    attempts: outcome.attempts,
                    dur_us: outcome.airtime.as_micros() as u32,
                },
            );
        } else if !outcome.delivered {
            trace_event!(
                now,
                TraceKind::AirLoss,
                ComponentId::ap(ap as u16),
                TraceDetail::Air {
                    seq: frame.seq,
                    attempts: outcome.attempts,
                    dur_us: outcome.airtime.as_micros() as u32,
                },
            );
        }
        if frame.flow == STREAM_FLOW {
            if heard {
                self.ledger.tx_heard();
            } else if outcome.delivered {
                self.ledger.tx_unheard();
            } else {
                self.ledger.tx_lost();
            }
        }
        if !heard {
            if ap == 1 && frame.kind == FrameKind::Data {
                // Transmitted on the secondary air for nothing.
                self.secondary_wasteful_tx += 1;
            }
            return;
        }

        match frame.flow {
            STREAM_FLOW => {
                let seq = frame.seq;
                let already = self.workload.delivered(seq);
                if ap == 1 && already {
                    self.secondary_wasteful_tx += 1;
                }
                self.workload.record_arrival(seq, now);
                // The client hears the stream again: every fault window that
                // has cleared is now confirmed recovered.
                if !self.pending_recovery.is_empty() {
                    for w in std::mem::take(&mut self.pending_recovery) {
                        self.fault_recovered[w].get_or_insert(now);
                        trace_event!(
                            now,
                            TraceKind::Fault,
                            ComponentId::world(),
                            TraceDetail::Fault {
                                window: w as u16,
                                edge: FaultEdge::Recovered,
                            },
                        );
                    }
                }
                if ap == 0 {
                    self.primary_deliveries += 1;
                }
                if self.uses_alg() {
                    let side = if ap == 0 { LinkSide::Primary } else { LinkSide::Secondary };
                    let cmds = self.alg.on_packet(seq, now, side);
                    self.apply_commands(now, cmds);
                    self.arm_client_timer(now);
                } else if self.cfg.mode == RunMode::SecondaryOnly && ap == 1 {
                    // trace recorded above; nothing else to do
                }
                let _ = adapter;
            }
            TCP_FLOW => {
                trace_event!(
                    now,
                    TraceKind::Transport,
                    ComponentId::tcp(),
                    TraceDetail::Transport {
                        seq: frame.seq,
                        flight: self.tcp_tx.in_flight() as u16,
                    },
                );
                let ack = self.tcp_rx.on_segment(frame.seq);
                // ACK goes back over the uplink + LAN; brownouts and uplink
                // outages hit it like any other control message.
                let loss = self.control_loss();
                if !self.rng.chance(loss) {
                    let d = self.cfg.uplink_delay + self.cfg.lan_delay + self.brownout_extra_delay();
                    self.q.schedule(now + d, Ev::TcpAck(ack));
                }
            }
            _ => {}
        }
    }

    fn on_client_timer(&mut self, now: SimTime) {
        self.client_timer_armed = None;
        if !self.uses_alg() {
            return;
        }
        let cmds = self.alg.on_timer(now);
        self.apply_commands(now, cmds);
        self.arm_client_timer(now);
    }

    fn arm_client_timer(&mut self, now: SimTime) {
        if let Some(wake) = self.alg.next_wakeup() {
            // Never re-arm at the current instant: on_timer already did all
            // the work possible at `now`, so an equal-time wake could only
            // spin. The 100 µs floor guarantees forward progress.
            let wake = wake.max(now + SimDuration::from_micros(100));
            let need = match self.client_timer_armed {
                Some(armed) => wake < armed,
                None => true,
            };
            if need {
                self.client_timer_armed = Some(wake);
                self.q.schedule(wake, Ev::ClientTimer);
            }
        }
    }

    /// The client fires one uplink input tick (FPS workloads only): a
    /// control-sized message taking the same uplink path as PS-Null frames
    /// and TCP ACKs — bounded retries against `control_loss()`, each retry
    /// costing one more uplink hop of latency. Never scheduled for
    /// workloads without an input stream, so VoIP runs are untouched.
    fn on_input_tick(&mut self, now: SimTime, tick: u64) {
        let Some(spec) = self.workload.input_spec() else { return };
        if tick + 1 < spec.packet_count() {
            self.q.schedule(spec.send_time(SimTime::ZERO, tick + 1), Ev::InputTick(tick + 1));
        }
        self.tick_ledger.emit();
        // No usable radio — mid-retune, or the tuned AP power-cycled our
        // association away: the tick dies in the driver, consuming no air
        // time and no RNG draw.
        let radio_up = match self.client_side {
            None => false,
            Some(LinkSide::Primary) => self.aps[0].is_associated(PRIMARY),
            Some(LinkSide::Secondary) => self.aps[1].is_associated(SECONDARY),
        };
        if !radio_up {
            self.tick_ledger.blackout();
            self.workload.record_input(tick, InputFate::Blackout);
            return;
        }
        // 3 attempts, like the middlebox re-install requests (the input
        // path cannot afford the PS fix's 5: the next tick is 15 ms away).
        let mut delay = self.cfg.uplink_delay;
        let mut fate = InputFate::Lost;
        for _ in 0..3 {
            let loss = self.control_loss();
            if !self.rng.chance(loss) {
                let at = now + delay + self.cfg.lan_delay + self.brownout_extra_delay();
                fate = InputFate::Delivered(at);
                break;
            }
            delay += self.cfg.uplink_delay;
        }
        match fate {
            InputFate::Delivered(at) => {
                self.tick_ledger.delivered();
                trace_event!(
                    now,
                    TraceKind::Transport,
                    ComponentId::client(),
                    TraceDetail::Transport {
                        seq: tick,
                        flight: at.saturating_since(now).as_micros().min(u16::MAX as u64) as u16,
                    },
                );
            }
            _ => self.tick_ledger.lost(),
        }
        self.workload.record_input(tick, fate);
    }

    /// Deliver an uplink Null(PM) frame to an AP, modelling the paper's
    /// 5-retry driver fix: with 5 attempts the residual loss is tiny.
    fn send_ps(&mut self, now: SimTime, ap: usize, adapter: AdapterId, sleeping: bool) {
        let mut delay = self.cfg.uplink_delay;
        for _ in 0..5 {
            let loss = self.control_loss();
            if !self.rng.chance(loss) {
                self.q.schedule(now + delay, Ev::PsDelivered { ap, adapter, sleeping });
                return;
            }
            delay += self.cfg.uplink_delay;
        }
        // All 5 attempts lost: the AP never learns; state desynchronised
        // until the next PS exchange (the bug the paper had to fix).
    }

    fn apply_commands(&mut self, now: SimTime, cmds: Vec<Command>) {
        for cmd in cmds {
            if telemetry::active() {
                let (kind, seq) = match cmd {
                    Command::SwitchToSecondary => (DecisionKind::SwitchToSecondary, 0),
                    Command::SwitchToPrimary => (DecisionKind::SwitchToPrimary, 0),
                    Command::MiddleboxStart { from_seq } => {
                        (DecisionKind::MiddleboxStart, from_seq)
                    }
                    Command::MiddleboxStop => (DecisionKind::MiddleboxStop, 0),
                };
                trace_event!(
                    now,
                    TraceKind::Decision,
                    ComponentId::client(),
                    TraceDetail::Decision { kind, seq },
                );
            }
            match cmd {
                Command::SwitchToSecondary => {
                    self.pending_switch_started = Some(now);
                    // PS=1 to both primary-AP associations; the client keeps
                    // listening until the exchange completes.
                    self.send_ps(now, 0, DEF, true);
                    self.send_ps(now, 0, PRIMARY, true);
                    self.q.schedule(
                        now + self.cfg.uplink_delay * 2,
                        Ev::BeginRetune { side: LinkSide::Secondary },
                    );
                }
                Command::SwitchToPrimary => {
                    self.send_ps(now, 1, SECONDARY, true);
                    self.q.schedule(
                        now + self.cfg.uplink_delay * 2,
                        Ev::BeginRetune { side: LinkSide::Primary },
                    );
                }
                Command::MiddleboxStart { from_seq } => {
                    // Bounded retry, same shape as the PS Null-frame fix: a
                    // lost re-install request must not silently disable
                    // replication for the rest of the run. Three tries keep
                    // the residual loss negligible; each retry costs one
                    // more uplink hop of latency.
                    let mut d = self.cfg.uplink_delay
                        + self.cfg.lan_delay
                        + self.cfg.middlebox_net_delay;
                    for _ in 0..3 {
                        let loss = self.control_loss();
                        if !self.rng.chance(loss) {
                            self.q
                                .schedule(now + d, Ev::MiddleboxControl { start: Some(from_seq) });
                            break;
                        }
                        d += self.cfg.uplink_delay;
                    }
                }
                Command::MiddleboxStop => {
                    let d = self.cfg.uplink_delay
                        + self.cfg.lan_delay
                        + self.cfg.middlebox_net_delay;
                    self.q.schedule(now + d, Ev::MiddleboxControl { start: None });
                }
            }
        }
    }

    fn on_retune_done(&mut self, now: SimTime, side: LinkSide) {
        self.client_side = Some(side);
        trace_event!(
            now,
            TraceKind::LinkSwitch,
            ComponentId::client(),
            TraceDetail::Link { to_secondary: side == LinkSide::Secondary },
        );
        match side {
            LinkSide::Secondary => {
                // Wake the secondary association.
                self.send_ps(now, 1, SECONDARY, false);
                // Table 3 instrumentation, using the paper's taxonomy:
                // "switching" = channel retune + PS signalling to the old
                // link; "network" = the leg that fetches the packet (the
                // wake exchange at the AP, or the start-request round trip
                // to the middlebox); "queuing" = middlebox service time.
                if let Some(started) = self.pending_switch_started.take() {
                    let ps = self.cfg.uplink_delay.as_millis_f64() * 2.0;
                    let switching_ms = (now - started).as_millis_f64() - ps;
                    let (network_ms, queuing_ms) =
                        if self.cfg.mode == RunMode::DiversifiMiddlebox {
                            (
                                (self.cfg.uplink_delay
                                    + self.cfg.lan_delay
                                    + self.cfg.middlebox_net_delay)
                                    .as_millis_f64()
                                    * 2.0,
                                self.mbox.service_delay().as_millis_f64(),
                            )
                        } else {
                            (ps, 0.0)
                        };
                    self.switch_delays.push(SwitchDelaySample {
                        switching_ms,
                        network_ms,
                        queuing_ms,
                    });
                }
                let cmds = self.alg.on_residency(Residency::Secondary, now);
                self.apply_commands(now, cmds);
                self.arm_client_timer(now);
            }
            LinkSide::Primary => {
                self.send_ps(now, 0, DEF, false);
                self.send_ps(now, 0, PRIMARY, false);
                let cmds = self.alg.on_residency(Residency::Primary, now);
                self.apply_commands(now, cmds);
                self.arm_client_timer(now);
            }
        }
    }

    fn on_middlebox_control(&mut self, now: SimTime, start: Option<u64>) {
        if self.mbox_down {
            // The process is down: the control message reaches a dead
            // socket. The client's bounded retries already fired, so the
            // request is simply lost; Algorithm 1 re-issues a start on its
            // next recovery visit once the stream is heard again.
            return;
        }
        match start {
            Some(from_seq) => {
                let buffered_before = self.mbox.buffered(STREAM_FLOW);
                let (service, burst) = self.mbox.start(STREAM_FLOW, from_seq);
                // The drain empties the ring: copies newer than the request
                // head for the secondary AP, older ones are useless.
                self.ledger.mbox_drain(burst.len(), buffered_before - burst.len());
                for (i, pkt) in burst.into_iter().enumerate() {
                    let d = service
                        + self.cfg.middlebox_net_delay
                        + SimDuration::from_micros(20 * i as u64);
                    let frame = Frame::data(pkt.flow, pkt.seq, pkt.bytes, pkt.src_time, CLIENT, SECONDARY);
                    self.q.schedule(now + d, Ev::ApArrival { ap: 1, frame });
                }
            }
            None => self.mbox.stop(STREAM_FLOW),
        }
    }

    fn forward_from_middlebox(&mut self, now: SimTime, pkt: StreamPacket) {
        let d = self.mbox.service_delay() + self.cfg.middlebox_net_delay;
        let frame = Frame::data(pkt.flow, pkt.seq, pkt.bytes, pkt.src_time, CLIENT, SECONDARY);
        self.q.schedule(now + d, Ev::ApArrival { ap: 1, frame });
    }

    fn on_tcp_kick(&mut self, now: SimTime) {
        if !self.cfg.with_tcp {
            return;
        }
        while let Some(seg) = self.tcp_tx.poll_send(now) {
            let frame = Frame::data(
                TCP_FLOW,
                seg.seq,
                1460 + 40,
                now,
                CLIENT,
                DEF,
            );
            let lan = self.cfg.lan_delay
                + self.brownout_extra_delay()
                + SimDuration::from_micros(self.rng.range_u64(0, 80));
            self.q.schedule(now + lan, Ev::ApArrival { ap: 0, frame });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diversifi_voip::DEFAULT_DEADLINE;
    use diversifi_wifi::{Channel, GeParams};

    fn seeds(n: u64) -> SeedFactory {
        SeedFactory::new(0x57_0A11 + n)
    }

    fn weak_pair() -> (LinkConfig, LinkConfig) {
        let mut a = LinkConfig::office(Channel::CH1, 22.0);
        a.ge = GeParams::weak_link();
        let mut b = LinkConfig::office(Channel::CH11, 28.0);
        b.ge = GeParams::weak_link();
        (a, b)
    }

    /// Links comparable to the paper's office testbed (§6.1): a decent
    /// primary and a noticeably weaker secondary.
    fn testbed_pair() -> (LinkConfig, LinkConfig) {
        let a = LinkConfig::office(Channel::CH1, 16.0);
        let mut b = LinkConfig::office(Channel::CH11, 26.0);
        b.ge = GeParams::weak_link();
        (a, b)
    }

    fn short(cfg: &mut WorldConfig, secs: u64) {
        cfg.spec.duration = SimDuration::from_secs(secs);
    }

    #[test]
    fn primary_only_baseline_delivers() {
        let (a, b) = weak_pair();
        let mut cfg = WorldConfig::testbed(a, b);
        cfg.mode = RunMode::PrimaryOnly;
        short(&mut cfg, 20);
        let report = World::new(&cfg, &seeds(1)).run();
        let loss = report.trace.loss_rate(DEFAULT_DEADLINE);
        assert!(loss > 0.0, "weak link should lose something");
        assert!(loss < 0.5, "but mostly deliver: {loss}");
        assert_eq!(report.secondary_air_tx, 0, "no replication in baseline");
    }

    #[test]
    fn diversifi_beats_primary_only_on_same_channels() {
        let (a, b) = weak_pair();
        let mut base = WorldConfig::testbed(a.clone(), b.clone());
        base.mode = RunMode::PrimaryOnly;
        short(&mut base, 60);
        let mut dvf = WorldConfig::testbed(a, b);
        dvf.mode = RunMode::DiversifiCustomAp;
        short(&mut dvf, 60);

        let mut base_loss = 0.0;
        let mut dvf_loss = 0.0;
        for i in 0..5 {
            let s = seeds(100 + i);
            base_loss += World::new(&base, &s).run().trace.loss_rate(DEFAULT_DEADLINE);
            dvf_loss += World::new(&dvf, &s).run().trace.loss_rate(DEFAULT_DEADLINE);
        }
        assert!(
            dvf_loss < base_loss * 0.35,
            "diversifi {dvf_loss} vs baseline {base_loss}"
        );
    }

    #[test]
    fn diversifi_duplication_overhead_is_small() {
        let (a, b) = testbed_pair();
        let cfg = WorldConfig::testbed(a, b); // full 2-minute call
        let report = World::new(&cfg, &seeds(2)).run();
        let n = report.trace.len() as f64;
        let wasteful = report.secondary_wasteful_tx as f64 / n;
        assert!(
            wasteful < 0.02,
            "wasteful secondary transmissions {:.3}% of stream",
            wasteful * 100.0
        );
        // Naive replication would put ~100% of packets on the secondary
        // air; DiversiFi should be well under 5%.
        assert!(
            (report.secondary_air_tx as f64) < 0.05 * n,
            "secondary air tx {} for {} packets",
            report.secondary_air_tx,
            n
        );
    }

    #[test]
    fn middlebox_mode_recovers_losses_too() {
        let (a, b) = weak_pair();
        let mut cfg = WorldConfig::testbed(a.clone(), b.clone());
        cfg.mode = RunMode::DiversifiMiddlebox;
        short(&mut cfg, 60);
        let mbox_report = World::new(&cfg, &seeds(3)).run();

        let mut base = WorldConfig::testbed(a, b);
        base.mode = RunMode::PrimaryOnly;
        short(&mut base, 60);
        let base_report = World::new(&base, &seeds(3)).run();

        assert!(
            mbox_report.trace.loss_rate(DEFAULT_DEADLINE)
                < base_report.trace.loss_rate(DEFAULT_DEADLINE)
        );
        assert!(mbox_report.alg_stats.recovered_on_secondary > 0);
    }

    #[test]
    fn switch_delay_breakdown_matches_table3_shape() {
        let (a, b) = weak_pair();
        let mut ap_cfg = WorldConfig::testbed(a.clone(), b.clone());
        short(&mut ap_cfg, 60);
        let ap_report = World::new(&ap_cfg, &seeds(4)).run();

        let mut mb_cfg = WorldConfig::testbed(a, b);
        mb_cfg.mode = RunMode::DiversifiMiddlebox;
        short(&mut mb_cfg, 60);
        let mb_report = World::new(&mb_cfg, &seeds(4)).run();

        assert!(!ap_report.switch_delays.is_empty());
        assert!(!mb_report.switch_delays.is_empty());
        let ap_total = diversifi_simcore::mean(
            &ap_report.switch_delays.iter().map(|s| s.total_ms()).collect::<Vec<_>>(),
        );
        let mb_total = diversifi_simcore::mean(
            &mb_report.switch_delays.iter().map(|s| s.total_ms()).collect::<Vec<_>>(),
        );
        assert!(mb_total > ap_total, "middlebox {mb_total}ms vs AP {ap_total}ms");
        assert!(ap_total > 2.0 && ap_total < 5.0, "AP total {ap_total}ms");
        assert!(mb_total > 4.0 && mb_total < 7.0, "middlebox total {mb_total}ms");
        assert!(mb_report.switch_delays[0].queuing_ms > 0.0);
        assert_eq!(ap_report.switch_delays[0].queuing_ms, 0.0);
    }

    #[test]
    fn tcp_runs_and_moves_data() {
        let (a, b) = weak_pair();
        let mut cfg = WorldConfig::testbed(a, b);
        cfg.mode = RunMode::PrimaryOnly;
        cfg.with_tcp = true;
        short(&mut cfg, 30);
        let report = World::new(&cfg, &seeds(5)).run();
        assert!(
            report.tcp_throughput_bps > 1e6,
            "TCP should achieve >1 Mbps, got {}",
            report.tcp_throughput_bps
        );
    }

    #[test]
    fn tcp_throughput_mildly_affected_by_diversifi() {
        let (a, b) = testbed_pair();
        let mut off = WorldConfig::testbed(a.clone(), b.clone());
        off.mode = RunMode::PrimaryOnly;
        off.with_tcp = true;
        short(&mut off, 30);
        let mut on = WorldConfig::testbed(a, b);
        on.mode = RunMode::DiversifiCustomAp;
        on.with_tcp = true;
        short(&mut on, 30);

        let mut t_off = 0.0;
        let mut t_on = 0.0;
        for i in 0..4 {
            let s = seeds(200 + i);
            t_off += World::new(&off, &s).run().tcp_throughput_bps;
            t_on += World::new(&on, &s).run().tcp_throughput_bps;
        }
        let degradation = (t_off - t_on) / t_off;
        assert!(
            degradation < 0.1,
            "DiversiFi must not crater TCP: degradation {:.1}%",
            degradation * 100.0
        );
    }

    #[test]
    fn end_to_end_psm_mode_wastes_more_than_custom_ap() {
        let (a, b) = weak_pair();
        let mut custom = WorldConfig::testbed(a.clone(), b.clone());
        short(&mut custom, 60);
        let mut e2e = WorldConfig::testbed(a, b);
        e2e.mode = RunMode::EndToEndPsm;
        short(&mut e2e, 60);
        let mut waste_custom = 0;
        let mut waste_e2e = 0;
        for i in 0..4 {
            let s = seeds(300 + i);
            waste_custom += World::new(&custom, &s).run().secondary_wasteful_tx;
            waste_e2e += World::new(&e2e, &s).run().secondary_wasteful_tx;
        }
        assert!(
            waste_e2e > waste_custom,
            "tail-drop deep queue should waste more: e2e {waste_e2e} vs custom {waste_custom}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (a, b) = weak_pair();
        let mut cfg = WorldConfig::testbed(a, b);
        short(&mut cfg, 20);
        let r1 = World::new(&cfg, &seeds(9)).run();
        let r2 = World::new(&cfg, &seeds(9)).run();
        assert_eq!(r1.trace.fates, r2.trace.fates);
        assert_eq!(r1.secondary_air_tx, r2.secondary_air_tx);
    }

    #[test]
    fn arena_backed_cached_run_is_bit_identical() {
        let (a, b) = weak_pair();
        let mut cfg = WorldConfig::testbed(a, b);
        cfg.with_tcp = true;
        cfg.faults = diversifi_simcore::FaultPlan::single_ap_reboot(
            1,
            SimTime::from_secs(4),
            SimDuration::from_secs(1),
        );
        short(&mut cfg, 10);
        let plain = World::new(&cfg, &seeds(21)).run();
        let cache = RealizationCache::new(8);
        let mut arena = WorkerArena::new();
        // Repeated runs so later ones are served entirely from recycled
        // containers (the contract the parity suites pin at scale).
        for round in 0..3 {
            let r = World::new_cached_in(&cfg, &seeds(21), &cache, &mut arena).run_in(&mut arena);
            assert_eq!(r.trace.fates, plain.trace.fates, "round {round}");
            assert_eq!(r.secondary_air_tx, plain.secondary_air_tx, "round {round}");
            assert_eq!(r.tcp_diag, plain.tcp_diag, "round {round}");
            assert_eq!(
                r.fault_outcomes[0].recovered_at, plain.fault_outcomes[0].recovered_at,
                "round {round}"
            );
        }
        let stats = arena.stats();
        assert!(stats.hits > 0, "later rounds must reuse pooled containers: {stats:?}");
    }

    /// A 1 s packet clock schedules every emission beyond the queue's
    /// wheel span, so the run leans on its overflow heap; it must stay
    /// deterministic.
    #[test]
    fn sparse_packet_clock_runs_bit_identical() {
        let (a, b) = weak_pair();
        let mut cfg = WorldConfig::testbed(a, b);
        cfg.spec.interval = SimDuration::from_secs(1);
        cfg.spec.duration = SimDuration::from_secs(20);
        cfg.mode = RunMode::PrimaryOnly;
        let r1 = World::new(&cfg, &seeds(22)).run();
        let r2 = World::new(&cfg, &seeds(22)).run();
        assert_eq!(r1.trace.fates, r2.trace.fates);
    }

    #[test]
    fn legacy_reboot_knob_converts_to_equivalent_plan() {
        let rb = ApReboot {
            ap: 1,
            at: SimTime::from_secs(7),
            outage: SimDuration::from_secs(2),
        };
        let plan: diversifi_simcore::FaultPlan = rb.into();
        assert_eq!(
            plan,
            diversifi_simcore::FaultPlan::single_ap_reboot(1, SimTime::from_secs(7), SimDuration::from_secs(2))
        );
    }

    #[test]
    fn fault_plan_run_reports_outcomes_and_recovers() {
        let (a, b) = weak_pair();
        let mut cfg = WorldConfig::testbed(a, b);
        short(&mut cfg, 20);
        cfg.faults = diversifi_simcore::FaultPlan::single_ap_reboot(
            1,
            SimTime::from_secs(5),
            SimDuration::from_secs(2),
        );
        let report = World::new(&cfg, &seeds(11)).run();
        assert_eq!(report.fault_outcomes.len(), 1);
        let o = report.fault_outcomes[0];
        assert_eq!(o.label, "ap_down");
        assert_eq!(o.outage(), SimDuration::from_secs(2));
        let mttr = o.mttr().expect("primary stream keeps flowing: recovery is prompt");
        assert!(
            mttr >= SimDuration::from_secs(2),
            "recovery cannot precede the outage clearing: {mttr}"
        );
        assert!(mttr < SimDuration::from_secs(3), "mttr {mttr}");
    }

    #[test]
    fn interference_storm_raises_loss_then_clears() {
        let (a, b) = weak_pair();
        let mut healthy = WorldConfig::testbed(a.clone(), b.clone());
        healthy.mode = RunMode::PrimaryOnly;
        short(&mut healthy, 30);
        let mut stormy = healthy.clone();
        stormy.faults = diversifi_simcore::FaultPlan::none().with(
            SimTime::from_secs(10),
            diversifi_simcore::FaultKind::InterferenceStorm {
                duration: SimDuration::from_secs(5),
                erasure: 0.6,
                link: Some(0),
            },
        );
        let r_healthy = World::new(&healthy, &seeds(12)).run();
        let r_stormy = World::new(&stormy, &seeds(12)).run();
        let lh = r_healthy.trace.loss_rate(DEFAULT_DEADLINE);
        let ls = r_stormy.trace.loss_rate(DEFAULT_DEADLINE);
        assert!(
            ls > lh,
            "a 5 s storm at 0.6 extra erasure must cost packets: {ls} vs {lh}"
        );
        // The storm clears: the run still completes and the report knows
        // when service came back.
        assert_eq!(r_stormy.fault_outcomes.len(), 1);
        assert!(r_stormy.fault_outcomes[0].recovered_at.is_some());
    }
}
