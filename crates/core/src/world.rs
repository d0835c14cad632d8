//! The closed-loop single-NIC world: the paper's §6 evaluation testbed,
//! for one client or for a fleet sharing the two APs.
//!
//! One wired sender, an SDN switch (or source replication), two APs on
//! different channels, an optional middlebox, and single-NIC clients
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
//! By default the world has one client, the paper's §6 testbed. A fleet
//! ([`WorldConfig::fleet`], built by [`office_fleet`]) puts N clients on
//! the same two APs to answer the deployment question behind §4.6 and
//! §6.4: *what happens when everyone runs DiversiFi?* Each client has its
//! own stream, links, Algorithm-1 instance and PSM state; the APs' radios,
//! the fault engine, the packet ledger and the world RNG are shared, so
//! every recovery visit competes for airtime with everyone else's traffic.
//!
//! Everything stochastic draws from per-component seeded streams, so a run
//! is a pure function of `(WorldConfig, seed)` and DiversiFi-on vs -off are
//! paired experiments over the same channel realisation.

use crate::twonic::channel_horizon;
use diversifi_client::{
    Alg1Stats, Algorithm1, Algorithm1Config, Command, DeploymentMode, LinkSide, Residency,
};
use diversifi_net::{Middlebox, MiddleboxConfig, StreamPacket, TcpConfig, TcpReceiver, TcpSender};
use diversifi_simcore::telemetry::{self, Phase, TelemetrySession};
use diversifi_simcore::{
    trace_event, ComponentId, DecisionKind, EventQueue, FaultEdge, FaultEffect, FaultOutcome,
    FaultPlan, FaultWindow, RngStream, SeedFactory, SimDuration, SimTime, SweepRunner,
    TraceDetail, TraceKind, WorkerArena,
};
use diversifi_voip::{
    InputFate, StreamSpec, StreamTrace, WorkloadKind, WorkloadOutcome, WorkloadState,
    DEFAULT_DEADLINE,
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
    /// outages, interference storms). Empty in normal runs.
    pub faults: FaultPlan,
    /// Clients sharing the two APs. Empty (the default) runs the one
    /// client that `primary`, `secondary` and `mode` describe. A fleet
    /// takes that client's place: `primary` and `secondary` then only set
    /// the APs' channels, which every client's links must use. Fleets run
    /// VoIP without TCP in the customized-AP deployment, where a client
    /// with `diversifi` replicates and one without stays on its primary;
    /// [`World`] rejects any other fleet at construction.
    pub fleet: Vec<ClientSpec>,
}

/// One client of a fleet ([`WorldConfig::fleet`]).
#[derive(Clone, Debug)]
pub struct ClientSpec {
    /// Radio link to the primary AP (position-dependent).
    pub primary: LinkConfig,
    /// Radio link to the secondary AP.
    pub secondary: LinkConfig,
    /// Run DiversiFi (true) or stay on the primary (false).
    pub diversifi: bool,
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
            fleet: Vec::new(),
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

    /// Refuse a fleet that asks for what fleets do not model yet, rather
    /// than run it as something else.
    fn check_fleet(&self) {
        if self.fleet.is_empty() {
            return;
        }
        assert!(
            self.mode == RunMode::DiversifiCustomAp,
            "a fleet runs the customized-AP deployment only, not {:?}",
            self.mode
        );
        assert!(!self.with_tcp, "a fleet cannot carry the TCP coexistence flow");
        assert!(
            self.workload == WorkloadKind::Voip,
            "a fleet runs VoIP only, not {}",
            self.workload.label()
        );
        let channels = (self.primary.channel, self.secondary.channel);
        for (i, c) in self.fleet.iter().enumerate() {
            assert!(
                (c.primary.channel, c.secondary.channel) == channels,
                "fleet client {i} is not on the APs' channels {channels:?}"
            );
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

/// Everything a run produces. The per-client fields (`trace`,
/// `primary_deliveries`, `alg_stats`, `switch_delays`, `workload`)
/// describe the first client; a fleet's other clients are in
/// `other_clients`.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The stream as the client's application saw it.
    pub trace: StreamTrace,
    /// What the primary link alone delivered (before recovery).
    pub primary_deliveries: u64,
    /// Client-side Algorithm-1 counters.
    pub alg_stats: Alg1Stats,
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
    /// A fleet's clients after the first, in [`WorldConfig::fleet`] order;
    /// empty for a single-client world.
    pub other_clients: Vec<ClientOutcome>,
    /// Events popped from the queue over the run.
    pub events: u64,
}

/// What one fleet client received.
#[derive(Clone, Debug)]
pub struct ClientOutcome {
    /// The stream as this client received it.
    pub trace: StreamTrace,
    /// Its Algorithm-1 counters (all zero for a client without DiversiFi).
    pub alg_stats: Alg1Stats,
}

impl RunReport {
    /// Every client's received stream and Algorithm-1 counters, first
    /// client first.
    pub fn clients(&self) -> impl Iterator<Item = (&StreamTrace, &Alg1Stats)> {
        std::iter::once((&self.trace, &self.alg_stats))
            .chain(self.other_clients.iter().map(|c| (&c.trace, &c.alg_stats)))
    }

    /// Mean effective loss rate across clients.
    pub fn mean_loss(&self) -> f64 {
        self.clients().map(|(t, _)| t.loss_rate(DEFAULT_DEADLINE)).sum::<f64>()
            / (1 + self.other_clients.len()) as f64
    }
}

// The single client's stations: DEF and the primary real-time adapter on
// the primary AP, the secondary adapter on the secondary AP.
const DEF: AdapterId = AdapterId(0);
const PRIMARY: AdapterId = AdapterId(1);
const SECONDARY: AdapterId = AdapterId(2);
const TCP_FLOW: FlowId = FlowId(0);

/// Client `i`'s real-time stream (VoIP or FPS state ticks): `FlowId(1 +
/// i)`, so no stream shares `TCP_FLOW`.
fn stream_flow(client: usize) -> FlowId {
    FlowId(1 + client as u32)
}

/// A world event. Every pop moves one of these through the run loop, so
/// it stays small: bulky per-exchange state (the in-flight frame and its
/// MAC outcome) lives in `World::in_flight`, not in the event. The
/// explicit word-sized tag puts every payload at an 8-byte-aligned offset,
/// so an event moves as whole words; with a 1-byte tag the move from pop
/// to dispatch copied 47 bytes at odd offsets and stalled on store
/// forwarding. `client` indexes `World::clients`.
#[derive(Debug)]
#[repr(u64)]
enum Ev {
    /// The sender emits stream packet `seq` to `client`.
    SourceEmit { client: usize, seq: u64 },
    /// A stream packet reaches an AP's queue. `ap`: 0 = primary, 1 = secondary.
    ApArrival { ap: usize, frame: Frame },
    /// The AP's radio finished the exchange held in `World::in_flight[ap]`.
    ApTxDone(usize),
    /// Try to start a transmission at an idle AP. Queued only by
    /// `World::request_kick`, so only when it can start an exchange.
    ApKick(usize),
    /// A client's state-machine timer.
    ClientTimer(usize),
    /// The PS exchange is done; the client tears off the current channel.
    BeginRetune { client: usize, side: LinkSide },
    /// The client finished retuning to `side`.
    RetuneDone { client: usize, side: LinkSide },
    /// A power-save Null frame reached an AP. `sleeping` = PM bit.
    PsDelivered { ap: usize, adapter: AdapterId, sleeping: bool },
    /// A replicated packet reaches the middlebox.
    MiddleboxIngest(StreamPacket),
    /// A client's middlebox control message (start-from, or stop).
    MiddleboxControl { client: usize, start: Option<u64> },
    /// TCP sender wants to (re)fill the window.
    TcpKick,
    /// A TCP ACK reaches the sender.
    TcpAck(u64),
    /// Periodic TCP RTO check.
    TcpTimer,
    /// The client fires uplink input tick `tick` (FPS workloads only;
    /// never scheduled when the workload has no input stream, so VoIP
    /// runs see zero extra events and zero extra RNG draws).
    InputTick { client: usize, tick: u64 },
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

/// A client's Algorithm 1 wakeup. Queued events cannot be cancelled, so
/// arming an earlier wakeup leaves the later one queued; only the wakeup
/// armed last is live and a superseded one fires as a no-op. If a stale
/// fire cleared the record instead, it would re-arm a duplicate of the
/// next wakeup, and every duplicate would do the same on every fire.
#[derive(Debug, Default)]
struct ClientTimer {
    armed: Option<SimTime>,
}

impl ClientTimer {
    /// Arm a wakeup for Algorithm 1's `wake`; returns the instant to
    /// schedule a timer event at, or `None` if an earlier one is armed.
    /// Never arms at the current instant: `on_timer` already did all the
    /// work possible at `now`, so an equal-time wake could only spin. The
    /// 100 µs floor guarantees forward progress.
    fn arm(&mut self, now: SimTime, wake: SimTime) -> Option<SimTime> {
        let wake = wake.max(now + SimDuration::from_micros(100));
        if self.armed.is_some_and(|armed| armed <= wake) {
            return None;
        }
        self.armed = Some(wake);
        Some(wake)
    }

    /// Whether a timer event firing at `now` is the live wakeup. If it is,
    /// the wakeup is consumed and the caller runs Algorithm 1's timer.
    fn fire(&mut self, now: SimTime) -> bool {
        if self.armed != Some(now) {
            return false;
        }
        self.armed = None;
        true
    }
}

/// One client: its links, stations, place in the hop cycle, Algorithm 1
/// and the stream it receives.
struct Client {
    mode: RunMode,
    /// Radio links to the primary (0) and secondary (1) AP.
    links: [LinkModel; 2],
    /// The station the stream reaches on each AP.
    adapters: [AdapterId; 2],
    /// The single client's DEF station on the primary AP: it carries TCP
    /// and shares the primary adapter's PS state. Fleet clients have none.
    def: Option<AdapterId>,
    /// The stream's flow id.
    flow: FlowId,
    /// `None` while retuning.
    side: Option<LinkSide>,
    /// `None` for a client that does not replicate.
    alg: Option<Algorithm1>,
    timer: ClientTimer,
    workload: WorkloadState,
    /// When stream packet 0 leaves the sender.
    start: SimTime,
    primary_deliveries: u64,
    switch_delays: Vec<SwitchDelaySample>,
    /// Time the most recent switch-to-secondary started.
    pending_switch_started: Option<SimTime>,
}

impl Client {
    /// The client's stations on `ap`, in PS-signalling order.
    fn stations(&self, ap: usize) -> impl Iterator<Item = AdapterId> {
        [self.def.filter(|_| ap == 0), Some(self.adapters[ap])].into_iter().flatten()
    }

    /// (Re-)associate the client's stations with `ap` (0 = primary), with
    /// the queue-management IE its deployment requests on the secondary.
    fn associate(&self, ap: usize, station: &mut AccessPoint, alg: &Algorithm1Config) {
        let discipline = match (ap, self.mode) {
            (1, RunMode::DiversifiCustomAp) => {
                QueueDiscipline::HeadDrop { cap: alg.ap_queue_len() }
            }
            _ => QueueDiscipline::stock(),
        };
        for adapter in self.stations(ap) {
            station.associate(adapter, discipline);
        }
    }

    fn listening(&self, ap: usize) -> bool {
        matches!((self.side, ap), (Some(LinkSide::Primary), 0) | (Some(LinkSide::Secondary), 1))
    }
}

/// The world simulator. Borrows its configuration so paired arms (N modes ×
/// one seed) share a single `WorldConfig` instead of cloning it per run.
pub struct World<'a> {
    cfg: &'a WorldConfig,
    q: EventQueue<Ev>,
    aps: [AccessPoint; 2],
    /// The frame exchange each AP's radio is running, as `(frame,
    /// outcome)`: set when the exchange starts, taken by its
    /// `Ev::ApTxDone`. `Some` means the radio is busy, so an AP never has
    /// more than one exchange in flight.
    in_flight: [Option<(Frame, TxOutcome)>; 2],
    clients: Vec<Client>,
    /// Stations per client: adapter `a` belongs to client
    /// `a / adapter_stride`.
    adapter_stride: u16,
    mbox: Middlebox,
    tcp_tx: TcpSender,
    tcp_rx: TcpReceiver,
    rng: RngStream,
    // Instrumentation.
    secondary_air_tx: u64,
    secondary_wasteful_tx: u64,
    /// Per-AP MAC telemetry (attempt/airtime distributions); fed only while
    /// a telemetry session is active, exported at finalize.
    mac_metrics: [MacMetrics; 2],
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
    /// Every link's channel realisation is materialised fresh over the run
    /// horizon and replayed, so a run is a pure function of `(cfg, seed)`
    /// and [`World::new_cached_in`] is bit-identical to this by
    /// construction. This is the reference the parity suites pin the
    /// cached path against.
    ///
    /// # Panics
    ///
    /// If `cfg.fleet` asks for something a fleet does not model (see
    /// [`WorldConfig::fleet`]).
    pub fn new(cfg: &'a WorldConfig, seeds: &SeedFactory) -> World<'a> {
        let horizon = channel_horizon(&cfg.spec);
        Self::build(cfg, seeds, &mut WorkerArena::new(), &mut |link, seeds, index| {
            Arc::new(ChannelRealization::materialize(link, seeds, index, horizon))
        })
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
        let horizon = channel_horizon(&cfg.spec);
        Self::build(cfg, seeds, arena, &mut |link, seeds, index| {
            cache.get_or_materialize(link, seeds, index, horizon)
        })
    }

    /// The one constructor behind [`World::new`] and
    /// [`World::new_cached_in`]: `realize(link, seeds, index)` supplies
    /// each link's realisation and the recyclable containers come from
    /// `arena`.
    ///
    /// What depends on the client count is decided here, as data. The
    /// single client has three stations (DEF, PRIMARY, SECONDARY), starts
    /// at zero and seeds its links and the world RNG from `seeds`. Fleet
    /// client `i` has two stations (`2i` on the primary AP, `2i + 1` on
    /// the secondary), seeds its links from its own sub-factory, and
    /// starts its stream up to 20 ms late so sources don't tick in
    /// lockstep (as independent calls wouldn't).
    fn build(
        cfg: &'a WorldConfig,
        seeds: &SeedFactory,
        arena: &mut WorkerArena,
        realize: &mut dyn FnMut(&LinkConfig, &SeedFactory, u64) -> Arc<ChannelRealization>,
    ) -> World<'a> {
        cfg.check_fleet();
        let mut client = |i: usize,
                          mode: RunMode,
                          links: [&LinkConfig; 2],
                          seeds: &SeedFactory,
                          adapters: [AdapterId; 2],
                          def: Option<AdapterId>,
                          start: SimTime| {
            let links = [0, 1].map(|index| {
                let real = realize(links[index], seeds, index as u64);
                LinkModel::from_realization(links[index].clone(), real, seeds, index as u64)
            });
            let alg = mode.replicates().then(|| {
                let deployment = match mode {
                    RunMode::DiversifiMiddlebox => DeploymentMode::Middlebox,
                    _ => DeploymentMode::CustomizedAp,
                };
                let mut alg = Algorithm1::new(cfg.alg, deployment, start);
                alg.set_stream_end(cfg.spec.packet_count());
                alg
            });
            let side = match mode {
                RunMode::SecondaryOnly => LinkSide::Secondary,
                _ => LinkSide::Primary,
            };
            Client {
                mode,
                links,
                adapters,
                def,
                flow: stream_flow(i),
                side: Some(side),
                alg,
                timer: ClientTimer::default(),
                workload: WorkloadState::new(cfg.workload, cfg.spec, start),
                start,
                primary_deliveries: 0,
                switch_delays: Vec::new(),
                pending_switch_started: None,
            }
        };
        let (clients, adapter_stride, rng) = if cfg.fleet.is_empty() {
            let links = [&cfg.primary, &cfg.secondary];
            let adapters = [PRIMARY, SECONDARY];
            let only = client(0, cfg.mode, links, seeds, adapters, Some(DEF), SimTime::ZERO);
            (vec![only], 3, seeds.stream("world", 0))
        } else {
            let mut rng = seeds.stream("mw-world", 0);
            let clients = cfg
                .fleet
                .iter()
                .enumerate()
                .map(|(i, spec)| {
                    let mode = if spec.diversifi { cfg.mode } else { RunMode::PrimaryOnly };
                    let links = [&spec.primary, &spec.secondary];
                    let adapters = [AdapterId(2 * i as u16), AdapterId(2 * i as u16 + 1)];
                    let start = SimTime::ZERO + SimDuration::from_micros(rng.range_u64(0, 20_000));
                    let seeds = seeds.subfactory("mw-client", i as u64);
                    client(i, mode, links, &seeds, adapters, None, start)
                })
                .collect();
            (clients, 2, rng)
        };

        let fault_windows = cfg.faults.windows();
        let mut aps = [(0, cfg.primary.channel), (1, cfg.secondary.channel)].map(|(id, channel)| {
            let mut ap_cfg = ApConfig::new(ApId(id), channel);
            ap_cfg.wake_batch = cfg.wake_batch;
            AccessPoint::new(ap_cfg)
        });
        let mut mbox = Middlebox::new(cfg.middlebox);
        for c in &clients {
            c.associate(0, &mut aps[0], &cfg.alg);
            c.associate(1, &mut aps[1], &cfg.alg);
            mbox.register(c.flow, Some(cfg.alg.ap_queue_len()));
        }

        let q = arena.take();
        let pending_recovery = arena.take();
        let active_brownouts = arena.take();
        let active_storms = arena.take();
        let mut fault_recovered: Vec<Option<SimTime>> = arena.take();
        fault_recovered.resize(fault_windows.len(), None);

        World {
            q,
            aps,
            in_flight: [None, None],
            clients,
            adapter_stride,
            mbox,
            tcp_tx: TcpSender::new(TcpConfig::default()),
            tcp_rx: TcpReceiver::new(),
            rng,
            secondary_air_tx: 0,
            secondary_wasteful_tx: 0,
            mac_metrics: [MacMetrics::default(), MacMetrics::default()],
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
        // Each client listens on one side and sleeps on the other: the
        // secondary-only baseline marks its primary stations asleep, every
        // other client its secondary station.
        for c in &self.clients {
            let asleep = if c.mode == RunMode::SecondaryOnly { 0 } else { 1 };
            for adapter in c.stations(asleep) {
                self.aps[asleep].set_power_save(adapter, true);
            }
        }

        for (client, c) in self.clients.iter().enumerate() {
            self.q.schedule(c.start, Ev::SourceEmit { client, seq: 0 });
            // Uplink input ticks ride alongside the downlink stream for
            // workloads that have them (FPS); VoIP schedules nothing here.
            if c.workload.input_spec().is_some() {
                self.q.schedule(c.start, Ev::InputTick { client, tick: 0 });
            }
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

        let mut events = 0;
        while let Some((now, ev)) = self.q.pop() {
            if self.done {
                break;
            }
            events += 1;
            let _dispatch = telemetry::span(Phase::Dispatch);
            self.handle(now, ev);
        }

        // Close the degradation books: a primary-only fallback still open
        // at end of run must show up in `degraded_ns`/`degraded_us`.
        for c in &mut self.clients {
            if let Some(alg) = &mut c.alg {
                alg.finish(end);
            }
        }

        // Horizon audit: every emitted stream copy must have reached exactly
        // one fate or still be in a stage the devices corroborate. DEF
        // stations never carry the stream, so the audited queues are each
        // client's stream stations.
        let queued_truth: usize = self
            .clients
            .iter()
            .map(|c| {
                let [p, s] = c.adapters;
                self.aps[0].queue_len(p)
                    + self.aps[0].hw_len(p)
                    + self.aps[1].queue_len(s)
                    + self.aps[1].hw_len(s)
            })
            .sum();
        let buffered_truth = self.clients.iter().map(|c| self.mbox.buffered(c.flow)).sum();
        self.ledger.finalize(queued_truth, buffered_truth, 2);
        self.tick_ledger.finalize();

        // Snapshot every component's instruments into the active telemetry
        // session's registry. The closure never runs when telemetry is off,
        // so the finalize cost (including the E-model evaluation below) is
        // strictly session-gated. Histograms cover every client; the
        // workload gauges describe the first.
        telemetry::with_metrics(|reg| {
            self.aps[0].export_metrics(ComponentId::ap(0), reg);
            self.aps[1].export_metrics(ComponentId::ap(1), reg);
            self.mac_metrics[0].export(ComponentId::mac(0), reg);
            self.mac_metrics[1].export(ComponentId::mac(1), reg);
            self.mbox.export_metrics(ComponentId::middlebox(), reg);
            if self.cfg.with_tcp {
                self.tcp_tx.export_metrics(ComponentId::tcp(), reg);
            }
            for (i, c) in self.clients.iter().enumerate() {
                if let Some(alg) = &c.alg {
                    alg.export_metrics(client_component(i), reg);
                }
            }
            // Recovery-hop latency distribution (Table 3's total), µs.
            let mut hop = diversifi_simcore::LogHistogram::new();
            for s in self.clients.iter().flat_map(|c| &c.switch_delays) {
                hop.record_f64(s.total_ms() * 1000.0);
            }
            reg.histogram(ComponentId::world(), "hop_latency_us", &hop);
            // Delivered-packet one-way delay distribution, µs, plus the
            // workload-native view of the finished session: the playout/
            // E-model MOS for VoIP, per-tick deadline metrics for FPS.
            let mut delay = diversifi_simcore::LogHistogram::new();
            for c in &self.clients {
                diversifi_voip::delay_histogram_into(c.workload.trace(), &mut delay);
            }
            reg.histogram(ComponentId::playout(), "delay_us", &delay);
            let workload = &self.clients[0].workload;
            match workload {
                WorkloadState::Voip(_) => {
                    let pcfg = diversifi_voip::PlayoutConfig::default();
                    let conceal = diversifi_voip::conceal(workload.trace(), &pcfg);
                    let q = diversifi_voip::evaluate(
                        workload.trace(),
                        &conceal,
                        &diversifi_voip::CodecModel::g711_plc(),
                        pcfg.playout_delay,
                        SimDuration::ZERO,
                    );
                    reg.gauge(ComponentId::playout(), "emodel_r", q.r_factor);
                    reg.gauge(ComponentId::playout(), "mos", q.mos);
                }
                WorkloadState::Fps(_) => {
                    if let WorkloadOutcome::Fps(o) = workload.outcome() {
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
            let primary_deliveries = self.clients.iter().map(|c| c.primary_deliveries).sum();
            reg.counter(ComponentId::world(), "primary_deliveries", primary_deliveries);
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
        let mut clients = self.clients.into_iter();
        let first = clients.next().expect("a world has at least one client");
        let alg_stats = |c: &Client| c.alg.as_ref().map(|a| a.stats).unwrap_or_default();
        let other_clients = clients
            .map(|c| ClientOutcome { alg_stats: alg_stats(&c), trace: c.workload.finish().0 })
            .collect();
        let first_stats = alg_stats(&first);
        let (trace, workload_outcome) = first.workload.finish();
        let report = RunReport {
            trace,
            primary_deliveries: first.primary_deliveries,
            alg_stats: first_stats,
            secondary_air_tx: self.secondary_air_tx,
            secondary_wasteful_tx: self.secondary_wasteful_tx,
            tcp_throughput_bps,
            tcp_diag: (
                self.tcp_tx.transmissions,
                self.tcp_tx.acked_segments,
                self.tcp_tx.fast_retransmits,
                self.tcp_tx.timeouts,
            ),
            switch_delays: first.switch_delays,
            fault_outcomes,
            workload: workload_outcome,
            other_clients,
            events,
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

    /// The client a station belongs to.
    fn client_of(&self, adapter: AdapterId) -> usize {
        (adapter.0 / self.adapter_stride) as usize
    }

    fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::Done => self.done = true,
            Ev::SourceEmit { client, seq } => self.on_source_emit(now, client, seq),
            Ev::ApArrival { ap, frame } => self.on_ap_arrival(now, ap, frame),
            Ev::ApKick(ap) => self.kick_ap(now, ap),
            Ev::ApTxDone(ap) => self.on_tx_done(now, ap),
            Ev::ClientTimer(client) => self.on_client_timer(now, client),
            Ev::BeginRetune { client, side } => {
                // Only now does the client stop hearing its current channel
                // (the driver retunes strictly after the PS message is
                // delivered — the ath9k fix described in §5.4).
                diversifi_simcore::sim_assert!(
                    self.clients[client].side.is_some(),
                    "retune began while a previous retune was still in flight"
                );
                self.clients[client].side = None;
                trace_event!(
                    now,
                    TraceKind::LinkSwitch,
                    client_component(client),
                    TraceDetail::Link { to_secondary: side == LinkSide::Secondary },
                );
                self.q.schedule(
                    now + SimDuration::from_micros(2300),
                    Ev::RetuneDone { client, side },
                );
            }
            Ev::RetuneDone { client, side } => self.on_retune_done(now, client, side),
            Ev::PsDelivered { ap, adapter, sleeping } => {
                trace_event!(
                    now,
                    TraceKind::PowerSave,
                    ComponentId::ap(ap as u16),
                    TraceDetail::Power { sleeping },
                );
                self.aps[ap].set_power_save(adapter, sleeping);
                self.request_kick(now, ap);
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
                let (seq, flow) = (pkt.seq, pkt.flow);
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
                            depth: self.mbox.buffered(flow) as u16,
                            cap: self.cfg.alg.ap_queue_len() as u16,
                        },
                    );
                    self.ledger.mbox_buffer();
                    if self.mbox.rolled_over > rolled_before {
                        self.ledger.mbox_rollover();
                    }
                }
            }
            Ev::MiddleboxControl { client, start } => self.on_middlebox_control(now, client, start),
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
            Ev::InputTick { client, tick } => self.on_input_tick(now, client, tick),
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
        let links = self.clients.iter_mut().flat_map(|c| c.links.iter_mut().enumerate());
        for (link_idx, link) in links {
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
    /// state associations (the client drivers re-associate promptly) but the
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
            let stream_lost = lost.iter().filter(|f| f.flow != TCP_FLOW).count();
            self.ledger.flushed(stream_lost);
            // The outage rides on the event itself (it used to be read back
            // from the global config knob, which breaks the moment a plan
            // schedules two power cycles with different durations).
            self.q.schedule(now + outage, Ev::ApReboot { ap, up: true, outage, window });
            return;
        }
        for c in &self.clients {
            c.associate(ap, &mut self.aps[ap], &self.cfg.alg);
        }
        self.pending_recovery.push(window);
        self.request_kick(now, ap);
    }

    fn on_source_emit(&mut self, now: SimTime, client: usize, seq: u64) {
        let spec = self.cfg.spec;
        if seq + 1 < spec.packet_count() {
            let next = spec.send_time(self.clients[client].start, seq + 1);
            self.q.schedule(next, Ev::SourceEmit { client, seq: seq + 1 });
        }
        let bytes = spec.wire_bytes();
        let lan = self.cfg.lan_delay
            + self.brownout_extra_delay()
            + SimDuration::from_micros(self.rng.range_u64(0, 120));
        let c = &self.clients[client];
        let (mode, flow, [primary, secondary]) = (c.mode, c.flow, c.adapters);
        let dst = ClientId(client as u16);

        // Primary copy (except in the secondary-only baseline).
        if mode != RunMode::SecondaryOnly {
            let frame = Frame::data(flow, seq, bytes, now, dst, primary);
            self.ledger.emit();
            self.q.schedule(now + lan, Ev::ApArrival { ap: 0, frame });
        }

        // Secondary copy.
        match mode {
            RunMode::PrimaryOnly => {}
            RunMode::SecondaryOnly | RunMode::DiversifiCustomAp | RunMode::EndToEndPsm => {
                let frame = Frame::data(flow, seq, bytes, now, dst, secondary);
                self.ledger.emit();
                self.q.schedule(now + lan, Ev::ApArrival { ap: 1, frame });
            }
            RunMode::DiversifiMiddlebox => {
                let pkt = StreamPacket::new(flow, seq, bytes, now);
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
        let is_stream = frame.flow != TCP_FLOW;
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
        if is_stream {
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
        self.request_kick(now, ap);
    }

    /// Queue a kick of `ap` at `now` unless it would pop as a no-op. An
    /// idle radio needs a station with an eligible frame. A busy radio is
    /// freed only by its `Ev::ApTxDone`, so the kick is queued only when
    /// that is due at `now` and may still pop first; an exchange that
    /// completes later leaves the radio busy when the kick pops. Every
    /// event that can make traffic eligible (an enqueue, a PS wake or a
    /// completed exchange) requests a kick of its own, so a skipped kick
    /// leaves no frame unserved.
    fn request_kick(&mut self, now: SimTime, ap: usize) {
        let useful = match &self.in_flight[ap] {
            Some((_, outcome)) => outcome.completed_at <= now,
            None => self.aps[ap].has_eligible_traffic(),
        };
        if useful {
            self.q.schedule(now, Ev::ApKick(ap));
        }
    }

    /// Start a transmission at `ap` if its radio is idle and traffic is
    /// eligible, over the link to the frame's client.
    fn kick_ap(&mut self, now: SimTime, ap: usize) {
        if self.in_flight[ap].is_some() {
            return;
        }
        let Some((adapter, frame)) = self.aps[ap].next_tx() else { return };
        if frame.flow != TCP_FLOW {
            self.ledger.tx_start();
        }
        let mac_cfg = self.aps[ap].config().mac;
        let client = self.client_of(adapter);
        let outcome = {
            let _sample = telemetry::span(Phase::ChannelSample);
            mac::transmit(&mut self.clients[client].links[ap], &mac_cfg, &frame, now)
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
        self.in_flight[ap] = Some((frame, outcome));
        self.q.schedule(outcome.completed_at, Ev::ApTxDone(ap));
    }

    fn on_tx_done(&mut self, now: SimTime, ap: usize) {
        let (frame, outcome) =
            self.in_flight[ap].take().expect("ApTxDone fires only for the exchange in flight");
        self.request_kick(now, ap);

        if ap == 1 && frame.kind == FrameKind::Data {
            self.secondary_air_tx += 1;
        }
        if telemetry::active() {
            self.mac_metrics[ap].record(&outcome);
        }

        let client = self.client_of(frame.dst_adapter);
        let heard = outcome.delivered && self.clients[client].listening(ap);
        if heard {
            trace_event!(
                now,
                TraceKind::Delivery,
                client_component(client),
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
        if frame.flow != TCP_FLOW {
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

        if frame.flow == TCP_FLOW {
            trace_event!(
                now,
                TraceKind::Transport,
                ComponentId::tcp(),
                TraceDetail::Transport { seq: frame.seq, flight: self.tcp_tx.in_flight() as u16 },
            );
            let ack = self.tcp_rx.on_segment(frame.seq);
            // ACK goes back over the uplink + LAN; brownouts and uplink
            // outages hit it like any other control message.
            let loss = self.control_loss();
            if !self.rng.chance(loss) {
                let d = self.cfg.uplink_delay + self.cfg.lan_delay + self.brownout_extra_delay();
                self.q.schedule(now + d, Ev::TcpAck(ack));
            }
            return;
        }

        let seq = frame.seq;
        let c = &mut self.clients[client];
        if ap == 1 && c.workload.delivered(seq) {
            self.secondary_wasteful_tx += 1;
        }
        c.workload.record_arrival(seq, now);
        if ap == 0 {
            c.primary_deliveries += 1;
        }
        // The stream is heard again: every fault window that has cleared is
        // now confirmed recovered.
        if !self.pending_recovery.is_empty() {
            for w in std::mem::take(&mut self.pending_recovery) {
                self.fault_recovered[w].get_or_insert(now);
                trace_event!(
                    now,
                    TraceKind::Fault,
                    ComponentId::world(),
                    TraceDetail::Fault { window: w as u16, edge: FaultEdge::Recovered },
                );
            }
        }
        let side = if ap == 0 { LinkSide::Primary } else { LinkSide::Secondary };
        if let Some(alg) = &mut self.clients[client].alg {
            let cmds = alg.on_packet(seq, now, side);
            self.apply_commands(now, client, cmds);
            self.arm_client_timer(now, client);
        }
    }

    fn on_client_timer(&mut self, now: SimTime, client: usize) {
        let c = &mut self.clients[client];
        if !c.timer.fire(now) {
            return;
        }
        let Some(alg) = &mut c.alg else { return };
        let cmds = alg.on_timer(now);
        self.apply_commands(now, client, cmds);
        self.arm_client_timer(now, client);
    }

    fn arm_client_timer(&mut self, now: SimTime, client: usize) {
        let c = &mut self.clients[client];
        let Some(alg) = &c.alg else { return };
        if let Some(wake) = alg.next_wakeup().and_then(|w| c.timer.arm(now, w)) {
            self.q.schedule(wake, Ev::ClientTimer(client));
        }
    }

    /// The client fires one uplink input tick (FPS workloads only): a
    /// control-sized message taking the same uplink path as PS-Null frames
    /// and TCP ACKs — bounded retries against `control_loss()`, each retry
    /// costing one more uplink hop of latency. Never scheduled for
    /// workloads without an input stream, so VoIP runs are untouched.
    fn on_input_tick(&mut self, now: SimTime, client: usize, tick: u64) {
        let c = &self.clients[client];
        let Some(spec) = c.workload.input_spec() else { return };
        if tick + 1 < spec.packet_count() {
            let next = spec.send_time(c.start, tick + 1);
            self.q.schedule(next, Ev::InputTick { client, tick: tick + 1 });
        }
        self.tick_ledger.emit();
        // No usable radio — mid-retune, or the tuned AP power-cycled our
        // association away: the tick dies in the driver, consuming no air
        // time and no RNG draw.
        let radio_up = match c.side {
            None => false,
            Some(LinkSide::Primary) => self.aps[0].is_associated(c.adapters[0]),
            Some(LinkSide::Secondary) => self.aps[1].is_associated(c.adapters[1]),
        };
        if !radio_up {
            self.tick_ledger.blackout();
            self.clients[client].workload.record_input(tick, InputFate::Blackout);
            return;
        }
        // 3 attempts, like the middlebox re-install requests (the input
        // path cannot afford the PS fix's 5: the next tick is 15 ms away).
        let fate = match self.send_uplink_control(3) {
            Some(delay) => {
                InputFate::Delivered(now + delay + self.cfg.lan_delay + self.brownout_extra_delay())
            }
            None => InputFate::Lost,
        };
        match fate {
            InputFate::Delivered(at) => {
                self.tick_ledger.delivered();
                trace_event!(
                    now,
                    TraceKind::Transport,
                    client_component(client),
                    TraceDetail::Transport {
                        seq: tick,
                        flight: at.saturating_since(now).as_micros().min(u16::MAX as u64) as u16,
                    },
                );
            }
            _ => self.tick_ledger.lost(),
        }
        self.clients[client].workload.record_input(tick, fate);
    }

    /// Send one uplink control message (a PS Null frame, a middlebox
    /// start request, an input tick) with up to `attempts` tries against
    /// `control_loss()`, each retry costing one more uplink hop. Returns
    /// the uplink delay of the attempt that got through, or `None` when
    /// every attempt was lost. Draws exactly one `chance` per attempt made.
    fn send_uplink_control(&mut self, attempts: u32) -> Option<SimDuration> {
        let mut delay = self.cfg.uplink_delay;
        for _ in 0..attempts {
            let loss = self.control_loss();
            if !self.rng.chance(loss) {
                return Some(delay);
            }
            delay += self.cfg.uplink_delay;
        }
        None
    }

    /// Tell `ap` that `client`'s stations there sleep or wake: one uplink
    /// Null(PM) frame per station, modelling the paper's 5-retry driver
    /// fix — with 5 attempts the residual loss is tiny.
    fn send_ps(&mut self, now: SimTime, client: usize, ap: usize, sleeping: bool) {
        for adapter in self.clients[client].stations(ap) {
            // A frame whose 5 attempts are all lost is dropped: the AP
            // never learns, and its state stays desynchronised until the
            // next PS exchange (the bug the paper had to fix).
            if let Some(delay) = self.send_uplink_control(5) {
                self.q.schedule(now + delay, Ev::PsDelivered { ap, adapter, sleeping });
            }
        }
    }

    fn apply_commands(&mut self, now: SimTime, client: usize, cmds: Vec<Command>) {
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
                    client_component(client),
                    TraceDetail::Decision { kind, seq },
                );
            }
            match cmd {
                Command::SwitchToSecondary => {
                    self.clients[client].pending_switch_started = Some(now);
                    // PS=1 to every primary-AP station; the client keeps
                    // listening until the exchange completes.
                    self.send_ps(now, client, 0, true);
                    self.q.schedule(
                        now + self.cfg.uplink_delay * 2,
                        Ev::BeginRetune { client, side: LinkSide::Secondary },
                    );
                }
                Command::SwitchToPrimary => {
                    self.send_ps(now, client, 1, true);
                    self.q.schedule(
                        now + self.cfg.uplink_delay * 2,
                        Ev::BeginRetune { client, side: LinkSide::Primary },
                    );
                }
                Command::MiddleboxStart { from_seq } => {
                    // Bounded retry, same shape as the PS Null-frame fix: a
                    // lost re-install request must not silently disable
                    // replication for the rest of the run. Three tries keep
                    // the residual loss negligible.
                    if let Some(up) = self.send_uplink_control(3) {
                        let d = up + self.cfg.lan_delay + self.cfg.middlebox_net_delay;
                        let ev = Ev::MiddleboxControl { client, start: Some(from_seq) };
                        self.q.schedule(now + d, ev);
                    }
                }
                Command::MiddleboxStop => {
                    let d = self.cfg.uplink_delay
                        + self.cfg.lan_delay
                        + self.cfg.middlebox_net_delay;
                    self.q.schedule(now + d, Ev::MiddleboxControl { client, start: None });
                }
            }
        }
    }

    fn on_retune_done(&mut self, now: SimTime, client: usize, side: LinkSide) {
        self.clients[client].side = Some(side);
        trace_event!(
            now,
            TraceKind::LinkSwitch,
            client_component(client),
            TraceDetail::Link { to_secondary: side == LinkSide::Secondary },
        );
        let residency = match side {
            LinkSide::Secondary => {
                // Wake the secondary association.
                self.send_ps(now, client, 1, false);
                // Table 3 instrumentation, using the paper's taxonomy:
                // "switching" = channel retune + PS signalling to the old
                // link; "network" = the leg that fetches the packet (the
                // wake exchange at the AP, or the start-request round trip
                // to the middlebox); "queuing" = middlebox service time.
                let c = &mut self.clients[client];
                if let Some(started) = c.pending_switch_started.take() {
                    let ps = self.cfg.uplink_delay.as_millis_f64() * 2.0;
                    let switching_ms = (now - started).as_millis_f64() - ps;
                    let (network_ms, queuing_ms) = if c.mode == RunMode::DiversifiMiddlebox {
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
                    let sample = SwitchDelaySample { switching_ms, network_ms, queuing_ms };
                    c.switch_delays.push(sample);
                }
                Residency::Secondary
            }
            LinkSide::Primary => {
                self.send_ps(now, client, 0, false);
                Residency::Primary
            }
        };
        let alg = self.clients[client].alg.as_mut().expect("only a DiversiFi client retunes");
        let cmds = alg.on_residency(residency, now);
        self.apply_commands(now, client, cmds);
        self.arm_client_timer(now, client);
    }

    fn on_middlebox_control(&mut self, now: SimTime, client: usize, start: Option<u64>) {
        if self.mbox_down {
            // The process is down: the control message reaches a dead
            // socket. The client's bounded retries already fired, so the
            // request is simply lost; Algorithm 1 re-issues a start on its
            // next recovery visit once the stream is heard again.
            return;
        }
        let flow = self.clients[client].flow;
        match start {
            Some(from_seq) => {
                let buffered_before = self.mbox.buffered(flow);
                let (service, burst) = self.mbox.start(flow, from_seq);
                // The drain empties the ring: copies newer than the request
                // head for the secondary AP, older ones are useless.
                self.ledger.mbox_drain(burst.len(), buffered_before - burst.len());
                for (i, pkt) in burst.into_iter().enumerate() {
                    let d = service
                        + self.cfg.middlebox_net_delay
                        + SimDuration::from_micros(20 * i as u64);
                    let frame = self.secondary_frame(client, pkt);
                    self.q.schedule(now + d, Ev::ApArrival { ap: 1, frame });
                }
            }
            None => self.mbox.stop(flow),
        }
    }

    fn forward_from_middlebox(&mut self, now: SimTime, pkt: StreamPacket) {
        let d = self.mbox.service_delay() + self.cfg.middlebox_net_delay;
        let client = pkt.flow.0 as usize - 1; // the inverse of `stream_flow`
        let frame = self.secondary_frame(client, pkt);
        self.q.schedule(now + d, Ev::ApArrival { ap: 1, frame });
    }

    /// A middlebox copy, addressed to `client`'s secondary station.
    fn secondary_frame(&self, client: usize, pkt: StreamPacket) -> Frame {
        let adapter = self.clients[client].adapters[1];
        Frame::data(pkt.flow, pkt.seq, pkt.bytes, pkt.src_time, ClientId(client as u16), adapter)
    }

    /// Refill the TCP window. The download rides the single client's DEF
    /// station (a fleet carries no TCP).
    fn on_tcp_kick(&mut self, now: SimTime) {
        if !self.cfg.with_tcp {
            return;
        }
        while let Some(seg) = self.tcp_tx.poll_send(now) {
            let frame = Frame::data(TCP_FLOW, seg.seq, 1460 + 40, now, ClientId(0), DEF);
            let lan = self.cfg.lan_delay
                + self.brownout_extra_delay()
                + SimDuration::from_micros(self.rng.range_u64(0, 80));
            self.q.schedule(now + lan, Ev::ApArrival { ap: 0, frame });
        }
    }
}

/// The trace and metrics identity of client `i`: `client` alone for the
/// first (and a single) client, `client:i` for the others.
fn client_component(i: usize) -> ComponentId {
    ComponentId::client(u16::try_from(i).expect("client index fits a component id"))
}

/// A fleet of `n` clients spread over the office, all running DiversiFi
/// (or none, for the baseline), on the §6.1 testbed's APs.
pub fn office_fleet(
    n: usize,
    diversifi: bool,
    spec: StreamSpec,
    seeds: &SeedFactory,
) -> WorldConfig {
    use diversifi_wifi::{Channel, GeParams};
    let mut rng = seeds.stream("fleet-layout", 0);
    let fleet: Vec<ClientSpec> = (0..n)
        .map(|_| {
            let mut primary = LinkConfig::office(Channel::CH1, rng.range_f64(10.0, 24.0));
            if rng.chance(0.25) {
                primary.ge = GeParams::weak_link();
            }
            let mut secondary =
                LinkConfig::office(Channel::CH11, primary.distance_m + rng.range_f64(4.0, 16.0));
            if rng.chance(0.5) {
                secondary.ge = GeParams::weak_link();
            }
            ClientSpec { primary, secondary, diversifi }
        })
        .collect();
    assert!(n > 0, "a fleet needs at least one client");
    let mut cfg = WorldConfig::testbed(fleet[0].primary.clone(), fleet[0].secondary.clone());
    cfg.spec = spec;
    // The secondary AP hands two frames to its hardware per wake, the
    // stock driver's batch.
    cfg.wake_batch = 2;
    cfg.fleet = fleet;
    cfg
}

/// Paired baseline/DiversiFi fleet runs over several fleet sizes, executed
/// on the shared [`SweepRunner`].
///
/// Each fleet size derives its own `SeedFactory` via `seed_for(n)`, and the
/// two arms of a pair share that factory so they see the same office layout
/// and channel realisations (A/B pairing). Every run is a pure function of
/// its own factory, so the output is bit-identical at any worker count.
/// Returns `(n, baseline, diversifi)` rows in `sizes` order.
pub fn fleet_sweep(
    sizes: &[usize],
    spec: StreamSpec,
    seed_for: impl Fn(usize) -> u64 + Sync,
) -> Vec<(usize, RunReport, RunReport)> {
    let reports = SweepRunner::available().run_indexed(sizes.len() * 2, |idx| {
        let n = sizes[idx / 2];
        let diversifi = idx % 2 == 1;
        let seeds = SeedFactory::new(seed_for(n));
        World::new(&office_fleet(n, diversifi, spec, &seeds), &seeds).run()
    });
    let mut it = reports.into_iter();
    sizes
        .iter()
        .map(|&n| {
            let base = it.next().expect("two reports per size");
            let dvf = it.next().expect("two reports per size");
            (n, base, dvf)
        })
        .collect()
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

    /// Superseded client timers are no-ops, not re-armers. If a stale
    /// wakeup cleared the armed record, it would schedule a duplicate of
    /// the next wakeup, and the duplicates would never drain: this 120 s
    /// testbed call then pops 60,499 events. With one live timer it pops
    /// 44,692. `Phase::Dispatch` closes one span per popped event, so it
    /// counts them exactly.
    #[test]
    fn superseded_client_timers_do_not_cascade() {
        if !telemetry::TRACE_COMPILED {
            return;
        }
        let (a, b) = testbed_pair();
        let cfg = WorldConfig::testbed(a, b);
        assert_eq!(cfg.mode, RunMode::DiversifiCustomAp);
        let (_, session) = World::new(&cfg, &seeds(2)).run_traced(1 << 10);
        let popped = session.profile.get(Phase::Dispatch).calls;
        assert!(popped < 50_000, "{popped} events popped: client timers cascade again");
    }

    /// A kick is queued only when it can start an exchange. Queueing one
    /// after every enqueue, PS change and completed exchange, whether or
    /// not anything was eligible, made this 120 s testbed call pop 44,692
    /// events; skipping those with nothing eligible left 32,630, and
    /// skipping those that find the radio busy until later leaves 32,608.
    #[test]
    fn no_op_kicks_are_not_queued() {
        if !telemetry::TRACE_COMPILED {
            return;
        }
        let (a, b) = testbed_pair();
        let cfg = WorldConfig::testbed(a, b);
        let (_, session) = World::new(&cfg, &seeds(2)).run_traced(1 << 10);
        let popped = session.profile.get(Phase::Dispatch).calls;
        assert!(popped <= 32_608, "{popped} events popped: no-op AP kicks are queued again");
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

    fn fleet_spec() -> StreamSpec {
        StreamSpec {
            packet_bytes: 160,
            interval: SimDuration::from_millis(20),
            duration: SimDuration::from_secs(if cfg!(debug_assertions) { 20 } else { 40 }),
        }
    }

    fn fleet(n: usize, diversifi: bool, spec: StreamSpec, seeds: &SeedFactory) -> RunReport {
        World::new(&office_fleet(n, diversifi, spec, seeds), seeds).run()
    }

    #[test]
    fn fleet_of_diversifi_clients_all_benefit() {
        // One fleet pair at this scale (6 clients, short streams) is too
        // noisy to bound a ratio, so aggregate over a block of seeds; this
        // test is what enforces the fleet halving claim.
        let n = 6;
        let mut base_sum = 0.0;
        let mut dvf_sum = 0.0;
        let mut recovered = 0u64;
        for s in 0x3171u64..0x3176 {
            let seeds = SeedFactory::new(s);
            let base = fleet(n, false, fleet_spec(), &seeds);
            let dvf = fleet(n, true, fleet_spec(), &seeds);
            assert_eq!(base.clients().count(), n);
            base_sum += base.mean_loss();
            dvf_sum += dvf.mean_loss();
            recovered += dvf.clients().map(|(_, stats)| stats.recovered_on_secondary).sum::<u64>();
        }
        assert!(
            dvf_sum < 0.5 * base_sum.max(0.01),
            "fleet DiversiFi {dvf_sum} vs baseline {base_sum} (summed over 5 fleets)"
        );
        assert!(recovered > 0, "cross-link recovery never fired");
    }

    #[test]
    fn fleet_contention_grows_but_does_not_collapse() {
        // VoIP is light: even 12 clients fit easily in one AP's airtime;
        // per-client loss must not explode with fleet size.
        let seeds = SeedFactory::new(0x3172);
        let small = fleet(2, true, fleet_spec(), &seeds);
        let big = fleet(12, true, fleet_spec(), &seeds);
        assert!(
            big.mean_loss() < small.mean_loss() + 0.05,
            "12 clients {} vs 2 clients {}",
            big.mean_loss(),
            small.mean_loss()
        );
    }

    #[test]
    fn fleet_secondary_air_overhead_scales_linearly_not_worse() {
        // Total secondary-air transmissions should grow roughly with the
        // number of clients (each contributes its own recoveries), not
        // blow up super-linearly from interaction effects.
        let seeds = SeedFactory::new(0x3173);
        let n4 = fleet(4, true, fleet_spec(), &seeds);
        let n8 = fleet(8, true, fleet_spec(), &seeds);
        let per4 = n4.secondary_air_tx as f64 / 4.0;
        let per8 = n8.secondary_air_tx as f64 / 8.0;
        assert!(
            per8 < per4 * 3.0 + 20.0,
            "per-client secondary air grew too fast: {per4} → {per8}"
        );
    }

    #[test]
    fn fleet_runs_are_deterministic() {
        let seeds = SeedFactory::new(0x3174);
        let a = fleet(3, true, fleet_spec(), &seeds);
        let b = fleet(3, true, fleet_spec(), &seeds);
        for ((x, _), (y, _)) in a.clients().zip(b.clients()) {
            assert_eq!(x.fates, y.fates);
        }
        assert_eq!(a.secondary_air_tx, b.secondary_air_tx);
    }

    /// Superseded client timers are no-ops in a fleet too (see
    /// `ClientTimer`). If stale wakeups re-armed duplicates, these three
    /// DiversiFi clients would pop 32,142 events over a 20 s stream; with
    /// one live timer per client they pop 24,020.
    #[test]
    fn fleet_superseded_client_timers_do_not_cascade() {
        let spec = StreamSpec { duration: SimDuration::from_secs(20), ..fleet_spec() };
        let report = fleet(3, true, spec, &SeedFactory::new(0x3176));
        assert!(
            report.events < 28_000,
            "{} events popped: client timers cascade again",
            report.events
        );
    }

    /// No-op AP kicks are not queued in a fleet either (see
    /// `World::request_kick`). Kicking after every enqueue, PS change and
    /// completed exchange made this run pop 24,020 events; skipping kicks
    /// with nothing eligible left 20,047, and skipping those that find the
    /// radio busy until later left 17,759. Since each source keeps its own
    /// stream clock (packet `k` at its start plus `k` intervals, not at `k`
    /// intervals for every client), the run pops 17,868.
    #[test]
    fn fleet_no_op_kicks_are_not_queued() {
        let spec = StreamSpec { duration: SimDuration::from_secs(20), ..fleet_spec() };
        let report = fleet(3, true, spec, &SeedFactory::new(0x3176));
        assert!(
            report.events <= 17_868,
            "{} events popped: no-op AP kicks are queued again",
            report.events
        );
    }

    #[test]
    fn mixed_fleet_diversifi_does_not_hurt_bystanders() {
        // Half the clients run DiversiFi, half don't; the non-DiversiFi
        // clients' loss must be no worse than in an all-baseline fleet.
        let seeds = SeedFactory::new(0x3175);
        let all_base = fleet(6, false, fleet_spec(), &seeds);
        let mut mixed_cfg = office_fleet(6, false, fleet_spec(), &seeds);
        for c in mixed_cfg.fleet.iter_mut().take(3) {
            c.diversifi = true;
        }
        let mixed = World::new(&mixed_cfg, &seeds).run();
        let bystander_loss = |r: &RunReport| {
            r.clients().skip(3).map(|(t, _)| t.loss_rate(DEFAULT_DEADLINE)).sum::<f64>() / 3.0
        };
        let base_l = bystander_loss(&all_base);
        let mixed_l = bystander_loss(&mixed);
        assert!(
            mixed_l < base_l + 0.02,
            "bystanders worse off: {mixed_l} vs {base_l}"
        );
    }

    /// Fleets run under the fault engine and the packet ledger: a primary
    /// AP power cycle in the middle of a 3-client DiversiFi fleet's calls.
    /// In audit builds the ledger's horizon audit closes (a violation
    /// panics); in every build each fault window is recovered.
    #[test]
    fn fleet_recovers_from_a_primary_ap_reboot() {
        let seeds = SeedFactory::new(0x3177);
        let spec = StreamSpec { duration: SimDuration::from_secs(10), ..fleet_spec() };
        let mut cfg = office_fleet(3, true, spec, &seeds);
        cfg.faults = diversifi_simcore::FaultPlan::single_ap_reboot(
            0,
            SimTime::from_secs(4),
            SimDuration::from_secs(2),
        );
        let healthy = World::new(&office_fleet(3, true, spec, &seeds), &seeds).run();
        let report = World::new(&cfg, &seeds).run();
        assert_eq!(report.fault_outcomes.len(), 1);
        for o in &report.fault_outcomes {
            assert!(o.recovered_at.is_some(), "fault window {} never recovered", o.label);
        }
        assert!(report.mean_loss() > healthy.mean_loss(), "a 2 s primary outage must cost packets");
        for (trace, _) in report.clients() {
            assert!(trace.loss_rate(DEFAULT_DEADLINE) < 0.5, "every client keeps most of its call");
        }
    }

    /// Each fleet client's stream runs on its own clock: packet `k` leaves
    /// the sender at the client's start plus `k` intervals, so sources
    /// started apart stay apart, and the trace records the real send
    /// instants. Every delivered packet then arrives at least one LAN hop
    /// after the instant its trace says it was sent.
    #[test]
    fn fleet_clients_stream_from_their_own_start() {
        let seeds = SeedFactory::new(0x3178);
        let spec = StreamSpec { duration: SimDuration::from_secs(5), ..fleet_spec() };
        let cfg = office_fleet(2, true, spec, &seeds);
        let world = World::new(&cfg, &seeds);
        let starts: Vec<SimTime> = world.clients.iter().map(|c| c.start).collect();
        assert_ne!(starts[0], starts[1], "the two sources must not start together");
        let report = world.run();
        let mut packet_1 = Vec::new();
        for ((trace, _), start) in report.clients().zip(&starts) {
            assert_eq!(trace.fates[0].sent, *start);
            packet_1.push(trace.fates[1].sent);
            for f in &trace.fates {
                if let Some(arrival) = f.arrival {
                    assert!(arrival >= f.sent + cfg.lan_delay, "arrived before it was sent");
                }
            }
        }
        assert_ne!(packet_1[0], packet_1[1], "packet 1 leaves both sources at once");
    }

    /// A traced fleet tells its clients apart: each client's deliveries
    /// and Algorithm 1 metrics carry its own component id.
    #[test]
    fn traced_fleet_emits_each_client_under_its_own_id() {
        if !telemetry::TRACE_COMPILED {
            return;
        }
        let seeds = SeedFactory::new(0x3178);
        let spec = StreamSpec { duration: SimDuration::from_secs(5), ..fleet_spec() };
        let cfg = office_fleet(2, true, spec, &seeds);
        let (_, session) = World::new(&cfg, &seeds).run_traced(1 << 20);
        assert_eq!(session.dropped, 0, "the ring must hold the whole run");
        for i in 0..2 {
            let who = ComponentId::client(i);
            let mut events = session.events.iter();
            let delivered = events.any(|e| e.kind == TraceKind::Delivery && e.who == who);
            assert!(delivered, "no delivery traced under {who}");
            let visits = session.metrics.get(who, "recovery_visits");
            assert!(visits.is_some(), "no recovery_visits row under {who}");
        }
    }

    #[test]
    fn fleet_stream_flows_never_share_the_tcp_flow() {
        assert_ne!(stream_flow(0), TCP_FLOW);
        assert!((0..64).map(stream_flow).all(|f| f != TCP_FLOW));
    }

    #[test]
    #[should_panic(expected = "customized-AP deployment only, not DiversifiMiddlebox")]
    fn fleet_rejects_the_middlebox_deployment() {
        let seeds = SeedFactory::new(1);
        let mut cfg = office_fleet(2, true, fleet_spec(), &seeds);
        cfg.mode = RunMode::DiversifiMiddlebox;
        let _ = World::new(&cfg, &seeds);
    }

    #[test]
    #[should_panic(expected = "a fleet cannot carry the TCP coexistence flow")]
    fn fleet_rejects_tcp() {
        let seeds = SeedFactory::new(1);
        let mut cfg = office_fleet(2, true, fleet_spec(), &seeds);
        cfg.with_tcp = true;
        let _ = World::new(&cfg, &seeds);
    }

    #[test]
    #[should_panic(expected = "a fleet runs VoIP only")]
    fn fleet_rejects_fps() {
        let seeds = SeedFactory::new(1);
        let mut cfg = office_fleet(2, true, fleet_spec(), &seeds);
        cfg.set_workload(WorkloadKind::Fps(diversifi_voip::FpsConfig::office()));
        let _ = World::new(&cfg, &seeds);
    }
}
