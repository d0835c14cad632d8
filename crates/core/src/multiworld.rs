//! Multi-client world: N independent DiversiFi clients sharing the same
//! two APs and channels.
//!
//! The single-client [`crate::world`] answers the paper's §6 questions; this
//! driver answers the deployment question behind §4.6 and §6.4: *what
//! happens when everyone runs DiversiFi?* Each client has its own stream,
//! its own Algorithm-1 instance and its own PSM state, but they share the
//! two APs' radios — so every recovery visit competes for airtime with
//! everyone else's traffic, and the question is whether the "benefit
//! without the overhead" story survives contention.
//!
//! The model reuses the same substrate pieces (AP queues, MAC, link
//! models); each client gets an independent link realisation (different
//! positions → independent fading), which is exactly the situation in a
//! real office.

use crate::world::ClientTimer;
use diversifi_client::{
    Algorithm1, Algorithm1Config, Command, DeploymentMode, LinkSide, Residency,
};
use diversifi_simcore::{EventQueue, RngStream, SeedFactory, SimDuration, SimTime, SweepRunner};
use diversifi_voip::{StreamSpec, StreamTrace, DEFAULT_DEADLINE};
use diversifi_wifi::{
    mac, AccessPoint, AdapterId, ApConfig, ApId, ClientId, FlowId, Frame, LinkConfig, LinkModel,
    QueueDiscipline, TxOutcome,
};

/// Per-client configuration.
#[derive(Clone, Debug)]
pub struct ClientSpec {
    /// Radio link to the primary AP (position-dependent).
    pub primary: LinkConfig,
    /// Radio link to the secondary AP.
    pub secondary: LinkConfig,
    /// Run DiversiFi (true) or stay on the primary (false).
    pub diversifi: bool,
}

/// Multi-client run configuration.
#[derive(Clone, Debug)]
pub struct MultiWorldConfig {
    /// The shared stream shape (one stream per client).
    pub spec: StreamSpec,
    /// The clients.
    pub clients: Vec<ClientSpec>,
    /// Algorithm-1 constants.
    pub alg: Algorithm1Config,
    /// Wired latency sender → AP.
    pub lan_delay: SimDuration,
    /// Uplink control-message latency.
    pub uplink_delay: SimDuration,
    /// Uplink control-message loss per attempt.
    pub uplink_loss: f64,
}

/// Per-client outcome.
#[derive(Clone, Debug)]
pub struct ClientOutcome {
    /// The stream as this client received it.
    pub trace: StreamTrace,
    /// Recovery visits performed.
    pub recovery_visits: u64,
    /// Packets recovered via the secondary.
    pub recovered: u64,
}

/// Aggregate outcome of a multi-client run.
#[derive(Clone, Debug)]
pub struct MultiWorldReport {
    /// Per-client outcomes, in `clients` order.
    pub clients: Vec<ClientOutcome>,
    /// Total frames transmitted on the secondary AP's air.
    pub secondary_air_tx: u64,
    /// Events popped from the queue over the run.
    pub events: u64,
}

impl MultiWorldReport {
    /// Mean effective loss rate across clients.
    pub fn mean_loss(&self) -> f64 {
        if self.clients.is_empty() {
            return 0.0;
        }
        self.clients.iter().map(|c| c.trace.loss_rate(DEFAULT_DEADLINE)).sum::<f64>()
            / self.clients.len() as f64
    }
}

const PER_CLIENT_ADAPTERS: u16 = 2; // primary + secondary adapter per client

fn primary_adapter(i: usize) -> AdapterId {
    AdapterId(i as u16 * PER_CLIENT_ADAPTERS)
}

fn secondary_adapter(i: usize) -> AdapterId {
    AdapterId(i as u16 * PER_CLIENT_ADAPTERS + 1)
}

/// A multi-client world event. As in `world::Ev`, the exchange an AP's
/// radio is running lives in `MultiWorld::in_flight`, not in the event.
#[derive(Debug)]
enum Ev {
    SourceEmit { client: usize, seq: u64 },
    ApArrival { ap: usize, frame: Frame },
    /// Queued only by `MultiWorld::request_kick`.
    ApKick(usize),
    /// The AP's radio finished the exchange held in `in_flight[ap]`.
    ApTxDone(usize),
    ClientTimer(usize),
    BeginRetune { client: usize, side: LinkSide },
    RetuneDone { client: usize, side: LinkSide },
    PsDelivered { ap: usize, adapter: AdapterId, sleeping: bool },
    Done,
}

const _: () =
    assert!(std::mem::size_of::<Ev>() <= 48, "multiworld::Ev must stay at most 48 bytes");

struct ClientState {
    alg: Option<Algorithm1>, // None for non-DiversiFi clients
    side: Option<LinkSide>,  // None mid-retune
    trace: StreamTrace,
    timer: ClientTimer,
    /// Independent link realisations to each AP.
    links: [LinkModel; 2],
}

/// The multi-client simulator.
pub struct MultiWorld {
    cfg: MultiWorldConfig,
    q: EventQueue<Ev>,
    aps: [AccessPoint; 2],
    /// The frame exchange each AP's radio is running, as `(frame,
    /// outcome)`; `Some` means the radio is busy (see `World::in_flight`).
    in_flight: [Option<(Frame, TxOutcome)>; 2],
    clients: Vec<ClientState>,
    rng: RngStream,
    secondary_air_tx: u64,
    done: bool,
}

impl MultiWorld {
    /// Build the world.
    pub fn new(cfg: MultiWorldConfig, seeds: &SeedFactory) -> MultiWorld {
        assert!(!cfg.clients.is_empty());
        let ch_primary = cfg.clients[0].primary.channel;
        let ch_secondary = cfg.clients[0].secondary.channel;
        let mut ap0 = AccessPoint::new(ApConfig::new(ApId(0), ch_primary));
        let mut ap1 = AccessPoint::new(ApConfig::new(ApId(1), ch_secondary));

        let clients = cfg
            .clients
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                ap0.associate(primary_adapter(i), QueueDiscipline::stock());
                let disc = QueueDiscipline::HeadDrop { cap: cfg.alg.ap_queue_len() };
                ap1.associate(secondary_adapter(i), disc);
                ap1.set_power_save(secondary_adapter(i), true);
                let alg = spec.diversifi.then(|| {
                    let mut a =
                        Algorithm1::new(cfg.alg, DeploymentMode::CustomizedAp, SimTime::ZERO);
                    a.set_stream_end(cfg.spec.packet_count());
                    a
                });
                let call_seeds = seeds.subfactory("mw-client", i as u64);
                ClientState {
                    alg,
                    side: Some(LinkSide::Primary),
                    trace: StreamTrace::new(cfg.spec, SimTime::ZERO),
                    timer: ClientTimer::default(),
                    links: [
                        LinkModel::new(spec.primary.clone(), &call_seeds, 0),
                        LinkModel::new(spec.secondary.clone(), &call_seeds, 1),
                    ],
                }
            })
            .collect();

        MultiWorld {
            q: EventQueue::new(),
            aps: [ap0, ap1],
            in_flight: [None, None],
            clients,
            rng: seeds.stream("mw-world", 0),
            secondary_air_tx: 0,
            done: false,
            cfg,
        }
    }

    /// Run the world to completion.
    pub fn run(mut self) -> MultiWorldReport {
        for i in 0..self.clients.len() {
            // Stagger stream starts a little so sources don't tick in
            // lockstep (as independent calls wouldn't).
            let jitter = SimDuration::from_micros(self.rng.range_u64(0, 20_000));
            self.q.schedule(SimTime::ZERO + jitter, Ev::SourceEmit { client: i, seq: 0 });
        }
        let end = SimTime::ZERO + self.cfg.spec.duration + SimDuration::from_millis(500);
        self.q.schedule(end, Ev::Done);
        let mut events = 0;
        while let Some((now, ev)) = self.q.pop() {
            if self.done {
                break;
            }
            events += 1;
            self.handle(now, ev);
        }
        MultiWorldReport {
            clients: self
                .clients
                .into_iter()
                .map(|c| ClientOutcome {
                    trace: c.trace,
                    recovery_visits: c.alg.as_ref().map(|a| a.stats.recovery_visits).unwrap_or(0),
                    recovered: c
                        .alg
                        .as_ref()
                        .map(|a| a.stats.recovered_on_secondary)
                        .unwrap_or(0),
                })
                .collect(),
            secondary_air_tx: self.secondary_air_tx,
            events,
        }
    }

    fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::Done => self.done = true,
            Ev::SourceEmit { client, seq } => {
                let spec = self.cfg.spec;
                let start0 = self.clients[client].trace.fates[0].sent;
                if seq + 1 < spec.packet_count() {
                    self.q.schedule(
                        start0 + spec.interval * (seq + 1),
                        Ev::SourceEmit { client, seq: seq + 1 },
                    );
                }
                let lan = self.cfg.lan_delay
                    + SimDuration::from_micros(self.rng.range_u64(0, 120));
                let bytes = spec.wire_bytes();
                let fp = Frame::data(
                    FlowId(client as u32),
                    seq,
                    bytes,
                    now,
                    ClientId(client as u16),
                    primary_adapter(client),
                );
                self.q.schedule(now + lan, Ev::ApArrival { ap: 0, frame: fp });
                if self.clients[client].alg.is_some() {
                    let fs = Frame::data(
                        FlowId(client as u32),
                        seq,
                        bytes,
                        now,
                        ClientId(client as u16),
                        secondary_adapter(client),
                    );
                    self.q.schedule(now + lan, Ev::ApArrival { ap: 1, frame: fs });
                }
            }
            Ev::ApArrival { ap, frame } => {
                let adapter = frame.dst_adapter;
                let _ = self.aps[ap].enqueue(adapter, frame);
                self.request_kick(now, ap);
            }
            Ev::ApKick(ap) => self.kick(now, ap),
            Ev::ApTxDone(ap) => self.tx_done(now, ap),
            Ev::ClientTimer(i) => {
                if self.clients[i].timer.fire(now) && self.clients[i].alg.is_some() {
                    let cmds = {
                        let alg = self.clients[i].alg.as_mut().unwrap();
                        alg.on_timer(now)
                    };
                    self.apply(now, i, cmds);
                    self.arm_timer(now, i);
                }
            }
            Ev::BeginRetune { client, side } => {
                self.clients[client].side = None;
                self.q.schedule(
                    now + SimDuration::from_micros(2300),
                    Ev::RetuneDone { client, side },
                );
            }
            Ev::RetuneDone { client, side } => {
                self.clients[client].side = Some(side);
                match side {
                    LinkSide::Secondary => {
                        self.send_ps(now, 1, secondary_adapter(client), false);
                        let cmds = {
                            let alg = self.clients[client].alg.as_mut().unwrap();
                            alg.on_residency(Residency::Secondary, now)
                        };
                        self.apply(now, client, cmds);
                    }
                    LinkSide::Primary => {
                        self.send_ps(now, 0, primary_adapter(client), false);
                        let cmds = {
                            let alg = self.clients[client].alg.as_mut().unwrap();
                            alg.on_residency(Residency::Primary, now)
                        };
                        self.apply(now, client, cmds);
                    }
                }
                self.arm_timer(now, client);
            }
            Ev::PsDelivered { ap, adapter, sleeping } => {
                self.aps[ap].set_power_save(adapter, sleeping);
                self.request_kick(now, ap);
            }
        }
    }

    /// Queue a kick of `ap` unless it would pop as a no-op (see
    /// `World::request_kick`).
    fn request_kick(&mut self, now: SimTime, ap: usize) {
        let useful = match &self.in_flight[ap] {
            Some((_, outcome)) => outcome.completed_at <= now,
            None => self.aps[ap].has_eligible_traffic(),
        };
        if useful {
            self.q.schedule(now, Ev::ApKick(ap));
        }
    }

    fn kick(&mut self, now: SimTime, ap: usize) {
        if self.in_flight[ap].is_some() {
            return;
        }
        let Some((adapter, frame)) = self.aps[ap].next_tx() else { return };
        let client = (adapter.0 / PER_CLIENT_ADAPTERS) as usize;
        let mac_cfg = self.aps[ap].config().mac;
        let outcome = {
            let link = &mut self.clients[client].links[ap];
            mac::transmit(link, &mac_cfg, &frame, now)
        };
        self.in_flight[ap] = Some((frame, outcome));
        self.q.schedule(outcome.completed_at, Ev::ApTxDone(ap));
    }

    fn tx_done(&mut self, now: SimTime, ap: usize) {
        let (frame, outcome) =
            self.in_flight[ap].take().expect("ApTxDone fires only for the exchange in flight");
        self.request_kick(now, ap);
        if ap == 1 {
            self.secondary_air_tx += 1;
        }
        let client = (frame.dst_adapter.0 / PER_CLIENT_ADAPTERS) as usize;
        let listening = matches!(
            (self.clients[client].side, ap),
            (Some(LinkSide::Primary), 0) | (Some(LinkSide::Secondary), 1)
        );
        if !(outcome.delivered && listening) {
            return;
        }
        self.clients[client].trace.record_arrival(frame.seq, now);
        if self.clients[client].alg.is_some() {
            let side = if ap == 0 { LinkSide::Primary } else { LinkSide::Secondary };
            let cmds = {
                let alg = self.clients[client].alg.as_mut().unwrap();
                alg.on_packet(frame.seq, now, side)
            };
            self.apply(now, client, cmds);
            self.arm_timer(now, client);
        }
    }

    fn send_ps(&mut self, now: SimTime, ap: usize, adapter: AdapterId, sleeping: bool) {
        let mut delay = self.cfg.uplink_delay;
        for _ in 0..5 {
            if !self.rng.chance(self.cfg.uplink_loss) {
                self.q.schedule(now + delay, Ev::PsDelivered { ap, adapter, sleeping });
                return;
            }
            delay += self.cfg.uplink_delay;
        }
    }

    fn apply(&mut self, now: SimTime, client: usize, cmds: Vec<Command>) {
        for cmd in cmds {
            match cmd {
                Command::SwitchToSecondary => {
                    self.send_ps(now, 0, primary_adapter(client), true);
                    self.q.schedule(
                        now + self.cfg.uplink_delay * 2,
                        Ev::BeginRetune { client, side: LinkSide::Secondary },
                    );
                }
                Command::SwitchToPrimary => {
                    self.send_ps(now, 1, secondary_adapter(client), true);
                    self.q.schedule(
                        now + self.cfg.uplink_delay * 2,
                        Ev::BeginRetune { client, side: LinkSide::Primary },
                    );
                }
                Command::MiddleboxStart { .. } | Command::MiddleboxStop => {
                    unreachable!("multi-client world runs customized-AP mode")
                }
            }
        }
    }

    fn arm_timer(&mut self, now: SimTime, client: usize) {
        let c = &mut self.clients[client];
        let Some(alg) = c.alg.as_ref() else { return };
        if let Some(wake) = alg.next_wakeup().and_then(|w| c.timer.arm(now, w)) {
            self.q.schedule(wake, Ev::ClientTimer(client));
        }
    }
}

/// Convenience: build a config with `n` clients spread over the office,
/// all running DiversiFi (or none, for the baseline).
pub fn office_fleet(
    n: usize,
    diversifi: bool,
    spec: StreamSpec,
    seeds: &SeedFactory,
) -> MultiWorldConfig {
    use diversifi_wifi::{Channel, GeParams};
    let mut rng = seeds.stream("fleet-layout", 0);
    let clients = (0..n)
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
    MultiWorldConfig {
        spec,
        clients,
        alg: Algorithm1Config::voip(),
        lan_delay: SimDuration::from_micros(500),
        uplink_delay: SimDuration::from_micros(250),
        uplink_loss: 0.05,
    }
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
) -> Vec<(usize, MultiWorldReport, MultiWorldReport)> {
    let reports = SweepRunner::available().run_indexed(sizes.len() * 2, |idx| {
        let n = sizes[idx / 2];
        let diversifi = idx % 2 == 1;
        let seeds = SeedFactory::new(seed_for(n));
        MultiWorld::new(office_fleet(n, diversifi, spec, &seeds), &seeds).run()
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

    fn spec() -> StreamSpec {
        StreamSpec {
            packet_bytes: 160,
            interval: SimDuration::from_millis(20),
            duration: SimDuration::from_secs(if cfg!(debug_assertions) { 20 } else { 40 }),
        }
    }

    #[test]
    fn fleet_of_diversifi_clients_all_benefit() {
        // One fleet pair at this scale (6 clients, short streams) is too
        // noisy to bound a ratio, so aggregate over a block of seeds; the
        // paper-scale halving claim is enforced in tests/paper_parity.rs.
        let n = 6;
        let mut base_sum = 0.0;
        let mut dvf_sum = 0.0;
        let mut recovered = 0u64;
        for s in 0x3171u64..0x3176 {
            let seeds = SeedFactory::new(s);
            let base = MultiWorld::new(office_fleet(n, false, spec(), &seeds), &seeds).run();
            let dvf = MultiWorld::new(office_fleet(n, true, spec(), &seeds), &seeds).run();
            assert_eq!(base.clients.len(), n);
            base_sum += base.mean_loss();
            dvf_sum += dvf.mean_loss();
            recovered += dvf.clients.iter().map(|c| c.recovered).sum::<u64>();
        }
        assert!(
            dvf_sum < 0.5 * base_sum.max(0.01),
            "fleet DiversiFi {dvf_sum} vs baseline {base_sum} (summed over 5 fleets)"
        );
        assert!(recovered > 0, "cross-link recovery never fired");
    }

    #[test]
    fn contention_grows_but_does_not_collapse() {
        // VoIP is light: even 12 clients fit easily in one AP's airtime;
        // per-client loss must not explode with fleet size.
        let seeds = SeedFactory::new(0x3172);
        let small = MultiWorld::new(office_fleet(2, true, spec(), &seeds), &seeds).run();
        let big = MultiWorld::new(office_fleet(12, true, spec(), &seeds), &seeds).run();
        assert!(
            big.mean_loss() < small.mean_loss() + 0.05,
            "12 clients {} vs 2 clients {}",
            big.mean_loss(),
            small.mean_loss()
        );
    }

    #[test]
    fn secondary_air_overhead_scales_linearly_not_worse(){
        // Total secondary-air transmissions should grow roughly with the
        // number of clients (each contributes its own recoveries), not
        // blow up super-linearly from interaction effects.
        let seeds = SeedFactory::new(0x3173);
        let n4 = MultiWorld::new(office_fleet(4, true, spec(), &seeds), &seeds).run();
        let n8 = MultiWorld::new(office_fleet(8, true, spec(), &seeds), &seeds).run();
        let per4 = n4.secondary_air_tx as f64 / 4.0;
        let per8 = n8.secondary_air_tx as f64 / 8.0;
        assert!(
            per8 < per4 * 3.0 + 20.0,
            "per-client secondary air grew too fast: {per4} → {per8}"
        );
    }

    #[test]
    fn deterministic() {
        let seeds = SeedFactory::new(0x3174);
        let a = MultiWorld::new(office_fleet(3, true, spec(), &seeds), &seeds).run();
        let b = MultiWorld::new(office_fleet(3, true, spec(), &seeds), &seeds).run();
        for (x, y) in a.clients.iter().zip(&b.clients) {
            assert_eq!(x.trace.fates, y.trace.fates);
        }
        assert_eq!(a.secondary_air_tx, b.secondary_air_tx);
    }

    /// Superseded client timers are no-ops here too (see
    /// `world::ClientTimer`). If stale wakeups re-armed duplicates, these
    /// three DiversiFi clients would pop 32,142 events over a 20 s stream;
    /// with one live timer per client they pop 24,020.
    #[test]
    fn superseded_client_timers_do_not_cascade() {
        let spec = StreamSpec { duration: SimDuration::from_secs(20), ..spec() };
        let seeds = SeedFactory::new(0x3176);
        let report = MultiWorld::new(office_fleet(3, true, spec, &seeds), &seeds).run();
        assert!(
            report.events < 28_000,
            "{} events popped: client timers cascade again",
            report.events
        );
    }

    /// No-op AP kicks are not queued here either (see
    /// `World::request_kick`). Kicking after every enqueue, PS change and
    /// completed exchange made this run pop 24,020 events; skipping kicks
    /// with nothing eligible left 20,047, and skipping those that find the
    /// radio busy until later leaves 17,759.
    #[test]
    fn no_op_kicks_are_not_queued() {
        let spec = StreamSpec { duration: SimDuration::from_secs(20), ..spec() };
        let seeds = SeedFactory::new(0x3176);
        let report = MultiWorld::new(office_fleet(3, true, spec, &seeds), &seeds).run();
        assert!(
            report.events <= 17_759,
            "{} events popped: no-op AP kicks are queued again",
            report.events
        );
    }

    #[test]
    fn mixed_fleet_diversifi_does_not_hurt_bystanders() {
        // Half the clients run DiversiFi, half don't; the non-DiversiFi
        // clients' loss must be no worse than in an all-baseline fleet.
        let seeds = SeedFactory::new(0x3175);
        let all_base = MultiWorld::new(office_fleet(6, false, spec(), &seeds), &seeds).run();
        let mut mixed_cfg = office_fleet(6, false, spec(), &seeds);
        for c in mixed_cfg.clients.iter_mut().take(3) {
            c.diversifi = true;
        }
        let mixed = MultiWorld::new(mixed_cfg, &seeds).run();
        let bystander_loss = |r: &MultiWorldReport, from: usize| {
            r.clients[from..]
                .iter()
                .map(|c| c.trace.loss_rate(DEFAULT_DEADLINE))
                .sum::<f64>()
                / (r.clients.len() - from) as f64
        };
        let base_l = bystander_loss(&all_base, 3);
        let mixed_l = bystander_loss(&mixed, 3);
        assert!(
            mixed_l < base_l + 0.02,
            "bystanders worse off: {mixed_l} vs {base_l}"
        );
    }
}
