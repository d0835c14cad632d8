//! Failure-injection tests: the system must stay sane (no panics, no
//! starvation, graceful degradation) under hostile conditions well outside
//! the calibrated operating envelope.

use diversifi::world::{RunMode, World, WorldConfig};
use diversifi_net::{Middlebox, MiddleboxConfig, StreamPacket};
use diversifi_simcore::{FaultKind, FaultPlan, SeedFactory, SimDuration, SimTime};
use diversifi_voip::{StreamSpec, DEFAULT_DEADLINE};
use diversifi_wifi::{Channel, Congestion, FlowId, GeParams, LinkConfig, MicrowaveOven};

fn base_cfg(primary: LinkConfig, secondary: LinkConfig) -> WorldConfig {
    let mut cfg = WorldConfig::testbed(primary, secondary);
    cfg.spec.duration = SimDuration::from_secs(30);
    cfg
}

/// A completely dead secondary link: DiversiFi must never do worse than
/// materially amplifying the baseline loss (visits waste a little time but
/// the stream keeps flowing).
#[test]
fn dead_secondary_link_degrades_gracefully() {
    let primary = LinkConfig::office(Channel::CH1, 18.0);
    let mut dead = LinkConfig::office(Channel::CH11, 120.0); // RSSI floor
    dead.ge = GeParams {
        mean_good: SimDuration::from_millis(1),
        mean_bad_short: SimDuration::from_secs(1000),
        mean_bad_long: SimDuration::from_secs(1000),
        p_long: 1.0,
        bad_loss: 0.999,
        good_loss: 0.9,
    };
    let seeds = SeedFactory::new(1);
    let mut dvf = base_cfg(primary.clone(), dead.clone());
    dvf.mode = RunMode::DiversifiCustomAp;
    let r_dvf = World::new(&dvf, &seeds).run();
    let mut base = base_cfg(primary, dead);
    base.mode = RunMode::PrimaryOnly;
    let r_base = World::new(&base, &seeds).run();

    let ld = r_dvf.trace.loss_rate(DEFAULT_DEADLINE);
    let lb = r_base.trace.loss_rate(DEFAULT_DEADLINE);
    assert!(ld <= lb + 0.02, "dead secondary must not hurt: {ld} vs {lb}");
    // And the client must not be stuck on the secondary at the end.
    assert!(r_dvf.alg_stats.expired_losses > 0 || lb == 0.0);
}

/// Both links in near-total outage: the run completes, losses are counted,
/// nothing hangs or panics.
#[test]
fn double_outage_terminates() {
    let mk = |ch, d| {
        let mut l = LinkConfig::office(ch, d);
        l.ge = GeParams {
            mean_good: SimDuration::from_millis(10),
            mean_bad_short: SimDuration::from_secs(10),
            mean_bad_long: SimDuration::from_secs(10),
            p_long: 0.5,
            bad_loss: 0.98,
            good_loss: 0.5,
        };
        l
    };
    let mut cfg = base_cfg(mk(Channel::CH1, 60.0), mk(Channel::CH11, 70.0));
    cfg.mode = RunMode::DiversifiCustomAp;
    let r = World::new(&cfg, &SeedFactory::new(2)).run();
    let loss = r.trace.loss_rate(DEFAULT_DEADLINE);
    assert!(loss > 0.5, "this scenario is designed to be terrible: {loss}");
    assert_eq!(r.trace.len(), 1500);
}

/// Heavy uplink loss: PS-Null frames and middlebox requests die often.
/// The 5-retry driver fix must keep the system coherent.
#[test]
fn lossy_uplink_control_plane() {
    let primary = LinkConfig::office(Channel::CH1, 18.0);
    let mut secondary = LinkConfig::office(Channel::CH11, 24.0);
    secondary.ge = GeParams::weak_link();
    for mode in [RunMode::DiversifiCustomAp, RunMode::DiversifiMiddlebox] {
        let mut cfg = base_cfg(primary.clone(), secondary.clone());
        cfg.mode = mode;
        cfg.uplink_loss = 0.45; // hostile
        let seeds = SeedFactory::new(3);
        let r = World::new(&cfg, &seeds).run();
        // Sanity: stream mostly delivered; no livelock.
        assert!(
            r.trace.loss_rate(DEFAULT_DEADLINE) < 0.30,
            "{mode:?}: loss {}",
            r.trace.loss_rate(DEFAULT_DEADLINE)
        );
    }
}

/// Microwave + congestion + mobility stacked on both links at once.
#[test]
fn kitchen_sink_impairments() {
    let mk = |ch, d, phase| {
        let mut l = LinkConfig::office(ch, d);
        l.microwave = Some(MicrowaveOven::default());
        l.congestion = Some(Congestion::heavy());
        l.mobility = Some(diversifi_wifi::MobilityPattern::walking(phase));
        l
    };
    let mut cfg = base_cfg(mk(Channel::CH6, 20.0, 0.0), mk(Channel::CH11, 25.0, 0.5));
    cfg.mode = RunMode::DiversifiCustomAp;
    cfg.with_tcp = true;
    let r = World::new(&cfg, &SeedFactory::new(4)).run();
    assert_eq!(r.trace.len(), 1500);
    assert!(r.trace.delivered_count() > 0, "something must get through");
}

/// Degenerate streams: one packet, and sub-millisecond spacing.
#[test]
fn degenerate_stream_shapes() {
    let primary = LinkConfig::office(Channel::CH1, 15.0);
    let secondary = LinkConfig::office(Channel::CH11, 20.0);

    // One packet.
    let mut cfg = base_cfg(primary.clone(), secondary.clone());
    cfg.spec = StreamSpec {
        packet_bytes: 160,
        interval: SimDuration::from_millis(20),
        duration: SimDuration::from_millis(20),
    };
    cfg.mode = RunMode::DiversifiCustomAp;
    let r = World::new(&cfg, &SeedFactory::new(5)).run();
    assert_eq!(r.trace.len(), 1);

    // Very tight spacing (queueing stress).
    let mut cfg = base_cfg(primary, secondary);
    cfg.spec = StreamSpec {
        packet_bytes: 200,
        interval: SimDuration::from_micros(500),
        duration: SimDuration::from_secs(2),
    };
    cfg.mode = RunMode::DiversifiCustomAp;
    let r = World::new(&cfg, &SeedFactory::new(6)).run();
    assert_eq!(r.trace.len(), 4000);
    assert!(r.trace.loss_rate(DEFAULT_DEADLINE) < 0.6);
}

/// The EndToEnd strawman (stock tail-drop PSM buffering) runs and shows
/// the inefficiency the paper designed around.
#[test]
fn end_to_end_strawman_is_worse_than_custom_ap() {
    let primary = LinkConfig::office(Channel::CH1, 20.0);
    let mut secondary = LinkConfig::office(Channel::CH11, 26.0);
    secondary.ge = GeParams::weak_link();
    let mut waste_e2e = 0u64;
    let mut waste_custom = 0u64;
    for i in 0..3 {
        let seeds = SeedFactory::new(100 + i);
        let mut e2e = base_cfg(primary.clone(), secondary.clone());
        e2e.mode = RunMode::EndToEndPsm;
        waste_e2e += World::new(&e2e, &seeds).run().secondary_wasteful_tx;
        let mut custom = base_cfg(primary.clone(), secondary.clone());
        custom.mode = RunMode::DiversifiCustomAp;
        waste_custom += World::new(&custom, &seeds).run().secondary_wasteful_tx;
    }
    assert!(
        waste_e2e > waste_custom,
        "stock PSM queueing must waste more: {waste_e2e} vs {waste_custom}"
    );
}

/// An AP power-cycles mid-call while the client is actively hopping to it:
/// queued frames die with the AP, the station table resets, and the client
/// re-associates when it comes back — the call degrades instead of the
/// simulator panicking or the ledger leaking the drained frames.
#[test]
fn ap_reboot_during_hops_degrades_gracefully() {
    let primary = LinkConfig::office(Channel::CH1, 18.0);
    let mut secondary = LinkConfig::office(Channel::CH11, 24.0);
    secondary.ge = GeParams::weak_link(); // lossy primary-recovery work → frequent hops
    for rebooted_ap in [0usize, 1] {
        let mut dvf = base_cfg(primary.clone(), secondary.clone());
        dvf.mode = RunMode::DiversifiCustomAp;
        dvf.faults = FaultPlan::single_ap_reboot(
            rebooted_ap,
            SimTime::ZERO + SimDuration::from_secs(10),
            SimDuration::from_secs(3),
        );
        let mut base = dvf.clone();
        base.mode = RunMode::PrimaryOnly;
        let seeds = SeedFactory::new(0xAB007 + rebooted_ap as u64);
        let r_dvf = World::new(&dvf, &seeds).run();
        let r_base = World::new(&base, &seeds).run();
        assert_eq!(r_dvf.trace.len(), 1500, "run must complete despite the reboot");
        let ld = r_dvf.trace.loss_rate(DEFAULT_DEADLINE);
        let lb = r_base.trace.loss_rate(DEFAULT_DEADLINE);
        assert!(
            ld <= lb + 0.02,
            "ap{rebooted_ap} reboot: diversifi {ld} must not amplify baseline {lb}"
        );
        if rebooted_ap == 0 {
            // A 3 s primary outage must actually show up as loss.
            assert!(lb > 0.05, "primary-AP reboot should hurt the baseline: {lb}");
        }
    }
}

/// Middlebox sized for a single buffered packet (MaxTolerableDelay = one
/// packet interval) under a weak secondary: the ring overflows constantly
/// and must roll over — old packets out, new in — without panicking.
#[test]
fn middlebox_buffer_overflow_rolls_over_gracefully() {
    let primary = LinkConfig::office(Channel::CH1, 18.0);
    let mut secondary = LinkConfig::office(Channel::CH11, 24.0);
    secondary.ge = GeParams::weak_link();
    let mut cfg = base_cfg(primary, secondary);
    cfg.mode = RunMode::DiversifiMiddlebox;
    cfg.alg.max_tolerable_delay = SimDuration::from_millis(20); // APQL = 1
    let r = World::new(&cfg, &SeedFactory::new(0x0F10)).run();
    assert_eq!(r.trace.len(), 1500);
    assert!(r.trace.delivered_count() > 0);

    // The same overflow, observed directly: flood a cap-1 ring without a
    // streaming client and every displaced packet must be a rollover.
    let flow = FlowId(1);
    let mut mbox = Middlebox::new(MiddleboxConfig::default());
    mbox.register(flow, Some(1));
    for seq in 0..200u64 {
        let fwd = mbox.ingest(StreamPacket::new(flow, seq, 160, SimTime::ZERO));
        assert!(fwd.is_none(), "nothing forwards while no client streams");
        assert_eq!(mbox.buffered(flow), 1, "ring never exceeds its cap");
    }
    assert_eq!(mbox.rolled_over, 199);
    let (_, burst) = mbox.start(flow, 0);
    assert_eq!(burst.len(), 1, "only the newest survivor drains");
    assert_eq!(burst[0].seq, 199);
}

/// Runs one (DiversiFi, PrimaryOnly) pair under `plan` and asserts the
/// per-seed no-amplification contract: DiversiFi must never lose
/// meaningfully more than the primary-only baseline, fault or no fault.
fn assert_no_amplification(plan: FaultPlan, mode: RunMode, seed: u64, label: &str) {
    let primary = LinkConfig::office(Channel::CH1, 18.0);
    let mut secondary = LinkConfig::office(Channel::CH11, 24.0);
    secondary.ge = GeParams::weak_link();
    let mut dvf = base_cfg(primary, secondary);
    dvf.mode = mode;
    dvf.faults = plan;
    let mut base = dvf.clone();
    base.mode = RunMode::PrimaryOnly;
    let seeds = SeedFactory::new(seed);
    let r_dvf = World::new(&dvf, &seeds).run();
    let r_base = World::new(&base, &seeds).run();
    assert_eq!(r_dvf.trace.len(), 1500, "{label}: run must complete");
    let ld = r_dvf.trace.loss_rate(DEFAULT_DEADLINE);
    let lb = r_base.trace.loss_rate(DEFAULT_DEADLINE);
    assert!(ld <= lb + 0.02, "{label}: diversifi {ld} must not amplify baseline {lb}");
}

/// A secondary AP that crashes and flaps repeatedly mid-call: the client
/// keeps hopping into a coin-flip AP and must never amplify baseline loss.
#[test]
fn secondary_flap_does_not_amplify_loss() {
    let at = SimTime::ZERO + SimDuration::from_secs(8);
    let plan = FaultPlan::none().with(
        at,
        FaultKind::ApFlap {
            ap: 1,
            down: SimDuration::from_secs(2),
            up: SimDuration::from_secs(3),
            cycles: 4,
        },
    );
    assert_no_amplification(plan, RunMode::DiversifiCustomAp, 0xF1A9, "secondary flap");
}

/// A middlebox process restart wipes the replication buffer and loses the
/// SDN rule for a while; the client's retry + probe logic must re-arm
/// replication instead of silently running primary-only forever.
#[test]
fn middlebox_restart_reinstalls_replication() {
    let plan = FaultPlan::none().with(
        SimTime::ZERO + SimDuration::from_secs(10),
        FaultKind::MiddleboxRestart {
            outage: SimDuration::from_secs(2),
            reinstall_delay: SimDuration::from_millis(500),
        },
    );
    assert_no_amplification(
        plan.clone(),
        RunMode::DiversifiMiddlebox,
        0x3B0C,
        "middlebox restart",
    );

    // Recovery must actually re-arm: packets are still recovered on the
    // secondary *after* the restart cleared.
    let primary = LinkConfig::office(Channel::CH1, 18.0);
    let mut secondary = LinkConfig::office(Channel::CH11, 24.0);
    secondary.ge = GeParams::weak_link();
    let mut cfg = base_cfg(primary, secondary);
    cfg.mode = RunMode::DiversifiMiddlebox;
    cfg.faults = plan;
    let r = World::new(&cfg, &SeedFactory::new(0x3B0C)).run();
    assert!(r.alg_stats.recovered_on_secondary > 0, "replication must come back");
    assert_eq!(r.fault_outcomes.len(), 1);
    assert!(
        r.fault_outcomes[0].recovered_at.is_some(),
        "the report must record recovery after the restart"
    );
}

/// A WAN brownout (latency spike + control-loss burst) mid-call.
#[test]
fn brownout_does_not_amplify_loss() {
    let plan = FaultPlan::none().with(
        SimTime::ZERO + SimDuration::from_secs(12),
        FaultKind::Brownout {
            duration: SimDuration::from_secs(4),
            extra_delay: SimDuration::from_millis(15),
            control_loss: 0.7,
        },
    );
    assert_no_amplification(plan.clone(), RunMode::DiversifiCustomAp, 0xB0B0, "brownout/ap");
    assert_no_amplification(plan, RunMode::DiversifiMiddlebox, 0xB0B1, "brownout/mbox");
}

/// Total uplink control-plane outage: PS nulls and middlebox requests all
/// die for 3 s. The state machine must stay coherent and recover.
#[test]
fn uplink_outage_does_not_amplify_loss() {
    let plan = FaultPlan::none().with(
        SimTime::ZERO + SimDuration::from_secs(9),
        FaultKind::UplinkOutage { duration: SimDuration::from_secs(3) },
    );
    assert_no_amplification(plan.clone(), RunMode::DiversifiCustomAp, 0x0717, "uplink/ap");
    assert_no_amplification(plan, RunMode::DiversifiMiddlebox, 0x0718, "uplink/mbox");
}

/// An interference storm across both links layered on Gilbert–Elliott.
#[test]
fn interference_storm_does_not_amplify_loss() {
    let plan = FaultPlan::none().with(
        SimTime::ZERO + SimDuration::from_secs(11),
        FaultKind::InterferenceStorm {
            duration: SimDuration::from_secs(5),
            erasure: 0.35,
            link: None,
        },
    );
    assert_no_amplification(plan, RunMode::DiversifiCustomAp, 0x570A, "storm");
}

/// A secondary AP that dies for most of the call: Algorithm 1 must detect
/// the dead link, fall back to primary-only (bounded duplicate cost), and
/// re-arm replication when the AP returns.
#[test]
fn long_secondary_outage_enters_and_exits_degraded_mode() {
    // A weak primary makes losses (and hence recovery visits) frequent, so
    // the dead-secondary detector gets its consecutive silent strikes fast.
    let mut primary = LinkConfig::office(Channel::CH1, 22.0);
    primary.ge = GeParams::weak_link();
    let mut secondary = LinkConfig::office(Channel::CH11, 24.0);
    secondary.ge = GeParams::weak_link();
    let mut cfg = base_cfg(primary, secondary);
    cfg.mode = RunMode::DiversifiCustomAp;
    // Down from t=5s to t=20s; the call runs 30s, so there is a 10s
    // healthy tail for re-association.
    cfg.faults = FaultPlan::single_ap_reboot(
        1,
        SimTime::ZERO + SimDuration::from_secs(5),
        SimDuration::from_secs(15),
    );
    let r = World::new(&cfg, &SeedFactory::new(0xDEAD5)).run();
    assert_eq!(r.trace.len(), 1500, "run must complete");
    assert!(
        r.alg_stats.degraded_entries >= 1,
        "a 15 s dead secondary must trip the dead-link detector: {:?}",
        r.alg_stats
    );
    assert!(r.alg_stats.probe_visits >= 1, "degraded mode must probe: {:?}", r.alg_stats);
    assert!(r.alg_stats.degraded_ns > 0, "degraded time must be accounted");
    // The AP comes back at t=20s and the stream still has 10s to run: the
    // probe must find it and resume normal operation.
    let o = r.fault_outcomes[0];
    assert!(
        o.recovered_at.is_some(),
        "client must re-associate once the AP returns: {o:?}"
    );
}

/// Zero uplink delay / zero LAN delay configuration does not break event
/// ordering (same-timestamp event storms).
#[test]
fn zero_delay_configuration() {
    let primary = LinkConfig::office(Channel::CH1, 15.0);
    let mut secondary = LinkConfig::office(Channel::CH11, 22.0);
    secondary.ge = GeParams::weak_link();
    let mut cfg = base_cfg(primary, secondary);
    cfg.lan_delay = SimDuration::ZERO;
    cfg.uplink_delay = SimDuration::ZERO;
    cfg.middlebox_net_delay = SimDuration::ZERO;
    cfg.mode = RunMode::DiversifiMiddlebox;
    let r = World::new(&cfg, &SeedFactory::new(7)).run();
    assert_eq!(r.trace.len(), 1500);
}
