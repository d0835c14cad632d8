//! Cross-workload differential suite: the FPS workload must inherit the
//! VoIP no-amplification contract. For every fault in the catalogue, a
//! DiversiFi run and a PrimaryOnly run on the *same* seeded realization
//! must show diversifi tick-outage ≤ primary-only (plus noise floor) —
//! replication may never make a cloud-gaming session worse than not
//! replicating. Rides the exact pairing discipline of
//! `failure_injection::assert_no_amplification`, swapping the loss-rate
//! metric for the per-tick deadline metrics, and closes the tick ledger
//! over the new packet classes (input ticks: delivered / lost / blackout).

use diversifi::world::{RunMode, RunReport, World, WorldConfig};
use diversifi_simcore::{FaultKind, FaultPlan, SeedFactory, SimDuration, SimTime};
use diversifi_voip::{FpsConfig, FpsOutcome, WorkloadKind};
use diversifi_wifi::{Channel, GeParams, LinkConfig};

/// 30 s FPS session (2000 ticks at the office 15 ms cadence) over the
/// standard differential-pair links: healthy primary, weak secondary.
fn fps_cfg(mode: RunMode) -> WorldConfig {
    let primary = LinkConfig::office(Channel::CH1, 18.0);
    let mut secondary = LinkConfig::office(Channel::CH11, 24.0);
    secondary.ge = GeParams::weak_link();
    let mut cfg = WorldConfig::testbed(primary, secondary);
    let mut fps = FpsConfig::office();
    fps.duration = SimDuration::from_secs(30);
    cfg.set_workload(WorkloadKind::Fps(fps));
    cfg.mode = mode;
    cfg
}

const TICKS: u64 = 2000; // 30 s / 15 ms

fn fps_outcome(r: &RunReport) -> FpsOutcome {
    r.fps.expect("FPS run must produce an FPS outcome")
}

/// The tick ledger's external closure: every tick the session emitted is
/// accounted in exactly one fate, in both directions. (The internal
/// `TickLedger` audit assertion re-checks the same identity against the
/// event loop's own counters under `--features audit`.)
fn assert_tick_closure(o: &FpsOutcome, label: &str) {
    assert_eq!(o.state.ticks, TICKS, "{label}: state session must complete");
    assert_eq!(o.input.ticks, TICKS, "{label}: input session must complete");
    assert_eq!(
        o.state.on_time + o.state.late + o.state.lost,
        o.state.ticks,
        "{label}: state fates must partition the ticks"
    );
    assert_eq!(
        o.input.on_time + o.input.late + o.input.lost,
        o.input.ticks,
        "{label}: input fates must partition the ticks"
    );
    // Blackout ticks were never transmitted, so they are a subset of the
    // input trace's never-arrived ticks.
    assert!(
        o.input_blackout <= o.input.lost,
        "{label}: blackouts ({}) exceed lost inputs ({})",
        o.input_blackout,
        o.input.lost
    );
}

/// Runs one (DiversiFi, PrimaryOnly) pair under `plan` and asserts the
/// per-seed no-amplification contract on the FPS deadline metric:
/// replication must not raise the state-tick outage (miss rate), fault or
/// no fault. (Worst-window and QoE are *not* compared per-seed: window
/// placement legitimately shifts when replication reshuffles which ticks
/// miss, so those are population-level metrics, covered by campaigns.)
fn assert_no_tick_amplification(plan: FaultPlan, mode: RunMode, seed: u64, label: &str) {
    let mut dvf = fps_cfg(mode);
    dvf.faults = plan;
    let mut base = dvf.clone();
    base.mode = RunMode::PrimaryOnly;
    let seeds = SeedFactory::new(seed);
    let r_dvf = World::new(&dvf, &seeds).run();
    let r_base = World::new(&base, &seeds).run();
    let od = fps_outcome(&r_dvf);
    let ob = fps_outcome(&r_base);
    assert_tick_closure(&od, label);
    assert_tick_closure(&ob, label);
    let (md, mb) = (od.state.miss_rate(), ob.state.miss_rate());
    assert!(
        md <= mb + 0.02,
        "{label}: diversifi tick-outage {md} must not amplify baseline {mb}"
    );
}

/// No fault at all: replication still must not hurt, and the healthy
/// session must actually stream its inputs (not just fail them all into
/// a vacuously-closed ledger).
#[test]
fn healthy_fps_session_does_not_amplify() {
    for (mode, seed) in
        [(RunMode::DiversifiCustomAp, 0xF9500u64), (RunMode::DiversifiMiddlebox, 0xF9501)]
    {
        assert_no_tick_amplification(FaultPlan::none(), mode, seed, "healthy");
        let r = World::new(&fps_cfg(mode), &SeedFactory::new(seed)).run();
        let o = fps_outcome(&r);
        assert!(
            o.input.miss_rate() < 0.10,
            "{mode:?}: healthy inputs mostly on time: {:?}",
            o.input
        );
        assert!(
            o.state.miss_rate() < 0.10,
            "{mode:?}: healthy state ticks mostly on time: {:?}",
            o.state
        );
        assert!(o.qoe > 0.0, "{mode:?}: healthy session must score: {}", o.qoe);
    }
}

/// AP power-cycles (primary and secondary) mid-session.
#[test]
fn fps_ap_reboot_does_not_amplify() {
    for rebooted_ap in [0usize, 1] {
        let plan = FaultPlan::single_ap_reboot(
            rebooted_ap,
            SimTime::ZERO + SimDuration::from_secs(10),
            SimDuration::from_secs(3),
        );
        assert_no_tick_amplification(
            plan,
            RunMode::DiversifiCustomAp,
            0xF9B007 + rebooted_ap as u64,
            "ap reboot",
        );
    }
}

/// A flapping secondary AP: the client keeps hopping into a coin-flip AP.
#[test]
fn fps_secondary_flap_does_not_amplify() {
    let plan = FaultPlan::none().with(
        SimTime::ZERO + SimDuration::from_secs(8),
        FaultKind::ApFlap {
            ap: 1,
            down: SimDuration::from_secs(2),
            up: SimDuration::from_secs(3),
            cycles: 4,
        },
    );
    assert_no_tick_amplification(plan, RunMode::DiversifiCustomAp, 0xF9F1A9, "secondary flap");
}

/// Middlebox restart wipes the replication buffer and SDN rule.
#[test]
fn fps_middlebox_restart_does_not_amplify() {
    let plan = FaultPlan::none().with(
        SimTime::ZERO + SimDuration::from_secs(10),
        FaultKind::MiddleboxRestart {
            outage: SimDuration::from_secs(2),
            reinstall_delay: SimDuration::from_millis(500),
        },
    );
    assert_no_tick_amplification(plan, RunMode::DiversifiMiddlebox, 0xF93B0C, "middlebox restart");
}

/// WAN brownout: latency spike + control-loss burst. Input ticks ride the
/// uplink control path, so this fault hits the new packet class directly.
#[test]
fn fps_brownout_does_not_amplify() {
    let plan = FaultPlan::none().with(
        SimTime::ZERO + SimDuration::from_secs(12),
        FaultKind::Brownout {
            duration: SimDuration::from_secs(4),
            extra_delay: SimDuration::from_millis(15),
            control_loss: 0.7,
        },
    );
    assert_no_tick_amplification(plan.clone(), RunMode::DiversifiCustomAp, 0xF9B0B0, "brownout/ap");
    assert_no_tick_amplification(plan, RunMode::DiversifiMiddlebox, 0xF9B0B1, "brownout/mbox");
}

/// Total uplink control-plane outage: input ticks, PS nulls, and
/// middlebox requests all die for 3 s.
#[test]
fn fps_uplink_outage_does_not_amplify() {
    let plan = FaultPlan::none().with(
        SimTime::ZERO + SimDuration::from_secs(9),
        FaultKind::UplinkOutage { duration: SimDuration::from_secs(3) },
    );
    assert_no_tick_amplification(plan.clone(), RunMode::DiversifiCustomAp, 0xF90717, "uplink/ap");
    assert_no_tick_amplification(plan, RunMode::DiversifiMiddlebox, 0xF90718, "uplink/mbox");
}

/// An interference storm across both links layered on Gilbert–Elliott.
#[test]
fn fps_interference_storm_does_not_amplify() {
    let plan = FaultPlan::none().with(
        SimTime::ZERO + SimDuration::from_secs(11),
        FaultKind::InterferenceStorm {
            duration: SimDuration::from_secs(5),
            erasure: 0.35,
            link: None,
        },
    );
    assert_no_tick_amplification(plan, RunMode::DiversifiCustomAp, 0xF9570A, "storm");
}

/// An FPS run is a pure function of `(WorldConfig, seed)`: two identical
/// runs produce bit-identical traces and outcomes — the same determinism
/// contract the VoIP parity suite pins, extended to the new packet class.
#[test]
fn fps_run_is_deterministic() {
    let mut cfg = fps_cfg(RunMode::DiversifiCustomAp);
    cfg.faults = FaultPlan::none().with(
        SimTime::ZERO + SimDuration::from_secs(9),
        FaultKind::UplinkOutage { duration: SimDuration::from_secs(3) },
    );
    let seeds = SeedFactory::new(0xF9DE7);
    let a = World::new(&cfg, &seeds).run();
    let b = World::new(&cfg, &seeds).run();
    assert_eq!(a.trace.fates, b.trace.fates, "state traces must be byte-identical");
    let (oa, ob) = (fps_outcome(&a), fps_outcome(&b));
    let j = |o: &FpsOutcome| serde_json::to_string(o).unwrap();
    assert_eq!(j(&oa), j(&ob), "outcomes must be byte-identical");
    assert_eq!(oa.qoe.to_bits(), ob.qoe.to_bits());
}

/// Blackout accounting: rebooting the *primary* AP while the session is
/// single-homed forces input ticks to fire with no usable radio — those
/// must land in the blackout class, and the ledger must still close.
#[test]
fn fps_primary_reboot_blackouts_are_accounted() {
    let mut cfg = fps_cfg(RunMode::PrimaryOnly);
    cfg.faults = FaultPlan::single_ap_reboot(
        0,
        SimTime::ZERO + SimDuration::from_secs(10),
        SimDuration::from_secs(3),
    );
    let r = World::new(&cfg, &SeedFactory::new(0xF9BB01)).run();
    let o = fps_outcome(&r);
    assert_tick_closure(&o, "primary reboot blackout");
    // A 3 s radio-less window at 15 ms cadence is ~200 untransmittable
    // ticks; the class must actually be exercised, not vacuously zero.
    assert!(
        o.input_blackout >= 100,
        "3 s primary outage must strand input ticks in blackout: {:?}",
        o
    );
    assert!(
        o.state.longest_outage_ticks >= 100,
        "the state stream must see the same hole: {:?}",
        o.state
    );
}
