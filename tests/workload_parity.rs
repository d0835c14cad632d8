//! Workload-layer parity suite.
//!
//! The VoIP path through the workload layer promises to be *bit-identical*
//! to the engine before that layer existed. The VoIP `PIN_*` constants
//! below were captured from the tree immediately before the layer landed
//! (same grid, same seeds) and must never drift: every fingerprint covers
//! full per-packet traces plus every counter the run report exposes,
//! folded through FNV-1a so a single-bit divergence fails.
//!
//! Coverage mirrors the paths the engine exposes VoIP through: world runs
//! (the resilience catalogue shapes, paired realisations), the §4 analysis
//! corpus, the fleet campaign digests — each at 1/2/4/8 worker threads —
//! and the open-loop drivers (FEC, uplink, single link, cross-technology),
//! in every feature configuration CI builds (default, audit, trace,
//! audit+trace; debug and release). `PIN_FPS_WORLD` adds the closed-loop
//! FPS worlds (state ticks down, input ticks up), captured before the
//! workload state became one struct.
//!
//! Re-pinning is only legitimate when an engine change *intends* to move
//! these outputs; run the ignored `print_fingerprints` test to recapture.

use diversifi::analysis::{self, AnalysisOptions, CallRecord};
use diversifi::campaign::run_fleet_campaign_observed;
use diversifi::crosstech::{run_cross_technology, CellularConfig};
use diversifi::scenario::Scenario;
use diversifi::twonic::{run_fec, run_single, run_temporal, run_two_nic, TwoNicScenario};
use diversifi::uplink::{run_uplink, UplinkMode};
use diversifi::world::{RunMode, World, WorldConfig};
use diversifi_simcore::{FaultKind, FaultPlan, SeedFactory, SimDuration, SimTime, SweepRunner};
use diversifi_voip::{FpsConfig, StreamSpec, StreamTrace, TickStats, WorkloadKind};
use diversifi_wifi::{
    Channel, Congestion, GeParams, LinkConfig, MicrowaveOven, MobilityPattern, RealizationCache,
};
use std::fmt::Write as _;

const PIN_WORLD_SWEEP: u64 = 0xcf47b10e69ac7b7b;
const PIN_PAIRED_FAULTS: u64 = 0xfb1a2a9a83ac4c5b;
// `corpus_fp` hashes raw `rssi_dbm` bits, so this pin also holds the
// low bits of the shadowing track's normals (the Box–Muller kernel's
// rounding), which no other output here carries.
const PIN_CORPUS: u64 = 0xce5f0b99a07c5a8a;
const PIN_CAMPAIGN: u64 = 0x3665ec7f3bbcb058;
const PIN_OPEN_LOOP: u64 = 0x49e6d3128890e9ac;
const PIN_FPS_WORLD: u64 = 0x0701071354b0c545;

fn fnv(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Serialise everything a world run reports. Floats go through `to_bits`
/// (or serde_json, which renders identical floats identically), so this
/// is sensitive to any behavioural change, not just loss-rate drift.
fn run_fp(cfg: &WorldConfig, seeds: &SeedFactory) -> String {
    let r = World::new(cfg, seeds).run();
    let mut s = serde_json::to_string(&r.trace).expect("trace serialises");
    write!(
        s,
        "|prim={} air={} waste={} tcp={:?} tput={:016x} switches={} \
         dups={} degraded={} probes={} expired={}",
        r.primary_deliveries,
        r.secondary_air_tx,
        r.secondary_wasteful_tx,
        r.tcp_diag,
        r.tcp_throughput_bps.to_bits(),
        r.switch_delays.len(),
        r.alg_stats.duplicate_packets,
        r.alg_stats.degraded_ns,
        r.alg_stats.probe_visits,
        r.alg_stats.expired_losses,
    )
    .unwrap();
    for o in &r.fault_outcomes {
        match o.mttr() {
            Some(d) => write!(s, "|mttr={:016x}", d.as_millis_f64().to_bits()).unwrap(),
            None => s.push_str("|mttr=-"),
        }
    }
    s.push('\n');
    s
}

fn office_pair() -> (LinkConfig, LinkConfig) {
    let mut a = LinkConfig::office(Channel::CH1, 22.0);
    a.ge = GeParams::weak_link();
    let mut b = LinkConfig::office(Channel::CH11, 28.0);
    b.ge = GeParams::weak_link();
    (a, b)
}

/// The world grid: every run mode, TCP on/off, and one instance of each
/// fault kind the catalogue injects — the same shapes `repro resilience`
/// sweeps, at 12 s calls so debug builds stay quick.
fn world_grid() -> Vec<(WorldConfig, u64)> {
    let at = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
    let ms = SimDuration::from_millis;
    let mut out = Vec::new();
    let mut push = |mode: RunMode, with_tcp: bool, faults: FaultPlan, seed: u64| {
        let (a, b) = office_pair();
        let mut cfg = WorldConfig::testbed(a, b);
        cfg.spec.duration = SimDuration::from_secs(12);
        cfg.mode = mode;
        cfg.with_tcp = with_tcp;
        cfg.faults = faults;
        out.push((cfg, seed));
    };
    push(RunMode::PrimaryOnly, false, FaultPlan::none(), 0xA0);
    push(RunMode::DiversifiCustomAp, false, FaultPlan::none(), 0xA1);
    push(RunMode::DiversifiMiddlebox, true, FaultPlan::none(), 0xA2);
    push(
        RunMode::DiversifiCustomAp,
        true,
        FaultPlan::single_ap_reboot(0, at(4), SimDuration::from_secs(2)),
        0xA3,
    );
    push(
        RunMode::DiversifiCustomAp,
        false,
        FaultPlan::none().with(
            at(3),
            FaultKind::ApFlap { ap: 1, down: ms(800), up: ms(1200), cycles: 2 },
        ),
        0xA4,
    );
    push(
        RunMode::DiversifiMiddlebox,
        false,
        FaultPlan::none()
            .with(at(4), FaultKind::MiddleboxRestart { outage: ms(1500), reinstall_delay: ms(400) }),
        0xA5,
    );
    push(
        RunMode::DiversifiCustomAp,
        false,
        FaultPlan::none().with(
            at(3),
            FaultKind::Brownout {
                duration: SimDuration::from_secs(3),
                extra_delay: ms(12),
                control_loss: 0.6,
            },
        ),
        0xA6,
    );
    push(
        RunMode::DiversifiCustomAp,
        false,
        FaultPlan::none().with(at(4), FaultKind::UplinkOutage { duration: SimDuration::from_secs(2) }),
        0xA7,
    );
    push(
        RunMode::DiversifiCustomAp,
        false,
        FaultPlan::none().with(
            at(3),
            FaultKind::InterferenceStorm { duration: SimDuration::from_secs(3), erasure: 0.35, link: None },
        ),
        0xA8,
    );
    out
}

fn world_sweep_fp(threads: usize) -> u64 {
    let grid = world_grid();
    let rows = SweepRunner::new(threads).run_indexed(grid.len(), |i| {
        let (cfg, seed) = &grid[i];
        run_fp(cfg, &SeedFactory::new(*seed))
    });
    fnv(&rows.concat())
}

/// Paired realisations, resilience-style: baseline and DiversiFi arms share
/// one `SeedFactory` (hence one channel realisation) under the same fault
/// plan. Pins the pairing property itself through the refactor.
fn paired_faults_fp() -> u64 {
    let at = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
    let plans: Vec<(RunMode, FaultPlan)> = vec![
        (RunMode::DiversifiCustomAp, FaultPlan::single_ap_reboot(0, at(4), SimDuration::from_secs(2))),
        (
            RunMode::DiversifiMiddlebox,
            FaultPlan::none().with(
                at(4),
                FaultKind::MiddleboxRestart {
                    outage: SimDuration::from_millis(1500),
                    reinstall_delay: SimDuration::from_millis(400),
                },
            ),
        ),
    ];
    let mut s = String::new();
    for (i, (mode, plan)) in plans.iter().enumerate() {
        let (a, b) = office_pair();
        let mut base = WorldConfig::testbed(a, b);
        base.spec.duration = SimDuration::from_secs(12);
        base.mode = RunMode::PrimaryOnly;
        base.faults = plan.clone();
        let mut dvf = base.clone();
        dvf.mode = *mode;
        let seeds = SeedFactory::new(0x5E511E ^ i as u64);
        s.push_str(&run_fp(&base, &seeds));
        s.push_str(&run_fp(&dvf, &seeds));
    }
    fnv(&s)
}

/// §4 corpus fingerprint (same serialisation as `sweep_equivalence`).
fn corpus_fp(threads: usize) -> u64 {
    let mut opts = AnalysisOptions::paper_corpus();
    opts.n_calls = 4;
    opts.spec.duration = SimDuration::from_secs(8);
    opts.threads = threads;
    let records: Vec<CallRecord> = analysis::run_corpus(&opts, 0x5EED);
    let mut s = String::new();
    for r in &records {
        s.push_str(&serde_json::to_string(&r.impairment).unwrap());
        for (trace, rssi) in [(&r.a.trace, r.a.rssi_dbm), (&r.b.trace, r.b.rssi_dbm)] {
            s.push_str(&serde_json::to_string(trace).unwrap());
            write!(s, "rssi={:016x};", rssi.to_bits()).unwrap();
        }
        for t in [&r.temporal_0, &r.temporal_100] {
            match t {
                Some(t) => s.push_str(&serde_json::to_string(t).unwrap()),
                None => s.push('-'),
            }
        }
        s.push('\n');
    }
    fnv(&s)
}

/// Fleet campaign: the digest fingerprint already pins every channel of the
/// shard digests; fold in the derived report numbers and the arm probes
/// (closed-loop world runs through the scenario path) as well.
fn campaign_fp(threads: usize) -> u64 {
    let mut scn = Scenario::testbed("workload-parity", 0x9A17);
    scn.fleet.calls = 5_000;
    scn.campaign.shard_size = 1_000;
    scn.campaign.threads = threads;
    let r = run_fleet_campaign_observed(&scn, &scn.campaign_config(), |_| {}, |_| {})
        .expect("campaign runs")
        .report;
    let mut s = format!(
        "fp={:016x} calls={} poor={:016x} mos={:016x}/{:016x}/{:016x}/{:016x}/{:016x} \
         delay={:016x}/{:016x}",
        r.fingerprint,
        r.calls,
        r.poor_rate.to_bits(),
        r.mos_mean.to_bits(),
        r.mos_stddev.to_bits(),
        r.mos_p10.to_bits(),
        r.mos_p50.to_bits(),
        r.mos_p90.to_bits(),
        r.delay_p50_ms.to_bits(),
        r.delay_p99_ms.to_bits(),
    );
    for a in &r.arms {
        write!(
            s,
            "|{}:{}:{:016x}:{:016x}:{:016x}",
            a.name,
            a.mode,
            a.loss_pct.to_bits(),
            a.wasteful_dup_pct.to_bits(),
            a.secondary_air_pct.to_bits(),
        )
        .unwrap();
    }
    fnv(&s)
}

/// The open-loop drivers, which build their links outside `World`: FEC,
/// uplink in both modes, a single link, cross-technology replication and
/// the two-NIC and temporal arms, over weak, microwave, congested and
/// walking links so every impairment term reaches the pinned traces.
fn open_loop_fp() -> u64 {
    let spec = StreamSpec {
        packet_bytes: 160,
        interval: SimDuration::from_millis(20),
        duration: SimDuration::from_secs(20),
    };
    let (weak_a, weak_b) = office_pair();
    let mut oven = LinkConfig::office(Channel::CH6, 14.0);
    oven.microwave = Some(MicrowaveOven::default());
    let mut busy = LinkConfig::office(Channel::CH36, 30.0);
    busy.congestion = Some(Congestion::heavy());
    busy.mobility = Some(MobilityPattern::walking(1.0));
    let mut s = String::new();
    let trace = |s: &mut String, t: &StreamTrace| {
        s.push_str(&serde_json::to_string(t).unwrap());
        s.push('\n');
    };
    for i in 0..3u64 {
        let seeds = SeedFactory::new(0x0BE7 + i);
        trace(&mut s, &run_fec(&spec, &weak_a, &seeds, 4));
        for mode in [UplinkMode::SingleLink, UplinkMode::Diversifi] {
            let (t, st) = run_uplink(&spec, &weak_a, &weak_b, &seeds, mode);
            trace(&mut s, &t);
            writeln!(s, "uplink={} {} {}", st.primary_failures, st.recovered, st.switches)
                .unwrap();
        }
        for cfg in [&busy, &oven] {
            let obs = run_single(&spec, cfg, &seeds, i);
            trace(&mut s, &obs.trace);
            writeln!(s, "rssi={:016x}", obs.rssi_dbm.to_bits()).unwrap();
        }
        let xt = run_cross_technology(&spec, &oven, &CellularConfig::default(), &seeds);
        for t in [&xt.wifi, &xt.cellular, &xt.merged] {
            trace(&mut s, t);
        }
        let cache = RealizationCache::new(2);
        let scn = TwoNicScenario::new(spec, weak_a.clone(), busy.clone());
        let two = run_two_nic(&scn, &seeds, &cache);
        for obs in [&two.a, &two.b] {
            trace(&mut s, &obs.trace);
            writeln!(s, "rssi={:016x}", obs.rssi_dbm.to_bits()).unwrap();
        }
        let temporal = run_temporal(&spec, &weak_b, &seeds, SimDuration::from_millis(100), &cache);
        trace(&mut s, &temporal);
    }
    fnv(&s)
}

/// Closed-loop FPS worlds: `FpsConfig::office()` sessions (12 s) in the
/// customized-AP DiversiFi and primary-only modes, each healthy and under
/// a 1 s `UplinkOutage` that strands input ticks. Hashes the state-tick
/// trace, every `FpsOutcome` field (the input trace through its tick
/// statistics, which is all a run report carries of it) and `alg_stats`.
fn fps_world_fp(threads: usize) -> u64 {
    let at = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
    let mut grid = Vec::new();
    for (i, mode) in [RunMode::DiversifiCustomAp, RunMode::PrimaryOnly].into_iter().enumerate() {
        for (j, faults) in [
            FaultPlan::none(),
            FaultPlan::none()
                .with(at(5), FaultKind::UplinkOutage { duration: SimDuration::from_secs(1) }),
        ]
        .into_iter()
        .enumerate()
        {
            let (a, b) = office_pair();
            let mut cfg = WorldConfig::testbed(a, b);
            let mut fps = FpsConfig::office();
            fps.duration = SimDuration::from_secs(12);
            cfg.set_workload(WorkloadKind::Fps(fps));
            cfg.mode = mode;
            cfg.faults = faults;
            grid.push((cfg, 0xF950 + (2 * i + j) as u64));
        }
    }
    let rows = SweepRunner::new(threads).run_indexed(grid.len(), |i| {
        let (cfg, seed) = &grid[i];
        let r = World::new(cfg, &SeedFactory::new(*seed)).run();
        let o = r.fps.expect("an FPS world reports an FPS outcome");
        let mut s = serde_json::to_string(&r.trace).expect("trace serialises");
        for t in [&o.state, &o.input] {
            let TickStats { ticks, on_time, late, lost, worst_window_pct, longest_outage_ticks } =
                *t;
            write!(
                s,
                "|{ticks} {on_time} {late} {lost} {:016x} {longest_outage_ticks}",
                worst_window_pct.to_bits()
            )
            .unwrap();
        }
        let qoe = o.qoe.to_bits();
        writeln!(s, "|blackout={} qoe={qoe:016x} alg={:?}", o.input_blackout, r.alg_stats).unwrap();
        s
    });
    fnv(&rows.concat())
}

#[test]
fn world_sweep_is_bit_identical_to_pre_refactor_at_every_thread_count() {
    for threads in [1usize, 2, 4, 8] {
        assert_eq!(
            world_sweep_fp(threads),
            PIN_WORLD_SWEEP,
            "world sweep diverged from pre-refactor fingerprint at threads={threads}"
        );
    }
}

#[test]
fn paired_fault_runs_are_bit_identical_to_pre_refactor() {
    assert_eq!(paired_faults_fp(), PIN_PAIRED_FAULTS);
}

#[test]
fn corpus_is_bit_identical_to_pre_refactor_at_every_thread_count() {
    for threads in [1usize, 2, 4, 8] {
        assert_eq!(
            corpus_fp(threads),
            PIN_CORPUS,
            "§4 corpus diverged from pre-refactor fingerprint at threads={threads}"
        );
    }
}

#[test]
fn campaign_is_bit_identical_to_pre_refactor_at_every_thread_count() {
    for threads in [1usize, 2, 4, 8] {
        assert_eq!(
            campaign_fp(threads),
            PIN_CAMPAIGN,
            "campaign diverged from pre-refactor fingerprint at threads={threads}"
        );
    }
}

#[test]
fn open_loop_drivers_are_bit_identical_to_pre_refactor() {
    assert_eq!(open_loop_fp(), PIN_OPEN_LOOP);
}

#[test]
fn fps_worlds_are_bit_identical_at_every_thread_count() {
    for threads in [1usize, 2, 4, 8] {
        assert_eq!(
            fps_world_fp(threads),
            PIN_FPS_WORLD,
            "FPS worlds diverged from the pinned fingerprint at threads={threads}"
        );
    }
}

/// Recapture helper: `cargo test --test workload_parity -- --ignored --nocapture`.
/// Only legitimate when an engine change *intends* to move VoIP outputs.
#[test]
#[ignore]
#[allow(clippy::print_stdout)]
fn print_fingerprints() {
    println!("PIN_WORLD_SWEEP: u64 = 0x{:016x};", world_sweep_fp(1));
    println!("PIN_PAIRED_FAULTS: u64 = 0x{:016x};", paired_faults_fp());
    println!("PIN_CORPUS: u64 = 0x{:016x};", corpus_fp(1));
    println!("PIN_CAMPAIGN: u64 = 0x{:016x};", campaign_fp(1));
    println!("PIN_OPEN_LOOP: u64 = 0x{:016x};", open_loop_fp());
    println!("PIN_FPS_WORLD: u64 = 0x{:016x};", fps_world_fp(1));
}
