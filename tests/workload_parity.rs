//! VoIP-through-the-trait parity suite.
//!
//! The `Workload` refactor promises the VoIP path is *bit-identical* to
//! the engine before the trait existed. The `PIN_*` constants below were
//! captured from the tree immediately before the refactor landed (same
//! grid, same seeds) and must never drift: every fingerprint covers full
//! per-packet traces plus every counter the run report exposes, folded
//! through FNV-1a so a single-bit divergence fails.
//!
//! Coverage mirrors the three paths the engine exposes VoIP through:
//! world runs (the resilience catalogue shapes, paired realisations),
//! the §4 analysis corpus, and the fleet campaign digests — each at
//! 1/2/4/8 worker threads, in every feature configuration CI builds
//! (default, audit, trace, audit+trace; debug and release).
//!
//! Re-pinning is only legitimate when an engine change *intends* to move
//! VoIP outputs; run the ignored `print_fingerprints` test to recapture.

use diversifi::analysis::{self, AnalysisOptions, CallRecord};
use diversifi::campaign::run_fleet_campaign_observed;
use diversifi::scenario::Scenario;
use diversifi::world::{RunMode, World, WorldConfig};
use diversifi_simcore::{FaultKind, FaultPlan, SeedFactory, SimDuration, SimTime, SweepRunner};
use diversifi_wifi::{Channel, GeParams, LinkConfig};
use std::fmt::Write as _;

const PIN_WORLD_SWEEP: u64 = 0xcf47b10e69ac7b7b;
const PIN_PAIRED_FAULTS: u64 = 0xfb1a2a9a83ac4c5b;
const PIN_CORPUS: u64 = 0x71e54e80e772bc29;
const PIN_CAMPAIGN: u64 = 0x3665ec7f3bbcb058;

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
/// fault kind the catalogue injects — the same shapes `repro --resilience`
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
}
