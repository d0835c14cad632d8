//! Chaos-engine acceptance: the adversarial fault-plan fuzzer finds a
//! planted violation, shrinks it to a ≤2-spec minimal plan, and produces
//! byte-identical reproducers at every thread count; the committed
//! regression corpus replays clean under the real oracles; and scenarios
//! that never mention `[chaos]` keep their exact pre-chaos canonical
//! form. These tests run in every build configuration (debug, release,
//! `audit`, `trace`), so the canary guards both compiled directions of
//! the invariant-audit layer.

use diversifi::chaos::{evaluate_plan, replay_reproducer, run_chaos, ChaosConfig, Violation};
use diversifi::scenario::Scenario;
use diversifi::world::{RunMode, World, WorldConfig};
use diversifi_simcore::chaos::{generate_plan, ChaosReproducer};
use diversifi_simcore::{FaultKind, FaultPlan, SeedFactory, SimDuration, SimTime};
use diversifi_voip::DEFAULT_DEADLINE;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn smoke_scenario() -> Scenario {
    let path = repo_root().join("scenarios/chaos-smoke.toml");
    let text = std::fs::read_to_string(&path).expect("committed smoke scenario exists");
    Scenario::from_toml(&text).expect("committed smoke scenario parses")
}

#[test]
fn planted_canary_is_found_and_shrunk_at_every_thread_count() {
    let mut reference: Option<String> = None;
    for threads in [1usize, 2, 4, 8] {
        let mut cfg = ChaosConfig::from_scenario(&smoke_scenario());
        cfg.canary = true;
        cfg.plans = 64;
        cfg.threads = threads;
        let report = run_chaos(&cfg).expect("canary scan runs");
        assert!(report.complete, "threads={threads}");
        assert!(report.quarantined.is_empty(), "threads={threads}");
        assert!(report.violations > 0, "canary not found (threads={threads})");
        assert!(!report.findings.is_empty(), "threads={threads}");
        for f in &report.findings {
            // The acceptance bar: a known violation shrinks to a minimal
            // plan of at most two specs — here exactly the composed
            // uplink-outage + interference-storm pair the canary keys on.
            assert!(
                f.minimal_specs <= 2,
                "not minimal (threads={threads}): {} specs",
                f.minimal_specs
            );
            assert_eq!(f.reproducer.plan.specs.len(), 2, "threads={threads}");
            let outage = f
                .reproducer
                .plan
                .specs
                .iter()
                .any(|s| matches!(s.kind, FaultKind::UplinkOutage { .. }));
            let storm = f
                .reproducer
                .plan
                .specs
                .iter()
                .any(|s| matches!(s.kind, FaultKind::InterferenceStorm { .. }));
            assert!(outage && storm, "threads={threads}: {:?}", f.reproducer.plan);
        }
        // Same seed ⇒ byte-identical serialized reproducers, regardless
        // of worker count.
        let blob = serde_json::to_string(&report.findings).expect("findings serialize");
        match &reference {
            None => reference = Some(blob),
            Some(want) => assert_eq!(&blob, want, "threads={threads}"),
        }
    }
}

#[test]
fn committed_corpus_replays_clean_under_the_real_oracles() {
    let cfg = ChaosConfig::from_scenario(&smoke_scenario());
    let dir = repo_root().join("scenarios/chaos-corpus");
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("committed chaos corpus exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "the corpus ships with at least one reproducer");
    for p in &entries {
        let text = std::fs::read_to_string(p).expect("corpus entry readable");
        let rep: ChaosReproducer =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
        assert!(!rep.plan.is_empty(), "{}: empty plan", p.display());
        assert!(
            replay_reproducer(&cfg, &rep).is_none(),
            "{}: committed reproducer regressed ({})",
            p.display(),
            rep.oracle,
        );
    }
}

#[test]
fn real_oracle_scan_is_clean_and_thread_invariant_on_the_smoke_budget() {
    let mut runs = Vec::new();
    for threads in [2usize, 4] {
        let mut cfg = ChaosConfig::from_scenario(&smoke_scenario());
        cfg.plans = 64;
        cfg.threads = threads;
        let report = run_chaos(&cfg).expect("scan runs");
        assert!(report.complete);
        assert_eq!(
            report.violations, 0,
            "smoke budget must be green at its calibrated tolerance \
             (findings: {:?})",
            report.findings
        );
        runs.push(report.fingerprint.expect("complete scan has a fingerprint"));
    }
    assert_eq!(runs[0], runs[1], "scan fingerprint must be thread-count invariant");
}

#[test]
fn chaos_free_scenarios_keep_their_pre_chaos_canonical_form() {
    for file in ["office.toml", "ci-smoke.toml", "fps-office.toml"] {
        let path = repo_root().join("scenarios").join(file);
        let text = std::fs::read_to_string(&path).expect("committed scenario exists");
        let scn = Scenario::from_toml(&text).expect("committed scenario parses");
        let json = scn.to_json_pretty();
        assert!(
            !json.contains("\"chaos\""),
            "{file}: chaos-free scenario grew a chaos key — this would shift \
             its fingerprint and orphan existing campaign checkpoints"
        );
    }
}

/// The oracles of `evaluate_plan`, recomputed from two bare
/// `World::new(..).run()` arms: no realisation cache, no arena, nothing
/// shared with any other plan.
fn reference_verdict(cfg: &ChaosConfig, index: u64, plan: &FaultPlan) -> Option<Violation> {
    if plan.is_empty() {
        return None;
    }
    let mut base = WorldConfig::testbed(cfg.primary.clone(), cfg.secondary.clone());
    base.mode = RunMode::PrimaryOnly;
    base.spec.duration = cfg.budget.horizon;
    base.faults = plan.clone();
    let mut dvf = base.clone();
    let middlebox = plan.specs.iter().any(|s| matches!(s.kind, FaultKind::MiddleboxRestart { .. }));
    dvf.mode = if middlebox { RunMode::DiversifiMiddlebox } else { RunMode::DiversifiCustomAp };
    let seeds = SeedFactory::new(cfg.seed).subfactory("chaos.world", index);
    let rb = World::new(&base, &seeds).run();
    let rd = World::new(&dvf, &seeds).run();
    let loss_base = rb.trace.loss_rate(DEFAULT_DEADLINE);
    let loss_dvf = rd.trace.loss_rate(DEFAULT_DEADLINE);
    if loss_dvf > loss_base + cfg.tolerance {
        return Some(Violation {
            oracle: "no-amplification",
            detail: format!(
                "diversifi loss {:.4} vs primary-only {:.4} (tolerance {:.4})",
                loss_dvf, loss_base, cfg.tolerance
            ),
            delta: loss_dvf - loss_base,
        });
    }
    let horizon_end = SimTime::ZERO + cfg.budget.horizon;
    let unrecovered: Vec<_> = rd
        .fault_outcomes
        .iter()
        .filter(|o| o.end + cfg.mttr_slack <= horizon_end && o.recovered_at.is_none())
        .collect();
    let worst = unrecovered.first()?;
    Some(Violation {
        oracle: "unbounded-mttr",
        detail: format!(
            "{} window clearing at {:.1}s never saw service recover ({} such windows, \
             {:.1}s of healthy tail)",
            worst.label,
            worst.end.as_nanos() as f64 / 1e9,
            unrecovered.len(),
            horizon_end.saturating_since(worst.end).as_nanos() as f64 / 1e9,
        ),
        delta: 2.0 + unrecovered.len() as f64,
    })
}

/// A verdict with its severity as bits, so equality is bit-exact.
fn bits(v: Option<Violation>) -> Option<(&'static str, String, u64)> {
    v.map(|v| (v.oracle, v.detail, v.delta.to_bits()))
}

/// The smoke deployment and budget at a 6 s horizon with no loss
/// tolerance, so that some plans violate and the verdict details are
/// compared too.
fn parity_cfg() -> ChaosConfig {
    let mut cfg = ChaosConfig::from_scenario(&smoke_scenario());
    cfg.budget.horizon = SimDuration::from_secs(6);
    cfg.mttr_slack = SimDuration::from_secs(2);
    cfg.tolerance = 0.0;
    cfg.plans = 24;
    cfg.shard_size = 4;
    cfg.max_findings = 2;
    cfg
}

#[test]
fn shared_realisations_and_arena_leave_every_verdict_unchanged() {
    let cfg = parity_cfg();
    let seeds = SeedFactory::new(cfg.seed);
    let plans: Vec<FaultPlan> =
        (0..cfg.plans).map(|i| generate_plan(&seeds, i, &cfg.budget)).collect();
    let want: Vec<_> =
        plans.iter().zip(0..).map(|(p, i)| bits(reference_verdict(&cfg, i, p))).collect();
    assert!(want.iter().any(Option::is_some), "no plan violates: the details go unchecked");
    assert!(want.iter().any(Option::is_none), "every plan violates");

    // Forward misses and evicts on every plan, reverse order revisits them
    // with a cold cache, and each plan twice in a row hits on the second
    // go; the arena is reused throughout.
    let forward: Vec<u64> = (0..cfg.plans).collect();
    let reverse: Vec<u64> = (0..cfg.plans).rev().collect();
    let twice: Vec<u64> = (0..cfg.plans).flat_map(|i| [i, i]).collect();
    for (order, schedule) in [("forward", forward), ("reverse", reverse), ("twice", twice)] {
        for i in schedule {
            let got = bits(evaluate_plan(&cfg, cfg.seed, i, &plans[i as usize]));
            assert_eq!(got, want[i as usize], "plan {i}, {order}");
        }
    }

    // The whole scan, shrinking included, is the same at every thread count.
    let mut reference: Option<(Option<u64>, String)> = None;
    for threads in [1usize, 2, 4] {
        let mut cfg = cfg.clone();
        cfg.threads = threads;
        let report = run_chaos(&cfg).expect("scan runs");
        assert!(report.complete, "threads={threads}");
        assert!(!report.findings.is_empty(), "threads={threads}");
        let blob = serde_json::to_string(&report.findings).expect("findings serialize");
        match &reference {
            None => reference = Some((report.fingerprint, blob)),
            Some((fp, want)) => {
                assert_eq!(report.fingerprint, *fp, "threads={threads}");
                assert_eq!(&blob, want, "threads={threads}");
            }
        }
    }
}
