//! The chaos campaign: adversarial fault-plan fuzzing against the paired
//! no-amplification oracle, with automatic shrinking to committed
//! reproducers.
//!
//! [`diversifi_simcore::chaos`] owns the world-agnostic half (seeded plan
//! generation under a [`ChaosBudget`], delta-debugging [`shrink_plan`]).
//! This module supplies the oracles and the campaign harness:
//!
//! - **no-amplification** — every plan runs as a *paired* experiment
//!   (identical seeds, identical channel realisations): a primary-only
//!   baseline world and a DiversiFi world under the same [`FaultPlan`].
//!   DiversiFi residual loss exceeding baseline loss by more than the
//!   configured tolerance is the headline violation — Algorithm 1 made an
//!   impairment *worse*.
//! - **engine-panic** — both runs execute under
//!   [`check::capture_panic`], so a tripped [`sim_assert!`], a
//!   [`PacketLedger`] closure failure (compiled in via `audit`), or any
//!   plain panic becomes an attributable verdict against one plan instead
//!   of poisoning a campaign shard.
//! - **unbounded-mttr** — a fault window that clears at least
//!   [`ChaosConfig::mttr_slack`] before end of call must see service
//!   recover before the run ends.
//! - **non-deterministic** — a plan that violated during the campaign
//!   scan must violate again on replay; one that does not is itself
//!   reported (the scan and replay are pure functions of the same seeds,
//!   so divergence means the engine lost determinism).
//!
//! The scan runs through the sharded [`diversifi_simcore::campaign`]
//! supervisor, so its digest fingerprint is thread-count-invariant and a
//! panicking shard (possible only for panics that escape the per-plan
//! capture) quarantines instead of killing the campaign. Violations ride
//! the campaign's worst-K flight selector (score = −severity), the
//! retained worst are shrunk to minimal plans, and each minimal plan is
//! serialized as a [`ChaosReproducer`] for the committed chaos corpus —
//! the proptest-regressions idiom: [`replay_reproducer`] re-checks every
//! corpus entry forever after, so a fixed bug stays fixed.
//!
//! The oracle is VoIP-scored (residual loss at [`DEFAULT_DEADLINE`]); the
//! FPS workload has its own deadline accounting and is out of scope here.
//!
//! # Per-worker world context
//!
//! Every thread that evaluates plans keeps one private context: a
//! [`RealizationCache`] of two entries (one plan's two links) and a
//! [`WorkerArena`]. Both arms of a plan run through [`run_paired`] on it
//! ([`World::new_cached_in`] / [`World::run_in`]), so the DiversiFi arm
//! reuses the two realisations the baseline arm just built, and so do
//! the shrinker's candidates, which keep their plan's `(seed, index)`.
//! A realisation draws its shadowing track on demand, so the baseline arm
//! draws the primary track only as far as it reads and never draws the
//! secondary; later arms read what earlier ones drew and extend it.
//! Fault windows act at run time and never enter a realisation. Event-queue
//! and fault-bookkeeping capacity carries over from plan to plan.
//!
//! None of this can change a verdict. A realisation is a pure function of
//! its [`RealizationKey`](diversifi_wifi::RealizationKey) (link shadowing
//! and Gilbert–Elliott parameters, horizon, master seed, link index), and
//! its track's tick `k` is the same value whichever arm drew it, so a
//! hit returns exactly the value a miss would build, whichever plans ran
//! on the thread before. The arena lends only capacity. Verdicts therefore
//! cannot depend on scan order, shard assignment or thread count. A plan
//! whose world panics discards the context, as the campaign engine
//! discards a quarantined shard's scratch, so nothing a half-finished run
//! left behind reaches the next plan.
//!
//! [`sim_assert!`]: diversifi_simcore::sim_assert
//! [`PacketLedger`]: diversifi_simcore::check::PacketLedger

use crate::flight::replay_traced;
use crate::scenario::Scenario;
use crate::world::{RunMode, RunReport, World, WorldConfig};
use diversifi_simcore::chaos::{generate_plan, shrink_plan, ChaosBudget, ChaosReproducer};
use diversifi_simcore::check;
use diversifi_simcore::{
    run_campaign_observed, CampaignConfig, DigestSchema, FaultKind, FaultPlan, FlightKey, Fnv,
    MergedTelemetry, SeedFactory, SimDuration, SimTime, WorkerArena,
};
use diversifi_voip::DEFAULT_DEADLINE;
use diversifi_wifi::{Channel, GeParams, LinkConfig, RealizationCache};
use serde::Serialize;
use std::cell::RefCell;

/// One chaos campaign's configuration: how many plans to scan, under what
/// budget, against which deployment, and what the oracles tolerate.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Master seed: plans *and* the paired world realisations are pure
    /// functions of `(seed, plan index)`.
    pub seed: u64,
    /// Plans to generate and scan.
    pub plans: u64,
    /// Generation budget (horizon doubles as the call duration).
    pub budget: ChaosBudget,
    /// Primary AP link of the paired deployment.
    pub primary: LinkConfig,
    /// Secondary AP link of the paired deployment.
    pub secondary: LinkConfig,
    /// A window must clear at least this long before end of call for the
    /// unbounded-MTTR oracle to demand recovery (windows closer to the
    /// horizon get no verdict — there was no room to recover).
    pub mttr_slack: SimDuration,
    /// Absolute residual-loss tolerance (fraction of the stream): the
    /// DiversiFi arm may lose at most `baseline + tolerance`.
    pub tolerance: f64,
    /// Worst violations retained for shrinking (the flight-K of the scan).
    pub max_findings: usize,
    /// Worker threads (0 = all available, capped by the sweep runner).
    pub threads: usize,
    /// Plans per campaign shard.
    pub shard_size: u64,
    /// Plant the synthetic canary oracle instead of running worlds: a plan
    /// "amplifies" iff it composes an uplink outage with an interference
    /// storm. Proves end-to-end that the fuzzer finds and shrinks a known
    /// violation — cheaply, and in every build configuration.
    pub canary: bool,
}

impl ChaosConfig {
    /// Chaos defaults on the failure-injection testbed deployment (decent
    /// primary, weak far secondary — the pairing where robustness claims
    /// are actually at risk).
    pub fn new(seed: u64) -> ChaosConfig {
        let primary = LinkConfig::office(Channel::CH1, 18.0);
        let mut secondary = LinkConfig::office(Channel::CH11, 24.0);
        secondary.ge = GeParams::weak_link();
        ChaosConfig {
            seed,
            plans: 200,
            budget: ChaosBudget::default(),
            primary,
            secondary,
            mttr_slack: SimDuration::from_secs(5),
            tolerance: 0.02,
            max_findings: 8,
            threads: 0,
            shard_size: 16,
            canary: false,
        }
    }

    /// Build a chaos config from a scenario's `[chaos]` section and
    /// deployment (the scenario's APs replace the default testbed pair).
    pub fn from_scenario(scn: &Scenario) -> ChaosConfig {
        let mut cfg = ChaosConfig::new(scn.seed);
        cfg.primary = scn.primary.lower(scn.venue);
        cfg.secondary = scn.secondary.lower(scn.venue);
        cfg.plans = scn.chaos.plans;
        cfg.budget = scn.chaos.budget.clone();
        cfg.mttr_slack = scn.chaos.mttr_slack;
        cfg.tolerance = scn.chaos.tolerance;
        cfg.max_findings = scn.chaos.max_findings;
        cfg.threads = scn.campaign.threads;
        cfg
    }

    /// FNV-1a fingerprint over the knobs that define the scan (seed, plan
    /// count, budget, tolerance knobs, canary) — pins chaos checkpoints
    /// the same way scenario fingerprints pin fleet-campaign checkpoints.
    pub fn fingerprint(&self) -> u64 {
        let budget =
            serde_json::to_string(&self.budget).expect("budget serialization cannot fail");
        let mut h = Fnv::new();
        h.write(budget.as_bytes());
        for v in [
            self.seed,
            self.plans,
            self.mttr_slack.as_nanos(),
            self.tolerance.to_bits(),
            self.max_findings as u64,
            u64::from(self.canary),
        ] {
            h.write_u64(v);
        }
        h.finish()
    }

    /// The primary-only arm a plan is judged against: the paired
    /// deployment over the budget's horizon, under `plan`.
    fn base_world(&self, plan: &FaultPlan) -> WorldConfig {
        let mut base = WorldConfig::testbed(self.primary.clone(), self.secondary.clone());
        base.mode = RunMode::PrimaryOnly;
        base.spec.duration = self.budget.horizon;
        base.faults = plan.clone();
        base
    }
}

/// The seeds both arms of plan `index` of a scan seeded `seed` run on.
fn world_seeds(seed: u64, index: u64) -> SeedFactory {
    SeedFactory::new(seed).subfactory("chaos.world", index)
}

/// One oracle verdict against one plan.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// Which oracle tripped (the [`ChaosReproducer::oracle`] label).
    pub oracle: &'static str,
    /// Human-readable detail captured at evaluation time.
    pub detail: String,
    /// Severity (larger = worse); orders the worst-K retention.
    pub delta: f64,
}

/// The DiversiFi arm a plan is judged under: middlebox faults only bite
/// the middlebox deployment, everything else runs the customized-AP path.
fn dvf_mode(plan: &FaultPlan) -> RunMode {
    if plan.specs.iter().any(|s| matches!(s.kind, FaultKind::MiddleboxRestart { .. })) {
        RunMode::DiversifiMiddlebox
    } else {
        RunMode::DiversifiCustomAp
    }
}

/// A thread's world context for plan evaluation (see the module docs).
struct WorldContext {
    cache: RealizationCache,
    arena: WorkerArena,
}

impl WorldContext {
    fn new() -> WorldContext {
        // One plan's two links: both arms and every shrink candidate of
        // the plan hit them; the next plan evicts them.
        WorldContext { cache: RealizationCache::new(2), arena: WorkerArena::new() }
    }
}

thread_local! {
    static WORLD_CONTEXT: RefCell<WorldContext> = RefCell::new(WorldContext::new());
}

/// Run one fault plan paired: `base` (primary-only, the plan in
/// `faults`) and its DiversiFi arm on the same `seeds`, so both arms see
/// the same channel realisations. The DiversiFi arm is `base` in the
/// middlebox deployment if the plan restarts the middlebox, in the
/// customized-AP one otherwise. Returns the baseline report first.
///
/// Both arms run on the thread's world context (see the module docs)
/// under [`check::capture_panic`]: a panic in either comes back as its
/// message, and the context is rebuilt so nothing the half-finished run
/// left behind reaches the next pair.
pub fn run_paired(
    base: &WorldConfig,
    seeds: &SeedFactory,
) -> Result<(RunReport, RunReport), String> {
    let mut dvf = base.clone();
    dvf.mode = dvf_mode(&base.faults);
    WORLD_CONTEXT.with(|ctx| {
        let mut ctx = ctx.borrow_mut();
        let WorldContext { cache, arena } = &mut *ctx;
        let ran = check::capture_panic(|| {
            let rb = World::new_cached_in(base, seeds, cache, arena).run_in(arena);
            let rd = World::new_cached_in(&dvf, seeds, cache, arena).run_in(arena);
            (rb, rd)
        });
        if ran.is_err() {
            *ctx = WorldContext::new();
        }
        ran
    })
}

/// Evaluate one plan against the oracles. Pure function of
/// `(cfg, seed, index, plan)`; `None` means every oracle held.
pub fn evaluate_plan(
    cfg: &ChaosConfig,
    seed: u64,
    index: u64,
    plan: &FaultPlan,
) -> Option<Violation> {
    if plan.is_empty() {
        return None;
    }
    if cfg.canary {
        // The planted bug: an uplink outage composed with an interference
        // storm "amplifies". Synthetic, so no worlds run — the canary
        // exercises generation, retention, shrinking and serialization in
        // every build configuration at negligible cost.
        let has = |f: fn(&FaultKind) -> bool| plan.specs.iter().any(|s| f(&s.kind));
        let outage = has(|k| matches!(k, FaultKind::UplinkOutage { .. }));
        let storm = has(|k| matches!(k, FaultKind::InterferenceStorm { .. }));
        return (outage && storm).then(|| Violation {
            oracle: "no-amplification",
            detail: "planted canary: uplink outage composed with interference storm".to_string(),
            delta: 1.0,
        });
    }

    let (rb, rd) = match run_paired(&cfg.base_world(plan), &world_seeds(seed, index)) {
        Ok(pair) => pair,
        Err(msg) => {
            return Some(Violation {
                oracle: "engine-panic",
                detail: msg,
                delta: 100.0,
            })
        }
    };
    let loss_base = rb.trace.loss_rate(DEFAULT_DEADLINE);
    let loss_dvf = rd.trace.loss_rate(DEFAULT_DEADLINE);
    let outcomes = rd.fault_outcomes;

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
    let unrecovered: Vec<&diversifi_simcore::FaultOutcome> = outcomes
        .iter()
        .filter(|o| o.end + cfg.mttr_slack <= horizon_end && o.recovered_at.is_none())
        .collect();
    if let Some(worst) = unrecovered.first() {
        return Some(Violation {
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
        });
    }
    None
}

/// One shrunk finding in the chaos report.
#[derive(Clone, Debug, Serialize)]
pub struct ChaosFinding {
    /// Plan index within the scan.
    pub index: u64,
    /// Oracle label of the *minimal* plan's violation.
    pub oracle: String,
    /// Violation detail of the minimal plan.
    pub detail: String,
    /// Severity of the original violation (worst-K ordering key).
    pub delta: f64,
    /// Spec count as generated.
    pub original_specs: usize,
    /// Spec count after shrinking.
    pub minimal_specs: usize,
    /// Oracle evaluations the shrinker spent.
    pub shrink_tried: u64,
    /// Shrink candidates accepted.
    pub shrink_accepted: u64,
    /// The committed-corpus reproducer (minimal plan + replay handles).
    pub reproducer: ChaosReproducer,
}

/// The chaos campaign artifact written by `repro chaos`.
#[derive(Clone, Debug, Serialize)]
pub struct ChaosReport {
    /// Master seed of the scan.
    pub seed: u64,
    /// Plans scanned.
    pub plans: u64,
    /// Plans the budget left empty (generated, nothing admitted).
    pub empty_plans: u64,
    /// Total violating plans.
    pub violations: u64,
    /// Violations by oracle.
    pub amplification: u64,
    /// Engine panics (audit failures included) attributed to plans.
    pub engine_panics: u64,
    /// Unbounded-MTTR verdicts.
    pub unbounded_mttr: u64,
    /// Thread-count-invariant digest fingerprint of the scan.
    pub fingerprint: Option<u64>,
    /// Did every shard run (false ⇒ some were quarantined/missing)?
    pub complete: bool,
    /// Quarantined shard indices (panics that escaped per-plan capture).
    pub quarantined: Vec<usize>,
    /// The retained worst violations, shrunk to minimal reproducers,
    /// worst first.
    pub findings: Vec<ChaosFinding>,
}

/// Run the chaos scan: generate `cfg.plans` plans, evaluate each against
/// the oracles through the sharded campaign supervisor, then shrink the
/// retained worst violations to minimal reproducers.
pub fn run_chaos(cfg: &ChaosConfig) -> std::io::Result<ChaosReport> {
    let mut schema = DigestSchema::new();
    let n_plans = schema.counter("chaos/plans");
    let n_empty = schema.counter("chaos/empty");
    let n_viol = schema.counter("chaos/violations");
    let n_amp = schema.counter("chaos/oracle/no-amplification");
    let n_panic = schema.counter("chaos/oracle/engine-panic");
    let n_mttr = schema.counter("chaos/oracle/unbounded-mttr");
    let delta_sum = schema.summary("chaos/delta");

    let mut camp = CampaignConfig::new(cfg.plans);
    camp.shard_size = cfg.shard_size.max(1);
    camp.threads = cfg.threads;
    camp.flight_k = cfg.max_findings;
    camp.config_fingerprint = cfg.fingerprint();

    let seeds = SeedFactory::new(cfg.seed);
    let outcome = run_campaign_observed(
        &camp,
        &schema,
        |i, _scratch, digest, worst| {
            let plan = generate_plan(&seeds, i, &cfg.budget);
            digest.add(n_plans, 1);
            if plan.is_empty() {
                digest.add(n_empty, 1);
                return;
            }
            if let Some(v) = evaluate_plan(cfg, cfg.seed, i, &plan) {
                digest.add(n_viol, 1);
                digest.add(
                    match v.oracle {
                        "no-amplification" => n_amp,
                        "engine-panic" => n_panic,
                        _ => n_mttr,
                    },
                    1,
                );
                digest.observe(delta_sum, v.delta);
                // Worst-K keeps the *lowest* scores: negate severity so
                // the most severe violations survive retention.
                worst.offer(FlightKey { score: -v.delta, seed: cfg.seed, index: i });
            }
        },
        |_| {},
        |_| {},
    )?;

    let (empty_plans, violations, amplification, engine_panics, unbounded_mttr) =
        match &outcome.digest {
            Some(d) => (
                d.count(n_empty),
                d.count(n_viol),
                d.count(n_amp),
                d.count(n_panic),
                d.count(n_mttr),
            ),
            None => (0, 0, 0, 0, 0),
        };

    // Shrink the retained worst, worst-first. Re-deriving the plan from
    // its index (rather than carrying plans through the campaign) keeps
    // the scan allocation-light and doubles as a determinism check.
    let mut findings = Vec::new();
    if let Some(worst) = &outcome.flight {
        for entry in worst.entries() {
            let plan = generate_plan(&seeds, entry.index, &cfg.budget);
            findings.push(shrink_finding(cfg, entry.index, &plan, -entry.score));
        }
    }

    Ok(ChaosReport {
        seed: cfg.seed,
        plans: cfg.plans,
        empty_plans,
        violations,
        amplification,
        engine_panics,
        unbounded_mttr,
        fingerprint: outcome.fingerprint,
        complete: outcome.complete,
        quarantined: outcome.quarantined.iter().map(|q| q.shard).collect(),
        findings,
    })
}

/// Shrink one violating plan to a minimal reproducer and package it.
fn shrink_finding(cfg: &ChaosConfig, index: u64, plan: &FaultPlan, delta: f64) -> ChaosFinding {
    let Some(original) = evaluate_plan(cfg, cfg.seed, index, plan) else {
        // The scan said this plan violates; replay disagrees. That *is*
        // the finding — determinism broke somewhere between the two.
        return ChaosFinding {
            index,
            oracle: "non-deterministic".to_string(),
            detail: "violated during the campaign scan but not on replay".to_string(),
            delta,
            original_specs: plan.specs.len(),
            minimal_specs: plan.specs.len(),
            shrink_tried: 0,
            shrink_accepted: 0,
            reproducer: ChaosReproducer {
                seed: cfg.seed,
                index,
                oracle: "non-deterministic".to_string(),
                detail: "violated during the campaign scan but not on replay".to_string(),
                original_specs: plan.specs.len() as u64,
                plan: plan.clone(),
            },
        };
    };
    let shrunk =
        shrink_plan(plan, |cand| evaluate_plan(cfg, cfg.seed, index, cand).is_some());
    // The minimal plan's own verdict labels the reproducer (shrinking can
    // legitimately walk one oracle's violation into another's).
    let minimal_v = evaluate_plan(cfg, cfg.seed, index, &shrunk.minimal).unwrap_or(original);
    ChaosFinding {
        index,
        oracle: minimal_v.oracle.to_string(),
        detail: minimal_v.detail.clone(),
        delta,
        original_specs: plan.specs.len(),
        minimal_specs: shrunk.minimal.specs.len(),
        shrink_tried: shrunk.tried,
        shrink_accepted: shrunk.accepted,
        reproducer: ChaosReproducer {
            seed: cfg.seed,
            index,
            oracle: minimal_v.oracle.to_string(),
            detail: minimal_v.detail,
            original_specs: plan.specs.len() as u64,
            plan: shrunk.minimal,
        },
    }
}

/// Replay one committed corpus entry under the *real* oracles (never the
/// canary). `None` means the regression stays fixed; `Some` means the
/// minimal plan violates again — the bug is back.
pub fn replay_reproducer(cfg: &ChaosConfig, rep: &ChaosReproducer) -> Option<Violation> {
    let mut real = cfg.clone();
    real.canary = false;
    evaluate_plan(&real, rep.seed, rep.index, &rep.plan)
}

/// Forensic capture of one reproducer: re-run its paired worlds as a
/// two-run traced sweep (baseline first), labelled
/// `chaos/plan-{index:06}/{arm} seed={seed:#x}`. Event streams are empty
/// in builds where tracing is compiled out; the labels carry the replay
/// handles either way.
pub fn capture_reproducer(
    cfg: &ChaosConfig,
    rep: &ChaosReproducer,
    ring: usize,
) -> MergedTelemetry {
    let base = cfg.base_world(&rep.plan);
    let mut dvf = base.clone();
    dvf.mode = dvf_mode(&rep.plan);
    let seeds = world_seeds(rep.seed, rep.index);
    let replays = [(base, "primary-only"), (dvf, "diversifi")].map(|(world_cfg, arm)| {
        let label = format!("chaos/plan-{:06}/{arm} seed={:#x}", rep.index, rep.seed);
        (label, world_cfg, seeds.clone())
    });
    replay_traced(&replays, ring)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn canary_cfg(threads: usize) -> ChaosConfig {
        let mut cfg = ChaosConfig::new(0xC4A21);
        cfg.canary = true;
        cfg.plans = 48;
        cfg.threads = threads;
        cfg
    }

    #[test]
    fn canary_is_found_shrunk_and_thread_invariant() {
        let mut reference: Option<(u64, String)> = None;
        for threads in [1usize, 2, 4, 8] {
            let report = run_chaos(&canary_cfg(threads)).unwrap();
            assert!(report.complete && report.quarantined.is_empty());
            assert!(
                report.violations > 0,
                "the planted canary must be found (threads={threads})"
            );
            assert_eq!(report.violations, report.amplification);
            assert!(!report.findings.is_empty());
            for f in &report.findings {
                // The minimal plan is exactly the two composed specs the
                // canary keys on, with every duration at the floor.
                assert!(f.minimal_specs <= 2, "not minimal: {f:?}");
                assert_eq!(f.reproducer.plan.specs.len(), 2);
                assert_eq!(f.oracle, "no-amplification");
                let kinds: Vec<bool> = f
                    .reproducer
                    .plan
                    .specs
                    .iter()
                    .map(|s| matches!(s.kind, FaultKind::UplinkOutage { .. }))
                    .collect();
                assert!(kinds.contains(&true) && kinds.contains(&false));
            }
            // Byte-identical findings at every thread count.
            let blob = serde_json::to_string(&report.findings).unwrap();
            match &reference {
                None => reference = Some((report.fingerprint.unwrap(), blob)),
                Some((fp, want)) => {
                    assert_eq!(report.fingerprint.unwrap(), *fp, "threads={threads}");
                    assert_eq!(&blob, want, "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn canary_reproducers_replay_clean_under_the_real_oracle() {
        // The canary's "bug" is synthetic: its minimal plans must NOT
        // violate for real — which is exactly what makes them useful
        // corpus entries (they pin the composed fault staying safe).
        let report = run_chaos(&canary_cfg(2)).unwrap();
        let cfg = ChaosConfig::new(0xC4A21);
        let f = report.findings.first().expect("canary produced findings");
        assert!(
            replay_reproducer(&cfg, &f.reproducer).is_none(),
            "composed uplink-outage + storm must not actually amplify"
        );
    }

    #[test]
    fn real_oracle_scan_runs_and_is_deterministic() {
        let mut cfg = ChaosConfig::new(0xD1CE);
        cfg.plans = 4;
        cfg.shard_size = 2;
        cfg.budget = ChaosBudget::for_horizon(SimDuration::from_secs(4));
        cfg.threads = 2;
        let a = run_chaos(&cfg).unwrap();
        let b = run_chaos(&cfg).unwrap();
        assert!(a.complete);
        assert_eq!(a.plans, 4);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.violations, b.violations);
    }

    #[test]
    fn capture_covers_both_arms_deterministically() {
        let cfg = ChaosConfig::new(7);
        let rep = ChaosReproducer {
            seed: 7,
            index: 3,
            oracle: "no-amplification".to_string(),
            detail: String::new(),
            original_specs: 1,
            plan: FaultPlan::none().with(
                SimTime::from_secs(1),
                FaultKind::UplinkOutage { duration: SimDuration::from_secs(1) },
            ),
        };
        let a = capture_reproducer(&cfg, &rep, 512);
        let b = capture_reproducer(&cfg, &rep, 512);
        assert_eq!(a.runs.len(), 2);
        assert_eq!(a.runs[0].label, "chaos/plan-000003/primary-only seed=0x7");
        assert_eq!(a.runs[1].label, "chaos/plan-000003/diversifi seed=0x7");
        assert_eq!(a.runs, b.runs);
        assert_eq!(a.events, b.events, "captures must be bit-identical");
        if diversifi_simcore::telemetry::TRACE_COMPILED {
            assert!(a.events.iter().any(|e| e.run == 0) && a.events.iter().any(|e| e.run == 1));
        }
    }

    #[test]
    fn config_fingerprint_tracks_every_knob() {
        let base = ChaosConfig::new(1);
        let mut knobs = Vec::new();
        let mut c = base.clone();
        c.seed = 2;
        knobs.push(c);
        let mut c = base.clone();
        c.plans = 99;
        knobs.push(c);
        let mut c = base.clone();
        c.budget.max_specs = 7;
        knobs.push(c);
        let mut c = base.clone();
        c.tolerance = 0.5;
        knobs.push(c);
        let mut c = base.clone();
        c.canary = true;
        knobs.push(c);
        for k in &knobs {
            assert_ne!(k.fingerprint(), base.fingerprint());
        }
    }

    #[test]
    fn a_pair_that_panics_is_an_error_and_the_next_pair_runs_clean() {
        use crate::world::ClientSpec;
        let cfg = ChaosConfig::new(0x9A1);
        let plan =
            FaultPlan::single_ap_reboot(0, SimTime::from_secs(3), SimDuration::from_secs(1));
        let seeds = world_seeds(cfg.seed, 0);
        // A fleet refuses the primary-only deployment at construction.
        let mut broken = cfg.base_world(&plan);
        broken.fleet = vec![ClientSpec {
            primary: cfg.primary.clone(),
            secondary: cfg.secondary.clone(),
            diversifi: false,
        }];
        let err = run_paired(&broken, &seeds).expect_err("a fleet in primary-only mode panics");
        assert!(err.contains("customized-AP deployment only"), "{err}");
        // The rebuilt context serves the next pair exactly as bare worlds.
        let base = cfg.base_world(&plan);
        let (rb, rd) = run_paired(&base, &seeds).expect("a valid pair runs");
        let mut dvf = base.clone();
        dvf.mode = RunMode::DiversifiCustomAp;
        assert_eq!(rb.trace.fates, World::new(&base, &seeds).run().trace.fates);
        assert_eq!(rd.trace.fates, World::new(&dvf, &seeds).run().trace.fates);
    }
}
