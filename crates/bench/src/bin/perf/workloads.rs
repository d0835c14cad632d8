//! The four benchmark workloads and the checks on their outputs.
//!
//! Each workload is one kind of run the paper's evidence comes from. One
//! *batch* takes 0.2 to 3 s on a 2-core host; the fleets' batches are the
//! shortest, so a run takes many of them:
//!
//! - `eval-corpus` — the §6 paired testbed corpus (Figs 8–9): 61 locations
//!   × 3 arms × 120 s VoIP through the warm realisation cache and worker
//!   arena, then the Fig 8 / §6.3 reductions. The event loop does almost
//!   all the work.
//! - `chaos-scan` — a 2000-plan composed-fault scan on the chaos-smoke
//!   deployment at the paper's 2 pp tolerance. Every world is a bare
//!   `World::new` (no cache, no arena) and the shrinker runs serially.
//! - `voip-fleet` — the Table 1 population campaign at 1M calls. No
//!   closed-loop worlds beyond the 3 arm probes: the bypass workload for
//!   every world-layer change.
//! - `fps-fleet-resume` — the FPS fleet at 500k calls, once fresh with
//!   checkpoints and once resumed from them: the campaign layer's write
//!   and read paths.
//!
//! Batch `b` of a run with base seed `s` uses seed `s + b`, so a run is a
//! fixed list of batches and two commits given the same seed do the same
//! work in the same order.

use crate::stats::Fnv;
use diversifi::analysis::QualityParams;
use diversifi::campaign::{run_fleet_campaign_observed, FleetCampaignReport};
use diversifi::chaos::{run_chaos, ChaosConfig, ChaosReport};
use diversifi::evaluation::{
    arm_traces, overhead_summary, run_eval_corpus, EvalOptions, EvalRun, OverheadSummary,
};
use diversifi::report::signed_pct;
use diversifi::world::{RunMode, RunReport};
use diversifi::Scenario;
use diversifi_simcore::{FlightKey, HeartbeatSample, SimDuration};
use diversifi_voip::{metrics, DEFAULT_DEADLINE};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Default base seed (the `repro` default).
pub const SEED_BASE: u64 = 0xD1BE5F1;

/// Worker threads of a run. One: on the shared 2-vCPU host the two
/// vCPUs slow down unevenly, and two workers spend that as barrier waits;
/// run interleaved with the same code at two workers, one worker cut the
/// run-to-run spread of throughput on every workload, by up to a half.
pub const THREADS: usize = 1;

/// Set-up warms up on this many locations, chaos shards or campaign
/// shards.
const WARM_UP: u64 = 4;

/// Chaos plans per campaign shard.
const CHAOS_SHARD: u64 = 16;

/// The paper's no-amplification claim: DiversiFi may lose at most 2 pp
/// more than primary-only.
const CHAOS_TOLERANCE: f64 = 0.02;

/// Fig 8's worst-window width.
const FIG8_WINDOW: SimDuration = SimDuration::from_secs(5);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    EvalCorpus,
    ChaosScan,
    VoipFleet,
    FpsFleetResume,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::EvalCorpus,
        Workload::ChaosScan,
        Workload::VoipFleet,
        Workload::FpsFleetResume,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EvalCorpus => "eval-corpus",
            Workload::ChaosScan => "chaos-scan",
            Workload::VoipFleet => "voip-fleet",
            Workload::FpsFleetResume => "fps-fleet-resume",
        }
    }

    pub fn parse(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload {s:?} (expected one of {})",
                    names.join(", ")
                )
            })
    }

    /// What one op of `ops_per_ref` is on this workload.
    pub fn op(self) -> &'static str {
        match self {
            Workload::EvalCorpus => "closed-loop world",
            Workload::ChaosScan => "fault plan",
            Workload::VoipFleet => "population call folded",
            Workload::FpsFleetResume => "call folded fresh or restored",
        }
    }
}

/// Batch sizes. A fleet batch folds 1M or 500k calls (0.2 to 0.4 s), not
/// the millions of a full campaign, so that a run takes dozens of batches
/// and the reference kernel samples the host's speed every few tenths of
/// a second.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub eval_locations: usize,
    pub chaos_plans: u64,
    pub voip_calls: u64,
    pub fps_calls: u64,
}

impl Scale {
    pub const FULL: Scale = Scale {
        eval_locations: 61,
        chaos_plans: 2000,
        voip_calls: 1_000_000,
        fps_calls: 500_000,
    };
    /// Tiny batches for the unit tests and `--smoke`.
    pub const SMOKE: Scale = Scale {
        eval_locations: 2,
        chaos_plans: 48,
        voip_calls: 20_000,
        fps_calls: 20_000,
    };
}

/// Parse a pinned benchmark scenario.
fn pinned(name: &str, text: &str) -> Result<Scenario, String> {
    Scenario::from_toml(text).map_err(|e| format!("pinned scenario {name}: {e}"))
}

/// One workload, set up: the parsed and lowered inputs every batch reuses.
pub struct Bench {
    pub workload: Workload,
    pub threads: usize,
    pub scale: Scale,
    /// Where checkpoint directories go (created and removed per batch).
    pub scratch: PathBuf,
    /// The lowered chaos config (`chaos-scan`).
    pub chaos: Option<ChaosConfig>,
    /// The fleet scenario (`voip-fleet`, `fps-fleet-resume`).
    pub fleet: Option<Scenario>,
}

impl Bench {
    /// Parse and lower the workload's inputs, then run a small batch once
    /// so code and allocator are warm before timing.
    pub fn setup(
        workload: Workload,
        seed: u64,
        threads: usize,
        scale: Scale,
        scratch: &Path,
    ) -> Result<Bench, String> {
        let mut bench = Bench {
            workload,
            threads,
            scale,
            scratch: scratch.to_path_buf(),
            chaos: None,
            fleet: None,
        };
        match workload {
            Workload::EvalCorpus => {}
            Workload::ChaosScan => {
                let scn = pinned("chaos-smoke", include_str!("scenarios/chaos-smoke.toml"))?;
                let mut cfg = ChaosConfig::from_scenario(&scn);
                cfg.plans = scale.chaos_plans;
                cfg.tolerance = CHAOS_TOLERANCE;
                cfg.shard_size = CHAOS_SHARD;
                cfg.threads = threads;
                bench.chaos = Some(cfg);
            }
            Workload::VoipFleet | Workload::FpsFleetResume => {
                let (name, text, calls) = if workload == Workload::VoipFleet {
                    (
                        "office",
                        include_str!("scenarios/office.toml"),
                        scale.voip_calls,
                    )
                } else {
                    (
                        "fps-office",
                        include_str!("scenarios/fps-office.toml"),
                        scale.fps_calls,
                    )
                };
                let mut scn = pinned(name, text)?;
                scn.fleet.calls = calls;
                scn.campaign.threads = threads;
                scn.campaign.checkpoint_dir = None;
                bench.fleet = Some(scn);
            }
        }
        bench.warm_up(seed)?;
        Ok(bench)
    }

    /// A small batch: `WARM_UP` locations, chaos shards (not shrunk) or
    /// campaign shards (fresh and resumed for FPS).
    fn warm_up(&self, seed: u64) -> Result<(), String> {
        let raw = match self.workload {
            Workload::EvalCorpus => {
                Raw::Eval(self.eval(seed, self.scale.eval_locations.min(WARM_UP as usize)))
            }
            Workload::ChaosScan => {
                let mut cfg = self.chaos_config(seed);
                cfg.plans = cfg.plans.min(WARM_UP * CHAOS_SHARD);
                cfg.max_findings = 0;
                Raw::Chaos(run_chaos(&cfg).map_err(|e| e.to_string()))
            }
            Workload::VoipFleet | Workload::FpsFleetResume => {
                let mut scn = self.fleet_scenario(seed);
                scn.fleet.calls = scn.fleet.calls.min(WARM_UP * scn.campaign.shard_size);
                self.fleet(scn, "warm-up")
            }
        };
        match self.check(raw, 1.0).failures.first() {
            None => Ok(()),
            Some(f) => Err(format!("warm-up failed: {f}")),
        }
    }

    /// Ops in one full batch.
    pub fn ops_per_batch(&self) -> u64 {
        match self.workload {
            Workload::EvalCorpus => 3 * self.scale.eval_locations as u64,
            Workload::ChaosScan => self.scale.chaos_plans,
            Workload::VoipFleet => self.scale.voip_calls,
            Workload::FpsFleetResume => 2 * self.scale.fps_calls,
        }
    }

    pub fn chaos_config(&self, seed: u64) -> ChaosConfig {
        let mut cfg = self
            .chaos
            .clone()
            .expect("chaos-scan is set up with a chaos config");
        cfg.seed = seed;
        cfg
    }

    pub fn fleet_scenario(&self, seed: u64) -> Scenario {
        let mut scn = self
            .fleet
            .clone()
            .expect("fleet workloads are set up with a scenario");
        scn.seed = seed;
        scn
    }

    /// The checkpoint directory of one batch.
    pub fn checkpoint_dir(&self, tag: &str) -> PathBuf {
        self.scratch.join(format!("{}-{tag}", self.workload.name()))
    }

    /// Run batch seed `seed`: the timed part.
    pub fn run(&self, seed: u64) -> Raw {
        match self.workload {
            Workload::EvalCorpus => Raw::Eval(self.eval(seed, self.scale.eval_locations)),
            Workload::ChaosScan => {
                Raw::Chaos(run_chaos(&self.chaos_config(seed)).map_err(|e| e.to_string()))
            }
            Workload::VoipFleet | Workload::FpsFleetResume => {
                self.fleet(self.fleet_scenario(seed), &format!("{seed:x}"))
            }
        }
    }

    fn eval(&self, seed: u64, locations: usize) -> EvalBatch {
        let opts = EvalOptions {
            n_runs: locations,
            mode: RunMode::DiversifiCustomAp,
            threads: self.threads,
            use_realization_cache: true,
        };
        let runs = run_eval_corpus(&opts, seed);
        let fig8 = fig8_reductions(&runs);
        EvalBatch {
            locations,
            runs,
            fig8,
        }
    }

    fn fleet(&self, mut scn: Scenario, tag: &str) -> Raw {
        let shard_wall_ns = AtomicU64::new(0);
        let heartbeat = |hb: &HeartbeatSample| {
            shard_wall_ns.fetch_add(hb.shard_wall_ns, Ordering::Relaxed);
        };
        if self.workload == Workload::VoipFleet {
            let report =
                run_fleet_campaign_observed(&scn, &scn.campaign_config(), |_| {}, heartbeat)
                    .map(|r| r.report)
                    .map_err(|e| e.to_string());
            let calls = scn.fleet.calls;
            return Raw::Voip {
                report,
                calls,
                shard_wall_ns: shard_wall_ns.into_inner(),
            };
        }
        let dir = self.checkpoint_dir(tag);
        // A directory left by an interrupted run would turn the fresh pass
        // into a resume.
        let _ = std::fs::remove_dir_all(&dir);
        scn.campaign.checkpoint_dir = Some(dir.to_string_lossy().into_owned());
        let cfg = scn.campaign_config();
        let t = Instant::now();
        let fresh = run_fleet_campaign_observed(&scn, &cfg, |_| {}, heartbeat)
            .map(|r| r.report)
            .map_err(|e| e.to_string());
        let fresh_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let resume = run_fleet_campaign_observed(&scn, &cfg, |_| {}, |_| {})
            .map(|r| r.report)
            .map_err(|e| e.to_string());
        let resume_s = t.elapsed().as_secs_f64();
        Raw::Fps {
            fresh,
            resume,
            calls: scn.fleet.calls,
            fresh_s,
            resume_s,
            dir,
        }
    }

    /// Check a batch's outputs (untimed): gates, fingerprint, notes.
    pub fn check(&self, raw: Raw, wall_s: f64) -> BatchOut {
        let mut out = BatchOut::default();
        match raw {
            Raw::Eval(batch) => {
                out.ops = 3 * batch.locations as u64;
                out.worlds = out.ops;
                if batch.runs.len() != batch.locations {
                    out.fail(format!(
                        "corpus returned {} locations, expected {}",
                        batch.runs.len(),
                        batch.locations
                    ));
                }
                out.fingerprint = eval_fingerprint(&batch.runs, &batch.fig8);
                out.rate("worlds_per_s", out.worlds as f64 / wall_s);
                let f = &batch.fig8;
                out.note(format!(
                    "fig8 worst-5s loss p90: primary {:.1}% [paper 11.6%], secondary {:.1}% \
                     [paper 52%], diversifi {:.1}% [paper 1.2%]",
                    f.worst5_p90[0], f.worst5_p90[1], f.worst5_p90[2]
                ));
                out.note(format!(
                    "PCR: primary {:.1}% [paper 4.9%], secondary {:.1}% [paper 26.2%], \
                     diversifi {:.1}% [paper 0%]; overhead: wasteful dup {:.2}% [paper 0.62%]",
                    f.pcr[0], f.pcr[1], f.pcr[2], f.overhead.wasteful_dup_pct
                ));
            }
            Raw::Chaos(report) => {
                let Some(report) = out.ok("run_chaos", report) else {
                    return out;
                };
                let summary = ChaosSummary::from_report(&report);
                out.ops = report.plans;
                out.worlds = summary.worlds(report.plans);
                if !report.complete || !report.quarantined.is_empty() {
                    out.fail(format!(
                        "chaos scan incomplete (quarantined shards {:?})",
                        report.quarantined
                    ));
                }
                if report.engine_panics > 0 {
                    out.fail(format!("{} engine-panic verdicts", report.engine_panics));
                }
                for f in &summary.findings {
                    if f.oracle == "engine-panic" || f.oracle == "non-deterministic" {
                        out.fail(format!(
                            "plan {} finding: {} — {}",
                            f.index, f.oracle, f.detail
                        ));
                    }
                }
                out.fingerprint = summary.fingerprint();
                out.rate("plans_per_s", report.plans as f64 / wall_s);
                out.rate("worlds_per_s", out.worlds as f64 / wall_s);
                out.note(format!(
                    "chaos seed {:#x}: {} violations of {} plans ({} empty) — {} no-amplification, \
                     {} engine-panic, {} unbounded-mttr; digest {:016x}",
                    report.seed,
                    report.violations,
                    report.plans,
                    report.empty_plans,
                    report.amplification,
                    report.engine_panics,
                    report.unbounded_mttr,
                    report.fingerprint.unwrap_or(0),
                ));
                for f in &summary.findings {
                    out.note(format!(
                        "finding plan {:06} {}: shrunk {} -> {} specs ({} evals): {}",
                        f.index, f.oracle, f.original_specs, f.minimal_specs, f.tried, f.detail
                    ));
                }
            }
            Raw::Voip {
                report,
                calls,
                shard_wall_ns,
            } => {
                let Some(report) = out.ok("fleet campaign", report) else {
                    return out;
                };
                out.ops = report.calls;
                out.worlds = report.arms.len() as u64;
                out.fleet_gates(&report, calls);
                out.fingerprint = fleet_fingerprint(report.fingerprint, &flight_of(&report));
                out.rate("sampled_calls_per_s", report.calls as f64 / wall_s);
                out.table1(&report);
                let engine_s = report.health.elapsed_s * self.threads as f64;
                if engine_s > 0.0 {
                    out.note(format!(
                        "campaign.worker_idle_frac {:.4} ({} worker(s))",
                        1.0 - shard_wall_ns as f64 / 1e9 / engine_s,
                        self.threads
                    ));
                }
            }
            Raw::Fps {
                fresh,
                resume,
                calls,
                fresh_s,
                resume_s,
                dir,
            } => {
                let bytes = dir_bytes(&dir);
                let _ = std::fs::remove_dir_all(&dir);
                let fresh = out.ok("fresh checkpointed campaign", fresh);
                let resume = out.ok("resumed campaign", resume);
                let (Some(fresh), Some(resume)) = (fresh, resume) else {
                    return out;
                };
                out.ops = fresh.calls + resume.calls;
                out.worlds = (fresh.arms.len() + resume.arms.len()) as u64;
                out.fleet_gates(&fresh, calls);
                out.fleet_gates(&resume, calls);
                if fresh.shards_run != fresh.shards_total {
                    out.fail(format!(
                        "fresh pass ran {} of {} shards",
                        fresh.shards_run, fresh.shards_total
                    ));
                }
                if resume.shards_resumed != resume.shards_total || resume.shards_run != 0 {
                    out.fail(format!(
                        "resume restored {} of {} shards and re-ran {}",
                        resume.shards_resumed, resume.shards_total, resume.shards_run
                    ));
                }
                let fp_fresh = fleet_fingerprint(fresh.fingerprint, &flight_of(&fresh));
                let fp_resume = fleet_fingerprint(resume.fingerprint, &flight_of(&resume));
                if fp_fresh != fp_resume {
                    out.fail(format!(
                        "resume fingerprint {fp_resume:016x} differs from fresh {fp_fresh:016x}"
                    ));
                }
                out.fingerprint = fp_fresh;
                out.rate("sampled_calls_per_s", fresh.calls as f64 / fresh_s);
                out.rate("resume_calls_per_s", resume.calls as f64 / resume_s);
                out.table1(&fresh);
                if let Some(fps) = &fresh.fps {
                    out.note(format!(
                        "fps fleet: poor sessions {:.3}%, QoE p10/p50/p90 {:.1}/{:.1}/{:.1}; \
                         checkpoints {:.1} MB",
                        100.0 * fps.poor_rate,
                        fps.qoe_p10,
                        fps.qoe_p50,
                        fps.qoe_p90,
                        bytes as f64 / 1e6
                    ));
                }
            }
        }
        out
    }
}

/// A batch's raw results, before checking.
// One value per batch, moved once: the size spread between variants costs
// nothing worth a box.
#[allow(clippy::large_enum_variant)]
pub enum Raw {
    Eval(EvalBatch),
    Chaos(Result<ChaosReport, String>),
    Voip {
        report: Result<FleetCampaignReport, String>,
        calls: u64,
        shard_wall_ns: u64,
    },
    Fps {
        fresh: Result<FleetCampaignReport, String>,
        resume: Result<FleetCampaignReport, String>,
        calls: u64,
        fresh_s: f64,
        resume_s: f64,
        dir: PathBuf,
    },
}

pub struct EvalBatch {
    locations: usize,
    runs: Vec<EvalRun>,
    fig8: Fig8,
}

/// What one batch did and whether its outputs passed every check.
#[derive(Debug, Default)]
pub struct BatchOut {
    /// Ops the batch attempted.
    pub ops: u64,
    /// Closed-loop worlds it ran.
    pub worlds: u64,
    /// Failed checks; any failure fails every op of the batch.
    pub failures: Vec<String>,
    /// Fingerprint of the batch's outputs.
    pub fingerprint: u64,
    /// Workload-specific throughputs, printed beside `ops_per_ref`.
    pub rates: Vec<(&'static str, f64)>,
    /// Outputs reported but not gated.
    pub notes: Vec<String>,
}

impl BatchOut {
    fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn rate(&mut self, name: &'static str, v: f64) {
        self.rates.push((name, v));
    }

    fn ok<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        r.map_err(|e| self.fail(format!("{what}: {e}"))).ok()
    }

    fn fleet_gates(&mut self, r: &FleetCampaignReport, calls: u64) {
        if r.calls != calls {
            self.fail(format!(
                "campaign folded {} calls, expected {calls}",
                r.calls
            ));
        }
        if !r.quarantined.is_empty() {
            self.fail(format!("{} quarantined shards", r.quarantined.len()));
        }
        if r.checkpoint_errors > 0 {
            self.fail(format!("{} checkpoint errors", r.checkpoint_errors));
        }
    }

    fn table1(&mut self, r: &FleetCampaignReport) {
        let all = &r.table1.all;
        self.note(format!(
            "table1 All: EE {} EW {} WW {} (baseline PCR {:.2}%); digest {:016x}",
            signed_pct(all.ee),
            signed_pct(all.ew),
            signed_pct(all.ww),
            100.0 * all.baseline_pcr,
            r.fingerprint
        ));
    }
}

/// The Fig 8 / §6.3 reductions of one corpus, arms in the order primary,
/// secondary, DiversiFi.
#[derive(Clone, Debug)]
pub struct Fig8 {
    pub worst5_p90: [f64; 3],
    pub pcr: [f64; 3],
    pub overhead: OverheadSummary,
}

type ArmPick = fn(&EvalRun) -> &RunReport;

const ARMS: [ArmPick; 3] = [|r| &r.primary, |r| &r.secondary, |r| &r.diversifi];

pub fn fig8_reductions(runs: &[EvalRun]) -> Fig8 {
    let q = QualityParams::default();
    let mut worst5_p90 = [0.0; 3];
    let mut pcr = [0.0; 3];
    for (k, pick) in ARMS.into_iter().enumerate() {
        let traces = arm_traces(runs, pick);
        worst5_p90[k] =
            metrics::worst_window_ecdf(&traces, FIG8_WINDOW, DEFAULT_DEADLINE).quantile(0.9);
        pcr[k] = q.pcr_pct(&traces);
    }
    Fig8 {
        worst5_p90,
        pcr,
        overhead: overhead_summary(runs),
    }
}

/// Every packet fate of every arm, plus the reductions.
pub fn eval_fingerprint(runs: &[EvalRun], fig8: &Fig8) -> u64 {
    let mut h = Fnv::default();
    for run in runs {
        for pick in ARMS {
            for f in &pick(run).trace.fates {
                h.u64(f.sent.as_nanos())
                    .u64(f.arrival.map_or(u64::MAX, |t| t.as_nanos()));
            }
        }
    }
    for v in fig8.worst5_p90.iter().chain(&fig8.pcr) {
        h.f64(*v);
    }
    let o = &fig8.overhead;
    for v in [
        o.primary_loss_pct,
        o.diversifi_loss_pct,
        o.wasteful_dup_pct,
        o.secondary_air_pct,
    ] {
        h.f64(v);
    }
    h.finish()
}

/// One shrunk chaos finding, as both the library report and the traced
/// replica describe it.
#[derive(Clone, Debug, PartialEq)]
pub struct Finding {
    pub index: u64,
    pub oracle: String,
    pub detail: String,
    pub original_specs: usize,
    pub minimal_specs: usize,
    pub tried: u64,
    pub accepted: u64,
}

/// The outputs of a chaos scan that define what it found.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChaosSummary {
    pub empty_plans: u64,
    pub violations: u64,
    pub amplification: u64,
    pub engine_panics: u64,
    pub unbounded_mttr: u64,
    pub findings: Vec<Finding>,
}

impl ChaosSummary {
    pub fn from_report(r: &ChaosReport) -> ChaosSummary {
        ChaosSummary {
            empty_plans: r.empty_plans,
            violations: r.violations,
            amplification: r.amplification,
            engine_panics: r.engine_panics,
            unbounded_mttr: r.unbounded_mttr,
            findings: r
                .findings
                .iter()
                .map(|f| Finding {
                    index: f.index,
                    oracle: f.oracle.clone(),
                    detail: f.detail.clone(),
                    original_specs: f.original_specs,
                    minimal_specs: f.minimal_specs,
                    tried: f.shrink_tried,
                    accepted: f.shrink_accepted,
                })
                .collect(),
        }
    }

    /// Oracle evaluations of the shrink stage: the re-check of the
    /// original, every candidate, and the verdict on the minimal plan.
    pub fn shrink_evals(&self) -> u64 {
        let evals = |f: &Finding| {
            if f.oracle == "non-deterministic" {
                1
            } else {
                f.tried + 2
            }
        };
        self.findings.iter().map(evals).sum()
    }

    /// Closed-loop worlds behind the scan: two per non-empty plan and two
    /// per shrink-stage evaluation.
    pub fn worlds(&self, plans: u64) -> u64 {
        2 * (plans - self.empty_plans) + 2 * self.shrink_evals()
    }

    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        for v in [
            self.empty_plans,
            self.violations,
            self.amplification,
            self.engine_panics,
            self.unbounded_mttr,
        ] {
            h.u64(v);
        }
        for f in &self.findings {
            h.u64(f.index).str(&f.oracle).str(&f.detail);
            h.u64(f.original_specs as u64)
                .u64(f.minimal_specs as u64)
                .u64(f.tried)
                .u64(f.accepted);
        }
        h.finish()
    }
}

/// The retained worst calls of a campaign as `(score, index)`.
pub fn flight_of(r: &FleetCampaignReport) -> Vec<(f64, u64)> {
    r.flight
        .iter()
        .flatten()
        .map(|e| (e.score, e.index))
        .collect()
}

pub fn flight_keys(keys: &[FlightKey]) -> Vec<(f64, u64)> {
    keys.iter().map(|k| (k.score, k.index)).collect()
}

/// A campaign's digest fingerprint together with its flight selection.
pub fn fleet_fingerprint(digest: u64, flight: &[(f64, u64)]) -> u64 {
    let mut h = Fnv::default();
    h.u64(digest);
    for (score, index) in flight {
        h.f64(*score).u64(*index);
    }
    h.finish()
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
