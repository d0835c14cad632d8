//! `repro` — regenerate every table and figure of the DiversiFi paper.
//!
//! Usage:
//! ```text
//! repro [--quick] [--seed N] [--out DIR] [EXPERIMENT...]
//! ```
//! Experiments: `table1 table2 table3 fig1 fig2a fig2b fig2c fig2d fig2e
//! fig3 fig4 fig5 fig6 fig8 fig9 fig10 overhead mbox-scale` or `all`, plus
//! the extensions `ablations`, `fec`, `crosstech`, and `uplink`.
//!
//! Resilience sweep (deterministic fault plans, paired vs primary-only):
//! ```text
//! repro --resilience                    # fault catalogue × seeds → report
//! ```
//!
//! Telemetry capture (full fidelity needs a build with `--features trace`):
//! ```text
//! repro --trace-out trace.json          # Chrome/Perfetto JSON + JSONL sidecar
//! repro --metrics-out metrics.txt       # per-sweep metrics table
//! repro --telemetry-status              # is the telemetry layer compiled in?
//! ```
//! With only telemetry flags given, the standard experiments are skipped.

use diversifi::analysis::{
    self, burst_summary, correlation_figure, pcr_by_impairment, strategy_cdf, AnalysisOptions,
    CallRecord, QualityParams, Strategy,
};
use diversifi::evaluation::{
    arm_traces, measure_switch_delays, middlebox_scalability, overhead_summary,
    run_eval_corpus, run_tcp_corpus, table3_row, EvalOptions, EvalRun,
};
use diversifi::report::{self, signed_pct, TextTable};
use diversifi::world::RunMode;
use diversifi::{nettest, population, survey};
use diversifi_bench::Scale;
use diversifi_client::cross_link;
use diversifi_simcore::export::{self, write_text_atomic};
use diversifi_simcore::{mean, Ecdf, MergedTelemetry, SeedFactory, SimDuration, SweepRunner};
use diversifi_voip::{metrics, StreamSpec, DEFAULT_DEADLINE};
use diversifi_wifi::{Channel, GeParams, LinkConfig};
use std::path::Path;

struct Ctx {
    scale: Scale,
    seed: u64,
    out_dir: String,
    threads: usize,
    main_corpus: Option<Vec<CallRecord>>,
    eval_corpus: Option<Vec<EvalRun>>,
}

impl Ctx {
    fn main_corpus(&mut self) -> &[CallRecord] {
        if self.main_corpus.is_none() {
            eprintln!("[corpus] simulating the §4 two-NIC corpus…");
            let opts = self.scale.analysis(AnalysisOptions::paper_corpus());
            self.main_corpus = Some(analysis::run_corpus(&opts, self.seed));
        }
        self.main_corpus.as_deref().unwrap()
    }

    fn eval_corpus(&mut self) -> &[EvalRun] {
        if self.eval_corpus.is_none() {
            eprintln!("[corpus] simulating the §6 single-NIC corpus…");
            let opts = self.scale.eval(EvalOptions::default());
            self.eval_corpus = Some(run_eval_corpus(&opts, self.seed));
        }
        self.eval_corpus.as_deref().unwrap()
    }
}

fn main() {
    let mut scale = Scale::full();
    let mut seed = 0xD1BE5F1u64;
    let mut out_dir = "results".to_string();
    let mut wanted: Vec<String> = Vec::new();
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut campaign_path: Option<String> = None;
    let mut validate_paths: Vec<String> = Vec::new();
    let mut forensics_out: Option<String> = None;
    let mut flight_topk: Option<usize> = None;
    let mut chaos_path: Option<String> = None;
    let mut chaos_plans: Option<u64> = None;
    let mut chaos_corpus: Option<String> = None;
    let mut chaos_canary = false;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => scale = Scale::quick(),
            "--seed" => seed = value_or_exit(&mut args, &a, "an unsigned integer"),
            "--out" => out_dir = value_or_exit(&mut args, &a, "a directory"),
            "--trace-out" => trace_out = Some(value_or_exit(&mut args, &a, "a file path")),
            "--metrics-out" => metrics_out = Some(value_or_exit(&mut args, &a, "a file path")),
            "--resilience" => wanted.push("resilience".to_string()),
            "--bench-compare" => {
                let fresh: String = value_or_exit(&mut args, &a, "a fresh BENCH_JSON file");
                let baselines: Vec<String> = args.collect();
                std::process::exit(bench_compare(&fresh, &baselines).unwrap_or_else(|e| {
                    eprintln!("error: bench-compare: {e}");
                    2
                }));
            }
            "--campaign" => {
                campaign_path = Some(value_or_exit(&mut args, &a, SCENARIO_FILE));
            }
            "--forensics-out" => {
                forensics_out = Some(value_or_exit(&mut args, &a, "a directory"));
            }
            "--chaos" => {
                chaos_path = Some(value_or_exit(&mut args, &a, SCENARIO_FILE));
            }
            "--chaos-plans" => {
                chaos_plans = Some(value_or_exit(&mut args, &a, "an unsigned integer"));
            }
            "--chaos-corpus" => {
                chaos_corpus = Some(value_or_exit(&mut args, &a, "a directory"));
            }
            "--chaos-canary" => chaos_canary = true,
            "--flight-topk" => {
                flight_topk = Some(value_or_exit(&mut args, &a, "an unsigned integer"));
            }
            "--validate-scenario" => {
                validate_paths.push(value_or_exit(&mut args, &a, SCENARIO_FILE));
            }
            "--telemetry-status" => {
                println!(
                    "telemetry: compiled {}",
                    if diversifi_simcore::telemetry::TRACE_COMPILED { "in" } else { "out" }
                );
                return;
            }
            "--help" | "-h" => {
                println!(
                    "repro [--quick] [--seed N] [--out DIR] [--trace-out PATH] \
                     [--metrics-out PATH] [--telemetry-status] \
                     [--bench-compare FRESH.json [BASELINE.json...]] \
                     [--campaign SCENARIO.{{json,toml}}] \
                     [--forensics-out DIR] [--flight-topk N] \
                     [--validate-scenario SCENARIO.{{json,toml}}] \
                     [--chaos SCENARIO.{{json,toml}}] [--chaos-plans N] \
                     [--chaos-corpus DIR] [--chaos-canary] \
                     [--resilience] [EXPERIMENT...]\n\
                     experiments: table1 table2 table3 fig1 fig2a fig2b fig2c fig2d \
                     fig2e fig3 fig4 fig5 fig6 fig8 fig9 fig10 overhead mbox-scale all \
                     ablations fec crosstech uplink multiclient resilience\n\
                     --campaign runs a declarative scenario file's fleet campaign \
                     (sharded, checkpointable) and writes a JSON report plus a \
                     campaign-health JSONL time series under --out;\n\
                     --flight-topk N arms the flight recorder for the K worst calls \
                     (overrides the scenario's [observe] section);\n\
                     --forensics-out DIR re-simulates the worst calls and writes \
                     their Perfetto + JSONL timelines there;\n\
                     --validate-scenario parses + lowers a scenario file and prints \
                     the lowered configuration or a field-path error;\n\
                     --chaos fuzzes seeded adversarial fault plans against the \
                     paired no-amplification / MTTR / engine-panic oracles \
                     ([chaos] scenario section sets the budget), shrinks every \
                     violation to a minimal reproducer, and exits non-zero on \
                     violations;\n\
                     --chaos-plans N overrides the plan count (0 = replay the \
                     corpus only);\n\
                     --chaos-corpus DIR replays every committed reproducer in \
                     DIR first, then writes newly shrunk reproducers there;\n\
                     --chaos-canary plants a synthetic violation to prove the \
                     fuzzer finds and shrinks it (exits non-zero if it does NOT)."
                );
                return;
            }
            other => wanted.push(other.to_string()),
        }
    }
    // Scenario-file modes run on their own and exit: validation first
    // (all requested files, worst exit code wins), then the campaign,
    // then the chaos scan.
    if !validate_paths.is_empty() || campaign_path.is_some() || chaos_path.is_some() {
        let mut code = 0;
        for p in &validate_paths {
            code = code.max(validate_scenario_cli(p));
        }
        if let Some(p) = &campaign_path {
            if code == 0 {
                code = campaign_cli(p, &out_dir, forensics_out.as_deref(), flight_topk);
            }
        }
        if let Some(p) = &chaos_path {
            if code == 0 {
                code = chaos_cli(
                    p,
                    &out_dir,
                    chaos_plans,
                    chaos_corpus.as_deref(),
                    chaos_canary,
                    forensics_out.as_deref(),
                );
            }
        }
        std::process::exit(code);
    }
    // With only telemetry flags given, run just the capture scenario.
    let telemetry_only =
        wanted.is_empty() && (trace_out.is_some() || metrics_out.is_some());
    const STANDARD: [&str; 18] = [
        "fig1", "table1", "table2", "fig2a", "fig2b", "fig2c", "fig2d", "fig2e", "fig3",
        "fig4", "fig5", "fig6", "fig8", "fig9", "fig10", "overhead", "table3", "mbox-scale",
    ];
    const EXTENSIONS: [&str; 6] =
        ["ablations", "fec", "crosstech", "uplink", "multiclient", "resilience"];
    if wanted.is_empty() {
        if !telemetry_only {
            wanted = STANDARD.iter().map(|s| s.to_string()).collect();
        }
    } else {
        // "all" expands in place to the paper's tables/figures;
        // "extensions" to the beyond-the-paper experiments.
        let mut expanded = Vec::new();
        for w in wanted {
            match w.as_str() {
                "all" => expanded.extend(STANDARD.iter().map(|s| s.to_string())),
                "extensions" => expanded.extend(EXTENSIONS.iter().map(|s| s.to_string())),
                _ => expanded.push(w),
            }
        }
        expanded.dedup();
        wanted = expanded;
    }

    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(16);
    let mut ctx = Ctx { scale, seed, out_dir, threads, main_corpus: None, eval_corpus: None };

    if trace_out.is_some() || metrics_out.is_some() {
        if let Err(e) = telemetry_capture(&ctx, trace_out.as_deref(), metrics_out.as_deref()) {
            eprintln!("error: telemetry: failed to write {e}");
            std::process::exit(2);
        }
    }

    // Experiments with a pass/fail verdict (resilience's no-amplification
    // rows) raise the exit code; the worst verdict wins.
    let mut exit_code = 0;
    for exp in wanted {
        println!("\n================ {exp} ================");
        match exp.as_str() {
            "table1" => table1(&mut ctx),
            "table2" => table2(&mut ctx),
            "table3" => table3(&mut ctx),
            "fig1" => fig1(&mut ctx),
            "fig2a" => fig2(&mut ctx, "fig2a", &[(Strategy::CrossLink, "Cross-Link"), (Strategy::Stronger, "Stronger"), (Strategy::Better, "Better")]),
            "fig2b" => fig2(&mut ctx, "fig2b", &[(Strategy::CrossLink, "Cross-Link"), (Strategy::Divert, "Divert")]),
            "fig2c" => fig2(&mut ctx, "fig2c", &[(Strategy::CrossLink, "Cross-Link"), (Strategy::Temporal100, "Temporal (100ms)"), (Strategy::Temporal0, "Temporal (0ms)"), (Strategy::Stronger, "Baseline")]),
            "fig2d" => fig2d(&mut ctx),
            "fig2e" => fig2e(&mut ctx),
            "fig3" => fig3(&mut ctx),
            "fig4" => fig4(&mut ctx),
            "fig5" => fig5(&mut ctx),
            "fig6" => fig6(&mut ctx),
            "fig8" => fig8(&mut ctx),
            "fig9" => fig9(&mut ctx),
            "fig10" => fig10(&mut ctx),
            "overhead" => overhead(&mut ctx),
            "mbox-scale" => mbox_scale(&mut ctx),
            "ablations" => ablations(&mut ctx),
            "fec" => fec(&mut ctx),
            "crosstech" => crosstech(&mut ctx),
            "uplink" => uplink(&mut ctx),
            "multiclient" => multiclient(&mut ctx),
            "resilience" => exit_code = exit_code.max(resilience(&mut ctx)),
            other => eprintln!("unknown experiment: {other}"),
        }
    }
    if exit_code != 0 {
        std::process::exit(exit_code);
    }
}

/// What a scenario-file flag needs, for its error message.
const SCENARIO_FILE: &str = "a scenario file (.json or .toml)";

/// Parse the value given after `flag`. A missing or unparsable value is
/// the error `error: <flag> needs <what>`.
fn flag_value<T: std::str::FromStr>(
    flag: &str,
    value: Option<String>,
    what: &str,
) -> Result<T, String> {
    value
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("error: {flag} needs {what}"))
}

/// Take and parse the next argument as `flag`'s value, or print the
/// [`flag_value`] error and exit with code 2.
fn value_or_exit<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> T {
    flag_value(flag, args.next(), what).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// Regression threshold for `--bench-compare`: a fresh benchmark slower
/// than its committed baseline by more than this fraction fails the
/// comparison (exit code 1).
const BENCH_REGRESSION_FRAC: f64 = 0.25;

/// One `BENCH_JSON` line as `(build tag, benchmark name, lo_ns)`.
type BenchLine = (String, String, f64);

/// Parse one non-empty line of the `BENCH_JSON` file at `path`.
fn parse_bench_line(path: &str, line: &str) -> Result<BenchLine, String> {
    let v: serde_json::Value =
        serde_json::from_str(line).map_err(|e| format!("bad JSON line in {path}: {e}"))?;
    let name = v
        .get("name")
        .and_then(|n| n.as_str())
        .ok_or_else(|| format!("a line in {path} carries no \"name\""))?
        .to_string();
    let build = v
        .get("build")
        .and_then(|b| b.as_str())
        .ok_or_else(|| {
            format!(
                "line for {name:?} in {path} carries no \"build\" tag; re-run the benches \
                 with the current harness (or re-record the baseline) — untagged numbers \
                 cannot be compared safely"
            )
        })?
        .to_string();
    let lo = v
        .get("lo_ns")
        .and_then(|n| n.as_f64())
        .ok_or_else(|| format!("line for {name:?} in {path} carries no \"lo_ns\""))?;
    Ok((build, name, lo))
}

/// Every line of the `BENCH_JSON` file at `path` (blank lines skipped).
fn load_bench_lines(path: &str) -> Result<Vec<BenchLine>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| parse_bench_line(path, l))
        .collect()
}

/// The default baselines: every `BENCH_*.json` in `dir`, sorted by name.
fn default_bench_baselines(dir: &std::path::Path) -> Result<Vec<String>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    let mut found: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    if found.is_empty() {
        return Err(format!(
            "no BENCH_*.json baselines found in {}",
            dir.display()
        ));
    }
    found.sort();
    Ok(found
        .iter()
        .map(|n| dir.join(n).to_string_lossy().into_owned())
        .collect())
}

/// Diff a fresh `BENCH_JSON` run against the committed `BENCH_*.json`
/// baselines, keyed by **(build tag, benchmark name)**.
///
/// Comparisons use `lo_ns` (the fastest observed sample): on shared,
/// noisy hosts the minimum is the stable signal — medians swing ±30%
/// with background load, minima only move when the code does.
///
/// Every line — fresh and baseline — must carry a `build` tag
/// (`"release"`, `"release+trace"`, ...) as emitted by the bench
/// harness. A fresh line whose tag has no baseline under the *same* tag
/// but does exist under a different one is a **build-tag mismatch** —
/// debug-vs-release or trace-vs-plain numbers would silently pass or
/// fail for the wrong reason — and fails the comparison outright.
/// Genuinely new benchmark names (no baseline under any tag) are
/// reported but never fail. Returns the process exit code: 1 on any
/// regression beyond [`BENCH_REGRESSION_FRAC`] or any tag mismatch, 0
/// otherwise. Unusable input — an unreadable file, a malformed line or
/// one missing its `name`, `build` or `lo_ns`, no baselines to compare
/// against — is an error, reported before anything is printed.
fn bench_compare(fresh_path: &str, baseline_paths: &[String]) -> Result<i32, String> {
    // Default baselines: every committed BENCH_*.json in the working dir.
    let baseline_paths = if baseline_paths.is_empty() {
        default_bench_baselines(std::path::Path::new("."))?
    } else {
        baseline_paths.to_vec()
    };
    let fresh = load_bench_lines(fresh_path)?;

    let mut baseline: std::collections::BTreeMap<(String, String), f64> =
        std::collections::BTreeMap::new();
    for path in &baseline_paths {
        for (build, name, lo) in load_bench_lines(path)? {
            // Duplicate (build, name) across baseline files: slowest wins,
            // so re-recorded baselines stay conservative.
            let slot = baseline.entry((build, name)).or_insert(lo);
            *slot = slot.max(lo);
        }
    }

    let mut regressions = 0usize;
    let mut mismatches = 0usize;
    println!(
        "{:<44} {:<14} {:>12} {:>12} {:>8}  verdict",
        "benchmark", "build", "base lo_ns", "fresh lo_ns", "ratio"
    );
    for (build, name, fresh_lo) in fresh {
        match baseline.get(&(build.clone(), name.clone())) {
            Some(&base_lo) => {
                let ratio = fresh_lo / base_lo;
                let verdict = if ratio > 1.0 + BENCH_REGRESSION_FRAC {
                    regressions += 1;
                    "REGRESSED"
                } else if ratio < 1.0 - BENCH_REGRESSION_FRAC {
                    "improved"
                } else {
                    "ok"
                };
                println!(
                    "{name:<44} {build:<14} {base_lo:>12.1} {fresh_lo:>12.1} {ratio:>8.2}  {verdict}"
                );
            }
            None => {
                let other_builds: Vec<&str> = baseline
                    .keys()
                    .filter(|(_, n)| *n == name)
                    .map(|(b, _)| b.as_str())
                    .collect();
                if other_builds.is_empty() {
                    println!(
                        "{name:<44} {build:<14} {:>12} {fresh_lo:>12.1} {:>8}  new (no baseline)",
                        "-", "-"
                    );
                } else {
                    mismatches += 1;
                    println!(
                        "{name:<44} {build:<14} {:>12} {fresh_lo:>12.1} {:>8}  BUILD MISMATCH \
                         (baseline has: {})",
                        "-",
                        "-",
                        other_builds.join(", ")
                    );
                }
            }
        }
    }
    if mismatches > 0 {
        eprintln!(
            "bench-compare: {mismatches} benchmark(s) built as a different build than every \
             baseline entry of the same name — refusing to compare across builds. Re-run the \
             benches with the matching feature set/profile, or re-record the baseline."
        );
    }
    if regressions > 0 {
        eprintln!(
            "bench-compare: {regressions} benchmark(s) regressed more than {:.0}% vs baseline",
            BENCH_REGRESSION_FRAC * 100.0
        );
    }
    Ok(if regressions > 0 || mismatches > 0 {
        1
    } else {
        0
    })
}

/// Load + parse a scenario file, reporting I/O and field-path parse
/// errors on stderr. `.toml` files go through the TOML front-end,
/// everything else through JSON.
fn load_scenario(path: &str) -> Result<diversifi::Scenario, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    diversifi::Scenario::from_file_text(&text, path)
}

/// `repro --validate-scenario FILE`: parse, validate, and lower a
/// scenario file, then print the lowered configuration summary. Exit 0
/// on success, 2 with the field-path error on stderr otherwise.
fn validate_scenario_cli(path: &str) -> i32 {
    use diversifi::scenario::mode_tag;
    let scn = match load_scenario(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("validate-scenario: {e}");
            return 2;
        }
    };
    let cfg = scn.campaign_config();
    println!("[scenario] OK: {path}");
    println!("[scenario] name={:?} seed={} venue={}", scn.name, scn.seed, scn.venue.tag());
    for (label, ap) in [("primary", &scn.primary), ("secondary", &scn.secondary)] {
        println!(
            "[scenario] {label}: {} @ {:.1} m, {} link, {:.1} dBm, diversity x{}",
            diversifi::scenario::channel_tag(ap.channel),
            ap.distance_m,
            ap.quality.tag(),
            ap.tx_power_dbm,
            ap.diversity_order,
        );
    }
    println!(
        "[scenario] fleet: {} calls in {} shards of {} ({} threads, checkpoints: {})",
        scn.fleet.calls,
        cfg.shards(),
        cfg.shard_size,
        if scn.campaign.threads == 0 { "auto".to_string() } else { scn.campaign.threads.to_string() },
        scn.campaign.checkpoint_dir.as_deref().unwrap_or("off"),
    );
    let arms: Vec<String> =
        scn.arms.iter().map(|a| format!("{}:{}", a.name, mode_tag(a.mode))).collect();
    println!("[scenario] arms: [{}]", arms.join(", "));
    if !scn.faults.specs.is_empty() {
        println!("[scenario] faults: {} spec(s)", scn.faults.specs.len());
    }
    println!("[scenario] fingerprint: {:016x}", scn.fingerprint());
    0
}

/// A human calls/sec figure that degrades gracefully: campaigns that
/// finish inside one throttle interval (or resume everything from
/// checkpoints) print "—" instead of a nonsense billions-of-calls/s rate
/// from dividing by a near-zero elapsed time.
fn rate_str(calls: u64, secs: f64) -> String {
    if secs < 1e-3 || calls == 0 {
        "—".to_string()
    } else {
        format!("{:.0}", calls as f64 / secs)
    }
}

/// `repro --campaign FILE`: run the scenario's sharded fleet campaign
/// with live progress (including calls/sec) and health heartbeats, print
/// the campaign report, and write the JSON artifact plus the
/// campaign-health JSONL under `--out`. With `--flight-topk` /
/// `--forensics-out` (or a scenario `[observe]` section) the flight
/// recorder retains the K worst calls and re-simulates their full event
/// timelines. Exit 0 on success, 2 on parse/run failure.
fn campaign_cli(
    path: &str,
    out_dir: &str,
    forensics_out: Option<&str>,
    flight_topk: Option<usize>,
) -> i32 {
    let scn = match load_scenario(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("campaign: {e}");
            return 2;
        }
    };
    let mut cfg = scn.campaign_config();
    if let Some(k) = flight_topk {
        cfg.flight_k = k;
    }
    if forensics_out.is_some() && cfg.flight_k == 0 {
        // Forensics with nothing retained would be an empty dossier;
        // default to a useful handful.
        cfg.flight_k = 4;
    }
    println!(
        "[campaign] {:?}: {} calls, shard size {}, fingerprint {:016x}",
        scn.name,
        scn.fleet.calls,
        scn.campaign.shard_size.max(1),
        scn.fingerprint()
    );
    if let Some(dir) = &scn.campaign.checkpoint_dir {
        println!("[campaign] checkpoints: {dir}");
    }
    if cfg.flight_k > 0 {
        println!("[campaign] flight recorder: top-{} worst calls", cfg.flight_k);
    }

    let start = std::time::Instant::now();
    // Throttle progress lines to ~4/s; always print the final one.
    let last_print = std::sync::Mutex::new(None::<std::time::Instant>);
    let progress = |p: &diversifi_simcore::CampaignProgress| {
        let done = p.shards_done == p.shards_total;
        {
            let mut last = last_print.lock().unwrap();
            if !done
                && last.is_some_and(|t| t.elapsed() < std::time::Duration::from_millis(250))
            {
                return;
            }
            *last = Some(std::time::Instant::now());
        }
        let rate = rate_str(p.calls_done, start.elapsed().as_secs_f64());
        let pct = if p.calls_planned == 0 {
            100.0
        } else {
            100.0 * p.calls_done as f64 / p.calls_planned as f64
        };
        println!(
            "[campaign] {:>12}/{} calls ({pct:5.1}%)  shards {}/{} ({} resumed)  {rate} calls/s",
            p.calls_done, p.calls_planned, p.shards_done, p.shards_total, p.shards_resumed,
        );
    };
    // The heartbeat stream: every freshly executed shard appends one JSONL
    // record (written under --out after the run) and refreshes a throttled
    // live health line.
    let health_lines = std::sync::Mutex::new(Vec::<String>::new());
    let last_health = std::sync::Mutex::new(None::<std::time::Instant>);
    let heartbeat = |hb: &diversifi_simcore::HeartbeatSample| {
        let line = format!(
            "{{\"shard\":{},\"calls\":{},\"shard_wall_us\":{},\"checkpoint_write_us\":{},\
             \"shards_done\":{},\"shards_total\":{},\"calls_done\":{},\"elapsed_ms\":{}}}",
            hb.shard,
            hb.calls,
            hb.shard_wall_ns / 1_000,
            hb.checkpoint_write_ns / 1_000,
            hb.shards_done,
            hb.shards_total,
            hb.calls_done,
            hb.elapsed_ns / 1_000_000,
        );
        health_lines.lock().unwrap().push(line);
        {
            let mut last = last_health.lock().unwrap();
            if last.is_some_and(|t| t.elapsed() < std::time::Duration::from_millis(500)) {
                return;
            }
            *last = Some(std::time::Instant::now());
        }
        println!(
            "[health] shard {:>5} folded {} calls in {:.1} ms (ckpt {:.2} ms)  {} calls/s overall",
            hb.shard,
            hb.calls,
            hb.shard_wall_ns as f64 / 1e6,
            hb.checkpoint_write_ns as f64 / 1e6,
            rate_str(hb.calls_done, hb.elapsed_ns as f64 / 1e9),
        );
    };
    let run = match diversifi::run_fleet_campaign_observed(&scn, &cfg, progress, heartbeat) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("campaign: {e}");
            return 2;
        }
    };
    let rep = &run.report;
    let elapsed = start.elapsed().as_secs_f64();

    println!(
        "[campaign] done in {elapsed:.2} s — {} calls, {} shards run, {} resumed, {} calls/s",
        rep.calls,
        rep.shards_run,
        rep.shards_resumed,
        rate_str(rep.calls, elapsed),
    );
    println!("[campaign] digest fingerprint: {:016x}", rep.fingerprint);
    println!(
        "[campaign] poor-call rate {:.3}%  MOS mean {:.3} ± {:.3}  p10/p50/p90 {:.3}/{:.3}/{:.3}",
        100.0 * rep.poor_rate,
        rep.mos_mean,
        rep.mos_stddev,
        rep.mos_p10,
        rep.mos_p50,
        rep.mos_p90,
    );
    println!(
        "[campaign] mouth-to-ear delay p50 {:.1} ms, p99 {:.1} ms",
        rep.delay_p50_ms, rep.delay_p99_ms
    );
    println!("[campaign] workload: {}", rep.workload);
    if let Some(fps) = &rep.fps {
        let mut t = TextTable::new(&["FPS fleet metric", "Value"]);
        t.row(&["Sessions".into(), fps.sessions.to_string()]);
        t.row(&["Poor-session rate (%)".into(), format!("{:.3}", 100.0 * fps.poor_rate)]);
        t.row(&["QoE mean ± std".into(), format!("{:.1} ± {:.1}", fps.qoe_mean, fps.qoe_stddev)]);
        t.row(&[
            "QoE p10 / p50 / p90".into(),
            format!("{:.1} / {:.1} / {:.1}", fps.qoe_p10, fps.qoe_p50, fps.qoe_p90),
        ]);
        t.row(&[
            "State-tick miss p50 / p99 (%)".into(),
            format!("{:.2} / {:.2}", fps.miss_p50_pct, fps.miss_p99_pct),
        ]);
        t.row(&[
            "Worst outage p50 / p99 (ms)".into(),
            format!("{:.1} / {:.1}", fps.outage_p50_ms, fps.outage_p99_ms),
        ]);
        println!("{}", t.render());
    }
    let mut t = TextTable::new(&["Subset", "EE", "EW", "WW"]);
    for (label, row) in [
        ("All", &rep.table1.all),
        ("/24s with #E>=#W", &rep.table1.wired_majority),
        ("PC", &rep.table1.pc),
        ("PC & /24s filter", &rep.table1.pc_wired_majority),
    ] {
        t.row(&[
            label.into(),
            signed_pct(row.ee),
            signed_pct(row.ew),
            signed_pct(row.ww),
        ]);
    }
    println!("{}", t.render());
    for arm in &rep.arms {
        let mut line = format!(
            "[campaign] arm {:<16} ({:<14}, {}) loss {:6.3}%  wasteful dup {:6.2}%  secondary air {:6.2}%",
            arm.name, arm.mode, arm.workload, arm.loss_pct, arm.wasteful_dup_pct,
            arm.secondary_air_pct
        );
        if let (Some(tm), Some(im), Some(q)) = (arm.tick_miss_pct, arm.input_miss_pct, arm.qoe) {
            line.push_str(&format!("  tick miss {tm:.2}%  input miss {im:.2}%  QoE {q:.1}"));
        }
        println!("{line}");
    }
    let h = &rep.health;
    println!(
        "[campaign] health: shard wall p50/p99 {}/{} µs, checkpoint p50 {} µs, merge {:.1} ms, \
         {} shards timed",
        h.shard_wall_p50_us,
        h.shard_wall_p99_us,
        h.checkpoint_write_p50_us,
        h.merge_ms,
        h.shards_timed,
    );
    if let Some(flight) = &rep.flight {
        for f in flight {
            println!(
                "[flight] worst call index {:>8}  score {:.3}  (seed {:#x})",
                f.index, f.score, f.seed
            );
        }
        if flight.is_empty() {
            println!("[flight] no calls fell below the poor trigger");
        }
    }

    let safe_name = rep.scenario.replace([' ', '/'], "_");
    let artifact = format!("campaign_{safe_name}");
    match report::write_json(out_dir, &artifact, rep) {
        Ok(p) => println!("[artifact] {p}"),
        Err(e) => {
            eprintln!("campaign: failed to write artifact: {e}");
            return 2;
        }
    }
    let lines = health_lines.into_inner().unwrap();
    if !lines.is_empty() {
        let path = format!("{out_dir}/campaign-health_{safe_name}.jsonl");
        let body = lines.join("\n") + "\n";
        if let Err(e) =
            std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, body))
        {
            eprintln!("campaign: failed to write health series: {e}");
            return 2;
        }
        println!("[artifact] {path}");
    }

    if let Some(dir) = forensics_out {
        let worst = run.flight.as_ref().expect("flight_k > 0 when forensics requested");
        if worst.is_empty() {
            println!("[forensics] nothing to capture: no calls fell below the poor trigger");
        } else {
            if !diversifi_simcore::telemetry::TRACE_COMPILED {
                eprintln!(
                    "[forensics] warning: release build without the `trace` feature — \
                     captures will carry scores but empty event timelines; \
                     rebuild with `--features trace`"
                );
            }
            let captures = diversifi::capture_worst_calls(&scn, worst, scn.observe.ring);
            let base = format!("{dir}/flight_{safe_name}");
            let (chrome, jsonl) = (format!("{base}.json"), format!("{base}.jsonl"));
            if let Err(e) = write_timeline(&captures, &chrome, &jsonl) {
                eprintln!("campaign: failed to write forensics: {e}");
                return 2;
            }
            println!(
                "[forensics] {} captures ({} calls × {} arms) → {chrome} (Perfetto), {jsonl}",
                captures.runs.len(),
                worst.len(),
                scn.arms.len().max(1),
            );
        }
    }
    0
}

/// `repro --chaos SCENARIO`: the adversarial fault-plan fuzzing campaign.
///
/// Runs in two stages, either of which can be disabled:
///
/// 1. **Corpus replay** (`--chaos-corpus DIR`): every committed
///    `*.json` reproducer in DIR is replayed under the real oracles.
///    A replay violation means a fixed bug is back — hard failure.
/// 2. **Scan**: `plans` seeded plans (scenario `[chaos]` section,
///    `--chaos-plans` override; 0 skips the scan) are generated under
///    the budget and evaluated; retained violations are shrunk to
///    minimal reproducers, written to the corpus directory (when given)
///    and to the JSON artifact.
///
/// Exit code: 0 when clean, 1 on any violation / replay failure /
/// quarantined shard. Under `--chaos-canary` the verdict inverts for the
/// scan: the planted violation MUST be found (and shrink to its minimal
/// two-spec form) or the fuzzer itself is broken.
fn chaos_cli(
    path: &str,
    out_dir: &str,
    plans_override: Option<u64>,
    corpus_dir: Option<&str>,
    canary: bool,
    forensics_out: Option<&str>,
) -> i32 {
    use diversifi::chaos::{capture_reproducer, replay_reproducer, run_chaos, ChaosConfig};
    use diversifi_simcore::chaos::ChaosReproducer;

    let scn = match load_scenario(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("chaos: {e}");
            return 2;
        }
    };
    let mut cfg = ChaosConfig::from_scenario(&scn);
    cfg.canary = canary;
    if let Some(n) = plans_override {
        cfg.plans = n;
    }

    let mut code = 0;

    // Stage 1: replay the committed corpus (proptest-regressions style).
    if let Some(dir) = corpus_dir {
        let mut entries: Vec<std::path::PathBuf> = match std::fs::read_dir(dir) {
            Ok(rd) => rd
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "json"))
                .collect(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => {
                eprintln!("chaos: corpus dir {dir}: {e}");
                return 2;
            }
        };
        entries.sort();
        for p in &entries {
            let rep: ChaosReproducer = match std::fs::read_to_string(p)
                .map_err(|e| e.to_string())
                .and_then(|t| serde_json::from_str(&t).map_err(|e| e.to_string()))
            {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("chaos: corpus entry {}: {e}", p.display());
                    code = code.max(2);
                    continue;
                }
            };
            match replay_reproducer(&cfg, &rep) {
                None => println!(
                    "[chaos] corpus {} ({}, {} specs): clean",
                    p.file_name().unwrap_or_default().to_string_lossy(),
                    rep.oracle,
                    rep.plan.specs.len(),
                ),
                Some(v) => {
                    eprintln!(
                        "[chaos] corpus {} REGRESSED: {} — {}",
                        p.display(),
                        v.oracle,
                        v.detail
                    );
                    code = code.max(1);
                }
            }
        }
        println!("[chaos] corpus: {} reproducer(s) replayed", entries.len());
    }

    // Stage 2: the fuzzing scan.
    if cfg.plans == 0 {
        return code;
    }
    println!(
        "[chaos] {:?}: {} plans, horizon {:.1}s, max {} specs, seed {:#x}{}",
        scn.name,
        cfg.plans,
        cfg.budget.horizon.as_nanos() as f64 / 1e9,
        cfg.budget.max_specs,
        cfg.seed,
        if canary { " (planted canary)" } else { "" },
    );
    let report = match run_chaos(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("chaos: {e}");
            return 2;
        }
    };
    println!(
        "[chaos] scanned {} plans ({} empty): {} violation(s) — \
         {} amplification, {} engine-panic, {} unbounded-MTTR",
        report.plans,
        report.empty_plans,
        report.violations,
        report.amplification,
        report.engine_panics,
        report.unbounded_mttr,
    );
    if let Some(fp) = report.fingerprint {
        println!("[chaos] scan fingerprint: {fp:016x}");
    }
    for q in &report.quarantined {
        eprintln!("[chaos] shard {q} quarantined (panic escaped per-plan capture)");
        code = code.max(1);
    }
    for f in &report.findings {
        println!(
            "[chaos] finding: plan {:06} {} — shrunk {} → {} spec(s) \
             ({} evals, {} accepted): {}",
            f.index,
            f.oracle,
            f.original_specs,
            f.minimal_specs,
            f.shrink_tried,
            f.shrink_accepted,
            f.detail,
        );
    }

    let safe_name = scn.name.replace([' ', '/'], "_");
    match report::write_json(out_dir, &format!("chaos_{safe_name}"), &report) {
        Ok(p) => println!("[artifact] {p}"),
        Err(e) => {
            eprintln!("chaos: failed to write artifact: {e}");
            return 2;
        }
    }

    // Newly shrunk reproducers join the corpus (committed by the
    // developer once triaged, like proptest-regressions files).
    if let Some(dir) = corpus_dir {
        for f in &report.findings {
            let name = format!("chaos-{:016x}-{:06}.json", f.reproducer.seed, f.reproducer.index);
            let text = serde_json::to_string_pretty(&f.reproducer)
                .expect("reproducer serialization cannot fail");
            let p = std::path::Path::new(dir).join(&name);
            if let Err(e) = write_text_atomic(&p, &(text + "\n")) {
                eprintln!("chaos: failed to write reproducer {}: {e}", p.display());
                return 2;
            }
            println!("[chaos] reproducer → {}", p.display());
        }
    }

    // Forensics: freeze both arms of the worst finding's minimal plan.
    if let Some(dir) = forensics_out {
        if let Some(f) = report.findings.first() {
            let captures = capture_reproducer(&cfg, &f.reproducer, scn.observe.ring);
            let base = format!("{dir}/chaos_{safe_name}");
            let (chrome, jsonl) = (format!("{base}.json"), format!("{base}.jsonl"));
            if let Err(e) = write_timeline(&captures, &chrome, &jsonl) {
                eprintln!("chaos: failed to write forensics: {e}");
                return 2;
            }
            println!("[forensics] worst finding (plan {:06}) → {chrome}, {jsonl}", f.index);
        } else {
            println!("[forensics] nothing to capture: no findings");
        }
    }

    if canary {
        // Canary semantics invert: finding (and fully shrinking) the
        // planted violation is the PASS condition.
        let minimal_ok = report
            .findings
            .iter()
            .all(|f| f.minimal_specs <= 2 && f.oracle == "no-amplification");
        if report.violations > 0 && !report.findings.is_empty() && minimal_ok && report.complete {
            println!(
                "[chaos] canary PASS: planted violation found and shrunk to \
                 {} spec(s)",
                report.findings[0].minimal_specs
            );
            code.max(0)
        } else {
            eprintln!(
                "[chaos] canary FAIL: violations={} findings={} complete={}",
                report.violations,
                report.findings.len(),
                report.complete
            );
            1
        }
    } else {
        if report.violations > 0 {
            eprintln!("[chaos] FAIL: {} violating plan(s)", report.violations);
            code = code.max(1);
        }
        if !report.complete {
            eprintln!("[chaos] FAIL: scan incomplete");
            code = code.max(1);
        }
        code
    }
}

/// Write one event timeline as its two artifacts: the Perfetto / Chrome
/// trace at `chrome` and the JSONL event stream at `jsonl`. Each lands
/// atomically, parent directories created; the first IO error is
/// returned. Every timeline `repro` writes (`--trace-out` and both
/// `--forensics-out` captures) goes through here.
fn write_timeline(merged: &MergedTelemetry, chrome: &str, jsonl: &str) -> std::io::Result<()> {
    write_text_atomic(Path::new(chrome), &export::chrome_trace(merged))?;
    write_text_atomic(Path::new(jsonl), &export::jsonl(merged))
}

/// Capture one fully-instrumented paper scenario (§6 testbed weak pair,
/// customized-AP DiversiFi with a coexisting TCP flow) across a small sweep
/// and export the merged telemetry. An artifact that cannot be written is
/// an error naming its path.
fn telemetry_capture(
    ctx: &Ctx,
    trace_out: Option<&str>,
    metrics_out: Option<&str>,
) -> Result<(), String> {
    use diversifi::world::{RunMode, World, WorldConfig};

    if !diversifi_simcore::telemetry::TRACE_COMPILED {
        eprintln!(
            "[telemetry] warning: release build without the `trace` feature — the \
             capture will be empty; rebuild with `--features trace`"
        );
    }
    println!("\n================ telemetry ================");
    let mut primary = LinkConfig::office(Channel::CH1, 26.0);
    primary.ge = GeParams::weak_link();
    let mut secondary = LinkConfig::office(Channel::CH11, 30.0);
    secondary.ge = GeParams::weak_link();
    let mut cfg = WorldConfig::testbed(primary, secondary);
    cfg.mode = RunMode::DiversifiCustomAp;
    cfg.with_tcp = true;
    cfg.spec.duration = SimDuration::from_secs(ctx.scale.call_secs.min(30));
    let seeds = SeedFactory::new(ctx.seed ^ 0x7E1E);
    let (_, merged) = SweepRunner::available().run_indexed_traced(4, 1 << 16, |i| {
        World::new(&cfg, &seeds.subfactory("telemetry", i as u64)).run()
    });
    println!("{}", export::sweep_report(&merged));
    if let Some(path) = trace_out {
        let sidecar = format!("{path}.jsonl");
        write_timeline(&merged, path, &sidecar).map_err(|e| format!("{path}: {e}"))?;
        println!("[artifact] {path} (Chrome trace — open at ui.perfetto.dev)");
        println!("[artifact] {sidecar} (event stream, one JSON object per line)");
    }
    if let Some(path) = metrics_out {
        write_text_atomic(Path::new(path), &export::metrics_table(&merged.metrics))
            .map_err(|e| format!("{path}: {e}"))?;
        println!("[artifact] {path} (per-sweep metrics table)");
    }
    Ok(())
}

fn save<T: serde::Serialize>(ctx: &Ctx, name: &str, value: &T) {
    match report::write_json(&ctx.out_dir, name, value) {
        Ok(path) => println!("[artifact] {path}"),
        Err(e) => eprintln!("[artifact] failed to write {name}: {e}"),
    }
}

fn fig1(ctx: &mut Ctx) {
    let locations = survey::run_survey(6, ctx.seed);
    let summary = survey::summarize(&locations);
    let residential = survey::residential_multi_bssid_fraction(20_000, ctx.seed);
    let mut t = TextTable::new(&["Venue", "BSSIDs", "Channels"]);
    for loc in &locations {
        t.row(&[loc.venue.label().into(), loc.bssids.to_string(), loc.channels.to_string()]);
    }
    println!("{}", t.render());
    println!(
        "BSSIDs: median {} (range {}-{})   [paper: median 6, range 2-13]",
        summary.median_bssids, summary.min_bssids, summary.max_bssids
    );
    println!(
        "Channels: median {} (range {}-{}) [paper: median 4, range 2-9]",
        summary.median_channels, summary.min_channels, summary.max_channels
    );
    println!(
        "Residential homes with >1 BSSID: {:.0}% [paper: 30%]",
        residential * 100.0
    );
    save(ctx, "fig1", &(locations, summary, residential));
}

fn table1(ctx: &mut Ctx) {
    let calls = population::simulate_calls(&population::PopulationModel::default(), 400_000, ctx.seed);
    let t1 = population::table1(&calls);
    let mut t = TextTable::new(&["Subset", "EE", "EW", "WW"]);
    let paper = [
        ("All", "+27.7%", "+1.6%", "-18.4%"),
        ("/24s with #E>=#W", "+31.9%", "+6.3%", "-11.9%"),
        ("PC", "+34.2%", "+12.9%", "-5.4%"),
        ("PC & /24s filter", "+36.6%", "+15.1%", "-3.1%"),
    ];
    for (row, (label, pee, pew, pww)) in [
        &t1.all,
        &t1.wired_majority,
        &t1.pc,
        &t1.pc_wired_majority,
    ]
    .iter()
    .zip(paper)
    {
        t.row(&[
            label.into(),
            format!("{} [paper {pee}]", signed_pct(row.ee)),
            format!("{} [paper {pew}]", signed_pct(row.ew)),
            format!("{} [paper {pww}]", signed_pct(row.ww)),
        ]);
    }
    println!("{}", t.render());
    save(ctx, "table1", &t1);
}

fn table2(ctx: &mut Ctx) {
    let plan = nettest::NetTestPlan::default();
    let calls = nettest::simulate(&plan, ctx.seed);
    let t2 = nettest::table2(&calls, plan.n_clients);
    let paper = [5.22, 7.98, 42.11, 62.66];
    let mut t = TextTable::new(&["Call Type", "Total Calls", "PCR (%)", "Paper PCR (%)"]);
    for (row, p) in t2.rows.iter().zip(paper) {
        t.row(&[
            row.category.clone(),
            row.total_calls.to_string(),
            format!("{:.2}", row.pcr_pct),
            format!("{p:.2}"),
        ]);
    }
    t.row(&[
        "Total".into(),
        calls.len().to_string(),
        format!("{:.2}", t2.overall_pcr_pct),
        "10.23".into(),
    ]);
    println!("{}", t.render());
    println!(
        "Users with >=1 poor call: {:.1}% [paper 57.9%]; users with PCR>=20%: {:.1}% [paper 16.3%]",
        t2.users_with_poor_call_pct, t2.users_with_high_pcr_pct
    );
    save(ctx, "table2", &t2);
}

fn fig2(ctx: &mut Ctx, name: &str, strategies: &[(Strategy, &str)]) {
    let records: Vec<CallRecord> = ctx.main_corpus().to_vec();
    let mut series = Vec::new();
    let mut t = TextTable::new(&["Strategy", "90th %ile worst-5s loss (%)"]);
    for (s, label) in strategies {
        let cdf = strategy_cdf(&records, *s, label);
        t.row(&[label.to_string(), format!("{:.1}", cdf.p90)]);
        series.push(cdf);
    }
    println!("{}", t.render());
    match name {
        "fig2a" => println!("(paper: Stronger 37%, Better 84%, Cross-Link 4.4%)"),
        "fig2b" => println!("(paper: Divert 10.5% vs Cross-Link 4.4%)"),
        "fig2c" => println!("(paper: Baseline 37.2%, Temporal(100ms) 23.7%, Cross-Link 4.4%)"),
        _ => {}
    }
    save(ctx, name, &series);
}

fn fig2d(ctx: &mut Ctx) {
    let opts = ctx.scale.analysis(AnalysisOptions::mimo_corpus());
    let records = analysis::run_corpus(&opts, ctx.seed ^ 0xD);
    let mut series = Vec::new();
    let mut t = TextTable::new(&["Strategy (MIMO PHY)", "90th %ile worst-5s loss (%)"]);
    for (s, label) in [
        (Strategy::CrossLink, "MIMO + Cross-Link"),
        (Strategy::Stronger, "MIMO + Stronger"),
        (Strategy::Better, "MIMO + Better"),
    ] {
        let cdf = strategy_cdf(&records, s, label);
        t.row(&[label.to_string(), format!("{:.1}", cdf.p90)]);
        series.push(cdf);
    }
    println!("{}", t.render());
    println!("(paper: cross-link still clearly below MIMO-only selection)");
    save(ctx, "fig2d", &series);
}

fn fig2e(ctx: &mut Ctx) {
    let opts = ctx.scale.analysis(AnalysisOptions::high_rate_corpus());
    let records = analysis::run_corpus(&opts, ctx.seed ^ 0xE);
    let mut series = Vec::new();
    let mut t = TextTable::new(&["Strategy (5 Mbps stream)", "90th %ile worst-5s loss (%)"]);
    for (s, label) in [
        (Strategy::CrossLink, "Cross-Link"),
        (Strategy::Stronger, "Stronger"),
        (Strategy::Better, "Better"),
    ] {
        let cdf = strategy_cdf(&records, s, label);
        t.row(&[label.to_string(), format!("{:.1}", cdf.p90)]);
        series.push(cdf);
    }
    println!("{}", t.render());
    println!("(paper: Cross-Link 1.7% vs Stronger 20.5%)");
    save(ctx, "fig2e", &series);
}

fn fig3(ctx: &mut Ctx) {
    // Two weak links: the paper's example has link A at 4.3% overall loss,
    // link B at 15.4%, and cross-link replication at 0.88%. Scan seeds for
    // a comparable pair.
    let spec = StreamSpec::voip();
    // Scan seeds for the weak-link pair whose per-link loss rates best
    // match the paper's example (A: 4.3%, B: 15.4%). Each candidate seed is
    // independent, so the scan fans out on the sweep runner; keeping only
    // per-seed scores (rather than 64 full runs) bounds memory, and the
    // winner — first minimal score in seed order, same tie-break as the old
    // serial loop — is re-simulated once from its seed.
    let run_pair = |k: u64| {
        let seeds = SeedFactory::new(ctx.seed ^ (0xF3 + k));
        let mut a = LinkConfig::office(Channel::CH1, 30.0);
        a.ge = GeParams::weak_link();
        let mut b = LinkConfig::office(Channel::CH11, 36.0);
        b.ge = GeParams::weak_link();
        diversifi::run_two_nic(&diversifi::TwoNicScenario::new(spec, a, b), &seeds)
    };
    let scores = SweepRunner::available().run_indexed(64, |k| {
        let run = run_pair(k as u64);
        let la = run.a.trace.loss_rate(DEFAULT_DEADLINE) * 100.0;
        let lb = run.b.trace.loss_rate(DEFAULT_DEADLINE) * 100.0;
        let lm = run.a.trace.merged_with(&run.b.trace).loss_rate(DEFAULT_DEADLINE) * 100.0;
        ((la - 4.3).abs() + 0.5 * (lb - 15.4).abs(), la, lb, lm)
    });
    let mut best_k = 0usize;
    for (k, s) in scores.iter().enumerate() {
        if s.0 < scores[best_k].0 {
            best_k = k;
        }
    }
    let (_, la, lb, lm) = scores[best_k];
    let run = run_pair(best_k as u64);
    let merged = cross_link(
        &diversifi_client::LinkObservation { trace: run.a.trace.clone(), rssi_dbm: run.a.rssi_dbm },
        &diversifi_client::LinkObservation { trace: run.b.trace.clone(), rssi_dbm: run.b.rssi_dbm },
    );
    println!("Link A loss: {la:.2}%   [paper: 4.3%]");
    println!("Link B loss: {lb:.2}%   [paper: 15.4%]");
    println!("Cross-link:  {lm:.2}%   [paper: 0.88%]");
    let j = |tr: &diversifi_voip::StreamTrace| {
        let js = tr.jitter_series_ms();
        mean(&js.iter().map(|(_, v)| *v).collect::<Vec<_>>())
    };
    println!(
        "Mean per-packet jitter: A {:.2} ms, B {:.2} ms, merged {:.2} ms",
        j(&run.a.trace),
        j(&run.b.trace),
        j(&merged)
    );
    // Artifact: the loss positions + jitter series for plotting.
    let loss_positions = |tr: &diversifi_voip::StreamTrace| -> Vec<u64> {
        tr.loss_indicator(DEFAULT_DEADLINE)
            .iter()
            .enumerate()
            .filter(|(_, v)| **v > 0.0)
            .map(|(i, _)| i as u64)
            .collect()
    };
    save(
        ctx,
        "fig3",
        &serde_json::json!({
            "loss_pct": {"a": la, "b": lb, "merged": lm},
            "losses_a": loss_positions(&run.a.trace),
            "losses_b": loss_positions(&run.b.trace),
            "losses_merged": loss_positions(&merged),
            "jitter_a_ms": run.a.trace.jitter_series_ms(),
            "jitter_b_ms": run.b.trace.jitter_series_ms(),
            "jitter_merged_ms": merged.jitter_series_ms(),
        }),
    );
}

fn fig4(ctx: &mut Ctx) {
    let records: Vec<CallRecord> = ctx.main_corpus().to_vec();
    let fig = correlation_figure(&records, 20);
    let mut t = TextTable::new(&["Lag (pkts)", "Auto-corr", "Cross-corr"]);
    for lag in [1usize, 2, 5, 10, 15, 20] {
        t.row(&[
            lag.to_string(),
            format!("{:.3}", fig.auto_corr[lag - 1].1),
            format!("{:.3}", fig.cross_corr[lag].1),
        ]);
    }
    println!("{}", t.render());
    println!("(paper: auto-correlation stays above cross-correlation out to lag 20)");
    save(ctx, "fig4", &fig);
}

fn fig5(ctx: &mut Ctx) {
    let records: Vec<CallRecord> = ctx.main_corpus().to_vec();
    let rows = [
        burst_summary(&records, Strategy::Stronger, "Stronger"),
        burst_summary(&records, Strategy::Temporal100, "Temporal (100ms)"),
        burst_summary(&records, Strategy::CrossLink, "Cross-Link"),
    ];
    let mut t = TextTable::new(&["Strategy", "Mean lost/call", "Mean bursty/call"]);
    for r in &rows {
        t.row(&[r.label.clone(), format!("{:.1}", r.mean_lost), format!("{:.1}", r.mean_bursty)]);
    }
    println!("{}", t.render());
    println!("(paper: Cross-Link 25.6 lost / 15.9 bursty; Temporal 61.9 / 51.0)");
    save(ctx, "fig5", &rows);
}

fn fig6(ctx: &mut Ctx) {
    let records: Vec<CallRecord> = ctx.main_corpus().to_vec();
    let q = QualityParams::default();
    let fig = pcr_by_impairment(&records, &q);
    let mut t = TextTable::new(&["Impairment", "PCR Stronger (%)", "PCR Cross-Link (%)"]);
    for (label, s, x) in &fig.rows {
        t.row(&[label.clone(), format!("{s:.1}"), format!("{x:.1}")]);
    }
    println!("{}", t.render());
    let factor = if fig.overall_cross > 0.0 {
        fig.overall_stronger / fig.overall_cross
    } else {
        f64::INFINITY
    };
    println!(
        "Overall: Stronger {:.2}% vs Cross-Link {:.2}% → {:.2}x reduction [paper: 12.23% → 5.45%, 2.24x]",
        fig.overall_stronger, fig.overall_cross, factor
    );
    save(ctx, "fig6", &fig);
}

fn fig8(ctx: &mut Ctx) {
    let runs: Vec<EvalRun> = ctx.eval_corpus().to_vec();
    let window = SimDuration::from_secs(5);
    let mk = |pick: fn(&EvalRun) -> &diversifi::RunReport, label: &str| {
        let traces = arm_traces(&runs, pick);
        let e = metrics::worst_window_ecdf(&traces, window, DEFAULT_DEADLINE);
        (label.to_string(), e.quantile(0.9), e.series(0.0, 100.0, 101))
    };
    let d = mk(|r| &r.diversifi, "DiversiFi");
    let p = mk(|r| &r.primary, "Primary");
    let s = mk(|r| &r.secondary, "Secondary");
    let mut t = TextTable::new(&["Arm", "90th %ile worst-5s loss (%)", "Paper"]);
    t.row(&[d.0.clone(), format!("{:.1}", d.1), "1.2%".into()]);
    t.row(&[p.0.clone(), format!("{:.1}", p.1), "11.6%".into()]);
    t.row(&[s.0.clone(), format!("{:.1}", s.1), "52%".into()]);
    println!("{}", t.render());

    // PCR over the three arms (the 4.9% → 0% headline).
    let q = QualityParams::default();
    let pcr = |pick: fn(&EvalRun) -> &diversifi::RunReport| q.pcr_pct(&arm_traces(&runs, pick));
    println!(
        "PCR: primary {:.1}% [paper 4.9%], secondary {:.1}% [paper 26.2%], DiversiFi {:.1}% [paper 0%]",
        pcr(|r| &r.primary),
        pcr(|r| &r.secondary),
        pcr(|r| &r.diversifi)
    );
    save(ctx, "fig8", &[d, p, s]);
}

type ArmPick = fn(&EvalRun) -> &diversifi::RunReport;

fn fig9(ctx: &mut Ctx) {
    let runs: Vec<EvalRun> = ctx.eval_corpus().to_vec();
    let arms: [(&str, ArmPick); 3] = [
        ("Primary", |r| &r.primary),
        ("Secondary", |r| &r.secondary),
        ("DiversiFi", |r| &r.diversifi),
    ];
    let mut t = TextTable::new(&["Arm", "Mean lost/call", "Mean bursty/call"]);
    let mut artifacts = Vec::new();
    for (label, pick) in arms {
        let traces = arm_traces(&runs, pick);
        let (lost, bursty) = metrics::mean_loss_burst_split(&traces, DEFAULT_DEADLINE);
        let hist = metrics::burst_histogram(&traces, DEFAULT_DEADLINE);
        t.row(&[label.into(), format!("{lost:.1}"), format!("{bursty:.1}")]);
        artifacts.push((label, lost, bursty, hist.per_call_series(traces.len() as u64)));
    }
    println!("{}", t.render());
    println!("(paper: primary 44.3 lost / 35.9 bursty; DiversiFi 2.7 / 0.9)");
    save(ctx, "fig9", &artifacts);
}

fn fig10(ctx: &mut Ctx) {
    let n = (26 / ctx.scale.corpus_divisor).max(4);
    let pairs = run_tcp_corpus(n, ctx.threads, ctx.seed ^ 0x10);
    let diffs_kbps: Vec<f64> =
        pairs.iter().map(|p| (p.off_bps - p.on_bps) / 1000.0).collect();
    let off = mean(&pairs.iter().map(|p| p.off_bps).collect::<Vec<_>>());
    let on = mean(&pairs.iter().map(|p| p.on_bps).collect::<Vec<_>>());
    let e = Ecdf::new(diffs_kbps.clone());
    println!(
        "TCP throughput: DiversiFi off {:.2} Mbps, on {:.2} Mbps → {:.1}% impact [paper: 4.0 vs 3.9 Mbps, 2.5%]",
        off / 1e6,
        on / 1e6,
        100.0 * (off - on) / off
    );
    println!(
        "Difference distribution (kbps): median {:.0}, p10 {:.0}, p90 {:.0}",
        e.quantile(0.5),
        e.quantile(0.1),
        e.quantile(0.9)
    );
    save(ctx, "fig10", &(diffs_kbps, off, on));
}

fn overhead(ctx: &mut Ctx) {
    let runs: Vec<EvalRun> = ctx.eval_corpus().to_vec();
    let o = overhead_summary(&runs);
    let mut t = TextTable::new(&["Metric", "Measured", "Paper"]);
    t.row(&["Primary-only loss (%)".into(), format!("{:.2}", o.primary_loss_pct), "1.97".into()]);
    t.row(&["DiversiFi residual loss (%)".into(), format!("{:.2}", o.diversifi_loss_pct), "0.05".into()]);
    t.row(&["Wasteful duplication (%)".into(), format!("{:.2}", o.wasteful_dup_pct), "0.62".into()]);
    t.row(&["All secondary-air tx (%)".into(), format!("{:.2}", o.secondary_air_pct), "~2-3 (vs 100 naive)".into()]);
    println!("{}", t.render());
    save(ctx, "overhead", &o);
}

fn table3(ctx: &mut Ctx) {
    let samples = 100 / ctx.scale.corpus_divisor.clamp(1, 4);
    let ap = table3_row(&measure_switch_delays(RunMode::DiversifiCustomAp, samples, ctx.seed ^ 0x73));
    let mb = table3_row(&measure_switch_delays(RunMode::DiversifiMiddlebox, samples, ctx.seed ^ 0x73));
    let mut t = TextTable::new(&["Scheme", "Total", "Switching", "Network", "Queuing"]);
    t.row(&[
        "Middlebox".into(),
        format!("{:.1} [5.2]", mb.total_ms),
        format!("{:.1} [2.3]", mb.switching_ms),
        format!("{:.1} [2]", mb.network_ms),
        format!("{:.1} [0.9]", mb.queuing_ms),
    ]);
    t.row(&[
        "AP".into(),
        format!("{:.1} [2.8]", ap.total_ms),
        format!("{:.1} [2.3]", ap.switching_ms),
        format!("{:.1} [0.5]", ap.network_ms),
        "- [-]".into(),
    ]);
    println!("{}", t.render());
    println!("(ms; [paper values] — Table 3)");
    save(ctx, "table3", &(ap, mb));
}

fn mbox_scale(ctx: &mut Ctx) {
    let sweep = middlebox_scalability(&[0, 100, 250, 500, 750, 1000]);
    let mut t = TextTable::new(&["Concurrent streams", "Recovery delay (ms)"]);
    for (n, ms) in &sweep {
        t.row(&[n.to_string(), format!("{ms:.2}")]);
    }
    println!("{}", t.render());
    let delta = sweep.last().unwrap().1 - sweep.first().unwrap().1;
    println!("Δ(0 → 1000 streams) = {delta:.2} ms [paper: 1.1 ms]");
    save(ctx, "mbox_scale", &sweep);
}


fn ablations(ctx: &mut Ctx) {
    use diversifi::ablation;
    let n = (16 / ctx.scale.corpus_divisor).max(4);

    println!("Queue discipline (residual loss % / wasteful dup %):");
    let mut t = TextTable::new(&["Discipline", "Loss (%)", "Waste (%)", "Visits"]);
    let qrows = ablation::queue_discipline_ablation(n, ctx.seed ^ 0xAB);
    for (label, p) in &qrows {
        t.row(&[label.clone(), format!("{:.2}", p.loss_pct), format!("{:.2}", p.waste_pct), format!("{:.1}", p.visits)]);
    }
    println!("{}", t.render());

    println!("Wake batch:");
    let mut t = TextTable::new(&["Batch", "Loss (%)", "Waste (%)"]);
    let brows = ablation::wake_batch_ablation(n, ctx.seed ^ 0xAC);
    for p in &brows {
        t.row(&[format!("{:.0}", p.x), format!("{:.2}", p.loss_pct), format!("{:.2}", p.waste_pct)]);
    }
    println!("{}", t.render());

    println!("Visit safety margin (ms):");
    let mut t = TextTable::new(&["Margin", "Loss (%)", "Waste (%)"]);
    let mrows = ablation::visit_margin_ablation(n, ctx.seed ^ 0xAD);
    for p in &mrows {
        t.row(&[format!("{:.0}", p.x), format!("{:.2}", p.loss_pct), format!("{:.2}", p.waste_pct)]);
    }
    println!("{}", t.render());

    println!("Keepalive period (s) vs keepalive visits:");
    let mut t = TextTable::new(&["Period", "Keepalive visits", "Waste (%)"]);
    let krows = ablation::keepalive_ablation(n, ctx.seed ^ 0xAE);
    for p in &krows {
        t.row(&[format!("{:.0}", p.x), format!("{:.1}", p.visits), format!("{:.2}", p.waste_pct)]);
    }
    println!("{}", t.render());
    save(ctx, "ablations", &(qrows, brows, mrows, krows));
}

fn fec(ctx: &mut Ctx) {
    use diversifi::twonic::{run_fec, run_single, run_two_nic};
    let mut spec = StreamSpec::voip();
    spec.duration = SimDuration::from_secs(ctx.scale.call_secs);
    let n = (40 / ctx.scale.corpus_divisor).max(6);
    // Each seed's four schemes share one SeedFactory (paired channel
    // realisations); seeds are independent, so they fan out on the runner.
    let rows = SweepRunner::available().run_indexed(n, |i| {
        let seeds = SeedFactory::new(ctx.seed ^ 0xFEC ^ i as u64);
        let mut a = LinkConfig::office(Channel::CH1, 26.0);
        a.ge = GeParams::weak_link();
        let mut b = LinkConfig::office(Channel::CH11, 30.0);
        b.ge = GeParams::weak_link();
        let base = run_single(&spec, &a, &seeds, 0).trace.loss_rate(DEFAULT_DEADLINE) * 100.0;
        let fec4 = run_fec(&spec, &a, &seeds, 4).loss_rate(DEFAULT_DEADLINE) * 100.0;
        let fec8 = run_fec(&spec, &a, &seeds, 8).loss_rate(DEFAULT_DEADLINE) * 100.0;
        let two = run_two_nic(&diversifi::TwoNicScenario::new(spec, a, b), &seeds);
        let cross = two.a.trace.merged_with(&two.b.trace).loss_rate(DEFAULT_DEADLINE) * 100.0;
        (base, fec4, fec8, cross)
    });
    let base: Vec<f64> = rows.iter().map(|r| r.0).collect();
    let fec4: Vec<f64> = rows.iter().map(|r| r.1).collect();
    let fec8: Vec<f64> = rows.iter().map(|r| r.2).collect();
    let cross: Vec<f64> = rows.iter().map(|r| r.3).collect();
    let mut t = TextTable::new(&["Scheme", "Mean loss (%)", "Overhead (extra tx)"]);
    t.row(&["Single link".into(), format!("{:.2}", mean(&base)), "0%".into()]);
    t.row(&["FEC k=4".into(), format!("{:.2}", mean(&fec4)), "25% always".into()]);
    t.row(&["FEC k=8".into(), format!("{:.2}", mean(&fec8)), "12.5% always".into()]);
    t.row(&["Cross-link (2 NIC)".into(), format!("{:.2}", mean(&cross)), "100% naive / ~1% DiversiFi".into()]);
    println!("{}", t.render());
    println!("(single-link coding cannot beat cross-link diversity under bursty loss — §2)");
    save(ctx, "fec", &(base, fec4, fec8, cross));
}

fn crosstech(ctx: &mut Ctx) {
    use diversifi::crosstech::{run_cross_technology, CellularConfig};
    use diversifi::twonic::run_two_nic;
    use diversifi_wifi::MicrowaveOven;
    let mut spec = StreamSpec::voip();
    spec.duration = SimDuration::from_secs(ctx.scale.call_secs);
    let n = (20 / ctx.scale.corpus_divisor).max(4);
    let rows = SweepRunner::available().run_indexed(n, |i| {
        let seeds = SeedFactory::new(ctx.seed ^ 0xC7 ^ i as u64);
        let oven = MicrowaveOven::default();
        let mut a = LinkConfig::office(Channel::CH6, 14.0);
        a.microwave = Some(oven);
        let mut b = LinkConfig::office(Channel::CH11, 18.0);
        b.microwave = Some(oven);
        let two = run_two_nic(&diversifi::TwoNicScenario::new(spec, a.clone(), b), &seeds);
        let ww = two.a.trace.merged_with(&two.b.trace).loss_rate(DEFAULT_DEADLINE) * 100.0;
        let xt = run_cross_technology(&spec, &a, &CellularConfig::default(), &seeds);
        (ww, xt.merged.loss_rate(DEFAULT_DEADLINE) * 100.0)
    });
    let ww: Vec<f64> = rows.iter().map(|r| r.0).collect();
    let wc: Vec<f64> = rows.iter().map(|r| r.1).collect();
    let mut t = TextTable::new(&["Replication", "Mean loss under microwave (%)"]);
    t.row(&["WiFi + WiFi (both 2.4 GHz)".into(), format!("{:.2}", mean(&ww))]);
    t.row(&["WiFi + LTE (cross-technology)".into(), format!("{:.2}", mean(&wc))]);
    println!("{}", t.render());
    println!("(§4.4's deferred experiment: cross-technology diversity escapes band-wide interference)");
    save(ctx, "crosstech", &(ww, wc));
}

fn uplink(ctx: &mut Ctx) {
    use diversifi::uplink::{run_uplink, UplinkMode};
    let mut spec = StreamSpec::voip();
    spec.duration = SimDuration::from_secs(ctx.scale.call_secs);
    let n = (20 / ctx.scale.corpus_divisor).max(4);
    let rows = SweepRunner::available().run_indexed(n, |i| {
        let seeds = SeedFactory::new(ctx.seed ^ 0x0B ^ i as u64);
        let mut a = LinkConfig::office(Channel::CH1, 24.0);
        a.ge = GeParams::weak_link();
        let mut b = LinkConfig::office(Channel::CH11, 28.0);
        b.ge = GeParams::weak_link();
        let (ts, _) = run_uplink(&spec, &a, &b, &seeds, UplinkMode::SingleLink);
        let (td, st) = run_uplink(&spec, &a, &b, &seeds, UplinkMode::Diversifi);
        (
            ts.loss_rate(DEFAULT_DEADLINE) * 100.0,
            td.loss_rate(DEFAULT_DEADLINE) * 100.0,
            st.recovered,
            st.primary_failures,
        )
    });
    let single: Vec<f64> = rows.iter().map(|r| r.0).collect();
    let dvf: Vec<f64> = rows.iter().map(|r| r.1).collect();
    let recovered: u64 = rows.iter().map(|r| r.2).sum();
    let failures: u64 = rows.iter().map(|r| r.3).sum();
    let mut t = TextTable::new(&["Uplink mode", "Mean loss (%)"]);
    t.row(&["Single link".into(), format!("{:.2}", mean(&single))]);
    t.row(&["DiversiFi (retransmit on secondary)".into(), format!("{:.2}", mean(&dvf))]);
    println!("{}", t.render());
    println!(
        "Recovered {recovered}/{failures} primary failures; zero wasted duplicates \
         (the client knows each frame's fate from the MAC ACK — §5's 'easier direction')"
    );
    save(ctx, "uplink", &(single, dvf));
}

fn multiclient(ctx: &mut Ctx) {
    use diversifi::multiworld::fleet_sweep;
    let mut spec = StreamSpec::voip();
    spec.duration = SimDuration::from_secs(ctx.scale.call_secs.min(60));
    let mut t = TextTable::new(&["Fleet size", "Mean loss baseline (%)", "Mean loss DiversiFi (%)", "Secondary air tx / client"]);
    let mut artifact = Vec::new();
    let rows = fleet_sweep(&[2, 6, 12], spec, |n| ctx.seed ^ 0x31 ^ n as u64);
    for (n, base, dvf) in rows {
        let per_client = dvf.secondary_air_tx as f64 / n as f64;
        t.row(&[
            n.to_string(),
            format!("{:.2}", base.mean_loss() * 100.0),
            format!("{:.2}", dvf.mean_loss() * 100.0),
            format!("{per_client:.0}"),
        ]);
        artifact.push((n, base.mean_loss(), dvf.mean_loss(), per_client));
    }
    println!("{}", t.render());
    println!("(everyone running DiversiFi at once: recovery still works under shared airtime)");
    save(ctx, "multiclient", &artifact);
}

/// `--resilience` — the deterministic fault catalogue, run paired: each
/// seed simulates a primary-only baseline and a DiversiFi arm on the same
/// channel realisation with the same fault plan. The report covers both
/// sides of the degradation contract: what the faults cost (loss,
/// worst-window loss, MOS) and how recovery behaved (MTTR from the fault
/// engine, degraded-mode time, probes, duplicate overhead).
/// Per-seed no-amplification gate for `--resilience`, in loss / tick-miss
/// percentage points: DiversiFi beyond `baseline + 2pp` on any paired
/// realisation is a hard failure (non-zero exit). Small sub-gate jitter
/// between the arms is expected on weak paired links; a 2pp excursion is
/// not.
const AMPLIFICATION_GATE_PP: f64 = 2.0;

fn resilience(ctx: &mut Ctx) -> i32 {
    use diversifi::world::{World, WorldConfig};
    use diversifi_simcore::{FaultKind, FaultPlan, SimTime, WorkerArena};
    use diversifi_voip::emodel::mos_from_stats;
    use diversifi_voip::{burst_ratio, CodecModel, StreamTrace};
    use diversifi_wifi::RealizationCache;

    // Per-worker scratch of both sweeps below: a task's two arms share one
    // seed, so they share one pair of realisations.
    let paired_scratch = || (RealizationCache::new(2), WorkerArena::new());
    let at = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
    let ms = SimDuration::from_millis;
    let scenarios: Vec<(&str, RunMode, FaultPlan)> = vec![
        (
            "primary_ap_reboot",
            RunMode::DiversifiCustomAp,
            FaultPlan::single_ap_reboot(0, at(8), SimDuration::from_secs(2)),
        ),
        (
            "secondary_ap_flap",
            RunMode::DiversifiCustomAp,
            FaultPlan::none().with(
                at(6),
                FaultKind::ApFlap { ap: 1, down: ms(1200), up: ms(1800), cycles: 3 },
            ),
        ),
        (
            "secondary_blackout",
            RunMode::DiversifiCustomAp,
            FaultPlan::single_ap_reboot(1, at(5), SimDuration::from_secs(10)),
        ),
        (
            "middlebox_restart",
            RunMode::DiversifiMiddlebox,
            FaultPlan::none().with(
                at(8),
                FaultKind::MiddleboxRestart { outage: ms(1500), reinstall_delay: ms(400) },
            ),
        ),
        (
            "brownout",
            RunMode::DiversifiCustomAp,
            FaultPlan::none().with(
                at(6),
                FaultKind::Brownout {
                    duration: SimDuration::from_secs(4),
                    extra_delay: ms(12),
                    control_loss: 0.6,
                },
            ),
        ),
        (
            "uplink_outage",
            RunMode::DiversifiCustomAp,
            FaultPlan::none()
                .with(at(8), FaultKind::UplinkOutage { duration: SimDuration::from_secs(2) }),
        ),
        (
            "interference_storm",
            RunMode::DiversifiCustomAp,
            FaultPlan::none().with(
                at(6),
                FaultKind::InterferenceStorm {
                    duration: SimDuration::from_secs(4),
                    erasure: 0.35,
                    link: None,
                },
            ),
        ),
    ];
    // Every fault above clears by t=16s; the clamp keeps a healthy tail for
    // recovery even at `--quick` scale.
    let n = (12 / ctx.scale.corpus_divisor).max(4) as u64;
    let secs = ctx.scale.call_secs.clamp(20, 32);
    let seed = ctx.seed;

    struct Rec {
        si: usize,
        loss_b: f64,
        loss_d: f64,
        mttr_ms: Vec<f64>,
        unrecovered: usize,
        degraded_ms: f64,
        probes: u64,
        air: u64,
        dups: u64,
        trace_b: StreamTrace,
        trace_d: StreamTrace,
    }

    let tasks: Vec<(usize, u64)> =
        (0..scenarios.len()).flat_map(|si| (0..n).map(move |k| (si, k))).collect();
    let sweep = SweepRunner::new(ctx.threads);
    let rows = sweep.run_indexed_with(tasks.len(), paired_scratch, |i, (cache, arena)| {
        let (si, k) = tasks[i];
        let (_, mode, plan) = &scenarios[si];
        let mut a = LinkConfig::office(Channel::CH1, 22.0);
        a.ge = GeParams::weak_link();
        let mut b = LinkConfig::office(Channel::CH11, 28.0);
        b.ge = GeParams::weak_link();
        let mut base = WorldConfig::testbed(a, b);
        base.mode = RunMode::PrimaryOnly;
        base.spec.duration = SimDuration::from_secs(secs);
        base.faults = plan.clone();
        let mut dvf = base.clone();
        dvf.mode = *mode;
        let s = SeedFactory::new(seed ^ 0x5E511E ^ ((si as u64) << 32) ^ k);
        let rb = World::new_cached_in(&base, &s, cache, arena).run_in(arena);
        let rd = World::new_cached_in(&dvf, &s, cache, arena).run_in(arena);
        Rec {
            si,
            loss_b: rb.trace.loss_rate(DEFAULT_DEADLINE) * 100.0,
            loss_d: rd.trace.loss_rate(DEFAULT_DEADLINE) * 100.0,
            mttr_ms: rd
                .fault_outcomes
                .iter()
                .filter_map(|o| o.mttr())
                .map(|d| d.as_millis_f64())
                .collect(),
            unrecovered: rd.fault_outcomes.iter().filter(|o| o.recovered_at.is_none()).count(),
            degraded_ms: rd.alg_stats.degraded_ns as f64 / 1e6,
            probes: rd.alg_stats.probe_visits,
            air: rd.secondary_air_tx,
            dups: rd.alg_stats.duplicate_packets,
            trace_b: rb.trace,
            trace_d: rd.trace,
        }
    });

    // MOS from the trace's own loss/burst structure, with a nominal 60 ms
    // of non-network (codec + playout) delay on both arms.
    let mos = |tr: &StreamTrace| {
        let ind = tr.loss_indicator(DEFAULT_DEADLINE);
        let mut bursts = Vec::new();
        let mut run = 0usize;
        for v in &ind {
            if *v > 0.0 {
                run += 1;
            } else if run > 0 {
                bursts.push(run);
                run = 0;
            }
        }
        if run > 0 {
            bursts.push(run);
        }
        let loss = tr.loss_rate(DEFAULT_DEADLINE);
        let br = burst_ratio(&bursts, loss);
        mos_from_stats(&CodecModel::g711_plc(), loss * 100.0, br, 60.0).mos
    };

    let window = SimDuration::from_secs(5);
    let mut quality_t = TextTable::new(&[
        "Scenario",
        "Loss base (%)",
        "Loss DVF (%)",
        "p90 worst-5s base (%)",
        "p90 worst-5s DVF (%)",
        "MOS base",
        "MOS DVF",
    ]);
    let mut recovery_t = TextTable::new(&[
        "Scenario",
        "Mean MTTR (ms)",
        "Unrecovered",
        "Degraded (ms/run)",
        "Probes/run",
        "2nd-air tx/run",
        "Dups/run",
    ]);
    let mut artifact = Vec::new();
    let (mut pairs, mut amplified) = (0usize, 0usize);
    let mut gate_failures: Vec<String> = Vec::new();
    for (si, (label, _, _)) in scenarios.iter().enumerate() {
        let rs: Vec<&Rec> = rows.iter().filter(|r| r.si == si).collect();
        let fvec = |f: &dyn Fn(&Rec) -> f64| rs.iter().map(|r| f(r)).collect::<Vec<f64>>();
        let lb = mean(&fvec(&|r| r.loss_b));
        let ld = mean(&fvec(&|r| r.loss_d));
        let tb: Vec<StreamTrace> = rs.iter().map(|r| r.trace_b.clone()).collect();
        let td: Vec<StreamTrace> = rs.iter().map(|r| r.trace_d.clone()).collect();
        let w5b = metrics::worst_window_ecdf(&tb, window, DEFAULT_DEADLINE).quantile(0.9);
        let w5d = metrics::worst_window_ecdf(&td, window, DEFAULT_DEADLINE).quantile(0.9);
        let mos_b = mean(&tb.iter().map(&mos).collect::<Vec<_>>());
        let mos_d = mean(&td.iter().map(&mos).collect::<Vec<_>>());
        let mttrs: Vec<f64> = rs.iter().flat_map(|r| r.mttr_ms.iter().copied()).collect();
        let mttr = if mttrs.is_empty() { f64::NAN } else { mean(&mttrs) };
        let unrecovered: usize = rs.iter().map(|r| r.unrecovered).sum();
        let degraded = mean(&fvec(&|r| r.degraded_ms));
        let probes = mean(&fvec(&|r| r.probes as f64));
        let air = mean(&fvec(&|r| r.air as f64));
        let dups = mean(&fvec(&|r| r.dups as f64));
        pairs += rs.len();
        amplified += rs.iter().filter(|r| r.loss_d > r.loss_b).count();
        for r in rs.iter().filter(|r| r.loss_d > r.loss_b + AMPLIFICATION_GATE_PP) {
            gate_failures.push(format!(
                "[voip] {label}: loss {:.2}% vs primary-only {:.2}% (gate {AMPLIFICATION_GATE_PP}pp)",
                r.loss_d, r.loss_b
            ));
        }
        quality_t.row(&[
            label.to_string(),
            format!("{lb:.2}"),
            format!("{ld:.2}"),
            format!("{w5b:.1}"),
            format!("{w5d:.1}"),
            format!("{mos_b:.2}"),
            format!("{mos_d:.2}"),
        ]);
        recovery_t.row(&[
            label.to_string(),
            if mttr.is_nan() { "-".into() } else { format!("{mttr:.0}") },
            unrecovered.to_string(),
            format!("{degraded:.0}"),
            format!("{probes:.1}"),
            format!("{air:.0}"),
            format!("{dups:.1}"),
        ]);
        artifact.push(serde_json::json!({
            "scenario": label,
            "loss_base_pct": lb,
            "loss_diversifi_pct": ld,
            "p90_worst5s_base_pct": w5b,
            "p90_worst5s_diversifi_pct": w5d,
            "mos_base": mos_b,
            "mos_diversifi": mos_d,
            "mean_mttr_ms": if mttr.is_nan() { None } else { Some(mttr) },
            "unrecovered_faults": unrecovered,
            "mean_degraded_ms": degraded,
            "mean_probe_visits": probes,
            "mean_secondary_air_tx": air,
            "mean_duplicates": dups,
            "per_seed_loss_pct": rs.iter().map(|r| (r.loss_b, r.loss_d)).collect::<Vec<_>>(),
        }));
    }
    println!("[voip] Fault impact ({n} seeds/scenario, {secs} s calls, paired realisations):");
    println!("{}", quality_t.render());
    println!("[voip] Recovery behaviour (DiversiFi arm):");
    println!("{}", recovery_t.render());
    println!(
        "[voip] DiversiFi loss <= primary-only loss on {}/{pairs} scenario-seed pairs",
        pairs - amplified
    );

    // ---- FPS workload pass: the same fault catalogue driven through the
    // cloud-gaming workload. Quality is per-tick deadline compliance (state
    // downlink + input uplink) and the deadline-based session QoE instead
    // of MOS.
    use diversifi_voip::{FpsConfig, WorkloadKind};
    let mut fps_knobs = FpsConfig::office();
    fps_knobs.duration = SimDuration::from_secs(secs);

    struct FpsRec {
        si: usize,
        miss_b: f64,
        miss_d: f64,
        input_miss_d: f64,
        blackout_d: u64,
        outage_b: u64,
        outage_d: u64,
        qoe_b: f64,
        qoe_d: f64,
    }

    let fps_rows = sweep.run_indexed_with(tasks.len(), paired_scratch, |i, (cache, arena)| {
        let (si, k) = tasks[i];
        let (_, mode, plan) = &scenarios[si];
        let mut a = LinkConfig::office(Channel::CH1, 22.0);
        a.ge = GeParams::weak_link();
        let mut b = LinkConfig::office(Channel::CH11, 28.0);
        b.ge = GeParams::weak_link();
        let mut base = WorldConfig::testbed(a, b);
        base.mode = RunMode::PrimaryOnly;
        base.set_workload(WorkloadKind::Fps(fps_knobs));
        base.faults = plan.clone();
        let mut dvf = base.clone();
        dvf.mode = *mode;
        let s = SeedFactory::new(seed ^ 0xF5511E ^ ((si as u64) << 32) ^ k);
        let mut run = |cfg: &WorldConfig| {
            let r = World::new_cached_in(cfg, &s, cache, arena).run_in(arena);
            *r.workload.fps().expect("fps outcome")
        };
        let ob = run(&base);
        let od = run(&dvf);
        FpsRec {
            si,
            miss_b: 100.0 * ob.state.miss_rate(),
            miss_d: 100.0 * od.state.miss_rate(),
            input_miss_d: 100.0 * od.input.miss_rate(),
            blackout_d: od.input_blackout,
            outage_b: ob.state.longest_outage_ticks,
            outage_d: od.state.longest_outage_ticks,
            qoe_b: ob.qoe,
            qoe_d: od.qoe,
        }
    });

    let mut fps_t = TextTable::new(&[
        "Scenario",
        "Tick miss base (%)",
        "Tick miss DVF (%)",
        "Input miss DVF (%)",
        "Blackout ticks/run",
        "Worst outage base/DVF (ticks)",
        "QoE base",
        "QoE DVF",
    ]);
    let mut fps_artifact = Vec::new();
    let (mut fps_pairs, mut fps_amplified) = (0usize, 0usize);
    for (si, (label, _, _)) in scenarios.iter().enumerate() {
        let rs: Vec<&FpsRec> = fps_rows.iter().filter(|r| r.si == si).collect();
        let fvec = |f: &dyn Fn(&FpsRec) -> f64| rs.iter().map(|r| f(r)).collect::<Vec<f64>>();
        let mb = mean(&fvec(&|r| r.miss_b));
        let md = mean(&fvec(&|r| r.miss_d));
        let imd = mean(&fvec(&|r| r.input_miss_d));
        let blackout = mean(&fvec(&|r| r.blackout_d as f64));
        let ob = mean(&fvec(&|r| r.outage_b as f64));
        let od = mean(&fvec(&|r| r.outage_d as f64));
        let qb = mean(&fvec(&|r| r.qoe_b));
        let qd = mean(&fvec(&|r| r.qoe_d));
        fps_pairs += rs.len();
        fps_amplified += rs.iter().filter(|r| r.miss_d > r.miss_b).count();
        for r in rs.iter().filter(|r| r.miss_d > r.miss_b + AMPLIFICATION_GATE_PP) {
            gate_failures.push(format!(
                "[fps] {label}: tick miss {:.2}% vs primary-only {:.2}% (gate {AMPLIFICATION_GATE_PP}pp)",
                r.miss_d, r.miss_b
            ));
        }
        fps_t.row(&[
            label.to_string(),
            format!("{mb:.2}"),
            format!("{md:.2}"),
            format!("{imd:.2}"),
            format!("{blackout:.1}"),
            format!("{ob:.1} / {od:.1}"),
            format!("{qb:.1}"),
            format!("{qd:.1}"),
        ]);
        fps_artifact.push(serde_json::json!({
            "scenario": label,
            "tick_miss_base_pct": mb,
            "tick_miss_diversifi_pct": md,
            "input_miss_diversifi_pct": imd,
            "mean_input_blackout_ticks": blackout,
            "worst_outage_base_ticks": ob,
            "worst_outage_diversifi_ticks": od,
            "qoe_base": qb,
            "qoe_diversifi": qd,
            "per_seed_tick_miss_pct": rs.iter().map(|r| (r.miss_b, r.miss_d)).collect::<Vec<_>>(),
        }));
    }
    println!(
        "[fps] Fault impact ({n} seeds/scenario, {secs} s sessions, {} ms ticks, paired realisations):",
        fps_knobs.tick.as_millis()
    );
    println!("{}", fps_t.render());
    println!(
        "[fps] DiversiFi tick miss <= primary-only on {}/{fps_pairs} scenario-seed pairs",
        fps_pairs - fps_amplified
    );
    save(
        ctx,
        "resilience",
        &serde_json::json!({
            "voip": artifact,
            "fps": fps_artifact,
            "amplification_gate_pp": AMPLIFICATION_GATE_PP,
            "gate_failures": gate_failures,
        }),
    );
    if gate_failures.is_empty() {
        0
    } else {
        eprintln!(
            "[resilience] FAIL: {} no-amplification row(s) beyond the {AMPLIFICATION_GATE_PP}pp gate:",
            gate_failures.len()
        );
        for f in &gate_failures {
            eprintln!("[resilience]   {f}");
        }
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_timeline_writes_both_files_and_returns_err_when_blocked() {
        let dir =
            std::env::temp_dir().join(format!("repro-timeline-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let merged = MergedTelemetry::default();
        // Parent directories are created on the way.
        let chrome = dir.join("a/b/trace.json");
        let jsonl = dir.join("a/b/trace.json.jsonl");
        write_timeline(&merged, chrome.to_str().unwrap(), jsonl.to_str().unwrap()).unwrap();
        assert!(std::fs::read_to_string(&chrome).unwrap().contains("\"traceEvents\""));
        assert!(jsonl.exists());
        // A regular file where a parent directory must go blocks the write.
        std::fs::write(dir.join("file"), "").unwrap();
        let blocked = dir.join("file/trace.json");
        let blocked_jsonl = dir.join("file/trace.json.jsonl");
        assert!(write_timeline(&merged, blocked.to_str().unwrap(), blocked_jsonl.to_str().unwrap())
            .is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flag_value_parses_or_names_the_flag() {
        assert_eq!(flag_value::<u64>("--seed", Some("42".into()), "an unsigned integer"), Ok(42));
        assert_eq!(
            flag_value::<String>("--out", Some("dir".into()), "a directory"),
            Ok("dir".to_string())
        );
        assert_eq!(
            flag_value::<u64>("--seed", None, "an unsigned integer"),
            Err("error: --seed needs an unsigned integer".to_string())
        );
        assert_eq!(
            flag_value::<usize>("--flight-topk", Some("-1".into()), "an unsigned integer"),
            Err("error: --flight-topk needs an unsigned integer".to_string())
        );
        assert_eq!(
            flag_value::<String>("--chaos", None, SCENARIO_FILE),
            Err("error: --chaos needs a scenario file (.json or .toml)".to_string())
        );
    }

    /// A fresh scratch directory for one bench-compare test.
    fn bench_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("repro-bench-compare-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    #[test]
    fn bench_compare_reports_unreadable_file() {
        let path = bench_dir("unreadable").join("missing.json");
        let path = path.to_string_lossy().into_owned();
        let err = bench_compare(&path, std::slice::from_ref(&path)).unwrap_err();
        assert!(err.starts_with("cannot read "), "{err}");
    }

    #[test]
    fn bench_compare_reports_bad_json_line() {
        let path = bench_dir("bad-json").join("fresh.json");
        std::fs::write(&path, "{\"build\":\"release\",\n").unwrap();
        let path = path.to_string_lossy().into_owned();
        let err = bench_compare(&path, std::slice::from_ref(&path)).unwrap_err();
        assert!(err.starts_with("bad JSON line in "), "{err}");
    }

    #[test]
    fn bench_compare_reports_missing_fields() {
        let full = r#"{"build":"release","name":"g/a","lo_ns":5.0}"#;
        assert_eq!(
            parse_bench_line("f.json", full),
            Ok(("release".to_string(), "g/a".to_string(), 5.0))
        );
        for (line, missing) in [
            (r#"{"build":"release","lo_ns":5.0}"#, "\"name\""),
            (r#"{"name":"g/a","lo_ns":5.0}"#, "\"build\" tag"),
            (r#"{"build":"release","name":"g/a"}"#, "\"lo_ns\""),
        ] {
            let err = parse_bench_line("f.json", line).unwrap_err();
            assert!(err.contains(&format!("carries no {missing}")), "{err}");
        }
    }

    #[test]
    fn bench_compare_reports_no_baselines() {
        let dir = bench_dir("no-baselines");
        std::fs::write(dir.join("other.json"), "").unwrap();
        let err = default_bench_baselines(&dir).unwrap_err();
        assert!(err.starts_with("no BENCH_*.json baselines found"), "{err}");
        std::fs::write(dir.join("BENCH_x.json"), "").unwrap();
        let found = default_bench_baselines(&dir).unwrap();
        assert_eq!(
            found,
            vec![dir.join("BENCH_x.json").to_string_lossy().into_owned()]
        );
    }

    #[test]
    fn bench_compare_reports_unlistable_directory() {
        let dir = bench_dir("unlistable").join("absent");
        let err = default_bench_baselines(&dir).unwrap_err();
        assert!(err.starts_with("cannot list "), "{err}");
    }
}
