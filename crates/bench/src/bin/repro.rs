//! `repro` — regenerate every table and figure of the DiversiFi paper, and
//! run the scenario-file campaigns.
//!
//! ```text
//! repro [--quick] [--seed N] [--out DIR] [--capture DIR] [EXPERIMENT...]
//! repro campaign FILE [--out DIR] [--flight-topk N] [--capture DIR]
//! repro chaos FILE [--out DIR] [--plans N] [--corpus DIR] [--canary] [--capture DIR]
//! repro validate FILE...
//! repro status
//! ```
//! `repro --help` explains each form. A subcommand parses only its own
//! flags, and nothing runs until they all parse. A bad argument, an
//! unreadable file or an artifact that cannot be written ends the run with
//! `error: …` and exit code 2; a failed verdict (chaos violations, the
//! resilience gate) exits 1.

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
use diversifi_wifi::{Channel, GeParams, LinkConfig, RealizationCache};
use std::path::Path;

struct Ctx {
    scale: Scale,
    seed: u64,
    out_dir: String,
    /// Every artifact that could not be written, with its IO error.
    failed: Vec<String>,
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

/// `repro --help`: one usage block per form.
const HELP: &str = "\
repro [--quick] [--seed N] [--out DIR] [--capture DIR] [EXPERIMENT...]
  Regenerate the paper's tables and figures, one JSON artifact each under
  --out (default results). --quick runs them at reduced scale; --seed N
  (decimal or 0x hex) reseeds them. --capture DIR traces one instrumented
  §6 sweep into DIR/telemetry.json (Perfetto), DIR/telemetry.jsonl and
  DIR/metrics.txt (events need a `--features trace` build); given with no
  experiment, it runs only that capture. With neither, `all` runs.
  experiments: table1 table2 table3 fig1 fig2a fig2b fig2c fig2d fig2e fig3
  fig4 fig5 fig6 fig8 fig9 fig10 overhead mbox-scale (`all`), ablations fec
  crosstech uplink multiclient resilience (`extensions`). `resilience`
  exits 1 if DiversiFi's loss or tick miss exceeds primary-only's by more
  than 2pp on any paired seed.

repro campaign FILE [--out DIR] [--flight-topk N] [--capture DIR]
  Run a scenario file's (.json or .toml) sharded, checkpointable fleet
  campaign; write its JSON report and campaign-health JSONL under --out.
  --flight-topk N keeps the N worst calls (overrides the scenario's
  [observe] section); --capture DIR re-simulates them (4 if N is 0) into
  DIR/flight_<scenario>.json (Perfetto) and .jsonl.

repro chaos FILE [--out DIR] [--plans N] [--corpus DIR] [--canary] [--capture DIR]
  Fuzz seeded fault plans against the paired no-amplification, MTTR and
  engine-panic oracles (the scenario's [chaos] section sets the budget),
  shrink every violation to a minimal reproducer, write the JSON report
  under --out, and exit 1 on any violation. --plans N overrides the plan
  count (0 replays the corpus only); --corpus DIR replays every reproducer
  in DIR first and adds the newly shrunk ones; --canary plants a synthetic
  violation that must be found and shrunk (exit 1 if not); --capture DIR
  re-simulates the worst finding into DIR/chaos_<scenario>.json and .jsonl.

repro validate FILE...
  Parse, validate and lower each scenario file and print the lowered
  configuration, or stop at the first field-path error.

repro status
  Print whether the telemetry layer is compiled in.

The scenario subcommands take their seed from the scenario's `seed` field.";

/// The subcommands; any other first argument starts the figures form.
const SUBCOMMANDS: [&str; 4] = ["campaign", "chaos", "validate", "status"];

/// What a subcommand reports: `Ok(true)` when it passed, `Ok(false)` when a
/// verdict failed (exit 1), `Err` when it could not do its job (exit 2).
type Verdict = Result<bool, String>;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{HELP}");
        return;
    }
    let cmd = match args.first() {
        Some(a) if SUBCOMMANDS.contains(&a.as_str()) => args.remove(0),
        _ => String::new(),
    };
    let args = Args { rest: args.into_iter(), cmd };
    let verdict = match args.cmd.as_str() {
        "campaign" => campaign(args),
        "chaos" => chaos(args),
        "validate" => validate(args),
        "status" => status(args),
        _ => figures(args),
    };
    match verdict {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// One subcommand's arguments, consumed left to right.
struct Args {
    rest: std::vec::IntoIter<String>,
    /// The subcommand, empty for the figures form.
    cmd: String,
}

impl Args {
    fn next(&mut self) -> Option<String> {
        self.rest.next()
    }

    /// Take and parse the next argument as `flag`'s value.
    fn value<T: std::str::FromStr>(&mut self, flag: &str, what: &str) -> Result<T, String> {
        flag_value(flag, self.rest.next(), what)
    }

    /// A positional argument: anything that is not a flag.
    fn positional(&self, arg: String) -> Result<String, String> {
        if arg.starts_with('-') {
            Err(unknown_flag(&self.cmd, &arg))
        } else {
            Ok(arg)
        }
    }

    /// The one scenario file of `campaign` or `chaos`.
    fn one_file(&self, mut files: Vec<String>) -> Result<String, String> {
        match files.len() {
            1 => Ok(files.remove(0)),
            0 => Err(format!("`repro {}` needs {SCENARIO_FILE}", self.cmd)),
            _ => Err(format!("`repro {}` takes one scenario file, not {}", self.cmd, files.join(" "))),
        }
    }
}

/// The error for a flag that `repro {cmd}` does not take. `--seed` names
/// what sets the seed of a scenario subcommand instead.
fn unknown_flag(cmd: &str, flag: &str) -> String {
    match cmd {
        "" => format!("unknown flag {flag}"),
        "campaign" | "chaos" | "validate" if flag == "--seed" => format!(
            "--seed is not a flag of `repro {cmd}`: the scenario's `seed` field sets the seed"
        ),
        _ => format!("unknown flag {flag} for `repro {cmd}`"),
    }
}

/// The figures form: run each requested experiment (the paper's tables
/// and figures by default), after the telemetry capture if asked for. An
/// artifact that cannot be written does not stop the run; the rest still
/// run, and the error then names every artifact that failed.
fn figures(mut args: Args) -> Verdict {
    let mut scale = Scale::full();
    let mut seed = 0xD1BE5F1;
    let mut out_dir = DEFAULT_OUT.to_string();
    let mut capture: Option<String> = None;
    let mut wanted = Vec::new();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => scale = Scale::quick(),
            "--seed" => seed = args.value::<SeedArg>(&a, SEED)?.0,
            "--out" => out_dir = args.value(&a, DIR)?,
            "--capture" => capture = Some(args.value(&a, DIR)?),
            _ => wanted.push(experiment_arg(&a)?),
        }
    }
    if wanted.is_empty() && capture.is_none() {
        wanted.push("all".to_string());
    }
    // "all" expands in place to the paper's tables/figures; "extensions"
    // to the beyond-the-paper experiments.
    let mut expanded = Vec::new();
    for w in wanted {
        match w.as_str() {
            "all" => expanded.extend(STANDARD.iter().map(|s| s.to_string())),
            "extensions" => expanded.extend(EXTENSIONS.iter().map(|s| s.to_string())),
            _ => expanded.push(w),
        }
    }
    expanded.dedup();

    let mut ctx =
        Ctx { scale, seed, out_dir, failed: Vec::new(), main_corpus: None, eval_corpus: None };
    if let Some(dir) = &capture {
        telemetry_capture(&mut ctx, dir);
    }
    // Experiments with a pass/fail verdict (resilience's no-amplification
    // rows) fail the run.
    let mut passed = true;
    for exp in expanded {
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
            "resilience" => passed &= resilience(&mut ctx)?,
            other => unreachable!("experiment_arg admitted {other}"),
        }
    }
    if ctx.failed.is_empty() {
        Ok(passed)
    } else {
        Err(ctx.failed.join("; "))
    }
}

/// The paper's tables and figures, in run order (`all`).
const STANDARD: [&str; 18] = [
    "fig1", "table1", "table2", "fig2a", "fig2b", "fig2c", "fig2d", "fig2e", "fig3",
    "fig4", "fig5", "fig6", "fig8", "fig9", "fig10", "overhead", "table3", "mbox-scale",
];

/// The beyond-the-paper experiments (`extensions`).
const EXTENSIONS: [&str; 6] =
    ["ablations", "fec", "crosstech", "uplink", "multiclient", "resilience"];

/// Accept a figures-form argument that is no flag of that form as an
/// experiment name, `all` or `extensions`. Anything else is an error
/// naming it: an unknown flag if it starts with `-`, a subcommand out of
/// place, or an unknown experiment or subcommand.
fn experiment_arg(arg: &str) -> Result<String, String> {
    if arg.starts_with('-') {
        Err(unknown_flag("", arg))
    } else if ["all", "extensions"].contains(&arg)
        || STANDARD.contains(&arg)
        || EXTENSIONS.contains(&arg)
    {
        Ok(arg.to_string())
    } else if SUBCOMMANDS.contains(&arg) {
        Err(format!("the subcommand {arg} must come first: repro {arg} ..."))
    } else {
        Err(format!("unknown experiment or subcommand {arg}"))
    }
}

/// What a scenario-file argument needs, for its error message.
const SCENARIO_FILE: &str = "a scenario file (.json or .toml)";

/// What a directory flag needs.
const DIR: &str = "a directory";

/// What a count flag needs.
const COUNT: &str = "an unsigned integer";

/// Parse the value given after `flag`. A missing or unparsable value is
/// the error `<flag> needs <what>`.
fn flag_value<T: std::str::FromStr>(
    flag: &str,
    value: Option<String>,
    what: &str,
) -> Result<T, String> {
    value.and_then(|v| v.parse().ok()).ok_or_else(|| format!("{flag} needs {what}"))
}

/// What `--seed` needs.
const SEED: &str = "an unsigned integer (decimal or 0x hex)";

/// A `--seed` value: decimal, or hex with a `0x` prefix as every log
/// prints seeds.
#[derive(Debug, PartialEq)]
struct SeedArg(u64);

impl std::str::FromStr for SeedArg {
    type Err = std::num::ParseIntError;

    fn from_str(s: &str) -> Result<SeedArg, Self::Err> {
        match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16).map(SeedArg),
            None => s.parse().map(SeedArg),
        }
    }
}

/// Where artifacts go without `--out`.
const DEFAULT_OUT: &str = "results";

/// `repro status`: which telemetry path this build compiled.
fn status(mut args: Args) -> Verdict {
    if let Some(a) = args.next() {
        return Err(format!("`repro status` takes no arguments, not {a}"));
    }
    let compiled = diversifi_simcore::telemetry::TRACE_COMPILED;
    println!("telemetry: compiled {}", if compiled { "in" } else { "out" });
    Ok(true)
}

/// Load + parse a scenario file. `.toml` files go through the TOML
/// front-end, everything else through JSON; a parse error carries the
/// offending field's path.
fn load_scenario(path: &str) -> Result<diversifi::Scenario, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    diversifi::Scenario::from_file_text(&text, path).map_err(|e| format!("{path}: {e}"))
}

/// `repro validate FILE...`: parse, validate, and lower each scenario
/// file, then print the lowered configuration summary.
fn validate(mut args: Args) -> Verdict {
    use diversifi::scenario::mode_tag;
    let mut files = Vec::new();
    while let Some(a) = args.next() {
        files.push(args.positional(a)?);
    }
    if files.is_empty() {
        return Err(format!("`repro validate` needs {SCENARIO_FILE}"));
    }
    for path in &files {
        let scn = load_scenario(path)?;
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
    }
    Ok(true)
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

/// `repro campaign FILE`: run the scenario's sharded fleet campaign with
/// live progress (including calls/sec) and health heartbeats, print the
/// campaign report, and write the JSON artifact plus the campaign-health
/// JSONL under `--out`. With `--flight-topk` / `--capture` (or a scenario
/// `[observe]` section) the flight recorder retains the K worst calls, and
/// `--capture` re-simulates their full event timelines.
fn campaign(mut args: Args) -> Verdict {
    let mut out_dir = DEFAULT_OUT.to_string();
    let mut flight_topk: Option<usize> = None;
    let mut capture: Option<String> = None;
    let mut files = Vec::new();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_dir = args.value(&a, DIR)?,
            "--flight-topk" => flight_topk = Some(args.value(&a, COUNT)?),
            "--capture" => capture = Some(args.value(&a, DIR)?),
            _ => files.push(args.positional(a)?),
        }
    }
    let scn = load_scenario(&args.one_file(files)?)?;
    let mut cfg = scn.campaign_config();
    if let Some(k) = flight_topk {
        cfg.flight_k = k;
    }
    if capture.is_some() && cfg.flight_k == 0 {
        // A capture with nothing retained would be an empty dossier;
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
    let run = diversifi::run_fleet_campaign_observed(&scn, &cfg, progress, heartbeat)
        .map_err(|e| format!("campaign {:?}: {e}", scn.name))?;
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
    println!("[artifact] {}", write_json(&out_dir, &artifact, rep)?);
    let lines = health_lines.into_inner().unwrap();
    if !lines.is_empty() {
        let path = format!("{out_dir}/campaign-health_{safe_name}.jsonl");
        write_text(&path, &(lines.join("\n") + "\n"))?;
        println!("[artifact] {path}");
    }

    if let Some(dir) = &capture {
        let worst = run.flight.as_ref().expect("flight_k > 0 when a capture is requested");
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
            let (chrome, jsonl) = write_timeline(&captures, dir, &format!("flight_{safe_name}"))?;
            println!(
                "[forensics] {} captures ({} calls × {} arms) → {chrome} (Perfetto), {jsonl}",
                captures.runs.len(),
                worst.len(),
                scn.arms.len().max(1),
            );
        }
    }
    Ok(true)
}

/// `repro chaos FILE`: the adversarial fault-plan fuzzing campaign.
///
/// Runs in two stages, either of which can be disabled:
///
/// 1. **Corpus replay** (`--corpus DIR`): every committed `*.json`
///    reproducer in DIR is replayed under the real oracles. A replay
///    violation means a fixed bug is back — a failed verdict.
/// 2. **Scan**: `plans` seeded plans (scenario `[chaos]` section,
///    `--plans` override; 0 skips the scan) are generated under the budget
///    and evaluated; retained violations are shrunk to minimal
///    reproducers, written to the corpus directory (when given) and to the
///    JSON artifact.
///
/// The verdict fails on any violation, replay failure or quarantined
/// shard. Under `--canary` it inverts for the scan: the planted violation
/// MUST be found (and shrink to its minimal two-spec form) or the fuzzer
/// itself is broken.
fn chaos(mut args: Args) -> Verdict {
    use diversifi::chaos::{capture_reproducer, replay_reproducer, run_chaos, ChaosConfig};
    use diversifi_simcore::chaos::ChaosReproducer;

    let mut out_dir = DEFAULT_OUT.to_string();
    let mut plans: Option<u64> = None;
    let mut corpus_dir: Option<String> = None;
    let mut canary = false;
    let mut capture: Option<String> = None;
    let mut files = Vec::new();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_dir = args.value(&a, DIR)?,
            "--plans" => plans = Some(args.value(&a, COUNT)?),
            "--corpus" => corpus_dir = Some(args.value(&a, DIR)?),
            "--canary" => canary = true,
            "--capture" => capture = Some(args.value(&a, DIR)?),
            _ => files.push(args.positional(a)?),
        }
    }
    let scn = load_scenario(&args.one_file(files)?)?;
    let mut cfg = ChaosConfig::from_scenario(&scn);
    cfg.canary = canary;
    if let Some(n) = plans {
        cfg.plans = n;
    }

    let mut passed = true;

    // Stage 1: replay the committed corpus (proptest-regressions style).
    if let Some(dir) = &corpus_dir {
        let mut entries: Vec<std::path::PathBuf> = match std::fs::read_dir(dir) {
            Ok(rd) => rd
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "json"))
                .collect(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(format!("cannot read corpus {dir}: {e}")),
        };
        entries.sort();
        for p in &entries {
            let rep: ChaosReproducer = std::fs::read_to_string(p)
                .map_err(|e| e.to_string())
                .and_then(|t| serde_json::from_str(&t).map_err(|e| e.to_string()))
                .map_err(|e| format!("corpus entry {}: {e}", p.display()))?;
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
                    passed = false;
                }
            }
        }
        println!("[chaos] corpus: {} reproducer(s) replayed", entries.len());
    }

    // Stage 2: the fuzzing scan.
    if cfg.plans == 0 {
        return Ok(passed);
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
    let report = run_chaos(&cfg).map_err(|e| format!("chaos scan {:?}: {e}", scn.name))?;
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
        passed = false;
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
    println!("[artifact] {}", write_json(&out_dir, &format!("chaos_{safe_name}"), &report)?);

    // Newly shrunk reproducers join the corpus (committed by the
    // developer once triaged, like proptest-regressions files).
    if let Some(dir) = &corpus_dir {
        for f in &report.findings {
            let name = format!("chaos-{:016x}-{:06}.json", f.reproducer.seed, f.reproducer.index);
            let text = serde_json::to_string_pretty(&f.reproducer)
                .expect("reproducer serialization cannot fail");
            let p = format!("{dir}/{name}");
            write_text(&p, &(text + "\n"))?;
            println!("[chaos] reproducer → {p}");
        }
    }

    // Forensics: freeze both arms of the worst finding's minimal plan.
    if let Some(dir) = &capture {
        if let Some(f) = report.findings.first() {
            let captures = capture_reproducer(&cfg, &f.reproducer, scn.observe.ring);
            let (chrome, jsonl) = write_timeline(&captures, dir, &format!("chaos_{safe_name}"))?;
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
            Ok(passed)
        } else {
            eprintln!(
                "[chaos] canary FAIL: violations={} findings={} complete={}",
                report.violations,
                report.findings.len(),
                report.complete
            );
            Ok(false)
        }
    } else {
        if report.violations > 0 {
            eprintln!("[chaos] FAIL: {} violating plan(s)", report.violations);
            passed = false;
        }
        if !report.complete {
            eprintln!("[chaos] FAIL: scan incomplete");
            passed = false;
        }
        Ok(passed)
    }
}

/// Write one event timeline as its two artifacts: the Perfetto / Chrome
/// trace `DIR/STEM.json` and the JSONL event stream `DIR/STEM.jsonl`. Each
/// lands atomically, parent directories created. Returns both paths, or
/// the error naming the first that could not be written. Every timeline
/// `repro` writes goes through here.
fn write_timeline(
    merged: &MergedTelemetry,
    dir: &str,
    stem: &str,
) -> Result<(String, String), String> {
    let (chrome, jsonl) = (format!("{dir}/{stem}.json"), format!("{dir}/{stem}.jsonl"));
    write_text(&chrome, &export::chrome_trace(merged))?;
    write_text(&jsonl, &export::jsonl(merged))?;
    Ok((chrome, jsonl))
}

/// Capture one fully-instrumented paper scenario (§6 testbed weak pair,
/// customized-AP DiversiFi with a coexisting TCP flow) across a small sweep
/// and export the merged telemetry under `dir`.
fn telemetry_capture(ctx: &mut Ctx, dir: &str) {
    use diversifi::world::{World, WorldConfig};

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
    match write_timeline(&merged, dir, "telemetry") {
        Ok((chrome, jsonl)) => {
            println!("[artifact] {chrome} (Chrome trace — open at ui.perfetto.dev)");
            println!("[artifact] {jsonl} (event stream, one JSON object per line)");
        }
        Err(e) => ctx.failed.push(e),
    }
    let metrics = format!("{dir}/metrics.txt");
    match write_text(&metrics, &export::metrics_table(&merged.metrics)) {
        Ok(()) => println!("[artifact] {metrics} (per-sweep metrics table)"),
        Err(e) => ctx.failed.push(e),
    }
}

/// Write one experiment's JSON artifact, or note it as failed.
fn save<T: serde::Serialize>(ctx: &mut Ctx, name: &str, value: &T) {
    match write_json(&ctx.out_dir, name, value) {
        Ok(path) => println!("[artifact] {path}"),
        Err(e) => ctx.failed.push(e),
    }
}

/// Write `value` as the JSON artifact `DIR/NAME.json`; returns its path.
fn write_json<T: serde::Serialize>(dir: &str, name: &str, value: &T) -> Result<String, String> {
    report::write_json(dir, name, value).map_err(|e| format!("cannot write {dir}/{name}.json: {e}"))
}

/// Write `text` to `path` atomically, parent directories created.
fn write_text(path: &str, text: &str) -> Result<(), String> {
    write_text_atomic(Path::new(path), text).map_err(|e| format!("cannot write {path}: {e}"))
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
        let scn = diversifi::TwoNicScenario::new(spec, a, b);
        diversifi::run_two_nic(&scn, &seeds, &RealizationCache::new(2))
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
    let pairs = run_tcp_corpus(n, 0, ctx.seed ^ 0x10);
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
        let scn = diversifi::TwoNicScenario::new(spec, a, b);
        let two = run_two_nic(&scn, &seeds, &RealizationCache::new(2));
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
        let scn = diversifi::TwoNicScenario::new(spec, a.clone(), b);
        let two = run_two_nic(&scn, &seeds, &RealizationCache::new(2));
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
    use diversifi::world::fleet_sweep;
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

/// Per-seed no-amplification gate for `resilience`, in loss / tick-miss
/// percentage points: DiversiFi beyond `baseline + 2pp` on any paired
/// realisation fails the verdict (exit 1). Small sub-gate jitter between
/// the arms is expected on weak paired links; a 2pp excursion is not.
const AMPLIFICATION_GATE_PP: f64 = 2.0;

/// `resilience` — the deterministic fault catalogue, run paired: each
/// seed simulates a primary-only baseline and a DiversiFi arm on the same
/// channel realisation with the same fault plan, through
/// [`run_paired`](diversifi::chaos::run_paired) as the chaos oracles do,
/// once with VoIP and once with the FPS workload. The report covers both
/// sides of the degradation contract: what the faults cost (loss,
/// worst-window loss, MOS; tick misses and QoE) and how recovery behaved
/// (MTTR from the fault engine, degraded-mode time, probes, duplicate
/// overhead). A pair whose world panics is an error naming the scenario
/// and the seed.
fn resilience(ctx: &mut Ctx) -> Verdict {
    use diversifi::chaos::run_paired;
    use diversifi::world::{RunReport, WorldConfig};
    use diversifi_simcore::{FaultKind, FaultPlan, SimTime};
    use diversifi_voip::emodel::mos_from_stats;
    use diversifi_voip::{burst_ratio, CodecModel, FpsConfig, FpsOutcome, StreamTrace, WorkloadKind};

    let at = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
    let ms = SimDuration::from_millis;
    // Each plan's DiversiFi arm runs the deployment its faults bite: the
    // middlebox one for `middlebox_restart`, the customized-AP one else.
    let scenarios: Vec<(&str, FaultPlan)> = vec![
        ("primary_ap_reboot", FaultPlan::single_ap_reboot(0, at(8), SimDuration::from_secs(2))),
        (
            "secondary_ap_flap",
            FaultPlan::none().with(
                at(6),
                FaultKind::ApFlap { ap: 1, down: ms(1200), up: ms(1800), cycles: 3 },
            ),
        ),
        ("secondary_blackout", FaultPlan::single_ap_reboot(1, at(5), SimDuration::from_secs(10))),
        (
            "middlebox_restart",
            FaultPlan::none().with(
                at(8),
                FaultKind::MiddleboxRestart { outage: ms(1500), reinstall_delay: ms(400) },
            ),
        ),
        (
            "brownout",
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
            FaultPlan::none()
                .with(at(8), FaultKind::UplinkOutage { duration: SimDuration::from_secs(2) }),
        ),
        (
            "interference_storm",
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
    let tasks: Vec<(usize, u64)> =
        (0..scenarios.len()).flat_map(|si| (0..n).map(move |k| (si, k))).collect();
    let mut fps_knobs = FpsConfig::office();
    fps_knobs.duration = SimDuration::from_secs(secs);

    // Both passes run every (scenario, seed) task on the same two weak
    // links; only the workload and the seed salt differ. Each row is
    // (scenario index, baseline report, DiversiFi report).
    let paired = |workload: WorkloadKind, salt: u64| {
        let rows = SweepRunner::new(0).run_indexed(tasks.len(), |i| {
            let (si, k) = tasks[i];
            let (label, plan) = &scenarios[si];
            let mut a = LinkConfig::office(Channel::CH1, 22.0);
            a.ge = GeParams::weak_link();
            let mut b = LinkConfig::office(Channel::CH11, 28.0);
            b.ge = GeParams::weak_link();
            let mut base = WorldConfig::testbed(a, b);
            base.mode = RunMode::PrimaryOnly;
            base.spec.duration = SimDuration::from_secs(secs);
            base.set_workload(workload);
            base.faults = plan.clone();
            let master = seed ^ salt ^ ((si as u64) << 32) ^ k;
            run_paired(&base, &SeedFactory::new(master))
                .map(|(rb, rd)| (si, rb, rd))
                .map_err(|e| {
                    format!(
                        "resilience {label} ({} pass, seed {master:#x}): a world panicked: {e}",
                        workload.label()
                    )
                })
        });
        rows.into_iter().collect::<Result<Vec<(usize, RunReport, RunReport)>, String>>()
    };

    // MOS from the trace's own loss/burst structure, with a nominal 60 ms
    // of non-network (codec + playout) delay on both arms.
    let mos = |tr: &StreamTrace| {
        let loss = tr.loss_rate(DEFAULT_DEADLINE);
        let br = burst_ratio(&tr.burst_lengths(DEFAULT_DEADLINE), loss);
        mos_from_stats(&CodecModel::g711_plc(), loss * 100.0, br, 60.0).mos
    };

    let rows = paired(WorkloadKind::Voip, 0x5E511E)?;
    let loss = |r: &RunReport| r.trace.loss_rate(DEFAULT_DEADLINE) * 100.0;
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
    for (si, (label, _)) in scenarios.iter().enumerate() {
        let rs: Vec<(&RunReport, &RunReport)> =
            rows.iter().filter(|r| r.0 == si).map(|(_, rb, rd)| (rb, rd)).collect();
        let fvec = |f: &dyn Fn(&RunReport) -> f64| rs.iter().map(|r| f(r.1)).collect::<Vec<f64>>();
        let lb = mean(&rs.iter().map(|r| loss(r.0)).collect::<Vec<_>>());
        let ld = mean(&fvec(&loss));
        let tb: Vec<StreamTrace> = rs.iter().map(|r| r.0.trace.clone()).collect();
        let td: Vec<StreamTrace> = rs.iter().map(|r| r.1.trace.clone()).collect();
        let w5b = metrics::worst_window_ecdf(&tb, window, DEFAULT_DEADLINE).quantile(0.9);
        let w5d = metrics::worst_window_ecdf(&td, window, DEFAULT_DEADLINE).quantile(0.9);
        let mos_b = mean(&tb.iter().map(&mos).collect::<Vec<_>>());
        let mos_d = mean(&td.iter().map(&mos).collect::<Vec<_>>());
        let mttrs: Vec<f64> = rs
            .iter()
            .flat_map(|r| r.1.fault_outcomes.iter().filter_map(|o| o.mttr()))
            .map(|d| d.as_millis_f64())
            .collect();
        let mttr = if mttrs.is_empty() { f64::NAN } else { mean(&mttrs) };
        let unrecovered: usize = rs
            .iter()
            .map(|r| r.1.fault_outcomes.iter().filter(|o| o.recovered_at.is_none()).count())
            .sum();
        let degraded = mean(&fvec(&|r| r.alg_stats.degraded_ns as f64 / 1e6));
        let probes = mean(&fvec(&|r| r.alg_stats.probe_visits as f64));
        let air = mean(&fvec(&|r| r.secondary_air_tx as f64));
        let dups = mean(&fvec(&|r| r.alg_stats.duplicate_packets as f64));
        let per_seed: Vec<(f64, f64)> = rs.iter().map(|r| (loss(r.0), loss(r.1))).collect();
        pairs += rs.len();
        amplified += per_seed.iter().filter(|(b, d)| d > b).count();
        for (b, d) in per_seed.iter().filter(|(b, d)| *d > b + AMPLIFICATION_GATE_PP) {
            gate_failures.push(format!(
                "[voip] {label}: loss {d:.2}% vs primary-only {b:.2}% (gate {AMPLIFICATION_GATE_PP}pp)"
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
            "per_seed_loss_pct": per_seed,
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
    let fps_rows = paired(WorkloadKind::Fps(fps_knobs), 0xF5511E)?;
    let fps = |r: &RunReport| *r.workload.fps().expect("fps outcome");
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
    for (si, (label, _)) in scenarios.iter().enumerate() {
        let rs: Vec<(FpsOutcome, FpsOutcome)> =
            fps_rows.iter().filter(|r| r.0 == si).map(|(_, rb, rd)| (fps(rb), fps(rd))).collect();
        let fmean = |f: &dyn Fn(&(FpsOutcome, FpsOutcome)) -> f64| {
            mean(&rs.iter().map(f).collect::<Vec<f64>>())
        };
        let mb = fmean(&|(b, _)| 100.0 * b.state.miss_rate());
        let md = fmean(&|(_, d)| 100.0 * d.state.miss_rate());
        let imd = fmean(&|(_, d)| 100.0 * d.input.miss_rate());
        let blackout = fmean(&|(_, d)| d.input_blackout as f64);
        let ob = fmean(&|(b, _)| b.state.longest_outage_ticks as f64);
        let od = fmean(&|(_, d)| d.state.longest_outage_ticks as f64);
        let qb = fmean(&|(b, _)| b.qoe);
        let qd = fmean(&|(_, d)| d.qoe);
        let per_seed: Vec<(f64, f64)> = rs
            .iter()
            .map(|(b, d)| (100.0 * b.state.miss_rate(), 100.0 * d.state.miss_rate()))
            .collect();
        fps_pairs += rs.len();
        fps_amplified += per_seed.iter().filter(|(b, d)| d > b).count();
        for (b, d) in per_seed.iter().filter(|(b, d)| *d > b + AMPLIFICATION_GATE_PP) {
            gate_failures.push(format!(
                "[fps] {label}: tick miss {d:.2}% vs primary-only {b:.2}% (gate {AMPLIFICATION_GATE_PP}pp)"
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
            "per_seed_tick_miss_pct": per_seed,
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
    if !gate_failures.is_empty() {
        eprintln!(
            "[resilience] FAIL: {} no-amplification row(s) beyond the {AMPLIFICATION_GATE_PP}pp gate:",
            gate_failures.len()
        );
        for f in &gate_failures {
            eprintln!("[resilience]   {f}");
        }
    }
    Ok(gate_failures.is_empty())
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
        let nested = dir.join("a/b");
        let (chrome, jsonl) = write_timeline(&merged, nested.to_str().unwrap(), "trace").unwrap();
        assert_eq!(chrome, format!("{}/trace.json", nested.display()));
        assert_eq!(jsonl, format!("{}/trace.jsonl", nested.display()));
        assert!(std::fs::read_to_string(&chrome).unwrap().contains("\"traceEvents\""));
        assert!(Path::new(&jsonl).exists());
        // A regular file where a parent directory must go blocks the write,
        // and the error names the path.
        std::fs::write(dir.join("file"), "").unwrap();
        let blocked = dir.join("file");
        let err = write_timeline(&merged, blocked.to_str().unwrap(), "trace").unwrap_err();
        assert!(err.starts_with(&format!("cannot write {}/trace.json: ", blocked.display())), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flag_value_parses_or_names_the_flag() {
        assert_eq!(flag_value::<u64>("--plans", Some("42".into()), COUNT), Ok(42));
        assert_eq!(flag_value::<String>("--out", Some("dir".into()), DIR), Ok("dir".to_string()));
        assert_eq!(
            flag_value::<u64>("--plans", None, COUNT),
            Err("--plans needs an unsigned integer".to_string())
        );
        assert_eq!(
            flag_value::<usize>("--flight-topk", Some("-1".into()), COUNT),
            Err("--flight-topk needs an unsigned integer".to_string())
        );
        assert_eq!(
            flag_value::<String>("--capture", None, DIR),
            Err("--capture needs a directory".to_string())
        );
        for (text, seed) in [("42", 42), ("0xCAFEBABE", 0xCAFE_BABE), ("0Xd1be5f1", 0xD1B_E5F1)] {
            assert_eq!(flag_value::<SeedArg>("--seed", Some(text.into()), SEED), Ok(SeedArg(seed)));
        }
        for bad in ["0x", "0xZZ", "x1", "-1", "0x1_0"] {
            assert_eq!(
                flag_value::<SeedArg>("--seed", Some(bad.into()), SEED),
                Err("--seed needs an unsigned integer (decimal or 0x hex)".to_string()),
                "{bad}"
            );
        }
    }

    #[test]
    fn seed_is_refused_where_the_scenario_sets_it() {
        for cmd in ["chaos", "campaign", "validate"] {
            assert_eq!(
                unknown_flag(cmd, "--seed"),
                format!(
                    "--seed is not a flag of `repro {cmd}`: the scenario's `seed` field sets the seed"
                )
            );
        }
        assert_eq!(unknown_flag("status", "--seed"), "unknown flag --seed for `repro status`");
        assert_eq!(unknown_flag("chaos", "--quick"), "unknown flag --quick for `repro chaos`");
    }

    #[test]
    fn experiment_arg_rejects_unknown_flags_and_names() {
        for (arg, err) in [
            ("--bench-compare", "unknown flag --bench-compare"),
            ("--quik", "unknown flag --quik"),
            ("--plans", "unknown flag --plans"),
            ("fig7", "unknown experiment or subcommand fig7"),
            ("chaos", "the subcommand chaos must come first: repro chaos ..."),
        ] {
            assert_eq!(experiment_arg(arg), Err(err.to_string()));
        }
        for arg in ["all", "extensions", "resilience", "fig10", "mbox-scale"] {
            assert_eq!(experiment_arg(arg), Ok(arg.to_string()));
        }
    }
}
