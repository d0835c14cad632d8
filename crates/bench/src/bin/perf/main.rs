//! `perf` — the repository benchmark.
//!
//! ```text
//! perf run --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! perf compare PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! `perf run` sets one workload up, then runs its fixed list of batches
//! (batch `b` uses seed `N + b`) until `S` seconds have passed. Untraced
//! (`--trace 0`, the plain release build) it prints every end-to-end
//! metric; traced (`--trace 1`, the `--features trace` build) it replays each batch through the layers' public calls and prints the
//! per-layer ledger and its closure. Either way the last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See `README.md` beside this file for the workloads and metrics.

mod compare;
mod ledger;
mod stats;
mod traced;
mod workloads;

use ledger::{END_TO_END, PER_LAYER};
use stats::{median, peak_rss_mb, quartiles, secs, Reference, REF_NOMINAL_S};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::{BatchOut, Bench, Scale, Workload, SEED_BASE, THREADS};

const USAGE: &str = "usage:
  perf run --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
  perf compare PARENT.jsonl CHANGE.jsonl
workloads: eval-corpus, chaos-scan, voip-fleet, fps-fleet-resume";

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 11;

/// Fewest batches an untraced run measures, however short `--seconds` is.
const MIN_BATCHES: u64 = 3;

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => match Options::parse(&args[1..]) {
            Ok(opts) => run(&opts, started),
            Err(e) => {
                eprintln!("perf: {e}\n{USAGE}");
                2
            }
        },
        Some("compare") if args.len() == 3 => compare::run(&args[1], &args[2]),
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_seed(s: &str) -> Result<u64, String> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|_| format!("--seed {s:?} is not a u64"))
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut opts = Options {
            workload: Workload::EvalCorpus,
            seed: SEED_BASE,
            seconds: 25.0,
            trace: false,
            smoke: false,
        };
        let mut workload = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                opts.smoke = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(value)?),
                "--seed" => opts.seed = parse_seed(value)?,
                "--seconds" => {
                    opts.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| format!("--seconds {value:?} is not a duration"))?
                }
                "--trace" => {
                    opts.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        opts.workload = workload.ok_or("--workload is required")?;
        Ok(opts)
    }

    /// Where checkpoints go: `perf-scratch/<workload>` in the build
    /// directory (`$CARGO_TARGET_DIR`, else `target`). The run owns this
    /// directory and removes it at start and exit. Relative to the
    /// repository root, the path is the same in every checkout, so the
    /// checkpoint files (which record a hash of their directory's name)
    /// are byte-identical across runs.
    fn scratch(&self) -> PathBuf {
        let build = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
        PathBuf::from(build)
            .join("perf-scratch")
            .join(self.workload.name())
    }
}

fn run(opts: &Options, started: Instant) -> i32 {
    let compiled = diversifi_simcore::telemetry::TRACE_COMPILED;
    if opts.trace != compiled {
        eprintln!(
            "perf: --trace {} needs the {} build",
            u8::from(opts.trace),
            if opts.trace {
                "`--features trace`"
            } else {
                "plain release"
            }
        );
        return 2;
    }
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scale = if opts.smoke {
        Scale::SMOKE
    } else {
        Scale::FULL
    };
    println!(
        "perf run: workload {} ({} per op), seed {:#x}, {} worker(s), {} available, \
         {} build, {} s{}",
        opts.workload.name(),
        opts.workload.op(),
        opts.seed,
        THREADS,
        available,
        if opts.trace { "trace" } else { "plain" },
        opts.seconds,
        if opts.smoke { ", smoke scale" } else { "" },
    );
    let scratch = opts.scratch();
    let _ = std::fs::remove_dir_all(&scratch);
    let code = match measure(opts, scale, &scratch, started) {
        Ok(result) => {
            println!("{result}");
            0
        }
        Err(e) => {
            eprintln!("perf: {e}");
            1
        }
    };
    let _ = std::fs::remove_dir_all(&scratch);
    code
}

/// Set up, run the batches, and return the final JSON line.
fn measure(
    opts: &Options,
    scale: Scale,
    scratch: &Path,
    started: Instant,
) -> Result<String, String> {
    // Made before anything else, so that its table is resident for the
    // whole run and `peak_rss_mb` can leave it out exactly.
    let mut reference = Reference::new();
    let (mut walls, mut setup_s) = (Vec::new(), Vec::new());
    let mut bench = None;
    for _ in 0..if opts.trace { 1 } else { SETUPS } {
        let ref_s = reference.time();
        let t = Instant::now();
        bench = Some(Bench::setup(
            opts.workload,
            opts.seed,
            THREADS,
            scale,
            scratch,
        )?);
        let wall = secs(t);
        walls.push(wall);
        setup_s.push(wall * REF_NOMINAL_S / ref_s);
        if walls.len() == 1 {
            println!(
                "setup: first set-up done {:.4} s after start",
                secs(started)
            );
        }
    }
    let bench = bench.expect("at least one set-up ran");
    println!(
        "setup: {} set-ups, median {:.6} s, {:.6} s at reference speed",
        walls.len(),
        median(&walls),
        median(&setup_s)
    );
    if opts.trace {
        traced_run(opts, &bench)
    } else {
        untraced_run(opts, &bench, reference, median(&setup_s))
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Run and check one batch; a panic fails the batch.
fn batch(bench: &Bench, seed: u64) -> (f64, BatchOut) {
    let t = Instant::now();
    let raw = catch_unwind(AssertUnwindSafe(|| bench.run(seed)));
    let wall = secs(t);
    let out = match raw {
        Ok(raw) => bench.check(raw, wall),
        Err(payload) => BatchOut {
            failures: vec![format!("panic: {}", panic_message(payload))],
            ..BatchOut::default()
        },
    };
    (wall, out)
}

fn print_batch(b: u64, seed: u64, wall: f64, extra: &str, out: &BatchOut) {
    println!(
        "batch {b:>3} seed {seed:#x}: wall {wall:.4} s{extra}, ops {}, fingerprint {:016x}",
        out.ops, out.fingerprint
    );
    for line in &out.notes {
        println!("  {line}");
    }
    for f in &out.failures {
        println!("  FAILED: {f}");
    }
}

fn untraced_run(
    opts: &Options,
    bench: &Bench,
    mut reference: Reference,
    setup_s: f64,
) -> Result<String, String> {
    let ops = bench.ops_per_batch();
    let (mut walls, mut refs, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut named: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    let mut before = reference.time();
    let mut b = 0u64;
    while b < MIN_BATCHES || secs(start) < opts.seconds {
        let seed = opts.seed.wrapping_add(b);
        let (wall, out) = batch(bench, seed);
        // The host's speed around the batch, from the kernel just before
        // and just after it; the batch's time is read in units of it.
        let after = reference.time();
        let ref_s = (before + after) / 2.0;
        before = after;
        print_batch(b, seed, wall, &format!(", ref {:.3} ms", ref_s * 1e3), &out);
        attempted += ops;
        if !out.failures.is_empty() {
            failed += ops;
        }
        walls.push(wall);
        refs.push(ref_s);
        rates.push(ops as f64 * ref_s / wall);
        named
            .entry("ops_per_s")
            .or_default()
            .push(ops as f64 / wall);
        for (name, v) in &out.rates {
            named.entry(name).or_default().push(*v);
        }
        b += 1;
    }

    let (q1, q2, q3) = quartiles(&walls);
    println!("batches: {b}; wall q1 {q1:.4} s, median {q2:.4} s, q3 {q3:.4} s");
    let (q1, q2, q3) = quartiles(&refs);
    println!("reference kernel: q1 {q1:.6} s, median {q2:.6} s, q3 {q3:.6} s");
    for (name, v) in &named {
        println!("{name} {:.6} 1/s (median over batches)", median(v));
    }
    println!(
        "ops: attempted {attempted}, failed {failed}, error_rate {:.6}",
        failed as f64 / attempted as f64
    );
    let values = [
        setup_s,
        median(&rates),
        peak_rss_mb()? - reference.resident_mb(),
    ];
    let metrics: Vec<(&str, &str, f64)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name, m.unit, v))
        .collect();
    Ok(result_line(failed == 0, attempted, failed, &metrics))
}

fn traced_run(opts: &Options, bench: &Bench) -> Result<String, String> {
    let ops = bench.ops_per_batch();
    let mut batches: Vec<traced::Replica> = Vec::new();
    let mut overhead = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    let mut b = 0u64;
    while b == 0 || secs(start) < opts.seconds {
        let seed = opts.seed.wrapping_add(b);
        let (wall_u, reference) = batch(bench, seed);
        let replica = catch_unwind(AssertUnwindSafe(|| {
            traced::replay(bench, seed, bench.threads)
        }));
        let mut rep = replica.unwrap_or_else(|payload| {
            traced::Replica::failed(format!("panic: {}", panic_message(payload)))
        });
        if rep.failures.is_empty() && rep.fingerprint != reference.fingerprint {
            rep.failures.push(format!(
                "traced fingerprint {:016x} differs from untraced {:016x}",
                rep.fingerprint, reference.fingerprint
            ));
        }
        let extra = format!(
            ", traced {:.4} s, residue {:.4} s",
            rep.wall_s,
            rep.wall_s - rep.attributed_s
        );
        print_batch(b, seed, wall_u, &extra, &reference);
        for f in &rep.failures {
            println!("  FAILED (traced): {f}");
        }
        attempted += ops;
        if !reference.failures.is_empty() || !rep.failures.is_empty() {
            failed += ops;
        }
        overhead.push(rep.wall_s / wall_u - 1.0);
        batches.push(rep);
        b += 1;
    }

    let residue_s: Vec<f64> = batches.iter().map(|r| r.wall_s - r.attributed_s).collect();
    let residue_frac: Vec<f64> = batches
        .iter()
        .map(|r| 1.0 - r.attributed_s / r.wall_s)
        .collect();
    let walls: Vec<f64> = batches.iter().map(|r| r.wall_s).collect();
    let mut metrics = Vec::new();
    println!("per-layer ledger ({b} traced batches; (x) = exact counter of the first batch):");
    for m in PER_LAYER {
        let v = match m.name {
            "residue_ms" => median(&residue_s) * 1e3,
            "residue_frac" => median(&residue_frac),
            "trace.overhead_frac" => median(&overhead),
            name if m.exact => batches[0].values.get(name).copied().unwrap_or(0.0),
            name => {
                let v: Vec<f64> = batches
                    .iter()
                    .map(|r| r.values.get(name).copied().unwrap_or(0.0))
                    .collect();
                median(&v)
            }
        };
        let v = if v.is_finite() { v } else { 0.0 };
        println!(
            "  {:<30} {:>18.6} {:<6} {:<6}{}",
            m.name,
            v,
            m.unit,
            m.better.name(),
            if m.exact { " (x)" } else { "" }
        );
        metrics.push((m.name, m.unit, v));
    }
    let wall = median(&walls);
    let residue = median(&residue_s);
    println!(
        "closure: traced wall {:.3} ms = timed layers {:.3} ms + residue {:.3} ms ({:+.2}%)",
        wall * 1e3,
        (wall - residue) * 1e3,
        residue * 1e3,
        100.0 * median(&residue_frac)
    );
    println!(
        "ops: attempted {attempted}, failed {failed}, error_rate {:.6}",
        failed as f64 / attempted as f64
    );
    Ok(result_line(failed == 0, attempted, failed, &metrics))
}

/// The final JSON line. Values print with every digit Rust's shortest
/// round-trip formatting gives; a non-finite value makes the run incorrect.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let finite = metrics.iter().all(|(_, _, v)| v.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        correct && finite,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A checkpoint directory of its own for each test and workload: the
    /// tests run in parallel, and two set-ups sharing one would see each
    /// other's checkpoints.
    fn scratch(test: &str, w: Workload) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/perf-test-scratch")
            .join(format!("{test}-{}", w.name()))
    }

    fn smoke(test: &str, w: Workload, threads: usize) -> Bench {
        Bench::setup(w, SEED_BASE, threads, Scale::SMOKE, &scratch(test, w)).unwrap()
    }

    #[test]
    fn every_workload_passes_its_gates_and_its_traced_replica_matches() {
        for w in Workload::ALL {
            let bench = smoke("gates", w, 2);
            let (_, out) = batch(&bench, SEED_BASE);
            assert!(out.failures.is_empty(), "{}: {:?}", w.name(), out.failures);
            assert_eq!(out.ops, bench.ops_per_batch(), "{}", w.name());
            let rep = traced::replay(&bench, SEED_BASE, 1);
            assert!(rep.failures.is_empty(), "{}: {:?}", w.name(), rep.failures);
            assert_eq!(
                rep.fingerprint,
                out.fingerprint,
                "{}: traced replica differs",
                w.name()
            );
            assert!(
                rep.attributed_s > 0.0,
                "{}: no layer time attributed",
                w.name()
            );
        }
    }

    #[test]
    fn exact_counters_repeat_across_runs_and_worker_counts() {
        for w in Workload::ALL {
            let bench = smoke("counters", w, 2);
            let counters = |threads| {
                let rep = traced::replay(&bench, SEED_BASE + 1, threads);
                assert!(rep.failures.is_empty(), "{}: {:?}", w.name(), rep.failures);
                PER_LAYER
                    .iter()
                    .filter(|m| m.exact)
                    .map(|m| {
                        (
                            m.name,
                            rep.values.get(m.name).copied().unwrap_or(0.0).to_bits(),
                        )
                    })
                    .collect::<Vec<_>>()
            };
            let one = counters(1);
            assert_eq!(
                one,
                counters(1),
                "{}: counters differ between runs",
                w.name()
            );
            assert_eq!(
                one,
                counters(2),
                "{}: counters differ at 2 workers",
                w.name()
            );
            assert!(
                one.iter().any(|(_, v)| *v != 0),
                "{}: no counter moved",
                w.name()
            );
        }
    }

    #[test]
    fn result_line_has_the_documented_format() {
        let line = result_line(
            true,
            10,
            0,
            &[("setup_s", "s", 0.25), ("ops_per_ref", "1/ref", 1e-7)],
        );
        let v: serde::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v.get("attempted").and_then(serde::Value::as_u64), Some(10));
        let m = v.get("metrics").and_then(|m| m.get("ops_per_ref")).unwrap();
        assert_eq!(m.get("value").and_then(serde::Value::as_f64), Some(1e-7));
        assert!(line.contains("\"correct\": true"));
        assert!(result_line(true, 1, 0, &[("x", "s", f64::NAN)]).contains("\"correct\": false"));
    }

    #[test]
    fn options_parse_the_benchmark_arguments() {
        let args: Vec<String> = [
            "--workload",
            "chaos-scan",
            "--seed",
            "0xCAFEBABE",
            "--seconds",
            "7",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = Options::parse(&args).unwrap();
        assert_eq!(o.workload, Workload::ChaosScan);
        assert_eq!(o.seed, 3_405_691_582);
        assert_eq!(o.seconds, 7.0);
        assert!(o.trace && !o.smoke);
        assert!(Options::parse(
            &args[..2]
                .iter()
                .cloned()
                .chain(["--trace".into(), "2".into()])
                .collect::<Vec<_>>()
        )
        .is_err());
        assert!(Options::parse(&["--seed".to_string(), "1".to_string()]).is_err());
    }
}
