//! `perf compare PARENT.jsonl CHANGE.jsonl`: judge a change against its
//! parent commit on one workload.
//!
//! Each file holds the result lines (the last line `perf run` prints) of
//! alternating runs of the two commits, one line per run, in run order:
//! line `i` of both files is pair `i`. For every end-to-end metric:
//!
//! - **gain** — the change wins at least 9 of every 10 pairs (ties count
//!   for neither side) and the medians differ, in the change's favour, by
//!   more than the parent's own spread (the distance between its
//!   quartiles);
//! - **regression** — the change's median is worse than the parent's by
//!   more than the bound, and either the run-to-run spread (either side's
//!   quartile distance as a share of its median) is within the bound or
//!   every change run is worse than every parent run;
//! - **unresolved** — otherwise, when the spread is wider than the
//!   metric's bound, unless every change run beats every parent run;
//! - **within bound** — otherwise.
//!
//! A regression rejects the change (exit 1), as does any increase in the
//! failed-op rate or a change run that reports incorrect outputs. With no
//! rejection, an unresolved metric leaves the comparison undecided (exit
//! 3): run more pairs, or at a quieter time.

use crate::ledger::{e2e, Better, E2e};
use crate::stats::quartiles;
use serde::Value;

/// Fewest pairs the rule accepts.
pub const MIN_PAIRS: usize = 10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Gain,
    WithinBound,
    Unresolved,
    Regression,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
            Verdict::Regression => "REGRESSION",
        }
    }
}

/// Apply the rule to one metric's paired values.
pub fn judge(m: &E2e, parent: &[f64], change: &[f64]) -> Verdict {
    // Orient every value so that larger is better.
    let sign = if m.better == Better::Higher {
        1.0
    } else {
        -1.0
    };
    let p: Vec<f64> = parent.iter().map(|v| sign * v).collect();
    let c: Vec<f64> = change.iter().map(|v| sign * v).collect();
    let (pq1, pm, pq3) = quartiles(&p);
    let (cq1, cm, cq3) = quartiles(&c);
    let wins = p.iter().zip(&c).filter(|(p, c)| c > p).count();
    if 10 * wins >= 9 * p.len() && cm - pm > pq3 - pq1 {
        return Verdict::Gain;
    }
    let spread = ((pq3 - pq1) / pm.abs()).max((cq3 - cq1) / cm.abs());
    let min = |v: &[f64]| v.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let all_better = min(&c) > max(&p);
    let all_worse = max(&c) < min(&p);
    let worse = pm - cm > m.bound * pm.abs();
    if worse && (spread <= m.bound || all_worse) {
        Verdict::Regression
    } else if spread > m.bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    }
}

/// One parsed result line.
struct RunLine {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64)>,
}

fn parse_lines(path: &str, text: &str) -> Result<Vec<RunLine>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let bad = |what: &str| format!("{path}:{}: {what}", i + 1);
            let v: Value = serde_json::from_str(line).map_err(|e| bad(&e.to_string()))?;
            let num = |k: &str| v.get(k).and_then(Value::as_f64).ok_or_else(|| bad(k));
            let metrics = v
                .get("metrics")
                .and_then(Value::as_object)
                .ok_or_else(|| bad("metrics"))?
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Value::as_f64);
                    value.map(|x| (name.clone(), x)).ok_or_else(|| bad(name))
                })
                .collect::<Result<_, _>>()?;
            Ok(RunLine {
                correct: matches!(v.get("correct"), Some(Value::Bool(true))),
                attempted: num("attempted")?,
                failed: num("failed")?,
                metrics,
            })
        })
        .collect()
}

fn error_rate(lines: &[RunLine]) -> f64 {
    let attempted: f64 = lines.iter().map(|l| l.attempted).sum();
    lines.iter().map(|l| l.failed).sum::<f64>() / attempted.max(1.0)
}

fn values(lines: &[RunLine], name: &str) -> Option<Vec<f64>> {
    lines
        .iter()
        .map(|l| l.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
        .collect()
}

/// Exit code of `perf compare` when no metric regressed but one is
/// unresolved.
pub const UNRESOLVED: i32 = 3;

/// Compare two result files; prints the verdict table and returns the
/// process exit code (0 = accepted, 1 = rejected, 2 = unusable input,
/// [`UNRESOLVED`] = undecided).
pub fn run(parent_path: &str, change_path: &str) -> i32 {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    match (read(parent_path), read(change_path)) {
        (Ok(p), Ok(c)) => compare(parent_path, &p, change_path, &c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            2
        }
    }
}

fn compare(parent_path: &str, parent: &str, change_path: &str, change: &str) -> i32 {
    let (parent, change) = match (
        parse_lines(parent_path, parent),
        parse_lines(change_path, change),
    ) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    if parent.len() != change.len() || parent.len() < MIN_PAIRS {
        eprintln!(
            "compare: need the same number of runs on both sides, at least {MIN_PAIRS} \
             (parent {}, change {})",
            parent.len(),
            change.len()
        );
        return 2;
    }
    let (mut rejected, mut unresolved) = (false, false);
    println!(
        "{:<14} {:>30} {:>30} {:>6}  verdict",
        "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    let names: Vec<String> = parent[0].metrics.iter().map(|(n, _)| n.clone()).collect();
    for name in &names {
        let (Some(m), Some(p), Some(c)) = (e2e(name), values(&parent, name), values(&change, name))
        else {
            eprintln!("compare: metric {name} is not an end-to-end metric of both files");
            return 2;
        };
        let verdict = judge(m, &p, &c);
        rejected |= verdict == Verdict::Regression;
        unresolved |= verdict == Verdict::Unresolved;
        let q = |v: &[f64]| {
            let (q1, q2, q3) = quartiles(v);
            format!("{q2:.6} [{q1:.6}, {q3:.6}]")
        };
        let sign = if m.better == Better::Higher {
            1.0
        } else {
            -1.0
        };
        let wins = p
            .iter()
            .zip(&c)
            .filter(|(p, c)| sign * *c > sign * *p)
            .count();
        println!(
            "{:<14} {:>30} {:>30} {:>3}/{:<2}  {} (bound {:.0}%, {} is better)",
            name,
            q(&p),
            q(&c),
            wins,
            p.len(),
            verdict.label(),
            100.0 * m.bound,
            m.better.name()
        );
    }
    let (ep, ec) = (error_rate(&parent), error_rate(&change));
    println!("error_rate: parent {ep:.6}, change {ec:.6}");
    if ec > ep {
        println!("REJECTED: the change fails more ops than its parent");
        rejected = true;
    }
    if change.iter().any(|l| !l.correct) {
        println!("REJECTED: a change run reports incorrect outputs");
        rejected = true;
    }
    if rejected {
        1
    } else if unresolved {
        println!("unresolved: a metric's spread is wider than its bound");
        UNRESOLVED
    } else {
        println!("accepted: no regression beyond the bounds");
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const THROUGHPUT: E2e = E2e {
        name: "t",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.1,
    };
    const LATENCY: E2e = E2e {
        name: "l",
        unit: "s",
        better: Better::Lower,
        bound: 0.1,
    };

    fn parent() -> Vec<f64> {
        vec![
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ]
    }

    #[test]
    fn nine_of_ten_wins_with_a_gap_beyond_the_iqr_is_a_gain() {
        let p = parent();
        let mut c: Vec<f64> = p.iter().map(|v| v + 5.0).collect();
        assert_eq!(judge(&THROUGHPUT, &p, &c), Verdict::Gain);
        c[0] = 0.0; // one lost pair: 9/10 still counts
        assert_eq!(judge(&THROUGHPUT, &p, &c), Verdict::Gain);
        c[1] = 0.0; // 8/10 does not
        assert_ne!(judge(&THROUGHPUT, &p, &c), Verdict::Gain);
        // Ties count for neither side.
        let mut t = c.clone();
        t[0] = p[0];
        t[1] = p[1];
        assert_ne!(judge(&THROUGHPUT, &p, &t), Verdict::Gain);
    }

    #[test]
    fn a_gap_inside_the_parent_iqr_is_not_a_gain() {
        let p = parent();
        // Wins every pair, by less than the parent's quartile distance.
        let c: Vec<f64> = p.iter().map(|v| v + 0.05).collect();
        assert_eq!(judge(&THROUGHPUT, &p, &c), Verdict::WithinBound);
    }

    #[test]
    fn direction_follows_the_metric() {
        let p = parent();
        let slower: Vec<f64> = p.iter().map(|v| v * 1.2).collect();
        assert_eq!(judge(&LATENCY, &p, &slower), Verdict::Regression);
        assert_eq!(judge(&THROUGHPUT, &p, &slower), Verdict::Gain);
    }

    fn noisy() -> Vec<f64> {
        vec![
            60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ]
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let c: Vec<f64> = noisy().iter().map(|v| v * 0.85).collect();
        assert_eq!(judge(&THROUGHPUT, &noisy(), &c), Verdict::Unresolved);
        // Unless every change run beats every parent run.
        assert_eq!(
            judge(&THROUGHPUT, &noisy(), &[141.0; 10]),
            Verdict::WithinBound
        );
    }

    #[test]
    fn every_change_run_worse_than_every_parent_run_is_a_regression_however_noisy() {
        let c: Vec<f64> = noisy().iter().map(|v| v * 0.4).collect();
        assert!(c.iter().all(|c| noisy().iter().all(|p| c < p)));
        assert_eq!(judge(&THROUGHPUT, &noisy(), &c), Verdict::Regression);
        // Worse in every run, but by less than the bound.
        let p = parent();
        let c: Vec<f64> = p.iter().map(|v| v * 0.97 - 2.0).collect();
        assert_eq!(judge(&THROUGHPUT, &p, &c), Verdict::WithinBound);
    }

    fn file(values: &[f64], failed: u32) -> String {
        values
            .iter()
            .map(|v| {
                format!(
                    "{{\"correct\": true, \"attempted\": 1000, \"failed\": {failed}, \
                     \"metrics\": {{\"ops_per_ref\": {{\"value\": {v}, \"unit\": \"1/ref\"}}}}}}\n"
                )
            })
            .collect()
    }

    #[test]
    fn any_error_rate_increase_rejects() {
        let p = file(&parent(), 0);
        assert_eq!(compare("p", &p, "c", &p), 0);
        assert_eq!(compare("p", &p, "c", &file(&parent(), 1)), 1);
        assert_eq!(compare("p", &p, "c", &p[..100]), 2);
    }

    #[test]
    fn an_unresolved_metric_is_not_accepted() {
        let c: Vec<f64> = noisy().iter().map(|v| v * 0.85).collect();
        assert_eq!(
            compare("p", &file(&noisy(), 0), "c", &file(&c, 0)),
            UNRESOLVED
        );
        let c: Vec<f64> = noisy().iter().map(|v| v * 0.4).collect();
        assert_eq!(compare("p", &file(&noisy(), 0), "c", &file(&c, 0)), 1);
    }
}
