//! Thread-count equivalence for every ported sweep.
//!
//! The `SweepRunner` determinism contract promises bit-identical output
//! regardless of worker count. The runner's own unit tests check that for
//! synthetic tasks; these tests check it end-to-end for the real
//! simulation sweeps — the §4 two-NIC corpus, the §6 evaluation corpus,
//! and the multi-client fleet sweep — by fingerprinting complete outputs
//! (every per-packet trace, every counter) and comparing across worker
//! counts against the serial reference.
//!
//! Fingerprints go through `serde_json` where the types are serialisable
//! (identical floats render identically) and through `f64::to_bits` where
//! they are not, so any single-bit divergence fails the test.

use diversifi::analysis::{self, AnalysisOptions, CallRecord};
use diversifi::evaluation::{run_eval_corpus, EvalOptions};
use diversifi::world::{fleet_sweep, office_fleet, RunReport, World};
use diversifi_simcore::{SeedFactory, SimDuration};
use diversifi_voip::{StreamSpec, StreamTrace};
use std::fmt::Write as _;

fn trace_fp(out: &mut String, t: &StreamTrace) {
    out.push_str(&serde_json::to_string(t).expect("trace serialises"));
}

fn corpus_fp(records: &[CallRecord]) -> String {
    let mut s = String::new();
    for r in records {
        s.push_str(&serde_json::to_string(&r.impairment).unwrap());
        for (trace, rssi) in [(&r.a.trace, r.a.rssi_dbm), (&r.b.trace, r.b.rssi_dbm)] {
            trace_fp(&mut s, trace);
            write!(s, "rssi={:016x};", rssi.to_bits()).unwrap();
        }
        for t in [&r.temporal_0, &r.temporal_100] {
            match t {
                Some(t) => trace_fp(&mut s, t),
                None => s.push('-'),
            }
        }
        s.push('\n');
    }
    s
}

fn report_fp(r: &RunReport) -> String {
    let mut s = format!("air={};", r.secondary_air_tx);
    for (trace, stats) in r.clients() {
        write!(s, "visits={},recovered={},", stats.recovery_visits, stats.recovered_on_secondary)
            .unwrap();
        trace_fp(&mut s, trace);
        s.push('\n');
    }
    s
}

#[test]
fn two_nic_corpus_is_bit_identical_across_thread_counts() {
    let mut opts = AnalysisOptions::paper_corpus();
    opts.n_calls = 6;
    opts.spec.duration = SimDuration::from_secs(10);
    opts.threads = 1;
    let reference = corpus_fp(&analysis::run_corpus(&opts, 0x5EED));
    for threads in [2usize, 4, 8] {
        opts.threads = threads;
        let got = corpus_fp(&analysis::run_corpus(&opts, 0x5EED));
        assert_eq!(got, reference, "corpus diverged at threads={threads}");
    }
}

#[test]
fn eval_corpus_is_bit_identical_across_thread_counts() {
    let mut opts = EvalOptions { n_runs: 3, ..EvalOptions::default() };
    opts.threads = 1;
    let fp = |runs: &[diversifi::evaluation::EvalRun]| {
        let mut s = String::new();
        for r in runs {
            for rep in [&r.primary, &r.secondary, &r.diversifi] {
                trace_fp(&mut s, &rep.trace);
                write!(s, "waste={},air={};", rep.secondary_wasteful_tx, rep.secondary_air_tx)
                    .unwrap();
            }
            s.push('\n');
        }
        s
    };
    let reference = fp(&run_eval_corpus(&opts, 0xE7A1));
    for threads in [2usize, 4] {
        opts.threads = threads;
        let got = fp(&run_eval_corpus(&opts, 0xE7A1));
        assert_eq!(got, reference, "eval corpus diverged at threads={threads}");
    }
}

#[test]
fn fleet_sweep_matches_serial_reference() {
    let mut spec = StreamSpec::voip();
    spec.duration = SimDuration::from_secs(10);
    let seed_for = |n: usize| 0x77AA ^ n as u64;
    // `fleet_sweep` parallelises across the size×arm grid; rebuild every
    // pair serially from the same per-size seed derivation and demand
    // identical reports.
    let rows = fleet_sweep(&[2, 4], spec, seed_for);
    assert_eq!(rows.len(), 2);
    for (n, base, dvf) in &rows {
        let seeds = SeedFactory::new(seed_for(*n));
        let ref_base = World::new(&office_fleet(*n, false, spec, &seeds), &seeds).run();
        let ref_dvf = World::new(&office_fleet(*n, true, spec, &seeds), &seeds).run();
        assert_eq!(report_fp(base), report_fp(&ref_base), "baseline arm diverged at n={n}");
        assert_eq!(report_fp(dvf), report_fp(&ref_dvf), "diversifi arm diverged at n={n}");
    }
}

/// FNV-1a over a fingerprint string, so a whole sweep pins as one constant.
fn fnv64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// The fleet sweep's outputs, pinned: every client's trace, recovery
/// counters and the secondary air of both arms at 2 and 4 clients. Only a
/// change that means to move the multi-client model may change this.
const FLEET_SWEEP_FP: u64 = 0x330d_2a42_54cb_9a5e;

#[test]
fn fleet_sweep_outputs_are_pinned() {
    let mut spec = StreamSpec::voip();
    spec.duration = SimDuration::from_secs(10);
    let mut s = String::new();
    for (n, base, dvf) in fleet_sweep(&[2, 4], spec, |n| 0x77AA ^ n as u64) {
        write!(s, "n={n}\n{}{}", report_fp(&base), report_fp(&dvf)).unwrap();
    }
    assert_eq!(fnv64(&s), FLEET_SWEEP_FP, "fleet sweep fingerprint {:#018x}", fnv64(&s));
}
