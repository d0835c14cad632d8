//! # diversifi-bench
//!
//! The reproduction harness for every table and figure in the DiversiFi
//! paper, plus the `perf` benchmark of the simulator's layers.
//!
//! The `repro` binary regenerates the paper's results:
//!
//! ```text
//! cargo run --release -p diversifi-bench --bin repro -- all
//! cargo run --release -p diversifi-bench --bin repro -- fig2a fig8 table3
//! cargo run --release -p diversifi-bench --bin repro -- --quick all
//! ```
//!
//! Each experiment prints the paper-comparable rows/series and writes a
//! JSON artifact under `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library diagnostics go through `diversifi_simcore::telemetry`, never
// stdout/stderr (the `repro` *binary* owns stdout); CI's `clippy -D
// warnings` enforces this.
#![warn(clippy::print_stdout, clippy::print_stderr)]

use diversifi::analysis::AnalysisOptions;
use diversifi::evaluation::EvalOptions;

/// Scale factors for a quick (CI-friendly) pass vs the full paper-size run.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Divide corpus sizes by this.
    pub corpus_divisor: usize,
    /// Call duration in seconds (paper: 120).
    pub call_secs: u64,
}

impl Scale {
    /// Full paper-scale settings.
    pub fn full() -> Scale {
        Scale { corpus_divisor: 1, call_secs: 120 }
    }

    /// Reduced settings for smoke runs.
    pub fn quick() -> Scale {
        Scale { corpus_divisor: 8, call_secs: 30 }
    }

    /// Apply to an analysis corpus.
    pub fn analysis(&self, mut opts: AnalysisOptions) -> AnalysisOptions {
        opts.n_calls = (opts.n_calls / self.corpus_divisor).max(6);
        opts.spec.duration = diversifi_simcore::SimDuration::from_secs(self.call_secs);
        opts
    }

    /// Apply to the §6 evaluation corpus.
    pub fn eval(&self, mut opts: EvalOptions) -> EvalOptions {
        opts.n_runs = (opts.n_runs / self.corpus_divisor).max(4);
        opts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_shrinks() {
        let s = Scale::quick();
        let a = s.analysis(AnalysisOptions::paper_corpus());
        assert!(a.n_calls < 458 && a.n_calls >= 6);
        let e = s.eval(EvalOptions::default());
        assert!(e.n_runs < 61 && e.n_runs >= 4);
    }

    #[test]
    fn full_scale_is_identity() {
        let s = Scale::full();
        let a = s.analysis(AnalysisOptions::paper_corpus());
        assert_eq!(a.n_calls, 458);
    }
}
