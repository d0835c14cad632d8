//! The §4 analysis pipeline: run a corpus of two-NIC calls, evaluate every
//! strategy on the resulting traces, and compute each figure's data.

use crate::corpus::{self, CallEnvironment, CorpusMix};
use crate::twonic::{run_temporal, run_two_nic, TwoNicScenario};
use diversifi_client::{self as client, DivertConfig, LinkObservation};
use diversifi_simcore::{SeedFactory, SimDuration, SweepRunner};
use diversifi_voip::{
    conceal, metrics, CodecModel, PcrModel, PlayoutConfig, StreamSpec, StreamTrace,
    DEFAULT_DEADLINE,
};
use diversifi_wifi::{ImpairmentKind, RealizationCache};
use serde::Serialize;

/// Everything simulated for one corpus call.
#[derive(Clone, Debug)]
pub struct CallRecord {
    /// Impairment class (Fig. 6 grouping).
    pub impairment: ImpairmentKind,
    /// Link A observation under full replication.
    pub a: LinkObservation,
    /// Link B observation under full replication.
    pub b: LinkObservation,
    /// Temporal replication, Δ = 0, on the (a-priori) stronger link.
    pub temporal_0: Option<StreamTrace>,
    /// Temporal replication, Δ = 100 ms.
    pub temporal_100: Option<StreamTrace>,
}

impl CallRecord {
    /// The trace each named strategy would have delivered.
    pub fn strategy_trace(&self, strategy: Strategy) -> StreamTrace {
        match strategy {
            Strategy::Stronger => client::stronger(&self.a, &self.b),
            Strategy::Better => {
                client::better(&self.a, &self.b, SimDuration::from_secs(5), DEFAULT_DEADLINE)
            }
            Strategy::Divert => {
                client::divert(&self.a, &self.b, &DivertConfig::default(), DEFAULT_DEADLINE)
            }
            Strategy::CrossLink => client::cross_link(&self.a, &self.b),
            Strategy::Temporal0 => self.temporal_0.clone().expect("temporal not simulated"),
            Strategy::Temporal100 => self.temporal_100.clone().expect("temporal not simulated"),
        }
    }
}

/// The named §4 strategies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Strategy {
    /// Highest-RSSI link for the whole call (OS default; also the
    /// "baseline" of Fig. 2c).
    Stronger,
    /// 5-second trial, then the better-performing link.
    Better,
    /// Fine-grained reactive selection (Divert, H=1/T=1).
    Divert,
    /// Full two-NIC replication.
    CrossLink,
    /// Two copies back-to-back on the stronger link.
    Temporal0,
    /// Two copies 100 ms apart on the stronger link.
    Temporal100,
}

/// Corpus-run options.
#[derive(Clone, Debug)]
pub struct AnalysisOptions {
    /// Number of calls.
    pub n_calls: usize,
    /// Stream workload.
    pub spec: StreamSpec,
    /// Impairment mix.
    pub mix: CorpusMix,
    /// PHY diversity order (2 for the §4.3 MIMO experiments).
    pub diversity: u8,
    /// Also simulate temporal replication (needed for Figs. 2c and 5).
    pub temporal: bool,
    /// Include shared-fate environment components (see
    /// [`corpus::sample_environment`]).
    pub shared_fate: bool,
    /// Worker threads.
    pub threads: usize,
}

impl AnalysisOptions {
    /// The paper's main §4 corpus: 458 VoIP calls, SISO, with temporal runs.
    pub fn paper_corpus() -> AnalysisOptions {
        AnalysisOptions {
            n_calls: 458,
            spec: StreamSpec::voip(),
            mix: CorpusMix::default(),
            diversity: 1,
            temporal: true,
            shared_fate: true,
            threads: num_threads(),
        }
    }

    /// The §4.3 MIMO lab corpus: 44 calls at diversity order 2.
    pub fn mimo_corpus() -> AnalysisOptions {
        AnalysisOptions {
            n_calls: 44,
            spec: StreamSpec::voip(),
            mix: CorpusMix::default(),
            diversity: 2,
            temporal: false,
            shared_fate: true,
            threads: num_threads(),
        }
    }

    /// The §4.5 high-rate corpus: 80 runs of the 5 Mbps stream. A 5 Mbps
    /// interactive stream is only deployed where the link can nominally
    /// carry it, so this corpus skews toward viable environments — the
    /// saturating classes (heavy congestion, microwave) would drown *every*
    /// strategy in queueing collapse and show nothing.
    pub fn high_rate_corpus() -> AnalysisOptions {
        AnalysisOptions {
            n_calls: 80,
            spec: StreamSpec::high_rate(),
            mix: CorpusMix {
                none: 0.45,
                weak_link: 0.25,
                mobility: 0.22,
                congestion: 0.04,
                microwave: 0.04,
            },
            diversity: 1,
            temporal: false,
            shared_fate: false,
            threads: num_threads(),
        }
    }
}

fn num_threads() -> usize {
    diversifi_simcore::par::default_parallelism()
}

fn simulate_call(
    env: &CallEnvironment,
    call_seeds: &SeedFactory,
    spec: StreamSpec,
    temporal: bool,
    cache: &RealizationCache,
) -> CallRecord {
    let scn = TwoNicScenario::new(spec, env.link_a.clone(), env.link_b.clone());
    let run = run_two_nic(&scn, call_seeds, cache);
    // Temporal replication runs on the a-priori stronger (nearer) link,
    // with the same seed streams → the same channel realisation, replayed
    // from the cache rather than re-sampled per arm.
    let (temporal_0, temporal_100) = if temporal {
        let stronger_cfg = if env.link_a.mean_rssi_dbm() >= env.link_b.mean_rssi_dbm() {
            &env.link_a
        } else {
            &env.link_b
        };
        (
            Some(run_temporal(&spec, stronger_cfg, call_seeds, SimDuration::ZERO, cache)),
            Some(run_temporal(
                &spec,
                stronger_cfg,
                call_seeds,
                SimDuration::from_millis(100),
                cache,
            )),
        )
    } else {
        (None, None)
    };
    CallRecord { impairment: env.impairment, a: run.a, b: run.b, temporal_0, temporal_100 }
}

/// Run a corpus on the shared [`SweepRunner`]. Deterministic: results are
/// ordered by call index and each call derives its own seed subfactory, so
/// output is bit-identical at any thread count — each worker holds a small
/// realisation cache, which only replays pure functions of `(link, seed)`
/// and therefore cannot leak state between calls.
pub fn run_corpus(opts: &AnalysisOptions, seed: u64) -> Vec<CallRecord> {
    let seeds = SeedFactory::new(seed);
    let envs = corpus::generate(opts.n_calls, &opts.mix, &seeds, opts.diversity, opts.shared_fate);
    SweepRunner::new(opts.threads).run_indexed_with(
        envs.len(),
        || RealizationCache::new(8),
        |i, cache| {
            let (env, call_seeds) = &envs[i];
            simulate_call(env, call_seeds, opts.spec, opts.temporal, cache)
        },
    )
}

/// Standard quality-evaluation parameters shared by every experiment.
#[derive(Clone, Copy, Debug)]
pub struct QualityParams {
    /// Playout buffer.
    pub playout: PlayoutConfig,
    /// Codec E-model constants.
    pub codec: CodecModel,
    /// Poor-call classifier.
    pub pcr: PcrModel,
    /// Usefulness deadline on the access hop.
    pub deadline: SimDuration,
    /// Mouth-to-ear delay outside the trace (codec + WAN + playout).
    pub extra_delay: SimDuration,
}

impl Default for QualityParams {
    fn default() -> Self {
        QualityParams {
            playout: PlayoutConfig::default(),
            codec: CodecModel::g711_plc(),
            pcr: PcrModel::default(),
            deadline: DEFAULT_DEADLINE,
            extra_delay: SimDuration::from_millis(60),
        }
    }
}

impl QualityParams {
    /// Effective MOS of one call trace.
    pub fn mos(&self, trace: &StreamTrace) -> f64 {
        let c = conceal(trace, &self.playout);
        self.pcr.effective_mos(trace, &c, &self.codec, self.deadline, self.extra_delay)
    }

    /// Is this call poor?
    pub fn is_poor(&self, trace: &StreamTrace) -> bool {
        self.mos(trace) < self.pcr.poor_mos
    }

    /// Poor call rate (percent) over a set of traces.
    pub fn pcr_pct(&self, traces: &[StreamTrace]) -> f64 {
        if traces.is_empty() {
            return 0.0;
        }
        let poor = traces.iter().filter(|t| self.is_poor(t)).count();
        100.0 * poor as f64 / traces.len() as f64
    }
}

/// One CDF series for a figure.
#[derive(Clone, Debug, Serialize)]
pub struct CdfSeries {
    /// Legend label, matching the paper's.
    pub label: String,
    /// `(loss %, fraction of calls)` points.
    pub points: Vec<(f64, f64)>,
    /// The 90th-percentile worst-window loss (the number the paper quotes).
    pub p90: f64,
}

/// Build the worst-5-second-window loss CDF for a strategy over a corpus.
pub fn strategy_cdf(records: &[CallRecord], strategy: Strategy, label: &str) -> CdfSeries {
    let traces: Vec<StreamTrace> = records.iter().map(|r| r.strategy_trace(strategy)).collect();
    let ecdf = metrics::worst_window_ecdf(&traces, SimDuration::from_secs(5), DEFAULT_DEADLINE);
    CdfSeries {
        label: label.to_string(),
        points: ecdf.series(0.0, 100.0, 101),
        p90: ecdf.quantile(0.9),
    }
}

/// The Fig. 4 data: mean auto-correlation of the loss process on the
/// stronger link, and mean cross-correlation across the two links, at lags
/// 0/1..=max_lag packets.
#[derive(Clone, Debug, Serialize)]
pub struct CorrelationFigure {
    /// `(lag, mean autocorrelation)`; lags start at 1.
    pub auto_corr: Vec<(usize, f64)>,
    /// `(lag, mean cross-correlation)`; lags start at 0.
    pub cross_corr: Vec<(usize, f64)>,
}

/// Compute Fig. 4 over a corpus.
pub fn correlation_figure(records: &[CallRecord], max_lag: usize) -> CorrelationFigure {
    let mut auto_acc = vec![0.0; max_lag];
    let mut cross_acc = vec![0.0; max_lag + 1];
    let mut n_auto = 0usize;
    for rec in records {
        // Only calls with some loss contribute a defined correlation.
        let stronger = client::stronger(&rec.a, &rec.b);
        if stronger.loss_rate(DEFAULT_DEADLINE) == 0.0 {
            continue;
        }
        n_auto += 1;
        for (lag, v) in metrics::loss_autocorrelation(&stronger, DEFAULT_DEADLINE, max_lag) {
            auto_acc[lag - 1] += v;
        }
        for (lag, v) in
            metrics::loss_cross_correlation(&rec.a.trace, &rec.b.trace, DEFAULT_DEADLINE, max_lag)
        {
            cross_acc[lag] += v;
        }
    }
    let n = n_auto.max(1) as f64;
    CorrelationFigure {
        auto_corr: auto_acc.iter().enumerate().map(|(i, v)| (i + 1, v / n)).collect(),
        cross_corr: cross_acc.iter().enumerate().map(|(i, v)| (i, v / n)).collect(),
    }
}

/// Fig. 6 data: PCR per impairment class, for `stronger` vs `cross-link`.
#[derive(Clone, Debug, Serialize)]
pub struct PcrByImpairment {
    /// Rows: `(label, PCR stronger %, PCR cross-link %)`.
    pub rows: Vec<(String, f64, f64)>,
    /// Overall PCR for `stronger`.
    pub overall_stronger: f64,
    /// Overall PCR for `cross-link`.
    pub overall_cross: f64,
}

/// Compute Fig. 6 over a corpus.
pub fn pcr_by_impairment(records: &[CallRecord], quality: &QualityParams) -> PcrByImpairment {
    let mut rows = Vec::new();
    for kind in ImpairmentKind::FIG6 {
        let subset: Vec<&CallRecord> =
            records.iter().filter(|r| r.impairment == kind).collect();
        if subset.is_empty() {
            continue;
        }
        let stronger: Vec<StreamTrace> =
            subset.iter().map(|r| r.strategy_trace(Strategy::Stronger)).collect();
        let cross: Vec<StreamTrace> =
            subset.iter().map(|r| r.strategy_trace(Strategy::CrossLink)).collect();
        rows.push((
            kind.label().to_string(),
            quality.pcr_pct(&stronger),
            quality.pcr_pct(&cross),
        ));
    }
    let stronger_all: Vec<StreamTrace> =
        records.iter().map(|r| r.strategy_trace(Strategy::Stronger)).collect();
    let cross_all: Vec<StreamTrace> =
        records.iter().map(|r| r.strategy_trace(Strategy::CrossLink)).collect();
    PcrByImpairment {
        rows,
        overall_stronger: quality.pcr_pct(&stronger_all),
        overall_cross: quality.pcr_pct(&cross_all),
    }
}

/// Summary statistics quoted around Figs. 5 and 9: mean per-call losses and
/// the bursty subset, per strategy.
#[derive(Clone, Debug, Serialize)]
pub struct BurstSummary {
    /// Strategy label.
    pub label: String,
    /// Mean packets lost per call.
    pub mean_lost: f64,
    /// Mean packets lost in bursts of ≥ 2 per call.
    pub mean_bursty: f64,
    /// Histogram rows `(bucket, mean count per call)`.
    pub histogram: Vec<(String, f64)>,
}

/// Build the burst summary for a strategy over a corpus.
pub fn burst_summary(records: &[CallRecord], strategy: Strategy, label: &str) -> BurstSummary {
    let traces: Vec<StreamTrace> = records.iter().map(|r| r.strategy_trace(strategy)).collect();
    let (mean_lost, mean_bursty) = metrics::mean_loss_burst_split(&traces, DEFAULT_DEADLINE);
    let hist = metrics::burst_histogram(&traces, DEFAULT_DEADLINE);
    BurstSummary {
        label: label.to_string(),
        mean_lost,
        mean_bursty,
        histogram: hist.per_call_series(traces.len().max(1) as u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_corpus() -> Vec<CallRecord> {
        let opts = AnalysisOptions {
            n_calls: if cfg!(debug_assertions) { 18 } else { 24 },
            spec: StreamSpec {
                packet_bytes: 160,
                interval: SimDuration::from_millis(20),
                duration: SimDuration::from_secs(30),
            },
            mix: CorpusMix::default(),
            diversity: 1,
            temporal: true,
            shared_fate: true,
            threads: 4,
        };
        run_corpus(&opts, 0xA16)
    }

    #[test]
    fn corpus_runs_and_is_ordered_deterministically() {
        let opts = AnalysisOptions {
            n_calls: 8,
            spec: StreamSpec {
                packet_bytes: 160,
                interval: SimDuration::from_millis(20),
                duration: SimDuration::from_secs(10),
            },
            mix: CorpusMix::default(),
            diversity: 1,
            temporal: false,
            shared_fate: true,
            threads: 4,
        };
        let c1 = run_corpus(&opts, 1);
        let c2 = run_corpus(&opts, 1);
        assert_eq!(c1.len(), 8);
        for (x, y) in c1.iter().zip(&c2) {
            assert_eq!(x.impairment, y.impairment);
            assert_eq!(x.a.trace.fates, y.a.trace.fates);
        }
    }

    #[test]
    fn cross_link_dominates_selection_in_the_tail() {
        let records = small_corpus();
        let cross = strategy_cdf(&records, Strategy::CrossLink, "Cross-Link");
        let stronger = strategy_cdf(&records, Strategy::Stronger, "Stronger");
        let better = strategy_cdf(&records, Strategy::Better, "Better");
        assert!(
            cross.p90 < stronger.p90,
            "cross p90 {} vs stronger {}",
            cross.p90,
            stronger.p90
        );
        assert!(cross.p90 <= better.p90, "cross {} vs better {}", cross.p90, better.p90);
    }

    #[test]
    fn divert_sits_between_selection_and_crosslink() {
        let records = small_corpus();
        let cross = strategy_cdf(&records, Strategy::CrossLink, "x");
        let divert = strategy_cdf(&records, Strategy::Divert, "d");
        let stronger = strategy_cdf(&records, Strategy::Stronger, "s");
        assert!(cross.p90 <= divert.p90, "cross {} divert {}", cross.p90, divert.p90);
        assert!(divert.p90 <= stronger.p90 * 1.2, "divert {} stronger {}", divert.p90, stronger.p90);
    }

    #[test]
    fn temporal_ordering_matches_fig2c() {
        // Mean worst-window loss: on a corpus this small the percentile
        // tail is dominated by temporal-immune impairments (multi-second
        // mobility fades), so assert on the mean; the paper-scale Δ
        // ordering is enforced in tests/paper_parity.rs.
        let records = small_corpus();
        let mean_worst = |s: Strategy| {
            let vals: Vec<f64> = records
                .iter()
                .map(|r| {
                    r.strategy_trace(s)
                        .worst_window_loss_pct(SimDuration::from_secs(5), DEFAULT_DEADLINE)
                })
                .collect();
            diversifi_simcore::mean(&vals)
        };
        let t0 = mean_worst(Strategy::Temporal0);
        let t100 = mean_worst(Strategy::Temporal100);
        let baseline = mean_worst(Strategy::Stronger);
        let cross = mean_worst(Strategy::CrossLink);
        assert!(t100 <= baseline, "t100 {t100} baseline {baseline}");
        // The Δ=100 vs Δ=0 refinement needs a paper-scale sample to
        // resolve; here just bound the gap.
        assert!(t100 <= t0 * 1.8 + 1.0, "t100 {t100} t0 {t0}");
        assert!(cross <= t100, "cross {cross} t100 {t100}");
    }

    #[test]
    fn autocorrelation_exceeds_cross_correlation() {
        let records = small_corpus();
        let fig4 = correlation_figure(&records, 20);
        assert_eq!(fig4.auto_corr.len(), 20);
        assert_eq!(fig4.cross_corr.len(), 21);
        // The paper's central observation: even at lag 20, autocorrelation
        // exceeds cross-correlation.
        for lag in [1usize, 5, 10, 20] {
            let ac = fig4.auto_corr[lag - 1].1;
            let cc = fig4.cross_corr[lag].1;
            assert!(ac > cc, "lag {lag}: auto {ac} <= cross {cc}");
        }
        assert!(fig4.auto_corr[0].1 > 0.1, "lag-1 autocorrelation too weak");
        // The corpus deliberately contains shared-fate calls (microwave
        // phase-correlation, shared walks), so the mean lag-0 value is not
        // zero — but it must stay far below the within-link autocorrelation.
        assert!(
            fig4.cross_corr[0].1 < 0.8 * fig4.auto_corr[0].1,
            "cross ({}) should stay below auto ({})",
            fig4.cross_corr[0].1,
            fig4.auto_corr[0].1
        );
    }

    #[test]
    fn pcr_by_impairment_shows_crosslink_gain() {
        let records = small_corpus();
        let q = QualityParams::default();
        let fig6 = pcr_by_impairment(&records, &q);
        assert!(
            fig6.overall_cross <= fig6.overall_stronger,
            "cross {} vs stronger {}",
            fig6.overall_cross,
            fig6.overall_stronger
        );
    }

    #[test]
    fn burst_summary_crosslink_less_bursty() {
        let records = small_corpus();
        let s = burst_summary(&records, Strategy::Stronger, "Stronger");
        let x = burst_summary(&records, Strategy::CrossLink, "Cross-Link");
        assert!(x.mean_lost <= s.mean_lost);
        assert!(x.mean_bursty <= s.mean_bursty);
        assert_eq!(s.histogram.len(), 11);
    }
}
