//! Call-quality estimation: ITU-T G.107 E-model with burst-aware loss
//! impairment, mapped to MOS, plus the paper's "poor call" classification.
//!
//! The paper (§3.2, §4) estimates the Poor Call Rate by feeding packet
//! traces through a G.711 pipeline and applying "well established models"
//! (it cites P.862 PESQ and P.862.1 MOS mapping). PESQ needs audio
//! waveforms; the standard trace-driven equivalent — widely used for VoIP
//! monitoring — is the E-model (ITU-T G.107) with the G.113 Appendix I
//! burst-ratio extension, which is what we implement:
//!
//! ```text
//! R      = 93.2 − Id(delay) − Ie,eff(loss, burstiness)
//! Ie,eff = Ie + (95 − Ie) · Ppl / (Ppl / BurstR + Bpl)
//! MOS    = 1 + 0.035·R + R·(R−60)·(100−R)·7e−6
//! ```
//!
//! Burstiness matters: the same 2% loss hurts far more in bursts than
//! isolated — which is precisely the difference between `temporal` and
//! `cross-link` replication in the paper's Fig. 5.

use crate::playout::ConcealmentStats;
use crate::trace::StreamTrace;
use diversifi_simcore::SimDuration;
use serde::Serialize;

/// Codec-dependent E-model constants.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct CodecModel {
    /// Equipment impairment at zero loss (G.711 = 0).
    pub ie: f64,
    /// Packet-loss robustness (G.711 with simple PLC ≈ 10; with the strong
    /// PLC of G.711 Appendix I, 25.1; without any PLC, 4.3).
    pub bpl: f64,
}

impl CodecModel {
    /// G.711 with the interpolation/extrapolation concealment the paper's
    /// pipeline applies.
    pub fn g711_plc() -> CodecModel {
        CodecModel { ie: 0.0, bpl: 10.0 }
    }
}

/// E-model evaluation of one call.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct CallQuality {
    /// Transmission rating factor R (0–93.2 here).
    pub r_factor: f64,
    /// Mean opinion score (1–4.5).
    pub mos: f64,
    /// Loss probability (percent) used, including late packets.
    pub loss_pct: f64,
    /// Burst ratio used (1 = random losses; >1 = burstier than random).
    pub burst_ratio: f64,
    /// One-way mouth-to-ear delay (ms) used.
    pub delay_ms: f64,
}

/// Delay impairment Id per G.107's widely used piecewise approximation.
fn delay_impairment(delay_ms: f64) -> f64 {
    let h = if delay_ms > 177.3 { 1.0 } else { 0.0 };
    0.024 * delay_ms + 0.11 * (delay_ms - 177.3) * h
}

/// Effective equipment impairment with burst ratio (G.107 §7.2 / G.113).
fn ie_eff(codec: &CodecModel, loss_pct: f64, burst_ratio: f64) -> f64 {
    let br = burst_ratio.max(1.0);
    codec.ie + (95.0 - codec.ie) * loss_pct / (loss_pct / br + codec.bpl)
}

/// R → MOS mapping (G.107 Annex B).
fn r_to_mos(r: f64) -> f64 {
    if r <= 0.0 {
        1.0
    } else if r >= 100.0 {
        4.5
    } else {
        // The cubic dips marginally below 1 for small positive R; MOS is
        // defined on [1, 4.5].
        (1.0 + 0.035 * r + r * (r - 60.0) * (100.0 - r) * 7e-6).clamp(1.0, 4.5)
    }
}

/// Burst ratio: mean observed loss-burst length divided by the expected
/// mean burst length if the same loss rate were i.i.d. (1/(1−p)).
pub fn burst_ratio(burst_lengths: &[usize], loss_rate: f64) -> f64 {
    burst_ratio_from_totals(
        burst_lengths.len(),
        burst_lengths.iter().sum::<usize>(),
        loss_rate,
    )
}

/// [`burst_ratio`] from the two totals that actually matter — lets the
/// evaluation path stream over a trace without materialising the
/// burst-length vector.
fn burst_ratio_from_totals(n_bursts: usize, total_len: usize, loss_rate: f64) -> f64 {
    if n_bursts == 0 || loss_rate <= 0.0 {
        return 1.0;
    }
    let mean_burst = total_len as f64 / n_bursts as f64;
    let random_mean = 1.0 / (1.0 - loss_rate.min(0.99));
    (mean_burst / random_mean).max(1.0)
}

/// Evaluate one call trace.
///
/// `extra_delay` is everything outside the trace itself (codec, WAN leg,
/// playout buffer) added to the mean observed network delay.
pub fn evaluate(
    trace: &StreamTrace,
    concealment: &ConcealmentStats,
    codec: &CodecModel,
    deadline: SimDuration,
    extra_delay: SimDuration,
) -> CallQuality {
    // Loss includes late packets — use the concealment accounting so the
    // two models agree on what "lost" means.
    let total = trace.len() as f64;
    let lost = (concealment.interpolated + concealment.extrapolated) as f64;
    let loss_pct = if total > 0.0 { 100.0 * lost / total } else { 0.0 };

    // One allocation-free pass: burst_ratio needs only the burst count and
    // their total length, and the delay term only the mean — summed in
    // trace order, so results are bit-identical to the collect-then-reduce
    // path this replaces. This runs per call per strategy across entire
    // corpora; it must not allocate.
    let mut n_bursts = 0usize;
    let mut burst_total = 0usize;
    let mut run = 0usize;
    let mut delay_sum = 0.0f64;
    let mut delivered = 0usize;
    for f in &trace.fates {
        if f.effectively_lost(deadline) {
            run += 1;
        } else if run > 0 {
            n_bursts += 1;
            burst_total += run;
            run = 0;
        }
        if let Some(d) = f.delay() {
            delay_sum += d.as_millis_f64();
            delivered += 1;
        }
    }
    if run > 0 {
        n_bursts += 1;
        burst_total += run;
    }
    let br = burst_ratio_from_totals(n_bursts, burst_total, lost / total.max(1.0));

    let mean_net_delay = if delivered == 0 { 0.0 } else { delay_sum / delivered as f64 };
    let delay_ms = mean_net_delay + extra_delay.as_millis_f64();

    let r = 93.2 - delay_impairment(delay_ms) - ie_eff(codec, loss_pct, br);
    CallQuality { r_factor: r, mos: r_to_mos(r), loss_pct, burst_ratio: br, delay_ms }
}

/// Evaluate quality directly from summary statistics, without a packet
/// trace. Used by the call-population models (paper Tables 1–2), where
/// millions of calls are drawn from loss/delay distributions rather than
/// simulated packet by packet.
pub fn mos_from_stats(
    codec: &CodecModel,
    loss_pct: f64,
    burst_ratio_value: f64,
    delay_ms: f64,
) -> CallQuality {
    let r = 93.2 - delay_impairment(delay_ms) - ie_eff(codec, loss_pct, burst_ratio_value);
    CallQuality {
        r_factor: r,
        mos: r_to_mos(r),
        loss_pct,
        burst_ratio: burst_ratio_value.max(1.0),
        delay_ms,
    }
}

/// The classifier that turns per-call quality into the paper's headline
/// metric.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct PcrModel {
    /// Calls with overall MOS below this are "poor" (the bottom two points
    /// of the 5-point user-rating scale).
    pub poor_mos: f64,
    /// Weight on the *worst window's* quality vs the whole call: the paper
    /// notes the worst 5-second degradation largely determines perceived
    /// quality (the paper's ref. 38).
    pub worst_window_weight: f64,
    /// The worst-window size.
    pub window: SimDuration,
}

impl Default for PcrModel {
    fn default() -> Self {
        PcrModel {
            poor_mos: 3.1,
            worst_window_weight: 0.35,
            window: SimDuration::from_secs(5),
        }
    }
}

impl PcrModel {
    /// Effective MOS combining whole-call and worst-window evaluations.
    pub fn effective_mos(
        &self,
        trace: &StreamTrace,
        concealment: &ConcealmentStats,
        codec: &CodecModel,
        deadline: SimDuration,
        extra_delay: SimDuration,
    ) -> f64 {
        let overall = evaluate(trace, concealment, codec, deadline, extra_delay);
        // Worst-window: apply the same model to the worst window's loss.
        let worst_loss_pct = trace.worst_window_loss_pct(self.window, deadline);
        let r_worst = 93.2
            - delay_impairment(overall.delay_ms)
            - ie_eff(codec, worst_loss_pct, overall.burst_ratio);
        let mos_worst = r_to_mos(r_worst);
        let w = self.worst_window_weight;
        (1.0 - w) * overall.mos + w * mos_worst
    }

    /// Is this call poor?
    pub fn is_poor(
        &self,
        trace: &StreamTrace,
        concealment: &ConcealmentStats,
        codec: &CodecModel,
        deadline: SimDuration,
        extra_delay: SimDuration,
    ) -> bool {
        self.effective_mos(trace, concealment, codec, deadline, extra_delay) < self.poor_mos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::playout::{conceal, PlayoutConfig};
    use crate::stream::StreamSpec;
    use crate::trace::DEFAULT_DEADLINE;
    use diversifi_simcore::SimTime;

    fn trace_with_loss(n: usize, lose: impl Fn(usize) -> bool) -> StreamTrace {
        let spec = StreamSpec {
            packet_bytes: 160,
            interval: SimDuration::from_millis(20),
            duration: SimDuration::from_millis(20 * n as u64),
        };
        let mut tr = StreamTrace::new(spec, SimTime::ZERO);
        for i in 0..n {
            if !lose(i) {
                let sent = tr.fates[i].sent;
                tr.record_arrival(i as u64, sent + SimDuration::from_millis(8));
            }
        }
        tr
    }

    fn quality(tr: &StreamTrace) -> CallQuality {
        let c = conceal(tr, &PlayoutConfig::default());
        evaluate(tr, &c, &CodecModel::g711_plc(), DEFAULT_DEADLINE, SimDuration::from_millis(60))
    }

    #[test]
    fn clean_call_is_excellent() {
        let q = quality(&trace_with_loss(1000, |_| false));
        assert!(q.mos > 4.2, "mos {}", q.mos);
        assert_eq!(q.loss_pct, 0.0);
    }

    #[test]
    fn heavy_loss_is_bad() {
        let q = quality(&trace_with_loss(1000, |i| i % 4 == 0)); // 25 %
        assert!(q.mos < 2.5, "mos {}", q.mos);
    }

    #[test]
    fn mos_monotone_in_loss() {
        let q1 = quality(&trace_with_loss(1000, |i| i % 100 == 0)); // 1 %
        let q5 = quality(&trace_with_loss(1000, |i| i % 20 == 0)); // 5 %
        let q10 = quality(&trace_with_loss(1000, |i| i % 10 == 0)); // 10 %
        assert!(q1.mos > q5.mos);
        assert!(q5.mos > q10.mos);
    }

    #[test]
    fn bursty_loss_hurts_more_than_spread_loss() {
        // Same 5% loss: isolated every 20th vs bursts of 10 every 200.
        let spread = quality(&trace_with_loss(2000, |i| i % 20 == 0));
        let bursty = quality(&trace_with_loss(2000, |i| i % 200 < 10));
        assert!(bursty.burst_ratio > spread.burst_ratio);
        assert!(
            bursty.mos < spread.mos - 0.1,
            "bursty {} vs spread {}",
            bursty.mos,
            spread.mos
        );
    }

    #[test]
    fn delay_impairment_kicks_in_past_budget() {
        let tr = trace_with_loss(500, |_| false);
        let c = conceal(&tr, &PlayoutConfig::default());
        let codec = CodecModel::g711_plc();
        let low = evaluate(&tr, &c, &codec, DEFAULT_DEADLINE, SimDuration::from_millis(50));
        let high = evaluate(&tr, &c, &codec, DEFAULT_DEADLINE, SimDuration::from_millis(350));
        assert!(low.mos - high.mos > 0.4, "low {} high {}", low.mos, high.mos);
    }

    #[test]
    fn streaming_evaluate_matches_collected_stats() {
        // The single-pass burst/delay accounting inside `evaluate` must
        // reproduce the collect-then-reduce path bit for bit.
        let tr = trace_with_loss(3000, |i| i % 37 < 3 || i % 113 == 0);
        let c = conceal(&tr, &PlayoutConfig::default());
        let q = quality(&tr);
        let lost = (c.interpolated + c.extrapolated) as f64;
        let bursts = tr.burst_lengths(DEFAULT_DEADLINE);
        let br = burst_ratio(&bursts, lost / tr.len() as f64);
        assert_eq!(q.burst_ratio.to_bits(), br.to_bits());
        let delays = tr.delays_ms();
        let expected_delay = diversifi_simcore::mean(&delays) + 60.0;
        assert_eq!(q.delay_ms.to_bits(), expected_delay.to_bits());
    }

    #[test]
    fn burst_ratio_of_random_loss_is_one() {
        // Isolated losses: mean burst = 1; random mean at 1% ≈ 1.01.
        let br = burst_ratio(&[1, 1, 1, 1], 0.01);
        assert!((br - 1.0).abs() < 0.02);
        // Bursts of 5 at 1% loss → ratio ≈ 5.
        let br5 = burst_ratio(&[5, 5], 0.01);
        assert!(br5 > 4.5);
        // Empty = no losses.
        assert_eq!(burst_ratio(&[], 0.0), 1.0);
    }

    #[test]
    fn r_to_mos_bounds() {
        assert_eq!(r_to_mos(-5.0), 1.0);
        assert_eq!(r_to_mos(120.0), 4.5);
        assert!((r_to_mos(93.2) - 4.4).abs() < 0.1);
        assert!(r_to_mos(50.0) > 2.0 && r_to_mos(50.0) < 3.0);
    }

    #[test]
    fn pcr_model_separates_good_and_bad_calls() {
        let model = PcrModel::default();
        let codec = CodecModel::g711_plc();
        let dl = DEFAULT_DEADLINE;
        let extra = SimDuration::from_millis(60);

        let good = trace_with_loss(6000, |_| false);
        let cg = conceal(&good, &PlayoutConfig::default());
        assert!(!model.is_poor(&good, &cg, &codec, dl, extra));

        // A call with a catastrophic 5-second hole (250 packets).
        let bad = trace_with_loss(6000, |i| (1000..1250).contains(&i) || i % 25 == 0);
        let cb = conceal(&bad, &PlayoutConfig::default());
        assert!(model.is_poor(&bad, &cb, &codec, dl, extra));
    }

    #[test]
    fn worst_window_weight_matters() {
        // Loss concentrated in one window: whole-call loss is only 2%, but
        // the worst window is a disaster.
        let tr = trace_with_loss(6000, |i| (1000..1120).contains(&i));
        let c = conceal(&tr, &PlayoutConfig::default());
        let codec = CodecModel::g711_plc();
        let flat = PcrModel { worst_window_weight: 0.0, ..Default::default() };
        let peaky = PcrModel { worst_window_weight: 0.9, ..Default::default() };
        let dl = DEFAULT_DEADLINE;
        let extra = SimDuration::from_millis(60);
        let mos_flat = flat.effective_mos(&tr, &c, &codec, dl, extra);
        let mos_peaky = peaky.effective_mos(&tr, &c, &codec, dl, extra);
        assert!(mos_peaky < mos_flat - 0.3, "peaky {mos_peaky} flat {mos_flat}");
    }
}
