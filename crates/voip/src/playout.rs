//! Playout-buffer simulation and G.711 concealment accounting.
//!
//! The paper estimates call quality by "running the packet traces through a
//! G711 codec, and using the degree of interpolation and extrapolation of
//! voice samples" (§3.2, §4). We reproduce that accounting: a fixed playout
//! deadline per packet; a missing packet adjacent to received audio is
//! *interpolated* (mild artifact); consecutive misses beyond the first are
//! *extrapolated* (stretched/repeated audio — the artifact that makes calls
//! bad); and packets arriving after their playout instant are late (treated
//! as lost by the concealment layer).

use crate::trace::StreamTrace;
use diversifi_simcore::SimDuration;
use serde::{Deserialize, Serialize};

/// Concealment accounting for one call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConcealmentStats {
    /// Packets played from actual received audio.
    pub played: u64,
    /// Missing packets concealed by interpolation (isolated, or the first
    /// of a burst — both neighbours' audio is eventually available).
    pub interpolated: u64,
    /// Missing packets concealed by extrapolation (2nd and later packets of
    /// a loss burst).
    pub extrapolated: u64,
    /// Packets that arrived but after their playout instant.
    pub late: u64,
}

impl ConcealmentStats {
    /// Total packets accounted.
    pub fn total(&self) -> u64 {
        self.played + self.interpolated + self.extrapolated
    }

    /// Fraction of audio that had to be concealed at all.
    pub fn concealed_fraction(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        (self.interpolated + self.extrapolated) as f64 / self.total() as f64
    }

    /// Fraction of audio concealed by *extrapolation* — the perceptually
    /// expensive kind, driven by burst losses.
    pub fn extrapolated_fraction(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        self.extrapolated as f64 / self.total() as f64
    }
}

/// Playout-buffer configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PlayoutConfig {
    /// Fixed playout delay: packet `i` is played `playout_delay` after its
    /// send time. 100–150 ms is typical for interactive audio.
    pub playout_delay: SimDuration,
}

impl Default for PlayoutConfig {
    fn default() -> Self {
        PlayoutConfig { playout_delay: SimDuration::from_millis(150) }
    }
}

/// Accumulate the per-delivered-packet one-way delay distribution of a
/// trace (microseconds) into a telemetry histogram. Lost packets contribute
/// nothing; late-but-delivered packets contribute their real delay, so the
/// histogram's tail shows exactly the recoveries a tighter playout deadline
/// would discard.
pub fn delay_histogram_into(trace: &StreamTrace, hist: &mut diversifi_simcore::LogHistogram) {
    for fate in &trace.fates {
        if let Some(at) = fate.arrival {
            hist.record(at.saturating_since(fate.sent).as_micros());
        }
    }
}

/// Run a trace through the playout buffer and G.711-style concealment.
pub fn conceal(trace: &StreamTrace, cfg: &PlayoutConfig) -> ConcealmentStats {
    let mut stats = ConcealmentStats::default();
    let mut in_burst = false;
    for fate in &trace.fates {
        let playable = match fate.arrival {
            Some(at) => {
                let on_time = at <= fate.sent + cfg.playout_delay;
                if !on_time {
                    stats.late += 1;
                }
                on_time
            }
            None => false,
        };
        if playable {
            stats.played += 1;
            in_burst = false;
        } else if !in_burst {
            stats.interpolated += 1;
            in_burst = true;
        } else {
            stats.extrapolated += 1;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamSpec;
    use diversifi_simcore::SimTime;

    fn mk_trace(pattern: &[Option<u64>]) -> StreamTrace {
        let spec = StreamSpec {
            packet_bytes: 160,
            interval: SimDuration::from_millis(20),
            duration: SimDuration::from_millis(20 * pattern.len() as u64),
        };
        let mut tr = StreamTrace::new(spec, SimTime::ZERO);
        for (i, p) in pattern.iter().enumerate() {
            if let Some(ms) = p {
                let sent = tr.fates[i].sent;
                tr.record_arrival(i as u64, sent + SimDuration::from_millis(*ms));
            }
        }
        tr
    }

    #[test]
    fn clean_call_plays_everything() {
        let tr = mk_trace(&[Some(5); 10]);
        let s = conceal(&tr, &PlayoutConfig::default());
        assert_eq!(s.played, 10);
        assert_eq!(s.concealed_fraction(), 0.0);
        assert_eq!(s.total(), 10);
    }

    #[test]
    fn isolated_losses_interpolate() {
        let tr = mk_trace(&[Some(5), None, Some(5), None, Some(5)]);
        let s = conceal(&tr, &PlayoutConfig::default());
        assert_eq!(s.interpolated, 2);
        assert_eq!(s.extrapolated, 0);
    }

    #[test]
    fn bursts_extrapolate_after_first() {
        let tr = mk_trace(&[Some(5), None, None, None, Some(5)]);
        let s = conceal(&tr, &PlayoutConfig::default());
        assert_eq!(s.interpolated, 1);
        assert_eq!(s.extrapolated, 2);
        assert!(s.extrapolated_fraction() > 0.3);
    }

    #[test]
    fn late_packets_are_concealed_and_counted() {
        // 500 ms delay blows the 150 ms playout budget.
        let tr = mk_trace(&[Some(5), Some(500), Some(5)]);
        let s = conceal(&tr, &PlayoutConfig::default());
        assert_eq!(s.late, 1);
        assert_eq!(s.played, 2);
        assert_eq!(s.interpolated, 1);
    }

    #[test]
    fn deeper_playout_buffer_tolerates_delay() {
        let tr = mk_trace(&[Some(5), Some(500), Some(5)]);
        let cfg = PlayoutConfig { playout_delay: SimDuration::from_secs(1) };
        let s = conceal(&tr, &cfg);
        assert_eq!(s.late, 0);
        assert_eq!(s.played, 3);
    }

    #[test]
    fn burst_resets_after_good_packet() {
        let tr = mk_trace(&[None, None, Some(5), None, None]);
        let s = conceal(&tr, &PlayoutConfig::default());
        // Two bursts: each contributes 1 interpolation + 1 extrapolation.
        assert_eq!(s.interpolated, 2);
        assert_eq!(s.extrapolated, 2);
    }
}
