//! The link-usage strategies compared in §4 of the paper, expressed as
//! combinators over per-link delivery traces.
//!
//! This mirrors the paper's methodology exactly: in the two-NIC
//! experiments, a copy of the stream is sent to each NIC and the captured
//! per-link traces are then evaluated under each strategy. Given the two
//! [`StreamTrace`]s (plus RSSI metadata), each strategy here reconstructs
//! the trace *that strategy's client would have seen*:
//!
//! - [`stronger`] — classic OS behaviour: associate with the higher-RSSI AP
//!   for the whole call.
//! - [`better`] — sample both links for a 5-second trial, then settle on
//!   the one that lost fewer packets.
//! - [`divert`] — fine-grained reactive link selection (Miu et al.,
//!   MobiSys '04): switch links whenever ≥T of the last H frames were lost.
//! - [`cross_link`] — full replication: the union of both links.

use diversifi_simcore::{SimDuration, SimTime};
use diversifi_voip::StreamTrace;
use serde::Serialize;

/// A link's delivery trace plus the side-channel the strategies key off.
#[derive(Clone, Debug)]
pub struct LinkObservation {
    /// Per-packet delivery on this link under full replication.
    pub trace: StreamTrace,
    /// The OS-reported (smoothed) RSSI at association time, dBm.
    pub rssi_dbm: f64,
}

/// Which of the two links a strategy is currently consuming.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum LinkSide {
    /// The primary (initially chosen) link.
    Primary,
    /// The secondary link.
    Secondary,
}

impl LinkSide {
    /// The other link.
    pub fn other(self) -> LinkSide {
        match self {
            LinkSide::Primary => LinkSide::Secondary,
            LinkSide::Secondary => LinkSide::Primary,
        }
    }
}

/// `stronger`: pick the higher-RSSI link for the entire call (what stock
/// OSes do today).
pub fn stronger(a: &LinkObservation, b: &LinkObservation) -> StreamTrace {
    if a.rssi_dbm >= b.rssi_dbm {
        a.trace.clone()
    } else {
        b.trace.clone()
    }
}

/// Which side `stronger` would pick.
pub fn stronger_side(a: &LinkObservation, b: &LinkObservation) -> LinkSide {
    if a.rssi_dbm >= b.rssi_dbm {
        LinkSide::Primary
    } else {
        LinkSide::Secondary
    }
}

/// `better`: receive on both links for the first `trial` (the client has
/// both NICs up anyway), then settle on whichever lost fewer packets during
/// the trial.
pub fn better(
    a: &LinkObservation,
    b: &LinkObservation,
    trial: SimDuration,
    deadline: SimDuration,
) -> StreamTrace {
    let n = a.trace.len();
    assert_eq!(n, b.trace.len());
    let start = a.trace.fates.first().map(|f| f.sent).unwrap_or(SimTime::ZERO);
    let cutoff = start + trial;
    let lost_in_trial = |t: &StreamTrace| {
        t.fates
            .iter()
            .take_while(|f| f.sent < cutoff)
            .filter(|f| f.effectively_lost(deadline))
            .count()
    };
    let choose_a = lost_in_trial(&a.trace) <= lost_in_trial(&b.trace);

    let mut out = a.trace.merged_with(&b.trace);
    let settled = if choose_a { &a.trace } else { &b.trace };
    for (i, fate) in out.fates.iter_mut().enumerate() {
        if fate.sent >= cutoff {
            *fate = settled.fates[i];
        }
    }
    out
}

/// Parameters of the Divert-style fine-grained selector.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct DivertConfig {
    /// Window size in frames (H).
    pub window: usize,
    /// Loss threshold within the window (T).
    pub threshold: usize,
    /// Packets of delay between the triggering loss and the switch taking
    /// effect (loss detection + channel switch, ≈1 packet at 20 ms spacing).
    pub switch_lag: usize,
}

impl Default for DivertConfig {
    /// H = 1, T = 1, as evaluated in the paper (§4.1).
    fn default() -> Self {
        DivertConfig { window: 1, threshold: 1, switch_lag: 1 }
    }
}

/// `divert`: start on the stronger link; whenever ≥T of the last H frames
/// on the *current* link were lost, switch to the other link. Packets lost
/// before a switch are gone — switching only helps future packets, which is
/// the fundamental gap to replication the paper highlights.
pub fn divert(
    a: &LinkObservation,
    b: &LinkObservation,
    cfg: &DivertConfig,
    deadline: SimDuration,
) -> StreamTrace {
    let n = a.trace.len();
    assert_eq!(n, b.trace.len());
    let mut side = stronger_side(a, b);
    let mut out = StreamTrace { spec: a.trace.spec, fates: Vec::with_capacity(n) };
    let mut recent: Vec<bool> = Vec::new(); // loss history on current link
    let mut pending_switch: Option<usize> = None; // index at which to switch

    for i in 0..n {
        if let Some(at) = pending_switch {
            if i >= at {
                side = side.other();
                recent.clear();
                pending_switch = None;
            }
        }
        let fate = match side {
            LinkSide::Primary => a.trace.fates[i],
            LinkSide::Secondary => b.trace.fates[i],
        };
        out.fates.push(fate);

        let lost = fate.effectively_lost(deadline);
        recent.push(lost);
        if recent.len() > cfg.window {
            recent.remove(0);
        }
        if pending_switch.is_none()
            && recent.iter().filter(|l| **l).count() >= cfg.threshold
        {
            pending_switch = Some(i + cfg.switch_lag.max(1));
        }
    }
    out
}

/// `cross-link`: full replication over both links; the receiver keeps the
/// earliest copy of each packet.
pub fn cross_link(a: &LinkObservation, b: &LinkObservation) -> StreamTrace {
    a.trace.merged_with(&b.trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use diversifi_voip::{StreamSpec, DEFAULT_DEADLINE};

    fn obs(rssi: f64, pattern: &[bool]) -> LinkObservation {
        // pattern[i] = true → packet i LOST on this link.
        let spec = StreamSpec {
            packet_bytes: 160,
            interval: SimDuration::from_millis(20),
            duration: SimDuration::from_millis(20 * pattern.len() as u64),
        };
        let mut trace = StreamTrace::new(spec, SimTime::ZERO);
        for (i, lost) in pattern.iter().enumerate() {
            if !lost {
                let sent = trace.fates[i].sent;
                trace.record_arrival(i as u64, sent + SimDuration::from_millis(8));
            }
        }
        LinkObservation { trace, rssi_dbm: rssi }
    }

    #[test]
    fn stronger_follows_rssi_not_quality() {
        // The stronger link is actually the lossier one — RSSI misleads.
        let a = obs(-50.0, &[true, true, false, true]);
        let b = obs(-70.0, &[false, false, false, false]);
        let t = stronger(&a, &b);
        assert_eq!(t.loss_rate(DEFAULT_DEADLINE), 0.75);
        assert_eq!(stronger_side(&a, &b), LinkSide::Primary);
    }

    #[test]
    fn better_settles_on_quality() {
        // Link a loses everything in the trial; b is clean. 500 packets =
        // 10 s; trial = 5 s = first 250.
        let pattern_a: Vec<bool> = (0..500).map(|i| i < 250).collect();
        let pattern_b = vec![false; 500];
        let a = obs(-50.0, &pattern_a);
        let b = obs(-60.0, &pattern_b);
        let t = better(&a, &b, SimDuration::from_secs(5), DEFAULT_DEADLINE);
        // Trial period is merged (b covers a's losses) and b is chosen after.
        assert_eq!(t.loss_rate(DEFAULT_DEADLINE), 0.0);
    }

    #[test]
    fn better_cannot_react_to_post_trial_collapse() {
        // a is clean during the trial but collapses after; b is mediocre
        // throughout. better picks a and eats the collapse.
        let pattern_a: Vec<bool> = (0..500).map(|i| i >= 250).collect();
        let pattern_b: Vec<bool> = (0..500).map(|i| i % 10 == 0).collect();
        let a = obs(-50.0, &pattern_a);
        let b = obs(-60.0, &pattern_b);
        let t = better(&a, &b, SimDuration::from_secs(5), DEFAULT_DEADLINE);
        assert!(t.loss_rate(DEFAULT_DEADLINE) > 0.45, "got {}", t.loss_rate(DEFAULT_DEADLINE));
    }

    #[test]
    fn divert_switches_after_loss() {
        // Primary (stronger) loses packets 2..6; secondary is clean.
        let a = obs(-50.0, &[false, false, true, true, true, true, false, false]);
        let b = obs(-60.0, &[false; 8]);
        let t = divert(&a, &b, &DivertConfig::default(), DEFAULT_DEADLINE);
        // Packet 2 lost on a (triggers switch), 3.. consumed from b.
        let ind = t.loss_indicator(DEFAULT_DEADLINE);
        assert_eq!(ind[2], 1.0, "the triggering loss is not recovered");
        assert_eq!(&ind[3..], &[0.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn divert_ping_pongs_when_both_links_are_bad() {
        let a = obs(-50.0, &[true; 12]);
        let b = obs(-60.0, &[true; 12]);
        let t = divert(&a, &b, &DivertConfig::default(), DEFAULT_DEADLINE);
        assert_eq!(t.loss_rate(DEFAULT_DEADLINE), 1.0);
    }

    #[test]
    fn divert_loses_what_cross_link_recovers() {
        // Alternating complementary losses: every loss on one link is
        // covered by the other.
        let pa: Vec<bool> = (0..100).map(|i| i % 10 < 3).collect();
        let pb: Vec<bool> = (0..100).map(|i| (i + 5) % 10 < 3).collect();
        let a = obs(-50.0, &pa);
        let b = obs(-60.0, &pb);
        let d = divert(&a, &b, &DivertConfig::default(), DEFAULT_DEADLINE);
        let x = cross_link(&a, &b);
        assert_eq!(x.loss_rate(DEFAULT_DEADLINE), 0.0);
        assert!(d.loss_rate(DEFAULT_DEADLINE) > 0.1, "divert {}", d.loss_rate(DEFAULT_DEADLINE));
    }

    #[test]
    fn cross_link_is_union() {
        let a = obs(-50.0, &[true, false, true, false]);
        let b = obs(-60.0, &[false, true, true, false]);
        let t = cross_link(&a, &b);
        let ind = t.loss_indicator(DEFAULT_DEADLINE);
        assert_eq!(ind, vec![0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn divert_respects_window_threshold() {
        // T=2, H=3: a single isolated loss must NOT trigger a switch.
        let cfg = DivertConfig { window: 3, threshold: 2, switch_lag: 1 };
        let a = obs(-50.0, &[false, true, false, false, false, true, true, false]);
        let b = obs(-60.0, &[true; 8]); // switching would be catastrophic
        let t = divert(&a, &b, &cfg, DEFAULT_DEADLINE);
        let ind = t.loss_indicator(DEFAULT_DEADLINE);
        // Isolated loss at 1: no switch, packets 2..=4 still from a (clean).
        assert_eq!(&ind[2..5], &[0.0, 0.0, 0.0]);
        // Losses at 5,6 trigger the switch → 7 consumed from b (lost).
        assert_eq!(ind[7], 1.0);
    }

    #[test]
    fn link_side_other() {
        assert_eq!(LinkSide::Primary.other(), LinkSide::Secondary);
        assert_eq!(LinkSide::Secondary.other(), LinkSide::Primary);
    }
}
