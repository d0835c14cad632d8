//! Deterministic fault plans: a seed-stable schedule of heterogeneous
//! faults injected into a simulation run.
//!
//! A [`FaultPlan`] is pure data — an ordered list of [`FaultSpec`]s, each a
//! start instant plus a [`FaultKind`]. The plan carries **no randomness of
//! its own**: every onset, duration and intensity is spelled out by the
//! caller, so a run remains a pure function of `(config, seed)` and two
//! runs with the same plan are bit-identical whatever the thread count or
//! telemetry/audit configuration (DESIGN.md §9).
//!
//! The world consumes a plan through [`FaultPlan::windows`], which expands
//! compound faults (e.g. a crash/flap pattern) into a flat, canonically
//! ordered list of [`FaultWindow`]s — one contiguous interval of one
//! [`FaultEffect`] each. The expansion is deterministic and allocation is
//! one-shot at run start, so the hot path never touches the plan.
//!
//! Recovery bookkeeping uses [`FaultOutcome`]: the world records, per
//! window, when service was first restored after the impairment cleared,
//! from which MTTR (mean time to recovery, measured from fault *onset*) is
//! derived for the metrics registry and the `repro resilience` report.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// One category of injectable fault.
///
/// Durations are *wall-clock sim time*; probabilities are per-event in
/// `[0, 1]`. All effects are modelled inside the world's existing named
/// RNG streams — the fault layer itself never draws.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Power-cycle one AP: associations torn down, every buffered frame
    /// destroyed, AP silent for `outage`, then stations re-associate.
    ApPowerCycle {
        /// Which AP (0 = primary, 1 = secondary).
        ap: usize,
        /// How long the AP stays down.
        outage: SimDuration,
    },
    /// A crash/flap pattern: `cycles` repetitions of (`down` outage, `up`
    /// healthy gap), starting at the spec's `at`.
    ApFlap {
        /// Which AP (0 = primary, 1 = secondary).
        ap: usize,
        /// Outage length of each cycle.
        down: SimDuration,
        /// Healthy gap between consecutive outages.
        up: SimDuration,
        /// Number of down/up repetitions.
        cycles: u32,
    },
    /// The middlebox process restarts: the replication buffer is wiped,
    /// and after the process is back (`outage`) the SDN replication rule
    /// takes a further `reinstall_delay` to be re-installed — copies
    /// arriving in between are discarded at the door.
    MiddleboxRestart {
        /// Process downtime.
        outage: SimDuration,
        /// Extra delay before the SDN replication rule is back.
        reinstall_delay: SimDuration,
    },
    /// A WAN/LAN brownout: every LAN-bound packet picks up `extra_delay`,
    /// and uplink control messages see an *additional* independent loss
    /// probability of `control_loss` for the duration.
    Brownout {
        /// Window length.
        duration: SimDuration,
        /// Added one-way latency on LAN legs.
        extra_delay: SimDuration,
        /// Extra per-message control-plane loss probability.
        control_loss: f64,
    },
    /// Total uplink control-plane outage: every control message (PS-Poll
    /// nulls, middlebox start/stop, TCP acks) is lost for the duration.
    UplinkOutage {
        /// Window length.
        duration: SimDuration,
    },
    /// An interference storm layered on the Gilbert–Elliott channel: an
    /// extra per-attempt erasure probability composed multiplicatively
    /// with the link's own PHY/fading/interference terms.
    InterferenceStorm {
        /// Window length.
        duration: SimDuration,
        /// Additional per-attempt erasure probability in `[0, 1]`.
        erasure: f64,
        /// Affected downlink (0 = primary, 1 = secondary); `None` hits
        /// every link.
        link: Option<usize>,
    },
}

impl FaultKind {
    /// Stable label for metrics rows and reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::ApPowerCycle { .. } => "ap_power_cycle",
            FaultKind::ApFlap { .. } => "ap_flap",
            FaultKind::MiddleboxRestart { .. } => "middlebox_restart",
            FaultKind::Brownout { .. } => "brownout",
            FaultKind::UplinkOutage { .. } => "uplink_outage",
            FaultKind::InterferenceStorm { .. } => "interference_storm",
        }
    }
}

/// One scheduled fault: a start instant plus what goes wrong.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// When the fault begins.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic schedule of faults for one run.
///
/// The default plan is empty (a healthy run). Plans compare equal iff
/// their specs are identical, which is what the legacy-encoding
/// regression test in `tests/failure_injection.rs` relies on.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The scheduled faults, in caller order.
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// The empty (healthy) plan.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan from an explicit spec list.
    pub fn new(specs: Vec<FaultSpec>) -> FaultPlan {
        FaultPlan { specs }
    }

    /// Back-compat constructor: the legacy `WorldConfig.reboot` shape — a
    /// single AP power cycle at `at` lasting `outage`.
    pub fn single_ap_reboot(ap: usize, at: SimTime, outage: SimDuration) -> FaultPlan {
        FaultPlan::new(vec![FaultSpec { at, kind: FaultKind::ApPowerCycle { ap, outage } }])
    }

    /// Append one more fault (builder style).
    pub fn with(mut self, at: SimTime, kind: FaultKind) -> FaultPlan {
        self.specs.push(FaultSpec { at, kind });
        self
    }

    /// Is this the healthy plan?
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Expand the plan into flat per-effect windows, canonically ordered
    /// by `(start, end, fault index)`. Compound faults (flaps) become one
    /// window per cycle; zero-cycle flaps expand to nothing.
    pub fn windows(&self) -> Vec<FaultWindow> {
        let mut out = Vec::new();
        for (idx, spec) in self.specs.iter().enumerate() {
            match spec.kind {
                FaultKind::ApPowerCycle { ap, outage } => out.push(FaultWindow {
                    fault: idx,
                    start: spec.at,
                    end: spec.at + outage,
                    effect: FaultEffect::ApDown { ap },
                }),
                FaultKind::ApFlap { ap, down, up, cycles } => {
                    let mut start = spec.at;
                    for _ in 0..cycles {
                        out.push(FaultWindow {
                            fault: idx,
                            start,
                            end: start + down,
                            effect: FaultEffect::ApDown { ap },
                        });
                        start = start + down + up;
                    }
                }
                FaultKind::MiddleboxRestart { outage, reinstall_delay } => out.push(FaultWindow {
                    fault: idx,
                    start: spec.at,
                    end: spec.at + outage,
                    effect: FaultEffect::MiddleboxDown { reinstall_delay },
                }),
                FaultKind::Brownout { duration, extra_delay, control_loss } => {
                    out.push(FaultWindow {
                        fault: idx,
                        start: spec.at,
                        end: spec.at + duration,
                        effect: FaultEffect::Brownout { extra_delay, control_loss },
                    })
                }
                FaultKind::UplinkOutage { duration } => out.push(FaultWindow {
                    fault: idx,
                    start: spec.at,
                    end: spec.at + duration,
                    effect: FaultEffect::UplinkDown,
                }),
                FaultKind::InterferenceStorm { duration, erasure, link } => {
                    out.push(FaultWindow {
                        fault: idx,
                        start: spec.at,
                        end: spec.at + duration,
                        effect: FaultEffect::Storm { erasure, link },
                    })
                }
            }
        }
        out.sort_by_key(|w| (w.start, w.end, w.fault));
        out
    }
}

/// The runtime effect active during one [`FaultWindow`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum FaultEffect {
    /// The AP is powered off.
    ApDown {
        /// Which AP.
        ap: usize,
    },
    /// The middlebox process is down; after the window ends the
    /// replication rule needs `reinstall_delay` more to come back.
    MiddleboxDown {
        /// SDN rule re-install latency after process restart.
        reinstall_delay: SimDuration,
    },
    /// LAN latency spike + control-plane loss burst.
    Brownout {
        /// Added one-way LAN latency.
        extra_delay: SimDuration,
        /// Extra control-message loss probability.
        control_loss: f64,
    },
    /// Uplink control plane fully out.
    UplinkDown,
    /// Extra per-attempt erasure on the affected link(s).
    Storm {
        /// Additional erasure probability.
        erasure: f64,
        /// Affected link, or all when `None`.
        link: Option<usize>,
    },
}

/// One contiguous impairment interval produced by [`FaultPlan::windows`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultWindow {
    /// Index of the originating [`FaultSpec`] in the plan.
    pub fault: usize,
    /// Impairment onset.
    pub start: SimTime,
    /// When the impairment itself clears (exclusive). For middlebox
    /// restarts the replication rule returns `reinstall_delay` later.
    pub end: SimTime,
    /// What is impaired.
    pub effect: FaultEffect,
}

impl FaultWindow {
    /// Stable label for metrics rows and reports.
    pub fn label(&self) -> &'static str {
        match self.effect {
            FaultEffect::ApDown { .. } => "ap_down",
            FaultEffect::MiddleboxDown { .. } => "middlebox_restart",
            FaultEffect::Brownout { .. } => "brownout",
            FaultEffect::UplinkDown => "uplink_outage",
            FaultEffect::Storm { .. } => "interference_storm",
        }
    }

    /// Does `t` fall inside the impairment interval `[start, end)`?
    pub fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }
}

/// Per-window recovery record assembled by the world at end of run.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultOutcome {
    /// Index of the originating [`FaultSpec`].
    pub fault: usize,
    /// Window label (see [`FaultWindow::label`]).
    pub label: &'static str,
    /// Impairment onset.
    pub start: SimTime,
    /// When the impairment cleared.
    pub end: SimTime,
    /// First stream delivery heard by the client at or after the
    /// impairment fully cleared — `None` if service never came back
    /// before end of run.
    pub recovered_at: Option<SimTime>,
}

impl FaultOutcome {
    /// Scheduled outage duration (`end - start`).
    pub fn outage(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }

    /// Time to recovery measured from fault onset, when recovered.
    pub fn mttr(&self) -> Option<SimDuration> {
        self.recovered_at.map(|r| r.saturating_since(self.start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: SimTime = SimTime::ZERO;

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn empty_plan_has_no_windows() {
        assert!(FaultPlan::none().is_empty());
        assert!(FaultPlan::none().windows().is_empty());
    }

    #[test]
    fn legacy_reboot_expands_to_one_ap_down_window() {
        let plan = FaultPlan::single_ap_reboot(1, T0 + secs(10), secs(3));
        let w = plan.windows();
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].effect, FaultEffect::ApDown { ap: 1 });
        assert_eq!(w[0].start, T0 + secs(10));
        assert_eq!(w[0].end, T0 + secs(13));
        assert_eq!(w[0].label(), "ap_down");
    }

    #[test]
    fn flap_expands_to_one_window_per_cycle() {
        let plan = FaultPlan::none().with(
            T0 + secs(5),
            FaultKind::ApFlap { ap: 0, down: secs(1), up: secs(2), cycles: 3 },
        );
        let w = plan.windows();
        assert_eq!(w.len(), 3);
        for (i, win) in w.iter().enumerate() {
            let start = T0 + secs(5 + 3 * i as u64);
            assert_eq!(win.start, start);
            assert_eq!(win.end, start + secs(1));
            assert_eq!(win.fault, 0);
        }
    }

    #[test]
    fn windows_are_sorted_by_start_not_spec_order() {
        let plan = FaultPlan::none()
            .with(T0 + secs(20), FaultKind::UplinkOutage { duration: secs(1) })
            .with(
                T0 + secs(5),
                FaultKind::Brownout {
                    duration: secs(2),
                    extra_delay: SimDuration::from_millis(30),
                    control_loss: 0.5,
                },
            );
        let w = plan.windows();
        assert_eq!(w.len(), 2);
        assert!(w[0].start < w[1].start);
        assert_eq!(w[0].fault, 1, "brownout was declared second but starts first");
    }

    #[test]
    fn zero_cycle_flap_expands_to_nothing() {
        let plan = FaultPlan::none().with(
            T0,
            FaultKind::ApFlap { ap: 1, down: secs(1), up: secs(1), cycles: 0 },
        );
        assert!(plan.windows().is_empty());
    }

    #[test]
    fn outcome_mttr_is_measured_from_onset() {
        let o = FaultOutcome {
            fault: 0,
            label: "ap_down",
            start: T0 + secs(10),
            end: T0 + secs(13),
            recovered_at: Some(T0 + secs(14)),
        };
        assert_eq!(o.outage(), secs(3));
        assert_eq!(o.mttr(), Some(secs(4)));
        let unrecovered = FaultOutcome { recovered_at: None, ..o };
        assert_eq!(unrecovered.mttr(), None);
    }

    #[test]
    fn window_containment_is_half_open() {
        let plan = FaultPlan::single_ap_reboot(0, T0 + secs(1), secs(2));
        let w = plan.windows()[0];
        assert!(!w.contains(T0));
        assert!(w.contains(T0 + secs(1)));
        assert!(w.contains(T0 + secs(2)));
        assert!(!w.contains(T0 + secs(3)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Decode one raw draw into a spec. Durations are ≥ 1 ms by
    /// construction, so every expanded window has positive length; the
    /// kind selector covers the full catalogue, and flap cycle counts
    /// include 0 (which must expand to nothing).
    fn decode_spec(at_ms: u64, kind_sel: usize, params: (u64, u64, u64)) -> FaultSpec {
        let (d1, d2, n) = params;
        let dur1 = SimDuration::from_millis(d1);
        let dur2 = SimDuration::from_millis(d2);
        let kind = match kind_sel {
            0 => FaultKind::ApPowerCycle { ap: (n % 2) as usize, outage: dur1 },
            1 => FaultKind::ApFlap {
                ap: (n % 2) as usize,
                down: dur1,
                up: dur2,
                cycles: n as u32,
            },
            2 => FaultKind::MiddleboxRestart { outage: dur1, reinstall_delay: dur2 },
            3 => FaultKind::Brownout {
                duration: dur1,
                extra_delay: SimDuration::from_millis(d2 % 50),
                control_loss: n as f64 / 6.0,
            },
            4 => FaultKind::UplinkOutage { duration: dur1 },
            _ => FaultKind::InterferenceStorm {
                duration: dur1,
                erasure: n as f64 / 6.0,
                link: match n % 3 {
                    0 => None,
                    1 => Some(0),
                    _ => Some(1),
                },
            },
        };
        FaultSpec { at: SimTime::from_millis(at_ms), kind }
    }

    proptest! {
        /// `FaultPlan::windows()` invariants for arbitrary generated
        /// specs: canonical `(start, end, fault)` order, no zero-length
        /// windows, and an exact expansion count (one window per plain
        /// spec, `cycles` windows per flap — including zero).
        #[test]
        fn windows_expansion_invariants(
            raw in proptest::collection::vec(
                (0u64..60_000, 0usize..6, (1u64..4_000, 1u64..3_000, 0u64..6)),
                0..12,
            )
        ) {
            let specs: Vec<FaultSpec> =
                raw.iter().map(|&(at, k, p)| decode_spec(at, k, p)).collect();
            let plan = FaultPlan::new(specs.clone());
            let ws = plan.windows();

            // Canonical sort order.
            for w in ws.windows(2) {
                prop_assert!(
                    (w[0].start, w[0].end, w[0].fault) <= (w[1].start, w[1].end, w[1].fault)
                );
            }
            // No zero-length windows (durations are positive by construction).
            for w in &ws {
                prop_assert!(w.start < w.end, "zero-length window {w:?}");
            }
            // Exact expansion count.
            let expect: usize = specs
                .iter()
                .map(|s| match s.kind {
                    FaultKind::ApFlap { cycles, .. } => cycles as usize,
                    _ => 1,
                })
                .sum();
            prop_assert_eq!(ws.len(), expect);
            // Provenance: every window points at a real spec and never
            // starts before its spec's onset.
            for w in &ws {
                prop_assert!(w.fault < specs.len());
                prop_assert!(w.start >= specs[w.fault].at);
            }
        }

        /// Flap cycle starts step by exactly `down + up`, and each
        /// window's length is exactly `down`.
        #[test]
        fn flap_cycle_timing_is_exact(
            at in 0u64..10_000,
            down in 1u64..2_000,
            up in 1u64..2_000,
            cycles in 0u32..8,
        ) {
            let plan = FaultPlan::none().with(
                SimTime::from_millis(at),
                FaultKind::ApFlap {
                    ap: 0,
                    down: SimDuration::from_millis(down),
                    up: SimDuration::from_millis(up),
                    cycles,
                },
            );
            let ws = plan.windows();
            prop_assert_eq!(ws.len(), cycles as usize);
            for (i, w) in ws.iter().enumerate() {
                let start = SimTime::from_millis(at + (down + up) * i as u64);
                prop_assert_eq!(w.start, start);
                prop_assert_eq!(w.end, start + SimDuration::from_millis(down));
            }
        }
    }
}
