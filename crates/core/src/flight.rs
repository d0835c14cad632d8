//! Forensic capture of a campaign's worst calls.
//!
//! The campaign fold is analytic — [`crate::population::CallSampler`]
//! rates each call from closed-form channel statistics, no event loop —
//! so there is no event timeline *during* the campaign to freeze. What
//! there is instead is determinism: every retained
//! [`FlightKey`](diversifi_simcore::FlightKey) names a call by
//! `(seed, index)`, and this module re-simulates those calls as full
//! closed-loop [`World`] runs, one traced sweep run per (call, arm). The
//! capture is a [`MergedTelemetry`] like any traced sweep's, with a label
//! per run, and a pure function of `(scenario, selection)`: two campaigns
//! that select the same worst calls — at any thread count, killed and
//! resumed or not — capture byte-identical event streams.

use crate::scenario::{Arm, Scenario};
use crate::world::{RunMode, World, WorldConfig};
use diversifi_simcore::{Fnv, MergedTelemetry, SeedFactory, SweepRunner, WorstK};

/// Per-call probe seed: the scenario seed folded with the call index
/// (FNV-1a), so every captured call explores its own channel realisation
/// instead of all replaying the arm-probe seed.
fn probe_seed(seed: u64, index: u64) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(seed);
    h.write_u64(index);
    h.finish()
}

/// Replay `(label, config, seeds)` worlds as one serial traced sweep: run
/// `i` is `World::new(cfg_i, seeds_i).run()` inside its own telemetry
/// session of `ring` events (exactly `World::run_traced(ring)`), labelled
/// `label_i`.
pub(crate) fn replay_traced(
    replays: &[(String, WorldConfig, SeedFactory)],
    ring: usize,
) -> MergedTelemetry {
    let (_, mut merged) = SweepRunner::serial().run_indexed_traced(replays.len(), ring, |i| {
        let (_, cfg, seeds) = &replays[i];
        World::new(cfg, seeds).run();
    });
    for (run, (label, ..)) in merged.runs.iter_mut().zip(replays) {
        run.label.clone_from(label);
    }
    merged
}

/// Re-simulate the selected worst calls and capture their event timelines.
///
/// One run per selected call × scenario arm (a scenario with no arms
/// gets a single synthetic `diversifi` arm so captures always exist),
/// worst call first, arms in scenario order — labelled
/// `"{arm}/call-{index:06} score={score} seed={seed:#x}"`. `ring` bounds
/// the telemetry ring of each run; events beyond it are evicted
/// oldest-first and surface in the run's `dropped` count (the exporters
/// warn on it).
///
/// In builds where tracing is compiled out
/// ([`TRACE_COMPILED`](diversifi_simcore::telemetry::TRACE_COMPILED) is
/// false) the runs still carry their labels — scores and call identities —
/// only the event streams are empty.
pub fn capture_worst_calls(scn: &Scenario, worst: &WorstK, ring: usize) -> MergedTelemetry {
    let default_arm;
    let arms: &[Arm] = if scn.arms.is_empty() {
        default_arm = [Arm::new("diversifi", RunMode::DiversifiCustomAp)];
        &default_arm
    } else {
        &scn.arms
    };
    let mut replays = Vec::with_capacity(worst.len() * arms.len());
    for entry in worst.entries() {
        for arm in arms {
            let label = format!(
                "{}/call-{:06} score={} seed={:#x}",
                arm.name, entry.index, entry.score, entry.seed
            );
            let seeds = SeedFactory::new(probe_seed(entry.seed, entry.index));
            replays.push((label, scn.world_config(arm), seeds));
        }
    }
    replay_traced(&replays, ring)
}

#[cfg(test)]
mod tests {
    use super::*;
    use diversifi_simcore::telemetry::TRACE_COMPILED;
    use diversifi_simcore::{FlightKey, TraceEvent};

    fn selection() -> WorstK {
        let mut w = WorstK::new(2);
        w.offer(FlightKey { score: 2.1, seed: 7, index: 1234 });
        w.offer(FlightKey { score: 3.0, seed: 7, index: 99 });
        w
    }

    /// Run `r`'s surviving events in emission (`seq`) order, and its
    /// first `seq`.
    fn run_events(m: &MergedTelemetry, r: u32) -> (Option<u64>, Vec<TraceEvent>) {
        let mut evs: Vec<_> = m.events.iter().filter(|e| e.run == r).collect();
        evs.sort_by_key(|e| e.seq);
        (evs.first().map(|e| e.seq), evs.into_iter().map(|e| e.event).collect())
    }

    #[test]
    fn captures_cover_every_selected_call_and_arm() {
        let scn = Scenario::testbed("cap", 7);
        let caps = capture_worst_calls(&scn, &selection(), 1024);
        assert_eq!(caps.runs.len(), 2 * 3);
        // Worst call first, arms in scenario order.
        assert_eq!(caps.runs[0].label, "primary-only/call-001234 score=2.1 seed=0x7");
        assert_eq!(caps.runs[2].label, "diversifi/call-001234 score=2.1 seed=0x7");
        assert_eq!(caps.runs[3].label, "primary-only/call-000099 score=3 seed=0x7");
        if TRACE_COMPILED {
            for r in 0..6 {
                assert!(!run_events(&caps, r).1.is_empty(), "traced run {r} emits events");
            }
        }
    }

    #[test]
    fn captures_are_deterministic_and_armless_scenarios_get_a_default_arm() {
        let scn = Scenario::new("bare", 3);
        let a = capture_worst_calls(&scn, &selection(), 512);
        let b = capture_worst_calls(&scn, &selection(), 512);
        assert_eq!(a.runs.len(), 2);
        assert!(a.runs[0].label.starts_with("diversifi/"));
        assert_eq!(a.runs, b.runs);
        assert_eq!(a.events, b.events, "re-simulated captures must be bit-identical");
        // Different calls explore different channel realisations: the two
        // captures must not be the same timeline (when tracing is live).
        if TRACE_COMPILED {
            assert_ne!(run_events(&a, 0).1, run_events(&a, 1).1);
        }
    }

    /// The capture is nothing but `World::run_traced` per (call, arm): each
    /// run's events, in `seq` order, are that replay's session events, and
    /// its first `seq` and evicted count are the session's `dropped`. The
    /// small ring makes every run evict, so eviction is checked too.
    #[test]
    fn capture_runs_equal_world_run_traced_replays() {
        let scn = Scenario::testbed("ref", 11);
        let ring = 256;
        let caps = capture_worst_calls(&scn, &selection(), ring);
        let mut r = 0u32;
        let mut dropped = 0;
        for entry in selection().entries() {
            for arm in &scn.arms {
                let seeds = SeedFactory::new(probe_seed(entry.seed, entry.index));
                let (_, session) = World::new(&scn.world_config(arm), &seeds).run_traced(ring);
                let (first_seq, events) = run_events(&caps, r);
                assert_eq!(events, session.events, "run {r}");
                assert_eq!(caps.runs[r as usize].dropped, session.dropped, "run {r}");
                if TRACE_COMPILED {
                    assert!(session.dropped > 0, "run {r}: the ring must overflow");
                    assert_eq!(first_seq, Some(session.dropped), "run {r}");
                }
                dropped += session.dropped;
                r += 1;
            }
        }
        assert_eq!(caps.runs.len(), r as usize);
        assert_eq!(caps.dropped, dropped);
    }
}
