//! Adversarial fault-plan fuzzing: seeded plan generation under a budget,
//! plus delta-debugging shrinking to minimal reproducers.
//!
//! The resilience suite (`repro resilience`, `tests/failure_injection.rs`)
//! checks seven hand-picked fault windows. The chaos engine explores the
//! *composed* fault space instead: [`generate_plan`] draws a
//! random-but-seeded [`FaultPlan`] over the full [`FaultKind`] catalogue,
//! constrained by a [`ChaosBudget`] (spec count, concurrent-fault cap,
//! total-outage fraction, per-kind weights). Generation is a pure function
//! of `(SeedFactory, plan index, budget)` — plan `i` is byte-identical on
//! every machine, thread count and run, which is what lets a violating
//! index double as a replay handle.
//!
//! When an oracle rejects a plan, [`shrink_plan`] minimises it by classic
//! delta debugging with a **fixed candidate order** (so the minimal
//! reproducer is as deterministic as the violation itself):
//!
//! 1. **drop specs** — remove one spec at a time, front to back, restarting
//!    after every accepted removal;
//! 2. **shorten outages** — halve each spec's durations (floor
//!    [`SHRINK_FLOOR`]), re-trying a spec while halving keeps violating;
//! 3. **halve flap cycles** — `cycles /= 2` (floor 1) per flap spec.
//!
//! The three passes repeat until a full round accepts nothing. Every
//! acceptance strictly decreases `(spec count, total duration ns, total
//! cycles)`, so the loop terminates without a fuel counter (one exists
//! anyway as a backstop).
//!
//! A minimal plan is committed to the chaos corpus as a
//! [`ChaosReproducer`] — the proptest-regressions idiom: the corpus is
//! replayed by CI forever after, so a fixed bug stays fixed.
//!
//! The module is deliberately world-agnostic: oracles live in the core
//! crate (paired diversifi-vs-primary-only runs); everything here is pure
//! data and pure functions, and therefore unit-testable with synthetic
//! oracles.

use crate::fault::{FaultKind, FaultPlan, FaultSpec};
use crate::rng::SeedFactory;
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Size of the [`FaultKind`] catalogue (and of [`ChaosBudget::weights`]).
pub const FAULT_KIND_COUNT: usize = 6;

/// Durations never shrink below this floor (100 ms): shorter windows stop
/// exercising anything (a sub-RTT outage is invisible to the control
/// plane) and the shrinker would waste its budget halving noise.
pub const SHRINK_FLOOR: SimDuration = SimDuration::from_millis(100);

/// Generation quantum: onsets and durations are drawn on a 100 ms grid, so
/// shrunk reproducers stay human-readable and tiny perturbations of the
/// generator can't smear plans across meaninglessly distinct values.
const QUANTUM_MS: u64 = 100;

/// Resource limits for one generated [`FaultPlan`].
///
/// The budget is what keeps adversarial plans *interesting*: without it
/// the fuzzer converges on "everything down for the whole call", where
/// every oracle trivially holds (the baseline is equally dead). Weights
/// bias the catalogue; a zero weight removes that kind entirely.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChaosBudget {
    /// Call horizon plans are generated against: every window must clear
    /// (`end` + slack) before it, so recovery oracles have room to fire.
    pub horizon: SimDuration,
    /// Maximum specs per plan.
    pub max_specs: usize,
    /// Maximum simultaneously-open fault windows at any instant.
    pub max_concurrent: usize,
    /// Cap on the summed window durations as a fraction of `horizon`.
    pub max_outage_frac: f64,
    /// Per-kind draw weights, indexed in [`FaultKind::label`] declaration
    /// order: `[ap_power_cycle, ap_flap, middlebox_restart, brownout,
    /// uplink_outage, interference_storm]`.
    pub weights: [u32; FAULT_KIND_COUNT],
}

impl Default for ChaosBudget {
    fn default() -> ChaosBudget {
        ChaosBudget {
            horizon: SimDuration::from_secs(10),
            max_specs: 4,
            max_concurrent: 2,
            max_outage_frac: 0.4,
            weights: [1; FAULT_KIND_COUNT],
        }
    }
}

impl ChaosBudget {
    /// A default budget against an explicit call horizon.
    pub fn for_horizon(horizon: SimDuration) -> ChaosBudget {
        ChaosBudget { horizon, ..ChaosBudget::default() }
    }

    /// Does `plan` satisfy every budget constraint?
    pub fn admits(&self, plan: &FaultPlan) -> bool {
        if plan.specs.len() > self.max_specs {
            return false;
        }
        let windows = plan.windows();
        let mut total = SimDuration::ZERO;
        for w in &windows {
            if w.end > SimTime::ZERO + self.horizon {
                return false;
            }
            total += w.end.saturating_since(w.start);
        }
        if total.as_nanos() as f64 > self.max_outage_frac * self.horizon.as_nanos() as f64 {
            return false;
        }
        max_concurrency(plan) <= self.max_concurrent
    }
}

/// The largest number of fault windows simultaneously open at any instant
/// of `plan` (half-open `[start, end)` semantics: a window ending exactly
/// when another starts does not overlap it).
pub fn max_concurrency(plan: &FaultPlan) -> usize {
    let mut edges: Vec<(SimTime, i32)> = Vec::new();
    for w in plan.windows() {
        if w.start < w.end {
            edges.push((w.start, 1));
            edges.push((w.end, -1));
        }
    }
    // Closes sort before opens at equal instants (half-open intervals).
    edges.sort_by_key(|&(t, d)| (t, d));
    let (mut open, mut peak) = (0i32, 0i32);
    for (_, d) in edges {
        open += d;
        peak = peak.max(open);
    }
    peak.max(0) as usize
}

/// Summed window durations of `plan` as a fraction of `horizon`.
pub fn outage_fraction(plan: &FaultPlan, horizon: SimDuration) -> f64 {
    if horizon.is_zero() {
        return 0.0;
    }
    let total: u64 = plan
        .windows()
        .iter()
        .map(|w| w.end.saturating_since(w.start).as_nanos())
        .sum();
    total as f64 / horizon.as_nanos() as f64
}

/// Generate plan `index` from `seeds` under `budget`.
///
/// Pure function of its arguments: draws come from the dedicated stream
/// `("chaos.plan", index)`, and — crucially for determinism — the *same
/// draws happen in the same order whether or not a candidate spec is
/// kept*. A spec that would break the budget is simply discarded after the
/// fact, so acceptance never feeds back into the stream position.
pub fn generate_plan(seeds: &SeedFactory, index: u64, budget: &ChaosBudget) -> FaultPlan {
    let mut rng = seeds.stream("chaos.plan", index);
    let total_weight: u64 = budget.weights.iter().map(|&w| w as u64).sum();
    if total_weight == 0 || budget.max_specs == 0 {
        return FaultPlan::none();
    }
    let horizon_ms = budget.horizon.as_millis().max(2 * QUANTUM_MS);
    // Onsets land in the middle 10%–75% of the call: late enough that the
    // system reached steady state, early enough that every window (and
    // its recovery) clears before end of run.
    let onset_lo = (horizon_ms / 10).max(QUANTUM_MS);
    let onset_hi = (horizon_ms * 3 / 4).max(onset_lo + QUANTUM_MS);
    // Single-window durations: one quantum up to a fifth of the call.
    let dur_lo = QUANTUM_MS;
    let dur_hi = (horizon_ms / 5).max(dur_lo + QUANTUM_MS);
    let quant = |ms: u64| (ms / QUANTUM_MS).max(1) * QUANTUM_MS;

    let n_target = 1 + rng.index(budget.max_specs);
    let mut plan = FaultPlan::none();
    for _ in 0..n_target {
        let at = SimTime::from_millis(quant(rng.range_u64(onset_lo, onset_hi)));
        let outage = SimDuration::from_millis(quant(rng.range_u64(dur_lo, dur_hi)));
        // Every per-kind parameter is drawn unconditionally so the stream
        // position after a spec is independent of which kind it was.
        let ap = rng.index(2);
        let flap_down = SimDuration::from_millis(quant(rng.range_u64(200, 1200)));
        let flap_up = SimDuration::from_millis(quant(rng.range_u64(300, 2000)));
        let flap_cycles = 1 + rng.index(4) as u32;
        let reinstall = SimDuration::from_millis(quant(rng.range_u64(100, 800)));
        let extra_delay = SimDuration::from_millis(rng.range_u64(5, 40));
        let control_loss = 0.1 * rng.range_u64(1, 9) as f64;
        let erasure = 0.05 * rng.range_u64(1, 12) as f64;
        let link = match rng.index(3) {
            0 => Some(0),
            1 => Some(1),
            _ => None,
        };
        let mut pick = rng.range_u64(0, total_weight);
        let mut kind_idx = 0usize;
        for (k, &w) in budget.weights.iter().enumerate() {
            if pick < w as u64 {
                kind_idx = k;
                break;
            }
            pick -= w as u64;
        }
        let kind = match kind_idx {
            0 => FaultKind::ApPowerCycle { ap, outage },
            1 => FaultKind::ApFlap { ap, down: flap_down, up: flap_up, cycles: flap_cycles },
            2 => FaultKind::MiddleboxRestart { outage, reinstall_delay: reinstall },
            3 => FaultKind::Brownout { duration: outage, extra_delay, control_loss },
            4 => FaultKind::UplinkOutage { duration: outage },
            _ => FaultKind::InterferenceStorm { duration: outage, erasure, link },
        };
        plan.specs.push(FaultSpec { at, kind });
        if !budget.admits(&plan) {
            plan.specs.pop();
        }
    }
    plan
}

/// What one shrink run did.
#[derive(Clone, Debug, PartialEq)]
pub struct ShrinkOutcome {
    /// The minimal still-violating plan.
    pub minimal: FaultPlan,
    /// Oracle evaluations spent.
    pub tried: u64,
    /// Candidates accepted (each strictly smaller than its predecessor).
    pub accepted: u64,
}

/// Fuel backstop: the measure argument proves termination, this bounds a
/// buggy (non-deterministic) oracle instead of hanging CI.
const SHRINK_FUEL: u64 = 10_000;

/// Halve every duration inside `kind`, flooring at [`SHRINK_FLOOR`].
/// Returns `None` when nothing can shrink further.
fn halve_durations(kind: &FaultKind) -> Option<FaultKind> {
    let halve = |d: SimDuration| -> Option<SimDuration> {
        if d <= SHRINK_FLOOR {
            None
        } else {
            let h = d / 2;
            Some(if h < SHRINK_FLOOR { SHRINK_FLOOR } else { h })
        }
    };
    match *kind {
        FaultKind::ApPowerCycle { ap, outage } => {
            Some(FaultKind::ApPowerCycle { ap, outage: halve(outage)? })
        }
        FaultKind::ApFlap { ap, down, up, cycles } => {
            // The healthy gap is not an outage; only `down` shrinks.
            Some(FaultKind::ApFlap { ap, down: halve(down)?, up, cycles })
        }
        FaultKind::MiddleboxRestart { outage, reinstall_delay } => {
            Some(FaultKind::MiddleboxRestart { outage: halve(outage)?, reinstall_delay })
        }
        FaultKind::Brownout { duration, extra_delay, control_loss } => {
            Some(FaultKind::Brownout { duration: halve(duration)?, extra_delay, control_loss })
        }
        FaultKind::UplinkOutage { duration } => {
            Some(FaultKind::UplinkOutage { duration: halve(duration)? })
        }
        FaultKind::InterferenceStorm { duration, erasure, link } => {
            Some(FaultKind::InterferenceStorm { duration: halve(duration)?, erasure, link })
        }
    }
}

/// Delta-debug `plan` down to a minimal plan for which `still_violates`
/// remains true. `plan` itself must violate (callers check before
/// shrinking); the result is returned unchanged if no smaller candidate
/// violates.
///
/// The candidate order is fixed (see the [module docs](self)), so with a
/// deterministic oracle the minimal reproducer is a pure function of the
/// input plan — the property the planted-canary test pins across thread
/// counts.
pub fn shrink_plan<F>(plan: &FaultPlan, mut still_violates: F) -> ShrinkOutcome
where
    F: FnMut(&FaultPlan) -> bool,
{
    let mut current = plan.clone();
    let mut tried = 0u64;
    let mut accepted = 0u64;
    let mut check = |cand: &FaultPlan, tried: &mut u64| -> bool {
        *tried += 1;
        still_violates(cand)
    };
    loop {
        let mut changed = false;

        // Pass 1: drop whole specs, front to back, restarting on success
        // so earlier specs get re-tried against the smaller plan.
        let mut i = 0;
        while i < current.specs.len() && tried < SHRINK_FUEL {
            if current.specs.len() == 1 {
                break; // an empty plan cannot violate a fault oracle
            }
            let mut cand = current.clone();
            cand.specs.remove(i);
            if check(&cand, &mut tried) {
                current = cand;
                accepted += 1;
                changed = true;
                i = 0;
            } else {
                i += 1;
            }
        }

        // Pass 2: shorten outages — halve each spec's durations while the
        // halved plan still violates.
        for i in 0..current.specs.len() {
            while tried < SHRINK_FUEL {
                let Some(kind) = halve_durations(&current.specs[i].kind) else { break };
                let mut cand = current.clone();
                cand.specs[i].kind = kind;
                if check(&cand, &mut tried) {
                    current = cand;
                    accepted += 1;
                    changed = true;
                } else {
                    break;
                }
            }
        }

        // Pass 3: halve flap cycles (floor 1).
        for i in 0..current.specs.len() {
            while tried < SHRINK_FUEL {
                let FaultKind::ApFlap { ap, down, up, cycles } = current.specs[i].kind else {
                    break;
                };
                if cycles <= 1 {
                    break;
                }
                let mut cand = current.clone();
                cand.specs[i].kind = FaultKind::ApFlap { ap, down, up, cycles: cycles / 2 };
                if check(&cand, &mut tried) {
                    current = cand;
                    accepted += 1;
                    changed = true;
                } else {
                    break;
                }
            }
        }

        if !changed || tried >= SHRINK_FUEL {
            return ShrinkOutcome { minimal: current, tried, accepted };
        }
    }
}

/// One committed chaos-corpus entry: the minimal plan a shrink run
/// produced, plus everything needed to replay it (proptest-regressions
/// style — the corpus is replayed by CI so a fixed bug stays fixed).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChaosReproducer {
    /// Master seed of the chaos campaign that found it.
    pub seed: u64,
    /// Plan index within that campaign (the replay handle for the paired
    /// world seeds).
    pub index: u64,
    /// Which oracle tripped (`"no-amplification"`, `"engine-panic"`,
    /// `"unbounded-mttr"`, `"non-deterministic"`).
    pub oracle: String,
    /// Human-readable violation detail captured at find time.
    pub detail: String,
    /// Spec count of the plan as generated, before shrinking.
    pub original_specs: u64,
    /// The minimal still-violating plan.
    pub plan: FaultPlan,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let budget = ChaosBudget::for_horizon(secs(10));
        let a = SeedFactory::new(0xC8A05);
        let b = SeedFactory::new(0xC8A05);
        let c = SeedFactory::new(0xC8A06);
        let mut differs = false;
        for i in 0..64 {
            assert_eq!(generate_plan(&a, i, &budget), generate_plan(&b, i, &budget));
            differs |= generate_plan(&a, i, &budget) != generate_plan(&c, i, &budget);
        }
        assert!(differs, "different master seeds should generate different plans");
    }

    #[test]
    fn generated_plans_respect_the_budget() {
        let budget = ChaosBudget {
            horizon: secs(10),
            max_specs: 3,
            max_concurrent: 2,
            max_outage_frac: 0.3,
            weights: [1; FAULT_KIND_COUNT],
        };
        let seeds = SeedFactory::new(7);
        let mut non_empty = 0;
        for i in 0..500 {
            let plan = generate_plan(&seeds, i, &budget);
            assert!(budget.admits(&plan), "plan {i} violates its own budget: {plan:?}");
            assert!(plan.specs.len() <= 3);
            assert!(max_concurrency(&plan) <= 2);
            assert!(outage_fraction(&plan, budget.horizon) <= 0.3 + 1e-12);
            for w in plan.windows() {
                assert!(w.end <= SimTime::ZERO + budget.horizon, "window past horizon");
                assert!(w.start < w.end, "zero-length window");
            }
            non_empty += usize::from(!plan.is_empty());
        }
        assert!(non_empty > 400, "budget this loose should almost always admit something");
    }

    #[test]
    fn weights_select_kinds() {
        // Only uplink outages allowed.
        let mut budget = ChaosBudget::for_horizon(secs(10));
        budget.weights = [0, 0, 0, 0, 1, 0];
        let seeds = SeedFactory::new(9);
        let mut seen = 0;
        for i in 0..100 {
            let plan = generate_plan(&seeds, i, &budget);
            for s in &plan.specs {
                assert!(matches!(s.kind, FaultKind::UplinkOutage { .. }), "{:?}", s.kind);
                seen += 1;
            }
        }
        assert!(seen > 50);
        // All-zero weights generate nothing.
        budget.weights = [0; FAULT_KIND_COUNT];
        assert!(generate_plan(&seeds, 0, &budget).is_empty());
    }

    #[test]
    fn concurrency_counts_overlaps_half_open() {
        let plan = FaultPlan::none()
            .with(SimTime::from_secs(1), FaultKind::UplinkOutage { duration: secs(2) })
            .with(SimTime::from_secs(2), FaultKind::Brownout {
                duration: secs(2),
                extra_delay: SimDuration::from_millis(10),
                control_loss: 0.2,
            })
            // Starts exactly when the first ends: no overlap with it.
            .with(SimTime::from_secs(3), FaultKind::UplinkOutage { duration: secs(1) });
        assert_eq!(max_concurrency(&plan), 2);
        assert!(outage_fraction(&plan, secs(10)) > 0.49);
        assert!(outage_fraction(&plan, secs(10)) < 0.51);
    }

    #[test]
    fn shrinker_drops_irrelevant_specs_and_shortens_durations() {
        // Synthetic oracle: violates iff the plan contains any brownout.
        let oracle =
            |p: &FaultPlan| p.specs.iter().any(|s| matches!(s.kind, FaultKind::Brownout { .. }));
        let plan = FaultPlan::none()
            .with(SimTime::from_secs(1), FaultKind::UplinkOutage { duration: secs(2) })
            .with(SimTime::from_secs(2), FaultKind::Brownout {
                duration: secs(4),
                extra_delay: SimDuration::from_millis(20),
                control_loss: 0.5,
            })
            .with(
                SimTime::from_secs(4),
                FaultKind::ApFlap { ap: 1, down: secs(1), up: secs(1), cycles: 4 },
            );
        assert!(oracle(&plan));
        let out = shrink_plan(&plan, oracle);
        assert_eq!(out.minimal.specs.len(), 1, "only the brownout matters: {:?}", out.minimal);
        match out.minimal.specs[0].kind {
            FaultKind::Brownout { duration, .. } => {
                assert_eq!(duration, SHRINK_FLOOR, "duration must shrink to the floor")
            }
            ref k => panic!("wrong surviving spec: {k:?}"),
        }
        assert!(out.accepted >= 2);
        assert!(out.tried >= out.accepted);
    }

    #[test]
    fn shrinker_halves_flap_cycles_to_one() {
        let oracle =
            |p: &FaultPlan| p.specs.iter().any(|s| matches!(s.kind, FaultKind::ApFlap { .. }));
        let plan = FaultPlan::none().with(
            SimTime::from_secs(1),
            FaultKind::ApFlap { ap: 0, down: secs(2), up: secs(1), cycles: 8 },
        );
        let out = shrink_plan(&plan, oracle);
        match out.minimal.specs[0].kind {
            FaultKind::ApFlap { down, cycles, .. } => {
                assert_eq!(cycles, 1);
                assert_eq!(down, SHRINK_FLOOR);
            }
            ref k => panic!("{k:?}"),
        }
    }

    #[test]
    fn shrinking_is_deterministic() {
        // Oracle keyed on total outage: violates while total windows ≥ 1s.
        let oracle = |p: &FaultPlan| outage_fraction(p, secs(10)) >= 0.1;
        let seeds = SeedFactory::new(0x51AB);
        let budget = ChaosBudget::for_horizon(secs(10));
        for i in 0..50 {
            let plan = generate_plan(&seeds, i, &budget);
            if !oracle(&plan) {
                continue;
            }
            let a = shrink_plan(&plan, oracle);
            let b = shrink_plan(&plan, oracle);
            assert_eq!(a, b, "shrink of plan {i} must be deterministic");
            assert!(oracle(&a.minimal), "minimal plan must still violate");
        }
    }

    #[test]
    fn reproducer_round_trips_through_serde() {
        use serde::{Deserialize as _, Serialize as _, Value};
        let seeds = SeedFactory::new(3);
        let rep = ChaosReproducer {
            seed: 3,
            index: 17,
            oracle: "no-amplification".to_string(),
            detail: "loss 0.081 vs 0.020".to_string(),
            original_specs: 4,
            plan: generate_plan(&seeds, 17, &ChaosBudget::for_horizon(secs(10))),
        };
        let text = serde_json::to_string(&rep.to_value()).unwrap();
        let v: Value = serde_json::from_str(&text).unwrap();
        let back = ChaosReproducer::from_value(&v).unwrap();
        assert_eq!(rep, back);
    }
}
