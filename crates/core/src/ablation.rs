//! Ablation studies of DiversiFi's design choices.
//!
//! The paper's design (§5.3) makes several specific choices; each function
//! here isolates one and sweeps it, holding the channel realisation fixed
//! (paired seeds), so the contribution of the choice is directly visible:
//!
//! - **Queue discipline** — head-drop vs tail-drop, and the queue cap
//!   (paper: head-drop sized to MaxTolerableDelay/IPS; the tail-drop
//!   "End-to-End" strawman is §5.3's motivating inefficiency).
//! - **Wake batch** — how many buffered frames the AP commits to hardware
//!   per wake (the source of the residual 0.62% duplication).
//! - **Visit timing margin** — how early the client arrives before the
//!   missing packet would roll off the secondary queue.
//! - **Keepalive period** — association freshness vs switching overhead.

use crate::evaluation::testbed_location;
use crate::world::{RunMode, World, WorldConfig};
use diversifi_simcore::{mean, SeedFactory, SimDuration, SweepRunner, WorkerArena};
use diversifi_voip::DEFAULT_DEADLINE;
use diversifi_wifi::RealizationCache;
use serde::Serialize;

/// Outcome of one ablation point, averaged over `n_locations`.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct AblationPoint {
    /// The swept parameter's value (meaning depends on the study).
    pub x: f64,
    /// Mean residual loss (%).
    pub loss_pct: f64,
    /// Mean wasteful secondary transmissions (% of stream).
    pub waste_pct: f64,
    /// Mean recovery visits per call.
    pub visits: f64,
}

/// One cache per ablation *study*, shared across its points: each point `i`
/// derives the same per-index seed sub-factory, and the swept knobs are
/// client/AP parameters outside the realisation key, so every point after
/// the first replays the radio environment from the cache.
fn study_cache(n_locations: usize) -> RealizationCache {
    RealizationCache::new((2 * n_locations).max(8))
}

fn run_points(
    n_locations: usize,
    seed: u64,
    cache: &RealizationCache,
    configure: impl Fn(&mut WorldConfig) + Sync,
    x: f64,
) -> AblationPoint {
    let seeds = SeedFactory::new(seed);
    let rows =
        SweepRunner::available().run_indexed_with(n_locations, WorkerArena::new, |i, arena| {
            let call_seeds = seeds.subfactory("ablation", i as u64);
            let mut rng = call_seeds.stream("location", 0);
            let (p, s) = testbed_location(&mut rng);
            let mut cfg = WorldConfig::testbed(p, s);
            cfg.spec.duration = SimDuration::from_secs(60);
            configure(&mut cfg);
            let r = World::new_cached_in(&cfg, &call_seeds, cache, arena).run_in(arena);
            (
                r.trace.loss_rate(DEFAULT_DEADLINE) * 100.0,
                100.0 * r.secondary_wasteful_tx as f64 / r.trace.len() as f64,
                r.alg_stats.recovery_visits as f64,
            )
        });
    let loss: Vec<f64> = rows.iter().map(|r| r.0).collect();
    let waste: Vec<f64> = rows.iter().map(|r| r.1).collect();
    let visits: Vec<f64> = rows.iter().map(|r| r.2).collect();
    AblationPoint { x, loss_pct: mean(&loss), waste_pct: mean(&waste), visits: mean(&visits) }
}

/// Sweep the secondary queue discipline: the customized head-drop AP vs the
/// stock tail-drop strawman, at several caps. Returns
/// `(label, AblationPoint)` rows.
pub fn queue_discipline_ablation(
    n_locations: usize,
    seed: u64,
) -> Vec<(String, AblationPoint)> {
    let mut out = Vec::new();
    let cache = study_cache(n_locations);
    // Head-drop at various caps (the paper derives cap = MTD/IPS = 5).
    for cap in [2usize, 5, 10, 20] {
        let pt = run_points(
            n_locations,
            seed,
            &cache,
            |cfg| {
                cfg.mode = RunMode::DiversifiCustomAp;
                // Shrink/grow the requested queue via MaxTolerableDelay.
                cfg.alg.max_tolerable_delay = cfg.alg.inter_packet_spacing * cap as u64;
            },
            cap as f64,
        );
        out.push((format!("head-drop cap={cap}"), pt));
    }
    // The End-to-End strawman: stock tail-drop 64.
    let pt = run_points(n_locations, seed, &cache, |cfg| cfg.mode = RunMode::EndToEndPsm, 64.0);
    out.push(("tail-drop (stock, End-to-End)".to_string(), pt));
    out
}

/// Sweep the wake batch (frames committed to hardware per PSM wake).
pub fn wake_batch_ablation(n_locations: usize, seed: u64) -> Vec<AblationPoint> {
    let cache = study_cache(n_locations);
    [1usize, 2, 4, 8]
        .iter()
        .map(|&batch| {
            run_points(n_locations, seed, &cache, move |cfg| cfg.wake_batch = batch, batch as f64)
        })
        .collect()
}

/// Sweep the visit safety margin (how early the client arrives relative to
/// the missing packet's roll-off deadline). Too small: the packet is gone
/// before the client gets there; too large: the client fetches older
/// duplicates.
pub fn visit_margin_ablation(n_locations: usize, seed: u64) -> Vec<AblationPoint> {
    let cache = study_cache(n_locations);
    [0u64, 2, 4, 8, 16, 32]
        .iter()
        .map(|&ms| {
            run_points(
                n_locations,
                seed,
                &cache,
                move |cfg| cfg.alg.visit_safety_margin = SimDuration::from_millis(ms),
                ms as f64,
            )
        })
        .collect()
}

/// Sweep the keepalive timeout (paper: 30 s). Returns points where `x` is
/// the keepalive period in seconds; visits here counts *keepalive* visits.
pub fn keepalive_ablation(n_locations: usize, seed: u64) -> Vec<AblationPoint> {
    let cache = study_cache(n_locations);
    [5u64, 15, 30, 60]
        .iter()
        .map(|&s| {
            let seeds = SeedFactory::new(seed);
            let rows = SweepRunner::available().run_indexed_with(
                n_locations,
                WorkerArena::new,
                |i, arena| {
                    let call_seeds = seeds.subfactory("ablation-ka", i as u64);
                    let mut rng = call_seeds.stream("location", 0);
                    let (p, sc) = testbed_location(&mut rng);
                    let mut cfg = WorldConfig::testbed(p, sc);
                    cfg.spec.duration = SimDuration::from_secs(60);
                    cfg.alg.keepalive_timeout = SimDuration::from_secs(s);
                    let r = World::new_cached_in(&cfg, &call_seeds, &cache, arena).run_in(arena);
                    (
                        r.trace.loss_rate(DEFAULT_DEADLINE) * 100.0,
                        100.0 * r.secondary_wasteful_tx as f64 / r.trace.len() as f64,
                        r.alg_stats.keepalive_visits as f64,
                    )
                },
            );
            let loss: Vec<f64> = rows.iter().map(|r| r.0).collect();
            let waste: Vec<f64> = rows.iter().map(|r| r.1).collect();
            let keepalives: Vec<f64> = rows.iter().map(|r| r.2).collect();
            AblationPoint {
                x: s as f64,
                loss_pct: mean(&loss),
                waste_pct: mean(&waste),
                visits: mean(&keepalives),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_drop_strawman_wastes_more_than_derived_cap() {
        let rows = queue_discipline_ablation(5, 0xAB1);
        let cap5 = rows.iter().find(|(l, _)| l.contains("cap=5")).unwrap().1;
        let stock = rows.iter().find(|(l, _)| l.contains("tail-drop")).unwrap().1;
        assert!(
            stock.waste_pct > cap5.waste_pct,
            "stock PSM {} vs head-drop cap-5 {}",
            stock.waste_pct,
            cap5.waste_pct
        );
        // And the derived cap still recovers losses.
        assert!(cap5.loss_pct < 2.0, "cap-5 residual loss {}", cap5.loss_pct);
    }

    #[test]
    fn wake_batch_trades_waste_for_nothing_beyond_small_values() {
        let pts = wake_batch_ablation(5, 0xAB2);
        let b1 = pts[0];
        let b8 = pts[3];
        assert!(b8.waste_pct >= b1.waste_pct, "batch 8 {} vs 1 {}", b8.waste_pct, b1.waste_pct);
        // Loss should not improve materially past small batches.
        assert!(b8.loss_pct > b1.loss_pct - 0.5);
    }

    #[test]
    fn visit_margin_has_a_sweet_spot() {
        let pts = visit_margin_ablation(5, 0xAB3);
        // A huge margin (arriving very early) must increase duplication.
        let small = pts[2]; // 4 ms (the default)
        let huge = pts[5]; // 32 ms
        assert!(
            huge.waste_pct >= small.waste_pct,
            "early arrival should fetch more stale packets: {} vs {}",
            huge.waste_pct,
            small.waste_pct
        );
    }

    #[test]
    fn keepalive_frequency_scales_visits() {
        let pts = keepalive_ablation(4, 0xAB4);
        let fast = pts[0]; // 5 s
        let slow = pts[3]; // 60 s
        assert!(
            fast.visits > slow.visits,
            "5s keepalive should visit more: {} vs {}",
            fast.visits,
            slow.visits
        );
    }
}
