//! Call-environment corpora: synthetic stand-ins for the paper's
//! measurement campaigns.
//!
//! The paper's §4 corpus is 458 two-minute simulated calls collected "at a
//! variety of locations, including offices, serviced apartments, downtown
//! areas, and a conference setting", deliberately including "various
//! challenging situations such as a weak link, client mobility, external
//! interference from a microwave oven, and network congestion". We
//! reproduce that as a seeded sampler over environment classes: each call
//! draws AP geometry, channels, fading parameters and one impairment class.

use diversifi_simcore::{RngStream, SeedFactory, SimDuration};
use diversifi_wifi::{
    Channel, Congestion, GeParams, ImpairmentKind, LinkConfig, MicrowaveOven, MobilityPattern,
};
use serde::Serialize;

/// The two links a call has available.
#[derive(Clone, Debug)]
pub struct CallEnvironment {
    /// Impairment class label (for Fig. 6 grouping).
    pub impairment: ImpairmentKind,
    /// Link to the (usually) stronger AP.
    pub link_a: LinkConfig,
    /// Link to the other AP.
    pub link_b: LinkConfig,
}

/// Weights over impairment classes for corpus generation.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct CorpusMix {
    /// Fraction of ordinary calls.
    pub none: f64,
    /// Fraction with a weak primary link.
    pub weak_link: f64,
    /// Fraction with client mobility.
    pub mobility: f64,
    /// Fraction with channel congestion.
    pub congestion: f64,
    /// Fraction with microwave interference.
    pub microwave: f64,
}

impl Default for CorpusMix {
    /// A mix that reflects the paper's deliberately challenge-heavy
    /// collection (the corpus was gathered *seeking out* bad situations —
    /// its baseline PCR is 12.23%, far above the 4.9% of the §6 testbed).
    fn default() -> Self {
        CorpusMix { none: 0.30, weak_link: 0.20, mobility: 0.18, congestion: 0.17, microwave: 0.15 }
    }
}

impl CorpusMix {
    /// Draw an impairment class.
    pub fn sample(&self, rng: &mut RngStream) -> ImpairmentKind {
        let total = self.none + self.weak_link + self.mobility + self.congestion + self.microwave;
        let x = rng.uniform() * total;
        let mut acc = self.none;
        if x < acc {
            return ImpairmentKind::None;
        }
        acc += self.weak_link;
        if x < acc {
            return ImpairmentKind::WeakLink;
        }
        acc += self.mobility;
        if x < acc {
            return ImpairmentKind::ClientMobility;
        }
        acc += self.congestion;
        if x < acc {
            return ImpairmentKind::WirelessCongestion;
        }
        ImpairmentKind::Microwave
    }
}

/// Perturb GE parameters so no two calls have identical fading statistics.
/// The short-fade dwell is biased low: most multipath fades last well under
/// the 100 ms temporal-replication offset (which is exactly why Δ = 100 ms
/// beats Δ = 0 in the paper's Fig. 2c, while the long-fade tail keeps the
/// Fig. 4 autocorrelation alive out past 400 ms).
fn jittered_ge(base: GeParams, rng: &mut RngStream) -> GeParams {
    let scale = |d: SimDuration, r: &mut RngStream| d.mul_f64(r.range_f64(0.6, 1.6));
    GeParams {
        mean_good: scale(base.mean_good, rng),
        mean_bad_short: base.mean_bad_short.mul_f64(rng.range_f64(0.55, 1.2)),
        mean_bad_long: scale(base.mean_bad_long, rng),
        p_long: (base.p_long * rng.range_f64(0.6, 1.5)).min(0.6),
        bad_loss: (base.bad_loss * rng.range_f64(0.9, 1.1)).min(0.98),
        good_loss: base.good_loss * rng.range_f64(0.5, 2.0),
    }
}

/// Pick two distinct channels for the call's APs. `allow_5ghz` reflects
/// whether the environment has 5 GHz APs (the paper's microwave site had
/// none — a detail that matters for Fig. 6).
fn pick_channels(rng: &mut RngStream, allow_5ghz: bool) -> (Channel, Channel) {
    let two_four = [Channel::CH1, Channel::CH6, Channel::CH11];
    let a = *rng.pick(&two_four);
    let b = if allow_5ghz && rng.chance(0.3) {
        *rng.pick(&[Channel::CH36, Channel::CH149])
    } else {
        // A different 2.4 GHz channel.
        loop {
            let c = *rng.pick(&two_four);
            if c != a {
                break c;
            }
        }
    };
    (a, b)
}

/// Sample one call environment of the given class. `shared_fate` controls
/// the *shared-fate* components (deep corners, shared walks, saturated
/// venues, wide-splatter ovens). The VoIP corpus includes them — they are
/// why cross-link replication is not a complete fix in Fig. 6. The
/// high-rate (5 Mbps) corpus excludes them: that stream is only deployed
/// where at least one link is viable, and a shared multi-second outage
/// would drown every strategy identically, showing nothing.
pub fn sample_environment(
    kind: ImpairmentKind,
    rng: &mut RngStream,
    diversity_order: u8,
    shared_fate: bool,
) -> CallEnvironment {
    let allow_5ghz = kind != ImpairmentKind::Microwave;
    let (ch_a, ch_b) = pick_channels(rng, allow_5ghz);

    // Geometry: the primary AP is the nearer one; the secondary is farther
    // (the paper connects to the two strongest APs, the 2nd being weaker).
    let dist_a = rng.range_f64(8.0, 24.0);
    let dist_b = dist_a + rng.range_f64(2.0, 16.0);

    let mut link_a = LinkConfig::office(ch_a, dist_a);
    let mut link_b = LinkConfig::office(ch_b, dist_b);
    link_a.ge = jittered_ge(GeParams::good_link(), rng);
    link_b.ge = jittered_ge(GeParams::good_link(), rng);
    link_a.diversity_order = diversity_order;
    link_b.diversity_order = diversity_order;

    match kind {
        ImpairmentKind::None => {}
        ImpairmentKind::WeakLink => {
            // Both links marginal (a far corner of the floor) — weak, not
            // dead: the paper's weak-link class has a ~12% PCR under
            // selection, not a black hole.
            let deep_corner = shared_fate && rng.chance(0.15);
            link_a.distance_m =
                if deep_corner { rng.range_f64(36.0, 44.0) } else { rng.range_f64(22.0, 31.0) };
            link_b.distance_m = link_a.distance_m + rng.range_f64(2.0, 10.0);
            let weak_ish = GeParams {
                mean_good: SimDuration::from_millis(2600),
                mean_bad_short: SimDuration::from_millis(65),
                mean_bad_long: SimDuration::from_millis(450),
                p_long: 0.18,
                bad_loss: 0.82,
                good_loss: 0.006,
            };
            link_a.ge = jittered_ge(weak_ish, rng);
            link_b.ge = jittered_ge(weak_ish, rng);
            if deep_corner {
                // Both links share the deep-corner fate — and the user's
                // pacing moves them in and out of the hole *together*, so
                // even replication struggles. These calls are the
                // cross-link PCR residue of the weak-link class.
                link_a.ge = jittered_ge(GeParams::weak_link(), rng);
                link_b.ge = jittered_ge(GeParams::weak_link(), rng);
                let phase = rng.uniform();
                let mut walk = MobilityPattern::walking(phase);
                walk.amplitude_db = rng.range_f64(10.0, 16.0);
                link_a.mobility = Some(walk);
                let mut walk_b = walk;
                walk_b.phase = (phase + rng.range_f64(0.0, 0.05)) % 1.0;
                link_b.mobility = Some(walk_b);
            }
        }
        ImpairmentKind::ClientMobility => {
            // Walking: big swings, faster shadowing. Usually the two APs
            // sit in different directions (decorrelated phases), but some
            // walks leave *both* APs behind (a stairwell, a far meeting
            // room) — those shared fades are what keeps cross-link
            // replication from being a complete fix (paper Fig. 6).
            let phase_a = rng.uniform();
            let shared_walk = shared_fate && rng.chance(0.35);
            let phase_b = if shared_walk {
                (phase_a + rng.range_f64(0.0, 0.05)) % 1.0
            } else {
                (phase_a + rng.range_f64(0.25, 0.75)) % 1.0
            };
            let mut walk_a = MobilityPattern::walking(phase_a);
            let mut walk_b = MobilityPattern::walking(phase_b);
            let amp = if shared_walk {
                rng.range_f64(16.0, 21.0)
            } else {
                rng.range_f64(14.0, 20.0)
            };
            walk_a.amplitude_db = amp;
            walk_b.amplitude_db = amp * rng.range_f64(0.9, 1.1);
            link_a.mobility = Some(walk_a);
            link_b.mobility = Some(walk_b);
            link_a.shadow_sigma_db = 4.5;
            link_b.shadow_sigma_db = 4.5;
            link_a.shadow_tau = SimDuration::from_millis(700);
            link_b.shadow_tau = SimDuration::from_millis(700);
        }
        ImpairmentKind::WirelessCongestion => {
            // The primary's channel is loaded; the secondary, on another
            // channel, usually sees lighter load.
            // A fraction of these calls sit in a saturated venue (the
            // conference setting of §4) where every channel is busy — the
            // case even replication cannot fully fix.
            let saturated = shared_fate && rng.chance(0.05);
            let loaded = Congestion {
                busy_fraction: if saturated {
                    rng.range_f64(0.7, 0.8)
                } else {
                    rng.range_f64(0.3, 0.45)
                },
                collision_prob: if saturated { 0.09 } else { 0.04 },
                burst_prob: if saturated { 0.07 } else { 0.006 },
                burst_mean: SimDuration::from_millis(if saturated { 120 } else { 80 }),
            };
            link_a.congestion = Some(loaded);
            if saturated || rng.chance(0.35) {
                link_b.congestion = Some(loaded);
            } else if rng.chance(0.5) {
                link_b.congestion = Some(Congestion {
                    busy_fraction: 0.25,
                    collision_prob: 0.03,
                    burst_prob: 0.005,
                    burst_mean: SimDuration::from_millis(60),
                });
            }
        }
        ImpairmentKind::Microwave => {
            // One oven, heard by every 2.4 GHz link in the room. The
            // paper's site had no 5 GHz escape and most links sat on the
            // upper channels the oven sweeps — force both links up there.
            let upper = [Channel::CH6, Channel::CH11];
            link_a.channel = upper[rng.index(2)];
            link_b.channel = if link_a.channel == Channel::CH6 {
                Channel::CH11
            } else {
                Channel::CH6
            };
            // A strong thermostat-cycled oven close by: its on-bursts last
            // longer than the MAC's whole retry span, so a packet caught in
            // one dies on *both* upper-band channels at once —
            // phase-correlated loss that replication cannot undo. This is
            // the reason Fig. 6 shows cross-link's smallest gain (1.2×)
            // for the microwave class.
            // Ovens differ: duty cycle depends on the power setting, and
            // how completely a burst saturates both channels (the
            // half-width) depends on distance and shielding. Wide-splatter
            // ovens make per-attempt survival luck-free on *both* channels
            // — loss becomes phase-correlated across links and replication
            // can't undo it; narrower ones leave cross-link some room.
            // Two oven sub-populations. Close/wide-splatter ovens saturate
            // both channels: inside a burst every attempt dies on *both*
            // links, so the loss is phase-correlated and replication can't
            // undo it. Farther/narrower ovens leave per-attempt luck, which
            // cross-link exploits.
            let correlated = shared_fate && rng.chance(0.6);
            let oven = MicrowaveOven {
                period: SimDuration::from_millis(350),
                duty: if correlated {
                    rng.range_f64(0.05, 0.10)
                } else {
                    rng.range_f64(0.03, 0.08)
                },
                peak_loss: 0.995,
                off_loss: 0.01,
                half_width_mhz: if correlated { 1800.0 } else { 350.0 },
                ..MicrowaveOven::default()
            };
            link_a.microwave = Some(oven);
            link_b.microwave = Some(oven);
        }
    }
    CallEnvironment { impairment: kind, link_a, link_b }
}

/// Generate a corpus of `n` environments with the given mix and the
/// shared-fate control of [`sample_environment`]. Each call gets its own
/// seed subfactory, so corpora are reproducible and individual calls can
/// be re-run in isolation.
pub fn generate(
    n: usize,
    mix: &CorpusMix,
    seeds: &SeedFactory,
    diversity_order: u8,
    shared_fate: bool,
) -> Vec<(CallEnvironment, SeedFactory)> {
    let mut rng = seeds.stream("corpus-mix", 0);
    (0..n)
        .map(|i| {
            let kind = mix.sample(&mut rng);
            let call_seeds = seeds.subfactory("call", i as u64);
            let mut env_rng = call_seeds.stream("environment", 0);
            (
                sample_environment(kind, &mut env_rng, diversity_order, shared_fate),
                call_seeds,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use diversifi_wifi::Band;

    fn rng() -> RngStream {
        SeedFactory::new(0xC0B5).stream("t", 0)
    }

    #[test]
    fn mix_samples_all_classes() {
        let mix = CorpusMix::default();
        let mut r = rng();
        let mut counts = std::collections::HashMap::new();
        for _ in 0..2000 {
            *counts.entry(mix.sample(&mut r)).or_insert(0u32) += 1;
        }
        assert_eq!(counts.len(), 5, "all five classes present: {counts:?}");
        let none = counts[&ImpairmentKind::None] as f64 / 2000.0;
        assert!((none - 0.30).abs() < 0.04, "none fraction {none}");
    }

    #[test]
    fn channels_always_distinct() {
        let mut r = rng();
        for _ in 0..500 {
            let (a, b) = pick_channels(&mut r, true);
            assert_ne!(a, b);
        }
    }

    #[test]
    fn microwave_env_is_all_24ghz_and_shared_oven() {
        let mut r = rng();
        for _ in 0..100 {
            let env = sample_environment(ImpairmentKind::Microwave, &mut r, 1, true);
            assert_eq!(env.link_a.channel.band, Band::Ghz2_4);
            assert_eq!(env.link_b.channel.band, Band::Ghz2_4);
            assert!(env.link_a.microwave.is_some());
            assert!(env.link_b.microwave.is_some());
        }
    }

    #[test]
    fn weak_env_is_far() {
        let mut r = rng();
        let env = sample_environment(ImpairmentKind::WeakLink, &mut r, 1, true);
        assert!(env.link_a.distance_m >= 26.0);
        assert!(env.link_b.distance_m > env.link_a.distance_m);
    }

    #[test]
    fn mobility_env_has_decorrelated_phases() {
        let mut r = rng();
        let env = sample_environment(ImpairmentKind::ClientMobility, &mut r, 1, true);
        let ma = env.link_a.mobility.unwrap();
        let mb = env.link_b.mobility.unwrap();
        let dphase = (ma.phase - mb.phase).abs();
        assert!((0.2..=0.8).contains(&dphase.min(1.0 - dphase).max(dphase.min(1.0 - dphase))) || dphase > 0.2);
    }

    #[test]
    fn secondary_is_farther_than_primary() {
        let mut r = rng();
        for kind in [ImpairmentKind::None, ImpairmentKind::WirelessCongestion] {
            let env = sample_environment(kind, &mut r, 1, true);
            assert!(env.link_b.distance_m > env.link_a.distance_m);
        }
    }

    #[test]
    fn generate_is_deterministic() {
        let seeds = SeedFactory::new(5);
        let c1 = generate(20, &CorpusMix::default(), &seeds, 1, true);
        let c2 = generate(20, &CorpusMix::default(), &seeds, 1, true);
        for (x, y) in c1.iter().zip(&c2) {
            assert_eq!(x.0.impairment, y.0.impairment);
            assert_eq!(x.0.link_a.distance_m, y.0.link_a.distance_m);
            assert_eq!(x.0.link_a.channel, y.0.link_a.channel);
        }
    }

    #[test]
    fn diversity_order_propagates() {
        let seeds = SeedFactory::new(6);
        for (env, _) in generate(10, &CorpusMix::default(), &seeds, 2, true) {
            assert_eq!(env.link_a.diversity_order, 2);
            assert_eq!(env.link_b.diversity_order, 2);
        }
    }
}
