//! The composite link model: everything between an AP's antenna and a
//! client adapter's antenna on one channel.
//!
//! Per transmission attempt, the erasure probability is composed from
//! independent mechanisms:
//!
//! ```text
//! p_loss = 1 − (1−p_phy)·(1−p_fade)·(1−p_interf)·(1−p_collision)
//! ```
//!
//! - `p_phy`   — SNR/rate waterfall ([`crate::radio::phy_per`]), reduced by
//!   MIMO spatial diversity,
//! - `p_fade`  — Gilbert–Elliott burst process; MIMO helps only the short
//!   (multipath-class) fades, not the long (shadowing-class) ones,
//! - `p_interf`— microwave-oven bursts on susceptible 2.4 GHz channels,
//! - `p_collision` — contention losses under congestion.
//!
//! This composition is exactly why the paper finds that cross-link
//! replication beats MIMO (Fig. 2d): spatial streams share the shadowing and
//! interference terms, while two links to different APs on different
//! channels share (almost) nothing.

use crate::channel::Channel;
use crate::fading::{GeParams, GeState};
use crate::impairment::{Congestion, MicrowaveOven, MobilityPattern};
use crate::radio::{self, PhyRate};
use crate::realization::ChannelRealization;
use diversifi_simcore::{RngStream, SeedFactory, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Static description of one AP↔client link.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LinkConfig {
    /// Channel the AP operates on.
    pub channel: Channel,
    /// AP transmit power in dBm.
    pub tx_power_dbm: f64,
    /// AP–client distance in metres.
    pub distance_m: f64,
    /// Log-distance path-loss exponent (≈3.2 for offices with cubicles).
    pub path_loss_exponent: f64,
    /// Shadowing standard deviation in dB.
    pub shadow_sigma_db: f64,
    /// Shadowing decorrelation time.
    pub shadow_tau: SimDuration,
    /// Gilbert–Elliott burst-fade parameters.
    pub ge: GeParams,
    /// Optional mobility swing.
    pub mobility: Option<MobilityPattern>,
    /// Optional microwave oven in the environment.
    pub microwave: Option<MicrowaveOven>,
    /// Optional channel congestion.
    pub congestion: Option<Congestion>,
    /// Diversity order of the PHY (1 = SISO; ≥2 models MIMO/STBC receive
    /// diversity as in the paper's 802.11ac experiments).
    pub diversity_order: u8,
}

impl LinkConfig {
    /// A healthy office link at `distance_m` metres on `channel`.
    pub fn office(channel: Channel, distance_m: f64) -> LinkConfig {
        LinkConfig {
            channel,
            tx_power_dbm: 16.0,
            distance_m,
            path_loss_exponent: 3.2,
            shadow_sigma_db: 2.5,
            shadow_tau: SimDuration::from_secs(2),
            ge: GeParams::good_link(),
            mobility: None,
            microwave: None,
            congestion: None,
            diversity_order: 1,
        }
    }

    /// Mean RSSI in dBm implied by the geometry (before shadowing/mobility).
    pub fn mean_rssi_dbm(&self) -> f64 {
        let pl = radio::path_loss_db(
            self.channel.band.reference_loss_db(),
            self.path_loss_exponent,
            self.distance_m,
        );
        radio::rssi_dbm(self.tx_power_dbm, pl)
    }
}

/// One AP↔client link: its config, the channel realisation it replays, and
/// its own per-attempt randomness.
///
/// The channel environment (Gilbert–Elliott timeline and shadowing track)
/// always comes from a [`ChannelRealization`]: built fresh by
/// [`LinkModel::new`], or shared with other arms by
/// [`LinkModel::from_realization`]. A realisation is a pure function of
/// `(link parameters, seed, index, horizon)`, so the two are bit-identical.
#[derive(Clone, Debug)]
pub struct LinkModel {
    cfg: LinkConfig,
    real: Arc<ChannelRealization>,
    /// Last GE segment index, so forward replay is O(1) amortised.
    ge_cursor: usize,
    last_query: SimTime,
    rng: RngStream,
    /// Geometry-implied mean RSSI, cached (it is pure config).
    mean_rssi_dbm: f64,
    /// Smoothed RSSI as the OS would report it (updated on query).
    reported_rssi: f64,
    /// Extra per-attempt erasure injected by the world (interference
    /// storms from a fault plan). Runtime state, not config: it is
    /// toggled mid-run and is deliberately not part of the realisation
    /// cache key. Composed multiplicatively with the link's own terms,
    /// so querying it draws no randomness.
    extra_erasure: f64,
}

impl LinkModel {
    /// A link over a fresh realisation of its channel on `[0, horizon]`.
    /// `index` distinguishes multiple links of one scenario. Reads past
    /// `horizon` trip the audit layer (see [`ChannelRealization`]).
    pub fn new(cfg: LinkConfig, seeds: &SeedFactory, index: u64, horizon: SimTime) -> LinkModel {
        let real = Arc::new(ChannelRealization::materialize(&cfg, seeds, index, horizon));
        Self::from_realization(cfg, real, seeds, index)
    }

    /// A link replaying `real`, typically shared with the other arms of a
    /// paired experiment through a [`crate::RealizationCache`].
    ///
    /// `seeds`/`index` still seed the per-attempt erasure/backoff stream —
    /// that randomness is per-arm and is never part of the shared
    /// realisation.
    pub fn from_realization(
        cfg: LinkConfig,
        real: Arc<ChannelRealization>,
        seeds: &SeedFactory,
        index: u64,
    ) -> LinkModel {
        let rng = seeds.stream("link-attempts", index);
        let mean_rssi_dbm = cfg.mean_rssi_dbm();
        LinkModel {
            cfg,
            real,
            ge_cursor: 0,
            last_query: SimTime::ZERO,
            rng,
            mean_rssi_dbm,
            reported_rssi: mean_rssi_dbm,
            extra_erasure: 0.0,
        }
    }

    /// Set the injected interference-storm erasure (clamped to `[0, 1]`;
    /// 0 restores the healthy link).
    pub fn set_extra_erasure(&mut self, p: f64) {
        self.extra_erasure = p.clamp(0.0, 1.0);
    }

    /// The currently injected interference-storm erasure.
    pub fn extra_erasure(&self) -> f64 {
        self.extra_erasure
    }

    /// Fading state at `t`: `(state, is-long-bad-episode)`.
    fn fade_at(&mut self, t: SimTime) -> (GeState, bool) {
        assert!(t >= self.last_query, "GilbertElliott queried backwards in time");
        self.last_query = t;
        self.ge_cursor = self.real.ge_index_at(self.ge_cursor, t);
        let seg = self.real.ge_segments()[self.ge_cursor];
        (seg.state, seg.state == GeState::Bad && seg.long)
    }

    /// The static configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.cfg
    }

    /// The channel this link runs on.
    pub fn channel(&self) -> Channel {
        self.cfg.channel
    }

    /// Instantaneous RSSI (dBm) at `t`, including shadowing and mobility.
    /// Queries must be non-decreasing in `t` (event order).
    pub fn rssi_at(&mut self, t: SimTime) -> f64 {
        // Every channel read passes here (rate selection and erasure both
        // start from the SNR at `t`). Past the horizon the realisation
        // would silently freeze at its last value, so the audit refuses it;
        // in nanoseconds, because `SimTime` displays whole milliseconds.
        diversifi_simcore::sim_assert!(
            t <= self.real.horizon(),
            "link read its channel at {} ns, past the realisation horizon {} ns",
            t.as_nanos(),
            self.real.horizon().as_nanos()
        );
        let mut rssi = self.mean_rssi_dbm + self.real.shadow_at(t);
        if let Some(m) = &self.cfg.mobility {
            rssi -= m.extra_loss_db(t);
        }
        // OS-style exponentially smoothed reading.
        self.reported_rssi = 0.8 * self.reported_rssi + 0.2 * rssi;
        rssi
    }

    /// The smoothed RSSI the OS would show — what the `stronger` selection
    /// policy keys off.
    pub fn reported_rssi(&self) -> f64 {
        self.reported_rssi
    }

    /// SNR (dB) at `t`.
    pub fn snr_at(&mut self, t: SimTime) -> f64 {
        radio::snr_db(self.rssi_at(t))
    }

    /// The PHY rate the AP's rate-control would use at `t` (before retry
    /// fallback), chosen with a small conservatism margin like Minstrel.
    pub fn select_rate_at(&mut self, t: SimTime) -> PhyRate {
        radio::select_rate(self.snr_at(t), 2.0)
    }

    /// Composite per-attempt erasure probability for a frame of `bytes`
    /// transmitted at `rate` at time `t`.
    pub fn attempt_erasure(&mut self, t: SimTime, rate: PhyRate, bytes: u32) -> f64 {
        let d = self.cfg.diversity_order.max(1) as f64;
        let snr = self.snr_at(t);
        // `pow(x, 1.0) == x` exactly (IEEE 754), so the SISO fast path is
        // bit-identical — and `powf` is the hottest transcendental on the
        // per-attempt path.
        let siso = d == 1.0;

        // PHY waterfall — independent across spatial streams.
        let p_raw = radio::phy_per(snr, rate, bytes);
        let p_phy = if siso { p_raw } else { p_raw.powf(d) };

        // Burst fading — diversity helps only multipath-class (short) fades.
        let p_fade = match self.fade_at(t) {
            (GeState::Good, _) => self.cfg.ge.good_loss,
            (GeState::Bad, long) => {
                let base = self.cfg.ge.bad_loss;
                if long || siso {
                    base
                } else {
                    base.powf(d)
                }
            }
        };

        // External interference — hits all spatial streams together.
        let p_interf = self
            .cfg
            .microwave
            .as_ref()
            .map(|mw| mw.erasure(t, self.cfg.channel))
            .unwrap_or(0.0);

        // Collisions under congestion — also diversity-independent.
        let p_coll = self.cfg.congestion.as_ref().map(|c| c.collision_prob).unwrap_or(0.0);

        let p_ok = (1.0 - p_phy)
            * (1.0 - p_fade)
            * (1.0 - p_interf)
            * (1.0 - p_coll)
            * (1.0 - self.extra_erasure);
        (1.0 - p_ok).clamp(0.0, 1.0)
    }

    /// Sample one transmission attempt at `t`: `true` = frame received.
    pub fn sample_attempt(&mut self, t: SimTime, rate: PhyRate, bytes: u32) -> bool {
        let p = self.attempt_erasure(t, rate, bytes);
        !self.rng.chance(p)
    }

    /// Extra medium-access wait before an attempt (congestion), zero
    /// otherwise.
    pub fn access_wait(&mut self) -> SimDuration {
        match &self.cfg.congestion {
            Some(c) => {
                let c = *c;
                c.access_wait(&mut self.rng)
            }
            None => SimDuration::ZERO,
        }
    }

    /// Borrow the attempt RNG (the MAC uses it for backoff draws so the
    /// whole link consumes exactly one stream).
    pub fn rng(&mut self) -> &mut RngStream {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeds() -> SeedFactory {
        SeedFactory::new(0x11F1)
    }

    /// A link over a fresh realisation covering `secs` seconds.
    fn link(cfg: LinkConfig, index: u64, secs: u64) -> LinkModel {
        LinkModel::new(cfg, &seeds(), index, SimTime::from_secs(secs))
    }

    #[test]
    fn office_link_is_mostly_clean() {
        let mut link = link(LinkConfig::office(Channel::CH1, 12.0), 0, 400);
        let mut t = SimTime::ZERO;
        let mut losses = 0;
        let n = 20_000;
        for _ in 0..n {
            let rate = link.select_rate_at(t);
            if !link.sample_attempt(t, rate, 160) {
                losses += 1;
            }
            t += SimDuration::from_millis(20);
        }
        let rate = losses as f64 / n as f64;
        assert!(rate < 0.08, "office link per-attempt loss {rate}");
        assert!(rate > 0.0, "GE fades should cause some loss");
    }

    #[test]
    fn distance_degrades_link() {
        let mut near = link(LinkConfig::office(Channel::CH1, 8.0), 0, 1);
        let mut far = link(LinkConfig::office(Channel::CH1, 45.0), 0, 1);
        let t = SimTime::from_millis(1);
        assert!(near.snr_at(t) > far.snr_at(t));
        let rn = near.select_rate_at(SimTime::from_millis(2));
        let rf = far.select_rate_at(SimTime::from_millis(2));
        assert!(rn.mbps >= rf.mbps);
    }

    #[test]
    fn weak_link_loses_more() {
        let mut cfg_weak = LinkConfig::office(Channel::CH1, 40.0);
        cfg_weak.ge = GeParams::weak_link();
        let strong = LinkConfig::office(Channel::CH1, 10.0);
        let loss_rate = |cfg: LinkConfig, idx: u64| {
            let mut link = link(cfg, idx, 400);
            let mut t = SimTime::ZERO;
            let mut losses = 0;
            let n = 20_000;
            for _ in 0..n {
                let rate = link.select_rate_at(t);
                if !link.sample_attempt(t, rate, 160) {
                    losses += 1;
                }
                t += SimDuration::from_millis(20);
            }
            losses as f64 / n as f64
        };
        let lw = loss_rate(cfg_weak, 0);
        let ls = loss_rate(strong, 1);
        assert!(lw > 2.0 * ls, "weak {lw} vs strong {ls}");
    }

    #[test]
    fn microwave_only_hurts_24ghz() {
        let mk = |channel| {
            let mut cfg = LinkConfig::office(channel, 10.0);
            cfg.microwave = Some(MicrowaveOven::default());
            cfg
        };
        let t_on = SimTime::from_millis(5); // magnetron radiating
        let mut l24 = link(mk(Channel::CH11), 0, 1);
        let mut l5 = link(mk(Channel::CH36), 1, 1);
        let r24 = l24.select_rate_at(t_on);
        let r5 = l5.select_rate_at(t_on);
        assert!(l24.attempt_erasure(t_on, r24, 160) > 0.6);
        assert!(l5.attempt_erasure(t_on, r5, 160) < 0.2);
    }

    #[test]
    fn diversity_reduces_phy_and_short_fade_loss() {
        let mut cfg1 = LinkConfig::office(Channel::CH36, 35.0);
        cfg1.ge.p_long = 0.0; // only multipath-class fades
        let mut cfg2 = cfg1.clone();
        cfg2.diversity_order = 3;
        let loss = |cfg: LinkConfig| {
            let mut link = link(cfg, 7, 100);
            let mut t = SimTime::ZERO;
            let mut acc = 0.0;
            let n = 20_000;
            for _ in 0..n {
                let rate = link.select_rate_at(t);
                acc += link.attempt_erasure(t, rate, 1000);
                t += SimDuration::from_millis(5);
            }
            acc / n as f64
        };
        let siso = loss(cfg1);
        let mimo = loss(cfg2);
        assert!(mimo < siso * 0.6, "mimo {mimo} vs siso {siso}");
    }

    #[test]
    fn diversity_does_not_help_interference() {
        let mut cfg = LinkConfig::office(Channel::CH11, 10.0);
        cfg.microwave = Some(MicrowaveOven::default());
        let mut cfg_mimo = cfg.clone();
        cfg_mimo.diversity_order = 4;
        let t = SimTime::from_millis(5);
        let mut a = link(cfg, 0, 1);
        let mut b = link(cfg_mimo, 0, 1);
        let ra = a.select_rate_at(t);
        let rb = b.select_rate_at(t);
        let ea = a.attempt_erasure(t, ra, 160);
        let eb = b.attempt_erasure(t, rb, 160);
        // Interference dominates; MIMO barely moves it.
        assert!(eb > ea * 0.9, "mimo {eb} vs siso {ea}");
    }

    #[test]
    fn congestion_adds_wait_and_collisions() {
        let mut cfg = LinkConfig::office(Channel::CH6, 10.0);
        cfg.congestion = Some(Congestion::heavy());
        let mut link = link(cfg, 0, 1);
        let t = SimTime::from_millis(1);
        let rate = link.select_rate_at(t);
        assert!(link.attempt_erasure(t, rate, 160) >= Congestion::heavy().collision_prob * 0.9);
        let mean_wait: f64 =
            (0..2000).map(|_| link.access_wait().as_secs_f64()).sum::<f64>() / 2000.0;
        assert!(mean_wait > 0.0005, "mean congestion wait {mean_wait}s");
    }

    #[test]
    fn mobility_swings_snr() {
        let mut cfg = LinkConfig::office(Channel::CH1, 15.0);
        cfg.mobility = Some(MobilityPattern::walking(0.0));
        let mut link = link(cfg, 0, 20);
        let near = link.snr_at(SimTime::from_millis(100));
        let far = link.snr_at(SimTime::from_secs(17));
        assert!(near - far > 8.0, "mobility should cost >8 dB, got {}", near - far);
    }

    #[test]
    fn reported_rssi_is_smoothed() {
        let mut link = link(LinkConfig::office(Channel::CH1, 15.0), 0, 11);
        let mut t = SimTime::ZERO;
        for _ in 0..100 {
            link.rssi_at(t);
            t += SimDuration::from_millis(100);
        }
        let inst = link.rssi_at(t);
        let rep = link.reported_rssi();
        // Smoothed value should be in the neighbourhood of the mean.
        assert!((rep - link.config().mean_rssi_dbm()).abs() < 8.0, "rep {rep} inst {inst}");
    }

    #[test]
    fn fresh_link_is_bit_identical_to_cache_hit_link() {
        // The whole impairment stack over one channel: a link that
        // materialises its own realisation and a link replaying a cache
        // hit, whose track another holder has already drawn part of, must
        // agree bit for bit on every read and every draw.
        let mut cfg = LinkConfig::office(Channel::CH11, 28.0);
        cfg.ge = GeParams::weak_link();
        cfg.microwave = Some(MicrowaveOven::default());
        cfg.congestion = Some(Congestion::heavy());
        cfg.mobility = Some(MobilityPattern::walking(3.0));
        let horizon = SimTime::from_secs(12);
        let cache = crate::realization::RealizationCache::new(2);
        let first = cache.get_or_materialize(&cfg, &seeds(), 2, horizon);
        first.shadow_at(SimTime::from_secs(5));
        let hit = cache.get_or_materialize(&cfg, &seeds(), 2, horizon);
        assert!(Arc::ptr_eq(&first, &hit), "the second fetch must hit");
        let mut fresh = link(cfg.clone(), 2, 12);
        let mut cached = LinkModel::from_realization(cfg, hit, &seeds(), 2);
        let mut t = SimTime::ZERO;
        while t <= horizon {
            assert_eq!(fresh.rssi_at(t).to_bits(), cached.rssi_at(t).to_bits(), "rssi at {t}");
            assert_eq!(fresh.reported_rssi().to_bits(), cached.reported_rssi().to_bits());
            let rate = fresh.select_rate_at(t);
            assert_eq!(rate, cached.select_rate_at(t));
            assert_eq!(
                fresh.attempt_erasure(t, rate, 160).to_bits(),
                cached.attempt_erasure(t, rate, 160).to_bits(),
                "erasure at {t}"
            );
            assert_eq!(fresh.sample_attempt(t, rate, 160), cached.sample_attempt(t, rate, 160));
            assert_eq!(fresh.access_wait(), cached.access_wait());
            t += SimDuration::from_micros(4_321);
        }
    }

    #[test]
    fn channel_reads_past_the_horizon_trip_the_audit() {
        let horizon = SimTime::from_secs(1);
        let mut link = link(LinkConfig::office(Channel::CH1, 12.0), 0, 1);
        link.rssi_at(horizon);
        let past = horizon + SimDuration::from_nanos(1);
        let read = diversifi_simcore::check::capture_panic(|| link.rssi_at(past));
        assert_eq!(read.is_err(), diversifi_simcore::check::AUDIT_COMPILED);
    }

    #[test]
    fn storm_erasure_composes_multiplicatively_and_is_reversible() {
        let mut link = link(LinkConfig::office(Channel::CH1, 12.0), 0, 1);
        let t = SimTime::from_millis(1);
        let rate = link.select_rate_at(t);
        let base = link.attempt_erasure(t, rate, 160);
        link.set_extra_erasure(0.5);
        let stormy = link.attempt_erasure(t, rate, 160);
        let want = 1.0 - (1.0 - base) * 0.5;
        assert!((stormy - want).abs() < 1e-12, "stormy {stormy} want {want}");
        // Clearing the storm restores the exact healthy probability.
        link.set_extra_erasure(0.0);
        assert_eq!(link.attempt_erasure(t, rate, 160).to_bits(), base.to_bits());
        // Out-of-range inputs clamp; a total storm erases everything.
        link.set_extra_erasure(7.0);
        assert_eq!(link.extra_erasure(), 1.0);
        assert_eq!(link.attempt_erasure(t, rate, 160), 1.0);
    }

    #[test]
    fn erasure_is_probability() {
        let mut cfg = LinkConfig::office(Channel::CH11, 60.0);
        cfg.microwave = Some(MicrowaveOven::default());
        cfg.congestion = Some(Congestion::heavy());
        cfg.ge = GeParams::weak_link();
        let mut link = link(cfg, 0, 4);
        let mut t = SimTime::ZERO;
        for _ in 0..5_000 {
            let rate = link.select_rate_at(t);
            let p = link.attempt_erasure(t, rate, 1500);
            assert!((0.0..=1.0).contains(&p));
            t += SimDuration::from_micros(700);
        }
    }
}
