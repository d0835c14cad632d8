//! Frame transmission at the 802.11 MAC: DCF timing, binary exponential
//! backoff, link-layer retries and rate fallback.
//!
//! A single call to [`transmit`] plays out the whole life of one frame —
//! up to `retry_limit + 1` attempts — against the link's stochastic state.
//! Because all attempts happen within a few hundred microseconds to a few
//! milliseconds, they usually fall inside the *same* Gilbert–Elliott fade:
//! this is the paper's observation that MAC-level temporal diversity is too
//! fine-grained to escape bursty outages, which is what makes cross-link
//! replication valuable.

use crate::frame::Frame;
use crate::link::LinkModel;
use crate::radio::{fallback_rate, PhyRate};
use diversifi_simcore::metrics::{LogHistogram, MetricsRegistry};
use diversifi_simcore::{ComponentId, SimDuration, SimTime};
use serde::Serialize;

/// 802.11 MAC timing and retry parameters (802.11n OFDM values).
#[derive(Clone, Copy, Debug, Serialize)]
pub struct MacConfig {
    /// Maximum number of retries after the first attempt (dot11LongRetryLimit−1).
    pub retry_limit: u8,
    /// Slot time.
    pub slot: SimDuration,
    /// DIFS — idle time before contention.
    pub difs: SimDuration,
    /// SIFS — gap before the ACK.
    pub sifs: SimDuration,
    /// PHY preamble + PLCP header per attempt.
    pub phy_overhead: SimDuration,
    /// ACK frame duration (also charged on ACK timeout).
    pub ack_duration: SimDuration,
    /// Minimum contention window (slots − 1).
    pub cw_min: u32,
    /// Maximum contention window.
    pub cw_max: u32,
    /// Consecutive failures before the rate controller steps one rate down.
    pub failures_per_fallback: u8,
}

impl Default for MacConfig {
    fn default() -> Self {
        MacConfig {
            retry_limit: 7,
            slot: SimDuration::from_micros(9),
            difs: SimDuration::from_micros(28),
            sifs: SimDuration::from_micros(10),
            phy_overhead: SimDuration::from_micros(36),
            ack_duration: SimDuration::from_micros(44),
            cw_min: 15,
            cw_max: 1023,
            failures_per_fallback: 2,
        }
    }
}

/// The result of transmitting one frame.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct TxOutcome {
    /// Whether the frame (and its ACK) got through within the retry budget.
    pub delivered: bool,
    /// Number of attempts made (1 ..= retry_limit + 1).
    pub attempts: u8,
    /// Time at which the exchange finished (delivery or final failure).
    pub completed_at: SimTime,
    /// Total time the medium was occupied by this exchange (everything
    /// except idle backoff — used for the duplication-overhead accounting).
    pub airtime: SimDuration,
    /// The PHY rate of the final attempt.
    pub final_rate: PhyRate,
}

/// Telemetry instruments for one MAC/PHY (the radio under one AP).
///
/// `transmit` is a free function over `LinkModel`, so the instruments live
/// with whoever drives the radio (the world owns one per AP) and are fed
/// each [`TxOutcome`] via [`record`](MacMetrics::record).
#[derive(Clone, Debug, Default)]
pub struct MacMetrics {
    /// Frame exchanges attempted.
    pub exchanges: u64,
    /// Exchanges that ended in delivery.
    pub delivered: u64,
    /// Exchanges that exhausted the retry budget.
    pub air_losses: u64,
    /// Distribution of MAC attempts per exchange (1 = first try).
    pub attempts: LogHistogram,
    /// Distribution of per-exchange medium occupancy, microseconds.
    pub airtime_us: LogHistogram,
}

impl MacMetrics {
    /// Fold one finished exchange in.
    #[inline]
    pub fn record(&mut self, out: &TxOutcome) {
        self.exchanges += 1;
        if out.delivered {
            self.delivered += 1;
        } else {
            self.air_losses += 1;
        }
        self.attempts.record(u64::from(out.attempts));
        self.airtime_us.record(out.airtime.as_micros());
    }

    /// Snapshot into a metrics registry under `who` (typically
    /// `ComponentId::mac(index)`).
    pub fn export(&self, who: ComponentId, reg: &mut MetricsRegistry) {
        reg.counter(who, "exchanges", self.exchanges);
        reg.counter(who, "delivered", self.delivered);
        reg.counter(who, "air_losses", self.air_losses);
        reg.histogram(who, "retries", &self.attempts);
        reg.histogram(who, "airtime_us", &self.airtime_us);
    }
}

/// Time on air for `bytes` at `rate`, plus PHY overhead.
pub fn frame_airtime(mac: &MacConfig, rate: PhyRate, bytes: u32) -> SimDuration {
    let data_ns = (bytes as f64 * 8.0 / rate.mbps * 1_000.0).ceil() as u64;
    mac.phy_overhead + SimDuration::from_nanos(data_ns)
}

/// Transmit `frame` over `link`, starting contention at `start`.
///
/// The link's RNG drives both the backoff draws and the per-attempt erasure
/// sampling, so one link consumes exactly one deterministic stream.
pub fn transmit(link: &mut LinkModel, mac: &MacConfig, frame: &Frame, start: SimTime) -> TxOutcome {
    let bytes = frame.air_bytes();
    let mut now = start;
    let mut cw = mac.cw_min;
    let mut airtime = SimDuration::ZERO;
    let mut consecutive_failures: u8 = 0;
    let mut rate = link.select_rate_at(now);

    for attempt in 1..=(mac.retry_limit as u32 + 1) {
        // Medium access: congestion wait (other stations' frames), DIFS,
        // then random backoff.
        let busy_wait = link.access_wait();
        let backoff_slots = link.rng().range_u64(0, cw as u64 + 1);
        now += busy_wait + mac.difs + mac.slot * backoff_slots;

        // The attempt itself.
        let t_air = frame_airtime(mac, rate, bytes);
        let ok = link.sample_attempt(now, rate, bytes);
        now += t_air + mac.sifs + mac.ack_duration;
        airtime += t_air + mac.sifs + mac.ack_duration;

        if ok {
            return TxOutcome {
                delivered: true,
                attempts: attempt as u8,
                completed_at: now,
                airtime,
                final_rate: rate,
            };
        }

        // Failure: widen the window, maybe fall back a rate.
        cw = ((cw + 1) * 2 - 1).min(mac.cw_max);
        consecutive_failures += 1;
        if consecutive_failures.is_multiple_of(mac.failures_per_fallback.max(1)) {
            rate = fallback_rate(rate);
        }
    }

    TxOutcome {
        delivered: false,
        attempts: mac.retry_limit + 1,
        completed_at: now,
        airtime,
        final_rate: rate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Channel;
    use crate::fading::GeParams;
    use crate::ids::{AdapterId, ClientId, FlowId};
    use crate::link::LinkConfig;
    use diversifi_simcore::SeedFactory;

    fn frame() -> Frame {
        Frame::data(FlowId(0), 0, 160, SimTime::ZERO, ClientId(0), AdapterId(0))
    }

    /// A link whose channel covers the longest test here (2,000 exchanges
    /// 20 ms apart).
    fn link(cfg: LinkConfig, idx: u64) -> LinkModel {
        LinkModel::new(cfg, &SeedFactory::new(0x3AC), idx, SimTime::from_secs(60))
    }

    #[test]
    fn clean_link_delivers_first_try_mostly() {
        let mut l = link(LinkConfig::office(Channel::CH1, 8.0), 0);
        let mac = MacConfig::default();
        let mut t = SimTime::ZERO;
        let mut first_try = 0;
        let n = 2_000;
        for _ in 0..n {
            let out = transmit(&mut l, &mac, &frame(), t);
            assert!(out.completed_at > t);
            if out.delivered && out.attempts == 1 {
                first_try += 1;
            }
            t = out.completed_at + SimDuration::from_millis(20);
        }
        assert!(first_try as f64 / n as f64 > 0.9, "first-try rate {first_try}/{n}");
    }

    #[test]
    fn voip_frame_exchange_is_sub_millisecond_when_clean() {
        let mut l = link(LinkConfig::office(Channel::CH1, 8.0), 1);
        let mac = MacConfig::default();
        // Find a first-attempt success and check its latency budget.
        let mut t = SimTime::ZERO;
        for _ in 0..100 {
            let out = transmit(&mut l, &mac, &frame(), t);
            if out.delivered && out.attempts == 1 {
                let elapsed = out.completed_at - t;
                assert!(
                    elapsed < SimDuration::from_millis(1),
                    "one clean VoIP frame exchange took {elapsed}"
                );
                return;
            }
            t = out.completed_at + SimDuration::from_millis(5);
        }
        panic!("no clean first-attempt delivery in 100 tries");
    }

    #[test]
    fn retries_mostly_fail_inside_a_burst() {
        // A link that is essentially always Bad: retries land in the same
        // fade, so the frame usually dies even after 8 attempts.
        let mut cfg = LinkConfig::office(Channel::CH1, 10.0);
        cfg.ge = GeParams {
            mean_good: SimDuration::from_millis(1),
            mean_bad_short: SimDuration::from_secs(100),
            mean_bad_long: SimDuration::from_secs(100),
            p_long: 1.0,
            bad_loss: 0.9,
            good_loss: 0.0,
        };
        let mut l = link(cfg, 2);
        let mac = MacConfig::default();
        let mut lost = 0;
        let mut t = SimTime::ZERO;
        let n = 500;
        for _ in 0..n {
            let out = transmit(&mut l, &mac, &frame(), t);
            if !out.delivered {
                lost += 1;
                assert_eq!(out.attempts, mac.retry_limit + 1);
            }
            t = out.completed_at + SimDuration::from_millis(20);
        }
        // P(all 8 attempts fail) ≈ 0.9^8 ≈ 0.43 — far above the iid
        // prediction for the long-run loss rate of a healthy link.
        let rate = lost as f64 / n as f64;
        assert!(rate > 0.3, "burst loss rate {rate}");
    }

    #[test]
    fn airtime_grows_with_attempts() {
        let mut cfg = LinkConfig::office(Channel::CH1, 10.0);
        cfg.ge = GeParams {
            mean_good: SimDuration::from_millis(1),
            mean_bad_short: SimDuration::from_secs(100),
            mean_bad_long: SimDuration::from_secs(100),
            p_long: 1.0,
            bad_loss: 0.85,
            good_loss: 0.0,
        };
        let mut l = link(cfg, 3);
        let mac = MacConfig::default();
        let mut seen_multi = false;
        let mut t = SimTime::ZERO;
        for _ in 0..200 {
            let out = transmit(&mut l, &mac, &frame(), t);
            if out.attempts > 1 {
                seen_multi = true;
                let single = frame_airtime(&mac, out.final_rate, frame().air_bytes())
                    + mac.sifs
                    + mac.ack_duration;
                assert!(out.airtime > single, "retries must accumulate airtime");
            }
            t = out.completed_at + SimDuration::from_millis(20);
        }
        assert!(seen_multi, "expected at least one multi-attempt exchange");
    }

    #[test]
    fn rate_fallback_kicks_in() {
        let mut cfg = LinkConfig::office(Channel::CH1, 12.0);
        cfg.ge = GeParams {
            mean_good: SimDuration::from_millis(1),
            mean_bad_short: SimDuration::from_secs(100),
            mean_bad_long: SimDuration::from_secs(100),
            p_long: 1.0,
            bad_loss: 0.95,
            good_loss: 0.0,
        };
        let mut l = link(cfg.clone(), 4);
        let initial = l.select_rate_at(SimTime::ZERO);
        let mac = MacConfig::default();
        let mut t = SimTime::ZERO;
        for _ in 0..100 {
            let out = transmit(&mut l, &mac, &frame(), t);
            if !out.delivered {
                assert!(
                    out.final_rate.mcs < initial.mcs || initial.mcs == 0,
                    "8 failures should have dropped the rate from MCS{}",
                    initial.mcs
                );
                return;
            }
            t = out.completed_at + SimDuration::from_millis(20);
        }
        panic!("link never failed a frame");
    }

    #[test]
    fn frame_airtime_scales_with_size_and_rate() {
        let mac = MacConfig::default();
        let fast = crate::radio::RATE_LADDER[7];
        let slow = crate::radio::RATE_LADDER[0];
        assert!(frame_airtime(&mac, fast, 1500) < frame_airtime(&mac, slow, 1500));
        assert!(frame_airtime(&mac, fast, 1500) > frame_airtime(&mac, fast, 160));
        // 1500 B at 6.5 Mbps ≈ 1.85 ms + overhead.
        let t = frame_airtime(&mac, slow, 1500);
        assert!((t.as_micros() as i64 - 1882).abs() < 30, "airtime {t}");
    }

    #[test]
    fn transmit_is_deterministic() {
        let run = || {
            let mut l = link(LinkConfig::office(Channel::CH11, 25.0), 5);
            let mac = MacConfig::default();
            let mut t = SimTime::ZERO;
            let mut log = Vec::new();
            for _ in 0..200 {
                let out = transmit(&mut l, &mac, &frame(), t);
                log.push((out.delivered, out.attempts, out.completed_at));
                t = out.completed_at + SimDuration::from_millis(20);
            }
            log
        };
        assert_eq!(run(), run());
    }
}
