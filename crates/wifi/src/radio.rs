//! PHY-rate table and the SNR → packet-error-rate model.
//!
//! We model a single-spatial-stream 802.11n rate ladder (MCS 0–7 at 20 MHz,
//! long guard interval). Rate adaptation elsewhere picks the fastest rate
//! whose SNR requirement is met, and falls back on retries — the standard
//! behaviour of Minstrel-class algorithms at the granularity that matters
//! for loss/latency statistics.

use serde::Serialize;

/// Thermal-noise floor plus typical receiver noise figure, in dBm, for a
/// 20 MHz channel.
pub const NOISE_FLOOR_DBM: f64 = -92.0;

/// One entry of the PHY rate ladder.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct PhyRate {
    /// MCS index (0–7).
    pub mcs: u8,
    /// Data rate in megabits per second.
    pub mbps: f64,
    /// Minimum SNR (dB) at which this rate sustains a low error rate.
    pub min_snr_db: f64,
}

/// The 802.11n single-stream rate ladder (20 MHz, 800 ns GI), with SNR
/// thresholds in line with published receiver-sensitivity tables.
pub const RATE_LADDER: [PhyRate; 8] = [
    PhyRate { mcs: 0, mbps: 6.5, min_snr_db: 5.0 },
    PhyRate { mcs: 1, mbps: 13.0, min_snr_db: 8.0 },
    PhyRate { mcs: 2, mbps: 19.5, min_snr_db: 11.0 },
    PhyRate { mcs: 3, mbps: 26.0, min_snr_db: 14.0 },
    PhyRate { mcs: 4, mbps: 39.0, min_snr_db: 18.0 },
    PhyRate { mcs: 5, mbps: 52.0, min_snr_db: 22.0 },
    PhyRate { mcs: 6, mbps: 58.5, min_snr_db: 24.0 },
    PhyRate { mcs: 7, mbps: 65.0, min_snr_db: 26.0 },
];

/// Highest rate whose SNR requirement is met with `margin_db` of headroom.
/// Falls back to MCS 0 if even that is not met (the MAC always has a lowest
/// rate to try).
pub fn select_rate(snr_db: f64, margin_db: f64) -> PhyRate {
    let mut chosen = RATE_LADDER[0];
    for rate in RATE_LADDER.iter() {
        if snr_db >= rate.min_snr_db + margin_db {
            chosen = *rate;
        }
    }
    chosen
}

/// Rate one step below `rate` (retry fallback); MCS 0 stays MCS 0.
pub fn fallback_rate(rate: PhyRate) -> PhyRate {
    let idx = rate.mcs.saturating_sub(1) as usize;
    RATE_LADDER[idx]
}

/// PHY packet error rate for a frame of `bytes` at `rate` given `snr_db`.
///
/// We use a logistic curve in SNR around the rate's threshold, scaled by
/// frame length (longer frames see more symbol errors). This reproduces the
/// qualitative shape of measured 802.11 PER-vs-SNR curves: a sharp
/// "waterfall" a few dB wide around the sensitivity point.
pub fn phy_per(snr_db: f64, rate: PhyRate, bytes: u32) -> f64 {
    // Mid-point of the waterfall sits ~2 dB below the "clean" threshold.
    let mid = rate.min_snr_db - 2.0;
    let steep = 1.4; // dB scale of the waterfall
    let bit_scale = (bytes as f64 / 1500.0).max(0.05); // longer frame -> worse
    let base = 1.0 / (1.0 + ((snr_db - mid) * steep).exp());
    // Convert a "symbol block" error prob into a frame error prob.
    let per = 1.0 - (1.0 - base).powf(bit_scale.max(0.05) * 8.0);
    per.clamp(0.0, 1.0)
}

/// Log-distance path loss in dB: `ref_loss + 10·n·log10(d)` with exponent
/// `n` (≈ 3–3.5 indoors through cubicles and walls).
pub fn path_loss_db(reference_loss_db: f64, exponent: f64, distance_m: f64) -> f64 {
    assert!(distance_m > 0.0, "distance must be positive");
    reference_loss_db + 10.0 * exponent * distance_m.max(1.0).log10()
}

/// Received signal strength for a given transmit power and path loss.
pub fn rssi_dbm(tx_power_dbm: f64, path_loss_db: f64) -> f64 {
    tx_power_dbm - path_loss_db
}

/// SNR in dB implied by an RSSI.
pub fn snr_db(rssi_dbm: f64) -> f64 {
    rssi_dbm - NOISE_FLOOR_DBM
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_monotone() {
        for w in RATE_LADDER.windows(2) {
            assert!(w[1].mbps > w[0].mbps);
            assert!(w[1].min_snr_db > w[0].min_snr_db);
            assert_eq!(w[1].mcs, w[0].mcs + 1);
        }
    }

    #[test]
    fn select_rate_picks_highest_feasible() {
        assert_eq!(select_rate(30.0, 0.0).mcs, 7);
        assert_eq!(select_rate(23.0, 0.0).mcs, 5);
        assert_eq!(select_rate(5.5, 0.0).mcs, 0);
        assert_eq!(select_rate(-10.0, 0.0).mcs, 0, "always has a floor");
    }

    #[test]
    fn margin_makes_selection_conservative() {
        let aggressive = select_rate(23.0, 0.0);
        let cautious = select_rate(23.0, 5.0);
        assert!(cautious.mcs < aggressive.mcs);
    }

    #[test]
    fn fallback_descends_to_floor() {
        let mut r = RATE_LADDER[7];
        for _ in 0..10 {
            r = fallback_rate(r);
        }
        assert_eq!(r.mcs, 0);
    }

    #[test]
    fn per_waterfall_shape() {
        let r = RATE_LADDER[3]; // 26 Mbps, threshold 14 dB
        let high = phy_per(r.min_snr_db + 6.0, r, 1500);
        let at = phy_per(r.min_snr_db, r, 1500);
        let low = phy_per(r.min_snr_db - 6.0, r, 1500);
        assert!(high < 0.02, "clean channel should be near-lossless, per={high}");
        assert!(at < 0.5, "at threshold should still mostly work, per={at}");
        assert!(low > 0.95, "deep below threshold should fail, per={low}");
    }

    #[test]
    fn per_grows_with_frame_size() {
        let r = RATE_LADDER[2];
        let small = phy_per(r.min_snr_db - 1.0, r, 160);
        let big = phy_per(r.min_snr_db - 1.0, r, 1500);
        assert!(big > small, "voip frames ({small}) should outlive mtu frames ({big})");
    }

    #[test]
    fn per_bounds() {
        for rate in RATE_LADDER {
            for snr in [-20.0, 0.0, 15.0, 40.0] {
                let p = phy_per(snr, rate, 1500);
                assert!((0.0..=1.0).contains(&p));
            }
        }
    }

    #[test]
    fn path_loss_monotone_in_distance() {
        let a = path_loss_db(40.0, 3.0, 5.0);
        let b = path_loss_db(40.0, 3.0, 20.0);
        assert!(b > a);
        // 4x distance at n=3 → +18 dB
        assert!((b - a - 18.06).abs() < 0.1);
    }

    #[test]
    fn rssi_snr_chain() {
        // 15 dBm TX, 80 dB path loss → -65 dBm RSSI → 27 dB SNR.
        let rssi = rssi_dbm(15.0, 80.0);
        assert_eq!(rssi, -65.0);
        assert_eq!(snr_db(rssi), 27.0);
    }
}
