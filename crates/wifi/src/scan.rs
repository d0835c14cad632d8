//! AP deployment geometry, beacons, and the scanning procedure.
//!
//! The paper's §3.3 survey counts how many *connectable* BSSIDs a client
//! hears at a location. This module provides the machinery underneath that
//! count: a 2-D venue with deployed access points (each radio possibly
//! announcing several virtual BSSIDs), passive scanning with an RSSI
//! cut-off, and the per-channel grouping the survey's "distinct channels"
//! series needs. The `diversifi` core crate's survey (Fig. 1) is its only
//! user: the closed-loop world takes its two links from configuration, not
//! from a scan.

use crate::channel::{Band, Channel};
use crate::radio;
use diversifi_simcore::RngStream;
use serde::{Deserialize, Serialize};

/// A deployed physical access-point radio.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DeployedAp {
    /// Position in metres within the venue.
    pub x: f64,
    /// Position in metres.
    pub y: f64,
    /// Operating channel.
    pub channel: Channel,
    /// Transmit power (dBm).
    pub tx_power_dbm: f64,
    /// BSSIDs this radio announces (multi-SSID/virtual APs share the
    /// radio, hence the channel).
    pub bssids: u8,
    /// Whether the surveying client has credentials for this network.
    pub connectable: bool,
}

/// A venue with a deployment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Deployment {
    /// Venue width (m).
    pub width_m: f64,
    /// Venue depth (m).
    pub depth_m: f64,
    /// Indoor path-loss exponent.
    pub path_loss_exponent: f64,
    /// The radios.
    pub aps: Vec<DeployedAp>,
}

/// One beacon heard during a scan.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScanEntry {
    /// Index of the radio in the deployment.
    pub ap_index: usize,
    /// Which of the radio's BSSIDs this is.
    pub bssid_index: u8,
    /// Received signal strength (dBm).
    pub rssi_dbm: f64,
    /// Channel.
    pub channel: Channel,
    /// Connectable with the client's credentials.
    pub connectable: bool,
}

/// The RSSI below which an AP is not usefully connectable (association
/// succeeds but the link is unusable) — a common driver threshold.
pub const CONNECTABLE_RSSI_DBM: f64 = -82.0;

impl Deployment {
    /// Generate an enterprise-style grid deployment: radios every
    /// `spacing_m` with positional jitter, a 1/6/11 channel plan (plus a
    /// share of 5 GHz radios), and `multi_ssid` probability of extra
    /// virtual BSSIDs per radio.
    pub fn enterprise_grid(
        width_m: f64,
        depth_m: f64,
        spacing_m: f64,
        five_ghz_share: f64,
        multi_ssid: f64,
        rng: &mut RngStream,
    ) -> Deployment {
        let plan24 = [Channel::CH1, Channel::CH6, Channel::CH11];
        let plan5 = [Channel::CH36, Channel::ghz5(40), Channel::ghz5(44), Channel::CH149];
        let mut aps = Vec::new();
        let nx = (width_m / spacing_m).ceil() as usize;
        let ny = (depth_m / spacing_m).ceil() as usize;
        let mut k = 0usize;
        for i in 0..nx {
            for j in 0..ny {
                let x = (i as f64 + 0.5) * spacing_m + rng.range_f64(-3.0, 3.0);
                let y = (j as f64 + 0.5) * spacing_m + rng.range_f64(-3.0, 3.0);
                let channel = if rng.chance(five_ghz_share) {
                    plan5[k % plan5.len()]
                } else {
                    plan24[k % plan24.len()]
                };
                k += 1;
                let bssids = if rng.chance(multi_ssid) { rng.range_u64(2, 4) as u8 } else { 1 };
                aps.push(DeployedAp {
                    x: x.clamp(0.0, width_m),
                    y: y.clamp(0.0, depth_m),
                    channel,
                    tx_power_dbm: 16.0,
                    bssids,
                    connectable: true,
                });
            }
        }
        Deployment { width_m, depth_m, path_loss_exponent: 3.2, aps }
    }

    /// RSSI a client at `(x, y)` would hear from radio `i` (mean; no
    /// shadowing — scans average several beacons).
    pub fn rssi_from(&self, i: usize, x: f64, y: f64) -> f64 {
        let ap = &self.aps[i];
        let d = ((ap.x - x).powi(2) + (ap.y - y).powi(2)).sqrt().max(1.0);
        let pl = radio::path_loss_db(
            ap.channel.band.reference_loss_db(),
            self.path_loss_exponent,
            d,
        );
        radio::rssi_dbm(ap.tx_power_dbm, pl)
    }

    /// Passive scan at `(x, y)`: every beacon above the sensitivity floor,
    /// strongest first.
    pub fn scan(&self, x: f64, y: f64) -> Vec<ScanEntry> {
        let mut out = Vec::new();
        for (i, ap) in self.aps.iter().enumerate() {
            let rssi = self.rssi_from(i, x, y);
            if rssi < radio::NOISE_FLOOR_DBM + 4.0 {
                continue; // below decode sensitivity: beacon not heard
            }
            for b in 0..ap.bssids {
                out.push(ScanEntry {
                    ap_index: i,
                    bssid_index: b,
                    rssi_dbm: rssi,
                    channel: ap.channel,
                    connectable: ap.connectable,
                });
            }
        }
        out.sort_by(|a, b| b.rssi_dbm.partial_cmp(&a.rssi_dbm).unwrap());
        out
    }

    /// The §3.3 survey numbers at a spot: `(connectable BSSIDs, distinct
    /// channels among them)` above the connectable threshold.
    pub fn survey_counts(&self, x: f64, y: f64) -> (usize, usize) {
        let entries: Vec<ScanEntry> = self
            .scan(x, y)
            .into_iter()
            .filter(|e| e.connectable && e.rssi_dbm >= CONNECTABLE_RSSI_DBM)
            .collect();
        let bssids = entries.len();
        let mut channels: Vec<Channel> = entries.iter().map(|e| e.channel).collect();
        channels.sort_by_key(|c| (c.band == Band::Ghz5, c.number));
        channels.dedup();
        (bssids, channels.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diversifi_simcore::SeedFactory;

    fn rng() -> RngStream {
        SeedFactory::new(0x5CA9).stream("scan-test", 0)
    }

    fn office() -> Deployment {
        Deployment::enterprise_grid(60.0, 30.0, 20.0, 0.25, 0.35, &mut rng())
    }

    #[test]
    fn grid_covers_the_floor() {
        let d = office();
        assert_eq!(d.aps.len(), 6, "60x30 at 20m spacing → 3x2 radios");
        for ap in &d.aps {
            assert!(ap.x >= 0.0 && ap.x <= 60.0);
            assert!(ap.y >= 0.0 && ap.y <= 30.0);
        }
    }

    #[test]
    fn rssi_decays_with_distance() {
        let d = office();
        let ap = &d.aps[0];
        let near = d.rssi_from(0, ap.x + 2.0, ap.y);
        let far = d.rssi_from(0, ap.x + 40.0, ap.y);
        assert!(near > far + 20.0, "near {near} far {far}");
    }

    #[test]
    fn scan_is_sorted_strongest_first() {
        let d = office();
        let entries = d.scan(30.0, 15.0);
        assert!(!entries.is_empty());
        for w in entries.windows(2) {
            assert!(w[0].rssi_dbm >= w[1].rssi_dbm);
        }
    }

    #[test]
    fn virtual_bssids_share_channel_and_rssi() {
        let d = office();
        let entries = d.scan(30.0, 15.0);
        for e in &entries {
            let twin = entries
                .iter()
                .find(|o| o.ap_index == e.ap_index && o.bssid_index != e.bssid_index);
            if let Some(t) = twin {
                assert_eq!(t.channel, e.channel, "virtual APs share the radio's channel");
                assert_eq!(t.rssi_dbm, e.rssi_dbm);
            }
        }
    }

    #[test]
    fn survey_counts_match_paper_office_range() {
        // Paper Fig. 1: offices show ~6–13 connectable BSSIDs, channels
        // fewer than BSSIDs (virtual APs).
        let d = office();
        let (bssids, channels) = d.survey_counts(30.0, 15.0);
        assert!((4..=14).contains(&bssids), "bssids {bssids}");
        assert!(channels <= bssids);
        assert!(channels >= 2, "a grid plan must offer channel diversity");
    }

    #[test]
    fn unconnectable_networks_are_excluded() {
        let mut d = office();
        for ap in &mut d.aps {
            ap.connectable = false;
        }
        let (bssids, channels) = d.survey_counts(30.0, 15.0);
        assert_eq!((bssids, channels), (0, 0));
    }

    #[test]
    fn far_corner_still_connectable_somewhere() {
        // DiversiFi's premise: enterprise floors rarely have true dead
        // zones for *all* APs.
        let d = office();
        let (bssids, _) = d.survey_counts(0.0, 0.0);
        assert!(bssids >= 1, "corner of the floor still hears an AP");
    }
}
