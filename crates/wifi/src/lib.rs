//! # diversifi-wifi
//!
//! The simulated WiFi substrate for the DiversiFi reproduction: everything
//! the paper's physical testbed provided, rebuilt as deterministic,
//! poll-driven state machines.
//!
//! Layers, bottom-up:
//!
//! - [`channel`] — bands, channels, spectral overlap.
//! - [`radio`] — path loss, RSSI/SNR, the 802.11n rate ladder, and the
//!   SNR→PER waterfall.
//! - [`fading`] — Gilbert–Elliott burst fading and Ornstein–Uhlenbeck
//!   shadowing, the processes that make WiFi loss *bursty* and *weakly
//!   correlated across links* (the two facts DiversiFi exploits).
//! - [`impairment`] — microwave ovens, congestion, mobility (the paper's
//!   Fig. 6 categories).
//! - [`realization`] — shared channel timelines (shadowing drawn on demand)
//!   and the LRU cache that lets paired experiment arms replay one
//!   realisation N times.
//! - [`link`] — the composite per-(AP, adapter, channel) loss model.
//! - [`mac`] — DCF timing, retries, backoff and rate fallback for a single
//!   frame exchange.
//! - [`ap`] — per-station queues, power-save buffering, head-drop vs
//!   tail-drop disciplines, and wake-batch hardware commitment.
//!
//! Nothing here does I/O; the event loop lives with the caller
//! (see the `diversifi` core crate's world model).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library diagnostics go through `diversifi_simcore::telemetry`, never
// stdout/stderr; CI's `clippy -D warnings` enforces this.
#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod ap;
pub mod channel;
pub mod fading;
pub mod frame;
pub mod ids;
pub mod impairment;
pub mod link;
pub mod mac;
pub mod radio;
pub mod realization;
pub mod scan;

pub use ap::{AccessPoint, ApConfig, ApMetrics, Enqueued, QueueDiscipline};
pub use channel::{Band, Channel};
pub use fading::{GeParams, GeSegment, GeState, GilbertElliott, OrnsteinUhlenbeck};
pub use frame::{Frame, FrameKind};
pub use ids::{AdapterId, ApId, ClientId, FlowId};
pub use impairment::{Congestion, ImpairmentKind, MicrowaveOven, MobilityPattern};
pub use link::{LinkConfig, LinkModel};
pub use mac::{frame_airtime, transmit, MacConfig, MacMetrics, TxOutcome};
pub use radio::{PhyRate, NOISE_FLOOR_DBM, RATE_LADDER};
pub use realization::{
    ChannelRealization, RealizationCache, RealizationKey, SHADOW_BLOCK, SHADOW_TICK,
};
pub use scan::{DeployedAp, Deployment, ScanEntry, CONNECTABLE_RSSI_DBM};

#[cfg(test)]
mod proptests {
    use super::*;
    use diversifi_simcore::{SeedFactory, SimDuration, SimTime};
    use proptest::prelude::*;

    proptest! {
        /// Queue disciplines never exceed their cap and never lose count:
        /// enqueued = queued + dropped + transmitted.
        #[test]
        fn queue_conservation(
            cap in 1usize..16,
            head_drop in any::<bool>(),
            ops in proptest::collection::vec(0u8..4, 1..200),
        ) {
            let a = AdapterId(1);
            let mut ap = AccessPoint::new(ApConfig::new(ApId(0), Channel::CH1));
            let disc = if head_drop {
                QueueDiscipline::HeadDrop { cap }
            } else {
                QueueDiscipline::TailDrop { cap }
            };
            ap.associate(a, disc);
            let mut seq = 0u64;
            let mut enq = 0u64;
            let mut dropped = 0u64;
            let mut txed = 0u64;
            for op in ops {
                match op {
                    0 | 1 => {
                        let f = Frame::data(FlowId(0), seq, 160, SimTime::ZERO, ClientId(0), a);
                        seq += 1;
                        enq += 1;
                        if let Enqueued::Dropped { .. } = ap.enqueue(a, f) {
                            dropped += 1;
                        }
                        prop_assert!(ap.queue_len(a) <= cap);
                    }
                    2 => {
                        if ap.next_tx().is_some() {
                            txed += 1;
                        }
                    }
                    _ => {
                        let sleeping = seq.is_multiple_of(2);
                        ap.set_power_save(a, sleeping);
                    }
                }
            }
            let held = (ap.queue_len(a) + ap.hw_len(a)) as u64;
            prop_assert_eq!(enq, dropped + txed + held);
        }

        /// The MAC always terminates within the retry budget and time moves
        /// forward, for arbitrary link geometry.
        #[test]
        fn mac_always_terminates(
            distance in 1.0f64..80.0,
            bytes in 40u32..1500,
            seed in any::<u64>(),
        ) {
            let seeds = SeedFactory::new(seed);
            let mut link = LinkModel::new(
                LinkConfig::office(Channel::CH11, distance), &seeds, 0, SimTime::from_secs(1));
            let mac = MacConfig::default();
            let f = Frame::data(FlowId(0), 0, bytes, SimTime::ZERO, ClientId(0), AdapterId(0));
            let start = SimTime::from_millis(1);
            let out = transmit(&mut link, &mac, &f, start);
            prop_assert!(out.attempts >= 1);
            prop_assert!(out.attempts <= mac.retry_limit + 1);
            prop_assert!(out.completed_at > start);
            prop_assert!(out.airtime > SimDuration::ZERO);
        }

        /// Erasure composition stays within [0,1] for arbitrary impairment
        /// stacks and query times.
        #[test]
        fn erasure_always_probability(
            distance in 1.0f64..120.0,
            diversity in 1u8..5,
            with_mw in any::<bool>(),
            with_cong in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut cfg = LinkConfig::office(Channel::CH11, distance);
            cfg.diversity_order = diversity;
            if with_mw { cfg.microwave = Some(MicrowaveOven::default()); }
            if with_cong { cfg.congestion = Some(Congestion::heavy()); }
            let seeds = SeedFactory::new(seed);
            let mut link = LinkModel::new(cfg, &seeds, 0, SimTime::from_secs(1));
            let mut t = SimTime::ZERO;
            for _ in 0..64 {
                let rate = link.select_rate_at(t);
                let p = link.attempt_erasure(t, rate, 1500);
                prop_assert!((0.0..=1.0).contains(&p), "p={}", p);
                t += SimDuration::from_micros(777);
            }
        }
    }
}
