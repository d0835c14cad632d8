//! # diversifi-net
//!
//! The wired-network substrate of the DiversiFi reproduction:
//!
//! - [`packet`] — the stream-packet representation on the LAN.
//! - [`wan`] — WAN path and relay models for the call-population studies
//!   (Tables 1–2).
//! - [`middlebox`] — the buffering middlebox with the start/stop retrieval
//!   protocol (§5.3.2) and the load model behind Table 3 / §6.4.
//! - [`tcp`] — TCP Reno sender/receiver for the coexistence experiment
//!   (Fig. 10).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library diagnostics go through `diversifi_simcore::telemetry`, never
// stdout/stderr; CI's `clippy -D warnings` enforces this.
#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod middlebox;
pub mod packet;
pub mod tcp;
pub mod wan;

pub use middlebox::{Middlebox, MiddleboxConfig, MiddleboxMetrics};
pub use packet::StreamPacket;
pub use tcp::{TcpConfig, TcpReceiver, TcpSegment, TcpSender};
pub use wan::{RelayNode, WanPath};

#[cfg(test)]
mod proptests {
    use super::*;
    use diversifi_simcore::{RngStream, SimDuration, SimTime};
    use diversifi_wifi::FlowId;
    use proptest::prelude::*;

    proptest! {
        /// TCP receiver: the cumulative ACK is monotone non-decreasing and
        /// `delivered` equals the ACK value, for any arrival order.
        #[test]
        fn tcp_receiver_cumulative_ack_invariants(
            mut seqs in proptest::collection::vec(0u64..64, 1..256),
        ) {
            let mut rcv = TcpReceiver::new();
            let mut last_ack = 0u64;
            for s in seqs.drain(..) {
                let ack = rcv.on_segment(s);
                prop_assert!(ack >= last_ack, "ACK went backwards");
                prop_assert_eq!(ack, rcv.ack());
                prop_assert_eq!(rcv.delivered, ack);
                last_ack = ack;
            }
        }

        /// TCP sender: in-flight never exceeds min(cwnd, rwnd); the window
        /// bound holds across an arbitrary interleaving of sends, ACKs and
        /// timer fires.
        #[test]
        fn tcp_sender_window_respected(ops in proptest::collection::vec(0u8..3, 1..400)) {
            let cfg = TcpConfig::default();
            let mut snd = TcpSender::new(cfg);
            let mut rcv = TcpReceiver::new();
            let mut now = SimTime::from_millis(1);
            let mut in_air: Vec<u64> = Vec::new();
            for op in ops {
                match op {
                    0 => {
                        while let Some(seg) = snd.poll_send(now) {
                            in_air.push(seg.seq);
                            // Window limits *new* data only; retransmissions
                            // may fly while in_flight exceeds a freshly
                            // deflated cwnd (standard fast-recovery).
                            if !seg.retransmission {
                                let win = (snd.cwnd().floor() as u64).max(1).min(cfg.rwnd);
                                prop_assert!(
                                    snd.in_flight() <= win.max(1),
                                    "new data beyond window: {} > {}",
                                    snd.in_flight(), win
                                );
                            }
                        }
                    }
                    1 => {
                        if let Some(seq) = in_air.pop() {
                            let ack = rcv.on_segment(seq);
                            snd.on_ack(ack, now);
                        }
                    }
                    _ => {
                        now += SimDuration::from_millis(40);
                        snd.on_timer(now);
                    }
                }
            }
            prop_assert!(snd.acked_segments <= snd.transmissions);
        }

        /// Middlebox ring: buffered count never exceeds the cap, and after a
        /// start() the buffer is empty while streaming passes everything.
        #[test]
        fn middlebox_ring_bounded(
            cap in 1usize..16,
            n in 1u64..200,
        ) {
            let mut m = Middlebox::new(MiddleboxConfig::default());
            m.register(FlowId(1), Some(cap));
            for s in 0..n {
                m.ingest(StreamPacket::new(FlowId(1), s, 160, SimTime::ZERO));
                prop_assert!(m.buffered(FlowId(1)) <= cap);
            }
            let (_, burst) = m.start(FlowId(1), 0);
            prop_assert!(burst.len() <= cap);
            prop_assert_eq!(m.buffered(FlowId(1)), 0);
            // Sorted and deduplicated by construction.
            let mut seqs: Vec<u64> = burst.iter().map(|p| p.seq).collect();
            let orig = seqs.clone();
            seqs.sort_unstable();
            seqs.dedup();
            prop_assert_eq!(orig, seqs);
        }

        /// WAN paths never produce a delay below the configured floor.
        #[test]
        fn wan_delay_floor(seed in any::<u64>()) {
            let mut rng = RngStream::from_seed(seed);
            let p = WanPath::good();
            for _ in 0..64 {
                if let Some(d) = p.traverse(&mut rng) {
                    prop_assert!(d >= p.base_delay);
                }
            }
        }
    }
}
