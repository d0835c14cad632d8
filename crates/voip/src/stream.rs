//! Real-time stream specifications and packet generation.
//!
//! The paper uses two workloads:
//! - a G.711-like VoIP stream: 64 kbps, 160-byte payload, 20 ms spacing,
//!   2-minute calls (§4);
//! - a high-rate stream typical of video/cloud gaming: 5 Mbps, 1000-byte
//!   packets, 1.6 ms spacing (§4.5).

use diversifi_simcore::{SimDuration, SimTime};
use serde::Serialize;

/// Static description of a constant-bit-rate real-time stream. In a real
/// deployment this comes from the RTP payload-type profile (RFC 3551), so
/// applications need no modification (§5.2.1).
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct StreamSpec {
    /// Application payload bytes per packet.
    pub packet_bytes: u32,
    /// Inter-packet spacing.
    pub interval: SimDuration,
    /// Total stream duration.
    pub duration: SimDuration,
}

impl StreamSpec {
    /// The paper's G.711-like VoIP stream: 64 kbps, 160 B payload, 20 ms
    /// spacing, 2-minute call → 6000 packets.
    pub fn voip() -> StreamSpec {
        StreamSpec {
            packet_bytes: 160,
            interval: SimDuration::from_millis(20),
            duration: SimDuration::from_secs(120),
        }
    }

    /// The paper's §4.5 high-rate stream: 5 Mbps, 1000 B packets, 1.6 ms
    /// spacing, 2-minute run.
    pub fn high_rate() -> StreamSpec {
        StreamSpec {
            packet_bytes: 1000,
            interval: SimDuration::from_micros(1600),
            duration: SimDuration::from_secs(120),
        }
    }

    /// Number of packets the stream emits.
    pub fn packet_count(&self) -> u64 {
        self.duration / self.interval
    }

    /// Application data rate in kilobits per second.
    pub fn rate_kbps(&self) -> f64 {
        self.packet_bytes as f64 * 8.0 / self.interval.as_secs_f64() / 1000.0
    }

    /// Send time of packet `seq` (first packet at `start`).
    pub fn send_time(&self, start: SimTime, seq: u64) -> SimTime {
        start + self.interval * seq
    }

    /// Iterator over `(seq, send_time)` for the whole stream.
    pub fn schedule(&self, start: SimTime) -> impl Iterator<Item = (u64, SimTime)> + '_ {
        let n = self.packet_count();
        (0..n).map(move |seq| (seq, self.send_time(start, seq)))
    }

    /// On-the-wire bytes per packet (payload + RTP 12 + UDP 8 + IPv4 20).
    pub fn wire_bytes(&self) -> u32 {
        self.packet_bytes + 12 + 8 + 20
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn voip_spec_matches_paper() {
        let s = StreamSpec::voip();
        assert_eq!(s.packet_count(), 6000);
        assert!((s.rate_kbps() - 64.0).abs() < 1e-9);
        assert_eq!(s.packet_bytes, 160);
    }

    #[test]
    fn high_rate_spec_matches_paper() {
        let s = StreamSpec::high_rate();
        assert_eq!(s.packet_count(), 75_000);
        assert!((s.rate_kbps() - 5000.0).abs() < 1.0);
    }

    #[test]
    fn schedule_is_evenly_spaced() {
        let s = StreamSpec::voip();
        let start = SimTime::from_secs(1);
        let times: Vec<(u64, SimTime)> = s.schedule(start).take(4).collect();
        assert_eq!(times[0], (0, SimTime::from_millis(1000)));
        assert_eq!(times[1], (1, SimTime::from_millis(1020)));
        assert_eq!(times[3], (3, SimTime::from_millis(1060)));
        assert_eq!(s.schedule(start).count() as u64, s.packet_count());
    }

    #[test]
    fn wire_bytes_adds_headers() {
        assert_eq!(StreamSpec::voip().wire_bytes(), 200);
    }
}
