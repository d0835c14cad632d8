//! Frames as seen by the simulated 802.11 MAC.

use crate::ids::{AdapterId, ClientId, FlowId};
use diversifi_simcore::SimTime;
use serde::Serialize;

/// Payload class of a data frame. The simulator does not carry real bytes
/// over the air — the content lives with the network layer — but the MAC
/// needs sizes and flow identities for airtime and queueing.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum FrameKind {
    /// A downlink data frame carrying one network packet.
    Data,
    /// An 802.11 Null data frame with the Power Management bit set
    /// ("I am going to sleep; buffer my traffic").
    NullSleep,
    /// An 802.11 Null data frame with the Power Management bit cleared
    /// ("I am awake; release buffered traffic").
    NullWake,
    /// An uplink data frame (client → AP), e.g. a TCP ACK or a middlebox
    /// start/stop request.
    UplinkData,
}

/// A MAC-level frame.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct Frame {
    /// What kind of frame this is.
    pub kind: FrameKind,
    /// The flow the payload belongss to (meaningless for Null frames).
    pub flow: FlowId,
    /// Flow-scoped sequence number of the payload packet.
    pub seq: u64,
    /// MAC payload size in bytes (payload + IP/UDP headers).
    pub size_bytes: u32,
    /// When the payload packet was generated at its source.
    pub src_time: SimTime,
    /// Destination client.
    pub dst: ClientId,
    /// Destination virtual adapter on that client (which association the
    /// frame is addressed to).
    pub dst_adapter: AdapterId,
}

impl Frame {
    /// A downlink data frame.
    pub fn data(
        flow: FlowId,
        seq: u64,
        size_bytes: u32,
        src_time: SimTime,
        dst: ClientId,
        dst_adapter: AdapterId,
    ) -> Frame {
        Frame { kind: FrameKind::Data, flow, seq, size_bytes, src_time, dst, dst_adapter }
    }

    /// MAC+PHY bytes actually serialised on the air for this frame:
    /// payload + 802.11 MAC header (34 B including FCS) + LLC/SNAP (8 B).
    pub fn air_bytes(&self) -> u32 {
        match self.kind {
            FrameKind::NullSleep | FrameKind::NullWake => 34,
            _ => self.size_bytes + 34 + 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk() -> Frame {
        Frame::data(FlowId(1), 7, 160, SimTime::from_millis(140), ClientId(0), AdapterId(1))
    }

    #[test]
    fn data_frame_fields() {
        let f = mk();
        assert_eq!(f.kind, FrameKind::Data);
        assert_eq!(f.seq, 7);
        assert_eq!(f.size_bytes, 160);
    }

    #[test]
    fn air_bytes_adds_headers() {
        let f = mk();
        assert_eq!(f.air_bytes(), 160 + 42);
    }

    #[test]
    fn null_frames_are_small() {
        let mut f = mk();
        f.kind = FrameKind::NullSleep;
        assert_eq!(f.air_bytes(), 34);
        f.kind = FrameKind::NullWake;
        assert_eq!(f.air_bytes(), 34);
    }
}
