//! Network-layer packet representation shared by the wired elements.

use diversifi_simcore::SimTime;
use diversifi_wifi::FlowId;
use serde::Serialize;

/// One packet of a real-time stream as it moves through the wired network
/// (sender → SDN switch → AP / middlebox).
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct StreamPacket {
    /// The flow it belongs to.
    pub flow: FlowId,
    /// Flow-scoped sequence number.
    pub seq: u64,
    /// Payload bytes (excluding IP/UDP headers).
    pub bytes: u32,
    /// When the source emitted it.
    pub src_time: SimTime,
}

impl StreamPacket {
    /// Construct a packet.
    pub fn new(flow: FlowId, seq: u64, bytes: u32, src_time: SimTime) -> StreamPacket {
        StreamPacket { flow, seq, bytes, src_time }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let p = StreamPacket::new(FlowId(3), 42, 160, SimTime::from_millis(840));
        assert_eq!(p.flow, FlowId(3));
        assert_eq!(p.seq, 42);
        assert_eq!(p.bytes, 160);
    }
}
