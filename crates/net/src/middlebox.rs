//! The buffering middlebox of the "unmodified AP" deployment (§5.3.2).
//!
//! The middlebox (the paper built it on MIT Click) sits off the data path.
//! The SDN switch replicates each DiversiFi flow toward it; the middlebox
//! keeps the most recent packets of each flow in a shallow head-drop ring.
//! When the client misses packets on its primary link, it hops to the
//! secondary AP and runs a simple **start/stop protocol**: on `start`, the
//! middlebox streams everything buffered from the requested sequence
//! onward, plus packets that keep arriving, until `stop`.
//!
//! Its per-request latency is what Table 3 measures (≈0.9 ms queueing on a
//! quad-core i7), and its load sensitivity is §6.4's scalability experiment
//! (+1.1 ms at 1000 concurrent streams).

use crate::packet::StreamPacket;
use diversifi_simcore::metrics::{LogHistogram, MetricsRegistry};
use diversifi_simcore::{telemetry, ComponentId, SimDuration};
use diversifi_wifi::FlowId;
use serde::Serialize;
use std::collections::{BTreeMap, VecDeque};

/// Middlebox tuning.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct MiddleboxConfig {
    /// Ring capacity per registered flow (packets) — like the customized
    /// AP's queue, sized to MaxTolerableDelay / InterPacketSpacing.
    pub per_flow_cap: usize,
    /// Base request-processing (queueing) delay at zero load.
    pub base_service: SimDuration,
    /// Additional service delay per 1000 concurrent registered flows.
    pub load_penalty_per_1k: SimDuration,
}

impl Default for MiddleboxConfig {
    fn default() -> Self {
        MiddleboxConfig {
            per_flow_cap: 5,
            base_service: SimDuration::from_micros(900),
            load_penalty_per_1k: SimDuration::from_micros(1100),
        }
    }
}

#[derive(Clone, Debug)]
struct FlowBuffer {
    cap: usize,
    ring: VecDeque<StreamPacket>,
    streaming: bool,
}

/// Telemetry instruments owned by the [`Middlebox`]: ring-occupancy and
/// per-request service-latency distributions, recorded only while a
/// telemetry session is active.
#[derive(Clone, Debug, Default)]
pub struct MiddleboxMetrics {
    /// Distribution of per-flow ring depth sampled after every ingest.
    pub ring_depth: LogHistogram,
    /// Distribution of request service delay (the recovery hop's queueing
    /// cost), microseconds — sampled at every `start`.
    pub service_us: LogHistogram,
    /// `start` requests handled.
    pub starts: u64,
}

/// The middlebox device.
#[derive(Clone, Debug)]
pub struct Middlebox {
    cfg: MiddleboxConfig,
    flows: BTreeMap<FlowId, FlowBuffer>,
    /// Packets ever dropped from rings (ring rollover; expected in steady
    /// state — the ring intentionally keeps only the newest few).
    pub rolled_over: u64,
    /// Packets handed to the secondary path.
    pub forwarded: u64,
    /// Telemetry instruments (live only during a telemetry session).
    pub metrics: MiddleboxMetrics,
}

impl Middlebox {
    /// An empty middlebox.
    pub fn new(cfg: MiddleboxConfig) -> Middlebox {
        Middlebox {
            cfg,
            flows: BTreeMap::new(),
            rolled_over: 0,
            forwarded: 0,
            metrics: MiddleboxMetrics::default(),
        }
    }

    /// Snapshot the middlebox's instruments into a metrics registry.
    pub fn export_metrics(&self, who: ComponentId, reg: &mut MetricsRegistry) {
        reg.counter(who, "forwarded", self.forwarded);
        reg.counter(who, "rolled_over", self.rolled_over);
        reg.counter(who, "starts", self.metrics.starts);
        reg.gauge(who, "flows", self.flows.len() as f64);
        reg.histogram(who, "ring_depth", &self.metrics.ring_depth);
        reg.histogram(who, "service_us", &self.metrics.service_us);
    }

    /// The configuration in force.
    pub fn config(&self) -> &MiddleboxConfig {
        &self.cfg
    }

    /// Register a flow (installs its ring; idempotent). `cap` overrides the
    /// default per-flow capacity when provided.
    pub fn register(&mut self, flow: FlowId, cap: Option<usize>) {
        self.flows.entry(flow).or_insert_with(|| FlowBuffer {
            cap: cap.unwrap_or(self.cfg.per_flow_cap),
            ring: VecDeque::new(),
            streaming: false,
        });
    }

    /// Number of registered flows (the load driver for service delay).
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Request-processing delay at the current load: base queueing plus a
    /// linear load penalty (measured in the paper as +1.1 ms at 1000
    /// streams).
    pub fn service_delay(&self) -> SimDuration {
        let load = self.flows.len() as f64 / 1000.0;
        self.cfg.base_service + self.cfg.load_penalty_per_1k.mul_f64(load)
    }

    /// Ingest one replicated packet. If the flow is in streaming state (a
    /// `start` without a matching `stop`), the packet is also forwarded
    /// immediately and returned.
    pub fn ingest(&mut self, packet: StreamPacket) -> Option<StreamPacket> {
        let Some(fb) = self.flows.get_mut(&packet.flow) else {
            return None; // unknown flow: the switch shouldn't send these
        };
        if fb.streaming {
            self.forwarded += 1;
            return Some(packet);
        }
        if fb.ring.len() == fb.cap {
            fb.ring.pop_front();
            self.rolled_over += 1;
        }
        fb.ring.push_back(packet);
        // §5.3.2 invariant: the per-flow ring is a shallow head-drop buffer
        // that never exceeds its depth, however fast packets arrive.
        diversifi_simcore::sim_assert!(
            fb.ring.len() <= fb.cap,
            "middlebox ring depth {} exceeded cap {} on flow {:?}",
            fb.ring.len(),
            fb.cap,
            packet.flow
        );
        if telemetry::active() {
            let depth = fb.ring.len() as u64;
            self.metrics.ring_depth.record(depth);
        }
        None
    }

    /// Handle a `start` request: enter streaming state and return every
    /// buffered packet with `seq >= from_seq` (older ones are useless to the
    /// client), plus the service delay the response incurs.
    pub fn start(&mut self, flow: FlowId, from_seq: u64) -> (SimDuration, Vec<StreamPacket>) {
        let delay = self.service_delay();
        if telemetry::active() {
            self.metrics.starts += 1;
            self.metrics.service_us.record(delay.as_micros());
        }
        let Some(fb) = self.flows.get_mut(&flow) else {
            return (delay, Vec::new());
        };
        fb.streaming = true;
        let out: Vec<StreamPacket> = fb.ring.drain(..).filter(|p| p.seq >= from_seq).collect();
        self.forwarded += out.len() as u64;
        (delay, out)
    }

    /// Handle a `stop` request: go back to buffering.
    pub fn stop(&mut self, flow: FlowId) {
        if let Some(fb) = self.flows.get_mut(&flow) {
            fb.streaming = false;
        }
    }

    /// Is the flow currently streaming?
    pub fn is_streaming(&self, flow: FlowId) -> bool {
        self.flows.get(&flow).map(|f| f.streaming).unwrap_or(false)
    }

    /// The process restarted: every ring is wiped and every flow drops out
    /// of streaming state. Registrations survive (the controller's flow
    /// table outlives the process), but the replication buffer's contents
    /// do not. Returns the number of packets destroyed, so the caller can
    /// settle them with its conservation ledger.
    pub fn restart(&mut self) -> usize {
        let mut wiped = 0;
        for fb in self.flows.values_mut() {
            wiped += fb.ring.len();
            fb.ring.clear();
            fb.streaming = false;
        }
        wiped
    }

    /// Buffered packet count for a flow.
    pub fn buffered(&self, flow: FlowId) -> usize {
        self.flows.get(&flow).map(|f| f.ring.len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diversifi_simcore::SimTime;

    const F: FlowId = FlowId(1);

    fn pkt(seq: u64) -> StreamPacket {
        StreamPacket::new(F, seq, 160, SimTime::from_millis(seq * 20))
    }

    fn mbox() -> Middlebox {
        let mut m = Middlebox::new(MiddleboxConfig::default());
        m.register(F, None);
        m
    }

    #[test]
    fn ring_keeps_most_recent() {
        let mut m = mbox();
        for s in 0..20 {
            assert!(m.ingest(pkt(s)).is_none());
        }
        assert_eq!(m.buffered(F), 5);
        assert_eq!(m.rolled_over, 15);
        let (_, got) = m.start(F, 0);
        let seqs: Vec<u64> = got.iter().map(|p| p.seq).collect();
        assert_eq!(seqs, vec![15, 16, 17, 18, 19]);
    }

    #[test]
    fn start_filters_older_than_requested() {
        let mut m = mbox();
        for s in 10..15 {
            m.ingest(pkt(s));
        }
        let (_, got) = m.start(F, 13);
        let seqs: Vec<u64> = got.iter().map(|p| p.seq).collect();
        assert_eq!(seqs, vec![13, 14]);
    }

    #[test]
    fn streaming_forwards_live_packets_until_stop() {
        let mut m = mbox();
        m.ingest(pkt(0));
        let (_, burst) = m.start(F, 0);
        assert_eq!(burst.len(), 1);
        assert!(m.is_streaming(F));
        // Live packets now pass straight through...
        assert_eq!(m.ingest(pkt(1)).unwrap().seq, 1);
        assert_eq!(m.ingest(pkt(2)).unwrap().seq, 2);
        // ...until stop.
        m.stop(F);
        assert!(m.ingest(pkt(3)).is_none());
        assert_eq!(m.buffered(F), 1);
        assert_eq!(m.forwarded, 3);
    }

    #[test]
    fn service_delay_scales_with_flows_like_section_6_4() {
        let mut m = Middlebox::new(MiddleboxConfig::default());
        m.register(F, None);
        let idle = m.service_delay();
        assert_eq!(idle.as_micros(), 900 + 1); // 1 flow ≈ base + 1.1 µs
        for i in 2..=1000 {
            m.register(FlowId(i), None);
        }
        let loaded = m.service_delay();
        let delta = loaded - idle;
        // ~+1.1 ms at 1000 streams (paper §6.4).
        assert!((delta.as_micros() as i64 - 1099).abs() < 10, "delta {delta}");
    }

    #[test]
    fn unknown_flow_ingest_ignored() {
        let mut m = Middlebox::new(MiddleboxConfig::default());
        assert!(m.ingest(pkt(0)).is_none());
        let (_, got) = m.start(F, 0);
        assert!(got.is_empty());
    }

    #[test]
    fn restart_wipes_rings_and_streaming_but_keeps_registrations() {
        let mut m = mbox();
        for s in 0..3 {
            m.ingest(pkt(s));
        }
        m.start(F, 0); // enters streaming, drains the ring
        m.ingest(pkt(3)); // forwarded live
        m.ingest(pkt(4));
        m.stop(F);
        m.ingest(pkt(5)); // buffered again
        assert_eq!(m.restart(), 1, "one buffered packet wiped");
        assert_eq!(m.flow_count(), 1, "registration survives the restart");
        assert!(!m.is_streaming(F));
        assert_eq!(m.buffered(F), 0);
        // The middlebox buffers normally once the process is back.
        assert!(m.ingest(pkt(6)).is_none());
        assert_eq!(m.buffered(F), 1);
    }

    #[test]
    fn custom_cap_respected() {
        let mut m = Middlebox::new(MiddleboxConfig::default());
        m.register(F, Some(2));
        for s in 0..5 {
            m.ingest(pkt(s));
        }
        assert_eq!(m.buffered(F), 2);
        let (_, got) = m.start(F, 0);
        assert_eq!(got.iter().map(|p| p.seq).collect::<Vec<_>>(), vec![3, 4]);
    }
}
