//! A compact TCP Reno implementation (segment-granular) for the
//! coexistence experiments.
//!
//! The paper's Fig. 10 measures how much an iperf TCP flow suffers when the
//! client's NIC hops between channels for DiversiFi (answer: −2.5% on
//! average). What that requires of the transport model is faithful *loss
//! and delay reactivity*: slow start, congestion avoidance, fast
//! retransmit/fast recovery on triple-dupACK, RTO with exponential backoff,
//! and Karn's rule for RTT sampling — all of which are implemented here.
//! Sequence numbers count MSS-sized segments, not bytes, which is the right
//! granularity for throughput dynamics.

use diversifi_simcore::{SimDuration, SimTime};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};

/// TCP tuning parameters.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct TcpConfig {
    /// Maximum segment size in bytes (used only for byte accounting).
    pub mss: u32,
    /// Initial congestion window (segments).
    pub init_cwnd: f64,
    /// Initial slow-start threshold (segments).
    pub init_ssthresh: f64,
    /// Lower bound on the retransmission timeout.
    pub min_rto: SimDuration,
    /// Upper bound on the retransmission timeout.
    pub max_rto: SimDuration,
    /// Duplicate ACKs that trigger fast retransmit.
    pub dupack_threshold: u32,
    /// Receiver window (segments) — caps the send window.
    pub rwnd: u64,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1460,
            init_cwnd: 2.0,
            init_ssthresh: 64.0,
            min_rto: SimDuration::from_millis(200),
            max_rto: SimDuration::from_secs(60),
            dupack_threshold: 3,
            rwnd: 256,
        }
    }
}

/// A data segment on the wire (sequence number = segment index).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct TcpSegment {
    /// Segment index (0-based).
    pub seq: u64,
    /// Whether this transmission is a retransmission (Karn's rule).
    pub retransmission: bool,
}

/// A greedy ("iperf-like") Reno sender.
#[derive(Clone, Debug)]
pub struct TcpSender {
    cfg: TcpConfig,
    cwnd: f64,
    ssthresh: f64,
    /// Next segment to transmit (rolls back to `snd_una` on RTO —
    /// go-back-N).
    next_seq: u64,
    /// Highest segment ever transmitted; segments below it are
    /// retransmissions for Karn's rule.
    high_water: u64,
    /// Oldest unacknowledged segment.
    snd_una: u64,
    dup_acks: u32,
    /// Fast-recovery state: `Some(recover_point)` while recovering.
    recovery: Option<u64>,
    /// Segments queued for retransmission (fast retransmit / RTO).
    rtx_queue: BTreeSet<u64>,
    /// Send timestamps for RTT sampling; `true` = was retransmitted.
    sent: BTreeMap<u64, (SimTime, bool)>,
    srtt: Option<f64>,
    rttvar: f64,
    rto: SimDuration,
    /// Absolute deadline of the running retransmission timer.
    rto_deadline: Option<SimTime>,
    /// Consecutive RTO expiries (exponential backoff).
    backoff: u32,
    /// Cumulative segments ACKed (throughput accounting).
    pub acked_segments: u64,
    /// Total segment transmissions (incl. retransmissions).
    pub transmissions: u64,
    /// Fast retransmits triggered.
    pub fast_retransmits: u64,
    /// RTO expiries.
    pub timeouts: u64,
}

impl TcpSender {
    /// A fresh connection in slow start.
    pub fn new(cfg: TcpConfig) -> TcpSender {
        TcpSender {
            cwnd: cfg.init_cwnd,
            ssthresh: cfg.init_ssthresh,
            next_seq: 0,
            high_water: 0,
            snd_una: 0,
            dup_acks: 0,
            recovery: None,
            rtx_queue: BTreeSet::new(),
            sent: BTreeMap::new(),
            srtt: None,
            rttvar: 0.0,
            rto: cfg.min_rto * 2,
            rto_deadline: None,
            backoff: 0,
            acked_segments: 0,
            transmissions: 0,
            fast_retransmits: 0,
            timeouts: 0,
            cfg,
        }
    }

    /// Current congestion window in segments.
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Segments in flight.
    pub fn in_flight(&self) -> u64 {
        self.next_seq - self.snd_una
    }

    /// Bytes successfully delivered so far.
    pub fn acked_bytes(&self) -> u64 {
        self.acked_segments * self.cfg.mss as u64
    }

    /// Snapshot the sender's counters into a metrics registry.
    pub fn export_metrics(
        &self,
        who: diversifi_simcore::ComponentId,
        reg: &mut diversifi_simcore::MetricsRegistry,
    ) {
        reg.counter(who, "transmissions", self.transmissions);
        reg.counter(who, "acked_segments", self.acked_segments);
        reg.counter(who, "fast_retransmits", self.fast_retransmits);
        reg.counter(who, "timeouts", self.timeouts);
        reg.gauge(who, "cwnd", self.cwnd);
    }

    fn window(&self) -> u64 {
        (self.cwnd.floor() as u64).max(1).min(self.cfg.rwnd)
    }

    /// Pull the next segment to transmit, if the window allows. Call
    /// repeatedly until `None`. The caller owns delivery.
    pub fn poll_send(&mut self, now: SimTime) -> Option<TcpSegment> {
        let seg = if let Some(&seq) = self.rtx_queue.iter().next() {
            self.rtx_queue.remove(&seq);
            self.sent.insert(seq, (now, true));
            TcpSegment { seq, retransmission: true }
        } else if self.in_flight() < self.window() {
            let seq = self.next_seq;
            self.next_seq += 1;
            let retransmission = seq < self.high_water;
            self.high_water = self.high_water.max(self.next_seq);
            self.sent.insert(seq, (now, retransmission));
            TcpSegment { seq, retransmission }
        } else {
            return None;
        };
        self.transmissions += 1;
        if self.rto_deadline.is_none() {
            self.rto_deadline = Some(now + self.rto);
        }
        Some(seg)
    }

    /// Deadline of the retransmission timer, if armed.
    pub fn rto_deadline(&self) -> Option<SimTime> {
        self.rto_deadline
    }

    fn update_rtt(&mut self, sample: SimDuration) {
        let s = sample.as_secs_f64();
        match self.srtt {
            None => {
                self.srtt = Some(s);
                self.rttvar = s / 2.0;
            }
            Some(srtt) => {
                self.rttvar = 0.75 * self.rttvar + 0.25 * (srtt - s).abs();
                self.srtt = Some(0.875 * srtt + 0.125 * s);
            }
        }
        let rto = self.srtt.unwrap() + (4.0 * self.rttvar).max(0.01);
        self.rto = SimDuration::from_secs_f64(rto)
            .max(self.cfg.min_rto)
            .min(self.cfg.max_rto);
    }

    /// Process a cumulative ACK (`ack` = next expected segment).
    pub fn on_ack(&mut self, ack: u64, now: SimTime) {
        if ack > self.snd_una {
            // New data acknowledged.
            let newly = ack - self.snd_una;
            self.acked_segments += newly;
            self.backoff = 0;

            // RTT sample from the highest newly-acked, Karn-permitting.
            if let Some(&(sent_at, rtx)) = self.sent.get(&(ack - 1)) {
                if !rtx {
                    self.update_rtt(now.saturating_since(sent_at));
                }
            }
            self.snd_una = ack;
            // After a go-back-N rollback, a cumulative ACK may cover data
            // the receiver had buffered beyond our rolled-back next_seq;
            // those segments are delivered and must not be re-sent.
            self.next_seq = self.next_seq.max(ack);
            self.sent.retain(|&s, _| s >= ack);
            self.rtx_queue.retain(|&s| s >= ack);

            match self.recovery {
                Some(recover) if ack > recover => {
                    // Full recovery: deflate to ssthresh.
                    self.recovery = None;
                    self.dup_acks = 0;
                    self.cwnd = self.ssthresh;
                }
                Some(_) => {
                    // Partial ACK: retransmit the next hole immediately.
                    self.rtx_queue.insert(self.snd_una);
                }
                None => {
                    self.dup_acks = 0;
                    if self.cwnd < self.ssthresh {
                        // Slow start with Appropriate Byte Counting (RFC
                        // 3465, L=2): a large cumulative ACK (e.g. after a
                        // retransmission fills a hole) must not inflate the
                        // window by the whole jump — that would release a
                        // line-rate burst that overruns the bottleneck
                        // queue. Growth is also clamped at ssthresh.
                        let inc = (newly as f64).min(2.0);
                        self.cwnd = (self.cwnd + inc).min(self.ssthresh.max(self.cwnd));
                    } else {
                        // Congestion avoidance: at most +1 segment per RTT.
                        self.cwnd += (newly as f64 / self.cwnd).min(1.0);
                    }
                }
            }
            // Re-arm the timer for remaining in-flight data.
            self.rto_deadline =
                if self.in_flight() > 0 { Some(now + self.rto) } else { None };
        } else if ack == self.snd_una && self.in_flight() > 0 {
            // Duplicate ACK.
            if self.recovery.is_some() {
                self.cwnd += 1.0; // inflate during recovery
            } else {
                self.dup_acks += 1;
                if self.dup_acks == self.cfg.dupack_threshold {
                    // Fast retransmit + fast recovery.
                    self.fast_retransmits += 1;
                    self.ssthresh = (self.in_flight() as f64 / 2.0).max(2.0);
                    self.cwnd = self.ssthresh + self.cfg.dupack_threshold as f64;
                    self.recovery = Some(self.next_seq.saturating_sub(1));
                    self.rtx_queue.insert(self.snd_una);
                }
            }
        }
    }

    /// Fire the retransmission timer if its deadline has passed.
    pub fn on_timer(&mut self, now: SimTime) {
        let Some(deadline) = self.rto_deadline else { return };
        if now < deadline {
            return;
        }
        self.timeouts += 1;
        self.backoff = (self.backoff + 1).min(10);
        self.ssthresh = (self.in_flight() as f64 / 2.0).max(2.0);
        // RFC 5681 loss window: one segment after a timeout.
        self.cwnd = 1.0;
        self.recovery = None;
        self.dup_acks = 0;
        // Go-back-N: everything past the hole is presumed lost. Rolling
        // `next_seq` back lets the window clock out retransmissions as cwnd
        // regrows, instead of deadlocking behind hundreds of dead
        // "in-flight" segments. Dropping `sent` discards their stale
        // timestamps, which would otherwise poison the RTT estimator when
        // the receiver's out-of-order buffer acknowledges them in one jump.
        self.rtx_queue.clear();
        self.sent.clear();
        self.next_seq = self.snd_una;
        let rto = SimDuration::from_nanos(
            (self.rto.as_nanos()).saturating_mul(1u64 << self.backoff.min(6)),
        )
        .min(self.cfg.max_rto);
        self.rto_deadline = Some(now + rto);
    }
}

/// The receiver half: generates cumulative ACKs, buffers out-of-order
/// segments.
#[derive(Clone, Debug, Default)]
pub struct TcpReceiver {
    expected: u64,
    ooo: BTreeSet<u64>,
    /// Segments delivered in order to the application.
    pub delivered: u64,
}

impl TcpReceiver {
    /// A fresh receiver expecting segment 0.
    pub fn new() -> TcpReceiver {
        TcpReceiver::default()
    }

    /// Accept a segment; returns the cumulative ACK to send back
    /// (next expected segment).
    pub fn on_segment(&mut self, seq: u64) -> u64 {
        if seq == self.expected {
            self.expected += 1;
            self.delivered += 1;
            while self.ooo.remove(&self.expected) {
                self.expected += 1;
                self.delivered += 1;
            }
        } else if seq > self.expected {
            self.ooo.insert(seq);
        }
        self.expected
    }

    /// Next expected segment (the current cumulative ACK value).
    pub fn ack(&self) -> u64 {
        self.expected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diversifi_simcore::{EventQueue, RngStream};

    /// Drive sender+receiver over a fixed-delay pipe with deterministic
    /// per-transmission loss, and return goodput (segments delivered).
    fn run_pipe(
        loss: impl Fn(SimTime, &mut RngStream) -> bool,
        rtt: SimDuration,
        duration: SimDuration,
    ) -> (TcpSender, TcpReceiver) {
        #[derive(Debug)]
        enum Ev {
            Deliver(TcpSegment),
            Ack(u64),
            Timer,
            Kick,
        }
        let mut rng = RngStream::from_seed(42);
        let mut snd = TcpSender::new(TcpConfig::default());
        let mut rcv = TcpReceiver::new();
        let mut q: EventQueue<Ev> = EventQueue::new();
        let one_way = rtt / 2;
        q.schedule(SimTime::ZERO, Ev::Kick);
        q.schedule(SimTime::ZERO + SimDuration::from_millis(10), Ev::Timer);
        while let Some((now, ev)) = q.pop() {
            if now.saturating_since(SimTime::ZERO) > duration {
                break;
            }
            match ev {
                Ev::Kick => {
                    while let Some(seg) = snd.poll_send(now) {
                        if !loss(now, &mut rng) {
                            q.schedule(now + one_way, Ev::Deliver(seg));
                        }
                    }
                }
                Ev::Deliver(seg) => {
                    let ack = rcv.on_segment(seg.seq);
                    q.schedule(now + one_way, Ev::Ack(ack));
                }
                Ev::Ack(ack) => {
                    snd.on_ack(ack, now);
                    q.schedule(now, Ev::Kick);
                }
                Ev::Timer => {
                    snd.on_timer(now);
                    q.schedule(now, Ev::Kick);
                    q.schedule(now + SimDuration::from_millis(10), Ev::Timer);
                }
            }
        }
        (snd, rcv)
    }

    #[test]
    fn lossless_pipe_fills_the_window() {
        let (snd, rcv) =
            run_pipe(|_, _| false, SimDuration::from_millis(20), SimDuration::from_secs(5));
        // 5 s / 20 ms RTT = 250 RTTs; rwnd=256 segs per RTT once open.
        assert!(rcv.delivered > 20_000, "delivered {}", rcv.delivered);
        assert_eq!(snd.timeouts, 0);
        assert_eq!(snd.fast_retransmits, 0);
        assert_eq!(snd.acked_segments, rcv.delivered);
    }

    #[test]
    fn slow_start_doubles_then_caps() {
        let mut snd = TcpSender::new(TcpConfig::default());
        let t = SimTime::from_millis(1);
        // Send the initial window, ACK it all: cwnd should grow by the
        // number of newly acked segments (exponential growth per RTT).
        let mut sent = 0;
        while snd.poll_send(t).is_some() {
            sent += 1;
        }
        assert_eq!(sent, 2);
        snd.on_ack(2, t + SimDuration::from_millis(20));
        assert!((snd.cwnd() - 4.0).abs() < 1e-9, "cwnd {}", snd.cwnd());
    }

    #[test]
    fn congestion_avoidance_is_linear() {
        // start in CA immediately
        let cfg = TcpConfig { init_ssthresh: 2.0, ..TcpConfig::default() };
        let mut snd = TcpSender::new(cfg);
        let t = SimTime::from_millis(1);
        while snd.poll_send(t).is_some() {}
        let before = snd.cwnd();
        snd.on_ack(2, t + SimDuration::from_millis(20));
        let after = snd.cwnd();
        assert!(after - before < 1.5, "CA growth {} -> {}", before, after);
        assert!(after > before);
    }

    #[test]
    fn triple_dupack_triggers_fast_retransmit() {
        let mut snd = TcpSender::new(TcpConfig::default());
        let mut t = SimTime::from_millis(1);
        // Open the window a bit.
        for _ in 0..4 {
            while snd.poll_send(t).is_some() {}
            let una = snd.snd_una;
            let inflight = snd.in_flight();
            snd.on_ack(una + inflight, t);
            t += SimDuration::from_millis(20);
        }
        while snd.poll_send(t).is_some() {}
        let hole = snd.snd_una;
        // Segment `hole` is lost; later segments generate dupACKs.
        for _ in 0..3 {
            snd.on_ack(hole, t);
        }
        assert_eq!(snd.fast_retransmits, 1);
        let rtx = snd.poll_send(t).expect("retransmission queued");
        assert_eq!(rtx.seq, hole);
        assert!(rtx.retransmission);
    }

    #[test]
    fn rto_fires_and_backs_off() {
        let mut snd = TcpSender::new(TcpConfig::default());
        let t0 = SimTime::from_millis(1);
        assert!(snd.poll_send(t0).is_some());
        let d1 = snd.rto_deadline().unwrap();
        snd.on_timer(d1);
        assert_eq!(snd.timeouts, 1);
        assert!((snd.cwnd() - 1.0).abs() < 1e-9, "cwnd resets to 1");
        let rtx = snd.poll_send(d1).unwrap();
        assert_eq!(rtx.seq, 0);
        assert!(rtx.retransmission);
        let d2 = snd.rto_deadline().unwrap();
        assert!(d2 - d1 > d1 - t0, "RTO must back off exponentially");
    }

    #[test]
    fn timer_before_deadline_is_noop() {
        let mut snd = TcpSender::new(TcpConfig::default());
        let t0 = SimTime::from_millis(1);
        snd.poll_send(t0);
        snd.on_timer(t0 + SimDuration::from_millis(1));
        assert_eq!(snd.timeouts, 0);
    }

    #[test]
    fn lossy_pipe_still_makes_progress_with_reno_dynamics() {
        let (snd, rcv) = run_pipe(
            |_, rng| rng.chance(0.01),
            SimDuration::from_millis(20),
            SimDuration::from_secs(10),
        );
        assert!(rcv.delivered > 2_000, "delivered {}", rcv.delivered);
        assert!(snd.fast_retransmits > 0, "1% loss must trigger fast retransmits");
        // Reno under loss must deliver less than the lossless run.
        let (_, clean) =
            run_pipe(|_, _| false, SimDuration::from_millis(20), SimDuration::from_secs(10));
        assert!(rcv.delivered < clean.delivered);
    }

    #[test]
    fn receiver_reorders() {
        let mut rcv = TcpReceiver::new();
        assert_eq!(rcv.on_segment(0), 1);
        assert_eq!(rcv.on_segment(2), 1, "hole at 1 holds the ACK");
        assert_eq!(rcv.on_segment(3), 1);
        assert_eq!(rcv.on_segment(1), 4, "filling the hole releases the run");
        assert_eq!(rcv.delivered, 4);
        // Duplicate segment is harmless.
        assert_eq!(rcv.on_segment(2), 4);
        assert_eq!(rcv.delivered, 4);
    }

    #[test]
    fn burst_loss_causes_timeout_and_recovery() {
        // Drop everything transmitted between t=1s and t=1.6s — a hard
        // outage like a long PSM absence.
        let (snd, rcv) = run_pipe(
            |now, _| {
                (SimDuration::from_secs(1)..SimDuration::from_millis(1600))
                    .contains(&now.saturating_since(SimTime::ZERO))
            },
            SimDuration::from_millis(20),
            SimDuration::from_secs(10),
        );
        assert!(snd.timeouts >= 1, "outage should force an RTO");
        assert!(rcv.delivered > 1_000, "must recover after the outage: {}", rcv.delivered);
    }
}
