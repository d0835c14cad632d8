//! The workload layer: what the world simulates *for*.
//!
//! A [`WorkloadKind`] names the traffic a world carries (the paper's VoIP
//! stream, or cloud-gaming FPS tick traffic); a [`WorkloadState`] holds one
//! client's live accounting of it: the downlink delivery trace and, for
//! FPS, the uplink input ticks. The world moves frames over channels and
//! reports deliveries here; the G.711- and FPS-specific reductions live
//! downstream of the trace and in [`WorkloadState::fps_outcome`].
//!
//! Contract (DESIGN.md §14):
//! - construction and every `record_*` call are deterministic pure state
//!   updates — a workload never draws randomness and never observes
//!   wall-clock, so runs stay a pure function of `(WorldConfig, seed)`;
//! - `record_arrival`/`delivered` keep the earliest-arrival semantics of
//!   [`StreamTrace`] (duplicates keep the first arrival);
//! - VoIP has no uplink stream: `input_spec` is `None`, the world
//!   schedules no input ticks (no extra events, no extra RNG draws), and
//!   `record_input` is never called;
//! - every emitted input tick reaches exactly one [`InputFate`] so the
//!   tick ledger closes (`emitted == delivered + lost + blackout`).

use crate::fps::{fps_qoe, tick_stats, FpsConfig, FpsOutcome};
use crate::stream::StreamSpec;
use crate::trace::StreamTrace;
use diversifi_simcore::SimTime;
use serde::Serialize;

/// Which workload a world runs. The configuration-level counterpart of
/// [`WorkloadState`] (which holds the live accounting).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum WorkloadKind {
    /// G.711 VoIP: the paper's workload, quality via E-model MOS.
    Voip,
    /// Cloud-gaming FPS tick traffic, quality via deadline metrics.
    Fps(FpsConfig),
}

impl WorkloadKind {
    /// Short stable label (scenario files, campaign tables, telemetry).
    pub fn label(&self) -> &'static str {
        match self {
            WorkloadKind::Voip => "voip",
            WorkloadKind::Fps(_) => "fps",
        }
    }

    /// The workload-native "this call finished poor" threshold, in the
    /// workload's own score units: E-model MOS for VoIP (the paper's
    /// poor-call cut, [`crate::emodel::PcrModel::poor_mos`]) and the FPS
    /// QoE floor ([`crate::fps::FPS_QOE_POOR`]). The campaign flight
    /// recorder arms its capture trigger with this unless the scenario
    /// overrides it.
    pub fn poor_trigger(&self) -> f64 {
        match self {
            WorkloadKind::Voip => crate::emodel::PcrModel::default().poor_mos,
            WorkloadKind::Fps(_) => crate::fps::FPS_QOE_POOR,
        }
    }
}

/// Terminal fate of one uplink input tick.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum InputFate {
    /// Reached the server at this time.
    Delivered(SimTime),
    /// Every transmission attempt died on the air.
    Lost,
    /// The client had no usable radio when the tick fired (mid-retune with
    /// no association) — it was never transmitted at all.
    Blackout,
}

/// The live accounting of one client's workload: the downlink delivery
/// trace every workload has, plus the uplink input side an FPS session
/// adds. One type for every workload, so the per-delivery path is a plain
/// field access with no dispatch.
#[derive(Clone, Debug)]
pub struct WorkloadState {
    /// Downlink delivery trace (VoIP packets or FPS state ticks).
    trace: StreamTrace,
    /// The FPS uplink side; `None` for VoIP.
    fps: Option<FpsInput>,
}

/// An FPS session's uplink side: its parameters and input-tick accounting.
#[derive(Clone, Debug)]
struct FpsInput {
    /// Session parameters.
    cfg: FpsConfig,
    /// Uplink input-tick delivery trace (arrival = at the server).
    input: StreamTrace,
    /// Input ticks that fired while the client had no usable radio.
    blackout: u64,
}

impl WorkloadState {
    /// Fresh state for `kind` over the world's downlink `spec`, starting
    /// at `start`. For FPS, `spec` must be the one `cfg.downlink_spec()`
    /// produces (the world may shorten the duration for tests; the tick
    /// cadence and sizes must match); the input stream takes its duration.
    pub fn new(kind: WorkloadKind, spec: StreamSpec, start: SimTime) -> WorkloadState {
        let fps = match kind {
            WorkloadKind::Voip => None,
            WorkloadKind::Fps(cfg) => {
                let mut input_spec = cfg.input_spec();
                input_spec.duration = spec.duration;
                Some(FpsInput { cfg, input: StreamTrace::new(input_spec, start), blackout: 0 })
            }
        };
        WorkloadState { trace: StreamTrace::new(spec, start), fps }
    }

    /// The uplink tick stream, if the workload has one (FPS only).
    pub fn input_spec(&self) -> Option<StreamSpec> {
        self.fps.as_ref().map(|f| f.input.spec)
    }

    /// A downlink packet reached the client's application.
    pub fn record_arrival(&mut self, seq: u64, at: SimTime) {
        self.trace.record_arrival(seq, at);
    }

    /// Has downlink packet `seq` arrived (at any time)?
    pub fn delivered(&self, seq: u64) -> bool {
        self.trace.fates[seq as usize].arrival.is_some()
    }

    /// An uplink input tick reached its terminal fate. Only an FPS
    /// session has input ticks; the world schedules none for VoIP.
    pub fn record_input(&mut self, tick: u64, fate: InputFate) {
        let fps = self.fps.as_mut().expect("VoIP has no input ticks (input_spec() is None)");
        match fate {
            InputFate::Delivered(at) => fps.input.record_arrival(tick, at),
            InputFate::Lost => {}
            InputFate::Blackout => fps.blackout += 1,
        }
    }

    /// The downlink delivery trace.
    pub fn trace(&self) -> &StreamTrace {
        &self.trace
    }

    /// The FPS deadline metrics and QoE of the session so far; `None` for
    /// VoIP, whose MOS and loss figures come from the trace downstream.
    pub fn fps_outcome(&self) -> Option<FpsOutcome> {
        let fps = self.fps.as_ref()?;
        let state = tick_stats(&self.trace, fps.cfg.deadline, fps.cfg.window);
        let input = tick_stats(&fps.input, fps.cfg.input_deadline, fps.cfg.window);
        Some(FpsOutcome {
            state,
            input,
            input_blackout: fps.blackout,
            qoe: fps_qoe(&fps.cfg, &state, &input),
        })
    }

    /// Consume into the final downlink trace and FPS outcome.
    pub fn finish(self) -> (StreamTrace, Option<FpsOutcome>) {
        let outcome = self.fps_outcome();
        (self.trace, outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diversifi_simcore::SimDuration;

    #[test]
    fn voip_workload_is_a_transparent_trace_wrapper() {
        let spec = StreamSpec::voip();
        let mut w = WorkloadState::new(WorkloadKind::Voip, spec, SimTime::ZERO);
        assert!(w.input_spec().is_none());
        assert!(!w.delivered(0));
        let at = SimTime::ZERO + SimDuration::from_millis(30);
        w.record_arrival(0, at);
        assert!(w.delivered(0));
        // Earliest-arrival semantics survive duplicates.
        w.record_arrival(0, at + SimDuration::from_millis(50));
        let (trace, outcome) = w.finish();
        assert_eq!(trace.fates[0].arrival, Some(at));
        assert!(outcome.is_none());
    }

    #[test]
    fn fps_workload_reduces_both_directions() {
        let cfg = FpsConfig {
            duration: SimDuration::from_millis(150), // 10 ticks
            ..FpsConfig::office()
        };
        let mut w = WorkloadState::new(WorkloadKind::Fps(cfg), cfg.downlink_spec(), SimTime::ZERO);
        assert_eq!(w.input_spec().unwrap().packet_bytes, cfg.input_bytes);
        for seq in 0..8u64 {
            let sent = w.trace().fates[seq as usize].sent;
            w.record_arrival(seq, sent + SimDuration::from_millis(10));
        }
        for tick in 0..10u64 {
            let fate = match tick {
                0..=6 => {
                    InputFate::Delivered(SimTime::ZERO + cfg.tick * tick + SimDuration::from_millis(9))
                }
                7 => InputFate::Lost,
                _ => InputFate::Blackout,
            };
            w.record_input(tick, fate);
        }
        let (_, outcome) = w.finish();
        let o = outcome.expect("fps outcome");
        assert_eq!((o.state.ticks, o.state.on_time, o.state.lost), (10, 8, 2));
        assert_eq!((o.input.ticks, o.input.on_time, o.input.lost), (10, 7, 3));
        assert_eq!(o.input_blackout, 2);
        // 20% state-tick loss is far past the 600×miss-rate cliff: clamps
        // to the floor, as an FPS session with one in five frames missing
        // should.
        assert_eq!(o.qoe.to_bits(), 0f64.to_bits());
    }
}
