//! # diversifi
//!
//! A full reproduction of **"DiversiFi: Robust Multi-Link Interactive
//! Streaming"** (Kateja, Baranasuriya, Navda, Padmanabhan — ACM CoNEXT
//! 2015) as a deterministic discrete-event simulation study.
//!
//! DiversiFi improves real-time interactive streaming (VoIP, cloud gaming)
//! over WiFi by **cross-link replication with network-side buffering**: the
//! client keeps associations to two APs, the downlink stream is replicated
//! toward both, the secondary copy is parked in a short head-drop buffer
//! (at a minimally-modified AP, or at a middlebox behind an SDN switch),
//! and a single-NIC client hops over *reactively* — only when a loss
//! actually happens — to fetch exactly the missing packets.
//!
//! This crate is the top of the workspace:
//!
//! - [`twonic`] — the §4 two-NIC measurement driver (full replication on
//!   two links; traces out).
//! - [`corpus`] — seeded call-environment generation (the 458-call corpus
//!   and its impairment classes).
//! - [`analysis`] — strategies × corpora → every §4 figure (Figs. 2–6).
//! - [`world`] — the closed-loop single-NIC world of §6: PSM signalling,
//!   Algorithm 1, customized-AP and middlebox deployments, TCP coexistence;
//!   the same loop runs a fleet of clients sharing the two APs (§4.6, §6.4).
//! - [`evaluation`] — the §6 corpora and summaries (Figs. 8–10, Table 3,
//!   §6.3 overhead, §6.4 scalability).
//! - [`chaos`] — adversarial fault-plan fuzzing against the paired
//!   no-amplification oracle, with automatic shrinking to committed
//!   reproducers.
//! - [`population`] — the Table 1 VoIP-service population model.
//! - [`nettest`] — the Table 2 NetTest campaign model.
//! - [`survey`] — the Fig. 1 site survey.
//! - [`report`] — text tables and JSON artifacts.
//!
//! ## Quickstart
//!
//! ```
//! use diversifi::world::{RunMode, World, WorldConfig};
//! use diversifi_simcore::SeedFactory;
//! use diversifi_voip::DEFAULT_DEADLINE;
//! use diversifi_wifi::{Channel, LinkConfig};
//!
//! // Two APs across an office; a short VoIP call with DiversiFi.
//! let primary = LinkConfig::office(Channel::CH1, 14.0);
//! let secondary = LinkConfig::office(Channel::CH11, 24.0);
//! let mut cfg = WorldConfig::testbed(primary, secondary);
//! cfg.spec.duration = diversifi_simcore::SimDuration::from_secs(10); // short demo
//! cfg.mode = RunMode::DiversifiCustomAp;
//! let report = World::new(&cfg, &SeedFactory::new(42)).run();
//! assert!(report.trace.loss_rate(DEFAULT_DEADLINE) < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library diagnostics go through `diversifi_simcore::telemetry`, never
// stdout/stderr; CI's `clippy -D warnings` enforces this.
#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod ablation;
pub mod analysis;
pub mod campaign;
pub mod chaos;
pub mod corpus;
pub mod crosstech;
pub mod evaluation;
pub mod flight;
pub mod nettest;
pub mod population;
pub mod report;
pub mod scenario;
pub mod survey;
pub mod twonic;
pub mod uplink;
pub mod world;

pub use analysis::{AnalysisOptions, CallRecord, QualityParams, Strategy};
pub use campaign::{
    run_fleet_campaign_observed, CampaignHealthReport, FleetCampaignReport, FleetCampaignRun,
    FleetSchema, FlightEntryReport, ShardQuarantineReport,
};
pub use chaos::{
    capture_reproducer, evaluate_plan, replay_reproducer, run_chaos, ChaosConfig, ChaosFinding,
    ChaosReport, Violation,
};
pub use flight::capture_worst_calls;
pub use corpus::{CallEnvironment, CorpusMix};
pub use evaluation::{EvalOptions, EvalRun, OverheadSummary};
pub use scenario::{ApSpec, Arm, LinkQuality, Scenario, Traffic, Venue};
pub use twonic::{run_single, run_temporal, run_two_nic, TwoNicScenario};
pub use world::{RunMode, RunReport, World, WorldConfig};
