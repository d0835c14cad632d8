//! Declarative experiment scenarios.
//!
//! A [`Scenario`] is the single source of truth for one experiment: venue
//! class, AP deployment and channel plan, traffic mix, client fleet
//! (the Table 1 population model), a [`FaultPlan`], and the experiment
//! arms. Scenarios are written in JSON or in the vendored TOML subset,
//! lower into the existing strongly-typed configs ([`WorldConfig`],
//! [`PopulationModel`], [`TwoNicScenario`]), and replace the hand-coded
//! setups that used to be duplicated across `population`, `twonic`,
//! `evaluation` and `ablation`.
//!
//! Parsing is hand-rolled over the vendored [`serde::Value`] tree so that
//! every error carries the **field path** that caused it
//! (`arms[1].mode: unknown run mode "divirsifi" …`), unknown keys are
//! rejected (typos fail loudly instead of silently using a default), and
//! `parse → lower → re-serialize → re-parse` is idempotent: serialisation
//! always writes every field, so one round-trip reaches a fixed point.
//!
//! The link-quality catalog ([`LinkQuality`]) is shared with the §6
//! testbed generator in [`crate::evaluation`]: the `marginal` and `awful`
//! Gilbert–Elliott presets that used to live as literals there are now
//! named here, so a scenario file and the random testbed draw from the
//! same vocabulary.

use crate::population::PopulationModel;
use crate::twonic::TwoNicScenario;
use crate::world::{RunMode, WorldConfig};
use diversifi_simcore::{CampaignConfig, ChaosBudget, FaultPlan, Fnv, SimDuration};
use diversifi_voip::{FpsConfig, StreamSpec, WorkloadKind};
use diversifi_wifi::{Band, Channel, GeParams, LinkConfig};
use serde::{Deserialize, Serialize, Value};
use std::path::PathBuf;

// ---------------------------------------------------------------- schema

/// Venue class: sets the propagation environment every AP in the
/// deployment shares (path-loss exponent and shadowing spread).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Venue {
    /// Cubicled office (the paper's testbed): PLE 3.2, σ 2.5 dB.
    Office,
    /// Open-plan floor: milder path loss, less shadowing.
    OpenPlan,
    /// Apartment block: walls everywhere.
    Apartment,
}

impl Venue {
    /// `(path_loss_exponent, shadow_sigma_db)` of this venue class.
    pub fn propagation(self) -> (f64, f64) {
        match self {
            Venue::Office => (3.2, 2.5),
            Venue::OpenPlan => (2.7, 2.0),
            Venue::Apartment => (3.8, 3.5),
        }
    }

    /// Scenario-file tag (`"office"`, `"open-plan"`, `"apartment"`).
    pub fn tag(self) -> &'static str {
        match self {
            Venue::Office => "office",
            Venue::OpenPlan => "open-plan",
            Venue::Apartment => "apartment",
        }
    }

    fn from_tag(s: &str, path: &str) -> Result<Venue, String> {
        match s {
            "office" => Ok(Venue::Office),
            "open-plan" => Ok(Venue::OpenPlan),
            "apartment" => Ok(Venue::Apartment),
            other => Err(format!(
                "{path}: unknown venue class {other:?} (expected \"office\", \"open-plan\" or \"apartment\")"
            )),
        }
    }
}

/// Named link-quality presets: the Gilbert–Elliott burst-fade catalog the
/// §6 testbed generator and scenario files share.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkQuality {
    /// Healthy office link ([`GeParams::good_link`]).
    Good,
    /// Clearly worse than healthy, not yet awful — the §6.1 testbed's
    /// mid-tier spots.
    Marginal,
    /// Frequent fades with a heavy long tail ([`GeParams::weak_link`]).
    Weak,
    /// A far corner: mostly bad, drives the paper-style 52% worst windows.
    Awful,
}

impl LinkQuality {
    /// The preset's Gilbert–Elliott parameters.
    pub fn ge_params(self) -> GeParams {
        match self {
            LinkQuality::Good => GeParams::good_link(),
            LinkQuality::Marginal => GeParams {
                mean_good: SimDuration::from_millis(2000),
                mean_bad_short: SimDuration::from_millis(90),
                mean_bad_long: SimDuration::from_millis(400),
                p_long: 0.15,
                bad_loss: 0.8,
                good_loss: 0.006,
            },
            LinkQuality::Weak => GeParams::weak_link(),
            LinkQuality::Awful => GeParams {
                mean_good: SimDuration::from_millis(500),
                mean_bad_short: SimDuration::from_millis(80),
                mean_bad_long: SimDuration::from_millis(900),
                p_long: 0.3,
                bad_loss: 0.9,
                good_loss: 0.02,
            },
        }
    }

    /// Scenario-file tag (`"good"`, `"marginal"`, `"weak"`, `"awful"`).
    pub fn tag(self) -> &'static str {
        match self {
            LinkQuality::Good => "good",
            LinkQuality::Marginal => "marginal",
            LinkQuality::Weak => "weak",
            LinkQuality::Awful => "awful",
        }
    }

    fn from_tag(s: &str, path: &str) -> Result<LinkQuality, String> {
        match s {
            "good" => Ok(LinkQuality::Good),
            "marginal" => Ok(LinkQuality::Marginal),
            "weak" => Ok(LinkQuality::Weak),
            "awful" => Ok(LinkQuality::Awful),
            other => Err(format!(
                "{path}: unknown link quality {other:?} (expected \"good\", \"marginal\", \"weak\" or \"awful\")"
            )),
        }
    }
}

/// One AP of the deployment: where it is, what channel it runs, and how
/// good the radio environment toward the client is.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ApSpec {
    /// Operating channel, written `"2.4/1"` or `"5/36"` in scenario files.
    pub channel: Channel,
    /// AP–client distance in metres.
    pub distance_m: f64,
    /// Burst-fade quality preset.
    pub quality: LinkQuality,
    /// Transmit power (dBm).
    pub tx_power_dbm: f64,
    /// PHY receive-diversity order (1 = SISO).
    pub diversity_order: u8,
}

impl ApSpec {
    /// An AP at `distance_m` on `channel` with the given quality and the
    /// testbed defaults for everything else.
    pub fn new(channel: Channel, distance_m: f64, quality: LinkQuality) -> ApSpec {
        ApSpec { channel, distance_m, quality, tx_power_dbm: 16.0, diversity_order: 1 }
    }

    /// Lower into a [`LinkConfig`] under `venue`'s propagation.
    pub fn lower(&self, venue: Venue) -> LinkConfig {
        let (ple, sigma) = venue.propagation();
        let mut link = LinkConfig::office(self.channel, self.distance_m);
        link.path_loss_exponent = ple;
        link.shadow_sigma_db = sigma;
        link.tx_power_dbm = self.tx_power_dbm;
        link.diversity_order = self.diversity_order;
        link.ge = self.quality.ge_params();
        link
    }
}

/// The traffic mix of the streamed workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Traffic {
    /// The paper's G.711-like VoIP stream (64 kbps, 20 ms spacing).
    Voip,
    /// The §4.5 high-rate stream (5 Mbps, 1.6 ms spacing).
    HighRate,
    /// An explicit stream: payload bytes, inter-packet spacing (µs),
    /// duration (ms).
    Custom {
        /// Application payload bytes per packet.
        packet_bytes: u32,
        /// Inter-packet spacing in microseconds.
        interval_us: u64,
        /// Stream duration in milliseconds.
        duration_ms: u64,
    },
    /// Cloud-gaming FPS tick traffic, declared via `[traffic.workload]`
    /// with `kind = "fps"`. The FPS config defines the downlink state
    /// stream itself, so `mix` is rejected for this variant; the client
    /// additionally fires an uplink input tick per frame.
    Fps(FpsConfig),
}

impl Traffic {
    /// Lower into a [`StreamSpec`].
    pub fn lower(&self) -> StreamSpec {
        match *self {
            Traffic::Voip => StreamSpec::voip(),
            Traffic::HighRate => StreamSpec::high_rate(),
            Traffic::Custom { packet_bytes, interval_us, duration_ms } => StreamSpec {
                packet_bytes,
                interval: SimDuration::from_micros(interval_us),
                duration: SimDuration::from_millis(duration_ms),
            },
            Traffic::Fps(cfg) => cfg.downlink_spec(),
        }
    }

    /// The workload this traffic drives. All the VoIP-vocabulary mixes
    /// (`voip`, `high-rate`, `custom`) score via the E-model; only the
    /// FPS variant brings its own deadline-based accounting.
    pub fn workload(&self) -> WorkloadKind {
        match *self {
            Traffic::Fps(cfg) => WorkloadKind::Fps(cfg),
            _ => WorkloadKind::Voip,
        }
    }

    /// The workload name arms may reference via `arms[i].workload`.
    pub fn workload_name(&self) -> &'static str {
        self.workload().label()
    }
}

/// One experiment arm: a client behaviour plus the world knobs it changes.
#[derive(Clone, Debug, PartialEq)]
pub struct Arm {
    /// Arm label, used in reports.
    pub name: String,
    /// Client behaviour.
    pub mode: RunMode,
    /// Frames the secondary AP commits to hardware per PSM wake.
    pub wake_batch: usize,
    /// Run a concurrent greedy TCP download on the DEF link.
    pub with_tcp: bool,
    /// Per-attempt uplink control-message loss probability.
    pub uplink_loss: f64,
    /// Workload this arm expects to drive, by name (`"voip"`, `"fps"`).
    /// Validated at parse time against what `scenario.traffic` defines;
    /// `None` accepts whatever the traffic section declares.
    pub workload: Option<String>,
}

impl Arm {
    /// An arm named after its mode, with the testbed defaults.
    pub fn new(name: &str, mode: RunMode) -> Arm {
        Arm {
            name: name.to_string(),
            mode,
            wake_batch: 1,
            with_tcp: false,
            uplink_loss: 0.05,
            workload: None,
        }
    }
}

/// Scenario-file tag for a [`RunMode`] (`"primary-only"`, `"custom-ap"`, ...).
pub fn mode_tag(mode: RunMode) -> &'static str {
    match mode {
        RunMode::PrimaryOnly => "primary-only",
        RunMode::SecondaryOnly => "secondary-only",
        RunMode::DiversifiCustomAp => "custom-ap",
        RunMode::DiversifiMiddlebox => "middlebox",
        RunMode::EndToEndPsm => "end-to-end-psm",
    }
}

fn mode_from_tag(s: &str, path: &str) -> Result<RunMode, String> {
    match s {
        "primary-only" => Ok(RunMode::PrimaryOnly),
        "secondary-only" => Ok(RunMode::SecondaryOnly),
        "custom-ap" => Ok(RunMode::DiversifiCustomAp),
        "middlebox" => Ok(RunMode::DiversifiMiddlebox),
        "end-to-end-psm" => Ok(RunMode::EndToEndPsm),
        other => Err(format!(
            "{path}: unknown run mode {other:?} (expected \"primary-only\", \"secondary-only\", \
             \"custom-ap\", \"middlebox\" or \"end-to-end-psm\")"
        )),
    }
}

/// The client fleet: the Table 1 call-population model plus how many calls
/// the campaign simulates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fleet {
    /// Rated calls the campaign simulates.
    pub calls: u64,
    /// Number of /24 subnets in the universe.
    pub subnets: usize,
    /// Fraction of endpoints that are PC-class.
    pub pc_fraction: f64,
    /// MOS penalty for a low-end mobile device.
    pub mobile_mos_penalty: f64,
    /// Logistic steepness of the rating model.
    pub rating_steepness: f64,
    /// MOS at which a user is 50% likely to rate the call poor.
    pub rating_midpoint_mos: f64,
    /// MOS-independent floor on poor ratings.
    pub rating_floor: f64,
}

impl Default for Fleet {
    fn default() -> Fleet {
        let m = PopulationModel::default();
        Fleet {
            calls: 100_000,
            subnets: m.n_subnets,
            pc_fraction: m.pc_fraction,
            mobile_mos_penalty: m.mobile_mos_penalty,
            rating_steepness: m.rating_steepness,
            rating_midpoint_mos: m.rating_midpoint_mos,
            rating_floor: m.rating_floor,
        }
    }
}

impl Fleet {
    /// Lower into the population model + call count.
    pub fn lower(&self) -> (PopulationModel, u64) {
        (
            PopulationModel {
                n_subnets: self.subnets,
                pc_fraction: self.pc_fraction,
                mobile_mos_penalty: self.mobile_mos_penalty,
                rating_steepness: self.rating_steepness,
                rating_midpoint_mos: self.rating_midpoint_mos,
                rating_floor: self.rating_floor,
            },
            self.calls,
        )
    }
}

/// Campaign execution knobs: sharding, parallelism, checkpointing.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignSpec {
    /// Calls per shard (the checkpoint granule).
    pub shard_size: u64,
    /// Worker threads (0 = all available).
    pub threads: usize,
    /// Checkpoint directory; `None` disables checkpointing.
    pub checkpoint_dir: Option<String>,
}

impl Default for CampaignSpec {
    fn default() -> CampaignSpec {
        CampaignSpec { shard_size: 8192, threads: 0, checkpoint_dir: None }
    }
}

/// Observability knobs: the campaign flight recorder and its capture
/// trigger. The defaults (`flight_topk = 0`) keep the recorder off, and a
/// default `ObserveSpec` serializes to nothing at all — so scenarios that
/// never mention `[observe]` keep their exact pre-recorder fingerprints
/// and checkpoints.
#[derive(Clone, Debug, PartialEq)]
pub struct ObserveSpec {
    /// Keep the K worst calls for forensic capture (0 = recorder off).
    pub flight_topk: usize,
    /// Poor-call score trigger override; `None` uses the workload-native
    /// threshold (E-model poor-MOS for VoIP, the FPS QoE floor).
    pub trigger: Option<f64>,
    /// Telemetry ring capacity (events) used when re-simulating the worst
    /// calls for capture.
    pub ring: usize,
}

impl Default for ObserveSpec {
    fn default() -> ObserveSpec {
        ObserveSpec { flight_topk: 0, trigger: None, ring: 4096 }
    }
}

/// Chaos-campaign knobs: the fault-plan fuzzing budget and oracle
/// tolerances used by `repro chaos`. Like [`ObserveSpec`], the default
/// serializes to nothing, so scenarios that never mention `[chaos]` keep
/// their exact pre-chaos fingerprints and checkpoints.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosSpec {
    /// Fault plans to generate and scan.
    pub plans: u64,
    /// Plan-generation budget (horizon, spec caps, kind weights).
    pub budget: ChaosBudget,
    /// Healthy tail a fault window must leave for the unbounded-MTTR
    /// oracle to demand recovery.
    pub mttr_slack: SimDuration,
    /// Absolute residual-loss tolerance of the no-amplification oracle.
    pub tolerance: f64,
    /// Worst violations retained for shrinking.
    pub max_findings: usize,
}

impl Default for ChaosSpec {
    fn default() -> ChaosSpec {
        ChaosSpec {
            plans: 200,
            budget: ChaosBudget::default(),
            mttr_slack: SimDuration::from_secs(5),
            tolerance: 0.02,
            max_findings: 8,
        }
    }
}

/// A complete declarative experiment scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Scenario name (report labels, artifact file names).
    pub name: String,
    /// Master seed: the scenario is a pure function of `(self, seed)`.
    pub seed: u64,
    /// Venue class (shared propagation environment).
    pub venue: Venue,
    /// Primary AP.
    pub primary: ApSpec,
    /// Secondary AP.
    pub secondary: ApSpec,
    /// Traffic mix.
    pub traffic: Traffic,
    /// Client fleet (population campaign input).
    pub fleet: Fleet,
    /// Deterministic fault schedule applied to every arm.
    pub faults: FaultPlan,
    /// Experiment arms (closed-loop world runs).
    pub arms: Vec<Arm>,
    /// Campaign execution knobs.
    pub campaign: CampaignSpec,
    /// Observability knobs (flight recorder).
    pub observe: ObserveSpec,
    /// Chaos-campaign knobs (`repro chaos`).
    pub chaos: ChaosSpec,
}

impl Scenario {
    /// A new scenario with the office testbed defaults and no arms.
    pub fn new(name: &str, seed: u64) -> Scenario {
        Scenario {
            name: name.to_string(),
            seed,
            venue: Venue::Office,
            primary: ApSpec::new(Channel::CH1, 14.0, LinkQuality::Good),
            secondary: ApSpec::new(Channel::CH11, 24.0, LinkQuality::Marginal),
            traffic: Traffic::Voip,
            fleet: Fleet::default(),
            faults: FaultPlan::none(),
            arms: Vec::new(),
            campaign: CampaignSpec::default(),
            observe: ObserveSpec::default(),
            chaos: ChaosSpec::default(),
        }
    }

    // ------------------------------------------------------------ presets

    /// The §6 testbed default: decent primary, marginal far secondary,
    /// with the three paired evaluation arms.
    pub fn testbed(name: &str, seed: u64) -> Scenario {
        let mut s = Scenario::new(name, seed);
        s.arms = vec![
            Arm::new("primary-only", RunMode::PrimaryOnly),
            Arm::new("secondary-only", RunMode::SecondaryOnly),
            Arm::new("diversifi", RunMode::DiversifiCustomAp),
        ];
        s
    }

    // ----------------------------------------------------------- lowering

    /// Lower one arm into a full [`WorldConfig`].
    pub fn world_config(&self, arm: &Arm) -> WorldConfig {
        let mut cfg = WorldConfig::testbed(self.primary.lower(self.venue), self.secondary.lower(self.venue));
        cfg.spec = self.traffic.lower();
        cfg.set_workload(self.traffic.workload());
        cfg.mode = arm.mode;
        cfg.wake_batch = arm.wake_batch;
        cfg.with_tcp = arm.with_tcp;
        cfg.uplink_loss = arm.uplink_loss;
        cfg.faults = self.faults.clone();
        cfg
    }

    /// Lower into a §4 two-NIC scenario (traffic + both links; arms and
    /// fleet do not apply).
    pub fn two_nic(&self) -> TwoNicScenario {
        TwoNicScenario::new(
            self.traffic.lower(),
            self.primary.lower(self.venue),
            self.secondary.lower(self.venue),
        )
    }

    /// Lower the fleet into the population model + call count.
    pub fn population(&self) -> (PopulationModel, u64) {
        self.fleet.lower()
    }

    /// Build the campaign engine config for the fleet campaign. The
    /// campaign fingerprint pins checkpoints to this scenario's outcomes:
    /// a checkpoint directory holding shards from a different scenario (or
    /// an edited one) is discarded, never merged.
    pub fn campaign_config(&self) -> CampaignConfig {
        let mut cfg = CampaignConfig::new(self.fleet.calls);
        cfg.shard_size = self.campaign.shard_size.max(1);
        cfg.threads = self.campaign.threads;
        cfg.checkpoint_dir = self.campaign.checkpoint_dir.as_ref().map(PathBuf::from);
        cfg.config_fingerprint = self.campaign_fingerprint();
        cfg.flight_k = self.observe.flight_topk;
        cfg
    }

    /// The fingerprint of every field that can decide a campaign's
    /// outcome: the scenario's own, without `[campaign] threads` and
    /// `checkpoint_dir`. The merged digest does not depend on either, so a
    /// campaign resumed at another thread count, or from checkpoints moved
    /// to another directory, reuses every shard. Any other edit, even a
    /// cosmetic one, costs a re-run rather than risking a wrong merge.
    pub fn campaign_fingerprint(&self) -> u64 {
        let mut outcome = self.clone();
        outcome.campaign.threads = 0;
        outcome.campaign.checkpoint_dir = None;
        outcome.fingerprint()
    }

    /// FNV-1a fingerprint of the canonical (JSON) serialization.
    pub fn fingerprint(&self) -> u64 {
        let text = serde_json::to_string(&self.to_value())
            .expect("scenario serialization cannot fail");
        let mut h = Fnv::new();
        h.write(text.as_bytes());
        h.finish()
    }

    // ------------------------------------------------------------ parsing

    /// Parse a scenario from JSON text.
    pub fn from_json(text: &str) -> Result<Scenario, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| format!("scenario: {e}"))?;
        Scenario::from_value_at(&v, "scenario")
    }

    /// Parse a scenario from the vendored TOML subset.
    pub fn from_toml(text: &str) -> Result<Scenario, String> {
        let v = toml::parse_str(text).map_err(|e| format!("scenario: {e}"))?;
        Scenario::from_value_at(&v, "scenario")
    }

    /// Parse from text, dispatching on the file extension (`.toml` uses
    /// the TOML front-end, everything else JSON).
    pub fn from_file_text(text: &str, path: &str) -> Result<Scenario, String> {
        if path.ends_with(".toml") {
            Scenario::from_toml(text)
        } else {
            Scenario::from_json(text)
        }
    }

    /// Parse from a [`Value`] tree with field-path error context rooted at
    /// `path`.
    pub fn from_value_at(v: &Value, path: &str) -> Result<Scenario, String> {
        let obj = Obj::new(
            v,
            path,
            &[
                "name", "seed", "venue", "deployment", "traffic", "fleet", "faults", "arms",
                "campaign", "observe", "chaos",
            ],
        )?;
        let name = obj.req_str("name")?.to_string();
        let seed = obj.opt_u64("seed")?.unwrap_or(0);
        let venue = match obj.get("venue") {
            Some((v, p)) => Venue::from_tag(want_str(v, &p)?, &p)?,
            None => Venue::Office,
        };
        let default = Scenario::new(&name, seed);
        let (primary, secondary) = match obj.get("deployment") {
            Some((v, p)) => {
                let dep = Obj::new(v, &p, &["primary", "secondary"])?;
                let (pv, pp) = dep.req("primary")?;
                let (sv, sp) = dep.req("secondary")?;
                (parse_ap(pv, &pp)?, parse_ap(sv, &sp)?)
            }
            None => (default.primary, default.secondary),
        };
        let traffic = match obj.get("traffic") {
            Some((v, p)) => parse_traffic(v, &p)?,
            None => Traffic::Voip,
        };
        let fleet = match obj.get("fleet") {
            Some((v, p)) => parse_fleet(v, &p)?,
            None => Fleet::default(),
        };
        let faults = match obj.get("faults") {
            Some((v, p)) => FaultPlan::from_value(v).map_err(|e| format!("{p}: {e}"))?,
            None => FaultPlan::none(),
        };
        let arms = match obj.get("arms") {
            Some((v, p)) => {
                let items = want_array(v, &p)?;
                let mut arms = Vec::with_capacity(items.len());
                for (i, item) in items.iter().enumerate() {
                    arms.push(parse_arm(item, &format!("{p}[{i}]"))?);
                }
                arms
            }
            None => Vec::new(),
        };
        let campaign = match obj.get("campaign") {
            Some((v, p)) => parse_campaign(v, &p)?,
            None => CampaignSpec::default(),
        };
        let observe = match obj.get("observe") {
            Some((v, p)) => parse_observe(v, &p)?,
            None => ObserveSpec::default(),
        };
        let chaos = match obj.get("chaos") {
            Some((v, p)) => parse_chaos(v, &p)?,
            None => ChaosSpec::default(),
        };
        // An arm naming a workload the traffic section doesn't define is a
        // deployment bug — reject it here, with the full field path, so
        // `repro validate` fails loudly instead of silently
        // lowering the arm onto a different workload.
        for (i, arm) in arms.iter().enumerate() {
            if let Some(w) = &arm.workload {
                if w != traffic.workload_name() {
                    return Err(format!(
                        "{path}.arms[{i}].workload: names workload {w:?} but scenario.traffic \
                         defines only {:?}",
                        traffic.workload_name()
                    ));
                }
            }
        }
        Ok(Scenario {
            name,
            seed,
            venue,
            primary,
            secondary,
            traffic,
            fleet,
            faults,
            arms,
            campaign,
            observe,
            chaos,
        })
    }

    // ------------------------------------------------------ serialization

    /// Render into a [`Value`] tree; every field is written, so parsing it
    /// back yields an identical scenario.
    pub fn to_value(&self) -> Value {
        let ap = |a: &ApSpec| {
            Value::Object(vec![
                ("channel".into(), Value::Str(channel_tag(a.channel))),
                ("distance_m".into(), Value::F64(a.distance_m)),
                ("quality".into(), Value::Str(a.quality.tag().into())),
                ("tx_power_dbm".into(), Value::F64(a.tx_power_dbm)),
                ("diversity_order".into(), Value::U64(u64::from(a.diversity_order))),
            ])
        };
        let traffic = match self.traffic {
            Traffic::Voip => Value::Object(vec![("mix".into(), Value::Str("voip".into()))]),
            Traffic::HighRate => Value::Object(vec![("mix".into(), Value::Str("high-rate".into()))]),
            Traffic::Custom { packet_bytes, interval_us, duration_ms } => Value::Object(vec![
                ("mix".into(), Value::Str("custom".into())),
                ("packet_bytes".into(), Value::U64(u64::from(packet_bytes))),
                ("interval_us".into(), Value::U64(interval_us)),
                ("duration_ms".into(), Value::U64(duration_ms)),
            ]),
            // The workload object replaces `mix` entirely; VoIP-scored
            // mixes above never write a `workload` key, which keeps the
            // canonical form — and hence every existing scenario
            // fingerprint and campaign checkpoint — byte-identical.
            Traffic::Fps(f) => Value::Object(vec![(
                "workload".into(),
                Value::Object(vec![
                    ("kind".into(), Value::Str("fps".into())),
                    ("tick_ms".into(), Value::U64(f.tick.as_millis())),
                    ("state_bytes".into(), Value::U64(u64::from(f.state_bytes))),
                    ("input_bytes".into(), Value::U64(u64::from(f.input_bytes))),
                    ("duration_ms".into(), Value::U64(f.duration.as_millis())),
                    ("deadline_ms".into(), Value::U64(f.deadline.as_millis())),
                    ("input_deadline_ms".into(), Value::U64(f.input_deadline.as_millis())),
                    ("window_ms".into(), Value::U64(f.window.as_millis())),
                ]),
            )]),
        };
        let arms = self
            .arms
            .iter()
            .map(|a| {
                let mut fields = vec![
                    ("name".into(), Value::Str(a.name.clone())),
                    ("mode".into(), Value::Str(mode_tag(a.mode).into())),
                    ("wake_batch".into(), Value::U64(a.wake_batch as u64)),
                    ("with_tcp".into(), Value::Bool(a.with_tcp)),
                    ("uplink_loss".into(), Value::F64(a.uplink_loss)),
                ];
                if let Some(w) = &a.workload {
                    fields.push(("workload".into(), Value::Str(w.clone())));
                }
                Value::Object(fields)
            })
            .collect();
        let mut campaign = vec![
            ("shard_size".into(), Value::U64(self.campaign.shard_size)),
            ("threads".into(), Value::U64(self.campaign.threads as u64)),
        ];
        if let Some(dir) = &self.campaign.checkpoint_dir {
            campaign.push(("checkpoint_dir".into(), Value::Str(dir.clone())));
        }
        let mut root = Value::Object(vec![
            ("name".into(), Value::Str(self.name.clone())),
            ("seed".into(), Value::U64(self.seed)),
            ("venue".into(), Value::Str(self.venue.tag().into())),
            (
                "deployment".into(),
                Value::Object(vec![
                    ("primary".into(), ap(&self.primary)),
                    ("secondary".into(), ap(&self.secondary)),
                ]),
            ),
            ("traffic".into(), traffic),
            (
                "fleet".into(),
                Value::Object(vec![
                    ("calls".into(), Value::U64(self.fleet.calls)),
                    ("subnets".into(), Value::U64(self.fleet.subnets as u64)),
                    ("pc_fraction".into(), Value::F64(self.fleet.pc_fraction)),
                    ("mobile_mos_penalty".into(), Value::F64(self.fleet.mobile_mos_penalty)),
                    ("rating_steepness".into(), Value::F64(self.fleet.rating_steepness)),
                    ("rating_midpoint_mos".into(), Value::F64(self.fleet.rating_midpoint_mos)),
                    ("rating_floor".into(), Value::F64(self.fleet.rating_floor)),
                ]),
            ),
            ("faults".into(), self.faults.to_value()),
            ("arms".into(), Value::Array(arms)),
            ("campaign".into(), Value::Object(campaign)),
        ]);
        // A default observe section serializes to nothing: scenarios that
        // never mention the recorder keep their exact pre-recorder
        // canonical form, fingerprint, and checkpoints.
        if self.observe != ObserveSpec::default() {
            let mut observe = vec![("flight_topk".into(), Value::U64(self.observe.flight_topk as u64))];
            if let Some(t) = self.observe.trigger {
                observe.push(("trigger".into(), Value::F64(t)));
            }
            observe.push(("ring".into(), Value::U64(self.observe.ring as u64)));
            if let Value::Object(fields) = &mut root {
                fields.push(("observe".into(), Value::Object(observe)));
            }
        }
        // Same pact for the chaos section: never mentioned ⇒ never
        // serialized ⇒ pre-chaos fingerprints survive this feature.
        if self.chaos != ChaosSpec::default() {
            let c = &self.chaos;
            let weights =
                c.budget.weights.iter().map(|w| Value::U64(u64::from(*w))).collect();
            let chaos = vec![
                ("plans".into(), Value::U64(c.plans)),
                ("horizon_ms".into(), Value::U64(c.budget.horizon.as_millis())),
                ("max_specs".into(), Value::U64(c.budget.max_specs as u64)),
                ("max_concurrent".into(), Value::U64(c.budget.max_concurrent as u64)),
                ("max_outage_frac".into(), Value::F64(c.budget.max_outage_frac)),
                ("weights".into(), Value::Array(weights)),
                ("mttr_slack_ms".into(), Value::U64(c.mttr_slack.as_millis())),
                ("tolerance".into(), Value::F64(c.tolerance)),
                ("max_findings".into(), Value::U64(c.max_findings as u64)),
            ];
            if let Value::Object(fields) = &mut root {
                fields.push(("chaos".into(), Value::Object(chaos)));
            }
        }
        root
    }

    /// Canonical pretty-JSON text of the scenario.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(&self.to_value()).expect("scenario serialization cannot fail")
    }
}

// ----------------------------------------------------- component parsers

fn parse_ap(v: &Value, path: &str) -> Result<ApSpec, String> {
    let obj = Obj::new(v, path, &["channel", "distance_m", "quality", "tx_power_dbm", "diversity_order"])?;
    let (cv, cp) = obj.req("channel")?;
    let channel = parse_channel(want_str(cv, &cp)?, &cp)?;
    let distance_m = obj.req_f64("distance_m")?;
    if distance_m <= 0.0 {
        return Err(format!("{path}.distance_m: must be > 0, got {distance_m}"));
    }
    let quality = match obj.get("quality") {
        Some((v, p)) => LinkQuality::from_tag(want_str(v, &p)?, &p)?,
        None => LinkQuality::Good,
    };
    let tx_power_dbm = obj.opt_f64("tx_power_dbm")?.unwrap_or(16.0);
    let diversity_order = match obj.opt_u64("diversity_order")?.unwrap_or(1) {
        d @ 1..=8 => d as u8,
        d => return Err(format!("{path}.diversity_order: must be 1..=8, got {d}")),
    };
    Ok(ApSpec { channel, distance_m, quality, tx_power_dbm, diversity_order })
}

fn parse_traffic(v: &Value, path: &str) -> Result<Traffic, String> {
    let obj = Obj::new(
        v,
        path,
        &["mix", "packet_bytes", "interval_us", "duration_ms", "workload"],
    )?;
    let workload = match obj.get("workload") {
        Some((wv, wp)) => Some(parse_workload(wv, &wp)?),
        None => None,
    };
    if let Some(WorkloadKind::Fps(cfg)) = workload {
        // The FPS workload defines its own downlink stream; a mix (or any
        // custom-stream knob) alongside it is a contradiction.
        for key in ["mix", "packet_bytes", "interval_us", "duration_ms"] {
            if obj.get(key).is_some() {
                return Err(format!(
                    "{path}.{key}: not allowed when workload kind is \"fps\" \
                     (the FPS workload defines its own downlink stream)"
                ));
            }
        }
        return Ok(Traffic::Fps(cfg));
    }
    let mix = obj.req_str("mix")?;
    match mix {
        "voip" => Ok(Traffic::Voip),
        "high-rate" => Ok(Traffic::HighRate),
        "custom" => {
            let packet_bytes = obj.req_u64("packet_bytes")?;
            if packet_bytes == 0 || packet_bytes > 65_000 {
                return Err(format!("{path}.packet_bytes: must be 1..=65000, got {packet_bytes}"));
            }
            let interval_us = obj.req_u64("interval_us")?;
            if interval_us == 0 {
                return Err(format!("{path}.interval_us: must be > 0"));
            }
            let duration_ms = obj.req_u64("duration_ms")?;
            if duration_ms == 0 {
                return Err(format!("{path}.duration_ms: must be > 0"));
            }
            Ok(Traffic::Custom { packet_bytes: packet_bytes as u32, interval_us, duration_ms })
        }
        other => Err(format!(
            "{path}.mix: unknown traffic mix {other:?} (expected \"voip\", \"high-rate\" or \"custom\")"
        )),
    }
}

/// Parse `[traffic.workload]`: `kind = "voip"` (no knobs) or
/// `kind = "fps"` with per-tick knobs defaulting to the office preset.
fn parse_workload(v: &Value, path: &str) -> Result<WorkloadKind, String> {
    const FPS_KEYS: [&str; 7] = [
        "tick_ms",
        "state_bytes",
        "input_bytes",
        "duration_ms",
        "deadline_ms",
        "input_deadline_ms",
        "window_ms",
    ];
    let obj = Obj::new(
        v,
        path,
        &["kind", "tick_ms", "state_bytes", "input_bytes", "duration_ms", "deadline_ms", "input_deadline_ms", "window_ms"],
    )?;
    match obj.req_str("kind")? {
        "voip" => {
            for key in FPS_KEYS {
                if let Some((_, p)) = obj.get(key) {
                    return Err(format!("{p}: only allowed when kind is \"fps\""));
                }
            }
            Ok(WorkloadKind::Voip)
        }
        "fps" => {
            let d = FpsConfig::office();
            let tick_ms = obj.opt_u64("tick_ms")?.unwrap_or(d.tick.as_millis());
            if !(1..=1000).contains(&tick_ms) {
                return Err(format!("{path}.tick_ms: must be 1..=1000, got {tick_ms}"));
            }
            let state_bytes = obj.opt_u64("state_bytes")?.unwrap_or(u64::from(d.state_bytes));
            if state_bytes == 0 || state_bytes > 65_000 {
                return Err(format!("{path}.state_bytes: must be 1..=65000, got {state_bytes}"));
            }
            let input_bytes = obj.opt_u64("input_bytes")?.unwrap_or(u64::from(d.input_bytes));
            if input_bytes == 0 || input_bytes > 65_000 {
                return Err(format!("{path}.input_bytes: must be 1..=65000, got {input_bytes}"));
            }
            let duration_ms = obj.opt_u64("duration_ms")?.unwrap_or(d.duration.as_millis());
            if duration_ms == 0 {
                return Err(format!("{path}.duration_ms: must be > 0"));
            }
            let deadline_ms = obj.opt_u64("deadline_ms")?.unwrap_or(d.deadline.as_millis());
            if deadline_ms == 0 {
                return Err(format!("{path}.deadline_ms: must be > 0"));
            }
            let input_deadline_ms =
                obj.opt_u64("input_deadline_ms")?.unwrap_or(d.input_deadline.as_millis());
            if input_deadline_ms == 0 {
                return Err(format!("{path}.input_deadline_ms: must be > 0"));
            }
            let window_ms = obj.opt_u64("window_ms")?.unwrap_or(d.window.as_millis());
            if window_ms < tick_ms {
                return Err(format!(
                    "{path}.window_ms: must be >= tick_ms ({tick_ms}), got {window_ms}"
                ));
            }
            Ok(WorkloadKind::Fps(FpsConfig {
                tick: SimDuration::from_millis(tick_ms),
                state_bytes: state_bytes as u32,
                input_bytes: input_bytes as u32,
                duration: SimDuration::from_millis(duration_ms),
                deadline: SimDuration::from_millis(deadline_ms),
                input_deadline: SimDuration::from_millis(input_deadline_ms),
                window: SimDuration::from_millis(window_ms),
            }))
        }
        other => Err(format!(
            "{path}.kind: unknown workload kind {other:?} (expected \"voip\" or \"fps\")"
        )),
    }
}

fn parse_fleet(v: &Value, path: &str) -> Result<Fleet, String> {
    let obj = Obj::new(
        v,
        path,
        &[
            "calls",
            "subnets",
            "pc_fraction",
            "mobile_mos_penalty",
            "rating_steepness",
            "rating_midpoint_mos",
            "rating_floor",
        ],
    )?;
    let d = Fleet::default();
    let fleet = Fleet {
        calls: obj.opt_u64("calls")?.unwrap_or(d.calls),
        subnets: obj.opt_u64("subnets")?.unwrap_or(d.subnets as u64) as usize,
        pc_fraction: obj.opt_f64("pc_fraction")?.unwrap_or(d.pc_fraction),
        mobile_mos_penalty: obj.opt_f64("mobile_mos_penalty")?.unwrap_or(d.mobile_mos_penalty),
        rating_steepness: obj.opt_f64("rating_steepness")?.unwrap_or(d.rating_steepness),
        rating_midpoint_mos: obj.opt_f64("rating_midpoint_mos")?.unwrap_or(d.rating_midpoint_mos),
        rating_floor: obj.opt_f64("rating_floor")?.unwrap_or(d.rating_floor),
    };
    if fleet.subnets == 0 {
        return Err(format!("{path}.subnets: must be > 0"));
    }
    for (key, x) in [
        ("pc_fraction", fleet.pc_fraction),
        ("rating_floor", fleet.rating_floor),
    ] {
        if !(0.0..=1.0).contains(&x) {
            return Err(format!("{path}.{key}: must be within [0, 1], got {x}"));
        }
    }
    Ok(fleet)
}

fn parse_arm(v: &Value, path: &str) -> Result<Arm, String> {
    let obj = Obj::new(v, path, &["name", "mode", "wake_batch", "with_tcp", "uplink_loss", "workload"])?;
    let (mv, mp) = obj.req("mode")?;
    let mode = mode_from_tag(want_str(mv, &mp)?, &mp)?;
    let name = match obj.get("name") {
        Some((v, p)) => want_str(v, &p)?.to_string(),
        None => mode_tag(mode).to_string(),
    };
    let wake_batch = obj.opt_u64("wake_batch")?.unwrap_or(1);
    if wake_batch == 0 || wake_batch > 64 {
        return Err(format!("{path}.wake_batch: must be 1..=64, got {wake_batch}"));
    }
    let with_tcp = match obj.get("with_tcp") {
        Some((v, p)) => want_bool(v, &p)?,
        None => false,
    };
    let uplink_loss = obj.opt_f64("uplink_loss")?.unwrap_or(0.05);
    if !(0.0..1.0).contains(&uplink_loss) {
        return Err(format!("{path}.uplink_loss: must be within [0, 1), got {uplink_loss}"));
    }
    let workload = match obj.get("workload") {
        Some((v, p)) => Some(want_str(v, &p)?.to_string()),
        None => None,
    };
    Ok(Arm { name, mode, wake_batch: wake_batch as usize, with_tcp, uplink_loss, workload })
}

fn parse_campaign(v: &Value, path: &str) -> Result<CampaignSpec, String> {
    let obj = Obj::new(v, path, &["shard_size", "threads", "checkpoint_dir"])?;
    let d = CampaignSpec::default();
    let shard_size = obj.opt_u64("shard_size")?.unwrap_or(d.shard_size);
    if shard_size == 0 {
        return Err(format!("{path}.shard_size: must be > 0"));
    }
    let threads = obj.opt_u64("threads")?.unwrap_or(0);
    if threads > 1024 {
        return Err(format!("{path}.threads: must be 0 (= all) ..= 1024, got {threads}"));
    }
    let checkpoint_dir = match obj.get("checkpoint_dir") {
        Some((v, p)) => Some(want_str(v, &p)?.to_string()),
        None => None,
    };
    Ok(CampaignSpec { shard_size, threads: threads as usize, checkpoint_dir })
}

fn parse_observe(v: &Value, path: &str) -> Result<ObserveSpec, String> {
    let obj = Obj::new(v, path, &["flight_topk", "trigger", "ring"])?;
    let d = ObserveSpec::default();
    let flight_topk = obj.opt_u64("flight_topk")?.unwrap_or(d.flight_topk as u64);
    if flight_topk > 4096 {
        return Err(format!("{path}.flight_topk: must be 0 (= off) ..= 4096, got {flight_topk}"));
    }
    let trigger = match obj.opt_f64("trigger")? {
        Some(t) => {
            if !t.is_finite() {
                return Err(format!("{path}.trigger: must be finite, got {t}"));
            }
            Some(t)
        }
        None => None,
    };
    let ring = obj.opt_u64("ring")?.unwrap_or(d.ring as u64);
    if !(16..=1_048_576).contains(&ring) {
        return Err(format!("{path}.ring: must be 16 ..= 1048576 events, got {ring}"));
    }
    Ok(ObserveSpec { flight_topk: flight_topk as usize, trigger, ring: ring as usize })
}

fn parse_chaos(v: &Value, path: &str) -> Result<ChaosSpec, String> {
    let obj = Obj::new(
        v,
        path,
        &[
            "plans", "horizon_ms", "max_specs", "max_concurrent", "max_outage_frac", "weights",
            "mttr_slack_ms", "tolerance", "max_findings",
        ],
    )?;
    let d = ChaosSpec::default();
    let plans = obj.opt_u64("plans")?.unwrap_or(d.plans);
    if plans == 0 || plans > 10_000_000 {
        return Err(format!("{path}.plans: must be 1..=10000000, got {plans}"));
    }
    let horizon_ms = obj.opt_u64("horizon_ms")?.unwrap_or(d.budget.horizon.as_millis());
    if !(1_000..=600_000).contains(&horizon_ms) {
        return Err(format!("{path}.horizon_ms: must be 1000..=600000, got {horizon_ms}"));
    }
    let mut budget = ChaosBudget::for_horizon(SimDuration::from_millis(horizon_ms));
    let max_specs = obj.opt_u64("max_specs")?.unwrap_or(budget.max_specs as u64);
    if !(1..=32).contains(&max_specs) {
        return Err(format!("{path}.max_specs: must be 1..=32, got {max_specs}"));
    }
    budget.max_specs = max_specs as usize;
    let max_concurrent = obj.opt_u64("max_concurrent")?.unwrap_or(budget.max_concurrent as u64);
    if !(1..=32).contains(&max_concurrent) {
        return Err(format!("{path}.max_concurrent: must be 1..=32, got {max_concurrent}"));
    }
    budget.max_concurrent = max_concurrent as usize;
    if let Some(f) = obj.opt_f64("max_outage_frac")? {
        if !(0.0..=1.0).contains(&f) {
            return Err(format!("{path}.max_outage_frac: must be within [0, 1], got {f}"));
        }
        budget.max_outage_frac = f;
    }
    if let Some((v, p)) = obj.get("weights") {
        let items = want_array(v, &p)?;
        if items.len() != budget.weights.len() {
            return Err(format!(
                "{p}: expected {} per-kind weights, got {}",
                budget.weights.len(),
                items.len()
            ));
        }
        let mut total = 0u64;
        for (i, item) in items.iter().enumerate() {
            let w = want_u64(item, &format!("{p}[{i}]"))?;
            if w > 1_000_000 {
                return Err(format!("{p}[{i}]: must be <= 1000000, got {w}"));
            }
            budget.weights[i] = w as u32;
            total += w;
        }
        if total == 0 {
            return Err(format!("{p}: at least one weight must be > 0"));
        }
    }
    let mttr_slack_ms = obj.opt_u64("mttr_slack_ms")?.unwrap_or(d.mttr_slack.as_millis());
    let tolerance = obj.opt_f64("tolerance")?.unwrap_or(d.tolerance);
    if !(0.0..=1.0).contains(&tolerance) {
        return Err(format!("{path}.tolerance: must be within [0, 1], got {tolerance}"));
    }
    let max_findings = obj.opt_u64("max_findings")?.unwrap_or(d.max_findings as u64);
    if !(1..=4096).contains(&max_findings) {
        return Err(format!("{path}.max_findings: must be 1..=4096, got {max_findings}"));
    }
    Ok(ChaosSpec {
        plans,
        budget,
        mttr_slack: SimDuration::from_millis(mttr_slack_ms),
        tolerance,
        max_findings: max_findings as usize,
    })
}

/// Render a channel as the scenario-file string form (`"2.4/1"`, `"5/36"`).
pub fn channel_tag(ch: Channel) -> String {
    match ch.band {
        Band::Ghz2_4 => format!("2.4/{}", ch.number),
        Band::Ghz5 => format!("5/{}", ch.number),
    }
}

/// Parse the `"band/number"` channel string form.
pub fn parse_channel(s: &str, path: &str) -> Result<Channel, String> {
    let (band, num) = s
        .split_once('/')
        .ok_or_else(|| format!("{path}: expected \"band/number\" (e.g. \"2.4/1\" or \"5/36\"), got {s:?}"))?;
    let number: u8 = num
        .parse()
        .map_err(|_| format!("{path}: channel number {num:?} is not a small integer"))?;
    match band {
        "2.4" => {
            if !(1..=13).contains(&number) {
                return Err(format!("{path}: 2.4 GHz channels are 1..=13, got {number}"));
            }
            Ok(Channel::ghz2_4(number))
        }
        "5" => {
            if !(36..=177).contains(&number) {
                return Err(format!("{path}: 5 GHz channels are 36..=177, got {number}"));
            }
            Ok(Channel::ghz5(number))
        }
        other => Err(format!("{path}: unknown band {other:?} (expected \"2.4\" or \"5\")")),
    }
}

// ------------------------------------------------- path-tracking decoder

/// One object scope of the decoder: holds the field list, its path, and
/// rejects unknown keys up front so typos fail loudly.
struct Obj<'a> {
    path: String,
    fields: &'a [(String, Value)],
}

impl<'a> Obj<'a> {
    fn new(v: &'a Value, path: &str, allowed: &[&str]) -> Result<Obj<'a>, String> {
        let fields = want_object(v, path)?;
        for (k, _) in fields {
            if !allowed.contains(&k.as_str()) {
                return Err(format!(
                    "{path}.{k}: unknown field (expected one of: {})",
                    allowed.join(", ")
                ));
            }
        }
        Ok(Obj { path: path.to_string(), fields })
    }

    fn get(&self, key: &str) -> Option<(&'a Value, String)> {
        serde::get_field(self.fields, key).map(|v| (v, format!("{}.{key}", self.path)))
    }

    fn req(&self, key: &str) -> Result<(&'a Value, String), String> {
        self.get(key)
            .ok_or_else(|| format!("{}.{key}: missing required field", self.path))
    }

    fn req_str(&self, key: &str) -> Result<&'a str, String> {
        let (v, p) = self.req(key)?;
        want_str(v, &p)
    }

    fn req_f64(&self, key: &str) -> Result<f64, String> {
        let (v, p) = self.req(key)?;
        want_f64(v, &p)
    }

    fn req_u64(&self, key: &str) -> Result<u64, String> {
        let (v, p) = self.req(key)?;
        want_u64(v, &p)
    }

    fn opt_f64(&self, key: &str) -> Result<Option<f64>, String> {
        self.get(key).map(|(v, p)| want_f64(v, &p)).transpose()
    }

    fn opt_u64(&self, key: &str) -> Result<Option<u64>, String> {
        self.get(key).map(|(v, p)| want_u64(v, &p)).transpose()
    }
}

fn kind_name(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "a bool",
        Value::I64(_) | Value::U64(_) => "an integer",
        Value::F64(_) => "a float",
        Value::Str(_) => "a string",
        Value::Array(_) => "an array",
        Value::Object(_) => "an object",
    }
}

fn want_object<'a>(v: &'a Value, path: &str) -> Result<&'a [(String, Value)], String> {
    v.as_object()
        .ok_or_else(|| format!("{path}: expected an object, got {}", kind_name(v)))
}

fn want_array<'a>(v: &'a Value, path: &str) -> Result<&'a [Value], String> {
    v.as_array()
        .ok_or_else(|| format!("{path}: expected an array, got {}", kind_name(v)))
}

fn want_str<'a>(v: &'a Value, path: &str) -> Result<&'a str, String> {
    v.as_str()
        .ok_or_else(|| format!("{path}: expected a string, got {}", kind_name(v)))
}

fn want_f64(v: &Value, path: &str) -> Result<f64, String> {
    let x = v
        .as_f64()
        .ok_or_else(|| format!("{path}: expected a number, got {}", kind_name(v)))?;
    if !x.is_finite() {
        return Err(format!("{path}: expected a finite number"));
    }
    Ok(x)
}

fn want_u64(v: &Value, path: &str) -> Result<u64, String> {
    v.as_u64()
        .ok_or_else(|| format!("{path}: expected a non-negative integer, got {}", kind_name(v)))
}

fn want_bool(v: &Value, path: &str) -> Result<bool, String> {
    match v {
        Value::Bool(b) => Ok(*b),
        other => Err(format!("{path}: expected a bool, got {}", kind_name(other))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOML_SCENARIO: &str = r#"
        name = "office-demo"
        seed = 42
        venue = "office"

        [deployment.primary]
        channel = "2.4/1"
        distance_m = 14.0
        quality = "good"

        [deployment.secondary]
        channel = "2.4/11"
        distance_m = 24.0
        quality = "marginal"

        [traffic]
        mix = "voip"

        [fleet]
        calls = 50000
        subnets = 400

        [[arms]]
        name = "baseline"
        mode = "primary-only"

        [[arms]]
        name = "diversifi"
        mode = "custom-ap"
        wake_batch = 2

        [campaign]
        shard_size = 4096
        threads = 2
    "#;

    #[test]
    fn toml_and_json_front_ends_agree() {
        let from_toml = Scenario::from_toml(TOML_SCENARIO).unwrap();
        let json = from_toml.to_json_pretty();
        let from_json = Scenario::from_json(&json).unwrap();
        assert_eq!(from_toml, from_json);
        assert_eq!(from_toml.fingerprint(), from_json.fingerprint());
    }

    #[test]
    fn observe_section_round_trips_and_defaults_serialize_to_nothing() {
        // No [observe] section: the recorder defaults off and the
        // canonical form never mentions it — pre-recorder fingerprints
        // are untouched.
        let plain = Scenario::from_toml(TOML_SCENARIO).unwrap();
        assert_eq!(plain.observe, ObserveSpec::default());
        assert!(!plain.to_json_pretty().contains("observe"));
        assert_eq!(plain.campaign_config().flight_k, 0);

        let with_observe = format!(
            "{TOML_SCENARIO}\n[observe]\nflight_topk = 8\ntrigger = 3.5\nring = 2048\n"
        );
        let s = Scenario::from_toml(&with_observe).unwrap();
        assert_eq!(
            s.observe,
            ObserveSpec { flight_topk: 8, trigger: Some(3.5), ring: 2048 }
        );
        assert_eq!(s.campaign_config().flight_k, 8);
        assert_ne!(s.fingerprint(), plain.fingerprint());
        let back = Scenario::from_value_at(&s.to_value(), "scenario").unwrap();
        assert_eq!(s, back);
        assert_eq!(s.fingerprint(), back.fingerprint());
    }

    #[test]
    fn observe_section_errors_carry_field_paths() {
        let bad_key = format!("{TOML_SCENARIO}\n[observe]\nflight_top = 8\n");
        let err = Scenario::from_toml(&bad_key).unwrap_err();
        assert!(err.contains("scenario.observe.flight_top"), "{err}");

        let bad_k = format!("{TOML_SCENARIO}\n[observe]\nflight_topk = 5000\n");
        let err = Scenario::from_toml(&bad_k).unwrap_err();
        assert!(err.contains("scenario.observe.flight_topk"), "{err}");

        let bad_ring = format!("{TOML_SCENARIO}\n[observe]\nring = 4\n");
        let err = Scenario::from_toml(&bad_ring).unwrap_err();
        assert!(err.contains("scenario.observe.ring"), "{err}");
    }

    #[test]
    fn round_trip_is_idempotent() {
        let s = Scenario::from_toml(TOML_SCENARIO).unwrap();
        let v1 = s.to_value();
        let s2 = Scenario::from_value_at(&v1, "scenario").unwrap();
        let v2 = s2.to_value();
        assert_eq!(s, s2);
        assert_eq!(
            serde_json::to_string(&v1).unwrap(),
            serde_json::to_string(&v2).unwrap()
        );
    }

    #[test]
    fn lowering_matches_hand_coded_testbed() {
        let s = Scenario::testbed("t", 7);
        let arm = &s.arms[2];
        let cfg = s.world_config(arm);
        let reference = WorldConfig::testbed(
            LinkConfig::office(Channel::CH1, 14.0),
            {
                let mut l = LinkConfig::office(Channel::CH11, 24.0);
                l.ge = LinkQuality::Marginal.ge_params();
                l
            },
        );
        assert_eq!(cfg.mode, RunMode::DiversifiCustomAp);
        assert_eq!(cfg.primary.distance_m, reference.primary.distance_m);
        assert_eq!(cfg.primary.ge, reference.primary.ge);
        assert_eq!(cfg.secondary.ge, reference.secondary.ge);
        assert_eq!(cfg.spec.packet_bytes, reference.spec.packet_bytes);
        assert_eq!(cfg.wake_batch, 1);
    }

    #[test]
    fn ap_specs_lower_to_twonic_hand_setup() {
        let mut scn = Scenario::new("s", 1);
        scn.primary = ApSpec::new(Channel::CH1, 10.0, LinkQuality::Good);
        scn.secondary = ApSpec::new(Channel::CH11, 14.0, LinkQuality::Good);
        let two = scn.two_nic();
        assert_eq!(two.link_a.channel, Channel::CH1);
        assert_eq!(two.link_a.distance_m, 10.0);
        assert_eq!(two.link_a.ge, GeParams::good_link());
        assert_eq!(two.link_b.channel, Channel::CH11);
        assert_eq!(two.link_b.distance_m, 14.0);
    }

    #[test]
    fn errors_carry_field_paths() {
        let bad_mode = r#"{"name": "x", "arms": [{"mode": "primary-only"}, {"mode": "divirsifi"}]}"#;
        let err = Scenario::from_json(bad_mode).unwrap_err();
        assert!(err.starts_with("scenario.arms[1].mode:"), "{err}");

        let bad_type = r#"{"name": "x", "fleet": {"calls": "many"}}"#;
        let err = Scenario::from_json(bad_type).unwrap_err();
        assert!(err.starts_with("scenario.fleet.calls:"), "{err}");

        let unknown = r#"{"name": "x", "fleeet": {}}"#;
        let err = Scenario::from_json(unknown).unwrap_err();
        assert!(err.contains("scenario.fleeet: unknown field"), "{err}");

        let bad_channel = r#"{"name": "x", "deployment": {"primary": {"channel": "6", "distance_m": 5.0},
            "secondary": {"channel": "2.4/11", "distance_m": 9.0}}}"#;
        let err = Scenario::from_json(bad_channel).unwrap_err();
        assert!(err.starts_with("scenario.deployment.primary.channel:"), "{err}");
    }

    const FPS_TOML: &str = r#"
        name = "fps-office"
        seed = 11

        [traffic.workload]
        kind = "fps"
        tick_ms = 15
        duration_ms = 30000

        [[arms]]
        name = "baseline"
        mode = "primary-only"
        workload = "fps"

        [[arms]]
        name = "diversifi"
        mode = "custom-ap"
    "#;

    #[test]
    fn fps_workload_round_trips_and_lowers() {
        let s = Scenario::from_toml(FPS_TOML).unwrap();
        let office = FpsConfig::office();
        let want = FpsConfig { duration: SimDuration::from_secs(30), ..office };
        assert_eq!(s.traffic, Traffic::Fps(want));
        assert_eq!(s.traffic.workload_name(), "fps");
        assert_eq!(s.arms[0].workload.as_deref(), Some("fps"));
        assert_eq!(s.arms[1].workload, None);

        // Round trip through the canonical JSON form.
        let s2 = Scenario::from_json(&s.to_json_pretty()).unwrap();
        assert_eq!(s, s2);
        assert_eq!(s.fingerprint(), s2.fingerprint());

        // Lowering drives the world's workload and downlink stream.
        let cfg = s.world_config(&s.arms[1]);
        assert_eq!(cfg.workload, WorkloadKind::Fps(want));
        assert_eq!(cfg.spec, want.downlink_spec());
    }

    #[test]
    fn voip_scenarios_serialize_without_a_workload_key() {
        // The voip-default canonical form must not grow a workload key:
        // existing fingerprints pin campaign checkpoints.
        let json = Scenario::testbed("t", 7).to_json_pretty();
        assert!(!json.contains("workload"), "{json}");
    }

    #[test]
    fn chaos_section_round_trips_and_defaults_vanish() {
        // Never mentioning [chaos] must keep the pre-chaos canonical form
        // (and hence every existing fingerprint and checkpoint).
        let json = Scenario::testbed("t", 7).to_json_pretty();
        assert!(!json.contains("chaos"), "{json}");

        let toml = r#"
name = "chaos-rt"
seed = 9

[chaos]
plans = 64
horizon_ms = 8000
max_specs = 3
max_concurrent = 2
max_outage_frac = 0.3
weights = [1, 0, 2, 1, 4, 4]
mttr_slack_ms = 4000
tolerance = 0.05
max_findings = 4
"#;
        let scn = Scenario::from_toml(toml).unwrap();
        assert_eq!(scn.chaos.plans, 64);
        assert_eq!(scn.chaos.budget.horizon, SimDuration::from_secs(8));
        assert_eq!(scn.chaos.budget.max_specs, 3);
        assert_eq!(scn.chaos.budget.weights, [1, 0, 2, 1, 4, 4]);
        assert_eq!(scn.chaos.tolerance, 0.05);
        assert_eq!(scn.chaos.max_findings, 4);
        // Round trip through the canonical JSON form.
        let back = Scenario::from_json(&scn.to_json_pretty()).unwrap();
        assert_eq!(back, scn);

        // Field-path errors.
        let err = Scenario::from_json(r#"{"name": "x", "chaos": {"weights": [1, 2]}}"#)
            .unwrap_err();
        assert!(err.starts_with("scenario.chaos.weights:"), "{err}");
        let err = Scenario::from_json(r#"{"name": "x", "chaos": {"plams": 5}}"#).unwrap_err();
        assert!(err.contains("plams"), "{err}");
    }

    #[test]
    fn workload_field_paths_are_reported() {
        // mix alongside an FPS workload is a contradiction.
        let err = Scenario::from_json(
            r#"{"name": "x", "traffic": {"mix": "voip", "workload": {"kind": "fps"}}}"#,
        )
        .unwrap_err();
        assert!(err.starts_with("scenario.traffic.mix:"), "{err}");

        // Unknown workload kind.
        let err = Scenario::from_json(
            r#"{"name": "x", "traffic": {"workload": {"kind": "mmo"}}}"#,
        )
        .unwrap_err();
        assert!(err.starts_with("scenario.traffic.workload.kind:"), "{err}");

        // FPS knobs under kind = "voip".
        let err = Scenario::from_json(
            r#"{"name": "x", "traffic": {"mix": "voip", "workload": {"kind": "voip", "tick_ms": 15}}}"#,
        )
        .unwrap_err();
        assert!(err.starts_with("scenario.traffic.workload.tick_ms:"), "{err}");

        // Domain violations inside the workload object.
        let err = Scenario::from_json(
            r#"{"name": "x", "traffic": {"workload": {"kind": "fps", "tick_ms": 0}}}"#,
        )
        .unwrap_err();
        assert!(err.starts_with("scenario.traffic.workload.tick_ms:"), "{err}");
        let err = Scenario::from_json(
            r#"{"name": "x", "traffic": {"workload": {"kind": "fps", "tick_ms": 20, "window_ms": 10}}}"#,
        )
        .unwrap_err();
        assert!(err.starts_with("scenario.traffic.workload.window_ms:"), "{err}");
    }

    #[test]
    fn arm_naming_undefined_workload_is_rejected_with_path() {
        // VoIP traffic + an arm expecting FPS: full path, both names.
        let err = Scenario::from_json(
            r#"{"name": "x", "arms": [{"mode": "primary-only"},
                {"mode": "custom-ap", "workload": "fps"}]}"#,
        )
        .unwrap_err();
        assert!(err.starts_with("scenario.arms[1].workload:"), "{err}");
        assert!(err.contains("\"fps\"") && err.contains("\"voip\""), "{err}");

        // And the mirror image: FPS traffic + an arm expecting VoIP.
        let err = Scenario::from_json(
            r#"{"name": "x", "traffic": {"workload": {"kind": "fps"}},
                "arms": [{"mode": "primary-only", "workload": "voip"}]}"#,
        )
        .unwrap_err();
        assert!(err.starts_with("scenario.arms[0].workload:"), "{err}");

        // Matching names pass.
        let ok = Scenario::from_json(
            r#"{"name": "x", "traffic": {"workload": {"kind": "fps"}},
                "arms": [{"mode": "custom-ap", "workload": "fps"}]}"#,
        )
        .unwrap();
        assert_eq!(ok.arms[0].workload.as_deref(), Some("fps"));
    }

    #[test]
    fn fingerprint_tracks_content() {
        let a = Scenario::testbed("t", 7);
        let mut b = a.clone();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.fleet.calls += 1;
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn quality_presets_pin_evaluation_literals() {
        // The §6 testbed generator draws from this catalog; these literals
        // are load-bearing for the paper-parity corpus.
        let m = LinkQuality::Marginal.ge_params();
        assert_eq!(m.mean_good, SimDuration::from_millis(2000));
        assert_eq!(m.bad_loss, 0.8);
        let a = LinkQuality::Awful.ge_params();
        assert_eq!(a.mean_bad_long, SimDuration::from_millis(900));
        assert_eq!(a.p_long, 0.3);
    }

    #[test]
    fn channel_string_round_trips() {
        for ch in [Channel::CH1, Channel::CH6, Channel::CH11, Channel::CH36, Channel::CH149] {
            let tag = channel_tag(ch);
            assert_eq!(parse_channel(&tag, "p").unwrap(), ch);
        }
        assert!(parse_channel("2.4/14", "p").is_err());
        assert!(parse_channel("6/1", "p").is_err());
    }
}
