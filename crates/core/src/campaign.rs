//! The million-call fleet campaign: a [`Scenario`]'s client fleet folded
//! through the sharded [`diversifi_simcore::campaign`] engine.
//!
//! Each call is sampled by [`CallSampler`] (a pure function of the call
//! index) and folded straight into per-shard digests — counters for every
//! Table 1 cell, a Welford summary + quantile sketch of MOS, and a
//! half-octave histogram of mouth-to-ear delay. Memory is constant in the
//! call count: nothing per-call is ever materialised, and the digest
//! counters reproduce [`table1`](crate::population::table1)
//! **bit-for-bit** because they carry the same integer counts the exact
//! computation divides.

use crate::population::{CallSampler, RatedCall, SampledCall, Table1, Table1Row};
use crate::population::relative_delta;
use crate::scenario::{Arm, Scenario};
use crate::world::World;
use diversifi_simcore::{
    run_campaign_observed, CampaignConfig, CampaignHealth, CampaignProgress, ChannelId,
    DigestSchema, FlightKey, HeartbeatSample, SeedFactory, ShardDigest, ShardQuarantine,
    WorkerArena, WorstK,
};
use diversifi_voip::{session_metrics, FpsConfig, WorkloadKind, DEFAULT_DEADLINE, FPS_QOE_POOR};
use diversifi_wifi::RealizationCache;
use serde::Serialize;

/// Channel names for every Table 1 cell: `subset/class/{total,poor}`.
/// Index order: subset (all, wired, pc, pcw) × hop class (ee, ew, ww).
const CELL_NAMES: [[[&str; 2]; 3]; 4] = [
    [
        ["all/ee/total", "all/ee/poor"],
        ["all/ew/total", "all/ew/poor"],
        ["all/ww/total", "all/ww/poor"],
    ],
    [
        ["wired/ee/total", "wired/ee/poor"],
        ["wired/ew/total", "wired/ew/poor"],
        ["wired/ww/total", "wired/ww/poor"],
    ],
    [
        ["pc/ee/total", "pc/ee/poor"],
        ["pc/ew/total", "pc/ew/poor"],
        ["pc/ww/total", "pc/ww/poor"],
    ],
    [
        ["pcw/ee/total", "pcw/ee/poor"],
        ["pcw/ew/total", "pcw/ew/poor"],
        ["pcw/ww/total", "pcw/ww/poor"],
    ],
];

/// Hop-class index of a call: 0 = Ethernet–Ethernet, 1 = mixed, 2 = WiFi–WiFi.
fn class_of(c: &RatedCall) -> usize {
    use crate::population::LastHop;
    let n = |h: LastHop| usize::from(h == LastHop::Wifi);
    n(c.hops.0) + n(c.hops.1)
}

/// The FPS workload's extra digest channels (present only when the
/// scenario's traffic declares an FPS workload, so VoIP campaign digests
/// — and their checkpoint fingerprints — stay byte-identical).
struct FpsChannels {
    cfg: FpsConfig,
    sessions: ChannelId,
    poor: ChannelId,
    qoe_summary: ChannelId,
    qoe_sketch: ChannelId,
    miss_sketch: ChannelId,
    outage_us: ChannelId,
}

/// The fleet campaign's digest layout: schema plus the channel handles the
/// per-call fold indexes with (no string lookups on the hot path).
pub struct FleetSchema {
    /// The digest schema (drives campaign ids and checkpoint validation).
    pub schema: DigestSchema,
    cells: [[[ChannelId; 2]; 3]; 4],
    mos_summary: ChannelId,
    mos_sketch: ChannelId,
    delay_us: ChannelId,
    fps: Option<FpsChannels>,
}

impl FleetSchema {
    /// Build the fleet digest layout (the VoIP workload's layout — kept
    /// byte-identical to the pre-workload schema).
    pub fn new() -> FleetSchema {
        let mut schema = DigestSchema::new();
        let dummy = schema.counter(CELL_NAMES[0][0][0]);
        let mut cells = [[[dummy; 2]; 3]; 4];
        for (si, subset) in CELL_NAMES.iter().enumerate() {
            for (ci, class) in subset.iter().enumerate() {
                for (k, name) in class.iter().enumerate() {
                    cells[si][ci][k] = if (si, ci, k) == (0, 0, 0) {
                        dummy
                    } else {
                        schema.counter(name)
                    };
                }
            }
        }
        let mos_summary = schema.summary("mos");
        let mos_sketch = schema.sketch("mos_sketch");
        let delay_us = schema.histogram("delay_us");
        FleetSchema { schema, cells, mos_summary, mos_sketch, delay_us, fps: None }
    }

    /// Build the layout for `workload`. VoIP is exactly [`FleetSchema::new`];
    /// FPS appends the deadline-metric channels after the VoIP ones, so
    /// the shared prefix folds identically.
    pub fn for_workload(workload: WorkloadKind) -> FleetSchema {
        let mut fleet = FleetSchema::new();
        if let WorkloadKind::Fps(cfg) = workload {
            let s = &mut fleet.schema;
            fleet.fps = Some(FpsChannels {
                cfg,
                sessions: s.counter("fps/sessions"),
                poor: s.counter("fps/poor"),
                qoe_summary: s.summary("fps/qoe"),
                qoe_sketch: s.sketch("fps/qoe_sketch"),
                miss_sketch: s.sketch("fps/miss_sketch"),
                outage_us: s.histogram("fps/outage_us"),
            });
        }
        fleet
    }

    /// Fold one sampled call into a shard digest, returning the call's
    /// workload-native quality score (E-model MOS for VoIP, session QoE
    /// for FPS) — what the flight recorder's trigger compares against.
    pub fn fold(&self, s: &SampledCall, digest: &mut ShardDigest) -> f64 {
        let class = class_of(&s.call);
        let subsets = [
            true,
            s.call.wired_majority_subnets,
            s.pc_pair,
            s.call.wired_majority_subnets && s.pc_pair,
        ];
        let poor = usize::from(s.call.rated_poor);
        for (si, member) in subsets.iter().enumerate() {
            if *member {
                digest.add(self.cells[si][class][0], 1);
                if poor == 1 {
                    digest.add(self.cells[si][class][1], 1);
                }
            }
        }
        digest.observe(self.mos_summary, s.mos);
        digest.sketch_insert(self.mos_sketch, s.mos);
        digest.record(self.delay_us, (s.delay_ms * 1000.0) as u64);
        if let Some(fps) = &self.fps {
            let m = session_metrics(&fps.cfg, s.loss_pct, s.burst_ratio, s.network_delay_ms);
            digest.add(fps.sessions, 1);
            if m.qoe < FPS_QOE_POOR {
                digest.add(fps.poor, 1);
            }
            digest.observe(fps.qoe_summary, m.qoe);
            digest.sketch_insert(fps.qoe_sketch, m.qoe);
            digest.sketch_insert(fps.miss_sketch, 100.0 * m.state_miss);
            digest.record(fps.outage_us, (m.outage_ms * 1000.0) as u64);
            m.qoe
        } else {
            s.mos
        }
    }

    /// Reconstruct Table 1 from the merged digest. Bit-identical to
    /// [`crate::population::table1`] over the same calls: the digest holds
    /// the same integer counts, so every division and relative delta is
    /// the same f64 operation.
    pub fn table1(&self, digest: &ShardDigest) -> Table1 {
        let counts = |si: usize| -> ([u64; 3], [u64; 3]) {
            let mut total = [0u64; 3];
            let mut poor = [0u64; 3];
            for ci in 0..3 {
                total[ci] = digest.count(self.cells[si][ci][0]);
                poor[ci] = digest.count(self.cells[si][ci][1]);
            }
            (total, poor)
        };
        let (all_total, all_poor) = counts(0);
        let n: u64 = all_total.iter().sum();
        let pcr_all = if n == 0 {
            0.0
        } else {
            all_poor.iter().sum::<u64>() as f64 / n as f64
        };
        let row = |si: usize| -> Table1Row {
            let (total, poor) = counts(si);
            let pcr_of =
                |i: usize| if total[i] == 0 { 0.0 } else { poor[i] as f64 / total[i] as f64 };
            Table1Row {
                ee: relative_delta(pcr_all, pcr_of(0)),
                ew: relative_delta(pcr_all, pcr_of(1)),
                ww: relative_delta(pcr_all, pcr_of(2)),
                baseline_pcr: pcr_all,
            }
        };
        Table1 {
            all: row(0),
            wired_majority: row(1),
            pc: row(2),
            pc_wired_majority: row(3),
        }
    }
}

impl Default for FleetSchema {
    fn default() -> FleetSchema {
        FleetSchema::new()
    }
}

/// One arm's closed-loop probe run (a single world simulation at the
/// scenario's deployment — the sanity row next to the fleet statistics).
#[derive(Clone, Debug, Serialize)]
pub struct ArmReport {
    /// Arm label.
    pub name: String,
    /// Client behaviour (scenario-file tag).
    pub mode: String,
    /// Workload the probe ran (`"voip"` or `"fps"`).
    pub workload: String,
    /// Residual loss (%) at the default playout deadline.
    pub loss_pct: f64,
    /// Wastefully duplicated packets (% of stream).
    pub wasteful_dup_pct: f64,
    /// All secondary-air transmissions (% of stream).
    pub secondary_air_pct: f64,
    /// FPS only: state ticks missing their deadline (%).
    pub tick_miss_pct: Option<f64>,
    /// FPS only: input ticks missing their deadline (%).
    pub input_miss_pct: Option<f64>,
    /// FPS only: deadline-based session QoE (0–100).
    pub qoe: Option<f64>,
}

/// Fleet-scale deadline statistics for an FPS campaign, read back from the
/// workload-keyed digest channels.
#[derive(Clone, Debug, Serialize)]
pub struct FpsFleetStats {
    /// Sessions folded (equals `calls`).
    pub sessions: u64,
    /// Fraction of sessions with QoE below [`FPS_QOE_POOR`].
    pub poor_rate: f64,
    /// Mean session QoE.
    pub qoe_mean: f64,
    /// QoE standard deviation.
    pub qoe_stddev: f64,
    /// 10th-percentile QoE.
    pub qoe_p10: f64,
    /// Median QoE.
    pub qoe_p50: f64,
    /// 90th-percentile QoE.
    pub qoe_p90: f64,
    /// Median state-tick miss rate (%).
    pub miss_p50_pct: f64,
    /// 99th-percentile state-tick miss rate (%).
    pub miss_p99_pct: f64,
    /// Median estimated worst outage (ms).
    pub outage_p50_ms: f64,
    /// 99th-percentile estimated worst outage (ms).
    pub outage_p99_ms: f64,
}

/// One retained worst call in the campaign artifact: enough to reproduce
/// the call (`seed` + `index` are the sampler inputs) and to order it
/// (lower score = worse).
#[derive(Clone, Debug, Serialize)]
pub struct FlightEntryReport {
    /// Workload-native score (MOS or QoE) the trigger compared.
    pub score: f64,
    /// Call index within the campaign.
    pub index: u64,
    /// Master seed the call was sampled under.
    pub seed: u64,
}

/// The committed `campaign-health` section: engine wall-clock telemetry
/// aggregated over the run. Observational only — never part of
/// fingerprints.
#[derive(Clone, Debug, Serialize)]
pub struct CampaignHealthReport {
    /// End-to-end campaign wall time (seconds).
    pub elapsed_s: f64,
    /// Freshly folded calls per second over the whole run.
    pub calls_per_s: f64,
    /// Freshly executed shards with timing samples.
    pub shards_timed: u64,
    /// Median per-shard fold wall time (µs).
    pub shard_wall_p50_us: u64,
    /// 99th-percentile per-shard fold wall time (µs).
    pub shard_wall_p99_us: u64,
    /// Median per-shard checkpoint write time (µs, 0 without checkpoints).
    pub checkpoint_write_p50_us: u64,
    /// 99th-percentile checkpoint write time (µs).
    pub checkpoint_write_p99_us: u64,
    /// Total digest-merge wall time (ms).
    pub merge_ms: f64,
}

impl CampaignHealthReport {
    /// Reduce the engine's health counters to the committed section.
    pub fn from_health(h: &CampaignHealth) -> CampaignHealthReport {
        CampaignHealthReport {
            elapsed_s: h.elapsed_ns as f64 / 1e9,
            calls_per_s: h.calls_per_sec(),
            shards_timed: h.shard_wall_us.count(),
            shard_wall_p50_us: h.shard_wall_us.quantile(0.50),
            shard_wall_p99_us: h.shard_wall_us.quantile(0.99),
            checkpoint_write_p50_us: h.checkpoint_write_us.quantile(0.50),
            checkpoint_write_p99_us: h.checkpoint_write_us.quantile(0.99),
            merge_ms: h.merge_ns as f64 / 1e6,
        }
    }
}

/// The campaign-level artifact written by `repro campaign`.
#[derive(Clone, Debug, Serialize)]
pub struct FleetCampaignReport {
    /// Scenario name.
    pub scenario: String,
    /// Master seed.
    pub seed: u64,
    /// Calls folded.
    pub calls: u64,
    /// Workload the scenario's traffic declares (`"voip"` or `"fps"`).
    pub workload: String,
    /// Digest fingerprint — bit-identical across thread counts and
    /// resume/uninterrupted runs of the same scenario.
    pub fingerprint: u64,
    /// Shards in the plan.
    pub shards_total: usize,
    /// Shards executed by this run.
    pub shards_run: usize,
    /// Shards loaded from checkpoints.
    pub shards_resumed: usize,
    /// Table 1 at campaign scale.
    pub table1: Table1,
    /// Overall poor-call rate.
    pub poor_rate: f64,
    /// Mean device-adjusted MOS.
    pub mos_mean: f64,
    /// MOS standard deviation.
    pub mos_stddev: f64,
    /// MOS quantiles (p10 / p50 / p90) from the streaming sketch.
    pub mos_p10: f64,
    /// Median MOS.
    pub mos_p50: f64,
    /// 90th-percentile MOS.
    pub mos_p90: f64,
    /// Median mouth-to-ear delay (ms).
    pub delay_p50_ms: f64,
    /// 99th-percentile mouth-to-ear delay (ms).
    pub delay_p99_ms: f64,
    /// FPS deadline statistics (present only for FPS-workload scenarios).
    pub fps: Option<FpsFleetStats>,
    /// The K worst calls the flight recorder retained, worst first
    /// (present only when the scenario arms the recorder).
    pub flight: Option<Vec<FlightEntryReport>>,
    /// Engine health telemetry for this run.
    pub health: CampaignHealthReport,
    /// Shards the supervisor quarantined after a fold panic. A completed
    /// campaign always reports an empty list (quarantine blocks the
    /// merge), but the field keeps degraded artifacts self-describing.
    pub quarantined: Vec<ShardQuarantine>,
    /// Checkpoint writes that still failed after retries (those shards
    /// merged fine and simply re-run on resume).
    pub checkpoint_errors: usize,
    /// Per-arm closed-loop probe runs.
    pub arms: Vec<ArmReport>,
}

/// What [`run_fleet_campaign_observed`] hands back: the artifact plus the
/// raw selector (exact score bits, ready for forensic capture).
#[derive(Clone, Debug)]
pub struct FleetCampaignRun {
    /// The campaign artifact.
    pub report: FleetCampaignReport,
    /// The merged worst-call selector (`Some` iff the recorder was armed).
    pub flight: Option<WorstK>,
}

/// Run the scenario's fleet campaign with an explicit engine config:
/// `scn.campaign_config()` for the scenario's own execution knobs
/// (sharding, threads, checkpoint dir), or that plus overrides (tests and
/// the repro binary cap shards or set thread counts this way). The config
/// must describe the same scenario; its fingerprint pins the checkpoints.
///
/// The flight recorder and heartbeat ride along: when `cfg.flight_k > 0`
/// every call whose workload score
/// falls below the trigger (`scenario.observe.trigger`, defaulting to the
/// workload-native poor threshold) offers itself to the worst-K selector;
/// the merged selection comes back on [`FleetCampaignRun::flight`] for
/// forensic capture. `heartbeat` receives per-shard engine health samples
/// as shards complete (from worker threads, in scheduling order).
pub fn run_fleet_campaign_observed<P, H>(
    scn: &Scenario,
    cfg: &CampaignConfig,
    progress: P,
    heartbeat: H,
) -> std::io::Result<FleetCampaignRun>
where
    P: Fn(&CampaignProgress) + Sync,
    H: Fn(&HeartbeatSample) + Sync,
{
    let (model, _) = scn.population();
    let sampler = CallSampler::new(&model, scn.seed);
    let fleet = FleetSchema::for_workload(scn.traffic.workload());
    let trigger =
        scn.observe.trigger.unwrap_or_else(|| scn.traffic.workload().poor_trigger());
    let seed = scn.seed;
    let outcome = run_campaign_observed(
        cfg,
        &fleet.schema,
        |i, _scratch, digest, worst| {
            let score = fleet.fold(&sampler.call(i), digest);
            if score < trigger {
                worst.offer(FlightKey { score, seed, index: i });
            }
        },
        progress,
        heartbeat,
    )?;
    let digest = outcome.digest.ok_or_else(|| {
        let mut msg = format!(
            "campaign incomplete: {}/{} shards done (raise max_new_shards or resume)",
            outcome.shards_resumed + outcome.shards_run,
            outcome.shards_total
        );
        // A quarantined shard is the one failure mode that is NOT cured
        // by resuming — name it so the operator debugs the panic instead
        // of retrying forever.
        for q in &outcome.quarantined {
            msg.push_str(&format!("; shard {} quarantined: {}", q.shard, q.reason));
        }
        std::io::Error::other(msg)
    })?;

    let table1 = fleet.table1(&digest);
    let total: u64 = (0..3).map(|ci| digest.count(fleet.cells[0][ci][0])).sum();
    let poor: u64 = (0..3).map(|ci| digest.count(fleet.cells[0][ci][1])).sum();
    let mos = digest.summary(fleet.mos_summary);
    let sketch = digest.sketch(fleet.mos_sketch);
    let delays = digest.histogram(fleet.delay_us);
    let fps = fleet.fps.as_ref().map(|ch| {
        let sessions = digest.count(ch.sessions);
        let qoe = digest.summary(ch.qoe_summary);
        let qoe_sketch = digest.sketch(ch.qoe_sketch);
        let miss = digest.sketch(ch.miss_sketch);
        let outage = digest.histogram(ch.outage_us);
        FpsFleetStats {
            sessions,
            poor_rate: if sessions == 0 {
                0.0
            } else {
                digest.count(ch.poor) as f64 / sessions as f64
            },
            qoe_mean: qoe.mean(),
            qoe_stddev: qoe.stddev(),
            qoe_p10: qoe_sketch.quantile(0.10),
            qoe_p50: qoe_sketch.quantile(0.50),
            qoe_p90: qoe_sketch.quantile(0.90),
            miss_p50_pct: miss.quantile(0.50),
            miss_p99_pct: miss.quantile(0.99),
            outage_p50_ms: outage.quantile(0.50) as f64 / 1000.0,
            outage_p99_ms: outage.quantile(0.99) as f64 / 1000.0,
        }
    });
    let flight_entries = outcome.flight.as_ref().map(|w| {
        w.entries()
            .iter()
            .map(|e| FlightEntryReport { score: e.score, index: e.index, seed: e.seed })
            .collect()
    });
    let report = FleetCampaignReport {
        scenario: scn.name.clone(),
        seed: scn.seed,
        calls: digest.len(),
        workload: scn.traffic.workload_name().to_string(),
        fingerprint: outcome.fingerprint.expect("complete campaign has a fingerprint"),
        shards_total: outcome.shards_total,
        shards_run: outcome.shards_run,
        shards_resumed: outcome.shards_resumed,
        table1,
        poor_rate: if total == 0 { 0.0 } else { poor as f64 / total as f64 },
        mos_mean: mos.mean(),
        mos_stddev: mos.stddev(),
        mos_p10: sketch.quantile(0.10),
        mos_p50: sketch.quantile(0.50),
        mos_p90: sketch.quantile(0.90),
        delay_p50_ms: delays.quantile(0.50) as f64 / 1000.0,
        delay_p99_ms: delays.quantile(0.99) as f64 / 1000.0,
        fps,
        flight: flight_entries,
        health: CampaignHealthReport::from_health(&outcome.health),
        quarantined: outcome.quarantined,
        checkpoint_errors: outcome.checkpoint_errors,
        arms: run_arm_probes(scn),
    };
    Ok(FleetCampaignRun { report, flight: outcome.flight })
}

/// One closed-loop world run per experiment arm at the scenario's
/// deployment (empty when the scenario declares no arms).
///
/// Every arm runs at the scenario seed on the same two links, so the arms
/// share one pair of channel realisations and one arena. Both live only
/// for this call.
pub fn run_arm_probes(scn: &Scenario) -> Vec<ArmReport> {
    let cache = RealizationCache::new(2);
    let mut arena = WorkerArena::new();
    scn.arms.iter().map(|arm| run_arm_probe(scn, arm, &cache, &mut arena)).collect()
}

fn run_arm_probe(
    scn: &Scenario,
    arm: &Arm,
    cache: &RealizationCache,
    arena: &mut WorkerArena,
) -> ArmReport {
    let cfg = scn.world_config(arm);
    let seeds = SeedFactory::new(scn.seed);
    let r = World::new_cached_in(&cfg, &seeds, cache, arena).run_in(arena);
    let n = r.trace.len().max(1) as f64;
    ArmReport {
        name: arm.name.clone(),
        mode: crate::scenario::mode_tag(arm.mode).to_string(),
        workload: scn.traffic.workload_name().to_string(),
        loss_pct: r.trace.loss_rate(DEFAULT_DEADLINE) * 100.0,
        wasteful_dup_pct: 100.0 * r.secondary_wasteful_tx as f64 / n,
        secondary_air_pct: 100.0 * r.secondary_air_tx as f64 / n,
        tick_miss_pct: r.fps.map(|o| 100.0 * o.state.miss_rate()),
        input_miss_pct: r.fps.map(|o| 100.0 * o.input.miss_rate()),
        qoe: r.fps.map(|o| o.qoe),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::{simulate_calls, table1};

    /// The fleet campaign with the scenario's own execution knobs.
    fn run_scenario(scn: &Scenario) -> FleetCampaignReport {
        run_fleet_campaign_observed(scn, &scn.campaign_config(), |_| {}, |_| {}).unwrap().report
    }

    fn tiny_scenario(calls: u64) -> Scenario {
        let mut s = Scenario::new("tiny", 0x7AB1E1);
        s.fleet.calls = calls;
        s.campaign.shard_size = 1000;
        s.campaign.threads = 2;
        s
    }

    #[test]
    fn digest_table1_matches_exact_computation_bit_for_bit() {
        let scn = tiny_scenario(20_000);
        let report = run_scenario(&scn);
        let (model, n) = scn.population();
        let calls = simulate_calls(&model, n as usize, scn.seed);
        let exact = table1(&calls);
        for (got, want) in [
            (&report.table1.all, &exact.all),
            (&report.table1.wired_majority, &exact.wired_majority),
            (&report.table1.pc, &exact.pc),
            (&report.table1.pc_wired_majority, &exact.pc_wired_majority),
        ] {
            assert_eq!(got.ee.to_bits(), want.ee.to_bits());
            assert_eq!(got.ew.to_bits(), want.ew.to_bits());
            assert_eq!(got.ww.to_bits(), want.ww.to_bits());
            assert_eq!(got.baseline_pcr.to_bits(), want.baseline_pcr.to_bits());
        }
        assert_eq!(report.calls, 20_000);
        assert_eq!(report.poor_rate.to_bits(), exact.all.baseline_pcr.to_bits());
        assert_eq!(report.workload, "voip");
        assert!(report.fps.is_none(), "voip campaigns carry no FPS stats");
    }

    #[test]
    fn fps_campaign_reports_workload_stats_and_is_thread_invariant() {
        let mut prints = Vec::new();
        for threads in [1usize, 4] {
            let mut scn = tiny_scenario(5_000);
            scn.traffic = crate::scenario::Traffic::Fps(FpsConfig::office());
            scn.campaign.threads = threads;
            let r = run_scenario(&scn);
            assert_eq!(r.workload, "fps");
            let fps = r.fps.as_ref().expect("fps scenario must report fps stats");
            assert_eq!(fps.sessions, 5_000);
            assert!(
                fps.qoe_p10 <= fps.qoe_p50 && fps.qoe_p50 <= fps.qoe_p90,
                "qoe quantiles out of order: {fps:?}"
            );
            assert!((0.0..=1.0).contains(&fps.poor_rate));
            assert!(fps.miss_p50_pct <= fps.miss_p99_pct + 1e-9);
            prints.push(r.fingerprint);
        }
        assert_eq!(prints[0], prints[1], "fps digest fingerprint must be thread-invariant");
    }

    #[test]
    fn fingerprint_is_thread_invariant() {
        let mut prints = Vec::new();
        for threads in [1usize, 2, 4] {
            let mut scn = tiny_scenario(5_000);
            scn.campaign.threads = threads;
            let r = run_scenario(&scn);
            prints.push(r.fingerprint);
        }
        assert!(prints.windows(2).all(|w| w[0] == w[1]), "{prints:?}");
    }

    #[test]
    fn arm_probes_follow_scenario_arms() {
        let mut scn = Scenario::testbed("probe", 11);
        scn.fleet.calls = 0; // probes only
        let arms = run_arm_probes(&scn);
        assert_eq!(arms.len(), 3);
        assert_eq!(arms[0].name, "primary-only");
        // The DiversiFi arm must beat the primary-only baseline at this
        // (good primary / marginal secondary) deployment.
        assert!(arms[2].loss_pct <= arms[0].loss_pct + 0.5);
    }
}
