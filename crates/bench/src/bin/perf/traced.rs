//! The traced run: each batch replayed through the layers' public calls,
//! with every call the benchmark makes into a layer timed from outside.
//!
//! Inside the simulator the only instrumentation is what the program
//! already exposes with the `trace` feature: a telemetry session
//! (`telemetry::begin`/`end`) around each closed-loop world yields the
//! `Dispatch` / `ChannelSample` phase spans and the components' metrics
//! registry. Everything else is timed here, at the boundary:
//!
//! - `eval-corpus` re-runs the corpus loop of `run_eval_corpus`: location
//!   generation, `World::new_cached_in` (realisation), `World::run_in`
//!   (event loop), then the Fig 8 reductions;
//! - `chaos-scan` re-runs the scan of `run_chaos` on the campaign engine:
//!   `generate_plan`, `evaluate_plan`, then `shrink_plan` over the retained
//!   worst plans;
//! - the fleets re-run the campaign fold through `run_campaign_observed`,
//!   timing `CallSampler::call` and `FleetSchema::fold` on blocks of calls
//!   (16 calls in 1021) and scaling to the campaign, then `run_arm_probes`;
//!   FPS also resumes.
//!
//! Each replica's fingerprint must equal its untraced run's, which proves
//! both did the same work. What the timed layers do not cover is reported
//! as the residue.

use crate::stats::{median, percentile, secs};
use crate::workloads::{
    dir_bytes, eval_fingerprint, fig8_reductions, fleet_fingerprint, flight_keys, Bench,
    ChaosSummary, Finding, Workload,
};
use diversifi::campaign::{run_arm_probes, FleetSchema};
use diversifi::chaos::{evaluate_plan, ChaosConfig};
use diversifi::evaluation::{testbed_location, EvalRun};
use diversifi::population::{CallSampler, SampledCall};
use diversifi::world::{RunMode, World, WorldConfig};
use diversifi_simcore::chaos::{generate_plan, shrink_plan};
use diversifi_simcore::metrics::MetricValue;
use diversifi_simcore::telemetry::{self, Phase, TelemetrySession};
use diversifi_simcore::{
    run_campaign_observed, CampaignConfig, ComponentKind, DigestSchema, FaultPlan, FlightKey,
    HeartbeatSample, MetricsScratch, SeedFactory, ShardDigest, SweepRunner, WorkerArena, WorstK,
};
use diversifi_wifi::RealizationCache;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Event-ring slots per telemetry session: the replicas read spans and
/// the metrics registry, not the event stream, so a token ring keeps the
/// recording cost flat.
const RING: usize = 64;

/// Fleet calls are timed in blocks: `BLOCK` calls of every `BLOCK_EVERY`
/// are sampled back to back, then folded back to back, with one clock
/// read at each end. The clock then costs a few nanoseconds per timed
/// call (left in the estimate) and the calls keep their pipelining; the
/// fold order, and so the digest, is unchanged. A longer block holds more
/// sampled calls in memory at once and over-counts: at 64 calls the FPS
/// replica's timed layers (its calls are the largest) summed to 4 to 6%
/// more than its wall at 500k calls. The stride is prime so that blocks land at every
/// phase of the digest's power-of-two periodic work (sketch compaction
/// cascades) instead of always on or always off it.
const BLOCK: u64 = 16;
const BLOCK_EVERY: u64 = 1021;

/// One traced batch.
pub struct Replica {
    pub wall_s: f64,
    pub fingerprint: u64,
    /// Wall time the timed layers account for.
    pub attributed_s: f64,
    /// Per-layer metric values of this batch (missing ones read 0).
    pub values: BTreeMap<&'static str, f64>,
    pub failures: Vec<String>,
}

impl Replica {
    fn new(wall_s: f64, fingerprint: u64, attributed_s: f64) -> Replica {
        Replica {
            wall_s,
            fingerprint,
            attributed_s,
            values: BTreeMap::new(),
            failures: Vec::new(),
        }
    }

    /// A replica that could not run.
    pub fn failed(why: String) -> Replica {
        let mut rep = Replica::new(0.0, 0, 0.0);
        rep.failures.push(why);
        rep
    }

    fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }
}

/// Replay batch seed `seed` of `bench` with `threads` workers.
pub fn replay(bench: &Bench, seed: u64, threads: usize) -> Replica {
    match bench.workload {
        Workload::EvalCorpus => eval(bench, seed, threads),
        Workload::ChaosScan => chaos(bench, seed, threads),
        Workload::VoipFleet | Workload::FpsFleetResume => fleet(bench, seed, threads),
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A replica that panicked is reported by the caller's catch_unwind;
    // the tallies it leaves behind are never read.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// World-layer totals read back from telemetry sessions.
#[derive(Default)]
struct WorldTally {
    /// Wall seconds of the timed calls that ran closed-loop worlds.
    calls_s: f64,
    dispatch_ns: u64,
    events: u64,
    sample_ns: u64,
    transmits: u64,
    counters: BTreeMap<&'static str, u64>,
}

impl WorldTally {
    fn absorb(&mut self, s: &TelemetrySession) {
        let d = s.profile.get(Phase::Dispatch);
        let c = s.profile.get(Phase::ChannelSample);
        self.dispatch_ns += d.total_ns;
        self.events += d.calls;
        self.sample_ns += c.total_ns;
        self.transmits += c.calls;
        for row in s.metrics.rows() {
            use ComponentKind as K;
            let key = match (row.who.kind, row.name) {
                (K::Mac, "exchanges") => "mac.exchanges",
                (K::Mac, "air_losses") => "mac.air_losses",
                (K::Ap, "enqueued") => "ap.enqueued",
                (K::Ap, "drops") => "ap.drops",
                (K::Middlebox, "forwarded") => "middlebox.forwarded",
                (K::Middlebox, "rolled_over") => "middlebox.rolled_over",
                (K::Client, "recovery_visits") => "alg1.recovery_visits",
                (K::Client, "keepalive_visits") => "alg1.keepalive_visits",
                (K::Client, "probe_visits") => "alg1.probe_visits",
                (K::World, "hop_latency_us") => "alg1.hops",
                (K::World, "faults_injected") => "fault.windows",
                (K::World, "faults_unrecovered") => "fault.unrecovered",
                _ => continue,
            };
            let v = match &row.value {
                MetricValue::Counter(v) => *v,
                MetricValue::Histogram(h) => h.count(),
                MetricValue::Gauge { .. } => continue,
            };
            *self.counters.entry(key).or_default() += v;
        }
    }

    fn merge(&mut self, o: WorldTally) {
        self.calls_s += o.calls_s;
        self.dispatch_ns += o.dispatch_ns;
        self.events += o.events;
        self.sample_ns += o.sample_ns;
        self.transmits += o.transmits;
        for (k, v) in o.counters {
            *self.counters.entry(k).or_default() += v;
        }
    }

    /// Run `f` inside a telemetry session, timing it as a world-running call.
    fn session<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        telemetry::begin(RING);
        let t = Instant::now();
        let r = f();
        let s = secs(t);
        self.absorb(&telemetry::end());
        self.calls_s += s;
        (r, s)
    }

    fn report(&self, rep: &mut Replica) {
        let dispatch_self = self.dispatch_ns.saturating_sub(self.sample_ns) as f64;
        rep.set("world.events", self.events as f64);
        rep.set("world.dispatch_self_ms", dispatch_self / 1e6);
        rep.set(
            "world.ns_per_event",
            dispatch_self / self.events.max(1) as f64,
        );
        rep.set(
            "world.unattributed_ms",
            (self.calls_s - self.dispatch_ns as f64 / 1e9) * 1e3,
        );
        rep.set("mac.transmits", self.transmits as f64);
        rep.set("mac.transmit_ms", self.sample_ns as f64 / 1e6);
        rep.set(
            "mac.ns_per_transmit",
            self.sample_ns as f64 / self.transmits.max(1) as f64,
        );
        for (k, v) in &self.counters {
            rep.set(k, *v as f64);
        }
    }
}

// ------------------------------------------------------------ eval-corpus

#[derive(Default)]
struct EvalTally {
    world: WorldTally,
    build_miss_s: Vec<f64>,
    build_hit_s: Vec<f64>,
    run_s: Vec<f64>,
    hits: u64,
    misses: u64,
    packets: u64,
}

fn eval(bench: &Bench, seed: u64, threads: usize) -> Replica {
    let seeds = SeedFactory::new(seed);
    let tally = Mutex::new(EvalTally::default());
    let start = Instant::now();
    // The loop of `run_eval_corpus`, with each layer call timed.
    let runs: Vec<EvalRun> = SweepRunner::new(threads).run_indexed_with(
        bench.scale.eval_locations,
        || (RealizationCache::new(16), WorkerArena::new()),
        |i, (cache, arena)| {
            let call_seeds = seeds.subfactory("eval-run", i as u64);
            let mut rng = call_seeds.stream("location", 0);
            let (p, s) = testbed_location(&mut rng);
            let mut cfg = WorldConfig::testbed(p, s);
            let mut local = EvalTally::default();
            let mut run_one = |mode: RunMode| {
                cfg.mode = mode;
                let (hits, misses) = cache.stats();
                let t = Instant::now();
                let world = World::new_cached_in(&cfg, &call_seeds, cache, arena);
                let build = secs(t);
                let (h, m) = cache.stats();
                local.hits += h - hits;
                local.misses += m - misses;
                if m > misses {
                    local.build_miss_s.push(build);
                } else {
                    local.build_hit_s.push(build);
                }
                let (report, run) = local.world.session(|| world.run_in(arena));
                local.run_s.push(run);
                local.packets += report.trace.len() as u64;
                report
            };
            let run = EvalRun {
                primary: run_one(RunMode::PrimaryOnly),
                secondary: run_one(RunMode::SecondaryOnly),
                diversifi: run_one(RunMode::DiversifiCustomAp),
            };
            let mut all = lock(&tally);
            all.world.merge(local.world);
            all.build_miss_s.extend(local.build_miss_s);
            all.build_hit_s.extend(local.build_hit_s);
            all.run_s.extend(local.run_s);
            all.hits += local.hits;
            all.misses += local.misses;
            all.packets += local.packets;
            run
        },
    );
    let t = Instant::now();
    let fig8 = fig8_reductions(&runs);
    let reduce_s = secs(t);
    let wall_s = secs(start);

    let tally = tally.into_inner().unwrap_or_else(PoisonError::into_inner);
    let build_s: f64 = tally.build_miss_s.iter().chain(&tally.build_hit_s).sum();
    let run_s: f64 = tally.run_s.iter().sum();
    let mut rep = Replica::new(
        wall_s,
        eval_fingerprint(&runs, &fig8),
        build_s + run_s + reduce_s,
    );
    let us = |v: f64| v * 1e6;
    rep.set("realization.build_us_miss", us(median(&tally.build_miss_s)));
    rep.set("realization.build_us_hit", us(median(&tally.build_hit_s)));
    rep.set("realization.misses", tally.misses as f64);
    rep.set("realization.hits", tally.hits as f64);
    rep.set("world.run_us_p50", us(percentile(&tally.run_s, 0.5)));
    rep.set("world.run_us_p99", us(percentile(&tally.run_s, 0.99)));
    rep.set("world.packets", tally.packets as f64);
    rep.set("reduce.ms_per_corpus", reduce_s * 1e3);
    rep.set("reduce.share", reduce_s / wall_s);
    tally.world.report(&mut rep);
    rep
}

// ------------------------------------------------------------- chaos-scan

#[derive(Default)]
struct ChaosTally {
    world: WorldTally,
    generate_s: Vec<f64>,
    evaluate_s: Vec<f64>,
    shard_wall_ns: Vec<u64>,
}

/// The shrink stage of `run_chaos` for one retained plan.
fn shrink(cfg: &ChaosConfig, index: u64, plan: &FaultPlan) -> Finding {
    let eval = |p: &FaultPlan| evaluate_plan(cfg, cfg.seed, index, p);
    let Some(original) = eval(plan) else {
        return Finding {
            index,
            oracle: "non-deterministic".to_string(),
            detail: "violated during the campaign scan but not on replay".to_string(),
            original_specs: plan.specs.len(),
            minimal_specs: plan.specs.len(),
            tried: 0,
            accepted: 0,
        };
    };
    let shrunk = shrink_plan(plan, |cand| eval(cand).is_some());
    let minimal = eval(&shrunk.minimal).unwrap_or(original);
    Finding {
        index,
        oracle: minimal.oracle.to_string(),
        detail: minimal.detail,
        original_specs: plan.specs.len(),
        minimal_specs: shrunk.minimal.specs.len(),
        tried: shrunk.tried,
        accepted: shrunk.accepted,
    }
}

fn chaos(bench: &Bench, seed: u64, threads: usize) -> Replica {
    let mut cfg = bench.chaos_config(seed);
    cfg.threads = threads;
    let start = Instant::now();

    // The scan of `run_chaos`, on the same engine with the same digest
    // layout, so engine and merge costs match.
    let mut schema = DigestSchema::new();
    let n_plans = schema.counter("chaos/plans");
    let n_empty = schema.counter("chaos/empty");
    let n_viol = schema.counter("chaos/violations");
    let n_amp = schema.counter("chaos/oracle/no-amplification");
    let n_panic = schema.counter("chaos/oracle/engine-panic");
    let n_mttr = schema.counter("chaos/oracle/unbounded-mttr");
    let delta_sum = schema.summary("chaos/delta");
    let mut camp = CampaignConfig::new(cfg.plans);
    camp.shard_size = cfg.shard_size.max(1);
    camp.threads = threads;
    camp.flight_k = cfg.max_findings;
    camp.config_fingerprint = cfg.fingerprint();
    let seeds = SeedFactory::new(cfg.seed);
    let tally = Mutex::new(ChaosTally::default());
    let scan = run_campaign_observed(
        &camp,
        &schema,
        |i, _scratch, digest, worst| {
            let t = Instant::now();
            let plan = generate_plan(&seeds, i, &cfg.budget);
            let generate = secs(t);
            digest.add(n_plans, 1);
            if plan.is_empty() {
                digest.add(n_empty, 1);
                lock(&tally).generate_s.push(generate);
                return;
            }
            let mut world = WorldTally::default();
            let (verdict, evaluate) = world.session(|| evaluate_plan(&cfg, cfg.seed, i, &plan));
            {
                let mut all = lock(&tally);
                all.generate_s.push(generate);
                all.evaluate_s.push(evaluate);
                all.world.merge(world);
            }
            if let Some(v) = verdict {
                digest.add(n_viol, 1);
                digest.add(
                    match v.oracle {
                        "no-amplification" => n_amp,
                        "engine-panic" => n_panic,
                        _ => n_mttr,
                    },
                    1,
                );
                digest.observe(delta_sum, v.delta);
                worst.offer(FlightKey {
                    score: -v.delta,
                    seed: cfg.seed,
                    index: i,
                });
            }
        },
        |_| {},
        |hb: &HeartbeatSample| lock(&tally).shard_wall_ns.push(hb.shard_wall_ns),
    );
    let mut tally = tally.into_inner().unwrap_or_else(PoisonError::into_inner);
    let scan = match scan {
        Ok(o) if o.complete => o,
        Ok(o) => return Replica::failed(format!("replayed scan incomplete: {:?}", o.quarantined)),
        Err(e) => return Replica::failed(format!("replayed scan: {e}")),
    };
    let d = scan
        .digest
        .as_ref()
        .expect("a complete campaign has a digest");

    // The serial shrink stage, one telemetry session over all of it.
    let t = Instant::now();
    let mut shrink_world = WorldTally::default();
    let (findings, _) = shrink_world.session(|| {
        let entries = scan.flight.iter().flat_map(WorstK::entries);
        entries
            .map(|e| shrink(&cfg, e.index, &generate_plan(&seeds, e.index, &cfg.budget)))
            .collect::<Vec<_>>()
    });
    let shrink_s = secs(t);
    tally.world.merge(shrink_world);
    let wall_s = secs(start);

    let summary = ChaosSummary {
        empty_plans: d.count(n_empty),
        violations: d.count(n_viol),
        amplification: d.count(n_amp),
        engine_panics: d.count(n_panic),
        unbounded_mttr: d.count(n_mttr),
        findings,
    };
    let generate_total: f64 = tally.generate_s.iter().sum();
    let evaluate_total: f64 = tally.evaluate_s.iter().sum();
    let merge_s = scan.health.merge_ns as f64 / 1e9;
    let mut rep = Replica::new(
        wall_s,
        summary.fingerprint(),
        generate_total + evaluate_total + shrink_s + merge_s,
    );
    rep.set("chaos.generate_us", median(&tally.generate_s) * 1e6);
    rep.set("chaos.shrink_ms", shrink_s * 1e3);
    rep.set("chaos.shrink_evals", summary.shrink_evals() as f64);
    rep.set("chaos.violations", summary.violations as f64);
    rep.set("chaos.serial_frac", shrink_s / wall_s);
    rep.set(
        "chaos.evaluate_ms_p50",
        percentile(&tally.evaluate_s, 0.5) * 1e3,
    );
    rep.set(
        "chaos.evaluate_ms_p99",
        percentile(&tally.evaluate_s, 0.99) * 1e3,
    );
    rep.set("flight.offers", summary.violations as f64);
    campaign_values(
        &mut rep,
        &tally.shard_wall_ns,
        scan.health.merge_ns,
        scan.health.elapsed_ns,
        threads,
    );
    rep.set("campaign.shards_run", scan.shards_run as f64);
    tally.world.report(&mut rep);
    rep
}

fn campaign_values(
    rep: &mut Replica,
    shard_wall_ns: &[u64],
    merge_ns: u64,
    elapsed_ns: u64,
    threads: usize,
) {
    let walls: Vec<f64> = shard_wall_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    rep.set("campaign.shard_wall_ms_p50", percentile(&walls, 0.5));
    rep.set("campaign.shard_wall_ms_p99", percentile(&walls, 0.99));
    rep.set("campaign.merge_ms", merge_ns as f64 / 1e6);
    let busy: f64 = walls.iter().sum::<f64>() / 1e3;
    rep.set(
        "campaign.worker_idle_frac",
        1.0 - busy / (threads as f64 * elapsed_ns.max(1) as f64 / 1e9),
    );
}

// ----------------------------------------------------------------- fleets

fn fleet(bench: &Bench, seed: u64, threads: usize) -> Replica {
    let resume = bench.workload == Workload::FpsFleetResume;
    let mut scn = bench.fleet_scenario(seed);
    scn.campaign.threads = threads;
    let dir = bench.checkpoint_dir(&format!("traced-{seed:x}"));
    if resume {
        let _ = std::fs::remove_dir_all(&dir);
        scn.campaign.checkpoint_dir = Some(dir.to_string_lossy().into_owned());
    }
    let start = Instant::now();

    // The fold of `run_fleet_campaign_observed`.
    let (model, _) = scn.population();
    let sampler = CallSampler::new(&model, scn.seed);
    let schema = FleetSchema::for_workload(scn.traffic.workload());
    let trigger = scn
        .observe
        .trigger
        .unwrap_or_else(|| scn.traffic.workload().poor_trigger());
    let cfg = scn.campaign_config();
    let (shard, n_calls) = (cfg.shard_size, cfg.n_calls);
    let block_len = |start: u64| {
        BLOCK
            .min((start / shard + 1) * shard - start)
            .min(n_calls - start)
    };
    let [timed, sample_ns, fold_ns, offers] = [(); 4].map(|_| AtomicU64::new(0));
    let fold_one = |i: u64, score: f64, worst: &mut WorstK| {
        if score < trigger {
            offers.fetch_add(1, Ordering::Relaxed);
            worst.offer(FlightKey {
                score,
                seed: scn.seed,
                index: i,
            });
        }
    };
    let per_call =
        |i: u64, _: &mut MetricsScratch, digest: &mut ShardDigest, worst: &mut WorstK| {
            let off = i % BLOCK_EVERY;
            if off == 0 {
                let len = block_len(i);
                let t0 = Instant::now();
                let calls: Vec<SampledCall> = (i..i + len).map(|j| sampler.call(j)).collect();
                let t1 = Instant::now();
                for (j, call) in (i..).zip(&calls) {
                    fold_one(j, schema.fold(call, digest), worst);
                }
                let t2 = Instant::now();
                timed.fetch_add(len, Ordering::Relaxed);
                sample_ns.fetch_add((t1 - t0).as_nanos() as u64, Ordering::Relaxed);
                fold_ns.fetch_add((t2 - t1).as_nanos() as u64, Ordering::Relaxed);
            } else if off >= block_len(i - off) {
                fold_one(i, schema.fold(&sampler.call(i), digest), worst);
            }
        };
    let beats = Mutex::new(Vec::<(u64, u64)>::new());
    let fresh = run_campaign_observed(
        &cfg,
        &schema.schema,
        per_call,
        |_| {},
        |hb| {
            lock(&beats).push((hb.shard_wall_ns, hb.checkpoint_write_ns));
        },
    );
    let mut probes = WorldTally::default();
    probes.session(|| run_arm_probes(&scn));
    let bytes = if resume { dir_bytes(&dir) } else { 0 };
    let restored = resume.then(|| {
        let t = Instant::now();
        let again = run_campaign_observed(&cfg, &schema.schema, per_call, |_| {}, |_| {});
        let read_s = secs(t);
        probes.session(|| run_arm_probes(&scn));
        (again, read_s)
    });
    let wall_s = secs(start);
    if resume {
        let _ = std::fs::remove_dir_all(&dir);
    }

    let fresh = match fresh {
        Ok(o) if o.complete => o,
        Ok(o) => {
            return Replica::failed(format!("replayed campaign incomplete: {:?}", o.quarantined))
        }
        Err(e) => return Replica::failed(format!("replayed campaign: {e}")),
    };
    let fingerprint_of = |o: &diversifi_simcore::CampaignOutcome| {
        fleet_fingerprint(
            o.fingerprint.unwrap_or(0),
            &flight_keys(o.flight.as_ref().map_or(&[][..], WorstK::entries)),
        )
    };
    let fingerprint = fingerprint_of(&fresh);

    let beats = beats.into_inner().unwrap_or_else(PoisonError::into_inner);
    let n = timed.load(Ordering::Relaxed).max(1) as f64;
    let per_call_ns = |total: &AtomicU64| total.load(Ordering::Relaxed) as f64 / n;
    let (sample, fold) = (per_call_ns(&sample_ns), per_call_ns(&fold_ns));
    let calls = cfg.n_calls as f64;
    let writes_ms: Vec<f64> = beats.iter().map(|&(_, w)| w as f64 / 1e6).collect();
    let probes_s = probes.calls_s;
    let mut attributed = (sample + fold) * calls / 1e9
        + fresh.health.merge_ns as f64 / 1e9
        + writes_ms.iter().sum::<f64>() / 1e3
        + probes_s;

    let mut rep = Replica::new(wall_s, fingerprint, 0.0);
    rep.set("population.sample_ns", sample);
    rep.set("population.calls", calls);
    rep.set("fold.ns_per_call", fold);
    rep.set("flight.offers", offers.load(Ordering::Relaxed) as f64);
    let walls: Vec<u64> = beats.iter().map(|&(w, _)| w).collect();
    campaign_values(
        &mut rep,
        &walls,
        fresh.health.merge_ns,
        fresh.health.elapsed_ns,
        threads,
    );
    rep.set("campaign.shards_run", fresh.shards_run as f64);
    rep.set("probes.ms", probes_s * 1e3);
    if let Some((again, read_s)) = restored {
        match again {
            Ok(o) if o.complete && fingerprint_of(&o) == fingerprint => {
                let shards = o.shards_resumed.max(1) as f64;
                let read_only = read_s - o.health.merge_ns as f64 / 1e9;
                attributed += read_s;
                rep.set("campaign.shards_resumed", o.shards_resumed as f64);
                rep.set("checkpoint.read_ms_per_shard", read_only * 1e3 / shards);
                rep.set("checkpoint.write_ms_p50", percentile(&writes_ms, 0.5));
                rep.set("checkpoint.write_ms_p99", percentile(&writes_ms, 0.99));
                rep.set(
                    "checkpoint.bytes_per_shard",
                    bytes as f64 / fresh.shards_run.max(1) as f64,
                );
            }
            Ok(_) => rep
                .failures
                .push("replayed resume differs from the fresh pass".to_string()),
            Err(e) => rep.failures.push(format!("replayed resume: {e}")),
        }
    }
    rep.attributed_s = attributed;
    probes.report(&mut rep);
    rep
}
