//! Sharded million-call campaign engine with checkpoint/resume.
//!
//! A *campaign* folds `n_calls` independent, seeded calls into one
//! [`ShardDigest`]. The call range is cut into contiguous shards; shards
//! run in parallel on a [`SweepRunner`], each one folded serially in
//! index order into its own digest, and the per-shard digests merge in
//! shard order — so the campaign digest is a pure function of
//! `(fold, n_calls, shard_size)` at **any** thread count, and peak memory
//! is one digest plus one [`MetricsScratch`] per worker, independent of
//! `n_calls`.
//!
//! # Checkpoint/resume
//!
//! With a checkpoint directory configured, every completed shard writes
//! `shard-NNNNNN.json` (atomically: temp file + rename) carrying the
//! campaign id, the shard's call range and its serialised digest. A later
//! run with the same configuration loads the completed shards, re-runs
//! only the missing ones, and — because digest serialisation round-trips
//! floats exactly and the merge order is fixed — produces a campaign
//! digest **bit-identical** to an uninterrupted run. The checkpoints of
//! the valid prefix (shards `0..p`, every one resuming) are read once:
//! the validity scan merges them as it goes. A shard after the first gap
//! is validated, dropped, and read again when the merge reaches it. A
//! checkpoint whose campaign id, schema layout or call range disagrees,
//! or that fails to parse (e.g. a file truncated by a kill), is
//! discarded and its shard re-run; resume never degrades to a silently
//! different result.
//!
//! # Flight recorder and heartbeat
//!
//! [`run_campaign_observed`] extends the fold with a per-shard
//! [`WorstK`] flight selector (merged in shard index order, serialised
//! into shard checkpoints bit-exactly — see [`crate::flight`]) and a
//! per-shard [`HeartbeatSample`] callback carrying wall-clock health
//! counters. The selector reads only the scores the fold already
//! computes and the heartbeat only reads the clock, so digests — and
//! their fingerprints — are bit-identical with the recorder on or off.
//! `flight_k` participates in the campaign id: checkpoints written with
//! a different retention can never silently resume into this run.
//!
//! The engine itself never prints; callers observe progress through the
//! `progress` callback of [`run_campaign_observed`] (the `repro
//! campaign` front-end turns it into a calls/sec ticker) and health
//! through the heartbeat callback.
//!
//! # Supervision: quarantine, IO retry
//!
//! The engine is a *supervisor*, not just a scheduler — a single bad
//! shard must never take down a million-call campaign:
//!
//! - **Panic isolation.** Every fresh shard fold runs under
//!   `catch_unwind`. A panicking shard (an invariant-audit trip, a model
//!   bug on one pathological call) is **quarantined**: its index and
//!   panic message land in [`CampaignOutcome::quarantined`], the campaign
//!   keeps running every other shard (and checkpointing them, so a later
//!   run after the fix only re-executes the poisoned shard), and
//!   completes *degraded* — `complete == false`, no digest offered, the
//!   quarantine list tells the caller exactly what to report. Panics are
//!   deterministic (a fold is a pure function of its call index), so
//!   quarantine decisions are too.
//! - **IO retry with backoff.** Checkpoint reads and writes retry
//!   transient errors (two extra attempts with linear backoff) before
//!   giving up. A write that still fails is counted in
//!   [`CampaignOutcome::checkpoint_errors`] and the campaign continues —
//!   the shard result is correct, a later run simply re-executes it; a
//!   read that still fails re-runs the shard. A full disk degrades a
//!   campaign, it does not panic it.
//!
//! Supervision changes how faults are *handled*, never what a fold
//! computes: digests stay bit-identical at every thread count, and
//! deterministic failures (panics) are the only thing that changes an
//! outcome.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize, Value};

use crate::digest::{DigestSchema, Fnv, ShardDigest};
use crate::export::write_text_atomic;
use crate::flight::WorstK;
use crate::metrics::LogHistogram;
use crate::scratch::MetricsScratch;
use crate::par::SweepRunner;

/// How often (in calls) workers publish progress between shard
/// boundaries. Purely a reporting cadence — small enough for a live
/// calls/sec ticker, large enough that the atomic add never shows up in
/// profiles.
const PROGRESS_CHUNK: u64 = 4096;

/// Configuration of one campaign run.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Total calls to fold.
    pub n_calls: u64,
    /// Calls per shard (the checkpoint granularity). The last shard may be
    /// short.
    pub shard_size: u64,
    /// Worker threads; `0` means [`SweepRunner::available`].
    pub threads: usize,
    /// Where to write/load per-shard checkpoints; `None` disables
    /// checkpointing entirely.
    pub checkpoint_dir: Option<PathBuf>,
    /// Caller-supplied fingerprint of everything that determines the fold
    /// (scenario, seed, …). Folded together with the digest schema and the
    /// shard plan into the id that guards checkpoints.
    pub config_fingerprint: u64,
    /// Stop after this many *newly executed* shards (resumed shards don't
    /// count), leaving a partial checkpoint directory behind. `None` runs
    /// to completion. This is how tests — and budget-limited runs —
    /// simulate a mid-campaign kill deterministically.
    pub max_new_shards: Option<usize>,
    /// Flight-recorder retention: keep the K worst calls' keys for
    /// post-campaign forensic capture. `0` disables the recorder (the
    /// selector is never touched). Part of the campaign id, so
    /// recorder-on and recorder-off checkpoints never mix.
    pub flight_k: usize,
}

impl CampaignConfig {
    /// A campaign over `n_calls` with the default shard size (8192 calls),
    /// auto threads, no checkpointing, recorder off.
    pub fn new(n_calls: u64) -> CampaignConfig {
        CampaignConfig {
            n_calls,
            shard_size: 8192,
            threads: 0,
            checkpoint_dir: None,
            config_fingerprint: 0,
            max_new_shards: None,
            flight_k: 0,
        }
    }

    /// Number of shards in the plan.
    pub fn shards(&self) -> usize {
        assert!(self.shard_size > 0, "shard_size must be positive");
        (self.n_calls.div_ceil(self.shard_size)) as usize
    }

    /// Call range `[first, first + len)` of shard `s`.
    pub fn shard_range(&self, s: usize) -> (u64, u64) {
        let first = s as u64 * self.shard_size;
        let len = self.shard_size.min(self.n_calls - first);
        (first, len)
    }

    /// The id stamped into (and demanded of) every checkpoint: the
    /// caller's config fingerprint folded with the schema layout, the
    /// shard plan, and the flight retention, so a checkpoint from any
    /// other campaign shape can never be resumed into this one.
    pub fn campaign_id(&self, schema: &DigestSchema) -> u64 {
        let mut id = Fnv::new();
        for v in [
            self.config_fingerprint,
            schema.fingerprint(),
            self.n_calls,
            self.shard_size,
            self.flight_k as u64,
        ] {
            id.write_u64(v);
        }
        id.finish()
    }
}

/// A progress snapshot, published on shard completion and every
/// `PROGRESS_CHUNK` (4096) calls in between.
#[derive(Clone, Copy, Debug)]
pub struct CampaignProgress {
    /// Calls folded so far (monotone, across all workers).
    pub calls_done: u64,
    /// Total calls the campaign will fold (excluding resumed shards).
    pub calls_planned: u64,
    /// Shards finished so far (run or resumed).
    pub shards_done: usize,
    /// Total shards in the plan.
    pub shards_total: usize,
    /// Of the finished shards, how many were loaded from checkpoints.
    pub shards_resumed: usize,
}

/// One heartbeat: per-shard health counters published the moment a
/// freshly executed shard finishes. Everything here is wall-clock
/// *observation* — nondeterministic by nature, never folded back into
/// results. Publication order across workers is scheduling-dependent;
/// consumers that need determinism should read [`CampaignHealth`]
/// (folded in shard index order) instead.
#[derive(Clone, Copy, Debug)]
pub struct HeartbeatSample {
    /// Index of the shard that just finished.
    pub shard: usize,
    /// Calls the shard folded.
    pub calls: u64,
    /// Wall-clock nanoseconds the shard's fold took.
    pub shard_wall_ns: u64,
    /// Wall-clock nanoseconds its checkpoint write took (0 when
    /// checkpointing is off).
    pub checkpoint_write_ns: u64,
    /// Shards finished so far (run or resumed).
    pub shards_done: usize,
    /// Total shards in the plan.
    pub shards_total: usize,
    /// Calls folded so far across all workers.
    pub calls_done: u64,
    /// Wall-clock nanoseconds since the campaign started.
    pub elapsed_ns: u64,
}

/// Aggregated campaign health: the heartbeat stream folded into
/// histograms plus end-to-end totals. Wall-clock observations about the
/// engine — they never feed back into digests or selection.
#[derive(Clone, Debug, Default)]
pub struct CampaignHealth {
    /// Per-shard fold wall time (µs), freshly executed shards only.
    pub shard_wall_us: LogHistogram,
    /// Per-shard checkpoint write wall time (µs), when checkpointing.
    pub checkpoint_write_us: LogHistogram,
    /// Total wall time spent merging shard digests (ns).
    pub merge_ns: u64,
    /// End-to-end campaign wall time (ns).
    pub elapsed_ns: u64,
    /// Calls freshly folded by this run (resumed shards excluded).
    pub calls_folded: u64,
}

impl CampaignHealth {
    /// Fresh calls per second over the whole run (0 when nothing ran or
    /// the clock read 0).
    pub fn calls_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            0.0
        } else {
            self.calls_folded as f64 * 1e9 / self.elapsed_ns as f64
        }
    }
}

/// One quarantined shard: a fold that panicked and was isolated instead
/// of killing the campaign. Serialised as is into the campaign report.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct ShardQuarantine {
    /// The shard index.
    pub shard: usize,
    /// The panic payload (stringified), e.g. an invariant-audit message.
    pub reason: String,
}

/// What a campaign run produced.
#[derive(Clone, Debug)]
pub struct CampaignOutcome {
    /// The merged digest over `[0, n_calls)` — `None` when the run was
    /// truncated by `max_new_shards` or degraded by quarantine (a partial
    /// merge would silently drop shards, so none is offered).
    pub digest: Option<ShardDigest>,
    /// Fingerprint of the merged digest (see
    /// [`ShardDigest::fingerprint`]); `None` when incomplete.
    pub fingerprint: Option<u64>,
    /// The merged flight selector — `Some` exactly when the campaign
    /// completed with `flight_k > 0`.
    pub flight: Option<WorstK>,
    /// Aggregated health counters for this run.
    pub health: CampaignHealth,
    /// Shards in the plan.
    pub shards_total: usize,
    /// Shards executed by this run.
    pub shards_run: usize,
    /// Shards loaded from checkpoints.
    pub shards_resumed: usize,
    /// True when every shard is accounted for.
    pub complete: bool,
    /// Shards whose fold panicked, isolated and skipped (sorted by shard
    /// index). Non-empty implies `complete == false`; every *other* shard
    /// still ran and checkpointed.
    pub quarantined: Vec<ShardQuarantine>,
    /// Checkpoint writes that still failed after retries. The affected
    /// shards' results are correct and merged; they simply re-run on
    /// resume.
    pub checkpoint_errors: usize,
}

fn shard_path(dir: &Path, s: usize) -> PathBuf {
    dir.join(format!("shard-{s:06}.json"))
}

/// Extra attempts after a failed checkpoint read/write before giving up.
const IO_RETRIES: u32 = 2;

/// Run `op` up to `1 + IO_RETRIES` times with linear backoff, returning
/// the first success or the final error. `NotFound` never retries — an
/// absent checkpoint is a state, not a transient fault.
fn with_io_retry<T>(mut op: impl FnMut() -> std::io::Result<T>) -> std::io::Result<T> {
    let mut attempt = 0u32;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if attempt < IO_RETRIES && e.kind() != std::io::ErrorKind::NotFound => {
                attempt += 1;
                std::thread::sleep(Duration::from_millis(10 * u64::from(attempt)));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Load one shard checkpoint, returning `None` (shard will re-run) on any
/// mismatch or corruption. Transient read errors retry with backoff;
/// parse and validation failures are permanent. When the campaign records
/// flight data the checkpoint must carry a valid selector of the same
/// `k` — a digest without its selector would silently drop worst calls on
/// resume.
fn load_shard(
    dir: &Path,
    s: usize,
    id: u64,
    schema: &DigestSchema,
    want: (u64, u64),
    flight_k: usize,
) -> Option<(ShardDigest, WorstK)> {
    let text = with_io_retry(|| std::fs::read_to_string(shard_path(dir, s))).ok()?;
    let v: Value = serde_json::from_str(&text).ok()?;
    let file_id = v.get("campaign_id").and_then(Value::as_u64)?;
    if file_id != id {
        return None;
    }
    let d = ShardDigest::from_value_checked(schema, v.get("digest")?).ok()?;
    if (d.first(), d.len()) != want {
        return None;
    }
    let worst = if flight_k == 0 {
        WorstK::new(0)
    } else {
        let w = WorstK::from_value(v.get("flight")?).ok()?;
        if w.k() != flight_k {
            return None;
        }
        w
    };
    Some((d, worst))
}

/// Write one shard checkpoint through [`write_text_atomic`], so a kill
/// mid-write leaves either the old state or a `.tmp` orphan — never a
/// half-written checkpoint under the final name. Transient write/rename
/// errors retry with backoff.
fn store_shard(
    dir: &Path,
    s: usize,
    id: u64,
    schema: &DigestSchema,
    digest: &ShardDigest,
    worst: Option<&WorstK>,
) -> std::io::Result<()> {
    let mut fields = vec![
        ("campaign_id".to_string(), Value::U64(id)),
        ("shard".to_string(), Value::U64(s as u64)),
        ("digest".to_string(), digest.to_value(schema)),
    ];
    if let Some(w) = worst {
        fields.push(("flight".to_string(), w.to_value()));
    }
    let text = serde_json::to_string(&Value::Object(fields))
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let path = shard_path(dir, s);
    with_io_retry(|| write_text_atomic(&path, &text))
}

/// Stringify a `catch_unwind` payload for the quarantine report.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Execute a sharded campaign: resume what the checkpoint directory
/// already holds, run the remaining shards on a [`SweepRunner`], and merge
/// everything in shard order.
///
/// `per_call(i, scratch, digest, worst)` must be a pure function of `i`
/// given the campaign configuration — the same contract as every other
/// sweep, and what makes resumption bit-exact. The scratch is the usual
/// per-worker metrics buffer bundle; the digest is the shard's
/// accumulator; `worst` is the shard's [`WorstK`] flight selector (inert
/// when `cfg.flight_k == 0`, so a fold that never offers to it is the
/// recorder-off campaign). `progress` receives [`CampaignProgress`]
/// snapshots and `heartbeat` is invoked from worker threads as each
/// freshly executed shard completes; pass `|_| {}` for either to ignore
/// it. The merged selector and aggregated [`CampaignHealth`] land on the
/// outcome.
///
/// Memory is **independent of the campaign size**: shards are produced in
/// index-ordered batches of a few per worker and merged into a single
/// running digest as each batch completes, so at most one batch of shard
/// digests is ever live — a 100k-call and a 100M-call campaign peak at the
/// same RSS. The merge consumes shards strictly in index order, which is
/// what keeps fingerprints bit-identical across thread counts and
/// resume/uninterrupted runs.
pub fn run_campaign_observed<F, P, H>(
    cfg: &CampaignConfig,
    schema: &DigestSchema,
    per_call: F,
    progress: P,
    heartbeat: H,
) -> std::io::Result<CampaignOutcome>
where
    F: Fn(u64, &mut MetricsScratch, &mut ShardDigest, &mut WorstK) + Sync,
    P: Fn(&CampaignProgress) + Sync,
    H: Fn(&HeartbeatSample) + Sync,
{
    let started = Instant::now();
    let shards_total = cfg.shards();
    let id = cfg.campaign_id(schema);
    if shards_total == 0 {
        let empty = ShardDigest::new(schema, 0, 0);
        let fp = empty.fingerprint(schema);
        return Ok(CampaignOutcome {
            digest: Some(empty),
            fingerprint: Some(fp),
            flight: (cfg.flight_k > 0).then(|| WorstK::new(cfg.flight_k)),
            health: CampaignHealth::default(),
            shards_total: 0,
            shards_run: 0,
            shards_resumed: 0,
            complete: true,
            quarantined: Vec::new(),
            checkpoint_errors: 0,
        });
    }

    // Phase 1: validity scan. Decide per shard whether its checkpoint
    // resumes (parse + campaign-id + range check). While every shard so far
    // has resumed, the scan merges each one into the running digest and
    // flight selector as it validates it: the merges phase 2 would make,
    // in the same order, so each checkpoint of that valid prefix is read
    // once. Past the first gap only a bit per shard is retained and the
    // parsed digest dropped; those shards are re-read during the merge
    // pass. Either way resident memory stays one running digest no matter
    // how many shards resumed.
    let mut valid = vec![false; shards_total];
    let mut merged: Option<ShardDigest> = None;
    let mut merged_flight = WorstK::new(cfg.flight_k);
    let mut health = CampaignHealth::default();
    let mut prefix = 0usize;
    if let Some(dir) = &cfg.checkpoint_dir {
        std::fs::create_dir_all(dir)?;
        for (s, v) in valid.iter_mut().enumerate() {
            let loaded =
                load_shard(dir, s, id, schema, cfg.shard_range(s), cfg.flight_k);
            *v = loaded.is_some();
            if let Some((d, w)) = loaded.filter(|_| prefix == s) {
                let merge_start = Instant::now();
                merge_shard(&mut merged, &mut merged_flight, d, &w);
                health.merge_ns += elapsed_ns(merge_start);
                prefix += 1;
            }
        }
    }
    let shards_resumed = valid.iter().filter(|v| **v).count();

    // Which missing shards this run may execute: the first
    // `max_new_shards` in index order — deterministic, so a killed run
    // always leaves the same prefix of checkpoints behind.
    let mut todo: Vec<usize> = (0..shards_total).filter(|&s| !valid[s]).collect();
    let skipped = cfg.max_new_shards.map_or(0, |cap| todo.len().saturating_sub(cap));
    if let Some(cap) = cfg.max_new_shards {
        todo.truncate(cap);
    }
    let may_run = {
        let mut m = vec![false; shards_total];
        for &s in &todo {
            m[s] = true;
        }
        m
    };
    let calls_planned: u64 = todo.iter().map(|&s| cfg.shard_range(s).1).sum();

    let calls_done = AtomicU64::new(0);
    let shards_done = AtomicUsize::new(shards_resumed);
    let publish = |calls: u64| {
        progress(&CampaignProgress {
            calls_done: calls,
            calls_planned,
            shards_done: shards_done.load(Ordering::Relaxed),
            shards_total,
            shards_resumed,
        });
    };
    if shards_resumed > 0 || todo.is_empty() {
        publish(0);
    }

    let runner =
        if cfg.threads == 0 { SweepRunner::available() } else { SweepRunner::new(cfg.threads) };
    // Batch size: enough shards per barrier to keep every worker busy,
    // small enough that the live digest set stays O(threads), not
    // O(shards).
    let batch = (runner.threads() * 4).max(8);

    /// How one shard of a batch resolved.
    enum ShardResult {
        /// Resumed from disk (`None` timing) or run fresh (`Some`).
        Done(ShardDigest, WorstK, Option<(u64, u64)>),
        /// The fold panicked; isolated, carrying the panic message.
        Quarantined(String),
        /// Missing: over the `max_new_shards` cap, or a phase-1-valid
        /// checkpoint that changed underneath us.
        Missing,
    }

    let checkpoint_errors = AtomicUsize::new(0);

    // Phase 2: produce + merge, one index-ordered batch at a time, from
    // the first shard after the prefix phase 1 merged. A `Missing` or
    // `Quarantined` shard stops the *merge* (a gapped merge would silently
    // drop shards) but never the *production*: every runnable shard after
    // a bad one still executes and checkpoints, so a degraded campaign
    // leaves the maximum salvageable state behind.
    let mut shards_run = 0usize;
    let mut complete = true;
    let mut merge_ok = true;
    let mut quarantined: Vec<ShardQuarantine> = Vec::new();
    let mut next = prefix;
    while next < shards_total {
        let n = batch.min(shards_total - next);
        let first_shard = next;
        let results: Vec<ShardResult> =
            runner.run_indexed_with(n, MetricsScratch::new, |j, scratch| {
                let s = first_shard + j;
                let (first, len) = cfg.shard_range(s);
                if valid[s] {
                    // Validated in phase 1; a miss here means the file
                    // changed underneath us — surfaced as an incomplete
                    // campaign rather than silently re-running.
                    let Some(dir) = cfg.checkpoint_dir.as_ref() else {
                        return ShardResult::Missing; // unreachable: valid implies dir
                    };
                    return match load_shard(dir, s, id, schema, (first, len), cfg.flight_k) {
                        Some((d, w)) => ShardResult::Done(d, w, None),
                        None => ShardResult::Missing,
                    };
                }
                if !may_run[s] {
                    return ShardResult::Missing;
                }
                let shard_start = Instant::now();
                // Panic isolation: the fold runs under `catch_unwind`, so
                // one poisoned call quarantines its shard instead of
                // tearing down the campaign. Folds are pure functions of
                // the call index, so a panic — and hence the quarantine
                // decision — is deterministic.
                let folded = catch_unwind(AssertUnwindSafe(|| {
                    let mut digest = ShardDigest::new(schema, first, len);
                    let mut worst = WorstK::new(cfg.flight_k);
                    let mut since_publish = 0u64;
                    for i in first..first + len {
                        per_call(i, scratch, &mut digest, &mut worst);
                        since_publish += 1;
                        if since_publish == PROGRESS_CHUNK {
                            let done = calls_done.fetch_add(since_publish, Ordering::Relaxed)
                                + since_publish;
                            since_publish = 0;
                            publish(done);
                        }
                    }
                    (digest, worst, since_publish)
                }));
                let (digest, worst, since_publish) = match folded {
                    Ok(v) => v,
                    Err(payload) => {
                        // The scratch may have been abandoned mid-mutation;
                        // hand the worker a fresh one before its next task.
                        *scratch = MetricsScratch::new();
                        return ShardResult::Quarantined(panic_message(payload));
                    }
                };
                let shard_wall_ns = elapsed_ns(shard_start);
                let done =
                    calls_done.fetch_add(since_publish, Ordering::Relaxed) + since_publish;
                let mut checkpoint_write_ns = 0;
                if let Some(dir) = &cfg.checkpoint_dir {
                    // A checkpoint failure (after retries) is surfaced in
                    // the outcome, but is not worth killing a running
                    // campaign over: the shard result is still correct, a
                    // later run simply re-executes it.
                    let write_start = Instant::now();
                    let flight = (cfg.flight_k > 0).then_some(&worst);
                    if store_shard(dir, s, id, schema, &digest, flight).is_err() {
                        checkpoint_errors.fetch_add(1, Ordering::Relaxed);
                    }
                    checkpoint_write_ns = elapsed_ns(write_start);
                }
                let finished = shards_done.fetch_add(1, Ordering::Relaxed) + 1;
                publish(done);
                heartbeat(&HeartbeatSample {
                    shard: s,
                    calls: len,
                    shard_wall_ns,
                    checkpoint_write_ns,
                    shards_done: finished,
                    shards_total,
                    calls_done: done,
                    elapsed_ns: elapsed_ns(started),
                });
                ShardResult::Done(digest, worst, Some((shard_wall_ns, checkpoint_write_ns)))
            });
        next += n;
        let merge_start = Instant::now();
        for (j, r) in results.into_iter().enumerate() {
            let s = first_shard + j;
            match r {
                ShardResult::Done(d, w, timing) => {
                    if !valid[s] {
                        shards_run += 1;
                    }
                    if let Some((wall, ckpt)) = timing {
                        health.shard_wall_us.record(wall / 1_000);
                        if cfg.checkpoint_dir.is_some() {
                            health.checkpoint_write_us.record(ckpt / 1_000);
                        }
                        health.calls_folded += d.len();
                    }
                    if merge_ok {
                        merge_shard(&mut merged, &mut merged_flight, d, &w);
                    }
                }
                ShardResult::Quarantined(reason) => {
                    complete = false;
                    merge_ok = false;
                    quarantined.push(ShardQuarantine { shard: s, reason });
                }
                ShardResult::Missing => {
                    complete = false;
                    merge_ok = false;
                }
            }
        }
        health.merge_ns += elapsed_ns(merge_start);
    }
    // Shards past the cap never ran; they are missing by construction.
    if skipped > 0 {
        complete = false;
    }
    health.elapsed_ns = elapsed_ns(started);

    let (digest, fingerprint, flight) = if complete {
        match merged {
            Some(m) => {
                let fp = m.fingerprint(schema);
                (Some(m), Some(fp), (cfg.flight_k > 0).then_some(merged_flight))
            }
            // Structurally unreachable (shards_total == 0 returned early),
            // but a propagated error beats a panic on an engine bug.
            None => {
                return Err(std::io::Error::other(
                    "campaign marked complete with no merged shards",
                ))
            }
        }
    } else {
        (None, None, None)
    };

    Ok(CampaignOutcome {
        digest,
        fingerprint,
        flight,
        health,
        shards_total,
        shards_run,
        shards_resumed,
        complete,
        quarantined,
        checkpoint_errors: checkpoint_errors.load(Ordering::Relaxed),
    })
}

/// Fold one shard into the running merge. The first shard seeds the
/// digest; every later one merges into it, so resume and fresh runs that
/// merge the same shards in the same order produce the same bits.
fn merge_shard(
    merged: &mut Option<ShardDigest>,
    merged_flight: &mut WorstK,
    d: ShardDigest,
    w: &WorstK,
) {
    merged_flight.merge_from(w);
    match merged {
        None => *merged = Some(d),
        Some(acc) => acc.merge_from(&d),
    }
}

/// Saturating wall-clock nanoseconds since `start`.
fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::ChannelId;
    use crate::flight::FlightKey;
    use crate::rng::SeedFactory;

    fn schema() -> (DigestSchema, [ChannelId; 3]) {
        let mut s = DigestSchema::new();
        let a = s.counter("events");
        let b = s.summary("value");
        let c = s.sketch("value_q");
        (s, [a, b, c])
    }

    fn fold(ids: [ChannelId; 3]) -> impl Fn(u64, &mut MetricsScratch, &mut ShardDigest) + Sync {
        let seeds = SeedFactory::new(0xCA3A16);
        move |i, _scratch, d| {
            let mut rng = seeds.stream("call", i);
            d.add(ids[0], 1);
            let x = rng.normal(5.0, 2.0);
            d.observe(ids[1], x);
            d.sketch_insert(ids[2], x);
        }
    }

    /// The engine with no-op observers: the fold never offers to the
    /// flight selector, and progress and heartbeats are ignored.
    fn run(
        cfg: &CampaignConfig,
        schema: &DigestSchema,
        per_call: impl Fn(u64, &mut MetricsScratch, &mut ShardDigest) + Sync,
    ) -> std::io::Result<CampaignOutcome> {
        run_campaign_observed(cfg, schema, |i, s, d, _| per_call(i, s, d), |_| {}, |_| {})
    }

    /// The observed fold: same digest work as [`fold`], plus every call
    /// below the trigger offers its score to the flight selector.
    fn observed_fold(
        ids: [ChannelId; 3],
        trigger: f64,
    ) -> impl Fn(u64, &mut MetricsScratch, &mut ShardDigest, &mut WorstK) + Sync {
        let seeds = SeedFactory::new(0xCA3A16);
        move |i, _scratch, d, worst| {
            let mut rng = seeds.stream("call", i);
            d.add(ids[0], 1);
            let x = rng.normal(5.0, 2.0);
            d.observe(ids[1], x);
            d.sketch_insert(ids[2], x);
            if x < trigger {
                worst.offer(FlightKey { score: x, seed: 0xCA3A16, index: i });
            }
        }
    }

    #[test]
    fn campaign_is_thread_count_invariant() {
        let (schema, ids) = schema();
        let mut fps = Vec::new();
        for threads in [1usize, 2, 4, 8] {
            let mut cfg = CampaignConfig::new(10_000);
            cfg.shard_size = 768;
            cfg.threads = threads;
            let out = run(&cfg, &schema, fold(ids)).unwrap();
            assert!(out.complete);
            assert_eq!(out.shards_run, cfg.shards());
            fps.push(out.fingerprint.unwrap());
        }
        assert!(fps.windows(2).all(|w| w[0] == w[1]), "fingerprints differ: {fps:x?}");
    }

    #[test]
    fn campaign_digest_matches_serial_fold() {
        let (schema, ids) = schema();
        let n = 5000u64;
        let mut cfg = CampaignConfig::new(n);
        cfg.shard_size = 512;
        cfg.threads = 4;
        let out = run(&cfg, &schema, fold(ids)).unwrap();

        let f = fold(ids);
        let mut scratch = MetricsScratch::new();
        let mut whole = ShardDigest::new(&schema, 0, n);
        for i in 0..n {
            f(i, &mut scratch, &mut whole);
        }
        // The sharded sketch differs from the single-pass sketch only by
        // compaction boundaries; counters and summaries must agree
        // exactly.
        let got = out.digest.unwrap();
        assert_eq!(got.count(ids[0]), whole.count(ids[0]));
        assert_eq!(got.summary(ids[1]).count(), whole.summary(ids[1]).count());
        assert!((got.summary(ids[1]).mean() - whole.summary(ids[1]).mean()).abs() < 1e-9);
        assert_eq!(
            got.summary(ids[1]).min().to_bits(),
            whole.summary(ids[1]).min().to_bits()
        );
    }

    #[test]
    fn progress_reaches_total() {
        let (schema, ids) = schema();
        let mut cfg = CampaignConfig::new(9000);
        cfg.shard_size = 1024;
        cfg.threads = 2;
        let max_seen = AtomicU64::new(0);
        let f = fold(ids);
        let out = run_campaign_observed(
            &cfg,
            &schema,
            |i, scratch, d, _| f(i, scratch, d),
            |p| {
                max_seen.fetch_max(p.calls_done, Ordering::Relaxed);
                assert!(p.shards_done <= p.shards_total);
            },
            |_| {},
        )
        .unwrap();
        assert!(out.complete);
        assert_eq!(max_seen.load(Ordering::Relaxed), 9000);
    }

    #[test]
    fn resume_is_bit_identical_and_corruption_is_survived() {
        let (schema, ids) = schema();
        let dir = std::env::temp_dir().join(format!(
            "diversifi-campaign-test-{}-{}",
            std::process::id(),
            0xC0FFEEu32
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let mut cfg = CampaignConfig::new(6000);
        cfg.shard_size = 500;
        cfg.threads = 4;

        // Uninterrupted reference (no checkpointing at all).
        let reference = run(&cfg, &schema, fold(ids)).unwrap();

        // Interrupted: run only 5 of the 12 shards, then "kill".
        cfg.checkpoint_dir = Some(dir.clone());
        cfg.max_new_shards = Some(5);
        let partial = run(&cfg, &schema, fold(ids)).unwrap();
        assert!(!partial.complete);
        assert_eq!(partial.shards_run, 5);
        assert!(partial.digest.is_none());

        // Simulate a kill mid-checkpoint-write: corrupt one finished shard
        // and truncate another to garbage.
        std::fs::write(shard_path(&dir, 0), "{\"campaign_id\":1,tr").unwrap();
        std::fs::write(shard_path(&dir, 1), "").unwrap();

        // Resume to completion.
        cfg.max_new_shards = None;
        let resumed = run(&cfg, &schema, fold(ids)).unwrap();
        assert!(resumed.complete);
        // 3 valid checkpoints survive (5 written − 2 corrupted).
        assert_eq!(resumed.shards_resumed, 3);
        assert_eq!(resumed.shards_run, cfg.shards() - 3);
        assert_eq!(resumed.fingerprint, reference.fingerprint);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoints_from_other_campaigns_are_rejected() {
        let (schema, ids) = schema();
        let dir = std::env::temp_dir().join(format!(
            "diversifi-campaign-test-{}-{}",
            std::process::id(),
            0xBEEFu32
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let mut cfg = CampaignConfig::new(2000);
        cfg.shard_size = 400;
        cfg.checkpoint_dir = Some(dir.clone());
        cfg.config_fingerprint = 1;
        run(&cfg, &schema, fold(ids)).unwrap();

        // Same directory, different config fingerprint: nothing resumes.
        cfg.config_fingerprint = 2;
        let out = run(&cfg, &schema, fold(ids)).unwrap();
        assert_eq!(out.shards_resumed, 0);
        assert_eq!(out.shards_run, cfg.shards());

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The core observability contract at engine level: same digest
    /// fingerprint with the recorder on or off, and the same top-K set at
    /// every thread count.
    #[test]
    fn flight_selection_never_perturbs_digests_and_is_thread_invariant() {
        let (schema, ids) = schema();
        let mut selections: Vec<Vec<(u64, u64)>> = Vec::new();
        let mut fps = Vec::new();
        for threads in [1usize, 2, 4, 8] {
            let mut cfg = CampaignConfig::new(10_000);
            cfg.shard_size = 768;
            cfg.threads = threads;
            cfg.flight_k = 6;
            let out = run_campaign_observed(
                &cfg,
                &schema,
                observed_fold(ids, 2.0),
                |_| {},
                |_| {},
            )
            .unwrap();
            assert!(out.complete);
            fps.push(out.fingerprint.unwrap());
            let flight = out.flight.expect("flight_k > 0 yields a selector");
            assert!(flight.len() <= 6);
            assert!(!flight.is_empty(), "normal(5,2) dips under 2.0 in 10k draws");
            selections.push(
                flight.entries().iter().map(|e| (e.index, e.score.to_bits())).collect(),
            );
        }
        assert!(selections.windows(2).all(|w| w[0] == w[1]), "top-K differs: {selections:?}");

        // Recorder off: identical digest fingerprint.
        let mut cfg = CampaignConfig::new(10_000);
        cfg.shard_size = 768;
        let off = run(&cfg, &schema, fold(ids)).unwrap();
        assert!(fps.iter().all(|fp| *fp == off.fingerprint.unwrap()));
    }

    /// Kill/resume with the recorder on: the selector survives shard
    /// checkpoints exactly, and recorder-on checkpoints never resume into
    /// a recorder-off campaign (or one with a different k).
    #[test]
    fn flight_selection_survives_kill_resume_bit_exactly() {
        let (schema, ids) = schema();
        let dir = std::env::temp_dir().join(format!(
            "diversifi-flight-test-{}-{}",
            std::process::id(),
            0xF11E57u32
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let mut cfg = CampaignConfig::new(6000);
        cfg.shard_size = 500;
        cfg.threads = 4;
        cfg.flight_k = 5;

        let reference =
            run_campaign_observed(&cfg, &schema, observed_fold(ids, 3.0), |_| {}, |_| {})
                .unwrap();

        cfg.checkpoint_dir = Some(dir.clone());
        cfg.max_new_shards = Some(5);
        let partial =
            run_campaign_observed(&cfg, &schema, observed_fold(ids, 3.0), |_| {}, |_| {})
                .unwrap();
        assert!(!partial.complete);
        assert!(partial.flight.is_none(), "incomplete campaigns offer no selection");

        cfg.max_new_shards = None;
        let hb_shards = AtomicUsize::new(0);
        let resumed = run_campaign_observed(
            &cfg,
            &schema,
            observed_fold(ids, 3.0),
            |_| {},
            |hb| {
                assert!(hb.calls > 0 && hb.shards_done <= hb.shards_total);
                hb_shards.fetch_add(1, Ordering::Relaxed);
            },
        )
        .unwrap();
        assert!(resumed.complete);
        assert_eq!(resumed.fingerprint, reference.fingerprint);
        // Heartbeats fire once per freshly executed shard.
        assert_eq!(hb_shards.load(Ordering::Relaxed), resumed.shards_run);
        assert!(resumed.health.shard_wall_us.count() == resumed.shards_run as u64);
        let (a, b) = (reference.flight.unwrap(), resumed.flight.unwrap());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.entries().iter().zip(b.entries()) {
            assert_eq!(x.score.to_bits(), y.score.to_bits());
            assert_eq!((x.seed, x.index), (y.seed, y.index));
        }

        // A recorder-off run over the same directory must reject every
        // recorder-on checkpoint (different campaign id), not merge them.
        let mut off = cfg.clone();
        off.flight_k = 0;
        let out = run(&off, &schema, fold(ids)).unwrap();
        assert_eq!(out.shards_resumed, 0);
        assert_eq!(out.fingerprint, reference.fingerprint);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The validity scan merges the prefix of resuming shards as it reads
    /// them and the merge pass takes over at the first gap. Wherever the
    /// gaps fall, and under a `max_new_shards` cap, a resume reports what
    /// merging every shard in the merge pass gives: the uninterrupted
    /// digest and flight selection when complete, none otherwise, and
    /// shard counts set by which checkpoints survive.
    #[test]
    fn prefix_merge_keeps_every_outcome() {
        let (schema, ids) = schema();
        let dir = std::env::temp_dir().join(format!(
            "diversifi-prefix-test-{}-{}",
            std::process::id(),
            0x9F1Cu32
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let mut cfg = CampaignConfig::new(6000);
        cfg.shard_size = 500;
        cfg.threads = 2;
        cfg.flight_k = 5;
        let observed = |cfg: &CampaignConfig| {
            run_campaign_observed(cfg, &schema, observed_fold(ids, 3.0), |_| {}, |_| {}).unwrap()
        };
        let reference = observed(&cfg);
        let selection = |w: &WorstK| -> Vec<(u64, u64, u64)> {
            w.entries().iter().map(|e| (e.score.to_bits(), e.seed, e.index)).collect()
        };
        let want_flight = selection(reference.flight.as_ref().unwrap());

        cfg.checkpoint_dir = Some(dir.clone());
        assert_eq!(observed(&cfg).fingerprint, reference.fingerprint);
        let shards = cfg.shards();
        let saved: Vec<Vec<u8>> =
            (0..shards).map(|s| std::fs::read(shard_path(&dir, s)).unwrap()).collect();

        // (missing checkpoints, cap on newly run shards)
        let cases: [(&[usize], Option<usize>); 4] =
            [(&[], None), (&[0], None), (&[5, 6], None), (&[3, 8], Some(1))];
        for (gaps, cap) in cases {
            for (s, bytes) in saved.iter().enumerate() {
                std::fs::write(shard_path(&dir, s), bytes).unwrap();
            }
            for &s in gaps {
                std::fs::remove_file(shard_path(&dir, s)).unwrap();
            }
            cfg.max_new_shards = cap;
            let out = observed(&cfg);
            let ran = cap.map_or(gaps.len(), |c| c.min(gaps.len()));
            assert_eq!(out.shards_resumed, shards - gaps.len(), "gaps {gaps:?}");
            assert_eq!(out.shards_run, ran, "gaps {gaps:?}");
            assert_eq!(out.complete, ran == gaps.len(), "gaps {gaps:?}");
            if out.complete {
                let digest = out.digest.as_ref().unwrap();
                assert_eq!(Some(digest.fingerprint(&schema)), reference.fingerprint);
                assert_eq!(out.fingerprint, reference.fingerprint, "gaps {gaps:?}");
                assert_eq!(selection(out.flight.as_ref().unwrap()), want_flight, "gaps {gaps:?}");
            } else {
                assert!(out.digest.is_none() && out.fingerprint.is_none() && out.flight.is_none());
                // The capped run checkpointed the first gap; one more run
                // fills the second and completes.
                cfg.max_new_shards = None;
                let rest = observed(&cfg);
                assert_eq!((rest.shards_run, rest.shards_resumed), (1, shards - 1));
                assert_eq!(rest.fingerprint, reference.fingerprint);
                assert_eq!(selection(rest.flight.as_ref().unwrap()), want_flight);
            }
            if gaps.is_empty() {
                assert!(out.health.merge_ns > 0, "the scan's merges count as merge time");
            }
        }

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The digest fold, except one specific call panics — the poisoned
    /// shard injection used by the supervisor tests.
    fn poisoned_fold(
        ids: [ChannelId; 3],
        poison: u64,
    ) -> impl Fn(u64, &mut MetricsScratch, &mut ShardDigest) + Sync {
        let inner = fold(ids);
        move |i, scratch, d| {
            assert!(i != poison, "call {i} poisoned");
            inner(i, scratch, d);
        }
    }

    /// A panicking shard is quarantined — the campaign completes degraded
    /// (every other shard runs), reports the shard and its panic message,
    /// and the quarantine decision is identical at every thread count.
    #[test]
    fn poisoned_shard_is_quarantined_not_fatal() {
        let (schema, ids) = schema();
        for threads in [1usize, 4] {
            let mut cfg = CampaignConfig::new(6000);
            cfg.shard_size = 500;
            cfg.threads = threads;
            // Call 1700 lives in shard 3.
            let out = run(&cfg, &schema, poisoned_fold(ids, 1700)).unwrap();
            assert!(!out.complete, "threads={threads}");
            assert!(out.digest.is_none() && out.fingerprint.is_none());
            assert_eq!(out.quarantined.len(), 1);
            assert_eq!(out.quarantined[0].shard, 3);
            assert!(
                out.quarantined[0].reason.contains("poisoned"),
                "panic message must survive: {:?}",
                out.quarantined[0].reason
            );
            // Every healthy shard still ran.
            assert_eq!(out.shards_run, cfg.shards() - 1, "threads={threads}");
        }
        // The campaign report serialises the record field by field.
        let q = ShardQuarantine { shard: 3, reason: "poisoned \"x\"".into() };
        assert_eq!(serde_json::to_string(&q).unwrap(), r#"{"shard":3,"reason":"poisoned \"x\""}"#);
    }

    /// Satellite: resume-after-quarantine. A campaign with one poisoned
    /// shard checkpoints every healthy shard byte-identically to an
    /// unpoisoned run, and resuming with the fixed fold re-executes only
    /// the quarantined shard and lands on the reference fingerprint.
    #[test]
    fn resume_after_quarantine_is_bit_identical() {
        let (schema, ids) = schema();
        let mk_dir = |tag: u32| {
            let dir = std::env::temp_dir().join(format!(
                "diversifi-quarantine-test-{}-{tag}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        };
        let poisoned_dir = mk_dir(1);
        let clean_dir = mk_dir(2);

        let mut cfg = CampaignConfig::new(6000);
        cfg.shard_size = 500;
        cfg.threads = 4;

        // Unpoisoned references: one without checkpoints (fingerprint),
        // one with (per-shard checkpoint bytes).
        let reference = run(&cfg, &schema, fold(ids)).unwrap();
        cfg.checkpoint_dir = Some(clean_dir.clone());
        let clean = run(&cfg, &schema, fold(ids)).unwrap();
        assert_eq!(clean.fingerprint, reference.fingerprint);

        // Poisoned run: shard 3 dies, everything else checkpoints.
        cfg.checkpoint_dir = Some(poisoned_dir.clone());
        let poisoned = run(&cfg, &schema, poisoned_fold(ids, 1700)).unwrap();
        assert!(!poisoned.complete);
        assert_eq!(poisoned.quarantined.len(), 1);
        assert_eq!(poisoned.quarantined[0].shard, 3);
        for s in 0..cfg.shards() {
            let path = shard_path(&poisoned_dir, s);
            if s == 3 {
                assert!(!path.exists(), "quarantined shard must not checkpoint");
            } else {
                // Healthy-shard checkpoints are byte-identical to the
                // unpoisoned run's.
                let a = std::fs::read(&path).unwrap();
                let b = std::fs::read(shard_path(&clean_dir, s)).unwrap();
                assert_eq!(a, b, "shard {s} checkpoint differs");
            }
        }

        // Resume with the fixed fold: only the quarantined shard re-runs.
        let resumed = run(&cfg, &schema, fold(ids)).unwrap();
        assert!(resumed.complete);
        assert!(resumed.quarantined.is_empty());
        assert_eq!(resumed.shards_resumed, cfg.shards() - 1);
        assert_eq!(resumed.shards_run, 1);
        assert_eq!(resumed.fingerprint, reference.fingerprint);

        let _ = std::fs::remove_dir_all(&poisoned_dir);
        let _ = std::fs::remove_dir_all(&clean_dir);
    }

    /// A checkpoint write that keeps failing is counted and survived —
    /// the campaign completes with a correct digest; only resume coverage
    /// is lost for that shard.
    #[test]
    fn checkpoint_write_failure_degrades_not_panics() {
        let (schema, ids) = schema();
        let dir = std::env::temp_dir().join(format!(
            "diversifi-ckpt-fail-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Occupy shard 0's temp path with a *directory*: fs::write fails
        // (EISDIR) every attempt, exhausting the retries.
        std::fs::create_dir_all(dir.join("shard-000000.json.tmp")).unwrap();

        let mut cfg = CampaignConfig::new(2000);
        cfg.shard_size = 500;
        cfg.checkpoint_dir = Some(dir.clone());
        let out = run(&cfg, &schema, fold(ids)).unwrap();
        assert!(out.complete, "IO failure must not block the fold");
        assert_eq!(out.checkpoint_errors, 1);
        assert!(out.digest.is_some());
        // The other shards checkpointed fine.
        assert!(shard_path(&dir, 1).exists());
        assert!(!shard_path(&dir, 0).exists());

        let _ = std::fs::remove_dir_all(&dir);
    }
}
