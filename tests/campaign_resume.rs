//! Scenario-level checkpoint/resume: a campaign killed mid-run and
//! resumed — at any thread count, and through checkpoint corruption —
//! produces a report bit-identical to the uninterrupted run.
//!
//! The engine-level variant of this lives in `simcore::campaign`'s unit
//! tests; this one drives the full `run_fleet_campaign_observed` stack
//! (scenario → population sampler → fleet digest), the same path as
//! `repro --campaign`.

use diversifi::campaign::run_fleet_campaign_observed;
use diversifi::scenario::Scenario;
use std::path::PathBuf;

/// A fleet small enough to run in milliseconds but with enough shards
/// (16) that a mid-run kill leaves real work behind.
fn tiny_scenario() -> Scenario {
    let mut s = Scenario::new("resume", 0xC0FFEE);
    s.fleet.calls = 4096;
    s.campaign.shard_size = 256;
    s.arms.clear(); // skip the closed-loop probes; this test is about the fold
    s
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir()
        .join(format!("dvf-campaign-resume-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Fingerprint + summary stats of an uninterrupted, unsharded-state-free
/// reference run (no checkpoint dir, single thread).
fn reference() -> (u64, u64, u64) {
    let scn = tiny_scenario();
    let mut cfg = scn.campaign_config();
    cfg.threads = 1;
    let rep = run_fleet_campaign_observed(&scn, &cfg, |_| {}, |_| {})
        .expect("reference run")
        .report;
    (rep.fingerprint, rep.mos_p50.to_bits(), rep.poor_rate.to_bits())
}

#[test]
fn kill_resume_is_bit_identical_at_every_thread_count() {
    let (want_fp, want_p50, want_poor) = reference();
    let scn = tiny_scenario();

    for threads in [1usize, 2, 4, 8] {
        let dir = tmp_dir(&format!("t{threads}"));
        let mut cfg = scn.campaign_config();
        cfg.threads = threads;
        cfg.checkpoint_dir = Some(dir.clone());

        // Kill after 5 freshly executed shards (of 16): the run is
        // incomplete, so no merged digest is offered.
        let mut killed = cfg.clone();
        killed.max_new_shards = Some(5);
        let err = run_fleet_campaign_observed(&scn, &killed, |_| {}, |_| {})
            .expect_err("truncated campaign must not produce a report");
        assert!(err.to_string().contains("incomplete"), "unexpected error: {err}");
        let shards_left: Vec<_> = std::fs::read_dir(&dir)
            .expect("checkpoint dir exists after the kill")
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(shards_left.len(), 5, "exactly the executed shards checkpoint");
        assert!(
            shards_left.iter().all(|n| n.starts_with("shard-") && n.ends_with(".json")),
            "unexpected checkpoint names: {shards_left:?}"
        );

        // Corrupt one surviving checkpoint: truncate it mid-JSON. The
        // resume must discard (and re-run) that shard, not crash and not
        // absorb garbage.
        let victim = dir.join(&shards_left[0]);
        let body = std::fs::read_to_string(&victim).unwrap();
        std::fs::write(&victim, &body[..body.len() / 2]).unwrap();

        // Resume to completion.
        let rep = run_fleet_campaign_observed(&scn, &cfg, |_| {}, |_| {})
            .expect("resumed campaign completes")
            .report;

        assert_eq!(rep.shards_total, 16);
        assert_eq!(
            rep.shards_resumed, 4,
            "resume loads the intact checkpoints and discards the corrupt one"
        );
        assert_eq!(rep.shards_run, 12);
        assert_eq!(
            rep.fingerprint, want_fp,
            "threads={threads}: resumed fingerprint differs from uninterrupted"
        );
        assert_eq!(rep.mos_p50.to_bits(), want_p50, "threads={threads}: p50 differs");
        assert_eq!(rep.poor_rate.to_bits(), want_poor, "threads={threads}: poor rate differs");

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A second resume of an already-complete campaign re-reads every shard
/// from disk, runs nothing, and still lands on the same fingerprint.
#[test]
fn completed_campaign_resumes_from_checkpoints_alone() {
    let (want_fp, _, _) = reference();
    let scn = tiny_scenario();
    let dir = tmp_dir("full");
    let mut cfg = scn.campaign_config();
    cfg.threads = 3;
    cfg.checkpoint_dir = Some(dir.clone());

    let first = run_fleet_campaign_observed(&scn, &cfg, |_| {}, |_| {}).expect("first run").report;
    assert_eq!(first.fingerprint, want_fp);
    assert_eq!(first.shards_run, 16);

    let second = run_fleet_campaign_observed(&scn, &cfg, |_| {}, |_| {})
        .expect("pure resume")
        .report;
    assert_eq!(second.shards_run, 0, "nothing left to execute");
    assert_eq!(second.shards_resumed, 16);
    assert_eq!(second.fingerprint, want_fp, "checkpoint-only run is bit-identical");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Editing the scenario invalidates the old checkpoints: the campaign id
/// (which folds the scenario fingerprint) no longer matches, so resumed
/// shards are discarded and everything re-runs.
#[test]
fn edited_scenario_discards_stale_checkpoints() {
    let scn = tiny_scenario();
    let dir = tmp_dir("stale");
    let mut cfg = scn.campaign_config();
    cfg.threads = 2;
    cfg.checkpoint_dir = Some(dir.clone());
    run_fleet_campaign_observed(&scn, &cfg, |_| {}, |_| {}).expect("first run");

    let mut edited = tiny_scenario();
    edited.seed = 0xBEEF; // different fleet → old checkpoints are poison
    let mut cfg2 = edited.campaign_config();
    cfg2.threads = 2;
    cfg2.checkpoint_dir = Some(dir.clone());
    let rep = run_fleet_campaign_observed(&edited, &cfg2, |_| {}, |_| {}).expect("rerun").report;
    assert_eq!(rep.shards_resumed, 0, "stale checkpoints must not be absorbed");
    assert_eq!(rep.shards_run, 16);

    let _ = std::fs::remove_dir_all(&dir);
}
