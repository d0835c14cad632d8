//! Flight-recorder determinism: the top-K worst-call selection — and the
//! forensic captures re-simulated from it — are identical at every
//! thread count and across a checkpoint kill/resume, while the campaign
//! digest fingerprint is byte-identical with the recorder on or off.
//!
//! This is the acceptance contract of the observability layer: arming
//! the recorder must never perturb results, and what it records must be
//! a pure function of `(scenario, selection)`.

use diversifi::campaign::run_fleet_campaign_observed;
use diversifi::flight::capture_worst_calls;
use diversifi::scenario::{Scenario, Traffic};
use diversifi_simcore::export;
use diversifi_voip::FpsConfig;
use std::path::PathBuf;

fn voip_scenario() -> Scenario {
    let mut s = Scenario::new("flight-voip", 0xF11E57);
    s.fleet.calls = 6000;
    s.campaign.shard_size = 500;
    s.arms.clear();
    s
}

fn fps_scenario() -> Scenario {
    let mut s = voip_scenario();
    s.name = "flight-fps".to_string();
    s.traffic = Traffic::Fps(FpsConfig::office());
    s
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dvf-flight-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The selector's exact content: (score bits, seed, index) per entry.
fn selection_of(run: &diversifi::campaign::FleetCampaignRun) -> Vec<(u64, u64, u64)> {
    run.flight
        .as_ref()
        .expect("recorder armed")
        .entries()
        .iter()
        .map(|e| (e.score.to_bits(), e.seed, e.index))
        .collect()
}

#[test]
fn recorder_on_matches_recorder_off_at_every_thread_count() {
    for scn in [voip_scenario(), fps_scenario()] {
        let mut off_cfg = scn.campaign_config();
        off_cfg.threads = 1;
        let off = run_fleet_campaign_observed(&scn, &off_cfg, |_| {}, |_| {})
            .expect("recorder-off run")
            .report;

        let mut selections = Vec::new();
        for threads in [1usize, 2, 4, 8] {
            let mut cfg = scn.campaign_config();
            cfg.threads = threads;
            cfg.flight_k = 5;
            let run = run_fleet_campaign_observed(&scn, &cfg, |_| {}, |_| {})
                .expect("recorder-on run");
            assert_eq!(
                run.report.fingerprint, off.fingerprint,
                "{}: recorder-on fingerprint differs from recorder-off at {threads} threads",
                scn.name
            );
            let sel = selection_of(&run);
            assert!(!sel.is_empty(), "{}: some calls score below the poor trigger", scn.name);
            assert!(sel.len() <= 5);
            selections.push(sel);
        }
        assert!(
            selections.windows(2).all(|w| w[0] == w[1]),
            "{}: top-K selection varies with thread count: {selections:?}",
            scn.name
        );
        // The report mirrors the selector, worst first.
        let report_flight = {
            let mut cfg = scn.campaign_config();
            cfg.flight_k = 5;
            let run = run_fleet_campaign_observed(&scn, &cfg, |_| {}, |_| {}).unwrap();
            run.report.flight.expect("armed recorder reports its selection")
        };
        assert_eq!(report_flight.len(), selections[0].len());
        assert!(
            report_flight.windows(2).all(|w| w[0].score <= w[1].score),
            "report entries must be worst-first"
        );
    }
}

#[test]
fn selection_and_captures_survive_kill_resume_bit_exactly() {
    let scn = fps_scenario();
    let mut cfg = scn.campaign_config();
    cfg.threads = 4;
    cfg.flight_k = 3;
    let reference =
        run_fleet_campaign_observed(&scn, &cfg, |_| {}, |_| {}).expect("uninterrupted run");

    let dir = tmp_dir("resume");
    cfg.checkpoint_dir = Some(dir.clone());
    let mut killed = cfg.clone();
    killed.max_new_shards = Some(5);
    let err = run_fleet_campaign_observed(&scn, &killed, |_| {}, |_| {})
        .expect_err("truncated campaign must not produce a report");
    assert!(err.to_string().contains("incomplete"), "unexpected error: {err}");

    let resumed =
        run_fleet_campaign_observed(&scn, &cfg, |_| {}, |_| {}).expect("resumed run completes");
    assert!(resumed.report.shards_resumed > 0, "the resume must actually load checkpoints");
    assert_eq!(resumed.report.fingerprint, reference.report.fingerprint);
    assert_eq!(selection_of(&resumed), selection_of(&reference));

    // The forensic captures re-simulated from the two selections are the
    // same labelled runs and event streams, bit for bit (and byte for byte
    // once exported).
    let a = capture_worst_calls(&scn, reference.flight.as_ref().unwrap(), 2048);
    let b = capture_worst_calls(&scn, resumed.flight.as_ref().unwrap(), 2048);
    assert!(!a.runs.is_empty());
    assert_eq!(a.runs, b.runs, "run labels and eviction counts differ between runs");
    assert_eq!(a.dropped, b.dropped);
    assert_eq!(a.events, b.events, "captured event streams differ between runs");
    assert_eq!(export::jsonl(&a), export::jsonl(&b));
    assert_eq!(export::chrome_trace(&a), export::chrome_trace(&b));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn heartbeats_fire_per_fresh_shard_and_health_lands_in_the_report() {
    let scn = voip_scenario();
    let mut cfg = scn.campaign_config();
    cfg.threads = 2;
    let shards = std::sync::atomic::AtomicUsize::new(0);
    let run = run_fleet_campaign_observed(
        &scn,
        &cfg,
        |_| {},
        |hb| {
            assert!(hb.calls > 0);
            assert!(hb.shards_done <= hb.shards_total);
            shards.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        },
    )
    .expect("campaign run");
    assert_eq!(
        shards.load(std::sync::atomic::Ordering::Relaxed),
        run.report.shards_run,
        "one heartbeat per freshly executed shard"
    );
    let h = &run.report.health;
    assert_eq!(h.shards_timed, run.report.shards_run as u64);
    assert!(h.elapsed_s > 0.0);
    assert!(h.shard_wall_p50_us <= h.shard_wall_p99_us);
    // Recorder off by default: no flight section in the artifact.
    assert!(run.report.flight.is_none());
    assert!(run.flight.is_none());
}
