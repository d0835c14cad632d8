//! The `repro` command line, driven through the built binary on inputs
//! that are refused before any simulation runs (plus `status`, `--help`
//! and `validate`, which start none). Every refusal must be one
//! `error: …` line and exit code 2, and nothing may panic.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Run `repro` with `args`; returns (exit code, stdout, stderr).
fn repro(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(scratch("cwd"))
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(!stderr.contains("panicked"), "repro {args:?} panicked:\n{stderr}");
    (out.status.code().expect("repro exits"), String::from_utf8_lossy(&out.stdout).into_owned(), stderr)
}

/// `repro args` must fail with exit 2 and the one line `error: {want}`.
fn refused(args: &[&str], want: &str) {
    let (code, stdout, stderr) = repro(args);
    assert_eq!(code, 2, "repro {args:?}: stderr {stderr}");
    assert_eq!(stderr, format!("error: {want}\n"), "repro {args:?}");
    assert!(!stdout.contains("[artifact]"), "repro {args:?} wrote artifacts: {stdout}");
}

/// A fresh directory of this test binary's own under the build's scratch
/// space.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro-cli").join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A committed scenario file.
fn scenario(name: &str) -> String {
    format!("{}/../../scenarios/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn unknown_subcommands_flags_and_experiments_are_refused() {
    refused(&["--quik", "all"], "unknown flag --quik");
    refused(&["fig7"], "unknown experiment or subcommand fig7");
    refused(&["chaoss", "x.toml"], "unknown experiment or subcommand chaoss");
    refused(&["--quick", "chaos"], "the subcommand chaos must come first: repro chaos ...");
    refused(&["--bench-compare"], "unknown flag --bench-compare");
    refused(&["--resilience"], "unknown flag --resilience");
    refused(&["--trace-out", "t.json"], "unknown flag --trace-out");
    refused(&["--campaign", "f.toml"], "unknown flag --campaign");
    refused(&["--telemetry-status"], "unknown flag --telemetry-status");
}

#[test]
fn a_flag_of_another_subcommand_is_refused() {
    let smoke = scenario("chaos-smoke.toml");
    refused(&["--plans", "5", "all"], "unknown flag --plans");
    refused(&["--flight-topk", "4", "table1"], "unknown flag --flight-topk");
    refused(&["campaign", &smoke, "--plans", "3"], "unknown flag --plans for `repro campaign`");
    refused(&["chaos", &smoke, "--quick"], "unknown flag --quick for `repro chaos`");
    refused(&["chaos", &smoke, "--flight-topk", "2"], "unknown flag --flight-topk for `repro chaos`");
    refused(&["validate", &smoke, "--out", "d"], "unknown flag --out for `repro validate`");
    refused(&["status", "--quick"], "`repro status` takes no arguments, not --quick");
    // A scenario subcommand's seed is the scenario's own field.
    for cmd in ["chaos", "campaign", "validate"] {
        refused(
            &[cmd, &smoke, "--seed", "7"],
            &format!(
                "--seed is not a flag of `repro {cmd}`: the scenario's `seed` field sets the seed"
            ),
        );
    }
}

#[test]
fn a_missing_or_unparsable_value_names_its_flag() {
    let smoke = scenario("chaos-smoke.toml");
    refused(&["--out"], "--out needs a directory");
    refused(&["table1", "--capture"], "--capture needs a directory");
    for bad in ["x", "-1", "0x", "0xZZ", "0x1_0"] {
        refused(&["--seed", bad], "--seed needs an unsigned integer (decimal or 0x hex)");
    }
    refused(&["chaos", &smoke, "--plans", "many"], "--plans needs an unsigned integer");
    refused(&["chaos", &smoke, "--corpus"], "--corpus needs a directory");
    refused(&["campaign", &smoke, "--flight-topk", "-1"], "--flight-topk needs an unsigned integer");
    // Hex and decimal seeds parse: the refusal is about what follows them.
    for seed in ["0xCAFEBABE", "0Xd1be5f1", "42"] {
        refused(&["--seed", seed, "fig7"], "unknown experiment or subcommand fig7");
    }
}

#[test]
fn a_scenario_file_that_cannot_be_read_is_refused() {
    let missing = scratch("missing").join("nope.toml");
    let missing = missing.to_str().unwrap();
    let no_file = format!("cannot read {missing}: No such file or directory (os error 2)");
    refused(&["validate", missing], &no_file);
    refused(&["campaign", missing], &no_file);
    refused(&["chaos", missing, "--plans", "0"], &no_file);
    refused(&["campaign"], "`repro campaign` needs a scenario file (.json or .toml)");
    refused(&["chaos", "--canary"], "`repro chaos` needs a scenario file (.json or .toml)");
    refused(&["validate"], "`repro validate` needs a scenario file (.json or .toml)");
    refused(&["chaos", "a.toml", "b.toml"], "`repro chaos` takes one scenario file, not a.toml b.toml");
    let bad = scratch("bad").join("bad.toml");
    std::fs::write(&bad, "name = \"x\"\nseed = \"soon\"\n").unwrap();
    let bad = bad.to_str().unwrap();
    refused(
        &["validate", bad],
        &format!("{bad}: scenario.seed: expected a non-negative integer, got a string"),
    );
}

#[test]
fn unwritable_artifacts_fail_the_run_after_the_rest_ran() {
    let dir = scratch("unwritable");
    let file = dir.join("a-file");
    std::fs::write(&file, "").unwrap();
    let out = file.to_str().unwrap();
    let (code, stdout, stderr) = repro(&["--out", out, "fig1", "table2"]);
    assert_eq!(code, 2, "{stderr}");
    // Both experiments ran; the one error names both artifacts.
    assert!(stdout.contains("======== fig1 ========") && stdout.contains("======== table2 ========"));
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "{stderr}");
    assert!(lines[0].starts_with(&format!("error: cannot write {out}/fig1.json: ")), "{stderr}");
    assert!(lines[0].contains(&format!("; cannot write {out}/table2.json: ")), "{stderr}");
}

#[test]
fn status_help_and_validate_succeed() {
    let (code, stdout, stderr) = repro(&["status"]);
    assert_eq!(code, 0, "{stderr}");
    let compiled = if diversifi_simcore::telemetry::TRACE_COMPILED { "in" } else { "out" };
    assert_eq!(stdout, format!("telemetry: compiled {compiled}\n"));

    let (code, help, _) = repro(&["--help"]);
    assert_eq!(code, 0);
    for usage in [
        "repro [--quick] [--seed N] [--out DIR] [--capture DIR] [EXPERIMENT...]",
        "repro campaign FILE [--out DIR] [--flight-topk N] [--capture DIR]",
        "repro chaos FILE [--out DIR] [--plans N] [--corpus DIR] [--canary] [--capture DIR]",
        "repro validate FILE...",
        "repro status",
    ] {
        assert!(help.lines().any(|l| l == usage), "--help lacks {usage:?}");
    }

    let (office, fps) = (scenario("office.toml"), scenario("fps-office.toml"));
    let (code, stdout, stderr) = repro(&["validate", &office, &fps]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains(&format!("[scenario] OK: {office}")));
    assert!(stdout.contains(&format!("[scenario] OK: {fps}")));
}
