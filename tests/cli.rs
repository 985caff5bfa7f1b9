//! `run_experiment` against hostile input: one `error: …` line and the
//! bad-spec exit code, never a crash; `--set`s apply in order.

use std::process::{Command, Output, Stdio};

/// Run `run_experiment` with these arguments; a `--spec` file, if given,
/// holds `spec` and is removed afterwards.
fn run(tag: &str, spec: Option<&str>, args: &[&str]) -> Output {
    let path = std::env::temp_dir().join(format!("hypatia_cli_{tag}_{}.json", std::process::id()));
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_run_experiment"));
    if let Some(text) = spec {
        std::fs::write(&path, text).expect("write spec file");
        cmd.arg("--spec").arg(&path);
    }
    let out = cmd.args(args).output().expect("run_experiment starts");
    let _ = std::fs::remove_file(&path);
    out
}

/// Exit code 5 and exactly one `error:` line on stderr; returns stderr.
fn assert_bad_spec(out: &Output) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(5), "stderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "stderr: {stderr}");
    assert!(stderr.starts_with("error: "), "stderr: {stderr}");
    stderr
}

#[test]
fn deeply_nested_spec_is_a_bad_spec_not_a_stack_overflow() {
    let stderr = assert_bad_spec(&run("deep", Some(&"[".repeat(100_000)), &[]));
    assert!(stderr.contains("nesting deeper than 128 levels"), "stderr: {stderr}");
}

#[test]
fn out_of_range_knobs_are_bad_specs_not_panics() {
    for set in [
        "duration_s=-1",
        "step_ms=0",
        "deadline_s=-1",
        "deadline_s=nan",
        "max_rss_mb=-5",
        "retries=1",
    ] {
        let stderr = assert_bad_spec(&run("set", None, &["fig09_timestep", "--set", set]));
        let key = set.split('=').next().unwrap();
        assert!(stderr.contains(key), "--set {set}: {stderr}");
    }

    let printed = run("print", None, &["fig09_timestep", "--print-spec"]);
    assert!(printed.status.success());
    let text = String::from_utf8(printed.stdout).unwrap();
    let bad = text.replacen("\n  \"cc\"", "\n  \"repair_churn_threshold\": -1,\n  \"cc\"", 1);
    assert_ne!(bad, text);
    let stderr = assert_bad_spec(&run("churn", Some(&bad), &[]));
    assert!(stderr.contains("repair_churn_threshold"), "stderr: {stderr}");
}

#[test]
fn sets_apply_in_order() {
    let args = [
        "fig03_rtt_fluctuations",
        "--set",
        "duration_s=10",
        "--set",
        "duration_s=20",
        "--print-spec",
    ];
    let out = run("order", None, &args);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("\n  \"duration_s\": 20,\n"), "{text}");
}

#[test]
fn bad_set_is_a_spec_error() {
    let out = run("tahoe", None, &["fig03_rtt_fluctuations", "--set", "cc=tahoe"]);
    let stderr = assert_bad_spec(&out);
    assert!(stderr.contains("tahoe"), "stderr: {stderr}");
}

/// The retired `sim_shards` knob is still a spec knob: printed off its
/// default, read back byte for byte, and validated ≥ 1.
#[test]
fn retired_sim_shards_still_prints_reads_back_and_validates() {
    let printed =
        run("shards", None, &["fig02_scalability", "--set", "sim_shards=4", "--print-spec"]);
    assert!(printed.status.success());
    let text = String::from_utf8(printed.stdout).unwrap();
    assert!(text.contains("\n  \"sim_shards\": 4,\n"), "{text}");
    let again = run("shards_again", Some(&text), &["--print-spec"]);
    assert!(again.status.success());
    assert_eq!(String::from_utf8(again.stdout).unwrap(), text);

    let stderr =
        assert_bad_spec(&run("shards0", None, &["fig02_scalability", "--set", "sim_shards=0"]));
    assert!(stderr.contains("sim_shards"), "stderr: {stderr}");
}

#[test]
fn non_positive_flap_means_are_bad_specs_not_panics() {
    let stderr = assert_bad_spec(&run("mttf", None, &["fig09_timestep", "--set", "sat_mttf_s=0"]));
    assert!(stderr.contains("sat_mttf_s"), "stderr: {stderr}");

    let printed = run("print_flap", None, &["fig09_timestep", "--print-spec"]);
    assert!(printed.status.success());
    let text = String::from_utf8(printed.stdout).unwrap();
    let flap = "\n  \"faults\": { \"sat_flap\": { \"mttf_s\": 570, \"mttr_s\": -1 } },\n  \"cc\"";
    let bad = text.replacen("\n  \"cc\"", flap, 1);
    assert_ne!(bad, text);
    let stderr = assert_bad_spec(&run("mttr", Some(&bad), &[]));
    assert!(stderr.contains("mttr_s"), "stderr: {stderr}");
}

/// The print-only modes (`--list`, `--print-spec`, `--help`) with stdout
/// closed by the reader before anything is written — what
/// `run_experiment --list | head -1` does — exit 0 without a panic.
#[test]
fn print_only_modes_exit_cleanly_on_a_closed_pipe() {
    for args in [
        &["--list"][..],
        &["fig03_rtt_fluctuations", "--print-spec"][..],
        &["fig03_rtt_fluctuations", "--full", "--print-spec"][..],
        &["--help"][..],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_run_experiment"))
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("run_experiment starts");
        // Drop the only read end: every write the child makes hits EPIPE.
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("run_experiment exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: stderr: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: stderr: {stderr}");
    }
}

/// Every name merged away fails like any unknown name: exit 3, with the
/// registry (and so the experiment it joined) listed.
#[test]
fn a_merged_away_name_is_an_unknown_experiment() {
    for (old, merged) in [
        ("fig07_rtt_cdfs", "fig06_08_rtt_path_ecdfs"),
        ("fig05_rates_rtt", "fig05_cc_rates_rtt"),
        ("ext_bbr_study", "fig05_cc_rates_rtt"),
    ] {
        let out = run(old, None, &[old]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "{old}: stderr: {stderr}");
        assert!(stderr.contains(merged), "{old}: stderr: {stderr}");
    }
}
