//! `run_experiment` against hostile input: one `error: …` line and the
//! bad-spec exit code, never a crash.

use std::process::{Command, Output};

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
    for set in ["duration_s=-1", "step_ms=0"] {
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
