//! `run_experiment` against a hostile `--spec` file: one `error: …` line
//! and the bad-spec exit code, never a crash.

use std::process::Command;

#[test]
fn deeply_nested_spec_is_a_bad_spec_not_a_stack_overflow() {
    let path = std::env::temp_dir().join(format!("hypatia_cli_deep_{}.json", std::process::id()));
    std::fs::write(&path, "[".repeat(100_000)).expect("write spec file");
    let out = Command::new(env!("CARGO_BIN_EXE_run_experiment"))
        .arg("--spec")
        .arg(&path)
        .output()
        .expect("run_experiment starts");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(5), "stderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "stderr: {stderr}");
    assert!(stderr.starts_with("error: "), "stderr: {stderr}");
    assert!(stderr.contains("nesting deeper than 128 levels"), "stderr: {stderr}");
}
