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

/// A param value the model cannot take is refused where it is read:
/// exit 5 naming the key, not a panic (exit 7) deeper down.
#[test]
fn out_of_range_params_are_bad_specs_not_panics() {
    // A param is checked where it is read; a knob's row carries its range
    // (a horizon or step no instant fits in, a rate no `DataRate` holds).
    // Either way the error quotes the key.
    for (experiment, set) in [
        ("fig12_ground_view", "scan_step_s=0"),
        ("fig03_rtt_fluctuations", "ping_interval_ms=0"),
        ("fig02_scalability", "line_rates_mbps=0"),
        ("fig16_19_bent_pipe", "relay_spacing_deg=0"),
        ("fig16_19_bent_pipe", "relay_margin_deg=-1"),
        ("ext_failure_resilience", "mttr_s=0"),
        ("ext_failure_resilience", "fail_fracs=0.1,1"),
        ("fig10_14_15_cross_traffic", "multipath_stretch=0.5"),
        ("ext_flow_scaling", "flow_rate_kbps=0"),
        ("fig03_rtt_fluctuations", "duration_s=2e10"),
        ("fig09_timestep", "step_ms=1e15"),
        ("fig03_rtt_fluctuations", "line_rate_mbps=1e20"),
        ("ext_hybrid_mode", "fluid_threshold_kbps=1e300"),
    ] {
        let stderr = assert_bad_spec(&run("range", None, &[experiment, "--set", set]));
        let key = set.split('=').next().unwrap();
        assert!(stderr.contains(&format!("\"{key}\"")), "{experiment} --set {set}: {stderr}");
    }

    // Each value in range, but a coarse step of 100 fine ones no duration
    // holds: refused before any snapshot is routed.
    let mut args = vec!["fig09_timestep"];
    for set in ["step_ms=1e12", "coarse_multiples=100", "cities=5"] {
        args.extend(["--set", set]);
    }
    let stderr = assert_bad_spec(&run("coarse", None, &args));
    assert!(stderr.contains("\"coarse_multiples\""), "{stderr}");
}

/// `cities` takes 1 to 100 (the built-in city table), from `--set` and
/// from a spec file alike: anything else is a spec error, not a panic.
#[test]
fn cities_out_of_range_are_bad_specs_not_panics() {
    for n in ["0", "101"] {
        let set = format!("cities={n}");
        let stderr = assert_bad_spec(&run("cities", None, &["fig09_timestep", "--set", &set]));
        assert!(stderr.contains("cities"), "--set {set}: {stderr}");
    }
    let printed = run("print_cities", None, &["fig09_timestep", "--print-spec"]);
    assert!(printed.status.success());
    let text = String::from_utf8(printed.stdout).unwrap();
    for n in ["0", "101"] {
        let bad = text.replacen("\"top_cities\": 20", &format!("\"top_cities\": {n}"), 1);
        assert_ne!(bad, text);
        let stderr = assert_bad_spec(&run("top_cities", Some(&bad), &[]));
        assert!(stderr.contains("top_cities"), "top_cities {n}: {stderr}");
    }
}

/// The cross-traffic experiment refuses what it cannot honour before it
/// simulates anything: a snapshot instant past the horizon (whose
/// utilization would read as zero), more than two observed pairs, and
/// pairs that share a ground station.
#[test]
fn cross_traffic_refuses_instants_past_the_horizon_and_bad_pair_lists() {
    let base = ["fig10_14_15_cross_traffic", "--set", "cities=10", "--set", "duration_s=20"];
    for (sets, key) in [
        (&["pairs=Tokyo:Cairo"][..], "snapshot_late_s"),
        (&["pairs=Tokyo:Cairo", "snapshot_early_s=-1"][..], "snapshot_early_s"),
        (&["pairs=Tokyo:Cairo", "snapshot_late_s=20"][..], "snapshot_late_s"),
        (&["pairs=Tokyo:Cairo;Delhi:Shanghai;Osaka:Dhaka", "snapshot_late_s=10"][..], "two pairs"),
        (&["pairs=Tokyo:Cairo;Osaka:Cairo", "snapshot_late_s=10"][..], "share no ground station"),
    ] {
        let mut args = base.to_vec();
        for set in sets {
            args.extend(["--set", set]);
        }
        let stderr = assert_bad_spec(&run("cross_traffic", None, &args));
        assert!(stderr.contains(key), "{sets:?}: {stderr}");
    }
}

/// An input the experiment does not read is refused before it runs, and
/// a param it reads must be present and of its type: exit 5, naming the
/// key.
#[test]
fn unread_and_mistyped_inputs_are_bad_specs() {
    for (experiment, set, key) in [
        ("fig09_timestep", "line_rate_mbps=1", "does not read line_rate_mbps"),
        ("fig09_timestep", "sim_mode=fluid", "does not read sim_mode"),
        ("fig09_timestep", "foo_bar=3", "has no param foo_bar"),
        ("fig12_ground_view", "scan_step_s=fast", "\"scan_step_s\" expects a finite number"),
        ("ext_multipath_diversity", "k=0", "\"k\" expects a whole number in 2..="),
        ("ext_multipath_diversity", "k=2.7", "got 2.7"),
        ("fig11_constellation_czml", "pixel_size=-1", "\"pixel_size\" expects a whole number"),
        (
            "fig13_path_viz",
            "sat_outage=100:0:20",
            "applies no fault scenario: drop its fault keys (sat_outage,",
        ),
        ("fig11_constellation_czml", "constellation=telesat_t1", "does not read constellation"),
        ("fig11_constellation_czml", "cities=5", "does not read ground"),
        ("fig11_constellation_czml", "pairs=Tokyo:Cairo", "does not read pairs"),
        ("fig12_ground_view", "pairs=Tokyo:Cairo", "does not read pairs"),
        ("fig06_08_rtt_path_ecdfs", "constellation=starlink_s1", "does not read constellation"),
        ("fig02_scalability", "pairs=Tokyo:Cairo", "does not read pairs"),
        ("ext_flow_scaling", "pairs=Tokyo:Cairo", "does not read pairs"),
        ("ext_hybrid_mode", "pairs=Tokyo:Cairo", "does not read pairs"),
        ("fig16_19_bent_pipe", "constellation=telesat_t1", "does not read constellation"),
    ] {
        let stderr = assert_bad_spec(&run("unread", None, &[experiment, "--set", set]));
        assert!(stderr.contains(key), "{experiment} --set {set}: {stderr}");
    }

    // A spec file without a param the experiment reads: no default hides it.
    let printed = run("print_fig03", None, &["fig03_rtt_fluctuations", "--print-spec"]);
    assert!(printed.status.success());
    let text = String::from_utf8(printed.stdout).unwrap();
    let bad = text.replacen("\n    \"ping_interval_ms\": 20\n", "\n", 1);
    assert_ne!(bad, text);
    let stderr = assert_bad_spec(&run("no_ping", Some(&bad), &[]));
    assert!(stderr.contains("\"ping_interval_ms\" is missing"), "stderr: {stderr}");
}

/// The lifecycle inputs `threads`, `audit` and `deadline_s` are accepted
/// by every experiment: an invalid `max_rss_mb`, checked after what an
/// experiment reads, is the first error.
#[test]
fn every_experiment_accepts_the_lifecycle_inputs() {
    let list = run("list", None, &["--list"]);
    let text = String::from_utf8(list.stdout).unwrap();
    let names: Vec<&str> =
        text.lines().skip(1).filter_map(|l| l.split_whitespace().next()).collect();
    assert_eq!(names.len(), 16, "{text}");
    for name in names {
        let mut args = vec![name];
        for set in ["threads=3", "audit=true", "deadline_s=100", "max_rss_mb=-1"] {
            args.extend(["--set", set]);
        }
        let stderr = assert_bad_spec(&run("lifecycle", None, &args));
        assert!(stderr.contains("\"max_rss_mb\" must be"), "{name}: {stderr}");
    }
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
        ("fig10_unused_bandwidth", "fig10_14_15_cross_traffic"),
        ("fig14_15_utilization", "fig10_14_15_cross_traffic"),
        ("ext_multipath_te", "fig10_14_15_cross_traffic"),
    ] {
        let out = run(old, None, &[old]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "{old}: stderr: {stderr}");
        assert!(stderr.contains(merged), "{old}: stderr: {stderr}");
    }
}
