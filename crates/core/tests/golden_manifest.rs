//! Golden-manifest regression tests: the same spec must produce a
//! byte-identical artifact set whether forwarding state is computed
//! serially or with worker threads, and specs must survive a disk
//! round-trip (the `--spec file.json` path of `run_experiment`).

use hypatia::runner::ExperimentRunner;
use hypatia::scenario::ConstellationChoice;
use hypatia::spec::{ExperimentSpec, GroundSegment, PairSelection, ParamValue};
use hypatia_constellation::GroundStation;
use hypatia_fault::{FaultSpec, FlapProcess, OutageWindow};
use hypatia_util::json;
use hypatia_util::SimDuration;
use hypatia_viz::sink::ArtifactSink;
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hypatia_golden_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Run `spec` into `dir` quietly; return (name, bytes, fnv64) per artifact
/// plus the manifest file's contents.
fn run_quiet(spec: ExperimentSpec, dir: &Path) -> (Vec<(String, u64, u64)>, String) {
    let runner = ExperimentRunner::new();
    let mut sink = ArtifactSink::new(dir.to_path_buf());
    sink.verbose = false;
    let (manifest_path, sink) = runner.run(spec, sink).expect("experiment run succeeds");
    let records = sink.records().iter().map(|r| (r.name.clone(), r.bytes, r.fnv64)).collect();
    let manifest = std::fs::read_to_string(manifest_path).expect("manifest readable");
    (records, manifest)
}

/// The manifest minus the dot-separated `paths`, reprinted: what two
/// equivalent runs must agree on byte for byte.
fn manifest_without(manifest: &str, paths: &[&str]) -> String {
    let mut doc = json::from_str(manifest).expect("manifest parses");
    for path in paths {
        doc.remove_path(path);
    }
    json::to_string_pretty(&doc)
}

/// Drop what two equivalent runs need not agree on: the wall-clock
/// `events_per_sec` and `perf.engine.phases`, and the `perf.engine.routing`
/// object — which snapshots a sweep worker repaired depends on which ones
/// it happened to compute. The event *count* stays: it is a
/// pure simulation observable and must match across thread counts.
fn strip_wall_clock(manifest: &str) -> String {
    manifest_without(
        manifest,
        &["perf.events_per_sec", "perf.engine.phases", "perf.engine.routing"],
    )
}

fn assert_identical(spec: ExperimentSpec, tag: &str) {
    let serial_dir = temp_dir(&format!("{tag}_serial"));
    let threaded_dir = temp_dir(&format!("{tag}_threaded"));

    let serial_spec = ExperimentSpec { threads: 0, ..spec.clone() };
    let threaded_spec = ExperimentSpec { threads: 4, ..spec };

    let (serial, serial_manifest) = run_quiet(serial_spec, &serial_dir);
    let (threaded, threaded_manifest) = run_quiet(threaded_spec, &threaded_dir);

    assert!(!serial.is_empty(), "{tag}: expected artifacts, got none");
    assert_eq!(serial, threaded, "{tag}: artifact sets/checksums diverge");
    assert_eq!(
        strip_wall_clock(&serial_manifest),
        strip_wall_clock(&threaded_manifest),
        "{tag}: manifest.json diverges between serial and threaded runs"
    );

    let _ = std::fs::remove_dir_all(serial_dir);
    let _ = std::fs::remove_dir_all(threaded_dir);
}

/// Netsim-backed: Fig. 3's ping experiment on a two-city Kuiper scenario.
/// Exercises the full packet-level pipeline, forwarding steps computed
/// one ahead on the lookahead thread.
#[test]
fn netsim_run_is_thread_invariant() {
    let mut spec = ExperimentSpec {
        experiment: "fig03_rtt_fluctuations".to_string(),
        constellation: ConstellationChoice::KuiperK1,
        ground: GroundSegment::Cities(vec![
            GroundStation::new("Rio de Janeiro", -22.9068, -43.1729),
            GroundStation::new("Saint Petersburg", 59.9311, 30.3609),
        ]),
        pairs: PairSelection::Named(vec![(
            "Rio de Janeiro".to_string(),
            "Saint Petersburg".to_string(),
        )]),
        duration: SimDuration::from_secs(5),
        step: SimDuration::from_millis(500),
        ..ExperimentSpec::default()
    };
    spec.params.insert("ping_interval_ms".to_string(), ParamValue::Num(250.0));
    assert_identical(spec, "fig03");
}

/// Routing-only: Fig. 9's granularity sweep, whose pair sweep is the
/// threaded snapshot-routing path.
#[test]
fn routing_run_is_thread_invariant() {
    let mut spec = ExperimentSpec {
        experiment: "fig09_timestep".to_string(),
        constellation: ConstellationChoice::TelesatT1,
        ground: GroundSegment::TopCities(10),
        pairs: PairSelection::MinDistance { km: 500.0 },
        duration: SimDuration::from_secs(10),
        step: SimDuration::from_millis(1000),
        ..ExperimentSpec::default()
    };
    spec.params.insert("coarse_multiples".to_string(), ParamValue::List(vec![2.0]));
    assert_identical(spec, "fig09");
}

/// Worker threads are a pure performance knob: Fig. 2 with the wall-clock
/// slowdown artifacts disabled must produce byte-identical artifacts and a
/// byte-identical manifest (modulo the events/sec line) whether it runs
/// serially or with worker threads.
#[test]
fn fig02_manifest_is_thread_invariant() {
    let base = {
        let mut spec = ExperimentSpec {
            experiment: "fig02_scalability".to_string(),
            constellation: ConstellationChoice::KuiperK1,
            ground: GroundSegment::TopCities(10),
            pairs: PairSelection::Permutation,
            duration: SimDuration::from_secs(1),
            seed: 2020,
            ..ExperimentSpec::default()
        };
        spec.params.insert("line_rates_mbps".to_string(), ParamValue::List(vec![1.0, 10.0]));
        spec.params.insert("slowdown".to_string(), ParamValue::Flag(false));
        spec.params.insert("flow_table".to_string(), ParamValue::Text("apps".to_string()));
        spec
    };
    let with_threads = |threads: usize| ExperimentSpec { threads, ..base.clone() };

    let dir_serial = temp_dir("fig02_serial");
    let dir_mt = temp_dir("fig02_mt");
    let (serial, serial_manifest) = run_quiet(with_threads(0), &dir_serial);
    let (mt, mt_manifest) = run_quiet(with_threads(4), &dir_mt);

    assert!(!serial.is_empty(), "fig02: expected artifacts, got none");
    assert!(
        serial.iter().any(|(name, _, _)| name == "fig02_events_tcp.dat"),
        "fig02: events series missing: {serial:?}"
    );
    assert_eq!(serial, mt, "fig02: artifacts diverge between serial and threaded runs");
    let stripped = strip_wall_clock(&serial_manifest);
    assert!(stripped.contains("\"events\""), "fig02 manifest lacks perf events: {serial_manifest}");
    assert_eq!(
        stripped,
        strip_wall_clock(&mt_manifest),
        "fig02: manifest diverges between serial and threaded runs"
    );

    for dir in [dir_serial, dir_mt] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Fault injection preserves the determinism contract: the same fault spec
/// (explicit weather window + seeded satellite flaps) produces
/// byte-identical artifacts and manifest across thread counts. The flap
/// process lands failures between forwarding updates, so this covers the
/// mid-flight fault path end to end.
#[test]
fn faulted_fig02_manifest_is_thread_invariant() {
    let base = {
        let mut spec = ExperimentSpec {
            experiment: "fig02_scalability".to_string(),
            constellation: ConstellationChoice::KuiperK1,
            ground: GroundSegment::TopCities(10),
            pairs: PairSelection::Permutation,
            duration: SimDuration::from_secs(1),
            seed: 2020,
            faults: Some(FaultSpec {
                seed: 7,
                gsl_weather: vec![OutageWindow { target: 2, from_s: 0.3, until_s: 0.9 }],
                sat_flap: Some(FlapProcess::from_unavailability(0.1, 0.5)),
                ..FaultSpec::default()
            }),
            ..ExperimentSpec::default()
        };
        spec.params.insert("line_rates_mbps".to_string(), ParamValue::List(vec![10.0]));
        spec.params.insert("slowdown".to_string(), ParamValue::Flag(false));
        spec.params.insert("flow_table".to_string(), ParamValue::Text("apps".to_string()));
        spec
    };
    let with_threads = |threads: usize| ExperimentSpec { threads, ..base.clone() };

    let dir_serial = temp_dir("faulted_serial");
    let dir_mt = temp_dir("faulted_mt");
    let (serial, serial_manifest) = run_quiet(with_threads(0), &dir_serial);
    let (mt, mt_manifest) = run_quiet(with_threads(4), &dir_mt);

    assert!(!serial.is_empty(), "faulted fig02: expected artifacts, got none");
    assert_eq!(serial, mt, "faulted fig02: artifacts diverge between serial and threaded runs");
    assert_eq!(
        strip_wall_clock(&serial_manifest),
        strip_wall_clock(&mt_manifest),
        "faulted fig02: manifest diverges between serial and threaded runs"
    );

    for dir in [dir_serial, dir_mt] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// The arena flow table is a pure memory-layout knob: the faulted Fig. 2
/// workload must produce byte-identical artifacts and manifests with bulk
/// per-node flow tables as with one app per flow.
#[test]
fn arena_flow_table_reproduces_apps_artifacts_across_engines() {
    let base = {
        let mut spec = ExperimentSpec {
            experiment: "fig02_scalability".to_string(),
            constellation: ConstellationChoice::KuiperK1,
            ground: GroundSegment::TopCities(10),
            pairs: PairSelection::Permutation,
            duration: SimDuration::from_secs(1),
            seed: 2020,
            faults: Some(FaultSpec {
                seed: 7,
                gsl_weather: vec![OutageWindow { target: 2, from_s: 0.3, until_s: 0.9 }],
                sat_flap: Some(FlapProcess::from_unavailability(0.1, 0.5)),
                ..FaultSpec::default()
            }),
            ..ExperimentSpec::default()
        };
        spec.params.insert("line_rates_mbps".to_string(), ParamValue::List(vec![10.0]));
        spec.params.insert("slowdown".to_string(), ParamValue::Flag(false));
        spec
    };
    let variant = |flow_table: &str| {
        let mut spec = base.clone();
        spec.params.insert("flow_table".to_string(), ParamValue::Text(flow_table.to_string()));
        spec
    };

    let dir_apps = temp_dir("arena_ref_apps");
    let dir_arena = temp_dir("arena_arena");
    let (apps, apps_manifest) = run_quiet(variant("apps"), &dir_apps);
    assert!(!apps.is_empty(), "arena golden: expected artifacts, got none");
    let (arena, arena_manifest) = run_quiet(variant("arena"), &dir_arena);
    assert_eq!(apps, arena, "arena artifacts diverge from apps");
    assert_eq!(
        strip_wall_clock(&apps_manifest),
        strip_wall_clock(&arena_manifest),
        "arena manifest diverges from apps"
    );

    let _ = std::fs::remove_dir_all(dir_apps);
    let _ = std::fs::remove_dir_all(dir_arena);
}

/// `sim_shards` is retired: the faulted Fig. 2 workload at `sim_shards=4`
/// runs the one-shard engine, so it writes the `sim_shards=1` artifacts
/// and manifest, plus one warning naming the ignored knob.
#[test]
fn retired_sim_shards_reproduces_the_one_shard_run() {
    let dir_one = temp_dir("shards_one");
    let dir_four = temp_dir("shards_four");
    let (one, one_manifest) = run_quiet(faulted_fig02_base(), &dir_one);
    let four_spec = ExperimentSpec { sim_shards: 4, ..faulted_fig02_base() };
    let (four, four_manifest) = run_quiet(four_spec, &dir_four);
    assert!(!one.is_empty(), "expected artifacts, got none");
    assert_eq!(one, four, "sim_shards=4 changed the artifacts");

    let warnings = |manifest: &str| -> Vec<String> {
        let doc = json::from_str(manifest).expect("manifest parses");
        let list = doc.get("warnings").and_then(|w| w.as_array().cloned()).expect("warnings");
        list.iter().map(|w| w.as_str().expect("warning text").to_string()).collect()
    };
    let (mut want, got) = (warnings(&one_manifest), warnings(&four_manifest));
    let named: Vec<&String> = got.iter().filter(|w| w.contains("sim_shards")).collect();
    assert_eq!(named.len(), 1, "one warning names sim_shards: {got:?}");
    want.push(named[0].clone());
    assert_eq!(want, got, "the sim_shards warning is the only new line");
    let core = |manifest: &str| {
        let skip = ["perf.events_per_sec", "perf.engine.phases", "perf.engine.routing", "warnings"];
        manifest_without(manifest, &skip)
    };
    assert_eq!(core(&one_manifest), core(&four_manifest), "manifests diverge beyond warnings");

    let _ = std::fs::remove_dir_all(dir_one);
    let _ = std::fs::remove_dir_all(dir_four);
}

/// A trivial (fault-free) FaultSpec compiles to an empty schedule and must
/// reproduce the artifacts of a run with no fault engine at all,
/// byte for byte.
#[test]
fn zero_fault_spec_reproduces_unfaulted_artifacts() {
    let mut spec = ExperimentSpec {
        experiment: "fig03_rtt_fluctuations".to_string(),
        constellation: ConstellationChoice::KuiperK1,
        ground: GroundSegment::Cities(vec![
            GroundStation::new("Manila", 14.5995, 120.9842),
            GroundStation::new("Dalian", 38.914, 121.6147),
        ]),
        pairs: PairSelection::Named(vec![("Manila".to_string(), "Dalian".to_string())]),
        duration: SimDuration::from_secs(5),
        step: SimDuration::from_millis(500),
        ..ExperimentSpec::default()
    };
    spec.params.insert("ping_interval_ms".to_string(), ParamValue::Num(250.0));

    let dir_none = temp_dir("faults_none");
    let dir_trivial = temp_dir("faults_trivial");
    let (none, none_manifest) = run_quiet(spec.clone(), &dir_none);
    spec.faults = Some(FaultSpec::default());
    let (trivial, trivial_manifest) = run_quiet(spec, &dir_trivial);

    assert!(!none.is_empty(), "expected artifacts, got none");
    assert_eq!(none, trivial, "a trivial fault spec changed the artifacts");
    assert_eq!(
        strip_wall_clock(&none_manifest),
        strip_wall_clock(&trivial_manifest),
        "a trivial fault spec changed the manifest"
    );

    let _ = std::fs::remove_dir_all(dir_none);
    let _ = std::fs::remove_dir_all(dir_trivial);
}

/// A faulted Fig. 2 base spec shared by the crash-resilience tests:
/// one line rate, deterministic artifacts only.
fn faulted_fig02_base() -> ExperimentSpec {
    let mut spec = ExperimentSpec {
        experiment: "fig02_scalability".to_string(),
        constellation: ConstellationChoice::KuiperK1,
        ground: GroundSegment::TopCities(10),
        pairs: PairSelection::Permutation,
        duration: SimDuration::from_secs(1),
        seed: 2020,
        faults: Some(FaultSpec {
            seed: 7,
            gsl_weather: vec![OutageWindow { target: 2, from_s: 0.3, until_s: 0.9 }],
            sat_flap: Some(FlapProcess::from_unavailability(0.1, 0.5)),
            ..FaultSpec::default()
        }),
        ..ExperimentSpec::default()
    };
    spec.params.insert("line_rates_mbps".to_string(), ParamValue::List(vec![10.0]));
    spec.params.insert("slowdown".to_string(), ParamValue::Flag(false));
    spec.params.insert("flow_table".to_string(), ParamValue::Text("apps".to_string()));
    spec
}

/// A manifest minus its run-shape sections: `perf` is wall-clock,
/// `checkpoints` counts snapshot writes (a resumed leg writes fewer), and
/// `audit` counts boundary checks (audits restart at the restore point).
/// What remains — experiment, artifact checksums, warnings, status — must
/// be byte-identical between an uninterrupted and a resumed run.
fn manifest_core(manifest: &str) -> String {
    manifest_without(manifest, &["perf", "checkpoints", "audit"])
}

/// The audit section's violation list, when the manifest has one.
fn audit_violations(manifest: &str) -> Option<usize> {
    let doc = json::from_str(manifest).expect("manifest parses");
    Some(doc.get("audit")?.get("violations")?.as_array().expect("violations array").len())
}

/// Byte-identical resume of `base` under `tag`: driven with periodic
/// checkpoints (`checkpoint_every_s`), then resumed from the snapshots it
/// left on disk (`want_snaps` among them), it must reproduce the plain
/// run's artifacts byte for byte, with conservation audits green in both
/// legs.
fn assert_resumes_byte_identical(
    tag: &str,
    base: ExperimentSpec,
    checkpoint_every_s: &str,
    want_snaps: &[&str],
) {
    let dir_ref = temp_dir(&format!("{tag}_ref"));
    let (reference, _) = run_quiet(base.clone(), &dir_ref);
    assert!(!reference.is_empty(), "{tag}: expected artifacts, got none");

    let variant = || {
        let mut spec = base.clone();
        spec.set("audit", "true").expect("audit knob");
        spec.set("checkpoint_every_s", checkpoint_every_s).expect("checkpoint knob");
        spec
    };

    // Leg 1: uninterrupted, snapshotting as it goes.
    let dir1 = temp_dir(&format!("{tag}_leg1"));
    let (arts1, manifest1) = run_quiet(variant(), &dir1);
    let snaps = dir1.join("checkpoints");
    for snap in want_snaps {
        let snap = snaps.join(format!("{snap}.snap"));
        assert!(snap.exists(), "{tag}: expected {}", snap.display());
    }

    // Leg 2: resume from leg 1's snapshots — each simulation restores at
    // its last snapshot and replays only the tail.
    let dir2 = temp_dir(&format!("{tag}_leg2"));
    let mut leg2 = variant();
    leg2.set("resume_from", snaps.to_str().expect("utf8 path")).expect("resume knob");
    let (arts2, manifest2) = run_quiet(leg2, &dir2);

    assert_eq!(reference, arts1, "{tag}: checkpointing changed the artifacts");
    assert_eq!(reference, arts2, "{tag}: resumed artifacts diverge");
    assert_eq!(
        manifest_core(&manifest1),
        manifest_core(&manifest2),
        "{tag}: manifests diverge beyond the run-shape sections"
    );
    for (leg, manifest) in [("leg1", &manifest1), ("leg2", &manifest2)] {
        assert_eq!(
            audit_violations(manifest),
            Some(0),
            "{tag} {leg}: conservation audit violations: {manifest}"
        );
    }
    for dir in [dir1, dir2, dir_ref] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Byte-identical resume: the faulted Fig. 2 workload, snapshotting at
/// 0.3/0.6/0.9 s, resumed from those snapshots.
#[test]
fn resumed_faulted_fig02_is_byte_identical_across_engines() {
    let snaps = ["udp_apps_10000000bps", "tcp_apps_10000000bps"];
    assert_resumes_byte_identical("resume_fig02", faulted_fig02_base(), "0.3", &snaps);
}

/// Byte-identical resume of the hybrid engine with fluid flows to restore:
/// `ext_hybrid_mode` in hybrid mode, 100 fluid bulk flows beside its
/// packet-level pings, under a weather window.
#[test]
fn resumed_faulted_hybrid_mode_is_byte_identical() {
    let mut spec = ExperimentRunner::new().spec("ext_hybrid_mode", false).expect("registered");
    for (key, value) in [
        ("cities", "10"),
        ("duration_s", "1"),
        ("flows", "100"),
        ("sim_mode", "hybrid"),
        ("perf_series", "false"),
        ("gsl_weather", "2:0.3:0.9"),
    ] {
        spec.set(key, value).unwrap_or_else(|e| panic!("{key}={value}: {e}"));
    }
    assert_resumes_byte_identical("resume_hybrid", spec, "0.3", &["hybrid_100"]);
}

/// A faulted two-rate `ext_failure_resilience` spec: three simulations
/// (the baseline and one per failure fraction), each with its own
/// snapshot tag.
fn faulted_failure_sweep_base() -> ExperimentSpec {
    let mut spec =
        ExperimentRunner::new().spec("ext_failure_resilience", false).expect("registered");
    for (key, value) in [
        ("cities", "10"),
        ("duration_s", "2"),
        ("pairs", "Tokyo:Cairo"),
        ("fail_fracs", "0.1,0.2"),
        ("mttr_s", "1"),
        ("gsl_weather", "2:0.3:0.9"),
    ] {
        spec.set(key, value).unwrap_or_else(|e| panic!("{key}={value}: {e}"));
    }
    spec
}

/// Byte-identical resume of a multi-simulation experiment: the faulted
/// failure sweep, checkpointed, then resumed from its snapshots, matches
/// the uninterrupted run's artifacts and manifest — each simulation
/// restores from its own snapshot.
#[test]
fn resumed_faulted_failure_sweep_is_byte_identical_across_engines() {
    let snaps = ["fail_base", "fail_0.1", "fail_0.2"];
    assert_resumes_byte_identical("resume_fail", faulted_failure_sweep_base(), "0.5", &snaps);
}

/// `--set` overrides that shrink an experiment's reduced spec.
type Sets = &'static [(&'static str, &'static str)];

/// FNV-1a-64 checksums of artifacts an experiment writes on its tiny
/// spec: the ones computed from time-stepped routing alone hold however
/// the forwarding states are produced, and the cross-traffic ones hold
/// Figs. 10, 14 and 15 to the bytes their separate experiments wrote.
type Pins = &'static [(&'static str, u64)];

/// Every netsim-backed experiment on a tiny spec (≤ 10 cities, ≤ 2 s),
/// with the number of simulations it drives there and its pins.
const NETSIM_EXPERIMENTS: [(&str, usize, Sets, Pins); 9] = [
    (
        "fig02_scalability",
        2,
        &[("cities", "10"), ("duration_s", "1"), ("line_rates_mbps", "10"), ("slowdown", "false")],
        &[],
    ),
    (
        "fig03_rtt_fluctuations",
        1,
        &[("cities", "10"), ("duration_s", "2"), ("pairs", "Tokyo:Cairo")],
        &[("fig03_tokyo_cairo_computed.dat", 0x9ee0_a53a_cd8a_b2d8)],
    ),
    (
        "fig04_cwnd_bdp",
        1,
        &[("cities", "10"), ("duration_s", "2"), ("pairs", "Tokyo:Cairo")],
        &[("fig04_tokyo_cairo_bdpq.dat", 0x1849_c081_51cf_597c)],
    ),
    (
        "fig05_cc_rates_rtt",
        4,
        &[("cities", "10"), ("duration_s", "2"), ("pairs", "Tokyo:Cairo")],
        &[],
    ),
    (
        "fig10_14_15_cross_traffic",
        3,
        &[
            ("cities", "10"),
            ("duration_s", "2"),
            ("pairs", "Tokyo:Cairo"),
            ("snapshot_early_s", "0"),
            ("snapshot_late_s", "1"),
        ],
        &[
            ("fig10_unused_dynamic.dat", 0xf935_82eb_fd17_f9fc),
            ("fig10_unused_frozen.dat", 0x0ea2_29e3_3330_039f),
            ("fig14_path_util_t0.dat", 0xf011_0c64_a53c_f58e),
            ("fig14_path_util_t1.dat", 0x9589_8699_945d_8fd4),
            ("fig15_utilization_map.json", 0x7645_4eaa_669f_90ae),
        ],
    ),
    (
        "fig16_19_bent_pipe",
        2,
        &[("duration_s", "2")],
        &[
            ("fig18_rtt_computed_ISL.dat", 0xbb60_7632_7df7_9225),
            ("fig18_rtt_computed_bent_pipe.dat", 0x2226_4d6b_11f1_ad79),
        ],
    ),
    (
        "ext_failure_resilience",
        3,
        &[
            ("cities", "10"),
            ("duration_s", "2"),
            ("pairs", "Tokyo:Cairo"),
            ("fail_fracs", "0.1,0.2"),
            ("mttr_s", "1"),
        ],
        &[
            ("ext_failure_unreachable.dat", 0x5035_e2a9_7da6_48cd),
            ("ext_failure_churn.dat", 0x5e2d_b924_ef09_0edc),
        ],
    ),
    ("ext_flow_scaling", 1, &[("cities", "10"), ("duration_s", "1"), ("flows", "100")], &[]),
    ("ext_hybrid_mode", 3, &[("cities", "10"), ("duration_s", "1"), ("flows", "100")], &[]),
];

/// Every experiment that runs no packet simulation, on a tiny spec.
const ROUTING_EXPERIMENTS: [(&str, Sets, Pins); 7] = [
    ("table1_constellations", &[], &[]),
    (
        "fig06_08_rtt_path_ecdfs",
        &[("cities", "10"), ("duration_s", "2"), ("step_ms", "1000")],
        &[
            ("fig06_stretch_ecdf_telesat_t1.dat", 0xb7d5_7f37_d3a9_481f),
            ("fig06_stretch_ecdf_kuiper_k1.dat", 0xf22b_a7ff_3bc9_4fd6),
            ("fig06_stretch_ecdf_starlink_s1.dat", 0x1ef3_c103_fb5e_da69),
            ("fig07a_max_rtt_telesat_t1.dat", 0x856d_66bb_e7ba_2924),
            ("fig07b_rtt_delta_telesat_t1.dat", 0x5567_6125_558d_bf88),
            ("fig07c_rtt_ratio_telesat_t1.dat", 0x29e7_2894_d69e_eac5),
            ("fig07a_max_rtt_kuiper_k1.dat", 0x2005_1f51_705e_d3ad),
            ("fig07b_rtt_delta_kuiper_k1.dat", 0xdbaa_1b18_cdb0_3fba),
            ("fig07c_rtt_ratio_kuiper_k1.dat", 0xcc15_43c7_4473_7fff),
            ("fig07a_max_rtt_starlink_s1.dat", 0x4e17_5cdd_e6b3_bf61),
            ("fig07b_rtt_delta_starlink_s1.dat", 0xe6c8_22e7_58ef_7725),
            ("fig07c_rtt_ratio_starlink_s1.dat", 0x3cd3_67ae_4c5c_8bce),
            ("fig08a_path_changes_telesat_t1.dat", 0x621d_e801_5a3e_e619),
            ("fig08b_hop_delta_telesat_t1.dat", 0x0cce_2946_3c24_af8b),
            ("fig08c_hop_ratio_telesat_t1.dat", 0x428d_f795_1804_7f99),
            ("fig08a_path_changes_kuiper_k1.dat", 0x6eb1_488e_220d_7d30),
            ("fig08b_hop_delta_kuiper_k1.dat", 0x8f18_4e70_b2ff_48d8),
            ("fig08c_hop_ratio_kuiper_k1.dat", 0x9880_51a2_1eb0_fb1d),
            ("fig08a_path_changes_starlink_s1.dat", 0x143a_4f5a_8137_3953),
            ("fig08b_hop_delta_starlink_s1.dat", 0x5372_9f4d_a27c_3c32),
            ("fig08c_hop_ratio_starlink_s1.dat", 0x5169_5277_e79b_8db9),
        ],
    ),
    (
        "fig09_timestep",
        &[("cities", "10"), ("duration_s", "2"), ("step_ms", "500")],
        &[
            ("fig09a_changes_per_step_500ms.dat", 0xb8f0_8b73_e6e4_10c0),
            ("fig09b_missed_per_pair_500ms.dat", 0x0637_62c8_2716_d61f),
            ("fig09a_changes_per_step_1000ms.dat", 0x9076_da35_f2e7_f858),
            ("fig09b_missed_per_pair_1000ms.dat", 0x0637_62c8_2716_d61f),
            ("fig09a_changes_per_step_10000ms.dat", 0x86d6_3e7b_3d65_1aba),
            ("fig09b_missed_per_pair_10000ms.dat", 0x8ac3_ecef_b374_493e),
        ],
    ),
    ("fig11_constellation_czml", &[("duration_s", "20")], &[]),
    ("fig12_ground_view", &[("duration_s", "20")], &[]),
    (
        "fig13_path_viz",
        &[("duration_s", "2")],
        &[
            ("fig13_paris_luanda_max_rtt.json", 0x7911_5988_c441_36d2),
            ("fig13_paris_luanda_min_rtt.json", 0xab30_0ce3_5df3_397f),
        ],
    ),
    ("ext_multipath_diversity", &[("cities", "10")], &[]),
];

/// Per declared knob, a value off every tiny spec's.
const KNOB_OFF: [(&str, &str); 10] = [
    ("duration_s", "3"),
    ("step_ms", "5000"),
    ("line_rate_mbps", "0.5"),
    ("queue_packets", "2"),
    ("utilization_bucket_s", "0.5"),
    ("cc", "vegas"),
    ("seed", "7"),
    ("sim_mode", "hybrid"),
    ("fluid_threshold_kbps", "100000"),
    ("flows", "50"),
];

/// Per default-spec param, a value off every tiny spec's.
const PARAM_OFF: [(&str, &str); 18] = [
    ("line_rates_mbps", "5"),
    ("slowdown", "true"),
    ("ping_interval_ms", "50"),
    ("coarse_multiples", "3"),
    ("snapshot_early_s", "1"),
    ("snapshot_late_s", "0"),
    ("multipath_stretch", "1.5"),
    ("pixel_size", "5"),
    ("scan_step_s", "7"),
    ("relay_spacing_deg", "5"),
    ("relay_margin_deg", "4"),
    ("k", "3"),
    ("instants", "1"),
    ("fail_fracs", "0.3"),
    ("mttr_s", "2"),
    ("flow_counts", "60"),
    ("flow_rate_kbps", "64"),
    ("perf_series", "true"),
];

/// Per declared structured field, the sets that move it off the tiny
/// spec: an entry for the experiment, else the one for every experiment
/// (`""`). Bent pipe's pair must be its two ground stations, so its
/// ground and pairs move together.
const STRUCTURED_OFF: [(&str, &str, Sets); 10] = [
    ("", "constellation", &[("constellation", "telesat_t1")]),
    ("", "ground", &[("cities", "20")]),
    ("", "pairs", &[("pairs", "Delhi:Shanghai")]),
    ("fig06_08_rtt_path_ecdfs", "pairs", &[("min_distance_km", "3000")]),
    ("fig09_timestep", "pairs", &[("min_distance_km", "3000")]),
    ("ext_multipath_diversity", "pairs", &[("min_distance_km", "3000")]),
    ("fig12_ground_view", "ground", &[("cities", "1")]),
    ("fig13_path_viz", "ground", &[("cities", "50")]),
    ("fig16_19_bent_pipe", "ground", &[("cities", "2"), ("pairs", "Tokyo:Delhi")]),
    ("fig16_19_bent_pipe", "pairs", &[("cities", "2"), ("pairs", "Tokyo:Delhi")]),
];

/// Experiments whose ground segment only resolves the named pair, so an
/// added station moves nothing: their ground is read if dropping a pair
/// city from it fails the run naming that city.
const GROUND_RESOLVES_PAIR: [(&str, Sets, &str); 4] = [
    ("fig03_rtt_fluctuations", &[("cities", "5")], "Cairo"),
    ("fig04_cwnd_bdp", &[("cities", "5")], "Cairo"),
    ("fig05_cc_rates_rtt", &[("cities", "5")], "Cairo"),
    ("fig13_path_viz", &[("cities", "27")], "Paris"),
];

/// The fault scenario the gate attaches where one is applied: the first
/// ground station's GSLs down for the first second.
const FAULT_OFF: (&str, &str) = ("gsl_weather", "0:0:1");

/// Inputs an existing test already proves byte-identical: `flow_table`
/// (`arena_flow_table_reproduces_apps_artifacts_across_engines`).
const PROVEN_IDENTICAL: [&str; 1] = ["flow_table"];

/// The gate's own sets on top of a tiny spec: only deterministic
/// artifacts, a `flow_counts` sweep that `flows` would pin away, flows
/// fast enough to congest the busiest ground links (uncongested, every
/// flow delivers alike whatever the matrix and its paths) and, for the
/// flow-scaling sweep, a horizon long enough for a path to change.
const GATE_SETS: [(&str, Sets); 2] = [
    (
        "ext_flow_scaling",
        &[
            ("flows", "none"),
            ("flow_counts", "100"),
            ("flow_rate_kbps", "2000"),
            ("perf_series", "false"),
            ("duration_s", "4"),
        ],
    ),
    (
        "ext_hybrid_mode",
        &[
            ("flows", "none"),
            ("flow_counts", "100"),
            ("flow_rate_kbps", "2000"),
            ("perf_series", "false"),
        ],
    ),
];

/// Every input an experiment declares moves an artifact: on its tiny spec,
/// one off value per declared knob and structured field, per param of its
/// default specs and, where it applies one, a fault scenario must change
/// some artifact's name or checksum (a ground that only resolves the
/// named pair must fail the run without a pair city instead). The failure
/// names every input that moved nothing.
#[test]
#[ignore = "release-only: about 120 runs of the tiny specs"]
fn every_declared_input_moves_an_artifact() {
    let runner = ExperimentRunner::new();
    let tiny = NETSIM_EXPERIMENTS.iter().map(|e| (e.0, e.2));
    let tiny = tiny.chain(ROUTING_EXPERIMENTS.iter().map(|e| (e.0, e.1)));
    let mut idle = Vec::new();
    for (name, sets) in tiny {
        let exp = runner.get(name).expect("registered");
        let gate = GATE_SETS.iter().filter(|g| g.0 == name).flat_map(|g| g.1.iter());
        let mut base = exp.spec(false);
        for &(key, value) in sets.iter().chain(gate) {
            base.set(key, value).unwrap_or_else(|e| panic!("{name}: {key}={value}: {e}"));
        }
        let dir = temp_dir(&format!("moves_{name}"));
        let artifacts = |spec: ExperimentSpec| -> Vec<(String, u64)> {
            run_quiet(spec, &dir).0.into_iter().map(|(name, _, fnv)| (name, fnv)).collect()
        };
        let reference = artifacts(base.clone());
        assert_eq!(
            reference,
            artifacts(base.clone()),
            "{name}: the tiny spec is not deterministic"
        );

        let params = hypatia::runner::default_params(exp);
        let params = params.iter().filter(|p| !PROVEN_IDENTICAL.contains(&p.as_str()));
        let about = exp.about();
        if let Some(&(_, sets, city)) = GROUND_RESOLVES_PAIR.iter().find(|e| e.0 == name) {
            let mut spec = base.clone();
            for &(key, value) in sets {
                spec.set(key, value).unwrap_or_else(|e| panic!("{name}: {key}={value}: {e}"));
            }
            let mut sink = ArtifactSink::new(dir.clone());
            sink.verbose = false;
            match runner.run(spec, sink) {
                Err(e) if e.to_string().contains(city) => {}
                other => idle.push(format!("{name}: {sets:?} ran: {:?}", other.map(|r| r.0))),
            }
        }
        let resolves_pair =
            |key| key == "ground" && GROUND_RESOLVES_PAIR.iter().any(|e| e.0 == name);
        let structured = |key| {
            let own = STRUCTURED_OFF.iter().find(|e| e.0 == name && e.1 == key);
            let any = || STRUCTURED_OFF.iter().find(|e| e.0.is_empty() && e.1 == key);
            own.or_else(any).map(|e| e.2.to_vec())
        };
        let declared = |key| structured(key).unwrap_or_else(|| vec![lookup(&KNOB_OFF, key)]);
        let knobs = about.knobs.split_whitespace().filter(|&k| !resolves_pair(k));
        let mut inputs: Vec<Vec<(&str, &str)>> = knobs.map(declared).collect();
        inputs.extend(params.map(|p| vec![lookup(&PARAM_OFF, p)]));
        inputs.extend(about.faults.then(|| vec![FAULT_OFF]));
        for sets in inputs {
            let mut spec = base.clone();
            for &(key, value) in &sets {
                spec.set(key, value).unwrap_or_else(|e| panic!("{name}: {key}={value}: {e}"));
            }
            assert_ne!(spec, base, "{name}: {sets:?} is the tiny spec's value");
            if artifacts(spec) == reference {
                idle.push(format!("{name}: {sets:?}"));
            }
        }
        let _ = std::fs::remove_dir_all(dir);
    }
    assert!(idle.is_empty(), "declared inputs that move no artifact: {idle:#?}");
}

/// The gate's off value for `key`.
fn lookup(table: &[(&'static str, &'static str)], key: &str) -> (&'static str, &'static str) {
    *table.iter().find(|e| e.0 == key).unwrap_or_else(|| panic!("no off value for {key}"))
}

/// Assert `name`'s pinned routing artifacts among the run's `records`.
fn assert_pins(name: &str, records: &[(String, u64, u64)], pins: Pins) {
    for &(artifact, fnv) in pins {
        let got = records.iter().find(|r| r.0 == artifact).map(|r| r.2);
        assert_eq!(got, Some(fnv), "{name}: {artifact} moved from its pinned checksum");
    }
}

/// `name`'s reduced spec with `sets` and the resilience knobs applied.
fn resilient_spec(name: &str, sets: &[(&str, &str)]) -> ExperimentSpec {
    let mut spec = ExperimentRunner::new().spec(name, false).expect("registered");
    for &(key, value) in sets.iter().chain(&[("checkpoint_every_s", "0.5"), ("audit", "true")]) {
        spec.set(key, value).unwrap_or_else(|e| panic!("{name}: {key}={value}: {e}"));
    }
    spec
}

/// The resilience knobs work for every experiment that drives a
/// simulator: each simulation of the run leaves its own snapshot, and the
/// manifest carries the checkpoints section and a clean audit.
#[test]
fn every_netsim_experiment_checkpoints_and_audits_each_simulation() {
    let mut classified: Vec<&str> = NETSIM_EXPERIMENTS.iter().map(|e| e.0).collect();
    classified.extend(ROUTING_EXPERIMENTS.iter().map(|e| e.0));
    classified.sort_unstable();
    let mut registered = ExperimentRunner::new().names();
    registered.sort_unstable();
    assert_eq!(classified, registered, "every experiment is netsim-backed or routing-only");

    for (name, sims, sets, pins) in NETSIM_EXPERIMENTS {
        let dir = temp_dir(&format!("knobs_{name}"));
        let (records, manifest) = run_quiet(resilient_spec(name, sets), &dir);
        assert_pins(name, &records, pins);
        let doc = json::from_str(&manifest).expect("manifest parses");
        assert!(doc.get("checkpoints").is_some(), "{name}: no checkpoints section: {manifest}");
        assert_eq!(audit_violations(&manifest), Some(0), "{name}: audit: {manifest}");
        assert!(!manifest.contains("ignored"), "{name}: knobs reported idle: {manifest}");
        let snaps: Vec<_> = std::fs::read_dir(dir.join("checkpoints"))
            .unwrap_or_else(|e| panic!("{name}: no checkpoint directory: {e}"))
            .map(|e| e.expect("dir entry").file_name().into_string().expect("utf8 name"))
            .collect();
        assert_eq!(snaps.len(), sims, "{name}: one snapshot per simulation, got {snaps:?}");
        assert!(snaps.iter().all(|s| s.ends_with(".snap")), "{name}: {snaps:?}");
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Figs. 16–19 run both legs on the spec's simulator configuration: at
/// `step_ms=1000`, 2 s give 2 computed-RTT points per leg, not 20.
#[test]
fn bent_pipe_legs_step_at_the_spec_step() {
    let mut spec = ExperimentRunner::new().spec("fig16_19_bent_pipe", false).expect("registered");
    for (key, value) in [("duration_s", "2"), ("step_ms", "1000")] {
        spec.set(key, value).expect("a valid knob");
    }
    let dir = temp_dir("bent_pipe_step");
    run_quiet(spec, &dir);
    for leg in ["ISL", "bent_pipe"] {
        let path = dir.join(format!("fig18_rtt_computed_{leg}.dat"));
        let text = std::fs::read_to_string(path).expect("computed series written");
        let points = text.lines().filter(|l| !l.starts_with('#')).count();
        assert_eq!(points, 2, "{leg}: {text}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Figs. 14/15 read the utilization bucket holding each snapshot instant:
/// with 2 s buckets, t = 3 s is bucket 1, not bucket 3 (past a 4 s horizon,
/// where every link reads idle).
#[test]
fn cross_traffic_snapshots_read_the_bucket_holding_the_instant() {
    let name = "fig10_14_15_cross_traffic";
    let mut spec = ExperimentRunner::new().spec(name, false).expect("registered");
    for (key, value) in [
        ("cities", "10"),
        ("duration_s", "4"),
        ("pairs", "Tokyo:Cairo"),
        ("snapshot_early_s", "0"),
        ("snapshot_late_s", "3"),
        ("utilization_bucket_s", "2"),
    ] {
        spec.set(key, value).expect("a valid knob");
    }
    let dir = temp_dir("cross_bucket");
    run_quiet(spec, &dir);
    let text = std::fs::read_to_string(dir.join("fig15_utilization_map.json")).expect("map");
    let map = json::from_str(&text).expect("map parses");
    assert!(!map.as_array().expect("a link list").is_empty(), "no active link at 3 s: {text}");
    let _ = std::fs::remove_dir_all(dir);
}

/// An experiment that drives no simulator says so: setting a resilience
/// knob on it adds one manifest warning naming the knobs, and nothing is
/// checkpointed or audited.
#[test]
fn routing_only_experiments_warn_that_resilience_knobs_are_idle() {
    for (name, sets, pins) in ROUTING_EXPERIMENTS {
        let dir = temp_dir(&format!("idle_{name}"));
        let (records, manifest) = run_quiet(resilient_spec(name, sets), &dir);
        assert_pins(name, &records, pins);
        let doc = json::from_str(&manifest).expect("manifest parses");
        let warnings = doc.get("warnings").and_then(|w| w.as_array()).expect("warnings array");
        let idle: Vec<_> = warnings
            .iter()
            .filter_map(|w| w.as_str())
            .filter(|w| w.starts_with("checkpoint_every_s, audit ignored"))
            .collect();
        assert_eq!(idle.len(), 1, "{name}: want one idle-knob warning: {manifest}");
        assert!(doc.get("checkpoints").is_none() && doc.get("audit").is_none(), "{name}");
        assert!(!dir.join("checkpoints").exists(), "{name}: wrote a checkpoint directory");
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Resume fails loudly, not silently: a snapshot with flipped bytes is a
/// checksum error, and a snapshot from a future format version is a
/// version error — both surface as `RunError::Checkpoint`, never as a
/// silently-fresh simulation.
#[test]
fn resume_rejects_corrupt_and_future_version_snapshots() {
    let dir1 = temp_dir("reject_leg1");
    let mut leg1 = faulted_fig02_base();
    leg1.set("checkpoint_every_s", "0.4").expect("checkpoint knob");
    run_quiet(leg1, &dir1);
    let snaps = dir1.join("checkpoints");
    let snap = snaps.join("udp_apps_10000000bps.snap");
    let pristine = std::fs::read(&snap).expect("snapshot readable");

    let resume_error = |tag: &str| {
        let dir = temp_dir(tag);
        let mut spec = faulted_fig02_base();
        spec.set("resume_from", snaps.to_str().expect("utf8 path")).expect("resume knob");
        let runner = ExperimentRunner::new();
        let mut sink = ArtifactSink::new(dir.clone());
        sink.verbose = false;
        let err = match runner.run(spec, sink) {
            Err(e) => e,
            Ok(_) => panic!("{tag}: resume from a bad snapshot must fail"),
        };
        let _ = std::fs::remove_dir_all(dir);
        err
    };

    // Flip one body byte: the checksum catches it.
    let mut corrupt = pristine.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0xff;
    std::fs::write(&snap, &corrupt).expect("write corrupt snapshot");
    match resume_error("reject_corrupt") {
        hypatia::runner::RunError::Checkpoint(msg) => {
            assert!(msg.contains("checksum"), "want a checksum diagnostic, got: {msg}")
        }
        other => panic!("corrupt snapshot must be a Checkpoint error, got {other:?}"),
    }

    // Bump the version field (and fix the checksum so it is reached):
    // an unsupported-version error, not a misparse.
    let mut future = pristine.clone();
    future[8..12].copy_from_slice(&99u32.to_le_bytes());
    let body_end = future.len() - 8;
    let sum = hypatia_util::hash::fnv1a_64(&future[..body_end]);
    future[body_end..].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&snap, &future).expect("write future snapshot");
    match resume_error("reject_future") {
        hypatia::runner::RunError::Checkpoint(msg) => {
            assert!(msg.contains("version 99"), "want a version diagnostic, got: {msg}")
        }
        other => panic!("future snapshot must be a Checkpoint error, got {other:?}"),
    }

    let _ = std::fs::remove_dir_all(dir1);
}

/// The resilience knobs survive the `--spec file.json` disk round-trip
/// like every other spec field (and stay omitted when unset, keeping old
/// spec files loadable byte-for-byte).
#[test]
fn resilience_knobs_survive_disk_round_trip() {
    let mut spec = faulted_fig02_base();
    assert!(!spec.to_json_string().contains("checkpoint_every_s"), "unset knob must be omitted");
    spec.set("checkpoint_every_s", "0.25").expect("checkpoint knob");
    spec.set("resume_from", "/tmp/somewhere/checkpoints").expect("resume knob");
    spec.set("audit", "true").expect("audit knob");
    let text = spec.to_json_string();
    for key in ["checkpoint_every_s", "resume_from", "audit"] {
        assert!(text.contains(key), "{key} missing from {text}");
    }
    let back = ExperimentSpec::from_json(&text).expect("round-trip parses");
    assert_eq!(spec, back);
}

/// A spec written to disk and loaded back (the `--spec` path) is the same
/// spec.
#[test]
fn spec_survives_disk_round_trip() {
    let runner = ExperimentRunner::new();
    let dir = temp_dir("spec_roundtrip");
    for name in runner.names() {
        let spec = runner.spec(&name, false).expect("registered");
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, spec.to_json_string()).expect("write spec");
        let text = std::fs::read_to_string(&path).expect("read spec");
        let back = ExperimentSpec::from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(spec, back, "{name}");
    }
    let _ = std::fs::remove_dir_all(dir);
}
