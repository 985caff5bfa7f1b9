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
    let (manifest_path, sink) = runner.run_with_sink(spec, sink).expect("experiment run succeeds");
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
/// `events_per_sec`, and the `perf.engine.routing` object — which snapshots
/// a router repaired depends on which ones its prefetch worker happened to
/// compute. The event *count* stays: it is a pure simulation observable and
/// must match across thread counts.
fn strip_wall_clock(manifest: &str) -> String {
    manifest_without(manifest, &["perf.events_per_sec", "perf.engine.routing"])
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
/// Exercises the full packet-level pipeline including threaded
/// forwarding-state prefetch.
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
/// workload must produce byte-identical artifacts with bulk per-node flow
/// tables as with one app per flow, across engine shard counts. Manifests
/// are compared between runs with the same shard count (the `perf.engine`
/// block reports shard telemetry); artifact bytes must match across every
/// combination.
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
    let variant = |flow_table: &str, shards: usize| {
        let mut spec = ExperimentSpec { sim_shards: shards, ..base.clone() };
        spec.params.insert("flow_table".to_string(), ParamValue::Text(flow_table.to_string()));
        spec
    };

    let dir_serial = temp_dir("arena_ref_serial");
    let dir_sharded = temp_dir("arena_ref_sharded");
    let (apps, serial_manifest) = run_quiet(variant("apps", 1), &dir_serial);
    let (apps_sharded, sharded_manifest) = run_quiet(variant("apps", 4), &dir_sharded);
    assert!(!apps.is_empty(), "arena golden: expected artifacts, got none");
    assert_eq!(apps, apps_sharded, "apps layout must itself be shard-invariant");

    for shards in [1, 4] {
        let dir = temp_dir(&format!("arena_{shards}"));
        let (arena, arena_manifest) = run_quiet(variant("arena", shards), &dir);
        assert_eq!(apps, arena, "arena artifacts diverge from apps at sim_shards={shards}");
        let reference = if shards == 1 { &serial_manifest } else { &sharded_manifest };
        assert_eq!(
            strip_wall_clock(reference),
            strip_wall_clock(&arena_manifest),
            "arena manifest diverges from apps at sim_shards={shards}"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    let _ = std::fs::remove_dir_all(dir_serial);
    let _ = std::fs::remove_dir_all(dir_sharded);
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

/// Byte-identical resume: the faulted Fig. 2 workload driven with periodic
/// checkpoints, then resumed from the snapshots it left on disk, must
/// reproduce the uninterrupted run's artifacts byte for byte — across
/// engine shard counts and packet/hybrid simulation modes — with
/// conservation audits green everywhere.
#[test]
fn resumed_faulted_fig02_is_byte_identical_across_engines() {
    for mode in ["packet", "hybrid"] {
        // Per-mode plain reference (no resilience knobs at all). Artifact
        // bytes are shard-invariant (proven above), so one
        // uninterrupted run anchors every engine variant of this mode.
        let dir_ref = temp_dir(&format!("resume_ref_{mode}"));
        let mut plain = faulted_fig02_base();
        plain.set("sim_mode", mode).expect("sim_mode knob");
        let (reference, _) = run_quiet(plain, &dir_ref);
        assert!(!reference.is_empty(), "{mode}: expected artifacts, got none");

        for shards in [1usize, 4] {
            let tag = format!("resume_{mode}_{shards}");
            let variant = || {
                let mut spec = ExperimentSpec { sim_shards: shards, ..faulted_fig02_base() };
                spec.set("sim_mode", mode).expect("sim_mode knob");
                spec.set("audit", "true").expect("audit knob");
                spec.set("checkpoint_every_s", "0.3").expect("checkpoint knob");
                spec
            };

            // Leg 1: uninterrupted, snapshotting at 0.3/0.6/0.9 s.
            let dir1 = temp_dir(&format!("{tag}_leg1"));
            let (arts1, manifest1) = run_quiet(variant(), &dir1);
            let snaps = dir1.join("checkpoints");
            assert!(
                snaps.join("udp_apps_10000000bps.snap").exists()
                    && snaps.join("tcp_apps_10000000bps.snap").exists(),
                "{tag}: expected per-point snapshots in {}",
                snaps.display()
            );

            // Leg 2: resume from leg 1's snapshots — each point
            // restores at t = 0.9 s and replays only the tail.
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

            let _ = std::fs::remove_dir_all(dir1);
            let _ = std::fs::remove_dir_all(dir2);
        }
        let _ = std::fs::remove_dir_all(dir_ref);
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
        let err = match runner.run_with_sink(spec, sink) {
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
