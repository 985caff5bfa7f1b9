//! Golden-manifest check for the routing-mode escape hatch: a registered
//! experiment must produce byte-identical artifacts under
//! `routing_mode=incremental` and `routing_mode=full`.
//!
//! The manifest records every artifact's size and FNV-64 checksum, so
//! comparing manifests (modulo the wall-clock `events_per_sec` line and
//! the `perf.engine.routing` telemetry, which counts the very thing the
//! two modes do differently) compares the artifact bytes.
//! `ext_failure_resilience` is the probe:
//! it drives the packet simulator (inline and prefetched forwarding
//! states), compiles fault schedules, and samples masked forwarding
//! states — every pipeline the incremental router sits in.

use hypatia::runner::ExperimentRunner;
use hypatia_util::json;
use hypatia_viz::sink::ArtifactSink;

/// Spec shrink: a small constellation and a short horizon keep the eight
/// runs of the matrix cheap while still crossing fault windows.
const SHRINK: &[(&str, &str)] = &[
    ("constellation", "telesat_t1"),
    ("cities", "12"),
    ("pairs", "Tokyo:Delhi"),
    ("duration_s", "4"),
    ("step_ms", "200"),
    ("fail_fracs", "0.1"),
    ("mttr_s", "2"),
    ("ping_interval_ms", "100"),
];

/// Run `ext_failure_resilience` with the given `--set` overrides and
/// return its manifest with the wall-clock line and routing telemetry
/// stripped.
fn manifest_modulo_wallclock(sets: &[(&str, &str)], tag: &str) -> String {
    let runner = ExperimentRunner::new();
    let mut spec = runner.spec("ext_failure_resilience", false).expect("registered");
    for (key, value) in sets {
        spec.set(key, value).unwrap_or_else(|e| panic!("--set {key}={value}: {e}"));
    }
    let dir = std::env::temp_dir().join(format!("hypatia-golden-{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    let mut sink = ArtifactSink::new(&dir);
    sink.verbose = false;
    let (path, _sink) = runner.run_with_sink(spec, sink).expect("run succeeds");
    let text = std::fs::read_to_string(&path).expect("manifest readable");
    std::fs::remove_dir_all(&dir).ok();
    // How many snapshots were repaired is exactly what differs between the
    // two routing modes; the artifacts must not.
    let mut doc = json::from_str(&text).expect("manifest parses");
    doc.remove_path("perf.events_per_sec");
    doc.remove_path("perf.engine.routing");
    json::to_string_pretty(&doc)
}

#[test]
fn incremental_artifacts_match_full_across_threads_and_faults() {
    for threads in ["1", "4"] {
        for fault in [None, Some(("sat_outage", "12:1:3"))] {
            let mut base: Vec<(&str, &str)> = SHRINK.to_vec();
            base.push(("threads", threads));
            if let Some(window) = fault {
                base.push(window);
            }

            let mut full = base.clone();
            full.push(("routing_mode", "full"));
            let mut incremental = base;
            incremental.push(("routing_mode", "incremental"));

            let tag = format!("t{threads}-fault{}", fault.is_some());
            let a = manifest_modulo_wallclock(&full, &format!("{tag}-full"));
            let b = manifest_modulo_wallclock(&incremental, &format!("{tag}-inc"));
            assert!(a.contains("fnv64"), "manifest should list artifact checksums:\n{a}");
            assert_eq!(
                a,
                b,
                "artifacts diverged between routing modes (threads={threads}, \
                 fault_spec={})",
                fault.is_some()
            );
        }
    }
}
