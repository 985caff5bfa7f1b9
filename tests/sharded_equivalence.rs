//! Full-stack equivalence of the sharded conservative engine: the same
//! scenario must produce bit-identical observables at any `sim_shards`
//! count, with faults in flight — cross-shard packet exchange through
//! barrier mailboxes preserves the one-shard run's canonical `(time, key)`
//! event order exactly.

use hypatia::prelude::*;
use hypatia_constellation::ground::top_cities;
use hypatia_fault::{FaultSchedule, FaultSpec, OutageWindow};
use hypatia_netsim::SimStats;
use hypatia_util::json;
use hypatia_viz::sink::ArtifactSink;
use std::sync::Arc;

/// One mixed TCP + UDP + ping run over a faulted Kuiper shell, returning a
/// determinism fingerprint: full stats, the ping RTT series, and the
/// engine's own execution report.
fn run_mixed_workload(
    shards: usize,
) -> (SimStats, Vec<(SimTime, SimDuration)>, hypatia_netsim::EngineReport) {
    let c = Arc::new(hypatia::constellation::presets::kuiper_k1(top_cities(12)));
    let spec = FaultSpec {
        sat_outages: vec![OutageWindow { target: 20, from_s: 1.0, until_s: 3.0 }],
        ..FaultSpec::default()
    };
    let schedule = Arc::new(FaultSchedule::compile(&spec, &c, SimDuration::from_secs(5)));
    let config = SimConfig::default()
        .with_sim_shards(shards)
        .with_faults(schedule)
        .with_gsl_loss(0.05)
        .with_trace_limit(200_000);

    let src = c.gs_node(0);
    let dst = c.gs_node(5);
    let mut sim = Simulator::new(c, config, vec![src, dst]);

    let tcp = TcpConfig::default();
    sim.add_app(dst, 80, Box::new(TcpSink::new(tcp.clone())));
    sim.add_app(src, 70, Box::new(TcpSender::new(dst, 80, tcp, Box::new(NewReno::new()))));
    sim.add_app(dst, 50, Box::new(UdpSink::new()));
    sim.add_app(
        src,
        51,
        Box::new(UdpSource::new(dst, 1, DataRate::from_mbps(2), 1200, SimTime::from_secs(4))),
    );
    let ping = sim.add_app(
        src,
        7,
        Box::new(PingApp::new(dst, SimDuration::from_millis(50), SimTime::from_secs(4))),
    );

    sim.run_until(SimTime::from_secs(5));
    let ping_app: &PingApp = sim.app_as(ping).unwrap();
    (sim.stats.clone(), ping_app.rtts().to_vec(), sim.engine_report())
}

#[test]
fn sharded_runs_match_serial_at_every_shard_count() {
    let (serial_stats, serial_rtts, serial_report) = run_mixed_workload(1);
    assert_eq!(serial_report.sim_shards, 1);
    assert!(!serial_rtts.is_empty(), "workload produced no pings");
    assert!(serial_stats.delivered > 0, "workload delivered nothing");

    for shards in [2, 4, 8] {
        let (stats, rtts, report) = run_mixed_workload(shards);
        assert_eq!(report.sim_shards, shards);
        assert!(report.epochs > 0, "sharded engine ran no epochs");
        assert_eq!(stats, serial_stats, "stats diverged: shards={shards}");
        assert_eq!(rtts, serial_rtts, "RTTs diverged: shards={shards}");
    }
}

/// Spec shrink for the fig02 golden-manifest matrix: a small constellation,
/// one tiny rate point, and a mid-run satellite outage, with the wall-clock
/// slowdown artifacts disabled so every remaining artifact is deterministic.
const SHRINK: &[(&str, &str)] = &[
    ("constellation", "telesat_t1"),
    ("cities", "10"),
    ("duration_s", "2"),
    ("step_ms", "200"),
    ("line_rates_mbps", "1,2"),
    ("sat_outage", "12:0.5:1.5"),
    ("slowdown", "false"),
];

/// Run `fig02_scalability` with the given overrides and return its manifest
/// with the wall-clock rate and the engine-telemetry block stripped (both
/// legitimately vary across shard counts; artifact checksums must not).
fn fig02_manifest(sets: &[(&str, &str)], tag: &str) -> String {
    let runner = hypatia::runner::ExperimentRunner::new();
    let mut spec = runner.spec("fig02_scalability", false).expect("registered");
    for (key, value) in sets {
        spec.set(key, value).unwrap_or_else(|e| panic!("--set {key}={value}: {e}"));
    }
    let dir = std::env::temp_dir().join(format!("hypatia-sharded-golden-{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    let mut sink = ArtifactSink::new(&dir);
    sink.verbose = false;
    let (path, _sink) = runner.run(spec, sink).expect("run succeeds");
    let text = std::fs::read_to_string(&path).expect("manifest readable");
    std::fs::remove_dir_all(&dir).ok();
    // Everything else stays, including the shard-invariant simulated
    // `perf.events` count.
    let mut doc = json::from_str(&text).expect("manifest parses");
    doc.remove_path("perf.events_per_sec");
    doc.remove_path("perf.engine");
    json::to_string_pretty(&doc)
}

#[test]
fn faulted_fig02_manifest_is_byte_identical_across_engines() {
    let mut serial: Vec<(&str, &str)> = SHRINK.to_vec();
    serial.push(("sim_shards", "1"));
    let reference = fig02_manifest(&serial, "s1");
    assert!(reference.contains("fnv64"), "manifest lists artifact checksums:\n{reference}");

    for shards in ["2", "4"] {
        let mut sharded = SHRINK.to_vec();
        sharded.push(("sim_shards", shards));
        let manifest = fig02_manifest(&sharded, &format!("s{shards}"));
        assert_eq!(reference, manifest, "artifacts diverged at sim_shards={shards}");
    }
}
