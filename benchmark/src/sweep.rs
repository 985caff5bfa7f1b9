//! One repetition of `route_sweep`: the paper's §5 constellation-wide
//! analysis (fig06–08) over Telesat T1, Kuiper K1 and Starlink S1 under
//! satellite flapping, with no packet simulator anywhere.
//!
//! The product's `pair_sweep::run` has no fault input, so the harness
//! runs the same per-snapshot loop itself (`sweep_shell`) — fault state,
//! masked snapshot graph, incremental SSSP repair, pair tracking — which
//! is also what puts a span around each of those calls in the traced
//! pass. A test holds it to `pair_sweep::run` on a fault-free schedule.

use crate::trace::Tracer;
use crate::workload::{Outcome, Phase, PhaseClock, Rep, SweepDef};
use hypatia::experiments::pair_sweep::PairStats;
use hypatia::scenario::ConstellationChoice;
use hypatia::spec::{ExperimentSpec, GroundSegment, PairSelection};
use hypatia_constellation::{Constellation, NodeId};
use hypatia_fault::{FaultSchedule, FaultSpec, FaultState, FlapProcess};
use hypatia_routing::forwarding::ForwardingState;
use hypatia_routing::graph::SnapshotBuffers;
use hypatia_routing::incremental::{IncrementalRouter, RouterStats, RoutingConfig};
use hypatia_routing::path::PairTracker;
use hypatia_util::time::TimeSteps;
use hypatia_util::{SimDuration, SimTime};
use hypatia_viz::csv::ecdf;
use hypatia_viz::sink::ArtifactSink;
use std::collections::BTreeMap;
use std::path::Path;

/// The three shells swept, with the tag their spans and metrics carry.
pub const SHELLS: [(ConstellationChoice, &str); 3] = [
    (ConstellationChoice::TelesatT1, "t1"),
    (ConstellationChoice::KuiperK1, "k1"),
    (ConstellationChoice::StarlinkS1, "s1"),
];

/// The spec the harness hands the product for `seed`.
pub fn sweep_spec(def: &SweepDef, seed: u64) -> ExperimentSpec {
    ExperimentSpec {
        experiment: "bench_route_sweep".to_string(),
        ground: GroundSegment::TopCities(def.cities),
        pairs: PairSelection::MinDistance { km: def.min_pair_km },
        duration: SimDuration::from_millis(def.duration_ms),
        step: SimDuration::from_millis(def.step_ms),
        threads: 1,
        seed,
        faults: Some(FaultSpec {
            seed,
            sat_flap: Some(FlapProcess { mttf_s: def.sat_mttf_s, mttr_s: def.sat_mttr_s }),
            ..FaultSpec::default()
        }),
        ..ExperimentSpec::default()
    }
}

struct Shell {
    tag: &'static str,
    constellation: Constellation,
    schedule: FaultSchedule,
}

/// Fold router decision counters into one total.
fn add_router_stats(total: &mut RouterStats, s: &RouterStats) {
    total.snapshots += s.snapshots;
    total.repaired += s.repaired;
    total.full_mode += s.full_mode;
    total.fallback_first += s.fallback_first;
    total.fallback_churn += s.fallback_churn;
    total.fallback_zero_delay += s.fallback_zero_delay;
}

fn pair_stats(c: &Constellation, i: usize, j: usize, tr: &PairTracker) -> PairStats {
    let geodesic = c.ground_stations[i].geodesic_rtt(&c.ground_stations[j]).secs_f64() * 1e3;
    PairStats {
        src_gs: i,
        dst_gs: j,
        geodesic_rtt_ms: geodesic,
        max_rtt_ms: tr.max_rtt.map_or(f64::NAN, |r| r.secs_f64() * 1e3),
        min_rtt_ms: tr.min_rtt.map_or(f64::NAN, |r| r.secs_f64() * 1e3),
        path_changes: tr.path_changes,
        min_hops: tr.min_hops.unwrap_or(0),
        max_hops: tr.max_hops.unwrap_or(0),
        disconnected_steps: tr.disconnected_steps,
        steps: tr.steps,
    }
}

/// `pair_sweep::run`'s loop on one shell, serial, under `schedule`:
/// every qualifying unordered pair tracked across `times`.
fn sweep_shell(
    shell: &Shell,
    times: &[SimTime],
    min_km: f64,
    routing: RoutingConfig,
    tr: &mut Tracer,
) -> (Vec<PairStats>, RouterStats) {
    let (c, tag) = (&shell.constellation, shell.tag);
    let n = c.num_ground_stations();
    let dests: Vec<NodeId> = (0..n).map(|i| c.gs_node(i)).collect();
    let mut pairs = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if c.ground_stations[i].distance_km(&c.ground_stations[j]) >= min_km {
                pairs.push((i, j, PairTracker::new(dests[i], dests[j], false)));
            }
        }
    }
    let mut buffers = SnapshotBuffers::new();
    let mut router = IncrementalRouter::new(routing);
    let mut state = ForwardingState::empty();
    for &t in times {
        let s = tr.enter_tagged("fault.state_at", tag);
        let mask = FaultState::at(&shell.schedule, t);
        tr.exit(s);
        let s = tr.enter_tagged("routing.graph_snapshot", tag);
        let graph = buffers.snapshot_masked(c, t, Some(&mask));
        tr.exit(s);
        let s = tr.enter_tagged("routing.repair", tag);
        router.compute_into(graph, t, &dests, &mut state);
        tr.exit(s);
        let s = tr.enter_tagged("routing.pair_track", tag);
        for (_, _, tracker) in pairs.iter_mut() {
            tracker.observe(c, &state);
        }
        tr.exit(s);
    }
    let stats = pairs.iter().map(|(i, j, tracker)| pair_stats(c, *i, *j, tracker)).collect();
    (stats, router.stats)
}

/// Run one repetition of the sweep; artifacts under `out_dir`.
pub fn run_sweep(spec_text: &str, out_dir: &Path, tr: &mut Tracer) -> Result<Rep, String> {
    let _ = std::fs::remove_dir_all(out_dir);

    let mut clock = PhaseClock::start();
    let root = tr.enter("rep");

    // ---- set-up: spec, three constellations, fault schedules ----
    let s = tr.enter("core.spec_parse");
    let spec = ExperimentSpec::from_json(spec_text).map_err(|e| e.to_string())?;
    tr.exit(s);
    let min_km = match spec.pairs {
        PairSelection::MinDistance { km } => km,
        _ => return Err("route_sweep needs a min-distance pair selection".into()),
    };
    let faults = spec.faults.clone().ok_or("route_sweep needs a fault scenario")?;

    let s = tr.enter("core.scenario_build");
    let mut shells = Vec::new();
    for (choice, tag) in SHELLS {
        let b = tr.enter_tagged("constellation.build", tag);
        let constellation = choice.build(spec.ground.stations());
        tr.exit(b);
        let f = tr.enter_tagged("fault.compile", tag);
        let schedule = FaultSchedule::compile(&faults, &constellation, spec.duration);
        tr.exit(f);
        shells.push(Shell { tag, constellation, schedule });
    }
    tr.exit(s);
    let times: Vec<SimTime> =
        TimeSteps::new(SimTime::ZERO, SimTime::ZERO + spec.duration, spec.step).collect();
    clock.cut(Phase::Setup);

    // ---- run: the per-snapshot loop, shell by shell ----
    let mut router_total = RouterStats::default();
    let mut fault_events = 0usize;
    let mut per_shell: Vec<Vec<PairStats>> = Vec::new();
    for shell in &shells {
        fault_events += shell.schedule.len();
        let (stats, router) = sweep_shell(shell, &times, min_km, spec.routing_config(), tr);
        add_router_stats(&mut router_total, &router);
        per_shell.push(stats);
    }
    clock.cut(Phase::Run);

    // ---- ECDFs → artifacts → manifest ----
    let mut sink = ArtifactSink::new(out_dir);
    sink.verbose = false;
    let io = |e: std::io::Error| format!("artifact write: {e}");
    let mut pairs_tracked = 0usize;
    for (shell, stats) in shells.iter().zip(&per_shell) {
        let s = tr.enter_tagged("core.collect", shell.tag);
        pairs_tracked += stats.len();
        let col = |f: &dyn Fn(&PairStats) -> f64| -> Vec<(f64, f64)> {
            let v: Vec<f64> = stats.iter().map(f).filter(|x| x.is_finite()).collect();
            ecdf(&v)
        };
        let series = [
            ("fig06_stretch", "max_rtt_over_geodesic ecdf", col(&|s| s.rtt_stretch())),
            ("fig07_max_rtt", "max_rtt_ms ecdf", col(&|s| s.max_rtt_ms)),
            ("fig07_rtt_delta", "max_minus_min_rtt_ms ecdf", col(&|s| s.rtt_delta_ms())),
            ("fig07_rtt_ratio", "max_over_min_rtt ecdf", col(&|s| s.rtt_ratio())),
            ("fig08_path_changes", "path_changes ecdf", col(&|s| s.path_changes as f64)),
            ("fig08_hop_delta", "max_minus_min_hops ecdf", col(&|s| s.hop_delta() as f64)),
            ("fig08_hop_ratio", "max_over_min_hops ecdf", col(&|s| s.hop_ratio())),
        ];
        tr.exit(s);
        let s = tr.enter_tagged("viz.sink_write", shell.tag);
        for (stem, header, points) in &series {
            sink.write_series(&format!("{stem}_{}.dat", shell.tag), header, points).map_err(io)?;
        }
        tr.exit(s);
    }
    let s = tr.enter("viz.manifest");
    sink.write_manifest(&spec.experiment).map_err(io)?;
    tr.exit(s);
    tr.exit(root);
    clock.cut(Phase::Write);
    let steal_s = clock.steal_s();

    let snapshots = (times.len() * shells.len()) as u64;
    let artifact_bytes: u64 = sink.records().iter().map(|r| r.bytes).sum();
    let outcome = Outcome {
        events: 0,
        snapshots,
        delivered: 0,
        goodput_bits: 0,
        artifacts: sink
            .records()
            .iter()
            .map(|r| (r.name.clone(), format!("{:016x}", r.fnv64)))
            .collect(),
        violations: Vec::new(),
    };
    let mut counters: BTreeMap<&'static str, f64> = BTreeMap::new();
    counters.insert("fault.events", fault_events as f64);
    counters.insert("routing.snapshots", router_total.snapshots as f64);
    counters.insert(
        "routing.repaired_frac",
        router_total.repaired as f64 / router_total.snapshots.max(1) as f64,
    );
    counters.insert("routing.fallback_churn", router_total.fallback_churn as f64);
    counters.insert("routing.fallback_first", router_total.fallback_first as f64);
    counters.insert("routing.pairs_tracked", pairs_tracked as f64);
    counters.insert("viz.artifact_bytes", artifact_bytes as f64);

    let sim_s = spec.duration.secs_f64() * shells.len() as f64;
    Ok(Rep { wall_s: clock.wall_s, cpu_s: clock.cpu_s, steal_s, sim_s, outcome, counters })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypatia::experiments::pair_sweep::{self, PairSweepConfig};
    use hypatia_constellation::ground::top_cities;

    /// The harness's per-snapshot loop is a copy of the product's with a
    /// fault mask added: with nothing failing, the two must agree pair for
    /// pair.
    #[test]
    fn sweep_shell_without_faults_equals_pair_sweep_run() {
        let constellation = ConstellationChoice::KuiperK1.build(top_cities(8));
        let duration = SimDuration::from_secs(3);
        let step = SimDuration::from_millis(500);
        let routing = RoutingConfig::default();
        let want = pair_sweep::run(
            &constellation,
            &PairSweepConfig { duration, step, min_pair_distance_km: 500.0, threads: 1, routing },
        );
        let schedule = FaultSchedule::compile(&FaultSpec::default(), &constellation, duration);
        assert!(schedule.is_empty());
        let shell = Shell { tag: "k1", constellation, schedule };
        let times: Vec<SimTime> =
            TimeSteps::new(SimTime::ZERO, SimTime::ZERO + duration, step).collect();
        let (got, router) = sweep_shell(&shell, &times, 500.0, routing, &mut Tracer::off());
        assert_eq!(router.snapshots, times.len() as u64);
        assert!(!want.is_empty());
        // PairStats holds NaN for never-connected pairs: compare rendered.
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }
}
