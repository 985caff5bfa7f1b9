//! Snapshot-routing throughput probe for `scripts/bench_routing.sh`.
//!
//! Replays a forwarding-state sweep — the fig09-style granularity loop —
//! once per routing mode and reports wall-clock snapshots/sec plus the
//! incremental router's repair/fallback counters, one JSON object per
//! line so the wrapper script can collect them into `BENCH_routing.json`.
//!
//! ```text
//! bench_routing [--constellation SLUG] [--cities N] [--duration-s S]
//!               [--step-ms MS] [--fail-frac F] [--mttr-s S] [--seed N]
//!               [--churn-threshold F] [--mode full|incremental|both]
//! ```
//!
//! `--fail-frac 0` (the default) measures pure weight drift (satellite
//! motion only); a positive fraction compiles a seeded satellite-flap
//! schedule at that steady-state unavailability, so snapshots also carry
//! edge insert/delete churn. Timing uses `std::time::Instant` around the
//! whole sweep — no harness overhead.

use hypatia::scenario::{ConstellationChoice, ScenarioBuilder};
use hypatia_constellation::{Constellation, NodeId};
use hypatia_fault::{FaultSchedule, FaultSpec, FaultState, FlapProcess};
use hypatia_routing::forwarding::ForwardingState;
use hypatia_routing::graph::SnapshotBuffers;
use hypatia_routing::incremental::{IncrementalRouter, RouterStats, RoutingConfig, RoutingMode};
use hypatia_util::time::TimeSteps;
use hypatia_util::{SimDuration, SimTime};
use std::time::Instant;

struct Args {
    constellation: ConstellationChoice,
    cities: usize,
    duration_s: f64,
    step_ms: f64,
    fail_frac: f64,
    mttr_s: f64,
    seed: u64,
    churn_threshold: f64,
    modes: Vec<RoutingMode>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        constellation: ConstellationChoice::KuiperK1,
        cities: 15,
        duration_s: 10.0,
        step_ms: 100.0,
        fail_frac: 0.0,
        mttr_s: 10.0,
        seed: 2020,
        churn_threshold: RoutingConfig::default().repair_churn_threshold,
        modes: vec![RoutingMode::Full, RoutingMode::Incremental],
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| args.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match a.as_str() {
            "--constellation" => {
                let v = value("--constellation");
                parsed.constellation = ConstellationChoice::parse(&v)
                    .unwrap_or_else(|| panic!("unknown constellation {v:?}"));
            }
            "--cities" => parsed.cities = value("--cities").parse().expect("--cities: integer"),
            "--duration-s" => {
                parsed.duration_s = value("--duration-s").parse().expect("--duration-s: seconds")
            }
            "--step-ms" => parsed.step_ms = value("--step-ms").parse().expect("--step-ms: ms"),
            "--fail-frac" => {
                parsed.fail_frac = value("--fail-frac").parse().expect("--fail-frac: fraction")
            }
            "--mttr-s" => parsed.mttr_s = value("--mttr-s").parse().expect("--mttr-s: seconds"),
            "--seed" => parsed.seed = value("--seed").parse().expect("--seed: integer"),
            "--churn-threshold" => {
                parsed.churn_threshold =
                    value("--churn-threshold").parse().expect("--churn-threshold: fraction")
            }
            "--mode" => {
                parsed.modes = match value("--mode").as_str() {
                    "full" => vec![RoutingMode::Full],
                    "incremental" => vec![RoutingMode::Incremental],
                    "both" => vec![RoutingMode::Full, RoutingMode::Incremental],
                    other => panic!("unknown mode {other:?} (full|incremental|both)"),
                };
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    parsed
}

/// One timed sweep: the serial snapshot loop every worker of the parallel
/// pipeline runs, including the per-step fault mask when a schedule is
/// present.
fn run_sweep(
    c: &Constellation,
    dests: &[NodeId],
    times: &[SimTime],
    schedule: Option<&FaultSchedule>,
    config: RoutingConfig,
) -> (f64, RouterStats) {
    let mut buffers = SnapshotBuffers::new();
    let mut router = IncrementalRouter::new(config);
    let mut state = ForwardingState::empty();
    let t0 = Instant::now();
    for &t in times {
        let mask = schedule.map(|s| FaultState::at(s, t));
        let graph = buffers.snapshot_masked(c, t, mask.as_ref());
        router.compute_into(graph, t, dests, &mut state);
        std::hint::black_box(&state);
    }
    (t0.elapsed().as_secs_f64(), router.stats)
}

fn main() {
    let args = parse_args();
    let scenario = ScenarioBuilder::new(args.constellation).top_cities(args.cities).build();
    let c = &*scenario.constellation;
    let dests: Vec<NodeId> = (0..c.num_ground_stations()).map(|i| c.gs_node(i)).collect();

    let duration = SimDuration::from_secs_f64(args.duration_s);
    let step = SimDuration::from_secs_f64(args.step_ms / 1e3);
    let times: Vec<SimTime> =
        TimeSteps::new(SimTime::ZERO, SimTime::ZERO + duration, step).collect();

    let schedule = if args.fail_frac > 0.0 {
        let spec = FaultSpec {
            seed: args.seed,
            sat_flap: Some(FlapProcess::from_unavailability(args.fail_frac, args.mttr_s)),
            ..FaultSpec::default()
        };
        Some(FaultSchedule::compile(&spec, c, duration))
    } else {
        None
    };

    for &mode in &args.modes {
        let config = RoutingConfig { mode, repair_churn_threshold: args.churn_threshold };
        let (wall_s, stats) = run_sweep(c, &dests, &times, schedule.as_ref(), config);
        let snapshots = times.len();
        let per_sec = if wall_s > 0.0 { snapshots as f64 / wall_s } else { 0.0 };
        // Hand-rolled JSON: every field is a number or a known-safe token.
        println!(
            "{{\"mode\":\"{}\",\"constellation\":\"{}\",\"cities\":{},\"duration_s\":{},\
             \"step_ms\":{},\"fail_frac\":{},\"mttr_s\":{},\"seed\":{},\
             \"churn_threshold\":{},\"snapshots\":{},\"wall_s\":{:.6},\
             \"snapshots_per_sec\":{:.3},\"stats\":{{\"repaired\":{},\"full_mode\":{},\
             \"fallback_first\":{},\"fallback_churn\":{},\"fallback_zero_delay\":{}}}}}",
            mode.as_str(),
            args.constellation.slug(),
            args.cities,
            args.duration_s,
            args.step_ms,
            args.fail_frac,
            args.mttr_s,
            args.seed,
            args.churn_threshold,
            snapshots,
            wall_s,
            per_sec,
            stats.repaired,
            stats.full_mode,
            stats.fallback_first,
            stats.fallback_churn,
            stats.fallback_zero_delay,
        );
    }
}
