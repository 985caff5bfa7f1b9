//! Incremental-repair routing must be indistinguishable from full
//! recomputation — the property every time-stepped result rests on.
//!
//! A seeded scenario applies the two churn sources the repair engine has
//! to survive: continuous weight drift (satellite motion between
//! snapshots) and edge flips (a randomized fault schedule of satellite
//! outages and ISL cuts). Every forwarding state is compared byte-for-byte
//! (via `Debug`, which covers per-destination distances and next hops
//! exactly) between the incremental and full pipelines, across snapshot
//! partitionings equivalent to 1/2/4/8 worker threads — and, through the
//! product's one sweep, against full Dijkstra on each masked snapshot with
//! multipath alternates on.

use hypatia_constellation::ground::GroundStation;
use hypatia_constellation::gsl::GslConfig;
use hypatia_constellation::isl::IslLayout;
use hypatia_constellation::shell::ShellSpec;
use hypatia_constellation::Constellation;
use hypatia_fault::{FaultSchedule, FaultSpec, FaultState, FlapProcess, LinkCut, OutageWindow};
use hypatia_routing::forwarding::{
    compute_forwarding_state_into, compute_multipath_state_on, ForwardingState,
};
use hypatia_routing::graph::SnapshotBuffers;
use hypatia_routing::incremental::{IncrementalRouter, RoutingConfig};
use hypatia_routing::parallel::{sweep_forwarding_states, SnapshotWorker};
use hypatia_routing::DijkstraScratch;
use hypatia_util::time::TimeSteps;
use hypatia_util::{SimDuration, SimTime};

fn constellation() -> Constellation {
    Constellation::build(
        "equiv",
        vec![ShellSpec::new("A", 550.0, 6, 6, 53.0)],
        IslLayout::PlusGrid,
        vec![
            GroundStation::new("a", 10.0, 10.0),
            GroundStation::new("b", -20.0, 120.0),
            GroundStation::new("c", 48.0, 2.0),
        ],
        GslConfig::new(25.0),
    )
}

/// Deterministic pseudo-random stream (xorshift64*) — the test must not
/// depend on a random-number crate or wall-clock entropy.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next() as f64 / u64::MAX as f64) * (hi - lo)
    }
}

/// A randomized fault scenario: satellite outages and ISL cuts with
/// windows scattered over the horizon, so edges flip off and back on at
/// many snapshot boundaries.
fn random_faults(seed: u64, sats: u64, horizon_s: f64) -> FaultSpec {
    let mut rng = Rng(seed | 1);
    let mut spec = FaultSpec { seed, ..FaultSpec::default() };
    for _ in 0..6 {
        let from_s = rng.f64_in(0.0, horizon_s * 0.8);
        spec.sat_outages.push(OutageWindow {
            target: rng.below(sats) as u32,
            from_s,
            until_s: from_s + rng.f64_in(0.5, horizon_s * 0.3),
        });
    }
    for _ in 0..6 {
        let a = rng.below(sats) as u32;
        // A plus-grid neighbour guess; compile ignores cuts of absent links,
        // which is fine — enough of them land on real ISLs.
        let b = (a + 1) % sats as u32;
        let from_s = rng.f64_in(0.0, horizon_s * 0.8);
        spec.isl_cuts.push(LinkCut {
            a,
            b,
            from_s,
            until_s: from_s + rng.f64_in(0.5, horizon_s * 0.3),
        });
    }
    spec
}

/// Replay the masked snapshot sequence the way `sweep_forwarding_states`
/// partitions it across `workers` threads: worker `w` handles steps
/// `w, w + workers, …` with its own buffers and router cache, exactly the
/// per-worker state of the real pipeline.
fn states_partitioned(
    c: &Constellation,
    times: &[SimTime],
    dests: &[hypatia_constellation::NodeId],
    schedule: Option<&FaultSchedule>,
    workers: usize,
    config: RoutingConfig,
) -> Vec<String> {
    let mut out = vec![String::new(); times.len()];
    for w in 0..workers {
        let mut buffers = SnapshotBuffers::new();
        let mut router = IncrementalRouter::new(config);
        let mut state = ForwardingState::empty();
        for (k, &t) in times.iter().enumerate().skip(w).step_by(workers) {
            let mask = schedule.map(|s| FaultState::at(s, t));
            let graph = buffers.snapshot_masked(c, t, mask.as_ref());
            router.compute_into(graph, t, dests, &mut state);
            out[k] = format!("{state:?}");
        }
    }
    out
}

#[test]
fn incremental_matches_full_under_seeded_churn() {
    let c = constellation();
    let dests: Vec<_> = (0..c.num_ground_stations()).map(|i| c.gs_node(i)).collect();
    let horizon = SimDuration::from_secs(20);
    let times: Vec<SimTime> =
        TimeSteps::new(SimTime::ZERO, SimTime::ZERO + horizon, SimDuration::from_millis(500))
            .collect();

    for seed in [3, 1447] {
        let spec = random_faults(seed, c.num_satellites() as u64, horizon.secs_f64());
        let schedule = FaultSchedule::compile(&spec, &c, horizon);
        assert!(!schedule.is_empty(), "seed {seed} produced no fault events");

        // Reference: full recomputation, serial.
        let reference =
            states_partitioned(&c, &times, &dests, Some(&schedule), 1, RoutingConfig::full());
        assert!(reference.iter().all(|s| !s.is_empty()));

        for workers in [1, 2, 4, 8] {
            let incremental = states_partitioned(
                &c,
                &times,
                &dests,
                Some(&schedule),
                workers,
                RoutingConfig::incremental(),
            );
            for (k, (a, b)) in reference.iter().zip(&incremental).enumerate() {
                assert_eq!(a, b, "seed {seed}, {workers} workers: state diverged at step {k}");
            }
        }
    }
}

#[test]
fn sweep_threads_match_full_reference_under_weight_drift() {
    // The real parallel sweep (weight drift only — satellite motion),
    // incremental mode at every thread count vs one full-mode pass.
    let c = constellation();
    let dests: Vec<_> = (0..c.num_ground_stations()).map(|i| c.gs_node(i)).collect();
    let times: Vec<SimTime> =
        TimeSteps::new(SimTime::ZERO, SimTime::from_secs(12), SimDuration::from_millis(400))
            .collect();

    let collect = |threads: usize, routing: RoutingConfig| {
        let mut out = vec![String::new(); times.len()];
        let worker = || SnapshotWorker::with_config(routing);
        sweep_forwarding_states(worker, &c, &times, &dests, None, threads, |k, state| {
            out[k] = format!("{state:?}");
        });
        out
    };

    let reference = collect(1, RoutingConfig::full());
    for threads in [1, 2, 4, 8] {
        assert_eq!(
            reference,
            collect(threads, RoutingConfig::incremental()),
            "thread count {threads} diverged"
        );
    }
}

#[test]
fn aggressive_churn_threshold_still_byte_identical() {
    // Forcing repairs even under heavy churn (threshold 1.0) and forcing
    // fallbacks always (threshold 0.0) are both allowed to differ in cost
    // only, never in output.
    let c = constellation();
    let dests: Vec<_> = (0..c.num_ground_stations()).map(|i| c.gs_node(i)).collect();
    let horizon = SimDuration::from_secs(10);
    let times: Vec<SimTime> =
        TimeSteps::new(SimTime::ZERO, SimTime::ZERO + horizon, SimDuration::from_millis(500))
            .collect();
    let spec = random_faults(99, c.num_satellites() as u64, horizon.secs_f64());
    let schedule = FaultSchedule::compile(&spec, &c, horizon);

    let reference =
        states_partitioned(&c, &times, &dests, Some(&schedule), 1, RoutingConfig::full());
    for threshold in [0.0, 1.0] {
        let config =
            RoutingConfig { repair_churn_threshold: threshold, ..RoutingConfig::incremental() };
        let got = states_partitioned(&c, &times, &dests, Some(&schedule), 1, config);
        assert_eq!(reference, got, "threshold {threshold} diverged");
    }
}

/// The product's one sweep under a flapping fault schedule (satellites and
/// ISLs failing and recovering throughout) with multipath alternates on:
/// at 1, 2 and 4 threads every step equals full Dijkstra — and the
/// multipath computation — on the same masked snapshot, byte for byte.
#[test]
fn masked_multipath_sweep_matches_full_dijkstra_per_step() {
    // Dense enough that every station sees satellites, so failures move
    // routes rather than leaving every tree unreachable.
    let c = Constellation::build(
        "sweep",
        vec![ShellSpec::new("A", 550.0, 10, 10, 53.0)],
        IslLayout::PlusGrid,
        vec![
            GroundStation::new("a", 5.0, 5.0),
            GroundStation::new("b", -10.0, 140.0),
            GroundStation::new("c", 40.0, -70.0),
        ],
        GslConfig::new(10.0),
    );
    let dests: Vec<_> = (0..c.num_ground_stations()).map(|i| c.gs_node(i)).collect();
    let horizon = SimDuration::from_secs(30);
    let times: Vec<SimTime> =
        TimeSteps::new(SimTime::ZERO, SimTime::ZERO + horizon, SimDuration::from_millis(250))
            .collect();
    let spec = FaultSpec {
        seed: 11,
        sat_flap: Some(FlapProcess { mttf_s: 40.0, mttr_s: 4.0 }),
        isl_flap: Some(FlapProcess { mttf_s: 30.0, mttr_s: 3.0 }),
        ..FaultSpec::default()
    };
    let schedule = FaultSchedule::compile(&spec, &c, horizon);
    assert!(schedule.events().len() > 20, "too few flaps: {}", schedule.events().len());
    let stretch = 1.3;

    // The oracle: a fresh masked snapshot per step, full Dijkstra.
    let mut buffers = SnapshotBuffers::new();
    let mut scratch = DijkstraScratch::new();
    let mut full = |t: SimTime, mask: Option<&FaultState>| {
        let graph = buffers.snapshot_masked(&c, t, mask);
        let mut fwd = ForwardingState::empty();
        compute_forwarding_state_into(graph, t, &dests, &mut scratch, &mut fwd);
        let mp = compute_multipath_state_on(graph, t, &dests, stretch);
        (format!("{fwd:?}"), format!("{mp:?}"))
    };
    let mut rerouted = 0;
    let oracle: Vec<(String, String)> = times
        .iter()
        .map(|&t| {
            let masked = full(t, Some(&FaultState::at(&schedule, t)));
            rerouted += usize::from(masked != full(t, None));
            masked
        })
        .collect();
    assert!(rerouted > times.len() / 10, "faults moved only {rerouted} steps' routes");

    for threads in [1, 2, 4] {
        let mut got = Vec::new();
        let worker = || SnapshotWorker::new().with_multipath(Some(stretch));
        sweep_forwarding_states(worker, &c, &times, &dests, Some(&schedule), threads, |k, st| {
            let mp = st.1.expect("a stretch is set");
            got.push((k, (format!("{:?}", st.0), format!("{mp:?}"))));
        });
        assert_eq!(got.len(), times.len(), "threads={threads}");
        for (k, states) in got {
            assert_eq!(states, oracle[k], "threads={threads}: step {k} diverged");
        }
    }
}
