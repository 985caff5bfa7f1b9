//! Fig. 13 — shortest-path snapshots over time: Paris → Luanda on
//! Starlink S1.
//!
//! Finds the instants of maximum and minimum RTT across the horizon and
//! exports both path geometries (the paper's 117 ms vs 85 ms snapshots,
//! where the long path needs 9 zig-zag hops to exit the orbit vs 6).

use super::first_pair;
use crate::runner::{About, Experiment, RunContext, RunError};
use crate::scenario::ConstellationChoice;
use crate::spec::{ExperimentSpec, GroundSegment, PairSelection};
use hypatia_routing::forwarding::compute_forwarding_state;
use hypatia_routing::parallel::{sweep_forwarding_states, SnapshotWorker};
use hypatia_util::time::TimeSteps;
use hypatia_util::{SimDuration, SimTime};
use hypatia_viz::path_viz::PathSnapshot;

/// Fig. 13 as a registered experiment.
pub struct Fig13;

impl Experiment for Fig13 {
    fn about(&self) -> About {
        About {
            name: "fig13_path_viz",
            label: Some("Fig. 13"),
            title: "Shortest-path changes over time: Paris -> Luanda (Starlink S1)",
            knobs: "duration_s step_ms constellation ground pairs",
            faults: false,
        }
    }

    fn defaults(&self, full: bool) -> ExperimentSpec {
        let (secs, step_ms) = if full { (200, 100) } else { (120, 1000) };
        ExperimentSpec {
            constellation: ConstellationChoice::StarlinkS1,
            ground: GroundSegment::TopCities(100),
            pairs: PairSelection::Named(vec![("Paris".to_string(), "Luanda".to_string())]),
            duration: SimDuration::from_secs(secs),
            step: SimDuration::from_millis(step_ms),
            ..ExperimentSpec::default()
        }
    }

    fn run(&self, ctx: &mut RunContext) -> Result<(), RunError> {
        let (duration, step) = (ctx.spec.duration, ctx.spec.step);
        let (src_name, dst_name) = first_pair(&ctx.spec)?;
        let scenario = ctx.scenario();
        let c = &*scenario.constellation;
        let src = scenario.gs_by_name(&src_name)?;
        let dst = scenario.gs_by_name(&dst_name)?;
        let slug = super::pair_slug(&src_name, &dst_name);

        let mut best: Option<(SimTime, f64)> = None;
        let mut worst: Option<(SimTime, f64)> = None;
        let times: Vec<SimTime> =
            TimeSteps::new(SimTime::ZERO, SimTime::ZERO + duration, step).collect();
        let worker = || SnapshotWorker::with_config(ctx.spec.routing_config());
        sweep_forwarding_states(worker, c, &times, &[dst], None, ctx.spec.threads, |k, st| {
            if let Some(d) = st.0.distance(src, dst) {
                let (t, ms) = (times[k], 2.0 * d.secs_f64() * 1e3);
                if best.is_none() || ms < best.unwrap().1 {
                    best = Some((t, ms));
                }
                if worst.is_none() || ms > worst.unwrap().1 {
                    worst = Some((t, ms));
                }
            }
        });

        for (label, inst) in [("max_rtt", worst), ("min_rtt", best)] {
            let (t, ms) = inst.ok_or_else(|| {
                RunError::BadSpec(format!(
                    "{src_name}–{dst_name} never connected within the horizon"
                ))
            })?;
            let state = compute_forwarding_state(c, t, &[dst]);
            // The instant came from a connected sample, but go through the
            // typed error anyway: a panic here would take down the whole
            // figure sweep.
            let path = state
                .try_path(src, dst)
                .map_err(|e| RunError::BadSpec(format!("{label} instant lost its route: {e}")))?;
            let snap = PathSnapshot::capture(c, &path, t);
            println!(
                "{label}: t={:.1}s RTT {:.1} ms, {} hops, {:.0} km",
                t.secs_f64(),
                ms,
                snap.hops(),
                snap.length_km()
            );
            println!("  {}", snap.describe());
            ctx.sink.write_json(&format!("fig13_{slug}_{label}.json"), &snap.to_json())?;
        }

        let (wt, wms) = worst.expect("checked above");
        let (bt, bms) = best.expect("checked above");
        println!();
        println!(
            "RTT range {bms:.1}–{wms:.1} ms (paper: 85–117 ms) at t={:.0}s/{:.0}s",
            bt.secs_f64(),
            wt.secs_f64()
        );
        println!("Check: north-south paths ride one orbit as long as possible; the");
        println!("slow snapshot needs more zig-zag hops to exit towards the destination.");
        Ok(())
    }
}
