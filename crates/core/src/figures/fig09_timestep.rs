//! Fig. 9 — forwarding-state granularity: what coarser time-steps miss.
//!
//! Expected shape (paper §5.3): 100 ms sees roughly 2× the changes per
//! step of 50 ms and misses changes for a negligible share of pairs
//! (~0.4%); 1000 ms misses one or more changes for a substantial share
//! (~6%).

use crate::experiments::granularity::run;
use crate::runner::{About, Experiment, RunContext, RunError};
use crate::scenario::ConstellationChoice;
use crate::spec::{ExperimentSpec, GroundSegment, PairSelection, ParamValue};
use hypatia_util::SimDuration;
use hypatia_viz::csv::ecdf;

/// Fig. 9 as a registered experiment.
pub struct Fig09;

impl Experiment for Fig09 {
    fn about(&self) -> About {
        About {
            name: "fig09_timestep",
            label: Some("Fig. 9"),
            title: "Time-step granularity for forwarding updates (Kuiper K1)",
            knobs: "duration_s step_ms constellation ground pairs",
            faults: false,
        }
    }

    fn defaults(&self, full: bool) -> ExperimentSpec {
        let mut spec = ExperimentSpec {
            constellation: ConstellationChoice::KuiperK1,
            ground: GroundSegment::TopCities(if full { 100 } else { 20 }),
            pairs: PairSelection::MinDistance { km: 500.0 },
            duration: SimDuration::from_secs(if full { 200 } else { 60 }),
            step: SimDuration::from_millis(if full { 50 } else { 250 }),
            ..ExperimentSpec::default()
        };
        spec.params.insert("coarse_multiples".to_string(), ParamValue::List(vec![2.0, 20.0]));
        spec
    }

    fn run(&self, ctx: &mut RunContext) -> Result<(), RunError> {
        let scenario = ctx.scenario();
        let r = run(&scenario.constellation, &ctx.spec)?;

        println!("pairs analysed: {}", r.pairs);
        println!(
            "{:>12} {:>16} {:>18} {:>18}",
            "step (ms)", "total changes", "frac miss >=1", "frac miss >=2"
        );
        for s in &r.stats {
            println!(
                "{:>12} {:>16} {:>18.4} {:>18.4}",
                s.step.millis(),
                s.total_changes(),
                s.fraction_missing_at_least(1),
                s.fraction_missing_at_least(2)
            );
            let slug = format!("{}ms", s.step.millis());
            let per_step: Vec<f64> = s.changes_per_step.iter().map(|&c| c as f64).collect();
            ctx.sink.write_series(
                &format!("fig09a_changes_per_step_{slug}.dat"),
                "changes_in_step ecdf",
                &ecdf(&per_step),
            )?;
            let missed: Vec<f64> = s.missed_per_pair.iter().map(|&m| m as f64).collect();
            ctx.sink.write_series(
                &format!("fig09b_missed_per_pair_{slug}.dat"),
                "missed_changes ecdf",
                &ecdf(&missed),
            )?;
        }

        let fine = r.stats[0].total_changes() as f64;
        println!();
        for s in &r.stats[1..] {
            let factor = s.step.nanos() as f64 / r.stats[0].step.nanos() as f64;
            println!(
                "step x{factor:.0}: observed {:.2}x the per-step change count (ideal {factor:.0}x), \
                 missed {:.1}% of fine-grained changes",
                s.total_changes() as f64 / (fine / factor).max(1.0),
                (1.0 - s.total_changes() as f64 / fine.max(1.0)) * 100.0
            );
        }
        println!();
        println!("Paper's conclusion: 100 ms is a good compromise; 1000 ms misses");
        println!("a substantial number of changes for some pairs.");
        Ok(())
    }
}
