//! Fig. 10 — unused bandwidth under cross-traffic, dynamic vs frozen.
//!
//! A fixed permutation of long-running TCP flows; the Rio de Janeiro →
//! St. Petersburg pair is observed. Expected shape: in the *moving*
//! network, path changes shift the cross-traffic mix and leave substantial
//! capacity unused (paper: >1/3 of capacity unused for 31% of the time,
//! vs 11% if frozen at t = 0).

use super::first_pair;
use crate::experiments::cross_traffic::{run, CrossTrafficConfig};
use crate::runner::{Experiment, RunContext, RunError};
use crate::scenario::ConstellationChoice;
use crate::spec::{ExperimentSpec, GroundSegment, PairSelection};
use hypatia_util::{DataRate, SimDuration};

/// Fig. 10 as a registered experiment.
pub struct Fig10;

impl Experiment for Fig10 {
    fn name(&self) -> &'static str {
        "fig10_unused_bandwidth"
    }

    fn label(&self) -> Option<&'static str> {
        Some("Fig. 10")
    }

    fn title(&self) -> &'static str {
        "Unused bandwidth with cross-traffic (Kuiper K1)"
    }

    fn spec(&self, full: bool) -> ExperimentSpec {
        // Reduced: fewer flows and a shorter horizon. Rio–Moscow is a
        // long, churning route that stays connected (unlike St.Petersburg)
        // so the series has no gaps.
        let (cities, secs, pair) = if full {
            (100, 200, ("Rio de Janeiro", "Saint Petersburg"))
        } else {
            (30, 100, ("Rio de Janeiro", "Moscow"))
        };
        ExperimentSpec {
            experiment: self.name().to_string(),
            constellation: ConstellationChoice::KuiperK1,
            ground: GroundSegment::TopCities(cities),
            pairs: PairSelection::Named(vec![(pair.0.to_string(), pair.1.to_string())]),
            duration: SimDuration::from_secs(secs),
            line_rate: DataRate::from_mbps(10),
            utilization_bucket: Some(SimDuration::from_secs(1)),
            ..ExperimentSpec::default()
        }
    }

    fn run(&self, ctx: &mut RunContext) -> Result<(), RunError> {
        let duration = ctx.spec.duration;
        let seed = ctx.spec.seed;
        let pair = first_pair(&ctx.spec)?;
        let scenario = ctx.scenario();
        let driver = ctx.driver();

        println!("observed pair: {} -> {}", pair.0, pair.1);
        let mut rows = Vec::new();
        for frozen in [false, true] {
            let label = if frozen { "frozen(t=0)" } else { "dynamic" };
            eprintln!("  running {label} network...");
            let r = run(
                &scenario,
                &pair.0,
                &pair.1,
                &CrossTrafficConfig { duration, seed, frozen, multipath_stretch: None },
                &driver,
            )?;
            r.run.record(&mut ctx.sink);
            let frac = r.fraction_time_unused_above(1.0 / 3.0);
            println!(
                "{label:<12}: flows={:<4} total goodput {:>7.1} Mbps, \
                 time with >1/3 capacity unused: {:>5.1}%",
                r.flows,
                r.total_goodput_mbps,
                frac * 100.0
            );
            ctx.sink.write_series(
                &format!("fig10_unused_{}.dat", if frozen { "frozen" } else { "dynamic" }),
                "t_s unused_mbps",
                &r.unused_bandwidth_series,
            )?;
            rows.push((label, frac));
        }

        println!();
        println!(
            "Paper's qualitative check: dynamic ({:.1}%) > frozen ({:.1}%) — {}",
            rows[0].1 * 100.0,
            rows[1].1 * 100.0,
            if rows[0].1 >= rows[1].1 { "HOLDS" } else { "DIFFERS (check scale/params)" }
        );
        Ok(())
    }
}
