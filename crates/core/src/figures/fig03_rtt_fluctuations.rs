//! Fig. 3 — RTT fluctuations on Kuiper K1 for the paper's three pairs:
//! Rio de Janeiro → St. Petersburg, Manila → Dalian, Istanbul → Nairobi.
//!
//! Prints the min/max computed RTT, the disconnection time (the
//! St. Petersburg outage), and the ping-vs-computed agreement, and writes
//! both series per pair.

use super::{named_pairs, pair_slug, CANONICAL_PAIRS};
use crate::experiments::rtt_fluctuations::run;
use crate::runner::{About, Experiment, RunContext, RunError};
use crate::scenario::ConstellationChoice;
use crate::spec::{ExperimentSpec, GroundSegment, PairSelection, ParamValue};
use hypatia_util::SimDuration;

/// Fig. 3 as a registered experiment.
pub struct Fig03;

impl Experiment for Fig03 {
    fn about(&self) -> About {
        About {
            name: "fig03_rtt_fluctuations",
            label: Some("Fig. 3"),
            title: "RTT fluctuations: pings vs computed (Kuiper K1)",
            knobs: "duration_s step_ms line_rate_mbps constellation ground pairs",
            faults: true,
        }
    }

    fn defaults(&self, full: bool) -> ExperimentSpec {
        let mut spec = ExperimentSpec {
            constellation: ConstellationChoice::KuiperK1,
            ground: GroundSegment::TopCities(100),
            pairs: PairSelection::Named(
                CANONICAL_PAIRS.iter().map(|&(s, d, _)| (s.to_string(), d.to_string())).collect(),
            ),
            duration: SimDuration::from_secs(if full { 200 } else { 60 }),
            ..ExperimentSpec::default()
        };
        spec.params
            .insert("ping_interval_ms".to_string(), ParamValue::Num(if full { 1.0 } else { 20.0 }));
        spec
    }

    fn run(&self, ctx: &mut RunContext) -> Result<(), RunError> {
        let duration = ctx.spec.duration;
        // At least a nanosecond: a shorter interval rounds to zero.
        let ping_interval =
            SimDuration::from_secs_f64(ctx.spec.num_in("ping_interval_ms", 1e-6..)? / 1e3);
        let pairs = named_pairs(&ctx.spec)?;
        let scenario = ctx.scenario();
        let driver = ctx.driver();

        println!(
            "{:<36} {:>10} {:>10} {:>8} {:>12} {:>12}",
            "pair", "min (ms)", "max (ms)", "ratio", "outage (s)", "pings rx/tx"
        );
        for (src, dst) in &pairs {
            let r = run(&scenario, src, dst, duration, ping_interval, &driver)?;
            r.run.record(&mut ctx.sink);
            println!(
                "{:<36} {:>10.1} {:>10.1} {:>8.2} {:>12.1} {:>7}/{}",
                format!("{src} -> {dst}"),
                r.min_computed_ms,
                r.max_computed_ms,
                r.max_computed_ms / r.min_computed_ms,
                r.disconnected_seconds,
                r.received,
                r.sent
            );
            let slug = pair_slug(src, dst);
            ctx.sink.write_series(
                &format!("fig03_{slug}_pings.dat"),
                "t_s rtt_ms",
                &r.ping_series,
            )?;
            ctx.sink.write_series(
                &format!("fig03_{slug}_computed.dat"),
                "t_s rtt_ms",
                &r.computed_series,
            )?;
        }
        println!();
        println!("Paper's qualitative checks:");
        println!("  * Manila–Dalian RTT varies ~2x over time (paper: 25–48 ms).");
        println!("  * Istanbul–Nairobi varies between ~47–70 ms.");
        println!("  * Rio–St.Petersburg shows a disconnection window (St. Petersburg");
        println!("    has no visible Kuiper satellite at sufficient elevation).");
        Ok(())
    }
}
