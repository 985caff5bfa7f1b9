//! Fig. 4 — TCP congestion-window evolution with the BDP+Q overlay.
//!
//! NewReno on the paper's three pairs, 10 Mbit/s links, 100-packet queues.
//! The window should oscillate between BDP and BDP+Q; reordering after
//! path shortenings cuts it without loss.

use super::{named_pairs, pair_slug, CANONICAL_PAIRS};
use crate::experiments::tcp_single::{bdp_plus_q_series, flow_tag, run};
use crate::runner::{About, Experiment, RunContext, RunError};
use crate::scenario::ConstellationChoice;
use crate::spec::{ExperimentSpec, GroundSegment, PairSelection};
use hypatia_util::SimDuration;

/// Fig. 4 as a registered experiment.
pub struct Fig04;

impl Experiment for Fig04 {
    fn about(&self) -> About {
        About {
            name: "fig04_cwnd_bdp",
            label: Some("Fig. 4"),
            title: "TCP (NewReno) cwnd evolution vs BDP+Q (Kuiper K1)",
            knobs: "duration_s step_ms line_rate_mbps queue_packets cc constellation ground pairs",
            faults: true,
        }
    }

    fn defaults(&self, full: bool) -> ExperimentSpec {
        ExperimentSpec {
            constellation: ConstellationChoice::KuiperK1,
            ground: GroundSegment::TopCities(100),
            pairs: PairSelection::Named(
                CANONICAL_PAIRS.iter().map(|&(s, d, _)| (s.to_string(), d.to_string())).collect(),
            ),
            duration: SimDuration::from_secs(if full { 200 } else { 40 }),
            ..ExperimentSpec::default()
        }
    }

    fn run(&self, ctx: &mut RunContext) -> Result<(), RunError> {
        let duration = ctx.spec.duration;
        let cc = ctx.spec.cc;
        let pairs = named_pairs(&ctx.spec)?;
        let scenario = ctx.scenario();
        let driver = ctx.driver();

        println!(
            "{:<36} {:>9} {:>10} {:>9} {:>9} {:>12}",
            "pair", "goodput", "fast rtx", "RTOs", "reorder", "cwnd range"
        );
        for (src, dst) in &pairs {
            let (s, d) = (scenario.gs_by_name(src)?, scenario.gs_by_name(dst)?);
            let r = run(&scenario, s, d, cc, duration, &flow_tag(cc, src, dst), &driver)?;
            r.run.record(&mut ctx.sink);
            let max_cwnd = r.cwnd_series.iter().map(|&(_, w)| w).fold(0.0, f64::max);
            let min_cwnd = r.cwnd_series.iter().map(|&(_, w)| w).fold(f64::INFINITY, f64::min);
            println!(
                "{:<36} {:>7.2}Mb {:>10} {:>9} {:>9} {:>5.0}-{:.0}pk",
                format!("{src} -> {dst}"),
                r.goodput_mbps(duration),
                r.fast_retransmits,
                r.timeouts,
                r.reordered_arrivals,
                min_cwnd,
                max_cwnd
            );
            let slug = pair_slug(src, dst);
            ctx.sink.write_series(
                &format!("fig04_{slug}_cwnd.dat"),
                "t_s cwnd_pkts",
                &r.cwnd_series,
            )?;
            ctx.sink.write_series(
                &format!("fig04_{slug}_bdpq.dat"),
                "t_s bdp_plus_q_pkts",
                &bdp_plus_q_series(&scenario, src, dst, duration)?,
            )?;
        }
        println!();
        println!("Check: cwnd peaks should track the BDP+Q overlay; cuts without");
        println!("RTOs when the path shortens are reordering-induced (paper §4.2).");
        Ok(())
    }
}
