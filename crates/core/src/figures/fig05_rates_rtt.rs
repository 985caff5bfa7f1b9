//! Fig. 5 — loss- vs delay-based congestion control on a changing path.
//!
//! NewReno and Vegas run *separately* (no competition) on the same pair.
//! Expected shapes: NewReno fills the queue (RTT rides at computed + Q);
//! Vegas tracks the computed RTT with a near-empty queue until the path
//! lengthens, then misreads the latency jump as congestion and its
//! throughput collapses for the rest of the run.

use super::first_pair;
use crate::experiments::tcp_single::{run, CcKind, TcpSingleResult};
use crate::runner::{Experiment, RunContext, RunError};
use crate::scenario::ConstellationChoice;
use crate::spec::{ExperimentSpec, GroundSegment, PairSelection};
use hypatia_util::SimDuration;

/// Fig. 5 as a registered experiment.
pub struct Fig05;

impl Experiment for Fig05 {
    fn name(&self) -> &'static str {
        "fig05_rates_rtt"
    }

    fn label(&self) -> Option<&'static str> {
        Some("Fig. 5")
    }

    fn title(&self) -> &'static str {
        "NewReno vs Vegas on Rio de Janeiro -> St. Petersburg"
    }

    fn spec(&self, full: bool) -> ExperimentSpec {
        ExperimentSpec {
            experiment: self.name().to_string(),
            constellation: ConstellationChoice::KuiperK1,
            ground: GroundSegment::TopCities(100),
            pairs: PairSelection::Named(vec![(
                "Rio de Janeiro".to_string(),
                "Saint Petersburg".to_string(),
            )]),
            duration: SimDuration::from_secs(if full { 200 } else { 60 }),
            ..ExperimentSpec::default()
        }
    }

    fn run(&self, ctx: &mut RunContext) -> Result<(), RunError> {
        let duration = ctx.spec.duration;
        let (src, dst) = first_pair(&ctx.spec)?;
        let scenario = ctx.scenario();
        let driver = ctx.driver();

        let mut results = Vec::new();
        for cc in [CcKind::NewReno, CcKind::Vegas] {
            let r = run(&scenario, &src, &dst, cc, duration, &driver)?;
            r.run.record(&mut ctx.sink);
            let slug = cc.name().to_lowercase();
            ctx.sink.write_series(&format!("fig05_{slug}_rtt.dat"), "t_s rtt_ms", &r.rtt_series)?;
            ctx.sink.write_series(
                &format!("fig05_{slug}_cwnd.dat"),
                "t_s cwnd_pkts",
                &r.cwnd_series,
            )?;
            ctx.sink.write_series(
                &format!("fig05_{slug}_throughput.dat"),
                "t_s mbps",
                &r.throughput_series,
            )?;
            results.push(r);
        }

        println!();
        println!(
            "{:<9} {:>12} {:>12} {:>10} {:>10}",
            "CC", "goodput", "mean RTT", "fast rtx", "RTOs"
        );
        for r in &results {
            let mean_rtt = if r.rtt_series.is_empty() {
                f64::NAN
            } else {
                r.rtt_series.iter().map(|&(_, x)| x).sum::<f64>() / r.rtt_series.len() as f64
            };
            println!(
                "{:<9} {:>9.2}Mb {:>9.1}ms {:>10} {:>10}",
                r.cc.name(),
                r.goodput_mbps(duration),
                mean_rtt,
                r.fast_retransmits,
                r.timeouts
            );
        }

        // Second-half throughput comparison — Vegas's collapse shows up here.
        let half = duration.secs_f64() / 2.0;
        let late_tput = |r: &TcpSingleResult| {
            let pts: Vec<f64> =
                r.throughput_series.iter().filter(|&&(t, _)| t >= half).map(|&(_, m)| m).collect();
            pts.iter().sum::<f64>() / pts.len().max(1) as f64
        };
        let (nr, vg) = (late_tput(&results[0]), late_tput(&results[1]));
        println!();
        println!("Second-half mean throughput: NewReno {nr:.2} Mbps, Vegas {vg:.2} Mbps");
        println!("Paper's qualitative check: after a path-RTT increase, Vegas stays low");
        println!("while NewReno recovers (loss-based ignores baseline RTT shifts).");
        Ok(())
    }
}
