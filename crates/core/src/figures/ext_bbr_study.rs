//! Extension study — BBR on LEO paths (paper §4.2: "once a mature
//! implementation of BBR is available, evaluating its behavior on LEO
//! networks would be of high interest").
//!
//! Repeats the Fig. 5 setting (a path whose baseline RTT shifts) with all
//! four controllers. The hypothesis, which the run quantifies: BBR's
//! windowed RTprop expires and re-learns a lengthened path, so its
//! late-run throughput stays high where Vegas's collapses.

use super::first_pair;
use crate::experiments::tcp_single::{run, CcKind};
use crate::runner::{Experiment, RunContext, RunError};
use crate::scenario::ConstellationChoice;
use crate::spec::{ExperimentSpec, GroundSegment, PairSelection};
use hypatia_util::SimDuration;

/// The BBR extension study as a registered experiment.
pub struct ExtBbrStudy;

impl Experiment for ExtBbrStudy {
    fn name(&self) -> &'static str {
        "ext_bbr_study"
    }

    fn label(&self) -> Option<&'static str> {
        Some("Extension")
    }

    fn title(&self) -> &'static str {
        "BBR vs NewReno/Vegas/CUBIC over LEO dynamics"
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
        println!("flow: {src} -> {dst}, {:.0} s\n", duration.secs_f64());

        println!(
            "{:<9} {:>10} {:>16} {:>9} {:>9}",
            "CC", "goodput", "2nd-half tput", "fast rtx", "RTOs"
        );
        let half = duration.secs_f64() / 2.0;
        let mut late = Vec::new();
        for cc in [CcKind::NewReno, CcKind::Vegas, CcKind::Cubic, CcKind::Bbr] {
            let r = run(&scenario, &src, &dst, cc, duration, &driver)?;
            r.run.record(&mut ctx.sink);
            let late_pts: Vec<f64> =
                r.throughput_series.iter().filter(|&&(t, _)| t >= half).map(|&(_, m)| m).collect();
            let late_mean = late_pts.iter().sum::<f64>() / late_pts.len().max(1) as f64;
            println!(
                "{:<9} {:>7.2}Mb {:>13.2}Mb {:>9} {:>9}",
                cc.name(),
                r.goodput_mbps(duration),
                late_mean,
                r.fast_retransmits,
                r.timeouts
            );
            let slug = cc.name().to_lowercase();
            ctx.sink.write_series(
                &format!("ext_bbr_study_{slug}_throughput.dat"),
                "t_s mbps",
                &r.throughput_series,
            )?;
            late.push((cc, late_mean));
        }

        let vegas = late.iter().find(|(c, _)| *c == CcKind::Vegas).expect("ran Vegas").1;
        let bbr = late.iter().find(|(c, _)| *c == CcKind::Bbr).expect("ran BBR").1;
        println!();
        println!(
            "late-run throughput — BBR {bbr:.2} vs Vegas {vegas:.2} Mbps: BBR sustains {}",
            if bbr > vegas { "HOLDS" } else { "DIFFERS (check scale/params)" }
        );
        println!("Mechanism: BBR's RTprop is a 10 s windowed minimum, so a path-RTT");
        println!("increase ages out; Vegas's baseRTT is a lifetime minimum and the");
        println!("inflated RTT reads as permanent congestion (paper Fig. 5).");
        Ok(())
    }
}
