//! Fig. 5 and the BBR extension study — congestion control on a changing
//! path.
//!
//! NewReno, Vegas, CUBIC and BBR run *separately* (no competition) on the
//! same pair, once each. Fig. 5 is the NewReno and Vegas runs. Expected
//! shapes: NewReno fills the queue (RTT rides at computed + Q); Vegas
//! tracks the computed RTT with a near-empty queue until the path
//! lengthens, then misreads the latency jump as congestion and its
//! throughput collapses for the rest of the run.
//!
//! The study adds CUBIC and BBR (paper §4.2: "once a mature
//! implementation of BBR is available, evaluating its behavior on LEO
//! networks would be of high interest"). The hypothesis, which the run
//! quantifies: BBR's windowed RTprop expires and re-learns a lengthened
//! path, so its late-run throughput stays high where Vegas's collapses.

use super::first_pair;
use crate::experiments::tcp_single::{flow_tag, run, CcKind, TcpSingleResult};
use crate::runner::{Experiment, RunContext, RunError};
use crate::scenario::ConstellationChoice;
use crate::spec::{ExperimentSpec, GroundSegment, PairSelection};
use hypatia_util::SimDuration;

/// Fig. 5 and the BBR study as one registered experiment.
pub struct Fig05Cc;

impl Experiment for Fig05Cc {
    fn name(&self) -> &'static str {
        "fig05_cc_rates_rtt"
    }

    fn label(&self) -> Option<&'static str> {
        Some("Fig. 5")
    }

    fn title(&self) -> &'static str {
        "NewReno vs Vegas (and CUBIC, BBR) on Rio de Janeiro -> St. Petersburg"
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
        let (src_name, dst_name) = first_pair(&ctx.spec)?;
        let scenario = ctx.scenario();
        let (src, dst) = (scenario.gs_by_name(&src_name)?, scenario.gs_by_name(&dst_name)?);
        let driver = ctx.driver();
        println!("flow: {src_name} -> {dst_name}, {:.0} s", duration.secs_f64());

        let mut results = Vec::new();
        for cc in [CcKind::NewReno, CcKind::Vegas, CcKind::Cubic, CcKind::Bbr] {
            let tag = flow_tag(cc, &src_name, &dst_name);
            let r = run(&scenario, src, dst, cc, duration, &tag, &driver)?;
            r.run.record(&mut ctx.sink);
            let slug = cc.name().to_lowercase();
            if matches!(cc, CcKind::NewReno | CcKind::Vegas) {
                let fig05 = |series: &str| format!("fig05_{slug}_{series}.dat");
                ctx.sink.write_series(&fig05("rtt"), "t_s rtt_ms", &r.rtt_series)?;
                ctx.sink.write_series(&fig05("cwnd"), "t_s cwnd_pkts", &r.cwnd_series)?;
                ctx.sink.write_series(&fig05("throughput"), "t_s mbps", &r.throughput_series)?;
            }
            ctx.sink.write_series(
                &format!("ext_bbr_study_{slug}_throughput.dat"),
                "t_s mbps",
                &r.throughput_series,
            )?;
            results.push(r);
        }
        let [newreno, vegas, cubic, bbr] = &results[..] else { unreachable!("four controllers") };

        // Fig. 5: NewReno vs Vegas.
        println!();
        println!(
            "{:<9} {:>12} {:>12} {:>10} {:>10}",
            "CC", "goodput", "mean RTT", "fast rtx", "RTOs"
        );
        for r in [newreno, vegas] {
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
        let (nr, vg) = (late_tput(newreno), late_tput(vegas));
        println!();
        println!("Second-half mean throughput: NewReno {nr:.2} Mbps, Vegas {vg:.2} Mbps");
        println!("Paper's qualitative check: after a path-RTT increase, Vegas stays low");
        println!("while NewReno recovers (loss-based ignores baseline RTT shifts).");

        // The extension study: all four controllers.
        println!();
        println!(
            "{:<9} {:>10} {:>16} {:>9} {:>9}",
            "CC", "goodput", "2nd-half tput", "fast rtx", "RTOs"
        );
        for r in [newreno, vegas, cubic, bbr] {
            println!(
                "{:<9} {:>7.2}Mb {:>13.2}Mb {:>9} {:>9}",
                r.cc.name(),
                r.goodput_mbps(duration),
                late_tput(r),
                r.fast_retransmits,
                r.timeouts
            );
        }
        let bb = late_tput(bbr);
        println!();
        println!(
            "late-run throughput — BBR {bb:.2} vs Vegas {vg:.2} Mbps: BBR sustains {}",
            if bb > vg { "HOLDS" } else { "DIFFERS (check scale/params)" }
        );
        println!("Mechanism: BBR's RTprop is a 10 s windowed minimum, so a path-RTT");
        println!("increase ages out; Vegas's baseRTT is a lifetime minimum and the");
        println!("inflated RTT reads as permanent congestion (paper Fig. 5).");
        Ok(())
    }
}
