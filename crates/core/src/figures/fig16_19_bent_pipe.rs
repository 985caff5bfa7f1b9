//! Figs. 16–19 (Appendix A) — ISL vs bent-pipe connectivity,
//! Paris → Moscow over Kuiper K1.
//!
//! Expected shapes: bent-pipe paths alternate satellite/ground-relay and
//! carry ~5 ms more RTT (Fig. 18c); TCP over bent-pipe shows a noisier
//! congestion window (ACKs queue behind data at the shared satellite GSL
//! device) and modestly lower throughput (Fig. 19).

use crate::experiments::bent_pipe::run;
use crate::runner::{Experiment, RunContext, RunError};
use crate::spec::{ExperimentSpec, GroundSegment, PairSelection, ParamValue};
use hypatia_constellation::GroundStation;
use hypatia_util::SimDuration;

/// Figs. 16–19 as one registered experiment.
#[allow(non_camel_case_types)]
pub struct Fig16_19;

impl Experiment for Fig16_19 {
    fn name(&self) -> &'static str {
        "fig16_19_bent_pipe"
    }

    fn label(&self) -> Option<&'static str> {
        Some("Figs. 16-19")
    }

    fn title(&self) -> &'static str {
        "Paris -> Moscow: ISLs vs bent-pipe ground relays"
    }

    fn spec(&self, full: bool) -> ExperimentSpec {
        let (secs, spacing, margin) = if full { (200, 3.0, 3.0) } else { (60, 4.0, 2.0) };
        let mut spec = ExperimentSpec {
            experiment: self.name().to_string(),
            ground: GroundSegment::Cities(vec![
                GroundStation::new("Paris", 48.8566, 2.3522),
                GroundStation::new("Moscow", 55.7558, 37.6173),
            ]),
            pairs: PairSelection::Named(vec![("Paris".to_string(), "Moscow".to_string())]),
            duration: SimDuration::from_secs(secs),
            ..ExperimentSpec::default()
        };
        spec.params.insert("relay_spacing_deg".to_string(), ParamValue::Num(spacing));
        spec.params.insert("relay_margin_deg".to_string(), ParamValue::Num(margin));
        spec
    }

    fn run(&self, ctx: &mut RunContext) -> Result<(), RunError> {
        let duration = ctx.spec.duration;
        let r = run(&ctx.spec, &ctx.driver())?;

        for leg in [&r.isl, &r.bent_pipe] {
            leg.tcp.run.record(&mut ctx.sink);
            let slug = leg.label.replace('-', "_");
            println!();
            println!("[{}]", leg.label);
            println!("  mean computed RTT: {:.1} ms", leg.mean_computed_rtt_ms);
            println!(
                "  bytes delivered: {} ({:.2} Mbps over {:.0} s)",
                leg.tcp.bytes_received,
                leg.tcp.goodput_mbps(duration),
                duration.secs_f64()
            );
            ctx.sink.write_series(
                &format!("fig18_rtt_computed_{slug}.dat"),
                "t_s rtt_ms",
                &leg.computed_rtt_series,
            )?;
            ctx.sink.write_series(
                &format!("fig18_rtt_tcp_{slug}.dat"),
                "t_s rtt_ms",
                &leg.tcp.rtt_series,
            )?;
            ctx.sink.write_series(
                &format!("fig19_cwnd_{slug}.dat"),
                "t_s cwnd_pkts",
                &leg.tcp.cwnd_series,
            )?;
            ctx.sink.write_series(
                &format!("fig19_throughput_{slug}.dat"),
                "t_s mbps",
                &leg.tcp.throughput_series,
            )?;
        }

        println!();
        println!(
            "RTT gap (bent-pipe - ISL): {:.1} ms  (paper: typically ~5 ms)",
            r.bent_pipe.mean_computed_rtt_ms - r.isl.mean_computed_rtt_ms
        );

        // Figs. 16/17: path geometry at t = 0 for both configurations.
        // (Fig. 17's mid-run snapshots come from re-running with the chosen
        // instant; the t = 0 snapshot documents the structure.)
        for leg in [&r.isl, &r.bent_pipe] {
            if let Some(path) = &leg.path_t0 {
                println!("{}: {} nodes end-to-end at t=0", leg.label, path.len());
            }
        }
        // cwnd volatility comparison (Fig. 19's point): count window cuts.
        let cuts =
            |series: &[(f64, f64)]| series.windows(2).filter(|w| w[1].1 < w[0].1 * 0.75).count();
        println!(
            "cwnd cuts — ISL: {}, bent-pipe: {} (bent-pipe expected noisier)",
            cuts(&r.isl.tcp.cwnd_series),
            cuts(&r.bent_pipe.tcp.cwnd_series)
        );
        Ok(())
    }
}
