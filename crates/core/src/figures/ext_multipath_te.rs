//! Extension study — does loop-free multipath actually relieve hotspots?
//!
//! The paper's §5.4/§6 TE takeaway, tested end-to-end: run the same
//! cross-traffic workload (Fig. 10's permutation TCP matrix) with single
//! shortest-path forwarding and with downhill-alternate multipath
//! (stretch 1.2), then compare hotspot utilization and total goodput.

use super::first_pair;
use crate::experiments::cross_traffic::{run, CrossTrafficConfig};
use crate::runner::{Experiment, RunContext, RunError};
use crate::scenario::ConstellationChoice;
use crate::spec::{ExperimentSpec, GroundSegment, PairSelection, ParamValue};
use hypatia_util::{DataRate, SimDuration, SimTime};
use hypatia_viz::util_viz::{isl_utilization_map, summarize};

/// The multipath traffic-engineering study as a registered experiment.
pub struct ExtMultipathTe;

impl Experiment for ExtMultipathTe {
    fn name(&self) -> &'static str {
        "ext_multipath_te"
    }

    fn label(&self) -> Option<&'static str> {
        Some("Extension")
    }

    fn title(&self) -> &'static str {
        "Loop-free multipath vs single-path TE (Kuiper K1)"
    }

    fn spec(&self, full: bool) -> ExperimentSpec {
        let (cities, secs) = if full { (100, 200) } else { (30, 60) };
        let mut spec = ExperimentSpec {
            experiment: self.name().to_string(),
            constellation: ConstellationChoice::KuiperK1,
            ground: GroundSegment::TopCities(cities),
            pairs: PairSelection::Named(vec![("Tokyo".to_string(), "Sao Paulo".to_string())]),
            duration: SimDuration::from_secs(secs),
            line_rate: DataRate::from_mbps(10),
            utilization_bucket: Some(SimDuration::from_secs(1)),
            ..ExperimentSpec::default()
        };
        spec.params.insert("multipath_stretch".to_string(), ParamValue::Num(1.2));
        spec
    }

    fn run(&self, ctx: &mut RunContext) -> Result<(), RunError> {
        let duration = ctx.spec.duration;
        let seed = ctx.spec.seed;
        let stretch = ctx.spec.num("multipath_stretch").unwrap_or(1.2);
        let snapshot_sec = (duration.secs_f64() as u64).saturating_sub(10);
        let observed = first_pair(&ctx.spec)?;
        let scenario = ctx.scenario();
        let driver = ctx.driver();

        println!(
            "{:<22} {:>10} {:>12} {:>12} {:>14}",
            "forwarding", "goodput", "mean util", "links >90%", "active links"
        );
        let mut rows = Vec::new();
        for (label, stretch) in
            [("single shortest path", None), ("multipath (1.2x)", Some(stretch))]
        {
            eprintln!("  running {label}...");
            let r = run(
                &scenario,
                &observed.0,
                &observed.1,
                &CrossTrafficConfig { duration, seed, frozen: false, multipath_stretch: stretch },
                &driver,
            )?;
            r.run.record(&mut ctx.sink);
            let map = isl_utilization_map(
                &r.sim,
                snapshot_sec as usize,
                SimTime::from_secs(snapshot_sec),
            );
            let s = summarize(&map);
            let hot = map.iter().filter(|l| l.utilization > 0.9).count();
            println!(
                "{:<22} {:>7.1}Mb {:>12.4} {:>12} {:>14}",
                label, r.total_goodput_mbps, s.mean, hot, s.active_links
            );
            rows.push((label, r.total_goodput_mbps, hot, s.active_links));
        }

        println!();
        let (sp, mp) = (&rows[0], &rows[1]);
        println!(
            "multipath spreads load over {} vs {} links and changes >90%-utilized links {} -> {}",
            mp.3, sp.3, sp.2, mp.2
        );
        println!(
            "goodput: {:.1} -> {:.1} Mbit/s ({})",
            sp.1,
            mp.1,
            if mp.1 >= sp.1 * 0.95 { "no tax" } else { "note: stretch costs some goodput" }
        );
        println!("Takeaway: downhill alternates add loop-free capacity exactly where");
        println!("the paper's Fig. 15 shows shortest-path concentration.");
        Ok(())
    }
}
