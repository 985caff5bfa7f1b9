//! Extension study — path diversity for multi-path routing / TE.
//!
//! The paper's §5.4 takeaway: traffic could be shifted away from links
//! about to become bottlenecks, and §6 points at "substantial value in
//! using non-shortest path and multi-path routing" across hot regions.
//! This study quantifies the raw material for that: how close are the
//! K shortest alternates to the shortest path, and how disjoint are they?

use crate::runner::{About, Experiment, RunContext, RunError};
use crate::scenario::ConstellationChoice;
use crate::spec::{ExperimentSpec, GroundSegment, PairSelection, ParamValue};
use hypatia_routing::graph::DelayGraph;
use hypatia_routing::ksp::k_shortest_paths;
use hypatia_util::SimTime;
use hypatia_viz::csv::{ecdf, percentile};

/// The K-shortest-path diversity study as a registered experiment.
pub struct ExtMultipathDiversity;

impl Experiment for ExtMultipathDiversity {
    fn about(&self) -> About {
        About {
            name: "ext_multipath_diversity",
            label: Some("Extension"),
            title: "K-shortest-path diversity on Kuiper K1",
            knobs: "constellation ground pairs",
            faults: false,
        }
    }

    fn defaults(&self, full: bool) -> ExperimentSpec {
        let (cities, k, instants) = if full { (40, 8.0, 5.0) } else { (15, 4.0, 2.0) };
        let mut spec = ExperimentSpec {
            constellation: ConstellationChoice::KuiperK1,
            ground: GroundSegment::TopCities(cities),
            pairs: PairSelection::MinDistance { km: 2000.0 },
            ..ExperimentSpec::default()
        };
        spec.params.insert("k".to_string(), ParamValue::Num(k));
        spec.params.insert("instants".to_string(), ParamValue::Num(instants));
        spec
    }

    fn run(&self, ctx: &mut RunContext) -> Result<(), RunError> {
        let k = ctx.spec.whole("k", 2)? as usize;
        let instants = ctx.spec.whole("instants", 1)?;
        let min_km = ctx.spec.min_pair_distance_km()?;
        let scenario = ctx.scenario();
        let c = &*scenario.constellation;
        let cities = c.num_ground_stations();

        let mut stretch_2nd = Vec::new(); // delay(2nd)/delay(1st)
        let mut stretch_kth = Vec::new(); // delay(kth)/delay(1st)
        let mut disjointness = Vec::new(); // fraction of 2nd path's satellites not on 1st

        for inst in 0..instants {
            let t = SimTime::from_secs(u64::from(inst) * 40);
            let graph = DelayGraph::snapshot(c, t);
            for i in 0..cities {
                for j in (i + 1)..cities {
                    if c.ground_stations[i].distance_km(&c.ground_stations[j]) < min_km {
                        continue; // long routes are where TE matters
                    }
                    let paths = k_shortest_paths(&graph, c.gs_node(i).0, c.gs_node(j).0, k);
                    if paths.len() < 2 {
                        continue;
                    }
                    let d0 = paths[0].delay_ns as f64;
                    stretch_2nd.push(paths[1].delay_ns as f64 / d0);
                    stretch_kth.push(paths.last().expect("non-empty").delay_ns as f64 / d0);
                    let first: std::collections::HashSet<u32> =
                        paths[0].nodes.iter().copied().collect();
                    let alt = &paths[1].nodes;
                    let interior = &alt[1..alt.len() - 1];
                    let fresh = interior.iter().filter(|n| !first.contains(n)).count() as f64;
                    disjointness.push(fresh / interior.len().max(1) as f64);
                }
            }
        }

        let med = |v: &[f64]| percentile(v, 50.0).unwrap_or(f64::NAN);
        println!("pairs × instants analysed: {}", stretch_2nd.len());
        println!("median delay stretch of 2nd-best path : {:.4}", med(&stretch_2nd));
        println!("median delay stretch of {k}th-best path: {:.4}", med(&stretch_kth));
        println!("median node-disjointness of 2nd path  : {:.2}", med(&disjointness));
        ctx.sink.write_series(
            "ext_multipath_stretch2_ecdf.dat",
            "stretch ecdf",
            &ecdf(&stretch_2nd),
        )?;
        ctx.sink.write_series(
            "ext_multipath_stretchk_ecdf.dat",
            "stretch ecdf",
            &ecdf(&stretch_kth),
        )?;
        ctx.sink.write_series(
            "ext_multipath_disjoint_ecdf.dat",
            "fraction ecdf",
            &ecdf(&disjointness),
        )?;

        println!();
        if med(&stretch_2nd) < 1.05 {
            println!("Alternate paths cost <5% extra delay in the median: the +Grid");
            println!("mesh offers near-equal-cost multipath — the TE headroom the");
            println!("paper's Fig. 15 hotspots call for.");
        } else {
            println!("Alternate paths carry a noticeable delay penalty at this scale.");
        }
        Ok(())
    }
}
