//! Figs. 14 & 15 — link-utilization visualization under cross-traffic.
//!
//! Fig. 14: utilization along one pair's path (Chicago → Zhengzhou) at two
//! instants, showing congestion shifting even with static input traffic.
//! Fig. 15: the constellation-wide utilization map with its hotspots (the
//! paper highlights the trans-Atlantic corridor).

use super::first_pair;
use crate::experiments::cross_traffic::{run, CrossTrafficConfig};
use crate::runner::{Experiment, RunContext, RunError};
use crate::scenario::ConstellationChoice;
use crate::spec::{ExperimentSpec, GroundSegment, PairSelection, ParamValue};
use hypatia_routing::forwarding::compute_forwarding_state;
use hypatia_util::{DataRate, SimDuration, SimTime};
use hypatia_viz::util_viz::{
    isl_utilization_map, mean_utilization_in_lon_band, summarize, to_json, top_hotspots,
};

/// Figs. 14/15 as one registered experiment.
#[allow(non_camel_case_types)]
pub struct Fig14_15;

impl Experiment for Fig14_15 {
    fn name(&self) -> &'static str {
        "fig14_15_utilization"
    }

    fn label(&self) -> Option<&'static str> {
        Some("Figs. 14/15")
    }

    fn title(&self) -> &'static str {
        "Congestion shifts and constellation-wide utilization"
    }

    fn spec(&self, full: bool) -> ExperimentSpec {
        // Chicago–Zhengzhou (the paper's pair) needs the full city set; the
        // reduced run observes a transatlantic pair from the top 30.
        let (cities, secs, snapshots, observed) = if full {
            (100, 200, (10.0, 150.0), ("Chicago", "Zhengzhou"))
        } else {
            (30, 60, (10.0, 50.0), ("New York", "Moscow"))
        };
        let mut spec = ExperimentSpec {
            experiment: self.name().to_string(),
            constellation: ConstellationChoice::KuiperK1,
            ground: GroundSegment::TopCities(cities),
            pairs: PairSelection::Named(vec![(observed.0.to_string(), observed.1.to_string())]),
            duration: SimDuration::from_secs(secs),
            line_rate: DataRate::from_mbps(10),
            utilization_bucket: Some(SimDuration::from_secs(1)),
            ..ExperimentSpec::default()
        };
        spec.params.insert("snapshot_early_s".to_string(), ParamValue::Num(snapshots.0));
        spec.params.insert("snapshot_late_s".to_string(), ParamValue::Num(snapshots.1));
        spec
    }

    fn run(&self, ctx: &mut RunContext) -> Result<(), RunError> {
        let duration = ctx.spec.duration;
        let seed = ctx.spec.seed;
        let snapshots = (
            ctx.spec.num("snapshot_early_s").unwrap_or(10.0) as u64,
            ctx.spec.num("snapshot_late_s").unwrap_or(duration.secs_f64() as u64 as f64 - 10.0)
                as u64,
        );
        let observed = first_pair(&ctx.spec)?;
        let scenario = ctx.scenario();

        println!("observed pair: {} -> {}", observed.0, observed.1);
        let r = run(
            &scenario,
            &observed.0,
            &observed.1,
            &CrossTrafficConfig { duration, seed, frozen: false, multipath_stretch: None },
            &ctx.driver(),
        )?;
        r.run.record(&mut ctx.sink);
        println!("flows: {}, total goodput {:.1} Mbps", r.flows, r.total_goodput_mbps);

        // Fig. 14: the observed path's per-link utilization at two instants.
        let src = scenario.gs_by_name(&observed.0)?;
        let dst = scenario.gs_by_name(&observed.1)?;
        for sec in [snapshots.0, snapshots.1] {
            let t = SimTime::from_secs(sec);
            let state = compute_forwarding_state(&scenario.constellation, t, &[dst]);
            match state.path(src, dst) {
                Some(path) => {
                    print!("t={sec:>4}s path utilization per hop:");
                    let mut utils = Vec::new();
                    for w in path.windows(2) {
                        let node = r.sim.node(w[0]);
                        let dev = node.device_for(w[1]).expect("device");
                        let u = node.devices[dev].utilization(sec as usize).unwrap_or(0.0);
                        utils.push((w[0].0 as f64, u));
                        print!(" {u:.2}");
                    }
                    println!();
                    ctx.sink.write_series(
                        &format!("fig14_path_util_t{sec}.dat"),
                        "hop_node utilization",
                        &utils,
                    )?;
                }
                None => println!("t={sec}s: pair disconnected"),
            }
        }

        // Fig. 15: global map + hotspots at the late snapshot.
        let t = SimTime::from_secs(snapshots.1);
        let map = isl_utilization_map(&r.sim, snapshots.1 as usize, t);
        let summary = summarize(&map);
        println!();
        println!(
            "global ISL utilization: {} directed links, {} active, mean {:.3}, max {:.2}",
            summary.links, summary.active_links, summary.mean, summary.max
        );
        ctx.sink.write_json("fig15_utilization_map.json", &to_json(&map))?;

        println!("top hotspots (sat -> sat @ lat/lon, utilization):");
        for h in top_hotspots(&map, 10) {
            println!(
                "  {:>5} -> {:<5} @ ({:>6.1}, {:>7.1})  {:.2}",
                h.from_sat, h.to_sat, h.from_lat_lon.0, h.from_lat_lon.1, h.utilization
            );
        }

        // The paper's trans-Atlantic observation, quantified: mean utilization
        // over the Atlantic longitude band vs the Pacific one.
        let atlantic = mean_utilization_in_lon_band(&map, -60.0, 0.0).unwrap_or(0.0);
        let pacific = mean_utilization_in_lon_band(&map, 160.0, 180.0).unwrap_or(0.0);
        println!();
        println!(
            "mean utilization — Atlantic band (60W..0): {atlantic:.3}, \
             Pacific band (160E..180): {pacific:.3} -> Atlantic hotter: {}",
            if atlantic > pacific { "HOLDS" } else { "DIFFERS (check scale/params)" }
        );
        Ok(())
    }
}
