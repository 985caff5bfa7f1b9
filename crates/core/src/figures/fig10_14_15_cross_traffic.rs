//! Figs. 10, 14, 15 and the multipath TE study — one cross-traffic
//! workload on Kuiper K1, simulated three times.
//!
//! The paper's §5.4 workload: long-running TCP flows between a permutation
//! of the ground stations over 10 Mbit/s links, utilization in 1 s buckets.
//! Fig. 10 observes the spec's first pair, Fig. 14 its last; both ride in
//! one matrix. The three simulations:
//!
//! - **frozen** at t = 0: Fig. 10's static baseline;
//! - **dynamic**, single shortest path: Fig. 10's moving network, Fig. 14's
//!   per-hop utilization at two instants, Fig. 15's constellation-wide map
//!   at the later one, and the TE study's baseline row;
//! - **multipath** (downhill alternates, `multipath_stretch`): the TE
//!   study's other row, mapped at the same instant.
//!
//! Expected shapes: path changes shift the cross-traffic mix and leave
//! capacity unused (paper: more than 1/3 of capacity unused 31% of the
//! time, vs 11% if frozen at t = 0); congestion shifts along one path even
//! with static input traffic (Fig. 14); hotspots gather over the Atlantic
//! (Fig. 15). The TE study tests the paper's §5.4/§6 takeaway: do
//! loop-free alternates relieve those hotspots, and at what goodput?

use super::named_pairs;
use crate::experiments::cross_traffic::{fraction_time_unused_above, run, CrossTrafficResult};
use crate::runner::{About, Experiment, RunContext, RunError};
use crate::scenario::ConstellationChoice;
use crate::spec::{ExperimentSpec, GroundSegment, PairSelection, ParamValue};
use hypatia_routing::forwarding::compute_forwarding_state;
use hypatia_util::{DataRate, SimDuration, SimTime};
use hypatia_viz::util_viz::{
    isl_utilization_map, mean_utilization_in_lon_band, summarize, to_json, top_hotspots,
    IslUtilization,
};
use std::fmt::Write as _;

/// Figs. 10, 14, 15 and the TE study as one registered experiment.
#[allow(non_camel_case_types)]
pub struct Fig10_14_15;

/// Fig. 10's check: the moving network leaves capacity unused for
/// strictly more of the time than the frozen one.
fn fig10_check(dynamic: f64, frozen: f64) -> String {
    format!(
        "Paper's qualitative check: dynamic ({:.1}%) > frozen ({:.1}%) — {}",
        dynamic * 100.0,
        frozen * 100.0,
        if dynamic > frozen { "HOLDS" } else { "DIFFERS (check scale/params)" }
    )
}

/// The TE study's check: multipath leaves strictly fewer >90%-utilized
/// links than the single shortest path.
fn te_check(single: usize, multipath: usize) -> String {
    format!(
        "Paper's §5.4/§6 takeaway, >90%-utilized links: multipath ({multipath}) < single path \
         ({single}) — {}",
        if multipath < single { "HOLDS" } else { "DIFFERS (check scale/params)" }
    )
}

/// Append one TE table row to `table`: goodput, mean utilization,
/// >90%-utilized and active links of `map`.
fn te_row(
    table: &mut String,
    label: &str,
    r: &CrossTrafficResult,
    map: &[IslUtilization],
) -> (f64, usize, usize) {
    let s = summarize(map);
    let hot = map.iter().filter(|l| l.utilization > 0.9).count();
    let _ = writeln!(
        table,
        "{label:<22} {:>7.1}Mb {:>12.4} {:>12} {:>14}",
        r.total_goodput_mbps, s.mean, hot, s.active_links
    );
    (r.total_goodput_mbps, hot, s.active_links)
}

impl Experiment for Fig10_14_15 {
    fn about(&self) -> About {
        About {
            name: "fig10_14_15_cross_traffic",
            label: Some("Figs. 10/14/15"),
            title: "Cross-traffic on Kuiper K1: unused bandwidth, utilization, multipath TE",
            knobs: "duration_s step_ms line_rate_mbps queue_packets utilization_bucket_s seed constellation ground pairs",
            faults: true,
        }
    }

    fn defaults(&self, full: bool) -> ExperimentSpec {
        // The paper's pairs need the full city set. The reduced run takes
        // two disjoint pairs from the top 30: Rio–Moscow is a long, churning
        // route that stays connected (unlike St. Petersburg), so Fig. 10's
        // series has no gaps.
        let (cities, secs, late, pairs) = if full {
            (100, 200, 150.0, [("Rio de Janeiro", "Saint Petersburg"), ("Chicago", "Zhengzhou")])
        } else {
            (30, 100, 50.0, [("Rio de Janeiro", "Moscow"), ("New York", "Paris")])
        };
        let mut spec = ExperimentSpec {
            constellation: ConstellationChoice::KuiperK1,
            ground: GroundSegment::TopCities(cities),
            pairs: PairSelection::Named(
                pairs.iter().map(|&(s, d)| (s.to_string(), d.to_string())).collect(),
            ),
            duration: SimDuration::from_secs(secs),
            line_rate: DataRate::from_mbps(10),
            utilization_bucket: Some(SimDuration::from_secs(1)),
            ..ExperimentSpec::default()
        };
        for (key, x) in
            [("snapshot_early_s", 10.0), ("snapshot_late_s", late), ("multipath_stretch", 1.2)]
        {
            spec.params.insert(key.to_string(), ParamValue::Num(x));
        }
        spec
    }

    fn run(&self, ctx: &mut RunContext) -> Result<(), RunError> {
        let (duration, seed) = (ctx.spec.duration, ctx.spec.seed);
        let pairs = named_pairs(&ctx.spec)?;
        if pairs.len() > 2 {
            return Err(RunError::BadSpec(format!(
                "{} observes one or two pairs (Fig. 10 the first, Fig. 14 the last), got {}",
                self.name(),
                pairs.len()
            )));
        }
        let secs = duration.secs_f64();
        let instant = |key: &str| ctx.spec.num_in(key, 0.0..secs).map(|s| s as u64);
        let snapshots = [instant("snapshot_early_s")?, instant("snapshot_late_s")?];
        // The utilization bucket holding each snapshot instant.
        let bucket = ctx.spec.utilization_bucket.ok_or_else(|| {
            RunError::BadSpec(format!("{} needs utilization_bucket_s", self.name()))
        })?;
        let bucket_of = |sec: u64| (SimDuration::from_secs(sec) / bucket) as usize;
        let stretch = ctx.spec.num_in("multipath_stretch", 1.0..)?;
        let (fig10, fig14) = (&pairs[0], &pairs[pairs.len() - 1]);
        let scenario = ctx.scenario();
        let driver = ctx.driver();
        let cap_mbps = ctx.spec.line_rate.mbps_f64();
        let simulate = |frozen, multipath_stretch| {
            run(&scenario, &pairs, duration, seed, frozen, multipath_stretch, &driver)
        };

        // Fig. 10: the first pair's unused bandwidth, frozen then dynamic.
        println!("== Fig. 10: unused bandwidth, {} -> {}", fig10.0, fig10.1);
        let (src, dst) = (scenario.gs_by_name(&fig10.0)?, scenario.gs_by_name(&fig10.1)?);
        let mut fig10_leg = |frozen, label: &str| {
            let r = simulate(frozen, None)?;
            r.run.record(&mut ctx.sink);
            let series = r.unused_bandwidth(&scenario, src, dst);
            let frac = fraction_time_unused_above(&series, cap_mbps, 1.0 / 3.0);
            println!(
                "{label:<12}: flows={:<4} total goodput {:>7.1} Mbps, \
                 time with >1/3 capacity unused: {:>5.1}%",
                r.flows,
                r.total_goodput_mbps,
                frac * 100.0
            );
            let network = if frozen { "frozen" } else { "dynamic" };
            let name = format!("fig10_unused_{network}.dat");
            ctx.sink.write_series(&name, "t_s unused_mbps", &series)?;
            Ok::<_, RunError>((r, frac))
        };
        let (_, frozen) = fig10_leg(true, "frozen(t=0)")?;
        let (r, dynamic) = fig10_leg(false, "dynamic")?;
        println!("{}", fig10_check(dynamic, frozen));

        // Fig. 14: the last pair's per-hop utilization at two instants.
        println!();
        println!("== Figs. 14/15: utilization, {} -> {}", fig14.0, fig14.1);
        let (src, dst) = (scenario.gs_by_name(&fig14.0)?, scenario.gs_by_name(&fig14.1)?);
        for sec in snapshots {
            let state =
                compute_forwarding_state(&scenario.constellation, SimTime::from_secs(sec), &[dst]);
            let Some(path) = state.path(src, dst) else {
                println!("t={sec}s: pair disconnected");
                continue;
            };
            print!("t={sec:>4}s path utilization per hop:");
            let mut utils = Vec::new();
            for w in path.windows(2) {
                let u = r.sim.hop_device(w[0], w[1]).utilization(bucket_of(sec)).unwrap_or(0.0);
                utils.push((w[0].0 as f64, u));
                print!(" {u:.2}");
            }
            println!();
            let name = format!("fig14_path_util_t{sec}.dat");
            ctx.sink.write_series(&name, "hop_node utilization", &utils)?;
        }

        // Fig. 15: the global map and its hotspots at the late instant.
        let late = snapshots[1];
        let map = isl_utilization_map(&r.sim, bucket_of(late), SimTime::from_secs(late));
        let summary = summarize(&map);
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
        // The paper's trans-Atlantic observation, quantified: mean
        // utilization over the Atlantic longitude band vs the Pacific one.
        let atlantic = mean_utilization_in_lon_band(&map, -60.0, 0.0).unwrap_or(0.0);
        let pacific = mean_utilization_in_lon_band(&map, 160.0, 180.0).unwrap_or(0.0);
        println!(
            "mean utilization — Atlantic band (60W..0): {atlantic:.3}, \
             Pacific band (160E..180): {pacific:.3} -> Atlantic hotter: {}",
            if atlantic > pacific { "HOLDS" } else { "DIFFERS (check scale/params)" }
        );

        // The TE study: the dynamic run against multipath, mapped at t = late.
        println!();
        println!("== Multipath TE: single shortest path vs downhill alternates at t={late}s");
        let mut table = format!(
            "{:<22} {:>10} {:>12} {:>12} {:>14}\n",
            "forwarding", "goodput", "mean util", "links >90%", "active links"
        );
        let sp = te_row(&mut table, "single shortest path", &r, &map);
        drop((r, map));
        let mp_label = format!("multipath ({stretch}x)");
        let mp = simulate(false, Some(stretch))?;
        mp.run.record(&mut ctx.sink);
        let mp_map = isl_utilization_map(&mp.sim, bucket_of(late), SimTime::from_secs(late));
        let mp = te_row(&mut table, &mp_label, &mp, &mp_map);
        print!("{table}");
        ctx.sink.write_text("ext_multipath_te.txt", &table)?;
        println!(
            "multipath spreads load over {} vs {} links and changes >90%-utilized links {} -> {}",
            mp.2, sp.2, sp.1, mp.1
        );
        println!(
            "goodput: {:.1} -> {:.1} Mbit/s ({})",
            sp.0,
            mp.0,
            if mp.0 >= sp.0 * 0.95 { "no tax" } else { "note: stretch costs some goodput" }
        );
        println!("{}", te_check(sp.1, mp.1));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_check_holds_only_on_a_strict_gain() {
        assert!(fig10_check(0.5, 0.5).ends_with("— DIFFERS (check scale/params)"));
        assert!(fig10_check(0.4, 0.5).ends_with("DIFFERS (check scale/params)"));
        assert_eq!(
            fig10_check(0.31, 0.11),
            "Paper's qualitative check: dynamic (31.0%) > frozen (11.0%) — HOLDS"
        );
    }

    #[test]
    fn te_check_holds_only_on_fewer_hot_links() {
        assert_eq!(
            te_check(74, 75),
            "Paper's §5.4/§6 takeaway, >90%-utilized links: multipath (75) < single path (74) \
             — DIFFERS (check scale/params)"
        );
        assert!(te_check(74, 74).ends_with("DIFFERS (check scale/params)"));
        assert!(te_check(128, 93).ends_with("— HOLDS"));
    }
}
