//! Fig. 2 — simulator scalability: slowdown vs network-wide goodput.
//!
//! Paper setup: Kuiper K1, 100 most populous cities, random-permutation
//! traffic, TCP and UDP, line rates swept from 1 Mbit/s to 10 Gbit/s, on
//! one core. We report the same series; absolute slowdown depends on the
//! host CPU, the shape (slowdown ∝ goodput; TCP ≈ 2× UDP) is the result.

use super::flow_table;
use crate::experiments::scalability::{drive_point, FlowTable, Workload};
use crate::runner::{About, Experiment, RunContext, RunError};
use crate::scenario::ConstellationChoice;
use crate::spec::{ExperimentSpec, GroundSegment, PairSelection, ParamValue};
use hypatia_util::{DataRate, SimDuration};

/// Fig. 2 as a registered experiment.
pub struct Fig02;

impl Experiment for Fig02 {
    fn about(&self) -> About {
        About {
            name: "fig02_scalability",
            label: Some("Fig. 2"),
            title: "Scalability: slowdown vs goodput (TCP and UDP)",
            knobs: "duration_s step_ms queue_packets seed constellation ground",
            faults: true,
        }
    }

    fn defaults(&self, full: bool) -> ExperimentSpec {
        let mut spec = ExperimentSpec {
            constellation: ConstellationChoice::KuiperK1,
            ground: GroundSegment::TopCities(if full { 100 } else { 30 }),
            pairs: PairSelection::Permutation,
            duration: SimDuration::from_secs(1),
            seed: 2020,
            ..ExperimentSpec::default()
        };
        let rates = if full {
            vec![1.0, 10.0, 25.0, 100.0, 250.0, 1000.0, 10000.0]
        } else {
            vec![1.0, 10.0, 25.0]
        };
        spec.params.insert("line_rates_mbps".to_string(), ParamValue::List(rates));
        // `--set slowdown=false` drops the wall-clock slowdown artifacts,
        // leaving only outputs that are identical at every thread count
        // (for golden-manifest tests).
        spec.params.insert("slowdown".to_string(), ParamValue::Flag(true));
        // `--set flow_table=arena` switches per-flow apps to arena tables;
        // artifacts are byte-identical either way.
        spec.params
            .insert("flow_table".to_string(), ParamValue::Text(FlowTable::Apps.name().to_string()));
        spec
    }

    fn run(&self, ctx: &mut RunContext) -> Result<(), RunError> {
        // A bare number is a one-point sweep; a rate below one bit per
        // second rounds to zero.
        let rates_mbps = ctx.spec.list_in("line_rates_mbps", 1e-6..)?;
        let rates: Vec<DataRate> =
            rates_mbps.iter().map(|&m| DataRate::from_bps((m * 1e6).round() as u64)).collect();
        let duration = ctx.spec.duration;
        let seed = ctx.spec.seed;
        let with_slowdown = ctx.spec.flag("slowdown")?;
        let flow_table = flow_table(&ctx.spec)?;
        let scenario = ctx.scenario();
        let driver = ctx.driver();

        println!(
            "{:<9} {:>12} {:>16} {:>14} {:>14}",
            "workload", "line rate", "goodput (Gbps)", "slowdown (x)", "events"
        );
        for workload in [Workload::Udp, Workload::Tcp] {
            let mut points = Vec::new();
            for &rate in &rates {
                let p =
                    drive_point(&scenario, workload, flow_table, rate, duration, seed, &driver)?;
                println!(
                    "{:<9} {:>12} {:>16.4} {:>14.1} {:>14}",
                    p.workload.name(),
                    format!("{}", p.line_rate),
                    p.goodput_gbps,
                    p.slowdown,
                    p.events
                );
                p.run.record(&mut ctx.sink);
                points.push(p);
            }
            let series: Vec<(f64, f64)> =
                points.iter().map(|p| (p.goodput_gbps, p.slowdown)).collect();
            if with_slowdown {
                ctx.sink.write_series(
                    &format!("fig02_slowdown_{}.dat", workload.name().to_lowercase()),
                    "goodput_gbps slowdown",
                    &series,
                )?;
            }
            // Event counts are pure simulation observables — deterministic
            // for any queue implementation and thread count, unlike the
            // wall-clock slowdown series.
            let events_series: Vec<(f64, f64)> =
                points.iter().map(|p| (p.goodput_gbps, p.events as f64)).collect();
            ctx.sink.write_series(
                &format!("fig02_events_{}.dat", workload.name().to_lowercase()),
                "goodput_gbps events",
                &events_series,
            )?;
            // The paper's key observation: slowdown grows with goodput.
            if points.len() >= 2 {
                let first = &points[0];
                let last = &points[points.len() - 1];
                println!(
                    "  -> {}: goodput x{:.1} => slowdown x{:.1}",
                    workload.name(),
                    last.goodput_gbps / first.goodput_gbps,
                    last.slowdown / first.slowdown
                );
            }
        }
        Ok(())
    }
}
