//! Fig. 2 — simulator scalability: slowdown vs network-wide goodput.
//!
//! Paper setup: Kuiper K1, 100 most populous cities, random-permutation
//! traffic, TCP and UDP, line rates swept from 1 Mbit/s to 10 Gbit/s, on
//! one core. We report the same series; absolute slowdown depends on the
//! host CPU, the shape (slowdown ∝ goodput; TCP ≈ 2× UDP) is the result.

use crate::experiments::scalability::{sweep_with, FlowTable, Workload};
use crate::runner::{Experiment, RunContext, RunError};
use crate::scenario::ConstellationChoice;
use crate::spec::{ExperimentSpec, GroundSegment, PairSelection, ParamValue};
use hypatia_util::{DataRate, SimDuration};

/// Fig. 2 as a registered experiment.
pub struct Fig02;

impl Experiment for Fig02 {
    fn name(&self) -> &'static str {
        "fig02_scalability"
    }

    fn label(&self) -> Option<&'static str> {
        Some("Fig. 2")
    }

    fn title(&self) -> &'static str {
        "Scalability: slowdown vs goodput (TCP and UDP)"
    }

    fn spec(&self, full: bool) -> ExperimentSpec {
        let mut spec = ExperimentSpec {
            experiment: self.name().to_string(),
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
        // `--set slowdown=false` drops the wall-clock slowdown artifacts
        // and the manifest's shard-count-dependent `perf.engine.queue`
        // block, leaving only outputs that are identical at every shard
        // and thread count (for golden-manifest tests).
        spec.params.insert("slowdown".to_string(), ParamValue::Flag(true));
        // `--set flow_table=arena` switches per-flow apps to arena tables;
        // artifacts are byte-identical either way.
        spec.params
            .insert("flow_table".to_string(), ParamValue::Text(FlowTable::Apps.name().to_string()));
        spec
    }

    fn run(&self, ctx: &mut RunContext) -> Result<(), RunError> {
        // `--set line_rates_mbps=10` parses as a single number, a comma
        // list as a list; accept both (a bare number is a one-point sweep).
        let rates_mbps: Vec<f64> =
            match (ctx.spec.list("line_rates_mbps"), ctx.spec.num("line_rates_mbps")) {
                (Some(xs), _) => xs.to_vec(),
                (None, Some(x)) => vec![x],
                (None, None) => {
                    return Err(RunError::BadSpec(
                        "fig02_scalability needs a line_rates_mbps list".into(),
                    ))
                }
            };
        let rates: Vec<DataRate> =
            rates_mbps.iter().map(|&m| DataRate::from_bps((m * 1e6).round() as u64)).collect();
        let duration = ctx.spec.duration;
        let seed = ctx.spec.seed;
        let with_slowdown = ctx.spec.flag("slowdown").unwrap_or(true);
        let flow_table = match ctx.spec.text("flow_table") {
            None => FlowTable::Apps,
            Some(s) => FlowTable::parse(s)
                .ok_or_else(|| RunError::BadSpec(format!("unknown flow table {s:?}")))?,
        };
        let scenario = ctx.scenario();
        let drive_opts = ctx.drive_options();
        let watchdog = ctx.watchdog.clone();

        println!(
            "{:<9} {:>12} {:>16} {:>14} {:>14}",
            "workload", "line rate", "goodput (Gbps)", "slowdown (x)", "events"
        );
        for workload in [Workload::Udp, Workload::Tcp] {
            let outcomes = sweep_with(
                &scenario,
                workload,
                flow_table,
                &rates,
                duration,
                seed,
                &drive_opts,
                &watchdog,
            )?;
            let points: Vec<_> = outcomes.iter().map(|(p, _)| p.clone()).collect();
            let series: Vec<(f64, f64)> =
                points.iter().map(|p| (p.goodput_gbps, p.slowdown)).collect();
            for (p, outcome) in &outcomes {
                println!(
                    "{:<9} {:>12} {:>16.4} {:>14.1} {:>14}",
                    p.workload.name(),
                    format!("{}", p.line_rate),
                    p.goodput_gbps,
                    p.slowdown,
                    p.events
                );
                ctx.sink.record_sim(p.events, p.wall_s);
                ctx.sink.record_engine(&p.engine);
                if with_slowdown {
                    ctx.sink.record_queue(&p.engine.queue);
                }
                if let Some(last) = &outcome.last_checkpoint {
                    ctx.sink.record_checkpoints(outcome.checkpoints, last);
                }
                if outcome.audit_checks > 0 {
                    ctx.sink.record_audit(outcome.audit_checks, &outcome.violations);
                }
            }
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
