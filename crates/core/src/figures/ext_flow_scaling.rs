//! Extension study — offered-load scaling, 1k → 1M gravity flows.
//!
//! Sweeps the offered flow count under a population-gravity traffic
//! matrix and reports, per point: simulator throughput (events per
//! wall-clock second), network-wide goodput, Jain fairness over per-flow
//! delivered bytes, steady-state flow-table bytes per flow, and — where
//! the platform reports it — peak RSS. The flow-count series is the
//! scaling result the paper's permutation workload (one flow per city,
//! Fig. 2) cannot produce; `scripts/bench_flows.sh` runs each point in
//! its own process so the RSS column is per-point rather than a running
//! maximum.
//!
//! Spec knobs: `--set flows=N` pins a single point (replacing the
//! `flow_counts` list), `--set trace_sample_every=K` keeps packet
//! tracing affordable by recording only every K-th flow (a manifest
//! warning flags the partial trace), and `--set flow_rate_kbps=R` paces
//! each flow.

use crate::experiments::flow_scaling::run_flow_point;
use crate::experiments::scalability::FlowTable;
use crate::runner::{Experiment, RunContext, RunError};
use crate::scenario::ConstellationChoice;
use crate::spec::{ExperimentSpec, GroundSegment, ParamValue};
use hypatia_util::{DataRate, SimDuration};

/// The flow-count scaling sweep as a registered experiment.
pub struct ExtFlowScaling;

impl Experiment for ExtFlowScaling {
    fn name(&self) -> &'static str {
        "ext_flow_scaling"
    }

    fn label(&self) -> Option<&'static str> {
        Some("Extension")
    }

    fn title(&self) -> &'static str {
        "Traffic scaling: gravity matrix, 1k to 1M flows (Kuiper K1)"
    }

    fn spec(&self, full: bool) -> ExperimentSpec {
        let mut spec = ExperimentSpec {
            experiment: self.name().to_string(),
            constellation: ConstellationChoice::KuiperK1,
            ground: GroundSegment::TopCities(if full { 100 } else { 20 }),
            duration: SimDuration::from_secs(if full { 2 } else { 1 }),
            seed: 2020,
            ..ExperimentSpec::default()
        };
        spec.params.insert(
            "flow_counts".to_string(),
            ParamValue::List(if full {
                vec![1_000.0, 10_000.0, 100_000.0, 1_000_000.0]
            } else {
                vec![1_000.0, 4_000.0, 10_000.0]
            }),
        );
        // Per-flow pacing: 16 kbps keeps a million flows within one
        // machine's event budget while every flow still sends.
        spec.params.insert("flow_rate_kbps".to_string(), ParamValue::Num(16.0));
        // `--set flow_table=apps` switches to one boxed application per
        // flow (the seed layout); artifacts are byte-identical either
        // way, but the apps layout caps at 20k flows per node.
        spec.params.insert(
            "flow_table".to_string(),
            ParamValue::Text(FlowTable::Arena.name().to_string()),
        );
        // `--set perf_series=false` drops the wall-clock artifacts
        // (events/sec, peak RSS) and the manifest's `perf.engine.queue`
        // block, leaving only outputs that are identical under every
        // engine — the determinism gate in scripts/check.sh relies on this.
        spec.params.insert("perf_series".to_string(), ParamValue::Flag(true));
        spec
    }

    fn run(&self, ctx: &mut RunContext) -> Result<(), RunError> {
        // `--set flows=N` pins a single sweep point; otherwise the
        // `flow_counts` list drives the sweep (a bare number is accepted).
        let counts: Vec<u64> = match ctx.spec.flows {
            Some(n) => vec![n],
            None => match (ctx.spec.list("flow_counts"), ctx.spec.num("flow_counts")) {
                (Some(v), _) => v.iter().map(|&x| x.round() as u64).collect(),
                (None, Some(x)) => vec![x.round() as u64],
                (None, None) => vec![1_000, 4_000, 10_000],
            },
        };
        if let Some(&bad) = counts.iter().find(|&&n| n == 0) {
            return Err(RunError::BadSpec(format!("flow_counts must be positive, got {bad}")));
        }
        let rate_kbps = ctx.spec.num("flow_rate_kbps").unwrap_or(16.0);
        if !rate_kbps.is_finite() || rate_kbps <= 0.0 {
            return Err(RunError::BadSpec(format!(
                "flow_rate_kbps must be positive, got {rate_kbps}"
            )));
        }
        let per_flow_rate = DataRate::from_bps((rate_kbps * 1e3).round() as u64);
        let flow_table = match ctx.spec.text("flow_table") {
            None => FlowTable::Arena,
            Some(s) => FlowTable::parse(s)
                .ok_or_else(|| RunError::BadSpec(format!("unknown flow table {s:?}")))?,
        };
        let with_perf_series = ctx.spec.flag("perf_series").unwrap_or(true);
        let duration = ctx.spec.duration;
        let seed = ctx.spec.seed;
        if ctx.spec.trace_sample_every > 1 {
            ctx.sink.warn(format!(
                "trace sampling active (1 in {} flows): packet traces are partial",
                ctx.spec.trace_sample_every
            ));
        }
        let scenario = ctx.scenario();

        println!(
            "{:>10} {:>14} {:>16} {:>8} {:>14} {:>12}",
            "flows", "events/sec", "goodput (Gbps)", "jain", "bytes/flow", "peak RSS"
        );
        let mut events_per_sec = Vec::new();
        let mut goodput = Vec::new();
        let mut jain = Vec::new();
        let mut bytes_per_flow = Vec::new();
        let mut peak_rss = Vec::new();
        for &flows in &counts {
            let p = run_flow_point(&scenario, flows, flow_table, per_flow_rate, duration, seed);
            println!(
                "{:>10} {:>14.0} {:>16.6} {:>8.4} {:>14.1} {:>12}",
                p.flows,
                p.events_per_sec,
                p.goodput_gbps,
                p.jain,
                p.bytes_per_flow,
                p.peak_rss_bytes.map_or_else(|| "-".to_string(), |b| format!("{} MB", b >> 20)),
            );
            ctx.sink.record_sim(p.events, p.wall_s);
            ctx.sink.record_engine(&p.engine);
            if with_perf_series {
                ctx.sink.record_queue(&p.engine.queue);
            }
            let x = p.flows as f64;
            events_per_sec.push((x, p.events_per_sec));
            goodput.push((x, p.goodput_gbps));
            jain.push((x, p.jain));
            bytes_per_flow.push((x, p.bytes_per_flow));
            if let Some(b) = p.peak_rss_bytes {
                peak_rss.push((x, b as f64 / (1 << 20) as f64));
            }
        }

        if with_perf_series {
            ctx.sink.write_series(
                "ext_flow_scaling_events_per_sec.dat",
                "flows events_per_sec",
                &events_per_sec,
            )?;
            if !peak_rss.is_empty() {
                // In-process running maximum; per-point numbers come from
                // `bench_flows`, which forks one process per point.
                ctx.sink.write_series(
                    "ext_flow_scaling_peak_rss_mb.dat",
                    "flows peak_rss_mb",
                    &peak_rss,
                )?;
            }
        }
        ctx.sink.write_series("ext_flow_scaling_goodput.dat", "flows goodput_gbps", &goodput)?;
        ctx.sink.write_series("ext_flow_scaling_jain.dat", "flows jain_index", &jain)?;
        ctx.sink.write_series(
            "ext_flow_scaling_bytes_per_flow.dat",
            "flows bytes_per_flow",
            &bytes_per_flow,
        )?;

        println!();
        println!("Takeaway: arena flow tables hold endpoint state near 32 B/flow,");
        println!("so the event loop — not memory — is what a million flows stress;");
        println!("gravity skew concentrates load on big metros and drags Jain");
        println!("fairness down as the flow count grows.");
        Ok(())
    }
}
