//! Extension study — packet vs fluid vs hybrid simulation of bulk flows.
//!
//! Runs the same gravity-drawn bulk workload under every [`SimMode`] the
//! spec's `sim_mode` knob names (all three by default) and reports, per
//! flow count and mode: simulator throughput (events per wall-clock
//! second), network-wide goodput (packet payload plus analytically
//! delivered fluid bytes), Jain fairness over merged per-flow bytes, and
//! the fluid solver's re-solve count. The headline artifact is the
//! events-per-second ratio: the hybrid engine processes the same offered
//! load in a small fraction of the packet engine's events while goodput
//! and fairness stay within the discretization tolerance.
//!
//! Spec knobs: `--set sim_mode=packet|fluid|hybrid` pins one mode
//! (default: compare all three), `--set flows=N` pins a single flow
//! count, `--set fluid_threshold_kbps=X` keeps flows with demand below X
//! packet-level, and `--set flow_rate_kbps=R` paces each flow.

use crate::experiments::hybrid::run_hybrid_point;
use crate::runner::{Experiment, RunContext, RunError};
use crate::scenario::ConstellationChoice;
use crate::spec::{ExperimentSpec, GroundSegment, ParamValue};
use hypatia_netsim::SimMode;
use hypatia_util::{DataRate, SimDuration};

/// The three-mode comparison as a registered experiment.
pub struct ExtHybridMode;

impl Experiment for ExtHybridMode {
    fn name(&self) -> &'static str {
        "ext_hybrid_mode"
    }

    fn label(&self) -> Option<&'static str> {
        Some("Extension")
    }

    fn title(&self) -> &'static str {
        "Hybrid fluid/packet simulation: speedup at matched goodput (Kuiper K1)"
    }

    fn spec(&self, full: bool) -> ExperimentSpec {
        let mut spec = ExperimentSpec {
            experiment: self.name().to_string(),
            constellation: ConstellationChoice::KuiperK1,
            ground: GroundSegment::TopCities(if full { 100 } else { 10 }),
            duration: SimDuration::from_secs(2),
            seed: 2020,
            ..ExperimentSpec::default()
        };
        spec.params.insert(
            "flow_counts".to_string(),
            ParamValue::List(if full { vec![10_000.0, 100_000.0] } else { vec![400.0, 1_000.0] }),
        );
        // Bulk pacing: fast enough that packet mode is event-dominated,
        // slow enough that the reduced-scale run stays unbottlenecked.
        spec.params.insert("flow_rate_kbps".to_string(), ParamValue::Num(256.0));
        // `--set perf_series=false` drops the wall-clock artifacts and the
        // manifest's `perf.engine.queue` and `perf.engine.fluid` blocks,
        // leaving only outputs that are identical under every engine —
        // the determinism gate in scripts/check.sh relies on this.
        spec.params.insert("perf_series".to_string(), ParamValue::Flag(true));
        spec
    }

    fn run(&self, ctx: &mut RunContext) -> Result<(), RunError> {
        let counts: Vec<u64> = match ctx.spec.flows {
            Some(n) => vec![n],
            None => match ctx.spec.list("flow_counts") {
                Some(v) => v.iter().map(|&x| x.round() as u64).collect(),
                None => vec![400, 1_000],
            },
        };
        if let Some(&bad) = counts.iter().find(|&&n| n == 0) {
            return Err(RunError::BadSpec(format!("flow_counts must be positive, got {bad}")));
        }
        let rate_kbps = ctx.spec.num("flow_rate_kbps").unwrap_or(256.0);
        if !rate_kbps.is_finite() || rate_kbps <= 0.0 {
            return Err(RunError::BadSpec(format!(
                "flow_rate_kbps must be positive, got {rate_kbps}"
            )));
        }
        let per_flow_rate = DataRate::from_bps((rate_kbps * 1e3).round() as u64);
        let threshold = DataRate::from_bps((ctx.spec.fluid_threshold_kbps * 1e3).round() as u64);
        // `--set sim_mode=...` pins one mode; the default spec (packet)
        // means "compare all three".
        let modes: Vec<SimMode> = if ctx.spec.sim_mode == SimMode::Packet {
            vec![SimMode::Packet, SimMode::Fluid, SimMode::Hybrid]
        } else {
            vec![ctx.spec.sim_mode]
        };
        let with_perf_series = ctx.spec.flag("perf_series").unwrap_or(true);
        let duration = ctx.spec.duration;
        let seed = ctx.spec.seed;
        let scenario = ctx.scenario();

        println!(
            "{:>10} {:>8} {:>12} {:>14} {:>16} {:>8} {:>10}",
            "flows", "mode", "events", "events/sec", "goodput (Gbps)", "jain", "resolves"
        );
        for mode in &modes {
            let mut events_per_sec = Vec::new();
            let mut goodput = Vec::new();
            let mut jain = Vec::new();
            for &flows in &counts {
                let p = run_hybrid_point(
                    &scenario,
                    flows,
                    *mode,
                    per_flow_rate,
                    threshold,
                    duration,
                    seed,
                );
                println!(
                    "{:>10} {:>8} {:>12} {:>14.0} {:>16.6} {:>8.4} {:>10}",
                    p.flows,
                    p.mode.name(),
                    p.events,
                    p.events_per_sec,
                    p.goodput_gbps,
                    p.jain,
                    p.fluid_resolves,
                );
                ctx.sink.record_sim(p.events, p.wall_s);
                ctx.sink.record_engine(&p.engine);
                if with_perf_series {
                    ctx.sink.record_queue(&p.engine.queue);
                    ctx.sink.record_fluid(&p.engine.fluid);
                }
                let x = p.flows as f64;
                events_per_sec.push((x, p.events_per_sec));
                goodput.push((x, p.goodput_gbps));
                jain.push((x, p.jain));
            }
            let slug = mode.name();
            if with_perf_series {
                ctx.sink.write_series(
                    &format!("ext_hybrid_{slug}_events_per_sec.dat"),
                    "flows events_per_sec",
                    &events_per_sec,
                )?;
            }
            ctx.sink.write_series(
                &format!("ext_hybrid_{slug}_goodput.dat"),
                "flows goodput_gbps",
                &goodput,
            )?;
            ctx.sink.write_series(
                &format!("ext_hybrid_{slug}_jain.dat"),
                "flows jain_index",
                &jain,
            )?;
        }

        println!();
        println!("Takeaway: modelling bulk flows as max-min fair fluid rates removes");
        println!("their per-packet events entirely; goodput and fairness match the");
        println!("packet reference within the integration tolerance, and in hybrid");
        println!("mode control traffic still crosses real residual-capacity queues.");
        Ok(())
    }
}
