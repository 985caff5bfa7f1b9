//! Extension study — resilience under component failures.
//!
//! The paper simulates a *fault-free* constellation; this study asks how
//! gracefully the system degrades when satellites flap. A seeded renewal
//! process (`hypatia-fault`) takes satellites down and back up at a swept
//! steady-state unavailability; for each failure rate one end-end
//! UDP+ping workload runs through the packet simulator while the routing
//! layer is probed for reconvergence. Reported per rate, against the
//! fault-free baseline:
//!
//! * goodput of a paced UDP flow (line-rate headroom eaten by reroutes);
//! * mean ping RTT inflation (detours are longer than the shortest path);
//! * ping loss fraction (packets caught on failing components);
//! * mean reroute latency (failure instant → next forwarding-state
//!   boundary — the time traffic keeps falling into a black hole);
//! * mean unreachable-pair and next-hop-churn fractions over the ground
//!   segment (sampled once per second from masked forwarding states);
//!
//! plus a CZML outage layer for the highest rate, renderable alongside
//! the Fig. 11 trajectory view.
//!
//! Flap events land *between* forwarding updates, so the run exercises
//! the simulator's mid-flight fault path: in-flight packets on a cut
//! component are dropped (`fault_drops`), everything else reroutes at
//! the next Δt boundary. All of it is deterministic in (seed, spec).

use super::first_pair;
use crate::runner::{Experiment, RunContext, RunError};
use crate::scenario::{ConstellationChoice, Scenario};
use crate::spec::{ExperimentSpec, GroundSegment, PairSelection, ParamValue};
use hypatia_constellation::NodeId;
use hypatia_fault::{FaultKind, FaultSchedule, FaultState, FaultTarget, FlapProcess};
use hypatia_netsim::apps::{PingApp, UdpSink, UdpSource};
use hypatia_netsim::EngineReport;
use hypatia_routing::churn::{churn_between, reachability_of};
use hypatia_routing::forwarding::compute_forwarding_state_masked;
use hypatia_util::{DataRate, SimDuration, SimTime};
use hypatia_viz::czml::outage_czml;
use std::sync::Arc;

const PING_PORT: u16 = 7;
const UDP_PORT: u16 = 9;

/// What one workload run under a given fault schedule measured.
struct DegradedRun {
    goodput_mbps: f64,
    mean_rtt_ms: f64,
    ping_loss: f64,
    fault_drops: u64,
}

/// The failure-resilience sweep as a registered experiment.
pub struct ExtFailureResilience;

impl Experiment for ExtFailureResilience {
    fn name(&self) -> &'static str {
        "ext_failure_resilience"
    }

    fn label(&self) -> Option<&'static str> {
        Some("Extension")
    }

    fn title(&self) -> &'static str {
        "Failure resilience: degradation vs satellite failure rate (Kuiper K1)"
    }

    fn spec(&self, full: bool) -> ExperimentSpec {
        let mut spec = ExperimentSpec {
            experiment: self.name().to_string(),
            constellation: ConstellationChoice::KuiperK1,
            ground: GroundSegment::TopCities(if full { 100 } else { 20 }),
            // A long ISL route whose endpoints sit inside even the reduced
            // 20-city ground segment.
            pairs: PairSelection::Named(vec![("Sao Paulo".into(), "Istanbul".into())]),
            duration: SimDuration::from_secs(if full { 100 } else { 20 }),
            ..ExperimentSpec::default()
        };
        spec.params.insert(
            "fail_fracs".to_string(),
            ParamValue::List(if full {
                vec![0.01, 0.02, 0.05, 0.1, 0.2]
            } else {
                vec![0.02, 0.05, 0.1]
            }),
        );
        spec.params.insert("mttr_s".to_string(), ParamValue::Num(if full { 30.0 } else { 10.0 }));
        spec.params.insert("ping_interval_ms".to_string(), ParamValue::Num(20.0));
        spec
    }

    fn run(&self, ctx: &mut RunContext) -> Result<(), RunError> {
        // `--set fail_fracs=0.1` parses as a single number, a comma list
        // as a list; accept both.
        let fracs: Vec<f64> = match (ctx.spec.list("fail_fracs"), ctx.spec.num("fail_fracs")) {
            (Some(v), _) => v.to_vec(),
            (None, Some(x)) => vec![x],
            (None, None) => vec![0.02, 0.05, 0.1],
        };
        if let Some(bad) = fracs.iter().copied().find(|&f| f <= 0.0 || f >= 1.0) {
            return Err(RunError::BadSpec(format!("fail_fracs must lie in (0, 1), got {bad}")));
        }
        let mttr_s = ctx.spec.num("mttr_s").unwrap_or(10.0);
        let ping_interval =
            SimDuration::from_secs_f64(ctx.spec.num("ping_interval_ms").unwrap_or(20.0) / 1e3);
        let (src_name, dst_name) = first_pair(&ctx.spec)?;
        let scenario = ctx.scenario();
        let src = scenario.gs_by_name(&src_name)?;
        let dst = scenario.gs_by_name(&dst_name)?;
        let duration = ctx.spec.duration;

        // Fault-free baseline (whatever faults the spec itself carries —
        // normally none — stay in, so explicit windows compose with the
        // swept flap process).
        let (base, events, wall_s, engine) =
            run_workload(&scenario, src, dst, duration, ping_interval);
        ctx.sink.record_sim(events, wall_s);
        ctx.sink.record_engine(&engine);
        println!(
            "{:<10} {:>14} {:>10} {:>8} {:>12} {:>12} {:>8} {:>12}",
            "fail_frac",
            "goodput(Mbps)",
            "rtt(ms)",
            "loss",
            "reroute(ms)",
            "unreachable",
            "churn",
            "fault_drops"
        );
        println!(
            "{:<10} {:>14.3} {:>10.2} {:>8.4} {:>12} {:>12} {:>8} {:>12}",
            "0 (base)", base.goodput_mbps, base.mean_rtt_ms, base.ping_loss, "-", "-", "-", "-"
        );

        let mut goodput = vec![(0.0, base.goodput_mbps)];
        let mut inflation = vec![(0.0, 1.0)];
        let mut loss = vec![(0.0, base.ping_loss)];
        let mut reroute = Vec::new();
        let mut unreachable = Vec::new();
        let mut churn = Vec::new();
        let mut worst_schedule: Option<Arc<FaultSchedule>> = None;

        for &frac in &fracs {
            let mut faults = ctx.spec.faults.clone().unwrap_or_default();
            faults.sat_flap = Some(FlapProcess::from_unavailability(frac, mttr_s));
            let schedule =
                Arc::new(FaultSchedule::compile(&faults, &scenario.constellation, duration));

            let mut degraded = scenario.clone();
            degraded.sim_config.faults = Some(schedule.clone());
            let (r, events, wall_s, engine) =
                run_workload(&degraded, src, dst, duration, ping_interval);
            ctx.sink.record_sim(events, wall_s);
            ctx.sink.record_engine(&engine);

            let reroute_ms = mean_reroute_latency_ms(&schedule, ctx.spec.step);
            let (unreach_frac, churn_frac) = routing_degradation(&degraded, &schedule, duration);

            println!(
                "{:<10} {:>14.3} {:>10.2} {:>8.4} {:>12.2} {:>12.4} {:>8.4} {:>12}",
                format!("{frac}"),
                r.goodput_mbps,
                r.mean_rtt_ms,
                r.ping_loss,
                reroute_ms,
                unreach_frac,
                churn_frac,
                r.fault_drops
            );

            goodput.push((frac, r.goodput_mbps));
            inflation.push((
                frac,
                if base.mean_rtt_ms > 0.0 { r.mean_rtt_ms / base.mean_rtt_ms } else { f64::NAN },
            ));
            loss.push((frac, r.ping_loss));
            reroute.push((frac, reroute_ms));
            unreachable.push((frac, unreach_frac));
            churn.push((frac, churn_frac));
            worst_schedule = Some(schedule);
        }

        ctx.sink.write_series("ext_failure_goodput.dat", "fail_frac goodput_mbps", &goodput)?;
        ctx.sink.write_series(
            "ext_failure_rtt_inflation.dat",
            "fail_frac rtt_inflation",
            &inflation,
        )?;
        ctx.sink.write_series("ext_failure_loss.dat", "fail_frac loss_fraction", &loss)?;
        ctx.sink.write_series("ext_failure_reroute_ms.dat", "fail_frac reroute_ms", &reroute)?;
        ctx.sink.write_series(
            "ext_failure_unreachable.dat",
            "fail_frac unreachable_fraction",
            &unreachable,
        )?;
        ctx.sink.write_series("ext_failure_churn.dat", "fail_frac churn_fraction", &churn)?;

        if let Some(schedule) = worst_schedule {
            // Outage layer for the harshest sweep point: red dots while a
            // component is down, overlayable on the Fig. 11 trajectories.
            let mut sat_windows = Vec::new();
            let mut gs_windows = Vec::new();
            for (target, from, until) in schedule.outage_windows() {
                match target {
                    FaultTarget::Satellite(s) => sat_windows.push((s, from, until)),
                    FaultTarget::GroundStation(g) => gs_windows.push((g, from, until)),
                    FaultTarget::Isl(..) => {}
                }
            }
            let packets = outage_czml(&scenario.constellation, &sat_windows, &gs_windows);
            ctx.sink.write_czml("ext_failure_outages.czml", packets)?;
        }

        println!();
        println!("Takeaway: the +Grid mesh offers alternate paths, so moderate");
        println!("failure rates cost latency (detours) long before they cost");
        println!("connectivity; loss concentrates in the window between a failure");
        println!("and the next forwarding-state update.");
        Ok(())
    }
}

/// Run the ping + paced-UDP workload over `scenario`'s configuration
/// (including any attached fault schedule). Returns the measurements plus
/// `(events, wall_s)` for the sink's simulation record.
fn run_workload(
    scenario: &Scenario,
    src: NodeId,
    dst: NodeId,
    duration: SimDuration,
    ping_interval: SimDuration,
) -> (DegradedRun, u64, f64, EngineReport) {
    let stop_at = SimTime::ZERO + duration;
    // UDP at half the line rate: enough headroom that queueing does not
    // mask fault-induced loss.
    let udp_rate =
        DataRate::from_bps((scenario.sim_config.link_rate.mbps_f64() * 1e6 / 2.0).round() as u64);

    let mut sim = scenario.simulator(vec![src, dst]);
    let ping = sim.add_app(src, PING_PORT, Box::new(PingApp::new(dst, ping_interval, stop_at)));
    sim.add_app(src, UDP_PORT, Box::new(UdpSource::new(dst, 1, udp_rate, 1000, stop_at)));
    let sink = sim.add_app(dst, UDP_PORT, Box::new(UdpSink::new()));

    let t0 = std::time::Instant::now();
    // Run past the stop time so late detoured packets still arrive.
    sim.run_until(stop_at + SimDuration::from_secs(1));
    let wall_s = t0.elapsed().as_secs_f64();

    let ping: &PingApp = sim.app_as(ping).expect("ping app");
    let udp: &UdpSink = sim.app_as(sink).expect("udp sink");
    let rtts = ping.rtts();
    let mean_rtt_ms = if rtts.is_empty() {
        f64::NAN
    } else {
        rtts.iter().map(|(_, rtt)| rtt.secs_f64() * 1e3).sum::<f64>() / rtts.len() as f64
    };
    (
        DegradedRun {
            goodput_mbps: udp.goodput_bps().unwrap_or(0.0) / 1e6,
            mean_rtt_ms,
            ping_loss: ping.loss_fraction(),
            fault_drops: sim.stats.fault_drops,
        },
        sim.stats.events,
        wall_s,
        sim.engine_report(),
    )
}

/// Mean time from a failure to the next forwarding-state boundary, ms —
/// the window during which packets are still steered into the hole.
fn mean_reroute_latency_ms(schedule: &FaultSchedule, step: SimDuration) -> f64 {
    let step_ns = step.nanos().max(1);
    let mut total_ns = 0u64;
    let mut n = 0u64;
    for e in schedule.events() {
        if e.kind != FaultKind::Fail {
            continue;
        }
        let t_ns = e.t.nanos();
        let next_boundary = t_ns.div_ceil(step_ns) * step_ns;
        total_ns += next_boundary - t_ns;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        total_ns as f64 / n as f64 / 1e6
    }
}

/// Sample masked forwarding states once per second across the horizon and
/// average unreachable-pair and next-hop-churn fractions over the ground
/// segment.
fn routing_degradation(
    scenario: &Scenario,
    schedule: &FaultSchedule,
    duration: SimDuration,
) -> (f64, f64) {
    let c = &*scenario.constellation;
    let gs_nodes: Vec<NodeId> = (0..c.num_ground_stations()).map(|i| c.gs_node(i)).collect();
    let cadence = SimDuration::from_secs(1);
    let samples = (duration / cadence).max(1);

    let mut prev = None;
    let mut unreach_sum = 0.0;
    let mut churn_sum = 0.0;
    let mut churn_n = 0u64;
    for k in 0..=samples {
        let t = SimTime::ZERO + cadence * k;
        let mask = FaultState::at(schedule, t);
        let state = compute_forwarding_state_masked(c, t, &gs_nodes, Some(&mask));
        unreach_sum += reachability_of(&state, &gs_nodes).unreachable_fraction();
        if let Some(prev) = &prev {
            churn_sum += churn_between(prev, &state, &gs_nodes).churn_fraction();
            churn_n += 1;
        }
        prev = Some(state);
    }
    (unreach_sum / (samples + 1) as f64, churn_sum / churn_n.max(1) as f64)
}
