//! Extension — hybrid fluid/packet simulation of bulk traffic.
//!
//! Packet-level simulation pays an event per packet per hop; at hundreds
//! of thousands of bulk flows that is what limits scale (see
//! [`flow_scaling`](crate::experiments::flow_scaling)). The fluid
//! alternative models each long-lived flow as a rate assigned by a
//! max-min fair (water-filling) solver over the current forwarding state
//! and integrates delivered bytes analytically between re-solves
//! ([`hypatia_netsim::fluid`]). This study runs the same gravity-drawn
//! bulk workload in all three [`SimMode`]s and measures the trade:
//!
//! * events per wall-clock second (the speedup fluid modelling buys);
//! * network-wide goodput — packet-delivered payload plus analytically
//!   delivered fluid bytes — which must agree across modes within a
//!   small discretization tolerance;
//! * Jain fairness over per-flow delivered bytes (packet sinks and the
//!   fluid solver's per-flow integrals merged into one vector).
//!
//! A packet-level ping control overlay runs in every mode: in hybrid
//! mode the residual coupling (fluid load subtracted from link capacity)
//! is what the control traffic experiences, so its RTTs see the bulk
//! load without simulating a single bulk packet. Flows whose demand is
//! below the classification threshold stay packet-level even in
//! fluid/hybrid mode. Everything is deterministic in (spec, seed).

use crate::experiments::flow_scaling::{install_flows, jain_index, per_flow_bytes};
use crate::experiments::scalability::FlowTable;
use crate::resilience::{Driver, SimRun};
use crate::runner::RunError;
use crate::scenario::Scenario;
use hypatia_constellation::ground::gravity_pairs;
use hypatia_netsim::apps::PingApp;
use hypatia_netsim::SimMode;
use hypatia_util::{DataRate, SimDuration, SimTime};

/// One measured point of the mode comparison.
#[derive(Debug, Clone)]
pub struct HybridPoint {
    /// Offered bulk flow count.
    pub flows: u64,
    /// Simulation mode the point ran under.
    pub mode: SimMode,
    /// Events processed (packet events plus fluid boundary events).
    pub events: u64,
    /// Network-wide goodput, Gbit/s: packet payload delivered plus fluid
    /// bytes delivered analytically.
    pub goodput_gbps: f64,
    /// Jain fairness index over per-flow delivered bytes, packet and
    /// fluid flows merged.
    pub jain: f64,
    /// Bulk flows the classifier sent to the fluid solver.
    pub fluid_flows: u64,
    /// Times the max-min solver re-ran (forwarding swaps, fault updates,
    /// flow boundaries).
    pub fluid_resolves: u64,
    /// Ping RTT samples from the control overlay (present in every mode).
    pub ping_rtts: u64,
    /// The driven simulation: wall clock, engine report, checkpoints.
    pub run: SimRun,
}

/// Run one point: `flows` gravity-drawn bulk UDP flows at
/// `per_flow_rate` each, classified packet vs fluid by
/// `fluid_threshold` (flows with demand below the threshold stay
/// packet-level; in [`SimMode::Packet`] everything does), plus a
/// packet-level ping control overlay, for `virtual_duration` simulated
/// seconds. No checkpoints, audits, or limits — see [`drive_hybrid_point`].
pub fn run_hybrid_point(
    scenario: &Scenario,
    flows: u64,
    mode: SimMode,
    per_flow_rate: DataRate,
    fluid_threshold: DataRate,
    virtual_duration: SimDuration,
    seed: u64,
) -> HybridPoint {
    drive_hybrid_point(
        scenario,
        flows,
        mode,
        per_flow_rate,
        fluid_threshold,
        virtual_duration,
        seed,
        &Driver::default(),
    )
    .expect("a plain run has no failure path")
}

/// [`run_hybrid_point`] driven by `driver`, under the snapshot tag
/// `<mode>_<flows>`.
#[allow(clippy::too_many_arguments)]
pub fn drive_hybrid_point(
    scenario: &Scenario,
    flows: u64,
    mode: SimMode,
    per_flow_rate: DataRate,
    fluid_threshold: DataRate,
    virtual_duration: SimDuration,
    seed: u64,
    driver: &Driver,
) -> Result<HybridPoint, RunError> {
    let mut scenario = scenario.clone();
    scenario.sim_config = scenario.sim_config.clone().with_sim_mode(mode);

    let cities = scenario.constellation.num_ground_stations();
    let pairs = gravity_pairs(cities, flows as usize, seed);
    let stop = SimTime::ZERO + virtual_duration;

    let mut dests: Vec<_> = (0..cities).map(|i| scenario.gs(i)).collect();
    dests.sort_unstable_by_key(|n| n.0);
    let mut sim = scenario.simulator(dests);

    // The control overlay: one ping source between the two largest
    // metros, identical in every mode — control traffic never leaves the
    // packet level.
    let ping_app = sim.add_app(
        scenario.gs(0),
        100,
        Box::new(PingApp::new(scenario.gs(1), SimDuration::from_millis(100), stop)),
    );

    // Classify: bulk flows go fluid when the mode allows it and their
    // demand clears the threshold; otherwise they are simulated
    // packet-by-packet through arena flow tables.
    let to_fluid = mode != SimMode::Packet && per_flow_rate >= fluid_threshold;
    let sink_apps = if to_fluid {
        for (i, &(s, d)) in pairs.iter().enumerate() {
            let (src, dst) = (scenario.gs(s), scenario.gs(d));
            sim.add_fluid_flow(i as u32, src, dst, per_flow_rate, 1440, stop);
        }
        Vec::new()
    } else {
        install_flows(&mut sim, &scenario, &pairs, FlowTable::Arena, per_flow_rate, stop)
    };

    let run = SimRun::drive(&mut sim, stop, &format!("{}_{flows}", mode.name()), driver)?;

    let mut per_flow = per_flow_bytes(&sim, &sink_apps, flows);
    if let Some(fluid) = sim.fluid() {
        for (flow, bytes) in fluid.per_flow_payload_bytes() {
            per_flow[flow as usize] = bytes;
        }
    }

    let ping: &PingApp = sim.app_as(ping_app).expect("ping overlay");
    let ping_rtts = ping.rtts().len() as u64;
    let delivered = sim.stats.payload_bytes_delivered + sim.stats.fluid_bytes_delivered;
    let goodput_gbps = delivered as f64 * 8.0 / virtual_duration.secs_f64() / 1e9;
    Ok(HybridPoint {
        flows,
        mode,
        events: run.events,
        goodput_gbps,
        jain: jain_index(&per_flow),
        fluid_flows: if to_fluid { pairs.len() as u64 } else { 0 },
        fluid_resolves: sim.stats.fluid_resolves,
        ping_rtts,
        run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ConstellationChoice, ScenarioBuilder};

    fn scenario() -> Scenario {
        ScenarioBuilder::new(ConstellationChoice::KuiperK1).top_cities(10).build()
    }

    // 64 kbps × 400 flows keeps every 10 Mbps GSL unbottlenecked, so the
    // packet reference delivers (nearly) everything and the comparison
    // measures discretization bias, not queue-drop unfairness.
    fn point(s: &Scenario, mode: SimMode, threshold_kbps: u64) -> HybridPoint {
        run_hybrid_point(
            s,
            400,
            mode,
            DataRate::from_kbps(64),
            DataRate::from_kbps(threshold_kbps),
            SimDuration::from_secs(2),
            7,
        )
    }

    /// The differential acceptance gate: the hybrid run must agree with
    /// the pure-packet reference on goodput (within the discretization
    /// tolerance) and fairness, while processing far fewer events.
    #[test]
    fn hybrid_matches_packet_goodput_with_far_fewer_events() {
        let s = scenario();
        let packet = point(&s, SimMode::Packet, 0);
        let hybrid = point(&s, SimMode::Hybrid, 0);

        assert_eq!(packet.fluid_flows, 0);
        assert_eq!(hybrid.fluid_flows, 400);
        assert!(hybrid.fluid_resolves > 0);
        assert!(packet.goodput_gbps > 0.0);
        let rel = (hybrid.goodput_gbps - packet.goodput_gbps).abs() / packet.goodput_gbps;
        assert!(rel <= 0.05, "goodput diverged by {:.2}% ", rel * 100.0);
        assert!(
            (hybrid.jain - packet.jain).abs() <= 0.05,
            "jain {} vs {}",
            hybrid.jain,
            packet.jain
        );
        assert!(
            hybrid.events * 5 <= packet.events,
            "hybrid {} events vs packet {} — less than 5x fewer",
            hybrid.events,
            packet.events
        );
        // The control overlay runs at packet level in both modes.
        assert!(packet.ping_rtts > 0);
        assert!(hybrid.ping_rtts > 0);
    }

    /// A threshold above every flow's demand keeps the whole workload
    /// packet-level: the hybrid run then reproduces the packet reference
    /// exactly (the solver runs but carries no load).
    #[test]
    fn threshold_keeps_short_flows_packet_level() {
        let s = scenario();
        let packet = point(&s, SimMode::Packet, 0);
        let gated = point(&s, SimMode::Hybrid, 128);
        assert_eq!(gated.fluid_flows, 0);
        assert_eq!(gated.events, packet.events);
        assert_eq!(gated.goodput_gbps, packet.goodput_gbps);
        assert_eq!(gated.jain, packet.jain);
    }
}
