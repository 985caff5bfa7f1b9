//! Extension — traffic scaling under a population-gravity matrix.
//!
//! The paper's Fig. 2 workload is a permutation matrix: every city sources
//! exactly one flow. Real demand is nothing like that — large metros
//! originate and terminate disproportionately many connections. This
//! study draws N flows from a gravity model over the ground segment
//! (pair weight ∝ population product, see
//! [`hypatia_constellation::ground::gravity_pairs`]) and sweeps N from
//! thousands to a million, measuring what actually limits scale:
//!
//! * simulator throughput (events per wall-clock second);
//! * steady-state flow-table footprint (bytes per flow, excluding
//!   in-flight packets — the arena layout keeps this ≤ 128 B/flow);
//! * peak resident set size of the process;
//! * network-wide goodput and Jain fairness over per-flow delivered
//!   bytes (the gravity skew concentrates flows on popular GSLs, so
//!   fairness degrades as N grows — a result a permutation matrix
//!   cannot show).
//!
//! Flows are paced constant-bit-rate UDP. With
//! [`FlowTable::Arena`] endpoint state lives in per-node arena tables
//! ([`hypatia_netsim::BulkUdpSource`] / [`hypatia_netsim::BulkUdpSink`]:
//! one application per node, struct-of-arrays columns, dense
//! [`FlowId`]-indexed accounting); with [`FlowTable::Apps`] every flow
//! gets its own boxed application — the seed layout, kept as a
//! cross-check because both emit identical packets and must produce
//! byte-identical artifacts. Everything is deterministic in (spec, seed).

use crate::experiments::scalability::FlowTable;
use crate::resilience::{Driver, SimRun};
use crate::runner::RunError;
use crate::scenario::Scenario;
use hypatia_constellation::ground::gravity_pairs;
use hypatia_constellation::NodeId;
use hypatia_netsim::{BulkUdpSink, BulkUdpSource, FlowId, Simulator};
use hypatia_util::mem::peak_rss_bytes;
use hypatia_util::{DataRate, SimDuration, SimTime};
use std::collections::BTreeMap;

/// One measured point of the flow-count sweep.
#[derive(Debug, Clone)]
pub struct FlowScalingPoint {
    /// Offered flow count.
    pub flows: u64,
    /// Events processed.
    pub events: u64,
    /// Network-wide goodput achieved, Gbit/s.
    pub goodput_gbps: f64,
    /// Jain fairness index over per-flow delivered bytes.
    pub jain: f64,
    /// Steady-state flow-table bytes per flow (both endpoints, excluding
    /// in-flight packets), from the simulator's footprint accounting.
    pub bytes_per_flow: f64,
    /// Peak resident set size after the run, if the platform reports one
    /// (Linux `VmHWM`). Meaningful for one point per process; a sweep in
    /// one process reports its running maximum.
    pub peak_rss_bytes: Option<u64>,
    /// The driven simulation: wall clock, engine report, checkpoints.
    pub run: SimRun,
}

/// Jain's fairness index `(Σx)² / (n · Σx²)`: 1.0 when every flow got the
/// same share, `1/n` when one flow got everything. Zero-byte flows count
/// (they drag the index down). Degenerate inputs — empty, or nothing
/// delivered at all — report 1.0 (everyone equally got nothing).
pub fn jain_index(xs: &[f64]) -> f64 {
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * sum_sq)
}

/// Install `pairs` as UDP flows paced at `rate` until `stop`, in the
/// `flow_table` layout; returns the sink applications. Flow `i` is
/// `FlowId(i)`. Ports only steer packets to the owning application —
/// per-flow accounting keys on the dense [`FlowId`] inside each datagram —
/// so source ports recycle the 20000-range and sink ports the 40000-range
/// once a node owns more than 20k flows (arena tables deduplicate bound
/// ports; the per-flow-apps layout needs unique ports and therefore caps
/// at 20k flows per node).
pub(crate) fn install_flows(
    sim: &mut Simulator,
    scenario: &Scenario,
    pairs: &[(usize, usize)],
    flow_table: FlowTable,
    rate: DataRate,
    stop: SimTime,
) -> Vec<u32> {
    // Per node, in global draw order: dst → (sink ports, flow ids), and
    // src → (flow id, dst, src port, dst port) per flow.
    let mut sinks: BTreeMap<u32, (Vec<u16>, Vec<u32>)> = BTreeMap::new();
    let mut sources: BTreeMap<u32, Vec<(u32, NodeId, u16, u16)>> = BTreeMap::new();
    for (i, &(s, d)) in pairs.iter().enumerate() {
        let (src, dst) = (scenario.gs(s), scenario.gs(d));
        let sink = sinks.entry(dst.0).or_default();
        let dst_port = 40_000 + (sink.1.len() % 20_000) as u16;
        sink.0.push(dst_port);
        sink.1.push(i as u32);
        let list = sources.entry(src.0).or_default();
        let src_port = 20_000 + (list.len() % 20_000) as u16;
        list.push((i as u32, dst, src_port, dst_port));
    }
    let mut sink_apps = Vec::new();
    match flow_table {
        FlowTable::Arena => {
            for (node, (mut ports, flow_list)) in sinks {
                ports.sort_unstable();
                ports.dedup();
                sink_apps.push(sim.add_app_multi(
                    NodeId(node),
                    &ports,
                    Box::new(BulkUdpSink::new(flow_list)),
                ));
            }
            for (node, list) in sources {
                let mut table = BulkUdpSource::new(rate, 1440, stop);
                for &(flow, dst, src_port, dst_port) in &list {
                    table.push(FlowId(flow), dst, src_port, dst_port);
                }
                let mut ports = table.src_ports().to_vec();
                ports.sort_unstable();
                ports.dedup();
                sim.add_app_multi(NodeId(node), &ports, Box::new(table));
            }
        }
        FlowTable::Apps => {
            // One boxed application per flow, installed in the same
            // global order the arena tables would walk, emitting the
            // same packets — the cross-check layout.
            for (node, (ports, flow_list)) in sinks {
                for (&port, &flow) in ports.iter().zip(&flow_list) {
                    sink_apps.push(sim.add_app(
                        NodeId(node),
                        port,
                        Box::new(BulkUdpSink::new(vec![flow])),
                    ));
                }
            }
            for (node, list) in sources {
                for &(flow, dst, src_port, dst_port) in &list {
                    let mut solo = BulkUdpSource::new(rate, 1440, stop);
                    solo.push(FlowId(flow), dst, src_port, dst_port);
                    sim.add_app(NodeId(node), src_port, Box::new(solo));
                }
            }
        }
    }
    sink_apps
}

/// Bytes each of `flows` flows delivered to the `sink_apps`, by flow id.
pub(crate) fn per_flow_bytes(sim: &Simulator, sink_apps: &[u32], flows: u64) -> Vec<f64> {
    let mut per_flow = vec![0.0f64; flows as usize];
    for &idx in sink_apps {
        let sink: &BulkUdpSink = sim.app_as(idx).expect("bulk UDP sink");
        for (flow, bytes) in sink.per_flow_bytes() {
            per_flow[flow.0 as usize] = bytes as f64;
        }
    }
    per_flow
}

/// Run one flow-scaling point: `flows` gravity-drawn UDP flows, each
/// paced at `per_flow_rate`, for `virtual_duration` simulated seconds.
/// Observables are byte-identical across [`FlowTable`] layouts; only
/// memory layout and install cost differ. No checkpoints, audits, or
/// limits — see [`drive_flow_point`].
pub fn run_flow_point(
    scenario: &Scenario,
    flows: u64,
    flow_table: FlowTable,
    per_flow_rate: DataRate,
    virtual_duration: SimDuration,
    seed: u64,
) -> FlowScalingPoint {
    let driver = Driver::default();
    drive_flow_point(scenario, flows, flow_table, per_flow_rate, virtual_duration, seed, &driver)
        .expect("a plain run has no failure path")
}

/// [`run_flow_point`] driven by `driver`, under the snapshot tag
/// `flows_<flow table>_<flows>`.
pub fn drive_flow_point(
    scenario: &Scenario,
    flows: u64,
    flow_table: FlowTable,
    per_flow_rate: DataRate,
    virtual_duration: SimDuration,
    seed: u64,
    driver: &Driver,
) -> Result<FlowScalingPoint, RunError> {
    let cities = scenario.constellation.num_ground_stations();
    let pairs = gravity_pairs(cities, flows as usize, seed);
    let stop = SimTime::ZERO + virtual_duration;

    let mut dests: Vec<_> = (0..cities).map(|i| scenario.gs(i)).collect();
    dests.sort_unstable_by_key(|n| n.0);
    let mut sim = scenario.simulator(dests);
    let sink_apps = install_flows(&mut sim, scenario, &pairs, flow_table, per_flow_rate, stop);

    let tag = format!("flows_{}_{flows}", flow_table.name());
    let run = SimRun::drive(&mut sim, stop, &tag, driver)?;
    let goodput_gbps =
        sim.stats.payload_bytes_delivered as f64 * 8.0 / virtual_duration.secs_f64() / 1e9;
    Ok(FlowScalingPoint {
        flows,
        events: run.events,
        goodput_gbps,
        jain: jain_index(&per_flow_bytes(&sim, &sink_apps, flows)),
        bytes_per_flow: sim.stats.bytes_per_flow().unwrap_or(0.0),
        peak_rss_bytes: peak_rss_bytes(),
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

    #[test]
    fn jain_index_behaviour() {
        assert_eq!(jain_index(&[5.0, 5.0, 5.0, 5.0]), 1.0);
        let one_hot = jain_index(&[12.0, 0.0, 0.0, 0.0]);
        assert!((one_hot - 0.25).abs() < 1e-12, "{one_hot}");
        assert_eq!(jain_index(&[]), 1.0);
        // All-zero vectors (nothing delivered at all) must report 1.0,
        // not NaN from the 0/0 ratio — a hybrid run where every bulk
        // flow went fluid leaves exactly this packet-side vector.
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        assert_eq!(jain_index(&[0.0; 64]), 1.0);
    }

    #[test]
    fn gravity_point_is_deterministic_and_delivers() {
        let s = scenario();
        let rate = DataRate::from_kbps(64);
        let dur = SimDuration::from_secs(1);
        let a = run_flow_point(&s, 200, FlowTable::Arena, rate, dur, 7);
        let b = run_flow_point(&s, 200, FlowTable::Arena, rate, dur, 7);
        assert_eq!(a.events, b.events);
        assert_eq!(a.goodput_gbps, b.goodput_gbps, "goodput must be bit-identical");
        assert!(a.goodput_gbps > 0.0);
        assert!(a.jain > 0.0 && a.jain <= 1.0, "jain {}", a.jain);
        assert!(a.run.events_per_sec() > 0.0);
    }

    #[test]
    fn arena_matches_per_flow_apps_exactly() {
        let s = scenario();
        let rate = DataRate::from_kbps(64);
        let dur = SimDuration::from_secs(1);
        let arena = run_flow_point(&s, 500, FlowTable::Arena, rate, dur, 7);
        let apps = run_flow_point(&s, 500, FlowTable::Apps, rate, dur, 7);
        assert_eq!(arena.events, apps.events);
        assert_eq!(arena.goodput_gbps, apps.goodput_gbps, "goodput must be bit-identical");
        assert_eq!(arena.jain, apps.jain, "per-flow accounting must agree");
    }

    #[test]
    fn flow_footprint_stays_under_128_bytes() {
        // The acceptance bound for the arena layout: steady-state endpoint
        // state ≤ 128 bytes per flow, excluding in-flight packets.
        let s = scenario();
        let p = run_flow_point(
            &s,
            10_000,
            FlowTable::Arena,
            DataRate::from_kbps(16),
            SimDuration::from_millis(100),
            7,
        );
        assert!(p.bytes_per_flow > 0.0, "footprint accounting missing");
        assert!(p.bytes_per_flow <= 128.0, "{} B/flow", p.bytes_per_flow);
    }

    #[test]
    fn port_recycling_keeps_large_tables_installable() {
        // 60k flows from 10 cities forces every node past the 20k-port
        // range: installs must still succeed (deduped bindings) and every
        // flow must stay individually accounted.
        let s = scenario();
        let p = run_flow_point(
            &s,
            60_000,
            FlowTable::Arena,
            DataRate::from_kbps(16),
            SimDuration::from_millis(10),
            7,
        );
        assert!(p.events > 0);
        assert!(p.jain > 0.0 && p.jain <= 1.0);
    }
}
