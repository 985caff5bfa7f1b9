//! Fig. 2 — simulator scalability: slowdown vs achieved goodput.
//!
//! The paper's workload: Kuiper K1, the 100 most populous cities as GSes,
//! a random permutation traffic matrix, and either long-running TCP flows
//! or line-rate paced UDP; the line rate is swept to control goodput.
//! "Slowdown" is wall-clock seconds per simulated second. Absolute numbers
//! depend on the host (the paper used a 2.26 GHz Xeon L5520 core); the
//! reproducible shape is slowdown growing ∝ goodput, with TCP costing
//! roughly 2× UDP per delivered byte.

use crate::resilience::{Driver, SimRun};
use crate::runner::RunError;
use crate::scenario::Scenario;
use hypatia_constellation::NodeId;
use hypatia_netsim::apps::{UdpSink, UdpSource};
use hypatia_netsim::{BulkUdpSink, BulkUdpSource, FlowId};
use hypatia_transport::{BulkTcpSender, BulkTcpSink, NewReno, TcpConfig, TcpSender, TcpSink};
use hypatia_util::{DataRate, SimDuration, SimTime};
use std::collections::BTreeMap;

/// Workload type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Long-running TCP (NewReno) flows.
    Tcp,
    /// Line-rate paced UDP.
    Udp,
}

impl Workload {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Tcp => "TCP",
            Workload::Udp => "UDP",
        }
    }
}

/// How per-flow endpoint state is laid out in the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowTable {
    /// One boxed application per flow on its own port (the seed layout).
    Apps,
    /// Arena flow tables: one bulk application per node holding all of
    /// that node's flows in struct-of-arrays columns. Observables are
    /// byte-identical to [`FlowTable::Apps`]; only memory layout and
    /// install cost differ.
    Arena,
}

impl FlowTable {
    /// Display / spec name.
    pub fn name(self) -> &'static str {
        match self {
            FlowTable::Apps => "apps",
            FlowTable::Arena => "arena",
        }
    }

    /// Parse a spec value (`apps` or `arena`).
    pub fn parse(s: &str) -> Option<FlowTable> {
        match s {
            "apps" => Some(FlowTable::Apps),
            "arena" => Some(FlowTable::Arena),
            _ => None,
        }
    }
}

/// One measured point of Fig. 2.
#[derive(Debug, Clone)]
pub struct ScalabilityPoint {
    /// Workload type.
    pub workload: Workload,
    /// Line rate used.
    pub line_rate: DataRate,
    /// Network-wide goodput achieved, Gbit/s.
    pub goodput_gbps: f64,
    /// Wall-clock seconds per simulated second.
    pub slowdown: f64,
    /// Events processed.
    pub events: u64,
    /// The driven simulation: wall clock, engine report, checkpoints.
    pub run: SimRun,
}

/// Run one scalability point: permutation traffic at `line_rate` for
/// `virtual_duration` simulated seconds, measuring wall time. No
/// checkpoints, audits, or limits — see [`drive_point`].
pub fn run_point(
    scenario: &Scenario,
    workload: Workload,
    flow_table: FlowTable,
    line_rate: DataRate,
    virtual_duration: SimDuration,
    seed: u64,
) -> ScalabilityPoint {
    drive_point(
        scenario,
        workload,
        flow_table,
        line_rate,
        virtual_duration,
        seed,
        &Driver::default(),
    )
    .expect("a plain run has no failure path")
}

/// [`run_point`] driven by `driver`, under the snapshot tag
/// `<workload>_<flow table>_<line rate>bps`.
pub fn drive_point(
    scenario: &Scenario,
    workload: Workload,
    flow_table: FlowTable,
    line_rate: DataRate,
    virtual_duration: SimDuration,
    seed: u64,
    driver: &Driver,
) -> Result<ScalabilityPoint, RunError> {
    let pairs = scenario.permutation_pairs(seed);
    let mut sim_config = scenario.sim_config.clone();
    sim_config.link_rate = line_rate;

    let mut dests: Vec<_> =
        (0..scenario.constellation.num_ground_stations()).map(|i| scenario.gs(i)).collect();
    dests.sort_unstable_by_key(|n| n.0);

    let mut sim = hypatia_netsim::Simulator::new(scenario.constellation.clone(), sim_config, dests);

    let stop = SimTime::ZERO + virtual_duration;
    match (workload, flow_table) {
        (Workload::Udp, FlowTable::Apps) => {
            for (i, &(s, d)) in pairs.iter().enumerate() {
                let (src, dst) = (scenario.gs(s), scenario.gs(d));
                sim.add_app(dst, 40_000 + i as u16, Box::new(UdpSink::new()));
                sim.add_app(
                    src,
                    20_000 + i as u16,
                    Box::new(UdpSource::new(dst, i as u32, line_rate, 1440, stop)),
                );
            }
        }
        (Workload::Udp, FlowTable::Arena) => {
            // Same ports, same packets: the legacy source addresses its own
            // port at the destination, so the bulk table replicates that
            // (and the 40 000-range sink ports stay bound but idle, exactly
            // as with per-flow apps).
            let mut sources: BTreeMap<u32, BulkUdpSource> = BTreeMap::new();
            let mut sinks: BTreeMap<u32, (Vec<u16>, Vec<u32>)> = BTreeMap::new();
            for (i, &(s, d)) in pairs.iter().enumerate() {
                let (src, dst) = (scenario.gs(s), scenario.gs(d));
                let sink = sinks.entry(dst.0).or_default();
                sink.0.push(40_000 + i as u16);
                sink.1.push(i as u32);
                sources
                    .entry(src.0)
                    .or_insert_with(|| BulkUdpSource::new(line_rate, 1440, stop))
                    .push(FlowId(i as u32), dst, 20_000 + i as u16, 20_000 + i as u16);
            }
            for (node, (ports, flows)) in sinks {
                sim.add_app_multi(NodeId(node), &ports, Box::new(BulkUdpSink::new(flows)));
            }
            for (node, table) in sources {
                let ports = table.src_ports().to_vec();
                sim.add_app_multi(NodeId(node), &ports, Box::new(table));
            }
        }
        (Workload::Tcp, FlowTable::Apps) => {
            let cfg = TcpConfig::default();
            for (i, &(s, d)) in pairs.iter().enumerate() {
                let (src, dst) = (scenario.gs(s), scenario.gs(d));
                sim.add_app(dst, 40_000 + i as u16, Box::new(TcpSink::new(cfg.clone())));
                sim.add_app(
                    src,
                    20_000 + i as u16,
                    Box::new(TcpSender::new(
                        dst,
                        40_000 + i as u16,
                        cfg.clone(),
                        Box::new(NewReno::new()),
                    )),
                );
            }
        }
        (Workload::Tcp, FlowTable::Arena) => {
            let cfg = TcpConfig::default();
            let mut senders: BTreeMap<u32, BulkTcpSender> = BTreeMap::new();
            let mut sinks: BTreeMap<u32, BulkTcpSink> = BTreeMap::new();
            for (i, &(s, d)) in pairs.iter().enumerate() {
                let (src, dst) = (scenario.gs(s), scenario.gs(d));
                sinks.entry(dst.0).or_default().push(40_000 + i as u16, cfg.clone());
                senders.entry(src.0).or_default().push(
                    20_000 + i as u16,
                    dst,
                    40_000 + i as u16,
                    cfg.clone(),
                    Box::new(NewReno::new()),
                );
            }
            for (node, table) in sinks {
                let ports = table.ports();
                sim.add_app_multi(NodeId(node), &ports, Box::new(table));
            }
            for (node, table) in senders {
                let ports = table.ports();
                sim.add_app_multi(NodeId(node), &ports, Box::new(table));
            }
        }
    }

    let tag =
        format!("{}_{}_{}bps", workload.name().to_lowercase(), flow_table.name(), line_rate.bps());
    let run = SimRun::drive(&mut sim, stop, &tag, driver)?;
    let goodput_gbps =
        sim.stats.payload_bytes_delivered as f64 * 8.0 / virtual_duration.secs_f64() / 1e9;
    Ok(ScalabilityPoint {
        workload,
        line_rate,
        goodput_gbps,
        slowdown: run.wall_s / virtual_duration.secs_f64(),
        events: run.events,
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
    fn udp_point_achieves_goodput() {
        let s = scenario();
        let p = run_point(
            &s,
            Workload::Udp,
            FlowTable::Apps,
            DataRate::from_mbps(1),
            SimDuration::from_secs(2),
            3,
        );
        // 10 flows at ≤1 Mbps each.
        assert!(p.goodput_gbps > 0.0005, "goodput {} Gbps", p.goodput_gbps);
        assert!(p.goodput_gbps < 0.011);
        assert!(p.slowdown > 0.0);
        assert!(p.events > 1000);
    }

    #[test]
    fn tcp_point_achieves_goodput() {
        let s = scenario();
        let p = run_point(
            &s,
            Workload::Tcp,
            FlowTable::Apps,
            DataRate::from_mbps(1),
            SimDuration::from_secs(2),
            3,
        );
        assert!(p.goodput_gbps > 0.0002, "goodput {} Gbps", p.goodput_gbps);
    }

    #[test]
    fn goodput_scales_with_line_rate() {
        let s = scenario();
        let points: Vec<_> = [DataRate::from_kbps(256), DataRate::from_mbps(2)]
            .into_iter()
            .map(|r| run_point(&s, Workload::Udp, FlowTable::Apps, r, SimDuration::from_secs(2), 3))
            .collect();
        assert!(
            points[1].goodput_gbps > 3.0 * points[0].goodput_gbps,
            "{} vs {}",
            points[1].goodput_gbps,
            points[0].goodput_gbps
        );
    }

    #[test]
    fn arena_matches_apps_observables_exactly() {
        // Same workload, two layouts: the arena flow table must reproduce
        // the per-flow-apps run event for event — identical event counts
        // and identical delivered bytes, for both UDP and TCP.
        let s = scenario();
        for workload in [Workload::Udp, Workload::Tcp] {
            let rate = DataRate::from_mbps(1);
            let dur = SimDuration::from_secs(2);
            let apps = run_point(&s, workload, FlowTable::Apps, rate, dur, 3);
            let arena = run_point(&s, workload, FlowTable::Arena, rate, dur, 3);
            assert_eq!(apps.events, arena.events, "{} events", workload.name());
            assert_eq!(
                apps.goodput_gbps,
                arena.goodput_gbps,
                "{} goodput must be bit-identical",
                workload.name()
            );
        }
    }

    #[test]
    fn flow_table_parses_spec_names() {
        assert_eq!(FlowTable::parse("apps"), Some(FlowTable::Apps));
        assert_eq!(FlowTable::parse("arena"), Some(FlowTable::Arena));
        assert_eq!(FlowTable::parse("soa"), None);
        assert_eq!(FlowTable::Arena.name(), "arena");
    }
}
