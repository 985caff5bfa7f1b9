//! Figs. 10, 14, 15 — cross-traffic, unused bandwidth, and utilization.
//!
//! Long-running TCP flows between a random permutation of the ground
//! stations (the paper's §5.4 workload). For an observed pair, computes
//! the per-second "unused bandwidth": path capacity minus the utilization
//! of the most congested on-path link. The same run yields the
//! constellation-wide ISL utilization that Figs. 14/15 visualize.
//!
//! Simplification vs the paper: the paper removes permutation pairs that
//! ever share a source/destination *satellite* with the observed pair; we
//! remove pairs that share a *ground station* with it. Both serve the same
//! purpose — keeping the observed pair's first and last hop uncongested —
//! and ours is time-invariant, hence reproducible independent of geometry.

use crate::experiments::pair_slug;
use crate::resilience::{Driver, SimRun};
use crate::runner::RunError;
use crate::scenario::Scenario;
use hypatia_constellation::NodeId;
use hypatia_netsim::Simulator;
use hypatia_routing::parallel::{sweep_forwarding_states, SnapshotWorker};
use hypatia_transport::{NewReno, TcpConfig, TcpSender, TcpSink};
use hypatia_util::{SimDuration, SimTime};

/// Parameters for the cross-traffic experiment.
#[derive(Debug, Clone)]
pub struct CrossTrafficConfig {
    /// Horizon (paper: 200 s).
    pub duration: SimDuration,
    /// Permutation seed.
    pub seed: u64,
    /// Freeze the network at t = 0 (the paper's static baseline).
    pub frozen: bool,
    /// Loop-free multipath stretch (None = single shortest path).
    pub multipath_stretch: Option<f64>,
}

impl Default for CrossTrafficConfig {
    fn default() -> Self {
        CrossTrafficConfig {
            duration: SimDuration::from_secs(200),
            seed: 1,
            frozen: false,
            multipath_stretch: None,
        }
    }
}

/// Outcome: the observed pair's bandwidth series plus the simulator (for
/// utilization-map post-processing à la Figs. 14/15).
pub struct CrossTrafficResult {
    /// The simulator after the run (device utilization buckets populated).
    pub sim: Simulator,
    /// `(t s, unused bandwidth Mbit/s)`; NaN when the pair had no path.
    pub unused_bandwidth_series: Vec<(f64, f64)>,
    /// Network-wide goodput, Mbit/s.
    pub total_goodput_mbps: f64,
    /// Number of cross-traffic flows installed.
    pub flows: usize,
    /// The driven simulation: events, wall clock, engine report.
    pub run: SimRun,
}

impl CrossTrafficResult {
    /// Fraction of (connected) seconds with more than `frac` of the path
    /// capacity unused — the paper's headline "31% of the time, more than
    /// a third of the capacity is unused" metric.
    pub fn fraction_time_unused_above(&self, frac: f64) -> f64 {
        let cap = self.sim.config().link_rate.mbps_f64();
        let connected: Vec<f64> = self
            .unused_bandwidth_series
            .iter()
            .map(|&(_, u)| u)
            .filter(|u| u.is_finite())
            .collect();
        if connected.is_empty() {
            return 0.0;
        }
        connected.iter().filter(|&&u| u > cap * frac).count() as f64 / connected.len() as f64
    }
}

/// Run cross-traffic on `scenario`, observing `(src_name, dst_name)`.
///
/// The scenario's sim config must have a utilization bucket configured
/// (1 s reproduces the paper's measurement granularity). The simulation
/// is driven by `driver` under the snapshot tag
/// `<frozen|dynamic>[_mp<stretch>]_<pair>`.
pub fn run(
    scenario: &Scenario,
    src_name: &str,
    dst_name: &str,
    cfg: &CrossTrafficConfig,
    driver: &Driver,
) -> Result<CrossTrafficResult, RunError> {
    let bucket = scenario
        .sim_config
        .utilization_bucket
        .expect("cross-traffic needs utilization tracking enabled");
    let observed_src = scenario.gs_by_name(src_name)?;
    let observed_dst = scenario.gs_by_name(dst_name)?;

    // Traffic matrix: permutation pairs, minus those touching the observed
    // pair's ground stations, plus the observed pair itself.
    let mut flows: Vec<(NodeId, NodeId)> = vec![(observed_src, observed_dst)];
    for (i, j) in scenario.permutation_pairs(cfg.seed) {
        let (s, d) = (scenario.gs(i), scenario.gs(j));
        if s != observed_src && s != observed_dst && d != observed_src && d != observed_dst {
            flows.push((s, d));
        }
    }

    let mut dests: Vec<NodeId> = flows.iter().map(|&(_, d)| d).collect();
    dests.extend(flows.iter().map(|&(s, _)| s)); // ACK routing
    dests.sort_unstable_by_key(|n| n.0);
    dests.dedup();

    let mut sim_config = scenario.sim_config.clone();
    if cfg.frozen {
        sim_config.freeze_at_epoch = true;
    }
    sim_config.multipath_stretch = cfg.multipath_stretch;
    let mut sim = Simulator::new(scenario.constellation.clone(), sim_config, dests);

    let tcp_cfg = TcpConfig::default();
    for (i, &(s, d)) in flows.iter().enumerate() {
        let sender_port = 10_000 + i as u16;
        let sink_port = 30_000 + i as u16;
        sim.add_app(d, sink_port, Box::new(TcpSink::new(tcp_cfg.clone())));
        sim.add_app(
            s,
            sender_port,
            Box::new(TcpSender::new(d, sink_port, tcp_cfg.clone(), Box::new(NewReno::new()))),
        );
    }

    let mp = cfg.multipath_stretch.map_or(String::new(), |s| format!("_mp{s}"));
    let network = if cfg.frozen { "frozen" } else { "dynamic" };
    let tag = format!("{network}{mp}_{}", pair_slug(src_name, dst_name));
    let run = SimRun::drive(&mut sim, SimTime::ZERO + cfg.duration, &tag, driver)?;

    // Unused bandwidth per bucket for the observed pair: capacity minus the
    // bottleneck utilization of the path in force at each bucket start.
    let cap_mbps = sim.config().link_rate.mbps_f64();
    let buckets = cfg.duration / bucket;
    let times: Vec<SimTime> = (0..buckets)
        .map(|k| if cfg.frozen { SimTime::ZERO } else { SimTime::ZERO + bucket * k })
        .collect();
    let mut series = Vec::with_capacity(times.len());
    let worker = || SnapshotWorker::with_config(scenario.sim_config.routing);
    let (c, dests) = (&scenario.constellation, [observed_dst]);
    sweep_forwarding_states(worker, c, &times, &dests, None, 1, |k, (state, _)| {
        let point = match state.path(observed_src, observed_dst) {
            Some(path) => cap_mbps * (1.0 - sim.path_bottleneck_utilization(&path, k)),
            None => f64::NAN,
        };
        series.push(((k as u64 * bucket.nanos()) as f64 / 1e9, point));
    });

    let total_goodput_mbps =
        sim.stats.payload_bytes_delivered as f64 * 8.0 / cfg.duration.secs_f64() / 1e6;

    Ok(CrossTrafficResult {
        sim,
        unused_bandwidth_series: series,
        total_goodput_mbps,
        flows: flows.len(),
        run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ConstellationChoice, ScenarioBuilder};
    use hypatia_netsim::SimConfig;
    use hypatia_util::DataRate;

    fn scenario(cities: usize) -> Scenario {
        ScenarioBuilder::new(ConstellationChoice::KuiperK1)
            .top_cities(cities)
            .sim_config(
                SimConfig::default()
                    .with_link_rate(DataRate::from_mbps(10))
                    .with_utilization_bucket(SimDuration::from_secs(1)),
            )
            .build()
    }

    fn quick_cfg() -> CrossTrafficConfig {
        CrossTrafficConfig {
            duration: SimDuration::from_secs(10),
            seed: 7,
            frozen: false,
            multipath_stretch: None,
        }
    }

    #[test]
    fn multipath_runs_and_delivers() {
        let s = scenario(10);
        let mut cfg = quick_cfg();
        cfg.multipath_stretch = Some(1.2);
        let r = run(&s, "Tokyo", "Sao Paulo", &cfg, &Driver::default()).expect("known cities");
        assert!(r.total_goodput_mbps > 5.0, "multipath goodput {}", r.total_goodput_mbps);
    }

    #[test]
    fn observed_pair_series_has_one_point_per_second() {
        let s = scenario(10);
        let r =
            run(&s, "Tokyo", "Sao Paulo", &quick_cfg(), &Driver::default()).expect("known cities");
        assert_eq!(r.unused_bandwidth_series.len(), 10);
        for &(_, u) in &r.unused_bandwidth_series {
            assert!(u.is_nan() || (-0.01..=10.01).contains(&u), "unused {u}");
        }
        assert!(r.flows >= 2, "observed + cross flows");
    }

    #[test]
    fn cross_traffic_consumes_bandwidth() {
        let s = scenario(10);
        let r =
            run(&s, "Tokyo", "Sao Paulo", &quick_cfg(), &Driver::default()).expect("known cities");
        assert!(r.total_goodput_mbps > 5.0, "goodput {}", r.total_goodput_mbps);
        // Some second must see congestion (unused < capacity).
        let min_unused = r
            .unused_bandwidth_series
            .iter()
            .map(|&(_, u)| u)
            .filter(|u| u.is_finite())
            .fold(f64::INFINITY, f64::min);
        assert!(min_unused < 9.0, "no link ever utilized? min unused {min_unused}");
    }

    #[test]
    fn frozen_baseline_runs() {
        let s = scenario(8);
        let mut cfg = quick_cfg();
        cfg.frozen = true;
        let r = run(&s, "Tokyo", "Sao Paulo", &cfg, &Driver::default()).expect("known cities");
        assert_eq!(r.sim.stats.forwarding_updates, 0);
        assert_eq!(r.unused_bandwidth_series.len(), 10);
    }

    #[test]
    fn flows_avoid_observed_ground_stations() {
        let s = scenario(10);
        let r =
            run(&s, "Tokyo", "Sao Paulo", &quick_cfg(), &Driver::default()).expect("known cities");
        // 10 cities → permutation of 10 minus any pair touching the 2
        // observed GSes, plus the observed flow itself: at most 9.
        assert!(r.flows <= 9, "flows {}", r.flows);
    }

    #[test]
    fn fraction_metric_bounded() {
        let s = scenario(8);
        let r =
            run(&s, "Tokyo", "Sao Paulo", &quick_cfg(), &Driver::default()).expect("known cities");
        let f = r.fraction_time_unused_above(1.0 / 3.0);
        assert!((0.0..=1.0).contains(&f));
    }
}
