//! Figs. 10, 14, 15 — cross-traffic, unused bandwidth, and utilization.
//!
//! Long-running TCP flows between a random permutation of the ground
//! stations (the paper's §5.4 workload), plus one flow per observed pair.
//! For an observed pair, [`CrossTrafficResult::unused_bandwidth`] gives the
//! per-second "unused bandwidth": path capacity minus the utilization of
//! the most congested on-path link. The same run yields the
//! constellation-wide ISL utilization that Figs. 14/15 visualize.
//!
//! Simplification vs the paper: the paper removes permutation pairs that
//! ever share a source/destination *satellite* with the observed pair; we
//! remove pairs that share a *ground station* with any observed pair. Both
//! serve the same purpose — keeping each observed pair's first and last
//! hop free of other flows — and ours is time-invariant, hence reproducible
//! independent of geometry. Two observed pairs that shared a ground station
//! would load each other's first or last hop, so [`run`] refuses them.

use crate::experiments::pair_slug;
use crate::resilience::{Driver, SimRun};
use crate::runner::RunError;
use crate::scenario::Scenario;
use hypatia_constellation::NodeId;
use hypatia_netsim::Simulator;
use hypatia_routing::parallel::{sweep_forwarding_states, SnapshotWorker};
use hypatia_transport::{NewReno, TcpConfig, TcpSender, TcpSink};
use hypatia_util::{SimDuration, SimTime};

/// Outcome: the simulator, for per-pair bandwidth series and
/// utilization-map post-processing à la Figs. 14/15.
pub struct CrossTrafficResult {
    /// The simulator after the run (device utilization buckets populated).
    pub sim: Simulator,
    /// The simulated horizon.
    pub duration: SimDuration,
    /// Network-wide goodput, Mbit/s.
    pub total_goodput_mbps: f64,
    /// Number of flows installed, observed ones included.
    pub flows: usize,
    /// The driven simulation: events, wall clock, engine report.
    pub run: SimRun,
}

impl CrossTrafficResult {
    /// `(t s, unused bandwidth Mbit/s)` of `src → dst` per utilization
    /// bucket: capacity minus the bottleneck utilization of the path in
    /// force at the bucket's start (at t = 0 throughout if the run was
    /// frozen); NaN when the pair had no path.
    pub fn unused_bandwidth(
        &self,
        scenario: &Scenario,
        src: NodeId,
        dst: NodeId,
    ) -> Vec<(f64, f64)> {
        let config = self.sim.config();
        let bucket = config.utilization_bucket.expect("utilization tracking enabled");
        let cap_mbps = config.link_rate.mbps_f64();
        // A frozen run keeps its t = 0 paths in every bucket.
        let step = if config.freeze_at_epoch { SimDuration::ZERO } else { bucket };
        let times: Vec<SimTime> =
            (0..self.duration / bucket).map(|k| SimTime::ZERO + step * k).collect();
        let mut series = Vec::with_capacity(times.len());
        let worker = || SnapshotWorker::with_config(scenario.sim_config.routing);
        let (c, dests) = (&scenario.constellation, [dst]);
        sweep_forwarding_states(worker, c, &times, &dests, None, 1, |k, (state, _)| {
            let point = match state.path(src, dst) {
                Some(path) => cap_mbps * (1.0 - self.sim.path_bottleneck_utilization(&path, k)),
                None => f64::NAN,
            };
            series.push(((k as u64 * bucket.nanos()) as f64 / 1e9, point));
        });
        series
    }
}

/// Fraction of the connected points of an unused-bandwidth `series` with
/// more than `frac` of `cap_mbps` unused — the paper's headline "31% of
/// the time, more than a third of the capacity is unused" metric.
pub fn fraction_time_unused_above(series: &[(f64, f64)], cap_mbps: f64, frac: f64) -> f64 {
    let connected: Vec<f64> = series.iter().map(|&(_, u)| u).filter(|u| u.is_finite()).collect();
    if connected.is_empty() {
        return 0.0;
    }
    connected.iter().filter(|&&u| u > cap_mbps * frac).count() as f64 / connected.len() as f64
}

/// Run cross-traffic on `scenario` for `duration`, observing the named
/// `observed` pairs: frozen at t = 0 (the paper's static baseline) if
/// `frozen`, on loop-free multipath at `multipath_stretch` if given.
///
/// The flows are the observed pairs first, in list order, then every
/// permutation pair (seeded by `seed`) that touches none of their ground
/// stations. The
/// observed pairs must be non-empty and share no ground station
/// (`RunError::BadSpec` otherwise). The simulation is driven by `driver`
/// under the snapshot tag `<frozen|dynamic>[_mp<stretch>]_<first pair>`;
/// [`CrossTrafficResult::unused_bandwidth`] and the utilization maps need
/// the scenario's sim config to have a utilization bucket (1 s reproduces
/// the paper's measurement granularity).
pub fn run(
    scenario: &Scenario,
    observed: &[(String, String)],
    duration: SimDuration,
    seed: u64,
    frozen: bool,
    multipath_stretch: Option<f64>,
    driver: &Driver,
) -> Result<CrossTrafficResult, RunError> {
    let mut names: Vec<&str> =
        observed.iter().flat_map(|(s, d)| [s.as_str(), d.as_str()]).collect();
    names.sort_unstable();
    names.dedup();
    if names.is_empty() || names.len() != 2 * observed.len() {
        return Err(RunError::BadSpec(format!(
            "cross-traffic needs observed pairs that share no ground station, got {observed:?}"
        )));
    }
    let mut flows = Vec::new();
    for (src, dst) in observed {
        flows.push((scenario.gs_by_name(src)?, scenario.gs_by_name(dst)?));
    }
    let ends: Vec<NodeId> = flows.iter().flat_map(|&(s, d)| [s, d]).collect();
    for (i, j) in scenario.permutation_pairs(seed) {
        let (s, d) = (scenario.gs(i), scenario.gs(j));
        if !ends.contains(&s) && !ends.contains(&d) {
            flows.push((s, d));
        }
    }

    let mut dests: Vec<NodeId> = flows.iter().map(|&(_, d)| d).collect();
    dests.extend(flows.iter().map(|&(s, _)| s)); // ACK routing
    dests.sort_unstable_by_key(|n| n.0);
    dests.dedup();

    let mut sim_config = scenario.sim_config.clone();
    sim_config.freeze_at_epoch |= frozen;
    sim_config.multipath_stretch = multipath_stretch;
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

    let mp = multipath_stretch.map_or(String::new(), |s| format!("_mp{s}"));
    let network = if frozen { "frozen" } else { "dynamic" };
    let tag = format!("{network}{mp}_{}", pair_slug(&observed[0].0, &observed[0].1));
    let run = SimRun::drive(&mut sim, SimTime::ZERO + duration, &tag, driver)?;

    let total_goodput_mbps =
        sim.stats.payload_bytes_delivered as f64 * 8.0 / duration.secs_f64() / 1e6;
    Ok(CrossTrafficResult { sim, duration, total_goodput_mbps, flows: flows.len(), run })
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

    const SEED: u64 = 7;

    fn pairs(names: &[(&str, &str)]) -> Vec<(String, String)> {
        names.iter().map(|&(s, d)| (s.to_string(), d.to_string())).collect()
    }

    /// `observed` for `secs` on the dynamic single-path network.
    fn dynamic(
        s: &Scenario,
        observed: &[(String, String)],
        secs: u64,
    ) -> Result<CrossTrafficResult, RunError> {
        run(s, observed, SimDuration::from_secs(secs), SEED, false, None, &Driver::default())
    }

    /// Tokyo → Sao Paulo for 10 s, frozen or on multipath as given.
    fn quick(s: &Scenario, frozen: bool, multipath_stretch: Option<f64>) -> CrossTrafficResult {
        let observed = pairs(&[("Tokyo", "Sao Paulo")]);
        let secs = SimDuration::from_secs(10);
        run(s, &observed, secs, SEED, frozen, multipath_stretch, &Driver::default())
            .expect("known cities")
    }

    fn tokyo_sao_paulo(s: &Scenario, r: &CrossTrafficResult) -> Vec<(f64, f64)> {
        let (src, dst) = (s.gs_by_name("Tokyo").unwrap(), s.gs_by_name("Sao Paulo").unwrap());
        r.unused_bandwidth(s, src, dst)
    }

    #[test]
    fn multipath_runs_and_delivers() {
        let s = scenario(10);
        let r = quick(&s, false, Some(1.2));
        assert!(r.total_goodput_mbps > 5.0, "multipath goodput {}", r.total_goodput_mbps);
    }

    #[test]
    fn observed_pair_series_has_one_point_per_second() {
        let s = scenario(10);
        let r = quick(&s, false, None);
        let series = tokyo_sao_paulo(&s, &r);
        assert_eq!(series.len(), 10);
        for &(_, u) in &series {
            assert!(u.is_nan() || (-0.01..=10.01).contains(&u), "unused {u}");
        }
        assert!(r.flows >= 2, "observed + cross flows");
    }

    #[test]
    fn cross_traffic_consumes_bandwidth() {
        let s = scenario(10);
        let r = quick(&s, false, None);
        assert!(r.total_goodput_mbps > 5.0, "goodput {}", r.total_goodput_mbps);
        // Some second must see congestion (unused < capacity).
        let min_unused = tokyo_sao_paulo(&s, &r)
            .iter()
            .map(|&(_, u)| u)
            .filter(|u| u.is_finite())
            .fold(f64::INFINITY, f64::min);
        assert!(min_unused < 9.0, "no link ever utilized? min unused {min_unused}");
    }

    #[test]
    fn frozen_baseline_runs() {
        let s = scenario(8);
        let r = quick(&s, true, None);
        assert_eq!(r.sim.stats.forwarding_updates, 0);
        assert_eq!(tokyo_sao_paulo(&s, &r).len(), 10);
    }

    #[test]
    fn flows_avoid_observed_ground_stations() {
        let s = scenario(10);
        let r = quick(&s, false, None);
        // 10 cities → permutation of 10 minus any pair touching the 2
        // observed GSes, plus the observed flow itself: at most 9.
        assert!(r.flows <= 9, "flows {}", r.flows);
    }

    /// With two observed pairs, every permutation pair touching any of the
    /// four stations is dropped.
    #[test]
    fn flows_avoid_every_observed_pair() {
        let s = scenario(10);
        let observed = pairs(&[("Tokyo", "Sao Paulo"), ("Cairo", "Delhi")]);
        let ends: Vec<NodeId> =
            ["Tokyo", "Sao Paulo", "Cairo", "Delhi"].map(|n| s.gs_by_name(n).unwrap()).to_vec();
        let untouched = s
            .permutation_pairs(SEED)
            .into_iter()
            .filter(|&(i, j)| !ends.contains(&s.gs(i)) && !ends.contains(&s.gs(j)))
            .count();
        let two = dynamic(&s, &observed, 1).expect("disjoint pairs");
        assert_eq!(two.flows, 2 + untouched);
    }

    #[test]
    fn observed_pairs_sharing_a_ground_station_are_refused() {
        let s = scenario(10);
        for observed in [
            pairs(&[("Tokyo", "Cairo"), ("Osaka", "Cairo")]),
            pairs(&[("Tokyo", "Cairo"), ("Cairo", "Delhi")]),
            pairs(&[]),
        ] {
            let r = dynamic(&s, &observed, 1);
            assert!(matches!(r, Err(RunError::BadSpec(_))), "{observed:?}");
        }
    }

    #[test]
    fn fraction_metric_bounded() {
        let s = scenario(8);
        let r = quick(&s, false, None);
        let f = fraction_time_unused_above(&tokyo_sao_paulo(&s, &r), 10.0, 1.0 / 3.0);
        assert!((0.0..=1.0).contains(&f));
        // Connected points strictly above the threshold, over connected points.
        let series = [(0.0, 10.0), (1.0, 5.0), (2.0, f64::NAN), (3.0, 2.0), (4.0, 5.0)];
        assert_eq!(fraction_time_unused_above(&series, 10.0, 0.5), 0.25);
        assert_eq!(fraction_time_unused_above(&[(0.0, f64::NAN)], 10.0, 0.5), 0.0);
    }
}
