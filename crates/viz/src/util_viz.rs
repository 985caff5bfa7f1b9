//! Link-utilization maps (paper Figs. 14, 15).
//!
//! Consumes per-device utilization from the packet simulator and produces
//! map-renderable documents: every ISL with its endpoints' coordinates and
//! a utilization in `[0, 1]` (the paper colours heavily-utilized ISLs red
//! and thick). Includes helpers to rank hotspots — e.g. confirming the
//! trans-Atlantic congestion of Fig. 15.

use hypatia_netsim::device::DeviceKind;
use hypatia_netsim::Simulator;
use hypatia_orbit::frames::ecef_to_geodetic;
use hypatia_util::json::{json, Value};
use hypatia_util::SimTime;

/// One directed ISL with its utilization over a bucket.
#[derive(Debug, Clone)]
pub struct IslUtilization {
    /// Transmitting satellite.
    pub from_sat: usize,
    /// Receiving satellite.
    pub to_sat: usize,
    /// Transmitter utilization in `[0, 1]` for the requested bucket.
    pub utilization: f64,
    /// Transmitter coordinates at the snapshot instant (lat, lon).
    pub from_lat_lon: (f64, f64),
    /// Receiver coordinates (lat, lon).
    pub to_lat_lon: (f64, f64),
}

/// Collect the utilization of every directed ISL for utilization-bucket
/// `bucket_idx`, with node geometry evaluated at `geometry_t`. Requires the
/// simulator to have been built with utilization tracking.
pub fn isl_utilization_map(
    sim: &Simulator,
    bucket_idx: usize,
    geometry_t: SimTime,
) -> Vec<IslUtilization> {
    let c = sim.constellation();
    let mut out = Vec::new();
    for node in sim.nodes() {
        if !c.is_satellite(node.id) {
            continue;
        }
        for dev in &node.devices {
            let DeviceKind::Isl { peer } = dev.kind else { continue };
            let u = dev
                .utilization(bucket_idx)
                .expect("utilization tracking must be enabled for utilization maps");
            let from = ecef_to_geodetic(c.node_position_ecef(node.id, geometry_t));
            let to = ecef_to_geodetic(c.node_position_ecef(peer, geometry_t));
            out.push(IslUtilization {
                from_sat: node.id.index(),
                to_sat: peer.index(),
                utilization: u,
                from_lat_lon: (from.latitude_deg, from.longitude_deg),
                to_lat_lon: (to.latitude_deg, to.longitude_deg),
            });
        }
    }
    out
}

/// The `k` most utilized ISLs, descending (ties broken by satellite ids for
/// determinism).
pub fn top_hotspots(map: &[IslUtilization], k: usize) -> Vec<&IslUtilization> {
    let mut refs: Vec<&IslUtilization> = map.iter().collect();
    refs.sort_by(|a, b| {
        b.utilization
            .total_cmp(&a.utilization)
            .then(a.from_sat.cmp(&b.from_sat))
            .then(a.to_sat.cmp(&b.to_sat))
    });
    refs.truncate(k);
    refs
}

/// JSON document for map rendering; links with zero traffic are excluded
/// (as the paper's figures exclude "ISLs with no traffic").
pub fn to_json(map: &[IslUtilization]) -> Value {
    json!(map
        .iter()
        .filter(|l| l.utilization > 0.0)
        .map(|l| json!({
            "from_sat": l.from_sat,
            "to_sat": l.to_sat,
            "utilization": l.utilization,
            "from": {"lat": l.from_lat_lon.0, "lon": l.from_lat_lon.1},
            "to": {"lat": l.to_lat_lon.0, "lon": l.to_lat_lon.1},
        }))
        .collect::<Vec<_>>())
}

/// Mean utilization of the links whose transmitter longitude lies within
/// `[lon_min, lon_max]` — used to quantify regional hotspots (e.g. the
/// Atlantic corridor of Fig. 15).
pub fn mean_utilization_in_lon_band(
    map: &[IslUtilization],
    lon_min: f64,
    lon_max: f64,
) -> Option<f64> {
    let vals: Vec<f64> = map
        .iter()
        .filter(|l| l.from_lat_lon.1 >= lon_min && l.from_lat_lon.1 <= lon_max)
        .map(|l| l.utilization)
        .collect();
    if vals.is_empty() {
        return None;
    }
    Some(vals.iter().sum::<f64>() / vals.len() as f64)
}

/// Utilization summary of a constellation-wide map.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilizationSummary {
    /// Directed ISLs observed.
    pub links: usize,
    /// Links with nonzero traffic.
    pub active_links: usize,
    /// Mean utilization over all links.
    pub mean: f64,
    /// Maximum utilization.
    pub max: f64,
}

/// Summarize a utilization map.
pub fn summarize(map: &[IslUtilization]) -> UtilizationSummary {
    let links = map.len();
    let active_links = map.iter().filter(|l| l.utilization > 0.0).count();
    let mean = if links == 0 {
        0.0
    } else {
        map.iter().map(|l| l.utilization).sum::<f64>() / links as f64
    };
    let max = map.iter().map(|l| l.utilization).fold(0.0, f64::max);
    UtilizationSummary { links, active_links, mean, max }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypatia_constellation::ground::GroundStation;
    use hypatia_constellation::gsl::GslConfig;
    use hypatia_constellation::isl::IslLayout;
    use hypatia_constellation::shell::ShellSpec;
    use hypatia_constellation::Constellation;
    use hypatia_netsim::apps::udp::{UdpSink, UdpSource};
    use hypatia_netsim::SimConfig;
    use hypatia_util::{DataRate, SimDuration};
    use std::sync::Arc;

    fn run_sim() -> Simulator {
        let c = Arc::new(Constellation::build(
            "uv",
            vec![ShellSpec::new("A", 550.0, 10, 10, 53.0)],
            IslLayout::PlusGrid,
            vec![GroundStation::new("a", 5.0, 5.0), GroundStation::new("b", -15.0, 100.0)],
            GslConfig::new(10.0),
        ));
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let cfg = SimConfig::default()
            .with_link_rate(DataRate::from_mbps(10))
            .with_utilization_bucket(SimDuration::from_secs(1));
        let mut sim = Simulator::new(c, cfg, vec![src, dst]);
        sim.add_app(dst, 50, Box::new(UdpSink::new()));
        sim.add_app(
            src,
            50,
            Box::new(UdpSource::new(dst, 0, DataRate::from_mbps(8), 1440, SimTime::from_secs(5))),
        );
        sim.run_until(SimTime::from_secs(5));
        sim
    }

    #[test]
    fn map_covers_all_directed_isls() {
        let sim = run_sim();
        let map = isl_utilization_map(&sim, 2, SimTime::from_secs(2));
        // 100 satellites in +Grid → 200 undirected → 400 directed ISLs.
        assert_eq!(map.len(), 400);
        for l in &map {
            assert!((0.0..=1.0 + 1e-9).contains(&l.utilization));
            assert!((-90.0..=90.0).contains(&l.from_lat_lon.0));
        }
    }

    #[test]
    fn traffic_creates_hotspots() {
        let sim = run_sim();
        let map = isl_utilization_map(&sim, 2, SimTime::from_secs(2));
        let summary = summarize(&map);
        assert!(summary.active_links > 0, "no ISL carried traffic");
        assert!(
            summary.max > 0.5,
            "an 8 Mbps flow on 10 Mbps links should load some ISL: {summary:?}"
        );
        assert!(summary.active_links < summary.links, "not every link should be active");
    }

    #[test]
    fn hotspot_ranking_is_descending_and_deterministic() {
        let sim = run_sim();
        let map = isl_utilization_map(&sim, 2, SimTime::from_secs(2));
        let top = top_hotspots(&map, 10);
        assert_eq!(top.len(), 10);
        for w in top.windows(2) {
            assert!(w[0].utilization >= w[1].utilization);
        }
    }

    #[test]
    fn json_excludes_idle_links() {
        let sim = run_sim();
        let map = isl_utilization_map(&sim, 2, SimTime::from_secs(2));
        let v = to_json(&map);
        let active = summarize(&map).active_links;
        assert_eq!(v.as_array().unwrap().len(), active);
    }

    #[test]
    fn lon_band_filter() {
        let sim = run_sim();
        let map = isl_utilization_map(&sim, 2, SimTime::from_secs(2));
        let whole = mean_utilization_in_lon_band(&map, -180.0, 180.0).unwrap();
        let summary = summarize(&map);
        assert!((whole - summary.mean).abs() < 1e-12);
        assert!(
            mean_utilization_in_lon_band(&map, 179.99, 179.999).is_none()
                || mean_utilization_in_lon_band(&map, 179.99, 179.999).unwrap() >= 0.0
        );
    }
}
