//! End-end path snapshots (paper Figs. 13, 16, 17).
//!
//! A path snapshot records the node sequence with geographic coordinates
//! and per-hop distances/delays, ready to be drawn on a map (the paper's
//! Paris–Luanda and Paris–Moscow illustrations).

use hypatia_constellation::{Constellation, NodeId};
use hypatia_orbit::frames::ecef_to_geodetic;
use hypatia_orbit::geodesy::propagation_delay_km;
use hypatia_util::json::{json, Value};
use hypatia_util::{SimDuration, SimTime};

/// One node on a path snapshot.
#[derive(Debug, Clone)]
pub struct PathNode {
    /// Node id.
    pub node: NodeId,
    /// Is it a satellite (vs ground station)?
    pub is_satellite: bool,
    /// Latitude at snapshot time.
    pub latitude_deg: f64,
    /// Longitude at snapshot time.
    pub longitude_deg: f64,
    /// Altitude, km.
    pub altitude_km: f64,
}

/// A geometric snapshot of one end-end path.
#[derive(Debug, Clone)]
pub struct PathSnapshot {
    /// Snapshot time.
    pub at: SimTime,
    /// Nodes along the path (inclusive of both ground stations).
    pub nodes: Vec<PathNode>,
    /// Per-hop distances, km.
    pub hop_distances_km: Vec<f64>,
    /// End-end RTT (twice the summed propagation delay).
    pub rtt: SimDuration,
}

impl PathSnapshot {
    /// Capture the geometry of `path` at time `t`.
    pub fn capture(constellation: &Constellation, path: &[NodeId], t: SimTime) -> PathSnapshot {
        assert!(path.len() >= 2, "path needs at least two nodes");
        let nodes: Vec<PathNode> = path
            .iter()
            .map(|&n| {
                let geo = ecef_to_geodetic(constellation.node_position_ecef(n, t));
                PathNode {
                    node: n,
                    is_satellite: constellation.is_satellite(n),
                    latitude_deg: geo.latitude_deg,
                    longitude_deg: geo.longitude_deg,
                    altitude_km: geo.altitude_km,
                }
            })
            .collect();
        let mut hop_distances_km = Vec::with_capacity(path.len() - 1);
        let mut one_way = SimDuration::ZERO;
        for w in path.windows(2) {
            let d = constellation.distance_km(w[0], w[1], t);
            one_way += propagation_delay_km(d);
            hop_distances_km.push(d);
        }
        PathSnapshot { at: t, nodes, hop_distances_km, rtt: one_way * 2 }
    }

    /// Number of hops (edges).
    pub fn hops(&self) -> usize {
        self.hop_distances_km.len()
    }

    /// Total path length, km.
    pub fn length_km(&self) -> f64 {
        self.hop_distances_km.iter().sum()
    }

    /// JSON export for map rendering.
    pub fn to_json(&self) -> Value {
        json!({
            "t": self.at.secs_f64(),
            "rtt_ms": self.rtt.secs_f64() * 1e3,
            "hops": self.hops(),
            "length_km": self.length_km(),
            "nodes": self.nodes.iter().map(|n| json!({
                "id": n.node.0,
                "satellite": n.is_satellite,
                "lat": n.latitude_deg,
                "lon": n.longitude_deg,
                "alt_km": n.altitude_km,
            })).collect::<Vec<_>>(),
            "hop_distances_km": self.hop_distances_km,
        })
    }

    /// Compact one-line description, e.g. for logs:
    /// `GS20 → sat5 → sat17 → GS21 (4 hops, 5932 km, RTT 41.2 ms)`.
    pub fn describe(&self) -> String {
        let names: Vec<String> = self
            .nodes
            .iter()
            .map(|n| {
                if n.is_satellite {
                    format!("sat{}", n.node.0)
                } else {
                    format!("GS{}", n.node.0)
                }
            })
            .collect();
        format!(
            "{} ({} hops, {:.0} km, RTT {:.1} ms)",
            names.join(" -> "),
            self.hops(),
            self.length_km(),
            self.rtt.secs_f64() * 1e3
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypatia_constellation::ground::GroundStation;
    use hypatia_constellation::gsl::GslConfig;
    use hypatia_constellation::isl::IslLayout;
    use hypatia_constellation::shell::ShellSpec;
    use hypatia_routing::forwarding::compute_forwarding_state;

    fn setup() -> (Constellation, Vec<NodeId>, SimTime) {
        let c = Constellation::build(
            "pv",
            vec![ShellSpec::new("A", 550.0, 10, 10, 53.0)],
            IslLayout::PlusGrid,
            vec![GroundStation::new("a", 5.0, 5.0), GroundStation::new("b", -15.0, 100.0)],
            GslConfig::new(10.0),
        );
        let t = SimTime::from_secs(10);
        let st = compute_forwarding_state(&c, t, &[c.gs_node(1)]);
        let path = st.path(c.gs_node(0), c.gs_node(1)).expect("connected");
        (c, path, t)
    }

    #[test]
    fn snapshot_captures_endpoints_and_hops() {
        let (c, path, t) = setup();
        let snap = PathSnapshot::capture(&c, &path, t);
        assert_eq!(snap.nodes.len(), path.len());
        assert!(!snap.nodes.first().unwrap().is_satellite);
        assert!(!snap.nodes.last().unwrap().is_satellite);
        assert!(snap.nodes[1..snap.nodes.len() - 1].iter().all(|n| n.is_satellite));
        assert_eq!(snap.hops(), path.len() - 1);
    }

    #[test]
    fn rtt_matches_distance_sum() {
        let (c, path, t) = setup();
        let snap = PathSnapshot::capture(&c, &path, t);
        let expect_ms = 2.0 * snap.length_km() / 299_792.458 * 1e3;
        assert!((snap.rtt.secs_f64() * 1e3 - expect_ms).abs() < 0.01);
    }

    #[test]
    fn satellite_altitudes_in_snapshot() {
        let (c, path, t) = setup();
        let snap = PathSnapshot::capture(&c, &path, t);
        for n in &snap.nodes {
            if n.is_satellite {
                assert!((n.altitude_km - 550.0).abs() < 1.0, "altitude {}", n.altitude_km);
            } else {
                // GSes sit on the ellipsoid: up to ~21 km below the
                // spherical reference radius used by ecef_to_geodetic.
                assert!((-25.0..1.0).contains(&n.altitude_km), "GS altitude {}", n.altitude_km);
            }
        }
    }

    #[test]
    fn json_and_description() {
        let (c, path, t) = setup();
        let snap = PathSnapshot::capture(&c, &path, t);
        let v = snap.to_json();
        assert_eq!(v["nodes"].as_array().unwrap().len(), path.len());
        assert!(v["rtt_ms"].as_f64().unwrap() > 0.0);
        let desc = snap.describe();
        assert!(desc.contains("GS") && desc.contains("sat"), "{desc}");
        assert!(desc.contains("RTT"));
    }

    #[test]
    fn longer_paths_have_higher_rtt() {
        // Snapshot RTT must be at least the straight-line (geodesic) RTT.
        let (c, path, t) = setup();
        let snap = PathSnapshot::capture(&c, &path, t);
        let geodesic = c.ground_stations[0].geodesic_rtt(&c.ground_stations[1]);
        assert!(snap.rtt >= geodesic);
    }
}
