//! Floyd–Warshall all-pairs shortest paths — the paper's algorithm.
//!
//! Hypatia's networkx module computes forwarding state with Floyd–Warshall.
//! We keep it as a validation oracle for the Dijkstra trees used at scale
//! (the module is compiled for tests only). O(n³) time and O(n²) memory:
//! fine for hundreds of nodes, not for thousands.

use crate::dijkstra::UNREACHABLE;
use crate::graph::DelayGraph;

/// All-pairs shortest paths with next-hop reconstruction.
#[derive(Debug, Clone)]
pub struct AllPairs {
    n: usize,
    /// Row-major `dist[u*n + v]`, ns; [`UNREACHABLE`] when disconnected.
    dist_ns: Vec<u64>,
    /// Row-major `next[u*n + v]`: u's next hop towards v, `u32::MAX` = none.
    next: Vec<u32>,
}

const NO_HOP: u32 = u32::MAX;

/// Run Floyd–Warshall over a snapshot graph.
pub fn floyd_warshall(graph: &DelayGraph) -> AllPairs {
    let n = graph.num_nodes();
    let mut dist = vec![UNREACHABLE; n * n];
    let mut next = vec![NO_HOP; n * n];

    for u in 0..n {
        dist[u * n + u] = 0;
        for e in graph.edges(u) {
            let v = e.to as usize;
            // Parallel edges: keep the cheaper one.
            if u64::from(e.delay_ns) < dist[u * n + v] {
                dist[u * n + v] = u64::from(e.delay_ns);
                next[u * n + v] = e.to;
            }
        }
    }

    for k in 0..n {
        // A node that may not transit can never be the interior pivot of a
        // path (ground stations in ISL constellations are endpoints only).
        if !graph.may_transit(k) {
            continue;
        }
        for u in 0..n {
            let duk = dist[u * n + k];
            if duk == UNREACHABLE {
                continue;
            }
            for v in 0..n {
                let dkv = dist[k * n + v];
                if dkv == UNREACHABLE {
                    continue;
                }
                let through = duk + dkv;
                let cur = dist[u * n + v];
                // Strict improvement, or deterministic tie-break towards
                // the smaller first hop (matching the Dijkstra trees).
                if through < cur || (through == cur && next[u * n + k] < next[u * n + v]) {
                    dist[u * n + v] = through;
                    next[u * n + v] = next[u * n + k];
                }
            }
        }
    }

    AllPairs { n, dist_ns: dist, next }
}

impl AllPairs {
    /// Shortest delay from `u` to `v`, ns.
    pub fn distance_ns(&self, u: u32, v: u32) -> Option<u64> {
        let d = self.dist_ns[u as usize * self.n + v as usize];
        (d != UNREACHABLE).then_some(d)
    }

    /// `u`'s next hop towards `v`.
    pub fn next_hop(&self, u: u32, v: u32) -> Option<u32> {
        if u == v {
            return None;
        }
        let h = self.next[u as usize * self.n + v as usize];
        (h != NO_HOP).then_some(h)
    }

    /// Reconstruct the full path from `u` to `v` (inclusive of endpoints).
    pub fn path(&self, u: u32, v: u32) -> Option<Vec<u32>> {
        if u == v {
            return Some(vec![u]);
        }
        self.distance_ns(u, v)?;
        let mut path = vec![u];
        let mut cur = u;
        while cur != v {
            cur = self.next_hop(cur, v)?;
            path.push(cur);
            assert!(path.len() <= self.n, "next-hop cycle");
        }
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::shortest_path_tree;
    use crate::graph::DelayGraph;
    use hypatia_constellation::ground::GroundStation;
    use hypatia_constellation::gsl::GslConfig;
    use hypatia_constellation::isl::IslLayout;
    use hypatia_constellation::shell::ShellSpec;
    use hypatia_constellation::Constellation;
    use hypatia_util::rng::DetRng;
    use hypatia_util::SimTime;

    fn build(orbits: u32, per: u32, t_secs: u64) -> (Constellation, DelayGraph) {
        let c = Constellation::build(
            "fw",
            vec![ShellSpec::new("A", 550.0, orbits, per, 53.0)],
            IslLayout::PlusGrid,
            vec![GroundStation::new("a", 0.0, 0.0), GroundStation::new("b", 30.0, 100.0)],
            GslConfig::new(25.0),
        );
        let g = DelayGraph::snapshot(&c, SimTime::from_secs(t_secs));
        (c, g)
    }

    #[test]
    fn self_distance_zero() {
        let (_, g) = build(3, 4, 0);
        let ap = floyd_warshall(&g);
        for u in 0..g.num_nodes() as u32 {
            assert_eq!(ap.distance_ns(u, u), Some(0));
            assert_eq!(ap.next_hop(u, u), None);
        }
    }

    #[test]
    fn distances_symmetric() {
        let (_, g) = build(4, 5, 13);
        let ap = floyd_warshall(&g);
        for u in 0..g.num_nodes() as u32 {
            for v in 0..g.num_nodes() as u32 {
                assert_eq!(ap.distance_ns(u, v), ap.distance_ns(v, u), "{u} {v}");
            }
        }
    }

    #[test]
    fn path_reconstruction_sums_to_distance() {
        let (_, g) = build(4, 4, 5);
        let ap = floyd_warshall(&g);
        for u in 0..g.num_nodes() as u32 {
            for v in 0..g.num_nodes() as u32 {
                if let Some(path) = ap.path(u, v) {
                    let mut sum = 0u64;
                    for w in path.windows(2) {
                        sum += g.edge_delay(w[0] as usize, w[1] as usize).unwrap().nanos();
                    }
                    assert_eq!(Some(sum), ap.distance_ns(u, v));
                }
            }
        }
    }

    /// The crucial equivalence: Floyd–Warshall ≡ per-destination Dijkstra.
    /// This validates replacing the paper's algorithm at scale.
    #[test]
    fn agrees_with_dijkstra() {
        for t in [0u64, 30, 120] {
            let (_, g) = build(5, 6, t);
            let ap = floyd_warshall(&g);
            for dst in 0..g.num_nodes() as u32 {
                let tree = shortest_path_tree(&g, dst);
                for src in 0..g.num_nodes() as u32 {
                    assert_eq!(
                        tree.distance_ns(src),
                        ap.distance_ns(src, dst),
                        "src {src} dst {dst} t {t}"
                    );
                }
            }
        }
    }

    /// Random shell geometries: distances agree between both algorithms.
    #[test]
    fn dijkstra_equivalence_random() {
        for seed in 0..8 {
            let mut rng = DetRng::new(seed);
            let (orbits, per) = (2 + rng.next_below(4) as u32, 3 + rng.next_below(4) as u32);
            let (c, g) = build(orbits, per, rng.next_below(5000));
            let ap = floyd_warshall(&g);
            for gs in 0..c.num_ground_stations() {
                let dst = c.gs_node(gs).0;
                let tree = shortest_path_tree(&g, dst);
                for src in 0..g.num_nodes() as u32 {
                    assert_eq!(
                        tree.distance_ns(src),
                        ap.distance_ns(src, dst),
                        "seed {seed}: src {src} dst {dst}"
                    );
                }
            }
        }
    }
}
