//! K-shortest paths (Yen's algorithm) — the substrate for the multi-path
//! routing and traffic-engineering work the paper calls for (§5.4:
//! "substantial value in using non-shortest path and multi-path routing
//! across such busy regions"; §7 lists multi-path routing as future work).
//!
//! Loopless paths, deterministic order (by delay, then lexicographic).

use crate::dijkstra::{shortest_path_tree_into, DijkstraScratch, SpTree};
use crate::graph::{DelayGraph, Edge};
use std::collections::BinaryHeap;

/// A path with its total one-way delay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankedPath {
    /// Total delay, ns.
    pub delay_ns: u64,
    /// Node sequence (inclusive of both endpoints).
    pub nodes: Vec<u32>,
}

impl RankedPath {
    /// Hop count (edges).
    pub fn hops(&self) -> usize {
        self.nodes.len() - 1
    }
}

// Order candidates by (delay, nodes) for a deterministic K-set.
impl PartialOrd for RankedPath {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for RankedPath {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.delay_ns, &self.nodes).cmp(&(other.delay_ns, &other.nodes))
    }
}

/// A graph view with edges/nodes masked out (Yen's spur computation).
struct MaskedGraph<'a> {
    inner: &'a DelayGraph,
    banned_edges: Vec<(u32, u32)>,
    banned_nodes: Vec<u32>,
}

/// Reusable working memory for the spur-path searches — one allocation
/// set for all of Yen's inner Dijkstra runs instead of one per spur.
#[derive(Default)]
struct SpurScratch {
    dist: Vec<u64>,
    prev: Vec<Option<u32>>,
    settled: Vec<bool>,
    heap: BinaryHeap<std::cmp::Reverse<(u64, u32)>>,
}

impl MaskedGraph<'_> {
    fn edges(&self, u: u32) -> impl Iterator<Item = Edge> + '_ {
        let node_banned = self.banned_nodes.contains(&u);
        self.inner
            .edges(u as usize)
            .iter()
            .filter(move |e| {
                !node_banned
                    && !self.banned_nodes.contains(&e.to)
                    && !self.banned_edges.contains(&(u, e.to))
            })
            .copied()
    }

    /// Dijkstra from `src` to `dst` on the masked graph.
    fn shortest(&self, src: u32, dst: u32, s: &mut SpurScratch) -> Option<RankedPath> {
        let n = self.inner.num_nodes();
        s.dist.clear();
        s.dist.resize(n, u64::MAX);
        s.prev.clear();
        s.prev.resize(n, None);
        s.settled.clear();
        s.settled.resize(n, false);
        s.heap.clear();
        s.dist[src as usize] = 0;
        s.heap.push(std::cmp::Reverse((0, src)));
        while let Some(std::cmp::Reverse((d, u))) = s.heap.pop() {
            if s.settled[u as usize] {
                continue;
            }
            s.settled[u as usize] = true;
            if u == dst {
                break;
            }
            // Non-transit nodes (GS endpoints) terminate paths; the search
            // origin (spur node) is exempt.
            if u != src && !self.inner.may_transit(u as usize) {
                continue;
            }
            for e in self.edges(u) {
                let v = e.to as usize;
                let nd = d + u64::from(e.delay_ns);
                if nd < s.dist[v] || (nd == s.dist[v] && s.prev[v].is_some_and(|p| u < p)) {
                    s.dist[v] = nd;
                    s.prev[v] = Some(u);
                    s.heap.push(std::cmp::Reverse((nd, e.to)));
                }
            }
        }
        if s.dist[dst as usize] == u64::MAX {
            return None;
        }
        let mut nodes = vec![dst];
        let mut cur = dst;
        while cur != src {
            cur = s.prev[cur as usize].expect("path reconstruction");
            nodes.push(cur);
        }
        nodes.reverse();
        Some(RankedPath { delay_ns: s.dist[dst as usize], nodes })
    }
}

/// Yen's K shortest loopless paths from `src` to `dst`. Returns up to `k`
/// paths in ascending delay order (fewer when the graph has fewer).
pub fn k_shortest_paths(graph: &DelayGraph, src: u32, dst: u32, k: usize) -> Vec<RankedPath> {
    assert!(k >= 1, "k must be at least 1");
    let mut dijkstra = DijkstraScratch::default();
    let mut tree = SpTree::empty();
    shortest_path_tree_into(graph, dst, &mut dijkstra, &mut tree);
    let Some(first_nodes) = tree.path_from(src) else {
        return Vec::new();
    };
    let first =
        RankedPath { delay_ns: tree.distance_ns(src).expect("reachable"), nodes: first_nodes };

    let mut found = vec![first];
    // Min-heap of candidates (BinaryHeap is max; use Reverse).
    let mut candidates: BinaryHeap<std::cmp::Reverse<RankedPath>> = BinaryHeap::new();
    let mut spur_scratch = SpurScratch::default();

    for _ in 1..k {
        let last = found.last().expect("at least the shortest").clone();
        // Spur from every node of the previous path except the terminus.
        for i in 0..last.nodes.len() - 1 {
            let spur_node = last.nodes[i];
            let root = &last.nodes[..=i];

            // Ban the edges that would replicate already-found paths
            // sharing this root, and the root's interior nodes.
            let mut banned_edges = Vec::new();
            for p in &found {
                if p.nodes.len() > i && p.nodes[..=i] == *root {
                    if let Some(&next) = p.nodes.get(i + 1) {
                        banned_edges.push((spur_node, next));
                    }
                }
            }
            let banned_nodes: Vec<u32> = root[..i].to_vec();

            let masked = MaskedGraph { inner: graph, banned_edges, banned_nodes };
            if let Some(spur) = masked.shortest(spur_node, dst, &mut spur_scratch) {
                // Total = root delay + spur delay.
                let mut nodes = root[..i].to_vec();
                nodes.extend(&spur.nodes);
                let mut delay = spur.delay_ns;
                for w in root.windows(2) {
                    delay += graph
                        .edge_delay(w[0] as usize, w[1] as usize)
                        .expect("root edge exists")
                        .nanos();
                }
                let candidate = RankedPath { delay_ns: delay, nodes };
                if !found.contains(&candidate) {
                    candidates.push(std::cmp::Reverse(candidate));
                }
            }
        }
        // Next distinct best candidate.
        let mut next = None;
        while let Some(std::cmp::Reverse(c)) = candidates.pop() {
            if !found.contains(&c) {
                next = Some(c);
                break;
            }
        }
        match next {
            Some(c) => found.push(c),
            None => break,
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypatia_constellation::ground::GroundStation;
    use hypatia_constellation::gsl::GslConfig;
    use hypatia_constellation::isl::IslLayout;
    use hypatia_constellation::shell::ShellSpec;
    use hypatia_constellation::Constellation;
    use hypatia_util::SimTime;

    fn setup() -> (Constellation, DelayGraph, u32, u32) {
        let c = Constellation::build(
            "ksp",
            vec![ShellSpec::new("A", 550.0, 10, 10, 53.0)],
            IslLayout::PlusGrid,
            vec![GroundStation::new("a", 5.0, 5.0), GroundStation::new("b", -15.0, 100.0)],
            GslConfig::new(10.0),
        );
        let g = DelayGraph::snapshot(&c, SimTime::ZERO);
        let (src, dst) = (c.gs_node(0).0, c.gs_node(1).0);
        (c, g, src, dst)
    }

    #[test]
    fn first_path_is_the_shortest() {
        let (_, g, src, dst) = setup();
        let tree = crate::dijkstra::shortest_path_tree(&g, dst);
        let paths = k_shortest_paths(&g, src, dst, 1);
        assert_eq!(paths.len(), 1);
        assert_eq!(Some(paths[0].delay_ns), tree.distance_ns(src));
        assert_eq!(Some(paths[0].nodes.clone()), tree.path_from(src));
    }

    #[test]
    fn paths_are_sorted_and_distinct() {
        let (_, g, src, dst) = setup();
        let paths = k_shortest_paths(&g, src, dst, 6);
        assert!(paths.len() >= 3, "mesh should offer alternates, got {}", paths.len());
        for w in paths.windows(2) {
            assert!(w[0].delay_ns <= w[1].delay_ns, "not sorted");
            assert_ne!(w[0].nodes, w[1].nodes, "duplicate path");
        }
    }

    #[test]
    fn paths_are_loopless_and_valid() {
        let (_, g, src, dst) = setup();
        for p in k_shortest_paths(&g, src, dst, 5) {
            // No repeated nodes.
            let mut seen = std::collections::HashSet::new();
            for &n in &p.nodes {
                assert!(seen.insert(n), "loop at node {n} in {:?}", p.nodes);
            }
            // Every hop is an edge; delays sum correctly.
            let mut sum = 0;
            for w in p.nodes.windows(2) {
                sum += g
                    .edge_delay(w[0] as usize, w[1] as usize)
                    .expect("hop must be an edge")
                    .nanos();
            }
            assert_eq!(sum, p.delay_ns);
            assert_eq!(*p.nodes.first().unwrap(), src);
            assert_eq!(*p.nodes.last().unwrap(), dst);
        }
    }

    #[test]
    fn unreachable_returns_empty() {
        let c = Constellation::build(
            "kspx",
            vec![ShellSpec::new("A", 550.0, 4, 4, 53.0)],
            IslLayout::PlusGrid,
            vec![GroundStation::new("a", 0.0, 0.0), GroundStation::new("pole", 89.0, 0.0)],
            GslConfig::new(25.0),
        );
        let g = DelayGraph::snapshot(&c, SimTime::ZERO);
        let paths = k_shortest_paths(&g, c.gs_node(0).0, c.gs_node(1).0, 3);
        assert!(paths.is_empty());
    }

    #[test]
    fn deterministic() {
        let (_, g, src, dst) = setup();
        let a = k_shortest_paths(&g, src, dst, 4);
        let b = k_shortest_paths(&g, src, dst, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn second_path_close_to_first_in_dense_mesh() {
        // +Grid offers near-equal-cost alternates; the 2nd path should be
        // within 50% of the 1st (the TE opportunity the paper points to).
        let (_, g, src, dst) = setup();
        let paths = k_shortest_paths(&g, src, dst, 2);
        assert_eq!(paths.len(), 2);
        assert!(
            (paths[1].delay_ns as f64) < paths[0].delay_ns as f64 * 1.5,
            "2nd path {} vs 1st {}",
            paths[1].delay_ns,
            paths[0].delay_ns
        );
    }
}
