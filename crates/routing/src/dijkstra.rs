//! Per-destination shortest-path trees.
//!
//! The paper computes all-pairs shortest paths with Floyd–Warshall; only
//! the paths *towards ground stations* ever matter for forwarding, so we
//! run one Dijkstra per destination instead — identical results (verified
//! against the test-only `floyd_warshall` module by property test) at a
//! fraction of the cost on constellation-scale graphs.
//!
//! Determinism: the heap orders by `(distance, node)`, and relaxation is
//! strict, so equal-cost ties always resolve towards the smaller node id
//! regardless of iteration order. The pair is packed into one `u64`
//! (`heap_key`) whose integer order is the pair's lexicographic order,
//! so a heap entry is one word and a sift compares one word.

use crate::graph::DelayGraph;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Distance sentinel for unreachable nodes.
pub const UNREACHABLE: u64 = u64::MAX;

/// Bits of a packed heap key that hold the node id: `2^24` ids, four
/// orders of magnitude above the largest constellation.
const KEY_ID_BITS: u32 = 24;

/// `(dist, id)` as one `u64`, `dist` in the high 40 bits: the integers
/// order exactly as the pairs do. A path delay of `2^40` ns (18 minutes)
/// or more is a broken snapshot, not an input to route on.
#[inline]
pub(crate) fn heap_key(dist: u64, id: u32) -> u64 {
    assert!(dist >> (64 - KEY_ID_BITS) == 0, "path delay {dist} ns exceeds a heap key's 2^40 ns");
    dist << KEY_ID_BITS | u64::from(id)
}

/// The `(dist, id)` a [`heap_key`] packed.
#[inline]
pub(crate) fn key_parts(key: u64) -> (u64, u32) {
    (key >> KEY_ID_BITS, (key & ((1 << KEY_ID_BITS) - 1)) as u32)
}

/// Panics unless every vertex id of an `n`-vertex graph fits a heap key.
pub(crate) fn check_key_ids(n: usize) {
    assert!(n <= 1 << KEY_ID_BITS, "graph of {n} vertices exceeds a heap key's 2^24 ids");
}

/// Result of a single-destination shortest-path computation.
#[derive(Debug, Clone)]
pub struct SpTree {
    /// The destination this tree routes towards.
    pub dst: u32,
    /// `dist_ns[v]` = shortest delay from `v` to `dst` (ns), or
    /// [`UNREACHABLE`].
    pub dist_ns: Vec<u64>,
    /// `next_hop[v]` = the neighbour `v` forwards to on its shortest path
    /// to `dst`; `None` if unreachable or `v == dst`.
    pub next_hop: Vec<Option<u32>>,
}

/// Reusable working memory for [`shortest_path_tree_into`]: the binary
/// heap and the settled bitmap survive across calls, so a per-destination
/// tree computation allocates nothing once the scratch has warmed up.
#[derive(Debug, Default)]
pub struct DijkstraScratch {
    settled: Vec<bool>,
    /// [`heap_key`]s.
    heap: BinaryHeap<Reverse<u64>>,
}

impl DijkstraScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SpTree {
    /// An empty tree, to be filled by [`shortest_path_tree_into`].
    pub fn empty() -> Self {
        SpTree { dst: 0, dist_ns: Vec::new(), next_hop: Vec::new() }
    }
}

/// Compute the shortest-path tree towards `dst`.
///
/// Because every edge in a [`DelayGraph`] is symmetric, running Dijkstra
/// *from* `dst` yields distances *to* `dst`, and each settled node's parent
/// is exactly its next hop towards `dst`.
pub fn shortest_path_tree(graph: &DelayGraph, dst: u32) -> SpTree {
    let mut scratch = DijkstraScratch::new();
    let mut tree = SpTree::empty();
    shortest_path_tree_into(graph, dst, &mut scratch, &mut tree);
    tree
}

/// As [`shortest_path_tree`], but reusing both the caller's scratch and
/// the output tree's buffers. Produces exactly the same tree.
pub fn shortest_path_tree_into(
    graph: &DelayGraph,
    dst: u32,
    scratch: &mut DijkstraScratch,
    out: &mut SpTree,
) {
    let n = graph.num_nodes();
    assert!((dst as usize) < n, "destination {dst} out of range");
    check_key_ids(n);
    out.dst = dst;
    out.dist_ns.clear();
    out.dist_ns.resize(n, UNREACHABLE);
    out.next_hop.clear();
    out.next_hop.resize(n, None);
    scratch.settled.clear();
    scratch.settled.resize(n, false);
    scratch.heap.clear();

    let dist = &mut out.dist_ns;
    let next_hop = &mut out.next_hop;
    let settled = &mut scratch.settled;
    let heap = &mut scratch.heap;
    dist[dst as usize] = 0;
    heap.push(Reverse(heap_key(0, dst)));

    while let Some(Reverse(key)) = heap.pop() {
        let (d, u) = key_parts(key);
        if settled[u as usize] {
            continue;
        }
        settled[u as usize] = true;
        // Endpoints terminate paths: a node that may not transit (a ground
        // station in an ISL constellation) is settled but never expanded,
        // except the tree's own destination.
        if u != dst && !graph.may_transit(u as usize) {
            continue;
        }
        for e in graph.edges(u as usize) {
            let v = e.to as usize;
            if settled[v] {
                continue;
            }
            let nd = d + u64::from(e.delay_ns);
            // Strict improvement, or equal-cost tie resolved towards the
            // smaller parent id for determinism (`v` is queued at `nd`
            // already: the next hop is all that changes).
            if nd < dist[v] {
                dist[v] = nd;
                // v's next hop towards dst is the node we relaxed from.
                next_hop[v] = Some(u);
                heap.push(Reverse(heap_key(nd, v as u32)));
            } else if nd == dist[v] && next_hop[v].is_some_and(|old| u < old) {
                next_hop[v] = Some(u);
            }
        }
    }
}

impl SpTree {
    /// Shortest one-way delay from `src` to the tree's destination, ns.
    pub fn distance_ns(&self, src: u32) -> Option<u64> {
        let d = self.dist_ns[src as usize];
        (d != UNREACHABLE).then_some(d)
    }

    /// Walk the tree from `src` to the destination. Returns `None` when
    /// `src` cannot reach it. The returned path includes both endpoints.
    pub fn path_from(&self, src: u32) -> Option<Vec<u32>> {
        if self.dist_ns[src as usize] == UNREACHABLE {
            return None;
        }
        let mut path = vec![src];
        let mut cur = src;
        while cur != self.dst {
            cur = self.next_hop[cur as usize]?;
            path.push(cur);
            assert!(path.len() <= self.dist_ns.len(), "next-hop cycle detected");
        }
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DelayGraph;
    use hypatia_constellation::ground::GroundStation;
    use hypatia_constellation::gsl::GslConfig;
    use hypatia_constellation::isl::IslLayout;
    use hypatia_constellation::shell::ShellSpec;
    use hypatia_constellation::Constellation;
    use hypatia_util::SimTime;

    fn constellation() -> Constellation {
        Constellation::build(
            "d",
            vec![ShellSpec::new("A", 550.0, 5, 6, 53.0)],
            IslLayout::PlusGrid,
            vec![
                GroundStation::new("a", 10.0, 10.0),
                GroundStation::new("b", -20.0, 120.0),
                GroundStation::new("pole", 89.0, 0.0),
            ],
            GslConfig::new(25.0),
        )
    }

    #[test]
    fn distance_to_self_is_zero() {
        let c = constellation();
        let g = DelayGraph::snapshot(&c, SimTime::ZERO);
        let dst = c.gs_node(0).0;
        let tree = shortest_path_tree(&g, dst);
        assert_eq!(tree.distance_ns(dst), Some(0));
        assert_eq!(tree.path_from(dst), Some(vec![dst]));
    }

    #[test]
    fn paths_are_consistent_with_distances() {
        let c = constellation();
        let g = DelayGraph::snapshot(&c, SimTime::ZERO);
        let dst = c.gs_node(1).0;
        let tree = shortest_path_tree(&g, dst);
        for src in 0..g.num_nodes() as u32 {
            if let Some(path) = tree.path_from(src) {
                // Sum the edge delays along the path; must equal dist.
                let mut sum = 0u64;
                for w in path.windows(2) {
                    sum += g
                        .edge_delay(w[0] as usize, w[1] as usize)
                        .expect("path uses a non-edge")
                        .nanos();
                }
                assert_eq!(Some(sum), tree.distance_ns(src), "src {src}");
            }
        }
    }

    #[test]
    fn unreachable_pole_gs() {
        let c = constellation();
        let g = DelayGraph::snapshot(&c, SimTime::ZERO);
        let pole = c.gs_node(2).0;
        let tree = shortest_path_tree(&g, c.gs_node(0).0);
        assert_eq!(
            tree.distance_ns(pole),
            None,
            "53°-inclination shell at l=25° must not reach 89°N"
        );
        assert_eq!(tree.path_from(pole), None);
    }

    #[test]
    fn triangle_inequality_over_tree() {
        // dist(u) ≤ dist(v) + w(u,v) for every edge — no relaxation missed.
        let c = constellation();
        let g = DelayGraph::snapshot(&c, SimTime::from_secs(30));
        let tree = shortest_path_tree(&g, c.gs_node(0).0);
        for u in 0..g.num_nodes() {
            for e in g.edges(u) {
                let du = tree.dist_ns[u];
                let dv = tree.dist_ns[e.to as usize];
                if dv != UNREACHABLE {
                    assert!(
                        du <= dv + u64::from(e.delay_ns),
                        "violated at edge {u}->{}: {du} > {dv}+{}",
                        e.to,
                        e.delay_ns
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let c = constellation();
        let g = DelayGraph::snapshot(&c, SimTime::from_millis(700));
        let a = shortest_path_tree(&g, c.gs_node(1).0);
        let b = shortest_path_tree(&g, c.gs_node(1).0);
        assert_eq!(a.dist_ns, b.dist_ns);
        assert_eq!(a.next_hop, b.next_hop);
    }

    #[test]
    fn heap_keys_order_exactly_as_the_pairs_they_pack() {
        let mut rng = hypatia_util::rng::DetRng::new(0x4ea9);
        let draw = |rng: &mut hypatia_util::rng::DetRng| {
            let dist = [0, 1, (1 << 40) - 1, rng.next_below(1 << 40)][rng.next_below(4) as usize];
            let id = [0, 1, (1 << 24) - 1, rng.next_below(1 << 24)][rng.next_below(4) as usize];
            (dist, id as u32)
        };
        for case in 0..4096 {
            let (a, b) = (draw(&mut rng), draw(&mut rng));
            let (ka, kb) = (heap_key(a.0, a.1), heap_key(b.0, b.1));
            assert_eq!(key_parts(ka), a, "case {case}");
            assert_eq!(ka.cmp(&kb), a.cmp(&b), "case {case}: {a:?} vs {b:?}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds a heap key's 2^40 ns")]
    fn a_path_delay_beyond_the_heap_key_is_rejected_not_truncated() {
        heap_key(1 << 40, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds a heap key's 2^24 ids")]
    fn a_graph_beyond_the_heap_key_ids_is_rejected() {
        check_key_ids((1 << 24) + 1);
    }

    #[test]
    fn symmetric_pair_distances_match() {
        // dist(a→b) must equal dist(b→a) in a symmetric graph.
        let c = constellation();
        let g = DelayGraph::snapshot(&c, SimTime::ZERO);
        let (na, nb) = (c.gs_node(0).0, c.gs_node(1).0);
        let ta = shortest_path_tree(&g, na);
        let tb = shortest_path_tree(&g, nb);
        assert_eq!(ta.distance_ns(nb), tb.distance_ns(na));
    }
}
