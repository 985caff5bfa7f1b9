//! Loop-free multipath forwarding (downhill alternates).
//!
//! The paper's §5.4/§6 takeaway is that single shortest-path routing
//! concentrates traffic ("there will be substantial value in using
//! non-shortest path and multi-path routing across such busy regions").
//! This module computes, per node and destination, the set of *downhill
//! alternates*: neighbours strictly closer to the destination whose total
//! detour stays within a stretch bound. Forwarding over any mix of
//! downhill alternates is loop-free by construction — every hop strictly
//! decreases the remaining distance — so flows can be spread (e.g. by
//! flow hash) without any inter-node coordination.

use crate::dijkstra::{shortest_path_tree_into, DijkstraScratch, SpTree, UNREACHABLE};
use crate::graph::DelayGraph;

/// Per-destination alternate sets layered over a shortest-path tree.
#[derive(Debug, Clone)]
pub struct MultipathTree {
    /// The underlying shortest-path tree.
    pub tree: SpTree,
    /// `alternates[v]`: neighbours of `v` that are strictly closer to the
    /// destination, with `w(v,n) + dist(n) ≤ stretch · dist(v)`. Sorted by
    /// resulting path delay (the primary next hop first). Empty when
    /// unreachable or `v` is the destination.
    pub alternates: Vec<Vec<u32>>,
    /// The stretch bound used.
    pub stretch: f64,
}

/// Compute downhill alternates towards `dst` with the given `stretch`
/// (≥ 1.0; 1.0 admits only exact ties with the shortest path).
pub fn multipath_tree(graph: &DelayGraph, dst: u32, stretch: f64) -> MultipathTree {
    multipath_tree_with(graph, dst, stretch, &mut DijkstraScratch::new())
}

/// As [`multipath_tree`], reusing the caller's Dijkstra scratch — the
/// per-destination loop of a multipath forwarding state shares one heap.
pub fn multipath_tree_with(
    graph: &DelayGraph,
    dst: u32,
    stretch: f64,
    scratch: &mut DijkstraScratch,
) -> MultipathTree {
    assert!(stretch >= 1.0, "stretch must be ≥ 1.0: {stretch}");
    let mut tree = SpTree::empty();
    shortest_path_tree_into(graph, dst, scratch, &mut tree);
    let n = graph.num_nodes();
    let mut alternates: Vec<Vec<u32>> = vec![Vec::new(); n];

    for (v, slot) in alternates.iter_mut().enumerate() {
        let dv = tree.dist_ns[v];
        if dv == UNREACHABLE || v as u32 == dst {
            continue;
        }
        let budget = (dv as f64 * stretch).floor() as u64;
        let mut cands: Vec<(u64, u32)> = Vec::new();
        for e in graph.edges(v) {
            let dn = tree.dist_ns[e.to as usize];
            if dn == UNREACHABLE {
                continue;
            }
            // Downhill: the neighbour must be strictly closer (loop
            // freedom); the path through it must respect the stretch.
            if dn < dv && u64::from(e.delay_ns) + dn <= budget {
                // A non-transit neighbour (GS endpoint) can only be the
                // destination itself, which the dn < dv check admits.
                if e.to == dst || graph.may_transit(e.to as usize) {
                    cands.push((u64::from(e.delay_ns) + dn, e.to));
                }
            }
        }
        cands.sort_unstable();
        *slot = cands.into_iter().map(|(_, to)| to).collect();
    }

    MultipathTree { tree, alternates, stretch }
}

impl MultipathTree {
    /// The alternates of `node` (primary next hop first).
    pub fn alternates(&self, node: u32) -> &[u32] {
        &self.alternates[node as usize]
    }

    /// Pick an alternate for a flow identified by `flow_hash` (stable
    /// per-flow choice avoids intra-flow reordering). Falls back to the
    /// tree's next hop when no alternate qualifies.
    pub fn pick(&self, node: u32, flow_hash: u64) -> Option<u32> {
        let alts = self.alternates(node);
        if alts.is_empty() {
            return self.tree.next_hop[node as usize];
        }
        Some(alts[(flow_hash % alts.len() as u64) as usize])
    }
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
            "mp",
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
    fn primary_next_hop_is_always_an_alternate() {
        let (_, g, _, dst) = setup();
        let mp = multipath_tree(&g, dst, 1.3);
        for v in 0..g.num_nodes() as u32 {
            if let Some(primary) = mp.tree.next_hop[v as usize] {
                if v == dst {
                    continue;
                }
                assert!(
                    mp.alternates(v).contains(&primary),
                    "node {v}: primary {primary} missing from {:?}",
                    mp.alternates(v)
                );
                // And it is the first (cheapest) entry.
                assert_eq!(mp.alternates(v)[0], primary);
            }
        }
    }

    #[test]
    fn alternates_strictly_decrease_distance() {
        let (_, g, _, dst) = setup();
        let mp = multipath_tree(&g, dst, 1.5);
        for v in 0..g.num_nodes() {
            for &a in mp.alternates(v as u32) {
                assert!(
                    mp.tree.dist_ns[a as usize] < mp.tree.dist_ns[v],
                    "alternate {a} of {v} not downhill"
                );
            }
        }
    }

    #[test]
    fn any_alternate_walk_terminates_within_stretch() {
        // Follow the *worst* alternate at every hop: the walk must reach
        // dst (loop-freedom) and its total delay must respect the per-hop
        // budget composition.
        let (_, g, src, dst) = setup();
        let stretch = 1.25;
        let mp = multipath_tree(&g, dst, stretch);
        if mp.tree.dist_ns[src as usize] == UNREACHABLE {
            return;
        }
        let mut cur = src;
        let mut total = 0u64;
        let mut hops = 0;
        while cur != dst {
            let alts = mp.alternates(cur);
            assert!(!alts.is_empty(), "stuck at {cur}");
            let worst = *alts.last().unwrap();
            total += g.edge_delay(cur as usize, worst as usize).unwrap().nanos();
            cur = worst;
            hops += 1;
            assert!(hops <= g.num_nodes(), "loop detected");
        }
        // Downhill + stretch at every hop bounds the whole walk by
        // stretch × shortest.
        let shortest = mp.tree.dist_ns[src as usize];
        assert!(
            total as f64 <= shortest as f64 * stretch + 1.0,
            "walk {total} vs bound {}",
            shortest as f64 * stretch
        );
    }

    #[test]
    fn stretch_one_yields_only_shortest_paths() {
        let (_, g, _, dst) = setup();
        let mp = multipath_tree(&g, dst, 1.0);
        for v in 0..g.num_nodes() {
            for &a in mp.alternates(v as u32) {
                let through =
                    g.edge_delay(v, a as usize).unwrap().nanos() + mp.tree.dist_ns[a as usize];
                assert_eq!(through, mp.tree.dist_ns[v], "non-shortest alternate at stretch 1");
            }
        }
    }

    #[test]
    fn larger_stretch_offers_at_least_as_many_alternates() {
        let (_, g, _, dst) = setup();
        let tight = multipath_tree(&g, dst, 1.05);
        let loose = multipath_tree(&g, dst, 1.5);
        let count = |mp: &MultipathTree| -> usize {
            (0..g.num_nodes()).map(|v| mp.alternates(v as u32).len()).sum()
        };
        assert!(count(&loose) >= count(&tight));
        assert!(count(&loose) > count(&tight), "stretch 1.5 should unlock alternates");
    }

    #[test]
    fn pick_is_flow_stable_and_falls_back() {
        let (_, g, src, dst) = setup();
        let mp = multipath_tree(&g, dst, 1.3);
        let a = mp.pick(src, 12345);
        let b = mp.pick(src, 12345);
        assert_eq!(a, b, "same flow must pick the same alternate");
        assert!(a.is_some());
        // dst itself has no alternates and no next hop.
        assert_eq!(mp.pick(dst, 1), None);
    }

    #[test]
    fn ground_stations_are_not_alternates() {
        let (c, g, _, dst) = setup();
        let mp = multipath_tree(&g, dst, 2.0);
        for v in 0..g.num_nodes() {
            for &a in mp.alternates(v as u32) {
                assert!(
                    a == dst || c.is_satellite(hypatia_constellation::NodeId(a)),
                    "GS {a} offered as transit alternate"
                );
            }
        }
    }
}
