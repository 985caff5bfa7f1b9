//! Forwarding state at a time-step.
//!
//! The simulator consumes, per time-step, a map `(node, destination) →
//! next hop` restricted to the destinations that actually terminate
//! traffic. Any routing strategy expressible as static routes fits this
//! shape (paper §3.1); the default is shortest-delay via per-destination
//! Dijkstra trees.
//!
//! Over time the product steps a [`crate::parallel::SnapshotWorker`];
//! [`compute_forwarding_state`] and [`compute_forwarding_state_into`]
//! run full Dijkstra on one snapshot — the oracle repair is tested
//! against, and the look-up for a single instant.

use crate::dijkstra::{shortest_path_tree_into, DijkstraScratch, SpTree, NO_HOP, UNREACHABLE};
use crate::graph::DelayGraph;
use crate::multipath::MultipathTree;
use hypatia_constellation::{Constellation, NodeId};
use hypatia_util::{SimDuration, SimTime};
use std::fmt;

/// A typed "no route" error: `dst` cannot be reached from `src` in the
/// snapshot a lookup was made against (or `dst` is not a destination of
/// that state at all).
///
/// Under fault injection the snapshot graph can partition, so
/// unreachability is an expected outcome that callers must handle —
/// the `try_*` lookup variants return this instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unreachable {
    /// The node the lookup started from.
    pub src: NodeId,
    /// The destination that could not be reached.
    pub dst: NodeId,
}

impl fmt::Display for Unreachable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no route from node {} to node {}", self.src.0, self.dst.0)
    }
}

impl std::error::Error for Unreachable {}

/// Sentinel in the dense destination lookup: "not a destination".
const NOT_A_DEST: u32 = u32::MAX;

/// Fill the dense `NodeId → destination index` table used on the
/// per-packet hot path (replaces an `O(dests)` linear scan).
fn fill_dest_lookup(lookup: &mut Vec<u32>, dests: &[NodeId], num_nodes: usize) {
    lookup.clear();
    lookup.resize(num_nodes, NOT_A_DEST);
    for (i, d) in dests.iter().enumerate() {
        lookup[d.index()] = i as u32;
    }
}

/// The links of one path, walked lazily off a destination tree (see
/// [`ForwardingState::hops`]): yields `(from, to)` per hop and allocates
/// nothing.
#[derive(Debug, Clone)]
pub struct Hops<'a> {
    next_hop: &'a [u32],
    cur: u32,
    dst: u32,
    /// Hops left before the walk can only be a cycle.
    budget: usize,
}

impl Iterator for Hops<'_> {
    type Item = (NodeId, NodeId);

    #[inline]
    fn next(&mut self) -> Option<(NodeId, NodeId)> {
        if self.cur == self.dst {
            return None;
        }
        let from = self.cur;
        // A node at finite distance always has a parent in its tree.
        let to = self.next_hop[from as usize];
        assert!(to != NO_HOP, "reachable node without a next hop");
        assert!(self.budget > 0, "next-hop cycle detected");
        self.budget -= 1;
        self.cur = to;
        Some((NodeId(from), NodeId(to)))
    }
}

/// The forwarding state of the whole network towards a set of destinations,
/// valid for one time-step.
#[derive(Debug, Clone)]
pub struct ForwardingState {
    /// The instant this state was computed for.
    pub computed_at: SimTime,
    /// The destinations, in the order given at computation time.
    pub dests: Vec<NodeId>,
    pub(crate) trees: Vec<SpTree>,
    /// Dense `node index → index into trees` (or [`NOT_A_DEST`]), built
    /// once at construction so per-packet lookups are O(1).
    pub(crate) dest_lookup: Vec<u32>,
}

impl ForwardingState {
    /// An empty state, to be filled by [`compute_forwarding_state_into`].
    pub fn empty() -> Self {
        ForwardingState {
            computed_at: SimTime::ZERO,
            dests: Vec::new(),
            trees: Vec::new(),
            dest_lookup: Vec::new(),
        }
    }

    /// Next hop of `node` towards `dst`, or `None` when `dst` is currently
    /// unreachable (or `node == dst`).
    pub fn next_hop(&self, node: NodeId, dst: NodeId) -> Option<NodeId> {
        let idx = self.dest_index(dst)?;
        self.trees[idx].hop(node.0).map(NodeId)
    }

    /// Shortest one-way delay from `node` to `dst` at computation time.
    pub fn distance(&self, node: NodeId, dst: NodeId) -> Option<SimDuration> {
        let idx = self.dest_index(dst)?;
        self.trees[idx].distance_ns(node.0).map(SimDuration::from_nanos)
    }

    /// The hops of the path from `node` to `dst`, in order, or `None`
    /// when `dst` is unreachable (or not a destination). Walks the tree
    /// as it is consumed — no allocation — so per-hop work (fault checks,
    /// link lookups, counting) rides along in the caller's loop. Empty
    /// when `node == dst`.
    pub fn hops(&self, node: NodeId, dst: NodeId) -> Option<Hops<'_>> {
        let tree = &self.trees[self.dest_index(dst)?];
        (tree.dist_ns[node.index()] != UNREACHABLE).then(|| Hops {
            next_hop: &tree.next_hop,
            cur: node.0,
            dst: tree.dst,
            budget: tree.next_hop.len(),
        })
    }

    /// Full path from `node` to `dst` (inclusive), if reachable.
    pub fn path(&self, node: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        let hops = self.hops(node, dst)?;
        let mut path = vec![node];
        path.extend(hops.map(|(_, to)| to));
        Some(path)
    }

    /// The shortest-path tree towards `dst`, if it is a known destination.
    pub fn tree(&self, dst: NodeId) -> Option<&SpTree> {
        Some(&self.trees[self.dest_index(dst)?])
    }

    /// As [`Self::next_hop`], but with a typed error naming the
    /// unreachable pair instead of a bare `None`.
    pub fn try_next_hop(&self, node: NodeId, dst: NodeId) -> Result<NodeId, Unreachable> {
        self.next_hop(node, dst).ok_or(Unreachable { src: node, dst })
    }

    /// As [`Self::path`], but with a typed error.
    pub fn try_path(&self, node: NodeId, dst: NodeId) -> Result<Vec<NodeId>, Unreachable> {
        self.path(node, dst).ok_or(Unreachable { src: node, dst })
    }

    #[inline]
    fn dest_index(&self, dst: NodeId) -> Option<usize> {
        let idx = *self.dest_lookup.get(dst.index())?;
        (idx != NOT_A_DEST).then_some(idx as usize)
    }

    /// Set the instant, the destinations and the destination lookup for
    /// `dests` on a graph of `num_nodes` nodes, and hand back one tree
    /// slot per destination, in order, for the caller to fill. The slots
    /// keep their buffers; what they hold until filled is stale.
    pub(crate) fn reset(
        &mut self,
        t: SimTime,
        dests: &[NodeId],
        num_nodes: usize,
    ) -> &mut [SpTree] {
        self.computed_at = t;
        self.dests.clear();
        self.dests.extend_from_slice(dests);
        fill_dest_lookup(&mut self.dest_lookup, dests, num_nodes);
        self.trees.resize_with(dests.len(), SpTree::empty);
        &mut self.trees
    }
}

/// Compute the forwarding state of `constellation` at `t` towards `dests`
/// by full Dijkstra on a fresh snapshot.
pub fn compute_forwarding_state(
    constellation: &Constellation,
    t: SimTime,
    dests: &[NodeId],
) -> ForwardingState {
    let graph = DelayGraph::snapshot(constellation, t);
    let mut out = ForwardingState::empty();
    compute_forwarding_state_into(&graph, t, dests, &mut DijkstraScratch::new(), &mut out);
    out
}

/// Full Dijkstra towards `dests` on `graph`, written into an existing
/// state, reusing its tree buffers and the caller's Dijkstra scratch.
pub fn compute_forwarding_state_into(
    graph: &DelayGraph,
    t: SimTime,
    dests: &[NodeId],
    scratch: &mut DijkstraScratch,
    out: &mut ForwardingState,
) {
    for (tree, d) in out.reset(t, dests, graph.num_nodes()).iter_mut().zip(dests) {
        shortest_path_tree_into(graph, d.0, scratch, tree);
    }
}

/// Multipath forwarding state: downhill alternates towards each
/// destination (see [`crate::multipath`]), valid for one time-step.
#[derive(Debug, Clone)]
pub struct MultipathState {
    /// The instant this state was computed for.
    pub computed_at: SimTime,
    /// The destinations, in computation order.
    pub dests: Vec<NodeId>,
    trees: Vec<MultipathTree>,
    /// Dense `node index → index into trees` (or [`NOT_A_DEST`]).
    dest_lookup: Vec<u32>,
}

impl MultipathState {
    /// Downhill alternates within `stretch` over the trees of `fwd`, the
    /// forwarding state of `graph`: the trees are copied, not recomputed,
    /// and every tree's alternates share one candidate buffer.
    pub(crate) fn on_trees(
        graph: &DelayGraph,
        fwd: &ForwardingState,
        stretch: f64,
    ) -> MultipathState {
        let mut cands = Vec::new();
        let trees = fwd
            .trees
            .iter()
            .map(|tree| MultipathTree::on_tree(graph, tree.clone(), stretch, &mut cands))
            .collect();
        MultipathState {
            computed_at: fwd.computed_at,
            dests: fwd.dests.clone(),
            trees,
            dest_lookup: fwd.dest_lookup.clone(),
        }
    }

    /// Flow-stable next hop of `node` towards `dst` (falls back to the
    /// shortest-path hop when no alternate qualifies).
    pub fn next_hop(&self, node: NodeId, dst: NodeId, flow_hash: u64) -> Option<NodeId> {
        let idx = self.dest_index(dst)?;
        self.trees[idx].pick(node.0, flow_hash).map(NodeId)
    }

    /// The multipath tree towards `dst`.
    pub fn tree(&self, dst: NodeId) -> Option<&MultipathTree> {
        Some(&self.trees[self.dest_index(dst)?])
    }

    #[inline]
    fn dest_index(&self, dst: NodeId) -> Option<usize> {
        let idx = *self.dest_lookup.get(dst.index())?;
        (idx != NOT_A_DEST).then_some(idx as usize)
    }
}

/// Multipath forwarding state on `graph` at `t` towards `dests` with the
/// given stretch bound, on trees from full Dijkstra.
pub fn compute_multipath_state_on(
    graph: &DelayGraph,
    t: SimTime,
    dests: &[NodeId],
    stretch: f64,
) -> MultipathState {
    let mut fwd = ForwardingState::empty();
    compute_forwarding_state_into(graph, t, dests, &mut DijkstraScratch::new(), &mut fwd);
    MultipathState::on_trees(graph, &fwd, stretch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypatia_constellation::ground::GroundStation;
    use hypatia_constellation::gsl::GslConfig;
    use hypatia_constellation::isl::IslLayout;
    use hypatia_constellation::shell::ShellSpec;
    use hypatia_fault::FaultState;

    /// Full Dijkstra on the snapshot at `t` with `faults` masked out.
    fn masked(
        c: &Constellation,
        t: SimTime,
        dests: &[NodeId],
        faults: &FaultState,
    ) -> ForwardingState {
        let graph = DelayGraph::snapshot_masked(c, t, Some(faults));
        let mut out = ForwardingState::empty();
        compute_forwarding_state_into(&graph, t, dests, &mut DijkstraScratch::new(), &mut out);
        out
    }

    fn constellation() -> Constellation {
        Constellation::build(
            "fwd",
            vec![ShellSpec::new("A", 550.0, 10, 10, 53.0)],
            IslLayout::PlusGrid,
            vec![GroundStation::new("a", 5.0, 5.0), GroundStation::new("b", -10.0, 140.0)],
            GslConfig::new(10.0),
        )
    }

    #[test]
    fn next_hop_walk_reaches_destination() {
        let c = constellation();
        let dests = vec![c.gs_node(0), c.gs_node(1)];
        let st = compute_forwarding_state(&c, SimTime::ZERO, &dests);
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let mut cur = src;
        let mut hops = 0;
        while cur != dst {
            cur = st.next_hop(cur, dst).expect("reachable");
            hops += 1;
            assert!(hops <= c.num_nodes(), "cycle");
        }
        assert!(hops >= 2, "GS→GS must traverse at least one satellite");
    }

    #[test]
    fn path_matches_next_hop_walk() {
        let c = constellation();
        let dests = vec![c.gs_node(1)];
        let st = compute_forwarding_state(&c, SimTime::from_secs(42), &dests);
        let path = st.path(c.gs_node(0), c.gs_node(1)).unwrap();
        assert_eq!(path.first(), Some(&c.gs_node(0)));
        assert_eq!(path.last(), Some(&c.gs_node(1)));
        for w in path.windows(2) {
            assert_eq!(st.next_hop(w[0], c.gs_node(1)), Some(w[1]));
        }
    }

    #[test]
    fn hops_walk_the_same_links_as_path() {
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let st = compute_forwarding_state(&c, SimTime::from_secs(7), &[dst]);
        let path = st.path(src, dst).unwrap();
        let hops: Vec<(NodeId, NodeId)> = st.hops(src, dst).unwrap().collect();
        let links: Vec<(NodeId, NodeId)> = path.windows(2).map(|w| (w[0], w[1])).collect();
        assert_eq!(hops, links);
        // The tree's own walk (what `path` collected before `hops` existed).
        let tree_path = st.tree(dst).unwrap().path_from(src.0).unwrap();
        assert_eq!(path.iter().map(|n| n.0).collect::<Vec<_>>(), tree_path);
        // A destination reaches itself in zero hops; unknown destinations
        // and unreachable sources have no walk at all.
        assert_eq!(st.hops(dst, dst).unwrap().count(), 0);
        assert_eq!(st.path(dst, dst), Some(vec![dst]));
        assert!(st.hops(dst, src).is_none(), "src is not a destination of this state");
    }

    #[test]
    fn unknown_destination_returns_none() {
        let c = constellation();
        let st = compute_forwarding_state(&c, SimTime::ZERO, &[c.gs_node(0)]);
        assert_eq!(st.next_hop(c.gs_node(1), c.gs_node(1)), None);
        assert_eq!(st.distance(NodeId(0), c.gs_node(1)), None);
    }

    #[test]
    fn try_lookups_name_the_unreachable_pair() {
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let st = compute_forwarding_state(&c, SimTime::ZERO, &[src]);
        // dst is not a destination of this state: every try_* lookup
        // reports the pair instead of panicking.
        let err = st.try_next_hop(src, dst).unwrap_err();
        assert_eq!(err, Unreachable { src, dst });
        assert_eq!(st.try_path(src, dst).unwrap_err(), Unreachable { src, dst });
        assert!(err.to_string().contains(&format!("{}", src.0)));
        // A reachable pair goes through the Ok arm.
        let st = compute_forwarding_state(&c, SimTime::ZERO, &[dst]);
        assert!(st.try_next_hop(src, dst).is_ok());
        assert_eq!(st.try_path(src, dst).unwrap().last(), Some(&dst));
    }

    #[test]
    fn weather_partition_is_a_typed_unreachable() {
        use hypatia_fault::{FaultSchedule, FaultSpec, OutageWindow};
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        // Weather takes out every GSL of the destination's ground station.
        let spec = FaultSpec {
            gsl_weather: vec![OutageWindow { target: 1, from_s: 0.0, until_s: 60.0 }],
            ..FaultSpec::default()
        };
        let sched = FaultSchedule::compile(&spec, &c, SimDuration::from_secs(120));
        let dark = FaultState::at(&sched, SimTime::from_secs(10));
        let st = masked(&c, SimTime::from_secs(10), &[dst], &dark);
        assert_eq!(st.try_next_hop(src, dst), Err(Unreachable { src, dst }));
        assert!(st.hops(src, dst).is_none(), "no walk towards a partitioned destination");
        // Once the sky clears, the same pair routes again.
        let clear = FaultState::at(&sched, SimTime::from_secs(90));
        let st = masked(&c, SimTime::from_secs(90), &[dst], &clear);
        assert!(st.try_next_hop(src, dst).is_ok());
    }

    #[test]
    fn masked_forwarding_routes_around_a_failed_satellite() {
        use hypatia_fault::{FaultSchedule, FaultSpec, OutageWindow};
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let nominal = compute_forwarding_state(&c, SimTime::ZERO, &[dst]);
        let path = nominal.path(src, dst).expect("nominal route exists");
        // Fail a mid-path transit satellite (the endpoints' only GSL
        // satellites could partition the pair, which is a different test).
        let victim = path[path.len() / 2].0;
        assert!(c.is_satellite(path[path.len() / 2]));
        let spec = FaultSpec {
            sat_outages: vec![OutageWindow { target: victim, from_s: 0.0, until_s: 60.0 }],
            ..FaultSpec::default()
        };
        let sched = FaultSchedule::compile(&spec, &c, SimDuration::from_secs(60));
        let state = FaultState::at(&sched, SimTime::ZERO);
        let masked = masked(&c, SimTime::ZERO, &[dst], &state);
        let rerouted = masked.try_path(src, dst).expect("a 10x10 grid survives one failure");
        assert!(
            rerouted.iter().all(|&n| n.0 != victim),
            "rerouted path {rerouted:?} still uses failed satellite {victim}"
        );
        let d_nominal = nominal.distance(src, dst).unwrap();
        let d_masked = masked.distance(src, dst).unwrap();
        assert!(d_masked >= d_nominal, "detour cannot be shorter than the shortest path");
    }

    /// Regression: in an ISL constellation, ground stations are endpoints —
    /// a third GS between two endpoints must never appear as a relay, even
    /// when bouncing through it would be geometrically shorter.
    #[test]
    fn ground_stations_never_relay_in_isl_constellations() {
        use hypatia_constellation::presets;
        let c = presets::starlink_s1(vec![
            GroundStation::new("Paris", 48.8566, 2.3522),
            GroundStation::new("Luanda", -8.8390, 13.2894),
            GroundStation::new("Lagos", 6.5244, 3.3792), // right on the route
        ]);
        assert!(!c.gs_relay);
        for secs in [0u64, 60, 120] {
            let st = compute_forwarding_state(&c, SimTime::from_secs(secs), &[c.gs_node(1)]);
            if let Some(path) = st.path(c.gs_node(0), c.gs_node(1)) {
                for &node in &path[1..path.len() - 1] {
                    assert!(c.is_satellite(node), "GS {node} used as relay at t={secs}: {path:?}");
                }
            }
        }
    }

    /// Bent-pipe constellations *do* relay through ground stations.
    #[test]
    fn bent_pipe_constellations_allow_gs_relay() {
        use hypatia_constellation::presets;
        let c = presets::kuiper_k1_bent_pipe(vec![
            GroundStation::new("Paris", 48.8566, 2.3522),
            GroundStation::new("Moscow", 55.7558, 37.6173),
            GroundStation::new("relay", 52.0, 20.0),
        ]);
        assert!(c.gs_relay);
        let st = compute_forwarding_state(&c, SimTime::ZERO, &[c.gs_node(1)]);
        let path = st.path(c.gs_node(0), c.gs_node(1)).expect("bent-pipe path");
        let interior_gses = path[1..path.len() - 1].iter().filter(|&&n| !c.is_satellite(n)).count();
        assert!(interior_gses >= 1, "expected a GS relay in {path:?}");
    }

    #[test]
    fn distance_is_monotone_along_path() {
        let c = constellation();
        let dst = c.gs_node(1);
        let st = compute_forwarding_state(&c, SimTime::ZERO, &[dst]);
        if let Some(path) = st.path(c.gs_node(0), dst) {
            let mut last = SimDuration::MAX;
            for node in path {
                let d = st.distance(node, dst).unwrap();
                assert!(d < last, "distance must strictly decrease towards dst");
                last = d;
            }
        }
    }
}
