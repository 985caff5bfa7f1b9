//! Forwarding state at a time-step, and lazy schedules over a run.
//!
//! The simulator consumes, per time-step, a map `(node, destination) →
//! next hop` restricted to the destinations that actually terminate
//! traffic. Any routing strategy expressible as static routes fits this
//! shape (paper §3.1); the default is shortest-delay via per-destination
//! Dijkstra trees.

use crate::dijkstra::{shortest_path_tree_into, DijkstraScratch, SpTree, UNREACHABLE};
use crate::graph::{DelayGraph, SnapshotBuffers};
use crate::multipath::{multipath_tree_with, MultipathTree};
use hypatia_constellation::{Constellation, NodeId};
use hypatia_fault::FaultState;
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

/// Build the dense `NodeId → destination index` table used on the
/// per-packet hot path (replaces an `O(dests)` linear scan).
fn build_dest_lookup(dests: &[NodeId], num_nodes: usize) -> Vec<u32> {
    let mut lookup = vec![NOT_A_DEST; num_nodes];
    for (i, d) in dests.iter().enumerate() {
        lookup[d.index()] = i as u32;
    }
    lookup
}

/// The links of one path, walked lazily off a destination tree (see
/// [`ForwardingState::hops`]): yields `(from, to)` per hop and allocates
/// nothing.
#[derive(Debug, Clone)]
pub struct Hops<'a> {
    next_hop: &'a [Option<u32>],
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
        let to = self.next_hop[from as usize].expect("reachable node without a next hop");
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
        self.trees[idx].next_hop[node.index()].map(NodeId)
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

    /// As [`Self::distance`], but with a typed error.
    pub fn try_distance(&self, node: NodeId, dst: NodeId) -> Result<SimDuration, Unreachable> {
        self.distance(node, dst).ok_or(Unreachable { src: node, dst })
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

    /// Fill `out` from already-computed trees, reusing its buffers. Used
    /// by the incremental router, which keeps the authoritative trees in
    /// its own cache; the copy is byte-identical to what
    /// [`compute_forwarding_state_into`] builds from the same snapshot.
    pub(crate) fn fill_from_trees(
        out: &mut ForwardingState,
        t: SimTime,
        dests: &[NodeId],
        trees: &[SpTree],
        num_nodes: usize,
    ) {
        out.computed_at = t;
        out.dests.clear();
        out.dests.extend_from_slice(dests);
        out.trees.resize_with(trees.len(), SpTree::empty);
        for (dst, src) in out.trees.iter_mut().zip(trees) {
            dst.dst = src.dst;
            dst.dist_ns.clone_from(&src.dist_ns);
            dst.next_hop.clone_from(&src.next_hop);
        }
        out.dest_lookup.clear();
        out.dest_lookup.resize(num_nodes, NOT_A_DEST);
        for (i, d) in dests.iter().enumerate() {
            out.dest_lookup[d.index()] = i as u32;
        }
    }
}

/// Compute the forwarding state of `constellation` at `t` towards `dests`.
pub fn compute_forwarding_state(
    constellation: &Constellation,
    t: SimTime,
    dests: &[NodeId],
) -> ForwardingState {
    let graph = DelayGraph::snapshot(constellation, t);
    compute_forwarding_state_on(&graph, t, dests)
}

/// As [`compute_forwarding_state`] but reusing an existing snapshot graph.
pub fn compute_forwarding_state_on(
    graph: &DelayGraph,
    t: SimTime,
    dests: &[NodeId],
) -> ForwardingState {
    let mut scratch = DijkstraScratch::new();
    let mut out = ForwardingState::empty();
    compute_forwarding_state_into(graph, t, dests, &mut scratch, &mut out);
    out
}

/// As [`compute_forwarding_state_on`] but writing into an existing state,
/// reusing its tree buffers and the caller's Dijkstra scratch. Produces
/// exactly the same state as the allocating path.
pub fn compute_forwarding_state_into(
    graph: &DelayGraph,
    t: SimTime,
    dests: &[NodeId],
    scratch: &mut DijkstraScratch,
    out: &mut ForwardingState,
) {
    out.computed_at = t;
    out.dests.clear();
    out.dests.extend_from_slice(dests);
    out.trees.resize_with(dests.len(), SpTree::empty);
    for (tree, d) in out.trees.iter_mut().zip(dests) {
        shortest_path_tree_into(graph, d.0, scratch, tree);
    }
    out.dest_lookup.clear();
    out.dest_lookup.resize(graph.num_nodes(), NOT_A_DEST);
    for (i, d) in dests.iter().enumerate() {
        out.dest_lookup[d.index()] = i as u32;
    }
}

/// Compute a forwarding state reusing per-worker snapshot and Dijkstra
/// buffers (the building block of the parallel pipeline: only the returned
/// state itself is freshly allocated, because it is handed away).
pub fn compute_forwarding_state_with(
    buffers: &mut SnapshotBuffers,
    scratch: &mut DijkstraScratch,
    constellation: &Constellation,
    t: SimTime,
    dests: &[NodeId],
) -> ForwardingState {
    compute_forwarding_state_with_mask(buffers, scratch, constellation, t, dests, None)
}

/// As [`compute_forwarding_state_with`], but routing around faulted
/// components: the snapshot graph omits every node and link `faults`
/// marks down (see
/// [`SnapshotBuffers::snapshot_masked`](crate::graph::SnapshotBuffers::snapshot_masked)).
/// With `faults == None` this is exactly the nominal computation.
pub fn compute_forwarding_state_with_mask(
    buffers: &mut SnapshotBuffers,
    scratch: &mut DijkstraScratch,
    constellation: &Constellation,
    t: SimTime,
    dests: &[NodeId],
    faults: Option<&FaultState>,
) -> ForwardingState {
    let graph = buffers.snapshot_masked(constellation, t, faults);
    let mut out = ForwardingState::empty();
    compute_forwarding_state_into(graph, t, dests, scratch, &mut out);
    out
}

/// Compute the forwarding state at `t` with faulted components masked
/// out of the snapshot graph.
pub fn compute_forwarding_state_masked(
    constellation: &Constellation,
    t: SimTime,
    dests: &[NodeId],
    faults: Option<&FaultState>,
) -> ForwardingState {
    let graph = DelayGraph::snapshot_masked(constellation, t, faults);
    compute_forwarding_state_on(&graph, t, dests)
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

/// Compute multipath forwarding state at `t` towards `dests` with the
/// given stretch bound.
pub fn compute_multipath_state(
    constellation: &Constellation,
    t: SimTime,
    dests: &[NodeId],
    stretch: f64,
) -> MultipathState {
    let graph = DelayGraph::snapshot(constellation, t);
    compute_multipath_state_on(&graph, t, dests, stretch)
}

/// As [`compute_multipath_state`] but reusing an existing snapshot graph.
pub fn compute_multipath_state_on(
    graph: &DelayGraph,
    t: SimTime,
    dests: &[NodeId],
    stretch: f64,
) -> MultipathState {
    let mut scratch = DijkstraScratch::new();
    let trees =
        dests.iter().map(|d| multipath_tree_with(graph, d.0, stretch, &mut scratch)).collect();
    let dest_lookup = build_dest_lookup(dests, graph.num_nodes());
    MultipathState { computed_at: t, dests: dests.to_vec(), trees, dest_lookup }
}

/// A lazily-evaluated schedule of forwarding states at a fixed granularity
/// (paper default: 100 ms). States are computed on demand — storing every
/// state of a constellation-scale run would cost gigabytes.
pub struct ForwardingSchedule<'a> {
    constellation: &'a Constellation,
    dests: Vec<NodeId>,
    /// Recomputation interval.
    pub step: SimDuration,
}

impl<'a> ForwardingSchedule<'a> {
    /// Create a schedule towards `dests` at granularity `step`.
    pub fn new(constellation: &'a Constellation, dests: Vec<NodeId>, step: SimDuration) -> Self {
        assert!(!step.is_zero(), "time-step must be positive");
        ForwardingSchedule { constellation, dests, step }
    }

    /// The step index in force at time `t`.
    pub fn step_index(&self, t: SimTime) -> u64 {
        SimDuration::from_nanos(t.nanos()) / self.step
    }

    /// The instant at which step `k` takes effect.
    pub fn step_time(&self, k: u64) -> SimTime {
        SimTime::ZERO + self.step * k
    }

    /// Compute the state for step `k`.
    pub fn state_for_step(&self, k: u64) -> ForwardingState {
        compute_forwarding_state(self.constellation, self.step_time(k), &self.dests)
    }

    /// Compute the state in force at an arbitrary time `t`.
    pub fn state_at(&self, t: SimTime) -> ForwardingState {
        self.state_for_step(self.step_index(t))
    }

    /// The destinations this schedule routes towards.
    pub fn dests(&self) -> &[NodeId] {
        &self.dests
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypatia_constellation::ground::GroundStation;
    use hypatia_constellation::gsl::GslConfig;
    use hypatia_constellation::isl::IslLayout;
    use hypatia_constellation::shell::ShellSpec;

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
        assert_eq!(st.try_distance(src, dst).unwrap_err(), Unreachable { src, dst });
        assert_eq!(st.try_path(src, dst).unwrap_err(), Unreachable { src, dst });
        assert!(err.to_string().contains(&format!("{}", src.0)));
        // A reachable pair goes through the Ok arm.
        let st = compute_forwarding_state(&c, SimTime::ZERO, &[dst]);
        assert!(st.try_next_hop(src, dst).is_ok());
        assert_eq!(st.try_path(src, dst).unwrap().last(), Some(&dst));
    }

    #[test]
    fn weather_partition_is_a_typed_unreachable() {
        use hypatia_fault::{FaultSchedule, FaultSpec, FaultState, OutageWindow};
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        // Weather takes out every GSL of the destination's ground station.
        let spec = FaultSpec {
            gsl_weather: vec![OutageWindow { target: 1, from_s: 0.0, until_s: 60.0 }],
            ..FaultSpec::default()
        };
        let sched = FaultSchedule::compile(&spec, &c, SimDuration::from_secs(120));
        let dark = FaultState::at(&sched, SimTime::from_secs(10));
        let st = compute_forwarding_state_masked(&c, SimTime::from_secs(10), &[dst], Some(&dark));
        assert_eq!(st.try_next_hop(src, dst), Err(Unreachable { src, dst }));
        assert!(st.hops(src, dst).is_none(), "no walk towards a partitioned destination");
        // Once the sky clears, the same pair routes again.
        let clear = FaultState::at(&sched, SimTime::from_secs(90));
        let st = compute_forwarding_state_masked(&c, SimTime::from_secs(90), &[dst], Some(&clear));
        assert!(st.try_next_hop(src, dst).is_ok());
    }

    #[test]
    fn masked_forwarding_routes_around_a_failed_satellite() {
        use hypatia_fault::{FaultSchedule, FaultSpec, FaultState, OutageWindow};
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
        let masked = compute_forwarding_state_masked(&c, SimTime::ZERO, &[dst], Some(&state));
        let rerouted = masked.try_path(src, dst).expect("a 10x10 grid survives one failure");
        assert!(
            rerouted.iter().all(|&n| n.0 != victim),
            "rerouted path {rerouted:?} still uses failed satellite {victim}"
        );
        let d_nominal = nominal.distance(src, dst).unwrap();
        let d_masked = masked.distance(src, dst).unwrap();
        assert!(d_masked >= d_nominal, "detour cannot be shorter than the shortest path");
    }

    #[test]
    fn schedule_step_indexing() {
        let c = constellation();
        let sched = ForwardingSchedule::new(&c, vec![c.gs_node(0)], SimDuration::from_millis(100));
        assert_eq!(sched.step_index(SimTime::ZERO), 0);
        assert_eq!(sched.step_index(SimTime::from_millis(99)), 0);
        assert_eq!(sched.step_index(SimTime::from_millis(100)), 1);
        assert_eq!(sched.step_index(SimTime::from_millis(250)), 2);
        assert_eq!(sched.step_time(2), SimTime::from_millis(200));
    }

    #[test]
    fn schedule_state_at_matches_step_state() {
        let c = constellation();
        let dests = vec![c.gs_node(0), c.gs_node(1)];
        let sched = ForwardingSchedule::new(&c, dests, SimDuration::from_millis(100));
        let a = sched.state_at(SimTime::from_millis(150));
        let b = sched.state_for_step(1);
        assert_eq!(a.computed_at, b.computed_at);
        // Compare a few entries.
        for node in 0..c.num_nodes() as u32 {
            assert_eq!(
                a.next_hop(NodeId(node), c.gs_node(1)),
                b.next_hop(NodeId(node), c.gs_node(1))
            );
        }
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
