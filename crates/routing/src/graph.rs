//! The delay-weighted snapshot graph.
//!
//! At a given instant the network is a graph whose vertices are satellites
//! and ground stations and whose edges are the static ISLs plus the GSLs
//! currently above the minimum elevation angle. Edge weights are one-way
//! propagation delays in integer nanoseconds (distance / c), which makes
//! shortest-delay routing identical to the paper's networkx computation.
//!
//! An [`Edge`] is 8 bytes: a `u32` target and a `u32` delay. Every ISL and
//! GSL delay is under 20 ms, so nanoseconds fit with two orders of
//! magnitude to spare, and halving the edge halves what the routing step's
//! one pass over the adjacency ([`crate::incremental`]) pulls through the
//! cache. The narrowing happens once, checked, where a snapshot is built;
//! distances stay `u64`.

use hypatia_constellation::gsl::{usable_satellites, VisibleSat};
use hypatia_constellation::{Constellation, NodeId};
use hypatia_fault::FaultState;
use hypatia_orbit::geodesy::propagation_delay_km;
use hypatia_util::{SimDuration, SimTime, Vec3};

/// A directed edge with a propagation-delay weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Target node index.
    pub to: u32,
    /// One-way propagation delay, ns (narrowed, checked, at snapshot build).
    pub delay_ns: u32,
}

/// A link's propagation delay as an [`Edge`] weight. A delay that does
/// not fit (over 4.29 s: no link of an Earth-orbit constellation) is a
/// broken geometry computation, not an input to route on.
fn edge_delay_ns(delay: SimDuration) -> u32 {
    u32::try_from(delay.nanos()).expect("link propagation delay exceeds u32 nanoseconds (4.29 s)")
}

/// A snapshot graph in compressed-sparse-row form: one flat edge array
/// plus per-node offsets. A single allocation-free layout makes snapshot
/// rebuilds cheap (see [`SnapshotBuffers`]) and keeps Dijkstra's inner
/// loop on contiguous memory.
#[derive(Debug, Clone)]
pub struct DelayGraph {
    /// `offsets[v]..offsets[v+1]` indexes `edges` for node `v`.
    offsets: Vec<u32>,
    /// All directed edges, grouped by source node.
    edges: Vec<Edge>,
    /// `transit[v]`: may `v` appear as an *interior* node of a path?
    /// Satellites always may; ground stations only in bent-pipe
    /// constellations (`Constellation::gs_relay`). Endpoints are exempt.
    transit: Vec<bool>,
    /// Positions used to build the snapshot (satellites first), for reuse.
    pub positions: Vec<Vec3>,
}

/// Reusable scratch for building [`DelayGraph`] snapshots without
/// per-step allocation: the position buffer, the unsorted edge staging
/// area, and the CSR fill cursors all persist across calls.
#[derive(Debug, Default)]
pub struct SnapshotBuffers {
    /// Staging: `(source, edge)` pairs before the counting sort.
    pairs: Vec<(u32, Edge)>,
    /// Per-node write cursor during the counting sort.
    cursor: Vec<u32>,
    /// One ground station's usable satellites at a time.
    visible: Vec<VisibleSat>,
    graph: DelayGraph,
}

impl SnapshotBuffers {
    /// Fresh, empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build the snapshot of `constellation` at `t`, reusing every buffer
    /// from the previous call. The returned graph is identical to
    /// [`DelayGraph::snapshot`]'s.
    pub fn snapshot(&mut self, constellation: &Constellation, t: SimTime) -> &DelayGraph {
        self.snapshot_masked(constellation, t, None)
    }

    /// As [`Self::snapshot`], but omitting every edge that `faults` marks
    /// down: ISLs whose link (or either endpoint satellite) has failed,
    /// and GSLs to failed satellites or weather-attenuated ground
    /// stations. With `faults == None` (or an all-up state) the graph is
    /// identical to the unmasked snapshot. The fault state must have been
    /// compiled for this constellation.
    pub fn snapshot_masked(
        &mut self,
        constellation: &Constellation,
        t: SimTime,
        faults: Option<&FaultState>,
    ) -> &DelayGraph {
        constellation.positions_at_into(t, &mut self.graph.positions);
        self.rebuild(constellation, t, faults);
        &self.graph
    }

    /// The graph built by the last [`Self::snapshot`] call.
    pub fn graph(&self) -> &DelayGraph {
        &self.graph
    }

    /// Consume the buffers, keeping the built graph.
    pub fn into_graph(self) -> DelayGraph {
        self.graph
    }

    /// Rebuild `self.graph`'s edges from `self.graph.positions` (already
    /// filled for time `t`), skipping edges masked by `faults`.
    fn rebuild(&mut self, constellation: &Constellation, t: SimTime, faults: Option<&FaultState>) {
        let n = constellation.num_nodes();
        let positions = &self.graph.positions;
        assert_eq!(positions.len(), n, "position snapshot size");
        let n_sats = constellation.num_satellites();

        // Stage every directed edge, then counting-sort by source node.
        // The staging order (ISLs first, then GSLs in ground-station
        // order) matches the old nested-Vec construction, and the sort is
        // stable, so per-node adjacency order is unchanged.
        self.pairs.clear();
        for &(a, b) in &constellation.isls {
            if let Some(f) = faults {
                if !f.isl_link_up(a, b) {
                    continue;
                }
            }
            let d = positions[a as usize].distance(positions[b as usize]);
            let delay = edge_delay_ns(propagation_delay_km(d));
            self.pairs.push((a, Edge { to: b, delay_ns: delay }));
            self.pairs.push((b, Edge { to: a, delay_ns: delay }));
        }
        for (gs_idx, _gs) in constellation.ground_stations.iter().enumerate() {
            if let Some(f) = faults {
                if f.gs_weather_down(gs_idx) {
                    continue;
                }
            }
            let gs_node = constellation.gs_node(gs_idx).0;
            let gs_pos = positions[n_sats + gs_idx];
            usable_satellites(constellation, gs_pos, &positions[..n_sats], t, &mut self.visible);
            for vis in &self.visible {
                if let Some(f) = faults {
                    if f.satellite_down(vis.sat_idx) {
                        continue;
                    }
                }
                let delay = edge_delay_ns(propagation_delay_km(vis.range_km));
                self.pairs.push((gs_node, Edge { to: vis.sat_idx as u32, delay_ns: delay }));
                self.pairs.push((vis.sat_idx as u32, Edge { to: gs_node, delay_ns: delay }));
            }
        }

        self.fill_csr(n);
        let g = &mut self.graph;
        g.transit.clear();
        g.transit.extend(
            (0..n).map(|i| constellation.may_transit(hypatia_constellation::NodeId(i as u32))),
        );
    }

    /// Counting-sort the staged `pairs` by source node into the graph's
    /// CSR arrays (stable: staging order is adjacency order).
    fn fill_csr(&mut self, n: usize) {
        let g = &mut self.graph;
        g.offsets.clear();
        g.offsets.resize(n + 1, 0);
        for &(src, _) in &self.pairs {
            g.offsets[src as usize + 1] += 1;
        }
        for v in 0..n {
            g.offsets[v + 1] += g.offsets[v];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&g.offsets[..n]);
        g.edges.clear();
        g.edges.resize(self.pairs.len(), Edge { to: 0, delay_ns: 0 });
        for &(src, edge) in &self.pairs {
            let at = self.cursor[src as usize];
            g.edges[at as usize] = edge;
            self.cursor[src as usize] = at + 1;
        }
    }
}

impl Default for DelayGraph {
    fn default() -> Self {
        DelayGraph {
            offsets: vec![0],
            edges: Vec::new(),
            transit: Vec::new(),
            positions: Vec::new(),
        }
    }
}

impl DelayGraph {
    /// Build the snapshot graph of `constellation` at time `t`.
    pub fn snapshot(constellation: &Constellation, t: SimTime) -> DelayGraph {
        let mut buffers = SnapshotBuffers::new();
        buffers.snapshot(constellation, t);
        buffers.into_graph()
    }

    /// Build the snapshot graph at `t` with faulted components masked
    /// out (see [`SnapshotBuffers::snapshot_masked`]).
    pub fn snapshot_masked(
        constellation: &Constellation,
        t: SimTime,
        faults: Option<&FaultState>,
    ) -> DelayGraph {
        let mut buffers = SnapshotBuffers::new();
        buffers.snapshot_masked(constellation, t, faults);
        buffers.into_graph()
    }

    /// Build from an already-computed position snapshot (satellites first,
    /// then ground stations, as produced by `Constellation::positions_at`).
    pub fn from_positions(
        constellation: &Constellation,
        t: SimTime,
        positions: Vec<Vec3>,
    ) -> DelayGraph {
        let mut buffers = SnapshotBuffers::new();
        buffers.graph.positions = positions;
        buffers.rebuild(constellation, t, None);
        buffers.into_graph()
    }

    /// A graph over `transit.len()` vertices from an explicit list of
    /// undirected `(a, b, delay_ns)` links; adjacency order is list order.
    #[cfg(test)]
    pub(crate) fn from_links(transit: Vec<bool>, links: &[(u32, u32, u32)]) -> DelayGraph {
        let mut buffers = SnapshotBuffers::new();
        for &(a, b, delay_ns) in links {
            buffers.pairs.push((a, Edge { to: b, delay_ns }));
            buffers.pairs.push((b, Edge { to: a, delay_ns }));
        }
        buffers.fill_csr(transit.len());
        buffers.graph.transit = transit;
        buffers.into_graph()
    }

    /// Make this graph's adjacency (offsets and edges) a copy of
    /// `other`'s, reusing buffers. Positions and transit flags are left
    /// alone: this is what [`crate::incremental::GraphDiff`] reads of a
    /// previous snapshot, and all the incremental router keeps of one.
    pub(crate) fn copy_adjacency_from(&mut self, other: &DelayGraph) {
        self.offsets.clone_from(&other.offsets);
        self.edges.clone_from(&other.edges);
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Outgoing edges of `node`.
    #[inline]
    pub fn edges(&self, node: usize) -> &[Edge] {
        &self.edges[self.offsets[node] as usize..self.offsets[node + 1] as usize]
    }

    /// May `node` appear as an interior (transit) node of a path?
    #[inline]
    pub fn may_transit(&self, node: usize) -> bool {
        self.transit[node]
    }

    /// [`Self::may_transit`] of every node, in node order.
    #[inline]
    pub(crate) fn transit(&self) -> &[bool] {
        &self.transit
    }

    /// The delay of the direct edge `a → b`, if one exists.
    pub fn edge_delay(&self, a: usize, b: usize) -> Option<SimDuration> {
        self.edges(a)
            .iter()
            .find(|e| e.to as usize == b)
            .map(|e| SimDuration::from_nanos(u64::from(e.delay_ns)))
    }

    /// True if nodes `a` and `b` are directly linked.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.edges(a).iter().any(|e| e.to as usize == b)
    }

    /// The current one-way delay between two *linked* constellation nodes
    /// computed from live geometry at `t2` (possibly later than the snapshot
    /// instant). This is how the packet simulator keeps latencies continuous
    /// between forwarding updates.
    pub fn live_delay(
        constellation: &Constellation,
        a: NodeId,
        b: NodeId,
        t2: SimTime,
    ) -> SimDuration {
        propagation_delay_km(constellation.distance_km(a, b, t2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypatia_constellation::ground::GroundStation;
    use hypatia_constellation::gsl::GslConfig;
    use hypatia_constellation::isl::IslLayout;
    use hypatia_constellation::presets;
    use hypatia_constellation::shell::ShellSpec;

    fn tiny() -> Constellation {
        Constellation::build(
            "tiny",
            vec![ShellSpec::new("A", 550.0, 3, 4, 53.0)],
            IslLayout::PlusGrid,
            vec![GroundStation::new("eq", 0.0, 0.0), GroundStation::new("mid", 40.0, 60.0)],
            GslConfig::new(25.0),
        )
    }

    #[test]
    fn graph_has_symmetric_edges() {
        let c = tiny();
        let g = DelayGraph::snapshot(&c, SimTime::ZERO);
        for u in 0..g.num_nodes() {
            for e in g.edges(u) {
                let back = g
                    .edges(e.to as usize)
                    .iter()
                    .find(|r| r.to as usize == u)
                    .expect("missing reverse edge");
                assert_eq!(back.delay_ns, e.delay_ns, "asymmetric delay {u}<->{}", e.to);
            }
        }
    }

    #[test]
    fn isl_edges_present_with_correct_delay() {
        let c = tiny();
        let t = SimTime::from_secs(10);
        let g = DelayGraph::snapshot(&c, t);
        let (a, b) = c.isls[0];
        let expect = propagation_delay_km(c.distance_km(NodeId(a), NodeId(b), t));
        assert_eq!(g.edge_delay(a as usize, b as usize), Some(expect));
    }

    #[test]
    fn gs_edges_only_to_visible_satellites() {
        let c = presets::kuiper_k1(vec![
            GroundStation::new("Singapore", 1.3521, 103.8198),
            GroundStation::new("NorthPole", 89.9, 0.0),
        ]);
        let g = DelayGraph::snapshot(&c, SimTime::ZERO);
        let sg = c.gs_node(0).index();
        let np = c.gs_node(1).index();
        assert!(!g.edges(sg).is_empty(), "Singapore should have GSLs");
        assert!(g.edges(np).is_empty(), "the pole must not reach K1");
        // GSL delay sanity: at 630 km altitude the one-way delay is
        // 2.1..4.2 ms-ish (range 630..1250 km).
        for e in g.edges(sg) {
            let ms = e.delay_ns as f64 / 1e6;
            assert!((2.0..5.0).contains(&ms), "GSL delay {ms} ms");
        }
    }

    #[test]
    #[should_panic(expected = "link propagation delay exceeds u32 nanoseconds")]
    fn a_delay_that_does_not_fit_an_edge_is_rejected_not_truncated() {
        edge_delay_ns(SimDuration::from_nanos(u64::from(u32::MAX) + 1));
    }

    #[test]
    fn edge_delays_narrow_losslessly() {
        assert_eq!(std::mem::size_of::<Edge>(), 8);
        assert_eq!(edge_delay_ns(SimDuration::from_nanos(u64::from(u32::MAX))), u32::MAX);
        assert_eq!(edge_delay_ns(SimDuration::from_millis(20)), 20_000_000);
    }

    #[test]
    fn num_edges_counts_both_directions() {
        let c = tiny();
        let g = DelayGraph::snapshot(&c, SimTime::ZERO);
        // 12 sats in +Grid → 24 undirected ISLs → 48 directed, plus GSLs.
        assert!(g.num_edges() >= 48);
        assert_eq!(g.num_edges() % 2, 0);
    }

    #[test]
    fn live_delay_tracks_motion() {
        let c = tiny();
        let (a, b) = c.isls[0];
        let d0 = DelayGraph::live_delay(&c, NodeId(a), NodeId(b), SimTime::ZERO);
        let d1 = DelayGraph::live_delay(&c, NodeId(a), NodeId(b), SimTime::from_secs(30));
        // Intra-orbit neighbours keep constant distance; inter-orbit vary.
        // Either way the call must return a positive, finite delay.
        assert!(d0 > SimDuration::ZERO && d1 > SimDuration::ZERO);
    }

    #[test]
    fn fault_mask_removes_exactly_the_failed_edges() {
        use hypatia_fault::{FaultSchedule, FaultSpec, FaultState, LinkCut, OutageWindow};
        let c = tiny();
        let t = SimTime::from_secs(5);
        let (cut_a, cut_b) = c.isls[0];
        let down_sat = 7u32;
        let spec = FaultSpec {
            sat_outages: vec![OutageWindow { target: down_sat, from_s: 0.0, until_s: 30.0 }],
            isl_cuts: vec![LinkCut { a: cut_a, b: cut_b, from_s: 0.0, until_s: 30.0 }],
            gsl_weather: vec![OutageWindow { target: 0, from_s: 0.0, until_s: 30.0 }],
            ..FaultSpec::default()
        };
        let sched = FaultSchedule::compile(&spec, &c, SimDuration::from_secs(60));
        let state = FaultState::at(&sched, t);

        let nominal = DelayGraph::snapshot(&c, t);
        let masked = DelayGraph::snapshot_masked(&c, t, Some(&state));
        assert!(masked.num_edges() < nominal.num_edges());
        // The cut ISL and every edge touching the failed satellite are gone.
        assert!(!masked.has_edge(cut_a as usize, cut_b as usize));
        assert!(masked.edges(down_sat as usize).is_empty());
        for u in 0..masked.num_nodes() {
            assert!(!masked.has_edge(u, down_sat as usize));
        }
        // Weather downs every GSL of ground station 0.
        assert!(masked.edges(c.gs_node(0).index()).is_empty());
        // After recovery the masked snapshot equals the nominal one.
        let later = FaultState::at(&sched, SimTime::from_secs(45));
        let recovered = DelayGraph::snapshot_masked(&c, t, Some(&later));
        assert_eq!(recovered.num_edges(), nominal.num_edges());
    }

    #[test]
    fn all_up_mask_is_identical_to_no_mask() {
        use hypatia_fault::{FaultSchedule, FaultSpec, FaultState};
        let c = tiny();
        let sched = FaultSchedule::compile(&FaultSpec::default(), &c, SimDuration::from_secs(10));
        let state = FaultState::new(&sched);
        let t = SimTime::from_secs(3);
        let nominal = DelayGraph::snapshot(&c, t);
        let masked = DelayGraph::snapshot_masked(&c, t, Some(&state));
        assert_eq!(nominal.num_edges(), masked.num_edges());
        for u in 0..nominal.num_nodes() {
            assert_eq!(nominal.edges(u), masked.edges(u), "adjacency of node {u}");
        }
    }

    #[test]
    fn edge_delays_change_over_time() {
        let c = tiny();
        let g0 = DelayGraph::snapshot(&c, SimTime::ZERO);
        let g1 = DelayGraph::snapshot(&c, SimTime::from_secs(60));
        // At least one ISL delay must differ (inter-orbit links vary as
        // satellites converge towards higher latitudes).
        let mut changed = false;
        for &(a, b) in &c.isls {
            let d0 = g0.edge_delay(a as usize, b as usize).unwrap();
            if let Some(d1) = g1.edge_delay(a as usize, b as usize) {
                if d0 != d1 {
                    changed = true;
                }
            }
        }
        assert!(changed, "no ISL delay changed over 60 s");
    }
}
