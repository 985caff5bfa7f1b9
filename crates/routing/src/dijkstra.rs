//! Per-destination shortest-path trees.
//!
//! The paper computes all-pairs shortest paths with Floyd–Warshall; only
//! the paths *towards ground stations* ever matter for forwarding, so we
//! run one Dijkstra per destination instead — identical results (verified
//! against the test-only `floyd_warshall` module by property test) at a
//! fraction of the cost on constellation-scale graphs.
//!
//! # A monotone bucket queue
//!
//! Vertices are settled from buckets of width `Δ`, the largest power of
//! two not above the snapshot's smallest edge weight `w_min` (which
//! [`DelayGraph`] records when it fills its CSR arrays): bucket `k` holds
//! the vertices labelled in `[kΔ, (k+1)Δ)`, and the buckets are expanded
//! in order. Because `Δ ≤ w_min`, relaxing an edge out of bucket `k`
//! lands in bucket `k + 1` or later, so no vertex can lower the label of
//! another in its own bucket: a bucket's labels are final when it is
//! reached, and its vertices may be expanded in any order. Every optimal
//! parent of `v` sits in an earlier bucket than `v` and relaxes it before
//! `v` is expanded, so the strict-improvement rule plus the `u < old`
//! tie-break leave `v` with its exact distance and its *minimum-id
//! optimal parent* — what a binary heap over `(distance, id)` produces,
//! byte for byte. Labels in the queue span at most `w_max / Δ + 2`
//! buckets, so a circular array of that many (rounded up to a power of
//! two) holds them all; a vertex is queued again only when its label
//! moves to another bucket, and an entry whose bucket no longer matches
//! its vertex's label is stale and skipped.
//!
//! A snapshot with a zero-weight edge has no such `Δ`, and one whose
//! weights spread over more than `MAX_BUCKETS` buckets would make the
//! array the cost; both run the binary heap instead. No geometry the
//! product builds is either: beside a GSL of a few thousand kilometres it
//! would take a link of under about 200 m — two satellites all but
//! colliding.
//! The heap orders by `(distance, node)`, and relaxation is strict, so
//! equal-cost ties resolve towards the smaller node id regardless of
//! iteration order. The pair is packed into one `u64` (`heap_key`) whose
//! integer order is the pair's lexicographic order, so a heap entry is
//! one word and a sift compares one word.
//!
//! # Leaves last
//!
//! A vertex that may not transit (a ground station outside a bent-pipe
//! constellation) is an endpoint: it is never expanded, so it never
//! relaxes anything, and its label depends only on its transit
//! neighbours'. The bucket queue therefore never queues such *leaves*
//! (they hold a label of 0 while the buckets run, which no relaxation
//! improves on) and labels them afterwards from their own edges: a
//! leaf's distance is `min(dist[u] + w)` over its edges `(u, w)` to
//! transit vertices (or the destination), its parent the minimum-id
//! minimiser. That reads the edge `v → u` for the weight of `u → v`,
//! which relies on every [`DelayGraph`] edge being symmetric — the same
//! assumption step 5 of the SSSP repair ([`crate::incremental`]) makes.

use crate::graph::DelayGraph;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Distance sentinel for unreachable nodes.
pub const UNREACHABLE: u64 = u64::MAX;

/// Next-hop sentinel: the vertex is unreachable or is the destination.
pub const NO_HOP: u32 = u32::MAX;

/// The most buckets the queue's circular array may have: beyond it
/// (`w_max / Δ` that large) the binary heap runs instead.
const MAX_BUCKETS: usize = 1 << 16;

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
    /// to `dst`; [`NO_HOP`] if unreachable or `v == dst` (see
    /// [`Self::hop`]).
    pub next_hop: Vec<u32>,
}

/// Reusable working memory for [`shortest_path_tree_into`]: the bucket
/// array, the leaf list and the heap of the fallback survive across
/// calls, so a per-destination tree computation allocates nothing once
/// the scratch has warmed up.
#[derive(Debug, Default)]
pub struct DijkstraScratch {
    /// The circular bucket array; every bucket is empty between calls.
    buckets: Vec<Vec<u32>>,
    /// The bucket being expanded, swapped out of the array.
    current: Vec<u32>,
    /// The leaves of the tree being built, then their `(label, parent)`.
    leaves: Vec<(u32, u64, u32)>,
    /// Heap fallback: settled flags.
    settled: Vec<bool>,
    /// Heap fallback: [`heap_key`]s.
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

    /// Size the tree for `graph` towards `dst`: every vertex unreachable.
    fn reset(&mut self, graph: &DelayGraph, dst: u32) {
        let n = graph.num_nodes();
        assert!((dst as usize) < n, "destination {dst} out of range");
        self.dst = dst;
        self.dist_ns.clear();
        self.dist_ns.resize(n, UNREACHABLE);
        self.next_hop.clear();
        self.next_hop.resize(n, NO_HOP);
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

/// The bucket width's `log2` and the bucket count for `graph`, or `None`
/// when the heap must run (a zero-weight edge, or weights spread over
/// more than [`MAX_BUCKETS`] buckets).
fn bucket_layout(graph: &DelayGraph) -> Option<(u32, usize)> {
    let (lo, hi) = (graph.min_delay_ns(), graph.max_delay_ns());
    if lo == 0 {
        return None;
    }
    let shift = lo.ilog2();
    let buckets = ((hi >> shift) as usize + 2).next_power_of_two();
    (buckets <= MAX_BUCKETS).then_some((shift, buckets))
}

/// As [`shortest_path_tree`], but reusing both the caller's scratch and
/// the output tree's buffers. Produces exactly the same tree.
pub fn shortest_path_tree_into(
    graph: &DelayGraph,
    dst: u32,
    scratch: &mut DijkstraScratch,
    out: &mut SpTree,
) {
    match bucket_layout(graph) {
        Some((shift, buckets)) => bucket_tree_into(graph, dst, shift, buckets, scratch, out),
        None => heap_tree_into(graph, dst, scratch, out),
    }
}

/// The bucket-queue tree (module doc): transit vertices bucket by bucket,
/// then the leaves from their own edges.
fn bucket_tree_into(
    graph: &DelayGraph,
    dst: u32,
    shift: u32,
    n_buckets: usize,
    scratch: &mut DijkstraScratch,
    out: &mut SpTree,
) {
    out.reset(graph, dst);
    let DijkstraScratch { buckets, current, leaves, .. } = scratch;
    if buckets.len() < n_buckets {
        buckets.resize_with(n_buckets, Vec::new);
    }
    debug_assert!(buckets.iter().all(Vec::is_empty) && current.is_empty());
    let mask = n_buckets - 1;
    let dist = &mut out.dist_ns;
    let next_hop = &mut out.next_hop;

    // Leaves hold 0 while the buckets run: no relaxation beats it, so
    // none is ever queued.
    leaves.clear();
    for &v in graph.leaves() {
        if v != dst {
            dist[v as usize] = 0;
            leaves.push((v, UNREACHABLE, u32::MAX));
        }
    }

    dist[dst as usize] = 0;
    buckets[0].push(dst);
    let mut queued = 1usize;
    let mut k = 0u64;
    while queued > 0 {
        let slot = k as usize & mask;
        if buckets[slot].is_empty() {
            k += 1;
            continue;
        }
        std::mem::swap(&mut buckets[slot], current);
        queued -= current.len();
        for &u in current.iter() {
            let d = dist[u as usize];
            if d >> shift != k {
                continue; // stale: `u` was expanded from an earlier bucket
            }
            for e in graph.edges(u as usize) {
                let v = e.to as usize;
                let nd = d + u64::from(e.delay_ns);
                let old = dist[v];
                if nd < old {
                    dist[v] = nd;
                    // v's next hop towards dst is the node we relaxed from.
                    next_hop[v] = u;
                    // Already queued in that bucket: its entry reads the
                    // new label when the bucket is expanded.
                    if nd >> shift != old >> shift {
                        buckets[(nd >> shift) as usize & mask].push(e.to);
                        queued += 1;
                    }
                } else if nd == old && u < next_hop[v] {
                    // Equal-cost tie, resolved towards the smaller parent
                    // id for determinism (a finite label always has a hop).
                    next_hop[v] = u;
                }
            }
        }
        current.clear();
        k += 1;
    }

    // The leaves, from their own edges: every one is reset first, so no
    // leaf (but the destination) is a candidate parent of another.
    for &(v, ..) in leaves.iter() {
        dist[v as usize] = UNREACHABLE;
    }
    for (v, label, parent) in leaves.iter_mut() {
        for e in graph.edges(*v as usize) {
            let via = dist[e.to as usize].saturating_add(u64::from(e.delay_ns));
            if (via, e.to) < (*label, *parent) {
                (*label, *parent) = (via, e.to);
            }
        }
    }
    for &(v, label, parent) in leaves.iter() {
        if label != UNREACHABLE {
            dist[v as usize] = label;
            next_hop[v as usize] = parent;
        }
    }
}

/// The binary-heap Dijkstra: the product's fallback for snapshots the
/// bucket queue does not take, and the oracle its tests compare with.
fn heap_tree_into(graph: &DelayGraph, dst: u32, scratch: &mut DijkstraScratch, out: &mut SpTree) {
    let n = graph.num_nodes();
    out.reset(graph, dst);
    check_key_ids(n);
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
                next_hop[v] = u;
                heap.push(Reverse(heap_key(nd, v as u32)));
            } else if nd == dist[v] && u < next_hop[v] {
                next_hop[v] = u;
            }
        }
    }
}

impl SpTree {
    /// The neighbour `v` forwards to, or `None` when `v` is unreachable or
    /// the destination.
    #[inline]
    pub fn hop(&self, v: u32) -> Option<u32> {
        let hop = self.next_hop[v as usize];
        (hop != NO_HOP).then_some(hop)
    }

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
            cur = self.hop(cur)?;
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

    /// The heap oracle's tree towards `dst`.
    fn heap_tree(graph: &DelayGraph, dst: u32) -> SpTree {
        let mut tree = SpTree::empty();
        heap_tree_into(graph, dst, &mut DijkstraScratch::new(), &mut tree);
        tree
    }

    /// Every tree of `graph` through one warm scratch, equal to the heap
    /// oracle's byte for byte.
    fn assert_every_tree_matches_the_heap(graph: &DelayGraph, ctx: &str) {
        let (mut scratch, mut tree) = (DijkstraScratch::new(), SpTree::empty());
        for dst in 0..graph.num_nodes() as u32 {
            shortest_path_tree_into(graph, dst, &mut scratch, &mut tree);
            let oracle = heap_tree(graph, dst);
            assert_eq!(tree.dist_ns, oracle.dist_ns, "{ctx} dst {dst}: distances");
            assert_eq!(tree.next_hop, oracle.next_hop, "{ctx} dst {dst}: next hops");
        }
    }

    /// Random graphs whose weights come from a small set, so most vertices
    /// have several equal-cost parents; some vertices may not transit (two
    /// of them adjacent), some are isolated, and the set sometimes mixes
    /// in a weight far above `Δ` (the circular array wraps) or a zero
    /// (the heap runs). Distances also equal Floyd–Warshall's, and every
    /// next hop is an optimal first hop.
    #[test]
    fn bucket_queue_equals_the_heap_and_floyd_warshall_on_random_graphs() {
        let weight_sets: [&[u32]; 6] =
            [&[1], &[1, 2, 3], &[3, 5, 7], &[4, 4, 6, 1000], &[2, 3, 250_000], &[0, 1, 2]];
        let mut cases_by_path = [0; 2];
        for seed in 0..300u64 {
            let mut rng = hypatia_util::rng::DetRng::new(0xb0c4 + seed);
            let n = 2 + rng.next_below(40) as usize;
            let weights = weight_sets[rng.next_below(weight_sets.len() as u64) as usize];
            let mut transit = vec![true; n];
            for _ in 0..rng.next_below(1 + n as u64 / 3) {
                transit[rng.next_below(n as u64) as usize] = false;
            }
            (transit[0], transit[1]) = (false, false);
            let mut links = vec![(0, 1, weights[0])];
            for _ in 0..rng.next_below(4 * n as u64) {
                let (a, b) = (rng.next_below(n as u64) as u32, rng.next_below(n as u64) as u32);
                // The upper half of the ids stays cut off now and then.
                if a != b && (seed % 5 != 0 || (a < n as u32 / 2) == (b < n as u32 / 2)) {
                    let w = weights[rng.next_below(weights.len() as u64) as usize];
                    links.push((a, b, w));
                }
            }
            let g = DelayGraph::from_links(transit, &links);
            cases_by_path[usize::from(bucket_layout(&g).is_some())] += 1;
            let ctx = format!("seed {seed} weights {weights:?}");
            assert_every_tree_matches_the_heap(&g, &ctx);
            let ap = crate::floyd_warshall::floyd_warshall(&g);
            for dst in 0..n as u32 {
                let tree = shortest_path_tree(&g, dst);
                for v in 0..n as u32 {
                    assert_eq!(tree.distance_ns(v), ap.distance_ns(v, dst), "{ctx}: {v}->{dst}");
                    if let Some(p) = tree.hop(v) {
                        // The lightest of the parallel links to the parent.
                        let w = g.edges(v as usize).iter().filter(|e| e.to == p);
                        let w = w.map(|e| u64::from(e.delay_ns)).min().expect("hop is no edge");
                        let via = tree.dist_ns[p as usize] + w;
                        assert_eq!(via, tree.dist_ns[v as usize], "{ctx}: hop {v}->{p}");
                    }
                }
            }
        }
        assert!(cases_by_path.iter().all(|&c| c > 30), "heap / bucket cases {cases_by_path:?}");
    }

    /// Snapshots of random small shells — ISL and bent-pipe (ground
    /// stations transit), with a pole station nothing reaches — masked by
    /// random satellite outages, ISL cuts and weather.
    #[test]
    fn bucket_queue_equals_the_heap_on_masked_constellation_snapshots() {
        use hypatia_fault::{FaultSchedule, FaultSpec, FaultState, LinkCut, OutageWindow};
        use hypatia_util::SimDuration;
        for seed in 0..24u64 {
            let mut rng = hypatia_util::rng::DetRng::new(0x5ca1e + seed);
            let bent_pipe = seed % 3 == 0;
            let (orbits, per_orbit) = (3 + rng.next_below(5) as u32, 4 + rng.next_below(5) as u32);
            let mut stations: Vec<GroundStation> = (0..2 + rng.next_below(8))
                .map(|i| {
                    let lat = rng.next_below(1200) as f64 / 10.0 - 60.0;
                    let lon = rng.next_below(3600) as f64 / 10.0 - 180.0;
                    GroundStation::new(format!("gs{i}"), lat, lon)
                })
                .collect();
            stations.push(GroundStation::new("pole", 89.9, 0.0));
            let c = Constellation::build(
                "buckets",
                vec![ShellSpec::new(
                    "A",
                    [550.0, 1100.0][seed as usize % 2],
                    orbits,
                    per_orbit,
                    53.0,
                )],
                if bent_pipe { IslLayout::None } else { IslLayout::PlusGrid },
                stations,
                GslConfig::new([10.0, 25.0][rng.next_below(2) as usize]),
            );
            assert_eq!(c.gs_relay, bent_pipe);
            let n_sats = (orbits * per_orbit) as u64;
            let mut spec = FaultSpec::default();
            for _ in 0..rng.next_below(6) {
                let target = rng.next_below(n_sats) as u32;
                spec.sat_outages.push(OutageWindow { target, from_s: 0.0, until_s: 60.0 });
            }
            for _ in 0..rng.next_below(3) {
                let target = rng.next_below(c.num_ground_stations() as u64) as u32;
                spec.gsl_weather.push(OutageWindow { target, from_s: 0.0, until_s: 60.0 });
            }
            for _ in 0..rng.next_below(4) {
                if !c.isls.is_empty() {
                    let (a, b) = c.isls[rng.next_below(c.isls.len() as u64) as usize];
                    spec.isl_cuts.push(LinkCut { a, b, from_s: 0.0, until_s: 60.0 });
                }
            }
            let sched = FaultSchedule::compile(&spec, &c, SimDuration::from_secs(60));
            let t = SimTime::from_millis(rng.next_below(50_000));
            let mask = FaultState::at(&sched, t);
            let g = DelayGraph::snapshot_masked(&c, t, Some(&mask));
            assert!(bucket_layout(&g).is_some(), "seed {seed}: geometry took the heap");
            assert_every_tree_matches_the_heap(&g, &format!("seed {seed} t {t:?}"));
        }
    }

    /// The release-mode gate of `scripts/check.sh`: the benchmark's three
    /// shells under its flap process at full size, every tree of every
    /// instant against the heap oracle.
    #[test]
    #[ignore = "long: T1, K1 and S1 x 100 destinations x 50 snapshots; run by scripts/check.sh in release"]
    fn bucket_queue_equals_the_heap_on_full_shells_under_flapping() {
        use hypatia_constellation::presets;
        use hypatia_constellation::NodeId;
        use hypatia_fault::{FaultSchedule, FaultSpec, FaultState, FlapProcess};
        use hypatia_util::SimDuration;
        let cities = hypatia_constellation::ground::top_cities(100);
        let shells = [
            presets::telesat_t1(cities.clone()),
            presets::kuiper_k1(cities.clone()),
            presets::starlink_s1(cities),
        ];
        for c in shells {
            let spec = FaultSpec {
                seed: 2020,
                sat_flap: Some(FlapProcess { mttf_s: 190.0, mttr_s: 10.0 }),
                ..FaultSpec::default()
            };
            let sched = FaultSchedule::compile(&spec, &c, SimDuration::from_secs(5));
            let dests: Vec<NodeId> = (0..c.num_ground_stations()).map(|i| c.gs_node(i)).collect();
            let (mut scratch, mut tree, mut heap) =
                (DijkstraScratch::new(), SpTree::empty(), DijkstraScratch::new());
            let mut oracle = SpTree::empty();
            for step in 0..50u64 {
                let t = SimTime::from_millis(100 * step);
                let g = DelayGraph::snapshot_masked(&c, t, Some(&FaultState::at(&sched, t)));
                assert!(bucket_layout(&g).is_some(), "{} step {step}: took the heap", c.name);
                for d in &dests {
                    shortest_path_tree_into(&g, d.0, &mut scratch, &mut tree);
                    heap_tree_into(&g, d.0, &mut heap, &mut oracle);
                    let ctx = format!("{} step {step} dst {}", c.name, d.0);
                    assert_eq!(tree.dist_ns, oracle.dist_ns, "{ctx}: distances");
                    assert_eq!(tree.next_hop, oracle.next_hop, "{ctx}: next hops");
                }
            }
        }
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
