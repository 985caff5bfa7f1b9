//! Incremental snapshot routing: each destination's shortest-path tree is
//! repaired from the previous snapshot's instead of recomputed.
//!
//! Between consecutive forwarding-state snapshots every edge *weight*
//! drifts (satellites move) and a handful of GSL/visibility (or fault)
//! edges flip, yet under the workloads' own fault process only 1–17 of a
//! tree's 451–1684 vertices end up closer to the destination than the old
//! tree's path makes them. This module diffs consecutive [`DelayGraph`]
//! snapshots ([`GraphDiff`]) to decide whether repair is worth it, and
//! repairs each destination's [`SpTree`] in place; [`IncrementalRouter`]
//! wraps the policy (full vs. repair, churn-threshold fallback) plus the
//! per-worker caches.
//!
//! # What a repair costs
//!
//! Every weight moves, so any vertex *may* have a new parent; the kernel
//! (`repair_shortest_path_tree`) proves that nearly all have not. Its
//! floor is every vertex, plus the edges of uncertified vertices: one
//! parents-first pass over the vertices, then one scan over the edges of
//! the vertices it cannot certify (about 2 % of them per 100 ms step on
//! K1 and S1 under the benchmark's flap process). The tree remembers a parents-first order, the adjacency slot of
//! every parent and every vertex's *runner-up gap* (nine bytes a vertex),
//! so the first pass is a walk with O(1) weight lookups and a certificate
//! is an O(1) test. Vertices that may not transit (ground stations,
//! outside bent-pipe constellations) are *leaves* that hold
//! [`UNREACHABLE`] while the others are scanned and are filled last, so a
//! scan needs no per-edge test and reduces to a branch-free minimum. The
//! heap phase and the re-scan after it touch only what actually changed.
//! Full Dijkstra ([`shortest_path_tree_into`]) remains the fallback and
//! the only oracle.
//!
//! # Every recompute on two threads
//!
//! Every recompute — a repair, or a full one: the first snapshot (a
//! simulator's initial state, a restore without a valid cache, a sweep's
//! first step), a churn or zero-delay fallback, and every snapshot in
//! [`RoutingMode::Full`] — brings the trees of the later half of the
//! destinations to the new snapshot on one scoped helper thread while the
//! caller does the first half, each with its own [`DijkstraScratch`] and
//! repair scratch; the one snapshot drift is shared read-only, and the
//! helper's [`RepairStats`] are merged after the join. Each side copies
//! its trees into the [`ForwardingState`] as it finishes them, while they
//! are still in cache. The trees are independent of each other, so the
//! bytes and the counts are the serial loop's. The helper lives only for
//! that call: there is no knob and never more than one helper per router,
//! so a router briefly occupies two threads.
//! [`crate::forwarding::compute_forwarding_state_into`], the oracle, stays
//! serial.
//!
//! # Why skipping a scan is exact
//!
//! Let `ℓ` be the previous exact labels, `ℓ'` the labels along the old
//! tree under the new weights (step 1), `δ[v] = ℓ'[v] − ℓ[v]`, `δmin` the
//! smallest `δ` over the vertices finite on both sides (the destination's
//! is 0), and `B` the largest `|Δw|` over the edges both snapshots have.
//! `v`'s remembered gap `g` bounds every non-parent edge `(u, v)` of the
//! previous snapshot: `ℓ[u] + w ≥ ℓ[v] + g`. Under the new weights that
//! edge offers `ℓ'[u] + w' ≥ ℓ[u] + δmin + w − B ≥ ℓ'[v] + g − (B + δ[v]
//! − δmin)`. So when `g > B + δ[v] − δmin` every non-parent edge is
//! strictly worse than the old parent's, whose path is `ℓ'[v]` by
//! construction: a scan would re-find the old parent, label and slot, and
//! skipping it writes the same bytes. The gap is then lowered by that
//! amount, which keeps it a lower bound. What the bound does not cover is
//! always scanned: a vertex that gained or lost an edge, one reachable on
//! one side only, and — through steps 3–4 — any vertex next to one whose
//! label dropped below `ℓ'` (the heap relaxes it, step 4 rescans every
//! dropped vertex's neighbours, and a leaf next to one is scanned in step
//! 5). An untouched vertex unreachable on both sides keeps its verdict
//! too: none of its edges led anywhere, `ℓ'` is finite only where `ℓ` was,
//! and a neighbour that now leads somewhere has dropped its label. A scan
//! records the exact gap, from a second running minimum.
//!
//! # Determinism and byte-identity
//!
//! The full Dijkstra in [`crate::dijkstra`] produces, for every vertex
//! `v`, the exact shortest distance and the *minimum-id optimal parent*:
//! `next_hop[v] = min { u : edge (u,v) of weight w, dist[u] + w == dist[v],
//! and u may transit (or u == dst) }`. With strictly positive weights
//! every optimal parent settles strictly before `v`, so each one gets to
//! relax `v`, and the `u < old` tie-break keeps the smallest id. The
//! repair therefore recomputes exact distances (warm-start Dijkstra from
//! the previous tree, run to a tense-edge-free fixed point) and derives
//! `next_hop` from the distances alone, as the smallest `(dist[u] + w, u)`
//! over `v`'s edges — an explicit id comparison, since adjacency lists are
//! in construction order, not id order. The result is
//! byte-identical to a from-scratch computation regardless of which
//! previous snapshot seeded the repair — which is what lets per-worker
//! caches process snapshots at any thread count and in any order. A
//! zero-weight edge would break the strictly-before argument, so such
//! snapshots (never produced by real geometry) fall back to full Dijkstra.

use crate::dijkstra::{
    check_key_ids, heap_key, key_parts, shortest_path_tree_into, DijkstraScratch, SpTree, NO_HOP,
    UNREACHABLE,
};
use crate::forwarding::ForwardingState;
use crate::graph::{DelayGraph, Edge};
use hypatia_constellation::NodeId;
use hypatia_util::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How forwarding states are computed across consecutive snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingMode {
    /// Full per-destination Dijkstra every snapshot (the test oracle).
    Full,
    /// Repair the previous snapshot's trees; identical output.
    #[default]
    Incremental,
}

/// Routing-pipeline configuration shared by the parallel sweep, the
/// simulator's worker, and the bench harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutingConfig {
    /// Full recompute vs. incremental repair.
    pub mode: RoutingMode,
    /// Fall back to full Dijkstra when the fraction of flipped (inserted +
    /// deleted) directed edges between consecutive snapshots exceeds this.
    /// Weight-only drift never counts towards churn.
    pub repair_churn_threshold: f64,
}

impl Default for RoutingConfig {
    fn default() -> Self {
        RoutingConfig { mode: RoutingMode::default(), repair_churn_threshold: 0.10 }
    }
}

impl RoutingConfig {
    /// Always-full configuration.
    pub fn full() -> Self {
        RoutingConfig { mode: RoutingMode::Full, ..Default::default() }
    }

    /// Incremental configuration with the default churn threshold.
    pub fn incremental() -> Self {
        RoutingConfig { mode: RoutingMode::Incremental, ..Default::default() }
    }
}

/// Structural difference between two consecutive snapshot graphs.
///
/// Weight deltas are counted (they affect every ISL every snapshot);
/// topology flips are listed explicitly, since those are what the
/// churn-threshold fallback decision is about.
#[derive(Debug, Clone, Default)]
pub struct GraphDiff {
    /// Directed edges present in `cur` but not `prev`.
    pub inserted: Vec<(u32, u32)>,
    /// Directed edges present in `prev` but not `cur`.
    pub deleted: Vec<(u32, u32)>,
    /// Directed edges present in both with a different weight.
    pub weight_changed: usize,
    /// Directed edges present in both with the same weight.
    pub unchanged: usize,
    /// Largest `|Δw|` over the edges present in both, ns (0 when none).
    pub max_weight_change_ns: u64,
    /// Smallest edge weight in `cur` (ns); [`u64::MAX`] when edgeless.
    pub min_delay_ns: u64,
    /// Directed edge count of `prev`.
    pub prev_edges: usize,
    /// Directed edge count of `cur`.
    pub cur_edges: usize,
}

fn find_delay(edges: &[Edge], to: u32) -> Option<u32> {
    edges.iter().find(|e| e.to == to).map(|e| e.delay_ns)
}

impl GraphDiff {
    /// Diff two snapshots (allocating convenience).
    pub fn between(prev: &DelayGraph, cur: &DelayGraph) -> GraphDiff {
        let mut diff = GraphDiff::default();
        diff.diff_into(prev, cur);
        diff
    }

    /// Diff two snapshots of the same node set, reusing this diff's
    /// buffers. Graphs with differing node counts are not diffable.
    pub fn diff_into(&mut self, prev: &DelayGraph, cur: &DelayGraph) {
        assert_eq!(prev.num_nodes(), cur.num_nodes(), "snapshots differ in node count");
        self.inserted.clear();
        self.deleted.clear();
        self.weight_changed = 0;
        self.unchanged = 0;
        self.max_weight_change_ns = 0;
        // `DelayGraph` records its smallest weight when it is built.
        self.min_delay_ns =
            if cur.num_edges() == 0 { u64::MAX } else { u64::from(cur.min_delay_ns()) };
        self.prev_edges = prev.num_edges();
        self.cur_edges = cur.num_edges();
        let mut kept = |was: u32, now: u32| {
            let moved = was.abs_diff(now);
            self.max_weight_change_ns = self.max_weight_change_ns.max(u64::from(moved));
            self.unchanged += usize::from(moved == 0);
            self.weight_changed += usize::from(moved != 0);
        };
        for u in 0..cur.num_nodes() {
            let pe = prev.edges(u);
            let ce = cur.edges(u);
            // Snapshot adjacency order is construction-stable, so when the
            // neighbour sets match, the lists are positionally identical.
            if pe.len() == ce.len() && pe.iter().zip(ce).all(|(a, b)| a.to == b.to) {
                for (a, b) in pe.iter().zip(ce) {
                    kept(a.delay_ns, b.delay_ns);
                }
                continue;
            }
            for e in ce {
                match find_delay(pe, e.to) {
                    None => self.inserted.push((u as u32, e.to)),
                    Some(w) => kept(w, e.delay_ns),
                }
            }
            for e in pe {
                if find_delay(ce, e.to).is_none() {
                    self.deleted.push((u as u32, e.to));
                }
            }
        }
    }

    /// Fraction of directed edges that flipped (inserted or deleted),
    /// relative to the larger of the two snapshots. Zero-safe.
    pub fn churn_fraction(&self) -> f64 {
        let denom = self.prev_edges.max(self.cur_edges).max(1);
        (self.inserted.len() + self.deleted.len()) as f64 / denom as f64
    }

    /// Does `cur` contain a zero-weight edge (repair would lose the
    /// canonical-parent tie-break)?
    pub fn has_zero_delay(&self) -> bool {
        self.min_delay_ns == 0 && self.cur_edges > 0
    }
}

/// What the repair kernel did, summed over every tree a router repaired.
/// Telemetry: the counts depend on which snapshot a router's cache held,
/// so across a parallel sweep they vary with thread scheduling; the
/// repaired trees never do.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Trees repaired (repaired snapshots × destinations).
    pub trees: u64,
    /// Label drops: times a vertex turned out closer to the destination
    /// than the previous tree's path makes it under the new weights (found
    /// tense by the edge scan, or relaxed in the heap phase).
    pub retensed: u64,
    /// Vertices whose parent was re-derived after the heap phase (the
    /// dropped vertices and their neighbours, each once per tree).
    pub rescanned: u64,
    /// Remembered parent slots that no longer held the parent (a fault or
    /// visibility flip shifted the adjacency), resolved by linear search.
    pub slot_misses: u64,
    /// Edge scans skipped because the vertex's runner-up gap proved its
    /// parent unchanged (out of one per vertex but the destination, per
    /// tree).
    pub certified: u64,
}

impl RepairStats {
    /// Add `other`'s counts to this one's.
    pub fn merge(&mut self, other: &RepairStats) {
        self.trees += other.trees;
        self.retensed += other.retensed;
        self.rescanned += other.rescanned;
        self.slot_misses += other.slot_misses;
        self.certified += other.certified;
    }
}

/// What one snapshot tells each tree's repair: the same for every tree
/// of the snapshot, so it is built once.
#[derive(Debug, Default)]
struct Drift {
    /// `touched[v]`: `v` gained or lost an edge, so its gap bounds nothing.
    touched: Vec<bool>,
    /// `B`: the largest `|Δw|` over the edges both snapshots have, ns.
    bound_ns: u64,
}

impl Drift {
    /// From `diff`, the [`GraphDiff`] that ends at `graph`.
    fn fill_from(&mut self, diff: &GraphDiff, graph: &DelayGraph) {
        let n = graph.num_nodes();
        self.touched.clear();
        self.touched.resize(n, false);
        for &(a, b) in diff.inserted.iter().chain(&diff.deleted) {
            self.touched[a as usize] = true;
            self.touched[b as usize] = true;
        }
        self.bound_ns = diff.max_weight_change_ns;
    }
}

/// "No remembered slot" in a tree's parent-slot cache: the parent is
/// looked up by linear search (also what a slot ≥ 255 is stored as).
const NO_SLOT: u8 = u8::MAX;

/// Label of a transit vertex the parents-first pass has not reached yet.
/// Never a distance: real ones are sums of at most `n` `u32` delays.
const PENDING: u64 = UNREACHABLE - 1;

/// [`RepairScratch::mark`] values; all `CLEAN` between repairs.
const CLEAN: u8 = 0;
/// The vertex's label dropped and it is listed in `dropped`.
const DROPPED: u8 = 1;
/// The vertex's parent was re-derived after the heap phase.
const RESCANNED: u8 = 2;

/// What one repair of a tree remembers for the next: nine bytes a vertex
/// (1.5 MB for Starlink S1 × 100 destinations). `slots` and `order` are
/// hints, validated as they are read, so a stale one costs time, never
/// bytes; `gaps` are certificates, valid for the snapshot the tree
/// describes and nothing else.
#[derive(Debug, Default)]
struct TreeMemo {
    /// `slots[v]`: where `v`'s parent sat in `v`'s adjacency ([`NO_SLOT`]:
    /// not known). Any length but the node count: nothing remembered.
    slots: Vec<u8>,
    /// The transit vertices in a parents-first order of the tree.
    order: Vec<u32>,
    /// `gaps[v]`: a lower bound on `(dist[u] ⊕ w) − dist[v]` over `v`'s
    /// non-parent edges, ns, saturating (0: no certificate).
    gaps: Vec<u32>,
}

impl TreeMemo {
    /// The tree was recomputed from scratch: nothing is remembered.
    fn forget(&mut self) {
        self.slots.clear();
    }
}

/// Reusable working memory for [`repair_shortest_path_tree`].
#[derive(Debug, Default)]
struct RepairScratch {
    /// Vertices climbed through, not yet labelled (parents-first pass).
    stack: Vec<u32>,
    /// Transit vertices in the order that pass labelled them.
    sequence: Vec<u32>,
    /// Packed `(distance, vertex)` keys, as full Dijkstra's.
    heap: BinaryHeap<Reverse<u64>>,
    /// Vertices whose label dropped, each once.
    dropped: Vec<u32>,
    /// Per-vertex `CLEAN` / `DROPPED` / `RESCANNED`.
    mark: Vec<u8>,
    /// Leaf results, written back only after every leaf was scanned.
    leaves: Vec<(u32, Scan)>,
    /// `ℓ`: the tree's labels as the repair found them (swapped in from
    /// the tree; between repairs, a spare buffer of stale labels).
    was: Vec<u64>,
}

/// A vertex's verdict: its label, the lowest-id parent that achieves it
/// and that parent's adjacency slot, and the runner-up gap.
#[derive(Debug, Clone, Copy)]
struct Scan {
    label: u64,
    parent: u32,
    slot: usize,
    gap: u32,
}

/// Where the edge to `parent` sits in `edges`, a vertex's adjacency, and
/// its delay: at the remembered `slot` when that still holds it, else by
/// linear search; `None` when the edge is gone.
#[inline]
fn parent_edge(edges: &[Edge], slot: u8, parent: u32, misses: &mut u64) -> Option<(u8, u32)> {
    match edges.get(usize::from(slot)) {
        Some(e) if e.to == parent => Some((slot, e.delay_ns)),
        _ => {
            *misses += u64::from(slot != NO_SLOT);
            let at = edges.iter().position(|e| e.to == parent)?;
            Some((u8::try_from(at).unwrap_or(NO_SLOT), edges[at].delay_ns))
        }
    }
}

/// `dist[parent] ⊕ w(v, parent)` for the vertex `v` whose adjacency is
/// `edges` (see [`parent_edge`]); [`UNREACHABLE`] when the edge is gone.
#[inline]
fn via_parent(edges: &[Edge], slot: u8, parent: u32, dist: &[u64], misses: &mut u64) -> u64 {
    parent_edge(edges, slot, parent, misses)
        .map_or(UNREACHABLE, |(_, w)| dist[parent as usize].saturating_add(u64::from(w)))
}

/// `δ = ℓ' − ℓ` of one vertex; `i64::MAX`, which bounds nothing, unless
/// both labels are finite.
#[inline(always)]
fn label_drift(now: u64, was: u64) -> i64 {
    if now == UNREACHABLE || was == UNREACHABLE {
        i64::MAX
    } else {
        now as i64 - was as i64
    }
}

/// `min(dist[u] ⊕ w)` over the edges `(u, w)` of one vertex, with the
/// minimum-id tie-break, and the runner-up gap. `⊕` saturates, so an
/// [`UNREACHABLE`] neighbour never wins; whether a neighbour may be a
/// parent at all is encoded in its label (leaves hold `UNREACHABLE` while
/// transit vertices are scanned). That leaves one comparison per edge:
/// distance, id and slot are packed, most significant first, into a
/// `u128` whose minimum is all three answers — a compare-and-select the
/// compiler has no reason to turn back into a branch on data. The
/// runner-up is a second running minimum of the same kind: the smallest
/// distance but the winner's is the minimum, over the edges, of the larger
/// of the edge's distance and the best one before it.
#[inline(always)]
fn best_parent(edges: &[Edge], dist: &[u64]) -> Scan {
    let (mut best, mut runner_up) = (u128::MAX, u64::MAX);
    for (slot, e) in edges.iter().enumerate() {
        let via = dist[e.to as usize].saturating_add(u64::from(e.delay_ns));
        let key = (u128::from(via) << 64) | (u128::from(e.to) << 32) | slot as u32 as u128;
        runner_up = runner_up.min(via.max((best >> 64) as u64));
        best = best.min(key);
    }
    let label = (best >> 64) as u64;
    Scan {
        label,
        parent: (best >> 32) as u32,
        slot: best as u32 as usize,
        gap: u32::try_from(runner_up - label).unwrap_or(u32::MAX),
    }
}

/// Record a scan's verdict on `v`.
#[inline(always)]
fn set_parent(
    v: usize,
    scan: Scan,
    dist: &mut [u64],
    next_hop: &mut [u32],
    slots: &mut [u8],
    gaps: &mut [u32],
) {
    dist[v] = scan.label;
    next_hop[v] = if scan.label != UNREACHABLE { scan.parent } else { NO_HOP };
    slots[v] = u8::try_from(scan.slot).unwrap_or(NO_SLOT);
    gaps[v] = scan.gap;
}

/// The certificate test: `Some(lowered gap)` when a vertex whose step-1
/// label is `now`, whose previous exact label was `was` and whose gap is
/// `gap` provably keeps its parent; `slack` is `B − δmin`.
#[inline(always)]
fn certified_gap(gap: u32, now: u64, was: u64, slack: i64) -> Option<u32> {
    match (now == UNREACHABLE, was == UNREACHABLE) {
        // Still cut off (module doc).
        (true, true) => Some(gap),
        (false, false) => {
            // `B + δ[v] − δmin`, at least 0: `δ[v] ≥ δmin` for a transit
            // vertex, and a leaf's `δ` is its parent's plus one `Δw ≥ −B`.
            let shrink = slack + (now as i64 - was as i64);
            (i64::from(gap) > shrink).then(|| (i64::from(gap) - shrink) as u32)
        }
        _ => None,
    }
}

/// Repair `tree` — an exact shortest-path tree of a *previous* snapshot
/// with the same node set and transit flags — into the exact tree for
/// `graph`, byte-identical to [`shortest_path_tree_into`] on `graph`.
///
/// `memo` is what the previous repair of this tree left for this one; it
/// belongs to the tree and must be [`TreeMemo::forget`]-ed whenever the
/// tree is recomputed from scratch (no certificates: every vertex is
/// scanned). `drift` is what the [`GraphDiff`] from the tree's snapshot to
/// `graph` says.
///
/// A vertex that may not transit can never be a parent, so apart from the
/// destination such vertices are *leaves*: they hold [`UNREACHABLE`] until
/// step 5, which is what lets steps 2 and 4 run without a per-edge transit
/// test.
///
/// 1. Parents first, re-derive every transit vertex's distance along the
///    old tree under the new weights (in `order`, O(1) weight lookups
///    through `slots`). A vertex whose parent edge is gone, or whose
///    parent is cut off, becomes unreachable for now.
/// 2. Every transit vertex whose gap does not certify its parent (module
///    doc) has its edges scanned: `v`'s label becomes `min(dist[u] ⊕ w)`,
///    the lowest-id minimiser and its slot become its parent, and if the
///    label dropped, `v` seeds the heap.
/// 3. Dijkstra repair from the seeds to a fixed point. Labels only
///    decrease, each is the length of a real transit-valid path, and at
///    termination no edge is tense: the labels are exact.
/// 4. Step 2's parent is final for every vertex whose own label and whose
///    neighbours' labels never dropped; the others are scanned once more.
/// 5. The leaves: certified by their gaps unless next to a dropped label,
///    scanned otherwise.
///
/// `graph` must not contain zero-weight edges (callers check via
/// [`GraphDiff::has_zero_delay`] and fall back to full Dijkstra).
fn repair_shortest_path_tree(
    graph: &DelayGraph,
    drift: &Drift,
    tree: &mut SpTree,
    memo: &mut TreeMemo,
    scratch: &mut RepairScratch,
    stats: &mut RepairStats,
) {
    let n = graph.num_nodes();
    let dst = tree.dst as usize;
    assert_eq!(tree.dist_ns.len(), n, "tree/snapshot node count mismatch");
    assert_eq!(drift.touched.len(), n, "drift/snapshot node count mismatch");
    check_key_ids(n);
    let TreeMemo { slots, order, gaps } = memo;
    if slots.len() != n {
        slots.clear();
        slots.resize(n, NO_SLOT);
        gaps.clear();
        gaps.resize(n, 0);
        order.clear();
    }
    scratch.mark.resize(n, CLEAN);
    stats.trees += 1;
    let RepairScratch { stack, sequence, heap, dropped, mark, leaves, was } = scratch;
    // The previous labels become `was` by a buffer swap, not a copy; the
    // tree takes the scratch buffer, whose stale entries step 1 overwrites.
    std::mem::swap(&mut tree.dist_ns, was);
    tree.dist_ns.resize(n, 0);
    let was = &was[..n];
    let dist = &mut tree.dist_ns[..n];
    let next_hop = &mut tree.next_hop[..n];
    let slots = &mut slots[..n];
    let gaps = &mut gaps[..n];

    // Step 1. `order` is a parents-first order of the tree as the previous
    // repair found it, so nearly every vertex finds its parent labelled;
    // one that does not (its parent changed since) climbs to the first
    // labelled ancestor and labels the chain on the way back down. The
    // labelling sequence is the next repair's order. With nothing
    // remembered, ascending ids do the same job, all by climbing. `δmin`
    // is taken as labels are written: over the destination (0) and the
    // transit vertices (leaves hold UNREACHABLE), finite on both sides.
    let transit = graph.transit();
    let mut todo = 0;
    for (d, &t) in dist.iter_mut().zip(transit) {
        *d = if t { PENDING } else { UNREACHABLE };
        todo += usize::from(t);
    }
    todo -= usize::from(transit[dst]);
    dist[dst] = 0;
    let mut delta_min = 0;
    sequence.clear();
    for v in order.iter().copied().chain(0..n as u32) {
        if sequence.len() == todo {
            break;
        }
        if dist[v as usize] != PENDING {
            continue;
        }
        let mut x = v as usize;
        dist[x] = loop {
            match next_hop[x] {
                NO_HOP => break UNREACHABLE,
                p if dist[p as usize] != PENDING => {
                    break via_parent(graph.edges(x), slots[x], p, dist, &mut stats.slot_misses);
                }
                p => {
                    stack.push(x as u32);
                    x = p as usize;
                }
            }
        };
        delta_min = delta_min.min(label_drift(dist[x], was[x]));
        sequence.push(x as u32);
        while let Some(child) = stack.pop() {
            let c = child as usize;
            let slot = slots[c];
            dist[c] = via_parent(graph.edges(c), slot, x as u32, dist, &mut stats.slot_misses);
            delta_min = delta_min.min(label_drift(dist[c], was[c]));
            sequence.push(child);
            x = c;
        }
    }
    std::mem::swap(order, sequence);
    let slack = drift.bound_ns as i64 - delta_min;

    // Step 2. In place: a later vertex already sees an earlier one's drop.
    heap.clear();
    dropped.clear();
    let mut note_drop = |v: usize| {
        stats.retensed += 1;
        if mark[v] == CLEAN {
            mark[v] = DROPPED;
            dropped.push(v as u32);
        }
    };
    let mut certified = 0;
    for (v, &t) in transit.iter().enumerate() {
        if v == dst || !t {
            continue;
        }
        if !drift.touched[v] {
            if let Some(gap) = certified_gap(gaps[v], dist[v], was[v], slack) {
                gaps[v] = gap;
                certified += 1;
                continue;
            }
        }
        let found = best_parent(graph.edges(v), dist);
        if found.label < dist[v] {
            heap.push(Reverse(heap_key(found.label, v as u32)));
            note_drop(v);
        }
        // `found.label <= dist[v]` always: v's old parent is among its edges.
        set_parent(v, found, dist, next_hop, slots, gaps);
    }

    // Step 3.
    while let Some(Reverse(key)) = heap.pop() {
        let (d, u) = key_parts(key);
        if d > dist[u as usize] {
            continue; // stale entry
        }
        for e in graph.edges(u as usize) {
            let x = e.to as usize;
            let nd = d + u64::from(e.delay_ns);
            // Leaves wait for step 5 (and the destination stays at 0).
            if graph.may_transit(x) && nd < dist[x] {
                dist[x] = nd;
                heap.push(Reverse(heap_key(nd, e.to)));
                note_drop(x);
            }
        }
    }

    // Step 4. A leaf is only marked here: step 5 scans it.
    let mut rescan = |v: usize, dist: &mut [u64]| {
        if v == dst || mark[v] == RESCANNED {
            return;
        }
        mark[v] = RESCANNED;
        if graph.may_transit(v) {
            stats.rescanned += 1;
            let found = best_parent(graph.edges(v), dist);
            debug_assert_eq!(found.label, dist[v], "label of {v} is not a fixed point");
            set_parent(v, found, dist, next_hop, slots, gaps);
        }
    };
    for &x in dropped.iter() {
        rescan(x as usize, dist);
        for e in graph.edges(x as usize) {
            rescan(e.to as usize, dist);
        }
    }

    // Step 5. A leaf's neighbour may itself be a leaf (never in a
    // constellation, but a `DelayGraph` allows it), so no leaf's label is
    // written while another is still to be scanned. A certified leaf
    // keeps its parent and slot; its label follows the parent's.
    leaves.clear();
    for &v in graph.leaves() {
        let v = v as usize;
        if v == dst {
            continue;
        }
        if mark[v] == CLEAN && !drift.touched[v] {
            let p = next_hop[v];
            let edge = (p != NO_HOP)
                .then(|| parent_edge(graph.edges(v), slots[v], p, &mut stats.slot_misses))
                .flatten();
            let (label, parent, slot) = match edge {
                Some((slot, w)) => (dist[p as usize].saturating_add(u64::from(w)), p, slot),
                None => (UNREACHABLE, u32::MAX, NO_SLOT),
            };
            if let Some(gap) = certified_gap(gaps[v], label, was[v], slack) {
                certified += 1;
                leaves.push((v as u32, Scan { label, parent, slot: usize::from(slot), gap }));
                continue;
            }
        }
        leaves.push((v as u32, best_parent(graph.edges(v), dist)));
    }
    for &(v, found) in leaves.iter() {
        set_parent(v as usize, found, dist, next_hop, slots, gaps);
    }
    stats.certified += certified;
    for &x in dropped.iter() {
        mark[x as usize] = CLEAN;
        for e in graph.edges(x as usize) {
            mark[e.to as usize] = CLEAN;
        }
    }
}

/// How [`Half::recompute`] brings a tree to the new snapshot.
#[derive(Clone, Copy)]
enum Recompute<'a> {
    /// Full Dijkstra; the tree's memo is forgotten.
    Full,
    /// Repair from the previous snapshot, with the drift that ends at the
    /// new one.
    Repair(&'a Drift),
}

/// The scratch of the router's one helper thread.
#[derive(Debug, Default)]
struct HelperScratch {
    dijkstra: DijkstraScratch,
    repair: RepairScratch,
}

/// One thread's share of a recompute: a run of destinations, their cached
/// trees and memos, and the forwarding-state slots the trees are copied
/// to.
struct Half<'a> {
    dests: &'a [NodeId],
    trees: &'a mut [SpTree],
    memos: &'a mut [TreeMemo],
    out: &'a mut [SpTree],
}

impl<'a> Half<'a> {
    /// The first half of the destinations, and the rest. The caller of a
    /// split starts at once and the helper only once spawned, so the first
    /// half takes the odd tree.
    fn halves(self) -> (Half<'a>, Half<'a>) {
        let mid = self.dests.len().div_ceil(2);
        let (dests, later_dests) = self.dests.split_at(mid);
        let (trees, later_trees) = self.trees.split_at_mut(mid);
        let (memos, later_memos) = self.memos.split_at_mut(mid);
        let (out, later_out) = self.out.split_at_mut(mid);
        (
            Half { dests, trees, memos, out },
            Half { dests: later_dests, trees: later_trees, memos: later_memos, out: later_out },
        )
    }

    /// Bring every tree to `graph` and copy it out while it is still in
    /// cache.
    fn recompute(
        self,
        graph: &DelayGraph,
        how: Recompute<'_>,
        dijkstra: &mut DijkstraScratch,
        repair: &mut RepairScratch,
        stats: &mut RepairStats,
    ) {
        let Half { dests, trees, memos, out } = self;
        for (((tree, memo), copy), d) in trees.iter_mut().zip(memos).zip(out).zip(dests) {
            match how {
                Recompute::Full => {
                    shortest_path_tree_into(graph, d.0, dijkstra, tree);
                    memo.forget();
                }
                Recompute::Repair(drift) => {
                    repair_shortest_path_tree(graph, drift, tree, memo, repair, stats);
                }
            }
            copy.dst = tree.dst;
            copy.dist_ns.clone_from(&tree.dist_ns);
            copy.next_hop.clone_from(&tree.next_hop);
        }
    }
}

/// Recompute every tree of `all` on `graph`. With a `helper` scratch and
/// at least two destinations, the later half runs on one scoped helper
/// thread (its own scratch and [`RepairStats`], merged into `stats` after
/// the join) while the caller runs the first half: the trees are
/// independent, so the bytes and the counts are those of the serial loop.
/// A panic on the helper resurfaces on the caller.
fn recompute_trees(
    graph: &DelayGraph,
    how: Recompute<'_>,
    all: Half<'_>,
    dijkstra: &mut DijkstraScratch,
    repair: &mut RepairScratch,
    stats: &mut RepairStats,
    helper: Option<&mut HelperScratch>,
) {
    let Some(helper) = helper.filter(|_| all.dests.len() >= 2) else {
        return all.recompute(graph, how, dijkstra, repair, stats);
    };
    let (own, later) = all.halves();
    let mut helper_stats = RepairStats::default();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            let HelperScratch { dijkstra, repair } = helper;
            later.recompute(graph, how, dijkstra, repair, &mut helper_stats);
        });
        own.recompute(graph, how, dijkstra, repair, stats);
        if let Err(panic) = handle.join() {
            std::panic::resume_unwind(panic);
        }
    });
    stats.merge(&helper_stats);
}

/// Why a snapshot was (or was not) repaired — tallied in [`RouterStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Snapshots computed in total.
    pub snapshots: u64,
    /// Snapshots repaired incrementally.
    pub repaired: u64,
    /// Snapshots computed by full Dijkstra because the mode says so.
    pub full_mode: u64,
    /// Full recomputes because no valid cache existed (first snapshot, or
    /// the destination set / node count changed).
    pub fallback_first: u64,
    /// Full recomputes because topology churn exceeded the threshold.
    pub fallback_churn: u64,
    /// Full recomputes because the snapshot contains a zero-weight edge.
    pub fallback_zero_delay: u64,
}

impl RouterStats {
    /// Add `other`'s counts to this one's.
    pub fn merge(&mut self, other: &RouterStats) {
        self.snapshots += other.snapshots;
        self.repaired += other.repaired;
        self.full_mode += other.full_mode;
        self.fallback_first += other.fallback_first;
        self.fallback_churn += other.fallback_churn;
        self.fallback_zero_delay += other.fallback_zero_delay;
    }
}

/// Per-worker incremental routing engine: the previous snapshot's
/// adjacency + exact trees with their parent-slot caches + scratch
/// buffers, and the full-vs-repair policy.
///
/// Every worker of a parallel sweep owns one router. Because repair output
/// is byte-identical to full recompute from *any* valid cache state, the
/// pipeline's results do not depend on which steps a worker happened to
/// process, so any thread count and any snapshot order produce identical
/// bytes.
#[derive(Debug)]
pub struct IncrementalRouter {
    config: RoutingConfig,
    /// Is (`prev_graph`, `trees`, `dests`) a coherent cache?
    valid: bool,
    /// Offsets and edges of the snapshot `trees` describe — all the diff
    /// reads; positions and transit flags are not kept.
    prev_graph: DelayGraph,
    dests: Vec<NodeId>,
    trees: Vec<SpTree>,
    /// `memos[i]`: what `trees[i]`'s last repair left for its next one.
    memos: Vec<TreeMemo>,
    scratch: DijkstraScratch,
    repair: RepairScratch,
    /// The scratch of the helper thread every recompute splits its trees
    /// with (see [`recompute_trees`]); `None` only in the tests that hold
    /// the split equal to one thread.
    helper: Option<HelperScratch>,
    diff: GraphDiff,
    drift: Drift,
    /// Decision counters (exposed for benches and tests).
    pub stats: RouterStats,
    /// What the repairs counted in `stats.repaired` did.
    pub repair_stats: RepairStats,
}

impl Default for IncrementalRouter {
    fn default() -> Self {
        IncrementalRouter::new(RoutingConfig::default())
    }
}

impl IncrementalRouter {
    /// A router with no cached state yet.
    pub fn new(config: RoutingConfig) -> Self {
        IncrementalRouter {
            config,
            valid: false,
            prev_graph: DelayGraph::default(),
            dests: Vec::new(),
            trees: Vec::new(),
            memos: Vec::new(),
            scratch: DijkstraScratch::new(),
            repair: RepairScratch::default(),
            helper: Some(HelperScratch::default()),
            diff: GraphDiff::default(),
            drift: Drift::default(),
            stats: RouterStats::default(),
            repair_stats: RepairStats::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> RoutingConfig {
        self.config
    }

    /// Drop the cached snapshot; the next compute runs full Dijkstra.
    pub fn invalidate(&mut self) {
        self.valid = false;
    }

    /// Compute the forwarding state of `graph` at `t` towards `dests`
    /// into `out`, repairing from the cached previous snapshot when the
    /// policy allows. Byte-identical to
    /// [`crate::forwarding::compute_forwarding_state_into`] in all modes.
    pub fn compute_into(
        &mut self,
        graph: &DelayGraph,
        t: SimTime,
        dests: &[NodeId],
        out: &mut ForwardingState,
    ) {
        self.stats.snapshots += 1;
        let repairable = match self.config.mode {
            RoutingMode::Full => {
                self.stats.full_mode += 1;
                false
            }
            RoutingMode::Incremental => {
                if !self.valid
                    || self.dests != dests
                    || self.prev_graph.num_nodes() != graph.num_nodes()
                {
                    self.stats.fallback_first += 1;
                    false
                } else {
                    self.diff.diff_into(&self.prev_graph, graph);
                    if self.diff.has_zero_delay() {
                        self.stats.fallback_zero_delay += 1;
                        false
                    } else if self.diff.churn_fraction() > self.config.repair_churn_threshold {
                        self.stats.fallback_churn += 1;
                        false
                    } else {
                        true
                    }
                }
            }
        };

        let how = if repairable {
            self.stats.repaired += 1;
            self.drift.fill_from(&self.diff, graph);
            Recompute::Repair(&self.drift)
        } else {
            self.dests.clear();
            self.dests.extend_from_slice(dests);
            self.trees.resize_with(dests.len(), SpTree::empty);
            self.memos.resize_with(dests.len(), TreeMemo::default);
            Recompute::Full
        };
        let all = Half {
            dests,
            trees: &mut self.trees,
            memos: &mut self.memos,
            out: out.reset(t, dests, graph.num_nodes()),
        };
        recompute_trees(
            graph,
            how,
            all,
            &mut self.scratch,
            &mut self.repair,
            &mut self.repair_stats,
            self.helper.as_mut(),
        );

        // Cache the snapshot the trees now describe (except in full mode,
        // where the cache is dead weight).
        if self.config.mode == RoutingMode::Incremental {
            self.prev_graph.copy_adjacency_from(graph);
            self.valid = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forwarding::compute_forwarding_state_into;
    use crate::graph::SnapshotBuffers;
    use hypatia_constellation::ground::GroundStation;
    use hypatia_constellation::gsl::GslConfig;
    use hypatia_constellation::isl::IslLayout;
    use hypatia_constellation::presets;
    use hypatia_constellation::shell::ShellSpec;
    use hypatia_constellation::Constellation;
    use hypatia_fault::{FaultSchedule, FaultSpec, FaultState, FlapProcess, LinkCut, OutageWindow};
    use hypatia_util::rng::DetRng;
    use hypatia_util::{SimDuration, SimTime};

    /// The full-Dijkstra oracle on `graph`.
    fn compute_forwarding_state_on(
        graph: &DelayGraph,
        t: SimTime,
        dests: &[NodeId],
    ) -> ForwardingState {
        let mut out = ForwardingState::empty();
        compute_forwarding_state_into(graph, t, dests, &mut DijkstraScratch::new(), &mut out);
        out
    }

    fn constellation() -> Constellation {
        Constellation::build(
            "inc",
            vec![ShellSpec::new("A", 550.0, 6, 6, 53.0)],
            IslLayout::PlusGrid,
            vec![
                GroundStation::new("a", 10.0, 10.0),
                GroundStation::new("b", -20.0, 120.0),
                GroundStation::new("c", 48.0, 2.0),
            ],
            GslConfig::new(25.0),
        )
    }

    /// What the router would hand each repair of `cur` after `prev`.
    fn drift(prev: &DelayGraph, cur: &DelayGraph) -> Drift {
        let mut drift = Drift::default();
        drift.fill_from(&GraphDiff::between(prev, cur), cur);
        drift
    }

    fn assert_trees_identical(a: &SpTree, b: &SpTree, ctx: &str) {
        assert_eq!(a.dst, b.dst, "{ctx}: dst");
        assert_eq!(a.dist_ns, b.dist_ns, "{ctx}: distances");
        assert_eq!(a.next_hop, b.next_hop, "{ctx}: next hops");
    }

    #[test]
    fn repair_matches_full_under_weight_drift() {
        let c = constellation();
        let dst = c.gs_node(0).0;
        let mut prev = DelayGraph::snapshot(&c, SimTime::ZERO);
        let mut tree = crate::dijkstra::shortest_path_tree(&prev, dst);
        let (mut memo, mut scratch, mut stats) = Default::default();
        // Walk forward in time: every ISL weight drifts, GSLs flip as
        // satellites rise and set.
        for secs in [5u64, 10, 30, 90, 180] {
            let g = DelayGraph::snapshot(&c, SimTime::from_secs(secs));
            let drift = drift(&prev, &g);
            repair_shortest_path_tree(&g, &drift, &mut tree, &mut memo, &mut scratch, &mut stats);
            let full = crate::dijkstra::shortest_path_tree(&g, dst);
            assert_trees_identical(&tree, &full, &format!("t={secs}s"));
            prev = g;
        }
    }

    #[test]
    fn repair_matches_full_across_fault_flips() {
        let c = constellation();
        let t = SimTime::from_secs(20);
        let spec = FaultSpec {
            sat_outages: vec![
                OutageWindow { target: 3, from_s: 10.0, until_s: 40.0 },
                OutageWindow { target: 17, from_s: 10.0, until_s: 40.0 },
            ],
            gsl_weather: vec![OutageWindow { target: 1, from_s: 10.0, until_s: 40.0 }],
            ..FaultSpec::default()
        };
        let sched = FaultSchedule::compile(&spec, &c, SimDuration::from_secs(60));
        let dark = FaultState::at(&sched, t);
        let nominal = DelayGraph::snapshot(&c, t);
        let masked = DelayGraph::snapshot_masked(&c, t, Some(&dark));
        let (mut scratch, mut stats) = Default::default();
        let (onset, recovery) = (drift(&nominal, &masked), drift(&masked, &nominal));
        for dst in [c.gs_node(0).0, c.gs_node(2).0] {
            // Fault appears: repair nominal tree onto the masked graph.
            let mut tree = crate::dijkstra::shortest_path_tree(&nominal, dst);
            let mut memo = TreeMemo::default();
            repair_shortest_path_tree(
                &masked,
                &onset,
                &mut tree,
                &mut memo,
                &mut scratch,
                &mut stats,
            );
            assert_trees_identical(
                &tree,
                &crate::dijkstra::shortest_path_tree(&masked, dst),
                "fault onset",
            );
            // Fault clears: repair the masked tree back onto nominal.
            repair_shortest_path_tree(
                &nominal,
                &recovery,
                &mut tree,
                &mut memo,
                &mut scratch,
                &mut stats,
            );
            assert_trees_identical(
                &tree,
                &crate::dijkstra::shortest_path_tree(&nominal, dst),
                "fault recovery",
            );
        }
    }

    /// What a run of fuzz cases did, summed.
    #[derive(Debug, Default)]
    struct ChainTotals {
        router: RouterStats,
        repair: RepairStats,
        /// Possible scans in repaired steps that flipped no edge.
        drift_only_scans: u64,
        /// How many of those a certificate skipped.
        drift_only_certified: u64,
    }

    /// One fuzz case: a random small shell, ground segment, destination
    /// set and fault schedule; the router visits a random walk of instants
    /// and every tree it hands out is compared with full Dijkstra.
    fn random_snapshot_chain(seed: u64, totals: &mut ChainTotals) {
        let rng = &mut DetRng::new(seed);
        let bent_pipe = rng.next_below(8) == 0;
        let altitude_km = [550.0, 1100.0][rng.next_below(2) as usize];
        let (orbits, per_orbit) = (4 + rng.next_below(4) as u32, 4 + rng.next_below(5) as u32);
        let n_sats = orbits * per_orbit;
        let mut stations: Vec<GroundStation> = (0..2 + rng.next_below(10))
            .map(|i| {
                let (lat, lon) =
                    (rng.next_below(1200) as f64 / 10.0 - 60.0, rng.next_below(3600) as f64 / 10.0);
                GroundStation::new(format!("gs{i}"), lat, lon - 180.0)
            })
            .collect();
        // 53° shells never rise above the pole's horizon mask.
        stations.push(GroundStation::new("pole", 89.9, 0.0));
        let n_gs = stations.len() as u32;
        let c = Constellation::build(
            "fuzz",
            vec![ShellSpec::new("A", altitude_km, orbits, per_orbit, 53.0)],
            if bent_pipe { IslLayout::None } else { IslLayout::PlusGrid },
            stations,
            GslConfig::new([10.0, 25.0][rng.next_below(2) as usize]),
        );
        assert_eq!(c.gs_relay, bent_pipe);

        let mut dests: Vec<NodeId> = (0..n_gs as usize).map(|i| c.gs_node(i)).collect();
        if rng.next_below(2) == 0 {
            dests.push(NodeId(rng.next_below(n_sats as u64) as u32)); // a satellite destination
        }
        let horizon_s = 200.0;
        let window = |rng: &mut DetRng, target: u32| {
            let from_s = rng.next_below(1800) as f64 / 10.0;
            let until_s = from_s + 1.0 + rng.next_below(600) as f64 / 10.0;
            OutageWindow { target, from_s, until_s }
        };
        let mut spec = FaultSpec::default();
        for _ in 0..rng.next_below(5) {
            let sat = rng.next_below(n_sats as u64) as u32;
            spec.sat_outages.push(window(rng, sat));
        }
        // The first destination's own station goes dark and comes back:
        // its whole tree turns unreachable, then reachable on stale slots.
        spec.gsl_weather.push(window(rng, 0));
        for _ in 0..rng.next_below(3) {
            let gs = rng.next_below(n_gs as u64) as u32;
            spec.gsl_weather.push(window(rng, gs));
        }
        for _ in 0..rng.next_below(5) {
            if !c.isls.is_empty() {
                let (a, b) = c.isls[rng.next_below(c.isls.len() as u64) as usize];
                let w = window(rng, 0);
                spec.isl_cuts.push(LinkCut { a, b, from_s: w.from_s, until_s: w.until_s });
            }
        }
        let sched = FaultSchedule::compile(&spec, &c, SimDuration::from_secs_f64(horizon_s));

        // A threshold of 1 never falls back on churn, so repair also meets
        // the snapshots the product would hand to full Dijkstra.
        let threshold = [0.1, 1.0][rng.next_below(2) as usize];
        let mut router = IncrementalRouter::new(RoutingConfig {
            mode: RoutingMode::Incremental,
            repair_churn_threshold: threshold,
        });
        let mut buffers = SnapshotBuffers::new();
        let mut out = ForwardingState::empty();
        let mut scratch = DijkstraScratch::new();
        let mut oracle = SpTree::empty();
        let mut t_ms = rng.next_below(120_000);
        for step in 0..20 + rng.next_below(10) {
            // Forwards, backwards or again, 1 ms … 60 s away.
            let jump = 1 + (rng.next_below(60_000) >> rng.next_below(16));
            t_ms = match rng.next_below(5) {
                0 => t_ms,
                1 | 2 => t_ms.saturating_sub(jump),
                _ => (t_ms + jump).min((horizon_s * 1e3) as u64),
            };
            let t = SimTime::from_millis(t_ms);
            let mask = FaultState::at(&sched, t);
            let graph = buffers.snapshot_masked(&c, t, Some(&mask));
            let (repaired, before) = (router.stats.repaired, router.repair_stats);
            router.compute_into(graph, t, &dests, &mut out);
            if router.stats.repaired > repaired
                && router.diff.inserted.is_empty()
                && router.diff.deleted.is_empty()
            {
                let trees = router.repair_stats.trees - before.trees;
                totals.drift_only_scans += trees * (graph.num_nodes() as u64 - 1);
                totals.drift_only_certified += router.repair_stats.certified - before.certified;
            }

            let ctx = format!("seed {seed} step {step} t={t_ms}ms");
            assert!(graph.edges(c.gs_node(n_gs as usize - 1).index()).is_empty(), "{ctx}: pole");
            assert_eq!(out.computed_at, t, "{ctx}");
            assert_eq!(out.dests, dests, "{ctx}");
            for (tree, d) in out.trees.iter().zip(&dests) {
                shortest_path_tree_into(graph, d.0, &mut scratch, &mut oracle);
                assert_trees_identical(tree, &oracle, &format!("{ctx} dst {}", d.0));
                assert_eq!(out.tree(*d).map(|t| t.dst), Some(d.0), "{ctx}: lookup");
            }
        }
        totals.router.merge(&router.stats);
        totals.repair.merge(&router.repair_stats);
    }

    #[test]
    fn repair_equals_full_dijkstra_on_random_snapshot_chains() {
        let mut totals = ChainTotals::default();
        for case in 0..240 {
            random_snapshot_chain(0x5eed_0000 + case, &mut totals);
        }
        // The suite is only worth its name if it reached every path.
        let ChainTotals { router, repair, drift_only_scans, drift_only_certified } = totals;
        assert!(router.repaired > 3000 && router.fallback_churn > 0, "{router:?}");
        assert!(
            repair.retensed > 0 && repair.rescanned > 0 && repair.slot_misses > 0,
            "{repair:?}"
        );
        // Certificates skip scans, and most of them where only weights moved.
        let drift_share = drift_only_certified as f64 / drift_only_scans.max(1) as f64;
        assert!(repair.certified > 0, "{repair:?}");
        assert!(
            drift_share >= 0.5,
            "{drift_only_certified} of {drift_only_scans} drift-only scans"
        );
    }

    /// Small integer weights on a grid with chords: most vertices have
    /// several equal-cost parents, so the minimum-id rule decides nearly
    /// every next hop. Some vertices may not transit, two of them adjacent.
    #[test]
    fn repair_picks_the_minimum_id_parent_among_ties() {
        let (side, n) = (6u32, 36usize);
        for seed in 0..60u64 {
            let mut rng = DetRng::new(0x7135 + seed);
            let mut transit = vec![true; n];
            for _ in 0..rng.next_below(6) {
                transit[rng.next_below(n as u64) as usize] = false;
            }
            (transit[7], transit[8]) = (false, false);
            let mut all_links = Vec::new();
            for v in 0..n as u32 {
                let (row, col) = (v / side, v % side);
                if col + 1 < side {
                    all_links.push((v, v + 1));
                }
                if row + 1 < side {
                    all_links.push((v, v + side));
                }
                if col + 1 < side && row + 1 < side && v % 3 == 0 {
                    all_links.push((v, v + side + 1));
                }
            }
            let draw = |rng: &mut DetRng| {
                let mut links = Vec::new();
                for &(a, b) in &all_links {
                    if rng.next_below(8) != 0 {
                        links.push((a, b, 1 + rng.next_below(3) as u32)); // else: link down
                    }
                }
                DelayGraph::from_links(transit.clone(), &links)
            };
            let mut prev = draw(&mut rng);
            let mut trees: Vec<SpTree> =
                (0..n as u32).map(|d| crate::dijkstra::shortest_path_tree(&prev, d)).collect();
            let mut memos: Vec<TreeMemo> = (0..n).map(|_| TreeMemo::default()).collect();
            let (mut scratch, mut stats) = Default::default();
            for step in 0..12 {
                let g = draw(&mut rng);
                let drift = drift(&prev, &g);
                for (tree, memo) in trees.iter_mut().zip(&mut memos) {
                    repair_shortest_path_tree(&g, &drift, tree, memo, &mut scratch, &mut stats);
                    let full = crate::dijkstra::shortest_path_tree(&g, tree.dst);
                    assert_trees_identical(tree, &full, &format!("seed {seed} step {step}"));
                }
                prev = g;
            }
        }
    }

    /// A runner-up within `B` of the parent voids the certificate: the
    /// vertex is scanned and lands on the lowest-id parent of the new tie.
    /// Vertex 3 reaches the destination 0 through 2 (10 + 5) or 1 (10 + 6),
    /// a gap of 1; edge 1–3 then shortens by 1, so `B` equals the gap
    /// (the test is strict) or, with a far edge 0–4 lengthening by 3,
    /// exceeds it. Every other vertex keeps its certificate.
    #[test]
    fn a_runner_up_within_the_drift_bound_is_rescanned_onto_the_min_id_parent() {
        for far_edge in [None, Some((10, 13))] {
            let links = |w13: u32, w04: Option<u32>| {
                let mut links = vec![(0, 1, 10), (0, 2, 10), (1, 3, w13), (2, 3, 5)];
                links.extend(w04.map(|w| (0, 4, w)));
                DelayGraph::from_links(vec![true; 4 + usize::from(w04.is_some())], &links)
            };
            let before = links(6, far_edge.map(|(w, _)| w));
            let after = links(5, far_edge.map(|(_, w)| w));
            let n = before.num_nodes();
            let mut tree = crate::dijkstra::shortest_path_tree(&before, 0);
            assert_eq!(tree.hop(3), Some(2));
            let (mut memo, mut scratch) = (TreeMemo::default(), RepairScratch::default());
            let mut stats = RepairStats::default();
            // A fresh tree has no certificates: repairing it onto the same
            // snapshot records every gap.
            let same = drift(&before, &before);
            repair_shortest_path_tree(
                &before,
                &same,
                &mut tree,
                &mut memo,
                &mut scratch,
                &mut stats,
            );
            assert_eq!((stats.certified, memo.gaps[3]), (0, 1), "{far_edge:?}");

            let moved = drift(&before, &after);
            assert_eq!(
                moved.bound_ns,
                far_edge.map_or(1, |(a, b)| u64::from(b - a)),
                "{far_edge:?}"
            );
            repair_shortest_path_tree(
                &after,
                &moved,
                &mut tree,
                &mut memo,
                &mut scratch,
                &mut stats,
            );
            assert_eq!(tree.hop(3), Some(1), "{far_edge:?}: the tie goes to the lower id");
            let full = crate::dijkstra::shortest_path_tree(&after, 0);
            assert_trees_identical(&tree, &full, &format!("{far_edge:?}"));
            assert_eq!(stats.certified, n as u64 - 2, "{far_edge:?}: all but 3 certified");
            assert_eq!(memo.gaps[3], 0, "{far_edge:?}: the rescan recorded the tie");
        }
    }

    /// The release-mode gate of `scripts/check.sh`: the benchmark's shells
    /// and flap process at full size, the oracle every tenth step, and a
    /// router that never splits in lock-step with one that does.
    #[test]
    #[ignore = "long: K1 and S1 x 100 destinations x 200 snapshots; run by scripts/check.sh in release"]
    fn repair_equals_full_dijkstra_on_full_shells_under_flapping() {
        let cities = hypatia_constellation::ground::top_cities(100);
        for c in [presets::kuiper_k1(cities.clone()), presets::starlink_s1(cities)] {
            let spec = FaultSpec {
                seed: 16,
                sat_flap: Some(FlapProcess { mttf_s: 190.0, mttr_s: 10.0 }),
                ..FaultSpec::default()
            };
            let sched = FaultSchedule::compile(&spec, &c, SimDuration::from_secs(20));
            let dests: Vec<NodeId> = (0..c.num_ground_stations()).map(|i| c.gs_node(i)).collect();
            let mut router = IncrementalRouter::new(RoutingConfig::incremental());
            // One thread in lock-step: the split must count what it counts.
            let mut serial = IncrementalRouter::new(RoutingConfig::incremental());
            serial.helper = None;
            let mut buffers = SnapshotBuffers::new();
            let (mut out, mut serial_out) = (ForwardingState::empty(), ForwardingState::empty());
            for step in 0..200u64 {
                let t = SimTime::from_millis(100 * step);
                let mask = FaultState::at(&sched, t);
                let graph = buffers.snapshot_masked(&c, t, Some(&mask));
                router.compute_into(graph, t, &dests, &mut out);
                serial.compute_into(graph, t, &dests, &mut serial_out);
                assert_eq!(router.repair_stats, serial.repair_stats, "{} step {step}", c.name);
                if step % 10 == 9 {
                    assert_states_identical(&out, &serial_out, &format!("{} step {step}", c.name));
                    let reference = compute_forwarding_state_on(graph, t, &dests);
                    for (a, b) in out.trees.iter().zip(&reference.trees) {
                        assert_trees_identical(a, b, &format!("{} step {step}", c.name));
                    }
                }
            }
            assert_eq!(router.stats.repaired, 199, "{}: {:?}", c.name, router.stats);
            // A certificate that silently stops certifying is a slowdown
            // nothing else would notice. Out of one scan per vertex but the
            // destination, per repaired tree:
            let RepairStats { certified, trees, .. } = router.repair_stats;
            let share = certified as f64 / (trees * (c.num_nodes() as u64 - 1)) as f64;
            assert!(share >= 0.8, "{}: certified share {share:.3}", c.name);
        }
    }

    #[test]
    fn router_is_byte_identical_to_full_pipeline() {
        let c = constellation();
        let dests = vec![c.gs_node(0), c.gs_node(1)];
        let mut router = IncrementalRouter::new(RoutingConfig::incremental());
        let mut out = ForwardingState::empty();
        for secs in 0..8u64 {
            let t = SimTime::from_secs(secs * 15);
            let g = DelayGraph::snapshot(&c, t);
            router.compute_into(&g, t, &dests, &mut out);
            let reference = compute_forwarding_state_on(&g, t, &dests);
            assert_eq!(out.computed_at, reference.computed_at);
            assert_eq!(out.dests, reference.dests);
            for (a, b) in out.trees.iter().zip(&reference.trees) {
                assert_trees_identical(a, b, &format!("t={}s", secs * 15));
            }
            assert_eq!(out.dest_lookup, reference.dest_lookup);
        }
        assert!(router.stats.repaired >= 6, "drift steps should repair: {:?}", router.stats);
        assert_eq!(router.stats.fallback_first, 1, "{:?}", router.stats);
    }

    /// A full recompute split between the caller and the helper thread
    /// equals the full-Dijkstra oracle tree for tree, and a router that
    /// splits counts exactly what one that never splits counts: 1, 2, 3, 7
    /// and 100 destinations, over unmasked and masked snapshots whose
    /// outages force churn fallbacks onto and off the mask.
    #[test]
    fn split_full_recompute_equals_the_oracle_and_one_thread() {
        let c = Constellation::build(
            "split",
            vec![ShellSpec::new("B", 550.0, 10, 10, 53.0)],
            IslLayout::PlusGrid,
            hypatia_constellation::ground::top_cities(40),
            GslConfig::new(25.0),
        );
        let spec = FaultSpec {
            sat_outages: (0..40)
                .map(|s| OutageWindow { target: s * 2, from_s: 10.0, until_s: 40.0 })
                .collect(),
            gsl_weather: vec![OutageWindow { target: 3, from_s: 10.0, until_s: 40.0 }],
            ..FaultSpec::default()
        };
        let sched = FaultSchedule::compile(&spec, &c, SimDuration::from_secs(60));
        // (seconds, masked?): first, drift, onto the mask, on it, off it.
        let steps = [(0u64, false), (5, false), (15, true), (20, true), (45, false), (50, false)];
        let mut rng = DetRng::new(0x7370_6c69);
        for n_dests in [1usize, 2, 3, 7, 100] {
            let mut nodes: Vec<u32> = (0..c.num_nodes() as u32).collect();
            rng.shuffle(&mut nodes);
            let dests: Vec<NodeId> = nodes[..n_dests].iter().map(|&v| NodeId(v)).collect();
            let mut split = IncrementalRouter::new(RoutingConfig::incremental());
            let mut serial = IncrementalRouter::new(RoutingConfig::incremental());
            serial.helper = None;
            let (mut a, mut b) = (ForwardingState::empty(), ForwardingState::empty());
            for (secs, masked) in steps {
                let t = SimTime::from_secs(secs);
                let mask = masked.then(|| FaultState::at(&sched, t));
                let g = DelayGraph::snapshot_masked(&c, t, mask.as_ref());
                split.compute_into(&g, t, &dests, &mut a);
                serial.compute_into(&g, t, &dests, &mut b);
                let reference = compute_forwarding_state_on(&g, t, &dests);
                for (out, who) in [(&a, "split"), (&b, "serial")] {
                    assert_eq!(out.dests, reference.dests);
                    assert_eq!(out.dest_lookup, reference.dest_lookup);
                    for (x, y) in out.trees.iter().zip(&reference.trees) {
                        let ctx = format!("{who}, {n_dests} dests, t={secs}s");
                        assert_trees_identical(x, y, &ctx);
                    }
                }
                assert_eq!(split.stats, serial.stats, "{n_dests} dests, t={secs}s");
                assert_eq!(split.repair_stats, serial.repair_stats, "{n_dests} dests");
            }
            // The split ran on the first snapshot and on both churn
            // fallbacks (one onto a masked snapshot), and repair ran too.
            let stats = split.stats;
            assert_eq!((stats.fallback_first, stats.fallback_churn), (1, 2), "{stats:?}");
            assert_eq!(stats.repaired, 3, "{stats:?}");
        }
    }

    /// Both states name the same instant, destinations, trees and
    /// destination lookup.
    fn assert_states_identical(a: &ForwardingState, b: &ForwardingState, ctx: &str) {
        assert_eq!(a.computed_at, b.computed_at, "{ctx}: instant");
        assert_eq!(a.dests, b.dests, "{ctx}: destinations");
        assert_eq!(a.trees.len(), b.trees.len(), "{ctx}: tree count");
        for (x, y) in a.trees.iter().zip(&b.trees) {
            assert_trees_identical(x, y, ctx);
        }
        assert_eq!(a.dest_lookup, b.dest_lookup, "{ctx}: lookup");
    }

    /// A repair split between the caller and the helper thread equals the
    /// full-Dijkstra oracle tree for tree, and a router that splits holds
    /// and counts exactly what one that never splits does: 1, 2, 3, 7 and
    /// 100 destinations over a flapping, masked chain of snapshots with one
    /// churn fallback in the middle (a mass outage that outlasts the chain).
    #[test]
    fn split_repair_equals_the_oracle_and_one_thread() {
        let c = Constellation::build(
            "split",
            vec![ShellSpec::new("B", 550.0, 10, 10, 53.0)],
            IslLayout::PlusGrid,
            hypatia_constellation::ground::top_cities(40),
            GslConfig::new(25.0),
        );
        let spec = FaultSpec {
            seed: 0x5eed,
            sat_flap: Some(FlapProcess { mttf_s: 60.0, mttr_s: 5.0 }),
            sat_outages: (0..40)
                .map(|s| OutageWindow { target: s * 2 + 1, from_s: 6.0, until_s: 60.0 })
                .collect(),
            gsl_weather: vec![OutageWindow { target: 5, from_s: 2.0, until_s: 9.0 }],
            ..FaultSpec::default()
        };
        let sched = FaultSchedule::compile(&spec, &c, SimDuration::from_secs(20));
        let mut rng = DetRng::new(0x7265_7061);
        let mut scratch = DijkstraScratch::new();
        let mut reference = ForwardingState::empty();
        for n_dests in [1usize, 2, 3, 7, 100] {
            let mut nodes: Vec<u32> = (0..c.num_nodes() as u32).collect();
            rng.shuffle(&mut nodes);
            let dests: Vec<NodeId> = nodes[..n_dests].iter().map(|&v| NodeId(v)).collect();
            let mut split = IncrementalRouter::new(RoutingConfig::incremental());
            let mut serial = IncrementalRouter::new(RoutingConfig::incremental());
            serial.helper = None;
            let (mut a, mut b) = (ForwardingState::empty(), ForwardingState::empty());
            let mut buffers = SnapshotBuffers::new();
            for step in 0..48u64 {
                let t = SimTime::from_millis(250 * step);
                let mask = FaultState::at(&sched, t);
                let g = buffers.snapshot_masked(&c, t, Some(&mask));
                split.compute_into(g, t, &dests, &mut a);
                serial.compute_into(g, t, &dests, &mut b);
                compute_forwarding_state_into(g, t, &dests, &mut scratch, &mut reference);
                let ctx = format!("{n_dests} dests, step {step}");
                assert_states_identical(&a, &reference, &format!("split, {ctx}"));
                assert_states_identical(&b, &reference, &format!("serial, {ctx}"));
                for (x, y) in split.trees.iter().zip(&serial.trees) {
                    assert_trees_identical(x, y, &format!("cache, {ctx}"));
                }
                assert_eq!(split.stats, serial.stats, "{ctx}");
                assert_eq!(split.repair_stats, serial.repair_stats, "{ctx}");
            }
            let (stats, repair) = (split.stats, split.repair_stats);
            assert_eq!((stats.fallback_first, stats.fallback_churn), (1, 1), "{stats:?}");
            assert_eq!(stats.repaired, 46, "{stats:?}");
            assert_eq!(repair.trees, 46 * n_dests as u64, "{repair:?}");
            assert!(repair.retensed > 0 && repair.certified > 0, "{n_dests} dests: {repair:?}");
        }
    }

    #[test]
    fn first_snapshot_and_dest_change_fall_back_to_full() {
        let c = constellation();
        let g = DelayGraph::snapshot(&c, SimTime::ZERO);
        let mut router = IncrementalRouter::new(RoutingConfig::incremental());
        let mut out = ForwardingState::empty();
        router.compute_into(&g, SimTime::ZERO, &[c.gs_node(0)], &mut out);
        assert_eq!(router.stats.fallback_first, 1);
        // Changing the destination set invalidates the cache.
        router.compute_into(&g, SimTime::ZERO, &[c.gs_node(0), c.gs_node(1)], &mut out);
        assert_eq!(router.stats.fallback_first, 2);
        // Same dests again: repairable (zero-delta diff).
        router.compute_into(&g, SimTime::ZERO, &[c.gs_node(0), c.gs_node(1)], &mut out);
        assert_eq!(router.stats.repaired, 1, "{:?}", router.stats);
    }

    #[test]
    fn churn_threshold_forces_full_recompute() {
        let c = constellation();
        let t = SimTime::from_secs(20);
        // Take down a third of the satellites: a huge topology flip.
        let spec = FaultSpec {
            sat_outages: (0..12)
                .map(|s| OutageWindow { target: s, from_s: 10.0, until_s: 40.0 })
                .collect(),
            ..FaultSpec::default()
        };
        let sched = FaultSchedule::compile(&spec, &c, SimDuration::from_secs(60));
        let dark = FaultState::at(&sched, t);
        let dests = vec![c.gs_node(0)];
        let mut router = IncrementalRouter::new(RoutingConfig {
            mode: RoutingMode::Incremental,
            repair_churn_threshold: 0.05,
        });
        let mut out = ForwardingState::empty();
        let nominal = DelayGraph::snapshot(&c, t);
        router.compute_into(&nominal, t, &dests, &mut out);
        let masked = DelayGraph::snapshot_masked(&c, t, Some(&dark));
        router.compute_into(&masked, t, &dests, &mut out);
        assert_eq!(router.stats.fallback_churn, 1, "{:?}", router.stats);
        // The fallback still yields the exact reference state.
        let reference = compute_forwarding_state_on(&masked, t, &dests);
        for (a, b) in out.trees.iter().zip(&reference.trees) {
            assert_trees_identical(a, b, "churn fallback");
        }
    }

    #[test]
    fn full_mode_never_diffs_or_repairs() {
        let c = constellation();
        let dests = vec![c.gs_node(0)];
        let mut router = IncrementalRouter::new(RoutingConfig::full());
        let mut out = ForwardingState::empty();
        for secs in [0u64, 15, 30] {
            let g = DelayGraph::snapshot(&c, SimTime::from_secs(secs));
            router.compute_into(&g, SimTime::from_secs(secs), &dests, &mut out);
        }
        assert_eq!(router.stats.full_mode, 3);
        assert_eq!(router.stats.repaired, 0);
    }

    #[test]
    fn diff_between_identical_snapshots_is_empty() {
        let c = constellation();
        let g = DelayGraph::snapshot(&c, SimTime::from_secs(7));
        let diff = GraphDiff::between(&g, &g);
        assert!(diff.inserted.is_empty() && diff.deleted.is_empty());
        assert_eq!(diff.weight_changed, 0);
        assert_eq!(diff.unchanged, g.num_edges());
        assert_eq!(diff.churn_fraction(), 0.0);
        assert!(!diff.has_zero_delay());
        assert!(diff.min_delay_ns > 0, "real geometry has positive delays");
    }

    #[test]
    fn diff_counts_fault_flips_symmetrically() {
        let c = constellation();
        let t = SimTime::from_secs(20);
        let spec = FaultSpec {
            sat_outages: vec![OutageWindow { target: 5, from_s: 0.0, until_s: 40.0 }],
            ..FaultSpec::default()
        };
        let sched = FaultSchedule::compile(&spec, &c, SimDuration::from_secs(60));
        let dark = FaultState::at(&sched, t);
        let nominal = DelayGraph::snapshot(&c, t);
        let masked = DelayGraph::snapshot_masked(&c, t, Some(&dark));
        let onset = GraphDiff::between(&nominal, &masked);
        assert!(onset.inserted.is_empty());
        assert_eq!(onset.deleted.len(), nominal.num_edges() - masked.num_edges());
        assert!(onset.deleted.iter().all(|&(a, b)| a == 5 || b == 5));
        // The reverse diff mirrors inserts and deletes.
        let recovery = GraphDiff::between(&masked, &nominal);
        assert_eq!(recovery.inserted.len(), onset.deleted.len());
        assert!(recovery.deleted.is_empty());
        assert!((onset.churn_fraction() - recovery.churn_fraction()).abs() < 1e-12);
    }

    #[test]
    fn diff_counts_pure_weight_drift() {
        let c = constellation();
        let g0 = DelayGraph::snapshot(&c, SimTime::ZERO);
        let g1 = DelayGraph::snapshot(&c, SimTime::from_millis(100));
        let diff = GraphDiff::between(&g0, &g1);
        assert!(diff.weight_changed > 0, "ISL delays must drift over 100 ms");
        // A 100 ms step flips at most a few GSLs.
        assert!(
            diff.churn_fraction() < 0.05,
            "churn {} unexpectedly high: {} ins / {} del",
            diff.churn_fraction(),
            diff.inserted.len(),
            diff.deleted.len()
        );
    }
}
