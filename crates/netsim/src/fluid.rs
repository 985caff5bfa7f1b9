//! Fluid-flow modelling: a max-min fair rate solver for bulk traffic.
//!
//! Packet-level simulation charges every packet of every flow at least one
//! event per hop, so long-lived bulk flows dominate the event budget of
//! large workloads even though their behaviour is macroscopically simple:
//! a constant-rate flow on a stable path delivers `rate × time` bytes.
//! This module models such flows *analytically*. Each fluid flow is
//! assigned a per-link bandwidth share by progressive filling
//! (water-filling: all unfrozen flows rise at the same rate; a flow
//! freezes when it reaches its offered demand or when a link on its path
//! saturates — the classic max-min fair allocation), and delivered bytes
//! are integrated in closed form between events. Rates only change when
//! the network changes, so the solver re-runs exactly at:
//!
//! * forwarding-state swaps (paths move),
//! * fault-schedule updates (links and satellites come and go),
//! * fluid-flow install and finish boundaries (demand appears/vanishes).
//!
//! Between those instants the rate vector is constant and integration is
//! exact — bulk traffic costs O(re-solves), not O(packets).
//!
//! # Layout: dense link ids, two CSR buffers, one scratch
//!
//! A re-solve runs once per forwarding step, so its constant factor is the
//! hybrid engine's per-step cost. Every directed link device has a dense
//! id from the [`LinkTable`] built once from the constellation — in a
//! simulator, the very table its packet devices are indexed by, so a
//! residual push names the device it sets. A re-solve then
//!
//! 1. lays each live bundle's path out as link ids in one CSR buffer
//!    (`links`, `hop_start`): copied from the previous solve where the
//!    destination tree kept its next hops (*Path reuse* below), else
//!    walked hop by hop straight off the tree
//!    ([`ForwardingState::hops`]) — fault check and link-id lookup
//!    ([`LinkTable::of_hop`], the packet engine's device choice) in the
//!    same walk;
//! 2. inverts the hop lists into a second CSR buffer of per-link member
//!    bundles (`members`, `member_start`), indexed by link id;
//! 3. water-fills, bringing a link's residual up to date only in the
//!    rounds where it could decide the round (*Lazy residuals* below),
//!    and sums per-link load into `link_load`, a flat array over all link
//!    ids that (with `pushed`) persists between solves.
//!
//! Cost: O(Σ path length) to lay out, index and load the paths, plus the
//! walk of the bundles whose tree moved, plus O((loaded links +
//! candidates) · log links + residual updates) for the fill — where
//! *candidates* are the links a round has to look at exactly and
//! *residual updates* the rounds replayed for them. Measured on K1 / 100
//! cities / 10⁵ flows in 9 758 bundles over 31 solves 100 ms apart: 81 %
//! of the paths copied, ≈ 1.1 candidates per round, and 0.63 M residual
//! updates where updating every loaded link every round made 17 M. Every
//! buffer lives in a scratch struct owned by the [`FluidNet`] and is
//! cleared, never reallocated, so a steady-state re-solve allocates
//! nothing.
//!
//! # Path reuse
//!
//! Between two forwarding steps most destination trees keep every next
//! hop (≈ 83 % of them 100 ms apart on K1), so most paths are the
//! previous solve's. The solver keeps every bundle's link-id row from the
//! last solve, and a packed copy of each destination tree's next hops
//! that the new trees are compared with, entry by entry (`None`
//! included). A bundle whose tree is unchanged copies its row — or its
//! "unroutable" — and skips the walk, the link lookups and the fault
//! check; every other bundle is walked. Nothing is reused on the first
//! solve, after [`FluidNet::restore`] or a link-table rebuild, when
//! `fwd.dests` changed, or when a fault is active now or was at the
//! previous solve. The copy is exact: with no fault masking it, a
//! bundle's path, and whether it has one, depends on nothing but its
//! tree's next hops, its source and its destination, and a link id on
//! nothing but the link table. The cache is derived state; it never
//! enters a checkpoint.
//!
//! # Lazy residuals
//!
//! The fill keeps the eager loop's rounds and arithmetic — the same
//! `inc` sequence, `level += inc`, demand freezes and saturation test —
//! but a link matters to a round only if it could set the increment (the
//! smallest `r / w`) or saturate (`r ≤ cap · EPS`), so it does not update
//! every live link's residual every round:
//!
//! * Every live link has an approximate saturation level
//!   `A = (cap − F) / w`, where `w` is its unfrozen weight and `F` the
//!   load its frozen members froze at: its unfrozen flows all rise with
//!   the level, so in exact arithmetic it saturates exactly there, and
//!   `A` moves only when a member freezes. Around `A` sits the bracket
//!   `A ± m · cap / w`.
//! * Links wait in a min-queue keyed on the bottom of their bracket as
//!   queued. A member freezing at level `L` scales both `A − L` and the
//!   bracket's half-width by `w_old / w_new > 1`, so a bracket that lies
//!   above the level only rises: a stale key is a lower bound, re-keyed
//!   when it reaches the head.
//! * A round's *candidates* are the links whose bracket bottom is at or
//!   below the top of the head's bracket. Each is *replayed*: the eager
//!   `r −= w · inc_j` for every round since its last replay, each with the
//!   weight that round started with (the present weight plus every
//!   member that froze since, up to the round it froze in) — the very
//!   floats the eager loop computes. `inc` and the saturation set come
//!   from those exact values, and a link whose weight reaches 0 leaves the
//!   queue without ever needing its residual.
//!
//! *Why this is exact.* Let `s = level + r / w` be the saturation level
//! the eager residual `r` implies, and suppose `|A − s| ≤ e < m · cap / w`
//! for every live link. The link with the smallest `r / w` then has
//! `A − m · cap / w < s ≤ s_head < top`, so it is a candidate, and the
//! minimum over the candidates' exact `r / w` is the eager `inc`. A link
//! that saturates this round has `s ≤ level + inc + cap · EPS / w ≤ top +
//! cap · EPS / w`, so it is a candidate too once `m · cap / w ≥ e + cap ·
//! EPS / w`. Every bundle a saturating link freezes gets the round's
//! level whichever link freezes it first, and weights are integer flow
//! counts, so the frozen set, the rates and the weights are the eager
//! loop's, bit for bit.
//!
//! *The margin.* With `u = 2⁻⁵³`, `n` active bundles (so at most `n + 1`
//! rounds and `n` freezes per link) and `w · level ≤ cap` on a live link,
//! the errors in units of `cap` are: the eager residual's rounding,
//! ≤ `(n + 2) u` (one subtraction per round; the products sum to at most
//! `cap`); the level's, ≤ `(n + 1) u` (a sum of non-negative increments);
//! `F`'s, ≤ `(3n + 1) u` (per freeze: the level's error, the product, the
//! sum); and a few `u` forming `A` and `s`. So `e ≤ (5n + 9) u · cap / w ≤
//! 7n · 2⁻⁵² · cap / w`. The margin `m = max(1e-9, n · 2⁻⁴⁵)` is at least
//! `128n · 2⁻⁵²`, over 18 times that bound, and it is at least 1e-9, a
//! thousand times `EPS` — so both conditions above hold with room to
//! spare for the few `u` of rounding in the brackets and keys themselves.
//! A wider margin only adds candidates; it never changes a result.
//!
//! # Install index
//!
//! [`FluidNet::add_flow`] folds a flow into the bundle with the same
//! `(src, dst, demand, payload, stop)`, found through a `HashMap` under
//! the in-tree multiplicative hasher (`hypatia_util::hash::MulHasher`):
//! one probe per install, where a `BTreeMap` walked a B-tree of 10⁴
//! five-field keys (installing the benchmark's 10⁵ `hybrid_100k` flows
//! went from 18.6 to 6.9 ms on a 2-vCPU guest). Bundles stay in
//! first-appearance order and a
//! bundle's flow ids in install order, because both live in `Vec`s the
//! index only points into; nothing iterates the index, so the hash
//! values reach no output.

//! # Hybrid coupling
//!
//! In [`SimMode::Hybrid`] the aggregate fluid load of each directed link
//! is subtracted from that link device's capacity, so packet-level queues
//! (pings, TCP control traffic, short flows) serialize against the
//! *residual* rate. Fluid flows see full capacity (they are the bulk
//! majority and max-min filling already shares it); packet traffic sees
//! what the bulk load leaves behind, floored at 1% of capacity so a
//! saturated link still drains its queue deterministically.
//!
//! # Determinism
//!
//! Solver state lives in the simulator beside the nodes, never in them.
//! Re-solves happen at canonical global-event instants — the
//! `(time, key)` points the event loop applies global events at —
//! and the allocation is a pure function of (forwarding state,
//! fault state, flow table) — the path cache and the fill's candidate
//! order change which floats are computed, never their values —
//! evaluated in a deterministic order (install-order bundles, link ids,
//! ascending member bundles per link; reports and checkpoints list links
//! in ascending `(node, peer)` order). Observables are therefore
//! bit-identical from run to run and across a resume.

use crate::checkpoint::{CheckpointError, Snap, SnapReader, SnapWriter};
use crate::links::{LinkKey, LinkTable};
use crate::packet::HEADER_BYTES;
use hypatia_constellation::{Constellation, NodeId};
use hypatia_fault::FaultState;
use hypatia_routing::dijkstra::NO_HOP;
use hypatia_routing::forwarding::ForwardingState;
use hypatia_util::hash::MulBuildHasher;
use hypatia_util::{DataRate, SimTime};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// How the simulator treats bulk flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimMode {
    /// Every flow is packet-level (the reference engine; the default).
    #[default]
    Packet,
    /// Bulk flows are fluid; packet traffic sees full link capacity
    /// (no coupling — the analytic fast path for bulk-only studies).
    Fluid,
    /// Bulk flows are fluid *and* their per-link load is subtracted from
    /// device capacity, so packet-level traffic sees the residual.
    Hybrid,
}

impl SimMode {
    /// Display / spec name.
    pub fn name(self) -> &'static str {
        match self {
            SimMode::Packet => "packet",
            SimMode::Fluid => "fluid",
            SimMode::Hybrid => "hybrid",
        }
    }

    /// Parse a spec value (`packet`, `fluid`, or `hybrid`).
    pub fn parse(s: &str) -> Option<SimMode> {
        match s {
            "packet" => Some(SimMode::Packet),
            "fluid" => Some(SimMode::Fluid),
            "hybrid" => Some(SimMode::Hybrid),
            _ => None,
        }
    }
}

/// Relative tolerance for freeze decisions in the water-filling loop.
const EPS: f64 = 1e-12;

/// The lazy fill's bracket around a link's saturation level is
/// `± margin · cap / w`, with `margin = max(MARGIN, n · MARGIN_PER_BUNDLE)`
/// over `n` active bundles: more than ten times the rounding the bracket
/// can accumulate (module doc, *Lazy residuals*).
const MARGIN: f64 = 1e-9;
const MARGIN_PER_BUNDLE: f64 = 128.0 * f64::EPSILON;

/// "Not frozen yet" in [`Scratch::frozen_at`].
const UNFROZEN: u32 = u32::MAX;

/// [`PathCache::row`] marks: the bundle had no route at the last solve;
/// nothing is known about it (it was stopped, masked, or not yet solved).
const ROW_UNROUTABLE: u32 = u32::MAX;
const ROW_UNKNOWN: u32 = u32::MAX - 1;

/// A residual device rate for the packet engine to apply (hybrid mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LinkRate {
    pub(crate) link: u32,
    pub(crate) rate: DataRate,
}

/// Work counts of one re-solve (or sums of them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FluidSolve {
    /// Water-filling rounds (each freezes at least one bundle).
    pub rounds: u64,
    /// Bundles that were live, routable and unmasked.
    pub active_bundles: u64,
    /// Distinct links on their paths.
    pub links_loaded: u64,
    /// Hops walked off a destination tree (bundles whose path was not
    /// reused).
    pub hops_walked: u64,
    /// Bundles whose path was copied from the previous solve because their
    /// destination tree's next hops had not changed.
    pub paths_reused: u64,
    /// Per-link residual updates (`r -= w · inc`) the fill performed.
    pub residual_updates: u64,
    /// Residual device rates pushed to the packet engine (hybrid mode).
    pub residual_pushes: u64,
}

impl FluidSolve {
    fn add(&mut self, other: &FluidSolve) {
        self.rounds += other.rounds;
        self.active_bundles += other.active_bundles;
        self.links_loaded += other.links_loaded;
        self.hops_walked += other.hops_walked;
        self.paths_reused += other.paths_reused;
        self.residual_updates += other.residual_updates;
        self.residual_pushes += other.residual_pushes;
    }
}

/// Solver telemetry for the manifest's `perf.engine.fluid` block. Run
/// telemetry, never a simulation observable: it is not checkpointed, so
/// after a resume it counts from the restore point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FluidStats {
    /// Re-solves performed.
    pub resolves: u64,
    /// Work summed over every re-solve.
    pub total: FluidSolve,
    /// Work of the most recent re-solve.
    pub last: FluidSolve,
}

impl FluidStats {
    /// Fold in a later simulation's counts: totals add up, and `last` is
    /// the other's if it solved at all.
    pub fn merge(&mut self, other: &FluidStats) {
        self.resolves += other.resolves;
        self.total.add(&other.total);
        if other.resolves > 0 {
            self.last = other.last;
        }
    }
}

/// Flows sharing `(src, dst, demand, payload, stop)` — they are
/// symmetric under max-min fairness, so the solver allocates per bundle
/// and multiplies, keeping the fill O(bundles), not O(flows).
#[derive(Debug)]
struct Bundle {
    src: NodeId,
    dst: NodeId,
    /// Offered wire rate per flow, bits/s (headers included, matching how
    /// packet sources pace themselves).
    demand_bps: u64,
    /// Goodput-countable bytes per `payload + HEADER_BYTES` wire bytes.
    payload_bytes: u32,
    stop_at: SimTime,
    /// Global flow ids of the member flows (install order).
    flow_ids: Vec<u32>,
    /// Allocated wire rate per flow, bits/s (0 when expired, unroutable,
    /// or fault-masked).
    rate_bps: f64,
    /// Integrated wire bytes per flow.
    wire_bytes: f64,
}

impl Bundle {
    fn payload_fraction(&self) -> f64 {
        self.payload_bytes as f64 / (self.payload_bytes as f64 + HEADER_BYTES as f64)
    }
}

/// Per-resolve working memory: cleared at every solve, never reallocated
/// once warm. "Active" indexes the bundles a solve allocates to, in
/// install order; links are indexed by link id.
#[derive(Debug, Default, Clone)]
struct Scratch {
    /// Bundle index of each active bundle.
    active: Vec<u32>,
    /// Flow multiplicity and per-flow demand (bits/s) of each.
    mult: Vec<f64>,
    demand: Vec<f64>,
    /// CSR of hop lists: active bundle `ai` crosses the links
    /// `links[hop_start[ai]..hop_start[ai + 1]]`.
    hop_start: Vec<u32>,
    links: Vec<u32>,
    /// [`PathCache::row`] as this solve finds it, per bundle.
    row: Vec<u32>,
    /// CSR of member lists: link `l` carries the active bundles
    /// `members[member_start[l]..member_start[l + 1]]`, ascending.
    member_start: Vec<u32>,
    members: Vec<u32>,
    /// Per link: unfrozen flow multiplicity. Multiplicities are integers,
    /// so the incremental subtraction in the fill is exact: a fully
    /// frozen link reaches weight 0.0, not rounding dust.
    weight: Vec<f64>,
    /// Per link: Σ multiplicity × rate over its frozen member bundles.
    frozen_load: Vec<f64>,
    /// Per link: the exact residual as of the end of round `since`.
    resid: Vec<f64>,
    since: Vec<u32>,
    /// The water-level increment of each round (index 0: before the
    /// first), and a zeroed scratch row over rounds for [`Self::replay`].
    incs: Vec<f64>,
    thawed: Vec<f64>,
    /// Every live link not under consideration this round, keyed on the
    /// [`order_key`] of the bottom of its bracket when it was queued: a
    /// lower bound on the bottom of its current bracket.
    queue: BinaryHeap<Reverse<(u64, u32)>>,
    /// This round's candidate links.
    cand: Vec<u32>,
    /// Per active bundle: allocated rate and the round it froze in
    /// ([`UNFROZEN`] while it has not).
    rate: Vec<f64>,
    frozen_at: Vec<u32>,
    /// Active bundles by ascending demand (ties in install order).
    by_demand: Vec<u32>,
    /// Output buffer of [`FluidNet::residual_changes`].
    changes: Vec<LinkRate>,
}

impl Scratch {
    fn links_of(&self, ai: usize) -> &[u32] {
        &self.links[self.hop_start[ai] as usize..self.hop_start[ai + 1] as usize]
    }

    /// Build per-link weights and member lists over `num_links` link ids
    /// from the hop lists. Returns how many links carry a bundle.
    fn index_members(&mut self, num_links: usize) -> u64 {
        self.weight.clear();
        self.weight.resize(num_links, 0.0);
        self.member_start.clear();
        self.member_start.resize(num_links + 1, 0);
        for (ai, &m) in self.mult.iter().enumerate() {
            let hops = self.hop_start[ai] as usize..self.hop_start[ai + 1] as usize;
            for &l in &self.links[hops] {
                self.weight[l as usize] += m;
                self.member_start[l as usize] += 1;
            }
        }
        // Counts → end offsets; filling in descending bundle order walks
        // each offset back down to its start and leaves members ascending.
        let (mut end, mut loaded) = (0, 0);
        for count in &mut self.member_start {
            loaded += u64::from(*count > 0);
            end += *count;
            *count = end;
        }
        self.members.clear();
        self.members.resize(end as usize, 0);
        for ai in (0..self.active.len()).rev() {
            let hops = self.hop_start[ai] as usize..self.hop_start[ai + 1] as usize;
            for &l in &self.links[hops] {
                let slot = &mut self.member_start[l as usize];
                *slot -= 1;
                self.members[*slot as usize] = ai as u32;
            }
        }
        loaded
    }

    /// Reset rates and freeze marks and sort the active bundles by demand.
    fn start_fill(&mut self) {
        let n = self.active.len();
        self.rate.clear();
        self.rate.resize(n, 0.0);
        self.frozen_at.clear();
        self.frozen_at.resize(n, UNFROZEN);
        self.by_demand.clear();
        self.by_demand.extend(0..n as u32);
        let demand = &self.demand;
        // Keyed on (demand, index): the stable order, without the
        // allocation of a stable sort.
        self.by_demand.sort_unstable_by(|&a, &b| {
            demand[a as usize].total_cmp(&demand[b as usize]).then(a.cmp(&b))
        });
    }

    /// Allocate `ai` the water level `level` and take its flows off the
    /// unfrozen weight of every link it crosses, in round `round`.
    fn freeze(&mut self, ai: usize, round: u32, level: f64) {
        self.rate[ai] = level;
        self.frozen_at[ai] = round;
        let (m, load) = (self.mult[ai], self.mult[ai] * level);
        for &l in &self.links[self.hop_start[ai] as usize..self.hop_start[ai + 1] as usize] {
            self.weight[l as usize] -= m;
            self.frozen_load[l as usize] += load;
        }
    }

    /// Bring link `l`'s residual up to date through round `to`: the eager
    /// fill's `r -= w * inc` for every round since the last replay, each
    /// with the weight that round started with — the present weight plus
    /// every member that froze since, up to the round it froze in.
    /// Returns the number of updates made.
    fn replay(&mut self, l: usize, to: u32) -> u64 {
        let from = self.since[l];
        if from == to {
            return 0;
        }
        // `thawed[round]`: the multiplicity that left the weight after
        // `round`.
        let mut w = self.weight[l];
        for &ai in &self.members[self.member_start[l] as usize..self.member_start[l + 1] as usize] {
            let round = self.frozen_at[ai as usize];
            if round > from && round != UNFROZEN {
                let m = self.mult[ai as usize];
                self.thawed[round as usize] += m;
                w += m;
            }
        }
        let mut r = self.resid[l];
        let rounds = from as usize + 1..=to as usize;
        for (&inc, thawed) in self.incs[rounds.clone()].iter().zip(&mut self.thawed[rounds]) {
            r -= w * inc;
            w -= *thawed;
            *thawed = 0.0;
        }
        self.resid[l] = r;
        self.since[l] = to;
        u64::from(to - from)
    }

    /// Take this round's candidates off the queue into `cand`: every live
    /// link whose bracket reaches below the top of the bracket of the
    /// queue's first current entry. The link with the smallest exact
    /// `r / w` is one, and so is every link this round saturates. An entry
    /// whose link changed weight since it was queued is re-keyed before it
    /// is judged; dead links are dropped.
    fn take_candidates(&mut self, cand: &mut Vec<u32>, cap: &[f64], margin: f64) {
        let top = loop {
            let Some(mut head) = self.queue.peek_mut() else { break f64::INFINITY };
            let Reverse((key, l)) = *head;
            let l = l as usize;
            if self.weight[l] == 0.0 {
                PeekMut::pop(head);
                continue;
            }
            let (lo, hi) = bracket(self.weight[l], self.frozen_load[l], cap[l], margin);
            if order_key(lo) == key {
                break hi;
            }
            *head = Reverse((order_key(lo), l as u32));
        };
        let limit = order_key(top);
        cand.clear();
        while let Some(&Reverse((key, l))) = self.queue.peek() {
            if key > limit {
                break;
            }
            self.queue.pop();
            let l = l as usize;
            if self.weight[l] == 0.0 {
                continue;
            }
            let lo = order_key(bracket(self.weight[l], self.frozen_load[l], cap[l], margin).0);
            if lo > limit {
                self.queue.push(Reverse((lo, l as u32)));
            } else {
                cand.push(l as u32);
            }
        }
    }

    /// Progressive filling in incremental form over links of capacity
    /// `cap`. Every unfrozen flow's rate rises uniformly from zero, so a
    /// single scalar water level describes all of them; a bundle freezes
    /// when the level reaches its demand (sorted-demand pointer) or a link
    /// on its path saturates (per-link member lists). Link weights change
    /// only when a bundle freezes, and a link's residual is brought up to
    /// date only in the rounds where it is a *candidate* — where its
    /// bracket says it could set the increment or saturate (module doc,
    /// *Lazy residuals*) — so every decision is the eager loop's, made on
    /// the same floats. Returns `(final level, rounds, residual updates)`;
    /// bundles still unfrozen (numerical backstop exit only) are settled
    /// by [`Self::close_fill`].
    fn fill(&mut self, cap: &[f64]) -> (f64, u64, u64) {
        let n = self.active.len();
        self.start_fill();
        let margin = MARGIN.max(n as f64 * MARGIN_PER_BUNDLE);
        let links = self.weight.len();
        self.resid.clear();
        self.resid.extend_from_slice(cap);
        self.since.clear();
        self.since.resize(links, 0);
        self.frozen_load.clear();
        self.frozen_load.resize(links, 0.0);
        let mut queue = std::mem::take(&mut self.queue);
        queue.clear();
        queue.extend((0..links).filter(|&l| self.weight[l] > 0.0).map(|l| {
            Reverse((order_key(bracket(self.weight[l], 0.0, cap[l], margin).0), l as u32))
        }));
        self.queue = queue;
        self.incs.clear();
        self.incs.push(0.0);
        self.thawed.clear();
        self.thawed.push(0.0);
        let mut cand = std::mem::take(&mut self.cand);
        let mut dptr = 0;
        let mut level = 0.0f64;
        let mut unfrozen = n;
        let mut round = 0u32;
        let mut updates = 0;
        while unfrozen > 0 {
            round += 1;
            while dptr < n && self.frozen_at[self.by_demand[dptr] as usize] != UNFROZEN {
                dptr += 1;
            }
            self.take_candidates(&mut cand, cap, margin);
            // Next freeze: whichever comes first — a link saturating or
            // the lowest unfrozen demand. Unfrozen rates all equal
            // `level`, so the demand gap needs only the sorted head.
            let mut inc = f64::INFINITY;
            for &l in &cand {
                let l = l as usize;
                updates += self.replay(l, round - 1);
                inc = inc.min((self.resid[l] / self.weight[l]).max(0.0));
            }
            if let Some(&ai) = self.by_demand.get(dptr) {
                inc = inc.min(self.demand[ai as usize] - level);
            }
            let inc = if inc.is_finite() { inc.max(0.0) } else { 0.0 };
            level += inc;
            self.incs.push(inc);
            self.thawed.push(0.0);
            for &l in &cand {
                let l = l as usize;
                self.resid[l] -= self.weight[l] * inc;
                self.since[l] = round;
            }
            updates += cand.len() as u64;
            let mut newly = 0;
            while let Some(&ai) = self.by_demand.get(dptr) {
                let ai = ai as usize;
                if self.frozen_at[ai] != UNFROZEN {
                    dptr += 1;
                    continue;
                }
                if level < self.demand[ai] * (1.0 - EPS) {
                    break;
                }
                self.freeze(ai, round, level);
                newly += 1;
                dptr += 1;
            }
            for &l in &cand {
                let l = l as usize;
                if self.weight[l] > 0.0 && self.resid[l] <= cap[l] * EPS {
                    for k in self.member_start[l] as usize..self.member_start[l + 1] as usize {
                        let ai = self.members[k] as usize;
                        if self.frozen_at[ai] == UNFROZEN {
                            self.freeze(ai, round, level);
                            newly += 1;
                        }
                    }
                }
            }
            for &l in &cand {
                let l = l as usize;
                if self.weight[l] > 0.0 {
                    let (lo, _) = bracket(self.weight[l], self.frozen_load[l], cap[l], margin);
                    let key = order_key(lo);
                    self.queue.push(Reverse((key, l as u32)));
                }
            }
            if newly == 0 {
                // Numerical backstop: a zero increment with nothing newly
                // frozen would loop forever; the remainder keeps its
                // current (already max-min) rate.
                break;
            }
            unfrozen -= newly;
        }
        self.cand = cand;
        (level, u64::from(round), updates)
    }

    /// End a fill at water level `level`: bundles the loop left unfrozen
    /// are allocated the level they reached, and only then is every
    /// bundle's load summed onto its links (ascending bundle order per
    /// link), so the loads cover exactly the rates handed out.
    fn close_fill(&mut self, level: f64, link_load: &mut [f64]) {
        for (rate, &round) in self.rate.iter_mut().zip(&self.frozen_at) {
            if round == UNFROZEN {
                *rate = level;
            }
        }
        for ai in 0..self.rate.len() {
            let load = self.rate[ai] * self.mult[ai];
            if load > 0.0 {
                for &l in self.links_of(ai) {
                    link_load[l as usize] += load;
                }
            }
        }
    }
}

/// The bracket `(bottom, top)` around the water level at which a live
/// link of capacity `cap` saturates, given its unfrozen weight and frozen
/// load: every flow on it that is not frozen rises with the level, so it
/// saturates at `(cap − frozen load) / weight`, give or take the rounding
/// the module doc bounds, which the `± margin · cap / weight` covers.
fn bracket(weight: f64, frozen_load: f64, cap: f64, margin: f64) -> (f64, f64) {
    let sat = (cap - frozen_load) / weight;
    let span = margin * cap / weight;
    (sat - span, sat + span)
}

/// A `u64` whose order is `x`'s numeric order (for finite `x` and `+∞`).
fn order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// What the previous solve walked, so the next can copy the rows of
/// bundles whose destination tree kept its next hops. Derived state: it
/// is never checkpointed, and [`FluidNet::restore`] drops it.
#[derive(Debug, Default)]
struct PathCache {
    /// The rows may be reused: a solve with no fault active ran since
    /// construction, the last restore, or the last link-table build.
    valid: bool,
    /// `fwd.dests` of the last solve.
    dests: Vec<NodeId>,
    /// Their trees' next hops ([`NO_HOP`] for none), `dests.len()` rows
    /// of one entry per node.
    next_hop: Vec<u32>,
    /// By node index: the tree towards that node has the next hops it
    /// had at the last solve.
    same_tree: Vec<bool>,
    /// Per bundle, what the last solve found: the active index of its row
    /// in (`start`, `links`), [`ROW_UNROUTABLE`] or [`ROW_UNKNOWN`].
    row: Vec<u32>,
    start: Vec<u32>,
    links: Vec<u32>,
}

impl PathCache {
    /// Compare `fwd`'s trees with the last solve's and remember `fwd`'s.
    /// Returns whether rows may be reused this solve at all: the cache is
    /// valid, the destinations are the same, and no fault is active now.
    fn compare(&mut self, fwd: &ForwardingState, nodes: usize, faulted: bool) -> bool {
        let same_dests = self.dests == fwd.dests && self.next_hop.len() == self.dests.len() * nodes;
        if !same_dests {
            self.dests.clone_from(&fwd.dests);
            self.next_hop.clear();
            self.next_hop.resize(self.dests.len() * nodes, NO_HOP);
        }
        self.same_tree.clear();
        self.same_tree.resize(nodes, false);
        for (d, packed) in self.dests.iter().zip(self.next_hop.chunks_exact_mut(nodes)) {
            let tree = fwd.tree(*d).expect("every destination of a forwarding state has a tree");
            let same = *packed == tree.next_hop[..];
            if !same {
                packed.copy_from_slice(&tree.next_hop);
            }
            self.same_tree[d.index()] = same_dests && same;
        }
        self.valid && same_dests && !faulted
    }

    /// The last solve's row of bundle `bi` towards `dst`, if it may stand
    /// in for a walk: `Some(None)` for "unroutable", `Some(Some(links))`
    /// for a route.
    fn reusable(&self, bi: usize, dst: NodeId) -> Option<Option<&[u32]>> {
        if !self.same_tree[dst.index()] {
            return None;
        }
        match self.row.get(bi).copied().unwrap_or(ROW_UNKNOWN) {
            ROW_UNKNOWN => None,
            ROW_UNROUTABLE => Some(None),
            ai => {
                let ai = ai as usize;
                Some(Some(&self.links[self.start[ai] as usize..self.start[ai + 1] as usize]))
            }
        }
    }
}

/// What makes two fluid flows one bundle: `(src, dst, demand bps,
/// payload bytes, stop ns)`.
type BundleKey = (u32, u32, u64, u32, u64);

/// The simulator's fluid network: flow table, link loads, and the
/// max-min solver. See the module docs for the invariants.
#[derive(Debug)]
pub struct FluidNet {
    isl_cap_bps: f64,
    gsl_cap_bps: f64,
    bundles: Vec<Bundle>,
    /// `(src, dst, demand, payload, stop) → bundle index` (module doc,
    /// *Install index*): probed, never iterated.
    index: HashMap<BundleKey, usize, MulBuildHasher>,
    /// Distinct future flow-finish instants, sorted; `next_boundary`
    /// events re-solve with the finished demand removed.
    boundaries: Vec<SimTime>,
    next_boundary: usize,
    /// Link ids of the constellation being solved over: the simulator's
    /// own table, or (standalone) empty until the first solve or restore
    /// names the constellation.
    links: Arc<LinkTable>,
    /// Capacity by link id, bits/s.
    link_cap: Vec<f64>,
    /// Aggregate fluid load by link id, bits/s (last solve); a link is
    /// loaded iff its entry is positive.
    link_load: Vec<f64>,
    /// Residual rate already pushed to each link's packet device (hybrid
    /// mode), so unchanged links cost nothing at the next solve; 0 while
    /// the device runs at full capacity.
    pushed: Vec<u64>,
    last_advanced: SimTime,
    resolves: u64,
    scratch: Scratch,
    paths: PathCache,
    stats: FluidStats,
}

impl FluidNet {
    /// An empty fluid network over links of the given capacities.
    pub fn new(isl_rate: DataRate, gsl_rate: DataRate) -> Self {
        FluidNet {
            isl_cap_bps: isl_rate.bps() as f64,
            gsl_cap_bps: gsl_rate.bps() as f64,
            bundles: Vec::new(),
            index: HashMap::default(),
            boundaries: Vec::new(),
            next_boundary: 0,
            links: Arc::default(),
            link_cap: Vec::new(),
            link_load: Vec::new(),
            pushed: Vec::new(),
            last_advanced: SimTime::ZERO,
            resolves: 0,
            scratch: Scratch::default(),
            paths: PathCache::default(),
            stats: FluidStats::default(),
        }
    }

    /// Install one fluid flow: `demand` offered wire rate from `src` to
    /// `dst` until `stop_at`, accounting `payload_bytes` of goodput per
    /// `payload_bytes + HEADER_BYTES` on the wire. Rates take effect at
    /// the next re-solve.
    pub fn add_flow(
        &mut self,
        flow_id: u32,
        src: NodeId,
        dst: NodeId,
        demand: DataRate,
        payload_bytes: u32,
        stop_at: SimTime,
    ) {
        assert!(src != dst, "fluid flow to self");
        assert!(demand.bps() > 0, "fluid flow needs positive demand");
        assert!(payload_bytes > 0, "fluid flow needs a positive payload size");
        let key = (src.0, dst.0, demand.bps(), payload_bytes, stop_at.nanos());
        match self.index.entry(key) {
            Entry::Occupied(at) => self.bundles[*at.get()].flow_ids.push(flow_id),
            Entry::Vacant(at) => {
                at.insert(self.bundles.len());
                self.bundles.push(Bundle {
                    src,
                    dst,
                    demand_bps: demand.bps(),
                    payload_bytes,
                    stop_at,
                    flow_ids: vec![flow_id],
                    rate_bps: 0.0,
                    wire_bytes: 0.0,
                });
            }
        }
    }

    /// Rebuild the finish-boundary schedule: distinct stop instants
    /// strictly after `now`, sorted. Called once per install batch.
    pub(crate) fn rebuild_boundaries(&mut self, now: SimTime) {
        let mut stops: Vec<SimTime> =
            self.bundles.iter().map(|b| b.stop_at).filter(|&t| t > now).collect();
        stops.sort_unstable();
        stops.dedup();
        self.boundaries = stops;
        self.next_boundary = 0;
    }

    /// The next finish boundary `(time, index)` still pending, if any.
    pub(crate) fn next_boundary(&self) -> Option<(SimTime, u64)> {
        self.boundaries.get(self.next_boundary).map(|&t| (t, self.next_boundary as u64))
    }

    /// Integrate delivered bytes from the last advance up to `t` with the
    /// current (piecewise-constant) rate vector. Exact: rates only change
    /// at re-solve instants, and every re-solve advances first.
    pub fn advance_to(&mut self, t: SimTime) {
        debug_assert!(t >= self.last_advanced, "fluid integration went backwards");
        if t <= self.last_advanced {
            return;
        }
        let dt = t.since(self.last_advanced).secs_f64();
        for b in &mut self.bundles {
            if b.rate_bps > 0.0 {
                b.wire_bytes += b.rate_bps * dt / 8.0;
            }
        }
        self.last_advanced = t;
    }

    /// A fluid network over the links of `links`, shared with the packet
    /// devices they number, every link at `rate`.
    pub(crate) fn over(links: Arc<LinkTable>, rate: DataRate) -> Self {
        let mut net = FluidNet::new(rate, rate);
        net.use_links(links);
        net
    }

    /// Build the link table for `constellation` unless it is already the
    /// one in use.
    fn ensure_links(&mut self, constellation: &Constellation) {
        if self.links.num_nodes() != constellation.num_nodes() {
            self.use_links(Arc::new(LinkTable::build(constellation)));
        }
    }

    /// Solve over `links` from now on, every link at full capacity.
    fn use_links(&mut self, links: Arc<LinkTable>) {
        let n = links.len();
        let (isl, gsl) = (self.isl_cap_bps, self.gsl_cap_bps);
        self.link_cap = (0..n as u32).map(|l| if links.is_gsl(l) { gsl } else { isl }).collect();
        self.link_load = vec![0.0; n];
        self.pushed = vec![0; n];
        self.paths.valid = false;
        self.links = links;
    }

    /// Recompute the max-min fair rate vector over the current forwarding
    /// and fault state. Flows whose `stop_at <= t`, whose destination is
    /// unreachable, or whose path crosses a failed component get rate 0
    /// (their packets would be dropped; fluid models the same outcome as
    /// zero throughput). Also advances the finish-boundary cursor past `t`.
    pub fn resolve(
        &mut self,
        t: SimTime,
        fwd: &ForwardingState,
        faults: Option<&FaultState>,
        constellation: &Constellation,
    ) {
        self.resolves += 1;
        while self.next_boundary < self.boundaries.len() && self.boundaries[self.next_boundary] <= t
        {
            self.next_boundary += 1;
        }
        self.ensure_links(constellation);
        let faulted = faults.is_some_and(|f| !f.all_up());
        let reuse = self.paths.compare(fwd, constellation.num_nodes(), faulted);

        // Trace each active bundle's path onto directed link devices:
        // copied from the last solve where its tree kept its next hops,
        // walked off the tree otherwise.
        let s = &mut self.scratch;
        s.active.clear();
        s.mult.clear();
        s.demand.clear();
        s.links.clear();
        s.hop_start.clear();
        s.hop_start.push(0);
        s.row.clear();
        let (mut walked, mut reused) = (0, 0);
        for (bi, b) in self.bundles.iter_mut().enumerate() {
            b.rate_bps = 0.0;
            if t >= b.stop_at {
                s.row.push(ROW_UNKNOWN);
                continue;
            }
            let cached = if reuse { self.paths.reusable(bi, b.dst) } else { None };
            match cached {
                Some(Some(row)) => {
                    s.links.extend_from_slice(row);
                    reused += 1;
                }
                Some(None) => {
                    s.row.push(ROW_UNROUTABLE);
                    continue;
                }
                None => {
                    let Some(mut walk) = fwd.hops(b.src, b.dst) else {
                        s.row.push(ROW_UNROUTABLE);
                        continue;
                    };
                    let start = s.links.len();
                    let up = walk.all(|(from, to)| {
                        s.links.push(self.links.of_hop(from, to));
                        faults.iter().all(|f| hop_up(f, constellation, from, to))
                    });
                    walked += s.links.len() - start;
                    if !up {
                        s.links.truncate(start);
                        s.row.push(ROW_UNKNOWN);
                        continue;
                    }
                }
            }
            s.row.push(s.active.len() as u32);
            s.active.push(bi as u32);
            s.mult.push(b.flow_ids.len() as f64);
            s.demand.push(b.demand_bps as f64);
            s.hop_start.push(s.links.len() as u32);
        }

        let links_loaded = s.index_members(self.link_cap.len());
        let (level, rounds, residual_updates) = s.fill(&self.link_cap);
        self.link_load.fill(0.0);
        s.close_fill(level, &mut self.link_load);
        for (&bi, &rate) in s.active.iter().zip(&s.rate) {
            self.bundles[bi as usize].rate_bps = rate;
        }

        let solve = FluidSolve {
            rounds,
            active_bundles: s.active.len() as u64,
            links_loaded,
            hops_walked: walked as u64,
            paths_reused: reused,
            residual_updates,
            residual_pushes: 0,
        };
        self.stats.resolves += 1;
        self.stats.total.add(&solve);
        self.stats.last = solve;

        // This solve's rows are the next one's cache.
        let paths = &mut self.paths;
        std::mem::swap(&mut paths.row, &mut s.row);
        std::mem::swap(&mut paths.start, &mut s.hop_start);
        std::mem::swap(&mut paths.links, &mut s.links);
        paths.valid = !faulted;
    }

    /// Residual device rates that changed since the last push (hybrid
    /// coupling): loaded links get `capacity − fluid load`, floored at 1%
    /// of capacity; links whose load vanished are restored to capacity.
    /// In ascending link-id order, each link at most once.
    pub(crate) fn residual_changes(&mut self) -> &[LinkRate] {
        let changes = &mut self.scratch.changes;
        changes.clear();
        for (link, pushed) in self.pushed.iter_mut().enumerate() {
            let (load, cap) = (self.link_load[link], self.link_cap[link]);
            let want =
                if load > 0.0 { (((cap - load).max(cap * 0.01)).round() as u64).max(1) } else { 0 };
            if want != *pushed {
                *pushed = want;
                let bps = if want == 0 { cap.round() as u64 } else { want };
                changes.push(LinkRate { link: link as u32, rate: DataRate::from_bps(bps) });
            }
        }
        self.stats.last.residual_pushes = changes.len() as u64;
        self.stats.total.residual_pushes += changes.len() as u64;
        changes
    }

    /// Fluid flows installed (active or finished).
    pub fn flow_count(&self) -> u64 {
        self.bundles.iter().map(|b| b.flow_ids.len() as u64).sum()
    }

    /// Re-solves performed.
    pub fn resolves(&self) -> u64 {
        self.resolves
    }

    /// Solver work counts since construction (or restore).
    pub fn stats(&self) -> FluidStats {
        self.stats
    }

    /// Total goodput-countable bytes delivered by fluid flows so far
    /// (wire bytes × payload fraction, summed over every flow).
    pub fn delivered_payload_bytes(&self) -> u64 {
        let total: f64 = self
            .bundles
            .iter()
            .map(|b| b.wire_bytes * b.payload_fraction() * b.flow_ids.len() as f64)
            .sum();
        total as u64
    }

    /// Delivered payload bytes per flow `(flow_id, bytes)`, in install
    /// order within each bundle. Flows of one bundle share a rate, so
    /// they share a byte count exactly.
    pub fn per_flow_payload_bytes(&self) -> Vec<(u32, f64)> {
        let mut out = Vec::new();
        for b in &self.bundles {
            let bytes = b.wire_bytes * b.payload_fraction();
            out.extend(b.flow_ids.iter().map(|&id| (id, bytes)));
        }
        out
    }

    /// Current wire rate of every flow `(flow_id, bits/s)`.
    pub fn per_flow_rate_bps(&self) -> Vec<(u32, f64)> {
        let mut out = Vec::new();
        for b in &self.bundles {
            out.extend(b.flow_ids.iter().map(|&id| (id, b.rate_bps)));
        }
        out
    }

    /// Aggregate fluid load of every loaded directed link, bits/s (last
    /// solve), in ascending link-key order.
    pub fn link_loads(&self) -> impl Iterator<Item = ((u32, u32), f64)> + '_ {
        self.links
            .by_key
            .iter()
            .map(|&l| (self.links.key(l), self.link_load[l as usize]))
            .filter(|&(_, load)| load > 0.0)
    }

    /// Links whose allocated fluid load exceeds their capacity beyond the
    /// relative tolerance `tol`, as `(link, load_bps, capacity_bps)`.
    /// The max-min fill never oversubscribes by construction, so a
    /// non-empty result is a solver bug — exactly what audit mode exists
    /// to catch.
    pub fn overloaded_links(&self, tol: f64) -> Vec<(LinkKey, f64, f64)> {
        self.links
            .by_key
            .iter()
            .map(|&l| (self.links.key(l), self.link_load[l as usize], self.link_cap[l as usize]))
            .filter(|&(_, load, cap)| load > cap * (1.0 + tol))
            .collect()
    }

    /// Serialize the solver's mutable state. The flow table itself
    /// (bundles, member flow ids, the install index) is rebuilt by
    /// re-running the experiment's deterministic install sequence, so only
    /// the integration state rides in the snapshot — plus the bundle and
    /// flow counts, which restore cross-checks against the rebuilt table.
    /// Loaded and pushed links are listed by key, ascending.
    pub fn save(&self, w: &mut SnapWriter) {
        w.put_tag(b"FLUD");
        self.bundles[..].put(w);
        self.boundaries.put(w);
        self.next_boundary.put(w);
        self.link_loads().collect::<Vec<_>>().put(w);
        let pushed =
            self.links.by_key.iter().map(|&l| (self.links.key(l), self.pushed[l as usize]));
        pushed.filter(|&(_, bps)| bps != 0).collect::<Vec<_>>().put(w);
        (self.last_advanced, self.resolves).put(w);
    }

    /// Restore the state captured by [`FluidNet::save`] into a fluid net
    /// over `constellation` whose flow table was rebuilt by the same
    /// install sequence.
    pub fn restore(
        &mut self,
        r: &mut SnapReader,
        constellation: &Constellation,
    ) -> Result<(), CheckpointError> {
        r.expect_tag(b"FLUD")?;
        self.bundles[..].restore(r)?;
        (self.boundaries, self.next_boundary) = r.get()?;
        if self.next_boundary > self.boundaries.len() {
            return Err(CheckpointError::Malformed("fluid boundary cursor out of range".into()));
        }
        let loads: Vec<((u32, u32), f64)> = r.get()?;
        let pushed: Vec<((u32, u32), u64)> = r.get()?;
        self.ensure_links(constellation);
        let links = &self.links;
        let link = |key| {
            links.of_key(key).map(|l| l as usize).ok_or_else(|| {
                CheckpointError::Malformed(format!(
                    "fluid link {key:?} is not in the constellation"
                ))
            })
        };
        self.link_load.fill(0.0);
        for (key, load) in loads {
            if load.is_nan() || load <= 0.0 {
                return Err(CheckpointError::Malformed(format!("fluid link load {load}")));
            }
            self.link_load[link(key)?] = load;
        }
        self.pushed.fill(0);
        for (key, bps) in pushed {
            if bps == 0 {
                return Err(CheckpointError::Malformed("zero residual rate pushed".into()));
            }
            self.pushed[link(key)?] = bps;
        }
        (self.last_advanced, self.resolves) = r.get()?;
        self.paths.valid = false;
        Ok(())
    }
}

/// The member count (cross-checked against the rebuilt bundle), then the
/// integration state.
impl Snap for Bundle {
    fn put(&self, w: &mut SnapWriter) {
        (self.flow_ids.len(), self.rate_bps, self.wire_bytes).put(w);
    }

    fn restore(&mut self, r: &mut SnapReader) -> Result<(), CheckpointError> {
        let flows: usize = r.get()?;
        if flows != self.flow_ids.len() {
            return Err(CheckpointError::Malformed(format!(
                "fluid bundle {}→{} has {flows} flows in the snapshot, {} rebuilt",
                self.src,
                self.dst,
                self.flow_ids.len()
            )));
        }
        (self.rate_bps, self.wire_bytes) = r.get()?;
        Ok(())
    }
}

/// Is the directed hop `a → b` usable under the live fault state?
/// Mirrors `Simulator::link_up` exactly, so fluid flows are masked on the
/// same hops whose packets would be fault-dropped.
fn hop_up(f: &FaultState, constellation: &Constellation, a: NodeId, b: NodeId) -> bool {
    if f.all_up() {
        return true;
    }
    let n_sats = constellation.num_satellites();
    match (constellation.is_satellite(a), constellation.is_satellite(b)) {
        (true, true) => f.isl_link_up(a.0, b.0),
        (true, false) => f.gsl_link_up(a.index(), b.index() - n_sats),
        (false, true) => f.gsl_link_up(b.index(), a.index() - n_sats),
        (false, false) => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::links::GSL_PEER;
    use hypatia_constellation::ground::GroundStation;
    use hypatia_constellation::gsl::GslConfig;
    use hypatia_constellation::isl::IslLayout;
    use hypatia_constellation::shell::ShellSpec;
    use hypatia_fault::{FaultSchedule, FaultSpec, LinkCut, OutageWindow};
    use hypatia_routing::graph::SnapshotBuffers;
    use hypatia_routing::incremental::{IncrementalRouter, RoutingConfig};
    use hypatia_util::rng::DetRng;
    use hypatia_util::SimDuration;
    use std::collections::{BTreeMap, BTreeSet};

    fn constellation() -> Arc<Constellation> {
        Arc::new(Constellation::build(
            "fluidtest",
            vec![ShellSpec::new("A", 550.0, 10, 10, 53.0)],
            IslLayout::PlusGrid,
            vec![
                GroundStation::new("a", 5.0, 5.0),
                GroundStation::new("b", -10.0, 60.0),
                GroundStation::new("c", 40.0, -80.0),
            ],
            GslConfig::new(10.0),
        ))
    }

    fn forwarding_at(c: &Constellation, t: SimTime, dests: &[NodeId]) -> ForwardingState {
        let mut buffers = SnapshotBuffers::new();
        let mut router = IncrementalRouter::new(RoutingConfig::default());
        let graph = buffers.snapshot_masked(c, t, None);
        let mut fwd = ForwardingState::empty();
        router.compute_into(graph, t, dests, &mut fwd);
        fwd
    }

    fn forwarding(c: &Constellation, dests: &[NodeId]) -> ForwardingState {
        forwarding_at(c, SimTime::ZERO, dests)
    }

    impl Scratch {
        /// The fill as it was before lazy residuals, kept as the oracle of
        /// [`Scratch::fill`]: every live link's residual updated every
        /// round, three passes over the links per round. Returns
        /// `(final level, rounds, near-tie rounds)`, the last counting the
        /// rounds in which two live links' `r / w` differ but lie within
        /// 1e-12 of each other at the bottom.
        fn fill_eager(&mut self, cap: &[f64]) -> (f64, u64, u64) {
            let n = self.active.len();
            self.start_fill();
            let mut residual = cap.to_vec();
            let mut dptr = 0;
            let mut level = 0.0f64;
            let mut unfrozen = n;
            let mut rounds = 0;
            let mut near_ties = 0;
            while unfrozen > 0 {
                rounds += 1;
                while dptr < n && self.frozen_at[self.by_demand[dptr] as usize] != UNFROZEN {
                    dptr += 1;
                }
                let mut inc = f64::INFINITY;
                for (&w, &r) in self.weight.iter().zip(&residual) {
                    if w > 0.0 {
                        inc = inc.min((r / w).max(0.0));
                    }
                }
                let near = self
                    .weight
                    .iter()
                    .zip(&residual)
                    .any(|(&w, &r)| w > 0.0 && r / w != inc && r / w <= inc * (1.0 + 1e-12));
                near_ties += u64::from(near);
                if let Some(&ai) = self.by_demand.get(dptr) {
                    inc = inc.min(self.demand[ai as usize] - level);
                }
                let inc = if inc.is_finite() { inc.max(0.0) } else { 0.0 };
                level += inc;
                for (r, &w) in residual.iter_mut().zip(&self.weight) {
                    *r -= w * inc;
                }
                let mut newly = 0;
                while let Some(&ai) = self.by_demand.get(dptr) {
                    let ai = ai as usize;
                    if self.frozen_at[ai] != UNFROZEN {
                        dptr += 1;
                        continue;
                    }
                    if level < self.demand[ai] * (1.0 - EPS) {
                        break;
                    }
                    self.freeze_eager(ai, rounds, level);
                    newly += 1;
                    dptr += 1;
                }
                for l in 0..self.weight.len() {
                    if self.weight[l] > 0.0 && residual[l] <= cap[l] * EPS {
                        for k in self.member_start[l] as usize..self.member_start[l + 1] as usize {
                            let ai = self.members[k] as usize;
                            if self.frozen_at[ai] == UNFROZEN {
                                self.freeze_eager(ai, rounds, level);
                                newly += 1;
                            }
                        }
                    }
                }
                if newly == 0 {
                    break;
                }
                unfrozen -= newly;
            }
            (level, u64::from(rounds), near_ties)
        }

        fn freeze_eager(&mut self, ai: usize, round: u32, level: f64) {
            self.rate[ai] = level;
            self.frozen_at[ai] = round;
            let m = self.mult[ai];
            for h in self.hop_start[ai] as usize..self.hop_start[ai + 1] as usize {
                self.weight[self.links[h] as usize] -= m;
            }
        }
    }

    /// Both fills over copies of `s`: the same level, round count, rates,
    /// freeze rounds and final weights, to the bit. Returns the lazy
    /// fill's residual updates, the eager fill's (`rounds × loaded
    /// links`) and the eager fill's near-tie rounds.
    fn assert_fills_agree(s: &Scratch, cap: &[f64], what: &str) -> (u64, u64, u64) {
        let (mut lazy, mut eager) = (s.clone(), s.clone());
        let (level, rounds, updates) = lazy.fill(cap);
        let (eager_level, eager_rounds, near_ties) = eager.fill_eager(cap);
        assert_eq!(level.to_bits(), eager_level.to_bits(), "{what}: level");
        assert_eq!(rounds, eager_rounds, "{what}: rounds");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&lazy.rate), bits(&eager.rate), "{what}: rates");
        assert_eq!(lazy.frozen_at, eager.frozen_at, "{what}: freeze rounds");
        assert_eq!(bits(&lazy.weight), bits(&eager.weight), "{what}: final weights");
        let loaded = s.weight.iter().filter(|&&w| w > 0.0).count() as u64;
        (updates, rounds * loaded, near_ties)
    }

    /// Flows installed in a shuffled order, whose keys often differ in
    /// nothing but demand, payload or stop, land in the bundles — and
    /// with the member order — that a `BTreeMap`-indexed install builds:
    /// bundles in first-appearance order, each bundle's flow ids in
    /// install order.
    #[test]
    fn install_order_matches_a_btree_indexed_reference() {
        for seed in 0..8u64 {
            let rng = &mut DetRng::new(0x1d5 + seed);
            let mut flows: Vec<BundleKey> = (0..4000u32)
                .map(|_| {
                    let src = rng.next_below(6) as u32;
                    let dst = (src + 1 + rng.next_below(5) as u32) % 6;
                    let demand = [1_000_000, 1_000_001, 2_000_000][rng.next_below(3) as usize];
                    let payload = [1440, 1441, 500][rng.next_below(3) as usize];
                    let stop = [5_000_000_000, 5_000_000_001, 9_000_000_000];
                    (src, dst, demand, payload, stop[rng.next_below(3) as usize])
                })
                .collect();
            rng.shuffle(&mut flows);

            let mut net = FluidNet::new(DataRate::from_mbps(10), DataRate::from_mbps(10));
            let mut index: BTreeMap<BundleKey, usize> = BTreeMap::new();
            let mut reference: Vec<(BundleKey, Vec<u32>)> = Vec::new();
            for (id, &key) in flows.iter().enumerate() {
                let (src, dst, demand, payload, stop) = key;
                net.add_flow(
                    id as u32,
                    NodeId(src),
                    NodeId(dst),
                    DataRate::from_bps(demand),
                    payload,
                    SimTime::from_nanos(stop),
                );
                let at = *index.entry(key).or_insert_with(|| {
                    reference.push((key, Vec::new()));
                    reference.len() - 1
                });
                reference[at].1.push(id as u32);
            }
            let got: Vec<_> = net
                .bundles
                .iter()
                .map(|b| {
                    let key = (b.src.0, b.dst.0, b.demand_bps, b.payload_bytes, b.stop_at.nanos());
                    (key, b.flow_ids.clone())
                })
                .collect();
            assert!(reference.len() > 500, "seed {seed}: {} bundles", reference.len());
            assert_eq!(got, reference, "seed {seed}");
        }
    }

    #[test]
    fn sim_mode_parses_spec_names() {
        assert_eq!(SimMode::parse("packet"), Some(SimMode::Packet));
        assert_eq!(SimMode::parse("fluid"), Some(SimMode::Fluid));
        assert_eq!(SimMode::parse("hybrid"), Some(SimMode::Hybrid));
        assert_eq!(SimMode::parse("analytic"), None);
        assert_eq!(SimMode::Hybrid.name(), "hybrid");
        assert_eq!(SimMode::default(), SimMode::Packet, "packet-level is the default");
    }

    #[test]
    fn unconstrained_flows_get_their_demand() {
        let c = constellation();
        let (a, b) = (c.gs_node(0), c.gs_node(1));
        let fwd = forwarding(&c, &[a, b]);
        let mut net = FluidNet::new(DataRate::from_mbps(10), DataRate::from_mbps(10));
        net.add_flow(0, a, b, DataRate::from_kbps(64), 1440, SimTime::from_secs(10));
        net.add_flow(1, a, b, DataRate::from_kbps(64), 1440, SimTime::from_secs(10));
        net.resolve(SimTime::ZERO, &fwd, None, &c);
        for (_, rate) in net.per_flow_rate_bps() {
            assert!((rate - 64_000.0).abs() < 1e-6, "rate {rate}");
        }
        // 2 s at 64 kbps each: wire bytes 16 kB/flow, payload fraction
        // 1440/1500.
        net.advance_to(SimTime::from_secs(2));
        let per_flow = net.per_flow_payload_bytes();
        assert_eq!(per_flow.len(), 2);
        for &(_, bytes) in &per_flow {
            assert!((bytes - 16_000.0 * 0.96).abs() < 1e-6, "bytes {bytes}");
        }
        assert_eq!(net.delivered_payload_bytes(), 30_720);
    }

    #[test]
    fn bottleneck_is_shared_max_min_fairly() {
        let c = constellation();
        let (a, b) = (c.gs_node(0), c.gs_node(1));
        let fwd = forwarding(&c, &[a, b]);
        // Both flows share (at least) a's GSL uplink: 10 Mbps across a
        // 6 Mbps + 8 Mbps demand pair → equal 5 Mbps shares (neither
        // demand is satisfiable below the fair share).
        let mut net = FluidNet::new(DataRate::from_mbps(10), DataRate::from_mbps(10));
        net.add_flow(0, a, b, DataRate::from_mbps(6), 1440, SimTime::from_secs(10));
        net.add_flow(1, a, b, DataRate::from_mbps(8), 1440, SimTime::from_secs(10));
        net.resolve(SimTime::ZERO, &fwd, None, &c);
        for (_, rate) in net.per_flow_rate_bps() {
            assert!((rate - 5e6).abs() < 1.0, "rate {rate}");
        }
        // A small-demand flow freezes at its demand and the leftover goes
        // to the big one: 1 Mbps + 9 Mbps.
        let mut net = FluidNet::new(DataRate::from_mbps(10), DataRate::from_mbps(10));
        net.add_flow(0, a, b, DataRate::from_mbps(1), 1440, SimTime::from_secs(10));
        net.add_flow(1, a, b, DataRate::from_mbps(20), 1440, SimTime::from_secs(10));
        net.resolve(SimTime::ZERO, &fwd, None, &c);
        let rates = net.per_flow_rate_bps();
        assert!((rates[0].1 - 1e6).abs() < 1.0, "small flow {:?}", rates);
        assert!((rates[1].1 - 9e6).abs() < 1.0, "big flow {:?}", rates);
    }

    #[test]
    fn allocation_never_exceeds_capacity() {
        let c = constellation();
        let gs: Vec<NodeId> = (0..3).map(|i| c.gs_node(i)).collect();
        let fwd = forwarding(&c, &gs);
        let mut net = FluidNet::new(DataRate::from_mbps(10), DataRate::from_mbps(10));
        let mut id = 0;
        for &src in &gs {
            for &dst in &gs {
                if src != dst {
                    for _ in 0..7 {
                        net.add_flow(id, src, dst, DataRate::from_mbps(3), 1440, SimTime::MAX);
                        id += 1;
                    }
                }
            }
        }
        net.resolve(SimTime::ZERO, &fwd, None, &c);
        for ((_, _), load) in net.link_loads() {
            assert!(load <= 10e6 * (1.0 + 1e-9), "overloaded link: {load}");
        }
        // Every flow got something (the topology routes all pairs).
        for (flow, rate) in net.per_flow_rate_bps() {
            assert!(rate > 0.0, "flow {flow} starved");
        }
    }

    #[test]
    fn finished_and_unroutable_flows_get_zero() {
        let c = constellation();
        let (a, b) = (c.gs_node(0), c.gs_node(1));
        let fwd = forwarding(&c, &[a, b]);
        let mut net = FluidNet::new(DataRate::from_mbps(10), DataRate::from_mbps(10));
        net.add_flow(0, a, b, DataRate::from_kbps(64), 1440, SimTime::from_secs(1));
        // Destination c is not in the forwarding state at all.
        net.add_flow(1, a, c.gs_node(2), DataRate::from_kbps(64), 1440, SimTime::from_secs(9));
        net.rebuild_boundaries(SimTime::ZERO);
        assert_eq!(net.next_boundary(), Some((SimTime::from_secs(1), 0)));
        net.resolve(SimTime::ZERO, &fwd, None, &c);
        let rates = net.per_flow_rate_bps();
        assert!(rates[0].1 > 0.0);
        assert_eq!(rates[1].1, 0.0, "unroutable flow must get rate 0");
        // Past its stop the first flow is expired; the cursor advances.
        net.advance_to(SimTime::from_secs(1));
        net.resolve(SimTime::from_secs(1), &fwd, None, &c);
        assert_eq!(net.per_flow_rate_bps()[0].1, 0.0, "finished flow keeps sending?");
        assert_eq!(net.next_boundary(), Some((SimTime::from_secs(9), 1)));
        // Bytes stop accumulating once the rate is zero.
        let before = net.delivered_payload_bytes();
        net.advance_to(SimTime::from_secs(5));
        assert_eq!(net.delivered_payload_bytes(), before);
    }

    #[test]
    fn faulted_paths_are_masked_to_zero() {
        let c = constellation();
        let (a, b) = (c.gs_node(0), c.gs_node(1));
        let fwd = forwarding(&c, &[a, b]);
        let path = fwd.path(a, b).expect("nominal path exists");
        let victim = path[path.len() / 2];
        assert!(c.is_satellite(victim));
        let spec = FaultSpec {
            sat_outages: vec![OutageWindow { target: victim.0, from_s: 0.0, until_s: 9.0 }],
            ..FaultSpec::default()
        };
        let schedule = FaultSchedule::compile(&spec, &c, SimDuration::from_secs(10));
        let state = FaultState::at(&schedule, SimTime::from_secs(1));
        let mut net = FluidNet::new(DataRate::from_mbps(10), DataRate::from_mbps(10));
        net.add_flow(0, a, b, DataRate::from_kbps(64), 1440, SimTime::MAX);
        net.resolve(SimTime::ZERO, &fwd, Some(&state), &c);
        assert_eq!(net.per_flow_rate_bps()[0].1, 0.0, "path through a dead satellite");
        net.resolve(SimTime::ZERO, &fwd, None, &c);
        assert!(net.per_flow_rate_bps()[0].1 > 0.0, "recovers without the mask");
        assert_eq!(net.resolves(), 2);
    }

    #[test]
    fn no_links_report_overload_after_a_solve() {
        let c = constellation();
        let (a, b) = (c.gs_node(0), c.gs_node(1));
        let fwd = forwarding(&c, &[a, b]);
        let mut net = FluidNet::new(DataRate::from_mbps(10), DataRate::from_mbps(10));
        for i in 0..5 {
            net.add_flow(i, a, b, DataRate::from_mbps(10), 1440, SimTime::MAX);
        }
        net.resolve(SimTime::ZERO, &fwd, None, &c);
        assert!(net.overloaded_links(1e-9).is_empty());
        // Force an inconsistent load to prove the detector fires.
        let link = net.links.of_key((0, 1)).expect("satellites 0 and 1 share an ISL");
        net.link_load[link as usize] = 20e6;
        let over = net.overloaded_links(1e-9);
        assert_eq!(over.len(), 1);
        assert_eq!(over[0].0, (0, 1));
        assert_eq!(over[0].2, 10e6);
    }

    #[test]
    fn save_restore_round_trips_solver_state() {
        let c = constellation();
        let (a, b) = (c.gs_node(0), c.gs_node(1));
        let fwd = forwarding(&c, &[a, b]);
        let build = |mbps: u64| {
            let mut net = FluidNet::new(DataRate::from_mbps(10), DataRate::from_mbps(10));
            net.add_flow(0, a, b, DataRate::from_mbps(mbps), 1440, SimTime::from_secs(1));
            net.add_flow(1, a, b, DataRate::from_mbps(mbps), 1440, SimTime::from_secs(2));
            net.rebuild_boundaries(SimTime::ZERO);
            net
        };
        let mut net = build(6);
        net.resolve(SimTime::ZERO, &fwd, None, &c);
        let _ = net.residual_changes();
        net.advance_to(SimTime::from_millis(700));
        let mut w = SnapWriter::new(1);
        net.save(&mut w);
        let mut back = build(6);
        let mut r = SnapReader::from_bytes(w.finish(), 1).unwrap();
        back.restore(&mut r, &c).unwrap();
        r.expect_end().unwrap();
        assert_eq!(back.resolves(), net.resolves());
        assert_eq!(back.delivered_payload_bytes(), net.delivered_payload_bytes());
        assert_eq!(back.next_boundary(), net.next_boundary());
        let loads: Vec<_> = net.link_loads().collect();
        assert_eq!(back.link_loads().collect::<Vec<_>>(), loads);
        assert_eq!(back.pushed, net.pushed);
        // Both continue identically.
        back.advance_to(SimTime::from_secs(1));
        net.advance_to(SimTime::from_secs(1));
        assert_eq!(back.delivered_payload_bytes(), net.delivered_payload_bytes());

        // A differently built flow table rejects the snapshot.
        let mut w = SnapWriter::new(1);
        net.save(&mut w);
        let mut wrong = FluidNet::new(DataRate::from_mbps(10), DataRate::from_mbps(10));
        wrong.add_flow(0, a, b, DataRate::from_mbps(6), 1440, SimTime::from_secs(1));
        let mut r = SnapReader::from_bytes(w.finish(), 1).unwrap();
        assert!(wrong.restore(&mut r, &c).is_err());
    }

    #[test]
    fn residual_changes_floor_and_restore() {
        let c = constellation();
        let (a, b) = (c.gs_node(0), c.gs_node(1));
        let fwd = forwarding(&c, &[a, b]);
        let mut net = FluidNet::new(DataRate::from_mbps(10), DataRate::from_mbps(10));
        // 30 Mbps of demand through a 10 Mbps uplink: the loaded links
        // saturate, so their residual hits the 1% floor.
        for i in 0..3 {
            net.add_flow(i, a, b, DataRate::from_mbps(10), 1440, SimTime::from_secs(1));
        }
        net.resolve(SimTime::ZERO, &fwd, None, &c);
        let changes = net.residual_changes().to_vec();
        assert!(!changes.is_empty());
        for ch in &changes {
            assert!(ch.rate.bps() >= 100_000, "residual below the 1% floor: {}", ch.rate);
            assert!(ch.rate.bps() <= 10_000_000);
        }
        let saturated = changes.iter().filter(|ch| ch.rate.bps() == 100_000).count();
        assert!(saturated >= 1, "no link hit the floor: {changes:?}");
        // Unchanged solve → no pushes; expired flows → full restore.
        net.resolve(SimTime::ZERO, &fwd, None, &c);
        assert!(net.residual_changes().is_empty(), "unchanged load re-pushed");
        net.resolve(SimTime::from_secs(1), &fwd, None, &c);
        let restored = net.residual_changes().to_vec();
        assert_eq!(restored.len(), changes.len());
        for ch in &restored {
            assert_eq!(ch.rate.bps(), 10_000_000, "link not restored to capacity");
        }
        assert!(net.residual_changes().is_empty());
    }

    /// The keys the checkpoint names links by: one per link, ascending in
    /// `by_key`, and each a node's ISL peers in `isls` order, then its GSL
    /// device.
    #[test]
    fn link_table_numbers_devices_in_attach_order() {
        let c = constellation();
        let table = LinkTable::build(&c);
        assert_eq!(table.len(), 2 * c.isls.len() + c.num_nodes());
        let keys: Vec<LinkKey> = table.by_key.iter().map(|&l| table.key(l)).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "by_key is not strictly ascending");
        for link in 0..table.len() as u32 {
            assert_eq!(table.of_key(table.key(link)), Some(link));
            assert!(table.of_node(table.node(link)).contains(&(link as usize)));
        }
        let sat = 11u32;
        let peers: Vec<Option<NodeId>> = c
            .isls
            .iter()
            .filter_map(|&(a, b)| if a == sat { Some(b) } else { (b == sat).then_some(a) })
            .map(|p| Some(NodeId(p)))
            .collect();
        let listed: Vec<_> = table.of_node(NodeId(sat)).map(|l| table.peer(l as u32)).collect();
        assert_eq!(listed, [&peers[..], &[None]].concat());
        // Hops land on the sender's device: ISL between satellites,
        // the shared GSL device as soon as a ground station is involved.
        let (a, b) = c.isls[7];
        assert_eq!(table.key(table.of_hop(NodeId(a), NodeId(b))), (a, b));
        assert_eq!(table.key(table.of_hop(NodeId(b), NodeId(a))), (b, a));
        let gs = c.gs_node(0);
        assert_eq!(table.key(table.of_hop(gs, NodeId(a))), (gs.0, GSL_PEER));
        assert_eq!(table.key(table.of_hop(NodeId(a), gs)), (a, GSL_PEER));
        // Keys a snapshot could carry but this constellation lacks.
        assert_eq!(table.of_key((a, a)), None);
        assert_eq!(table.of_key((1_000_000, GSL_PEER)), None);
    }

    /// The fill loop's numerical-backstop exit leaves bundles unfrozen;
    /// they are allocated the water level, so their load must be on
    /// their links too (it used to be dropped: residual rates and the
    /// over-capacity audit ignored exactly those flows).
    #[test]
    fn backstop_exit_loads_the_links_of_unfrozen_bundles() {
        // Bundle 0 (2 flows, frozen at 2 Mbit/s) crosses link 3; bundle 1
        // (4 flows, never frozen) crosses links 3 and 5.
        let mut s = Scratch {
            active: vec![0, 1],
            mult: vec![2.0, 4.0],
            hop_start: vec![0, 1, 3],
            links: vec![3, 3, 5],
            rate: vec![2e6, 0.0],
            frozen_at: vec![1, UNFROZEN],
            ..Scratch::default()
        };
        let mut link_load = vec![0.0; 8];
        s.close_fill(3e6, &mut link_load);
        assert_eq!(s.rate, [2e6, 3e6]);
        assert_eq!(link_load[3], 2e6 * 2.0 + 3e6 * 4.0);
        assert_eq!(link_load[5], 3e6 * 4.0);
        assert_eq!(link_load.iter().filter(|&&x| x != 0.0).count(), 2);
    }

    /// A scratch over `links` link ids holding `(multiplicity, demand,
    /// path)` bundles, indexed for a fill.
    fn scratch_of(bundles: &[(f64, f64, Vec<u32>)], links: usize) -> Scratch {
        let mut s = Scratch { hop_start: vec![0], ..Scratch::default() };
        for (ai, (mult, demand, path)) in bundles.iter().enumerate() {
            s.active.push(ai as u32);
            s.mult.push(*mult);
            s.demand.push(*demand);
            s.links.extend_from_slice(path);
            s.hop_start.push(s.links.len() as u32);
        }
        s.index_members(links);
        s
    }

    /// The lazy fill against the eager one where their floats are most
    /// likely to part: links that saturate at the same level in exact
    /// arithmetic through different capacities, multiplicities and
    /// frozen loads, so their rounded residuals tie or miss by an ulp,
    /// and links one ulp of capacity apart. Level, round count, rates,
    /// freeze rounds and final weights must agree to the bit.
    #[test]
    fn lazy_fill_matches_the_eager_fill_on_ties_and_near_ties() {
        let next_up = |x: f64| f64::from_bits(x.to_bits() + 1);
        // Round 1 freezes bundle 0 at its demand `d`; after it, links 0
        // (2 flows left), 1 (3 flows) and 2 (1 flow) all saturate at
        // level `sat` exactly, and link 3 one ulp of capacity later.
        let (sat, d) = (1e7 / 3.0, 1e6 / 7.0);
        let cap = [2.0 * sat + d, 3.0 * sat + d, sat, next_up(sat)];
        let huge = 1e12;
        let s = scratch_of(
            &[
                (1.0, d, vec![0, 1]),
                (2.0, huge, vec![0]),
                (3.0, huge, vec![1]),
                (1.0, huge, vec![2]),
                (1.0, huge, vec![3]),
            ],
            cap.len(),
        );
        let (_, _, near_ties) = assert_fills_agree(&s, &cap, "exact ties");
        assert!(near_ties > 0, "the exact ties round to the same residual ratio");

        // The same shapes at random: each link's capacity is what its
        // members would take if it saturated at one of two shared levels
        // (members below it at their demand), now and then one ulp more.
        const MULTS: [f64; 5] = [1.0, 2.0, 3.0, 4.0, 6.0];
        let unit = 1e7 / 3.0;
        let levels = [unit, 1.5 * unit];
        let demands = [unit / 7.0, unit / 3.0, unit / 2.0, huge];
        let (mut skipped, mut near) = (0, 0);
        for seed in 0..2_000u64 {
            let mut rng = DetRng::new(0x71E5 + seed);
            let links = 2 + rng.next_below(6) as usize;
            let bundles: Vec<(f64, f64, Vec<u32>)> = (0..2 + rng.next_below(12))
                .map(|_| {
                    let mut path: Vec<u32> = (0..links as u32).collect();
                    rng.shuffle(&mut path);
                    path.truncate(1 + rng.next_below(3.min(links as u64)) as usize);
                    let mult = MULTS[rng.next_below(5) as usize];
                    (mult, demands[rng.next_below(4) as usize], path)
                })
                .collect();
            let cap: Vec<f64> = (0..links as u32)
                .map(|l| {
                    let level = levels[rng.next_below(2) as usize];
                    let cap = bundles
                        .iter()
                        .filter(|(_, _, path)| path.contains(&l))
                        .map(|&(mult, demand, _)| mult * demand.min(level))
                        .sum::<f64>()
                        .max(unit);
                    if rng.next_below(4) == 0 {
                        next_up(cap)
                    } else {
                        cap
                    }
                })
                .collect();
            let s = scratch_of(&bundles, links);
            let (updates, eager, near_ties) = assert_fills_agree(&s, &cap, &format!("seed {seed}"));
            skipped += u64::from(updates < eager);
            near += u64::from(near_ties > 0);
        }
        assert!(skipped >= 1_000, "only {skipped} instances skipped a residual update");
        assert!(near >= 1_000, "only {near} instances had a near tie");
    }

    #[test]
    fn stats_count_the_work_of_each_solve() {
        let c = constellation();
        let (a, b) = (c.gs_node(0), c.gs_node(1));
        let fwd = forwarding(&c, &[a, b]);
        let hops = fwd.path(a, b).unwrap().len() as u64 - 1;
        let mut net = FluidNet::new(DataRate::from_mbps(10), DataRate::from_mbps(10));
        net.add_flow(0, a, b, DataRate::from_mbps(1), 1440, SimTime::from_secs(1));
        net.add_flow(1, a, b, DataRate::from_mbps(20), 1440, SimTime::from_secs(1));
        assert_eq!(net.stats(), FluidStats::default());
        net.resolve(SimTime::ZERO, &fwd, None, &c);
        let pushes = net.residual_changes().len() as u64;
        let first = net.stats();
        assert_eq!(first.resolves, 1);
        // One round freezes the small demand, the next saturates the path.
        // Every link of the path ties in both rounds, so each is a
        // candidate and updates its residual twice.
        let want = FluidSolve {
            rounds: 2,
            active_bundles: 2,
            links_loaded: hops,
            hops_walked: 2 * hops,
            paths_reused: 0,
            residual_updates: 2 * hops,
            residual_pushes: hops,
        };
        assert_eq!((first.last, pushes), (want, hops));
        assert_eq!(first.total, first.last);
        // The same tree again: both paths are copied, nothing is walked,
        // and the allocation (so the push set) is unchanged.
        net.resolve(SimTime::from_millis(500), &fwd, None, &c);
        assert!(net.residual_changes().is_empty());
        let again = net.stats();
        let want = FluidSolve { hops_walked: 0, paths_reused: 2, residual_pushes: 0, ..want };
        assert_eq!(again.last, want);
        // Past the stop time nothing is active; totals keep the history.
        net.resolve(SimTime::from_secs(1), &fwd, None, &c);
        let _ = net.residual_changes();
        let second = net.stats();
        assert_eq!(second.resolves, 3);
        assert_eq!(second.last, FluidSolve { residual_pushes: hops, ..FluidSolve::default() });
        assert_eq!(second.total.rounds, 4);
        assert_eq!(second.total.hops_walked, 2 * hops);
        assert_eq!(second.total.paths_reused, 2);
        assert_eq!(second.total.residual_updates, 4 * hops);
        assert_eq!(second.total.residual_pushes, 2 * hops);
    }

    /// The solver as it was before link ids — `BTreeMap`-keyed links, one
    /// `Vec` per path, the tree's own allocating walk — kept as the
    /// differential oracle for [`FluidNet::resolve`],
    /// [`FluidNet::residual_changes`] and [`FluidNet::save`]. The flow
    /// table and the integration are the product's (`net`); its link
    /// arrays are never touched.
    struct Oracle {
        net: FluidNet,
        link_load: BTreeMap<LinkKey, f64>,
        pushed: BTreeMap<LinkKey, u64>,
    }

    impl Oracle {
        fn new(isl_rate: DataRate, gsl_rate: DataRate) -> Oracle {
            Oracle {
                net: FluidNet::new(isl_rate, gsl_rate),
                link_load: BTreeMap::new(),
                pushed: BTreeMap::new(),
            }
        }

        fn cap_for(&self, key: LinkKey) -> f64 {
            if key.1 == GSL_PEER {
                self.net.gsl_cap_bps
            } else {
                self.net.isl_cap_bps
            }
        }

        fn resolve(
            &mut self,
            t: SimTime,
            fwd: &ForwardingState,
            faults: Option<&FaultState>,
            constellation: &Constellation,
        ) {
            let net = &mut self.net;
            net.resolves += 1;
            while net.next_boundary < net.boundaries.len() && net.boundaries[net.next_boundary] <= t
            {
                net.next_boundary += 1;
            }

            let link_key = |a: NodeId, b: NodeId| {
                if constellation.is_satellite(a) && constellation.is_satellite(b) {
                    (a.0, b.0)
                } else {
                    (a.0, GSL_PEER)
                }
            };
            let mut link_of: BTreeMap<LinkKey, usize> = BTreeMap::new();
            let mut link_keys: Vec<LinkKey> = Vec::new();
            let mut active: Vec<usize> = Vec::new();
            let mut links_of: Vec<Vec<usize>> = Vec::new();
            for (bi, b) in net.bundles.iter_mut().enumerate() {
                b.rate_bps = 0.0;
                if t >= b.stop_at {
                    continue;
                }
                let Some(path) = fwd.tree(b.dst).and_then(|tree| tree.path_from(b.src.0)) else {
                    continue;
                };
                let path: Vec<NodeId> = path.into_iter().map(NodeId).collect();
                if let Some(f) = faults {
                    if !path.windows(2).all(|w| hop_up(f, constellation, w[0], w[1])) {
                        continue;
                    }
                }
                let mut ids = Vec::with_capacity(path.len() - 1);
                for w in path.windows(2) {
                    let key = link_key(w[0], w[1]);
                    let next = link_keys.len();
                    let id = *link_of.entry(key).or_insert_with(|| {
                        link_keys.push(key);
                        next
                    });
                    ids.push(id);
                }
                active.push(bi);
                links_of.push(ids);
            }

            let (isl, gsl) = (net.isl_cap_bps, net.gsl_cap_bps);
            let caps: Vec<f64> =
                link_keys.iter().map(|&k| if k.1 == GSL_PEER { gsl } else { isl }).collect();
            let mut residual = caps.clone();
            let mut rate = vec![0.0f64; active.len()];
            let mut frozen = vec![false; active.len()];
            let mut weight = vec![0.0f64; link_keys.len()];
            let mut members: Vec<Vec<usize>> = vec![Vec::new(); link_keys.len()];
            for (ai, ids) in links_of.iter().enumerate() {
                let m = net.bundles[active[ai]].flow_ids.len() as f64;
                for &l in ids {
                    weight[l] += m;
                    members[l].push(ai);
                }
            }
            let mut by_demand: Vec<usize> = (0..active.len()).collect();
            by_demand.sort_by_key(|&ai| net.bundles[active[ai]].demand_bps);
            let mut dptr = 0;
            let mut level = 0.0f64;
            let mut unfrozen = active.len();
            while unfrozen > 0 {
                while dptr < by_demand.len() && frozen[by_demand[dptr]] {
                    dptr += 1;
                }
                let mut inc = f64::INFINITY;
                for (&w, &r) in weight.iter().zip(&residual) {
                    if w > 0.0 {
                        inc = inc.min((r / w).max(0.0));
                    }
                }
                if let Some(&ai) = by_demand.get(dptr) {
                    inc = inc.min(net.bundles[active[ai]].demand_bps as f64 - level);
                }
                let inc = if inc.is_finite() { inc.max(0.0) } else { 0.0 };
                level += inc;
                for (r, &w) in residual.iter_mut().zip(&weight) {
                    *r -= w * inc;
                }
                let mut newly = 0;
                let freeze = |ai: usize,
                              frozen: &mut Vec<bool>,
                              weight: &mut Vec<f64>,
                              newly: &mut usize| {
                    frozen[ai] = true;
                    *newly += 1;
                    let m = net.bundles[active[ai]].flow_ids.len() as f64;
                    for &l in &links_of[ai] {
                        weight[l] -= m;
                    }
                };
                while let Some(&ai) = by_demand.get(dptr) {
                    if frozen[ai] {
                        dptr += 1;
                        continue;
                    }
                    if level < net.bundles[active[ai]].demand_bps as f64 * (1.0 - EPS) {
                        break;
                    }
                    rate[ai] = level;
                    freeze(ai, &mut frozen, &mut weight, &mut newly);
                    dptr += 1;
                }
                for l in 0..link_keys.len() {
                    if weight[l] > 0.0 && residual[l] <= caps[l] * EPS {
                        for &ai in &members[l] {
                            if !frozen[ai] {
                                rate[ai] = level;
                                freeze(ai, &mut frozen, &mut weight, &mut newly);
                            }
                        }
                    }
                }
                if newly == 0 {
                    break;
                }
                unfrozen -= newly;
            }

            // The one deliberate difference from the historical code: the
            // backstop exit's unfrozen bundles carry load (the bug fixed
            // alongside the rewrite).
            for (ai, &bi) in active.iter().enumerate() {
                if !frozen[ai] {
                    rate[ai] = level;
                }
                net.bundles[bi].rate_bps = rate[ai];
            }
            self.link_load.clear();
            for (ai, ids) in links_of.iter().enumerate() {
                let load = rate[ai] * net.bundles[active[ai]].flow_ids.len() as f64;
                if load > 0.0 {
                    for &l in ids {
                        *self.link_load.entry(link_keys[l]).or_insert(0.0) += load;
                    }
                }
            }
        }

        fn residual_changes(&mut self) -> Vec<(LinkKey, DataRate)> {
            let mut desired: BTreeMap<LinkKey, u64> = BTreeMap::new();
            for (&key, &load) in &self.link_load {
                let cap = self.cap_for(key);
                let resid = (cap - load).max(cap * 0.01);
                desired.insert(key, (resid.round() as u64).max(1));
            }
            let mut changes = Vec::new();
            for &key in self.pushed.keys() {
                if !desired.contains_key(&key) {
                    changes.push((key, DataRate::from_bps(self.cap_for(key).round() as u64)));
                }
            }
            self.pushed.retain(|k, _| desired.contains_key(k));
            for (&key, &bps) in &desired {
                if self.pushed.get(&key) != Some(&bps) {
                    self.pushed.insert(key, bps);
                    changes.push((key, DataRate::from_bps(bps)));
                }
            }
            changes
        }

        /// The `FLUD` section as the map-based solver wrote it.
        fn save(&self, w: &mut SnapWriter) {
            let net = &self.net;
            w.put_tag(b"FLUD");
            net.bundles.len().put(w);
            for b in &net.bundles {
                (b.flow_ids.len(), b.rate_bps, b.wire_bytes).put(w);
            }
            net.boundaries.len().put(w);
            net.boundaries.iter().for_each(|t| t.put(w));
            net.next_boundary.put(w);
            self.link_load.len().put(w);
            for (&(a, b), &load) in &self.link_load {
                (a, b, load).put(w);
            }
            self.pushed.len().put(w);
            for (&(a, b), &bps) in &self.pushed {
                (a, b, bps).put(w);
            }
            (net.last_advanced, net.resolves).put(w);
        }
    }

    fn saved(save: impl FnOnce(&mut SnapWriter)) -> Vec<u8> {
        let mut w = SnapWriter::new(1);
        save(&mut w);
        w.finish()
    }

    /// Every observable of the two solvers, bit for bit.
    fn assert_same_state(net: &FluidNet, oracle: &Oracle, what: &str) {
        let bits = |v: Vec<(u32, f64)>| -> Vec<(u32, u64)> {
            v.into_iter().map(|(id, x)| (id, x.to_bits())).collect()
        };
        assert_eq!(
            bits(net.per_flow_rate_bps()),
            bits(oracle.net.per_flow_rate_bps()),
            "{what}: per-flow rates"
        );
        let loads: Vec<(LinkKey, u64)> = net.link_loads().map(|(k, x)| (k, x.to_bits())).collect();
        let want: Vec<(LinkKey, u64)> =
            oracle.link_load.iter().map(|(&k, &x)| (k, x.to_bits())).collect();
        assert_eq!(loads, want, "{what}: link loads");
        assert_eq!(net.next_boundary(), oracle.net.next_boundary(), "{what}: boundary cursor");
        assert_eq!(saved(|w| net.save(w)), saved(|w| oracle.save(w)), "{what}: FLUD section");
    }

    /// One residual push on both sides: the same set of (link, rate).
    /// Returns the product's.
    fn assert_same_pushes(net: &mut FluidNet, oracle: &mut Oracle, what: &str) -> Vec<LinkRate> {
        let got: Vec<LinkRate> = net.residual_changes().to_vec();
        let key_of = |ch: &LinkRate| (net.links.key(ch.link), ch.rate.bps());
        let got_set: BTreeSet<(LinkKey, u64)> = got.iter().map(key_of).collect();
        assert_eq!(got_set.len(), got.len(), "{what}: a link pushed twice");
        let want: BTreeSet<(LinkKey, u64)> =
            oracle.residual_changes().into_iter().map(|(k, r)| (k, r.bps())).collect();
        assert_eq!(got_set, want, "{what}: residual pushes");
        got
    }

    /// Differential fuzz: random shells, ground segments, flow multisets
    /// and fault masks; after every step the link-id solver and the
    /// map-based oracle must agree to the bit — rates, loads, pushes and
    /// the checkpoint bytes — including across a save/restore into a
    /// freshly built net. A forwarding state 100 ms after another makes
    /// the solver reuse part of its paths, a mask toggled on → off → on
    /// over one forwarding state must not let it reuse a path it has not
    /// fault-checked, and a restore must drop what it reuses.
    #[test]
    fn differential_fuzz_against_the_map_based_oracle() {
        const DEMANDS_KBPS: [u64; 6] = [64, 256, 1_000, 3_000, 10_000, 20_000];
        const STOPS_MS: [u64; 4] = [400, 900, 2_000, 5_000];
        let mut live_cases = 0;
        let mut masked_cases = 0;
        let mut unroutable_cases = 0;
        let mut reuse_cases = 0;
        let mut lazy_cases = 0;
        for case in 0..240u64 {
            let mut rng = DetRng::new(0xF1D0 + case);
            let (planes, per_plane, alt_km) =
                if rng.next_below(2) == 0 { (10, 10, 550.0) } else { (6, 6, 1200.0) };
            let n_gs = 3 + rng.next_below(10) as usize;
            let stations: Vec<GroundStation> = (0..n_gs)
                .map(|i| {
                    // Now and then a polar station no 53° shell can see.
                    let lat =
                        if rng.next_below(8) == 0 { 89.0 } else { rng.next_f64() * 100.0 - 50.0 };
                    GroundStation::new(format!("g{i}"), lat, rng.next_f64() * 360.0 - 180.0)
                })
                .collect();
            let c = Constellation::build(
                "fuzz",
                vec![ShellSpec::new("A", alt_km, planes, per_plane, 53.0)],
                IslLayout::PlusGrid,
                stations,
                GslConfig::new(10.0),
            );
            // Sometimes the last station is no destination of the
            // forwarding state at all.
            let n_dests = if rng.next_below(3) == 0 { n_gs - 1 } else { n_gs };
            let dests: Vec<NodeId> = (0..n_dests).map(|i| c.gs_node(i)).collect();
            let t1 = SimTime::from_millis(500);
            let fwd = [
                forwarding_at(&c, SimTime::ZERO, &dests),
                forwarding_at(&c, SimTime::from_secs(20), &dests),
                forwarding_at(&c, SimTime::from_millis(20_100), &dests),
            ];

            let (isl, gsl) =
                (DataRate::from_mbps(10), DataRate::from_mbps(10 + 15 * rng.next_below(2)));
            let build = |rng: &mut DetRng| {
                let mut net = FluidNet::new(isl, gsl);
                let mut oracle = Oracle::new(isl, gsl);
                let with_open_ended = rng.next_below(2) == 0;
                let n_flows = 20 + rng.next_below(180);
                let mut last = None;
                for id in 0..n_flows as u32 {
                    // A third of the flows repeat the previous 5-tuple.
                    let flow = match last {
                        Some(prev) if rng.next_below(3) == 0 => prev,
                        _ => {
                            let src = rng.next_below(n_gs as u64) as usize;
                            let dst = (src + 1 + rng.next_below(n_gs as u64 - 1) as usize) % n_gs;
                            let demand = DEMANDS_KBPS[rng.next_below(6) as usize];
                            let payload = if rng.next_below(4) == 0 { 500 } else { 1440 };
                            let stop = match rng.next_below(5) {
                                4 if with_open_ended => SimTime::MAX,
                                k => SimTime::from_millis(STOPS_MS[k as usize % 4]),
                            };
                            (src, dst, demand, payload, stop)
                        }
                    };
                    last = Some(flow);
                    let (src, dst, demand, payload, stop) = flow;
                    for n in [&mut net, &mut oracle.net] {
                        n.add_flow(
                            id,
                            c.gs_node(src),
                            c.gs_node(dst),
                            DataRate::from_kbps(demand),
                            payload,
                            stop,
                        );
                    }
                }
                net.rebuild_boundaries(SimTime::ZERO);
                oracle.net.rebuild_boundaries(SimTime::ZERO);
                (net, oracle)
            };
            let flows_state = rng.state();
            let (mut net, mut oracle) = build(&mut rng);

            // Fault masks the forwarding states know nothing about, so
            // live paths cross dead components: random satellites, one
            // ISL, one station's weather, and a satellite off a real path.
            let masks: Vec<Option<FaultState>> = (0..2)
                .map(|_| {
                    if rng.next_below(2) == 0 {
                        return None;
                    }
                    let window = |target: u32| OutageWindow { target, from_s: 0.0, until_s: 60.0 };
                    let n_sats = c.num_satellites() as u64;
                    let mut spec = FaultSpec::default();
                    for _ in 0..rng.next_below(6) {
                        spec.sat_outages.push(window(rng.next_below(n_sats) as u32));
                    }
                    if let Some(path) = fwd[0].path(c.gs_node(0), c.gs_node(1)) {
                        if rng.next_below(2) == 0 {
                            spec.sat_outages.push(window(path[path.len() / 2].0));
                        }
                    }
                    let (a, b) = c.isls[rng.next_below(c.isls.len() as u64) as usize];
                    spec.isl_cuts.push(LinkCut { a, b, from_s: 0.0, until_s: 60.0 });
                    if rng.next_below(3) == 0 {
                        spec.gsl_weather.push(window(rng.next_below(n_gs as u64) as u32));
                    }
                    let schedule = FaultSchedule::compile(&spec, &c, SimDuration::from_secs(60));
                    Some(FaultState::at(&schedule, SimTime::from_secs(1)))
                })
                .collect();

            // A mask that is sure to be active, for the toggle.
            let toggle = {
                let target = match fwd[0].path(c.gs_node(0), c.gs_node(1)) {
                    Some(path) => path[path.len() / 2].0,
                    None => rng.next_below(c.num_satellites() as u64) as u32,
                };
                let spec = FaultSpec {
                    sat_outages: vec![OutageWindow { target, from_s: 0.0, until_s: 60.0 }],
                    ..FaultSpec::default()
                };
                let schedule = FaultSchedule::compile(&spec, &c, SimDuration::from_secs(60));
                FaultState::at(&schedule, SimTime::from_secs(1))
            };

            let (mut reused, mut lazy) = (false, false);
            let mut step = |net: &mut FluidNet,
                            oracle: &mut Oracle,
                            t: SimTime,
                            fwd: &ForwardingState,
                            mask: Option<&FaultState>,
                            what: &str| {
                let what = format!("case {case}, {what}");
                net.advance_to(t);
                oracle.net.advance_to(t);
                net.resolve(t, fwd, mask, &c);
                oracle.resolve(t, fwd, mask, &c);
                assert_same_state(net, oracle, &what);
                let pushes = assert_same_pushes(net, oracle, &what);
                assert_same_state(net, oracle, &what);
                let last = net.stats().last;
                reused |= last.paths_reused > 0;
                lazy |= last.residual_updates < last.rounds * last.links_loaded;
                pushes
            };
            step(&mut net, &mut oracle, SimTime::ZERO, &fwd[0], masks[0].as_ref(), "first solve");
            let starved = net.per_flow_rate_bps().iter().filter(|&&(_, r)| r == 0.0).count();
            live_cases += usize::from(starved < net.flow_count() as usize);
            // The same rates with the mask lifted tell masked from unroutable.
            if masks[0].is_some() {
                let (mut clear, _) = build(&mut DetRng::from_state(flows_state));
                clear.resolve(SimTime::ZERO, &fwd[0], None, &c);
                let open = clear.per_flow_rate_bps().iter().filter(|&&(_, r)| r == 0.0).count();
                masked_cases += usize::from(open < starved);
                unroutable_cases += usize::from(open > 0);
            } else {
                unroutable_cases += usize::from(starved > 0);
            }
            // A new forwarding state and mask: last solve's loads and
            // pushes are stale entries the next one must retire.
            step(&mut net, &mut oracle, t1, &fwd[1], masks[1].as_ref(), "second solve");
            // 100 ms on, most trees kept their next hops.
            let t = t1 + SimDuration::from_millis(100);
            step(&mut net, &mut oracle, t, &fwd[2], masks[1].as_ref(), "nearby solve");

            // Checkpoint here; a freshly built net restored from it must
            // carry on exactly as the original does.
            let snapshot = saved(|w| net.save(w));
            let (mut resumed, _) = build(&mut DetRng::from_state(flows_state));
            // Something to forget: paths the restore must not reuse.
            resumed.resolve(SimTime::ZERO, &fwd[0], None, &c);
            let mut r = SnapReader::from_bytes(snapshot.clone(), 1).unwrap();
            resumed.restore(&mut r, &c).unwrap();
            r.expect_end().unwrap();
            assert_eq!(saved(|w| resumed.save(w)), snapshot, "case {case}: restore round trip");
            let t2 = SimTime::from_millis(1_200);
            let pushes = step(&mut net, &mut oracle, t2, &fwd[0], masks[0].as_ref(), "third solve");
            resumed.advance_to(t2);
            resumed.resolve(t2, &fwd[0], masks[0].as_ref(), &c);
            assert_eq!(
                resumed.stats().last.paths_reused,
                0,
                "case {case}: reused across a restore"
            );
            assert_eq!(resumed.residual_changes(), &pushes[..], "case {case}: resumed pushes");
            assert_eq!(saved(|w| resumed.save(w)), saved(|w| net.save(w)), "case {case}: resumed");

            // One forwarding state, the mask on → off → on: a solve with a
            // fault active, or right after one, walks every path.
            for (ms, mask) in [(1_300, Some(&toggle)), (1_400, None), (1_500, Some(&toggle))] {
                let t = SimTime::from_millis(ms);
                step(&mut net, &mut oracle, t, &fwd[0], mask, &format!("toggle at {ms} ms"));
                assert_eq!(net.stats().last.paths_reused, 0, "case {case}: reused at {ms} ms");
            }

            // Past every finite stop: only open-ended flows keep a rate.
            let t = SimTime::from_secs(6);
            step(&mut net, &mut oracle, t, &fwd[1], masks[1].as_ref(), "final solve");
            assert!(net.next_boundary().iter().all(|&(t, _)| t == SimTime::MAX));
            reuse_cases += usize::from(reused);
            lazy_cases += usize::from(lazy);
        }
        assert!(live_cases >= 200, "only {live_cases} cases allocated any rate at all");
        assert!(masked_cases >= 20, "only {masked_cases} cases had a path masked by faults");
        assert!(unroutable_cases >= 20, "only {unroutable_cases} cases had an unroutable flow");
        assert!(reuse_cases >= 50, "only {reuse_cases} cases reused a path");
        assert!(lazy_cases >= 50, "only {lazy_cases} cases skipped a residual update");
    }

    /// The release gate at the benchmark's hybrid scale: Kuiper K1, 100
    /// cities, 10⁵ gravity flows at 256 kbit/s over 10 Mbit/s links, a
    /// forwarding state every 100 ms for 3 s, without faults and under
    /// satellite flapping. Every solve must match the map-based oracle to
    /// the bit. Without faults most paths are reused; under flapping some
    /// satellite is always down, so none are; either way the fill skips
    /// most residual updates.
    #[test]
    #[ignore = "K1 scale: run with --release -- --include-ignored (scripts/check.sh does)"]
    fn k1_gravity_solves_match_the_oracle_with_and_without_flapping() {
        use hypatia_constellation::ground::{gravity_pairs, top_cities};
        use hypatia_constellation::presets::kuiper_k1;
        use hypatia_fault::FlapProcess;
        let c = kuiper_k1(top_cities(100));
        let dests: Vec<NodeId> = (0..100).map(|i| c.gs_node(i)).collect();
        let pairs = gravity_pairs(100, 100_000, 2020);
        let link = DataRate::from_mbps(10);
        let stop = SimTime::from_secs(3);
        for flapping in [false, true] {
            let flap = FlapProcess { mttf_s: 190.0, mttr_s: 10.0 };
            let spec = FaultSpec { seed: 2020, sat_flap: Some(flap), ..FaultSpec::default() };
            let schedule =
                flapping.then(|| FaultSchedule::compile(&spec, &c, SimDuration::from_secs(4)));
            let mut net = FluidNet::new(link, link);
            let mut oracle = Oracle::new(link, link);
            for n in [&mut net, &mut oracle.net] {
                for (i, &(a, b)) in pairs.iter().enumerate() {
                    let rate = DataRate::from_kbps(256);
                    n.add_flow(i as u32, c.gs_node(a), c.gs_node(b), rate, 1440, stop);
                }
                n.rebuild_boundaries(SimTime::ZERO);
            }
            let mut buffers = SnapshotBuffers::new();
            let mut router = IncrementalRouter::new(RoutingConfig::default());
            let mut fwd = ForwardingState::empty();
            let mut eager = 0;
            for k in 0..31 {
                let t = SimTime::from_millis(100 * k);
                let what = format!("flapping {flapping}, t = {t}");
                let mask = schedule.as_ref().map(|s| FaultState::at(s, t));
                let graph = buffers.snapshot_masked(&c, t, mask.as_ref());
                router.compute_into(graph, t, &dests, &mut fwd);
                net.advance_to(t);
                oracle.net.advance_to(t);
                net.resolve(t, &fwd, mask.as_ref(), &c);
                oracle.resolve(t, &fwd, mask.as_ref(), &c);
                assert_same_state(&net, &oracle, &what);
                assert_same_pushes(&mut net, &mut oracle, &what);
                let last = net.stats().last;
                eager += last.rounds * last.links_loaded;
            }
            let total = net.stats().total;
            assert!(total.active_bundles > 250_000, "flapping {flapping}: {total:?}");
            assert!(flapping || 2 * total.paths_reused > total.active_bundles, "{total:?}");
            assert!(!flapping || total.paths_reused == 0, "{total:?}");
            assert!(4 * total.residual_updates < eager, "flapping {flapping}: {total:?}");
        }
    }
}
