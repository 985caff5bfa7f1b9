//! The simulator facade: the event loop, coordinator state, merged views.
//!
//! Node-level event handling lives in [`crate::shard`]; this module owns
//! what is global to a run — forwarding recomputation, the fault-schedule
//! cursor, the fluid solver — and the one loop driving the shards.
//!
//! Global events (forwarding swaps, fault updates, fluid finish
//! boundaries) never enter a queue: they live in coordinator cursors and
//! [`Simulator::run_until`]'s epoch loop applies them at window starts,
//! then runs every shard's window up to the next global instant or the
//! conservative lookahead (minimum cross-shard propagation delay),
//! whichever comes first, and exchanges cross-shard arrivals through
//! per-shard outboxes at the barrier. With one shard (the default) there
//! are no cross-shard links, so windows end only at global instants, the
//! window runs inline on the calling thread, and the loop *is* the classic
//! sequential simulator.
//!
//! Events are processed in canonical `(time, key)` order (see
//! `crate::shard` for the key construction) however nodes are grouped, so
//! every observable of a run — stats, traces, application state, RTT
//! samples — is bit-identical at any shard count.

use crate::app::Application;
use crate::audit::AuditViolation;
use crate::checkpoint::{CheckpointError, Snap, SnapReader, SnapWriter};
use crate::config::SimConfig;
use crate::event::QueueStats;
use crate::fluid::{FluidNet, FluidStats, SimMode};
use crate::node::Node;
use crate::shard::{fault_key, fluid_key, Partition, Shard, FORWARDING_KEY};
use crate::stats::SimStats;
use crate::trace::{Trace, TraceKind};
use hypatia_constellation::{Constellation, EphemerisStats, NodeId};
use hypatia_fault::FaultState;
use hypatia_routing::forwarding::{compute_multipath_state_on, ForwardingState, MultipathState};
use hypatia_routing::graph::SnapshotBuffers;
use hypatia_routing::incremental::{IncrementalRouter, RepairStats, RouterStats};
use hypatia_routing::parallel::{Prefetcher, SnapshotWorker};
use hypatia_util::{DataRate, SimDuration, SimTime};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// How the engine executed a run — recorded into experiment manifests so
/// sharded runs are auditable (and comparable) after the fact. Telemetry,
/// not state: where `run_until` cuts fall moves the window counts, so none
/// of it is part of a checkpoint — after a resume it counts from the
/// restore point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineReport {
    /// Number of shards the node set was partitioned into.
    pub sim_shards: usize,
    /// Windows executed. With one shard a window ends only at the next
    /// coordinator instant or the `run_until` horizon.
    pub epochs: u64,
    /// Barriers at which at least one cross-shard packet was exchanged.
    pub barriers: u64,
    /// Smallest conservative lookahead window used, nanoseconds. `None`
    /// when no window was ever bounded by cross-shard geometry (always,
    /// with one shard).
    pub min_lookahead_ns: Option<u64>,
    /// Event-queue telemetry over all shards' queues: inserts per tier and
    /// cascades summed, peak pending of the busiest queue.
    pub queue: QueueStats,
    /// Fluid-solver telemetry (all zero in packet mode). Coordinator-owned,
    /// so identical at any shard count.
    pub fluid: FluidStats,
    /// How the shards' ephemeris caches served propagation delays, summed
    /// over shards (each samples its own tracks, so `fits` grows with the
    /// shard count).
    pub ephemeris: EphemerisStats,
    /// Where the event loop's wall time went, phase by phase.
    pub phases: PhaseTimes,
    /// How forwarding states were produced — full vs. repaired snapshots
    /// and why, and what the repairs did — for every step the event loop
    /// consumed: the inline router's counters plus, when a prefetch pool
    /// runs, those of the worker computations it took (steps computed
    /// ahead and never consumed are not counted). Each worker repairs from
    /// whatever snapshot it computed last, so with a pool the split
    /// depends on thread scheduling; the states never do.
    pub routing: (RouterStats, RepairStats),
}

/// Wall-clock nanoseconds the event loop spent in each phase of its
/// windows, from `Instant` pairs taken per window, never per event. Differs
/// from run to run, like every wall-clock figure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Coordinator events: forwarding swaps, fault updates, fluid
    /// boundaries.
    pub globals_ns: u64,
    /// The window steps: every shard's run, thread spawn and join included.
    pub window_ns: u64,
    /// The shards' runs summed: above `window_ns` only when shards ran in
    /// parallel.
    pub busy_ns: u64,
    /// Moving cross-shard arrivals between windows.
    pub exchange_ns: u64,
}

/// What a prefetch worker hands over per forwarding step: the states and
/// what its router counted while computing them.
type PrefetchedStep = (ForwardingState, Option<MultipathState>, (RouterStats, RepairStats));

/// The packet-level simulator.
///
/// Owns the shard set, the coordinator state (forwarding, fault and fluid
/// cursors), and merged result views; recomputes forwarding at the
/// configured granularity while the event loop runs.
pub struct Simulator {
    constellation: Arc<Constellation>,
    config: SimConfig,
    now: SimTime,
    partition: Arc<Partition>,
    shards: Vec<Shard>,
    /// Owning shard of each installed application, by app index.
    app_shard: Vec<u32>,
    dests: Vec<NodeId>,
    /// Forwarding state currently in force (shared with every shard).
    fwd: Arc<ForwardingState>,
    /// Multipath alternates (present when `multipath_stretch` is set).
    mp: Option<Arc<MultipathState>>,
    /// Background forwarding-state pipeline (present when
    /// `config.fstate_threads > 0`): computes steps `k+1..k+P` while the
    /// event loop consumes step `k`. Deterministic — states are identical
    /// to inline computation and consumed strictly in step order.
    fstate_prefetch: Option<Prefetcher<PrefetchedStep>>,
    /// Routing counters of the prefetched steps consumed so far.
    prefetched_routing: (RouterStats, RepairStats),
    /// Snapshot-graph staging buffers for the inline recomputation path.
    snapshot_buffers: SnapshotBuffers,
    /// Inline routing engine (full Dijkstra or incremental repair, per
    /// `config.routing`). Prefetch workers own their own routers; either
    /// way the states are byte-identical to a full recompute.
    router: IncrementalRouter,
    /// Next forwarding step to apply, at `next_fwd_step × fstate_step`.
    next_fwd_step: u64,
    /// Cursor into the fault schedule (entries at t = 0 are folded into
    /// the initial state and skipped).
    next_fault_index: usize,
    /// Events the coordinator applied outside any shard (forwarding swaps,
    /// fault updates, fluid boundaries) and the counters it owns.
    coord_stats: SimStats,
    /// The fluid-flow network (fluid/hybrid modes; `None` under packet
    /// mode). Coordinator-owned: rates re-solve only at canonical global
    /// instants, which is what keeps sharded runs bit-identical.
    fluid: Option<FluidNet>,
    /// Fluid flows installed since the last boundary rebuild.
    fluid_dirty: bool,
    /// Has `run_until` been called? Fluid installs are rejected after
    /// that: the boundary schedule is built once, at run start.
    started: bool,
    /// Trace records made by the coordinator itself (fluid re-solves);
    /// merged ahead of the shard traces in `refresh_views`.
    coord_trace: Trace,
    epochs: u64,
    barriers: u64,
    min_lookahead_ns: Option<u64>,
    phases: PhaseTimes,
    /// Bounded per-packet trace: the merged view over all shards,
    /// refreshed after every `run_until` / `add_app` (off unless
    /// configured).
    pub trace: Trace,
    /// Global counters: coordinator + all shards, refreshed with the
    /// trace.
    pub stats: SimStats,
}

impl Simulator {
    /// Build a simulator over `constellation`, routing towards `dests` (the
    /// nodes that will terminate traffic — forwarding trees are computed
    /// only for these).
    pub fn new(constellation: Arc<Constellation>, config: SimConfig, dests: Vec<NodeId>) -> Self {
        assert!(!dests.is_empty(), "at least one destination is required");

        let partition = Arc::new(Partition::new(&constellation, config.sim_shards));
        let mut snapshot_buffers = SnapshotBuffers::new();
        let mut router = IncrementalRouter::new(config.routing);
        let (fwd, mp) = Self::compute_states(
            &constellation,
            &config,
            &dests,
            SimTime::ZERO,
            &mut snapshot_buffers,
            &mut router,
        );
        let fwd = Arc::new(fwd);
        let mp = mp.map(Arc::new);

        let nshards = partition.shards();
        let mut shards: Vec<Shard> = (0..nshards)
            .map(|id| {
                Shard::new(
                    id,
                    constellation.clone(),
                    &config,
                    partition.clone(),
                    fwd.clone(),
                    mp.clone(),
                )
            })
            .collect();
        for shard in &mut shards {
            shard.init_outbox(nshards);
        }

        // Fault injection: events at t = 0 are already folded into the
        // initial live state (and the initial forwarding computation); the
        // cursor starts at the first strictly-future event.
        let next_fault_index = config.faults.as_ref().map_or(0, |s| {
            s.events().iter().position(|e| e.t > SimTime::ZERO).unwrap_or(s.events().len())
        });

        // Background prefetch of upcoming forwarding steps (off for frozen
        // networks, which never update forwarding at all).
        let fstate_prefetch = Self::spawn_prefetcher(&constellation, &config, &dests, 1);

        let trace = Trace::new(config.trace_limit);
        let fluid = (config.sim_mode != SimMode::Packet)
            .then(|| FluidNet::new(config.effective_isl_rate(), config.effective_gsl_rate()));
        let coord_trace = Trace::new(config.trace_limit);
        Simulator {
            constellation,
            config,
            now: SimTime::ZERO,
            partition,
            shards,
            app_shard: Vec::new(),
            dests,
            fwd,
            mp,
            fstate_prefetch,
            prefetched_routing: Default::default(),
            snapshot_buffers,
            router,
            next_fwd_step: 1,
            next_fault_index,
            coord_stats: SimStats::default(),
            fluid,
            fluid_dirty: false,
            started: false,
            coord_trace,
            epochs: 0,
            barriers: 0,
            min_lookahead_ns: None,
            phases: PhaseTimes::default(),
            trace,
            stats: SimStats::default(),
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The constellation being simulated.
    pub fn constellation(&self) -> &Constellation {
        &self.constellation
    }

    /// The configuration in force.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The forwarding state currently in force.
    pub fn forwarding(&self) -> &ForwardingState {
        &self.fwd
    }

    /// The node owned-state for `id` (devices, port bindings).
    pub fn node(&self, id: NodeId) -> &Node {
        &self.shards[self.partition.owner(id)].nodes[id.index()]
    }

    /// The simulated nodes in id order (for stats inspection).
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        (0..self.constellation.num_nodes()).map(|i| self.node(NodeId(i as u32)))
    }

    /// How the engine has executed so far (shard count, epochs, barriers,
    /// smallest lookahead window).
    pub fn engine_report(&self) -> EngineReport {
        let mut queue = QueueStats::default();
        let mut ephemeris = EphemerisStats::default();
        for shard in &self.shards {
            queue.merge(&shard.queue_stats());
            ephemeris.merge(&shard.ephemeris.stats());
        }
        let mut routing = (self.router.stats, self.router.repair_stats);
        routing.0.merge(&self.prefetched_routing.0);
        routing.1.merge(&self.prefetched_routing.1);
        EngineReport {
            sim_shards: self.shards.len(),
            epochs: self.epochs,
            barriers: self.barriers,
            min_lookahead_ns: self.min_lookahead_ns,
            queue,
            fluid: self.fluid.as_ref().map(FluidNet::stats).unwrap_or_default(),
            ephemeris,
            phases: self.phases,
            routing,
        }
    }

    /// Install an application at `(node, port)`. Calls its `on_start`
    /// immediately (at the current simulation time) and returns its index.
    pub fn add_app(&mut self, node: NodeId, port: u16, app: Box<dyn Application>) -> u32 {
        let idx = self.app_shard.len() as u32;
        let shard = self.partition.owner(node);
        self.app_shard.push(shard as u32);
        let now = self.now;
        self.shards[shard].install_app(idx, node, port, app, now);
        self.refresh_views();
        idx
    }

    /// Install a bulk application bound to every port in `ports` at `node`
    /// (arena flow tables: one [`Application`] owning many flow endpoints).
    /// Calls its `on_start` immediately and returns its index.
    pub fn add_app_multi(&mut self, node: NodeId, ports: &[u16], app: Box<dyn Application>) -> u32 {
        let idx = self.app_shard.len() as u32;
        let shard = self.partition.owner(node);
        self.app_shard.push(shard as u32);
        let now = self.now;
        self.shards[shard].install_app_multi(idx, node, ports, app, now);
        self.refresh_views();
        idx
    }

    /// Borrow an installed application, downcast to its concrete type.
    pub fn app_as<T: Application>(&self, idx: u32) -> Option<&T> {
        let shard = *self.app_shard.get(idx as usize)? as usize;
        self.shards[shard].app_as(idx)
    }

    /// Install one fluid flow (fluid/hybrid modes; see [`crate::fluid`]):
    /// `demand` offered wire rate from `src` to `dst` until `stop_at`,
    /// `payload_bytes` of goodput per packet-equivalent on the wire. Must
    /// be called before the first `run_until`; rates are solved at run
    /// start and re-solved at forwarding swaps, fault updates, and flow
    /// finish boundaries.
    pub fn add_fluid_flow(
        &mut self,
        flow_id: u32,
        src: NodeId,
        dst: NodeId,
        demand: DataRate,
        payload_bytes: u32,
        stop_at: SimTime,
    ) {
        assert!(
            self.config.sim_mode != SimMode::Packet,
            "fluid flows require sim_mode fluid or hybrid"
        );
        assert!(!self.started, "fluid flows must be installed before the run starts");
        self.fluid.as_mut().expect("fluid network exists in fluid/hybrid modes").add_flow(
            flow_id,
            src,
            dst,
            demand,
            payload_bytes,
            stop_at,
        );
        self.fluid_dirty = true;
    }

    /// The fluid-flow network, when `sim_mode` is fluid or hybrid (for
    /// per-flow delivered-byte and rate inspection).
    pub fn fluid(&self) -> Option<&FluidNet> {
        self.fluid.as_ref()
    }

    /// Run the event loop until simulated time `t_end` (inclusive): apply
    /// the coordinator events due at the window start, run every shard up
    /// to the barrier (in parallel when more than one has work), exchange
    /// cross-shard arrivals, repeat.
    pub fn run_until(&mut self, t_end: SimTime) {
        self.flush_fluid_installs();
        self.started = true;
        loop {
            let next_node = self.shards.iter_mut().filter_map(Shard::next_event_time).min();
            let start = match (self.next_global_time(), next_node) {
                (Some(g), Some(n)) => g.min(n),
                (Some(g), None) => g,
                (None, Some(n)) => n,
                (None, None) => break,
            };
            if start > t_end {
                break;
            }
            self.now = start;
            let t0 = Instant::now();
            self.apply_globals_at(start);
            self.phases.globals_ns += ns_since(t0);

            // The window is bounded by the next coordinator event (its
            // swap must happen before any later node event), by the
            // conservative lookahead, and by the run horizon.
            let mut end_incl = t_end;
            if let Some(g) = self.next_global_time() {
                debug_assert!(g > start, "coordinator event not consumed");
                end_incl = end_incl.min(g - SimDuration::from_nanos(1));
            }
            let geom_t = if self.config.freeze_at_epoch { SimTime::ZERO } else { start };
            if let Some(w) = self.partition.lookahead_at(&self.constellation, geom_t) {
                end_incl = end_incl.min(start + w - SimDuration::from_nanos(1));
                self.min_lookahead_ns =
                    Some(self.min_lookahead_ns.map_or(w.nanos(), |m| m.min(w.nanos())));
            }
            debug_assert!(end_incl >= start);

            let active = self
                .shards
                .iter_mut()
                .filter_map(Shard::next_event_time)
                .filter(|&t| t <= end_incl)
                .count();
            let t0 = Instant::now();
            self.phases.busy_ns += if active <= 1 {
                // Nothing to overlap: run inline (a shard with nothing due
                // returns at once). One shard always lands here.
                self.shards.iter_mut().map(|shard| run_timed(shard, end_incl)).sum::<u64>()
            } else {
                std::thread::scope(|scope| {
                    let mut running = Vec::new();
                    for shard in self.shards.iter_mut() {
                        if shard.next_event_time().is_some_and(|t| t <= end_incl) {
                            running.push(scope.spawn(move || run_timed(shard, end_incl)));
                        }
                    }
                    let join = |h: std::thread::ScopedJoinHandle<u64>| {
                        h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                    };
                    running.into_iter().map(join).sum::<u64>()
                })
            };
            self.phases.window_ns += ns_since(t0);
            self.epochs += 1;
            let t0 = Instant::now();
            if self.exchange_outboxes() > 0 {
                self.barriers += 1;
            }
            self.phases.exchange_ns += ns_since(t0);
        }
        self.now = t_end;
        for shard in &mut self.shards {
            shard.now = t_end;
        }
        self.refresh_views();
    }

    /// Move every cross-shard arrival produced in the last windows into
    /// its destination shard's slab and queue; each emptied outbox keeps
    /// its buffer. Returns the number of packets moved.
    fn exchange_outboxes(&mut self) -> u64 {
        let n = self.shards.len();
        if n == 1 {
            return 0;
        }
        let mut moved = 0;
        for src in 0..n {
            for dst in 0..n {
                let mut outbox = std::mem::take(&mut self.shards[src].outbox[dst]);
                moved += outbox.len() as u64;
                for o in outbox.drain(..) {
                    self.shards[dst].accept(o);
                }
                self.shards[src].outbox[dst] = outbox;
            }
        }
        moved
    }

    /// The next instant at which the coordinator must act (forwarding
    /// swap, fault update, or fluid finish boundary), if any.
    fn next_global_time(&self) -> Option<SimTime> {
        let mut next: Option<SimTime> = None;
        if !self.config.freeze_at_epoch {
            next = Some(SimTime::ZERO + self.config.fstate_step * self.next_fwd_step);
        }
        if let Some(schedule) = &self.config.faults {
            if let Some(e) = schedule.events().get(self.next_fault_index) {
                next = Some(next.map_or(e.t, |n| n.min(e.t)));
            }
        }
        if let Some((t, _)) = self.fluid.as_ref().and_then(|f| f.next_boundary()) {
            next = Some(next.map_or(t, |n| n.min(t)));
        }
        next
    }

    /// Apply every coordinator event due exactly at `t`, in canonical key
    /// order: the forwarding swap (key 0) first, then fault-schedule
    /// entries in index order, then the fluid finish boundary. Each
    /// counts one event and re-solves the fluid allocation under its own
    /// key, which is also what orders its trace record.
    fn apply_globals_at(&mut self, t: SimTime) {
        // Captured before any same-instant re-solve advances the cursor:
        // a boundary due at `t` is its own event even then.
        let due_boundary =
            self.fluid.as_ref().and_then(|f| f.next_boundary()).filter(|&(bt, _)| bt == t);
        if !self.config.freeze_at_epoch
            && SimTime::ZERO + self.config.fstate_step * self.next_fwd_step == t
        {
            let step = self.next_fwd_step;
            let (fwd, mp) = self.take_forwarding_state(step, t);
            self.fwd = fwd.clone();
            self.mp = mp.clone();
            for shard in &mut self.shards {
                shard.set_forwarding(fwd.clone(), mp.clone());
            }
            self.coord_stats.forwarding_updates += 1;
            self.coord_stats.events += 1;
            self.next_fwd_step += 1;
            self.resolve_fluid(t, FORWARDING_KEY);
        }
        if let Some(schedule) = self.config.faults.clone() {
            while let Some(event) = schedule.events().get(self.next_fault_index) {
                if event.t != t {
                    break;
                }
                for shard in &mut self.shards {
                    shard.apply_fault(event);
                }
                self.coord_stats.events += 1;
                let index = self.next_fault_index as u64;
                self.next_fault_index += 1;
                self.resolve_fluid(t, fault_key(index));
            }
        }
        if let Some((_, index)) = due_boundary {
            self.coord_stats.events += 1;
            self.resolve_fluid(t, fluid_key(index));
        }
    }

    /// One-time lazy setup at run start: build the finish-boundary
    /// schedule for freshly installed fluid flows and solve the initial
    /// rate allocation. Counts no event — installs happen outside the
    /// event loop, like `add_app`'s `on_start`.
    fn flush_fluid_installs(&mut self) {
        if !self.fluid_dirty {
            return;
        }
        self.fluid_dirty = false;
        let now = self.now;
        if let Some(f) = self.fluid.as_mut() {
            f.rebuild_boundaries(now);
        }
        self.resolve_fluid(now, fluid_key(0));
    }

    /// Recompute the fluid rate allocation at `t` (after integrating
    /// delivered bytes up to `t` under the outgoing rates) and, in hybrid
    /// mode, push changed residual rates to the packet devices. `key` is
    /// the canonical key of the triggering coordinator event — stamped on
    /// the trace record so it merges into `(time, key)` order. No-op in
    /// packet mode.
    fn resolve_fluid(&mut self, t: SimTime, key: u64) {
        let Some(fluid) = self.fluid.as_mut() else { return };
        fluid.advance_to(t);
        fluid.resolve(t, &self.fwd, self.shards[0].fault_state.as_ref(), &self.constellation);
        self.coord_stats.fluid_resolves += 1;
        self.coord_trace.set_key(key);
        // Not a packet event: node 0 is a placeholder; the "packet id"
        // carries the running re-solve count.
        self.coord_trace.record(t, NodeId(0), fluid.resolves(), TraceKind::FluidResolve);
        if self.config.sim_mode == SimMode::Hybrid {
            let changes = fluid.residual_changes();
            if !changes.is_empty() {
                for shard in &mut self.shards {
                    shard.apply_link_rates(changes);
                }
            }
        }
    }

    /// The forwarding (and multipath) state for `step`, from the prefetch
    /// pipeline when one is running, else computed inline.
    fn take_forwarding_state(
        &mut self,
        step: u64,
        t: SimTime,
    ) -> (Arc<ForwardingState>, Option<Arc<MultipathState>>) {
        let (fwd, mp) = if let Some(prefetch) = &mut self.fstate_prefetch {
            let (fwd, mp, (router, repair)) = prefetch.take(step);
            self.prefetched_routing.0.merge(&router);
            self.prefetched_routing.1.merge(&repair);
            (fwd, mp)
        } else {
            Self::compute_states(
                &self.constellation,
                &self.config,
                &self.dests,
                t,
                &mut self.snapshot_buffers,
                &mut self.router,
            )
        };
        (Arc::new(fwd), mp.map(Arc::new))
    }

    /// Forwarding (and multipath) state at `t`. With faults configured,
    /// both are computed on one snapshot graph with the schedule's state
    /// at `t` masked out — derived purely from the immutable schedule, so
    /// this is bit-identical however and whenever it is invoked. The
    /// router repairs from whatever snapshot it computed last (or runs
    /// full Dijkstra, per `config.routing`); both yield the same bytes.
    fn compute_states(
        constellation: &Constellation,
        config: &SimConfig,
        dests: &[NodeId],
        t: SimTime,
        buffers: &mut SnapshotBuffers,
        router: &mut IncrementalRouter,
    ) -> (ForwardingState, Option<MultipathState>) {
        let mask = config.faults.as_ref().map(|s| FaultState::at(s, t));
        let graph = buffers.snapshot_masked(constellation, t, mask.as_ref());
        let mut fwd = ForwardingState::empty();
        router.compute_into(graph, t, dests, &mut fwd);
        let mp = config.multipath_stretch.map(|s| compute_multipath_state_on(graph, t, dests, s));
        (fwd, mp)
    }

    /// Start the background forwarding-state pipeline at `start_step`
    /// (`None` when prefetch is off or the network is frozen). `new` starts
    /// it at step 1; a restore respawns it at the snapshot's cursor.
    fn spawn_prefetcher(
        constellation: &Arc<Constellation>,
        config: &SimConfig,
        dests: &[NodeId],
        start_step: u64,
    ) -> Option<Prefetcher<PrefetchedStep>> {
        (config.fstate_threads > 0 && !config.freeze_at_epoch).then(|| {
            let constellation = constellation.clone();
            let dests = dests.to_vec();
            let step = config.fstate_step;
            let stretch = config.multipath_stretch;
            let faults = config.faults.clone();
            let routing = config.routing;
            Prefetcher::spawn(
                start_step,
                config.fstate_threads,
                config.fstate_prefetch,
                move || SnapshotWorker::with_config(routing),
                move |worker: &mut SnapshotWorker, k| {
                    let t = SimTime::ZERO + step * k;
                    // Pure replay of the schedule at `t` — workers never
                    // see (or race on) the simulator's live fault state.
                    let mask = faults.as_ref().map(|s| FaultState::at(s, t));
                    let fwd =
                        worker.forwarding_state_masked(&constellation, t, &dests, mask.as_ref());
                    let mp = stretch
                        .map(|s| compute_multipath_state_on(worker.buffers.graph(), t, &dests, s));
                    let router = &mut worker.router;
                    let counted = (
                        std::mem::take(&mut router.stats),
                        std::mem::take(&mut router.repair_stats),
                    );
                    (fwd, mp, counted)
                },
            )
        })
    }

    /// Rebuild the merged `stats` / `trace` views from the coordinator and
    /// every shard. Cheap when tracing is off; with tracing on, the merge
    /// re-sorts into canonical `(time, key)` order.
    fn refresh_views(&mut self) {
        if let Some(f) = self.fluid.as_mut() {
            f.advance_to(self.now);
            self.coord_stats.fluid_flows = f.flow_count();
            self.coord_stats.fluid_bytes_delivered = f.delivered_payload_bytes();
        }
        let mut stats = self.coord_stats.clone();
        for shard in &self.shards {
            stats.merge(&shard.stats);
        }
        self.stats = stats;
        let parts: Vec<&Trace> = std::iter::once(&self.coord_trace)
            .chain(self.shards.iter().map(|s| &s.trace))
            .collect();
        self.trace = Trace::merged(&parts, self.config.trace_limit);
    }

    /// Utilization of the most loaded directed link along `path` in bucket
    /// `bucket_idx` (requires utilization tracking). For each hop `a → b`
    /// the device is `a`'s ISL device towards `b`, or `a`'s GSL device.
    pub fn path_bottleneck_utilization(&self, path: &[NodeId], bucket_idx: usize) -> f64 {
        assert!(path.len() >= 2, "path needs at least one hop");
        let mut worst: f64 = 0.0;
        for w in path.windows(2) {
            let node = self.node(w[0]);
            let dev_idx = node.device_for(w[1]).expect("path hop has no device");
            let u = node.devices[dev_idx]
                .utilization(bucket_idx)
                .expect("utilization tracking disabled");
            worst = worst.max(u);
        }
        worst
    }

    // ---- Crash resilience: checkpoint, restore, conservation audits ----

    /// FNV-1a-64 over everything the snapshot layout depends on: topology
    /// size, destination set, shard count, mode, timing, rates,
    /// loss model, trace bounds, fault-schedule length, and app count. A
    /// snapshot restores only into a simulator with the same fingerprint,
    /// so a resumed run cannot silently diverge because a knob changed.
    pub fn config_fingerprint(&self) -> u64 {
        fn mix(h: &mut u64, x: u64) {
            for b in x.to_le_bytes() {
                *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let c = &self.config;
        mix(&mut h, self.constellation.num_nodes() as u64);
        mix(&mut h, self.constellation.num_satellites() as u64);
        mix(&mut h, self.dests.len() as u64);
        for d in &self.dests {
            mix(&mut h, d.0 as u64);
        }
        mix(&mut h, self.partition.shards() as u64);
        for b in c.sim_mode.name().bytes() {
            mix(&mut h, b as u64);
        }
        mix(&mut h, c.fstate_step.nanos());
        mix(&mut h, c.freeze_at_epoch as u64);
        mix(&mut h, c.effective_isl_rate().bps());
        mix(&mut h, c.effective_gsl_rate().bps());
        mix(&mut h, c.queue_packets as u64);
        mix(&mut h, c.loss_seed);
        mix(&mut h, c.gsl_loss_rate.to_bits());
        mix(&mut h, c.trace_limit as u64);
        mix(&mut h, c.trace_sample_every);
        mix(&mut h, c.multipath_stretch.map_or(u64::MAX, f64::to_bits));
        mix(&mut h, c.faults.as_ref().map_or(0, |s| s.events().len() as u64));
        mix(&mut h, self.app_shard.len() as u64);
        h
    }

    /// Serialize the full mutable state of the run into an in-memory
    /// snapshot image (see [`crate::checkpoint`] for the container). Must
    /// be taken at a barrier — between `run_until` calls — so there are no
    /// undelivered cross-shard packets and no half-dispatched application.
    pub fn checkpoint(&self) -> Result<Vec<u8>, CheckpointError> {
        let mut w = SnapWriter::new(self.config_fingerprint());
        self.save_into(&mut w)?;
        Ok(w.finish())
    }

    /// [`Simulator::checkpoint`] straight to a file, written atomically
    /// (temp file + rename) so a crash mid-write never leaves a truncated
    /// snapshot in place of a good one.
    pub fn checkpoint_to(&self, path: &Path) -> Result<(), CheckpointError> {
        let mut w = SnapWriter::new(self.config_fingerprint());
        self.save_into(&mut w)?;
        w.write_file(path)
    }

    fn save_into(&self, w: &mut SnapWriter) -> Result<(), CheckpointError> {
        if self.fluid_dirty {
            return Err(CheckpointError::Unsupported(
                "fluid flows installed but not yet started; checkpoint after run_until".into(),
            ));
        }
        w.put_tag(b"SIMU");
        (self.now, self.started, self.next_fwd_step, self.next_fault_index).put(w);
        w.put_tag(b"CSTA");
        self.coord_stats.put(w);
        w.put_tag(b"CTRC");
        self.coord_trace.put(w);
        self.fluid.is_some().put(w);
        if let Some(f) = &self.fluid {
            f.save(w);
        }
        for shard in &self.shards {
            shard.save(w)?;
        }
        Ok(())
    }

    /// Restore a snapshot image taken by [`Simulator::checkpoint`].
    ///
    /// The caller rebuilds the simulator exactly as the checkpointed run
    /// was built — same constellation, config, destinations, and the same
    /// `add_app` / `add_fluid_flow` sequence — then restores. The snapshot
    /// overwrites every piece of mutable state (queues, device contents,
    /// application state, RNG streams, counters, cursors, fluid rates), and
    /// the continuation is bit-identical to the uninterrupted run at any
    /// shard count and mode. Structural mismatches are
    /// reported as typed errors, never panics.
    pub fn restore(&mut self, bytes: Vec<u8>) -> Result<(), CheckpointError> {
        let mut r = SnapReader::from_bytes(bytes, self.config_fingerprint())?;
        self.restore_body(&mut r)
    }

    /// [`Simulator::restore`] from a snapshot file.
    pub fn restore_from(&mut self, path: &Path) -> Result<(), CheckpointError> {
        let mut r = SnapReader::open(path, self.config_fingerprint())?;
        self.restore_body(&mut r)
    }

    fn restore_body(&mut self, r: &mut SnapReader) -> Result<(), CheckpointError> {
        r.expect_tag(b"SIMU")?;
        let now: SimTime;
        (now, self.started, self.next_fwd_step, self.next_fault_index) = r.get()?;
        r.expect_tag(b"CSTA")?;
        self.coord_stats.restore(r)?;
        r.expect_tag(b"CTRC")?;
        self.coord_trace.restore(r)?;
        let has_fluid: bool = r.get()?;
        if has_fluid != self.fluid.is_some() {
            return Err(CheckpointError::Malformed(format!(
                "snapshot fluid presence ({has_fluid}) does not match the rebuilt simulator \
                 ({})",
                self.fluid.is_some()
            )));
        }
        if let Some(f) = self.fluid.as_mut() {
            f.restore(r, &self.constellation)?;
        }
        self.fluid_dirty = false;
        for shard in &mut self.shards {
            shard.restore(r)?;
        }
        r.expect_end()?;

        // Rebuild the live fault state by replaying the schedule up to the
        // cursor — exactly the entries the checkpointed run had applied
        // (t = 0 entries are folded into the initial state, as in `new`).
        if let Some(schedule) = &self.config.faults {
            let events = schedule.events();
            let first_future =
                events.iter().position(|e| e.t > SimTime::ZERO).unwrap_or(events.len());
            if self.next_fault_index < first_future || self.next_fault_index > events.len() {
                return Err(CheckpointError::Malformed(format!(
                    "fault cursor {} outside [{first_future}, {}]",
                    self.next_fault_index,
                    events.len()
                )));
            }
            let mut state = FaultState::at(schedule, SimTime::ZERO);
            for ev in &events[first_future..self.next_fault_index] {
                state.apply(ev);
            }
            for shard in &mut self.shards {
                shard.fault_state = Some(state.clone());
            }
        }

        // Recompute the forwarding state in force at the checkpoint: the
        // last applied step is `next_fwd_step - 1`. Step 0 (and frozen
        // networks) is what the fresh build already computed. Forwarding is
        // a pure function of the schedule at `t`, so this is byte-identical
        // to the state the checkpointed run was using.
        if self.next_fwd_step > 1 && !self.config.freeze_at_epoch {
            let t_fwd = SimTime::ZERO + self.config.fstate_step * (self.next_fwd_step - 1);
            let (fwd, mp) = Self::compute_states(
                &self.constellation,
                &self.config,
                &self.dests,
                t_fwd,
                &mut self.snapshot_buffers,
                &mut self.router,
            );
            let fwd = Arc::new(fwd);
            let mp = mp.map(Arc::new);
            self.fwd = fwd.clone();
            self.mp = mp.clone();
            for shard in &mut self.shards {
                shard.set_forwarding(fwd.clone(), mp.clone());
            }
        }

        // The prefetch pipeline (if any) was computing steps from 1; drop
        // it and respawn from the restored cursor so `take(step)` stays in
        // lockstep with the event loop.
        self.fstate_prefetch = None;
        self.fstate_prefetch = Self::spawn_prefetcher(
            &self.constellation,
            &self.config,
            &self.dests,
            self.next_fwd_step,
        );

        self.now = now;
        self.refresh_views();
        Ok(())
    }

    /// Re-derive the engine's bookkeeping from first principles and report
    /// every violated invariant (empty = all conserved). See
    /// [`crate::audit`] for the invariants. Read-only; safe to call at any
    /// barrier (between `run_until` calls).
    pub fn audit(&self) -> Vec<AuditViolation> {
        let mut out = Vec::new();
        let t_ns = self.now.nanos();
        let mut stats = self.coord_stats.clone();
        for shard in &self.shards {
            stats.merge(&shard.stats);
        }
        // In flight = what each shard holds (scheduled arrivals, i.e.
        // propagating, + packets queued or in serialization at a device)
        // + cross-shard packets awaiting a barrier exchange.
        let mut in_flight: u64 = 0;
        for shard in &self.shards {
            in_flight += shard.audit(&mut out);
            in_flight += shard.outbox.iter().map(|b| b.len() as u64).sum::<u64>();
        }
        let dropped = stats.total_drops();
        if stats.injected != stats.delivered + dropped + in_flight {
            out.push(AuditViolation::PacketConservation {
                t_ns,
                injected: stats.injected,
                delivered: stats.delivered,
                dropped,
                in_flight,
            });
        }
        if let Some(f) = &self.fluid {
            for (link, load_bps, capacity_bps) in f.overloaded_links(1e-6) {
                out.push(AuditViolation::FluidOverCapacity { t_ns, link, load_bps, capacity_bps });
            }
        }
        out
    }
}

/// Nanoseconds of wall time since `t0`.
fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Run `shard` up to `end_incl`; its wall time in nanoseconds.
fn run_timed(shard: &mut Shard, end_incl: SimTime) -> u64 {
    let t0 = Instant::now();
    shard.run_window(end_incl);
    ns_since(t0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::ping::PingApp;
    use crate::packet::packet_id;
    use crate::trace::TraceKind;
    use hypatia_constellation::ground::GroundStation;
    use hypatia_constellation::gsl::GslConfig;
    use hypatia_constellation::isl::IslLayout;
    use hypatia_constellation::shell::ShellSpec;
    use hypatia_util::DataRate;

    fn constellation() -> Arc<Constellation> {
        Arc::new(Constellation::build(
            "simtest",
            vec![ShellSpec::new("A", 550.0, 10, 10, 53.0)],
            IslLayout::PlusGrid,
            vec![GroundStation::new("a", 5.0, 5.0), GroundStation::new("b", -10.0, 60.0)],
            GslConfig::new(10.0),
        ))
    }

    #[test]
    fn ping_round_trip_measures_plausible_rtt() {
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let mut sim = Simulator::new(c.clone(), SimConfig::default(), vec![src, dst]);
        let app = sim.add_app(
            src,
            100,
            Box::new(PingApp::new(dst, SimDuration::from_millis(100), SimTime::from_secs(2))),
        );
        sim.run_until(SimTime::from_secs(3));
        let ping: &PingApp = sim.app_as(app).unwrap();
        assert!(ping.sent() >= 20, "sent {}", ping.sent());
        assert!(
            ping.received() >= ping.sent() - 2,
            "lost pings: {}/{}",
            ping.received(),
            ping.sent()
        );
        for &(_, rtt) in ping.rtts() {
            let ms = rtt.secs_f64() * 1e3;
            // ~6000 km ground distance: RTT must be tens of ms, below 200.
            assert!((10.0..200.0).contains(&ms), "implausible RTT {ms} ms");
        }
    }

    #[test]
    fn deterministic_two_runs_identical() {
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let run = || {
            let mut sim = Simulator::new(c.clone(), SimConfig::default(), vec![src, dst]);
            let app = sim.add_app(
                src,
                100,
                Box::new(PingApp::new(dst, SimDuration::from_millis(10), SimTime::from_secs(1))),
            );
            sim.run_until(SimTime::from_secs(2));
            let ping: &PingApp = sim.app_as(app).unwrap();
            (ping.rtts().to_vec(), sim.stats.events)
        };
        let (a_rtts, a_events) = run();
        let (b_rtts, b_events) = run();
        assert_eq!(a_rtts, b_rtts);
        assert_eq!(a_events, b_events);
    }

    /// The background forwarding-state pipeline is a pure wall-clock knob:
    /// every observable of a run must be bit-identical to inline
    /// computation, for any worker-thread count, with and without
    /// multipath.
    #[test]
    fn prefetched_forwarding_is_bit_identical_to_inline() {
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let run = |cfg: SimConfig| {
            let mut sim = Simulator::new(c.clone(), cfg, vec![src, dst]);
            let app = sim.add_app(
                src,
                100,
                Box::new(PingApp::new(dst, SimDuration::from_millis(10), SimTime::from_secs(1))),
            );
            sim.run_until(SimTime::from_secs(2));
            let ping: &PingApp = sim.app_as(app).unwrap();
            // Routing telemetry counts the steps consumed — step 0 plus
            // every update — wherever they were computed; how many of them
            // were repairs depends on the workers' caches and is not compared.
            let (router, repair) = sim.engine_report().routing;
            assert_eq!(router.snapshots, sim.stats.forwarding_updates + 1);
            assert_eq!(router.repaired + router.fallback_first, router.snapshots);
            assert_eq!(repair.trees, 2 * router.repaired);
            (ping.rtts().to_vec(), sim.stats.events, sim.stats.forwarding_updates)
        };
        let inline = run(SimConfig::default());
        for threads in [1, 2, 4] {
            let prefetched = run(SimConfig::default().with_fstate_prefetch(threads, 4));
            assert_eq!(inline, prefetched, "threads={threads}");
        }
        let mp_inline = run(SimConfig::default().with_multipath(1.3));
        let mp_prefetched =
            run(SimConfig::default().with_multipath(1.3).with_fstate_prefetch(2, 4));
        assert_eq!(mp_inline, mp_prefetched);
    }

    /// The shard count is a pure wall-clock knob. Stats, traces, and
    /// application observables must be bit-identical to the one-shard run
    /// at any shard count — plain, and under faults + GSL loss.
    #[test]
    fn sharded_engine_is_bit_identical_to_serial() {
        use hypatia_fault::{FaultSchedule, FaultSpec, OutageWindow};
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let spec = FaultSpec {
            sat_outages: vec![OutageWindow { target: 12, from_s: 0.5, until_s: 1.5 }],
            ..FaultSpec::default()
        };
        let schedule = Arc::new(FaultSchedule::compile(&spec, &c, SimDuration::from_secs(2)));
        let run = |cfg: SimConfig| {
            let mut sim = Simulator::new(c.clone(), cfg, vec![src, dst]);
            let app = sim.add_app(
                src,
                100,
                Box::new(PingApp::new(dst, SimDuration::from_millis(10), SimTime::from_secs(1))),
            );
            sim.run_until(SimTime::from_secs(2));
            let ping: &PingApp = sim.app_as(app).unwrap();
            (ping.rtts().to_vec(), sim.stats.clone(), sim.trace.entries().to_vec())
        };
        let plain = SimConfig::default().with_trace_limit(100_000);
        let faulted = plain.clone().with_faults(schedule).with_gsl_loss(0.1);
        for base in [plain, faulted] {
            let serial = run(base.clone());
            assert!(serial.1.delivered > 0, "workload delivered nothing");
            for shards in [2, 4, 8] {
                let sharded = run(base.clone().with_sim_shards(shards));
                assert_eq!(serial, sharded, "sim_shards={shards} diverged");
            }
        }
    }

    /// The serial engine's last word. The second loop — coordinator events
    /// in the queue, handlers chaining their successors — produced this
    /// hash at the last commit that had it (`cc24080`); the one loop that
    /// is left must reproduce it at every shard count. The scenario
    /// crosses every coordinator path: hybrid mode, fluid flows with three
    /// finite stops (one on a forwarding instant), a fault exactly on a
    /// forwarding instant and one between instants, multipath, GSL loss, a
    /// ping and a UDP flow, tracing on — and `run_until` cuts on a
    /// forwarding instant, on a fluid boundary and mid-window, each issued
    /// twice (a global coinciding with `t_end` must apply exactly once).
    #[test]
    fn frozen_serial_reference_reproduces_at_every_shard_count() {
        use crate::apps::udp::{UdpSink, UdpSource};
        use hypatia_fault::{FaultSchedule, FaultSpec, OutageWindow};
        use hypatia_util::hash::Fnv1a64;
        const FROZEN: u64 = 0x7fcc_c85c_5044_6f01;
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let probe = Simulator::new(c.clone(), SimConfig::default(), vec![src, dst]);
        let path = probe.forwarding().path(src, dst).expect("nominal path exists");
        let victim = path[path.len() / 2];
        assert!(c.is_satellite(victim));
        let spec = FaultSpec {
            sat_outages: vec![OutageWindow { target: victim.0, from_s: 0.3, until_s: 0.75 }],
            ..FaultSpec::default()
        };
        let schedule = Arc::new(FaultSchedule::compile(&spec, &c, SimDuration::from_secs(2)));
        let fault_times: Vec<SimTime> = schedule.events().iter().map(|e| e.t).collect();
        assert_eq!(fault_times, [SimTime::from_millis(300), SimTime::from_millis(750)]);
        let base = SimConfig::default()
            .with_sim_mode(SimMode::Hybrid)
            .with_multipath(1.3)
            .with_faults(schedule)
            .with_gsl_loss(0.05)
            .with_trace_limit(200_000);
        for shards in [1, 2, 4] {
            let mut sim =
                Simulator::new(c.clone(), base.clone().with_sim_shards(shards), vec![src, dst]);
            sim.add_app(
                src,
                100,
                Box::new(PingApp::new(dst, SimDuration::from_millis(10), SimTime::from_secs(1))),
            );
            sim.add_app(dst, 50, Box::new(UdpSink::new()));
            sim.add_app(
                src,
                50,
                Box::new(UdpSource::new(
                    dst,
                    1,
                    DataRate::from_mbps(4),
                    1200,
                    SimTime::from_millis(900),
                )),
            );
            for (flow, (a, b, stop_ms)) in
                [(src, dst, 450), (src, dst, 600), (dst, src, 600), (src, dst, 1000)]
                    .into_iter()
                    .enumerate()
            {
                sim.add_fluid_flow(
                    flow as u32,
                    a,
                    b,
                    DataRate::from_mbps(3),
                    1440,
                    SimTime::from_millis(stop_ms),
                );
            }
            // A forwarding instant, a fluid boundary, mid-window, the end.
            for cut_ns in [200_000_000, 450_000_000, 777_777_777, 1_200_000_000] {
                sim.run_until(SimTime::from_nanos(cut_ns));
                sim.run_until(SimTime::from_nanos(cut_ns));
            }

            let mut h = Fnv1a64::new();
            assert_eq!(sim.trace.truncated(), 0, "the hash must cover the whole run");
            for (e, &key) in sim.trace.entries().iter().zip(sim.trace.keys()) {
                h.write_u64(e.t.nanos());
                h.write_u64(key);
                h.write_u32(e.node.0);
                h.write_u64(e.packet_id);
                h.write(&[e.kind as u8]);
            }
            let SimStats {
                injected,
                delivered,
                payload_bytes_delivered,
                hop_deliveries,
                routing_drops,
                queue_drops,
                channel_drops,
                fault_drops,
                unclaimed,
                pings_echoed,
                forwarding_updates,
                events,
                flow_count,
                flow_state_bytes,
                fluid_flows,
                fluid_resolves,
                fluid_bytes_delivered,
            } = sim.stats.clone();
            for field in [
                injected,
                delivered,
                payload_bytes_delivered,
                hop_deliveries,
                routing_drops,
                queue_drops,
                channel_drops,
                fault_drops,
                unclaimed,
                pings_echoed,
                forwarding_updates,
                events,
                flow_count,
                flow_state_bytes,
                fluid_flows,
                fluid_resolves,
                fluid_bytes_delivered,
            ] {
                h.write_u64(field);
            }
            for (flow, bytes) in sim.fluid().expect("hybrid mode").per_flow_payload_bytes() {
                h.write_u32(flow);
                h.write_u64(bytes.to_bits());
            }
            // Every coordinator path and drop kind actually ran.
            assert_eq!(forwarding_updates, 12);
            assert!(fluid_resolves > 12 + 2 + 3, "{fluid_resolves} re-solves");
            assert!(fault_drops > 0 && channel_drops > 0 && queue_drops > 0, "{:?}", sim.stats);
            assert!(delivered > 0 && pings_echoed > 0);
            assert_eq!(h.finish(), FROZEN, "sim_shards={shards}: {:?}", sim.stats);
        }
    }

    /// The engine report reflects how the loop ran.
    #[test]
    fn engine_report_describes_the_run() {
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let run = |cfg: SimConfig| {
            let mut sim = Simulator::new(c.clone(), cfg, vec![src, dst]);
            sim.add_app(
                src,
                100,
                Box::new(PingApp::new(
                    dst,
                    SimDuration::from_millis(20),
                    SimTime::from_millis(500),
                )),
            );
            sim.run_until(SimTime::from_secs(1));
            sim.engine_report()
        };
        let serial = run(SimConfig::default());
        assert_eq!(serial.sim_shards, 1);
        // The window from t = 0 plus one per forwarding instant, 0.1..=1.0 s.
        assert_eq!(serial.epochs, 11);
        assert_eq!(serial.barriers, 0, "one shard exchanges nothing");
        assert_eq!(serial.min_lookahead_ns, None, "no cross-shard geometry to bound a window");
        let q = serial.queue;
        assert!(q.level1_inserts > 0, "packet events stay in level 1");
        assert!(q.level2_inserts > 0, "20 ms ping timers park in level 2");
        assert!(q.cascaded > 0 && q.cascaded <= q.level2_inserts);
        assert_eq!(q.far_inserts, 0, "nothing is due more than 69 s ahead");
        assert!(q.peak_pending > 0);
        assert!(q.refills > 0 && q.peak_run > 0 && q.peak_run <= q.peak_pending);

        let sharded = run(SimConfig::default().with_sim_shards(4));
        assert_eq!(sharded.sim_shards, 4);
        assert!(sharded.epochs > 0, "no windows executed");
        assert!(sharded.barriers > 0, "GS traffic must cross shards");
        assert!(sharded.barriers <= sharded.epochs);
        let w = sharded.min_lookahead_ns.expect("cross-shard geometry bounds the window");
        // GSL bound 520 km ≈ 1.73 ms; window must be positive and below it.
        assert!(w > 0 && w < 2_000_000, "implausible lookahead {w} ns");
    }

    /// The phase timers account the window loop: two shards' summed runs
    /// fit twice into the window steps that hold them, and a run with
    /// cross-shard traffic spends time in every phase.
    #[test]
    fn phase_timers_account_the_window_loop() {
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let cfg = SimConfig::default().with_sim_shards(2);
        let mut sim = Simulator::new(c.clone(), cfg, vec![src, dst]);
        let ping = PingApp::new(dst, SimDuration::from_millis(20), SimTime::from_millis(500));
        sim.add_app(src, 100, Box::new(ping));
        sim.run_until(SimTime::from_secs(1));
        let report = sim.engine_report();
        assert!(report.barriers > 0, "GS traffic must cross shards");
        let p = report.phases;
        assert!(p.globals_ns > 0 && p.window_ns > 0 && p.exchange_ns > 0, "{p:?}");
        assert!(p.busy_ns > 0 && p.busy_ns <= 2 * p.window_ns, "{p:?}");
    }

    #[test]
    fn forwarding_updates_fire_at_granularity() {
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        for shards in [1, 4] {
            let cfg = SimConfig::default().with_sim_shards(shards);
            let mut sim = Simulator::new(c.clone(), cfg, vec![src, dst]);
            sim.run_until(SimTime::from_secs(1));
            // 100 ms granularity → updates at 0.1..1.0 inclusive = 10.
            assert_eq!(sim.stats.forwarding_updates, 10, "sim_shards={shards}");
        }
    }

    #[test]
    fn frozen_network_never_updates_forwarding() {
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        for shards in [1, 4] {
            let cfg = SimConfig::default().frozen().with_sim_shards(shards);
            let mut sim = Simulator::new(c.clone(), cfg, vec![src, dst]);
            sim.run_until(SimTime::from_secs(2));
            assert_eq!(sim.stats.forwarding_updates, 0, "sim_shards={shards}");
        }
    }

    #[test]
    fn packet_conservation() {
        // injected = delivered + drops + still-in-network(0 at quiescence).
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let mut sim = Simulator::new(c.clone(), SimConfig::default(), vec![src, dst]);
        sim.add_app(
            src,
            100,
            Box::new(PingApp::new(dst, SimDuration::from_millis(50), SimTime::from_secs(1))),
        );
        // Run far past the last ping so everything drains.
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(
            sim.stats.injected,
            sim.stats.delivered + sim.stats.total_drops(),
            "packets leaked: {:?}",
            sim.stats
        );
    }

    #[test]
    fn multipath_delivers_and_spreads_flows() {
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let cfg = SimConfig::default().with_multipath(1.3).with_trace_limit(100_000);
        let mut sim = Simulator::new(c.clone(), cfg, vec![src, dst]);
        // Several parallel "flows" = pings on distinct ports.
        let mut apps = Vec::new();
        for port in 0..8u16 {
            apps.push(sim.add_app(
                src,
                100 + port,
                Box::new(PingApp::new(dst, SimDuration::from_millis(50), SimTime::from_secs(1))),
            ));
        }
        sim.run_until(SimTime::from_secs(3));
        // Everything still delivered (loop-freedom + reachability).
        assert_eq!(sim.stats.injected, sim.stats.delivered + sim.stats.total_drops());
        for app in &apps {
            let ping: &PingApp = sim.app_as(*app).unwrap();
            assert!(ping.received() >= ping.sent() - 1, "flow lost pings");
        }
        // At least two distinct first hops across the flows (the mesh
        // offers alternates from the source's ingress satellite onwards).
        use std::collections::HashSet;
        let mut first_hops: HashSet<u32> = HashSet::new();
        for e in sim.trace.entries() {
            if e.kind == crate::trace::TraceKind::Arrive && c.is_satellite(e.node) {
                // the first Arrive after an Inject is the ingress satellite;
                // approximating by collecting all satellite arrivals still
                // demonstrates path diversity across flows.
                first_hops.insert(e.node.0);
            }
        }
        assert!(first_hops.len() >= 2, "no path diversity: {first_hops:?}");
    }

    #[test]
    fn trace_reconstructs_packet_journeys() {
        use crate::trace::TraceKind;
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let cfg = SimConfig::default().with_trace_limit(1000);
        let mut sim = Simulator::new(c.clone(), cfg, vec![src, dst]);
        sim.add_app(
            src,
            100,
            Box::new(PingApp::new(dst, SimDuration::from_millis(100), SimTime::from_millis(300))),
        );
        sim.run_until(SimTime::from_secs(2));
        assert!(sim.trace.enabled());

        // First ping (the 0th packet originated at src): Inject at src,
        // Arrive per hop, Deliver at dst.
        let journey = sim.trace.journey(packet_id(src, 0));
        assert!(journey.len() >= 3, "journey too short: {journey:?}");
        assert_eq!(journey.first().unwrap().kind, TraceKind::Inject);
        assert_eq!(journey.first().unwrap().node, src);
        assert_eq!(journey.last().unwrap().kind, TraceKind::Deliver);
        assert_eq!(journey.last().unwrap().node, dst);
        // Times never decrease along the journey; interior events are
        // satellite arrivals (plus the final arrival at dst).
        for w in journey.windows(2) {
            assert!(w[0].t <= w[1].t);
        }
        for e in &journey[1..journey.len() - 1] {
            assert_eq!(e.kind, TraceKind::Arrive);
            assert!(c.is_satellite(e.node) || e.node == dst);
        }
    }

    #[test]
    fn gsl_loss_drops_packets_deterministically() {
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let run = |loss: f64| {
            let cfg = SimConfig::default().with_gsl_loss(loss);
            let mut sim = Simulator::new(c.clone(), cfg, vec![src, dst]);
            sim.add_app(
                src,
                100,
                Box::new(PingApp::new(dst, SimDuration::from_millis(5), SimTime::from_secs(2))),
            );
            sim.run_until(SimTime::from_secs(4));
            (sim.stats.channel_drops, sim.stats.injected, sim.stats.delivered)
        };
        let (drops0, inj0, del0) = run(0.0);
        assert_eq!(drops0, 0);
        assert_eq!(inj0, del0, "lossless run must deliver everything");

        let (drops, inj, del) = run(0.2);
        assert!(drops > 0, "expected channel drops at 20% loss");
        assert_eq!(inj, del + drops, "conservation with channel loss");
        // Every ping/pong crosses 2 GSLs; expected survival ≈ 0.8^2 per
        // direction. Loose band: 30-80% of probes answered.
        let ratio = del as f64 / inj as f64;
        assert!((0.3..0.9).contains(&ratio), "delivery ratio {ratio}");

        // Determinism of the loss process.
        let again = run(0.2);
        assert_eq!((drops, inj, del), again);
    }

    #[test]
    fn heterogeneous_rates_apply_per_device_kind() {
        use crate::device::DeviceKind;
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let cfg = SimConfig::default()
            .with_isl_rate(DataRate::from_gbps(1))
            .with_gsl_rate(DataRate::from_mbps(50));
        let sim = Simulator::new(c, cfg, vec![src, dst]);
        for node in sim.nodes() {
            for dev in &node.devices {
                match dev.kind {
                    DeviceKind::Isl { .. } => assert_eq!(dev.rate, DataRate::from_gbps(1)),
                    DeviceKind::Gsl => assert_eq!(dev.rate, DataRate::from_mbps(50)),
                }
            }
        }
    }

    #[test]
    fn zero_fault_schedule_is_bit_identical_to_no_faults() {
        use hypatia_fault::{FaultSchedule, FaultSpec};
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let empty =
            Arc::new(FaultSchedule::compile(&FaultSpec::default(), &c, SimDuration::from_secs(2)));
        assert!(empty.is_empty(), "default spec must compile to no events");
        let run = |cfg: SimConfig| {
            let mut sim = Simulator::new(c.clone(), cfg, vec![src, dst]);
            let app = sim.add_app(
                src,
                100,
                Box::new(PingApp::new(dst, SimDuration::from_millis(10), SimTime::from_secs(1))),
            );
            sim.run_until(SimTime::from_secs(2));
            let ping: &PingApp = sim.app_as(app).unwrap();
            (ping.rtts().to_vec(), sim.stats.clone())
        };
        let plain = run(SimConfig::default());
        let faulted = run(SimConfig::default().with_faults(empty));
        assert_eq!(plain, faulted, "empty fault schedule changed the simulation");
    }

    #[test]
    fn weather_outage_drops_then_recovers() {
        use hypatia_fault::{FaultSchedule, FaultSpec, OutageWindow};
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        // Attenuate the source ground station's GSLs mid-run, off a
        // forwarding-step boundary: packets pushed by the stale state
        // during [0.55, 0.6) die as fault drops; once forwarding has
        // recomputed on the masked graph the source is an island and new
        // pings die as routing drops; after 1.2 s service recovers.
        let spec = FaultSpec {
            gsl_weather: vec![OutageWindow { target: 0, from_s: 0.55, until_s: 1.2 }],
            ..FaultSpec::default()
        };
        let schedule = Arc::new(FaultSchedule::compile(&spec, &c, SimDuration::from_secs(3)));
        assert_eq!(schedule.events().len(), 2);
        let cfg = SimConfig::default().with_faults(schedule).with_trace_limit(100_000);
        let mut sim = Simulator::new(c.clone(), cfg, vec![src, dst]);
        let app = sim.add_app(
            src,
            100,
            Box::new(PingApp::new(dst, SimDuration::from_millis(5), SimTime::from_secs(2))),
        );
        sim.run_until(SimTime::from_secs(3));
        assert!(sim.stats.fault_drops > 0, "stale-state window produced no fault drops");
        assert!(sim.stats.routing_drops > 0, "masked forwarding produced no routing drops");
        assert_eq!(
            sim.stats.injected,
            sim.stats.delivered + sim.stats.total_drops(),
            "conservation with faults: {:?}",
            sim.stats
        );
        assert!(sim.trace.entries().iter().any(|e| e.kind == TraceKind::FaultDrop));
        // Pings before the outage and after recovery are answered: far
        // more than the outage window could swallow.
        let ping: &PingApp = sim.app_as(app).unwrap();
        assert!(ping.received() >= 100, "service never recovered: {}", ping.received());
        assert!(ping.received() < ping.sent(), "the outage cost nothing?");
    }

    #[test]
    fn satellite_outage_is_bit_identical_across_prefetch_and_shards() {
        use hypatia_fault::{FaultSchedule, FaultSpec, OutageWindow};
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        // Fail the middle satellite of the t = 0 path mid-run.
        let probe = Simulator::new(c.clone(), SimConfig::default(), vec![src, dst]);
        let path = probe.forwarding().path(src, dst).expect("nominal path exists");
        let victim = path[path.len() / 2];
        assert!(c.is_satellite(victim));
        let spec = FaultSpec {
            sat_outages: vec![OutageWindow { target: victim.0, from_s: 0.42, until_s: 1.33 }],
            ..FaultSpec::default()
        };
        let schedule = Arc::new(FaultSchedule::compile(&spec, &c, SimDuration::from_secs(3)));
        let run = |cfg: SimConfig| {
            let mut sim = Simulator::new(c.clone(), cfg, vec![src, dst]);
            let app = sim.add_app(
                src,
                100,
                Box::new(PingApp::new(dst, SimDuration::from_millis(5), SimTime::from_secs(2))),
            );
            sim.run_until(SimTime::from_secs(3));
            let ping: &PingApp = sim.app_as(app).unwrap();
            (ping.rtts().to_vec(), sim.stats.clone())
        };
        let base = SimConfig::default().with_faults(schedule);
        let inline = run(base.clone());
        // Packets the stale state kept sending into the dead satellite.
        assert!(inline.1.fault_drops > 0, "no packets caught by the outage: {:?}", inline.1);
        assert_eq!(
            inline.1.injected,
            inline.1.delivered + inline.1.total_drops(),
            "conservation: {:?}",
            inline.1
        );
        for threads in [1, 4] {
            let prefetched = run(base.clone().with_fstate_prefetch(threads, 4));
            assert_eq!(inline, prefetched, "threads={threads} diverged under faults");
        }
        // And sharded runs agree, with prefetch.
        for shards in [2, 4] {
            let sharded = run(base.clone().with_sim_shards(shards).with_fstate_prefetch(2, 4));
            assert_eq!(inline, sharded, "sim_shards={shards} diverged under faults");
        }
    }

    /// Full recompute every snapshot — the router's test oracle — and
    /// incremental repair must produce bit-identical simulations, with and
    /// without faults, inline and prefetched.
    #[test]
    fn routing_modes_are_bit_identical() {
        use hypatia_fault::{FaultSchedule, FaultSpec, OutageWindow};
        use hypatia_routing::incremental::RoutingConfig;
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let spec = FaultSpec {
            sat_outages: vec![OutageWindow { target: 12, from_s: 0.5, until_s: 1.5 }],
            ..FaultSpec::default()
        };
        let schedule = Arc::new(FaultSchedule::compile(&spec, &c, SimDuration::from_secs(3)));
        let run = |cfg: SimConfig| {
            let mut sim = Simulator::new(c.clone(), cfg, vec![src, dst]);
            let app = sim.add_app(
                src,
                100,
                Box::new(PingApp::new(dst, SimDuration::from_millis(10), SimTime::from_secs(1))),
            );
            sim.run_until(SimTime::from_secs(2));
            let ping: &PingApp = sim.app_as(app).unwrap();
            (ping.rtts().to_vec(), sim.stats.clone())
        };
        for base in [SimConfig::default(), SimConfig::default().with_faults(schedule)] {
            let full = run(SimConfig { routing: RoutingConfig::full(), ..base.clone() });
            let incremental = run(base.clone());
            assert_eq!(full, incremental, "inline routing modes diverged");
            let prefetched = run(base.clone().with_fstate_prefetch(2, 4));
            assert_eq!(full, prefetched, "prefetched incremental diverged");
        }
    }

    /// Fluid flows deliver `rate × time` bytes analytically, cost no
    /// packet events, and every observable is bit-identical across shard
    /// counts, because the solver re-runs only at canonical coordinator
    /// instants.
    #[test]
    fn fluid_flows_deliver_analytically_and_bit_identically() {
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let run = |cfg: SimConfig| {
            let mut sim = Simulator::new(c.clone(), cfg, vec![src, dst]);
            let app = sim.add_app(
                src,
                100,
                Box::new(PingApp::new(dst, SimDuration::from_millis(10), SimTime::from_secs(1))),
            );
            for i in 0..20 {
                sim.add_fluid_flow(
                    i,
                    src,
                    dst,
                    DataRate::from_kbps(64),
                    1440,
                    SimTime::from_secs(1),
                );
            }
            sim.run_until(SimTime::from_secs(2));
            let ping: &PingApp = sim.app_as(app).unwrap();
            (ping.rtts().to_vec(), sim.stats.clone(), sim.trace.entries().to_vec())
        };
        let base = SimConfig::default().with_sim_mode(SimMode::Hybrid).with_trace_limit(100_000);
        let serial = run(base.clone());
        assert_eq!(serial.1.fluid_flows, 20);
        assert!(serial.1.fluid_resolves > 0, "solver never ran");
        // 20 flows × 64 kbps × 1 s = 160 kB wire, × 1440/1500 payload
        // fraction = 153.6 kB (small float slack from chunked integration).
        let bytes = serial.1.fluid_bytes_delivered;
        assert!((153_590..=153_610).contains(&bytes), "fluid bytes {bytes}");
        assert!(serial.1.delivered > 0, "packet-level pings still flow in hybrid mode");
        assert!(serial.2.iter().any(|e| e.kind == TraceKind::FluidResolve), "re-solves are traced");
        for shards in [2, 4] {
            let got = run(base.clone().with_sim_shards(shards));
            assert_eq!(serial, got, "shards={shards} diverged");
        }
    }

    /// Hybrid coupling: saturating fluid load pushes packet devices down
    /// to the 1% residual floor, and expiry restores full capacity at the
    /// next re-solve. Pure fluid mode never touches device rates.
    #[test]
    fn hybrid_coupling_reduces_packet_residual_rates() {
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let cfg = SimConfig::default().with_sim_mode(SimMode::Hybrid);
        let mut sim = Simulator::new(c.clone(), cfg, vec![src, dst]);
        for i in 0..4 {
            sim.add_fluid_flow(i, src, dst, DataRate::from_mbps(10), 1440, SimTime::from_secs(1));
        }
        sim.run_until(SimTime::from_millis(50));
        let gsl = sim.node(src).gsl_device().expect("src has a GSL device");
        let rate = sim.node(src).devices[gsl].rate;
        assert_eq!(rate, DataRate::from_kbps(100), "saturated uplink sits at the 1% floor");
        // Past the stop boundary the load vanishes and capacity returns.
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.node(src).devices[gsl].rate, DataRate::from_mbps(10));

        let cfg = SimConfig::default().with_sim_mode(SimMode::Fluid);
        let mut sim = Simulator::new(c.clone(), cfg, vec![src, dst]);
        for i in 0..4 {
            sim.add_fluid_flow(i, src, dst, DataRate::from_mbps(10), 1440, SimTime::from_secs(1));
        }
        sim.run_until(SimTime::from_millis(50));
        let gsl = sim.node(src).gsl_device().expect("src has a GSL device");
        assert_eq!(
            sim.node(src).devices[gsl].rate,
            DataRate::from_mbps(10),
            "pure fluid mode must not throttle packet devices"
        );
    }

    /// Residual pushes address devices by `(node, index)`: the fluid link
    /// table must number every node's devices exactly as the shards
    /// attach them, at any shard count.
    #[test]
    fn fluid_link_ids_address_the_shards_devices() {
        use crate::device::DeviceKind;
        use crate::fluid::{LinkTable, GSL_PEER};
        let c = constellation();
        let table = LinkTable::build(&c);
        for shards in [1, 3] {
            let cfg = SimConfig::default().with_sim_shards(shards);
            let sim = Simulator::new(c.clone(), cfg, vec![c.gs_node(0)]);
            let devices: usize = sim.nodes().map(|n| n.devices.len()).sum();
            assert_eq!(table.len(), devices);
            for link in 0..table.len() as u32 {
                let (node, device) = table.device(link);
                let peer = match sim.node(NodeId(node)).devices[device as usize].kind {
                    DeviceKind::Isl { peer } => peer.0,
                    DeviceKind::Gsl => GSL_PEER,
                };
                assert_eq!(table.key(link), (node, peer), "{shards} shards");
            }
        }
    }

    #[test]
    #[should_panic(expected = "sim_mode fluid or hybrid")]
    fn packet_mode_rejects_fluid_flows() {
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let mut sim = Simulator::new(c.clone(), SimConfig::default(), vec![src, dst]);
        sim.add_fluid_flow(0, src, dst, DataRate::from_kbps(64), 1440, SimTime::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "before the run starts")]
    fn late_fluid_install_rejected() {
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let cfg = SimConfig::default().with_sim_mode(SimMode::Fluid);
        let mut sim = Simulator::new(c.clone(), cfg, vec![src, dst]);
        sim.run_until(SimTime::from_millis(1));
        sim.add_fluid_flow(0, src, dst, DataRate::from_kbps(64), 1440, SimTime::from_secs(1));
    }

    #[test]
    fn slow_links_still_conserve_packets() {
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let cfg =
            SimConfig::default().with_link_rate(DataRate::from_kbps(64)).with_queue_packets(2);
        let mut sim = Simulator::new(c.clone(), cfg, vec![src, dst]);
        sim.add_app(
            src,
            100,
            Box::new(PingApp::new(dst, SimDuration::from_millis(1), SimTime::from_millis(200))),
        );
        sim.run_until(SimTime::from_secs(30));
        assert!(sim.stats.queue_drops > 0, "expected queue pressure");
        assert_eq!(sim.stats.injected, sim.stats.delivered + sim.stats.total_drops());
    }

    /// Shared fixture for the resilience tests: a faulted, lossy ping
    /// workload (plus a fluid flow outside packet mode) that exercises the
    /// fault cursor, forwarding swaps, loss RNGs, and the solver.
    fn resilience_fixture(
        c: &Arc<Constellation>,
    ) -> (SimConfig, impl Fn(&SimConfig) -> (Simulator, u32) + '_) {
        use hypatia_fault::{FaultSchedule, FaultSpec, OutageWindow};
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let spec = FaultSpec {
            sat_outages: vec![OutageWindow { target: 12, from_s: 0.5, until_s: 1.5 }],
            ..FaultSpec::default()
        };
        let schedule = Arc::new(FaultSchedule::compile(&spec, c, SimDuration::from_secs(2)));
        let base =
            SimConfig::default().with_faults(schedule).with_gsl_loss(0.1).with_trace_limit(100_000);
        let build = move |cfg: &SimConfig| {
            let mut sim = Simulator::new(c.clone(), cfg.clone(), vec![src, dst]);
            let app = sim.add_app(
                src,
                100,
                Box::new(PingApp::new(dst, SimDuration::from_millis(10), SimTime::from_secs(2))),
            );
            if cfg.sim_mode != SimMode::Packet {
                sim.add_fluid_flow(
                    0,
                    src,
                    dst,
                    DataRate::from_mbps(5),
                    1440,
                    SimTime::from_secs(2),
                );
            }
            (sim, app)
        };
        (base, build)
    }

    fn observe(sim: &Simulator, app: u32) -> (Vec<(SimTime, SimDuration)>, SimStats, usize) {
        let ping: &PingApp = sim.app_as(app).unwrap();
        (ping.rtts().to_vec(), sim.stats.clone(), sim.trace.entries().len())
    }

    /// The checkpoint/restore contract: restore into a freshly rebuilt
    /// simulator and the continuation is bit-identical to never having
    /// stopped — at every shard count × mode, through fault events and
    /// forwarding swaps on both sides of the snapshot.
    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let c = constellation();
        let (base, build) = resilience_fixture(&c);
        for mode in [SimMode::Packet, SimMode::Hybrid] {
            for shards in [1, 4] {
                let cfg = base.clone().with_sim_mode(mode).with_sim_shards(shards);
                let (mut whole, app_w) = build(&cfg);
                whole.run_until(SimTime::from_secs(2));
                let want = observe(&whole, app_w);
                assert!(want.1.delivered > 0, "workload delivered nothing");

                let (mut first, _) = build(&cfg);
                first.run_until(SimTime::from_millis(900));
                let image = first.checkpoint().expect("checkpoint");
                drop(first);

                let (mut resumed, app_r) = build(&cfg);
                resumed.restore(image).expect("restore");
                assert_eq!(resumed.now(), SimTime::from_millis(900));
                resumed.run_until(SimTime::from_secs(2));
                let got = observe(&resumed, app_r);
                assert_eq!(want, got, "resume diverged: mode={} shards={shards}", mode.name());
            }
        }
    }

    /// A restore must also re-seat the background forwarding pipeline at
    /// the snapshot's step cursor, not step 1.
    #[test]
    fn checkpoint_resume_respawns_the_prefetcher() {
        let c = constellation();
        let (base, build) = resilience_fixture(&c);
        let cfg = base.with_fstate_prefetch(2, 4);
        let (mut whole, app_w) = build(&cfg);
        whole.run_until(SimTime::from_secs(2));
        let want = observe(&whole, app_w);

        let (mut first, _) = build(&cfg);
        first.run_until(SimTime::from_millis(900));
        let image = first.checkpoint().expect("checkpoint");

        let (mut resumed, app_r) = build(&cfg);
        resumed.restore(image).expect("restore");
        resumed.run_until(SimTime::from_secs(2));
        assert_eq!(want, observe(&resumed, app_r));
    }

    /// Round trip through a file, including the atomic write path.
    #[test]
    fn checkpoint_file_round_trip() {
        let c = constellation();
        let (base, build) = resilience_fixture(&c);
        let dir = std::env::temp_dir().join("hypatia_snap_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t900.snap");
        let (mut first, _) = build(&base);
        first.run_until(SimTime::from_millis(900));
        first.checkpoint_to(&path).expect("checkpoint_to");
        let image = first.checkpoint().expect("in-memory image");

        let (mut resumed, _) = build(&base);
        resumed.restore_from(&path).expect("restore_from");
        // The file and in-memory continuations start from identical state:
        // re-checkpointing both immediately yields the same bytes.
        let (mut mem, _) = build(&base);
        mem.restore(image).expect("restore");
        assert_eq!(resumed.checkpoint().unwrap(), mem.checkpoint().unwrap());
        std::fs::remove_file(&path).ok();
    }

    /// Snapshots refuse to restore into a differently-configured
    /// simulator: the fingerprint check reports a typed mismatch instead
    /// of silently diverging.
    #[test]
    fn restore_rejects_mismatched_config() {
        let c = constellation();
        let (base, build) = resilience_fixture(&c);
        let (mut first, _) = build(&base);
        first.run_until(SimTime::from_millis(500));
        let image = first.checkpoint().unwrap();
        let (mut other, _) = build(&base.clone().with_sim_shards(4));
        match other.restore(image) {
            Err(CheckpointError::ConfigMismatch { .. }) => {}
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }
    }

    /// No queue image holds a coordinator event any more: a current-version
    /// image whose queue carries one of the retired event tags is
    /// malformed — a typed error, never a panic.
    #[test]
    fn restore_rejects_retired_coordinator_event_tags() {
        let c = constellation();
        let (base, build) = resilience_fixture(&c);
        let (mut first, _) = build(&base);
        first.run_until(SimTime::from_millis(500));
        let image = first.checkpoint().unwrap();
        // First queue entry: section tag, count, then time | key | event tag.
        let evtq = image.windows(4).position(|w| w == b"EVTQ").expect("queue section");
        let pending = u64::from_le_bytes(image[evtq + 4..evtq + 12].try_into().unwrap());
        assert!(pending > 0, "the ping timer is pending");
        let tag_at = evtq + 4 + 8 + 8 + 8;
        assert!(matches!(image[tag_at], 0 | 1 | 3), "event tag {}", image[tag_at]);
        for retired in [2, 4, 5] {
            let mut bytes = image.clone();
            bytes[tag_at] = retired;
            crate::checkpoint::reseal(&mut bytes);
            let (mut other, _) = build(&base);
            match other.restore(bytes) {
                Err(CheckpointError::Malformed(what)) => {
                    assert!(what.contains(&format!("bad event tag {retired}")), "{what}");
                }
                other => panic!("expected Malformed, got {other:?}"),
            }
        }
    }

    /// Offset and event tag of each entry in an image's first queue
    /// section: `time | key | tag | fields`, where an arrival's packet is
    /// 24 header bytes, a tagged payload and 18 trailing bytes.
    fn first_queue_entries(image: &[u8]) -> Vec<(usize, u8)> {
        let u64_at = |at: usize| u64::from_le_bytes(image[at..at + 8].try_into().unwrap());
        let evtq = image.windows(4).position(|w| w == b"EVTQ").expect("queue section");
        let mut at = evtq + 12;
        (0..u64_at(evtq + 4))
            .map(|_| {
                let (entry, tag) = (at, image[at + 16]);
                at += 17
                    + match tag {
                        0 => 8,
                        3 => 12,
                        _ => 4 + 24 + 1 + [8, 16, 16, 37][image[at + 21 + 24] as usize] + 18,
                    };
                (entry, tag)
            })
            .collect()
    }

    /// A checksummed image whose queue names a node, device or app the
    /// rebuilt shard cannot dispatch to — or an instant before its clock —
    /// is malformed: a typed error at restore, not a panic at the pop.
    #[test]
    fn restore_rejects_queue_entries_it_cannot_dispatch() {
        let (mut sim, ..) = every_exit_fixture(2);
        sim.run_until(SimTime::from_millis(200));
        let image = sim.checkpoint().expect("checkpoint");
        let entries = first_queue_entries(&image);
        let first = |tag: u8| entries.iter().find(|e| e.1 == tag).expect("entry of tag").0;
        let (tx, timer) = (first(0), first(3));
        // Satellite 99 belongs to shard 1; the first queue is shard 0's.
        let cases: [(usize, u64, usize, &str); 5] = [
            (entries[0].0, 0, 8, "before the shard clock"),
            (tx + 17, 10_000, 4, "node 10000, not owned by shard 0"),
            (tx + 17, 99, 4, "node 99, not owned by shard 0"),
            (tx + 21, 99, 4, "device 99 of node"),
            (timer + 17, 1_000, 4, "app slot 1000, empty on shard 0"),
        ];
        for (at, value, width, want) in cases {
            let mut bytes = image.clone();
            bytes[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
            crate::checkpoint::reseal(&mut bytes);
            let (mut other, ..) = every_exit_fixture(2);
            match other.restore(bytes) {
                Err(CheckpointError::Malformed(what)) => assert!(what.contains(want), "{what}"),
                other => panic!("{want}: expected Malformed, got {other:?}"),
            }
        }
    }

    /// Checkpointing is refused while installed fluid flows have not been
    /// started yet — the boundary schedule only exists after `run_until`.
    #[test]
    fn checkpoint_rejects_unflushed_fluid_installs() {
        let c = constellation();
        let (base, build) = resilience_fixture(&c);
        let (sim, _) = build(&base.with_sim_mode(SimMode::Hybrid));
        match sim.checkpoint() {
            Err(CheckpointError::Unsupported(_)) => {}
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    /// Records the hop count of every packet delivered to it.
    #[derive(Default)]
    struct HopProbe {
        hops: Vec<u16>,
    }

    impl Application for HopProbe {
        fn on_start(&mut self, _ctx: &mut crate::app::AppCtx) {}
        fn on_packet(&mut self, _ctx: &mut crate::app::AppCtx, packet: &crate::Packet) {
            self.hops.push(packet.hops);
        }
        fn on_timer(&mut self, _ctx: &mut crate::app::AppCtx, _timer_id: u64) {}
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
        crate::snap_app_state!();
    }

    crate::snap_fields!(HopProbe { hops });

    /// A frozen network carrying a UDP flow at twice the line rate over a
    /// lossy GSL into a [`HopProbe`], with the satellite in the middle of
    /// its path down from 333 ms to 750 ms, and a ping towards a node that
    /// is not a routing destination. Every way a packet's life can end
    /// occurs: delivery, queue drop, routing drop, fault drop (at the
    /// forwarding decision, at `tx_complete`, at the arrival), channel drop
    /// — and with more than one shard, the cross-shard hand-off. Returns
    /// the simulator, the probe's app index, the failed satellite and the
    /// flow's hop count.
    fn every_exit_fixture(shards: usize) -> (Simulator, u32, NodeId, u16) {
        use crate::apps::udp::UdpSource;
        use hypatia_fault::{FaultSchedule, FaultSpec, OutageWindow};
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let path = Simulator::new(c.clone(), SimConfig::default(), vec![src, dst])
            .forwarding()
            .path(src, dst)
            .expect("nominal path exists");
        let victim = path[path.len() / 2];
        assert!(c.is_satellite(victim));
        let spec = FaultSpec {
            sat_outages: vec![OutageWindow { target: victim.0, from_s: 0.333, until_s: 0.75 }],
            ..FaultSpec::default()
        };
        let schedule = Arc::new(FaultSchedule::compile(&spec, &c, SimDuration::from_secs(2)));
        let cfg = SimConfig::default()
            .frozen()
            .with_faults(schedule)
            .with_gsl_loss(0.05)
            .with_trace_limit(400_000)
            .with_sim_shards(shards);
        let mut sim = Simulator::new(c.clone(), cfg, vec![src, dst]);
        let probe = sim.add_app(dst, 50, Box::<HopProbe>::default());
        let stop = SimTime::from_secs(1);
        sim.add_app(src, 50, Box::new(UdpSource::new(dst, 1, DataRate::from_mbps(20), 1140, stop)));
        let lost = c.sat_node(0);
        sim.add_app(src, 100, Box::new(PingApp::new(lost, SimDuration::from_millis(50), stop)));
        (sim, probe, victim, path.len() as u16 - 1)
    }

    /// The tentpole's invariant: a packet is parked once and freed once.
    /// Mid-run the audit's slab conservation holds with packets queued, in
    /// service and on the wire (and the wire count is the queue's arrival
    /// entries, not the slab's occupancy); after every exit path has been
    /// taken and the network has drained, no shard's slab holds a slot.
    #[test]
    fn every_exit_frees_its_slot_and_a_drained_run_leaks_none() {
        for shards in [1, 4] {
            let (mut sim, probe, victim, hops) = every_exit_fixture(shards);
            for cut_ms in [200, 334, 900] {
                sim.run_until(SimTime::from_millis(cut_ms));
                assert_eq!(sim.audit(), [], "shards={shards} t={cut_ms}ms");
                let on_wire: u64 = sim.shards.iter().map(Shard::in_flight_arrivals).sum();
                let at_devices: u64 =
                    sim.nodes().flat_map(|n| &n.devices).map(|d| d.occupancy()).sum();
                let held: u64 = sim.shards.iter().map(|s| s.audit(&mut Vec::new())).sum();
                assert!(on_wire > 0 && at_devices > 0, "t={cut_ms}ms: idle network");
                assert_eq!(on_wire + at_devices, held, "shards={shards} t={cut_ms}ms");
            }
            sim.run_until(SimTime::from_secs(5));
            assert_eq!(sim.audit(), [], "shards={shards}, drained");
            for shard in &sim.shards {
                assert_eq!(shard.audit(&mut Vec::new()), 0, "shard {} leaked a slot", shard.id);
            }
            let s = &sim.stats;
            assert_eq!(s.injected, s.delivered + s.total_drops());
            for (exit, n) in [
                ("deliver", s.delivered),
                ("queue drop", s.queue_drops),
                ("routing drop", s.routing_drops),
                ("fault drop", s.fault_drops),
                ("channel drop", s.channel_drops),
            ] {
                assert!(n > 0, "shards={shards}: no {exit}");
            }
            if shards > 1 {
                assert!(sim.engine_report().barriers > 0, "nothing crossed a shard boundary");
            }
            // Fault drops by site: at the failed satellite itself (the
            // arrival), and upstream of it either at once (the forwarding
            // decision) or some time after the packet got there (it was
            // queued or in service: `tx_complete`).
            assert_eq!(sim.trace.truncated(), 0);
            let drops = sim.trace.entries().iter().filter(|e| e.kind == TraceKind::FaultDrop);
            let (mut at_arrival, mut at_forward, mut at_tx_complete) = (0, 0, 0);
            for drop in drops {
                let journey = sim.trace.journey(drop.packet_id);
                let got_there = journey.iter().rev().find(|e| e.kind == TraceKind::Arrive);
                match got_there {
                    _ if drop.node == victim => at_arrival += 1,
                    Some(arrive) if arrive.node == drop.node && arrive.t < drop.t => {
                        at_tx_complete += 1
                    }
                    _ => at_forward += 1,
                }
            }
            assert!(
                at_arrival > 0 && at_forward > 0 && at_tx_complete > 0,
                "shards={shards}: {at_arrival} / {at_forward} / {at_tx_complete}"
            );
            // `hops` is bumped in place, once per transmission.
            let probe: &HopProbe = sim.app_as(probe).unwrap();
            assert_eq!(probe.hops.len() as u64 + s.pings_echoed, s.delivered);
            assert!(probe.hops.iter().all(|&h| h == hops), "want {hops} hops: {:?}", probe.hops);
            let report = sim.engine_report();
            assert!(report.queue.slab_peak > 0 && report.queue.slab_peak <= s.injected);
        }
    }

    /// A mid-run image — queues non-empty, a packet in service, packets on
    /// the wire — is byte for byte what the by-value layout wrote: the
    /// hashes were taken from this fixture at the last commit whose device
    /// queues and arrival events held packets by value (`9153164`). Slot
    /// numbers are not in an image, so restore → save reproduces it too.
    #[test]
    fn mid_run_image_matches_the_by_value_layout_and_round_trips() {
        use hypatia_util::hash::Fnv1a64;
        for (shards, by_value) in [(1, 0x2fcd_22ca_da82_7830u64), (2, 0x0888_27bd_efd0_6dc3)] {
            let (mut sim, ..) = every_exit_fixture(shards);
            sim.run_until(SimTime::from_millis(200));
            assert!(sim.nodes().flat_map(|n| &n.devices).any(|d| d.queue_len() > 0));
            let image = sim.checkpoint().expect("checkpoint");
            let mut h = Fnv1a64::new();
            h.write(&image);
            assert_eq!(h.finish(), by_value, "shards={shards}: {} bytes", image.len());
            let (mut resumed, ..) = every_exit_fixture(shards);
            resumed.restore(image.clone()).expect("restore");
            assert_eq!(resumed.audit(), [], "shards={shards}: restored slab out of balance");
            assert_eq!(resumed.checkpoint().expect("re-checkpoint"), image, "shards={shards}");
        }
    }

    /// Simulators for the image pins below: case 0 an on/off source, case 1
    /// bulk UDP tables, case 2 a hybrid run whose fluid bundles share the
    /// path with pings under faults and GSL loss.
    fn image_fixture(case: usize, shards: usize) -> Simulator {
        use crate::apps::{onoff::OnOffSource, udp::UdpSink};
        use crate::flow::{BulkUdpSink, BulkUdpSource, FlowId};
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let stop = SimTime::from_secs(2);
        match case {
            0 | 1 => {
                let cfg = SimConfig::default().with_gsl_loss(0.02).with_sim_shards(shards);
                let mut sim = Simulator::new(c.clone(), cfg, vec![src, dst]);
                if case == 0 {
                    let (on, off) = (SimDuration::from_millis(40), SimDuration::from_millis(60));
                    let rate = DataRate::from_mbps(20);
                    sim.add_app(dst, 90, Box::new(UdpSink::new()));
                    let source = OnOffSource::new(dst, 7, rate, 1200, on, off, stop, 11);
                    sim.add_app(src, 90, Box::new(source));
                } else {
                    let mut source = BulkUdpSource::new(DataRate::from_mbps(4), 1000, stop);
                    for f in 0..3u16 {
                        source.push(FlowId(f as u32), dst, 200 + f, 300 + f);
                    }
                    sim.add_app_multi(
                        dst,
                        &[300, 301, 302],
                        Box::new(BulkUdpSink::new(vec![0, 1, 2])),
                    );
                    let ports = source.src_ports().to_vec();
                    sim.add_app_multi(src, &ports, Box::new(source));
                }
                sim
            }
            _ => {
                let (base, build) = resilience_fixture(&c);
                let (mut sim, _) =
                    build(&base.with_sim_mode(SimMode::Hybrid).with_sim_shards(shards));
                sim.add_fluid_flow(1, dst, src, DataRate::from_mbps(8), 1440, stop);
                sim
            }
        }
    }

    /// Mid-run images of the on/off source, the bulk UDP tables and a
    /// hybrid run are byte for byte what the hand-written per-field codec
    /// wrote (hashes taken from it), and restore → save reproduces them.
    #[test]
    fn mid_run_image_of_onoff_bulk_udp_and_hybrid_is_pinned() {
        use hypatia_util::hash::Fnv1a64;
        let pinned = [
            (0, 1, 0xaccf_5fff_2b5c_b13cu64),
            (1, 1, 0x8d23_9083_b0c2_ea0c),
            (2, 1, 0x2bae_843c_6df7_21f7),
            (2, 2, 0x73a7_d5bb_4677_348d),
        ];
        for (case, shards, want) in pinned {
            let mut sim = image_fixture(case, shards);
            sim.run_until(SimTime::from_millis(900));
            let image = sim.checkpoint().expect("checkpoint");
            let mut h = Fnv1a64::new();
            h.write(&image);
            assert_eq!(h.finish(), want, "case {case} shards={shards}: {} bytes", image.len());
            let mut resumed = image_fixture(case, shards);
            resumed.restore(image.clone()).expect("restore");
            assert_eq!(resumed.checkpoint().expect("re-checkpoint"), image, "case {case}");
        }
    }

    /// Audit mode re-derives conservation from first principles: a healthy
    /// run (live or resumed, any engine/mode) reports zero violations at
    /// every barrier, including mid-flight ones with packets in queues.
    #[test]
    fn audit_is_clean_on_live_and_resumed_runs() {
        let c = constellation();
        let (base, build) = resilience_fixture(&c);
        for mode in [SimMode::Packet, SimMode::Hybrid] {
            for shards in [1, 4] {
                let cfg = base.clone().with_sim_mode(mode).with_sim_shards(shards);
                let (mut sim, _) = build(&cfg);
                for ms in [300, 900, 2000] {
                    sim.run_until(SimTime::from_millis(ms));
                    let violations = sim.audit();
                    assert!(
                        violations.is_empty(),
                        "mode={} shards={shards} t={ms}ms: {violations:?}",
                        mode.name()
                    );
                }
                // The audit pass itself is non-destructive: the run
                // continues bit-identically after it.
                let audited = observe(&sim, 0);
                let (mut clean, _) = build(&cfg);
                clean.run_until(SimTime::from_secs(2));
                assert_eq!(audited, observe(&clean, 0));
            }
        }
    }
}
