//! The simulator: one event loop over every node, and the state global to
//! a run — forwarding recomputation, the fault-schedule cursor, the fluid
//! solver.
//!
//! Global events (forwarding swaps, fault updates, fluid finish
//! boundaries) never enter the event queue: they live in cursors, and
//! [`Simulator::run_until`]'s window loop applies those due at a window
//! start, then pops node events up to the next global instant or the
//! horizon, on the calling thread. The node event handlers are a second
//! `impl Simulator` block, in the `handlers` child module.
//!
//! # Determinism
//!
//! Every node event carries a canonical key of the form
//! `((origin + 1) << 32) | per-origin counter`, where `origin` is the node
//! whose handler scheduled it. Global events are applied before the node
//! events of their instant and tag their trace records with keys below
//! `1 << 32`. The queue orders by `(time, key)`, so the per-origin
//! counters, packet ids and loss-RNG draws, and with them every observable
//! of a run — stats, traces, application state, RTT samples — are a pure
//! function of its spec.

mod handlers;

use crate::app::{AppAction, Application};
use crate::audit::AuditViolation;
use crate::checkpoint::{CheckpointError, Snap, SnapReader, SnapWriter};
use crate::config::SimConfig;
use crate::device::Device;
use crate::event::{pack, unpack, Event, EventQueue, PacketSlab, QueueStats};
use crate::fluid::{FluidNet, FluidStats, SimMode};
use crate::links::LinkTable;
use crate::node::Node;
use crate::stats::SimStats;
use crate::trace::{Trace, TraceKind};
use hypatia_constellation::{Constellation, Ephemeris, EphemerisStats, NodeId};
use hypatia_fault::FaultState;
use hypatia_routing::forwarding::{ForwardingState, MultipathState};
use hypatia_routing::incremental::{RepairStats, RouterStats};
use hypatia_routing::parallel::{Lookahead, SnapshotWorker};
use hypatia_util::hash::Fnv1a64;
use hypatia_util::rng::DetRng;
use hypatia_util::{DataRate, SimDuration, SimTime};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// How the engine executed a run — recorded into experiment manifests so
/// runs are auditable (and comparable) after the fact. Telemetry, not
/// state: where `run_until` cuts fall moves the window counts, so none of
/// it is part of a checkpoint — after a resume it counts from the restore
/// point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineReport {
    /// Windows executed. A window ends only at the next global instant or
    /// the `run_until` horizon.
    pub epochs: u64,
    /// Always 0: one event loop holds every node, so no packet crosses a
    /// barrier. Kept for readers of the retired multi-shard report until
    /// they stop (ROADMAP item 1c).
    pub barriers: u64,
    /// Always `None`: one event loop has no cross-shard geometry to bound
    /// a window. Kept for readers of the retired multi-shard report until
    /// they stop (ROADMAP item 1c).
    pub min_lookahead_ns: Option<u64>,
    /// Event-queue telemetry: inserts per tier and cascades, peak pending.
    pub queue: QueueStats,
    /// Fluid-solver telemetry (all zero in packet mode).
    pub fluid: FluidStats,
    /// How the ephemeris cache served propagation delays.
    pub ephemeris: EphemerisStats,
    /// Where the event loop's wall time went, phase by phase.
    pub phases: PhaseTimes,
    /// How forwarding states were produced — full vs. repaired snapshots
    /// and why, and what the repairs did — for every step the simulator
    /// applied. One worker computes every step in order, so these are the
    /// same whichever thread ran it; `run_until` cuts and a restore
    /// change which snapshot the router last saw, hence the split.
    pub routing: (RouterStats, RepairStats),
}

/// Wall-clock nanoseconds the simulator spent being built, and the event
/// loop in each phase of its windows, from `Instant` pairs taken per
/// window, never per event. Differs from run to run, like every
/// wall-clock figure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Building the simulator (`Simulator::new`): the initial forwarding
    /// state and the nodes.
    pub build_ns: u64,
    /// Global events: forwarding swaps, fault updates, fluid boundaries.
    pub globals_ns: u64,
    /// The windows: popping and handling node events.
    pub window_ns: u64,
    /// Waiting for the lookahead thread to finish the forwarding step due
    /// (part of `globals_ns`): the routing the overlap did not hide.
    pub lookahead_wait_ns: u64,
}

/// One forwarding step as [`Simulator::forwarding_step`] hands it over:
/// the states and what the worker's router counted computing them.
type Step = ((ForwardingState, Option<MultipathState>), (RouterStats, RepairStats));

/// What the event loop asks its lookahead thread for: a step, and the
/// retired state whose buffers it refills.
type Request = (u64, ForwardingState);

/// Canonical key of a forwarding-state swap: sorts before every other
/// same-instant event.
const FORWARDING_KEY: u64 = 0;

/// Canonical key of fault-schedule entry `index`: after the forwarding
/// swap, before any node event, in schedule order.
fn fault_key(index: u64) -> u64 {
    1 + index
}

/// Canonical key of fluid-boundary `index`: after every same-instant
/// forwarding/fault key, before any node event (node keys start at
/// `1 << 32`). Boundary schedules stay far below `2^31` entries.
fn fluid_key(index: u64) -> u64 {
    debug_assert!(index < 1 << 31, "fluid boundary index overflows its key range");
    (1 << 31) + index
}

/// An installed application; `app` is `None` only while its own callback
/// runs.
struct AppEntry {
    app: Option<Box<dyn Application>>,
    node: NodeId,
    port: u16,
}

/// The packet-level simulator.
///
/// Owns every node and device, the applications, the event queue and the
/// packets alive, and the state global to the run (forwarding, fault and
/// fluid cursors); recomputes forwarding at the configured granularity
/// while the event loop runs.
pub struct Simulator {
    constellation: Arc<Constellation>,
    config: SimConfig,
    now: SimTime,
    dests: Vec<NodeId>,
    /// Forwarding state currently in force.
    fwd: ForwardingState,
    /// Multipath alternates (present when `multipath_stretch` is set).
    mp: Option<MultipathState>,
    /// The live fault state; `apply_globals_at` applies each schedule
    /// entry at its instant.
    fault_state: Option<FaultState>,
    queue: EventQueue,
    /// Every packet alive, from when a device or a local delivery takes
    /// it at its source to delivery or drop; arrivals and device queues
    /// hold slots.
    packets: PacketSlab,
    /// The one numbering of the devices, shared with the fluid solver.
    links: Arc<LinkTable>,
    /// Every device, by link id.
    devices: Vec<Device>,
    /// Every node's port table, by node index.
    nodes: Vec<Node>,
    /// Installed applications, by app index.
    apps: Vec<AppEntry>,
    /// Per-origin-node event-key counters (canonical key low bits).
    node_key_seq: Vec<u32>,
    /// Per-origin-node packet-id counters.
    node_packet_seq: Vec<u32>,
    /// Per-node GSL loss processes, seeded from `(loss_seed, node)` so
    /// draws are independent of cross-node event interleaving.
    loss_rngs: Vec<DetRng>,
    /// The action buffer lent to each application callback's context, so
    /// a callback costs no allocation.
    action_buf: Vec<AppAction>,
    /// Satellite samples behind every device's link memo. Invisible to
    /// results (delays are exact whatever either holds), so it is not
    /// checkpointed.
    ephemeris: Ephemeris,
    /// The lookahead thread, spawned by the first `run_until` reaching a
    /// step instant: it owns `worker` and computes step `next_fwd_step`,
    /// never past the horizon, while the event loop runs up to it.
    lookahead: Option<Lookahead<SnapshotWorker, Request, Step>>,
    /// The one worker: the initial state and the restore recompute run it
    /// here, every other step on the lookahead thread.
    worker: SnapshotWorker,
    /// The retired forwarding state, for the next request to refill.
    spare: Option<ForwardingState>,
    /// Routing counters of every step applied so far.
    routing: (RouterStats, RepairStats),
    /// Next forwarding step to apply, at `next_fwd_step × fstate_step`.
    next_fwd_step: u64,
    /// Cursor into the fault schedule (entries at t = 0 are folded into
    /// the initial state and skipped).
    next_fault_index: usize,
    /// The fluid-flow network (fluid/hybrid modes; `None` under packet
    /// mode). Rates re-solve only at canonical global instants.
    fluid: Option<FluidNet>,
    /// Fluid flows installed since the last boundary rebuild.
    fluid_dirty: bool,
    /// Has `run_until` been called? Fluid installs are rejected after
    /// that: the boundary schedule is built once, at run start.
    started: bool,
    epochs: u64,
    phases: PhaseTimes,
    /// Bounded per-packet trace in canonical `(time, key)` order (off
    /// unless configured).
    pub trace: Trace,
    /// Global counters. The fluid ones (`fluid_flows`,
    /// `fluid_bytes_delivered`) are brought up to date by every
    /// `run_until`, `add_app` and `restore`.
    pub stats: SimStats,
}

impl Simulator {
    /// Build a simulator over `constellation`, routing towards `dests` (the
    /// nodes that will terminate traffic — forwarding trees are computed
    /// only for these).
    pub fn new(constellation: Arc<Constellation>, config: SimConfig, dests: Vec<NodeId>) -> Self {
        assert!(!dests.is_empty(), "at least one destination is required");
        let t0 = Instant::now();

        let mut worker =
            SnapshotWorker::with_config(config.routing).with_multipath(config.multipath_stretch);
        let first = (0, ForwardingState::empty());
        let ((fwd, mp), routing) =
            Self::forwarding_step(&mut worker, &constellation, &config, &dests, first);

        let num_nodes = constellation.num_nodes();
        let nodes = (0..num_nodes).map(|i| Node::new(NodeId(i as u32))).collect();
        let links = Arc::new(LinkTable::build(&constellation));
        let devices = (0..links.len())
            .map(|_| Device::new(config.link_rate, config.queue_packets, config.utilization_bucket))
            .collect();
        let loss_rngs = (0..num_nodes)
            .map(|i| {
                let mut h = Fnv1a64::new();
                h.write_u64(config.loss_seed);
                h.write_u32(i as u32);
                DetRng::new(h.finish())
            })
            .collect();

        // Fault injection: events at t = 0 are already folded into the
        // initial live state (and the initial forwarding computation); the
        // cursor starts at the first strictly-future event.
        let fault_state = config.faults.as_ref().map(|s| FaultState::at(s, SimTime::ZERO));
        let next_fault_index = config.faults.as_ref().map_or(0, |s| {
            s.events().iter().position(|e| e.t > SimTime::ZERO).unwrap_or(s.events().len())
        });

        let fluid = (config.sim_mode != SimMode::Packet)
            .then(|| FluidNet::over(links.clone(), config.link_rate));
        let mut sim = Simulator {
            ephemeris: Ephemeris::new(&constellation),
            trace: Trace::with_sampling(config.trace_limit, config.trace_sample_every),
            constellation,
            config,
            now: SimTime::ZERO,
            dests,
            fwd,
            mp,
            fault_state,
            queue: EventQueue::new(),
            packets: PacketSlab::default(),
            links,
            devices,
            nodes,
            apps: Vec::new(),
            node_key_seq: vec![0; num_nodes],
            node_packet_seq: vec![0; num_nodes],
            loss_rngs,
            action_buf: Vec::new(),
            lookahead: None,
            worker,
            spare: None,
            routing,
            next_fwd_step: 1,
            next_fault_index,
            fluid,
            fluid_dirty: false,
            started: false,
            epochs: 0,
            phases: PhaseTimes::default(),
            stats: SimStats::default(),
        };
        sim.phases.build_ns = ns_since(t0);
        sim
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

    /// The numbering of the devices: which node owns each, and its peer.
    pub fn links(&self) -> &LinkTable {
        &self.links
    }

    /// Every device, by link id (for stats inspection).
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// The device a hop `a → b` serializes through
    /// ([`LinkTable::of_hop`]).
    pub fn hop_device(&self, a: NodeId, b: NodeId) -> &Device {
        &self.devices[self.links.of_hop(a, b) as usize]
    }

    /// How the engine has executed so far: windows, queue, fluid solver,
    /// ephemeris, phase timers, routing.
    pub fn engine_report(&self) -> EngineReport {
        EngineReport {
            epochs: self.epochs,
            barriers: 0,
            min_lookahead_ns: None,
            queue: QueueStats { slab_peak: self.packets.peak() as u64, ..self.queue.stats() },
            fluid: self.fluid.as_ref().map(FluidNet::stats).unwrap_or_default(),
            ephemeris: self.ephemeris.stats(),
            phases: self.phases,
            routing: self.routing,
        }
    }

    /// Install an application at `(node, port)`. Calls its `on_start`
    /// immediately (at the current simulation time) and returns its index.
    pub fn add_app(&mut self, node: NodeId, port: u16, app: Box<dyn Application>) -> u32 {
        self.add_app_multi(node, &[port], app)
    }

    /// Install a bulk application bound to every port in `ports` at `node`
    /// (arena flow tables: one [`Application`] owning many flow endpoints;
    /// its context port is `ports[0]`). Calls its `on_start` immediately
    /// and returns its index.
    pub fn add_app_multi(&mut self, node: NodeId, ports: &[u16], app: Box<dyn Application>) -> u32 {
        assert!(!ports.is_empty(), "an application needs at least one port");
        let idx = self.apps.len() as u32;
        for &port in ports {
            self.nodes[node.index()].bind_port(port, idx);
        }
        if let Some((flows, bytes)) = app.flow_footprint() {
            self.stats.flow_count += flows;
            self.stats.flow_state_bytes += bytes;
        }
        self.apps.push(AppEntry { app: Some(app), node, port: ports[0] });
        // Setup records sort under a fresh key of the app's node.
        let key = self.alloc_key(node.0);
        self.trace.set_key(key);
        self.with_app(idx, |app, ctx| app.on_start(ctx));
        self.sync_fluid();
        idx
    }

    /// Borrow an installed application, downcast to its concrete type.
    pub fn app_as<T: Application>(&self, idx: u32) -> Option<&T> {
        self.apps.get(idx as usize)?.app.as_ref()?.as_any().downcast_ref::<T>()
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
    /// the global events due at the window start, pop node events up to
    /// the next global instant, repeat.
    pub fn run_until(&mut self, t_end: SimTime) {
        self.request_ahead(t_end);
        self.flush_fluid_installs();
        self.started = true;
        loop {
            let next_node = self.queue.next_time(&self.packets);
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
            self.apply_globals_at(start, t_end);
            self.phases.globals_ns += ns_since(t0);

            // The window is bounded by the next global event (its swap
            // must happen before any later node event) and by the run
            // horizon.
            let mut end_incl = t_end;
            if let Some(g) = self.next_global_time() {
                debug_assert!(g > start, "global event not consumed");
                end_incl = end_incl.min(g - SimDuration::from_nanos(1));
            }
            let t0 = Instant::now();
            self.run_window(end_incl);
            self.phases.window_ns += ns_since(t0);
            self.epochs += 1;
        }
        self.now = t_end;
        self.sync_fluid();
    }

    /// The next instant at which a global event is due (forwarding swap,
    /// fault update, or fluid finish boundary), if any.
    fn next_global_time(&self) -> Option<SimTime> {
        let mut next: Option<SimTime> = None;
        if !self.config.freeze_at_epoch {
            next = Some(self.step_time(self.next_fwd_step));
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

    /// Apply every global event due exactly at `t`, in canonical key
    /// order: the forwarding swap (key 0) first, then fault-schedule
    /// entries in index order, then the fluid finish boundary. Each
    /// counts one event and re-solves the fluid allocation under its own
    /// key, which is also what orders its trace record. A forwarding swap
    /// first asks for the next step, due by `horizon`, so the re-solve and
    /// the windows after it overlap its computation.
    fn apply_globals_at(&mut self, t: SimTime, horizon: SimTime) {
        // Captured before any same-instant re-solve advances the cursor:
        // a boundary due at `t` is its own event even then.
        let due_boundary =
            self.fluid.as_ref().and_then(|f| f.next_boundary()).filter(|&(bt, _)| bt == t);
        if !self.config.freeze_at_epoch && self.step_time(self.next_fwd_step) == t {
            self.apply_forwarding_step(self.next_fwd_step);
            self.stats.forwarding_updates += 1;
            self.stats.events += 1;
            self.next_fwd_step += 1;
            self.request_ahead(horizon);
            self.resolve_fluid(t, FORWARDING_KEY);
        }
        if let Some(schedule) = self.config.faults.clone() {
            while let Some(event) = schedule.events().get(self.next_fault_index) {
                if event.t != t {
                    break;
                }
                self.fault_state.as_mut().expect("fault event without live state").apply(event);
                self.stats.events += 1;
                let index = self.next_fault_index as u64;
                self.next_fault_index += 1;
                self.resolve_fluid(t, fault_key(index));
            }
        }
        if let Some((_, index)) = due_boundary {
            self.stats.events += 1;
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
    /// mode, set the residual rates of the packet devices. `key` is the
    /// canonical key of the triggering global event; it places the trace
    /// record in `(time, key)` order — the run-start re-solve's before the
    /// `on_start` records of its instant, which were written first. No-op
    /// in packet mode.
    fn resolve_fluid(&mut self, t: SimTime, key: u64) {
        let Some(fluid) = self.fluid.as_mut() else { return };
        fluid.advance_to(t);
        fluid.resolve(t, &self.fwd, self.fault_state.as_ref(), &self.constellation);
        self.stats.fluid_resolves += 1;
        self.trace.set_key(key);
        // Not a packet event: node 0 is a placeholder; the "packet id"
        // carries the running re-solve count.
        self.trace.record(t, NodeId(0), fluid.resolves(), TraceKind::FluidResolve);
        if self.config.sim_mode == SimMode::Hybrid {
            // A transmission in flight keeps the rate it started with.
            for change in fluid.residual_changes() {
                self.devices[change.link as usize].rate = change.rate;
            }
        }
    }

    /// Integrate the fluid flows up to `now` and copy their counters into
    /// `stats`. Runs after every `run_until`, `add_app` and `restore`, and
    /// nowhere else: where the integration stops is in the delivered bytes.
    fn sync_fluid(&mut self) {
        if let Some(f) = self.fluid.as_mut() {
            f.advance_to(self.now);
            self.stats.fluid_flows = f.flow_count();
            self.stats.fluid_bytes_delivered = f.delivered_payload_bytes();
        }
    }

    /// Put the forwarding (and multipath) state of `step` in force: taken
    /// from the lookahead thread when it was asked for `step`, else
    /// computed here. The state it replaces becomes the spare.
    fn apply_forwarding_step(&mut self, step: u64) {
        let ((fwd, mp), counted) = match self.lookahead.as_mut().filter(|l| l.is_pending()) {
            Some(lookahead) => {
                let t0 = Instant::now();
                let ready = lookahead.take();
                self.phases.lookahead_wait_ns += ns_since(t0);
                ready
            }
            None => {
                let spare = self.spare.take().unwrap_or_else(ForwardingState::empty);
                let (c, config, dests) = (&self.constellation, &self.config, &self.dests);
                Self::forwarding_step(&mut self.worker, c, config, dests, (step, spare))
            }
        };
        debug_assert_eq!(fwd.computed_at, self.step_time(step), "a step out of order");
        self.routing.0.merge(&counted.0);
        self.routing.1.merge(&counted.1);
        self.spare = Some(std::mem::replace(&mut self.fwd, fwd));
        self.mp = mp;
    }

    /// Ask the lookahead thread for step `next_fwd_step` unless it is
    /// past `horizon` or already asked for, spawning the thread (with the
    /// worker) on first use. The first request refills a clone of the
    /// state in force; later ones, the state each swap retired.
    fn request_ahead(&mut self, horizon: SimTime) {
        let k = self.next_fwd_step;
        let due = !self.config.freeze_at_epoch && self.step_time(k) <= horizon;
        if !due || self.lookahead.as_ref().is_some_and(Lookahead::is_pending) {
            return;
        }
        let spare = self.spare.take().unwrap_or_else(|| self.fwd.clone());
        let lookahead = self.lookahead.get_or_insert_with(|| {
            let (c, config, dests) =
                (self.constellation.clone(), self.config.clone(), self.dests.clone());
            let worker = std::mem::take(&mut self.worker);
            Lookahead::spawn(worker, move |worker, request| {
                Self::forwarding_step(worker, &c, &config, &dests, request)
            })
        });
        lookahead.request((k, spare));
    }

    /// The instant of forwarding step `k`.
    fn step_time(&self, k: u64) -> SimTime {
        SimTime::ZERO + self.config.fstate_step * k
    }

    /// Forwarding step `k`, at `k × fstate_step`, on `worker`, refilling
    /// the request's spare state — the one step function of the initial
    /// build, the restore recompute and the lookahead thread. The fault
    /// mask is a pure replay of the schedule at that instant and repair is
    /// byte-identical to full Dijkstra, so the states are the same however
    /// and whenever this runs; the router's counters are handed over with
    /// them.
    fn forwarding_step(
        worker: &mut SnapshotWorker,
        constellation: &Constellation,
        config: &SimConfig,
        dests: &[NodeId],
        (k, mut fwd): Request,
    ) -> Step {
        let t = SimTime::ZERO + config.fstate_step * k;
        let mp = worker.step_into(constellation, t, dests, config.faults.as_deref(), &mut fwd);
        let router = &mut worker.router;
        ((fwd, mp), (std::mem::take(&mut router.stats), std::mem::take(&mut router.repair_stats)))
    }

    /// Utilization of the most loaded directed link along `path` in bucket
    /// `bucket_idx` (requires utilization tracking), each hop's device
    /// found by [`Simulator::hop_device`].
    pub fn path_bottleneck_utilization(&self, path: &[NodeId], bucket_idx: usize) -> f64 {
        assert!(path.len() >= 2, "path needs at least one hop");
        let mut worst: f64 = 0.0;
        for w in path.windows(2) {
            let u = self.hop_device(w[0], w[1]).utilization(bucket_idx);
            worst = worst.max(u.expect("utilization tracking disabled"));
        }
        worst
    }

    // ---- Crash resilience: checkpoint, restore, conservation audits ----

    /// FNV-1a-64 over everything the snapshot layout depends on: topology
    /// size, destination set, mode, timing, rates, loss model, trace
    /// bounds, fault-schedule length, and app count. A
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
        for b in c.sim_mode.name().bytes() {
            mix(&mut h, b as u64);
        }
        mix(&mut h, c.fstate_step.nanos());
        mix(&mut h, c.freeze_at_epoch as u64);
        // The rates ISL and GSL devices are built with, in that order: both
        // `link_rate`, mixed twice so that fingerprints keep their bytes.
        mix(&mut h, c.link_rate.bps());
        mix(&mut h, c.link_rate.bps());
        mix(&mut h, c.queue_packets as u64);
        mix(&mut h, c.loss_seed);
        mix(&mut h, c.gsl_loss_rate.to_bits());
        mix(&mut h, c.trace_limit as u64);
        mix(&mut h, c.trace_sample_every);
        mix(&mut h, c.multipath_stretch.map_or(u64::MAX, f64::to_bits));
        mix(&mut h, c.faults.as_ref().map_or(0, |s| s.events().len() as u64));
        mix(&mut h, self.apps.len() as u64);
        h
    }

    /// Serialize the full mutable state of the run into an in-memory
    /// snapshot image (see [`crate::checkpoint`] for the container). Must
    /// be taken between `run_until` calls, so no application is
    /// half-dispatched.
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

    /// The image body: clock and cursors, the fluid network, then the
    /// nodes' pending events, devices, applications, counters, loss RNGs,
    /// trace and stats.
    fn save_into(&self, w: &mut SnapWriter) -> Result<(), CheckpointError> {
        if self.fluid_dirty {
            return Err(CheckpointError::Unsupported(
                "fluid flows installed but not yet started; checkpoint after run_until".into(),
            ));
        }
        w.put_tag(b"SIMU");
        (self.now, self.started, self.next_fwd_step, self.next_fault_index).put(w);
        self.fluid.is_some().put(w);
        if let Some(f) = &self.fluid {
            f.save(w);
        }

        w.put_tag(b"EVTQ");
        let entries = self.queue.pending_slots();
        entries.len().put(w);
        for s in &entries {
            (s.at, s.key, unpack(s, |slot| self.packets[slot])).put(w);
        }

        // Devices framed per node, in device order, as when each node
        // held its own.
        w.put_tag(b"NODS");
        self.nodes.len().put(w);
        for node in &self.nodes {
            let devices = &self.devices[self.links.of_node(node.id)];
            devices.len().put(w);
            devices.iter().for_each(|device| device.save(w, &self.packets));
        }

        w.put_tag(b"APPS");
        self.apps.len().put(w);
        for entry in &self.apps {
            let app = entry.app.as_ref().ok_or_else(|| {
                CheckpointError::Malformed("checkpoint during app dispatch".into())
            })?;
            app.save_state(w)?;
        }

        w.put_tag(b"CTRS");
        self.node_key_seq.put(w);
        self.node_packet_seq.iter().for_each(|seq| seq.put(w));
        w.put_tag(b"RNGS");
        self.loss_rngs[..].put(w);
        w.put_tag(b"TRAC");
        self.trace.put(w);
        w.put_tag(b"STAT");
        self.stats.put(w);
        Ok(())
    }

    /// Restore a snapshot image taken by [`Simulator::checkpoint`].
    ///
    /// The caller rebuilds the simulator exactly as the checkpointed run
    /// was built — same constellation, config, destinations, and the same
    /// `add_app` / `add_fluid_flow` sequence — then restores. The snapshot
    /// overwrites every piece of mutable state (queues, device contents,
    /// application state, RNG streams, counters, cursors, fluid rates), and
    /// the continuation is bit-identical to the uninterrupted run in any
    /// mode. Structural mismatches are reported as typed errors, never
    /// panics.
    pub fn restore(&mut self, bytes: Vec<u8>) -> Result<(), CheckpointError> {
        let mut r = SnapReader::from_bytes(bytes, self.config_fingerprint())?;
        self.restore_body(&mut r)
    }

    /// [`Simulator::restore`] from a snapshot file.
    pub fn restore_from(&mut self, path: &Path) -> Result<(), CheckpointError> {
        let mut r = SnapReader::open(path, self.config_fingerprint())?;
        self.restore_body(&mut r)
    }

    /// Read back what [`Simulator::save_into`] wrote. Forwarding state and
    /// the fault state are not in the image: they are derived from the
    /// spec and the restored cursors, and recomputed here.
    fn restore_body(&mut self, r: &mut SnapReader) -> Result<(), CheckpointError> {
        r.expect_tag(b"SIMU")?;
        (self.now, self.started, self.next_fwd_step, self.next_fault_index) = r.get()?;
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

        r.expect_tag(b"EVTQ")?;
        // Discard the rebuild's bootstrap events (app on_start timers and
        // sends) and packets: the snapshot's queue and devices are the
        // complete pending set, re-parked in image order.
        self.queue = EventQueue::new();
        self.packets = PacketSlab::default();
        for _ in 0..r.get::<usize>()? {
            let (at, key): (SimTime, u64) = r.get()?;
            let mut event = Event::AppTimer { app: 0, timer_id: 0 };
            event.restore(r)?;
            self.check_pending(at, &event)?;
            let (tag, a, b) = pack(event, |packet| self.packets.park(packet));
            self.queue.schedule_slot(at, key, tag, a, b);
        }

        r.expect_tag(b"NODS")?;
        r.expect_len(self.nodes.len(), "nodes")?;
        for node in &self.nodes {
            let devices = &mut self.devices[self.links.of_node(node.id)];
            r.expect_len(devices.len(), format_args!("devices on node {}", node.id.0))?;
            for device in devices {
                device.restore(r, &mut self.packets)?;
            }
        }

        r.expect_tag(b"APPS")?;
        r.expect_len(self.apps.len(), "apps")?;
        for entry in &mut self.apps {
            let app = entry
                .app
                .as_mut()
                .ok_or_else(|| CheckpointError::Malformed("restore during app dispatch".into()))?;
            app.restore_state(r)?;
        }

        r.expect_tag(b"CTRS")?;
        self.node_key_seq[..].restore(r)?;
        self.node_packet_seq.iter_mut().try_for_each(|seq| seq.restore(r))?;
        r.expect_tag(b"RNGS")?;
        self.loss_rngs[..].restore(r)?;
        r.expect_tag(b"TRAC")?;
        self.trace.restore(r)?;
        r.expect_tag(b"STAT")?;
        self.stats.restore(r)?;
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
            self.fault_state = Some(state);
        }

        // Take the worker back from the lookahead thread (a step it was
        // asked for belongs to the old cursor and is dropped) and
        // recompute here the forwarding state in force at the checkpoint:
        // the last applied step is `next_fwd_step - 1`; step 0 (and frozen
        // networks) is what the fresh build already computed. Forwarding
        // is a pure function of the schedule at the step's instant, so
        // this is byte-identical to the state the checkpointed run was
        // using. The next `run_until` respawns the thread at the cursor.
        if let Some(lookahead) = self.lookahead.take() {
            self.worker = lookahead.join();
        }
        if self.next_fwd_step > 1 && !self.config.freeze_at_epoch {
            self.apply_forwarding_step(self.next_fwd_step - 1);
        }
        self.sync_fluid();
        Ok(())
    }

    /// Reject a restored queue entry that would panic when popped: one due
    /// before the clock, at a node that does not exist, on a device its
    /// node lacks, or for an application not installed.
    fn check_pending(&self, at: SimTime, event: &Event) -> Result<(), CheckpointError> {
        let nodes = self.nodes.len();
        let problem = match *event {
            _ if at < self.now => format!("is due before the clock {} ns", self.now.nanos()),
            Event::TxComplete { node, .. } | Event::Arrival { node, .. }
                if node as usize >= nodes =>
            {
                format!("names node {node} of {nodes}")
            }
            Event::TxComplete { node, device }
                if device as usize >= self.links.of_node(NodeId(node)).len() =>
            {
                format!("names device {device} of node {node}")
            }
            Event::AppTimer { app, .. } if app as usize >= self.apps.len() => {
                format!("names app slot {app} of {}", self.apps.len())
            }
            _ => return Ok(()),
        };
        Err(CheckpointError::Malformed(format!("queue entry at {} ns {problem}", at.nanos())))
    }

    /// Re-derive the engine's bookkeeping from first principles and report
    /// every violated invariant (empty = all conserved). See
    /// [`crate::audit`] for the invariants. Read-only; safe to call
    /// between `run_until` calls.
    pub fn audit(&self) -> Vec<AuditViolation> {
        let mut out = Vec::new();
        let t_ns = self.now.nanos();
        // In flight = scheduled arrivals (propagating) + packets queued or
        // in serialization at a device.
        let in_flight = self.audit_devices(&mut out);
        let stats = &self.stats;
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

    /// Check the devices' conservation invariants: every packet a device
    /// was offered is transmitted, dropped, queued, or in flight, no queue
    /// exceeds its configured capacity, and the slab holds exactly the
    /// packets the devices and the pending arrivals (the queue's entries,
    /// not the slab's occupancy) hold. Returns that count: the packets in
    /// flight.
    fn audit_devices(&self, out: &mut Vec<AuditViolation>) -> u64 {
        let t_ns = self.now.nanos();
        let mut held = self.queue.pending_arrivals() as u64;
        for node in &self.nodes {
            for (d, device) in self.devices[self.links.of_node(node.id)].iter().enumerate() {
                held += device.occupancy();
                let s = &device.stats;
                let accounted = s.packets_tx + s.drops + device.occupancy();
                if s.packets_in != accounted {
                    out.push(AuditViolation::DeviceConservation {
                        t_ns,
                        node: node.id.0,
                        device: d as u32,
                        offered: s.packets_in,
                        accounted,
                    });
                }
                let (queue_len, capacity) =
                    (device.queue_len() as u64, device.queue_capacity as u64);
                if queue_len > capacity {
                    out.push(AuditViolation::QueueOverCapacity {
                        t_ns,
                        node: node.id.0,
                        device: d as u32,
                        queue_len,
                        capacity,
                    });
                }
            }
        }
        let alive = self.packets.occupied() as u64;
        if alive != held {
            out.push(AuditViolation::SlabConservation { t_ns, alive, held });
        }
        held
    }
}

/// Nanoseconds of wall time since `t0`.
fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
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

    /// Computing a forwarding step ahead is a pure wall-clock matter:
    /// a run whose lookahead overlaps every step with the windows before
    /// it is bit-identical to one cut just short of every step instant,
    /// where each step is asked for only once it is due — with and without
    /// multipath, routing counters included (one worker computes the same
    /// steps in the same order either way).
    #[test]
    fn prefetched_forwarding_is_bit_identical_to_inline() {
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let run = |cfg: SimConfig, cut_at_steps: bool| {
            let mut sim = Simulator::new(c.clone(), cfg, vec![src, dst]);
            let app = sim.add_app(
                src,
                100,
                Box::new(PingApp::new(dst, SimDuration::from_millis(10), SimTime::from_secs(1))),
            );
            if cut_at_steps {
                run_stepwise(&mut sim, SimTime::from_secs(2));
            }
            sim.run_until(SimTime::from_secs(2));
            let ping: &PingApp = sim.app_as(app).unwrap();
            let (router, repair) = sim.engine_report().routing;
            assert_eq!(router.snapshots, sim.stats.forwarding_updates + 1);
            assert_eq!(router.repaired + router.fallback_first, router.snapshots);
            assert_eq!(repair.trees, 2 * router.repaired);
            (ping.rtts().to_vec(), sim.stats.events, sim.stats.forwarding_updates, router, repair)
        };
        for cfg in [SimConfig::default(), SimConfig::default().with_multipath(1.3)] {
            let ahead = run(cfg.clone(), false);
            assert_eq!(ahead, run(cfg.clone(), true), "multipath={:?}", cfg.multipath_stretch);
        }
    }

    /// Run `sim` to `t_end` in cuts just short of and at every step
    /// instant, so each forwarding step is asked for only once it is due:
    /// the inline schedule a run computing steps ahead must match.
    fn run_stepwise(sim: &mut Simulator, t_end: SimTime) {
        let step = sim.config().fstate_step;
        let mut t = SimTime::ZERO + step;
        while t <= t_end {
            sim.run_until(t - SimDuration::from_nanos(1));
            sim.run_until(t);
            t += step;
        }
        sim.run_until(t_end);
    }

    /// The lookahead thread computes no step past the `run_until`
    /// horizon: a run that reaches no step instant never starts it, and
    /// after any run every step computed has been applied, the retired
    /// state kept for the next request to refill.
    #[test]
    fn lookahead_never_computes_past_the_horizon() {
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let mut sim = Simulator::new(c.clone(), SimConfig::default(), vec![src, dst]);
        sim.add_app(
            src,
            100,
            Box::new(PingApp::new(dst, SimDuration::from_millis(10), SimTime::from_secs(1))),
        );
        sim.run_until(SimTime::from_millis(99));
        assert!(sim.lookahead.is_none(), "a run short of the first step started the thread");
        assert_eq!(sim.engine_report().routing.0.snapshots, 1, "step 0 only");
        for (t_ms, applied) in [(250, 3), (299, 3), (300, 4), (300, 4), (1_000, 11)] {
            sim.run_until(SimTime::from_millis(t_ms));
            let lookahead = sim.lookahead.as_ref().expect("a step instant was reached");
            assert!(!lookahead.is_pending(), "t = {t_ms} ms: a step was computed ahead");
            assert_eq!(sim.engine_report().routing.0.snapshots, applied, "t = {t_ms} ms");
            assert_eq!(sim.stats.forwarding_updates + 1, applied, "t = {t_ms} ms");
            assert!(sim.spare.is_some(), "t = {t_ms} ms: the retired state was not recovered");
        }
        let frozen = SimConfig::default().frozen();
        let mut sim = Simulator::new(c.clone(), frozen, vec![src, dst]);
        sim.run_until(SimTime::from_secs(1));
        assert!(sim.lookahead.is_none(), "a frozen network started the thread");
    }

    /// A step that panics on the lookahead thread panics the event loop
    /// that takes it, with the step's own message — it does not hang.
    #[test]
    fn a_panicking_step_surfaces_on_the_caller() {
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut sim = Simulator::new(c, SimConfig::default(), vec![src, dst]);
            let failing = Lookahead::spawn(SnapshotWorker::new(), |_, (k, _): Request| -> Step {
                panic!("step {k} failed")
            });
            sim.lookahead = Some(failing);
            let run = std::panic::AssertUnwindSafe(|| sim.run_until(SimTime::from_secs(1)));
            let outcome = std::panic::catch_unwind(run)
                .map_err(|panic| panic.downcast_ref::<String>().cloned().unwrap_or_default());
            tx.send(outcome).unwrap();
        });
        let outcome = rx.recv_timeout(std::time::Duration::from_secs(60)).expect("run hung");
        assert_eq!(outcome, Err("step 1 failed".to_string()));
    }

    /// The serial engine's last word. The second loop — coordinator events
    /// in the queue, handlers chaining their successors — produced this
    /// hash at the last commit that had it (`cc24080`); the one loop that
    /// is left must reproduce it. The scenario
    /// crosses every coordinator path: hybrid mode, fluid flows with three
    /// finite stops (one on a forwarding instant), a fault exactly on a
    /// forwarding instant and one between instants, multipath, GSL loss, a
    /// ping and a UDP flow, tracing on — and `run_until` cuts on a
    /// forwarding instant, on a fluid boundary and mid-window, each issued
    /// twice (a global coinciding with `t_end` must apply exactly once).
    #[test]
    fn frozen_serial_reference_reproduces_at_every_shard_count() {
        use hypatia_util::hash::Fnv1a64;
        const FROZEN: u64 = 0x7fcc_c85c_5044_6f01;
        let sim = frozen_reference_run(200_000);
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
        assert_eq!(h.finish(), FROZEN, "{:?}", sim.stats);
    }

    /// The frozen reference scenario (see the test above), traced up to
    /// `trace_limit` records, run through its cuts.
    fn frozen_reference_run(trace_limit: usize) -> Simulator {
        use crate::apps::udp::{UdpSink, UdpSource};
        use hypatia_fault::{FaultSchedule, FaultSpec, OutageWindow};
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
            .with_trace_limit(trace_limit);
        let mut sim = Simulator::new(c.clone(), base, vec![src, dst]);
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

        sim
    }

    /// A bounded trace holds the first `limit` records of the unbounded
    /// one, keys included, and counts every other record as truncated —
    /// across pings sent at t = 0, the run-start re-solve that sorts
    /// before them, forwarding swaps, faults and fluid boundaries.
    #[test]
    fn a_truncated_trace_is_the_prefix_of_the_full_one() {
        let full = frozen_reference_run(200_000);
        let (entries, keys) = (full.trace.entries(), full.trace.keys());
        assert_eq!(full.trace.truncated(), 0);
        assert_eq!((entries[0].t, entries[0].kind), (SimTime::ZERO, TraceKind::FluidResolve));
        assert_eq!((entries[1].t, entries[1].kind), (SimTime::ZERO, TraceKind::Inject));
        for limit in [1, 2, 3, 50, 1000] {
            let cut = frozen_reference_run(limit);
            assert_eq!(cut.trace.entries(), &entries[..limit], "limit {limit}");
            assert_eq!(cut.trace.keys(), &keys[..limit], "limit {limit}");
            assert_eq!(cut.trace.truncated(), (entries.len() - limit) as u64, "limit {limit}");
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
    }

    /// The phase timers account the window loop: a run spends time in
    /// both phases, and the lookahead wait is part of the globals.
    #[test]
    fn phase_timers_account_the_window_loop() {
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let mut sim = Simulator::new(c.clone(), SimConfig::default(), vec![src, dst]);
        let ping = PingApp::new(dst, SimDuration::from_millis(20), SimTime::from_millis(500));
        sim.add_app(src, 100, Box::new(ping));
        sim.run_until(SimTime::from_secs(1));
        let p = sim.engine_report().phases;
        assert!(p.globals_ns > 0 && p.window_ns > 0, "{p:?}");
        assert!(p.lookahead_wait_ns <= p.globals_ns, "{p:?}");
    }

    #[test]
    fn build_timer_accounts_simulator_new() {
        let c = constellation();
        let sim = Simulator::new(c.clone(), SimConfig::default(), vec![c.gs_node(0)]);
        let p = sim.engine_report().phases;
        assert!(p.build_ns > 0, "{p:?}");
        assert_eq!((p.globals_ns, p.window_ns), (0, 0), "nothing ran yet");
    }

    #[test]
    fn forwarding_updates_fire_at_granularity() {
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let mut sim = Simulator::new(c.clone(), SimConfig::default(), vec![src, dst]);
        sim.run_until(SimTime::from_secs(1));
        // 100 ms granularity → updates at 0.1..1.0 inclusive = 10.
        assert_eq!(sim.stats.forwarding_updates, 10);
    }

    #[test]
    fn frozen_network_never_updates_forwarding() {
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let mut sim = Simulator::new(c.clone(), SimConfig::default().frozen(), vec![src, dst]);
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.stats.forwarding_updates, 0);
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
    fn every_device_is_built_at_link_rate() {
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let cfg = SimConfig::default().with_link_rate(DataRate::from_mbps(50));
        let sim = Simulator::new(c, cfg, vec![src, dst]);
        assert_eq!(sim.devices().len(), sim.links().len());
        assert!(sim.devices().iter().all(|d| d.rate == DataRate::from_mbps(50)));
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
        let run = |cfg: SimConfig, stepwise: bool| {
            let mut sim = Simulator::new(c.clone(), cfg, vec![src, dst]);
            let app = sim.add_app(
                src,
                100,
                Box::new(PingApp::new(dst, SimDuration::from_millis(5), SimTime::from_secs(2))),
            );
            if stepwise {
                run_stepwise(&mut sim, SimTime::from_secs(3));
            }
            sim.run_until(SimTime::from_secs(3));
            let ping: &PingApp = sim.app_as(app).unwrap();
            (ping.rtts().to_vec(), sim.stats.clone())
        };
        let base = SimConfig::default().with_faults(schedule);
        let inline = run(base.clone(), false);
        // Packets the stale state kept sending into the dead satellite.
        assert!(inline.1.fault_drops > 0, "no packets caught by the outage: {:?}", inline.1);
        assert_eq!(
            inline.1.injected,
            inline.1.delivered + inline.1.total_drops(),
            "conservation: {:?}",
            inline.1
        );
        // Steps asked for only once due agree.
        assert_eq!(inline, run(base, true), "stepwise run diverged under faults");
    }

    /// Full recompute every snapshot — the router's test oracle — and
    /// incremental repair must produce bit-identical simulations, with and
    /// without faults.
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
            assert_eq!(full, incremental, "routing modes diverged");
        }
    }

    /// Fluid flows deliver `rate × time` bytes analytically, cost no
    /// packet events, and every observable is bit-identical from run to
    /// run, because the solver re-runs only at canonical coordinator
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
        assert_eq!(serial, run(base), "a second run diverged");
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
        let uplink = |sim: &Simulator| sim.hop_device(src, NodeId(0)).rate;
        assert_eq!(uplink(&sim), DataRate::from_kbps(100), "saturated uplink sits at the 1% floor");
        // Past the stop boundary the load vanishes and capacity returns.
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(uplink(&sim), DataRate::from_mbps(10));

        let cfg = SimConfig::default().with_sim_mode(SimMode::Fluid);
        let mut sim = Simulator::new(c.clone(), cfg, vec![src, dst]);
        for i in 0..4 {
            sim.add_fluid_flow(i, src, dst, DataRate::from_mbps(10), 1440, SimTime::from_secs(1));
        }
        sim.run_until(SimTime::from_millis(50));
        assert_eq!(
            uplink(&sim),
            DataRate::from_mbps(10),
            "pure fluid mode must not throttle packet devices"
        );
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
    /// stopped — in every mode, through fault events and forwarding swaps
    /// on both sides of the snapshot.
    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let c = constellation();
        let (base, build) = resilience_fixture(&c);
        for mode in [SimMode::Packet, SimMode::Hybrid] {
            let cfg = base.clone().with_sim_mode(mode);
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
            assert_eq!(want, got, "resume diverged: mode={}", mode.name());
        }
    }

    /// One run cut into many `run_until` segments — on and off step
    /// instants, twice at one instant, through fault events — and restored
    /// from a checkpoint taken with the next step not yet applied is
    /// bit-identical to one uninterrupted run. The image is restored into
    /// a fresh simulator and into one whose lookahead thread has run on
    /// past the checkpoint: restore takes the worker back from it.
    #[test]
    fn run_until_cuts_and_a_restore_match_one_run() {
        let c = constellation();
        let (base, build) = resilience_fixture(&c);
        let cuts_ms = [30, 100, 100, 250, 399, 400, 500, 555, 950];
        let later_ms = [1_000, 1_234, 1_500, 1_999, 2_000];
        for mode in [SimMode::Packet, SimMode::Hybrid] {
            let cfg = base.clone().with_sim_mode(mode);
            let (mut whole, app_w) = build(&cfg);
            whole.run_until(SimTime::from_secs(2));
            let want = observe(&whole, app_w);

            let (mut first, app_f) = build(&cfg);
            for t in cuts_ms {
                first.run_until(SimTime::from_millis(t));
            }
            let image = first.checkpoint().expect("checkpoint");
            let (mut ran_on, app_o) = build(&cfg);
            ran_on.run_until(SimTime::from_millis(1_700));
            assert!(ran_on.lookahead.is_some());
            let (mut fresh, app_n) = build(&cfg);
            for (sim, app) in [(&mut first, app_f), (&mut ran_on, app_o), (&mut fresh, app_n)] {
                sim.restore(image.clone()).expect("restore");
                for t in later_ms {
                    sim.run_until(SimTime::from_millis(t));
                }
                assert_eq!(want, observe(sim, app), "mode={}", mode.name());
            }
        }
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
        let (mut other, _) = build(&base.clone().with_queue_packets(50));
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

    /// A version 2 image — a coordinator's part beside a shard's — is
    /// refused by number before its fingerprint is compared, so it never
    /// reads as a config mismatch: the one it carries is patched here to
    /// differ, as the old fingerprint mixed in a shard count.
    #[test]
    fn restore_rejects_a_version_2_image_by_number() {
        let (mut sim, ..) = every_exit_fixture();
        sim.run_until(SimTime::from_millis(200));
        let mut image = sim.checkpoint().expect("checkpoint");
        image[8..12].copy_from_slice(&2u32.to_le_bytes());
        image[12] ^= 0xff;
        crate::checkpoint::reseal(&mut image);
        let (mut other, ..) = every_exit_fixture();
        let err = other.restore(image).unwrap_err();
        assert_eq!(err, CheckpointError::UnsupportedVersion { found: 2, expected: 3 });
        assert!(err.to_string().contains("version 2"), "{err}");
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
    /// rebuilt simulator cannot dispatch to — or an instant before its clock —
    /// is malformed: a typed error at restore, not a panic at the pop.
    #[test]
    fn restore_rejects_queue_entries_it_cannot_dispatch() {
        let (mut sim, ..) = every_exit_fixture();
        sim.run_until(SimTime::from_millis(200));
        let image = sim.checkpoint().expect("checkpoint");
        let entries = first_queue_entries(&image);
        let first = |tag: u8| entries.iter().find(|e| e.1 == tag).expect("entry of tag").0;
        let (tx, timer) = (first(0), first(3));
        let cases: [(usize, u64, usize, &str); 4] = [
            (entries[0].0, 0, 8, "before the clock"),
            (tx + 17, 10_000, 4, "node 10000 of 102"),
            (tx + 21, 99, 4, "device 99 of node"),
            (timer + 17, 1_000, 4, "app slot 1000 of 3"),
        ];
        for (at, value, width, want) in cases {
            let mut bytes = image.clone();
            bytes[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
            crate::checkpoint::reseal(&mut bytes);
            let (mut other, ..) = every_exit_fixture();
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
    /// Returns the simulator, the probe's app index, the failed satellite
    /// and the flow's hop count.
    fn every_exit_fixture() -> (Simulator, u32, NodeId, u16) {
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
            .with_trace_limit(400_000);
        let mut sim = Simulator::new(c.clone(), cfg, vec![src, dst]);
        let probe = sim.add_app(dst, 50, Box::<HopProbe>::default());
        let stop = SimTime::from_secs(1);
        sim.add_app(src, 50, Box::new(UdpSource::new(dst, 1, DataRate::from_mbps(20), 1140, stop)));
        let lost = c.sat_node(0);
        sim.add_app(src, 100, Box::new(PingApp::new(lost, SimDuration::from_millis(50), stop)));
        (sim, probe, victim, path.len() as u16 - 1)
    }

    /// The slab's invariant: a packet is parked once and freed once.
    /// Mid-run the audit's slab conservation holds with packets queued, in
    /// service and on the wire (and the wire count is the queue's arrival
    /// entries, not the slab's occupancy); after every exit path has been
    /// taken and the network has drained, the slab holds no slot.
    #[test]
    fn every_exit_frees_its_slot_and_a_drained_run_leaks_none() {
        let (mut sim, probe, victim, hops) = every_exit_fixture();
        for cut_ms in [200, 334, 900] {
            sim.run_until(SimTime::from_millis(cut_ms));
            assert_eq!(sim.audit(), [], "t={cut_ms}ms");
            let on_wire = sim.queue.pending_arrivals() as u64;
            let at_devices: u64 = sim.devices().iter().map(|d| d.occupancy()).sum();
            let held = sim.audit_devices(&mut Vec::new());
            assert!(on_wire > 0 && at_devices > 0, "t={cut_ms}ms: idle network");
            assert_eq!(on_wire + at_devices, held, "t={cut_ms}ms");
        }
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.audit(), [], "drained");
        assert_eq!(sim.audit_devices(&mut Vec::new()), 0, "the drained slab leaked a slot");
        let s = &sim.stats;
        assert_eq!(s.injected, s.delivered + s.total_drops());
        for (exit, n) in [
            ("deliver", s.delivered),
            ("queue drop", s.queue_drops),
            ("routing drop", s.routing_drops),
            ("fault drop", s.fault_drops),
            ("channel drop", s.channel_drops),
        ] {
            assert!(n > 0, "no {exit}");
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
            "{at_arrival} / {at_forward} / {at_tx_complete}"
        );
        // `hops` is bumped in place, once per transmission.
        let probe: &HopProbe = sim.app_as(probe).unwrap();
        assert_eq!(probe.hops.len() as u64 + s.pings_echoed, s.delivered);
        assert!(probe.hops.iter().all(|&h| h == hops), "want {hops} hops: {:?}", probe.hops);
        let report = sim.engine_report();
        assert!(report.queue.slab_peak > 0 && report.queue.slab_peak <= s.injected);
    }

    /// A frozen network whose sends are refused at their source in each
    /// way there is: four UDP flows at twice the line rate between them
    /// fill the source's GSL device, a ping goes to a node that is not a
    /// routing destination, and weather takes the source's GSLs down from
    /// 300 to 500 ms. Case 0 traces nothing, case 1 every flow, case 2
    /// every other flow (by hash), case 3 every flow on multipath.
    fn source_refusal_fixture(case: usize) -> Simulator {
        use crate::apps::udp::UdpSource;
        use hypatia_fault::{FaultSchedule, FaultSpec, OutageWindow};
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let spec = FaultSpec {
            gsl_weather: vec![OutageWindow { target: 0, from_s: 0.3, until_s: 0.5 }],
            ..FaultSpec::default()
        };
        let schedule = Arc::new(FaultSchedule::compile(&spec, &c, SimDuration::from_secs(2)));
        let cfg = SimConfig::default().frozen().with_faults(schedule);
        let cfg = match case {
            0 => cfg,
            1 => cfg.with_trace_limit(400_000),
            2 => cfg.with_trace_limit(400_000).with_trace_sampling(2),
            _ => cfg.with_trace_limit(400_000).with_multipath(1.5),
        };
        let mut sim = Simulator::new(c.clone(), cfg, vec![src, dst]);
        let stop = SimTime::from_secs(1);
        for port in 50..54 {
            sim.add_app(dst, port, Box::<HopProbe>::default());
            let flow = UdpSource::new(dst, port as u32, DataRate::from_mbps(5), 1140, stop);
            sim.add_app(src, port, Box::new(flow));
        }
        let lost = c.sat_node(0);
        sim.add_app(src, 100, Box::new(PingApp::new(lost, SimDuration::from_millis(50), stop)));
        sim
    }

    /// Sends refused at their source — a full device, no route, a link
    /// down — are counted and traced as they were when every send was
    /// parked first and forwarded from its slot: the stats, the trace
    /// records and their keys and a mid-run image hash to what that path
    /// gave (pinned at `34f4f16`, the last commit that took it), untraced,
    /// traced, sampled and on multipath, and the audit holds at every cut.
    /// And no refused send is parked: a burst into one idle device peaks
    /// the slab at what the device holds.
    #[test]
    fn every_exit_at_the_source_is_booked_without_a_slot() {
        use hypatia_util::hash::Fnv1a64;
        let pinned = [
            0x123c_f88e_94b1_7382u64,
            0x71e5_a0d7_6d62_8b26,
            0x7216_bdbd_ee32_a523,
            0x386d_40b3_156e_191f,
        ];
        for (case, want) in pinned.into_iter().enumerate() {
            let mut sim = source_refusal_fixture(case);
            let mut h = Fnv1a64::new();
            for cut_ms in [400, 2000] {
                sim.run_until(SimTime::from_millis(cut_ms));
                assert_eq!(sim.audit(), [], "case {case}, t={cut_ms}ms");
                h.write(&sim.checkpoint().expect("checkpoint"));
            }
            let (s, trace) = (&sim.stats, &sim.trace);
            h.write(format!("{s:?} {} {}", trace.truncated(), trace.sampled_out()).as_bytes());
            for (entry, key) in trace.entries().iter().zip(trace.keys()) {
                h.write(format!("{entry:?} {key}").as_bytes());
            }
            let src = sim.constellation().gs_node(0);
            let at_src =
                |kind| trace.entries().iter().filter(move |e| e.node == src && e.kind == kind);
            match case {
                0 => assert!(trace.entries().is_empty()),
                2 => assert!(trace.sampled_out() > 0 && !trace.entries().is_empty()),
                _ => {
                    for kind in [TraceKind::QueueDrop, TraceKind::RoutingDrop, TraceKind::FaultDrop]
                    {
                        assert!(at_src(kind).next().is_some(), "case {case}: no {kind:?}");
                    }
                }
            }
            assert!(s.queue_drops > 0 && s.routing_drops > 0 && s.fault_drops > 0, "{s:?}");
            assert_eq!(h.finish(), want, "case {case}");
        }

        // One send into service, four into the queue, seven refused.
        use crate::flow::{BulkUdpSource, FlowId};
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let cfg = SimConfig::default().frozen().with_queue_packets(4);
        let mut sim = Simulator::new(c, cfg, vec![src, dst]);
        let mut burst = BulkUdpSource::new(DataRate::from_mbps(1), 1000, SimTime::from_nanos(1));
        for f in 0..12u16 {
            burst.push(FlowId(f as u32), dst, 200 + f, 300 + f);
        }
        let ports = burst.src_ports().to_vec();
        sim.add_app_multi(src, &ports, Box::new(burst));
        sim.run_until(SimTime::from_secs(1));
        let s = &sim.stats;
        assert_eq!((s.injected, s.queue_drops, s.delivered), (12, 7, 5), "{s:?}");
        assert_eq!(sim.engine_report().queue.slab_peak, 5, "a refused send was parked");
    }

    /// A mid-run image — queues non-empty, a packet in service, packets on
    /// the wire — is byte for byte what the by-value layout wrote: the
    /// version 2 hash (`0x2fcd_22ca_da82_7830`, 98 027 bytes) was taken
    /// from this fixture at the last commit whose device queues and arrival
    /// events held packets by value (`9153164`); the version 3 pin is that
    /// image less its two-part sections (215 bytes). Slot numbers are not
    /// in an image, so restore → save reproduces it too.
    #[test]
    fn mid_run_image_matches_the_by_value_layout_and_round_trips() {
        use hypatia_util::hash::Fnv1a64;
        let by_value = 0x1d9c_14f8_5f86_13feu64;
        let (mut sim, ..) = every_exit_fixture();
        sim.run_until(SimTime::from_millis(200));
        assert!(sim.devices().iter().any(|d| d.queue_len() > 0));
        let image = sim.checkpoint().expect("checkpoint");
        let mut h = Fnv1a64::new();
        h.write(&image);
        assert_eq!(h.finish(), by_value, "{} bytes", image.len());
        let (mut resumed, ..) = every_exit_fixture();
        resumed.restore(image.clone()).expect("restore");
        assert_eq!(resumed.audit(), [], "restored slab out of balance");
        assert_eq!(resumed.checkpoint().expect("re-checkpoint"), image);
    }

    /// Simulators for the image pins below: bulk UDP tables, or a hybrid
    /// run whose fluid bundles share the path with pings under faults and
    /// GSL loss.
    fn image_fixture(hybrid: bool) -> Simulator {
        use crate::flow::{BulkUdpSink, BulkUdpSource, FlowId};
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let stop = SimTime::from_secs(2);
        if hybrid {
            let (base, build) = resilience_fixture(&c);
            let (mut sim, _) = build(&base.with_sim_mode(SimMode::Hybrid));
            sim.add_fluid_flow(1, dst, src, DataRate::from_mbps(8), 1440, stop);
            return sim;
        }
        let cfg = SimConfig::default().with_gsl_loss(0.02);
        let mut sim = Simulator::new(c.clone(), cfg, vec![src, dst]);
        let mut source = BulkUdpSource::new(DataRate::from_mbps(4), 1000, stop);
        for f in 0..3u16 {
            source.push(FlowId(f as u32), dst, 200 + f, 300 + f);
        }
        sim.add_app_multi(dst, &[300, 301, 302], Box::new(BulkUdpSink::new(vec![0, 1, 2])));
        let ports = source.src_ports().to_vec();
        sim.add_app_multi(src, &ports, Box::new(source));
        sim
    }

    /// Mid-run images of the bulk UDP tables and a hybrid run are byte for
    /// byte what the hand-written per-field codec wrote (hashes taken from
    /// it, re-pinned at version 3 without the two-part sections), and
    /// restore → save reproduces them.
    #[test]
    fn mid_run_image_of_bulk_udp_and_hybrid_is_pinned() {
        use hypatia_util::hash::Fnv1a64;
        for (hybrid, want) in [(false, 0x3bf9_ad33_da95_1f13u64), (true, 0x2be6_7439_996d_2cb0)] {
            let mut sim = image_fixture(hybrid);
            sim.run_until(SimTime::from_millis(900));
            let image = sim.checkpoint().expect("checkpoint");
            let mut h = Fnv1a64::new();
            h.write(&image);
            assert_eq!(h.finish(), want, "hybrid={hybrid}: {} bytes", image.len());
            let mut resumed = image_fixture(hybrid);
            resumed.restore(image.clone()).expect("restore");
            assert_eq!(resumed.checkpoint().expect("re-checkpoint"), image, "hybrid={hybrid}");
        }
    }

    /// Audit mode re-derives conservation from first principles: a healthy
    /// run (live or resumed, any mode) reports zero violations at every
    /// cut, including mid-flight ones with packets in queues.
    #[test]
    fn audit_is_clean_on_live_and_resumed_runs() {
        let c = constellation();
        let (base, build) = resilience_fixture(&c);
        for mode in [SimMode::Packet, SimMode::Hybrid] {
            let cfg = base.clone().with_sim_mode(mode);
            let (mut sim, _) = build(&cfg);
            for ms in [300, 900, 2000] {
                sim.run_until(SimTime::from_millis(ms));
                let violations = sim.audit();
                assert!(violations.is_empty(), "mode={} t={ms}ms: {violations:?}", mode.name());
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
