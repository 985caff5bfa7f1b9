//! The shard executor of the conservative event engine.
//!
//! The node set is partitioned into spatial `Partition` shards (one, by
//! default, owning every node). Each
//! `Shard` owns the devices, applications, per-node counters, event
//! queue, trace, and stats of its nodes, and executes windows of events
//! independently of every other shard. The only cross-shard interaction is
//! a packet arrival (a transmission whose next hop another shard owns),
//! which is buffered in a per-destination-shard outbox and delivered by
//! the coordinator at the next barrier — safe because the coordinator
//! never opens a window longer than the minimum cross-shard propagation
//! delay (the conservative lookahead), so an arrival can never land
//! inside the window that produced it.
//!
//! # Determinism
//!
//! Every event carries a canonical key (see `Shard::alloc_key`) of the form
//! `((origin + 1) << 32) | per-origin counter`, where `origin` is the node
//! whose handler scheduled it; coordinator-level events (forwarding swaps,
//! fault updates, fluid boundaries) are applied before the node events of
//! their instant and tag their trace records with keys below `1 << 32`.
//! Queues order by `(time, key)`, so each node's handlers run in an order
//! independent of how nodes are grouped into shards — which makes the
//! per-origin counters, packet ids, loss-RNG draws, and trace tags of a
//! run bit-identical at every `sim_shards`.

use crate::app::{AppAction, AppCtx, Application};
use crate::checkpoint::{CheckpointError, Snap, SnapReader, SnapWriter};
use crate::config::SimConfig;
use crate::device::{Device, DeviceKind, Queued};
use crate::event::{pack, unpack, Event, EventQueue, PacketSlab, QueueStats, Tag};
use crate::fluid::LinkRate;
use crate::node::Node;
use crate::packet::{flow_hash, packet_id, Packet, Payload};
use crate::stats::SimStats;
use crate::trace::{Trace, TraceKind};
use hypatia_constellation::{Constellation, Ephemeris, NodeId};
use hypatia_fault::{FaultEvent, FaultState};
use hypatia_orbit::geodesy::propagation_delay_km;
use hypatia_routing::forwarding::{ForwardingState, MultipathState};
use hypatia_util::hash::Fnv1a64;
use hypatia_util::rng::DetRng;
use hypatia_util::{SimDuration, SimTime};
use std::sync::Arc;

/// Canonical key of a forwarding-state swap: sorts before every other
/// same-instant event.
pub(crate) const FORWARDING_KEY: u64 = 0;

/// Canonical key of fault-schedule entry `index`: after the forwarding
/// swap, before any node event, in schedule order.
pub(crate) fn fault_key(index: u64) -> u64 {
    1 + index
}

/// Canonical key of fluid-boundary `index`: after every same-instant
/// forwarding/fault key, before any node event (node keys start at
/// `1 << 32`). Boundary schedules stay far below `2^31` entries.
pub(crate) fn fluid_key(index: u64) -> u64 {
    debug_assert!(index < 1 << 31, "fluid boundary index overflows its key range");
    (1 << 31) + index
}

/// Upper bound on relative speed between any two nodes, km/s (two LEO
/// satellites head-on; ground stations are far slower). Used to shrink the
/// lookahead window so distances measured at the window start stay valid
/// throughout it.
const MAX_RELATIVE_SPEED_KM_S: f64 = 16.0;

/// The spatial partition of the node set.
///
/// Satellites are split into contiguous id ranges — satellite ids are
/// plane-major, so ranges are blocks of adjacent orbital planes and most
/// ISLs (intra-plane, and inter-plane within a block) stay shard-local.
/// Ground stations are dealt round-robin; their cross-shard lookahead
/// bound is the shell altitude, which their shard assignment cannot
/// change.
#[derive(Debug)]
pub(crate) struct Partition {
    /// Owning shard of each node, by node index.
    owner: Vec<u32>,
    shards: usize,
    /// ISL pairs whose endpoints live on different shards — the dynamic
    /// part of the lookahead bound, re-measured each epoch.
    cross_isls: Vec<(NodeId, NodeId)>,
    /// Static lower bound on any cross-shard GSL distance (the minimum
    /// shell altitude, minus slack for geodetic-radius differences), or
    /// `+inf` when no ground stations exist.
    gsl_bound_km: f64,
}

impl Partition {
    /// Partition `constellation` into (at most) `requested` shards.
    pub(crate) fn new(constellation: &Constellation, requested: usize) -> Partition {
        let n_sats = constellation.num_satellites();
        let shards = requested.max(1).min(n_sats.max(1));
        let mut owner = vec![0u32; constellation.num_nodes()];
        for (s, o) in owner.iter_mut().enumerate().take(n_sats) {
            *o = (s * shards / n_sats) as u32;
        }
        for g in 0..constellation.num_ground_stations() {
            owner[n_sats + g] = (g % shards) as u32;
        }
        let cross_isls = constellation
            .isls
            .iter()
            .filter(|&&(a, b)| owner[a as usize] != owner[b as usize])
            .map(|&(a, b)| (NodeId(a), NodeId(b)))
            .collect();
        let gsl_bound_km = if shards > 1 && constellation.num_ground_stations() > 0 {
            let min_alt =
                constellation.shells.iter().map(|s| s.altitude_km).fold(f64::INFINITY, f64::min);
            // A satellite at altitude h is never closer than h to the
            // ground; 30 km of slack covers the spherical-vs-ellipsoidal
            // radius difference in the two position models.
            (min_alt - 30.0).max(50.0)
        } else {
            f64::INFINITY
        };
        Partition { owner, shards, cross_isls, gsl_bound_km }
    }

    /// Number of shards (≥ 1; `requested` clamped to the satellite count).
    pub(crate) fn shards(&self) -> usize {
        self.shards
    }

    /// Owning shard of `node`.
    pub(crate) fn owner(&self, node: NodeId) -> usize {
        self.owner[node.index()] as usize
    }

    /// Conservative lookahead window with geometry evaluated at `geom_t`:
    /// no transmission started inside a window of this length can arrive
    /// on another shard before the window ends. `None` when no
    /// cross-shard link exists at all (windows may then be unbounded).
    ///
    /// Derivation: a cross-shard hop spans at least
    /// `d_min(geom_t) − v_rel · w` km at any instant of a window of
    /// length `w`, so `w ≤ d_min / (c + v_rel)` guarantees
    /// `arrival = t + d/c ≥ window end`. Since `v_rel ≪ c`, shaving 0.1%
    /// off the propagation delay of `d_min` more than covers the motion
    /// term.
    pub(crate) fn lookahead_at(
        &self,
        constellation: &Constellation,
        geom_t: SimTime,
    ) -> Option<SimDuration> {
        let d_min = self.gsl_bound_km.min(constellation.min_distance_km(&self.cross_isls, geom_t));
        if !d_min.is_finite() {
            return None;
        }
        let margin =
            (1.0 - MAX_RELATIVE_SPEED_KM_S / hypatia_util::constants::C_VACUUM_KM_PER_S).min(0.999);
        let ns = (propagation_delay_km(d_min.max(0.0)).nanos() as f64 * margin) as u64;
        Some(SimDuration::from_nanos(ns.max(1)))
    }
}

/// A cross-shard packet arrival, parked in an outbox until the barrier.
#[derive(Debug)]
pub(crate) struct Outbound {
    pub(crate) at: SimTime,
    pub(crate) key: u64,
    pub(crate) node: u32,
    pub(crate) packet: Packet,
}

pub(crate) struct AppEntry {
    pub(crate) app: Option<Box<dyn Application>>,
    pub(crate) node: NodeId,
    pub(crate) port: u16,
}

/// One shard of the simulation: the nodes it owns, their event queue, and
/// every piece of state their handlers touch.
pub(crate) struct Shard {
    pub(crate) id: usize,
    constellation: Arc<Constellation>,
    config: SimConfig,
    partition: Arc<Partition>,
    pub(crate) now: SimTime,
    queue: EventQueue,
    /// Every packet alive on this shard, from `inject` (or [`Shard::accept`])
    /// to delivery, drop or hand-off; arrivals and device queues hold slots.
    packets: PacketSlab,
    /// Full-size node vector; devices and port bindings exist only on
    /// owned nodes (events are only ever dispatched at owned nodes).
    pub(crate) nodes: Vec<Node>,
    /// Sparse application table indexed by global app id; only apps on
    /// owned nodes are populated.
    apps: Vec<Option<AppEntry>>,
    fwd: Arc<ForwardingState>,
    mp: Option<Arc<MultipathState>>,
    /// This shard's replica of the live fault state; every schedule entry
    /// is applied to every shard at the barrier it falls on.
    pub(crate) fault_state: Option<FaultState>,
    /// Per-origin-node event-key counters (canonical key low bits).
    node_key_seq: Vec<u32>,
    /// Per-origin-node packet-id counters.
    node_packet_seq: Vec<u32>,
    /// Per-node GSL loss processes, seeded from `(loss_seed, node)` so
    /// draws are independent of cross-node event interleaving.
    loss_rngs: Vec<DetRng>,
    /// Cross-shard arrivals produced this window, by destination shard.
    pub(crate) outbox: Vec<Vec<Outbound>>,
    /// The action buffer lent to each application callback's context, so
    /// a callback costs no allocation.
    action_buf: Vec<AppAction>,
    /// Satellite samples behind every device's link memo. Invisible to
    /// results (delays are exact whatever either holds), so it is neither
    /// checkpointed nor shared between shards.
    pub(crate) ephemeris: Ephemeris,
    pub(crate) trace: Trace,
    pub(crate) stats: SimStats,
}

impl Shard {
    pub(crate) fn new(
        id: usize,
        constellation: Arc<Constellation>,
        config: &SimConfig,
        partition: Arc<Partition>,
        fwd: Arc<ForwardingState>,
        mp: Option<Arc<MultipathState>>,
    ) -> Shard {
        let num_nodes = constellation.num_nodes();
        let mut nodes: Vec<Node> = (0..num_nodes).map(|i| Node::new(NodeId(i as u32))).collect();
        for &(a, b) in &constellation.isls {
            if partition.owner(NodeId(a)) == id {
                nodes[a as usize].add_device(Device::new(
                    DeviceKind::Isl { peer: NodeId(b) },
                    config.effective_isl_rate(),
                    config.queue_packets,
                    config.utilization_bucket,
                ));
            }
            if partition.owner(NodeId(b)) == id {
                nodes[b as usize].add_device(Device::new(
                    DeviceKind::Isl { peer: NodeId(a) },
                    config.effective_isl_rate(),
                    config.queue_packets,
                    config.utilization_bucket,
                ));
            }
        }
        for (i, node) in nodes.iter_mut().enumerate() {
            if partition.owner(NodeId(i as u32)) == id {
                node.add_device(Device::new(
                    DeviceKind::Gsl,
                    config.effective_gsl_rate(),
                    config.queue_packets,
                    config.utilization_bucket,
                ));
            }
        }
        let loss_rngs = (0..num_nodes)
            .map(|i| {
                let mut h = Fnv1a64::new();
                h.write_u64(config.loss_seed);
                h.write_u32(i as u32);
                DetRng::new(h.finish())
            })
            .collect();
        let fault_state = config.faults.as_ref().map(|s| FaultState::at(s, SimTime::ZERO));
        let ephemeris = Ephemeris::new(&constellation);
        Shard {
            id,
            constellation,
            config: config.clone(),
            partition,
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            packets: PacketSlab::default(),
            nodes,
            apps: Vec::new(),
            fwd,
            mp,
            fault_state,
            node_key_seq: vec![0; num_nodes],
            node_packet_seq: vec![0; num_nodes],
            loss_rngs,
            outbox: Vec::new(),
            action_buf: Vec::new(),
            ephemeris,
            trace: Trace::with_sampling(config.trace_limit, config.trace_sample_every),
            stats: SimStats::default(),
        }
    }

    /// Size the outbox for `shards` destinations (once, by the facade).
    pub(crate) fn init_outbox(&mut self, shards: usize) {
        self.outbox = (0..shards).map(|_| Vec::new()).collect();
    }

    /// Swap in new forwarding (and multipath) state at a barrier.
    pub(crate) fn set_forwarding(
        &mut self,
        fwd: Arc<ForwardingState>,
        mp: Option<Arc<MultipathState>>,
    ) {
        self.fwd = fwd;
        self.mp = mp;
    }

    /// Apply one fault-schedule entry to this shard's replica.
    pub(crate) fn apply_fault(&mut self, event: &FaultEvent) {
        self.fault_state.as_mut().expect("fault event without live state").apply(event);
    }

    /// Set residual device rates pushed by the coordinator's fluid solver
    /// (hybrid mode): each change names a device by `(node, index)` — the
    /// fluid link table numbers devices in the order [`Shard::new`]
    /// attaches them — and the rate it serializes at from now on.
    /// Non-owned nodes are skipped, so broadcasting the full change set
    /// to every shard is correct. A transmission already in flight keeps
    /// the rate it started with (rates are sampled at `start_tx`), which
    /// is the same at every shard count because changes apply at
    /// canonical instants.
    pub(crate) fn apply_link_rates(&mut self, changes: &[LinkRate]) {
        for change in changes {
            if self.partition.owner(NodeId(change.node)) == self.id {
                self.nodes[change.node as usize].devices[change.device as usize].rate = change.rate;
            }
        }
    }

    /// Allocate the canonical key of an event originated by `origin`'s
    /// handler. Keys increase in the origin node's execution order, which
    /// is shard-count-independent.
    fn alloc_key(&mut self, origin: u32) -> u64 {
        let seq = self.node_key_seq[origin as usize];
        self.node_key_seq[origin as usize] = seq.checked_add(1).expect("node key space exhausted");
        ((origin as u64 + 1) << 32) | seq as u64
    }

    fn alloc_packet_id(&mut self, origin: u32) -> u64 {
        let seq = self.node_packet_seq[origin as usize];
        self.node_packet_seq[origin as usize] =
            seq.checked_add(1).expect("packet id space exhausted");
        packet_id(NodeId(origin), seq)
    }

    /// Install application `idx` at `(node, port)` and run its `on_start`.
    pub(crate) fn install_app(
        &mut self,
        idx: u32,
        node: NodeId,
        port: u16,
        app: Box<dyn Application>,
        now: SimTime,
    ) {
        self.install_app_multi(idx, node, &[port], app, now);
    }

    /// Install application `idx` bound to every port in `ports` (bulk
    /// applications owning one flow endpoint per port) and run its
    /// `on_start`. The app's context port is `ports[0]`.
    pub(crate) fn install_app_multi(
        &mut self,
        idx: u32,
        node: NodeId,
        ports: &[u16],
        app: Box<dyn Application>,
        now: SimTime,
    ) {
        assert!(!ports.is_empty(), "an application needs at least one port");
        while self.apps.len() <= idx as usize {
            self.apps.push(None);
        }
        for &port in ports {
            self.nodes[node.index()].bind_port(port, idx);
        }
        if let Some((flows, bytes)) = app.flow_footprint() {
            self.stats.flow_count += flows;
            self.stats.flow_state_bytes += bytes;
        }
        self.apps[idx as usize] = Some(AppEntry { app: Some(app), node, port: ports[0] });
        self.now = self.now.max(now);
        // Setup records sort under a fresh key of the app's node.
        let key = self.alloc_key(node.0);
        self.trace.set_key(key);
        self.with_app(idx, |app, ctx| app.on_start(ctx));
    }

    /// Borrow installed application `idx`, downcast to its concrete type.
    pub(crate) fn app_as<T: Application>(&self, idx: u32) -> Option<&T> {
        self.apps.get(idx as usize)?.as_ref()?.app.as_ref()?.as_any().downcast_ref::<T>()
    }

    /// Time of this shard's next event, if any.
    pub(crate) fn next_event_time(&mut self) -> Option<SimTime> {
        self.queue.next_time(&self.packets)
    }

    /// Queue telemetry, with the slab's high-water mark.
    pub(crate) fn queue_stats(&self) -> QueueStats {
        QueueStats { slab_peak: self.packets.peak() as u64, ..self.queue.stats() }
    }

    /// Land a cross-shard arrival handed over at a barrier.
    pub(crate) fn accept(&mut self, o: Outbound) {
        let slot = self.packets.park(o.packet);
        self.queue.schedule_slot(o.at, o.key, Tag::Arrival, o.node, slot as u64);
    }

    /// Pop and handle every event due at or before `end_inclusive`.
    /// Cross-shard arrivals land in [`Shard::outbox`]; everything else is
    /// shard-local.
    pub(crate) fn run_window(&mut self, end_inclusive: SimTime) {
        while let Some(s) = self.queue.pop_slot(end_inclusive, &self.packets) {
            debug_assert!(s.at >= self.now, "time went backwards on shard {}", self.id);
            self.now = s.at;
            self.stats.events += 1;
            self.trace.set_key(s.key);
            match s.tag {
                Tag::Arrival => self.arrival(s.a, s.b as u32),
                Tag::TxComplete => self.tx_complete(s.a, s.b as u32),
                Tag::AppTimer => self.with_app(s.a, |a, ctx| a.on_timer(ctx, s.b)),
            }
        }
    }

    /// Trace `kind` for the packet in `slot` (read only when tracing is on).
    #[inline]
    fn trace_packet(&mut self, node: u32, slot: u32, kind: TraceKind) {
        if self.trace.enabled() {
            let p = &self.packets[slot];
            self.trace.record_flow(self.now, NodeId(node), p.id, p.flow_hash, kind);
        }
    }

    /// The packet in `slot` is lost at `node` (the caller counted why).
    fn drop_packet(&mut self, node: u32, slot: u32, kind: TraceKind) {
        self.trace_packet(node, slot, kind);
        self.packets.free(slot);
    }

    fn arrival(&mut self, node: u32, slot: u32) {
        debug_assert_eq!(self.partition.owner(NodeId(node)), self.id, "arrival on wrong shard");
        // A packet propagating towards a satellite that failed mid-flight
        // is lost with it. Ground-station nodes never fail (weather only
        // attenuates their GSLs), so they always receive.
        if let Some(f) = &self.fault_state {
            if self.constellation.is_satellite(NodeId(node)) && f.satellite_down(node as usize) {
                self.stats.fault_drops += 1;
                return self.drop_packet(node, slot, TraceKind::FaultDrop);
            }
        }
        self.stats.hop_deliveries += 1;
        self.trace_packet(node, slot, TraceKind::Arrive);
        self.process_at_node(node, slot);
    }

    /// Is the directed hop `a -> b` usable under the live fault state?
    fn link_up(&self, a: NodeId, b: NodeId) -> bool {
        let Some(f) = &self.fault_state else { return true };
        if f.all_up() {
            return true;
        }
        let n_sats = self.constellation.num_satellites();
        match (self.constellation.is_satellite(a), self.constellation.is_satellite(b)) {
            (true, true) => f.isl_link_up(a.0, b.0),
            (true, false) => f.gsl_link_up(a.index(), b.index() - n_sats),
            (false, true) => f.gsl_link_up(b.index(), a.index() - n_sats),
            // GS <-> GS links do not exist in the topology.
            (false, false) => true,
        }
    }

    /// A packet is at `node`: deliver locally or forward.
    fn process_at_node(&mut self, node: u32, slot: u32) {
        if self.packets[slot].dst.0 == node {
            self.deliver(node, slot);
        } else {
            self.forward(node, slot);
        }
    }

    fn deliver(&mut self, node: u32, slot: u32) {
        self.stats.delivered += 1;
        self.trace_packet(node, slot, TraceKind::Deliver);
        let packet = self.packets.take(slot);
        self.stats.payload_bytes_delivered += packet.payload_bytes() as u64;
        match packet.payload {
            // Kernel-style echo: answer pings without an application.
            Payload::Ping { seq } => {
                self.stats.pings_echoed += 1;
                let pong = Packet {
                    id: self.alloc_packet_id(node),
                    src: NodeId(node),
                    dst: packet.src,
                    src_port: packet.dst_port,
                    dst_port: packet.src_port,
                    size_bytes: packet.size_bytes,
                    payload: Payload::Pong { seq, ping_injected_at: packet.injected_at },
                    injected_at: self.now,
                    hops: 0,
                    flow_hash: 0, // stamped by inject
                };
                self.inject(pong);
            }
            _ => match self.nodes[node as usize].app_on_port(packet.dst_port) {
                Some(app) => self.with_app(app, |a, ctx| a.on_packet(ctx, &packet)),
                None => self.stats.unclaimed += 1,
            },
        }
    }

    fn forward(&mut self, node: u32, slot: u32) {
        let p = &self.packets[slot];
        let (dst, size_bytes) = (p.dst, p.size_bytes);
        // `flow_hash` was computed once at injection; forwarding a packet
        // costs no hashing at all.
        let chosen = match &self.mp {
            Some(mp) => mp.next_hop(NodeId(node), dst, p.flow_hash),
            None => self.fwd.next_hop(NodeId(node), dst),
        };
        let Some(next_hop) = chosen else {
            self.stats.routing_drops += 1;
            return self.drop_packet(node, slot, TraceKind::RoutingDrop);
        };
        // Between a fault event and the next forwarding recomputation the
        // state may still point into a failed component: those packets are
        // lost (the paper's lossless-handoff rule covers reassignment, not
        // destruction of the link).
        if !self.link_up(NodeId(node), next_hop) {
            self.stats.fault_drops += 1;
            return self.drop_packet(node, slot, TraceKind::FaultDrop);
        }
        let Some(dev_idx) = self.nodes[node as usize].device_for(next_hop) else {
            self.stats.routing_drops += 1;
            return self.drop_packet(node, slot, TraceKind::RoutingDrop);
        };
        let queued = Queued { slot, next_hop, size_bytes };
        match self.nodes[node as usize].devices[dev_idx].enqueue(queued, self.now) {
            Ok(Some(ser)) => {
                let key = self.alloc_key(node);
                let device = dev_idx as u64;
                self.queue.schedule_slot(self.now + ser, key, Tag::TxComplete, node, device);
            }
            Ok(None) => {}
            Err(slot) => {
                self.stats.queue_drops += 1;
                self.drop_packet(node, slot, TraceKind::QueueDrop);
            }
        }
    }

    fn tx_complete(&mut self, node: u32, device: u32) {
        let dev = &mut self.nodes[node as usize].devices[device as usize];
        let is_gsl = matches!(dev.kind, DeviceKind::Gsl);
        let (done, next) = dev.tx_complete(self.now);
        if let Some(ser) = next {
            let key = self.alloc_key(node);
            self.queue.schedule_slot(self.now + ser, key, Tag::TxComplete, node, device as u64);
        }
        // The link may have been cut while the packet serialized: it never
        // makes it onto the channel. The device keeps draining — each
        // queued packet is judged at its own transmission instant.
        if !self.link_up(NodeId(node), done.next_hop) {
            self.stats.fault_drops += 1;
            return self.drop_packet(node, done.slot, TraceKind::FaultDrop);
        }
        // Channel impairment: GSL transmissions may be lost (weather model
        // stand-in; disabled by default).
        if is_gsl
            && self.config.gsl_loss_rate > 0.0
            && self.loss_rngs[node as usize].next_f64() < self.config.gsl_loss_rate
        {
            self.stats.channel_drops += 1;
            return self.drop_packet(node, done.slot, TraceKind::ChannelDrop);
        }
        // Propagation from live geometry — frozen runs pin geometry to t=0.
        let geom_t = if self.config.freeze_at_epoch { SimTime::ZERO } else { self.now };
        let fit = &mut self.nodes[node as usize].devices[device as usize].fit;
        let prop =
            self.ephemeris.delay(fit, &self.constellation, NodeId(node), done.next_hop, geom_t);
        self.packets[done.slot].hops += 1;
        let at = self.now + prop;
        let key = self.alloc_key(node);
        let dst_shard = self.partition.owner(done.next_hop);
        if dst_shard == self.id {
            self.queue.schedule_slot(at, key, Tag::Arrival, done.next_hop.0, done.slot as u64);
        } else {
            let packet = self.packets.take(done.slot);
            self.outbox[dst_shard].push(Outbound { at, key, node: done.next_hop.0, packet });
        }
    }

    /// Put a freshly-created packet into the network at its source node:
    /// the one time it is written, flow hash included — never per hop.
    fn inject(&mut self, mut packet: Packet) {
        packet.flow_hash = flow_hash(packet.src, packet.dst, packet.src_port, packet.dst_port);
        self.stats.injected += 1;
        let (src, slot) = (packet.src.0, self.packets.park(packet));
        self.trace_packet(src, slot, TraceKind::Inject);
        self.process_at_node(src, slot);
    }

    /// Run `f` on app `idx` with a fresh context, then apply its actions.
    /// The context borrows the shard's action buffer; a callback nested
    /// inside `apply_actions` (a packet delivered on its own source node)
    /// finds the buffer taken and starts an empty one.
    pub(crate) fn with_app(&mut self, idx: u32, f: impl FnOnce(&mut dyn Application, &mut AppCtx)) {
        let (node, port) = {
            let entry = self.apps[idx as usize].as_ref().expect("app on wrong shard");
            (entry.node, entry.port)
        };
        let mut app = self.apps[idx as usize]
            .as_mut()
            .expect("app on wrong shard")
            .app
            .take()
            .expect("re-entrant app dispatch");
        let mut ctx = AppCtx::new(self.now, node, port);
        ctx.actions = std::mem::take(&mut self.action_buf);
        f(app.as_mut(), &mut ctx);
        let mut actions = ctx.take_actions();
        self.apps[idx as usize].as_mut().expect("app slot vanished").app = Some(app);
        self.apply_actions(idx, node, port, &mut actions);
        self.action_buf = actions;
    }

    /// Serialize this shard's mutable state into a checkpoint body.
    ///
    /// Only called at a barrier, where the outbox is empty by the engine's
    /// window invariant — a populated outbox is a logic error and is
    /// rejected rather than silently dropped.
    pub(crate) fn save(&self, w: &mut SnapWriter) -> Result<(), CheckpointError> {
        if self.outbox.iter().any(|ob| !ob.is_empty()) {
            return Err(CheckpointError::Malformed(format!(
                "shard {} has undelivered cross-shard packets at a checkpoint barrier",
                self.id
            )));
        }
        w.put_tag(b"SHRD");
        (self.id, self.now).put(w);

        w.put_tag(b"EVTQ");
        let entries = self.queue.pending_slots();
        entries.len().put(w);
        for s in &entries {
            (s.at, s.key, unpack(s, |slot| self.packets[slot])).put(w);
        }

        w.put_tag(b"NODS");
        self.nodes.len().put(w);
        for node in &self.nodes {
            node.devices.len().put(w);
            node.devices.iter().for_each(|device| device.save(w, &self.packets));
        }

        w.put_tag(b"APPS");
        self.apps.len().put(w);
        for slot in &self.apps {
            slot.is_some().put(w);
            if let Some(entry) = slot {
                let app = entry.app.as_ref().ok_or_else(|| {
                    CheckpointError::Malformed("checkpoint during app dispatch".into())
                })?;
                app.save_state(w)?;
            }
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

    /// Restore the state captured by [`Shard::save`] into a freshly
    /// rebuilt shard (same constellation, config, partition, and installed
    /// applications). Forwarding state and the fault replica are *not*
    /// restored here — the facade recomputes/replays them, since they are
    /// derived deterministically from the spec and the restored clock.
    pub(crate) fn restore(&mut self, r: &mut SnapReader) -> Result<(), CheckpointError> {
        r.expect_tag(b"SHRD")?;
        let id: usize = r.get()?;
        if id != self.id {
            return Err(CheckpointError::Malformed(format!(
                "shard id mismatch: snapshot has {id}, rebuilt shard is {}",
                self.id
            )));
        }
        self.now.restore(r)?;

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
        for node in &mut self.nodes {
            r.expect_len(node.devices.len(), format_args!("devices on node {}", node.id.0))?;
            for device in &mut node.devices {
                device.restore(r, &mut self.packets)?;
            }
        }

        r.expect_tag(b"APPS")?;
        r.expect_len(self.apps.len(), "app slots")?;
        for (idx, slot) in self.apps.iter_mut().enumerate() {
            match (slot, r.get()?) {
                (Some(entry), true) => {
                    let app = entry.app.as_mut().ok_or_else(|| {
                        CheckpointError::Malformed("restore during app dispatch".into())
                    })?;
                    app.restore_state(r)?;
                }
                (None, false) => {}
                _ => {
                    return Err(CheckpointError::Malformed(format!(
                        "app slot {idx} presence mismatch between snapshot and rebuild"
                    )));
                }
            }
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
        for ob in &mut self.outbox {
            ob.clear();
        }
        Ok(())
    }

    /// Reject a restored queue entry that would panic when popped: one due
    /// before the shard clock, at a node this shard does not own, on a
    /// device its node lacks, or for an application slot empty here.
    fn check_pending(&self, at: SimTime, event: &Event) -> Result<(), CheckpointError> {
        let owned = |node: u32| {
            (node as usize) < self.nodes.len() && self.partition.owner(NodeId(node)) == self.id
        };
        let problem = match *event {
            _ if at < self.now => format!("is due before the shard clock {} ns", self.now.nanos()),
            Event::TxComplete { node, .. } | Event::Arrival { node, .. } if !owned(node) => {
                format!("names node {node}, not owned by shard {}", self.id)
            }
            Event::TxComplete { node, device }
                if device as usize >= self.nodes[node as usize].devices.len() =>
            {
                format!("names device {device} of node {node}")
            }
            Event::AppTimer { app, .. }
                if !self.apps.get(app as usize).is_some_and(Option::is_some) =>
            {
                format!("names app slot {app}, empty on shard {}", self.id)
            }
            _ => return Ok(()),
        };
        Err(CheckpointError::Malformed(format!("queue entry at {} ns {problem}", at.nanos())))
    }

    /// Check this shard's conservation invariants (audit mode): every
    /// packet a device was offered is transmitted, dropped, queued, or
    /// in flight, no queue exceeds its configured capacity, and the slab
    /// holds exactly the packets the devices and pending arrivals hold.
    /// Returns that count: the shard's share of the packets in flight.
    pub(crate) fn audit(&self, out: &mut Vec<crate::audit::AuditViolation>) -> u64 {
        let t_ns = self.now.nanos();
        let mut held = self.in_flight_arrivals();
        for node in &self.nodes {
            for (d, device) in node.devices.iter().enumerate() {
                held += device.occupancy();
                let s = &device.stats;
                let accounted = s.packets_tx + s.drops + device.occupancy();
                if s.packets_in != accounted {
                    out.push(crate::audit::AuditViolation::DeviceConservation {
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
                    out.push(crate::audit::AuditViolation::QueueOverCapacity {
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
            let shard = self.id as u32;
            out.push(crate::audit::AuditViolation::SlabConservation { t_ns, shard, alive, held });
        }
        held
    }

    /// This shard's pending `Arrival` events: the packets in flight on a
    /// wire towards its nodes. The queue's count of entries, not the
    /// slab's occupancy — devices hold slots too.
    pub(crate) fn in_flight_arrivals(&self) -> u64 {
        self.queue.pending_arrivals() as u64
    }

    fn apply_actions(
        &mut self,
        app_idx: u32,
        node: NodeId,
        port: u16,
        actions: &mut Vec<AppAction>,
    ) {
        for action in actions.drain(..) {
            let (src_port, dst, dst_port, size_bytes, payload) = match action {
                AppAction::Send { dst, dst_port, size_bytes, payload } => {
                    (port, dst, dst_port, size_bytes, payload)
                }
                AppAction::SendFrom { src_port, dst, dst_port, size_bytes, payload } => {
                    (src_port, dst, dst_port, size_bytes, payload)
                }
                AppAction::Timer { delay, timer_id } => {
                    let (at, key) = (self.now + delay, self.alloc_key(node.0));
                    self.queue.schedule_slot(at, key, Tag::AppTimer, app_idx, timer_id);
                    continue;
                }
            };
            let packet = Packet {
                id: self.alloc_packet_id(node.0),
                src: node,
                dst,
                src_port,
                dst_port,
                size_bytes,
                payload,
                injected_at: self.now,
                hops: 0,
                flow_hash: 0, // stamped by inject
            };
            self.inject(packet);
        }
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
            "shardtest",
            vec![ShellSpec::new("A", 550.0, 6, 8, 53.0)],
            IslLayout::PlusGrid,
            vec![GroundStation::new("a", 5.0, 5.0), GroundStation::new("b", -10.0, 60.0)],
            GslConfig::new(10.0),
        )
    }

    #[test]
    fn partition_covers_every_node_and_clamps() {
        let c = constellation();
        for requested in [1, 2, 4, 8, 1000] {
            let p = Partition::new(&c, requested);
            assert!(p.shards() >= 1 && p.shards() <= c.num_satellites().max(1));
            assert!(p.shards() <= requested.max(1));
            // Every shard owns at least one satellite (contiguous ranges
            // of `i * shards / n` are never empty when shards <= n).
            let mut seen = vec![false; p.shards()];
            for s in 0..c.num_satellites() {
                seen[p.owner(c.sat_node(s))] = true;
            }
            assert!(seen.iter().all(|&s| s), "empty shard at requested={requested}");
            for g in 0..c.num_ground_stations() {
                assert!(p.owner(c.gs_node(g)) < p.shards());
            }
        }
    }

    #[test]
    fn satellite_partition_is_contiguous() {
        let c = constellation();
        let p = Partition::new(&c, 4);
        let owners: Vec<usize> = (0..c.num_satellites()).map(|s| p.owner(c.sat_node(s))).collect();
        for w in owners.windows(2) {
            assert!(w[0] <= w[1], "satellite shard ids must be non-decreasing: {owners:?}");
        }
    }

    #[test]
    fn lookahead_bounded_by_cross_shard_geometry() {
        let c = constellation();
        let single = Partition::new(&c, 1);
        // One shard: no cross-shard links, unbounded lookahead.
        assert!(single.lookahead_at(&c, SimTime::ZERO).is_none());

        let p = Partition::new(&c, 4);
        let w = p.lookahead_at(&c, SimTime::ZERO).expect("cross-shard links exist");
        // The window can never exceed the GSL bound (520 km ≈ 1.73 ms)
        // and must stay a useful parallel window (≥ 100 µs).
        assert!(w <= propagation_delay_km(520.0), "window too long: {w:?}");
        assert!(w >= SimDuration::from_micros(100), "window collapsed: {w:?}");

        // The window is a lower bound on every cross-shard ISL's
        // propagation delay at the measurement instant.
        for &(a, b) in &p.cross_isls {
            let prop = propagation_delay_km(c.distance_km(a, b, SimTime::ZERO));
            assert!(w <= prop, "window {w:?} exceeds cross-shard ISL delay {prop:?}");
        }
    }
}
