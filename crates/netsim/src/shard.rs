//! The node executor of the event engine.
//!
//! One `Shard` owns the devices, applications, per-node counters, event
//! queue, trace, and stats of every node, and pops its queue up to the
//! window end the coordinator ([`crate::sim`]) gives it. The coordinator's
//! own events (forwarding swaps, fault updates, fluid boundaries) never
//! enter this queue: they are applied between windows.
//!
//! # Determinism
//!
//! Every event carries a canonical key (see `Shard::alloc_key`) of the form
//! `((origin + 1) << 32) | per-origin counter`, where `origin` is the node
//! whose handler scheduled it; coordinator-level events are applied before
//! the node events of their instant and tag their trace records with keys
//! below `1 << 32`. The queue orders by `(time, key)`, so the per-origin
//! counters, packet ids, loss-RNG draws, and trace tags of a run are a
//! pure function of its spec.

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
use hypatia_routing::forwarding::{ForwardingState, MultipathState};
use hypatia_util::hash::Fnv1a64;
use hypatia_util::rng::DetRng;
use hypatia_util::SimTime;
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

/// An installed application; `app` is `None` only while its own callback
/// runs.
struct AppEntry {
    app: Option<Box<dyn Application>>,
    node: NodeId,
    port: u16,
}

/// The nodes of the simulation, their event queue, and every piece of
/// state their handlers touch.
pub(crate) struct Shard {
    constellation: Arc<Constellation>,
    config: SimConfig,
    pub(crate) now: SimTime,
    queue: EventQueue,
    /// Every packet alive, from `inject` to delivery or drop; arrivals
    /// and device queues hold slots.
    packets: PacketSlab,
    /// Every node, by node index.
    pub(crate) nodes: Vec<Node>,
    /// Installed applications, by app index.
    apps: Vec<AppEntry>,
    fwd: Arc<ForwardingState>,
    mp: Option<Arc<MultipathState>>,
    /// The live fault state; the coordinator applies each schedule entry
    /// at its instant.
    pub(crate) fault_state: Option<FaultState>,
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
    pub(crate) ephemeris: Ephemeris,
    pub(crate) trace: Trace,
    pub(crate) stats: SimStats,
}

impl Shard {
    pub(crate) fn new(
        constellation: Arc<Constellation>,
        config: &SimConfig,
        fwd: Arc<ForwardingState>,
        mp: Option<Arc<MultipathState>>,
    ) -> Shard {
        let num_nodes = constellation.num_nodes();
        let mut nodes: Vec<Node> = (0..num_nodes).map(|i| Node::new(NodeId(i as u32))).collect();
        let device =
            |kind, rate| Device::new(kind, rate, config.queue_packets, config.utilization_bucket);
        for &(a, b) in &constellation.isls {
            let rate = config.effective_isl_rate();
            nodes[a as usize].add_device(device(DeviceKind::Isl { peer: NodeId(b) }, rate));
            nodes[b as usize].add_device(device(DeviceKind::Isl { peer: NodeId(a) }, rate));
        }
        for node in &mut nodes {
            node.add_device(device(DeviceKind::Gsl, config.effective_gsl_rate()));
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
            constellation,
            config: config.clone(),
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
            action_buf: Vec::new(),
            ephemeris,
            trace: Trace::with_sampling(config.trace_limit, config.trace_sample_every),
            stats: SimStats::default(),
        }
    }

    /// Swap in new forwarding (and multipath) state between windows.
    pub(crate) fn set_forwarding(
        &mut self,
        fwd: Arc<ForwardingState>,
        mp: Option<Arc<MultipathState>>,
    ) {
        self.fwd = fwd;
        self.mp = mp;
    }

    /// Apply one fault-schedule entry to the live fault state.
    pub(crate) fn apply_fault(&mut self, event: &FaultEvent) {
        self.fault_state.as_mut().expect("fault event without live state").apply(event);
    }

    /// Set residual device rates pushed by the coordinator's fluid solver
    /// (hybrid mode): each change names a device by `(node, index)` — the
    /// fluid link table numbers devices in the order [`Shard::new`]
    /// attaches them — and the rate it serializes at from now on. A
    /// transmission already in flight keeps the rate it started with
    /// (rates are sampled at `start_tx`).
    pub(crate) fn apply_link_rates(&mut self, changes: &[LinkRate]) {
        for change in changes {
            self.nodes[change.node as usize].devices[change.device as usize].rate = change.rate;
        }
    }

    /// Allocate the canonical key of an event originated by `origin`'s
    /// handler. Keys increase in the origin node's execution order.
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

    /// Install the next application bound to every port in `ports` (bulk
    /// applications own one flow endpoint per port), run its `on_start`,
    /// and return its index. The app's context port is `ports[0]`.
    pub(crate) fn install_app(
        &mut self,
        node: NodeId,
        ports: &[u16],
        app: Box<dyn Application>,
        now: SimTime,
    ) -> u32 {
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
        self.now = self.now.max(now);
        // Setup records sort under a fresh key of the app's node.
        let key = self.alloc_key(node.0);
        self.trace.set_key(key);
        self.with_app(idx, |app, ctx| app.on_start(ctx));
        idx
    }

    /// Number of installed applications.
    pub(crate) fn app_count(&self) -> usize {
        self.apps.len()
    }

    /// Borrow installed application `idx`, downcast to its concrete type.
    pub(crate) fn app_as<T: Application>(&self, idx: u32) -> Option<&T> {
        self.apps.get(idx as usize)?.app.as_ref()?.as_any().downcast_ref::<T>()
    }

    /// Time of the next node event, if any.
    pub(crate) fn next_event_time(&mut self) -> Option<SimTime> {
        self.queue.next_time(&self.packets)
    }

    /// Queue telemetry, with the slab's high-water mark.
    pub(crate) fn queue_stats(&self) -> QueueStats {
        QueueStats { slab_peak: self.packets.peak() as u64, ..self.queue.stats() }
    }

    /// Pop and handle every event due at or before `end_inclusive`.
    pub(crate) fn run_window(&mut self, end_inclusive: SimTime) {
        while let Some(s) = self.queue.pop_slot(end_inclusive, &self.packets) {
            debug_assert!(s.at >= self.now, "time went backwards");
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
        let (at, key) = (self.now + prop, self.alloc_key(node));
        self.queue.schedule_slot(at, key, Tag::Arrival, done.next_hop.0, done.slot as u64);
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
    /// The context borrows the shared action buffer; a callback nested
    /// inside `apply_actions` (a packet delivered on its own source node)
    /// finds the buffer taken and starts an empty one.
    pub(crate) fn with_app(&mut self, idx: u32, f: impl FnOnce(&mut dyn Application, &mut AppCtx)) {
        let entry = &mut self.apps[idx as usize];
        let (node, port) = (entry.node, entry.port);
        let mut app = entry.app.take().expect("re-entrant app dispatch");
        let mut ctx = AppCtx::new(self.now, node, port);
        ctx.actions = std::mem::take(&mut self.action_buf);
        f(app.as_mut(), &mut ctx);
        let mut actions = ctx.take_actions();
        self.apps[idx as usize].app = Some(app);
        self.apply_actions(idx, node, port, &mut actions);
        self.action_buf = actions;
    }

    /// Serialize the nodes' mutable state into a checkpoint body. The
    /// section keeps the layout of the multi-shard images: a shard id
    /// (always 0) and a presence flag per app slot (always set).
    pub(crate) fn save(&self, w: &mut SnapWriter) -> Result<(), CheckpointError> {
        w.put_tag(b"SHRD");
        (0usize, self.now).put(w);

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
        for entry in &self.apps {
            true.put(w);
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

    /// Restore the state captured by [`Shard::save`] into a freshly
    /// rebuilt shard (same constellation, config, and installed
    /// applications). Forwarding state and the fault state are *not*
    /// restored here — the facade recomputes/replays them, since they are
    /// derived deterministically from the spec and the restored clock.
    pub(crate) fn restore(&mut self, r: &mut SnapReader) -> Result<(), CheckpointError> {
        r.expect_tag(b"SHRD")?;
        let id: usize = r.get()?;
        if id != 0 {
            return Err(CheckpointError::Malformed(format!("shard id {id} in a one-shard image")));
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
        for (idx, entry) in self.apps.iter_mut().enumerate() {
            if !r.get::<bool>()? {
                return Err(CheckpointError::Malformed(format!(
                    "app slot {idx} empty in snapshot"
                )));
            }
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
        Ok(())
    }

    /// Reject a restored queue entry that would panic when popped: one due
    /// before the shard clock, at a node that does not exist, on a device
    /// its node lacks, or for an application not installed.
    fn check_pending(&self, at: SimTime, event: &Event) -> Result<(), CheckpointError> {
        let nodes = self.nodes.len();
        let problem = match *event {
            _ if at < self.now => format!("is due before the shard clock {} ns", self.now.nanos()),
            Event::TxComplete { node, .. } | Event::Arrival { node, .. }
                if node as usize >= nodes =>
            {
                format!("names node {node} of {nodes}")
            }
            Event::TxComplete { node, device }
                if device as usize >= self.nodes[node as usize].devices.len() =>
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

    /// Check the nodes' conservation invariants (audit mode): every
    /// packet a device was offered is transmitted, dropped, queued, or
    /// in flight, no queue exceeds its configured capacity, and the slab
    /// holds exactly the packets the devices and pending arrivals hold.
    /// Returns that count: the packets in flight.
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
            out.push(crate::audit::AuditViolation::SlabConservation { t_ns, alive, held });
        }
        held
    }

    /// The pending `Arrival` events: the packets in flight on a wire. The
    /// queue's count of entries, not the slab's occupancy — devices hold
    /// slots too.
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
