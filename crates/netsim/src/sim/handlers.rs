//! The node event handlers: what a packet arrival, a finished
//! transmission and an application timer do at a node, and how an
//! application's actions enter the network.

use super::Simulator;
use crate::app::{AppAction, AppCtx, Application};
use crate::device::{DeviceKind, Queued};
use crate::event::Tag;
use crate::packet::{flow_hash, packet_id, Packet, Payload};
use crate::trace::TraceKind;
use hypatia_constellation::NodeId;
use hypatia_util::SimTime;

impl Simulator {
    /// Allocate the canonical key of an event originated by `origin`'s
    /// handler. Keys increase in the origin node's execution order.
    pub(super) fn alloc_key(&mut self, origin: u32) -> u64 {
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

    /// Pop and handle every node event due at or before `end_inclusive`.
    pub(super) fn run_window(&mut self, end_inclusive: SimTime) {
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
    pub(super) fn with_app(&mut self, idx: u32, f: impl FnOnce(&mut dyn Application, &mut AppCtx)) {
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
