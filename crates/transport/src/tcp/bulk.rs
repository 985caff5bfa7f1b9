//! Arena flow tables for TCP: many connections in one application slot.
//!
//! The classic layout installs one boxed [`TcpSender`]/[`TcpSink`] per
//! flow, each bound to its own port. At a million flows the per-app
//! overhead (box, app-table entry, event key) dominates memory and
//! install time. [`BulkTcpSender`] and [`BulkTcpSink`] instead hold a
//! `Vec` of protocol endpoints inside a *single* application installed
//! with [`add_app_multi`](hypatia_netsim::sim::Simulator::add_app_multi)
//! on all of the flows' ports, and demultiplex:
//!
//! * **packets** by destination port, via a sorted `(port → index)` table
//!   and binary search;
//! * **timers** by packing the flow index into the high 32 bits of the
//!   timer id (the netsim `timer_tag` mechanism) and handing the inner
//!   endpoint its untagged low 32 bits.
//!
//! The exact same protocol code runs per flow — the wrappers only route —
//! so a bulk table is event-for-event identical to the equivalent set of
//! per-flow apps. The tag split assumes inner timer generations stay
//! below 2^32, which holds for any simulation short of ~4 billion RTO or
//! delayed-ACK arms per flow.

use crate::tcp::cc::CongestionControl;
use crate::tcp::config::TcpConfig;
use crate::tcp::sender::TcpSender;
use crate::tcp::sink::TcpSink;
use hypatia_constellation::NodeId;
use hypatia_netsim::app::{AppCtx, Application};
use hypatia_netsim::packet::Packet;

/// Sorted `(port, index)` demux table shared by both wrappers.
fn lookup(ports: &[(u16, u32)], port: u16) -> Option<usize> {
    ports.binary_search_by_key(&port, |&(p, _)| p).ok().map(|i| ports[i].1 as usize)
}

fn insert(ports: &mut Vec<(u16, u32)>, port: u16, idx: u32) {
    match ports.binary_search_by_key(&port, |&(p, _)| p) {
        Ok(_) => panic!("duplicate bulk flow port {port}"),
        Err(at) => ports.insert(at, (port, idx)),
    }
}

/// Many [`TcpSender`]s in one application slot, demuxed by the source
/// port each flow sends from (which is where its ACKs return).
#[derive(Default)]
pub struct BulkTcpSender {
    flows: Vec<TcpSender>,
    /// Sorted (ACK destination port → flow index).
    ports: Vec<(u16, u32)>,
}

impl BulkTcpSender {
    /// An empty sender table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a flow sending from `src_port` to `(dst, dst_port)`; returns
    /// its index. Panics if `src_port` is already taken in this table.
    pub fn push(
        &mut self,
        src_port: u16,
        dst: NodeId,
        dst_port: u16,
        cfg: TcpConfig,
        cc: Box<dyn CongestionControl>,
    ) -> usize {
        let idx = self.flows.len();
        assert!(idx < u32::MAX as usize, "bulk flow table overflow");
        insert(&mut self.ports, src_port, idx as u32);
        self.flows.push(TcpSender::new(dst, dst_port, cfg, cc).with_source_port(src_port));
        idx
    }

    /// Number of flows in the table.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// The ports this table must be bound to, sorted ascending.
    pub fn ports(&self) -> Vec<u16> {
        self.ports.iter().map(|&(p, _)| p).collect()
    }

    /// The sender at `idx`, in insertion order.
    pub fn flow(&self, idx: usize) -> &TcpSender {
        &self.flows[idx]
    }

    /// All senders in insertion order.
    pub fn flows(&self) -> impl Iterator<Item = &TcpSender> {
        self.flows.iter()
    }
}

impl Application for BulkTcpSender {
    fn on_start(&mut self, ctx: &mut AppCtx) {
        for (i, flow) in self.flows.iter_mut().enumerate() {
            ctx.timer_tag = (i as u64) << 32;
            flow.on_start(ctx);
        }
        ctx.timer_tag = 0;
    }

    fn on_packet(&mut self, ctx: &mut AppCtx, packet: &Packet) {
        if let Some(i) = lookup(&self.ports, packet.dst_port) {
            ctx.timer_tag = (i as u64) << 32;
            self.flows[i].on_packet(ctx, packet);
            ctx.timer_tag = 0;
        }
    }

    fn on_timer(&mut self, ctx: &mut AppCtx, timer_id: u64) {
        let i = (timer_id >> 32) as usize;
        if i >= self.flows.len() {
            return;
        }
        ctx.timer_tag = (i as u64) << 32;
        self.flows[i].on_timer(ctx, timer_id & 0xFFFF_FFFF);
        ctx.timer_tag = 0;
    }

    fn flow_footprint(&self) -> Option<(u64, u64)> {
        // Inline struct only; per-flow heap (cwnd/RTT logs) is workload
        // bound, not steady-state table state.
        let bytes = self.flows.len() * (std::mem::size_of::<TcpSender>() + 6);
        Some((self.flows.len() as u64, bytes as u64))
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    hypatia_netsim::snap_app_state!();
}

// The port demux table is rebuilt by the push() sequence at construction
// time; only the per-flow protocol state travels.
hypatia_netsim::snap_fields!(BulkTcpSender { flows[..] } rebuilt { ports });

/// Many [`TcpSink`]s in one application slot, demuxed by the port each
/// flow's data arrives on.
#[derive(Default)]
pub struct BulkTcpSink {
    flows: Vec<TcpSink>,
    /// Sorted (data destination port → flow index).
    ports: Vec<(u16, u32)>,
}

impl BulkTcpSink {
    /// An empty sink table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a sink listening on `port`; returns its index. Panics if
    /// `port` is already taken in this table.
    pub fn push(&mut self, port: u16, cfg: TcpConfig) -> usize {
        let idx = self.flows.len();
        assert!(idx < u32::MAX as usize, "bulk flow table overflow");
        insert(&mut self.ports, port, idx as u32);
        self.flows.push(TcpSink::new(cfg).with_source_port(port));
        idx
    }

    /// Number of flows in the table.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// The ports this table must be bound to, sorted ascending.
    pub fn ports(&self) -> Vec<u16> {
        self.ports.iter().map(|&(p, _)| p).collect()
    }

    /// The sink at `idx`, in insertion order.
    pub fn flow(&self, idx: usize) -> &TcpSink {
        &self.flows[idx]
    }

    /// All sinks in insertion order.
    pub fn flows(&self) -> impl Iterator<Item = &TcpSink> {
        self.flows.iter()
    }
}

impl Application for BulkTcpSink {
    fn on_start(&mut self, _ctx: &mut AppCtx) {}

    fn on_packet(&mut self, ctx: &mut AppCtx, packet: &Packet) {
        if let Some(i) = lookup(&self.ports, packet.dst_port) {
            ctx.timer_tag = (i as u64) << 32;
            self.flows[i].on_packet(ctx, packet);
            ctx.timer_tag = 0;
        }
    }

    fn on_timer(&mut self, ctx: &mut AppCtx, timer_id: u64) {
        let i = (timer_id >> 32) as usize;
        if i >= self.flows.len() {
            return;
        }
        ctx.timer_tag = (i as u64) << 32;
        self.flows[i].on_timer(ctx, timer_id & 0xFFFF_FFFF);
        ctx.timer_tag = 0;
    }

    fn flow_footprint(&self) -> Option<(u64, u64)> {
        // Counted as bytes only: the matching sender table owns the flow
        // count, so totals are not doubled.
        let bytes = self.flows.len() * (std::mem::size_of::<TcpSink>() + 6);
        Some((0, bytes as u64))
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    hypatia_netsim::snap_app_state!();
}

hypatia_netsim::snap_fields!(BulkTcpSink { flows[..] } rebuilt { ports });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::cc::newreno::NewReno;
    use hypatia_netsim::app::AppAction;
    use hypatia_netsim::packet::{Payload, Segment, HEADER_BYTES};
    use hypatia_util::SimTime;

    fn cfg() -> TcpConfig {
        TcpConfig::default().with_mss(1000)
    }

    fn ack_packet(dst_port: u16, ack: u64) -> Packet {
        Packet {
            id: 0,
            src: NodeId(9),
            dst: NodeId(0),
            src_port: 40_000,
            dst_port,
            size_bytes: HEADER_BYTES,
            payload: Payload::Seg(Segment {
                seq: 0,
                payload_bytes: 0,
                ack,
                ts: SimTime::ZERO,
                ts_echo: SimTime::from_millis(1),
                fin: false,
            }),
            injected_at: SimTime::ZERO,
            hops: 0,
            flow_hash: 0,
        }
    }

    fn data_packet(dst_port: u16, seq: u64, len: u32) -> Packet {
        Packet {
            id: seq,
            src: NodeId(1),
            dst: NodeId(2),
            src_port: 20_000,
            dst_port,
            size_bytes: len + HEADER_BYTES,
            payload: Payload::Seg(Segment {
                seq,
                payload_bytes: len,
                ack: 0,
                ts: SimTime::from_millis(5),
                ts_echo: SimTime::ZERO,
                fin: false,
            }),
            injected_at: SimTime::from_millis(5),
            hops: 0,
            flow_hash: 0,
        }
    }

    #[test]
    fn bulk_sender_matches_solo_sender_action_for_action() {
        // A one-flow bulk table must emit the same segments, sizes, and
        // timers as a standalone sender installed on the same port.
        let mut solo = TcpSender::new(NodeId(9), 80, cfg(), Box::new(NewReno::new()));
        let mut solo_ctx = AppCtx::new(SimTime::ZERO, NodeId(0), 70);
        solo.on_start(&mut solo_ctx);

        let mut bulk = BulkTcpSender::new();
        bulk.push(70, NodeId(9), 80, cfg(), Box::new(NewReno::new()));
        let mut bulk_ctx = AppCtx::new(SimTime::ZERO, NodeId(0), 70);
        bulk.on_start(&mut bulk_ctx);

        let solo_actions = solo_ctx.take_actions();
        let bulk_actions = bulk_ctx.take_actions();
        assert_eq!(solo_actions.len(), bulk_actions.len());
        for (s, b) in solo_actions.iter().zip(&bulk_actions) {
            match (s, b) {
                (
                    AppAction::Send { dst, dst_port, size_bytes, payload },
                    AppAction::SendFrom {
                        src_port: bp,
                        dst: bd,
                        dst_port: bdp,
                        size_bytes: bs,
                        payload: bpl,
                    },
                ) => {
                    assert_eq!(*bp, 70, "bulk flow keeps its source port");
                    assert_eq!((dst, dst_port, size_bytes), (bd, bdp, bs));
                    assert_eq!(payload, bpl);
                }
                (
                    AppAction::Timer { delay, timer_id },
                    AppAction::Timer { delay: bd, timer_id: bt },
                ) => {
                    // Flow index 0: tag is zero, ids must agree exactly.
                    assert_eq!((delay, timer_id), (bd, bt));
                }
                other => panic!("mismatched action pair {other:?}"),
            }
        }
    }

    #[test]
    fn sender_demuxes_acks_and_timers_by_flow() {
        let mut bulk = BulkTcpSender::new();
        bulk.push(70, NodeId(9), 80, cfg(), Box::new(NewReno::new()));
        bulk.push(71, NodeId(9), 81, cfg(), Box::new(NewReno::new()));
        let mut ctx = AppCtx::new(SimTime::ZERO, NodeId(0), 70);
        bulk.on_start(&mut ctx);
        ctx.take_actions();

        // ACK addressed to port 71 advances only flow 1.
        let mut c = AppCtx::new(SimTime::from_millis(100), NodeId(0), 70);
        bulk.on_packet(&mut c, &ack_packet(71, 1000));
        assert_eq!(bulk.flow(0).acked_bytes(), 0);
        assert_eq!(bulk.flow(1).acked_bytes(), 1000);
        // New segments from flow 1 carry its source port.
        for a in c.take_actions() {
            if let AppAction::SendFrom { src_port, .. } = a {
                assert_eq!(src_port, 71);
            }
        }

        // A tagged RTO timer for flow 0 fires only flow 0's timeout path
        // (flow 1's generation moved on when its ACK re-armed the RTO).
        let gen = 1u64; // first arm_rto generation in each sender
        let mut t = AppCtx::new(SimTime::from_secs(2), NodeId(0), 70);
        bulk.on_timer(&mut t, gen); // tag 0 | gen
        assert_eq!(bulk.flow(0).log.timeouts, 1);
        assert_eq!(bulk.flow(1).log.timeouts, 0);
    }

    #[test]
    fn sender_retags_timers_armed_inside_handlers() {
        let mut bulk = BulkTcpSender::new();
        bulk.push(70, NodeId(9), 80, cfg(), Box::new(NewReno::new()));
        bulk.push(71, NodeId(9), 81, cfg(), Box::new(NewReno::new()));
        let mut ctx = AppCtx::new(SimTime::ZERO, NodeId(0), 70);
        bulk.on_start(&mut ctx);
        let tags: Vec<u64> = ctx
            .take_actions()
            .into_iter()
            .filter_map(|a| match a {
                AppAction::Timer { timer_id, .. } => Some(timer_id >> 32),
                _ => None,
            })
            .collect();
        assert_eq!(tags, vec![0, 1], "each flow's RTO timer carries its index");
    }

    #[test]
    fn bulk_sink_acks_from_each_flows_own_port() {
        let mut bulk = BulkTcpSink::new();
        bulk.push(80, cfg().without_delayed_ack());
        bulk.push(81, cfg().without_delayed_ack());
        let mut ctx = AppCtx::new(SimTime::from_millis(10), NodeId(2), 80);
        bulk.on_packet(&mut ctx, &data_packet(81, 0, 1000));
        assert_eq!(bulk.flow(0).bytes_received(), 0);
        assert_eq!(bulk.flow(1).bytes_received(), 1000);
        let acks: Vec<u16> = ctx
            .take_actions()
            .into_iter()
            .filter_map(|a| match a {
                AppAction::SendFrom { src_port, .. } => Some(src_port),
                _ => None,
            })
            .collect();
        assert_eq!(acks, vec![81], "ACK leaves from the flow's own port");
    }

    #[test]
    fn unknown_ports_and_stale_timer_indices_are_ignored() {
        let mut bulk = BulkTcpSink::new();
        bulk.push(80, cfg());
        let mut ctx = AppCtx::new(SimTime::from_millis(10), NodeId(2), 80);
        bulk.on_packet(&mut ctx, &data_packet(99, 0, 1000));
        assert!(ctx.take_actions().is_empty());
        bulk.on_timer(&mut ctx, (7 << 32) | 1); // index out of range
        assert!(ctx.take_actions().is_empty());
    }

    #[test]
    fn ports_are_reported_sorted_and_duplicates_rejected() {
        let mut bulk = BulkTcpSender::new();
        bulk.push(75, NodeId(9), 80, cfg(), Box::new(NewReno::new()));
        bulk.push(70, NodeId(9), 81, cfg(), Box::new(NewReno::new()));
        assert_eq!(bulk.ports(), vec![70, 75]);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            bulk.push(75, NodeId(9), 82, cfg(), Box::new(NewReno::new()));
        }));
        assert!(r.is_err(), "duplicate port must panic");
    }

    #[test]
    fn footprint_counts_flows_once_across_both_tables() {
        let mut src = BulkTcpSender::new();
        src.push(70, NodeId(9), 80, cfg(), Box::new(NewReno::new()));
        let mut dst = BulkTcpSink::new();
        dst.push(80, cfg());
        let (n_src, _) = src.flow_footprint().unwrap();
        let (n_dst, _) = dst.flow_footprint().unwrap();
        assert_eq!(n_src + n_dst, 1, "one flow, counted once");
    }
}
