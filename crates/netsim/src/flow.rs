//! Arena flow tables: bulk UDP endpoints for million-flow workloads.
//!
//! The classic way to drive N flows is N boxed [`Application`]s — two
//! heap allocations, a port-map entry, and an app-table slot per flow.
//! That layout tops out around 10⁴ flows. The bulk endpoints here invert
//! it: one application per node owns *all* of that node's flows in
//! struct-of-arrays columns indexed by a dense per-node position, so the
//! steady-state footprint is ~20 bytes per source flow and ~12 bytes per
//! sink flow — and iterating the hot column (`next_seq`) is cache-linear.
//!
//! Determinism: a bulk source emits, per flow in table order, exactly the
//! actions a dedicated [`crate::apps::UdpSource`] would emit in per-flow
//! install order — same packet contents, same relative action order on the
//! node — so a simulation driven by bulk tables is event-for-event
//! identical to one driven by per-flow apps (the golden-manifest tests in
//! `hypatia` core pin this byte-for-byte).

use crate::app::{AppCtx, Application};
use crate::packet::{Packet, Payload, HEADER_BYTES};
use hypatia_constellation::NodeId;
use hypatia_util::{DataRate, DataSize, SimDuration, SimTime};

/// Dense flow identifier: position in the experiment's global flow list.
///
/// Unlike a flow *hash* (64-bit, sparse, collision-prone), a `FlowId` is an
/// array index — per-flow results live in plain vectors indexed by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u32);

/// Paced constant-bit-rate UDP source for many flows on one node.
///
/// Column layout (struct of arrays), indexed by per-node flow position:
/// cold addressing columns (`dsts`, `src_ports`, `dst_ports`, `flows`) are
/// read once per send; the hot `next_seq` column is the only mutable
/// per-flow state. Rate, payload size, and stop time are shared across the
/// table (constant-rate sweeps drive every flow identically).
pub struct BulkUdpSource {
    dsts: Vec<NodeId>,
    src_ports: Vec<u16>,
    dst_ports: Vec<u16>,
    /// Global flow ids, stamped into each packet's `Payload::Udp`.
    flows: Vec<u32>,
    /// Per-flow next sequence number (equals packets sent).
    next_seq: Vec<u64>,
    payload_bytes: u32,
    gap: SimDuration,
    stop_at: SimTime,
}

impl BulkUdpSource {
    /// An empty table sending `payload_bytes`-sized datagrams such that
    /// each flow's wire rate equals `rate`, until `stop_at`.
    pub fn new(rate: DataRate, payload_bytes: u32, stop_at: SimTime) -> Self {
        assert!(payload_bytes > 0, "empty datagrams not allowed");
        let wire = DataSize::from_bytes((payload_bytes + HEADER_BYTES) as u64);
        let gap = rate.serialization_delay(wire);
        BulkUdpSource {
            dsts: Vec::new(),
            src_ports: Vec::new(),
            dst_ports: Vec::new(),
            flows: Vec::new(),
            next_seq: Vec::new(),
            payload_bytes,
            gap,
            stop_at,
        }
    }

    /// Append flow `flow` towards `(dst, dst_port)` sending from
    /// `src_port`. Table order is emission order — push flows in the same
    /// order dedicated per-flow sources would have been installed.
    pub fn push(&mut self, flow: FlowId, dst: NodeId, src_port: u16, dst_port: u16) {
        assert!(self.flows.len() < u32::MAX as usize, "flow table full");
        self.dsts.push(dst);
        self.src_ports.push(src_port);
        self.dst_ports.push(dst_port);
        self.flows.push(flow.0);
        self.next_seq.push(0);
    }

    /// Number of flows in the table.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Source ports in table order (the ports to bind at install).
    pub fn src_ports(&self) -> &[u16] {
        &self.src_ports
    }

    /// Total packets sent across all flows.
    pub fn sent(&self) -> u64 {
        self.next_seq.iter().sum()
    }

    /// Inter-packet gap per flow.
    pub fn gap(&self) -> SimDuration {
        self.gap
    }

    fn send_one(&mut self, ctx: &mut AppCtx, i: usize) {
        ctx.send_from(
            self.src_ports[i],
            self.dsts[i],
            self.dst_ports[i],
            self.payload_bytes + HEADER_BYTES,
            Payload::Udp {
                flow: self.flows[i],
                seq: self.next_seq[i],
                payload_bytes: self.payload_bytes,
            },
        );
        self.next_seq[i] += 1;
    }
}

impl Application for BulkUdpSource {
    fn on_start(&mut self, ctx: &mut AppCtx) {
        if ctx.now >= self.stop_at {
            return;
        }
        // Per flow, in table order: first datagram then the pacing timer —
        // the exact action sequence per-flow sources produce when installed
        // one after the other on this node.
        for i in 0..self.flows.len() {
            self.send_one(ctx, i);
            ctx.set_timer(self.gap, i as u64);
        }
    }

    fn on_packet(&mut self, _ctx: &mut AppCtx, _packet: &Packet) {
        // A pure source; ignores anything addressed to it.
    }

    fn on_timer(&mut self, ctx: &mut AppCtx, timer_id: u64) {
        if ctx.now < self.stop_at {
            let i = timer_id as usize;
            self.send_one(ctx, i);
            ctx.set_timer(self.gap, timer_id);
        }
    }

    fn flow_footprint(&self) -> Option<(u64, u64)> {
        let per_flow = (std::mem::size_of::<NodeId>()
            + 2 * std::mem::size_of::<u16>()
            + std::mem::size_of::<u32>()
            + std::mem::size_of::<u64>()) as u64;
        Some((self.flows.len() as u64, self.flows.len() as u64 * per_flow))
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    crate::snap_app_state!();
}

// Only the hot column mutates; the addressing columns are rebuilt by the
// experiment's deterministic install sequence.
crate::snap_fields!(BulkUdpSource { next_seq[..] }
    rebuilt { dsts, src_ports, dst_ports, flows, payload_bytes, gap, stop_at });

/// Counting UDP sink for many flows on one node.
///
/// Demultiplexes by the *global flow id* carried in `Payload::Udp` (not by
/// port — at million-flow scale ports are reused modulo the 16-bit space),
/// via binary search over the sorted `flows` column. Tracks per-flow
/// payload bytes, the Jain-fairness numerator/denominator source.
pub struct BulkUdpSink {
    /// Sorted global flow ids terminating here.
    flows: Vec<u32>,
    /// Payload bytes received, parallel to `flows`.
    bytes: Vec<u64>,
    received: u64,
}

impl BulkUdpSink {
    /// A sink for the given global flow ids (sorted internally; ids must
    /// be distinct).
    pub fn new(mut flows: Vec<u32>) -> Self {
        flows.sort_unstable();
        debug_assert!(flows.windows(2).all(|w| w[0] < w[1]), "duplicate flow ids");
        let bytes = vec![0; flows.len()];
        BulkUdpSink { flows, bytes, received: 0 }
    }

    /// Number of flows terminating at this sink.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Packets received across all flows.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Per-flow `(global flow id, payload bytes)` in flow-id order.
    pub fn per_flow_bytes(&self) -> impl Iterator<Item = (FlowId, u64)> + '_ {
        self.flows.iter().zip(self.bytes.iter()).map(|(&f, &b)| (FlowId(f), b))
    }

    /// Total payload bytes received.
    pub fn payload_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }
}

impl Application for BulkUdpSink {
    fn on_start(&mut self, _ctx: &mut AppCtx) {}

    fn on_packet(&mut self, _ctx: &mut AppCtx, packet: &Packet) {
        if let Payload::Udp { flow, payload_bytes, .. } = packet.payload {
            if let Ok(i) = self.flows.binary_search(&flow) {
                self.bytes[i] += payload_bytes as u64;
                self.received += 1;
            }
        }
    }

    fn on_timer(&mut self, _ctx: &mut AppCtx, _timer_id: u64) {}

    fn flow_footprint(&self) -> Option<(u64, u64)> {
        // Flows are counted once network-wide, at their source table; the
        // sink contributes its bytes only.
        let per_flow = (std::mem::size_of::<u32>() + std::mem::size_of::<u64>()) as u64;
        Some((0, self.flows.len() as u64 * per_flow))
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    crate::snap_app_state!();
}

crate::snap_fields!(BulkUdpSink { bytes[..], received } rebuilt { flows });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::AppAction;
    use crate::apps::UdpSource;

    #[test]
    fn bulk_source_matches_per_flow_sources_action_for_action() {
        // Two flows on one node: the bulk table's on_start must produce the
        // same per-flow packets and timers as two dedicated sources
        // installed back to back, in the same relative order.
        let rate = DataRate::from_mbps(10);
        let stop = SimTime::from_secs(1);
        let mut bulk = BulkUdpSource::new(rate, 1440, stop);
        bulk.push(FlowId(0), NodeId(9), 20_000, 20_000);
        bulk.push(FlowId(1), NodeId(11), 20_001, 20_001);
        let mut ctx = AppCtx::new(SimTime::ZERO, NodeId(0), 20_000);
        bulk.on_start(&mut ctx);
        let actions = ctx.take_actions();
        assert_eq!(actions.len(), 4, "send+timer per flow");

        let mut legacy_actions = Vec::new();
        for (i, dst) in [(0u32, NodeId(9)), (1, NodeId(11))] {
            let mut src = UdpSource::new(dst, i, rate, 1440, stop);
            let mut lctx = AppCtx::new(SimTime::ZERO, NodeId(0), 20_000 + i as u16);
            src.on_start(&mut lctx);
            legacy_actions.extend(lctx.take_actions());
        }
        for (b, l) in actions.iter().zip(legacy_actions.iter()) {
            match (b, l) {
                (
                    AppAction::SendFrom { src_port, dst, dst_port, size_bytes, payload },
                    AppAction::Send {
                        dst: ldst,
                        dst_port: ldst_port,
                        size_bytes: lsize,
                        payload: lpayload,
                    },
                ) => {
                    // The legacy source sends from its context port to the
                    // same port; bulk names that port explicitly.
                    assert_eq!(src_port, ldst_port);
                    assert_eq!((dst, dst_port, size_bytes), (ldst, ldst_port, lsize));
                    assert_eq!(payload, lpayload);
                }
                (AppAction::Timer { delay, .. }, AppAction::Timer { delay: ldelay, .. }) => {
                    assert_eq!(delay, ldelay)
                }
                other => panic!("action shape diverged: {other:?}"),
            }
        }
    }

    #[test]
    fn bulk_source_paces_each_flow_via_its_timer() {
        let mut bulk = BulkUdpSource::new(DataRate::from_mbps(10), 1440, SimTime::from_secs(1));
        bulk.push(FlowId(7), NodeId(2), 100, 200);
        bulk.push(FlowId(8), NodeId(3), 101, 201);
        let mut ctx = AppCtx::new(SimTime::ZERO, NodeId(0), 100);
        bulk.on_start(&mut ctx);
        ctx.take_actions();
        assert_eq!(bulk.sent(), 2);

        // Fire flow 1's timer only: one more send, re-armed.
        let mut ctx2 = AppCtx::new(SimTime::from_millis(2), NodeId(0), 100);
        bulk.on_timer(&mut ctx2, 1);
        let actions = ctx2.take_actions();
        assert_eq!(actions.len(), 2);
        assert!(matches!(
            actions[0],
            AppAction::SendFrom {
                src_port: 101,
                dst: NodeId(3),
                dst_port: 201,
                payload: Payload::Udp { flow: 8, seq: 1, .. },
                ..
            }
        ));
        assert_eq!(bulk.sent(), 3);

        // Past the deadline: nothing.
        let mut ctx3 = AppCtx::new(SimTime::from_secs(2), NodeId(0), 100);
        bulk.on_timer(&mut ctx3, 0);
        assert!(ctx3.take_actions().is_empty());
    }

    #[test]
    fn bulk_sink_demuxes_by_global_flow_id() {
        let mut sink = BulkUdpSink::new(vec![42, 7, 100]);
        let packet = |flow: u32, payload: u32| Packet {
            id: 1,
            src: NodeId(0),
            dst: NodeId(1),
            src_port: 50,
            dst_port: 60,
            size_bytes: payload + HEADER_BYTES,
            payload: Payload::Udp { flow, seq: 0, payload_bytes: payload },
            injected_at: SimTime::ZERO,
            hops: 3,
            flow_hash: 0,
        };
        let mut ctx = AppCtx::new(SimTime::ZERO, NodeId(1), 60);
        sink.on_packet(&mut ctx, &packet(7, 1000));
        sink.on_packet(&mut ctx, &packet(7, 500));
        sink.on_packet(&mut ctx, &packet(100, 250));
        sink.on_packet(&mut ctx, &packet(999, 777)); // not ours: ignored
        assert_eq!(sink.received(), 3);
        assert_eq!(sink.payload_bytes(), 1750);
        let per_flow: Vec<_> = sink.per_flow_bytes().collect();
        assert_eq!(per_flow, vec![(FlowId(7), 1500), (FlowId(42), 0), (FlowId(100), 250)]);
    }

    #[test]
    fn footprints_fit_the_scaling_budget() {
        let mut src = BulkUdpSource::new(DataRate::from_mbps(10), 1440, SimTime::from_secs(1));
        for i in 0..100u32 {
            src.push(FlowId(i), NodeId(1), i as u16, i as u16);
        }
        let sink = BulkUdpSink::new((0..100).collect());
        let (src_flows, src_bytes) = src.flow_footprint().unwrap();
        let (sink_flows, sink_bytes) = sink.flow_footprint().unwrap();
        assert_eq!(src_flows, 100);
        assert_eq!(sink_flows, 0, "sinks must not double-count flows");
        let per_flow = (src_bytes + sink_bytes) as f64 / src_flows as f64;
        assert!(per_flow <= 128.0, "steady-state footprint {per_flow} B/flow");
    }
}
