//! The TCP receiver: reassembly, cumulative ACKs, delayed ACKs.

use crate::tcp::config::TcpConfig;
use hypatia_constellation::NodeId;
use hypatia_netsim::app::{AppCtx, Application};
use hypatia_netsim::packet::{Packet, Payload, Segment, HEADER_BYTES};
use hypatia_util::SimTime;
use std::collections::BTreeMap;

/// A TCP sink: receives a byte stream, emits cumulative ACKs, and records
/// application-level flow progress (paper §3.3's logged metric).
pub struct TcpSink {
    cfg: TcpConfig,
    /// Explicit source port for outgoing ACKs. `None` (the default)
    /// inherits the install port from the context; bulk flow tables set
    /// it per flow so many sinks can share one application slot.
    src_port: Option<u16>,
    /// Next in-order byte expected.
    rcv_nxt: u64,
    /// Out-of-order buffer: start byte → length.
    ooo: BTreeMap<u64, u32>,
    /// In-order segments since the last ACK (delayed-ACK counter).
    pending_acks: u32,
    /// Timestamp to echo for the pending (delayed) ACK.
    pending_ts: SimTime,
    delack_gen: u64,
    /// Payload bytes received in order, per 100 ms bin (throughput series).
    bins_100ms: Vec<u64>,
    /// Count of out-of-order arrivals (reordering diagnostics).
    pub ooo_arrivals: u64,
    /// Duplicate (already-received) arrivals.
    pub dup_arrivals: u64,
    /// Peer address learned from the first data segment (one flow per sink).
    peer: Option<(NodeId, u16)>,
}

impl TcpSink {
    /// A sink with the given configuration (only the delayed-ACK knobs are
    /// used on this side).
    pub fn new(cfg: TcpConfig) -> Self {
        TcpSink {
            cfg,
            src_port: None,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            pending_acks: 0,
            pending_ts: SimTime::ZERO,
            delack_gen: 0,
            bins_100ms: Vec::new(),
            ooo_arrivals: 0,
            dup_arrivals: 0,
            peer: None,
        }
    }

    /// Stamp every outgoing ACK with this source port instead of the
    /// install port. Required when the sink shares an application slot
    /// with other flows (see [`crate::BulkTcpSink`]).
    pub fn with_source_port(mut self, port: u16) -> Self {
        self.src_port = Some(port);
        self
    }

    /// Bytes received in order so far (flow progress).
    pub fn bytes_received(&self) -> u64 {
        self.rcv_nxt
    }

    /// Payload bytes per 100 ms bin since t = 0.
    pub fn goodput_bins_100ms(&self) -> &[u64] {
        &self.bins_100ms
    }

    /// Throughput averaged over 100 ms intervals, Mbit/s, as `(t_secs,
    /// mbps)` points — the paper's Fig. 5(c) series.
    pub fn throughput_series_mbps(&self) -> Vec<(f64, f64)> {
        self.bins_100ms
            .iter()
            .enumerate()
            .map(|(i, &bytes)| (i as f64 * 0.1, bytes as f64 * 8.0 / 0.1 / 1e6))
            .collect()
    }

    fn record_bytes(&mut self, now: SimTime, bytes: u64) {
        let bin = (now.millis() / 100) as usize;
        if self.bins_100ms.len() <= bin {
            self.bins_100ms.resize(bin + 1, 0);
        }
        self.bins_100ms[bin] += bytes;
    }

    fn send_ack(&mut self, ctx: &mut AppCtx, to: NodeId, to_port: u16, ts_echo: SimTime) {
        let seg = Segment {
            seq: 0,
            payload_bytes: 0,
            ack: self.rcv_nxt,
            ts: ctx.now,
            ts_echo,
            fin: false,
        };
        match self.src_port {
            Some(p) => ctx.send_from(p, to, to_port, HEADER_BYTES, Payload::Seg(seg)),
            None => ctx.send(to, to_port, HEADER_BYTES, Payload::Seg(seg)),
        }
        self.pending_acks = 0;
        self.delack_gen += 1; // cancel any armed delayed-ACK timer
    }

    fn handle_data(&mut self, ctx: &mut AppCtx, packet: &Packet, seg: Segment) {
        let from = packet.src;
        let from_port = packet.src_port;
        self.peer = Some((from, from_port));
        let end = seg.seq + seg.payload_bytes as u64;

        if end <= self.rcv_nxt {
            // Complete duplicate (e.g. go-back-N overlap): ACK immediately.
            self.dup_arrivals += 1;
            self.send_ack(ctx, from, from_port, seg.ts);
            return;
        }
        if seg.seq > self.rcv_nxt {
            // Out of order: buffer, send immediate duplicate ACK.
            self.ooo_arrivals += 1;
            self.ooo.insert(seg.seq, seg.payload_bytes);
            self.send_ack(ctx, from, from_port, seg.ts);
            return;
        }

        // In-order (possibly partially duplicate) delivery.
        let new_bytes = end - self.rcv_nxt;
        self.rcv_nxt = end;
        self.record_bytes(ctx.now, new_bytes);

        // Drain any buffered segments made contiguous.
        let mut filled_gap = false;
        while let Some((&s, &l)) = self.ooo.first_key_value() {
            if s > self.rcv_nxt {
                break;
            }
            self.ooo.pop_first();
            let e = s + l as u64;
            if e > self.rcv_nxt {
                let gained = e - self.rcv_nxt;
                self.rcv_nxt = e;
                self.record_bytes(ctx.now, gained);
            }
            filled_gap = true;
        }

        if filled_gap || !self.cfg.delayed_ack {
            // Filling a hole (or no delayed ACKs): ACK now.
            self.send_ack(ctx, from, from_port, seg.ts);
            return;
        }

        // Delayed ACK: every delack_count segments or on timeout.
        if self.pending_acks == 0 {
            self.pending_ts = seg.ts; // echo the oldest unACKed segment's ts
        }
        self.pending_acks += 1;
        if self.pending_acks >= self.cfg.delack_count {
            let ts = self.pending_ts;
            self.send_ack(ctx, from, from_port, ts);
        } else {
            self.delack_gen += 1;
            self.peer = Some((from, from_port));
            ctx.set_timer(self.cfg.delack_timeout, self.delack_gen);
        }
    }
}

hypatia_netsim::snap_fields!(TcpSink {
    rcv_nxt,
    ooo,
    pending_acks,
    pending_ts,
    delack_gen,
    bins_100ms,
    ooo_arrivals,
    dup_arrivals,
    peer,
} rebuilt { cfg, src_port });

impl Application for TcpSink {
    fn on_start(&mut self, _ctx: &mut AppCtx) {}

    fn on_packet(&mut self, ctx: &mut AppCtx, packet: &Packet) {
        if let Payload::Seg(seg) = packet.payload {
            if seg.payload_bytes > 0 {
                self.handle_data(ctx, packet, seg);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut AppCtx, timer_id: u64) {
        if timer_id != self.delack_gen || self.pending_acks == 0 {
            return;
        }
        if let Some((peer, port)) = self.peer {
            let ts = self.pending_ts;
            self.send_ack(ctx, peer, port, ts);
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    hypatia_netsim::snap_app_state!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypatia_netsim::app::AppAction;

    fn data_packet(seq: u64, len: u32, ts_ms: u64) -> Packet {
        Packet {
            id: seq,
            src: NodeId(1),
            dst: NodeId(2),
            src_port: 70,
            dst_port: 80,
            size_bytes: len + HEADER_BYTES,
            payload: Payload::Seg(Segment {
                seq,
                payload_bytes: len,
                ack: 0,
                ts: SimTime::from_millis(ts_ms),
                ts_echo: SimTime::ZERO,
                fin: false,
            }),
            injected_at: SimTime::from_millis(ts_ms),
            hops: 0,
            flow_hash: 0,
        }
    }

    fn acks_sent(ctx: &mut AppCtx) -> Vec<Segment> {
        ctx.take_actions()
            .into_iter()
            .filter_map(|a| match a {
                AppAction::Send { payload: Payload::Seg(s), .. } if s.payload_bytes == 0 => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn delayed_ack_fires_every_second_segment() {
        let mut sink = TcpSink::new(TcpConfig::default());
        let mut ctx = AppCtx::new(SimTime::from_millis(10), NodeId(2), 80);
        sink.on_packet(&mut ctx, &data_packet(0, 1000, 5));
        assert!(acks_sent(&mut ctx).is_empty(), "first segment is delayed");
        let mut ctx2 = AppCtx::new(SimTime::from_millis(11), NodeId(2), 80);
        sink.on_packet(&mut ctx2, &data_packet(1000, 1000, 6));
        let acks = acks_sent(&mut ctx2);
        assert_eq!(acks.len(), 1);
        assert_eq!(acks[0].ack, 2000);
        // Delayed ACK echoes the *first* pending segment's timestamp.
        assert_eq!(acks[0].ts_echo, SimTime::from_millis(5));
    }

    #[test]
    fn immediate_ack_without_delack() {
        let mut sink = TcpSink::new(TcpConfig::default().without_delayed_ack());
        let mut ctx = AppCtx::new(SimTime::from_millis(10), NodeId(2), 80);
        sink.on_packet(&mut ctx, &data_packet(0, 1000, 5));
        let acks = acks_sent(&mut ctx);
        assert_eq!(acks.len(), 1);
        assert_eq!(acks[0].ack, 1000);
    }

    #[test]
    fn out_of_order_triggers_dup_ack_and_reassembly() {
        let mut sink = TcpSink::new(TcpConfig::default());
        // Segment 1 (bytes 1000..2000) arrives before segment 0.
        let mut ctx = AppCtx::new(SimTime::from_millis(10), NodeId(2), 80);
        sink.on_packet(&mut ctx, &data_packet(1000, 1000, 5));
        let dup = acks_sent(&mut ctx);
        assert_eq!(dup.len(), 1);
        assert_eq!(dup[0].ack, 0, "duplicate ACK for missing byte 0");
        assert_eq!(sink.ooo_arrivals, 1);

        // The hole fills: cumulative ACK jumps to 2000 immediately.
        let mut ctx2 = AppCtx::new(SimTime::from_millis(12), NodeId(2), 80);
        sink.on_packet(&mut ctx2, &data_packet(0, 1000, 7));
        let acks = acks_sent(&mut ctx2);
        assert_eq!(acks.len(), 1);
        assert_eq!(acks[0].ack, 2000);
        assert_eq!(sink.bytes_received(), 2000);
    }

    #[test]
    fn duplicate_data_acked_immediately() {
        let mut sink = TcpSink::new(TcpConfig::default().without_delayed_ack());
        let mut ctx = AppCtx::new(SimTime::from_millis(10), NodeId(2), 80);
        sink.on_packet(&mut ctx, &data_packet(0, 1000, 5));
        ctx.take_actions();
        let mut ctx2 = AppCtx::new(SimTime::from_millis(11), NodeId(2), 80);
        sink.on_packet(&mut ctx2, &data_packet(0, 1000, 6));
        let acks = acks_sent(&mut ctx2);
        assert_eq!(acks.len(), 1);
        assert_eq!(acks[0].ack, 1000);
        assert_eq!(sink.dup_arrivals, 1);
        assert_eq!(sink.bytes_received(), 1000, "duplicate adds no bytes");
    }

    #[test]
    fn delack_timer_flushes_pending_ack() {
        let mut sink = TcpSink::new(TcpConfig::default());
        let mut ctx = AppCtx::new(SimTime::from_millis(10), NodeId(2), 80);
        sink.on_packet(&mut ctx, &data_packet(0, 1000, 5));
        // A timer action was armed; simulate it firing.
        let gen = sink.delack_gen;
        let mut ctx2 = AppCtx::new(SimTime::from_millis(210), NodeId(2), 80);
        sink.on_timer(&mut ctx2, gen);
        let acks = acks_sent(&mut ctx2);
        assert_eq!(acks.len(), 1);
        assert_eq!(acks[0].ack, 1000);
    }

    #[test]
    fn stale_delack_timer_ignored() {
        let mut sink = TcpSink::new(TcpConfig::default());
        let mut ctx = AppCtx::new(SimTime::from_millis(10), NodeId(2), 80);
        sink.on_packet(&mut ctx, &data_packet(0, 1000, 5));
        sink.on_packet(&mut ctx, &data_packet(1000, 1000, 6)); // flushes
        ctx.take_actions();
        let mut ctx2 = AppCtx::new(SimTime::from_millis(210), NodeId(2), 80);
        sink.on_timer(&mut ctx2, 1); // stale generation
        assert!(acks_sent(&mut ctx2).is_empty());
    }

    #[test]
    fn throughput_bins_accumulate() {
        let mut sink = TcpSink::new(TcpConfig::default().without_delayed_ack());
        for (seq, ms) in [(0u64, 10u64), (1000, 50), (2000, 150)] {
            let mut ctx = AppCtx::new(SimTime::from_millis(ms), NodeId(2), 80);
            sink.on_packet(&mut ctx, &data_packet(seq, 1000, ms));
        }
        let bins = sink.goodput_bins_100ms();
        assert_eq!(bins[0], 2000);
        assert_eq!(bins[1], 1000);
        let series = sink.throughput_series_mbps();
        assert!((series[0].1 - 0.16).abs() < 1e-9, "2 kB in 0.1 s = 0.16 Mbps");
    }
}
