//! Constant-rate ("paced") UDP source and counting sink (paper §3.4: "each
//! GS-pair sends each other constant-rate, paced UDP traffic at the line
//! rate, and goodput is calculated as the total rate of network-wide
//! payload arrivals").

use crate::app::{AppCtx, Application};
use crate::packet::{Packet, Payload, HEADER_BYTES};
use hypatia_constellation::NodeId;
use hypatia_util::{DataRate, DataSize, SimDuration, SimTime};

const TIMER_SEND: u64 = 0;

/// Paced constant-bit-rate UDP source.
pub struct UdpSource {
    dst: NodeId,
    flow: u32,
    /// Payload bytes per packet.
    payload_bytes: u32,
    /// Inter-packet gap achieving the target rate.
    gap: SimDuration,
    stop_at: SimTime,
    next_seq: u64,
}

impl UdpSource {
    /// Send `payload_bytes`-sized datagrams to `dst` such that the *wire*
    /// rate (payload + headers) equals `rate`, until `stop_at`.
    pub fn new(
        dst: NodeId,
        flow: u32,
        rate: DataRate,
        payload_bytes: u32,
        stop_at: SimTime,
    ) -> Self {
        assert!(payload_bytes > 0, "empty datagrams not allowed");
        let wire = DataSize::from_bytes((payload_bytes + HEADER_BYTES) as u64);
        let gap = rate.serialization_delay(wire);
        UdpSource { dst, flow, payload_bytes, gap, stop_at, next_seq: 0 }
    }

    /// Packets sent so far.
    pub fn sent(&self) -> u64 {
        self.next_seq
    }

    fn send_one(&mut self, ctx: &mut AppCtx) {
        ctx.send(
            self.dst,
            ctx.port,
            self.payload_bytes + HEADER_BYTES,
            Payload::Udp { flow: self.flow, seq: self.next_seq, payload_bytes: self.payload_bytes },
        );
        self.next_seq += 1;
    }
}

impl Application for UdpSource {
    fn on_start(&mut self, ctx: &mut AppCtx) {
        if ctx.now < self.stop_at {
            self.send_one(ctx);
            ctx.set_timer(self.gap, TIMER_SEND);
        }
    }

    fn on_packet(&mut self, _ctx: &mut AppCtx, _packet: &Packet) {
        // A pure source; ignores anything addressed to it.
    }

    fn on_timer(&mut self, ctx: &mut AppCtx, _timer_id: u64) {
        if ctx.now < self.stop_at {
            self.send_one(ctx);
            ctx.set_timer(self.gap, TIMER_SEND);
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    crate::snap_app_state!();
}

crate::snap_fields!(UdpSource { next_seq } rebuilt { dst, flow, payload_bytes, gap, stop_at });

/// Counting UDP sink: tracks received packets/bytes and loss (via sequence
/// gaps).
#[derive(Default)]
pub struct UdpSink {
    received: u64,
    payload_bytes: u64,
    max_seq_seen: Option<u64>,
    first_arrival: Option<SimTime>,
    last_arrival: Option<SimTime>,
}

impl UdpSink {
    /// A fresh sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Packets received.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Payload bytes received.
    pub fn payload_bytes(&self) -> u64 {
        self.payload_bytes
    }

    /// Goodput over the observed arrival window, bits/s (None with < 2
    /// arrivals).
    pub fn goodput_bps(&self) -> Option<f64> {
        let (first, last) = (self.first_arrival?, self.last_arrival?);
        if last <= first {
            return None;
        }
        Some(self.payload_bytes as f64 * 8.0 / last.since(first).secs_f64())
    }

    /// Packets implied missing by the highest sequence seen.
    pub fn missing(&self) -> u64 {
        match self.max_seq_seen {
            Some(max) => (max + 1).saturating_sub(self.received),
            None => 0,
        }
    }
}

impl Application for UdpSink {
    fn on_start(&mut self, _ctx: &mut AppCtx) {}

    fn on_packet(&mut self, ctx: &mut AppCtx, packet: &Packet) {
        if let Payload::Udp { seq, payload_bytes, .. } = packet.payload {
            self.received += 1;
            self.payload_bytes += payload_bytes as u64;
            self.max_seq_seen = Some(self.max_seq_seen.map_or(seq, |m| m.max(seq)));
            self.first_arrival.get_or_insert(ctx.now);
            self.last_arrival = Some(ctx.now);
        }
    }

    fn on_timer(&mut self, _ctx: &mut AppCtx, _timer_id: u64) {}

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    crate::snap_app_state!();
}

crate::snap_fields!(UdpSink { received, payload_bytes, max_seq_seen, first_arrival, last_arrival });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pacing_gap_matches_rate() {
        // 1440+60 = 1500 B at 10 Mbps → 1.2 ms between packets.
        let src =
            UdpSource::new(NodeId(1), 0, DataRate::from_mbps(10), 1440, SimTime::from_secs(1));
        assert_eq!(src.gap, SimDuration::from_micros(1200));
    }

    #[test]
    fn source_sends_and_rearms() {
        let mut src =
            UdpSource::new(NodeId(1), 7, DataRate::from_mbps(10), 1440, SimTime::from_secs(1));
        let mut ctx = AppCtx::new(SimTime::ZERO, NodeId(0), 50);
        src.on_start(&mut ctx);
        assert_eq!(ctx.take_actions().len(), 2);
        assert_eq!(src.sent(), 1);
        // Past deadline: nothing.
        let mut ctx2 = AppCtx::new(SimTime::from_secs(2), NodeId(0), 50);
        src.on_timer(&mut ctx2, TIMER_SEND);
        assert!(ctx2.take_actions().is_empty());
    }

    fn udp_packet(seq: u64, payload: u32, at_ms: u64) -> (Packet, SimTime) {
        (
            Packet {
                id: seq,
                src: NodeId(0),
                dst: NodeId(1),
                src_port: 50,
                dst_port: 50,
                size_bytes: payload + HEADER_BYTES,
                payload: Payload::Udp { flow: 7, seq, payload_bytes: payload },
                injected_at: SimTime::ZERO,
                hops: 4,
                flow_hash: 0,
            },
            SimTime::from_millis(at_ms),
        )
    }

    #[test]
    fn sink_counts_and_detects_gaps() {
        let mut sink = UdpSink::new();
        for (seq, at) in [(0u64, 10u64), (1, 20), (3, 30)] {
            let (pkt, now) = udp_packet(seq, 1440, at);
            let mut ctx = AppCtx::new(now, NodeId(1), 50);
            sink.on_packet(&mut ctx, &pkt);
        }
        assert_eq!(sink.received(), 3);
        assert_eq!(sink.payload_bytes(), 3 * 1440);
        assert_eq!(sink.missing(), 1, "seq 2 was lost");
    }

    #[test]
    fn sink_goodput_over_window() {
        let mut sink = UdpSink::new();
        // 2 × 1250 B payload, 1 s apart → second packet adds 10 kbit over 1 s.
        for (seq, at) in [(0u64, 1000u64), (1, 2000)] {
            let (pkt, now) = udp_packet(seq, 1250, at);
            let mut ctx = AppCtx::new(now, NodeId(1), 50);
            sink.on_packet(&mut ctx, &pkt);
        }
        let g = sink.goodput_bps().unwrap();
        assert!((g - 20_000.0).abs() < 1e-6, "goodput {g}");
    }

    #[test]
    fn empty_sink_has_no_goodput() {
        assert!(UdpSink::new().goodput_bps().is_none());
        assert_eq!(UdpSink::new().missing(), 0);
    }
}
