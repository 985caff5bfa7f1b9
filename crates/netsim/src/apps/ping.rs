//! The ping application (paper §4.1: "s sends d a ping every 1 ms, and logs
//! the response time").
//!
//! Echo replies are produced by the destination *node* (kernel-style), so
//! only the source runs an application. Replies carry the original
//! injection timestamp, making RTT computation stateless.

use crate::app::{AppCtx, Application};
use crate::packet::{Packet, Payload};
use hypatia_constellation::NodeId;
use hypatia_util::{SimDuration, SimTime};

/// Wire size of a ping/pong packet, bytes.
pub const PING_SIZE_BYTES: u32 = 64;

const TIMER_SEND: u64 = 0;

/// Periodic ping source; records `(send time, RTT)` samples.
pub struct PingApp {
    dst: NodeId,
    interval: SimDuration,
    stop_at: SimTime,
    next_seq: u64,
    received: u64,
    rtts: Vec<(SimTime, SimDuration)>,
}

impl PingApp {
    /// Ping `dst` every `interval` until `stop_at`.
    pub fn new(dst: NodeId, interval: SimDuration, stop_at: SimTime) -> Self {
        assert!(!interval.is_zero(), "ping interval must be positive");
        PingApp { dst, interval, stop_at, next_seq: 0, received: 0, rtts: Vec::new() }
    }

    /// Pings sent.
    pub fn sent(&self) -> u64 {
        self.next_seq
    }

    /// Pongs received.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// `(ping send time, measured RTT)` samples, in arrival order.
    pub fn rtts(&self) -> &[(SimTime, SimDuration)] {
        &self.rtts
    }

    /// Loss fraction among probes whose replies could have returned.
    pub fn loss_fraction(&self) -> f64 {
        if self.next_seq == 0 {
            return 0.0;
        }
        1.0 - self.received as f64 / self.next_seq as f64
    }

    fn send_ping(&mut self, ctx: &mut AppCtx) {
        ctx.send(self.dst, ctx.port, PING_SIZE_BYTES, Payload::Ping { seq: self.next_seq });
        self.next_seq += 1;
    }
}

impl Application for PingApp {
    fn on_start(&mut self, ctx: &mut AppCtx) {
        if ctx.now < self.stop_at {
            self.send_ping(ctx);
            ctx.set_timer(self.interval, TIMER_SEND);
        }
    }

    fn on_packet(&mut self, ctx: &mut AppCtx, packet: &Packet) {
        if let Payload::Pong { ping_injected_at, .. } = packet.payload {
            self.received += 1;
            self.rtts.push((ping_injected_at, ctx.now.since(ping_injected_at)));
        }
    }

    fn on_timer(&mut self, ctx: &mut AppCtx, timer_id: u64) {
        debug_assert_eq!(timer_id, TIMER_SEND);
        if ctx.now < self.stop_at {
            self.send_ping(ctx);
            ctx.set_timer(self.interval, TIMER_SEND);
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

crate::snap_fields!(PingApp { next_seq, received, rtts } rebuilt { dst, interval, stop_at });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sends_on_schedule() {
        let mut app = PingApp::new(NodeId(5), SimDuration::from_millis(10), SimTime::from_secs(1));
        let mut ctx = AppCtx::new(SimTime::ZERO, NodeId(0), 7);
        app.on_start(&mut ctx);
        let actions = ctx.take_actions();
        assert_eq!(actions.len(), 2, "one send + one timer");
        assert_eq!(app.sent(), 1);
    }

    #[test]
    fn stops_after_deadline() {
        let mut app = PingApp::new(NodeId(5), SimDuration::from_millis(10), SimTime::from_secs(1));
        let mut ctx = AppCtx::new(SimTime::from_secs(2), NodeId(0), 7);
        app.on_timer(&mut ctx, 0);
        assert!(ctx.take_actions().is_empty(), "must not send past stop_at");
    }

    #[test]
    fn records_rtt_from_pong() {
        let mut app = PingApp::new(NodeId(5), SimDuration::from_millis(10), SimTime::from_secs(1));
        let sent = SimTime::from_millis(100);
        let now = SimTime::from_millis(148);
        let mut ctx = AppCtx::new(now, NodeId(0), 7);
        let pong = Packet {
            id: 1,
            src: NodeId(5),
            dst: NodeId(0),
            src_port: 7,
            dst_port: 7,
            size_bytes: PING_SIZE_BYTES,
            payload: Payload::Pong { seq: 0, ping_injected_at: sent },
            injected_at: SimTime::from_millis(124),
            hops: 3,
            flow_hash: 0,
        };
        app.on_packet(&mut ctx, &pong);
        assert_eq!(app.received(), 1);
        assert_eq!(app.rtts(), &[(sent, SimDuration::from_millis(48))]);
    }

    #[test]
    fn loss_fraction_reflects_missing_pongs() {
        let mut app = PingApp::new(NodeId(5), SimDuration::from_millis(10), SimTime::from_secs(1));
        let mut ctx = AppCtx::new(SimTime::ZERO, NodeId(0), 7);
        app.on_start(&mut ctx);
        app.on_timer(&mut ctx, 0);
        app.on_timer(&mut ctx, 0);
        app.on_timer(&mut ctx, 0); // 4 sent, 0 received
        assert!((app.loss_fraction() - 1.0).abs() < 1e-12);
    }
}
