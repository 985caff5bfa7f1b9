//! Bursty on/off UDP source.
//!
//! The paper's workloads are long-running flows and CBR; real access
//! traffic is bursty. This source alternates exponentially-distributed ON
//! periods (paced packets at the line rate) and OFF periods (silence),
//! driven by the deterministic PRNG so runs are reproducible. Useful for
//! studying queue dynamics and TE under realistic load.

use crate::app::{AppCtx, Application};
use crate::packet::{Packet, Payload, HEADER_BYTES};
use hypatia_constellation::NodeId;
use hypatia_util::rng::DetRng;
use hypatia_util::{DataRate, DataSize, SimDuration, SimTime};

const TIMER_TICK: u64 = 0;

/// Exponential on/off CBR source.
pub struct OnOffSource {
    dst: NodeId,
    flow: u32,
    payload_bytes: u32,
    gap: SimDuration,
    mean_on: SimDuration,
    mean_off: SimDuration,
    stop_at: SimTime,
    rng: DetRng,
    /// Currently in an ON burst?
    on: bool,
    /// When the current period ends.
    period_end: SimTime,
    next_seq: u64,
    bursts: u64,
}

impl OnOffSource {
    /// A source that sends to `dst` at `rate` during ON periods.
    ///
    /// ON and OFF durations are exponential with the given means; `seed`
    /// fixes the burst pattern.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        dst: NodeId,
        flow: u32,
        rate: DataRate,
        payload_bytes: u32,
        mean_on: SimDuration,
        mean_off: SimDuration,
        stop_at: SimTime,
        seed: u64,
    ) -> Self {
        assert!(payload_bytes > 0, "empty datagrams not allowed");
        assert!(!mean_on.is_zero() && !mean_off.is_zero(), "period means must be positive");
        let wire = DataSize::from_bytes((payload_bytes + HEADER_BYTES) as u64);
        OnOffSource {
            dst,
            flow,
            payload_bytes,
            gap: rate.serialization_delay(wire),
            mean_on,
            mean_off,
            stop_at,
            rng: DetRng::new(seed),
            on: false,
            period_end: SimTime::ZERO,
            next_seq: 0,
            bursts: 0,
        }
    }

    /// Packets sent.
    pub fn sent(&self) -> u64 {
        self.next_seq
    }

    /// Completed ON bursts.
    pub fn bursts(&self) -> u64 {
        self.bursts
    }

    fn exp_sample(&mut self, mean: SimDuration) -> SimDuration {
        // Inverse-CDF; u in (0,1] to avoid ln(0).
        let u = 1.0 - self.rng.next_f64();
        mean.mul_f64(-u.ln())
    }

    fn start_period(&mut self, ctx: &mut AppCtx) {
        self.on = !self.on;
        let mean = if self.on { self.mean_on } else { self.mean_off };
        if self.on {
            self.bursts += 1;
        }
        let len = self.exp_sample(mean);
        self.period_end = ctx.now + len;
        // Tick immediately to either send (ON) or sleep until period end.
        self.tick(ctx);
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

    fn tick(&mut self, ctx: &mut AppCtx) {
        if ctx.now >= self.stop_at {
            return;
        }
        if ctx.now >= self.period_end {
            self.start_period(ctx);
            return;
        }
        if self.on {
            self.send_one(ctx);
            ctx.set_timer(self.gap.min(self.period_end.since(ctx.now)), TIMER_TICK);
        } else {
            ctx.set_timer(self.period_end.since(ctx.now), TIMER_TICK);
        }
    }
}

impl Application for OnOffSource {
    fn on_start(&mut self, ctx: &mut AppCtx) {
        // Begin with an OFF→ON toggle so the first period is ON.
        self.on = false;
        self.period_end = ctx.now;
        self.tick(ctx);
    }

    fn on_packet(&mut self, _ctx: &mut AppCtx, _packet: &Packet) {}

    fn on_timer(&mut self, ctx: &mut AppCtx, _timer_id: u64) {
        self.tick(ctx);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    crate::snap_app_state!();
}

crate::snap_fields!(OnOffSource { rng, on, period_end, next_seq, bursts }
    rebuilt { dst, flow, payload_bytes, gap, mean_on, mean_off, stop_at });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::AppAction;

    fn source(seed: u64) -> OnOffSource {
        OnOffSource::new(
            NodeId(1),
            0,
            DataRate::from_mbps(10),
            1440,
            SimDuration::from_millis(100),
            SimDuration::from_millis(100),
            SimTime::from_secs(10),
            seed,
        )
    }

    /// Drive the app standalone by applying its own timer actions.
    fn drive(app: &mut OnOffSource, until: SimTime) -> u64 {
        let mut now = SimTime::ZERO;
        let mut ctx = AppCtx::new(now, NodeId(0), 9);
        app.on_start(&mut ctx);
        let mut pending: Vec<(SimTime, u64)> = Vec::new();
        let mut sent = 0u64;
        let drain = |ctx: &mut AppCtx, pending: &mut Vec<(SimTime, u64)>, sent: &mut u64| {
            for a in ctx.take_actions() {
                match a {
                    AppAction::Send { .. } | AppAction::SendFrom { .. } => *sent += 1,
                    AppAction::Timer { delay, timer_id } => {
                        pending.push((ctx.now + delay, timer_id))
                    }
                }
            }
        };
        drain(&mut ctx, &mut pending, &mut sent);
        while let Some(idx) =
            pending.iter().enumerate().min_by_key(|(_, &(t, _))| t).map(|(i, _)| i)
        {
            let (t, id) = pending.swap_remove(idx);
            if t > until {
                break;
            }
            now = t;
            let mut c = AppCtx::new(now, NodeId(0), 9);
            app.on_timer(&mut c, id);
            drain(&mut c, &mut pending, &mut sent);
        }
        sent
    }

    #[test]
    fn alternates_bursts_and_silence() {
        let mut app = source(42);
        let sent = drive(&mut app, SimTime::from_secs(5));
        assert!(app.bursts() >= 5, "bursts {}", app.bursts());
        assert_eq!(app.sent(), sent);
        // Duty cycle ~50%: full-rate 5 s would be ~4166 packets of 1500 B
        // at 10 Mbps; expect roughly half, with wide tolerance.
        assert!((800..3800).contains(&(sent as i64)), "sent {sent}");
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = source(7);
        let mut b = source(7);
        assert_eq!(drive(&mut a, SimTime::from_secs(3)), drive(&mut b, SimTime::from_secs(3)));
        let mut c = source(8);
        // Different seed → different burst pattern (overwhelmingly likely).
        assert_ne!(drive(&mut c, SimTime::from_secs(3)), drive(&mut a, SimTime::from_secs(0)));
    }

    #[test]
    fn stops_at_deadline() {
        let mut app = OnOffSource::new(
            NodeId(1),
            0,
            DataRate::from_mbps(10),
            1440,
            SimDuration::from_millis(50),
            SimDuration::from_millis(50),
            SimTime::from_millis(500),
            3,
        );
        drive(&mut app, SimTime::from_secs(10));
        let sent_at_deadline = app.sent();
        // No more sends past stop_at.
        let mut ctx = AppCtx::new(SimTime::from_secs(9), NodeId(0), 9);
        app.on_timer(&mut ctx, TIMER_TICK);
        assert!(ctx.take_actions().is_empty());
        assert_eq!(app.sent(), sent_at_deadline);
    }
}
