//! The TCP sender: sliding window, loss detection, recovery, logging.

use crate::tcp::cc::{CcState, CongestionControl};
use crate::tcp::config::TcpConfig;
use crate::tcp::rtt::RttEstimator;
use hypatia_constellation::NodeId;
use hypatia_netsim::app::{AppCtx, Application};
use hypatia_netsim::checkpoint::CheckpointError;
use hypatia_netsim::packet::{Packet, Payload, Segment, HEADER_BYTES};
use hypatia_util::{SimDuration, SimTime};

/// Per-sender event log for plotting (paper Figs. 4, 5, 19).
#[derive(Debug, Default, Clone)]
pub struct SenderLog {
    /// `(time, effective cwnd bytes)` after every change.
    pub cwnd: Vec<(SimTime, u64)>,
    /// `(time, RTT)` for every timestamp-derived sample — the "TCP
    /// per-packet RTT" series of Fig. 3.
    pub rtt_samples: Vec<(SimTime, SimDuration)>,
    /// Fast retransmits triggered.
    pub fast_retransmits: u64,
    /// RTO expirations.
    pub timeouts: u64,
    /// Segments retransmitted (either mechanism).
    pub retransmits: u64,
}

/// A TCP sender application. Install at `(node, port)`; it streams data to
/// `(dst, dst_port)` where a [`crate::TcpSink`] must be installed.
pub struct TcpSender {
    cfg: TcpConfig,
    dst: NodeId,
    dst_port: u16,
    /// Explicit source port for every emitted segment. `None` (the
    /// default) inherits the install port from the context — the classic
    /// one-app-per-flow layout. Bulk flow tables set it per flow so many
    /// senders can share one application slot (and one context port).
    src_port: Option<u16>,
    cc: Box<dyn CongestionControl>,
    st: CcState,
    /// Oldest unacknowledged byte.
    snd_una: u64,
    /// Next byte to send.
    snd_nxt: u64,
    /// Fast-recovery state.
    in_recovery: bool,
    recover: u64,
    dup_acks: u32,
    /// Window inflation during recovery (+1 MSS per extra dup ACK),
    /// capped at the flight size when the loss was detected — without the
    /// cap, new data sent during a long recovery elicits further dup ACKs
    /// and the window inflates without bound.
    inflation: u64,
    /// Flight size when fast retransmit fired (the inflation cap).
    recovery_flight: u64,
    /// RFC 6582 "Impatient": re-arm the RTO only on the *first* partial
    /// ACK of a recovery, so a recovery that crawls (one hole per RTT,
    /// no SACK) is cut short by the retransmission timer.
    rearmed_on_partial: bool,
    rtt: RttEstimator,
    rto_gen: u64,
    /// Is a live RTO timer outstanding? (`try_send` only arms when none
    /// is, so the Impatient partial-ACK policy is not overridden.)
    rto_armed: bool,
    /// Event log.
    pub log: SenderLog,
}

impl TcpSender {
    /// Create a sender towards `(dst, dst_port)` with the given congestion
    /// controller.
    pub fn new(dst: NodeId, dst_port: u16, cfg: TcpConfig, cc: Box<dyn CongestionControl>) -> Self {
        let st = CcState::new(cfg.mss as u64, cfg.initial_cwnd_segments as u64);
        TcpSender {
            cfg,
            dst,
            dst_port,
            src_port: None,
            cc,
            st,
            snd_una: 0,
            snd_nxt: 0,
            in_recovery: false,
            recover: 0,
            dup_acks: 0,
            inflation: 0,
            recovery_flight: 0,
            rearmed_on_partial: false,
            rtt: RttEstimator::new(SimDuration::from_secs(1), SimDuration::from_secs(1)),
            rto_gen: 0,
            rto_armed: false,
            log: SenderLog::default(),
        }
    }

    /// Stamp every outgoing segment with this source port instead of the
    /// install port. Required when the sender shares an application slot
    /// with other flows (see [`crate::BulkTcpSender`]).
    pub fn with_source_port(mut self, port: u16) -> Self {
        self.src_port = Some(port);
        self
    }

    /// Effective window: cwnd plus recovery inflation.
    pub fn effective_cwnd(&self) -> u64 {
        self.st.cwnd + self.inflation
    }

    /// Bytes in flight.
    pub fn inflight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Bytes cumulatively acknowledged.
    pub fn acked_bytes(&self) -> u64 {
        self.snd_una
    }

    /// The congestion controller's name.
    pub fn cc_name(&self) -> &'static str {
        self.cc.name()
    }

    /// Smoothed RTT estimate.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.rtt.srtt()
    }

    fn log_cwnd(&mut self, now: SimTime) {
        let w = self.effective_cwnd();
        if self.log.cwnd.last().map(|&(_, lw)| lw) != Some(w) {
            self.log.cwnd.push((now, w));
        }
    }

    fn remaining_data(&self) -> u64 {
        match self.cfg.max_data {
            Some(max) => max.saturating_sub(self.snd_nxt),
            None => u64::MAX,
        }
    }

    fn send_segment(&mut self, ctx: &mut AppCtx, seq: u64, len: u32) {
        let seg = Segment {
            seq,
            payload_bytes: len,
            ack: 0,
            ts: ctx.now,
            ts_echo: SimTime::ZERO,
            fin: false,
        };
        match self.src_port {
            Some(p) => {
                ctx.send_from(p, self.dst, self.dst_port, len + HEADER_BYTES, Payload::Seg(seg))
            }
            None => ctx.send(self.dst, self.dst_port, len + HEADER_BYTES, Payload::Seg(seg)),
        }
    }

    /// Send as much new data as the window allows.
    fn try_send(&mut self, ctx: &mut AppCtx) {
        while self.inflight() < self.effective_cwnd() && self.remaining_data() > 0 {
            let window_room = self.effective_cwnd() - self.inflight();
            let len = (self.st.mss).min(window_room).min(self.remaining_data()).min(u32::MAX as u64)
                as u32;
            if len == 0 {
                break;
            }
            let seq = self.snd_nxt;
            self.snd_nxt += len as u64;
            self.send_segment(ctx, seq, len);
        }
        if self.inflight() > 0 && !self.rto_armed {
            self.arm_rto(ctx);
        }
    }

    fn retransmit_head(&mut self, ctx: &mut AppCtx) {
        let len = (self.st.mss).min(self.inflight()).max(1).min(u32::MAX as u64) as u32;
        let seq = self.snd_una;
        self.log.retransmits += 1;
        self.send_segment(ctx, seq, len);
    }

    fn arm_rto(&mut self, ctx: &mut AppCtx) {
        self.rto_gen += 1;
        self.rto_armed = true;
        ctx.set_timer(self.rtt.rto(), self.rto_gen);
    }

    fn disarm_rto(&mut self) {
        self.rto_gen += 1; // stale ids are ignored on firing
        self.rto_armed = false;
    }

    fn handle_ack(&mut self, ctx: &mut AppCtx, seg: Segment) {
        // Timestamp-derived RTT sample.
        let sample = (seg.ts_echo > SimTime::ZERO).then(|| ctx.now.since(seg.ts_echo));
        if let Some(s) = sample {
            self.log.rtt_samples.push((ctx.now, s));
        }

        if seg.ack > self.snd_una {
            let newly = seg.ack - self.snd_una;
            self.snd_una = seg.ack;
            // After an RTO's go-back-N, a late ACK for pre-timeout data can
            // overtake snd_nxt; inflight() must never underflow.
            self.snd_nxt = self.snd_nxt.max(self.snd_una);
            self.dup_acks = 0;
            if let Some(s) = sample {
                self.rtt.update(s);
            }

            let mut rearm = true;
            if self.in_recovery {
                if self.snd_una >= self.recover {
                    // Full ACK: leave recovery.
                    self.in_recovery = false;
                    self.inflation = 0;
                    self.cc.on_recovery_exit(&mut self.st, ctx.now);
                } else {
                    // Partial ACK (RFC 6582): retransmit the next hole and
                    // deflate the inflation by what was ACKed, plus 1 MSS.
                    self.inflation =
                        self.inflation.saturating_sub(newly).saturating_add(self.st.mss);
                    self.retransmit_head(ctx);
                    // Impatient variant: only the first partial ACK of a
                    // recovery restarts the retransmission timer.
                    if self.rearmed_on_partial {
                        rearm = false;
                    }
                    self.rearmed_on_partial = true;
                }
            } else {
                self.cc.on_ack(&mut self.st, newly, sample, ctx.now);
            }

            if self.inflight() == 0 {
                self.disarm_rto();
            } else if rearm {
                self.arm_rto(ctx);
            }
        } else if seg.ack == self.snd_una && self.inflight() > 0 {
            // Duplicate ACK.
            self.dup_acks += 1;
            // RFC 6582 §6: after an RTO's go-back-N, dup ACKs for data sent
            // before the timeout must not re-trigger fast retransmit; only
            // once snd_una passes the old `recover` point may a new loss
            // episode begin.
            if !self.in_recovery
                && self.dup_acks == self.cfg.dupack_threshold
                && self.snd_una >= self.recover
            {
                self.in_recovery = true;
                self.recover = self.snd_nxt;
                self.inflation = 0;
                self.recovery_flight = self.inflight();
                self.rearmed_on_partial = false;
                self.log.fast_retransmits += 1;
                let inflight = self.inflight();
                self.cc.on_fast_retransmit(&mut self.st, inflight, ctx.now);
                self.retransmit_head(ctx);
            } else if self.in_recovery {
                // Window inflation: each further dup ACK signals a departed
                // packet. Capped at the flight size at loss.
                self.inflation = (self.inflation + self.st.mss).min(self.recovery_flight);
            }
        }

        self.try_send(ctx);
        self.log_cwnd(ctx.now);
    }
}

// The full sender state — window, CC internals, sequence space, recovery
// machine, RTT estimator, and the event log — so a resumed run continues
// (and plots) bit-identically. The MSS travels in the window state; one
// that disagrees with the configuration means the snapshot belongs to a
// differently-configured sender.
hypatia_netsim::snap_fields!(TcpSender {
    st,
    cc,
    snd_una,
    snd_nxt,
    in_recovery,
    recover,
    dup_acks,
    inflation,
    recovery_flight,
    rearmed_on_partial,
    rtt,
    rto_gen,
    rto_armed,
    log,
} rebuilt { cfg, dst, dst_port, src_port }
  check |s: &TcpSender| match s.st.mss {
    mss if mss == s.cfg.mss as u64 => Ok(()),
    mss => Err(CheckpointError::Malformed(format!(
        "snapshot MSS {mss} != configured MSS {}",
        s.cfg.mss
    ))),
});

hypatia_netsim::snap_fields!(SenderLog {
    cwnd,
    rtt_samples,
    fast_retransmits,
    timeouts,
    retransmits
});

impl Application for TcpSender {
    fn on_start(&mut self, ctx: &mut AppCtx) {
        self.log_cwnd(ctx.now);
        self.try_send(ctx);
    }

    fn on_packet(&mut self, ctx: &mut AppCtx, packet: &Packet) {
        if let Payload::Seg(seg) = packet.payload {
            if seg.payload_bytes == 0 {
                self.handle_ack(ctx, seg);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut AppCtx, timer_id: u64) {
        if timer_id != self.rto_gen {
            return; // stale RTO
        }
        self.rto_armed = false;
        if self.inflight() == 0 {
            return;
        }
        // Retransmission timeout: collapse and go-back-N. Remember the
        // highest sequence sent so dup ACKs from the old flight cannot
        // spuriously re-enter fast retransmit (RFC 6582 §6).
        self.log.timeouts += 1;
        let inflight = self.inflight();
        self.cc.on_timeout(&mut self.st, inflight, ctx.now);
        self.in_recovery = false;
        self.inflation = 0;
        self.dup_acks = 0;
        self.recover = self.snd_nxt;
        self.snd_nxt = self.snd_una;
        self.rtt.backoff();
        self.try_send(ctx);
        self.log_cwnd(ctx.now);
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
    use crate::tcp::cc::newreno::NewReno;

    fn sender() -> TcpSender {
        TcpSender::new(NodeId(9), 80, TcpConfig::default().with_mss(1000), Box::new(NewReno::new()))
    }

    fn ack(ack: u64, ts_echo_ms: u64) -> Segment {
        Segment {
            seq: 0,
            payload_bytes: 0,
            ack,
            ts: SimTime::ZERO,
            ts_echo: SimTime::from_millis(ts_echo_ms),
            fin: false,
        }
    }

    fn count_sends(ctx: &mut AppCtx) -> usize {
        ctx.take_actions()
            .iter()
            .filter(|a| matches!(a, hypatia_netsim::app::AppAction::Send { .. }))
            .count()
    }

    #[test]
    fn initial_window_burst() {
        let mut s = sender();
        let mut ctx = AppCtx::new(SimTime::ZERO, NodeId(0), 70);
        s.on_start(&mut ctx);
        assert_eq!(count_sends(&mut ctx), 10, "initial cwnd = 10 segments");
        assert_eq!(s.inflight(), 10_000);
    }

    #[test]
    fn ack_advances_and_sends_more() {
        let mut s = sender();
        let mut ctx = AppCtx::new(SimTime::ZERO, NodeId(0), 70);
        s.on_start(&mut ctx);
        ctx.take_actions();

        let mut ctx2 = AppCtx::new(SimTime::from_millis(100), NodeId(0), 70);
        s.handle_ack(&mut ctx2, ack(1000, 1));
        assert_eq!(s.acked_bytes(), 1000);
        // Slow start: cwnd 10→11 segments; 1 ACKed + room for 2 more.
        let sends = count_sends(&mut ctx2);
        assert_eq!(sends, 2, "expected 2 new segments, got {sends}");
    }

    #[test]
    fn rtt_sample_recorded_from_echo() {
        let mut s = sender();
        let mut ctx = AppCtx::new(SimTime::ZERO, NodeId(0), 70);
        s.on_start(&mut ctx);
        let mut ctx2 = AppCtx::new(SimTime::from_millis(120), NodeId(0), 70);
        s.handle_ack(&mut ctx2, ack(1000, 20));
        assert_eq!(s.log.rtt_samples.len(), 1);
        assert_eq!(s.log.rtt_samples[0].1, SimDuration::from_millis(100));
    }

    #[test]
    fn three_dup_acks_trigger_fast_retransmit() {
        let mut s = sender();
        let mut ctx = AppCtx::new(SimTime::ZERO, NodeId(0), 70);
        s.on_start(&mut ctx);
        ctx.take_actions();
        let cwnd_before = s.effective_cwnd();

        for i in 0..3 {
            let mut c = AppCtx::new(SimTime::from_millis(100 + i), NodeId(0), 70);
            s.handle_ack(&mut c, ack(0, 1));
        }
        assert_eq!(s.log.fast_retransmits, 1);
        assert!(s.effective_cwnd() < cwnd_before, "window must shrink");
        assert_eq!(s.log.retransmits, 1);
    }

    #[test]
    fn recovery_exits_on_full_ack() {
        let mut s = sender();
        let mut ctx = AppCtx::new(SimTime::ZERO, NodeId(0), 70);
        s.on_start(&mut ctx);
        for i in 0..3 {
            let mut c = AppCtx::new(SimTime::from_millis(100 + i), NodeId(0), 70);
            s.handle_ack(&mut c, ack(0, 1));
        }
        assert!(s.in_recovery);
        let mut c = AppCtx::new(SimTime::from_millis(200), NodeId(0), 70);
        s.handle_ack(&mut c, ack(10_000, 150)); // covers `recover`
        assert!(!s.in_recovery);
        assert_eq!(s.acked_bytes(), 10_000);
    }

    #[test]
    fn rto_collapses_window_and_goes_back_n() {
        let mut s = sender();
        let mut ctx = AppCtx::new(SimTime::ZERO, NodeId(0), 70);
        s.on_start(&mut ctx);
        ctx.take_actions();
        let gen = s.rto_gen;
        let mut c = AppCtx::new(SimTime::from_secs(1), NodeId(0), 70);
        s.on_timer(&mut c, gen);
        assert_eq!(s.log.timeouts, 1);
        assert_eq!(s.effective_cwnd(), 1000, "cwnd = 1 MSS after RTO");
        // Go-back-N: snd_nxt reset then one segment sent.
        assert_eq!(s.inflight(), 1000);
    }

    #[test]
    fn stale_rto_ignored() {
        let mut s = sender();
        let mut ctx = AppCtx::new(SimTime::ZERO, NodeId(0), 70);
        s.on_start(&mut ctx);
        let stale = s.rto_gen.wrapping_sub(1);
        let mut c = AppCtx::new(SimTime::from_secs(1), NodeId(0), 70);
        s.on_timer(&mut c, stale);
        assert_eq!(s.log.timeouts, 0);
    }

    #[test]
    fn bounded_flow_stops_at_max_data() {
        let mut s = TcpSender::new(
            NodeId(9),
            80,
            TcpConfig::default().with_mss(1000).with_max_data(2_500),
            Box::new(NewReno::new()),
        );
        let mut ctx = AppCtx::new(SimTime::ZERO, NodeId(0), 70);
        s.on_start(&mut ctx);
        // 2500 B = 2 full + 1 partial segment.
        assert_eq!(count_sends(&mut ctx), 3);
        assert_eq!(s.inflight(), 2_500);
        let mut c = AppCtx::new(SimTime::from_millis(100), NodeId(0), 70);
        s.handle_ack(&mut c, ack(2_500, 1));
        assert_eq!(count_sends(&mut c), 0, "no data left");
    }

    #[test]
    fn cwnd_log_records_changes() {
        let mut s = sender();
        let mut ctx = AppCtx::new(SimTime::ZERO, NodeId(0), 70);
        s.on_start(&mut ctx);
        let n0 = s.log.cwnd.len();
        let mut c = AppCtx::new(SimTime::from_millis(100), NodeId(0), 70);
        s.handle_ack(&mut c, ack(1000, 1));
        assert!(s.log.cwnd.len() > n0, "cwnd growth must be logged");
    }

    /// The window state carries the MSS; restoring it into a sender
    /// configured with another MSS is malformed input.
    #[test]
    fn restore_rejects_a_different_mss() {
        use hypatia_netsim::checkpoint::{Snap, SnapReader, SnapWriter};
        let image = || {
            let mut w = SnapWriter::new(0);
            sender().put(&mut w);
            SnapReader::from_bytes(w.finish(), 0).unwrap()
        };
        assert!(sender().restore(&mut image()).is_ok());
        let cfg = TcpConfig::default().with_mss(1200);
        let mut other = TcpSender::new(NodeId(9), 80, cfg, Box::new(NewReno::new()));
        let err = other.restore(&mut image()).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Malformed(ref m) if m.contains("MSS 1000")),
            "{err}"
        );
    }
}
