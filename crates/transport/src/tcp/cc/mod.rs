//! The congestion-control interface.
//!
//! Senders drive one of these state machines; the window/ssthresh live in
//! [`CcState`] so algorithms stay small. Fast-recovery window *inflation*
//! (+1 MSS per duplicate ACK) is handled by the sender uniformly, as ns-3
//! does; algorithms decide the window on ACK, on entering fast retransmit,
//! on exiting recovery, and on timeout.

pub mod bbr;
pub mod cubic;
pub mod newreno;
pub mod vegas;

use hypatia_netsim::checkpoint::Snap;
use hypatia_util::{SimDuration, SimTime};

/// Window state shared by all algorithms (bytes).
#[derive(Debug, Clone)]
pub struct CcState {
    /// Congestion window, bytes.
    pub cwnd: u64,
    /// Slow-start threshold, bytes.
    pub ssthresh: u64,
    /// Segment size, bytes.
    pub mss: u64,
}

impl CcState {
    /// Initial state: `initial_segments · mss` window, effectively-infinite
    /// ssthresh.
    pub fn new(mss: u64, initial_segments: u64) -> Self {
        assert!(mss > 0 && initial_segments > 0);
        CcState { cwnd: mss * initial_segments, ssthresh: u64::MAX / 2, mss }
    }

    /// In slow start?
    pub fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    /// Clamp the window to at least one segment.
    pub fn floor_one_mss(&mut self) {
        self.cwnd = self.cwnd.max(self.mss);
    }

    /// Window in whole segments (rounded down, at least 1).
    pub fn cwnd_segments(&self) -> u64 {
        (self.cwnd / self.mss).max(1)
    }
}

hypatia_netsim::snap_fields!(CcState { cwnd, ssthresh, mss });

/// A pluggable congestion-control algorithm.
///
/// `Send` so TCP endpoints (which box one of these) satisfy the
/// `Application: Send` bound of the sharded engine. Its [`Snap`] image is
/// the algorithm-private state only (accumulators, model windows): the
/// window itself lives in [`CcState`] and is saved by the sender, and a
/// restore lands in a freshly-constructed instance of the same algorithm.
pub trait CongestionControl: Snap + Send + 'static {
    /// Algorithm name (for logs and plots).
    fn name(&self) -> &'static str;

    /// A cumulative ACK advanced `snd_una` by `newly_acked` bytes outside
    /// recovery. `rtt` carries the timestamp-derived sample when available.
    fn on_ack(
        &mut self,
        state: &mut CcState,
        newly_acked: u64,
        rtt: Option<SimDuration>,
        now: SimTime,
    );

    /// Entering fast retransmit after the dup-ACK threshold; `inflight` is
    /// the bytes outstanding at that moment.
    fn on_fast_retransmit(&mut self, state: &mut CcState, inflight: u64, now: SimTime);

    /// Leaving fast recovery (the recover point got cumulatively ACKed).
    fn on_recovery_exit(&mut self, state: &mut CcState, now: SimTime);

    /// Retransmission timeout.
    fn on_timeout(&mut self, state: &mut CcState, inflight: u64, now: SimTime);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state() {
        let st = CcState::new(1380, 10);
        assert_eq!(st.cwnd, 13_800);
        assert!(st.in_slow_start());
        assert_eq!(st.cwnd_segments(), 10);
    }

    #[test]
    fn floor_applies() {
        let mut st = CcState::new(1380, 10);
        st.cwnd = 10;
        st.floor_one_mss();
        assert_eq!(st.cwnd, 1380);
        assert_eq!(st.cwnd_segments(), 1);
    }
}
