//! TCP Vegas: the paper's delay-based algorithm.
//!
//! Vegas compares expected throughput (`cwnd / baseRTT`) with actual
//! throughput (`cwnd / RTT`) once per RTT and nudges the window so the
//! difference stays between `alpha` and `beta` segments. Its failure mode
//! on LEO paths (paper §4.2, Fig. 5) falls out of the algorithm: `baseRTT`
//! is the minimum RTT ever seen, so when the *path itself* lengthens, the
//! inflated RTT reads as persistent queueing and Vegas pins the window
//! down — "interprets the increase in latency as a sign of congestion,
//! drastically cuts its congestion window, and achieves very poor
//! throughput after this point".

use super::{CcState, CongestionControl};
use hypatia_util::{SimDuration, SimTime};

/// Delay-based congestion control (Brakmo & Peterson parameters:
/// α = 2, β = 4, γ = 1 segments).
#[derive(Debug)]
pub struct Vegas {
    alpha: u64,
    beta: u64,
    gamma: u64,
    /// Minimum RTT ever observed.
    base_rtt: Option<SimDuration>,
    /// Minimum RTT within the current epoch (robust to delayed-ACK noise).
    epoch_min_rtt: Option<SimDuration>,
    /// RTT samples collected this epoch.
    epoch_samples: u32,
    /// Bytes ACKed since the epoch began; an epoch ends when a full cwnd
    /// has been ACKed (≈ one RTT).
    epoch_acked: u64,
    /// Loss reactions are Reno-like.
    reno: super::newreno::NewReno,
}

impl Default for Vegas {
    fn default() -> Self {
        Self::new()
    }
}

impl Vegas {
    /// Standard-parameter Vegas.
    pub fn new() -> Self {
        Vegas {
            alpha: 2,
            beta: 4,
            gamma: 1,
            base_rtt: None,
            epoch_min_rtt: None,
            epoch_samples: 0,
            epoch_acked: 0,
            reno: super::newreno::NewReno::new(),
        }
    }

    /// The current baseRTT estimate (public for experiment logging).
    pub fn base_rtt(&self) -> Option<SimDuration> {
        self.base_rtt
    }

    /// Difference between expected and actual rate, in segments:
    /// `diff = cwnd · (RTT − baseRTT) / RTT / MSS`.
    fn diff_segments(&self, state: &CcState, rtt: SimDuration) -> f64 {
        let base = match self.base_rtt {
            Some(b) => b.secs_f64(),
            None => return 0.0,
        };
        let rtt_s = rtt.secs_f64();
        if rtt_s <= 0.0 {
            return 0.0;
        }
        state.cwnd as f64 * (rtt_s - base) / rtt_s / state.mss as f64
    }

    fn end_of_epoch(&mut self, state: &mut CcState) {
        let Some(rtt) = self.epoch_min_rtt else { return };
        let diff = self.diff_segments(state, rtt);
        if state.in_slow_start() {
            // Vegas slow start: stop exponential growth once the queue
            // signal appears (γ), handing over to linear adjustment.
            if diff > self.gamma as f64 {
                state.ssthresh = state.cwnd.min(state.ssthresh);
            } else {
                state.cwnd += state.mss;
            }
        } else if diff < self.alpha as f64 {
            state.cwnd += state.mss;
        } else if diff > self.beta as f64 {
            state.cwnd = state.cwnd.saturating_sub(state.mss);
            state.floor_one_mss();
        }
        self.epoch_min_rtt = None;
        self.epoch_samples = 0;
        self.epoch_acked = 0;
    }
}

impl CongestionControl for Vegas {
    fn name(&self) -> &'static str {
        "Vegas"
    }

    fn on_ack(
        &mut self,
        state: &mut CcState,
        newly_acked: u64,
        rtt: Option<SimDuration>,
        _now: SimTime,
    ) {
        if let Some(sample) = rtt {
            self.base_rtt = Some(self.base_rtt.map_or(sample, |b| b.min(sample)));
            self.epoch_min_rtt = Some(self.epoch_min_rtt.map_or(sample, |m| m.min(sample)));
            self.epoch_samples += 1;
        }
        self.epoch_acked += newly_acked;
        if self.epoch_acked >= state.cwnd && self.epoch_samples >= 2 {
            self.end_of_epoch(state);
        }
    }

    fn on_fast_retransmit(&mut self, state: &mut CcState, inflight: u64, now: SimTime) {
        self.reno.on_fast_retransmit(state, inflight, now);
        self.epoch_min_rtt = None;
        self.epoch_samples = 0;
        self.epoch_acked = 0;
    }

    fn on_recovery_exit(&mut self, state: &mut CcState, now: SimTime) {
        self.reno.on_recovery_exit(state, now);
    }

    fn on_timeout(&mut self, state: &mut CcState, inflight: u64, now: SimTime) {
        self.reno.on_timeout(state, inflight, now);
        self.epoch_min_rtt = None;
        self.epoch_samples = 0;
        self.epoch_acked = 0;
    }
}

hypatia_netsim::snap_fields!(Vegas { base_rtt, epoch_min_rtt, epoch_samples, epoch_acked, reno }
    rebuilt { alpha, beta, gamma });

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> CcState {
        let mut st = CcState::new(1000, 10);
        st.ssthresh = 10_000; // start at the slow-start boundary
        st
    }

    /// Feed one epoch's worth of ACKs with a fixed RTT.
    fn run_epoch(cc: &mut Vegas, st: &mut CcState, rtt_ms: u64) {
        let per_ack = st.mss;
        let acks = st.cwnd / per_ack + 1;
        for _ in 0..acks {
            cc.on_ack(st, per_ack, Some(SimDuration::from_millis(rtt_ms)), SimTime::ZERO);
        }
    }

    #[test]
    fn steady_low_delay_grows_window() {
        let mut cc = Vegas::new();
        let mut st = state();
        let before = st.cwnd;
        // RTT equals baseRTT → diff 0 < alpha → +1 MSS per epoch.
        run_epoch(&mut cc, &mut st, 100);
        run_epoch(&mut cc, &mut st, 100);
        assert!(st.cwnd > before, "window should grow with empty queue");
    }

    #[test]
    fn queueing_delay_above_beta_shrinks_window() {
        let mut cc = Vegas::new();
        let mut st = state();
        run_epoch(&mut cc, &mut st, 100); // establish baseRTT = 100 ms
        let grown = st.cwnd;
        // Now RTT 2× base: diff = cwnd/2 segments ≫ beta → shrink. (A few
        // epochs are needed: one low-RTT sample can straddle the epoch
        // boundary and mask the first adjustment.)
        for _ in 0..6 {
            run_epoch(&mut cc, &mut st, 200);
        }
        assert!(st.cwnd < grown, "window must shrink under standing delay: {} vs {grown}", st.cwnd);
    }

    /// The paper's Fig. 5 failure mode: a *path* RTT increase reads as
    /// congestion and throughput collapses because baseRTT never rises.
    #[test]
    fn path_rtt_increase_collapses_window() {
        let mut cc = Vegas::new();
        let mut st = state();
        st.ssthresh = st.cwnd; // skip slow start for clarity
        run_epoch(&mut cc, &mut st, 96); // baseRTT = 96 ms (Rio–St.P. short path)
        for _ in 0..50 {
            run_epoch(&mut cc, &mut st, 111); // path now 111 ms, no queueing
        }
        // Equilibrium: diff = cwnd_seg · (1 − 96/111) ∈ [alpha, beta]
        // → cwnd_seg ≈ beta / 0.135 ≈ 30 — far below a 10 Mbit/s BDP and a
        // fraction of what NewReno would use.
        let cwnd_seg = st.cwnd / st.mss;
        assert!(cwnd_seg <= 32, "window did not collapse: {cwnd_seg} segments");
        assert_eq!(
            cc.base_rtt(),
            Some(SimDuration::from_millis(96)),
            "baseRTT must stay at the old minimum"
        );
    }

    #[test]
    fn base_rtt_tracks_minimum_only() {
        let mut cc = Vegas::new();
        let mut st = state();
        cc.on_ack(&mut st, 1000, Some(SimDuration::from_millis(120)), SimTime::ZERO);
        cc.on_ack(&mut st, 1000, Some(SimDuration::from_millis(90)), SimTime::ZERO);
        cc.on_ack(&mut st, 1000, Some(SimDuration::from_millis(150)), SimTime::ZERO);
        assert_eq!(cc.base_rtt(), Some(SimDuration::from_millis(90)));
    }

    #[test]
    fn loss_reactions_are_reno_like() {
        let mut cc = Vegas::new();
        let mut st = state();
        cc.on_timeout(&mut st, 8_000, SimTime::ZERO);
        assert_eq!(st.cwnd, st.mss);
        assert_eq!(st.ssthresh, 4_000);
    }

    #[test]
    fn slow_start_exits_on_gamma() {
        let mut cc = Vegas::new();
        let mut st = CcState::new(1000, 4); // in slow start (ssthresh huge)
        assert!(st.in_slow_start());
        run_epoch(&mut cc, &mut st, 100); // baseRTT
                                          // Large standing delay → γ exceeded → ssthresh clamped to cwnd.
        run_epoch(&mut cc, &mut st, 300);
        run_epoch(&mut cc, &mut st, 300);
        assert!(!st.in_slow_start(), "gamma signal must end slow start");
    }
}
