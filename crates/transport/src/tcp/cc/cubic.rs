//! CUBIC (RFC 8312): extension beyond the paper's two algorithms.
//!
//! The paper notes Hypatia "can be used with any congestion control
//! algorithm implemented in ns-3"; CUBIC is the obvious third candidate
//! (today's default loss-based CC), included to support ablations of the
//! window-growth function on LEO paths.

use super::{CcState, CongestionControl};
use hypatia_util::{SimDuration, SimTime};

/// CUBIC constants per RFC 8312.
const C: f64 = 0.4;
const BETA: f64 = 0.7;

/// Cubic window growth with fast convergence.
#[derive(Debug, Default)]
pub struct Cubic {
    /// Window size before the last reduction, bytes.
    w_max: f64,
    /// Epoch start (None until the first congestion event or ACK after it).
    epoch_start: Option<SimTime>,
    /// Time (s) at which the cubic reaches `w_max` again.
    k: f64,
    /// cwnd estimate tracked in f64 to avoid integer truncation feedback.
    w_cubic_origin: f64,
}

impl Cubic {
    /// A fresh CUBIC instance.
    pub fn new() -> Self {
        Self::default()
    }

    fn enter_epoch(&mut self, state: &CcState, now: SimTime) {
        self.epoch_start = Some(now);
        let w = state.cwnd as f64;
        self.w_cubic_origin = w;
        self.k =
            if self.w_max > w { ((self.w_max - w) / (C * state.mss as f64)).cbrt() } else { 0.0 };
    }

    fn reduce(&mut self, state: &mut CcState, now: SimTime) {
        let w = state.cwnd as f64;
        // Fast convergence: release bandwidth faster when shrinking again.
        self.w_max = if w < self.w_max { w * (1.0 + BETA) / 2.0 } else { w };
        state.ssthresh = ((w * BETA) as u64).max(2 * state.mss);
        state.cwnd = state.ssthresh;
        state.floor_one_mss();
        self.epoch_start = None;
        let _ = now;
    }
}

impl CongestionControl for Cubic {
    fn name(&self) -> &'static str {
        "Cubic"
    }

    fn on_ack(
        &mut self,
        state: &mut CcState,
        newly_acked: u64,
        _rtt: Option<SimDuration>,
        now: SimTime,
    ) {
        if state.in_slow_start() {
            state.cwnd += newly_acked.min(state.mss);
            return;
        }
        if self.epoch_start.is_none() {
            self.enter_epoch(state, now);
        }
        let t = now.since(self.epoch_start.expect("epoch set")).secs_f64();
        let target = self.w_cubic_origin
            + C * state.mss as f64 * (t - self.k).powi(3)
            + (self.w_max - self.w_cubic_origin);
        // W_cubic(t) = C·(t−K)³·MSS + W_max  (expressed from the origin).
        let w_cubic = C * state.mss as f64 * (t - self.k).powi(3) + self.w_max;
        let _ = target;
        if w_cubic > state.cwnd as f64 {
            // Approach the cubic target by at most one MSS per ACK batch.
            let step = ((w_cubic - state.cwnd as f64).min(state.mss as f64)).max(1.0) as u64;
            state.cwnd += step;
        } else {
            // TCP-friendly/concave floor: grow slowly (Reno-rate lower
            // bound approximated at 1 MSS per window).
            state.cwnd += (state.mss as f64 * state.mss as f64 / state.cwnd as f64) as u64;
        }
    }

    fn on_fast_retransmit(&mut self, state: &mut CcState, _inflight: u64, now: SimTime) {
        self.reduce(state, now);
        // Keep the +3 MSS inflation convention of the sender's recovery.
        state.cwnd += 3 * state.mss;
    }

    fn on_recovery_exit(&mut self, state: &mut CcState, _now: SimTime) {
        state.cwnd = state.ssthresh;
        state.floor_one_mss();
    }

    fn on_timeout(&mut self, state: &mut CcState, _inflight: u64, now: SimTime) {
        self.reduce(state, now);
        state.cwnd = state.mss;
    }
}

hypatia_netsim::snap_fields!(Cubic { w_max, epoch_start, k, w_cubic_origin });

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> CcState {
        let mut st = CcState::new(1000, 10);
        st.ssthresh = 10_000;
        st
    }

    #[test]
    fn slow_start_is_exponential() {
        let mut cc = Cubic::new();
        let mut st = CcState::new(1000, 2);
        let before = st.cwnd;
        cc.on_ack(&mut st, 1000, None, SimTime::ZERO);
        assert_eq!(st.cwnd, before + 1000);
    }

    #[test]
    fn reduction_multiplies_by_beta() {
        let mut cc = Cubic::new();
        let mut st = state();
        st.cwnd = 10_000;
        cc.on_timeout(&mut st, 10_000, SimTime::from_secs(1));
        assert_eq!(st.ssthresh, 7_000);
        assert_eq!(st.cwnd, 1_000);
    }

    #[test]
    fn concave_growth_toward_w_max() {
        let mut cc = Cubic::new();
        let mut st = state();
        st.cwnd = 10_000;
        cc.on_fast_retransmit(&mut st, 10_000, SimTime::from_secs(1));
        cc.on_recovery_exit(&mut st, SimTime::from_secs(1));
        let after_drop = st.cwnd;
        // Feed ACKs over simulated seconds; the window must climb back
        // towards w_max ≈ 10_000 but plateau near it (concave region).
        let mut t = SimTime::from_secs(1);
        for _ in 0..200 {
            t += SimDuration::from_millis(50);
            cc.on_ack(&mut st, 1000, None, t);
        }
        assert!(st.cwnd > after_drop, "no regrowth");
        assert!(st.cwnd >= 9_000, "should approach w_max, got {}", st.cwnd);
    }

    #[test]
    fn growth_accelerates_past_w_max() {
        // Convex region: beyond K the window should exceed the old w_max.
        let mut cc = Cubic::new();
        let mut st = state();
        st.cwnd = 10_000;
        cc.on_fast_retransmit(&mut st, 10_000, SimTime::from_secs(1));
        cc.on_recovery_exit(&mut st, SimTime::from_secs(1));
        let mut t = SimTime::from_secs(1);
        for _ in 0..2000 {
            t += SimDuration::from_millis(50);
            cc.on_ack(&mut st, 1000, None, t);
        }
        assert!(st.cwnd > 10_000, "window stuck at {}", st.cwnd);
    }

    #[test]
    fn fast_convergence_lowers_w_max_on_back_to_back_losses() {
        let mut cc = Cubic::new();
        let mut st = state();
        st.cwnd = 10_000;
        cc.on_timeout(&mut st, 10_000, SimTime::from_secs(1));
        let w_max_1 = cc.w_max;
        st.cwnd = 5_000; // lost again before regaining w_max
        cc.on_timeout(&mut st, 5_000, SimTime::from_secs(2));
        assert!(cc.w_max < w_max_1, "fast convergence must lower w_max");
    }
}
