//! TCP NewReno (RFC 5681 + RFC 6582): the paper's loss-based baseline.

use super::{CcState, CongestionControl};
use hypatia_util::{SimDuration, SimTime};

/// Loss-based AIMD with slow start and fast recovery.
#[derive(Debug, Default)]
pub struct NewReno {
    /// Byte accumulator for congestion-avoidance growth (Appropriate Byte
    /// Counting-style: +1 MSS per cwnd's worth of ACKed bytes).
    ca_acc: u64,
}

impl NewReno {
    /// A fresh NewReno instance.
    pub fn new() -> Self {
        Self::default()
    }

    fn halve_to_ssthresh(state: &mut CcState, inflight: u64) {
        state.ssthresh = (inflight / 2).max(2 * state.mss);
    }
}

impl CongestionControl for NewReno {
    fn name(&self) -> &'static str {
        "NewReno"
    }

    fn on_ack(
        &mut self,
        state: &mut CcState,
        newly_acked: u64,
        _rtt: Option<SimDuration>,
        _now: SimTime,
    ) {
        if state.in_slow_start() {
            // Exponential: grow by the bytes ACKed (capped at ssthresh).
            state.cwnd =
                (state.cwnd + newly_acked.min(state.mss)).min(state.ssthresh.max(state.cwnd));
        } else {
            // Congestion avoidance: +1 MSS per cwnd of ACKed data.
            self.ca_acc += newly_acked;
            if self.ca_acc >= state.cwnd {
                self.ca_acc -= state.cwnd;
                state.cwnd += state.mss;
            }
        }
    }

    fn on_fast_retransmit(&mut self, state: &mut CcState, inflight: u64, _now: SimTime) {
        Self::halve_to_ssthresh(state, inflight);
        // RFC 6582: cwnd = ssthresh + 3·MSS (the three dup ACKs left the
        // network).
        state.cwnd = state.ssthresh + 3 * state.mss;
        self.ca_acc = 0;
    }

    fn on_recovery_exit(&mut self, state: &mut CcState, _now: SimTime) {
        state.cwnd = state.ssthresh;
        state.floor_one_mss();
        self.ca_acc = 0;
    }

    fn on_timeout(&mut self, state: &mut CcState, inflight: u64, _now: SimTime) {
        Self::halve_to_ssthresh(state, inflight);
        state.cwnd = state.mss;
        self.ca_acc = 0;
    }
}

hypatia_netsim::snap_fields!(NewReno { ca_acc });

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> CcState {
        CcState::new(1000, 10)
    }

    #[test]
    fn slow_start_grows_exponentially_per_byte() {
        let mut cc = NewReno::new();
        let mut st = state();
        let before = st.cwnd;
        cc.on_ack(&mut st, 1000, None, SimTime::ZERO);
        assert_eq!(st.cwnd, before + 1000);
    }

    #[test]
    fn congestion_avoidance_grows_linearly() {
        let mut cc = NewReno::new();
        let mut st = state();
        st.ssthresh = 5_000; // below cwnd → CA
        let before = st.cwnd; // 10_000
                              // One full window of ACKs → exactly +1 MSS.
        for _ in 0..10 {
            cc.on_ack(&mut st, 1000, None, SimTime::ZERO);
        }
        assert_eq!(st.cwnd, before + 1000);
    }

    #[test]
    fn fast_retransmit_halves_and_inflates() {
        let mut cc = NewReno::new();
        let mut st = state();
        cc.on_fast_retransmit(&mut st, 10_000, SimTime::ZERO);
        assert_eq!(st.ssthresh, 5_000);
        assert_eq!(st.cwnd, 5_000 + 3_000);
    }

    #[test]
    fn recovery_exit_deflates_to_ssthresh() {
        let mut cc = NewReno::new();
        let mut st = state();
        cc.on_fast_retransmit(&mut st, 10_000, SimTime::ZERO);
        cc.on_recovery_exit(&mut st, SimTime::ZERO);
        assert_eq!(st.cwnd, 5_000);
    }

    #[test]
    fn timeout_collapses_to_one_mss() {
        let mut cc = NewReno::new();
        let mut st = state();
        cc.on_timeout(&mut st, 8_000, SimTime::ZERO);
        assert_eq!(st.cwnd, 1_000);
        assert_eq!(st.ssthresh, 4_000);
    }

    #[test]
    fn ssthresh_floor_is_two_mss() {
        let mut cc = NewReno::new();
        let mut st = state();
        cc.on_timeout(&mut st, 1_000, SimTime::ZERO);
        assert_eq!(st.ssthresh, 2_000);
    }

    #[test]
    fn sawtooth_shape_over_epochs() {
        // Repeated loss at a fixed inflight yields the classic sawtooth:
        // grow linearly, halve, grow again.
        let mut cc = NewReno::new();
        let mut st = state();
        st.ssthresh = 4_000;
        st.cwnd = 8_000;
        cc.on_fast_retransmit(&mut st, 8_000, SimTime::ZERO);
        cc.on_recovery_exit(&mut st, SimTime::ZERO);
        let floor = st.cwnd;
        assert_eq!(floor, 4_000);
        for _ in 0..40 {
            cc.on_ack(&mut st, 1000, None, SimTime::ZERO);
        }
        assert!(st.cwnd > floor, "window must regrow after recovery");
    }
}
