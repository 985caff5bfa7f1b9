//! BBR-style model-based congestion control (extension).
//!
//! The paper singles BBR out: "once a mature implementation of BBR is
//! available, evaluating its behavior on LEO networks would be of high
//! interest" (§4.2). This is a window-based BBR in the spirit of
//! Cardwell et al.: it models the path with a windowed-max bottleneck
//! bandwidth (`BtlBw`) and a windowed-min round-trip propagation time
//! (`RTprop`), and sets `cwnd = gain · BtlBw · RTprop`.
//!
//! The property that matters on LEO paths: **both windows expire**. When
//! the path itself lengthens, the stale `RTprop` ages out (10 s window)
//! and BBR re-learns the new baseline — unlike Vegas, whose baseRTT is a
//! lifetime minimum and collapses permanently (Fig. 5). The
//! `adapts_to_path_rtt_increase` test pins this difference down.
//!
//! Simplifications vs the full BBR: no pacing (the sender is ACK-clocked),
//! no ProbeRTT state (the cwnd periodically drains via the 0.75 gain
//! phase), and loss is ignored except for RTO (as in BBRv1).

use super::{CcState, CongestionControl};
use hypatia_netsim::checkpoint::{CheckpointError, Snap, SnapReader, SnapWriter};
use hypatia_util::{SimDuration, SimTime};

/// ProbeBW gain cycle (BBRv1).
const CYCLE: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
/// Startup/Drain gains: 2/ln2 and its inverse.
const STARTUP_GAIN: f64 = 2.885;
const DRAIN_GAIN: f64 = 1.0 / 2.885;
/// RTprop window (BBRv1: 10 s).
const RTPROP_WINDOW: SimDuration = SimDuration::from_secs(10);
/// BtlBw window, in bandwidth epochs (≈ RTTs).
const BTLBW_WINDOW_EPOCHS: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Startup,
    Drain,
    ProbeBw,
}

/// Model-based congestion control.
#[derive(Debug)]
pub struct Bbr {
    mode: Mode,
    /// Recent delivery-rate samples `(epoch end, bytes/s)`.
    bw_samples: Vec<(SimTime, f64)>,
    /// Windowed-min RTT and when it was observed.
    rt_prop: Option<(SimTime, SimDuration)>,
    /// Bytes ACKed in the current bandwidth epoch.
    epoch_bytes: u64,
    epoch_start: SimTime,
    /// Startup plateau detection.
    full_bw: f64,
    full_bw_count: u32,
    /// ProbeBW cycle position.
    cycle_idx: usize,
    cycle_stamp: SimTime,
}

impl Default for Bbr {
    fn default() -> Self {
        Self::new()
    }
}

impl Bbr {
    /// A fresh BBR instance.
    pub fn new() -> Self {
        Bbr {
            mode: Mode::Startup,
            bw_samples: Vec::new(),
            rt_prop: None,
            epoch_bytes: 0,
            epoch_start: SimTime::ZERO,
            full_bw: 0.0,
            full_bw_count: 0,
            cycle_idx: 0,
            cycle_stamp: SimTime::ZERO,
        }
    }

    /// Current bottleneck-bandwidth estimate, bytes/s.
    pub fn btl_bw(&self) -> f64 {
        self.bw_samples.iter().map(|&(_, r)| r).fold(0.0, f64::max)
    }

    /// Current round-trip propagation estimate.
    pub fn rt_prop(&self) -> Option<SimDuration> {
        self.rt_prop.map(|(_, r)| r)
    }

    fn current_gain(&self, now: SimTime) -> f64 {
        match self.mode {
            Mode::Startup => STARTUP_GAIN,
            Mode::Drain => DRAIN_GAIN,
            Mode::ProbeBw => {
                let _ = now;
                CYCLE[self.cycle_idx]
            }
        }
    }

    fn update_model(&mut self, newly_acked: u64, rtt: Option<SimDuration>, now: SimTime) {
        // RTprop: windowed min; stale entries expire.
        if let Some(sample) = rtt {
            let expired =
                self.rt_prop.is_none_or(|(at, _)| now.saturating_since(at) > RTPROP_WINDOW);
            let lower = self.rt_prop.is_none_or(|(_, r)| sample <= r);
            if expired || lower {
                self.rt_prop = Some((now, sample));
            }
        }

        // BtlBw: delivery rate over ~one RTprop per epoch.
        self.epoch_bytes += newly_acked;
        let epoch_len = self.rt_prop.map_or(SimDuration::from_millis(100), |(_, r)| r);
        let elapsed = now.saturating_since(self.epoch_start);
        if elapsed >= epoch_len && !elapsed.is_zero() {
            let rate = self.epoch_bytes as f64 / elapsed.secs_f64();
            self.bw_samples.push((now, rate));
            if self.bw_samples.len() > BTLBW_WINDOW_EPOCHS {
                self.bw_samples.remove(0);
            }
            self.epoch_bytes = 0;
            self.epoch_start = now;
            self.on_epoch(rate, now);
        }
    }

    fn on_epoch(&mut self, rate: f64, now: SimTime) {
        match self.mode {
            Mode::Startup => {
                // Plateau: < 25% growth for 3 consecutive epochs.
                if rate > self.full_bw * 1.25 {
                    self.full_bw = rate;
                    self.full_bw_count = 0;
                } else {
                    self.full_bw_count += 1;
                    if self.full_bw_count >= 3 {
                        self.mode = Mode::Drain;
                    }
                }
            }
            Mode::Drain => {
                // One epoch of draining suffices at window granularity.
                self.mode = Mode::ProbeBw;
                self.cycle_idx = 0;
                self.cycle_stamp = now;
            }
            Mode::ProbeBw => {
                // Advance the gain cycle once per epoch.
                self.cycle_idx = (self.cycle_idx + 1) % CYCLE.len();
                self.cycle_stamp = now;
            }
        }
    }

    fn apply_cwnd(&self, state: &mut CcState, now: SimTime) {
        let (Some((_, rt_prop)), btl_bw) = (self.rt_prop, self.btl_bw()) else {
            return;
        };
        if btl_bw <= 0.0 {
            return;
        }
        let bdp = btl_bw * rt_prop.secs_f64();
        let target = (self.current_gain(now) * bdp) as u64;
        state.cwnd = target.max(4 * state.mss);
    }
}

impl CongestionControl for Bbr {
    fn name(&self) -> &'static str {
        "BBR"
    }

    fn on_ack(
        &mut self,
        state: &mut CcState,
        newly_acked: u64,
        rtt: Option<SimDuration>,
        now: SimTime,
    ) {
        self.update_model(newly_acked, rtt, now);
        if self.rt_prop.is_none() || self.bw_samples.is_empty() {
            // Model warm-up: grow like slow start.
            state.cwnd += newly_acked.min(state.mss);
            return;
        }
        self.apply_cwnd(state, now);
    }

    fn on_fast_retransmit(&mut self, state: &mut CcState, _inflight: u64, now: SimTime) {
        // BBRv1 does not reduce on isolated loss; keep the model's window.
        self.apply_cwnd(state, now);
    }

    fn on_recovery_exit(&mut self, state: &mut CcState, now: SimTime) {
        self.apply_cwnd(state, now);
    }

    fn on_timeout(&mut self, state: &mut CcState, _inflight: u64, _now: SimTime) {
        // Conservative on RTO, like BBRv1's CA_LOSS handling.
        state.cwnd = 4 * state.mss;
        self.epoch_bytes = 0;
    }
}

hypatia_netsim::snap_fields!(Bbr {
    mode,
    bw_samples,
    rt_prop,
    epoch_bytes,
    epoch_start,
    full_bw,
    full_bw_count,
    cycle_idx,
    cycle_stamp,
} check |bbr: &Bbr| match bbr.cycle_idx {
    i if i < CYCLE.len() => Ok(()),
    i => Err(CheckpointError::Malformed(format!("BBR cycle index {i} out of range"))),
});

/// The mode's tag byte (its discriminant).
impl Snap for Mode {
    fn put(&self, w: &mut SnapWriter) {
        (*self as u8).put(w);
    }

    fn restore(&mut self, r: &mut SnapReader) -> Result<(), CheckpointError> {
        *self = match r.get::<u8>()? {
            0 => Mode::Startup,
            1 => Mode::Drain,
            2 => Mode::ProbeBw,
            m => return Err(CheckpointError::Malformed(format!("unknown BBR mode {m}"))),
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> CcState {
        CcState::new(1000, 10)
    }

    /// Feed `epochs` of ACKs at a steady `rate_bytes_per_s` and `rtt_ms`.
    fn drive(
        cc: &mut Bbr,
        st: &mut CcState,
        start: SimTime,
        epochs: u32,
        rate: f64,
        rtt_ms: u64,
    ) -> SimTime {
        let mut now = start;
        let rtt = SimDuration::from_millis(rtt_ms);
        for _ in 0..epochs {
            // Deliver one RTT's worth of bytes in 10 ACKs across the epoch.
            let per_ack = (rate * rtt.secs_f64() / 10.0) as u64;
            for _ in 0..10 {
                now += rtt / 10;
                cc.on_ack(st, per_ack, Some(rtt), now);
            }
        }
        now
    }

    #[test]
    fn learns_bandwidth_and_rtprop() {
        let mut cc = Bbr::new();
        let mut st = state();
        // 1.25 MB/s (10 Mbit/s), 100 ms RTT.
        drive(&mut cc, &mut st, SimTime::ZERO, 20, 1.25e6, 100);
        let bw = cc.btl_bw();
        assert!((1.0e6..1.6e6).contains(&bw), "BtlBw {bw}");
        assert_eq!(cc.rt_prop(), Some(SimDuration::from_millis(100)));
    }

    #[test]
    fn exits_startup_at_plateau() {
        let mut cc = Bbr::new();
        let mut st = state();
        drive(&mut cc, &mut st, SimTime::ZERO, 20, 1.25e6, 100);
        assert_eq!(cc.mode, Mode::ProbeBw, "should reach ProbeBW at steady rate");
    }

    #[test]
    fn cwnd_tracks_bdp() {
        let mut cc = Bbr::new();
        let mut st = state();
        drive(&mut cc, &mut st, SimTime::ZERO, 30, 1.25e6, 100);
        // BDP = 1.25e6 B/s × 0.1 s = 125 kB; gains 0.75..1.25.
        assert!((80_000..200_000).contains(&st.cwnd), "cwnd {} vs BDP 125000", st.cwnd);
    }

    /// The LEO-critical behaviour: after a path-RTT increase, BBR's RTprop
    /// window expires and throughput recovers — Vegas never does.
    #[test]
    fn adapts_to_path_rtt_increase() {
        let mut cc = Bbr::new();
        let mut st = state();
        let now = drive(&mut cc, &mut st, SimTime::ZERO, 30, 1.25e6, 96);
        let cwnd_before = st.cwnd;
        // Path lengthens 96 → 111 ms (the paper's Rio–St.P. change) and
        // stays there past the 10 s RTprop window.
        let mut t = now;
        for _ in 0..15 {
            t = drive(&mut cc, &mut st, t, 10, 1.25e6, 111);
        }
        assert_eq!(
            cc.rt_prop(),
            Some(SimDuration::from_millis(111)),
            "RTprop must re-learn the longer path"
        );
        // cwnd should now reflect the *larger* BDP, not collapse.
        assert!(
            st.cwnd as f64 >= cwnd_before as f64 * 0.9,
            "cwnd collapsed: {} -> {}",
            cwnd_before,
            st.cwnd
        );
    }

    #[test]
    fn timeout_is_conservative_but_recovers() {
        let mut cc = Bbr::new();
        let mut st = state();
        let now = drive(&mut cc, &mut st, SimTime::ZERO, 20, 1.25e6, 100);
        let inflight = st.cwnd;
        cc.on_timeout(&mut st, inflight, now);
        assert_eq!(st.cwnd, 4_000);
        // Model retained: a few epochs restore the window.
        drive(&mut cc, &mut st, now, 5, 1.25e6, 100);
        assert!(st.cwnd > 50_000, "post-RTO cwnd {}", st.cwnd);
    }

    #[test]
    fn probe_cycle_advances() {
        let mut cc = Bbr::new();
        let mut st = state();
        drive(&mut cc, &mut st, SimTime::ZERO, 12, 1.25e6, 100);
        let idx1 = cc.cycle_idx;
        drive(&mut cc, &mut st, SimTime::from_secs(10), 3, 1.25e6, 100);
        assert_ne!(cc.cycle_idx, idx1, "gain cycle should advance per epoch");
    }

    /// A snapshot's cycle index must name a gain of [`CYCLE`]: out of
    /// range it is malformed input, not an index panic later.
    #[test]
    fn restore_rejects_an_out_of_range_cycle_index() {
        use hypatia_netsim::checkpoint::SnapReader;
        for (idx, ok) in [(CYCLE.len() - 1, true), (CYCLE.len(), false)] {
            let mut w = SnapWriter::new(0);
            Bbr { cycle_idx: idx, ..Bbr::new() }.put(&mut w);
            let mut r = SnapReader::from_bytes(w.finish(), 0).unwrap();
            let result = Bbr::new().restore(&mut r);
            assert_eq!(result.is_ok(), ok, "cycle index {idx}: {result:?}");
        }
    }
}
