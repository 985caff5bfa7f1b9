//! RFC 6298 RTT estimation and RTO management.
//!
//! Samples come from the timestamp echo on ACKs, so retransmission
//! ambiguity (Karn's problem) does not arise.

use hypatia_util::SimDuration;

/// Smoothed RTT estimator with exponential backoff.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    rto: SimDuration,
    min_rto: SimDuration,
    backoff_factor: u32,
    /// Latest raw sample (for logging).
    pub last_sample: Option<SimDuration>,
    /// Smallest sample ever seen (Vegas's baseRTT uses its own copy; this
    /// one is for diagnostics).
    pub min_sample: Option<SimDuration>,
}

impl RttEstimator {
    /// New estimator with the given initial RTO and floor.
    pub fn new(initial_rto: SimDuration, min_rto: SimDuration) -> Self {
        RttEstimator {
            srtt: None,
            rttvar: SimDuration::ZERO,
            rto: initial_rto,
            min_rto,
            backoff_factor: 1,
            last_sample: None,
            min_sample: None,
        }
    }

    /// Feed a new RTT sample.
    pub fn update(&mut self, sample: SimDuration) {
        self.last_sample = Some(sample);
        self.min_sample = Some(self.min_sample.map_or(sample, |m| m.min(sample)));
        match self.srtt {
            None => {
                // First sample: SRTT = R, RTTVAR = R/2.
                self.srtt = Some(sample);
                self.rttvar = sample / 2;
            }
            Some(srtt) => {
                // RTTVAR = 3/4 RTTVAR + 1/4 |SRTT - R|; SRTT = 7/8 SRTT + 1/8 R.
                let err = if sample > srtt { sample - srtt } else { srtt - sample };
                self.rttvar = (self.rttvar * 3 + err) / 4;
                self.srtt = Some((srtt * 7 + sample) / 8);
            }
        }
        let srtt = self.srtt.expect("just set");
        let var4 = self.rttvar * 4;
        // RTO = SRTT + max(G, 4·RTTVAR), clamped below by min_rto. A valid
        // sample also resets the exponential backoff.
        self.backoff_factor = 1;
        self.rto = (srtt + var4).max(self.min_rto);
    }

    /// Current RTO including any backoff.
    pub fn rto(&self) -> SimDuration {
        self.rto * self.backoff_factor as u64
    }

    /// Exponential backoff after a timeout (capped at 64×).
    pub fn backoff(&mut self) {
        self.backoff_factor = (self.backoff_factor * 2).min(64);
    }

    /// Smoothed RTT, if any sample has arrived.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }
}

hypatia_netsim::snap_fields!(RttEstimator {
    srtt,
    rttvar,
    rto,
    min_rto,
    backoff_factor,
    last_sample,
    min_sample,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn est() -> RttEstimator {
        RttEstimator::new(SimDuration::from_secs(1), SimDuration::from_millis(200))
    }

    #[test]
    fn initial_rto_used_before_samples() {
        assert_eq!(est().rto(), SimDuration::from_secs(1));
    }

    #[test]
    fn first_sample_initializes() {
        let mut e = est();
        e.update(SimDuration::from_millis(100));
        assert_eq!(e.srtt(), Some(SimDuration::from_millis(100)));
        // RTO = 100 + 4·50 = 300 ms.
        assert_eq!(e.rto(), SimDuration::from_millis(300));
    }

    #[test]
    fn steady_samples_converge_rto_to_floor() {
        let mut e = est();
        for _ in 0..50 {
            e.update(SimDuration::from_millis(100));
        }
        // RTTVAR decays towards 0 → RTO clamped at min_rto.
        assert_eq!(e.rto(), SimDuration::from_millis(200));
        assert_eq!(e.srtt(), Some(SimDuration::from_millis(100)));
    }

    #[test]
    fn variance_reacts_to_jitter() {
        let mut e = est();
        e.update(SimDuration::from_millis(100));
        e.update(SimDuration::from_millis(200));
        assert!(e.rto() > SimDuration::from_millis(300), "rto {}", e.rto());
    }

    #[test]
    fn backoff_doubles_and_sample_resets() {
        let mut e = est();
        e.update(SimDuration::from_millis(100));
        let base = e.rto();
        e.backoff();
        assert_eq!(e.rto(), base * 2);
        e.backoff();
        assert_eq!(e.rto(), base * 4);
        e.update(SimDuration::from_millis(100));
        assert!(e.rto() <= base, "sample must reset backoff");
    }

    #[test]
    fn backoff_capped() {
        let mut e = est();
        for _ in 0..20 {
            e.backoff();
        }
        assert_eq!(e.rto(), SimDuration::from_secs(64));
    }

    #[test]
    fn min_sample_tracks_floor() {
        let mut e = est();
        e.update(SimDuration::from_millis(120));
        e.update(SimDuration::from_millis(80));
        e.update(SimDuration::from_millis(150));
        assert_eq!(e.min_sample, Some(SimDuration::from_millis(80)));
    }
}
