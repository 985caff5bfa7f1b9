//! The declarative fault specification.

/// An explicit outage window for one component (a satellite or a
/// ground station's GSLs), in fractional seconds of simulation time.
///
/// Windows are half-open: the component is down for `from_s <= t <
/// until_s`. Windows that are empty, inverted, or reference a target
/// outside the constellation are ignored at compile time, so a spec
/// written for one constellation can be replayed against a smaller one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageWindow {
    /// Component index: satellite index for satellite outages, ground
    /// station index for weather windows.
    pub target: u32,
    /// Window start, seconds.
    pub from_s: f64,
    /// Window end (exclusive), seconds.
    pub until_s: f64,
}

/// An explicit cut of one inter-satellite link for a time window.
///
/// The endpoint order does not matter; `3-7` and `7-3` cut the same
/// undirected link. Cuts of pairs that are not ISLs in the target
/// constellation are ignored at compile time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkCut {
    /// One endpoint (satellite index).
    pub a: u32,
    /// The other endpoint (satellite index).
    pub b: u32,
    /// Window start, seconds.
    pub from_s: f64,
    /// Window end (exclusive), seconds.
    pub until_s: f64,
}

/// A stochastic failure/repair renewal process.
///
/// Each component alternates up and down phases whose lengths are
/// drawn from exponential distributions with means `mttf_s` (mean time
/// to failure) and `mttr_s` (mean time to repair). The steady-state
/// unavailability is `mttr / (mttf + mttr)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlapProcess {
    /// Mean up-time before a failure, seconds. Must be positive.
    pub mttf_s: f64,
    /// Mean down-time before repair, seconds. Must be positive.
    pub mttr_s: f64,
}

impl FlapProcess {
    /// Long-run fraction of time a component following this process is
    /// down: `mttr / (mttf + mttr)`.
    pub fn unavailability(&self) -> f64 {
        self.mttr_s / (self.mttf_s + self.mttr_s)
    }

    /// The process whose steady-state unavailability is `frac`, with
    /// the given mean repair time. Panics unless `0 < frac < 1`.
    pub fn from_unavailability(frac: f64, mttr_s: f64) -> FlapProcess {
        assert!(frac > 0.0 && frac < 1.0, "unavailability must be in (0, 1), got {frac}");
        FlapProcess { mttf_s: mttr_s * (1.0 - frac) / frac, mttr_s }
    }
}

/// A complete fault scenario: explicit windows plus optional flap
/// processes, under one seed.
///
/// The default spec is fault-free (no windows, no flaps): compiling it
/// yields an empty schedule, and a simulation run with that schedule is
/// bit-identical to one with no fault engine at all.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Master seed for all stochastic draws. Per-component streams are
    /// derived from it, so compilation order never affects sampling.
    pub seed: u64,
    /// Explicit satellite outage windows (`target` = satellite index).
    pub sat_outages: Vec<OutageWindow>,
    /// Explicit ISL cuts.
    pub isl_cuts: Vec<LinkCut>,
    /// Weather-attenuation windows taking down all GSLs of one ground
    /// station (`target` = ground station index).
    pub gsl_weather: Vec<OutageWindow>,
    /// Flap process applied independently to every satellite.
    pub sat_flap: Option<FlapProcess>,
    /// Flap process applied independently to every ISL.
    pub isl_flap: Option<FlapProcess>,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            seed: 1,
            sat_outages: Vec::new(),
            isl_cuts: Vec::new(),
            gsl_weather: Vec::new(),
            sat_flap: None,
            isl_flap: None,
        }
    }
}

impl FaultSpec {
    /// True if the spec injects nothing: no windows and no flaps.
    pub fn is_trivial(&self) -> bool {
        self.sat_outages.is_empty()
            && self.isl_cuts.is_empty()
            && self.gsl_weather.is_empty()
            && self.sat_flap.is_none()
            && self.isl_flap.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_trivial() {
        assert!(FaultSpec::default().is_trivial());
        let spec = FaultSpec {
            sat_flap: Some(FlapProcess { mttf_s: 100.0, mttr_s: 10.0 }),
            ..FaultSpec::default()
        };
        assert!(!spec.is_trivial());
    }

    #[test]
    fn unavailability_round_trips() {
        let p = FlapProcess::from_unavailability(0.05, 30.0);
        assert!((p.unavailability() - 0.05).abs() < 1e-12);
        assert!((p.mttf_s - 570.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn unavailability_of_one_is_rejected() {
        FlapProcess::from_unavailability(1.0, 30.0);
    }
}
