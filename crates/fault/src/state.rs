//! Replayable up/down state derived from a [`FaultSchedule`].

use crate::schedule::{normalize, FaultEvent, FaultKind, FaultSchedule, FaultTarget};
use std::collections::HashMap;

/// The set of components currently down, maintained by applying
/// schedule events in order.
///
/// Each component carries a *depth counter* rather than a boolean, so
/// overlapping windows (an explicit outage plus a flap, say) compose
/// correctly: a component is up again only once every cause of failure
/// has been lifted.
///
/// Two usage patterns share this type:
///
/// * the packet simulator holds one live instance and feeds it events
///   as their time comes;
/// * snapshot-routing workers call [`FaultState::at`] to rebuild the
///   state at an arbitrary instant from the immutable schedule — a
///   pure function, so a step computed ahead on another thread and one
///   computed inline agree bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultState {
    /// Per-satellite failure depth.
    sat_down: Vec<u32>,
    /// Per-ground-station weather depth.
    gs_down: Vec<u32>,
    /// Failure depth per cut ISL, keyed by normalized endpoints. Only
    /// membership is queried — iteration order is never observed.
    isl_down: HashMap<(u32, u32), u32>,
    /// Number of components currently down (any kind).
    down_count: usize,
}

impl FaultState {
    /// The all-up state for `schedule`'s constellation.
    pub fn new(schedule: &FaultSchedule) -> FaultState {
        FaultState {
            sat_down: vec![0; schedule.num_satellites() as usize],
            gs_down: vec![0; schedule.num_ground_stations() as usize],
            isl_down: HashMap::new(),
            down_count: 0,
        }
    }

    /// The state at time `t`: every event with `event.t <= t` applied.
    pub fn at(schedule: &FaultSchedule, t: hypatia_util::SimTime) -> FaultState {
        let mut state = FaultState::new(schedule);
        for ev in schedule.events() {
            if ev.t > t {
                break;
            }
            state.apply(ev);
        }
        state
    }

    /// Apply one event.
    pub fn apply(&mut self, event: &FaultEvent) {
        let depth: &mut u32 = match event.target {
            FaultTarget::Satellite(s) => &mut self.sat_down[s as usize],
            FaultTarget::GroundStation(g) => &mut self.gs_down[g as usize],
            FaultTarget::Isl(a, b) => self.isl_down.entry(normalize(a, b)).or_insert(0),
        };
        match event.kind {
            FaultKind::Fail => {
                if *depth == 0 {
                    self.down_count += 1;
                }
                *depth += 1;
            }
            FaultKind::Recover => {
                debug_assert!(*depth > 0, "recover without matching failure: {event:?}");
                *depth = depth.saturating_sub(1);
                if *depth == 0 {
                    self.down_count -= 1;
                    if let FaultTarget::Isl(a, b) = event.target {
                        self.isl_down.remove(&normalize(a, b));
                    }
                }
            }
        }
    }

    /// Is satellite `sat` currently failed?
    #[inline]
    pub fn satellite_down(&self, sat: usize) -> bool {
        self.sat_down[sat] > 0
    }

    /// Is ground station `gs` currently weather-attenuated?
    #[inline]
    pub fn gs_weather_down(&self, gs: usize) -> bool {
        self.gs_down[gs] > 0
    }

    /// Is the ISL between satellites `a` and `b` explicitly cut?
    /// (Endpoint failures are a separate condition; see
    /// [`Self::isl_link_up`].)
    #[inline]
    pub fn isl_cut(&self, a: u32, b: u32) -> bool {
        self.isl_down.contains_key(&normalize(a, b))
    }

    /// May traffic cross the ISL `a <-> b` right now? False if either
    /// endpoint satellite is down or the link itself is cut.
    #[inline]
    pub fn isl_link_up(&self, a: u32, b: u32) -> bool {
        !self.satellite_down(a as usize) && !self.satellite_down(b as usize) && !self.isl_cut(a, b)
    }

    /// May traffic cross the GSL between satellite `sat` and ground
    /// station `gs` right now?
    #[inline]
    pub fn gsl_link_up(&self, sat: usize, gs: usize) -> bool {
        !self.satellite_down(sat) && !self.gs_weather_down(gs)
    }

    /// Is everything up?
    #[inline]
    pub fn all_up(&self) -> bool {
        self.down_count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FaultSpec, OutageWindow};
    use hypatia_constellation::ground::GroundStation;
    use hypatia_constellation::gsl::GslConfig;
    use hypatia_constellation::isl::IslLayout;
    use hypatia_constellation::shell::ShellSpec;
    use hypatia_constellation::Constellation;
    use hypatia_util::{SimDuration, SimTime};

    fn small_constellation() -> Constellation {
        Constellation::build(
            "tiny",
            vec![ShellSpec::new("A", 550.0, 3, 4, 53.0)],
            IslLayout::PlusGrid,
            vec![GroundStation::new("eq", 0.0, 0.0), GroundStation::new("mid", 40.0, 60.0)],
            GslConfig::new(25.0),
        )
    }

    fn window(target: u32, from_s: f64, until_s: f64) -> OutageWindow {
        OutageWindow { target, from_s, until_s }
    }

    #[test]
    fn replay_tracks_windows() {
        let c = small_constellation();
        let spec = FaultSpec {
            sat_outages: vec![window(2, 10.0, 20.0)],
            gsl_weather: vec![window(1, 5.0, 40.0)],
            ..FaultSpec::default()
        };
        let sched = FaultSchedule::compile(&spec, &c, SimDuration::from_secs(60));

        let before = FaultState::at(&sched, SimTime::from_secs(4));
        assert!(before.all_up());

        let mid = FaultState::at(&sched, SimTime::from_secs(15));
        assert!(mid.satellite_down(2));
        assert!(mid.gs_weather_down(1));
        assert!(!mid.gsl_link_up(0, 1), "weather masks all GSLs of gs 1");
        assert!(mid.gsl_link_up(0, 0), "gs 0 is unaffected");
        assert!(!mid.isl_link_up(2, 3), "a down satellite takes its ISLs with it");

        let after = FaultState::at(&sched, SimTime::from_secs(50));
        assert!(after.all_up());
    }

    #[test]
    fn overlapping_windows_stack() {
        let c = small_constellation();
        let spec = FaultSpec {
            sat_outages: vec![window(0, 0.0, 30.0), window(0, 10.0, 20.0)],
            ..FaultSpec::default()
        };
        let sched = FaultSchedule::compile(&spec, &c, SimDuration::from_secs(60));
        // Inner window ends at 20 s, but the outer one holds until 30 s.
        assert!(FaultState::at(&sched, SimTime::from_secs(25)).satellite_down(0));
        assert!(!FaultState::at(&sched, SimTime::from_secs(35)).satellite_down(0));
        // outage_windows merges the overlap into one span.
        assert_eq!(
            sched.outage_windows(),
            vec![(FaultTarget::Satellite(0), SimTime::ZERO, SimTime::from_secs(30))]
        );
    }

    #[test]
    fn live_apply_matches_replay() {
        let c = small_constellation();
        let spec = FaultSpec {
            seed: 11,
            sat_flap: Some(crate::FlapProcess { mttf_s: 10.0, mttr_s: 4.0 }),
            ..FaultSpec::default()
        };
        let sched = FaultSchedule::compile(&spec, &c, SimDuration::from_secs(100));
        assert!(!sched.is_empty());
        let mut live = FaultState::new(&sched);
        for (i, ev) in sched.events().iter().enumerate() {
            live.apply(ev);
            // After applying events 0..=i, the live state must equal a
            // from-scratch replay at that event's time, provided no later
            // event shares the same timestamp.
            let same_t_follows = sched.events().get(i + 1).is_some_and(|next| next.t == ev.t);
            if !same_t_follows {
                assert_eq!(live, FaultState::at(&sched, ev.t), "divergence after event {i}");
            }
        }
    }

    #[test]
    fn satellites_down_counts_unique_components() {
        let c = small_constellation();
        let spec = FaultSpec {
            sat_outages: vec![window(0, 0.0, 10.0), window(0, 0.0, 10.0), window(1, 0.0, 10.0)],
            ..FaultSpec::default()
        };
        let sched = FaultSchedule::compile(&spec, &c, SimDuration::from_secs(20));
        let state = FaultState::at(&sched, SimTime::from_secs(5));
        let down: Vec<usize> =
            (0..c.num_satellites()).filter(|&sat| state.satellite_down(sat)).collect();
        assert_eq!(down, [0, 1]);
        assert!(!state.all_up());
    }
}
