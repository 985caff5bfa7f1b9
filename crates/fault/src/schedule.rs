//! Compiling a [`FaultSpec`] into a time-sorted event schedule.

use crate::spec::{FaultSpec, FlapProcess};
use hypatia_constellation::Constellation;
use hypatia_util::hash::Fnv1a64;
use hypatia_util::rng::DetRng;
use hypatia_util::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// What a fault event does to its target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// The target goes down.
    Fail,
    /// The target comes back up.
    Recover,
}

/// The component a fault event acts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultTarget {
    /// A whole satellite: all its ISLs and GSLs go with it, and packets
    /// arriving at it while down are dropped.
    Satellite(u32),
    /// One inter-satellite link, endpoints normalized so the smaller
    /// index comes first.
    Isl(u32, u32),
    /// All ground-to-satellite links of one ground station (weather
    /// attenuation). The station itself stays up: traffic sourced there
    /// is simply unreachable until the sky clears.
    GroundStation(u32),
}

/// One scheduled topology change.
///
/// The derived ordering is time-major, which is exactly the order the
/// schedule stores and the simulator consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultEvent {
    /// When the change takes effect.
    pub t: SimTime,
    /// Failure or repair.
    pub kind: FaultKind,
    /// The affected component.
    pub target: FaultTarget,
}

/// A compiled, immutable, time-sorted fault scenario.
///
/// Built once per run by [`FaultSchedule::compile`]; afterwards it is
/// only read — the simulator walks it front to back, and
/// [`FaultState::at`](crate::FaultState::at) replays prefixes of it.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
    num_satellites: u32,
    num_ground_stations: u32,
    horizon: SimTime,
}

/// Stream tags separating the per-component RNG derivations.
const STREAM_SAT_FLAP: u64 = 1;
const STREAM_ISL_FLAP: u64 = 2;

/// Derive an independent per-component RNG from the master seed.
///
/// FNV-1a over `(seed, stream, component)` gives each satellite and
/// each ISL its own reproducible stream regardless of how many other
/// components exist or in what order they are compiled.
fn component_rng(seed: u64, stream: u64, component: u64) -> DetRng {
    let mut h = Fnv1a64::new();
    h.write_u64(seed);
    h.write_u64(stream);
    h.write_u64(component);
    DetRng::new(h.finish())
}

impl FaultSchedule {
    /// Expand `spec` against a concrete constellation over `[0, horizon)`.
    ///
    /// Explicit windows are clamped to the horizon; windows that are
    /// empty after clamping, or that reference components the
    /// constellation does not have, are dropped. Flap processes sample
    /// one renewal sequence per satellite / per ISL from seeds derived
    /// off `spec.seed`. The result is sorted by `(t, kind, target)`.
    pub fn compile(
        spec: &FaultSpec,
        constellation: &Constellation,
        horizon: SimDuration,
    ) -> FaultSchedule {
        let n_sats = constellation.num_satellites() as u32;
        let n_gs = constellation.num_ground_stations() as u32;
        let horizon_s = horizon.secs_f64();
        let mut events = Vec::new();

        let mut push_window = |target: FaultTarget, from_s: f64, until_s: f64| {
            let from = from_s.max(0.0);
            let until = until_s.min(horizon_s);
            if from >= until {
                return;
            }
            events.push(FaultEvent {
                t: SimTime::from_secs_f64(from),
                kind: FaultKind::Fail,
                target,
            });
            if until < horizon_s {
                events.push(FaultEvent {
                    t: SimTime::from_secs_f64(until),
                    kind: FaultKind::Recover,
                    target,
                });
            }
        };

        for w in &spec.sat_outages {
            if w.target < n_sats {
                push_window(FaultTarget::Satellite(w.target), w.from_s, w.until_s);
            }
        }
        for w in &spec.gsl_weather {
            if w.target < n_gs {
                push_window(FaultTarget::GroundStation(w.target), w.from_s, w.until_s);
            }
        }
        for cut in &spec.isl_cuts {
            let (a, b) = normalize(cut.a, cut.b);
            let exists = constellation.isls.iter().any(|&(x, y)| normalize(x, y) == (a, b));
            if exists {
                push_window(FaultTarget::Isl(a, b), cut.from_s, cut.until_s);
            }
        }

        if let Some(flap) = &spec.sat_flap {
            for sat in 0..n_sats {
                let rng = component_rng(spec.seed, STREAM_SAT_FLAP, sat as u64);
                sample_flaps(rng, flap, horizon_s, FaultTarget::Satellite(sat), &mut events);
            }
        }
        if let Some(flap) = &spec.isl_flap {
            for (i, &(a, b)) in constellation.isls.iter().enumerate() {
                let (a, b) = normalize(a, b);
                let rng = component_rng(spec.seed, STREAM_ISL_FLAP, i as u64);
                sample_flaps(rng, flap, horizon_s, FaultTarget::Isl(a, b), &mut events);
            }
        }

        events.sort_unstable();
        FaultSchedule {
            events,
            num_satellites: n_sats,
            num_ground_stations: n_gs,
            horizon: SimTime::ZERO + horizon,
        }
    }

    /// The compiled events, time-sorted.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of compiled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the scenario injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Satellite count of the constellation the schedule was compiled for.
    pub fn num_satellites(&self) -> u32 {
        self.num_satellites
    }

    /// Ground-station count of the constellation the schedule was
    /// compiled for.
    pub fn num_ground_stations(&self) -> u32 {
        self.num_ground_stations
    }

    /// End of the compiled scenario (the compile horizon).
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Reassemble per-target down-windows `(target, from, until)` from
    /// the event stream, e.g. for a visualization outage layer. Windows
    /// still open at the horizon are closed there. Output is sorted by
    /// target, then start time.
    pub fn outage_windows(&self) -> Vec<(FaultTarget, SimTime, SimTime)> {
        let mut open: BTreeMap<FaultTarget, (u32, SimTime)> = BTreeMap::new();
        let mut windows: Vec<(FaultTarget, SimTime, SimTime)> = Vec::new();
        for ev in &self.events {
            match ev.kind {
                FaultKind::Fail => {
                    let e = open.entry(ev.target).or_insert((0, ev.t));
                    if e.0 == 0 {
                        e.1 = ev.t;
                    }
                    e.0 += 1;
                }
                FaultKind::Recover => {
                    if let Some(e) = open.get_mut(&ev.target) {
                        e.0 = e.0.saturating_sub(1);
                        if e.0 == 0 {
                            let (_, from) = *e;
                            open.remove(&ev.target);
                            if from < ev.t {
                                windows.push((ev.target, from, ev.t));
                            }
                        }
                    }
                }
            }
        }
        for (target, (_, from)) in open {
            if from < self.horizon {
                windows.push((target, from, self.horizon));
            }
        }
        windows.sort_unstable();
        windows
    }
}

/// Normalize an undirected satellite pair so the smaller index is first.
pub(crate) fn normalize(a: u32, b: u32) -> (u32, u32) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Sample one up/down renewal sequence over `[0, horizon_s)`.
fn sample_flaps(
    mut rng: DetRng,
    flap: &FlapProcess,
    horizon_s: f64,
    target: FaultTarget,
    events: &mut Vec<FaultEvent>,
) {
    assert!(flap.mttf_s > 0.0 && flap.mttr_s > 0.0, "flap process means must be positive");
    let mut t = 0.0;
    loop {
        t += rng.next_exp(flap.mttf_s);
        if t >= horizon_s {
            return;
        }
        events.push(FaultEvent { t: SimTime::from_secs_f64(t), kind: FaultKind::Fail, target });
        t += rng.next_exp(flap.mttr_s);
        if t >= horizon_s {
            return;
        }
        events.push(FaultEvent { t: SimTime::from_secs_f64(t), kind: FaultKind::Recover, target });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{LinkCut, OutageWindow};
    use hypatia_constellation::ground::GroundStation;
    use hypatia_constellation::gsl::GslConfig;
    use hypatia_constellation::isl::IslLayout;
    use hypatia_constellation::shell::ShellSpec;

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
    fn empty_spec_compiles_to_empty_schedule() {
        let c = small_constellation();
        let sched = FaultSchedule::compile(&FaultSpec::default(), &c, SimDuration::from_secs(60));
        assert!(sched.is_empty());
        assert!(sched.outage_windows().is_empty());
    }

    #[test]
    fn explicit_windows_become_fail_recover_pairs() {
        let c = small_constellation();
        let spec = FaultSpec {
            sat_outages: vec![window(3, 5.0, 15.0)],
            gsl_weather: vec![window(0, 2.0, 4.0)],
            ..FaultSpec::default()
        };
        let sched = FaultSchedule::compile(&spec, &c, SimDuration::from_secs(60));
        assert_eq!(sched.len(), 4);
        let ev = sched.events();
        assert_eq!(
            ev[0],
            FaultEvent {
                t: SimTime::from_secs(2),
                kind: FaultKind::Fail,
                target: FaultTarget::GroundStation(0),
            }
        );
        assert!(ev.windows(2).all(|w| w[0] <= w[1]), "events must be time-sorted");
        let windows = sched.outage_windows();
        assert_eq!(windows.len(), 2);
        assert!(windows.contains(&(
            FaultTarget::Satellite(3),
            SimTime::from_secs(5),
            SimTime::from_secs(15)
        )));
    }

    #[test]
    fn windows_clamp_to_horizon_and_drop_invalid_targets() {
        let c = small_constellation();
        let n_sats = c.num_satellites() as u32;
        let spec = FaultSpec {
            sat_outages: vec![
                window(0, 50.0, 500.0),    // runs past horizon: no Recover event
                window(n_sats, 0.0, 10.0), // out of range: dropped
                window(1, 30.0, 20.0),     // inverted: dropped
            ],
            ..FaultSpec::default()
        };
        let sched = FaultSchedule::compile(&spec, &c, SimDuration::from_secs(60));
        assert_eq!(sched.len(), 1);
        assert_eq!(sched.events()[0].kind, FaultKind::Fail);
        // The open window is closed at the horizon for reporting.
        assert_eq!(
            sched.outage_windows(),
            vec![(FaultTarget::Satellite(0), SimTime::from_secs(50), SimTime::from_secs(60))]
        );
    }

    #[test]
    fn isl_cuts_normalize_and_validate_endpoints() {
        let c = small_constellation();
        let &(a, b) = c.isls.first().expect("preset has ISLs");
        let spec = FaultSpec {
            isl_cuts: vec![
                LinkCut { a: b, b: a, from_s: 1.0, until_s: 2.0 }, // reversed endpoints
                LinkCut { a: 0, b: 0, from_s: 1.0, until_s: 2.0 }, // not an ISL
            ],
            ..FaultSpec::default()
        };
        let sched = FaultSchedule::compile(&spec, &c, SimDuration::from_secs(10));
        assert_eq!(sched.len(), 2);
        assert_eq!(
            sched.events()[0].target,
            FaultTarget::Isl(normalize(a, b).0, normalize(a, b).1)
        );
    }

    #[test]
    fn compile_is_deterministic_and_seed_sensitive() {
        let c = small_constellation();
        let flappy = FaultSpec {
            seed: 42,
            sat_flap: Some(FlapProcess { mttf_s: 20.0, mttr_s: 5.0 }),
            isl_flap: Some(FlapProcess { mttf_s: 15.0, mttr_s: 3.0 }),
            ..FaultSpec::default()
        };
        let a = FaultSchedule::compile(&flappy, &c, SimDuration::from_secs(120));
        let b = FaultSchedule::compile(&flappy, &c, SimDuration::from_secs(120));
        assert_eq!(a, b);
        assert!(!a.is_empty(), "120 s at MTTF 20 s should produce failures");
        let reseeded = FaultSpec { seed: 43, ..flappy };
        let d = FaultSchedule::compile(&reseeded, &c, SimDuration::from_secs(120));
        assert_ne!(a, d);
    }

    #[test]
    fn flap_unavailability_tracks_the_process() {
        let c = small_constellation();
        let flap = FlapProcess { mttf_s: 40.0, mttr_s: 10.0 };
        let spec = FaultSpec { seed: 7, sat_flap: Some(flap), ..FaultSpec::default() };
        let horizon = SimDuration::from_secs(2_000);
        let sched = FaultSchedule::compile(&spec, &c, horizon);
        let mut down_ns = 0u64;
        for (_, from, until) in sched.outage_windows() {
            down_ns += until.nanos() - from.nanos();
        }
        let total_ns = horizon.nanos() * c.num_satellites() as u64;
        let frac = down_ns as f64 / total_ns as f64;
        let expect = flap.unavailability();
        assert!(
            (frac - expect).abs() < 0.05,
            "measured unavailability {frac:.3}, process says {expect:.3}"
        );
    }
}
