//! Figs. 16–19 (Appendix A) — ISL vs bent-pipe connectivity.
//!
//! Paris→Moscow over Kuiper K1 in two configurations: (a) the standard
//! constellation with ISLs; (b) an ISL-less constellation where long-haul
//! connectivity "bends" through a grid of candidate ground-station relays.
//! Reproduces the paper's observations: bent-pipe RTT is higher (typically
//! ~5 ms); TCP over bent-pipe behaves differently because data and ACKs
//! share each satellite's single GSL device queue.

use crate::experiments::tcp_single::{self, CcKind, TcpSingleResult};
use crate::resilience::Driver;
use crate::runner::RunError;
use crate::scenario::{ConstellationChoice, Scenario};
use crate::spec::ExperimentSpec;
use hypatia_constellation::relays::bent_pipe_ground_segment;
use hypatia_constellation::NodeId;
use hypatia_util::{SimDuration, SimTime};
use std::ops::Bound::{Excluded, Unbounded};
use std::sync::Arc;

/// Result for one configuration (ISL or bent-pipe).
#[derive(Debug, Clone)]
pub struct BentPipeLeg {
    /// Configuration label.
    pub label: &'static str,
    /// `(t s, computed RTT ms; NaN when disconnected)` at every forwarding
    /// step.
    pub computed_rtt_series: Vec<(f64, f64)>,
    /// Path (node ids) at t = 0.
    pub path_t0: Option<Vec<NodeId>>,
    /// Mean computed RTT, ms (over connected steps).
    pub mean_computed_rtt_ms: f64,
    /// The NewReno flow from the first ground station to the second.
    pub tcp: TcpSingleResult,
}

/// The two legs, ready for comparison.
#[derive(Debug, Clone)]
pub struct BentPipeResult {
    /// With inter-satellite links.
    pub isl: BentPipeLeg,
    /// Bent-pipe through ground relays.
    pub bent_pipe: BentPipeLeg,
}

/// One leg between ground stations 0 and 1 of `scenario`; its TCP
/// simulation's snapshot tag is the label in snake case.
fn run_leg(
    scenario: &Scenario,
    label: &'static str,
    duration: SimDuration,
    driver: &Driver,
) -> Result<BentPipeLeg, RunError> {
    let (src, dst) = (scenario.gs(0), scenario.gs(1));
    // Computed RTT series (no traffic); the path at its first step, t = 0.
    let mut computed = Vec::new();
    let mut path_t0 = None;
    let mut sum = 0.0;
    let mut connected = 0usize;
    scenario.forwarding_series(dst, SimTime::ZERO + duration, |t, state| {
        if t == SimTime::ZERO {
            path_t0 = state.path(src, dst);
        }
        let ms = state.distance(src, dst).map_or(f64::NAN, |d| 2.0 * d.secs_f64() * 1e3);
        if ms.is_finite() {
            sum += ms;
            connected += 1;
        }
        computed.push((t.secs_f64(), ms));
    });

    let tag = label.to_lowercase().replace('-', "_");
    let tcp = tcp_single::run(scenario, src, dst, CcKind::NewReno, duration, &tag, driver)?;
    Ok(BentPipeLeg {
        label,
        computed_rtt_series: computed,
        path_t0,
        mean_computed_rtt_ms: if connected > 0 { sum / connected as f64 } else { f64::NAN },
        tcp,
    })
}

/// Run the comparison between the spec's two ground stations (the paper:
/// Paris and Moscow) on Kuiper K1 for the spec's duration, both legs
/// driven by `driver`. Each leg runs on the spec's simulator
/// configuration, with the spec's fault scenario compiled against the
/// leg's own constellation. The relay grid is the `relay_spacing_deg` /
/// `relay_margin_deg` params.
///
/// The pairs must be the one pair from the first station to the second:
/// the legs fix it, so a spec naming another is `RunError::BadSpec`, not
/// silently ignored. The legs fix the constellation too; the runner
/// refuses another, since the experiment does not declare it.
pub fn run(spec: &ExperimentSpec, driver: &Driver) -> Result<BentPipeResult, RunError> {
    let stations = spec.ground.stations();
    let bad = |why: String| Err(RunError::BadSpec(format!("{} {why}", spec.experiment)));
    let [src_city, dst_city] = stations.as_slice() else {
        return bad("needs exactly two ground stations (endpoints)".into());
    };
    let endpoints = [(src_city.name.clone(), dst_city.name.clone())];
    if spec.pairs.named() != Some(&endpoints[..]) {
        return bad(format!(
            "observes its ground stations' pair {endpoints:?}, got {:?}",
            spec.pairs
        ));
    }
    let spacing = spec.num_in("relay_spacing_deg", (Excluded(0.0), Unbounded))?;
    let margin = spec.num_in("relay_margin_deg", 0.0..)?;
    let ground = bent_pipe_ground_segment(src_city.clone(), dst_city.clone(), spacing, margin);

    // Leg 1: standard ISL constellation, endpoints only.
    let isl = spec.scenario_over(Arc::new(ConstellationChoice::KuiperK1.build(stations.clone())));
    let isl = run_leg(&isl, "ISL", spec.duration, driver)?;
    // Leg 2: no ISLs; add the relay grid.
    let bp = spec.scenario_over(Arc::new(ConstellationChoice::KuiperK1BentPipe.build(ground)));
    let bent_pipe = run_leg(&bp, "bent-pipe", spec.duration, driver)?;
    Ok(BentPipeResult { isl, bent_pipe })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Experiment;

    /// The figure's reduced spec, shortened to `secs` and `sets` applied.
    fn spec(secs: &str, sets: &[(&str, &str)]) -> ExperimentSpec {
        let mut spec = crate::figures::fig16_19_bent_pipe::Fig16_19.spec(false);
        for &(key, value) in [("duration_s", secs)].iter().chain(sets) {
            spec.set(key, value).expect("a valid knob");
        }
        spec
    }

    fn quick() -> BentPipeResult {
        run(&spec("10", &[]), &Driver::default()).expect("a plain run has no failure path")
    }

    #[test]
    fn bent_pipe_rtt_exceeds_isl_rtt() {
        let r = quick();
        assert!(
            r.bent_pipe.mean_computed_rtt_ms > r.isl.mean_computed_rtt_ms,
            "bent-pipe {} ms vs ISL {} ms",
            r.bent_pipe.mean_computed_rtt_ms,
            r.isl.mean_computed_rtt_ms
        );
        // The paper reports a typical gap of ~5 ms; allow a broad band but
        // require the same order of magnitude.
        let gap = r.bent_pipe.mean_computed_rtt_ms - r.isl.mean_computed_rtt_ms;
        assert!((0.5..40.0).contains(&gap), "gap {gap} ms");
    }

    #[test]
    fn isl_path_uses_satellites_only_in_the_middle() {
        let r = quick();
        let path = r.isl.path_t0.as_ref().expect("ISL path at t=0");
        // GS, satellites..., GS: exactly two GS nodes (1156 satellites in K1).
        let gs_nodes = path.iter().filter(|n| n.0 >= 1156).count();
        assert_eq!(gs_nodes, 2);
    }

    #[test]
    fn bent_pipe_path_alternates_through_relays() {
        let r = quick();
        let path = r.bent_pipe.path_t0.as_ref().expect("bent-pipe path at t=0");
        // Without ISLs no two satellites can be adjacent.
        for w in path.windows(2) {
            let both_sats = w[0].0 < 1156 && w[1].0 < 1156;
            assert!(!both_sats, "adjacent satellites {w:?} without ISLs");
        }
        // It must use at least one intermediate GS relay (> 2 GS nodes).
        let gs_nodes = path.iter().filter(|n| n.0 >= 1156).count();
        assert!(gs_nodes > 2, "expected relays in {path:?}");
    }

    #[test]
    fn both_legs_deliver_data() {
        let r = quick();
        let (isl, bent_pipe) = (r.isl.tcp.bytes_received, r.bent_pipe.tcp.bytes_received);
        assert!(isl > 500_000, "ISL bytes {isl}");
        assert!(bent_pipe > 200_000, "bent-pipe bytes {bent_pipe}");
        // Bent-pipe achieves a modestly lower rate (paper Fig. 19c).
        assert!(bent_pipe <= isl);
    }

    /// A constellation or pair the legs cannot honour is refused, not
    /// silently replaced by Kuiper K1 and the ground stations' pair: the
    /// constellation by the runner, which knows the experiment does not
    /// read it.
    #[test]
    fn another_constellation_is_a_bad_spec() {
        let spec = spec("1", &[("constellation", "telesat_t1")]);
        let r = crate::runner::check_reads(&crate::figures::fig16_19_bent_pipe::Fig16_19, &spec);
        assert!(
            matches!(r, Err(RunError::BadSpec(ref e)) if e.contains("does not read constellation")),
            "{r:?}"
        );
    }

    #[test]
    fn pairs_other_than_the_ground_stations_are_a_bad_spec() {
        for pairs in ["Tokyo:Cairo", "Moscow:Paris", "Paris:Moscow;Paris:Moscow"] {
            let r = run(&spec("1", &[("pairs", pairs)]), &Driver::default());
            assert!(matches!(r, Err(RunError::BadSpec(ref e)) if e.contains("pair")), "{pairs}");
        }
    }

    /// The spec's fault scenario reaches both legs: with the source's GSL
    /// down for the whole run (ground station 0 in either ground segment),
    /// neither flow delivers a byte.
    #[test]
    fn a_fault_scenario_reaches_both_legs() {
        let r = run(&spec("2", &[("gsl_weather", "0:0:2")]), &Driver::default())
            .expect("a faulted run");
        assert_eq!(r.isl.tcp.bytes_received, 0);
        assert_eq!(r.bent_pipe.tcp.bytes_received, 0);
    }
}
