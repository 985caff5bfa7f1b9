//! Ablation — GSL selection policy: gateway vs user terminal.
//!
//! Paper §3.1: "Each GS can be configured to either: (a) connect to
//! multiple satellites; or (b) connect to its nearest satellite." Gateways
//! with multiple parabolic antennas use all visible satellites (the
//! evaluation default); a user terminal's single phased array connects to
//! one. This ablation quantifies what the restriction costs: higher RTTs
//! (the nearest satellite is rarely on the best path) and more path churn
//! (every handoff of the single satellite forces a path change).

use hypatia_constellation::gsl::GslSelection;
use hypatia_constellation::Constellation;
use hypatia_routing::parallel::{sweep_forwarding_states, SnapshotWorker};
use hypatia_routing::path::PairTracker;
use hypatia_util::time::TimeSteps;
use hypatia_util::{SimDuration, SimTime};

/// Per-policy outcome for one pair.
#[derive(Debug, Clone)]
pub struct SelectionStats {
    /// The policy measured.
    pub selection: GslSelection,
    /// Min snapshot RTT, ms.
    pub min_rtt_ms: f64,
    /// Max snapshot RTT, ms.
    pub max_rtt_ms: f64,
    /// Path changes (paper criterion).
    pub path_changes: usize,
    /// Steps with no path.
    pub disconnected_steps: usize,
}

/// Compare both GSL policies for one pair over `duration` at `step`.
///
/// The same constellation is evaluated twice with only
/// `gsl.selection` changed, so differences are purely the policy's.
pub fn compare(
    constellation: &Constellation,
    src_gs: usize,
    dst_gs: usize,
    duration: SimDuration,
    step: SimDuration,
) -> (SelectionStats, SelectionStats) {
    let times: Vec<SimTime> =
        TimeSteps::new(SimTime::ZERO, SimTime::ZERO + duration, step).collect();
    let run = |selection: GslSelection| {
        let mut c = constellation.clone();
        c.gsl.selection = selection;
        let (src, dst) = (c.gs_node(src_gs), c.gs_node(dst_gs));
        let mut tracker = PairTracker::new(src, dst, false);
        sweep_forwarding_states(SnapshotWorker::new, &c, &times, &[dst], None, 1, |_, st| {
            tracker.observe(&c, &st.0);
        });
        SelectionStats {
            selection,
            min_rtt_ms: tracker.min_rtt.map_or(f64::NAN, |r| r.secs_f64() * 1e3),
            max_rtt_ms: tracker.max_rtt.map_or(f64::NAN, |r| r.secs_f64() * 1e3),
            path_changes: tracker.path_changes,
            disconnected_steps: tracker.disconnected_steps,
        }
    };
    (run(GslSelection::AllVisible), run(GslSelection::NearestOnly))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypatia_constellation::ground::top_cities;
    use hypatia_constellation::presets;

    #[test]
    fn nearest_only_never_beats_all_visible() {
        let c = presets::kuiper_k1(top_cities(10));
        let (all, nearest) =
            compare(&c, 0, 1, SimDuration::from_secs(60), SimDuration::from_secs(2));
        assert_eq!(all.selection, GslSelection::AllVisible);
        assert_eq!(nearest.selection, GslSelection::NearestOnly);
        if all.min_rtt_ms.is_finite() && nearest.min_rtt_ms.is_finite() {
            // The nearest satellite is one of the visible set, so the
            // restricted policy can never yield a shorter shortest path.
            assert!(
                nearest.min_rtt_ms >= all.min_rtt_ms - 1e-6,
                "nearest-only {} ms beat all-visible {} ms",
                nearest.min_rtt_ms,
                all.min_rtt_ms
            );
        }
        // And it can only be disconnected at least as often.
        assert!(nearest.disconnected_steps >= all.disconnected_steps);
    }

    #[test]
    fn comparing_does_not_mutate_the_input() {
        // `compare` clones internally; the caller's constellation keeps its
        // original (default) selection policy.
        let c = presets::telesat_t1(top_cities(4));
        let before = c.gsl.selection;
        let _ = compare(&c, 0, 2, SimDuration::from_secs(10), SimDuration::from_secs(5));
        assert_eq!(c.gsl.selection, before);
        assert_eq!(before, GslSelection::AllVisible);
    }

    #[test]
    fn nearest_only_changes_paths_at_least_as_often() {
        // Every handoff of the single usable satellite forces a path
        // change; the multi-satellite policy can often keep an unrelated
        // (still-visible) ingress satellite.
        let c = presets::kuiper_k1(top_cities(8));
        let (all, nearest) =
            compare(&c, 2, 5, SimDuration::from_secs(120), SimDuration::from_secs(2));
        assert!(
            nearest.path_changes + 1 >= all.path_changes,
            "nearest-only {} vs all-visible {}",
            nearest.path_changes,
            all.path_changes
        );
    }
}
