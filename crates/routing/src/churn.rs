//! Per-snapshot route-churn and reachability metrics.
//!
//! When the topology degrades (fault injection) or simply evolves
//! (satellite motion), consecutive forwarding states differ. This
//! module quantifies *how much*: which source→destination pairs changed
//! their next hop at a snapshot boundary, and which pairs have no route
//! at all. The failure-resilience experiment reports both per failure
//! rate; they are also useful on nominal runs as a reconvergence
//! measure (paper §3.1 studies forwarding-state granularity).

use crate::forwarding::ForwardingState;
use hypatia_constellation::NodeId;

/// Churn and reachability between two consecutive forwarding states,
/// over a fixed set of source nodes and the states' destination set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotChurn {
    /// Pairs whose first hop changed between the two states (counting
    /// only pairs routable in both).
    pub changed_pairs: u64,
    /// Pairs routable in both states.
    pub stable_denominator: u64,
    /// Pairs with no route in the *current* state (`src != dst` only).
    pub unreachable_pairs: u64,
    /// All `src != dst` pairs examined.
    pub total_pairs: u64,
}

impl SnapshotChurn {
    /// Fraction of comparable pairs whose next hop changed, in `[0, 1]`.
    pub fn churn_fraction(&self) -> f64 {
        if self.stable_denominator == 0 {
            0.0
        } else {
            self.changed_pairs as f64 / self.stable_denominator as f64
        }
    }

    /// Fraction of pairs with no route in the current state, in `[0, 1]`.
    pub fn unreachable_fraction(&self) -> f64 {
        if self.total_pairs == 0 {
            0.0
        } else {
            self.unreachable_pairs as f64 / self.total_pairs as f64
        }
    }
}

/// Compare consecutive forwarding states over `srcs × cur.dests`.
///
/// `prev` and `cur` must have been computed towards the same
/// destination set (the usual sweep invariant); pairs with `src == dst`
/// are skipped.
pub fn churn_between(
    prev: &ForwardingState,
    cur: &ForwardingState,
    srcs: &[NodeId],
) -> SnapshotChurn {
    let mut out = SnapshotChurn::default();
    for &src in srcs {
        for &dst in &cur.dests {
            if src == dst {
                continue;
            }
            out.total_pairs += 1;
            let now = cur.next_hop(src, dst);
            if now.is_none() {
                out.unreachable_pairs += 1;
            }
            if let (Some(before), Some(now)) = (prev.next_hop(src, dst), now) {
                out.stable_denominator += 1;
                if before != now {
                    out.changed_pairs += 1;
                }
            }
        }
    }
    out
}

/// Reachability of a single state over `srcs × state.dests` (no
/// previous state to diff against): only the unreachable counters are
/// populated.
pub fn reachability_of(state: &ForwardingState, srcs: &[NodeId]) -> SnapshotChurn {
    let mut out = SnapshotChurn::default();
    for &src in srcs {
        for &dst in &state.dests {
            if src == dst {
                continue;
            }
            out.total_pairs += 1;
            if state.next_hop(src, dst).is_none() {
                out.unreachable_pairs += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forwarding::compute_forwarding_state;
    use crate::parallel::SnapshotWorker;
    use hypatia_constellation::ground::GroundStation;
    use hypatia_constellation::gsl::GslConfig;
    use hypatia_constellation::isl::IslLayout;
    use hypatia_constellation::shell::ShellSpec;
    use hypatia_constellation::Constellation;
    use hypatia_fault::{FaultSchedule, FaultSpec, FaultState, OutageWindow};
    use hypatia_util::{SimDuration, SimTime};

    fn constellation() -> Constellation {
        Constellation::build(
            "churn",
            vec![ShellSpec::new("A", 550.0, 10, 10, 53.0)],
            IslLayout::PlusGrid,
            vec![GroundStation::new("a", 5.0, 5.0), GroundStation::new("b", -10.0, 140.0)],
            GslConfig::new(10.0),
        )
    }

    #[test]
    fn identical_states_have_zero_churn() {
        let c = constellation();
        let dests = vec![c.gs_node(0), c.gs_node(1)];
        let srcs = dests.clone();
        let st = compute_forwarding_state(&c, SimTime::ZERO, &dests);
        let churn = churn_between(&st, &st, &srcs);
        assert_eq!(churn.changed_pairs, 0);
        assert_eq!(churn.total_pairs, 2);
        assert_eq!(churn.churn_fraction(), 0.0);
    }

    #[test]
    fn weather_outage_shows_up_as_unreachable() {
        let c = constellation();
        let dests = vec![c.gs_node(0), c.gs_node(1)];
        let srcs = dests.clone();
        let spec = FaultSpec {
            gsl_weather: vec![OutageWindow { target: 1, from_s: 0.0, until_s: 60.0 }],
            ..FaultSpec::default()
        };
        let sched = FaultSchedule::compile(&spec, &c, SimDuration::from_secs(60));
        let state = FaultState::at(&sched, SimTime::ZERO);
        let before = compute_forwarding_state(&c, SimTime::ZERO, &dests);
        let after =
            SnapshotWorker::new().forwarding_state_masked(&c, SimTime::ZERO, &dests, Some(&state));
        let churn = churn_between(&before, &after, &srcs);
        // Both directions of the a<->b pair are dark: gs 1 can neither
        // send nor receive.
        assert_eq!(churn.unreachable_pairs, 2);
        assert_eq!(churn.unreachable_fraction(), 1.0);
        let reach = reachability_of(&after, &srcs);
        assert_eq!(reach.unreachable_pairs, 2);
    }

    #[test]
    fn fractions_are_safe_on_empty_inputs() {
        let churn = SnapshotChurn::default();
        assert_eq!(churn.churn_fraction(), 0.0);
        assert_eq!(churn.unreachable_fraction(), 0.0);
    }

    #[test]
    fn empty_snapshot_has_no_pairs() {
        // A state with no destinations (or no sources) yields the all-zero
        // churn record, not a division by zero or a phantom pair.
        let c = constellation();
        let srcs = vec![c.gs_node(0), c.gs_node(1)];
        let empty = compute_forwarding_state(&c, SimTime::ZERO, &[]);
        let churn = churn_between(&empty, &empty, &srcs);
        assert_eq!(churn, SnapshotChurn::default());
        assert_eq!(reachability_of(&empty, &srcs), SnapshotChurn::default());

        let full = compute_forwarding_state(&c, SimTime::ZERO, &srcs);
        assert_eq!(churn_between(&full, &full, &[]), SnapshotChurn::default());
    }

    #[test]
    fn dark_destination_contributes_no_churn_denominator() {
        // A destination that is unreachable in one of the two states must
        // not count towards the churn denominator: the repair-threshold
        // decision would otherwise read a dark snapshot as route churn.
        let c = constellation();
        let dests = vec![c.gs_node(0), c.gs_node(1)];
        let srcs = dests.clone();
        let spec = FaultSpec {
            gsl_weather: vec![OutageWindow { target: 1, from_s: 0.0, until_s: 60.0 }],
            ..FaultSpec::default()
        };
        let sched = FaultSchedule::compile(&spec, &c, SimDuration::from_secs(60));
        let state = FaultState::at(&sched, SimTime::ZERO);
        let before = compute_forwarding_state(&c, SimTime::ZERO, &dests);
        let after =
            SnapshotWorker::new().forwarding_state_masked(&c, SimTime::ZERO, &dests, Some(&state));
        let churn = churn_between(&before, &after, &srcs);
        assert_eq!(churn.stable_denominator, 0, "dark pairs are not comparable");
        assert_eq!(churn.changed_pairs, 0);
        assert_eq!(churn.churn_fraction(), 0.0);
        assert_eq!(churn.unreachable_fraction(), 1.0);
    }

    #[test]
    fn zero_delta_snapshots_are_churn_free_and_diff_empty() {
        // Two snapshots of the same instant: the forwarding states match,
        // the churn record is clean, and the graph diff the incremental
        // router would take is empty (its repair is then a no-op).
        let c = constellation();
        let dests = vec![c.gs_node(0), c.gs_node(1)];
        let a = compute_forwarding_state(&c, SimTime::ZERO, &dests);
        let b = compute_forwarding_state(&c, SimTime::ZERO, &dests);
        let churn = churn_between(&a, &b, &dests);
        assert_eq!(churn.changed_pairs, 0);
        assert_eq!(churn.unreachable_pairs, 0);

        let g = crate::graph::DelayGraph::snapshot(&c, SimTime::ZERO);
        let diff = crate::incremental::GraphDiff::between(&g, &g);
        assert!(diff.inserted.is_empty() && diff.deleted.is_empty());
        assert_eq!(diff.weight_changed, 0);
        assert_eq!(diff.churn_fraction(), 0.0);
    }
}
