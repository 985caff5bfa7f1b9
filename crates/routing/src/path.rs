//! Path extraction, RTT evaluation and change tracking over time.
//!
//! Implements the measurement machinery behind the paper's §4.1 and §5:
//! per-pair "computed" RTTs from snapshots, path-change counting ("if the
//! forwarding state computed in two successive time-steps shows any
//! different satellites composing the path, we count this as one path
//! change"), hop-count extremes and disconnection detection.

use crate::forwarding::ForwardingState;
use hypatia_constellation::{Constellation, NodeId};
use hypatia_orbit::geodesy::propagation_delay_km;
use hypatia_util::{SimDuration, SimTime};

/// Extract the current path from `src` to `dst` under `state` (inclusive of
/// both endpoints). `None` when disconnected.
pub fn extract_path(state: &ForwardingState, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
    state.path(src, dst)
}

/// Overwrite `last` with `sats` in place; did the sequence differ?
fn replace_sequence(last: &mut Vec<NodeId>, sats: impl Iterator<Item = NodeId>) -> bool {
    let mut len = 0;
    let mut changed = false;
    for sat in sats {
        match last.get_mut(len) {
            Some(slot) if *slot == sat => {}
            Some(slot) => {
                *slot = sat;
                changed = true;
            }
            None => {
                last.push(sat);
                changed = true;
            }
        }
        len += 1;
    }
    changed |= len != last.len();
    last.truncate(len);
    changed
}

/// RTT of a held `path` evaluated against live geometry at time `t`:
/// twice the sum of the one-way propagation delays of its links. This is
/// how latencies stay continuous between forwarding-state updates.
pub fn path_rtt_at(constellation: &Constellation, path: &[NodeId], t: SimTime) -> SimDuration {
    assert!(path.len() >= 2, "path needs at least two nodes");
    let mut one_way = SimDuration::ZERO;
    for w in path.windows(2) {
        one_way += propagation_delay_km(constellation.distance_km(w[0], w[1], t));
    }
    one_way * 2
}

/// The satellite subsequence of a path (for the paper's change criterion).
pub fn satellites_of(constellation: &Constellation, path: &[NodeId]) -> Vec<NodeId> {
    path.iter().copied().filter(|&n| constellation.is_satellite(n)).collect()
}

/// One observation of a pair at one time-step.
#[derive(Debug, Clone)]
pub struct PairObservation {
    /// Snapshot instant.
    pub t: SimTime,
    /// Path (inclusive), or `None` when disconnected.
    pub path: Option<Vec<NodeId>>,
    /// Snapshot RTT (2 × shortest one-way delay), or `None` if disconnected.
    pub rtt: Option<SimDuration>,
}

/// Accumulates per-pair statistics across time-steps.
#[derive(Debug, Clone)]
pub struct PairTracker {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Number of path changes (different satellite sequences between two
    /// consecutive *connected* observations).
    pub path_changes: usize,
    /// Number of steps observed with no path.
    pub disconnected_steps: usize,
    /// Total steps observed.
    pub steps: usize,
    /// Minimum snapshot RTT seen.
    pub min_rtt: Option<SimDuration>,
    /// Maximum snapshot RTT seen.
    pub max_rtt: Option<SimDuration>,
    /// Minimum hop count (edges in the path) seen.
    pub min_hops: Option<usize>,
    /// Maximum hop count seen.
    pub max_hops: Option<usize>,
    /// Satellite sequence of the last connected observation (meaningful
    /// once `was_connected`; the buffer is reused across observations).
    last_sats: Vec<NodeId>,
    /// Has any observation been connected yet?
    was_connected: bool,
    /// Full series (kept only when `record_series` was requested).
    series: Option<Vec<PairObservation>>,
}

impl PairTracker {
    /// New tracker. With `record_series`, every observation is retained
    /// (needed for plotting Fig. 3-style time series; costly for all-pairs
    /// sweeps).
    pub fn new(src: NodeId, dst: NodeId, record_series: bool) -> Self {
        PairTracker {
            src,
            dst,
            path_changes: 0,
            disconnected_steps: 0,
            steps: 0,
            min_rtt: None,
            max_rtt: None,
            min_hops: None,
            max_hops: None,
            last_sats: Vec::new(),
            was_connected: false,
            series: record_series.then(Vec::new),
        }
    }

    /// Observe the pair under the forwarding state of one time-step.
    pub fn observe(&mut self, constellation: &Constellation, state: &ForwardingState) {
        let t = state.computed_at;
        let rtt = state.distance(self.src, self.dst).map(|d| d * 2);
        self.steps += 1;

        // One walk: count the hops while the satellite subsequence is
        // compared against — and written over — the previous one.
        match state.hops(self.src, self.dst) {
            Some(walk) => {
                let mut hops = 0;
                let nodes = std::iter::once(self.src).chain(walk.map(|(_, to)| {
                    hops += 1;
                    to
                }));
                let changed = replace_sequence(
                    &mut self.last_sats,
                    nodes.filter(|&n| constellation.is_satellite(n)),
                );
                if self.was_connected && changed {
                    self.path_changes += 1;
                }
                self.was_connected = true;
                self.min_hops = Some(self.min_hops.map_or(hops, |m| m.min(hops)));
                self.max_hops = Some(self.max_hops.map_or(hops, |m| m.max(hops)));
            }
            None => self.disconnected_steps += 1,
        }
        if let Some(r) = rtt {
            self.min_rtt = Some(self.min_rtt.map_or(r, |m| m.min(r)));
            self.max_rtt = Some(self.max_rtt.map_or(r, |m| m.max(r)));
        }
        if let Some(series) = &mut self.series {
            series.push(PairObservation { t, path: extract_path(state, self.src, self.dst), rtt });
        }
    }

    /// The recorded series (empty slice if recording was off).
    pub fn series(&self) -> &[PairObservation] {
        self.series.as_deref().unwrap_or(&[])
    }

    /// `max RTT / min RTT`, if both were observed.
    pub fn rtt_ratio(&self) -> Option<f64> {
        match (self.max_rtt, self.min_rtt) {
            (Some(max), Some(min)) if !min.is_zero() => Some(max.secs_f64() / min.secs_f64()),
            _ => None,
        }
    }

    /// `max hops - min hops`, if observed.
    pub fn hop_count_delta(&self) -> Option<usize> {
        Some(self.max_hops? - self.min_hops?)
    }

    /// `max hops / min hops`, if observed.
    pub fn hop_count_ratio(&self) -> Option<f64> {
        let (max, min) = (self.max_hops?, self.min_hops?);
        (min > 0).then(|| max as f64 / min as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forwarding::compute_forwarding_state;
    use hypatia_constellation::ground::GroundStation;
    use hypatia_constellation::gsl::GslConfig;
    use hypatia_constellation::isl::IslLayout;
    use hypatia_constellation::presets;
    use hypatia_constellation::shell::ShellSpec;
    use hypatia_util::time::TimeSteps;

    fn constellation() -> Constellation {
        Constellation::build(
            "p",
            vec![ShellSpec::new("A", 550.0, 10, 10, 53.0)],
            IslLayout::PlusGrid,
            vec![GroundStation::new("a", 5.0, 5.0), GroundStation::new("b", -15.0, 100.0)],
            GslConfig::new(10.0),
        )
    }

    #[test]
    fn path_rtt_matches_snapshot_distance_at_snapshot_time() {
        let c = constellation();
        let t = SimTime::from_secs(10);
        let st = compute_forwarding_state(&c, t, &[c.gs_node(1)]);
        if let Some(path) = extract_path(&st, c.gs_node(0), c.gs_node(1)) {
            let live = path_rtt_at(&c, &path, t);
            let snap = st.distance(c.gs_node(0), c.gs_node(1)).unwrap() * 2;
            let diff = live.secs_f64() - snap.secs_f64();
            assert!(diff.abs() < 1e-9, "live {live} vs snapshot {snap}");
        } else {
            panic!("expected connectivity in test constellation");
        }
    }

    #[test]
    fn satellites_of_strips_ground_stations() {
        let c = constellation();
        let st = compute_forwarding_state(&c, SimTime::ZERO, &[c.gs_node(1)]);
        let path = extract_path(&st, c.gs_node(0), c.gs_node(1)).unwrap();
        let sats = satellites_of(&c, &path);
        assert_eq!(sats.len(), path.len() - 2);
        assert!(sats.iter().all(|&s| c.is_satellite(s)));
    }

    #[test]
    fn tracker_accumulates_over_steps() {
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let mut tracker = PairTracker::new(src, dst, true);
        for t in TimeSteps::new(SimTime::ZERO, SimTime::from_secs(60), SimDuration::from_secs(5)) {
            let st = compute_forwarding_state(&c, t, &[dst]);
            tracker.observe(&c, &st);
        }
        assert_eq!(tracker.steps, 12);
        assert_eq!(tracker.series().len(), 12);
        assert!(tracker.min_rtt.is_some());
        assert!(tracker.max_rtt.unwrap() >= tracker.min_rtt.unwrap());
        assert!(tracker.min_hops.unwrap() >= 2);
    }

    #[test]
    fn tracker_counts_path_changes_on_kuiper() {
        // Over 200 s the paper observes a handful of path changes for a
        // typical pair on K1; assert we see at least one and fewer than 40
        // with a coarse 5 s step.
        let c = presets::kuiper_k1(vec![
            GroundStation::new("Istanbul", 41.0082, 28.9784),
            GroundStation::new("Nairobi", -1.2921, 36.8219),
        ]);
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let mut tracker = PairTracker::new(src, dst, false);
        for t in TimeSteps::new(SimTime::ZERO, SimTime::from_secs(200), SimDuration::from_secs(5)) {
            let st = compute_forwarding_state(&c, t, &[dst]);
            tracker.observe(&c, &st);
        }
        assert!(tracker.path_changes >= 1, "no path change in 200 s");
        assert!(tracker.path_changes < 40, "implausible churn {}", tracker.path_changes);
        assert_eq!(tracker.disconnected_steps, 0, "Istanbul–Nairobi should stay connected");
    }

    /// The in-place walk must count exactly what the allocating
    /// definition counts: compare satellite vectors of consecutive
    /// connected snapshots, hop extremes from the collected paths.
    #[test]
    fn tracker_matches_the_collecting_definition() {
        let c = presets::kuiper_k1(vec![
            GroundStation::new("Istanbul", 41.0082, 28.9784),
            GroundStation::new("Nairobi", -1.2921, 36.8219),
            GroundStation::new("pole", 89.0, 0.0),
        ]);
        for (s, d) in [(0, 1), (1, 0), (0, 2)] {
            let (src, dst) = (c.gs_node(s), c.gs_node(d));
            let mut tracker = PairTracker::new(src, dst, false);
            let mut last: Option<Vec<NodeId>> = None;
            let (mut changes, mut disconnected) = (0, 0);
            let mut hop_counts = Vec::new();
            let steps =
                TimeSteps::new(SimTime::ZERO, SimTime::from_secs(120), SimDuration::from_secs(4));
            for t in steps {
                let st = compute_forwarding_state(&c, t, &[dst]);
                tracker.observe(&c, &st);
                match st.path(src, dst) {
                    Some(p) => {
                        hop_counts.push(p.len() - 1);
                        let sats = satellites_of(&c, &p);
                        changes += usize::from(last.as_ref().is_some_and(|prev| *prev != sats));
                        last = Some(sats);
                    }
                    None => disconnected += 1,
                }
            }
            assert_eq!(tracker.path_changes, changes, "pair {s}->{d}");
            assert_eq!(tracker.disconnected_steps, disconnected, "pair {s}->{d}");
            assert_eq!(tracker.min_hops, hop_counts.iter().copied().min());
            assert_eq!(tracker.max_hops, hop_counts.iter().copied().max());
        }
    }

    #[test]
    fn replace_sequence_reports_every_kind_of_difference() {
        let ids = |v: &[u32]| v.iter().map(|&n| NodeId(n)).collect::<Vec<_>>();
        let mut last = Vec::new();
        assert!(replace_sequence(&mut last, ids(&[1, 2, 3]).into_iter()), "grew from empty");
        assert!(!replace_sequence(&mut last, ids(&[1, 2, 3]).into_iter()), "identical");
        assert!(replace_sequence(&mut last, ids(&[1, 9, 3]).into_iter()), "one element");
        assert!(replace_sequence(&mut last, ids(&[1, 9]).into_iter()), "shorter prefix");
        assert_eq!(last, ids(&[1, 9]));
        assert!(replace_sequence(&mut last, ids(&[1, 9, 4]).into_iter()), "longer");
        assert_eq!(last, ids(&[1, 9, 4]));
    }

    #[test]
    fn ratio_helpers() {
        let c = constellation();
        let mut tr = PairTracker::new(c.gs_node(0), c.gs_node(1), false);
        tr.min_rtt = Some(SimDuration::from_millis(40));
        tr.max_rtt = Some(SimDuration::from_millis(60));
        tr.min_hops = Some(4);
        tr.max_hops = Some(6);
        assert!((tr.rtt_ratio().unwrap() - 1.5).abs() < 1e-12);
        assert_eq!(tr.hop_count_delta(), Some(2));
        assert!((tr.hop_count_ratio().unwrap() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn no_series_when_not_recording() {
        let c = constellation();
        let mut tr = PairTracker::new(c.gs_node(0), c.gs_node(1), false);
        let st = compute_forwarding_state(&c, SimTime::ZERO, &[c.gs_node(1)]);
        tr.observe(&c, &st);
        assert!(tr.series().is_empty());
        assert_eq!(tr.steps, 1);
    }
}
