//! Fig. 9 — forwarding-state time-step granularity ablation.
//!
//! Hypatia discretizes a continuous process; this experiment quantifies
//! what coarser time-steps miss. Paths for every pair are sampled at a
//! fine base granularity (paper: 50 ms); coarser granularities (100 ms,
//! 1000 ms) are derived by subsampling. Outputs:
//!
//! * per-time-step network-wide path-change counts (Fig. 9a);
//! * per-pair changes *missed* relative to the fine baseline (Fig. 9b).

use crate::runner::RunError;
use crate::spec::ExperimentSpec;
use hypatia_constellation::Constellation;
use hypatia_routing::parallel::{sweep_forwarding_states, SnapshotWorker};
use hypatia_routing::path::satellites_of;
use hypatia_util::time::TimeSteps;
use hypatia_util::{SimDuration, SimTime};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Statistics for one granularity.
#[derive(Debug, Clone)]
pub struct GranularityStats {
    /// The granularity.
    pub step: SimDuration,
    /// Network-wide path changes observed in each time-step.
    pub changes_per_step: Vec<usize>,
    /// Per-pair changes missed vs the fine baseline.
    pub missed_per_pair: Vec<usize>,
}

impl GranularityStats {
    /// Total changes observed at this granularity.
    pub fn total_changes(&self) -> usize {
        self.changes_per_step.iter().sum()
    }

    /// Fraction of pairs missing at least `k` changes.
    pub fn fraction_missing_at_least(&self, k: usize) -> f64 {
        if self.missed_per_pair.is_empty() {
            return 0.0;
        }
        self.missed_per_pair.iter().filter(|&&m| m >= k).count() as f64
            / self.missed_per_pair.len() as f64
    }
}

/// Result over all requested granularities (index 0 = the fine baseline).
#[derive(Debug, Clone)]
pub struct GranularityResult {
    /// Stats per granularity, fine baseline first.
    pub stats: Vec<GranularityStats>,
    /// Number of pairs analysed.
    pub pairs: usize,
}

fn hash_path(sats: &[hypatia_constellation::NodeId]) -> u64 {
    let mut h = DefaultHasher::new();
    for s in sats {
        s.0.hash(&mut h);
    }
    // Reserve 0 for "disconnected".
    h.finish().max(1)
}

/// Count changes in a subsampled hash sequence, per step.
fn changes_per_step(hashes: &[Vec<u64>], stride: usize) -> (Vec<usize>, Vec<usize>) {
    let pairs = hashes.len();
    let steps = hashes.first().map_or(0, Vec::len);
    let coarse_len = steps.div_ceil(stride);
    let mut per_step = vec![0usize; coarse_len.saturating_sub(1)];
    let mut per_pair = vec![0usize; pairs];
    for (p, series) in hashes.iter().enumerate() {
        let samples: Vec<u64> = series.iter().copied().step_by(stride).collect();
        for (k, w) in samples.windows(2).enumerate() {
            // Mirror the paper's criterion: both snapshots connected and the
            // satellite sequence differs.
            if w[0] != 0 && w[1] != 0 && w[0] != w[1] {
                per_step[k] += 1;
                per_pair[p] += 1;
            }
        }
    }
    (per_step, per_pair)
}

/// Run the granularity experiment on `c` as `spec` says: horizon, fine
/// step, its `coarse_multiples` (paper: 200 s at 50 ms, ×2 and ×20),
/// minimum pair distance, routing threads and configuration.
pub fn run(c: &Constellation, spec: &ExperimentSpec) -> Result<GranularityResult, RunError> {
    let coarse_multiples = spec.wholes("coarse_multiples", 1)?;
    let min_pair_distance_km = spec.min_pair_distance_km()?;
    let n = c.num_ground_stations();
    let dests: Vec<_> = (0..n).map(|i| c.gs_node(i)).collect();

    let mut pair_list = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if c.ground_stations[i].distance_km(&c.ground_stations[j]) >= min_pair_distance_km {
                pair_list.push((c.gs_node(i), c.gs_node(j)));
            }
        }
    }

    // hashes[pair][fine_step] — fine-step snapshots fan out across worker
    // threads; hashing consumes the states in time order, so the series is
    // identical to the serial loop's.
    let mut hashes: Vec<Vec<u64>> = vec![Vec::new(); pair_list.len()];
    let times: Vec<SimTime> =
        TimeSteps::new(SimTime::ZERO, SimTime::ZERO + spec.duration, spec.step).collect();
    let worker = || SnapshotWorker::with_config(spec.routing_config());
    sweep_forwarding_states(worker, c, &times, &dests, None, spec.threads, |_, st| {
        for (p, &(src, dst)) in pair_list.iter().enumerate() {
            let h =
                st.0.path(src, dst).map(|path| hash_path(&satellites_of(c, &path))).unwrap_or(0);
            hashes[p].push(h);
        }
    });

    let mut stats = Vec::new();
    let (fine_steps, fine_pairs) = changes_per_step(&hashes, 1);
    stats.push(GranularityStats {
        step: spec.step,
        changes_per_step: fine_steps,
        missed_per_pair: vec![0; pair_list.len()],
    });
    for m in coarse_multiples {
        let (per_step, per_pair) = changes_per_step(&hashes, m as usize);
        let missed: Vec<usize> = fine_pairs
            .iter()
            .zip(per_pair.iter())
            .map(|(&fine, &coarse)| fine.saturating_sub(coarse))
            .collect();
        stats.push(GranularityStats {
            step: spec.step * u64::from(m),
            changes_per_step: per_step,
            missed_per_pair: missed,
        });
    }

    Ok(GranularityResult { stats, pairs: pair_list.len() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{PairSelection, ParamValue};
    use hypatia_constellation::ground::top_cities;
    use hypatia_constellation::presets;

    /// `secs` at a `step_ms` baseline and its `multiples`, on `threads`.
    fn spec(secs: u64, multiples: &[f64], threads: usize) -> ExperimentSpec {
        let mut spec = ExperimentSpec {
            pairs: PairSelection::MinDistance { km: 500.0 },
            duration: SimDuration::from_secs(secs),
            step: SimDuration::from_millis(500),
            threads,
            ..ExperimentSpec::default()
        };
        spec.params.insert("coarse_multiples".into(), ParamValue::List(multiples.to_vec()));
        spec
    }

    fn quick() -> GranularityResult {
        let c = presets::kuiper_k1(top_cities(6));
        run(&c, &spec(60, &[2.0, 8.0], 0)).expect("a valid spec")
    }

    /// Thread count must not change the result (steps are independent and
    /// consumed in order).
    #[test]
    fn parallel_granularity_bit_identical_to_serial() {
        let c = presets::kuiper_k1(top_cities(4));
        let run_with = |threads: usize| {
            let r = run(&c, &spec(20, &[2.0, 4.0], threads)).expect("a valid spec");
            format!("{r:?}")
        };
        let serial = run_with(1);
        for threads in [2, 4] {
            assert_eq!(serial, run_with(threads), "thread count {threads} diverged");
        }
    }

    #[test]
    fn coarser_steps_never_see_more_changes() {
        let r = quick();
        assert_eq!(r.stats.len(), 3);
        let fine = r.stats[0].total_changes();
        for s in &r.stats[1..] {
            assert!(
                s.total_changes() <= fine,
                "coarse {} saw {} > fine {}",
                s.step,
                s.total_changes(),
                fine
            );
        }
    }

    #[test]
    fn missed_changes_grow_with_granularity() {
        let r = quick();
        let missed_2x: usize = r.stats[1].missed_per_pair.iter().sum();
        let missed_8x: usize = r.stats[2].missed_per_pair.iter().sum();
        assert!(missed_8x >= missed_2x, "8x missed {missed_8x} < 2x missed {missed_2x}");
    }

    #[test]
    fn fine_baseline_misses_nothing() {
        let r = quick();
        assert!(r.stats[0].missed_per_pair.iter().all(|&m| m == 0));
        assert_eq!(r.stats[0].missed_per_pair.len(), r.pairs);
    }

    #[test]
    fn some_changes_happen_on_kuiper() {
        let r = quick();
        assert!(r.stats[0].total_changes() > 0, "60 s with no path change is implausible");
    }

    #[test]
    fn fraction_helper() {
        let stats = GranularityStats {
            step: SimDuration::from_millis(100),
            changes_per_step: vec![],
            missed_per_pair: vec![0, 0, 1, 2],
        };
        assert_eq!(stats.fraction_missing_at_least(1), 0.5);
        assert_eq!(stats.fraction_missing_at_least(2), 0.25);
        assert_eq!(stats.fraction_missing_at_least(0), 1.0);
    }

    #[test]
    fn hash_reserves_zero_for_disconnected() {
        use hypatia_constellation::NodeId;
        assert_ne!(hash_path(&[NodeId(1), NodeId(2)]), 0);
        assert_ne!(hash_path(&[]), 0);
    }
}
