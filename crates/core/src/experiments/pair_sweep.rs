//! Figs. 6, 7, 8 — constellation-wide per-pair RTT and path statistics.
//!
//! Tracks every GS pair (end-points ≥ 500 km apart, per the paper) across
//! the simulation horizon at the forwarding granularity, recording RTT
//! extremes, path changes, and hop-count extremes. One sweep feeds three
//! figures:
//!
//! * Fig. 6 — ECDF of max-RTT / geodesic-RTT;
//! * Fig. 7 — ECDFs of max RTT, max−min RTT, max/min RTT;
//! * Fig. 8 — ECDFs of path changes, hop-count difference and ratio.

use hypatia_constellation::Constellation;
use hypatia_routing::incremental::RoutingConfig;
use hypatia_routing::parallel::{sweep_forwarding_states, SnapshotWorker};
use hypatia_routing::path::PairTracker;
use hypatia_util::time::TimeSteps;
use hypatia_util::{SimDuration, SimTime};

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct PairSweepConfig {
    /// Horizon (paper: 200 s).
    pub duration: SimDuration,
    /// Snapshot granularity (paper: 100 ms).
    pub step: SimDuration,
    /// Exclude pairs closer than this (paper: 500 km).
    pub min_pair_distance_km: f64,
    /// Worker threads for the snapshot-routing pipeline (0 = all cores,
    /// 1 = serial). Results are bit-identical for any value — time-steps
    /// are independent and consumed in order.
    pub threads: usize,
    /// Forwarding-state recomputation strategy (full Dijkstra vs.
    /// incremental repair). Results are byte-identical for every choice.
    pub routing: RoutingConfig,
}

/// Per-pair sweep outcome.
#[derive(Debug, Clone)]
pub struct PairStats {
    /// Source GS index.
    pub src_gs: usize,
    /// Destination GS index.
    pub dst_gs: usize,
    /// Geodesic RTT, ms.
    pub geodesic_rtt_ms: f64,
    /// Max snapshot RTT over the horizon, ms (NaN if never connected).
    pub max_rtt_ms: f64,
    /// Min snapshot RTT, ms (NaN if never connected).
    pub min_rtt_ms: f64,
    /// Paper-criterion path changes.
    pub path_changes: usize,
    /// Hop-count extremes (edges), 0 when never connected.
    pub min_hops: usize,
    /// Max hop count.
    pub max_hops: usize,
    /// Steps with no path.
    pub disconnected_steps: usize,
    /// Steps observed.
    pub steps: usize,
}

impl PairStats {
    /// `max RTT / geodesic RTT` (Fig. 6's metric).
    pub fn rtt_stretch(&self) -> f64 {
        self.max_rtt_ms / self.geodesic_rtt_ms
    }

    /// `max − min` RTT, ms.
    pub fn rtt_delta_ms(&self) -> f64 {
        self.max_rtt_ms - self.min_rtt_ms
    }

    /// `max / min` RTT.
    pub fn rtt_ratio(&self) -> f64 {
        self.max_rtt_ms / self.min_rtt_ms
    }

    /// `max − min` hop count.
    pub fn hop_delta(&self) -> usize {
        self.max_hops.saturating_sub(self.min_hops)
    }

    /// `max / min` hop count (NaN when never connected).
    pub fn hop_ratio(&self) -> f64 {
        if self.min_hops == 0 {
            f64::NAN
        } else {
            self.max_hops as f64 / self.min_hops as f64
        }
    }
}

/// Run the sweep over all qualifying unordered GS pairs.
pub fn run(constellation: &Constellation, cfg: &PairSweepConfig) -> Vec<PairStats> {
    let n = constellation.num_ground_stations();
    let dests: Vec<_> = (0..n).map(|i| constellation.gs_node(i)).collect();

    // Qualifying pairs and their trackers.
    let mut pairs = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            let gi = &constellation.ground_stations[i];
            let gj = &constellation.ground_stations[j];
            if gi.distance_km(gj) >= cfg.min_pair_distance_km {
                let tracker =
                    PairTracker::new(constellation.gs_node(i), constellation.gs_node(j), false);
                pairs.push((i, j, tracker));
            }
        }
    }

    // Snapshot + per-destination trees fan out across worker threads; the
    // stateful trackers consume the states strictly in time order, so the
    // result is identical to the serial loop for any thread count.
    let times: Vec<SimTime> =
        TimeSteps::new(SimTime::ZERO, SimTime::ZERO + cfg.duration, cfg.step).collect();
    let worker = || SnapshotWorker::with_config(cfg.routing);
    sweep_forwarding_states(worker, constellation, &times, &dests, None, cfg.threads, |_, st| {
        for (_, _, tracker) in pairs.iter_mut() {
            tracker.observe(constellation, &st.0);
        }
    });

    pairs
        .into_iter()
        .map(|(i, j, tr)| {
            let geodesic = constellation.ground_stations[i]
                .geodesic_rtt(&constellation.ground_stations[j])
                .secs_f64()
                * 1e3;
            PairStats {
                src_gs: i,
                dst_gs: j,
                geodesic_rtt_ms: geodesic,
                max_rtt_ms: tr.max_rtt.map_or(f64::NAN, |r| r.secs_f64() * 1e3),
                min_rtt_ms: tr.min_rtt.map_or(f64::NAN, |r| r.secs_f64() * 1e3),
                path_changes: tr.path_changes,
                min_hops: tr.min_hops.unwrap_or(0),
                max_hops: tr.max_hops.unwrap_or(0),
                disconnected_steps: tr.disconnected_steps,
                steps: tr.steps,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypatia_constellation::ground::top_cities;
    use hypatia_constellation::presets;

    /// The paper's sweep (pairs ≥ 500 km apart) over `secs` at `step_s`,
    /// on `threads`.
    fn cfg(secs: u64, step_s: u64, threads: usize) -> PairSweepConfig {
        PairSweepConfig {
            duration: SimDuration::from_secs(secs),
            step: SimDuration::from_secs(step_s),
            min_pair_distance_km: 500.0,
            threads,
            routing: RoutingConfig::default(),
        }
    }

    fn small_sweep(n_cities: usize, secs: u64, step_s: u64) -> Vec<PairStats> {
        let c = presets::kuiper_k1(top_cities(n_cities));
        run(&c, &cfg(secs, step_s, 0))
    }

    #[test]
    fn sweep_covers_qualifying_pairs() {
        let stats = small_sweep(8, 20, 2);
        // 8 cities → at most 28 pairs; all the top-8 are > 500 km apart.
        assert_eq!(stats.len(), 28);
        for s in &stats {
            assert_eq!(s.steps, 10);
            assert!(s.geodesic_rtt_ms > 0.0);
        }
    }

    #[test]
    fn rtt_stretch_at_least_one() {
        // The satellite path can never beat the geodesic.
        for s in small_sweep(6, 10, 2) {
            if s.max_rtt_ms.is_finite() {
                assert!(
                    s.rtt_stretch() >= 1.0,
                    "pair {}-{} stretch {}",
                    s.src_gs,
                    s.dst_gs,
                    s.rtt_stretch()
                );
            }
        }
    }

    #[test]
    fn extremes_are_ordered() {
        for s in small_sweep(6, 20, 2) {
            if s.max_rtt_ms.is_finite() {
                assert!(s.max_rtt_ms >= s.min_rtt_ms);
                assert!(s.max_hops >= s.min_hops);
                assert!(s.min_hops >= 2, "GS–GS needs ≥2 edges");
                assert!(s.rtt_ratio() >= 1.0);
            }
        }
    }

    #[test]
    fn most_kuiper_pairs_connected_at_mid_latitudes() {
        let stats = small_sweep(8, 10, 2);
        let connected = stats.iter().filter(|s| s.disconnected_steps == 0).count();
        assert!(
            connected as f64 >= stats.len() as f64 * 0.8,
            "{connected}/{} pairs connected",
            stats.len()
        );
    }

    /// The headline determinism guarantee of the parallel pipeline: the
    /// sweep's output is byte-identical to the serial sweep on Kuiper K1,
    /// independent of the worker-thread count.
    #[test]
    fn parallel_sweep_bit_identical_to_serial() {
        let c = presets::kuiper_k1(top_cities(8));
        let sweep = |threads: usize| {
            let stats = run(&c, &cfg(10, 2, threads));
            // Debug formatting captures every field bit-for-bit (NaN
            // included, which `==` on f64 would miss).
            format!("{stats:?}")
        };
        let serial = sweep(1);
        for threads in [2, 4, 8] {
            assert_eq!(serial, sweep(threads), "thread count {threads} diverged");
        }
    }

    #[test]
    fn nearby_pairs_excluded() {
        // Guangzhou–Shenzhen–Dongguan–Foshan cluster is within 500 km; with
        // the top 100 cities the pair count must be well below C(100,2).
        let c = presets::kuiper_k1(top_cities(100));
        let stats = run(&c, &cfg(2, 2, 0));
        assert!(stats.len() < 4950, "got {}", stats.len());
        assert!(stats.len() > 4700, "got {}", stats.len());
    }
}
