//! Figs. 16–19 (Appendix A) — ISL vs bent-pipe connectivity.
//!
//! Paris→Moscow over Kuiper K1 in two configurations: (a) the standard
//! constellation with ISLs; (b) an ISL-less constellation where long-haul
//! connectivity "bends" through a grid of candidate ground-station relays.
//! Reproduces the paper's observations: bent-pipe RTT is higher (typically
//! ~5 ms); TCP over bent-pipe behaves differently because data and ACKs
//! share each satellite's single GSL device queue.

use crate::experiments::tcp_single::CcKind;
use crate::resilience::{Driver, SimRun};
use crate::runner::RunError;
use crate::scenario::Scenario;
use hypatia_constellation::ground::GroundStation;
use hypatia_constellation::relays::bent_pipe_ground_segment;
use hypatia_constellation::NodeId;
use hypatia_transport::{TcpConfig, TcpSender, TcpSink};
use hypatia_util::{SimDuration, SimTime};
use std::sync::Arc;

/// Parameters for the bent-pipe comparison.
#[derive(Debug, Clone)]
pub struct BentPipeConfig {
    /// Horizon (paper: 200 s).
    pub duration: SimDuration,
    /// Relay grid spacing, degrees (paper shows a few-degree grid).
    pub relay_spacing_deg: f64,
    /// Grid margin beyond the endpoints' bounding box, degrees.
    pub relay_margin_deg: f64,
}

impl Default for BentPipeConfig {
    fn default() -> Self {
        BentPipeConfig {
            duration: SimDuration::from_secs(200),
            relay_spacing_deg: 3.0,
            relay_margin_deg: 3.0,
        }
    }
}

/// Result for one configuration (ISL or bent-pipe).
#[derive(Debug, Clone)]
pub struct BentPipeLeg {
    /// Configuration label.
    pub label: &'static str,
    /// `(t s, computed RTT ms; NaN when disconnected)` at 100 ms steps.
    pub computed_rtt_series: Vec<(f64, f64)>,
    /// `(t s, TCP-estimated RTT ms)` per ACK.
    pub tcp_rtt_series: Vec<(f64, f64)>,
    /// `(t s, cwnd segments)`.
    pub cwnd_series: Vec<(f64, f64)>,
    /// `(t s, throughput Mbit/s)` in 100 ms bins.
    pub throughput_series: Vec<(f64, f64)>,
    /// Path (node ids) at t = 0.
    pub path_t0: Option<Vec<NodeId>>,
    /// Bytes delivered.
    pub bytes_received: u64,
    /// Mean computed RTT, ms (over connected steps).
    pub mean_computed_rtt_ms: f64,
    /// The driven TCP simulation: events, wall clock, engine report.
    pub run: SimRun,
}

/// The two legs, ready for comparison.
#[derive(Debug, Clone)]
pub struct BentPipeResult {
    /// With inter-satellite links.
    pub isl: BentPipeLeg,
    /// Bent-pipe through ground relays.
    pub bent_pipe: BentPipeLeg,
}

/// One leg; its TCP simulation's snapshot tag is the label in snake case.
fn run_leg(
    scenario: &Scenario,
    label: &'static str,
    src: NodeId,
    dst: NodeId,
    duration: SimDuration,
    driver: &Driver,
) -> Result<BentPipeLeg, RunError> {
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

    // TCP leg.
    let mut sim = scenario.simulator(vec![src, dst]);
    let cfg = TcpConfig::default();
    let sink_idx = sim.add_app(dst, 80, Box::new(TcpSink::new(cfg.clone())));
    let sender_idx = sim.add_app(
        src,
        70,
        Box::new(TcpSender::new(dst, 80, cfg.clone(), CcKind::NewReno.build())),
    );
    let run = SimRun::drive(
        &mut sim,
        SimTime::ZERO + duration,
        &label.to_lowercase().replace('-', "_"),
        driver,
    )?;
    let sender: &TcpSender = sim.app_as(sender_idx).expect("sender");
    let sink: &TcpSink = sim.app_as(sink_idx).expect("sink");
    let tcp_rtt_series =
        sender.log.rtt_samples.iter().map(|&(t, r)| (t.secs_f64(), r.secs_f64() * 1e3)).collect();
    let mss = cfg.mss as f64;
    let cwnd_series =
        sender.log.cwnd.iter().map(|&(t, w)| (t.secs_f64(), w as f64 / mss)).collect();

    Ok(BentPipeLeg {
        label,
        computed_rtt_series: computed,
        tcp_rtt_series,
        cwnd_series,
        throughput_series: sink.throughput_series_mbps(),
        path_t0,
        bytes_received: sink.bytes_received(),
        mean_computed_rtt_ms: if connected > 0 { sum / connected as f64 } else { f64::NAN },
        run,
    })
}

/// Run the full comparison between `src_city` and `dst_city` (defaults in
/// the paper: Paris and Moscow) on Kuiper K1, both legs driven by `driver`.
pub fn run(
    src_city: GroundStation,
    dst_city: GroundStation,
    cfg: &BentPipeConfig,
    driver: &Driver,
) -> Result<BentPipeResult, RunError> {
    use crate::scenario::ConstellationChoice;

    // Leg 1: standard ISL constellation, endpoints only.
    let isl_scenario = crate::scenario::Scenario {
        constellation: Arc::new(
            ConstellationChoice::KuiperK1.build(vec![src_city.clone(), dst_city.clone()]),
        ),
        sim_config: hypatia_netsim::SimConfig::default(),
    };
    let (src, dst) = (isl_scenario.gs(0), isl_scenario.gs(1));
    let isl = run_leg(&isl_scenario, "ISL", src, dst, cfg.duration, driver)?;

    // Leg 2: no ISLs; add the relay grid.
    let ground =
        bent_pipe_ground_segment(src_city, dst_city, cfg.relay_spacing_deg, cfg.relay_margin_deg);
    let bp_scenario = crate::scenario::Scenario {
        constellation: Arc::new(ConstellationChoice::KuiperK1BentPipe.build(ground)),
        sim_config: hypatia_netsim::SimConfig::default(),
    };
    let (src, dst) = (bp_scenario.gs(0), bp_scenario.gs(1));
    let bent_pipe = run_leg(&bp_scenario, "bent-pipe", src, dst, cfg.duration, driver)?;

    Ok(BentPipeResult { isl, bent_pipe })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paris() -> GroundStation {
        GroundStation::new("Paris", 48.8566, 2.3522)
    }
    fn moscow() -> GroundStation {
        GroundStation::new("Moscow", 55.7558, 37.6173)
    }

    fn quick() -> BentPipeResult {
        run(
            paris(),
            moscow(),
            &BentPipeConfig {
                duration: SimDuration::from_secs(10),
                relay_spacing_deg: 4.0,
                relay_margin_deg: 2.0,
            },
            &Driver::default(),
        )
        .expect("a plain run has no failure path")
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
        assert!(r.isl.bytes_received > 500_000, "ISL bytes {}", r.isl.bytes_received);
        assert!(
            r.bent_pipe.bytes_received > 200_000,
            "bent-pipe bytes {}",
            r.bent_pipe.bytes_received
        );
        // Bent-pipe achieves a modestly lower rate (paper Fig. 19c).
        assert!(r.bent_pipe.bytes_received <= r.isl.bytes_received);
    }
}
