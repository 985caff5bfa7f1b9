//! Figs. 4 & 5 — TCP over a changing path, absent competition.
//!
//! One long-running TCP flow on an otherwise empty network. Outputs the
//! congestion-window evolution with the instantaneous BDP+Q overlay
//! (Fig. 4), the per-packet RTT, and the 100 ms-averaged throughput —
//! enabling the NewReno-vs-Vegas comparison of Fig. 5.

use crate::scenario::{Scenario, UnknownCityError};
use hypatia_netsim::EngineReport;
use hypatia_routing::forwarding::compute_forwarding_state;
use hypatia_transport::{Bbr, Cubic, NewReno, TcpConfig, TcpSender, TcpSink, Vegas};
use hypatia_util::time::TimeSteps;
use hypatia_util::{SimDuration, SimTime};

/// Which congestion controller to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcKind {
    /// Loss-based (paper's default).
    NewReno,
    /// Delay-based (paper's counterpoint).
    Vegas,
    /// CUBIC (extension).
    Cubic,
    /// BBR (extension; the paper flags its evaluation as "of high
    /// interest").
    Bbr,
}

impl CcKind {
    /// Instantiate the controller.
    pub fn build(self) -> Box<dyn hypatia_transport::CongestionControl> {
        match self {
            CcKind::NewReno => Box::new(NewReno::new()),
            CcKind::Vegas => Box::new(Vegas::new()),
            CcKind::Cubic => Box::new(Cubic::new()),
            CcKind::Bbr => Box::new(Bbr::new()),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CcKind::NewReno => "NewReno",
            CcKind::Vegas => "Vegas",
            CcKind::Cubic => "Cubic",
            CcKind::Bbr => "BBR",
        }
    }

    /// Parse a controller name (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        [CcKind::NewReno, CcKind::Vegas, CcKind::Cubic, CcKind::Bbr]
            .into_iter()
            .find(|cc| s.eq_ignore_ascii_case(cc.name()))
    }
}

/// Result of a single-flow TCP run.
#[derive(Debug, Clone)]
pub struct TcpSingleResult {
    /// Controller used.
    pub cc: CcKind,
    /// `(time s, cwnd in segments)` on every change.
    pub cwnd_series: Vec<(f64, f64)>,
    /// `(time s, per-packet RTT ms)`.
    pub rtt_series: Vec<(f64, f64)>,
    /// `(time s, throughput Mbit/s)` averaged over 100 ms bins.
    pub throughput_series: Vec<(f64, f64)>,
    /// `(time s, BDP+Q in packets)` from snapshot RTTs (Fig. 4 overlay).
    pub bdp_plus_q_series: Vec<(f64, f64)>,
    /// Bytes delivered in order to the application.
    pub bytes_received: u64,
    /// Fast retransmits / RTO expirations / total retransmissions.
    pub fast_retransmits: u64,
    /// RTO count.
    pub timeouts: u64,
    /// Retransmitted segments.
    pub retransmits: u64,
    /// Out-of-order arrivals observed at the sink (reordering indicator).
    pub reordered_arrivals: u64,
    /// Events the simulator processed.
    pub events: u64,
    /// Wall-clock seconds the simulation took.
    pub wall_s: f64,
    /// How the engine executed: shard count, epochs, barriers, lookahead.
    pub engine: EngineReport,
}

impl TcpSingleResult {
    /// Mean goodput over `duration`, Mbit/s.
    pub fn goodput_mbps(&self, duration: SimDuration) -> f64 {
        self.bytes_received as f64 * 8.0 / duration.secs_f64() / 1e6
    }
}

/// Run one TCP flow from `src_name` to `dst_name` for `duration`.
pub fn run(
    scenario: &Scenario,
    src_name: &str,
    dst_name: &str,
    cc: CcKind,
    duration: SimDuration,
) -> Result<TcpSingleResult, UnknownCityError> {
    let src = scenario.gs_by_name(src_name)?;
    let dst = scenario.gs_by_name(dst_name)?;
    let tcp_cfg = TcpConfig::default();
    let mss_wire = tcp_cfg.mss as u64 + hypatia_netsim::packet::HEADER_BYTES as u64;

    let mut sim = scenario.simulator(vec![src, dst]);
    let sink_idx = sim.add_app(dst, 80, Box::new(TcpSink::new(tcp_cfg.clone())));
    let sender_idx =
        sim.add_app(src, 70, Box::new(TcpSender::new(dst, 80, tcp_cfg.clone(), cc.build())));
    let wall_start = std::time::Instant::now();
    sim.run_until(SimTime::ZERO + duration);
    let wall_s = wall_start.elapsed().as_secs_f64();

    let sender: &TcpSender = sim.app_as(sender_idx).expect("sender");
    let sink: &TcpSink = sim.app_as(sink_idx).expect("sink");

    let cwnd_series = sender
        .log
        .cwnd
        .iter()
        .map(|&(t, w)| (t.secs_f64(), w as f64 / tcp_cfg.mss as f64))
        .collect();
    let rtt_series =
        sender.log.rtt_samples.iter().map(|&(t, r)| (t.secs_f64(), r.secs_f64() * 1e3)).collect();

    // BDP+Q from snapshot RTTs: rate × RTT / wire-segment-size + queue.
    let rate_bps = scenario.sim_config.link_rate.bps() as f64;
    let q = scenario.sim_config.queue_packets as f64;
    let mut bdp_plus_q_series = Vec::new();
    for t in
        TimeSteps::new(SimTime::ZERO, SimTime::ZERO + duration, scenario.sim_config.fstate_step)
    {
        let state = compute_forwarding_state(&scenario.constellation, t, &[dst]);
        if let Some(d) = state.distance(src, dst) {
            let rtt_s = 2.0 * d.secs_f64();
            let bdp_packets = rate_bps * rtt_s / 8.0 / mss_wire as f64;
            bdp_plus_q_series.push((t.secs_f64(), bdp_packets + q));
        } else {
            bdp_plus_q_series.push((t.secs_f64(), f64::NAN));
        }
    }

    Ok(TcpSingleResult {
        cc,
        cwnd_series,
        rtt_series,
        throughput_series: sink.throughput_series_mbps(),
        bdp_plus_q_series,
        bytes_received: sink.bytes_received(),
        fast_retransmits: sender.log.fast_retransmits,
        timeouts: sender.log.timeouts,
        retransmits: sender.log.retransmits,
        reordered_arrivals: sink.ooo_arrivals,
        events: sim.stats.events,
        wall_s,
        engine: sim.engine_report(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ConstellationChoice, ScenarioBuilder};
    use hypatia_constellation::ground::GroundStation;

    fn scenario() -> Scenario {
        ScenarioBuilder::new(ConstellationChoice::KuiperK1)
            .ground_stations(vec![
                GroundStation::new("Istanbul", 41.0082, 28.9784),
                GroundStation::new("Nairobi", -1.2921, 36.8219),
            ])
            .build()
    }

    #[test]
    fn newreno_run_produces_all_series() {
        let s = scenario();
        let d = SimDuration::from_secs(15);
        let r = run(&s, "Istanbul", "Nairobi", CcKind::NewReno, d).expect("known cities");
        assert!(!r.cwnd_series.is_empty());
        assert!(!r.rtt_series.is_empty());
        assert!(!r.throughput_series.is_empty());
        assert_eq!(r.bdp_plus_q_series.len(), 150, "100 ms steps over 15 s");
        assert!(r.goodput_mbps(d) > 3.0, "goodput {}", r.goodput_mbps(d));
        // BDP+Q for a ~55 ms RTT at 10 Mbps with 1440 B wire segments is
        // roughly 100 + 48 packets; sanity-check the overlay magnitude.
        let (_, b) = r.bdp_plus_q_series[0];
        assert!((100.0..200.0).contains(&b), "BDP+Q {b}");
    }

    #[test]
    fn cwnd_oscillates_between_drops() {
        let s = scenario();
        let r = run(&s, "Istanbul", "Nairobi", CcKind::NewReno, SimDuration::from_secs(30))
            .expect("known cities");
        assert!(r.fast_retransmits > 0, "a 10 Mbps bottleneck must drop eventually");
        let max_cwnd = r.cwnd_series.iter().map(|&(_, w)| w).fold(0.0, f64::max);
        let min_after_peak = r
            .cwnd_series
            .iter()
            .skip_while(|&&(_, w)| w < max_cwnd * 0.9)
            .map(|&(_, w)| w)
            .fold(f64::INFINITY, f64::min);
        assert!(min_after_peak < max_cwnd * 0.7, "no multiplicative decrease seen");
    }

    #[test]
    fn vegas_runs_with_low_loss() {
        let s = scenario();
        let d = SimDuration::from_secs(15);
        let r = run(&s, "Istanbul", "Nairobi", CcKind::Vegas, d).expect("known cities");
        assert!(r.goodput_mbps(d) > 1.0, "Vegas goodput {}", r.goodput_mbps(d));
        assert!(
            r.retransmits <= 20,
            "Vegas should keep queues nearly empty, {} retransmits",
            r.retransmits
        );
    }

    #[test]
    fn bbr_runs_and_fills_the_path() {
        let s = scenario();
        let d = SimDuration::from_secs(15);
        let r = run(&s, "Istanbul", "Nairobi", CcKind::Bbr, d).expect("known cities");
        assert!(r.goodput_mbps(d) > 3.0, "BBR goodput {}", r.goodput_mbps(d));
        assert_eq!(r.cc.name(), "BBR");
    }

    #[test]
    fn cubic_runs() {
        let s = scenario();
        let d = SimDuration::from_secs(10);
        let r = run(&s, "Istanbul", "Nairobi", CcKind::Cubic, d).expect("known cities");
        assert!(r.goodput_mbps(d) > 2.0);
        assert_eq!(r.cc.name(), "Cubic");
    }
}
