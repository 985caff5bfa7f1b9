//! Figs. 4, 5 and 19 — TCP over a changing path, absent competition.
//!
//! One long-running TCP flow on an otherwise empty network. Outputs the
//! congestion-window evolution (Fig. 4, whose BDP+Q overlay is
//! [`bdp_plus_q_series`]), the per-packet RTT, and the 100 ms-averaged
//! throughput — enabling the controller comparison of Fig. 5 and the
//! ISL-vs-bent-pipe comparison of Figs. 18–19.

use crate::experiments::pair_slug;
use crate::resilience::{Driver, SimRun};
use crate::runner::RunError;
use crate::scenario::Scenario;
use hypatia_constellation::NodeId;
use hypatia_netsim::packet::HEADER_BYTES;
use hypatia_transport::{Bbr, Cubic, NewReno, TcpConfig, TcpSender, TcpSink, Vegas};
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
    /// The driven simulation: events, wall clock, engine report.
    pub run: SimRun,
}

impl TcpSingleResult {
    /// Mean goodput over `duration`, Mbit/s.
    pub fn goodput_mbps(&self, duration: SimDuration) -> f64 {
        self.bytes_received as f64 * 8.0 / duration.secs_f64() / 1e6
    }
}

/// The snapshot tag of a flow between two named cities: `tcp_<cc>_<pair>`.
pub fn flow_tag(cc: CcKind, src_name: &str, dst_name: &str) -> String {
    format!("tcp_{}_{}", cc.name().to_lowercase(), pair_slug(src_name, dst_name))
}

/// Run one TCP flow from `src` to `dst` for `duration`, driven by
/// `driver` under the snapshot tag `tag`.
pub fn run(
    scenario: &Scenario,
    src: NodeId,
    dst: NodeId,
    cc: CcKind,
    duration: SimDuration,
    tag: &str,
    driver: &Driver,
) -> Result<TcpSingleResult, RunError> {
    let tcp_cfg = TcpConfig::default();

    let mut sim = scenario.simulator(vec![src, dst]);
    let sink_idx = sim.add_app(dst, 80, Box::new(TcpSink::new(tcp_cfg.clone())));
    let sender_idx =
        sim.add_app(src, 70, Box::new(TcpSender::new(dst, 80, tcp_cfg.clone(), cc.build())));
    let run = SimRun::drive(&mut sim, SimTime::ZERO + duration, tag, driver)?;

    let sender: &TcpSender = sim.app_as(sender_idx).expect("sender");
    let sink: &TcpSink = sim.app_as(sink_idx).expect("sink");

    let mss = tcp_cfg.mss as f64;
    let cwnd_series =
        sender.log.cwnd.iter().map(|&(t, w)| (t.secs_f64(), w as f64 / mss)).collect();
    let rtt_series =
        sender.log.rtt_samples.iter().map(|&(t, r)| (t.secs_f64(), r.secs_f64() * 1e3)).collect();

    Ok(TcpSingleResult {
        cc,
        cwnd_series,
        rtt_series,
        throughput_series: sink.throughput_series_mbps(),
        bytes_received: sink.bytes_received(),
        fast_retransmits: sender.log.fast_retransmits,
        timeouts: sender.log.timeouts,
        retransmits: sender.log.retransmits,
        reordered_arrivals: sink.ooo_arrivals,
        run,
    })
}

/// Fig. 4's overlay: `(time s, BDP+Q in packets)` at every forwarding step
/// until `duration` (NaN while disconnected): line rate × the snapshot RTT
/// of `src_name` → `dst_name` / wire-segment size + queue.
pub fn bdp_plus_q_series(
    scenario: &Scenario,
    src_name: &str,
    dst_name: &str,
    duration: SimDuration,
) -> Result<Vec<(f64, f64)>, RunError> {
    let (src, dst) = (scenario.gs_by_name(src_name)?, scenario.gs_by_name(dst_name)?);
    let mss_wire = (TcpConfig::default().mss as u64 + HEADER_BYTES as u64) as f64;
    let rate_bps = scenario.sim_config.link_rate.bps() as f64;
    let q = scenario.sim_config.queue_packets as f64;
    let bdp_plus_q = |d: SimDuration| rate_bps * (2.0 * d.secs_f64()) / 8.0 / mss_wire + q;
    let mut series = Vec::new();
    scenario.forwarding_series(dst, SimTime::ZERO + duration, |t, state| {
        series.push((t.secs_f64(), state.distance(src, dst).map_or(f64::NAN, bdp_plus_q)));
    });
    Ok(series)
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

    /// One Istanbul -> Nairobi flow of `secs` seconds.
    fn flow(cc: CcKind, secs: u64) -> TcpSingleResult {
        let s = scenario();
        let d = SimDuration::from_secs(secs);
        run(&s, s.gs(0), s.gs(1), cc, d, "tcp", &Driver::default()).expect("a plain run")
    }

    #[test]
    fn newreno_run_produces_all_series() {
        let (r, d) = (flow(CcKind::NewReno, 15), SimDuration::from_secs(15));
        assert!(!r.cwnd_series.is_empty());
        assert!(!r.rtt_series.is_empty());
        assert!(!r.throughput_series.is_empty());
        assert!(r.goodput_mbps(d) > 3.0, "goodput {}", r.goodput_mbps(d));
    }

    #[test]
    fn bdp_plus_q_overlay_has_one_point_per_step() {
        let series =
            bdp_plus_q_series(&scenario(), "Istanbul", "Nairobi", SimDuration::from_secs(15))
                .expect("known cities");
        assert_eq!(series.len(), 150, "100 ms steps over 15 s");
        // BDP+Q for a ~55 ms RTT at 10 Mbps with 1440 B wire segments is
        // roughly 100 + 48 packets; sanity-check the overlay magnitude.
        let (_, b) = series[0];
        assert!((100.0..200.0).contains(&b), "BDP+Q {b}");
    }

    #[test]
    fn cwnd_oscillates_between_drops() {
        let r = flow(CcKind::NewReno, 30);
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
        let (r, d) = (flow(CcKind::Vegas, 15), SimDuration::from_secs(15));
        assert!(r.goodput_mbps(d) > 1.0, "Vegas goodput {}", r.goodput_mbps(d));
        assert!(
            r.retransmits <= 20,
            "Vegas should keep queues nearly empty, {} retransmits",
            r.retransmits
        );
    }

    #[test]
    fn bbr_runs_and_fills_the_path() {
        let (r, d) = (flow(CcKind::Bbr, 15), SimDuration::from_secs(15));
        assert!(r.goodput_mbps(d) > 3.0, "BBR goodput {}", r.goodput_mbps(d));
        assert_eq!(r.cc.name(), "BBR");
    }

    #[test]
    fn cubic_runs() {
        let (r, d) = (flow(CcKind::Cubic, 10), SimDuration::from_secs(10));
        assert!(r.goodput_mbps(d) > 2.0);
        assert_eq!(r.cc.name(), "Cubic");
    }
}
