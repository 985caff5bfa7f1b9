//! Fig. 3 — RTT fluctuations: pings vs snapshot-computed RTTs.
//!
//! For a GS pair, (a) run the packet simulator with a periodic ping and
//! collect measured RTTs; (b) compute the networkx-equivalent snapshot
//! RTTs at the forwarding granularity. The two must agree closely except
//! around forwarding-state changes (packets in flight take the old path —
//! the paper's "detour" spikes), and St. Petersburg's Kuiper outage
//! appears as a gap.

use crate::experiments::pair_slug;
use crate::resilience::{Driver, SimRun};
use crate::runner::RunError;
use crate::scenario::Scenario;
use hypatia_netsim::apps::PingApp;
use hypatia_routing::path::PairTracker;
use hypatia_util::{SimDuration, SimTime};

/// Result of a Fig. 3 run for one pair.
#[derive(Debug, Clone)]
pub struct RttFluctuationResult {
    /// `(ping send time s, measured RTT ms)`.
    pub ping_series: Vec<(f64, f64)>,
    /// `(snapshot time s, computed RTT ms; NaN when disconnected)`.
    pub computed_series: Vec<(f64, f64)>,
    /// Pings sent / received.
    pub sent: u64,
    /// Pings answered.
    pub received: u64,
    /// Seconds during which the pair had no path (snapshot granularity).
    pub disconnected_seconds: f64,
    /// Maximum of the computed RTT, ms (ignoring gaps).
    pub max_computed_ms: f64,
    /// Minimum of the computed RTT, ms.
    pub min_computed_ms: f64,
    /// The driven packet simulation: events, wall clock, engine report.
    pub run: SimRun,
}

/// Run the experiment for `(src_name, dst_name)` on `scenario` for
/// `duration`, one ping every `ping_interval`, the ping simulation driven
/// by `driver` under the snapshot tag `rtt_<pair>`.
pub fn run(
    scenario: &Scenario,
    src_name: &str,
    dst_name: &str,
    duration: SimDuration,
    ping_interval: SimDuration,
    driver: &Driver,
) -> Result<RttFluctuationResult, RunError> {
    let src = scenario.gs_by_name(src_name)?;
    let dst = scenario.gs_by_name(dst_name)?;

    // (a) Packet-level pings.
    let mut sim = scenario.simulator(vec![src, dst]);
    let stop = SimTime::ZERO + duration;
    let app = sim.add_app(src, 7, Box::new(PingApp::new(dst, ping_interval, stop)));
    // Drain stragglers for a second beyond the last probe.
    let tag = format!("rtt_{}", pair_slug(src_name, dst_name));
    let run = SimRun::drive(&mut sim, stop + SimDuration::from_secs(1), &tag, driver)?;
    let ping: &PingApp = sim.app_as(app).expect("ping app");
    let ping_series: Vec<(f64, f64)> =
        ping.rtts().iter().map(|&(t, rtt)| (t.secs_f64(), rtt.secs_f64() * 1e3)).collect();
    let (sent, received) = (ping.sent(), ping.received());

    // (b) Snapshot-computed RTTs (the paper's networkx line).
    let step = scenario.sim_config.fstate_step;
    let mut tracker = PairTracker::new(src, dst, true);
    let mut computed_series = Vec::new();
    scenario.forwarding_series(dst, stop, |t, state| {
        tracker.observe(&scenario.constellation, state);
        let rtt_ms =
            tracker.series().last().and_then(|o| o.rtt).map_or(f64::NAN, |r| r.secs_f64() * 1e3);
        computed_series.push((t.secs_f64(), rtt_ms));
    });

    let finite: Vec<f64> =
        computed_series.iter().map(|&(_, r)| r).filter(|r| r.is_finite()).collect();
    let max_computed_ms = finite.iter().copied().fold(f64::NAN, f64::max);
    let min_computed_ms = finite.iter().copied().fold(f64::NAN, f64::min);

    Ok(RttFluctuationResult {
        ping_series,
        computed_series,
        sent,
        received,
        disconnected_seconds: tracker.disconnected_steps as f64 * step.secs_f64(),
        max_computed_ms,
        min_computed_ms,
        run,
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

    /// 10 s with a ping every 100 ms.
    fn short_run(s: &Scenario) -> RttFluctuationResult {
        let (secs, ping) = (SimDuration::from_secs(10), SimDuration::from_millis(100));
        run(s, "Istanbul", "Nairobi", secs, ping, &Driver::default()).expect("known cities")
    }

    #[test]
    fn pings_and_computed_agree() {
        let s = scenario();
        let r = short_run(&s);
        assert!(r.received > 80, "received {}", r.received);
        assert_eq!(r.disconnected_seconds, 0.0);
        // Every ping RTT within [min_computed − 1 ms, max_computed + 5 ms]
        // (pings launched just before a path change may ride a detour).
        for &(t, rtt) in &r.ping_series {
            assert!(
                rtt > r.min_computed_ms - 1.0 && rtt < r.max_computed_ms + 5.0,
                "ping at {t}s has RTT {rtt} outside [{} , {}]",
                r.min_computed_ms,
                r.max_computed_ms
            );
        }
        // Median ping tracks the computed envelope to within ~1 ms (pings
        // additionally pay per-hop serialization, ~50 µs/hop at 10 Mbps).
        let mut rtts: Vec<f64> = r.ping_series.iter().map(|&(_, x)| x).collect();
        rtts.sort_by(f64::total_cmp);
        let med = rtts[rtts.len() / 2];
        assert!(
            med >= r.min_computed_ms - 0.1 && med <= r.max_computed_ms + 1.5,
            "median ping {med} vs computed [{}, {}]",
            r.min_computed_ms,
            r.max_computed_ms
        );
    }

    #[test]
    fn computed_series_covers_duration() {
        let s = scenario();
        let r = short_run(&s);
        // 10 s at the default 100 ms granularity = 100 samples.
        assert_eq!(r.computed_series.len(), 100);
        assert!(r.max_computed_ms >= r.min_computed_ms);
        assert!(r.min_computed_ms > 10.0, "Istanbul–Nairobi RTT must exceed 10 ms");
    }

    /// The paper's St. Petersburg outage, in miniature: over a long enough
    /// horizon the Rio–St. Petersburg pair sees disconnected periods.
    #[test]
    #[ignore = "long: scans 1000 s of Kuiper K1 connectivity"]
    fn rio_st_petersburg_sees_outages() {
        let s = ScenarioBuilder::new(ConstellationChoice::KuiperK1)
            .ground_stations(vec![
                GroundStation::new("Rio de Janeiro", -22.9068, -43.1729),
                GroundStation::new("Saint Petersburg", 59.9311, 30.3609),
            ])
            .build();
        let (secs, ping) = (SimDuration::from_secs(1000), SimDuration::from_millis(200));
        let r = run(&s, "Rio de Janeiro", "Saint Petersburg", secs, ping, &Driver::default())
            .expect("known cities");
        assert!(
            r.disconnected_seconds > 0.0,
            "expected an outage over 1000 s; max RTT {}",
            r.max_computed_ms
        );
    }
}
