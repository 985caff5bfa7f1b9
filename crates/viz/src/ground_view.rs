//! The ground observer's sky view (paper Fig. 12).
//!
//! For a given ground station and instant, lists every satellite above the
//! horizon with its azimuth (0° = N, 90° = E) and elevation, marking which
//! are above the minimum connectable elevation. Includes an ASCII renderer
//! (azimuth × elevation panorama) and reachability-window extraction over
//! time — the machinery behind the paper's St. Petersburg outage analysis.

use hypatia_constellation::{Constellation, GroundStation};
use hypatia_orbit::visibility::{azimuth_deg, elevation_deg};
use hypatia_util::json::{json, Value};
use hypatia_util::time::TimeSteps;
use hypatia_util::{SimDuration, SimTime};

/// One satellite as seen in the sky.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkySatellite {
    /// Satellite index.
    pub sat_idx: usize,
    /// Azimuth, degrees clockwise from north.
    pub azimuth_deg: f64,
    /// Elevation above the horizon, degrees.
    pub elevation_deg: f64,
    /// Above the constellation's minimum elevation (connectable)?
    pub connectable: bool,
}

/// The sky as seen from one ground station at one instant.
#[derive(Debug, Clone)]
pub struct GroundView {
    /// Observation time.
    pub at: SimTime,
    /// Observer name.
    pub observer: String,
    /// The constellation's minimum elevation angle.
    pub min_elevation_deg: f64,
    /// All satellites above the horizon.
    pub satellites: Vec<SkySatellite>,
}

impl GroundView {
    /// Compute the view from `gs` at `t`.
    pub fn compute(constellation: &Constellation, gs: &GroundStation, t: SimTime) -> GroundView {
        let gs_pos = gs.position_ecef();
        let min_el = constellation.gsl.min_elevation_deg;
        let mut satellites = Vec::new();
        for idx in 0..constellation.num_satellites() {
            let sat_pos = constellation.sat_position_ecef(idx, t);
            let el = elevation_deg(gs_pos, sat_pos);
            if el >= 0.0 {
                satellites.push(SkySatellite {
                    sat_idx: idx,
                    azimuth_deg: azimuth_deg(gs_pos, sat_pos),
                    elevation_deg: el,
                    connectable: el >= min_el,
                });
            }
        }
        GroundView { at: t, observer: gs.name.clone(), min_elevation_deg: min_el, satellites }
    }

    /// Is any satellite connectable right now?
    pub fn is_connected(&self) -> bool {
        self.satellites.iter().any(|s| s.connectable)
    }

    /// JSON export (for custom front-ends).
    pub fn to_json(&self) -> Value {
        json!({
            "t": self.at.secs_f64(),
            "observer": self.observer,
            "min_elevation_deg": self.min_elevation_deg,
            "satellites": self.satellites.iter().map(|s| json!({
                "sat": s.sat_idx,
                "az": s.azimuth_deg,
                "el": s.elevation_deg,
                "connectable": s.connectable,
            })).collect::<Vec<_>>(),
        })
    }

    /// ASCII panorama: azimuth 0–360° across, elevation 90°→0° down.
    /// Connectable satellites render as `#`, others (the paper's shaded
    /// below-minimum region) as `.`.
    pub fn render_ascii(&self, cols: usize, rows: usize) -> String {
        assert!(cols >= 10 && rows >= 5, "canvas too small");
        let mut grid = vec![vec![' '; cols]; rows];
        for s in &self.satellites {
            let col = ((s.azimuth_deg / 360.0) * cols as f64) as usize % cols;
            let row_f = (1.0 - s.elevation_deg / 90.0) * (rows as f64 - 1.0);
            let row = row_f.round().clamp(0.0, rows as f64 - 1.0) as usize;
            grid[row][col] = if s.connectable { '#' } else { '.' };
        }
        let mut out = String::new();
        out.push_str(&format!(
            "{} at t={:.1}s  (# connectable, . below {}°)\n",
            self.observer,
            self.at.secs_f64(),
            self.min_elevation_deg
        ));
        for (i, row) in grid.iter().enumerate() {
            let el = 90.0 * (1.0 - i as f64 / (rows as f64 - 1.0));
            out.push_str(&format!("{el:5.1}° |"));
            out.extend(row.iter());
            out.push('\n');
        }
        out.push_str(&format!("       +{}\n", "-".repeat(cols)));
        out.push_str("        N         E         S         W        N\n");
        out
    }
}

/// A maximal interval during which the observer has ≥1 connectable
/// satellite (or none, when `connected` is false).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConnectivityWindow {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive; the first step with the opposite state).
    pub until: SimTime,
    /// Connected during this window?
    pub connected: bool,
}

/// Scan `[0, horizon)` at `step` granularity and return the alternating
/// connected/disconnected windows for `gs`.
pub fn connectivity_windows(
    constellation: &Constellation,
    gs: &GroundStation,
    horizon: SimDuration,
    step: SimDuration,
) -> Vec<ConnectivityWindow> {
    let mut windows: Vec<ConnectivityWindow> = Vec::new();
    for t in TimeSteps::new(SimTime::ZERO, SimTime::ZERO + horizon, step) {
        let connected = GroundView::compute(constellation, gs, t).is_connected();
        match windows.last_mut() {
            Some(last) if last.connected == connected => last.until = t + step,
            _ => windows.push(ConnectivityWindow { from: t, until: t + step, connected }),
        }
    }
    windows
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypatia_constellation::presets;

    fn kuiper(gs: GroundStation) -> Constellation {
        presets::kuiper_k1(vec![gs])
    }

    #[test]
    fn equatorial_observer_sees_connectable_satellites() {
        let gs = GroundStation::new("Quito", -0.18, -78.47);
        let c = kuiper(gs.clone());
        let view = GroundView::compute(&c, &gs, SimTime::ZERO);
        assert!(!view.satellites.is_empty());
        assert!(view.is_connected());
        // Many more satellites near the horizon than connectable (paper's
        // observation about the shaded region).
        let connectable = view.satellites.iter().filter(|s| s.connectable).count();
        assert!(connectable < view.satellites.len());
    }

    /// The mechanism behind Fig. 3(a)/Fig. 12: St. Petersburg sees Kuiper
    /// K1 only intermittently.
    #[test]
    fn st_petersburg_is_intermittently_connected() {
        let gs = GroundStation::new("Saint Petersburg", 59.9311, 30.3609);
        let c = kuiper(gs.clone());
        let windows =
            connectivity_windows(&c, &gs, SimDuration::from_secs(600), SimDuration::from_secs(5));
        assert!(
            windows.iter().any(|w| !w.connected),
            "expected disconnection windows, got {windows:?}"
        );
        assert!(windows.iter().any(|w| w.connected), "expected some connectivity, got {windows:?}");
    }

    #[test]
    fn windows_partition_the_horizon() {
        let gs = GroundStation::new("Saint Petersburg", 59.9311, 30.3609);
        let c = kuiper(gs.clone());
        let horizon = SimDuration::from_secs(300);
        let step = SimDuration::from_secs(10);
        let windows = connectivity_windows(&c, &gs, horizon, step);
        assert_eq!(windows[0].from, SimTime::ZERO);
        for w in windows.windows(2) {
            assert_eq!(w[0].until, w[1].from, "gap between windows");
            assert_ne!(w[0].connected, w[1].connected, "windows must alternate");
        }
        assert_eq!(windows.last().unwrap().until, SimTime::ZERO + horizon);
    }

    #[test]
    fn ascii_rendering_contains_markers() {
        let gs = GroundStation::new("Quito", -0.18, -78.47);
        let c = kuiper(gs.clone());
        let view = GroundView::compute(&c, &gs, SimTime::ZERO);
        let art = view.render_ascii(72, 12);
        assert!(art.contains('#') || art.contains('.'), "no satellites drawn:\n{art}");
        assert!(art.lines().count() >= 14);
    }

    #[test]
    fn json_export_shape() {
        let gs = GroundStation::new("Quito", -0.18, -78.47);
        let c = kuiper(gs.clone());
        let v = GroundView::compute(&c, &gs, SimTime::from_secs(30)).to_json();
        assert_eq!(v["observer"], "Quito");
        assert!(!v["satellites"].as_array().unwrap().is_empty());
        assert_eq!(v["min_elevation_deg"], 30.0);
    }
}
