//! Orbital shells and per-satellite element generation.
//!
//! Paper §2.1: "A set of orbits with the same *i* and *h*, and crossing the
//! Equator at uniform spacing from each other, is called an orbital shell.
//! Satellites within one orbit are uniformly spaced out." The remaining
//! degrees of freedom (circular orbits, uniform spreads) are exactly what
//! the paper derives from the filings' symmetries.

use hypatia_orbit::kepler::KeplerianElements;

/// Description of one orbital shell (a row of the paper's Table 1).
#[derive(Debug, Clone, PartialEq)]
pub struct ShellSpec {
    /// Shell name, e.g. "S1" or "K1".
    pub name: String,
    /// Altitude above the Earth's surface, km.
    pub altitude_km: f64,
    /// Number of orbital planes.
    pub num_orbits: u32,
    /// Satellites per orbital plane.
    pub sats_per_orbit: u32,
    /// Inclination, degrees.
    pub inclination_deg: f64,
    /// Inter-plane phasing factor `F` (Walker notation): satellite `s` of
    /// plane `o` is offset in mean anomaly by `F · o · 360° / (P·S)` where
    /// `P·S` is the shell's satellite count. The filings do not pin this
    /// down; Hypatia and follow-on work use a fixed offset — we default to
    /// `F = 1`, and it is configurable for topology studies.
    pub phase_factor: f64,
}

impl ShellSpec {
    /// Convenience constructor with the default phasing.
    pub fn new(
        name: impl Into<String>,
        altitude_km: f64,
        num_orbits: u32,
        sats_per_orbit: u32,
        inclination_deg: f64,
    ) -> Self {
        assert!(altitude_km > 0.0 && altitude_km <= 2_000.0, "not a LEO altitude: {altitude_km}");
        assert!(num_orbits > 0 && sats_per_orbit > 0, "empty shell");
        ShellSpec {
            name: name.into(),
            altitude_km,
            num_orbits,
            sats_per_orbit,
            inclination_deg,
            phase_factor: 1.0,
        }
    }

    /// Total number of satellites in this shell.
    pub fn num_satellites(&self) -> u32 {
        self.num_orbits * self.sats_per_orbit
    }

    /// Keplerian elements of satellite `idx_in_orbit` in plane `orbit`.
    ///
    /// Planes are spread uniformly over 360° of right ascension; satellites
    /// uniformly over 360° of mean anomaly, with the Walker phase offset.
    pub fn satellite_elements(&self, orbit: u32, idx_in_orbit: u32) -> KeplerianElements {
        assert!(orbit < self.num_orbits, "orbit {orbit} out of range");
        assert!(idx_in_orbit < self.sats_per_orbit, "satellite {idx_in_orbit} out of range");
        let raan_deg = 360.0 * orbit as f64 / self.num_orbits as f64;
        let base_ma = 360.0 * idx_in_orbit as f64 / self.sats_per_orbit as f64;
        let phase_ma = self.phase_factor * 360.0 * orbit as f64 / self.num_satellites() as f64;
        KeplerianElements::circular(
            self.altitude_km,
            self.inclination_deg,
            raan_deg,
            base_ma + phase_ma,
        )
    }

    /// Orbital period of this shell, seconds.
    pub fn period_s(&self) -> f64 {
        hypatia_util::constants::circular_orbit_period_s(self.altitude_km)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypatia_orbit::Propagator;
    use hypatia_util::angle::rad_to_deg;
    use hypatia_util::SimTime;

    fn k1() -> ShellSpec {
        ShellSpec::new("K1", 630.0, 34, 34, 51.9)
    }

    #[test]
    fn satellite_count() {
        assert_eq!(k1().num_satellites(), 1156);
    }

    #[test]
    fn raan_uniformly_spread() {
        let s = k1();
        let e0 = s.satellite_elements(0, 0);
        let e17 = s.satellite_elements(17, 0);
        assert!((rad_to_deg(e17.raan_rad) - rad_to_deg(e0.raan_rad) - 180.0).abs() < 1e-9);
    }

    #[test]
    fn mean_anomaly_uniform_within_orbit() {
        let s = k1();
        let step = 360.0 / 34.0;
        let e0 = s.satellite_elements(3, 0);
        let e1 = s.satellite_elements(3, 1);
        let d = rad_to_deg(e1.mean_anomaly_rad) - rad_to_deg(e0.mean_anomaly_rad);
        assert!((d - step).abs() < 1e-9, "delta {d}");
    }

    #[test]
    fn phase_factor_offsets_adjacent_planes() {
        let mut s = k1();
        s.phase_factor = 1.0;
        let a = s.satellite_elements(0, 0);
        let b = s.satellite_elements(1, 0);
        let expect = 360.0 / 1156.0;
        let d = rad_to_deg(b.mean_anomaly_rad) - rad_to_deg(a.mean_anomaly_rad);
        assert!((d - expect).abs() < 1e-9, "phase delta {d}");
    }

    #[test]
    fn zero_phase_factor_aligns_planes() {
        let mut s = k1();
        s.phase_factor = 0.0;
        let a = s.satellite_elements(0, 5);
        let b = s.satellite_elements(20, 5);
        assert!((a.mean_anomaly_rad - b.mean_anomaly_rad).abs() < 1e-12);
    }

    #[test]
    fn all_satellites_at_correct_altitude() {
        let s = k1();
        for (o, i) in [(0, 0), (5, 12), (33, 33)] {
            let el = s.satellite_elements(o, i);
            assert!((el.perigee_altitude_km() - 630.0).abs() < 1e-9);
        }
    }

    #[test]
    fn neighbours_in_orbit_keep_constant_separation() {
        // Intra-orbit ISL lengths are constant for a circular orbit — the
        // geometric fact behind +Grid's stable intra-orbit links.
        let s = k1();
        let p0 = Propagator::j2(s.satellite_elements(2, 0));
        let p1 = Propagator::j2(s.satellite_elements(2, 1));
        let d_at = |secs| {
            p0.position_at(SimTime::from_secs(secs))
                .distance(p1.position_at(SimTime::from_secs(secs)))
        };
        let d0 = d_at(0);
        for t in [100u64, 500, 2000] {
            assert!((d_at(t) - d0).abs() < 1.0, "separation changed at t={t}");
        }
    }

    #[test]
    #[should_panic]
    fn orbit_out_of_range_panics() {
        k1().satellite_elements(34, 0);
    }

    #[test]
    #[should_panic]
    fn non_leo_altitude_panics() {
        ShellSpec::new("GEO", 35_786.0, 1, 1, 0.0);
    }
}
