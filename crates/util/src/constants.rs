//! Physical and geodetic constants.
//!
//! The TLE ecosystem the paper builds on (NORAD TLEs, SGP4, pyephem) is
//! defined against the **WGS72** geodetic system, so Hypatia's orbital
//! mechanics use WGS72 values. Where the paper quotes round numbers (e.g.
//! "speed of light in fiber is roughly 2c/3") we encode the same convention.

/// Speed of light in vacuum, km/s.
pub const C_VACUUM_KM_PER_S: f64 = 299_792.458;

/// Speed of light in optical fiber (~2c/3), km/s. Used when comparing LEO
/// paths to terrestrial fiber paths, per the paper's §5.1 discussion.
pub const C_FIBER_KM_PER_S: f64 = C_VACUUM_KM_PER_S * 2.0 / 3.0;

/// WGS72 Earth equatorial radius, km.
pub const EARTH_RADIUS_KM: f64 = 6378.135;

/// WGS72 gravitational parameter μ = GM, km^3/s^2.
pub const EARTH_MU_KM3_PER_S2: f64 = 398_600.8;

/// Earth rotation rate, rad/s (sidereal).
pub const EARTH_ROTATION_RAD_PER_S: f64 = 7.292_115_146_706_98e-5;

/// WGS72 second zonal harmonic J2 (dominant oblateness perturbation).
pub const EARTH_J2: f64 = 1.082_616e-3;

/// WGS72 inverse flattening (for the optional ellipsoidal geodetic model).
pub const EARTH_INV_FLATTENING: f64 = 298.26;

/// Mean sidereal day, seconds.
pub const SIDEREAL_DAY_S: f64 = 86164.0905;

/// The LEO altitude ceiling the paper uses to define "low Earth orbit", km.
pub const LEO_MAX_ALTITUDE_KM: f64 = 2_000.0;

/// Orbital period of a circular orbit at altitude `h_km` above the WGS72
/// equatorial radius, in seconds: `T = 2π sqrt(a^3/μ)`.
pub fn circular_orbit_period_s(h_km: f64) -> f64 {
    let a = EARTH_RADIUS_KM + h_km;
    2.0 * std::f64::consts::PI * (a.powi(3) / EARTH_MU_KM3_PER_S2).sqrt()
}

/// Orbital velocity of a circular orbit at altitude `h_km`, km/s:
/// `v = sqrt(μ/a)`.
pub fn circular_orbit_velocity_km_per_s(h_km: f64) -> f64 {
    (EARTH_MU_KM3_PER_S2 / (EARTH_RADIUS_KM + h_km)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper §2.3: at h = 550 km "the orbital velocity is more than
    /// 27,000 km/hr, and satellites complete an orbit ... in ~100 minutes".
    #[test]
    fn starlink_s1_altitude_matches_paper_quotes() {
        let v_kmh = circular_orbit_velocity_km_per_s(550.0) * 3600.0;
        assert!(v_kmh > 27_000.0, "velocity {v_kmh} km/h");
        let t_min = circular_orbit_period_s(550.0) / 60.0;
        assert!((90.0..105.0).contains(&t_min), "period {t_min} min");
    }

    #[test]
    fn period_increases_with_altitude() {
        assert!(circular_orbit_period_s(1200.0) > circular_orbit_period_s(550.0));
    }

    #[test]
    fn velocity_decreases_with_altitude() {
        assert!(circular_orbit_velocity_km_per_s(1325.0) < circular_orbit_velocity_km_per_s(550.0));
    }

    #[test]
    fn geo_period_is_one_sidereal_day() {
        // GEO altitude ≈ 35,786 km (paper §2.4); its period must be ~86164 s.
        let t = circular_orbit_period_s(35_786.0);
        assert!((t - SIDEREAL_DAY_S).abs() < 120.0, "GEO period {t} s");
    }

    #[test]
    fn mean_motion_for_kuiper_k1() {
        // Kuiper K1 at 630 km: ~14.8 revs/day (standard value for this shell).
        let n = 86_400.0 / circular_orbit_period_s(630.0);
        assert!((14.5..15.1).contains(&n), "mean motion {n}");
    }

    #[test]
    fn fiber_speed_is_two_thirds_c() {
        assert!((C_FIBER_KM_PER_S / C_VACUUM_KM_PER_S - 2.0 / 3.0).abs() < 1e-12);
    }
}
