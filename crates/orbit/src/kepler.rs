//! Classical (Keplerian) orbital elements and the Kepler equation.
//!
//! The constellations in the paper's Table 1 are circular orbits described
//! by altitude and inclination; orbits in a shell are uniformly spread in
//! right ascension and satellites uniformly spaced in mean anomaly. We keep
//! full elliptical generality (the TLE format requires eccentricity anyway)
//! but the `circular` constructor is the common entry point.

use hypatia_util::angle::{deg_to_rad, wrap_two_pi};
use hypatia_util::constants::{EARTH_MU_KM3_PER_S2, EARTH_RADIUS_KM};

/// Classical orbital elements, angles in **radians**, lengths in **km**.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeplerianElements {
    /// Semi-major axis `a`, km (from Earth's center).
    pub semi_major_axis_km: f64,
    /// Eccentricity `e` in `[0, 1)`.
    pub eccentricity: f64,
    /// Inclination `i`, rad.
    pub inclination_rad: f64,
    /// Right ascension of the ascending node Ω, rad.
    pub raan_rad: f64,
    /// Argument of perigee ω, rad (irrelevant for circular orbits; kept 0).
    pub arg_perigee_rad: f64,
    /// Mean anomaly at epoch M₀, rad.
    pub mean_anomaly_rad: f64,
}

impl KeplerianElements {
    /// A circular orbit at altitude `h_km` above the WGS72 equatorial radius.
    ///
    /// `raan_deg` is the right ascension of the ascending node and
    /// `mean_anomaly_deg` the satellite's phase within the orbit, both in
    /// degrees as the filings express them.
    pub fn circular(h_km: f64, inclination_deg: f64, raan_deg: f64, mean_anomaly_deg: f64) -> Self {
        assert!(h_km > 0.0, "altitude must be positive");
        KeplerianElements {
            semi_major_axis_km: EARTH_RADIUS_KM + h_km,
            eccentricity: 0.0,
            inclination_rad: deg_to_rad(inclination_deg),
            raan_rad: wrap_two_pi(deg_to_rad(raan_deg)),
            arg_perigee_rad: 0.0,
            mean_anomaly_rad: wrap_two_pi(deg_to_rad(mean_anomaly_deg)),
        }
    }

    /// Altitude above the (spherical WGS72) Earth surface at perigee, km.
    pub fn perigee_altitude_km(&self) -> f64 {
        self.semi_major_axis_km * (1.0 - self.eccentricity) - EARTH_RADIUS_KM
    }

    /// Mean motion `n = sqrt(μ/a³)`, rad/s.
    pub fn mean_motion_rad_per_s(&self) -> f64 {
        (EARTH_MU_KM3_PER_S2 / self.semi_major_axis_km.powi(3)).sqrt()
    }

    /// Orbital period, seconds.
    pub fn period_s(&self) -> f64 {
        std::f64::consts::TAU / self.mean_motion_rad_per_s()
    }

    /// Mean motion in revolutions per day (the TLE unit).
    pub fn mean_motion_rev_per_day(&self) -> f64 {
        86_400.0 / self.period_s()
    }

    /// Semi-latus rectum `p = a(1-e²)`, km.
    pub fn semi_latus_rectum_km(&self) -> f64 {
        self.semi_major_axis_km * (1.0 - self.eccentricity * self.eccentricity)
    }
}

/// Solve Kepler's equation `M = E - e sin E` for the eccentric anomaly `E`
/// by Newton–Raphson. Converges in a handful of iterations for all `e < 1`.
pub fn solve_kepler(mean_anomaly_rad: f64, eccentricity: f64) -> f64 {
    assert!((0.0..1.0).contains(&eccentricity), "eccentricity must be in [0,1): {eccentricity}");
    let m = wrap_two_pi(mean_anomaly_rad);
    if eccentricity == 0.0 {
        return m;
    }
    // Standard starting guess: E₀ = M for small e, else π.
    let mut e_anom = if eccentricity < 0.8 { m } else { std::f64::consts::PI };
    for _ in 0..30 {
        let f = e_anom - eccentricity * e_anom.sin() - m;
        let fp = 1.0 - eccentricity * e_anom.cos();
        let delta = f / fp;
        e_anom -= delta;
        if delta.abs() < 1e-14 {
            break;
        }
    }
    e_anom
}

/// True anomaly ν from eccentric anomaly `E` and eccentricity.
pub fn true_anomaly(eccentric_anomaly_rad: f64, eccentricity: f64) -> f64 {
    true_anomaly_from_roots(
        eccentric_anomaly_rad,
        (1.0 + eccentricity).sqrt(),
        (1.0 - eccentricity).sqrt(),
    )
}

/// [`true_anomaly`] with `√(1+e)` and `√(1−e)` supplied, for callers that
/// hold them per orbit shape instead of taking two roots per query.
pub(crate) fn true_anomaly_from_roots(
    eccentric_anomaly_rad: f64,
    sqrt_one_plus_e: f64,
    sqrt_one_minus_e: f64,
) -> f64 {
    let half = eccentric_anomaly_rad / 2.0;
    let num = sqrt_one_plus_e * half.sin();
    let den = sqrt_one_minus_e * half.cos();
    wrap_two_pi(2.0 * num.atan2(den))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypatia_util::rng::DetRng;

    #[test]
    fn circular_constructor_sets_altitude() {
        let el = KeplerianElements::circular(550.0, 53.0, 10.0, 20.0);
        assert!((el.perigee_altitude_km() - 550.0).abs() < 1e-9);
        assert_eq!(el.eccentricity, 0.0);
    }

    #[test]
    fn period_matches_constants_helper() {
        let el = KeplerianElements::circular(630.0, 51.9, 0.0, 0.0);
        let expect = hypatia_util::constants::circular_orbit_period_s(630.0);
        assert!((el.period_s() - expect).abs() < 1e-6);
    }

    #[test]
    fn kepler_equation_circular_is_identity() {
        for m in [0.0, 1.0, 3.0, 6.0] {
            assert!((solve_kepler(m, 0.0) - wrap_two_pi(m)).abs() < 1e-14);
        }
    }

    #[test]
    fn kepler_known_value() {
        // Classic textbook case: M = 0.5 rad, e = 0.1 → E ≈ 0.5527 rad.
        let e_anom = solve_kepler(0.5, 0.1);
        assert!((e_anom - 0.5527).abs() < 1e-3, "E = {e_anom}");
    }

    #[test]
    fn true_anomaly_circular_equals_eccentric() {
        for ea in [0.1, 1.5, 4.0] {
            assert!((true_anomaly(ea, 0.0) - wrap_two_pi(ea)).abs() < 1e-12);
        }
    }

    /// Kepler solver actually satisfies M = E - e sin E.
    #[test]
    fn kepler_residual_is_tiny() {
        for seed in 0..256 {
            let mut rng = DetRng::new(seed);
            let (m, e) = (rng.next_in(0.0, std::f64::consts::TAU), rng.next_in(0.0, 0.95));
            let ea = solve_kepler(m, e);
            let residual = wrap_two_pi(ea - e * ea.sin()) - wrap_two_pi(m);
            // Compare modulo 2π.
            let r = residual.abs().min((residual.abs() - std::f64::consts::TAU).abs());
            assert!(r < 1e-9, "seed {seed}: residual {r} for m {m} e {e}");
        }
    }

    /// True anomaly and eccentric anomaly are in the same half-plane.
    #[test]
    fn true_anomaly_same_half() {
        for seed in 0..256 {
            let mut rng = DetRng::new(seed);
            let (m, e) = (rng.next_in(0.0, std::f64::consts::TAU), rng.next_in(0.0, 0.9));
            let ea = solve_kepler(m, e);
            let nu = true_anomaly(ea, e);
            // sin(E) and sin(ν) share a sign for e < 1.
            assert!(ea.sin() * nu.sin() >= -1e-9, "seed {seed}: m {m} e {e}");
        }
    }
}
