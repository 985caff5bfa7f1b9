//! Ground geometry: great-circle distances and the geodesic RTT baseline.
//!
//! The paper's Fig. 6 compares every connection's maximum RTT to its
//! "geodesic RTT": the time to travel back and forth between the end-points
//! at the speed of light in vacuum — the minimum achievable RTT.

use crate::frames::{geodetic_to_ecef, GeodeticPos};
use hypatia_util::constants::{C_FIBER_KM_PER_S, C_VACUUM_KM_PER_S, EARTH_RADIUS_KM};
use hypatia_util::SimDuration;

/// Great-circle (surface) distance between two geodetic points, km.
///
/// Computed via the chord → central-angle relation on the spherical model,
/// which is numerically stable at all separations.
pub fn great_circle_distance_km(a: GeodeticPos, b: GeodeticPos) -> f64 {
    let pa = geodetic_to_ecef(GeodeticPos::surface(a.latitude_deg, a.longitude_deg));
    let pb = geodetic_to_ecef(GeodeticPos::surface(b.latitude_deg, b.longitude_deg));
    let theta = pa.angle_to(pb);
    EARTH_RADIUS_KM * theta
}

/// The geodesic RTT between two points: `2 · d / c` (speed of light in
/// vacuum along the great circle).
pub fn geodesic_rtt(a: GeodeticPos, b: GeodeticPos) -> SimDuration {
    let d = great_circle_distance_km(a, b);
    SimDuration::from_secs_f64(2.0 * d / C_VACUUM_KM_PER_S)
}

/// RTT of an idealized straight terrestrial fiber path (`2 · d / (2c/3)`),
/// the paper's baseline for "today's Internet" latency comparisons.
pub fn fiber_rtt(a: GeodeticPos, b: GeodeticPos) -> SimDuration {
    let d = great_circle_distance_km(a, b);
    SimDuration::from_secs_f64(2.0 * d / C_FIBER_KM_PER_S)
}

/// One-way propagation delay over a straight line of `distance_km` at `c`.
pub fn propagation_delay_km(distance_km: f64) -> SimDuration {
    assert!(distance_km >= 0.0, "negative distance");
    SimDuration::from_secs_f64(distance_km / C_VACUUM_KM_PER_S)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypatia_util::rng::DetRng;

    fn city(lat: f64, lon: f64) -> GeodeticPos {
        GeodeticPos::surface(lat, lon)
    }

    #[test]
    fn same_point_distance_zero() {
        let p = city(48.85, 2.35);
        assert!(great_circle_distance_km(p, p) < 1e-9);
    }

    #[test]
    fn antipodal_distance_is_half_circumference() {
        let d = great_circle_distance_km(city(0.0, 0.0), city(0.0, 180.0));
        assert!((d - std::f64::consts::PI * EARTH_RADIUS_KM).abs() < 1e-6);
    }

    #[test]
    fn quarter_circumference_pole_to_equator() {
        let d = great_circle_distance_km(city(90.0, 0.0), city(0.0, 55.0));
        assert!((d - std::f64::consts::FRAC_PI_2 * EARTH_RADIUS_KM).abs() < 1e-6);
    }

    #[test]
    fn paris_to_moscow_is_about_2500km() {
        // Well-known value ~2480-2490 km.
        let d = great_circle_distance_km(city(48.8566, 2.3522), city(55.7558, 37.6173));
        assert!((2400.0..2600.0).contains(&d), "distance {d} km");
    }

    #[test]
    fn geodesic_rtt_for_known_distance() {
        // New York to London ≈ 5570 km → RTT ≈ 37.2 ms at c.
        let rtt = geodesic_rtt(city(40.7128, -74.0060), city(51.5074, -0.1278));
        let ms = rtt.secs_f64() * 1e3;
        assert!((35.0..40.0).contains(&ms), "geodesic RTT {ms} ms");
    }

    #[test]
    fn fiber_rtt_is_1_5x_geodesic() {
        let a = city(40.7, -74.0);
        let b = city(51.5, -0.13);
        let ratio = fiber_rtt(a, b).secs_f64() / geodesic_rtt(a, b).secs_f64();
        // Nanosecond rounding of SimDuration leaves a tiny residual.
        assert!((ratio - 1.5).abs() < 1e-6, "ratio {ratio}");
    }

    #[test]
    fn propagation_delay_one_thousand_km() {
        let d = propagation_delay_km(1000.0);
        // 1000 km / 299792.458 km/s ≈ 3.336 ms.
        assert!((d.secs_f64() * 1e3 - 3.3356).abs() < 1e-3);
    }

    /// Two surface points, latitudes in [-89, 89), longitudes in [-180, 180).
    fn random_pair(seed: u64) -> (GeodeticPos, GeodeticPos) {
        let mut rng = DetRng::new(seed);
        let mut point = || city(rng.next_in(-89.0, 89.0), rng.next_in(-180.0, 180.0));
        (point(), point())
    }

    #[test]
    fn distance_symmetric() {
        for seed in 0..256 {
            let (a, b) = random_pair(seed);
            let (ab, ba) = (great_circle_distance_km(a, b), great_circle_distance_km(b, a));
            assert!((ab - ba).abs() < 1e-9, "seed {seed}: {ab} vs {ba}");
        }
    }

    #[test]
    fn distance_bounded_by_half_circumference() {
        for seed in 0..256 {
            let (a, b) = random_pair(seed);
            let d = great_circle_distance_km(a, b);
            assert!(d >= 0.0, "seed {seed}: {d}");
            assert!(d <= std::f64::consts::PI * EARTH_RADIUS_KM + 1e-9, "seed {seed}: {d}");
        }
    }
}
