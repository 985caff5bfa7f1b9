//! Coordinate frames: ECI ↔ ECEF ↔ geodetic.
//!
//! * **ECI** (Earth-centered inertial): where propagation happens.
//! * **ECEF** (Earth-centered, Earth-fixed): rotates with the Earth; ground
//!   stations are fixed here. ECI→ECEF is a rotation about Z by the Greenwich
//!   mean sidereal angle.
//! * **Geodetic**: latitude/longitude/altitude. Hypatia follows the TLE
//!   ecosystem's spherical-Earth convention by default (radius = WGS72
//!   equatorial); an ellipsoidal model is provided for comparison and is
//!   shown by tests to shift GS positions by < 25 km, far below the
//!   hundreds-km slant ranges that drive network behaviour.

use hypatia_util::angle::{deg_to_rad, rad_to_deg, wrap_pi};
use hypatia_util::constants::{EARTH_INV_FLATTENING, EARTH_RADIUS_KM, EARTH_ROTATION_RAD_PER_S};
use hypatia_util::{SimTime, Vec3};

/// A geodetic position: degrees and kilometres.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeodeticPos {
    /// Latitude in degrees, positive north.
    pub latitude_deg: f64,
    /// Longitude in degrees, positive east, in `(-180, 180]`.
    pub longitude_deg: f64,
    /// Altitude above the reference surface, km.
    pub altitude_km: f64,
}

impl GeodeticPos {
    /// Position on the surface (altitude 0).
    pub fn surface(latitude_deg: f64, longitude_deg: f64) -> Self {
        assert!((-90.0..=90.0).contains(&latitude_deg), "bad latitude {latitude_deg}");
        GeodeticPos { latitude_deg, longitude_deg, altitude_km: 0.0 }
    }
}

/// Greenwich mean sidereal angle at simulation time `t`.
///
/// Hypatia's simulation epoch is defined to have GMST = 0 (the prime
/// meridian aligned with the ECI x-axis); constellations are specified
/// relative to that epoch, so an absolute calendar origin is unnecessary.
pub fn gmst_rad(t: SimTime) -> f64 {
    hypatia_util::angle::wrap_two_pi(EARTH_ROTATION_RAD_PER_S * t.secs_f64())
}

/// Rotate an ECI position into the ECEF frame at time `t`.
pub fn eci_to_ecef(pos_eci: Vec3, t: SimTime) -> Vec3 {
    EarthRotation::at(t).eci_to_ecef(pos_eci)
}

/// The ECI→ECEF rotation of one instant — `rotate_z(-gmst)` with the
/// sidereal angle and its sine and cosine derived once, for rotating many
/// positions at that instant (bit-identical to rotating each afresh).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EarthRotation {
    sin: f64,
    cos: f64,
}

impl EarthRotation {
    /// The rotation in force at simulation time `t`.
    pub fn at(t: SimTime) -> Self {
        let (sin, cos) = (-gmst_rad(t)).sin_cos();
        EarthRotation { sin, cos }
    }

    /// Rotate an ECI position into the ECEF frame.
    pub fn eci_to_ecef(&self, p: Vec3) -> Vec3 {
        Vec3::new(self.cos * p.x - self.sin * p.y, self.sin * p.x + self.cos * p.y, p.z)
    }
}

/// Rotate an ECEF position into the ECI frame at time `t`.
pub fn ecef_to_eci(pos_ecef: Vec3, t: SimTime) -> Vec3 {
    pos_ecef.rotate_z(gmst_rad(t))
}

/// Geodetic → ECEF on the spherical Earth (default model).
pub fn geodetic_to_ecef(pos: GeodeticPos) -> Vec3 {
    let lat = deg_to_rad(pos.latitude_deg);
    let lon = deg_to_rad(pos.longitude_deg);
    let r = EARTH_RADIUS_KM + pos.altitude_km;
    Vec3::new(r * lat.cos() * lon.cos(), r * lat.cos() * lon.sin(), r * lat.sin())
}

/// ECEF → geodetic on the spherical Earth.
pub fn ecef_to_geodetic(p: Vec3) -> GeodeticPos {
    let r = p.norm();
    assert!(r > 0.0, "cannot convert the origin to geodetic");
    GeodeticPos {
        latitude_deg: rad_to_deg((p.z / r).clamp(-1.0, 1.0).asin()),
        longitude_deg: rad_to_deg(wrap_pi(p.y.atan2(p.x))),
        altitude_km: r - EARTH_RADIUS_KM,
    }
}

/// Geodetic → ECEF on the WGS72 ellipsoid (for fidelity comparisons).
pub fn geodetic_to_ecef_ellipsoidal(pos: GeodeticPos) -> Vec3 {
    let lat = deg_to_rad(pos.latitude_deg);
    let lon = deg_to_rad(pos.longitude_deg);
    let f = 1.0 / EARTH_INV_FLATTENING;
    let e2 = f * (2.0 - f);
    let n = EARTH_RADIUS_KM / (1.0 - e2 * lat.sin().powi(2)).sqrt();
    let h = pos.altitude_km;
    Vec3::new(
        (n + h) * lat.cos() * lon.cos(),
        (n + h) * lat.cos() * lon.sin(),
        (n * (1.0 - e2) + h) * lat.sin(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypatia_util::constants::SIDEREAL_DAY_S;
    use hypatia_util::rng::DetRng;

    #[test]
    fn gmst_is_zero_at_epoch_and_after_a_sidereal_day() {
        assert_eq!(gmst_rad(SimTime::ZERO), 0.0);
        let g = gmst_rad(SimTime::from_secs_f64(SIDEREAL_DAY_S));
        assert!(!(1e-4..=std::f64::consts::TAU - 1e-4).contains(&g), "gmst {g}");
    }

    #[test]
    fn eci_ecef_round_trip() {
        let p = Vec3::new(6500.0, 1000.0, -2000.0);
        let t = SimTime::from_secs(12345);
        let back = ecef_to_eci(eci_to_ecef(p, t), t);
        assert!(p.distance(back) < 1e-9);
    }

    #[test]
    fn earth_rotation_is_rotate_z_by_minus_gmst_bit_for_bit() {
        let mut rng = hypatia_util::rng::DetRng::new(0x726f_7461);
        for _ in 0..1000 {
            let p = Vec3::new(
                14_000.0 * rng.next_f64() - 7_000.0,
                14_000.0 * rng.next_f64() - 7_000.0,
                14_000.0 * rng.next_f64() - 7_000.0,
            );
            let t = SimTime::from_nanos(rng.next_below(200_000_000_000_000));
            let (want, got) = (p.rotate_z(-gmst_rad(t)), EarthRotation::at(t).eci_to_ecef(p));
            assert_eq!(eci_to_ecef(p, t), got);
            assert_eq!(
                [want.x.to_bits(), want.y.to_bits(), want.z.to_bits()],
                [got.x.to_bits(), got.y.to_bits(), got.z.to_bits()]
            );
        }
    }

    #[test]
    fn equator_prime_meridian_is_x_axis() {
        let p = geodetic_to_ecef(GeodeticPos::surface(0.0, 0.0));
        assert!((p.x - EARTH_RADIUS_KM).abs() < 1e-9);
        assert!(p.y.abs() < 1e-9 && p.z.abs() < 1e-9);
    }

    #[test]
    fn north_pole_is_z_axis() {
        let p = geodetic_to_ecef(GeodeticPos::surface(90.0, 0.0));
        assert!((p.z - EARTH_RADIUS_KM).abs() < 1e-9);
        assert!(p.x.abs() < 1e-6 && p.y.abs() < 1e-9);
    }

    #[test]
    fn known_city_position() {
        // Paris: 48.86 N, 2.35 E. z = R sin(lat) ≈ 4803 km.
        let p = geodetic_to_ecef(GeodeticPos::surface(48.8566, 2.3522));
        assert!((p.z - EARTH_RADIUS_KM * deg_to_rad(48.8566).sin()).abs() < 1e-6);
        assert!(p.y > 0.0, "east longitude → positive y");
    }

    #[test]
    fn ellipsoidal_vs_spherical_offset_is_bounded() {
        // The flattening moves surface points by at most ~1/298 of the
        // radius (~21 km) — negligible against LEO slant ranges.
        for lat in [-80.0, -45.0, 0.0, 30.0, 60.0, 89.0] {
            let g = GeodeticPos::surface(lat, 17.0);
            let d = geodetic_to_ecef(g).distance(geodetic_to_ecef_ellipsoidal(g));
            assert!(d < 25.0, "offset {d} km at lat {lat}");
        }
    }

    #[test]
    fn earth_rotation_moves_ecef_position_of_inertial_point() {
        let p_eci = Vec3::new(7000.0, 0.0, 0.0);
        let a = eci_to_ecef(p_eci, SimTime::ZERO);
        let b = eci_to_ecef(p_eci, SimTime::from_secs(600));
        // In 10 minutes the Earth turns ~2.5°: an equatorial point moves ~300 km.
        let moved = a.distance(b);
        assert!((250.0..400.0).contains(&moved), "moved {moved} km");
    }

    #[test]
    fn geodetic_round_trip() {
        for seed in 0..256 {
            let mut rng = DetRng::new(seed);
            let g = GeodeticPos {
                latitude_deg: rng.next_in(-89.9, 89.9),
                longitude_deg: rng.next_in(-179.9, 179.9),
                altitude_km: rng.next_in(0.0, 2000.0),
            };
            let back = ecef_to_geodetic(geodetic_to_ecef(g));
            assert!((back.latitude_deg - g.latitude_deg).abs() < 1e-9, "seed {seed}: {g:?}");
            assert!((back.longitude_deg - g.longitude_deg).abs() < 1e-9, "seed {seed}: {g:?}");
            assert!((back.altitude_km - g.altitude_km).abs() < 1e-9, "seed {seed}: {g:?}");
        }
    }

    #[test]
    fn ecef_norm_is_radius_plus_altitude() {
        for seed in 0..256 {
            let mut rng = DetRng::new(seed);
            let g = GeodeticPos {
                latitude_deg: rng.next_in(-90.0, 90.0),
                longitude_deg: rng.next_in(-180.0, 180.0),
                altitude_km: rng.next_in(0.0, 2000.0),
            };
            let radius = geodetic_to_ecef(g).norm();
            assert!(
                (radius - (EARTH_RADIUS_KM + g.altitude_km)).abs() < 1e-9,
                "seed {seed}: {g:?}"
            );
        }
    }
}
