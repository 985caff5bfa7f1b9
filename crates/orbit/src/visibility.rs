//! GS–satellite visibility: elevation angles and slant ranges.
//!
//! Paper §2.1 / Fig. 1: a satellite can only serve ground stations that see
//! it above the minimum angle of elevation `l` (Starlink 25°, Kuiper 30°,
//! Telesat 10°). Smaller `l` admits longer, lower-gain links.

use hypatia_util::angle::{deg_to_rad, rad_to_deg};
use hypatia_util::constants::EARTH_RADIUS_KM;
use hypatia_util::Vec3;

/// Elevation angle (degrees above the local horizon) at which a ground
/// station at ECEF position `gs` sees a satellite at ECEF position `sat`.
///
/// Negative values mean the satellite is below the horizon. Defined by the
/// angle between the GS→satellite vector and the local horizontal plane
/// (whose normal is the GS zenith direction).
pub fn elevation_deg(gs: Vec3, sat: Vec3) -> f64 {
    let zenith = gs.normalized();
    let to_sat = sat - gs;
    let range = to_sat.norm();
    assert!(range > 0.0, "satellite coincides with ground station");
    rad_to_deg((zenith.dot(to_sat) / range).clamp(-1.0, 1.0).asin())
}

/// Azimuth (degrees clockwise from true north) at which `gs` sees `sat`.
/// Paper Fig. 12's ground-observer view plots azimuth (0° = N, 90° = E)
/// against elevation.
pub fn azimuth_deg(gs: Vec3, sat: Vec3) -> f64 {
    let zenith = gs.normalized();
    // Local east: ẑ_earth × zenith (undefined at the poles; fall back to x̂).
    let earth_z = Vec3::new(0.0, 0.0, 1.0);
    let east_raw = earth_z.cross(zenith);
    let east =
        if east_raw.norm() < 1e-9 { Vec3::new(1.0, 0.0, 0.0) } else { east_raw.normalized() };
    let north = zenith.cross(east);
    let to_sat = sat - gs;
    let e = to_sat.dot(east);
    let n = to_sat.dot(north);
    hypatia_util::angle::wrap_360(rad_to_deg(e.atan2(n)))
}

/// Straight-line (slant) range from GS to satellite, km.
pub fn slant_range_km(gs: Vec3, sat: Vec3) -> f64 {
    gs.distance(sat)
}

/// True if the satellite is visible above `min_elevation_deg`.
pub fn is_visible(gs: Vec3, sat: Vec3, min_elevation_deg: f64) -> bool {
    elevation_deg(gs, sat) >= min_elevation_deg
}

/// Maximum slant range at which a satellite at altitude `h_km` can be seen
/// at elevation ≥ `min_elevation_deg` from the surface:
///
/// `d = sqrt((R+h)² − R² cos² l) − R sin l`
///
/// This closed form (law of cosines in the GS–satellite–geocenter triangle)
/// lets GSL candidate search prune by distance before computing angles.
pub fn max_gsl_range_km(h_km: f64, min_elevation_deg: f64) -> f64 {
    max_gsl_range_from_radii_km(EARTH_RADIUS_KM, EARTH_RADIUS_KM + h_km, min_elevation_deg)
}

/// Generalized maximum slant range for a ground station at geocentric
/// radius `gs_radius_km` and a satellite at geocentric radius
/// `sat_radius_km`:
///
/// `d = sqrt(r_sat² − (r_gs cos l)²) − r_gs sin l`
///
/// The range **grows as the ground station sits closer to the geocenter**
/// (Earth's oblateness pulls high-latitude stations ~16 km inward), so a
/// bound intended to *prune* candidates must be evaluated with the polar
/// radius — see [`conservative_max_gsl_range_km`].
pub fn max_gsl_range_from_radii_km(
    gs_radius_km: f64,
    sat_radius_km: f64,
    min_elevation_deg: f64,
) -> f64 {
    assert!(sat_radius_km > gs_radius_km, "satellite below the ground station");
    assert!(
        (0.0..=90.0).contains(&min_elevation_deg),
        "elevation must be in [0, 90]: {min_elevation_deg}"
    );
    let l = deg_to_rad(min_elevation_deg);
    (sat_radius_km.powi(2) - (gs_radius_km * l.cos()).powi(2)).sqrt() - gs_radius_km * l.sin()
}

/// Upper bound on the GSL slant range valid for *any* ground station on
/// the WGS72 ellipsoid (uses the polar radius, where the range is
/// longest). Safe for candidate pruning; the exact elevation test decides.
pub fn conservative_max_gsl_range_km(h_km: f64, min_elevation_deg: f64) -> f64 {
    let polar_radius =
        EARTH_RADIUS_KM * (1.0 - 1.0 / hypatia_util::constants::EARTH_INV_FLATTENING);
    max_gsl_range_from_radii_km(polar_radius, EARTH_RADIUS_KM + h_km, min_elevation_deg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frames::{geodetic_to_ecef, GeodeticPos};
    use hypatia_util::rng::DetRng;

    fn gs_at(lat: f64, lon: f64) -> Vec3 {
        geodetic_to_ecef(GeodeticPos::surface(lat, lon))
    }

    fn sat_above(lat: f64, lon: f64, h: f64) -> Vec3 {
        geodetic_to_ecef(GeodeticPos { latitude_deg: lat, longitude_deg: lon, altitude_km: h })
    }

    #[test]
    fn overhead_satellite_is_at_90_degrees() {
        let gs = gs_at(10.0, 20.0);
        let sat = sat_above(10.0, 20.0, 550.0);
        assert!((elevation_deg(gs, sat) - 90.0).abs() < 1e-6);
    }

    #[test]
    fn antipodal_satellite_is_below_horizon() {
        let gs = gs_at(0.0, 0.0);
        let sat = sat_above(0.0, 180.0, 550.0);
        assert!(elevation_deg(gs, sat) < -80.0);
    }

    #[test]
    fn elevation_decreases_with_ground_distance() {
        let gs = gs_at(0.0, 0.0);
        let e1 = elevation_deg(gs, sat_above(0.0, 2.0, 550.0));
        let e2 = elevation_deg(gs, sat_above(0.0, 8.0, 550.0));
        let e3 = elevation_deg(gs, sat_above(0.0, 15.0, 550.0));
        assert!(e1 > e2 && e2 > e3, "{e1} {e2} {e3}");
    }

    #[test]
    fn max_range_at_90_degrees_is_altitude() {
        assert!((max_gsl_range_km(550.0, 90.0) - 550.0).abs() < 1e-9);
    }

    #[test]
    fn max_range_grows_as_elevation_shrinks() {
        let d25 = max_gsl_range_km(550.0, 25.0);
        let d10 = max_gsl_range_km(550.0, 10.0);
        let d0 = max_gsl_range_km(550.0, 0.0);
        assert!(d0 > d10 && d10 > d25 && d25 > 550.0, "{d0} {d10} {d25}");
        // Known values: at h=550 km, l=25° → ~1123 km; l=0° → ~2704 km.
        assert!((d25 - 1123.0).abs() < 15.0, "d25 {d25}");
        assert!((d0 - 2704.0).abs() < 20.0, "d0 {d0}");
    }

    #[test]
    fn visibility_threshold_consistent_with_closed_form() {
        // A satellite exactly at the max range must sit at ~the min elevation.
        let gs = gs_at(0.0, 0.0);
        let h = 630.0;
        let l = 30.0;
        // Sweep longitudes to find the boundary by both predicates; they
        // must flip at the same point.
        let mut last_visible = true;
        for tenth_deg in 1..200 {
            let lon = tenth_deg as f64 * 0.1;
            let sat = sat_above(0.0, lon, h);
            let by_angle = is_visible(gs, sat, l);
            let by_range = slant_range_km(gs, sat) <= max_gsl_range_km(h, l);
            assert_eq!(by_angle, by_range, "disagree at lon {lon}");
            if !last_visible {
                assert!(!by_angle, "visibility not monotone in ground distance");
            }
            last_visible = by_angle;
        }
        assert!(!last_visible, "satellite 20° away should be out of range");
    }

    #[test]
    fn azimuth_cardinal_directions() {
        let gs = gs_at(0.0, 0.0);
        // Satellite to the north (higher latitude): azimuth ≈ 0°.
        let n = azimuth_deg(gs, sat_above(5.0, 0.0, 550.0));
        assert!(!(1.0..=359.0).contains(&n), "north az {n}");
        // East (greater longitude): ≈ 90°.
        let e = azimuth_deg(gs, sat_above(0.0, 5.0, 550.0));
        assert!((e - 90.0).abs() < 1.0, "east az {e}");
        // South: ≈ 180°.
        let s = azimuth_deg(gs, sat_above(-5.0, 0.0, 550.0));
        assert!((s - 180.0).abs() < 1.0, "south az {s}");
        // West: ≈ 270°.
        let w = azimuth_deg(gs, sat_above(0.0, -5.0, 550.0));
        assert!((w - 270.0).abs() < 1.0, "west az {w}");
    }

    /// A ground station and a satellite, latitudes in [-80, 80), longitudes
    /// in [-180, 180), the satellite at `altitude_km`.
    fn random_geometry(rng: &mut DetRng, altitude_km: f64) -> (Vec3, Vec3) {
        let gs = gs_at(rng.next_in(-80.0, 80.0), rng.next_in(-180.0, 180.0));
        let sat = sat_above(rng.next_in(-80.0, 80.0), rng.next_in(-180.0, 180.0), altitude_km);
        (gs, sat)
    }

    #[test]
    fn elevation_in_valid_range() {
        for seed in 0..256 {
            let mut rng = DetRng::new(seed);
            let h = rng.next_in(300.0, 2000.0);
            let (gs, sat) = random_geometry(&mut rng, h);
            let e = elevation_deg(gs, sat);
            assert!((-90.0..=90.0).contains(&e), "seed {seed}: elevation {e}");
        }
    }

    #[test]
    fn azimuth_in_valid_range() {
        for seed in 0..256 {
            let (gs, sat) = random_geometry(&mut DetRng::new(seed), 550.0);
            let a = azimuth_deg(gs, sat);
            assert!((0.0..360.0).contains(&a), "seed {seed}: azimuth {a}");
        }
    }
}
