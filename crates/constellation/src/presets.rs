//! Constellation presets from the paper's Table 1.
//!
//! Shell configurations for the first phase of Starlink, and for Kuiper and
//! Telesat, exactly as the paper tabulates them from FCC/ITU filings,
//! together with each operator's minimum angle of elevation (Starlink 25°,
//! Kuiper 30°, Telesat 10° — paper §2.2/§5.1).

use crate::constellation::Constellation;
use crate::ground::GroundStation;
use crate::gsl::GslConfig;
use crate::isl::IslLayout;
use crate::shell::ShellSpec;

/// Starlink's minimum elevation angle, degrees.
pub const STARLINK_MIN_ELEVATION_DEG: f64 = 25.0;
/// Kuiper's minimum elevation angle, degrees (FCC filing's "30" option).
pub const KUIPER_MIN_ELEVATION_DEG: f64 = 30.0;
/// Telesat's planned minimum elevation angle, degrees.
pub const TELESAT_MIN_ELEVATION_DEG: f64 = 10.0;

/// Starlink phase-1 shells S1–S5 (Table 1).
pub fn starlink_shells() -> Vec<ShellSpec> {
    vec![
        ShellSpec::new("S1", 550.0, 72, 22, 53.0),
        ShellSpec::new("S2", 1110.0, 32, 50, 53.8),
        ShellSpec::new("S3", 1130.0, 8, 50, 74.0),
        ShellSpec::new("S4", 1275.0, 5, 75, 81.0),
        ShellSpec::new("S5", 1325.0, 6, 75, 70.0),
    ]
}

/// Kuiper shells K1–K3 (Table 1).
pub fn kuiper_shells() -> Vec<ShellSpec> {
    vec![
        ShellSpec::new("K1", 630.0, 34, 34, 51.9),
        ShellSpec::new("K2", 610.0, 36, 36, 42.0),
        ShellSpec::new("K3", 590.0, 28, 28, 33.0),
    ]
}

/// Telesat shells T1–T2 (Table 1).
pub fn telesat_shells() -> Vec<ShellSpec> {
    vec![ShellSpec::new("T1", 1015.0, 27, 13, 98.98), ShellSpec::new("T2", 1325.0, 40, 33, 50.88)]
}

/// Starlink S1 only — the first planned deployment, used throughout §5.
pub fn starlink_s1(ground_stations: Vec<GroundStation>) -> Constellation {
    Constellation::build(
        "Starlink S1",
        vec![starlink_shells().remove(0)],
        IslLayout::PlusGrid,
        ground_stations,
        GslConfig::new(STARLINK_MIN_ELEVATION_DEG),
    )
}

/// Kuiper K1 only — the paper's workhorse constellation (§3.4, §4, §5).
pub fn kuiper_k1(ground_stations: Vec<GroundStation>) -> Constellation {
    Constellation::build(
        "Kuiper K1",
        vec![kuiper_shells().remove(0)],
        IslLayout::PlusGrid,
        ground_stations,
        GslConfig::new(KUIPER_MIN_ELEVATION_DEG),
    )
}

/// Telesat T1 only (§5).
pub fn telesat_t1(ground_stations: Vec<GroundStation>) -> Constellation {
    Constellation::build(
        "Telesat T1",
        vec![telesat_shells().remove(0)],
        IslLayout::PlusGrid,
        ground_stations,
        GslConfig::new(TELESAT_MIN_ELEVATION_DEG),
    )
}

/// Full Kuiper (all three shells).
pub fn kuiper_full(ground_stations: Vec<GroundStation>) -> Constellation {
    Constellation::build(
        "Kuiper",
        kuiper_shells(),
        IslLayout::PlusGrid,
        ground_stations,
        GslConfig::new(KUIPER_MIN_ELEVATION_DEG),
    )
}

/// Kuiper K1 without ISLs, for Appendix A's bent-pipe experiments.
pub fn kuiper_k1_bent_pipe(ground_stations: Vec<GroundStation>) -> Constellation {
    Constellation::build(
        "Kuiper K1 (bent-pipe)",
        vec![kuiper_shells().remove(0)],
        IslLayout::None,
        ground_stations,
        GslConfig::new(KUIPER_MIN_ELEVATION_DEG),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 1 totals: Starlink phase-1 has 4,409 satellites.
    #[test]
    fn starlink_phase1_totals() {
        let total: u32 = starlink_shells().iter().map(|s| s.num_satellites()).sum();
        assert_eq!(total, 4_409);
    }

    /// Kuiper plans 3,236 satellites across three shells.
    #[test]
    fn kuiper_totals() {
        let total: u32 = kuiper_shells().iter().map(|s| s.num_satellites()).sum();
        assert_eq!(total, 3_236);
    }

    /// Telesat's Table-1 shells: 27×13 + 40×33 = 1,671 satellites.
    #[test]
    fn telesat_totals() {
        let total: u32 = telesat_shells().iter().map(|s| s.num_satellites()).sum();
        assert_eq!(total, 1_671);
    }

    #[test]
    fn first_shells_match_table_one() {
        let s1 = &starlink_shells()[0];
        assert_eq!((s1.num_orbits, s1.sats_per_orbit), (72, 22));
        assert_eq!(s1.altitude_km, 550.0);
        assert_eq!(s1.inclination_deg, 53.0);

        let k1 = &kuiper_shells()[0];
        assert_eq!((k1.num_orbits, k1.sats_per_orbit), (34, 34));
        assert_eq!(k1.altitude_km, 630.0);
        assert_eq!(k1.inclination_deg, 51.9);

        let t1 = &telesat_shells()[0];
        assert_eq!((t1.num_orbits, t1.sats_per_orbit), (27, 13));
        assert_eq!(t1.altitude_km, 1015.0);
        assert_eq!(t1.inclination_deg, 98.98);
    }

    #[test]
    fn telesat_t1_fraction_of_fleet() {
        // Paper: "roughly a fifth of which will cover the higher latitudes".
        let t1 = telesat_shells()[0].num_satellites() as f64;
        let total = 1_671.0;
        assert!((t1 / total - 0.21).abs() < 0.03, "fraction {}", t1 / total);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn min_elevations_ordered_telesat_lowest() {
        assert!(TELESAT_MIN_ELEVATION_DEG < STARLINK_MIN_ELEVATION_DEG);
        assert!(STARLINK_MIN_ELEVATION_DEG < KUIPER_MIN_ELEVATION_DEG);
    }

    #[test]
    fn preset_constellations_build() {
        let gs = vec![GroundStation::new("X", 0.0, 0.0)];
        assert_eq!(starlink_s1(gs.clone()).num_satellites(), 1_584);
        assert_eq!(kuiper_k1(gs.clone()).num_satellites(), 1_156);
        assert_eq!(telesat_t1(gs.clone()).num_satellites(), 351);
        assert!(kuiper_k1_bent_pipe(gs).isls.is_empty());
    }

    #[test]
    #[ignore = "builds all 4409 Starlink satellites; run with --ignored"]
    fn full_starlink_builds() {
        let gs = vec![GroundStation::new("X", 0.0, 0.0)];
        let c = Constellation::build(
            "Starlink",
            starlink_shells(),
            IslLayout::PlusGrid,
            gs,
            GslConfig::new(STARLINK_MIN_ELEVATION_DEG),
        );
        assert_eq!(c.num_satellites(), 4_409);
        assert_eq!(c.isls.len(), 2 * 4_409);
    }
}
