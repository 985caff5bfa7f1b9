//! Ground–satellite link (GSL) configuration and visibility queries.
//!
//! Paper §3.1: each GS can be configured to connect to multiple satellites
//! or only its nearest; connectivity requires the satellite to be above the
//! operator's minimum elevation angle. Visibility search prunes by the
//! closed-form maximum slant range before computing elevations.

use crate::constellation::Constellation;
use hypatia_orbit::visibility::{conservative_max_gsl_range_km, elevation_deg, is_visible};
use hypatia_util::{SimTime, Vec3};

/// How many satellites a ground station may use simultaneously.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GslSelection {
    /// The GS may connect to every visible satellite (gateway-class GS with
    /// multiple parabolic antennas — the paper's default).
    #[default]
    AllVisible,
    /// The GS connects only to its nearest visible satellite (user-terminal
    /// style restriction).
    NearestOnly,
}

/// GSL parameters for a constellation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GslConfig {
    /// Minimum angle of elevation `l`, degrees (Table: Starlink 25°,
    /// Kuiper 30°, Telesat 10°).
    pub min_elevation_deg: f64,
    /// Satellite-selection policy.
    pub selection: GslSelection,
}

impl GslConfig {
    /// Config with the default (all-visible) selection.
    pub fn new(min_elevation_deg: f64) -> Self {
        assert!((0.0..=90.0).contains(&min_elevation_deg), "bad min elevation {min_elevation_deg}");
        GslConfig { min_elevation_deg, selection: GslSelection::default() }
    }

    /// Nearest-only variant.
    pub fn nearest_only(min_elevation_deg: f64) -> Self {
        GslConfig { selection: GslSelection::NearestOnly, ..GslConfig::new(min_elevation_deg) }
    }
}

/// A visible satellite as seen from a ground station.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VisibleSat {
    /// Satellite index (not NodeId — satellites are ids 0..N anyway).
    pub sat_idx: usize,
    /// Slant range, km.
    pub range_km: f64,
    /// Elevation, degrees.
    pub elevation_deg: f64,
}

/// All satellites visible from ECEF point `gs_pos` at time `t`, given the
/// pre-computed satellite position snapshot `sat_positions` (one entry per
/// satellite). Sorted by ascending range.
pub fn visible_satellites(
    constellation: &Constellation,
    gs_pos: Vec3,
    sat_positions: &[Vec3],
    t: SimTime,
) -> Vec<VisibleSat> {
    let mut out = Vec::new();
    visible_satellites_into(constellation, gs_pos, sat_positions, t, &mut out);
    out
}

/// As [`visible_satellites`], into `out` (cleared first), so that a
/// snapshot's hundred ground stations share one buffer.
pub fn visible_satellites_into(
    constellation: &Constellation,
    gs_pos: Vec3,
    sat_positions: &[Vec3],
    _t: SimTime,
    out: &mut Vec<VisibleSat>,
) {
    let min_el = constellation.gsl.min_elevation_deg;
    out.clear();
    // Satellites are shell-major, so each shell's are one run of positions.
    let mut first = 0;
    for shell in &constellation.shells {
        let count = (shell.num_orbits * shell.sats_per_orbit) as usize;
        // The range bound must hold for ground stations anywhere on the
        // ellipsoid (it grows as the station sits closer to the
        // geocenter), hence the conservative (polar-radius) form — the
        // exact elevation test makes the decision. A squared test looser
        // by a relative 10⁻⁶ (far beyond what rounding in the squares can
        // move) goes first, so `sqrt` and `asin` run only for satellites
        // the range test might keep; the range test itself is unchanged.
        let bound = conservative_max_gsl_range_km(shell.altitude_km, min_el) + 1e-9;
        let prune_sq = (bound * (1.0 + 1e-6)).powi(2);
        for (idx, &pos) in sat_positions.iter().enumerate().skip(first).take(count) {
            let range_sq = (gs_pos - pos).norm_sq();
            if range_sq > prune_sq {
                continue;
            }
            let range = range_sq.sqrt();
            if range > bound {
                continue;
            }
            let el = elevation_deg(gs_pos, pos);
            if el >= min_el {
                out.push(VisibleSat { sat_idx: idx, range_km: range, elevation_deg: el });
            }
        }
        first += count;
    }
    out.sort_by(|a, b| a.range_km.total_cmp(&b.range_km));
}

/// The satellites a GS may *use* under the configured selection policy,
/// into `out` (cleared first).
pub fn usable_satellites(
    constellation: &Constellation,
    gs_pos: Vec3,
    sat_positions: &[Vec3],
    t: SimTime,
    out: &mut Vec<VisibleSat>,
) {
    visible_satellites_into(constellation, gs_pos, sat_positions, t, out);
    if constellation.gsl.selection == GslSelection::NearestOnly {
        out.truncate(1);
    }
}

/// Check visibility of one specific satellite from one GS (for handoff and
/// forwarding-validity checks in the packet simulator).
pub fn gs_sees_sat(constellation: &Constellation, gs_pos: Vec3, sat_pos: Vec3) -> bool {
    is_visible(gs_pos, sat_pos, constellation.gsl.min_elevation_deg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::GroundStation;
    use crate::isl::IslLayout;
    use crate::presets;
    use crate::shell::ShellSpec;
    use hypatia_util::SimTime;

    fn kuiper_with(gs: Vec<GroundStation>) -> Constellation {
        presets::kuiper_k1(gs)
    }

    #[test]
    fn equatorial_gs_sees_satellites_in_k1() {
        let gs = GroundStation::new("Singapore", 1.3521, 103.8198);
        let c = kuiper_with(vec![gs.clone()]);
        let t = SimTime::ZERO;
        let sats = c.positions_at(t);
        let vis = visible_satellites(&c, gs.position_ecef(), &sats[..c.num_satellites()], t);
        assert!(!vis.is_empty(), "Singapore should see Kuiper satellites");
        // Ranges sorted ascending and all above min elevation.
        for w in vis.windows(2) {
            assert!(w[0].range_km <= w[1].range_km);
        }
        for v in &vis {
            assert!(v.elevation_deg >= 30.0);
            assert!(v.range_km >= 630.0 - 1.0, "range below altitude: {}", v.range_km);
        }
    }

    /// Regression: St. Petersburg's connectivity to K1 is a knife-edge case
    /// (the city sits ~0.2° inside the coverage edge only because the
    /// ellipsoid lowers it towards the geocenter). A spherical-Earth range
    /// prune silently discards exactly these marginal satellites.
    #[test]
    fn st_petersburg_sees_marginal_satellites() {
        let gs = GroundStation::new("Saint Petersburg", 59.9311, 30.3609);
        let c = kuiper_with(vec![gs.clone()]);
        let sats = c.positions_at(SimTime::ZERO);
        let vis =
            visible_satellites(&c, gs.position_ecef(), &sats[..c.num_satellites()], SimTime::ZERO);
        assert!(!vis.is_empty(), "St. Petersburg must see K1 at t=0 (Fig. 3a/12)");
        // And the prune must agree with the brute-force elevation scan.
        let brute = (0..c.num_satellites())
            .filter(|&i| elevation_deg(gs.position_ecef(), sats[i]) >= 30.0)
            .count();
        assert_eq!(vis.len(), brute);
    }

    #[test]
    fn polar_gs_sees_nothing_in_k1() {
        // K1's 51.9° inclination leaves the poles uncovered at l = 30°.
        let gs = GroundStation::new("NorthPole", 89.9, 0.0);
        let c = kuiper_with(vec![gs.clone()]);
        let t = SimTime::ZERO;
        let sats = c.positions_at(t);
        let vis = visible_satellites(&c, gs.position_ecef(), &sats[..c.num_satellites()], t);
        assert!(vis.is_empty(), "pole unexpectedly sees {} satellites", vis.len());
    }

    #[test]
    fn telesat_t1_covers_the_poles() {
        // T1's 98.98° inclination covers high latitudes (paper §2.2).
        let gs = GroundStation::new("NorthPole", 89.9, 0.0);
        let c = presets::telesat_t1(vec![gs.clone()]);
        let t = SimTime::ZERO;
        let sats = c.positions_at(t);
        let vis = visible_satellites(&c, gs.position_ecef(), &sats[..c.num_satellites()], t);
        assert!(!vis.is_empty(), "pole should see Telesat T1");
    }

    #[test]
    fn nearest_only_truncates() {
        let gs = GroundStation::new("Quito", -0.18, -78.47);
        let shell = ShellSpec::new("S", 630.0, 34, 34, 51.9);
        let c = Constellation::build(
            "NearTest",
            vec![shell],
            IslLayout::PlusGrid,
            vec![gs.clone()],
            GslConfig::nearest_only(30.0),
        );
        let t = SimTime::ZERO;
        let sats = c.positions_at(t);
        let mut usable = Vec::new();
        usable_satellites(&c, gs.position_ecef(), &sats[..c.num_satellites()], t, &mut usable);
        assert!(usable.len() <= 1);
        let all = visible_satellites(&c, gs.position_ecef(), &sats[..c.num_satellites()], t);
        if let Some(first) = usable.first() {
            assert_eq!(first.sat_idx, all[0].sat_idx, "nearest-only must pick the nearest");
        }
    }

    #[test]
    fn lower_min_elevation_sees_more() {
        // The paper's Telesat explanation: lower `l` → more visible
        // satellites → more path options.
        let gs = GroundStation::new("Nairobi", -1.2921, 36.8219);
        let shell = ShellSpec::new("X", 1015.0, 27, 13, 98.98);
        let t = SimTime::ZERO;
        let counts: Vec<usize> = [10.0, 30.0, 50.0]
            .iter()
            .map(|&l| {
                let c = Constellation::build(
                    "V",
                    vec![shell.clone()],
                    IslLayout::PlusGrid,
                    vec![gs.clone()],
                    GslConfig::new(l),
                );
                let sats = c.positions_at(t);
                visible_satellites(&c, gs.position_ecef(), &sats[..c.num_satellites()], t).len()
            })
            .collect();
        assert!(counts[0] >= counts[1] && counts[1] >= counts[2], "{counts:?}");
        assert!(counts[0] > counts[2], "visibility should strictly grow by l: {counts:?}");
    }

    /// `visible_satellites` before the squared-distance pre-prune: the
    /// oracle the pruned version must reproduce bit for bit.
    fn visible_satellites_oracle(
        constellation: &Constellation,
        gs_pos: Vec3,
        sat_positions: &[Vec3],
    ) -> Vec<VisibleSat> {
        let min_el = constellation.gsl.min_elevation_deg;
        let shell_max_range: Vec<f64> = constellation
            .shells
            .iter()
            .map(|s| conservative_max_gsl_range_km(s.altitude_km, min_el))
            .collect();
        let mut out = Vec::new();
        for (idx, (sat, &pos)) in
            constellation.satellites.iter().zip(sat_positions.iter()).enumerate()
        {
            let range = gs_pos.distance(pos);
            if range > shell_max_range[sat.shell] + 1e-9 {
                continue;
            }
            let el = elevation_deg(gs_pos, pos);
            if el >= min_el {
                out.push(VisibleSat { sat_idx: idx, range_km: range, elevation_deg: el });
            }
        }
        out.sort_by(|a, b| a.range_km.total_cmp(&b.range_km));
        out
    }

    /// Every GSL a snapshot builds comes from `visible_satellites`, so
    /// bit-equal lists mean bit-equal `DelayGraph`s: T1, K1 and S1, the
    /// 100 cities plus a knife-edge and a polar station, 200 instants.
    #[test]
    fn pre_pruned_visibility_is_bit_identical_to_the_oracle() {
        let mut cities = crate::ground::top_cities(100);
        cities.push(GroundStation::new("Saint Petersburg", 59.9311, 30.3609));
        cities.push(GroundStation::new("NorthPole", 89.9, 0.0));
        let mut rng = hypatia_util::rng::DetRng::new(0x9151);
        let instants: Vec<SimTime> =
            (0..200).map(|_| SimTime::from_millis(rng.next_below(6_000_000))).collect();
        for c in [
            presets::telesat_t1(cities.clone()),
            presets::kuiper_k1(cities.clone()),
            presets::starlink_s1(cities.clone()),
        ] {
            let n_sats = c.num_satellites();
            let (mut links, mut positions) = (0, Vec::new());
            for &t in &instants {
                c.positions_at_into(t, &mut positions);
                for gs in 0..c.num_ground_stations() {
                    let gs_pos = positions[n_sats + gs];
                    let fast = visible_satellites(&c, gs_pos, &positions[..n_sats], t);
                    let slow = visible_satellites_oracle(&c, gs_pos, &positions[..n_sats]);
                    let bits = |v: &[VisibleSat]| -> Vec<(usize, u64, u64)> {
                        v.iter()
                            .map(|s| (s.sat_idx, s.range_km.to_bits(), s.elevation_deg.to_bits()))
                            .collect()
                    };
                    assert_eq!(bits(&fast), bits(&slow), "{} gs {gs} t {t:?}", c.name);
                    links += fast.len();
                }
            }
            assert!(links > 200 * 100, "{}: only {links} GSLs", c.name);
        }
    }

    #[test]
    fn visibility_prune_agrees_with_direct_elevation() {
        // The range-based prune must never discard a satellite that the
        // elevation test would accept.
        let gs = GroundStation::new("Istanbul", 41.0082, 28.9784);
        let c = kuiper_with(vec![gs.clone()]);
        let t = SimTime::from_secs(60);
        let sats = c.positions_at(t);
        let fast = visible_satellites(&c, gs.position_ecef(), &sats[..c.num_satellites()], t);
        let slow: Vec<usize> = (0..c.num_satellites())
            .filter(|&i| elevation_deg(gs.position_ecef(), sats[i]) >= c.gsl.min_elevation_deg)
            .collect();
        let fast_ids: Vec<usize> = fast.iter().map(|v| v.sat_idx).collect();
        let mut fast_sorted = fast_ids.clone();
        fast_sorted.sort_unstable();
        assert_eq!(fast_sorted, slow);
    }
}
