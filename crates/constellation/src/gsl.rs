//! Ground–satellite link (GSL) configuration and visibility queries.
//!
//! Paper §3.1: a GS connects to every satellite above the operator's
//! minimum elevation angle (the paper's gateway-class default). Visibility search prunes by the
//! closed-form maximum slant range before computing elevations.
//!
//! # Pruning by orbital plane
//!
//! The satellites of one orbital plane share its right ascension and
//! inclination, and the J2 model moves both at one rate per shell, so at
//! any instant they lie in one plane through the geocenter (the Earth's
//! rotation turns that plane but keeps it through the geocenter). A
//! station at distance `d` from that plane is at least `d` from each of
//! its satellites. When `d` exceeds the shell's conservative range bound
//! plus a margin (`PLANE_MARGIN_KM`, 1 km), no satellite of the plane can
//! pass the range test, so the whole plane is skipped before any
//! per-satellite arithmetic. The normal comes from two of the plane's
//! satellites about a quarter of the orbit apart, in the snapshot's own
//! positions, so a satellite lies off it by no more than rounding
//! (nanometres against the kilometre margin). Planes with fewer than
//! three satellites, or whose two samples are too close to collinear for
//! a well-conditioned normal, are scanned in full. The surviving planes
//! run the same tests in the same satellite order as a full scan, so
//! every visible list is the full scan's, bit for bit.

use crate::constellation::Constellation;
use hypatia_orbit::visibility::{conservative_max_gsl_range_km, elevation_deg};
use hypatia_util::{SimTime, Vec3};

/// GSL parameters for a constellation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GslConfig {
    /// Minimum angle of elevation `l`, degrees (Table: Starlink 25°,
    /// Kuiper 30°, Telesat 10°).
    pub min_elevation_deg: f64,
}

impl GslConfig {
    /// Config with minimum elevation `min_elevation_deg`.
    pub fn new(min_elevation_deg: f64) -> Self {
        assert!((0.0..=90.0).contains(&min_elevation_deg), "bad min elevation {min_elevation_deg}");
        GslConfig { min_elevation_deg }
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

/// How much farther than the shell's range bound a station must be from an
/// orbital plane before the plane is skipped (module doc), km. Rounding
/// moves a satellite off its plane's computed normal by nanometres; the
/// margin covers that a million times over.
const PLANE_MARGIN_KM: f64 = 1.0;

/// As [`visible_satellites`], into `out` (cleared first), so that a
/// snapshot's hundred ground stations share one buffer. Orbital planes
/// out of the station's reach are skipped whole (module doc).
pub fn visible_satellites_into(
    constellation: &Constellation,
    gs_pos: Vec3,
    sat_positions: &[Vec3],
    _t: SimTime,
    out: &mut Vec<VisibleSat>,
) {
    let min_el = constellation.gsl.min_elevation_deg;
    out.clear();
    // Satellites are shell-major, then plane-major, so each plane's are
    // one run of positions.
    let mut first = 0;
    for shell in &constellation.shells {
        let per_plane = shell.sats_per_orbit as usize;
        let count = shell.num_orbits as usize * per_plane;
        // The range bound must hold for ground stations anywhere on the
        // ellipsoid (it grows as the station sits closer to the
        // geocenter), hence the conservative (polar-radius) form — the
        // exact elevation test makes the decision. A squared test looser
        // by a relative 10⁻⁶ (far beyond what rounding in the squares can
        // move) goes first, so `sqrt` and `asin` run only for satellites
        // the range test might keep; the range test itself is unchanged.
        let bound = conservative_max_gsl_range_km(shell.altitude_km, min_el) + 1e-9;
        let prune_sq = (bound * (1.0 + 1e-6)).powi(2);
        let reach_sq = (bound + PLANE_MARGIN_KM).powi(2);
        let shell_positions = &sat_positions[first..first + count];
        for (plane_idx, plane) in shell_positions.chunks_exact(per_plane).enumerate() {
            if plane_out_of_reach(plane, gs_pos, reach_sq) {
                continue;
            }
            let plane_first = first + plane_idx * per_plane;
            for (idx, &pos) in (plane_first..).zip(plane) {
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
        }
        first += count;
    }
    out.sort_by(|a, b| a.range_km.total_cmp(&b.range_km));
}

/// Is `gs_pos` farther than `√reach_sq` km from the plane through the
/// geocenter that holds `plane`'s satellites? `false` whenever the plane
/// cannot be told from two of its satellites: fewer than three of them,
/// or two samples less than ≈ 6° from collinear.
fn plane_out_of_reach(plane: &[Vec3], gs_pos: Vec3, reach_sq: f64) -> bool {
    if plane.len() < 3 {
        return false;
    }
    // About a quarter of the orbit apart: 90° for a circular plane.
    let (a, b) = (plane[0], plane[(plane.len() + 2) / 4]);
    let normal = a.cross(b);
    let normal_sq = normal.norm_sq();
    // |a × b|² = |a|²|b|² sin²θ: require sin θ ≥ 0.1.
    if normal_sq < 0.01 * a.norm_sq() * b.norm_sq() {
        return false;
    }
    // Distance² to the plane is (n·g)² / |n|², compared without dividing.
    let along = normal.dot(gs_pos);
    along * along > reach_sq * normal_sq
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

    /// `visible_satellites` as a per-satellite scan, before the
    /// squared-distance pre-prune and the plane pruning: the oracle the
    /// pruned version must reproduce bit for bit.
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

    /// Plane pruning changes no visible list: T1, K1, S1 and the K1
    /// bent-pipe preset with 100 cities, an eccentric two-shell
    /// constellation, and one whose shells have one and two satellites per
    /// plane (scanned whole), each at 240 instants over its first shell's
    /// orbital period. Release-only (`scripts/check.sh`); it also fails if
    /// too few (station, plane) pairs of the benchmark's three shells are
    /// pruned (T1 prunes 64 %, K1 and S1 79–80 %), so a pruning that
    /// silently stops pruning shows here rather than as a slow snapshot.
    #[test]
    #[ignore = "release-only gate: run with --release -- --include-ignored"]
    fn plane_pruned_visibility_equals_the_full_scan() {
        let cities = crate::ground::top_cities(100);
        let mut eccentric = presets::kuiper_full(cities.clone());
        eccentric.set_shell_eccentricity(0, 0.03, 0.7);
        eccentric.set_shell_eccentricity(2, 0.015, 3.9);
        let sparse = Constellation::build(
            "sparse planes",
            vec![
                ShellSpec::new("pairs", 550.0, 40, 2, 53.0),
                ShellSpec::new("singles", 1100.0, 30, 1, 70.0),
                ShellSpec::new("triples", 800.0, 12, 3, 87.0),
            ],
            IslLayout::None,
            cities.clone(),
            GslConfig::new(20.0),
        );
        let cases = [
            (presets::telesat_t1(cities.clone()), Some(0.5)),
            (presets::kuiper_k1(cities.clone()), Some(0.7)),
            (presets::starlink_s1(cities.clone()), Some(0.7)),
            (presets::kuiper_k1_bent_pipe(cities.clone()), None),
            (eccentric, None),
            (sparse, None),
        ];
        let bits = |v: &[VisibleSat]| -> Vec<(usize, u64, u64)> {
            v.iter().map(|s| (s.sat_idx, s.range_km.to_bits(), s.elevation_deg.to_bits())).collect()
        };
        let mut rng = hypatia_util::rng::DetRng::new(0x706c_616e);
        for (c, min_pruned) in cases {
            let n_sats = c.num_satellites();
            let period_ns = (c.shells[0].period_s() * 1e9) as u64;
            let mut positions = Vec::new();
            let mut fast = Vec::new();
            let (mut links, mut planes, mut pruned) = (0, 0u64, 0u64);
            for k in 0..240u64 {
                // Evenly over one period, each instant jittered within its slot.
                let t = SimTime::from_nanos(k * period_ns / 240 + rng.next_below(period_ns / 240));
                c.positions_at_into(t, &mut positions);
                for gs in 0..c.num_ground_stations() {
                    let gs_pos = positions[n_sats + gs];
                    visible_satellites_into(&c, gs_pos, &positions[..n_sats], t, &mut fast);
                    let slow = visible_satellites_oracle(&c, gs_pos, &positions[..n_sats]);
                    assert_eq!(bits(&fast), bits(&slow), "{} gs {gs} at {t:?}", c.name);
                    links += fast.len();
                    let shell = &c.shells[0];
                    let bound =
                        conservative_max_gsl_range_km(shell.altitude_km, c.gsl.min_elevation_deg)
                            + 1e-9;
                    let reach_sq = (bound + PLANE_MARGIN_KM).powi(2);
                    let per_plane = shell.sats_per_orbit as usize;
                    let shell_len = shell.num_orbits as usize * per_plane;
                    for plane in positions[..shell_len].chunks_exact(per_plane) {
                        planes += 1;
                        pruned += u64::from(plane_out_of_reach(plane, gs_pos, reach_sq));
                    }
                }
            }
            assert!(links > 240 * 50, "{}: only {links} GSLs", c.name);
            let share = pruned as f64 / planes as f64;
            if let Some(min) = min_pruned {
                assert!(share >= min, "{}: only {share:.3} of the planes pruned", c.name);
            }
            if c.shells[0].sats_per_orbit < 3 {
                assert_eq!(pruned, 0, "{}: a plane of fewer than 3 satellites was pruned", c.name);
            }
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
