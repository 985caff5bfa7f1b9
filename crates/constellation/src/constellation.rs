//! The assembled constellation: satellites, ground stations, node ids, and
//! positions over time.
//!
//! Node numbering follows the paper's simulator: satellites first (in shell
//! order, plane-major), then ground stations. Everything downstream — the
//! routing graph, the packet simulator, the visualizations — shares this
//! id space.

use crate::ground::GroundStation;
use crate::gsl::GslConfig;
use crate::isl::{build_isls, IslLayout};
use crate::shell::ShellSpec;
use hypatia_orbit::frames::EarthRotation;
use hypatia_orbit::propagate::{PerturbationModel, PositionKernel, Propagator};
use hypatia_orbit::tle::Tle;
use hypatia_util::{SimTime, Vec3};

/// Identifier of a node (satellite or ground station) in a constellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One satellite: its place in the constellation plus its propagator.
#[derive(Debug, Clone)]
pub struct Satellite {
    /// Index of the shell this satellite belongs to.
    pub shell: usize,
    /// Orbital plane within the shell.
    pub orbit: u32,
    /// Position within the plane.
    pub idx_in_orbit: u32,
    /// Propagator (elements at epoch + perturbation model).
    pub propagator: Propagator,
}

/// A complete constellation plus the ground segment.
#[derive(Debug, Clone)]
pub struct Constellation {
    /// Human-readable name ("Starlink", "Kuiper K1", ...).
    pub name: String,
    /// The shells making up the constellation.
    pub shells: Vec<ShellSpec>,
    /// All satellites, shell-major then plane-major.
    pub satellites: Vec<Satellite>,
    /// Undirected ISL pairs (satellite indices).
    pub isls: Vec<(u32, u32)>,
    /// Ground stations (ids follow the satellites).
    pub ground_stations: Vec<GroundStation>,
    /// GSL configuration (minimum elevation etc.).
    pub gsl: GslConfig,
    /// May ground stations forward traffic (act as relays)? `false` for
    /// ISL constellations — GSes are endpoints only; `true` for bent-pipe
    /// constellations whose long-haul connectivity goes up and down
    /// through ground relays (paper Appendix A).
    pub gs_relay: bool,
    /// Each shell's time-invariant propagation terms — its satellites
    /// share `(a, e, i)` and the model, and differ only in the epoch angles
    /// their own elements carry. Derived from `shells` at build (which is
    /// why `shells` and `satellites` are not edited afterwards):
    /// positioning a node is the simulator's per-packet cost.
    kernels: Vec<PositionKernel>,
    /// Each ground station's fixed ECEF position, derived from
    /// `ground_stations` at build.
    gs_ecef: Vec<Vec3>,
}

impl Constellation {
    /// Build a constellation from shells, an ISL layout, ground stations and
    /// a GSL configuration. Satellites use the J2 propagation model.
    pub fn build(
        name: impl Into<String>,
        shells: Vec<ShellSpec>,
        isl_layout: IslLayout,
        ground_stations: Vec<GroundStation>,
        gsl: GslConfig,
    ) -> Self {
        Self::build_with_model(
            name,
            shells,
            isl_layout,
            ground_stations,
            gsl,
            PerturbationModel::J2Secular,
        )
    }

    /// As [`Constellation::build`] but with an explicit perturbation model
    /// (two-body is useful for analytic tests).
    pub fn build_with_model(
        name: impl Into<String>,
        shells: Vec<ShellSpec>,
        isl_layout: IslLayout,
        ground_stations: Vec<GroundStation>,
        gsl: GslConfig,
        model: PerturbationModel,
    ) -> Self {
        assert!(!shells.is_empty(), "constellation needs at least one shell");
        let mut satellites = Vec::new();
        for (shell_idx, shell) in shells.iter().enumerate() {
            for orbit in 0..shell.num_orbits {
                for idx in 0..shell.sats_per_orbit {
                    let elements = shell.satellite_elements(orbit, idx);
                    satellites.push(Satellite {
                        shell: shell_idx,
                        orbit,
                        idx_in_orbit: idx,
                        propagator: Propagator { elements, model },
                    });
                }
            }
        }
        // Bent-pipe (ISL-less) constellations necessarily relay through
        // ground stations; +Grid constellations terminate at them.
        let gs_relay = matches!(isl_layout, IslLayout::None);
        let isls = build_isls(&shells, isl_layout);
        let kernels = shells
            .iter()
            .map(|shell| {
                Propagator { elements: shell.satellite_elements(0, 0), model }.position_kernel()
            })
            .collect();
        let gs_ecef = ground_stations.iter().map(GroundStation::position_ecef).collect();
        Constellation {
            name: name.into(),
            shells,
            satellites,
            isls,
            ground_stations,
            gsl,
            gs_relay,
            kernels,
            gs_ecef,
        }
    }

    /// Number of satellites.
    pub fn num_satellites(&self) -> usize {
        self.satellites.len()
    }

    /// Number of ground stations.
    pub fn num_ground_stations(&self) -> usize {
        self.ground_stations.len()
    }

    /// Total node count (satellites + ground stations).
    pub fn num_nodes(&self) -> usize {
        self.num_satellites() + self.num_ground_stations()
    }

    /// Node id of satellite `sat_idx`.
    pub fn sat_node(&self, sat_idx: usize) -> NodeId {
        assert!(sat_idx < self.num_satellites(), "satellite {sat_idx} out of range");
        NodeId(sat_idx as u32)
    }

    /// Node id of ground station `gs_idx`.
    pub fn gs_node(&self, gs_idx: usize) -> NodeId {
        assert!(gs_idx < self.num_ground_stations(), "ground station {gs_idx} out of range");
        NodeId((self.num_satellites() + gs_idx) as u32)
    }

    /// True if `node` is a satellite.
    pub fn is_satellite(&self, node: NodeId) -> bool {
        node.index() < self.num_satellites()
    }

    /// Ground-station index of a GS node. Panics for satellite nodes.
    pub fn gs_index(&self, node: NodeId) -> usize {
        assert!(!self.is_satellite(node), "{node} is a satellite");
        node.index() - self.num_satellites()
    }

    /// ECEF position of satellite `sat_idx` at time `t`, km.
    pub fn sat_position_ecef(&self, sat_idx: usize, t: SimTime) -> Vec3 {
        EarthRotation::at(t).eci_to_ecef(self.sat_position_eci(sat_idx, t))
    }

    fn sat_position_eci(&self, sat_idx: usize, t: SimTime) -> Vec3 {
        let sat = &self.satellites[sat_idx];
        self.kernels[sat.shell].position_at(&sat.propagator.elements, t)
    }

    /// ECEF position of any node at time `t`, km (GS positions are fixed).
    pub fn node_position_ecef(&self, node: NodeId, t: SimTime) -> Vec3 {
        if self.is_satellite(node) {
            self.sat_position_ecef(node.index(), t)
        } else {
            self.gs_ecef[self.gs_index(node)]
        }
    }

    /// [`Self::node_position_ecef`] with the instant's Earth rotation
    /// supplied, so several nodes at one `t` share it.
    fn node_position_under(&self, node: NodeId, t: SimTime, rotation: &EarthRotation) -> Vec3 {
        if self.is_satellite(node) {
            rotation.eci_to_ecef(self.sat_position_eci(node.index(), t))
        } else {
            self.gs_ecef[self.gs_index(node)]
        }
    }

    /// Snapshot of every node's ECEF position at `t` (satellites first).
    /// This is the hot input to graph construction; callers should reuse it
    /// across all queries for one time-step.
    pub fn positions_at(&self, t: SimTime) -> Vec<Vec3> {
        let mut out = Vec::with_capacity(self.num_nodes());
        self.positions_at_into(t, &mut out);
        out
    }

    /// As [`Self::positions_at`], but writing into a caller-owned buffer so
    /// per-time-step sweeps reuse one allocation across all steps.
    pub fn positions_at_into(&self, t: SimTime, out: &mut Vec<Vec3>) {
        out.clear();
        out.reserve(self.num_nodes());
        let rotation = EarthRotation::at(t);
        out.extend(
            (0..self.num_satellites()).map(|s| rotation.eci_to_ecef(self.sat_position_eci(s, t))),
        );
        out.extend_from_slice(&self.gs_ecef);
    }

    /// Distance between two nodes at time `t`, km.
    pub fn distance_km(&self, a: NodeId, b: NodeId, t: SimTime) -> f64 {
        let rotation = EarthRotation::at(t);
        self.node_position_under(a, t, &rotation)
            .distance(self.node_position_under(b, t, &rotation))
    }

    /// Give every satellite of `shell` an eccentric orbit (the builders
    /// only produce circular shells), keeping the shell's kernel in step.
    #[cfg(test)]
    pub(crate) fn set_shell_eccentricity(&mut self, shell: usize, e: f64, arg_perigee_rad: f64) {
        for sat in self.satellites.iter_mut().filter(|sat| sat.shell == shell) {
            sat.propagator.elements.eccentricity = e;
            sat.propagator.elements.arg_perigee_rad = arg_perigee_rad;
            self.kernels[shell] = sat.propagator.position_kernel();
        }
    }

    /// Generate the TLE set for the whole constellation (paper §3.1's
    /// "TLE generation" step), epoch at year `epoch_year`, day 1.0.
    pub fn generate_tles(&self, epoch_year: u8) -> Vec<Tle> {
        self.satellites
            .iter()
            .enumerate()
            .map(|(i, sat)| {
                let shell_name = &self.shells[sat.shell].name;
                Tle::from_elements(
                    format!("{}-{} {}", self.name.to_uppercase(), shell_name, i),
                    i as u32 + 1,
                    &sat.propagator.elements,
                    epoch_year,
                    1.0,
                )
            })
            .collect()
    }

    /// May `node` forward packets that are not addressed to it?
    pub fn may_transit(&self, node: NodeId) -> bool {
        self.is_satellite(node) || self.gs_relay
    }

    /// Find a ground station by (case-insensitive) name.
    pub fn find_gs(&self, name: &str) -> Option<usize> {
        let lower = name.to_lowercase();
        self.ground_stations.iter().position(|g| g.name.to_lowercase() == lower)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::GroundStation;
    use crate::presets;
    use hypatia_util::SimDuration;

    fn small() -> Constellation {
        let shell = ShellSpec::new("T", 550.0, 4, 5, 53.0);
        let gses = vec![GroundStation::new("A", 0.0, 0.0), GroundStation::new("B", 45.0, 90.0)];
        Constellation::build("Test", vec![shell], IslLayout::PlusGrid, gses, GslConfig::new(25.0))
    }

    #[test]
    fn node_id_layout() {
        let c = small();
        assert_eq!(c.num_satellites(), 20);
        assert_eq!(c.num_ground_stations(), 2);
        assert_eq!(c.num_nodes(), 22);
        assert_eq!(c.sat_node(0), NodeId(0));
        assert_eq!(c.gs_node(0), NodeId(20));
        assert!(c.is_satellite(NodeId(19)));
        assert!(!c.is_satellite(NodeId(20)));
        assert_eq!(c.gs_index(NodeId(21)), 1);
    }

    #[test]
    fn positions_snapshot_matches_individual_queries() {
        let c = small();
        let t = SimTime::from_secs(77);
        let snap = c.positions_at(t);
        assert_eq!(snap.len(), 22);
        for (i, p) in snap.iter().enumerate() {
            assert!(p.distance(c.node_position_ecef(NodeId(i as u32), t)) < 1e-12);
        }
    }

    /// The precomputed kernels and ground positions are the reference
    /// formulas with their constants hoisted: every position query returns
    /// the bits `Propagator::position_at` + `eci_to_ecef` (and
    /// `GroundStation::position_ecef`) would, under both perturbation
    /// models.
    #[test]
    fn positions_match_the_reference_formulas_bit_for_bit() {
        use hypatia_orbit::frames::eci_to_ecef;
        let bits = |v: Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
        let mut rng = hypatia_util::rng::DetRng::new(0x636f_6e73);
        for model in [PerturbationModel::TwoBody, PerturbationModel::J2Secular] {
            let shells = vec![
                ShellSpec::new("lo", 550.0, 6, 7, 53.0),
                ShellSpec::new("polar", 1015.0, 3, 5, 98.98),
            ];
            let gses = vec![GroundStation::new("A", 0.0, 0.0), GroundStation::new("B", 59.9, 30.3)];
            let c = Constellation::build_with_model(
                "ref",
                shells,
                IslLayout::PlusGrid,
                gses,
                GslConfig::new(25.0),
                model,
            );
            let reference = |node: NodeId, t: SimTime| {
                if c.is_satellite(node) {
                    eci_to_ecef(c.satellites[node.index()].propagator.position_at(t), t)
                } else {
                    c.ground_stations[c.gs_index(node)].position_ecef()
                }
            };
            for _ in 0..40 {
                let t = SimTime::from_nanos(rng.next_below(7_200_000_000_000));
                let snap = c.positions_at(t);
                for (i, p) in snap.iter().enumerate() {
                    let node = NodeId(i as u32);
                    assert_eq!(bits(*p), bits(reference(node, t)), "{model:?} {node} at {t:?}");
                    assert_eq!(bits(c.node_position_ecef(node, t)), bits(*p));
                }
                let n = c.num_nodes() as u64;
                for _ in 0..20 {
                    let a = NodeId(rng.next_below(n) as u32);
                    let b = NodeId(rng.next_below(n) as u32);
                    let want = reference(a, t).distance(reference(b, t));
                    assert_eq!(c.distance_km(a, b, t).to_bits(), want.to_bits(), "{a}-{b}");
                }
            }
        }
    }

    #[test]
    fn satellites_move_ground_stations_do_not() {
        let c = small();
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::from_secs(10);
        assert!(c.distance_km(c.sat_node(0), c.sat_node(0), t0) < 1e-12);
        let sat_moved = c.sat_position_ecef(0, t0).distance(c.sat_position_ecef(0, t1));
        assert!(sat_moved > 10.0, "satellite moved only {sat_moved} km in 10 s");
        let gs0 = c.node_position_ecef(c.gs_node(0), t0);
        let gs1 = c.node_position_ecef(c.gs_node(0), t1);
        assert!(gs0.distance(gs1) < 1e-12);
    }

    #[test]
    fn kuiper_k1_has_1156_satellites() {
        let c = presets::kuiper_k1(vec![GroundStation::new("X", 0.0, 0.0)]);
        assert_eq!(c.num_satellites(), 34 * 34);
    }

    #[test]
    fn tle_generation_covers_all_satellites() {
        let c = small();
        let tles = c.generate_tles(24);
        assert_eq!(tles.len(), 20);
        // Spot-check a round trip.
        let t5 = &tles[5];
        let parsed = Tle::parse(t5.name.clone(), &t5.format_line1(), &t5.format_line2()).unwrap();
        let orig = &c.satellites[5].propagator.elements;
        assert!(
            (parsed.to_elements().perigee_altitude_km() - orig.perigee_altitude_km()).abs() < 0.1
        );
    }

    #[test]
    fn find_gs_is_case_insensitive() {
        let c = small();
        assert_eq!(c.find_gs("a"), Some(0));
        assert_eq!(c.find_gs("B"), Some(1));
        assert_eq!(c.find_gs("zzz"), None);
    }

    #[test]
    #[should_panic]
    fn gs_index_of_satellite_panics() {
        small().gs_index(NodeId(0));
    }
}
