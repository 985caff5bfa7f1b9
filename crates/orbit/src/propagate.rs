//! Orbit propagation: elements → inertial position/velocity at time `t`.
//!
//! Two fidelity levels, selectable per [`Propagator`]:
//!
//! * **Two-body Kepler** — exact for an ideal point-mass Earth. For the
//!   circular shells of Table 1 this is the dominant term.
//! * **Kepler + J2 secular** — adds the secular drift of the node (Ω̇),
//!   perigee (ω̇) and mean anomaly (Ṁ correction) caused by Earth's
//!   oblateness. This captures the physically meaningful part of SGP4 for
//!   near-circular LEO over simulation horizons of hours. The paper's own
//!   mobility model "adds a 1–3 km error per day", which it deems safely
//!   ignorable for runs under a few hours; our J2 model is well inside
//!   that envelope relative to full SGP4.

use crate::kepler::{solve_kepler, true_anomaly, true_anomaly_from_roots, KeplerianElements};
use hypatia_util::constants::{EARTH_J2, EARTH_RADIUS_KM};
use hypatia_util::{SimTime, Vec3};

/// Perturbation model applied on top of two-body motion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PerturbationModel {
    /// Pure two-body Keplerian motion.
    TwoBody,
    /// Two-body plus J2 secular rates (node regression, apsidal rotation,
    /// mean-motion correction).
    #[default]
    J2Secular,
}

/// Inertial-frame state of a satellite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrbitState {
    /// Position in the ECI frame, km.
    pub position_km: Vec3,
    /// Velocity in the ECI frame, km/s.
    pub velocity_km_per_s: Vec3,
}

/// A propagator binds elements (at epoch t = 0) to a perturbation model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Propagator {
    /// Elements at the simulation epoch.
    pub elements: KeplerianElements,
    /// Which perturbations to apply.
    pub model: PerturbationModel,
}

impl Propagator {
    /// A two-body propagator.
    pub fn two_body(elements: KeplerianElements) -> Self {
        Propagator { elements, model: PerturbationModel::TwoBody }
    }

    /// A J2-secular propagator (default fidelity).
    pub fn j2(elements: KeplerianElements) -> Self {
        Propagator { elements, model: PerturbationModel::J2Secular }
    }

    /// J2 secular rates `(Ω̇, ω̇, Ṁ_corr)` in rad/s.
    fn j2_rates(&self) -> (f64, f64, f64) {
        let el = &self.elements;
        let n = el.mean_motion_rad_per_s();
        let p = el.semi_latus_rectum_km();
        let factor = 1.5 * EARTH_J2 * (EARTH_RADIUS_KM / p).powi(2) * n;
        let cos_i = el.inclination_rad.cos();
        let raan_dot = -factor * cos_i;
        let argp_dot = factor * (2.0 - 2.5 * el.inclination_rad.sin().powi(2));
        let sqrt_1_e2 = (1.0 - el.eccentricity * el.eccentricity).sqrt();
        let m_dot_corr = factor * sqrt_1_e2 * (1.0 - 1.5 * el.inclination_rad.sin().powi(2));
        (raan_dot, argp_dot, m_dot_corr)
    }

    /// Elements advanced to time `t` (secular drift applied; anomaly updated).
    pub fn elements_at(&self, t: SimTime) -> KeplerianElements {
        let dt = t.secs_f64();
        let el = self.elements;
        let n = el.mean_motion_rad_per_s();
        let (raan_dot, argp_dot, m_dot_corr) = match self.model {
            PerturbationModel::TwoBody => (0.0, 0.0, 0.0),
            PerturbationModel::J2Secular => self.j2_rates(),
        };
        KeplerianElements {
            raan_rad: hypatia_util::angle::wrap_two_pi(el.raan_rad + raan_dot * dt),
            arg_perigee_rad: hypatia_util::angle::wrap_two_pi(el.arg_perigee_rad + argp_dot * dt),
            mean_anomaly_rad: hypatia_util::angle::wrap_two_pi(
                el.mean_anomaly_rad + (n + m_dot_corr) * dt,
            ),
            ..el
        }
    }

    /// ECI state at simulation time `t`.
    pub fn state_at(&self, t: SimTime) -> OrbitState {
        let el = self.elements_at(t);
        let e = el.eccentricity;
        let e_anom = solve_kepler(el.mean_anomaly_rad, e);
        let nu = true_anomaly(e_anom, e);
        let p = el.semi_latus_rectum_km();
        let r = p / (1.0 + e * nu.cos());

        // Perifocal frame: x towards perigee, z along angular momentum.
        let pos_pf = Vec3::new(r * nu.cos(), r * nu.sin(), 0.0);
        let mu = hypatia_util::constants::EARTH_MU_KM3_PER_S2;
        let h = (mu * p).sqrt();
        let vel_pf = Vec3::new(-(mu / h) * nu.sin(), (mu / h) * (e + nu.cos()), 0.0);

        // Perifocal → ECI: Rz(Ω) Rx(i) Rz(ω).
        let rot = |v: Vec3| {
            v.rotate_z(el.arg_perigee_rad).rotate_x(el.inclination_rad).rotate_z(el.raan_rad)
        };
        OrbitState { position_km: rot(pos_pf), velocity_km_per_s: rot(vel_pf) }
    }

    /// ECI position only (the common hot path).
    pub fn position_at(&self, t: SimTime) -> Vec3 {
        self.state_at(t).position_km
    }

    /// Everything [`Propagator::position_at`] derives from `(a, e, i)` and
    /// the model alone, computed once (see [`PositionKernel`]).
    pub fn position_kernel(&self) -> PositionKernel {
        let el = &self.elements;
        let (raan_dot, argp_dot, m_dot_corr) = match self.model {
            PerturbationModel::TwoBody => (0.0, 0.0, 0.0),
            PerturbationModel::J2Secular => self.j2_rates(),
        };
        let (sin_i, cos_i) = el.inclination_rad.sin_cos();
        PositionKernel {
            semi_major_axis_km: el.semi_major_axis_km,
            eccentricity: el.eccentricity,
            inclination_rad: el.inclination_rad,
            raan_dot,
            argp_dot,
            mean_anomaly_dot: el.mean_motion_rad_per_s() + m_dot_corr,
            semi_latus_rectum_km: el.semi_latus_rectum_km(),
            sqrt_one_plus_e: (1.0 + el.eccentricity).sqrt(),
            sqrt_one_minus_e: (1.0 - el.eccentricity).sqrt(),
            sin_i,
            cos_i,
        }
    }
}

/// The time-invariant terms of propagation, which depend only on the
/// orbit's shape `(a, e, i)` and the perturbation model: secular rates,
/// mean motion, semi-latus rectum, `√(1±e)`, `sin i` / `cos i`. Every
/// satellite of a shell shares one, so a constellation builds a handful of
/// these instead of paying `powi`/`sqrt`/`sin`/`cos` of constants on every
/// position query (routing snapshots make one per satellite per step, the
/// packet simulator's ephemeris five per satellite per window).
///
/// [`PositionKernel::position_at`] evaluates the same floating-point
/// expressions in the same order as [`Propagator::state_at`] — the
/// reference it is tested against — so the two agree to the last bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PositionKernel {
    semi_major_axis_km: f64,
    eccentricity: f64,
    inclination_rad: f64,
    raan_dot: f64,
    argp_dot: f64,
    /// Mean motion plus its J2 correction, rad/s.
    mean_anomaly_dot: f64,
    semi_latus_rectum_km: f64,
    sqrt_one_plus_e: f64,
    sqrt_one_minus_e: f64,
    sin_i: f64,
    cos_i: f64,
}

impl PositionKernel {
    /// Do `elements` have the orbit shape this kernel was built from?
    pub fn fits(&self, elements: &KeplerianElements) -> bool {
        self.semi_major_axis_km == elements.semi_major_axis_km
            && self.eccentricity == elements.eccentricity
            && self.inclination_rad == elements.inclination_rad
    }

    /// ECI position at simulation time `t`, km, of the satellite whose
    /// epoch angles (Ω, ω, M₀) are `elements`' — which must
    /// [fit](Self::fits) this kernel. Bit-identical to
    /// [`Propagator::position_at`] on those elements under the kernel's
    /// model.
    pub fn position_at(&self, elements: &KeplerianElements, t: SimTime) -> Vec3 {
        use hypatia_util::angle::wrap_two_pi;
        debug_assert!(self.fits(elements), "kernel built for a different orbit shape");
        let dt = t.secs_f64();
        let raan = wrap_two_pi(elements.raan_rad + self.raan_dot * dt);
        let argp = wrap_two_pi(elements.arg_perigee_rad + self.argp_dot * dt);
        let mean_anomaly = wrap_two_pi(elements.mean_anomaly_rad + self.mean_anomaly_dot * dt);
        let e = self.eccentricity;
        let nu = true_anomaly_from_roots(
            solve_kepler(mean_anomaly, e),
            self.sqrt_one_plus_e,
            self.sqrt_one_minus_e,
        );
        let r = self.semi_latus_rectum_km / (1.0 + e * nu.cos());
        // Perifocal → ECI, Rz(Ω) Rx(i) Rz(ω), with Rx written out so it can
        // use the stored sin i / cos i.
        let v = Vec3::new(r * nu.cos(), r * nu.sin(), 0.0).rotate_z(argp);
        let v = Vec3::new(
            v.x,
            self.cos_i * v.y - self.sin_i * v.z,
            self.sin_i * v.y + self.cos_i * v.z,
        );
        v.rotate_z(raan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypatia_util::constants::{circular_orbit_velocity_km_per_s, EARTH_RADIUS_KM};
    use hypatia_util::rng::DetRng;
    use hypatia_util::SimDuration;

    fn starlink_sat() -> KeplerianElements {
        KeplerianElements::circular(550.0, 53.0, 30.0, 45.0)
    }

    #[test]
    fn circular_radius_is_constant() {
        let prop = Propagator::two_body(starlink_sat());
        for s in [0u64, 60, 600, 3000] {
            let r = prop.position_at(SimTime::from_secs(s)).norm();
            assert!((r - (EARTH_RADIUS_KM + 550.0)).abs() < 1e-6, "r = {r} at t = {s}");
        }
    }

    #[test]
    fn velocity_magnitude_matches_circular_formula() {
        let prop = Propagator::two_body(starlink_sat());
        let v = prop.state_at(SimTime::from_secs(100)).velocity_km_per_s.norm();
        assert!((v - circular_orbit_velocity_km_per_s(550.0)).abs() < 1e-9, "v = {v}");
    }

    #[test]
    fn returns_to_start_after_one_period() {
        let el = starlink_sat();
        let prop = Propagator::two_body(el);
        let t_period = SimTime::from_secs_f64(el.period_s());
        let p0 = prop.position_at(SimTime::ZERO);
        let p1 = prop.position_at(t_period);
        assert!(p0.distance(p1) < 1e-3, "drift {} km", p0.distance(p1));
    }

    #[test]
    fn j2_node_regresses_for_prograde_orbit() {
        // Prograde (i < 90°) orbits regress: Ω decreases.
        let prop = Propagator::j2(starlink_sat());
        let el_later = prop.elements_at(SimTime::from_secs(3600));
        // Ω̇ ≈ -5°/day for Starlink-like shells → about -0.2° in an hour.
        let drift = hypatia_util::angle::wrap_pi(el_later.raan_rad - prop.elements.raan_rad);
        assert!(drift < 0.0, "expected node regression, got {drift}");
        assert!(drift > -0.02, "implausibly large drift {drift}");
    }

    #[test]
    fn j2_node_advances_for_retrograde_orbit() {
        // Telesat T1's i = 98.98° > 90° (sun-synchronous-like): Ω̇ > 0.
        let el = KeplerianElements::circular(1015.0, 98.98, 0.0, 0.0);
        let prop = Propagator::j2(el);
        let el_later = prop.elements_at(SimTime::from_secs(3600));
        let drift = hypatia_util::angle::wrap_pi(el_later.raan_rad - el.raan_rad);
        assert!(drift > 0.0, "expected node advance, got {drift}");
    }

    #[test]
    fn j2_and_two_body_agree_at_epoch() {
        let el = starlink_sat();
        let a = Propagator::two_body(el).position_at(SimTime::ZERO);
        let b = Propagator::j2(el).position_at(SimTime::ZERO);
        assert!(a.distance(b) < 1e-9);
    }

    #[test]
    fn j2_two_body_divergence_is_small_over_200s() {
        // Over a 200 s experiment (the paper's standard horizon), J2 vs
        // two-body differ by well under a kilometre — supporting the claim
        // that propagator fidelity does not drive the networking results.
        let el = starlink_sat();
        let t = SimTime::from_secs(200);
        let a = Propagator::two_body(el).position_at(t);
        let b = Propagator::j2(el).position_at(t);
        assert!(a.distance(b) < 1.0, "divergence {} km", a.distance(b));
    }

    #[test]
    fn inclination_bounds_z_extent() {
        // A satellite can never exceed |z| = a sin(i).
        let el = starlink_sat();
        let prop = Propagator::j2(el);
        let max_z = el.semi_major_axis_km * el.inclination_rad.sin();
        let mut t = SimTime::ZERO;
        for _ in 0..600 {
            let z = prop.position_at(t).z.abs();
            assert!(z <= max_z + 1e-6);
            t += SimDuration::from_secs(10);
        }
    }

    /// The kernel is the reference with its constants hoisted, not an
    /// approximation of it: identical bits over random elements and times,
    /// under both perturbation models, circular and eccentric — and one
    /// kernel serves every satellite of its orbit shape, whatever its
    /// plane and phase.
    #[test]
    fn position_kernel_matches_state_at_bit_for_bit() {
        let mut rng = hypatia_util::rng::DetRng::new(0x6b65_726e);
        for case in 0..400 {
            let mut el = KeplerianElements::circular(
                400.0 + 1200.0 * rng.next_f64(),
                110.0 * rng.next_f64(),
                360.0 * rng.next_f64(),
                360.0 * rng.next_f64(),
            );
            if case % 2 == 1 {
                el.eccentricity = 0.3 * rng.next_f64();
                el.arg_perigee_rad = std::f64::consts::TAU * rng.next_f64();
            }
            let sibling = KeplerianElements {
                raan_rad: std::f64::consts::TAU * rng.next_f64(),
                mean_anomaly_rad: std::f64::consts::TAU * rng.next_f64(),
                ..el
            };
            for model in [PerturbationModel::TwoBody, PerturbationModel::J2Secular] {
                let kernel = Propagator { elements: el, model }.position_kernel();
                assert!(kernel.fits(&sibling));
                for elements in [el, sibling] {
                    let prop = Propagator { elements, model };
                    for _ in 0..8 {
                        let t = SimTime::from_nanos(rng.next_below(20_000_000_000_000));
                        let (want, got) = (prop.position_at(t), kernel.position_at(&elements, t));
                        assert_eq!(
                            [want.x.to_bits(), want.y.to_bits(), want.z.to_bits()],
                            [got.x.to_bits(), got.y.to_bits(), got.z.to_bits()],
                            "case {case} at {t:?}: {want:?} vs {got:?} ({prop:?})"
                        );
                    }
                }
            }
        }
    }

    /// Energy (vis-viva) is conserved along a two-body trajectory.
    #[test]
    fn vis_viva_holds() {
        for seed in 0..256 {
            let mut rng = DetRng::new(seed);
            let el = KeplerianElements::circular(
                rng.next_in(400.0, 1500.0),
                rng.next_in(0.0, 100.0),
                rng.next_in(0.0, 360.0),
                rng.next_in(0.0, 360.0),
            );
            let t = SimTime::from_secs_f64(rng.next_in(0.0, 6000.0));
            let st = Propagator::two_body(el).state_at(t);
            let mu = hypatia_util::constants::EARTH_MU_KM3_PER_S2;
            let energy = st.velocity_km_per_s.norm_sq() / 2.0 - mu / st.position_km.norm();
            let expect = -mu / (2.0 * el.semi_major_axis_km);
            assert!((energy - expect).abs() < 1e-6, "seed {seed}: {energy} vs {expect}");
        }
    }

    /// Angular momentum direction stays normal to the orbital plane.
    #[test]
    fn angular_momentum_fixed() {
        for seed in 0..256 {
            let mut rng = DetRng::new(seed);
            let (h, i) = (rng.next_in(400.0, 1500.0), rng.next_in(1.0, 99.0));
            let prop = Propagator::two_body(KeplerianElements::circular(h, i, 42.0, 7.0));
            let st0 = prop.state_at(SimTime::ZERO);
            let st1 = prop.state_at(SimTime::from_secs_f64(rng.next_in(0.0, 6000.0)));
            let h0 = st0.position_km.cross(st0.velocity_km_per_s);
            let h1 = st1.position_km.cross(st1.velocity_km_per_s);
            assert!(h0.distance(h1) / h0.norm() < 1e-9, "seed {seed}: {h0:?} vs {h1:?}");
        }
    }
}
