//! A windowed satellite ephemeris: per-packet propagation delay without
//! per-packet orbit trigonometry, exact to the nanosecond.
//!
//! The packet simulator takes every hop's delay from live geometry at the
//! transmit instant. Done literally that is
//! `propagation_delay_km(distance_km(a, b, t))` — two Kepler+J2
//! propagations and an Earth rotation per transmitted packet, more than
//! half the engine's wall time. An [`Ephemeris`] answers the same question
//! from a per-satellite cubic that is fitted once per window of simulated
//! time, and returns **the same `SimDuration`, bit for bit**, as the exact
//! expression for every `(a, b, t)`, whatever it happens to hold. That
//! invariance is the design: the cache is invisible to results, so it is
//! not checkpointed, not exchanged between shards, and nothing selects
//! between it and the exact path.
//!
//! # Mechanism
//!
//! Simulated time is cut into absolutely aligned windows of [`WINDOW_NS`].
//! On the first touch of a satellite inside a window its track fits a
//! cubic per ECEF coordinate through four exact
//! [`Constellation::node_position_ecef`] samples, at the window's `0`, `¼`,
//! `¾` and `1`, and checks it against a fifth exact sample at `½` — where
//! the node polynomial `s(s−¼)(s−¾)(s−1)`, and with it a cubic's
//! interpolation error, peaks. A fit that misses the fifth sample by more
//! than [`FIT_TOLERANCE_KM`] is rejected and its window is served exactly.
//! Ground stations are fixed ECEF points and need no track.
//!
//! [`Ephemeris::delay`] turns the interpolated distance into nanoseconds
//! with a **rounding filter**: the exact path rounds `d/c·1e9` to the
//! nearest integer, so the interpolated `d` yields the same integer unless
//! the two values straddle a `.5` boundary. When the interpolated value
//! lies within [`GUARD_NS`] of one, the delay is recomputed exactly;
//! otherwise it is rounded as is.
//!
//! # Error budget
//!
//! Bit-identity needs `|ns_interpolated − ns_exact| < GUARD_NS` = 10⁻³ ns,
//! i.e. a distance error under `c · 10⁻¹² s` ≈ 3.0·10⁻⁷ km (0.3 mm), i.e.
//! under 1.5·10⁻⁷ km per endpoint. What an accepted track is off by:
//!
//! * **Interpolation**: a LEO satellite's fourth time derivative is
//!   `r·ω⁴` ≈ 7000 km · (1.1·10⁻³ rad/s)⁴ ≈ 10⁻⁸ km/s⁴; times
//!   `max|s(s−¼)(s−¾)(s−1)| · W⁴ / 4!` = `(1/64)(0.134 s)⁴/24` it is
//!   ≈ 2·10⁻¹⁵ km — below one ulp of a 7000 km coordinate (9·10⁻¹³ km).
//! * **Rounding**: the exact positions are themselves only reproducible to
//!   about `r · ulp(n·t)`, which grows with `t`, and the fit inherits its
//!   four samples' noise times the nodes' Lebesgue constant (< 2).
//!   Measured against the exact position
//!   (`position_error_is_far_below_the_fit_tolerance`): ≤ 2·10⁻¹¹ km
//!   within a 200 s run, ≤ 3·10⁻¹⁰ km a day in.
//!
//! So the real error is 10⁴× under the guard in a run of the paper's
//! length and 500× under it a day in, and the fifth-sample check bounds
//! whatever else might go wrong (a high-eccentricity perigee pass, a future
//! propagator with short-period terms): a residual under
//! [`FIT_TOLERANCE_KM`] = 10⁻⁸ km at the error polynomial's peak keeps
//! both endpoints' sum 7× under the guard. Past [`HORIZON_NS`] (≈ 13
//! days) the exact positions' own rounding noise (≈ 4·10⁻⁹ km there)
//! approaches the tolerance and a fit could pass its single check by luck,
//! so no fit is attempted and every window is served exactly.

use crate::constellation::{Constellation, NodeId};
use hypatia_orbit::geodesy::propagation_delay_km;
use hypatia_util::constants::C_VACUUM_KM_PER_S;
use hypatia_util::{SimDuration, SimTime, Vec3};

/// log2 of the window length in nanoseconds.
const WINDOW_SHIFT: u32 = 27;

/// Length of one ephemeris window: 2²⁷ ns ≈ 134 ms. Long enough that a
/// fit (five exact positions) is shared by the ~100 packets a busy
/// 10 Mbit/s device sends in it, short enough that a cubic's error is
/// below f64 resolution (see the module's error budget).
pub const WINDOW_NS: u64 = 1 << WINDOW_SHIFT;

/// Largest distance, km, between a fitted cubic and the exact position at
/// the window's midpoint for the fit to be used.
pub const FIT_TOLERANCE_KM: f64 = 1e-8;

/// Half-width, in nanoseconds, of the band around a `.5` rounding boundary
/// inside which an interpolated delay is recomputed exactly.
pub const GUARD_NS: f64 = 1e-3;

/// No window ending after this instant (2⁵⁰ ns ≈ 13 days) is fitted.
pub const HORIZON_NS: u64 = 1 << 50;

/// Window index of a track that was never fitted (no `t` maps to it: the
/// largest real index is `u64::MAX >> WINDOW_SHIFT`).
const NO_WINDOW: u64 = u64::MAX;

/// How an [`Ephemeris`] served its queries — run telemetry for the
/// manifest's `perf.engine.ephemeris` block, never a simulation
/// observable: the counts depend on how nodes are sharded and restart at a
/// resume. Delays asked inside a rejected window are served exactly and
/// counted by neither `interpolated` nor `exact_guard`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EphemerisStats {
    /// Windows fitted (five exact positions each), accepted or not.
    pub fits: u64,
    /// Fits that failed the fifth-sample check, or lay past the horizon.
    pub rejected_fits: u64,
    /// Delays rounded from interpolated positions.
    pub interpolated: u64,
    /// Delays recomputed exactly because the interpolated value fell
    /// inside the guard band of a rounding boundary.
    pub exact_guard: u64,
}

impl EphemerisStats {
    /// Fold in another ephemeris' counts (shards, or successive
    /// simulations of one run): everything adds up.
    pub fn merge(&mut self, other: &EphemerisStats) {
        self.fits += other.fits;
        self.rejected_fits += other.rejected_fits;
        self.interpolated += other.interpolated;
        self.exact_guard += other.exact_guard;
    }
}

/// One satellite's cubic over one window.
#[derive(Debug, Clone, Copy)]
struct Track {
    /// Index of the window the coefficients cover.
    window: u64,
    /// Did the fit pass the fifth-sample check? If not, this window is
    /// served exactly.
    accepted: bool,
    /// Newton-form coefficients on the nodes `0, ¼, ¾` of the window's
    /// normalized time `s ∈ [0, 1)`; see [`Track::position`].
    coef: [Vec3; 4],
}

impl Track {
    const UNFITTED: Track = Track { window: NO_WINDOW, accepted: false, coef: [Vec3::ZERO; 4] };

    /// Fit `window` (of `1 << shift` ns) for `node` from exact positions.
    fn fit(constellation: &Constellation, node: NodeId, window: u64, shift: u32) -> Track {
        let (start, quarter) = (window << shift, 1u64 << (shift - 2));
        if start.saturating_add(4 * quarter) > HORIZON_NS {
            return Track { window, ..Track::UNFITTED };
        }
        let exact = |quarters: u64| {
            constellation.node_position_ecef(node, SimTime::from_nanos(start + quarters * quarter))
        };
        // Divided differences on the nodes s = 0, ¼, ¾, 1.
        let (p0, p1, p2, p3) = (exact(0), exact(1), exact(3), exact(4));
        let (f01, f12, f23) = ((p1 - p0) / 0.25, (p2 - p1) / 0.5, (p3 - p2) / 0.25);
        let (f012, f123) = ((f12 - f01) / 0.75, (f23 - f12) / 0.75);
        let fitted = Track { window, accepted: true, coef: [p0, f01, f012, f123 - f012] };
        let accepted = fitted.position(0.5).distance(exact(2)) <= FIT_TOLERANCE_KM;
        Track { accepted, ..fitted }
    }

    /// The cubic at normalized window time `s`, nested like Horner's rule.
    fn position(&self, s: f64) -> Vec3 {
        let [c0, c1, c2, c3] = self.coef;
        c0 + (c1 + (c2 + c3 * (s - 0.75)) * (s - 0.25)) * s
    }
}

/// Per-satellite position cache serving bit-exact propagation delays; see
/// the [module documentation](self).
#[derive(Debug, Clone)]
pub struct Ephemeris {
    tracks: Vec<Track>,
    /// log2 of the window length; [`WINDOW_SHIFT`] outside tests.
    shift: u32,
    stats: EphemerisStats,
}

impl Ephemeris {
    /// An empty ephemeris for `constellation`'s satellites (≈ 110 bytes
    /// each); tracks are fitted on first touch.
    pub fn new(constellation: &Constellation) -> Ephemeris {
        Ephemeris::with_window_shift(constellation, WINDOW_SHIFT)
    }

    fn with_window_shift(constellation: &Constellation, shift: u32) -> Ephemeris {
        assert!((2..64).contains(&shift), "window must split into quarters");
        Ephemeris {
            tracks: vec![Track::UNFITTED; constellation.num_satellites()],
            shift,
            stats: EphemerisStats::default(),
        }
    }

    /// Query counts so far.
    pub fn stats(&self) -> EphemerisStats {
        self.stats
    }

    /// One-way propagation delay between `a` and `b` at time `t`: the same
    /// `SimDuration` as `propagation_delay_km(constellation.distance_km(a,
    /// b, t))`, whatever the cache holds. `constellation` must be the one
    /// this ephemeris was sized for.
    pub fn delay(
        &mut self,
        constellation: &Constellation,
        a: NodeId,
        b: NodeId,
        t: SimTime,
    ) -> SimDuration {
        let (window, s) = self.locate(t);
        if let (Some(pa), Some(pb)) =
            (self.position(constellation, a, window, s), self.position(constellation, b, window, s))
        {
            // The expression `propagation_delay_km` rounds, unrounded.
            let ns = pa.distance(pb) / C_VACUUM_KM_PER_S * 1e9;
            if (ns - ns.floor() - 0.5).abs() >= GUARD_NS {
                self.stats.interpolated += 1;
                return SimDuration::from_nanos(ns.round() as u64);
            }
            self.stats.exact_guard += 1;
        }
        propagation_delay_km(constellation.distance_km(a, b, t))
    }

    /// The window `t` falls in, and `t`'s normalized time `s ∈ [0, 1)` in it
    /// (exact: the offset has at most `shift` bits, the divisor is 2^shift).
    fn locate(&self, t: SimTime) -> (u64, f64) {
        let window = t.nanos() >> self.shift;
        let offset = t.nanos() - (window << self.shift);
        (window, offset as f64 / (1u64 << self.shift) as f64)
    }

    /// ECEF position of `node` at normalized time `s` of `window`, or
    /// `None` when the satellite's fit for that window was rejected.
    fn position(
        &mut self,
        constellation: &Constellation,
        node: NodeId,
        window: u64,
        s: f64,
    ) -> Option<Vec3> {
        if !constellation.is_satellite(node) {
            // Fixed in ECEF: any instant will do.
            return Some(constellation.node_position_ecef(node, SimTime::ZERO));
        }
        let track = &mut self.tracks[node.index()];
        if track.window != window {
            *track = Track::fit(constellation, node, window, self.shift);
            self.stats.fits += 1;
            self.stats.rejected_fits += u64::from(!track.accepted);
        }
        track.accepted.then(|| track.position(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::GroundStation;
    use crate::gsl::GslConfig;
    use crate::isl::IslLayout;
    use crate::presets;
    use crate::shell::ShellSpec;
    use hypatia_util::rng::DetRng;

    fn exact(c: &Constellation, a: NodeId, b: NodeId, t: SimTime) -> SimDuration {
        propagation_delay_km(c.distance_km(a, b, t))
    }

    fn cities(n: usize) -> Vec<GroundStation> {
        crate::ground::top_cities(n)
    }

    /// Two shells at e ≈ 0.02 with different perigees: the orbit shape the
    /// presets never produce (they are all circular).
    fn eccentric() -> Constellation {
        let shells = vec![
            ShellSpec::new("lo", 600.0, 8, 9, 53.0),
            ShellSpec::new("polar", 1100.0, 5, 7, 97.6),
        ];
        let mut c = Constellation::build(
            "eccentric",
            shells,
            IslLayout::PlusGrid,
            cities(12),
            GslConfig::new(25.0),
        );
        c.set_shell_eccentricity(0, 0.02, 1.1);
        c.set_shell_eccentricity(1, 0.017, 4.0);
        c
    }

    /// Every ISL, plus every ground station against a spread of satellites
    /// (visible or not: the delay of a pair is geometry, not reachability).
    fn links(c: &Constellation) -> Vec<(NodeId, NodeId)> {
        let mut links: Vec<_> = c.isls.iter().map(|&(a, b)| (NodeId(a), NodeId(b))).collect();
        let n_sats = c.num_satellites();
        for g in 0..c.num_ground_stations() {
            for k in 0..16 {
                let sat = c.sat_node((g * 131 + k * 977) % n_sats);
                // Both directions: up- and down-link take the same path
                // through `delay`, with the endpoints swapped.
                links.push(if k % 2 == 0 { (c.gs_node(g), sat) } else { (sat, c.gs_node(g)) });
            }
        }
        links
    }

    /// A seeded instant from one of the regimes the engine produces: the
    /// paper's 0–200 s runs, the same a day (or eleven) later, and the
    /// window edges `k·W`, `k·W ± 1 ns`.
    fn sample_time(rng: &mut DetRng) -> SimTime {
        const RUN_NS: u64 = 200_000_000_000;
        const DAY_NS: u64 = 86_400_000_000_000;
        let t = match rng.next_below(8) {
            0..=3 => rng.next_below(RUN_NS),
            4 => DAY_NS + rng.next_below(RUN_NS),
            5 => 11 * DAY_NS + rng.next_below(RUN_NS),
            _ => {
                let edge = (1 + rng.next_below(RUN_NS / WINDOW_NS)) * WINDOW_NS;
                edge + rng.next_below(3) - 1
            }
        };
        SimTime::from_nanos(t)
    }

    /// `Ephemeris::delay` against the exact expression on `samples` seeded
    /// `(link, t)` draws per constellation, in time order within batches
    /// (the engine's access pattern: many links per window) and with every
    /// eighth draw out of order (a window refitted backwards).
    fn differential(samples: usize) {
        let gs = || cities(20);
        let constellations = [
            presets::telesat_t1(gs()),
            presets::kuiper_k1(gs()),
            presets::starlink_s1(gs()),
            eccentric(),
        ];
        let mut total = EphemerisStats::default();
        for (ci, c) in constellations.iter().enumerate() {
            let links = links(c);
            let mut rng = DetRng::new(0x6570_6865 + ci as u64);
            let mut eph = Ephemeris::new(c);
            let mut done = 0;
            while done < samples {
                let base = sample_time(&mut rng);
                // A batch inside one window's neighbourhood, so tracks are
                // reused as they are in a run.
                for i in 0..64 {
                    let t = if i % 8 == 7 {
                        sample_time(&mut rng)
                    } else {
                        SimTime::from_nanos(base.nanos() + rng.next_below(2 * WINDOW_NS))
                    };
                    let (a, b) = links[rng.next_below(links.len() as u64) as usize];
                    assert_eq!(
                        eph.delay(c, a, b, t),
                        exact(c, a, b, t),
                        "{}: {a}-{b} at {t:?}",
                        c.name
                    );
                    done += 1;
                }
            }
            let s = eph.stats();
            assert_eq!(s.rejected_fits, 0, "{}: {s:?}", c.name);
            total.merge(&s);
        }
        // The fast path is what was tested: nearly every delay interpolated,
        // a guard band's share (2·GUARD_NS of each nanosecond) not.
        let served = total.interpolated + total.exact_guard;
        assert_eq!(served as usize, constellations.len() * samples.div_ceil(64) * 64);
        assert!(total.exact_guard * 100 < served, "{total:?}");
        if samples >= 100_000 {
            assert!(total.exact_guard > 0, "guard never hit in {served} samples: {total:?}");
        }
    }

    #[test]
    fn delay_matches_the_exact_expression_on_a_million_samples() {
        differential(250_000);
    }

    /// The exhaustive variant `scripts/check.sh` runs in release mode.
    #[test]
    #[ignore = "10^7 samples: run with --release -- --ignored (scripts/check.sh does)"]
    fn delay_matches_the_exact_expression_on_ten_million_samples() {
        differential(2_500_000);
    }

    /// `t = 0` for every packet is the `freeze_at_epoch` configuration.
    #[test]
    fn delay_at_the_epoch_is_exact_for_every_link() {
        for c in [presets::kuiper_k1(cities(20)), eccentric()] {
            let mut eph = Ephemeris::new(&c);
            for (a, b) in links(&c) {
                assert_eq!(eph.delay(&c, a, b, SimTime::ZERO), exact(&c, a, b, SimTime::ZERO));
            }
            assert_eq!(eph.stats().rejected_fits, 0);
        }
    }

    #[test]
    fn position_error_is_far_below_the_fit_tolerance() {
        const DAY_NS: u64 = 86_400_000_000_000;
        let mut rng = DetRng::new(0x706f_7365);
        // (offset, pinned bound in km): the exact positions' own rounding
        // noise, which the fit inherits, grows with `t`.
        for (offset, bound) in [(0, 5e-11), (DAY_NS, 5e-10)] {
            for c in [presets::starlink_s1(Vec::new()), eccentric()] {
                let mut eph = Ephemeris::new(&c);
                let mut worst = 0.0f64;
                for _ in 0..10_000 {
                    let t = SimTime::from_nanos(offset + rng.next_below(200_000_000_000));
                    let node = c.sat_node(rng.next_below(c.num_satellites() as u64) as usize);
                    let (window, s) = eph.locate(t);
                    let got = eph.position(&c, node, window, s).expect("fit accepted");
                    worst = worst.max(got.distance(c.node_position_ecef(node, t)));
                }
                assert!(worst < bound, "{} +{offset} ns: {worst:e} km", c.name);
            }
            // Even a day in: 20x under the tolerance the fifth sample is
            // held to, 300x under the guard band's 1.5e-7 km per endpoint.
            assert!(bound <= FIT_TOLERANCE_KM / 20.0);
        }
    }

    /// Find a transmit instant whose exact delay sits on a `.5` boundary
    /// (bisecting the distance's drift), and check it takes the guard path
    /// and still returns the exact delay — as do its neighbours on either
    /// side of the boundary.
    #[test]
    fn near_half_delays_take_the_guard_path() {
        let c = presets::kuiper_k1(cities(4));
        let unrounded =
            |a, b, t: u64| c.distance_km(a, b, SimTime::from_nanos(t)) / C_VACUUM_KM_PER_S * 1e9;
        let mut hits = 0;
        for &(a, b) in c.isls.iter().step_by(97) {
            let (a, b) = (NodeId(a), NodeId(b));
            // Inter-plane distances drift by many ns per ms; find a
            // bracket of some `n + 0.5` inside one window, then bisect.
            let (mut lo, mut hi) = (5 * WINDOW_NS + 1000, 5 * WINDOW_NS + 50_000_000);
            let (v_lo, v_hi) = (unrounded(a, b, lo), unrounded(a, b, hi));
            if (v_lo - v_hi).abs() < 2.0 {
                continue; // intra-plane: the distance barely moves
            }
            let boundary = v_lo.min(v_hi).floor() + 1.5;
            let rising = v_hi > v_lo;
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if (unrounded(a, b, mid) < boundary) == rising {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            // Per nanosecond of transmit time the delay moves ~1e-6 ns, so
            // `lo` and `hi` are both deep inside the 1e-3 ns guard band.
            for t in [lo, hi] {
                assert!((unrounded(a, b, t) - boundary).abs() < GUARD_NS / 10.0);
                let t = SimTime::from_nanos(t);
                let mut eph = Ephemeris::new(&c);
                assert_eq!(eph.delay(&c, a, b, t), exact(&c, a, b, t));
                let s = eph.stats();
                assert_eq!((s.fits, s.interpolated, s.exact_guard), (2, 0, 1), "{a}-{b} {t:?}");
                hits += 1;
            }
            // A microsecond-scale step away the filter lets go again.
            let mut eph = Ephemeris::new(&c);
            let far = SimTime::from_nanos(lo + 20_000_000);
            assert_eq!(eph.delay(&c, a, b, far), exact(&c, a, b, far));
            assert_eq!(eph.stats().interpolated, 1);
        }
        assert!(hits >= 10, "only {hits} constructed guard cases");
    }

    /// The property resume and sharding rely on: a cold track, a warm one,
    /// and one fitted for another window (earlier or later) all return the
    /// same delay.
    #[test]
    fn delay_does_not_depend_on_cache_state() {
        let c = presets::kuiper_k1(cities(8));
        let links = links(&c);
        let mut rng = DetRng::new(0x7374_6174);
        let mut warm = Ephemeris::new(&c);
        for _ in 0..2_000 {
            let t = sample_time(&mut rng);
            let (a, b) = links[rng.next_below(links.len() as u64) as usize];
            let want = exact(&c, a, b, t);
            let cold = Ephemeris::new(&c).delay(&c, a, b, t);
            let first = warm.delay(&c, a, b, t);
            let fits = warm.stats().fits;
            let again = warm.delay(&c, a, b, t);
            assert_eq!(warm.stats().fits, fits, "second query refitted");
            let mut elsewhere = Ephemeris::new(&c);
            for other in [t.nanos() + 3 * WINDOW_NS, t.nanos().saturating_sub(WINDOW_NS)] {
                elsewhere.delay(&c, a, b, SimTime::from_nanos(other));
                assert_eq!(elsewhere.delay(&c, a, b, t), want);
            }
            assert_eq!([cold, first, again], [want; 3], "{a}-{b} at {t:?}");
        }
    }

    /// A cubic cannot follow a sixth of an orbit: with a test-only window
    /// of 2⁴⁰ ns (18 min) the fifth sample rejects every fit and the
    /// window is served exactly — as is any window past the horizon at the
    /// real length.
    #[test]
    fn a_bad_fit_is_rejected_and_its_window_served_exactly() {
        let c = eccentric();
        let links = links(&c);
        let mut rng = DetRng::new(0x6261_6466);
        let far = HORIZON_NS + 12_345;
        for (mut eph, offset) in
            [(Ephemeris::with_window_shift(&c, 40), 0), (Ephemeris::new(&c), far)]
        {
            for _ in 0..500 {
                let t = SimTime::from_nanos(offset + rng.next_below(1 << 40));
                let (a, b) = links[rng.next_below(links.len() as u64) as usize];
                assert_eq!(eph.delay(&c, a, b, t), exact(&c, a, b, t));
            }
            let s = eph.stats();
            assert!(s.fits > 0 && s.rejected_fits == s.fits, "{s:?}");
            assert_eq!((s.interpolated, s.exact_guard), (0, 0), "{s:?}");
        }
        // The same instants at the real window length are all accepted.
        let mut eph = Ephemeris::new(&c);
        for _ in 0..500 {
            let t = SimTime::from_nanos(rng.next_below(1 << 40));
            let (a, b) = links[rng.next_below(links.len() as u64) as usize];
            assert_eq!(eph.delay(&c, a, b, t), exact(&c, a, b, t));
        }
        assert_eq!(eph.stats().rejected_fits, 0);
    }
}
