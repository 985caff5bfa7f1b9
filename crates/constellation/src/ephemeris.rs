//! A windowed link-delay ephemeris: per-packet propagation delay without
//! per-packet orbit trigonometry, exact to the nanosecond.
//!
//! The packet simulator takes every hop's delay from live geometry at the
//! transmit instant: `propagation_delay_km(distance_km(a, b, t))`, done
//! literally two Kepler+J2 propagations and an Earth rotation per packet.
//! An [`Ephemeris`] and one [`LinkFit`] memo per transmitter answer the
//! same question from a scalar cubic of the link's delay, fitted once per
//! window of simulated time, and return **the same `SimDuration`, bit for
//! bit**, for every `(a, b, t)`, whatever either of them holds. That
//! invariance is the design: the caches are invisible to results, so they
//! are not checkpointed, and nothing selects between them and the exact
//! path.
//!
//! # Mechanism
//!
//! Simulated time is cut into absolutely aligned windows of [`WINDOW_NS`].
//! On the first touch of a satellite inside a window the ephemeris takes
//! five exact [`Constellation::node_position_ecef`] samples of it, at the
//! window's `0`, `¼`, `½`, `¾` and `1` — four when the previous window's
//! last sample is this one's first. Ground stations are fixed ECEF points
//! and need no samples.
//!
//! A [`LinkFit`] holds one link's delay over one window: a cubic in the
//! window's normalized time through the delays of the sample distances at
//! `0`, `¼`, `¾` and `1`, checked against the exact distance at `½` —
//! where the node polynomial `s(s−¼)(s−¾)(s−1)`, and with it a cubic's
//! interpolation error, peaks. A fit that misses the midpoint by more than
//! [`FIT_TOLERANCE_KM`] is rejected and the link's window is served
//! exactly. [`Ephemeris::delay`] refits the memo when the query's window or
//! link differs from the one it holds — five distances from cached samples,
//! no orbit propagation — and otherwise evaluates one scalar cubic.
//!
//! The cubic's value becomes nanoseconds through a **rounding filter**: the
//! exact path rounds `d/c·1e9` to the nearest integer, so the interpolated
//! value yields the same integer unless the two straddle a `.5` boundary.
//! When the interpolated value lies within [`GUARD_NS`] of one, the delay
//! is recomputed exactly; otherwise it is rounded as is.
//!
//! # Error budget
//!
//! Bit-identity needs `|ns_interpolated − ns_exact| < GUARD_NS` = 10⁻³ ns,
//! i.e. a distance error under `c · 10⁻¹² s` ≈ 3.0·10⁻⁷ km (0.3 mm) for
//! the link as a whole. What an accepted fit is off by:
//!
//! * **Interpolation**: at most `max|s(s−¼)(s−¾)(s−1)| · W⁴ · |d⁗| / 4!`
//!   for a distance curve `d(t)`, with the first factor `1/64` and
//!   `W` = 0.134 s. A distance is least smooth at closest approach, where
//!   `|d⁗| ≤ 3v⁴/d_min³`: with a relative speed `v` ≤ 15 km/s and `d_min`
//!   ≥ 500 km that is ≈ 1.2·10⁻³ km/s⁴, an error of ≈ 2.5·10⁻¹⁰ km — 40×
//!   under the tolerance, 10³× under the guard.
//! * **Rounding**: the exact distances are themselves only reproducible to
//!   about `r · ulp(n·t)` per endpoint, which grows with `t`, and the fit
//!   inherits its four samples' noise times the nodes' Lebesgue constant
//!   (< 2). Measured on the presets
//!   (`link_fit_midpoint_residual_is_far_below_the_tolerance`): ≤ 1.1·10⁻¹¹
//!   km within a 200 s run, ≤ 2·10⁻¹⁰ km a day in.
//!
//! The midpoint check bounds whatever else might go wrong: a residual
//! under [`FIT_TOLERANCE_KM`] = 10⁻⁸ km at the error polynomial's peak
//! keeps the link 30× under the guard. It is not hypothetical: +Grid
//! neighbours in adjacent near-polar planes can pass within 50 km of each
//! other (the tests' eccentric set does, at ≈ 8 km/s), where the curvature
//! term reaches ≈ 2·10⁻⁸ km; those windows fail the check and are served
//! exactly, the ones beside them pass with ≤ 10⁻⁸ km. Past [`HORIZON_NS`]
//! (≈ 13 days) the exact positions' own rounding noise (≈ 4·10⁻⁹ km
//! there) approaches the tolerance and a fit could pass its single check
//! by luck, so no fit is attempted and every window is served exactly.

use crate::constellation::{Constellation, NodeId};
use hypatia_orbit::geodesy::propagation_delay_km;
use hypatia_util::constants::C_VACUUM_KM_PER_S;
use hypatia_util::{SimDuration, SimTime, Vec3};

/// log2 of the window length in nanoseconds.
const WINDOW_SHIFT: u32 = 27;

/// Length of one ephemeris window: 2²⁷ ns ≈ 134 ms. Long enough that a fit
/// serves the ~100 packets a busy 10 Mbit/s device sends in it, short
/// enough that a cubic's error is far below the guard band (see the
/// module's error budget).
pub const WINDOW_NS: u64 = 1 << WINDOW_SHIFT;

/// Largest distance, km, between a link's fitted cubic and the exact
/// distance at the window's midpoint for the fit to be used.
pub const FIT_TOLERANCE_KM: f64 = 1e-8;

/// Half-width, in nanoseconds, of the band around a `.5` rounding boundary
/// inside which an interpolated delay is recomputed exactly.
pub const GUARD_NS: f64 = 1e-3;

/// No window ending after this instant (2⁵⁰ ns ≈ 13 days) is fitted.
pub const HORIZON_NS: u64 = 1 << 50;

/// Window index of a track that holds nothing (no `t` maps to it: the
/// largest real index is `u64::MAX >> WINDOW_SHIFT`).
const NO_WINDOW: u64 = u64::MAX;

/// How an [`Ephemeris`] served its queries — run telemetry for the
/// manifest's `perf.engine.ephemeris` block, never a simulation
/// observable: the counts depend on what the caches held and restart at a
/// resume. Delays asked inside a rejected link fit are served exactly and
/// counted by neither `interpolated` nor `exact_guard`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EphemerisStats {
    /// Satellite windows sampled: five exact positions each, four when the
    /// previous window's last sample was reused.
    pub fits: u64,
    /// [`LinkFit`] memos (re)fitted from samples.
    pub link_fits: u64,
    /// Link fits that failed the midpoint check, or lay past the horizon.
    pub rejected_fits: u64,
    /// Delays rounded from a link's cubic.
    pub interpolated: u64,
    /// Delays recomputed exactly because the interpolated value fell
    /// inside the guard band of a rounding boundary.
    pub exact_guard: u64,
}

impl EphemerisStats {
    /// Fold in another ephemeris' counts (successive simulations of one
    /// run): everything adds up.
    pub fn merge(&mut self, other: &EphemerisStats) {
        self.fits += other.fits;
        self.link_fits += other.link_fits;
        self.rejected_fits += other.rejected_fits;
        self.interpolated += other.interpolated;
        self.exact_guard += other.exact_guard;
    }
}

/// One satellite's exact positions over one window.
#[derive(Debug, Clone, Copy)]
struct Track {
    /// Index of the window the samples cover.
    window: u64,
    /// ECEF positions at the window's normalized times 0, ¼, ½, ¾, 1.
    samples: [Vec3; 5],
}

/// A transmitter's memo of one link's delay over one window, refitted by
/// [`Ephemeris::delay`] whenever it is asked about another. Holds no
/// simulation state: whatever it contains, the delays returned are the
/// same (the default, a rejected fit of window 0 for a link from node 0
/// to itself, serves that one exactly and is refitted for any other).
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkFit {
    /// Index of the window the coefficients cover.
    window: u64,
    /// `(transmitter, peer)` node ids of the link they cover.
    link: (u32, u32),
    /// Did the fit pass the midpoint check? If not, this link's window is
    /// served exactly.
    accepted: bool,
    /// Newton-form coefficients of the delay in nanoseconds on the nodes
    /// `0, ¼, ¾` of the window's normalized time; see [`LinkFit::at`].
    coef: [f64; 4],
}

impl LinkFit {
    /// The cubic at normalized window time `s`, nested like Horner's rule.
    fn at(&self, s: f64) -> f64 {
        let [c0, c1, c2, c3] = self.coef;
        c0 + (c1 + (c2 + c3 * (s - 0.75)) * (s - 0.25)) * s
    }
}

/// Per-satellite sample cache serving bit-exact propagation delays through
/// per-transmitter [`LinkFit`] memos; see the [module documentation](self).
#[derive(Debug, Clone)]
pub struct Ephemeris {
    tracks: Vec<Track>,
    /// log2 of the window length; [`WINDOW_SHIFT`] outside tests.
    shift: u32,
    stats: EphemerisStats,
}

impl Ephemeris {
    /// An empty ephemeris for `constellation`'s satellites (128 bytes
    /// each); tracks are sampled on first touch.
    pub fn new(constellation: &Constellation) -> Ephemeris {
        Ephemeris::with_window_shift(constellation, WINDOW_SHIFT)
    }

    fn with_window_shift(constellation: &Constellation, shift: u32) -> Ephemeris {
        assert!((2..64).contains(&shift), "window must split into quarters");
        let unsampled = Track { window: NO_WINDOW, samples: [Vec3::ZERO; 5] };
        Ephemeris {
            tracks: vec![unsampled; constellation.num_satellites()],
            shift,
            stats: EphemerisStats::default(),
        }
    }

    /// Query counts so far.
    pub fn stats(&self) -> EphemerisStats {
        self.stats
    }

    /// One-way propagation delay from `a` to `b` at time `t`: the same
    /// `SimDuration` as `propagation_delay_km(constellation.distance_km(a,
    /// b, t))`, whatever `fit` and the cache hold. `fit` is refitted when it
    /// covers another link or window; `constellation` must be the one this
    /// ephemeris was sized for.
    pub fn delay(
        &mut self,
        fit: &mut LinkFit,
        constellation: &Constellation,
        a: NodeId,
        b: NodeId,
        t: SimTime,
    ) -> SimDuration {
        let (window, s) = self.locate(t);
        if fit.window != window || fit.link != (a.0, b.0) {
            *fit = self.fit(constellation, a, b, window);
        }
        if fit.accepted {
            // The expression `propagation_delay_km` rounds, unrounded.
            let ns = fit.at(s);
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

    /// Fit the delay from `a` to `b` over `window` from both ends' samples.
    fn fit(&mut self, constellation: &Constellation, a: NodeId, b: NodeId, window: u64) -> LinkFit {
        self.stats.link_fits += 1;
        let rejected = LinkFit { window, link: (a.0, b.0), ..LinkFit::default() };
        if (window << self.shift).saturating_add(1 << self.shift) > HORIZON_NS {
            self.stats.rejected_fits += 1;
            return rejected;
        }
        let (pa, pb) =
            (self.samples(constellation, a, window), self.samples(constellation, b, window));
        let ns: [f64; 5] = std::array::from_fn(|k| pa[k].distance(pb[k]) / C_VACUUM_KM_PER_S * 1e9);
        // Divided differences on the nodes s = 0, ¼, ¾, 1.
        let (f01, f12, f23) =
            ((ns[1] - ns[0]) / 0.25, (ns[3] - ns[1]) / 0.5, (ns[4] - ns[3]) / 0.25);
        let (f012, f123) = ((f12 - f01) / 0.75, (f23 - f12) / 0.75);
        let fitted = LinkFit { accepted: true, coef: [ns[0], f01, f012, f123 - f012], ..rejected };
        let residual_km = (fitted.at(0.5) - ns[2]).abs() / 1e9 * C_VACUUM_KM_PER_S;
        let accepted = residual_km <= FIT_TOLERANCE_KM;
        self.stats.rejected_fits += u64::from(!accepted);
        LinkFit { accepted, ..fitted }
    }

    /// The exact ECEF positions of `node` at the normalized times 0, ¼, ½,
    /// ¾, 1 of `window`, sampled on the first ask.
    fn samples(&mut self, constellation: &Constellation, node: NodeId, window: u64) -> [Vec3; 5] {
        if !constellation.is_satellite(node) {
            // Fixed in ECEF: any instant will do.
            return [constellation.node_position_ecef(node, SimTime::ZERO); 5];
        }
        let (start, quarter) = (window << self.shift, 1u64 << (self.shift - 2));
        let exact = |quarters: u64| {
            constellation.node_position_ecef(node, SimTime::from_nanos(start + quarters * quarter))
        };
        let track = &mut self.tracks[node.index()];
        if track.window != window {
            // The previous window's end is this window's start, to the bit.
            let first = if window.checked_sub(1) == Some(track.window) {
                track.samples[4]
            } else {
                exact(0)
            };
            *track = Track { window, samples: [first, exact(1), exact(2), exact(3), exact(4)] };
            self.stats.fits += 1;
        }
        track.samples
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

    const RUN_NS: u64 = 200_000_000_000;
    const DAY_NS: u64 = 86_400_000_000_000;

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

    fn pick<T: Copy>(rng: &mut DetRng, items: &[T]) -> T {
        items[rng.next_below(items.len() as u64) as usize]
    }

    /// A seeded instant from one of the regimes the engine produces: the
    /// paper's 0–200 s runs, the same a day (or eleven) later, and the
    /// window edges `k·W`, `k·W ± 1 ns`.
    fn sample_time(rng: &mut DetRng) -> SimTime {
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
    /// `(link, t)` draws per constellation, with the engine's memos: one
    /// per transmitting node, so a ground station's memo alternates among
    /// its eight peers. Each batch keeps four transmitters busy over two
    /// windows in time order, with every eighth draw out of order (a memo
    /// refitted backwards, or a day away).
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
            let mut peers = vec![Vec::new(); c.num_nodes()];
            for (a, b) in links(c) {
                peers[a.index()].push(b);
            }
            let transmitters: Vec<NodeId> = (0..c.num_nodes() as u32)
                .map(NodeId)
                .filter(|a| !peers[a.index()].is_empty())
                .collect();
            assert!(transmitters.iter().all(|&a| c.is_satellite(a) || peers[a.index()].len() >= 3));
            let mut memos = vec![LinkFit::default(); c.num_nodes()];
            let mut rng = DetRng::new(0x6570_6865 + ci as u64);
            let mut eph = Ephemeris::new(c);
            let mut done = 0;
            while done < samples {
                let base = sample_time(&mut rng).nanos();
                let busy: Vec<NodeId> = (0..4).map(|_| pick(&mut rng, &transmitters)).collect();
                let mut times: Vec<u64> =
                    (0..64).map(|_| base + rng.next_below(2 * WINDOW_NS)).collect();
                times.sort_unstable();
                for (i, &t) in times.iter().enumerate() {
                    let t = if i % 8 == 7 { sample_time(&mut rng) } else { SimTime::from_nanos(t) };
                    let a = pick(&mut rng, &busy);
                    let b = pick(&mut rng, &peers[a.index()]);
                    assert_eq!(
                        eph.delay(&mut memos[a.index()], c, a, b, t),
                        exact(c, a, b, t),
                        "{}: {a}-{b} at {t:?}",
                        c.name
                    );
                    done += 1;
                }
            }
            // Only the eccentric set's polar ISLs, whose neighbours pass
            // within 50 km of each other, ever fail the midpoint check.
            let s = eph.stats();
            let rejected_ppm = if ci == 3 { 1000 } else { 0 };
            assert!(s.rejected_fits * 1_000_000 <= s.link_fits * rejected_ppm, "{}: {s:?}", c.name);
            total.merge(&s);
        }
        // The fast path is what was tested: nearly every delay interpolated,
        // a guard band's share (2·GUARD_NS of each nanosecond) not; and
        // memos were reused as well as refitted.
        let served = total.interpolated + total.exact_guard;
        let asked = constellations.len() * samples.div_ceil(64) * 64;
        assert!(served as usize <= asked && served as usize * 1000 >= asked * 999, "{total:?}");
        assert!(total.exact_guard * 100 < served, "{total:?}");
        assert!(total.link_fits * 10 < served * 9 && total.link_fits * 10 > served, "{total:?}");
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
            let mut memos = vec![LinkFit::default(); c.num_nodes()];
            for (a, b) in links(&c) {
                let got = eph.delay(&mut memos[a.index()], &c, a, b, SimTime::ZERO);
                assert_eq!(got, exact(&c, a, b, SimTime::ZERO));
            }
            assert_eq!(eph.stats().rejected_fits, 0);
        }
    }

    /// How far an accepted link cubic is from the exact distance, in km, at
    /// the midpoint it was checked at and at a random instant. For the
    /// presets it is the exact distances' rounding noise, which the fit
    /// inherits and which grows with `t`; the eccentric set's polar ISL
    /// neighbours pass within 50 km of each other, where the curvature
    /// term reaches the tolerance and only the midpoint check bounds it.
    #[test]
    fn link_fit_midpoint_residual_is_far_below_the_tolerance() {
        let mut rng = DetRng::new(0x706f_7365);
        for (offset, bound) in [(0, 5e-11), (DAY_NS, 5e-10)] {
            let sets = [
                (presets::starlink_s1(cities(20)), bound),
                (presets::telesat_t1(cities(20)), bound),
                (eccentric(), 2.0 * FIT_TOLERANCE_KM),
            ];
            for (c, bound) in sets {
                let links = links(&c);
                let mut eph = Ephemeris::new(&c);
                let mut worst = 0.0f64;
                for _ in 0..10_000 {
                    let (a, b) = pick(&mut rng, &links);
                    let t = offset + rng.next_below(RUN_NS);
                    let (window, s) = eph.locate(SimTime::from_nanos(t));
                    let fit = eph.fit(&c, a, b, window);
                    if !fit.accepted {
                        continue;
                    }
                    let mid = SimTime::from_nanos((window << WINDOW_SHIFT) + WINDOW_NS / 2);
                    for (s, t) in [(0.5, mid), (s, SimTime::from_nanos(t))] {
                        let km = fit.at(s) / 1e9 * C_VACUUM_KM_PER_S;
                        worst = worst.max((km - c.distance_km(a, b, t)).abs());
                    }
                }
                assert!(worst < bound, "{} +{offset} ns: {worst:e} km", c.name);
                assert!(eph.stats().rejected_fits < 10, "{}: {:?}", c.name, eph.stats());
            }
            // Even a day in: 20x under the tolerance the midpoint is held
            // to, 600x under the guard band's 3e-7 km for the link.
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
                assert_eq!(eph.delay(&mut LinkFit::default(), &c, a, b, t), exact(&c, a, b, t));
                let s = eph.stats();
                let counts = (s.fits, s.link_fits, s.interpolated, s.exact_guard);
                assert_eq!(counts, (2, 1, 0, 1), "{a}-{b} {t:?}");
                hits += 1;
            }
            // A microsecond-scale step away the filter lets go again.
            let mut eph = Ephemeris::new(&c);
            let far = SimTime::from_nanos(lo + 20_000_000);
            assert_eq!(eph.delay(&mut LinkFit::default(), &c, a, b, far), exact(&c, a, b, far));
            assert_eq!(eph.stats().interpolated, 1);
        }
        assert!(hits >= 10, "only {hits} constructed guard cases");
    }

    /// The property resume relies on: a cold memo, a warm one,
    /// one holding another peer's link and one fitted for another window
    /// (earlier or later) all return the same delay.
    #[test]
    fn delay_does_not_depend_on_cache_state() {
        let c = presets::kuiper_k1(cities(8));
        let links = links(&c);
        let mut rng = DetRng::new(0x7374_6174);
        let mut eph = Ephemeris::new(&c);
        for _ in 0..2_000 {
            let t = sample_time(&mut rng);
            let (a, b) = pick(&mut rng, &links);
            let want = exact(&c, a, b, t);
            let cold = Ephemeris::new(&c).delay(&mut LinkFit::default(), &c, a, b, t);
            let mut warm = LinkFit::default();
            let first = eph.delay(&mut warm, &c, a, b, t);
            let link_fits = eph.stats().link_fits;
            let again = eph.delay(&mut warm, &c, a, b, t);
            assert_eq!(eph.stats().link_fits, link_fits, "second query refitted");
            assert_eq!([cold, first, again], [want; 3], "{a}-{b} at {t:?}");
            let peer = c.sat_node(rng.next_below(c.num_satellites() as u64) as usize);
            let elsewhere = [t.nanos() + 3 * WINDOW_NS, t.nanos().saturating_sub(WINDOW_NS)];
            let stale = [(peer, t.nanos()), (b, elsewhere[0]), (b, elsewhere[1])];
            for (other, at) in stale {
                let mut memo = LinkFit::default();
                eph.delay(&mut memo, &c, a, other, SimTime::from_nanos(at));
                assert_eq!(eph.delay(&mut memo, &c, a, b, t), want, "{a}-{b} after {other}");
            }
        }
    }

    /// A cubic cannot follow a sixth of an orbit: with a test-only window
    /// of 2⁴⁰ ns (18 min) the midpoint check rejects every link fit and
    /// the window is served exactly — as is any window past the horizon at
    /// the real length, where no satellite is even sampled.
    #[test]
    fn a_bad_fit_is_rejected_and_its_window_served_exactly() {
        let c = eccentric();
        let links = links(&c);
        let mut rng = DetRng::new(0x6261_6466);
        let far = HORIZON_NS + 12_345;
        for (mut eph, offset) in
            [(Ephemeris::with_window_shift(&c, 40), 0), (Ephemeris::new(&c), far)]
        {
            let mut memos = vec![LinkFit::default(); c.num_nodes()];
            for _ in 0..500 {
                let t = SimTime::from_nanos(offset + rng.next_below(1 << 40));
                let (a, b) = pick(&mut rng, &links);
                assert_eq!(eph.delay(&mut memos[a.index()], &c, a, b, t), exact(&c, a, b, t));
            }
            let s = eph.stats();
            assert!(s.link_fits > 0 && s.rejected_fits == s.link_fits, "{s:?}");
            assert_eq!((s.interpolated, s.exact_guard), (0, 0), "{s:?}");
            assert_eq!(s.fits == 0, offset == far, "{s:?}");
        }
        // The same instants at the real window length are all accepted.
        let mut eph = Ephemeris::new(&c);
        for _ in 0..500 {
            let t = SimTime::from_nanos(rng.next_below(1 << 40));
            let (a, b) = pick(&mut rng, &links);
            assert_eq!(eph.delay(&mut LinkFit::default(), &c, a, b, t), exact(&c, a, b, t));
        }
        assert_eq!(eph.stats().rejected_fits, 0);
    }
}
