//! Degree/radian conversion and angle normalization helpers.
//!
//! Regulatory filings specify inclinations and minimum elevation angles in
//! degrees (Table 1 of the paper); orbital mechanics wants radians. Keeping
//! the conversions in one place avoids the classic unit slip.

use std::f64::consts::{PI, TAU};

/// Degrees to radians.
pub fn deg_to_rad(deg: f64) -> f64 {
    deg * PI / 180.0
}

/// Radians to degrees.
pub fn rad_to_deg(rad: f64) -> f64 {
    rad * 180.0 / PI
}

/// Normalize an angle to `[0, 2π)`.
pub fn wrap_two_pi(rad: f64) -> f64 {
    // Already in range: `rem_euclid` would return it unchanged, after an
    // `fmod`. Orbit propagation wraps five angles per position, most of
    // them already wrapped.
    if (0.0..TAU).contains(&rad) {
        return rad;
    }
    let r = rad.rem_euclid(TAU);
    // rem_euclid can return TAU itself for tiny negative inputs due to rounding.
    if r >= TAU {
        0.0
    } else {
        r
    }
}

/// Normalize an angle to `(-π, π]`.
pub fn wrap_pi(rad: f64) -> f64 {
    let r = wrap_two_pi(rad);
    if r > PI {
        r - TAU
    } else {
        r
    }
}

/// Normalize degrees to `[0, 360)`.
pub fn wrap_360(deg: f64) -> f64 {
    let d = deg.rem_euclid(360.0);
    if d >= 360.0 {
        0.0
    } else {
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    #[test]
    fn deg_rad_round_trip() {
        assert!((rad_to_deg(deg_to_rad(53.0)) - 53.0).abs() < 1e-12);
        assert!((deg_to_rad(180.0) - PI).abs() < 1e-15);
    }

    #[test]
    fn wrapping_two_pi() {
        assert!((wrap_two_pi(TAU + 0.5) - 0.5).abs() < 1e-12);
        assert!((wrap_two_pi(-0.5) - (TAU - 0.5)).abs() < 1e-12);
        assert_eq!(wrap_two_pi(0.0), 0.0);
    }

    /// The in-range early return is `rem_euclid` without the `fmod`, not a
    /// different function: same bits, including at the range's ends.
    #[test]
    fn wrap_two_pi_fast_path_matches_rem_euclid_bit_for_bit() {
        let below_tau = f64::from_bits(TAU.to_bits() - 1);
        for x in [0.0, -0.0, f64::MIN_POSITIVE, 1e-300, 0.5, PI, 6.0, below_tau] {
            assert_eq!(wrap_two_pi(x).to_bits(), x.rem_euclid(TAU).to_bits(), "{x:e}");
        }
        assert_eq!(wrap_two_pi(TAU), 0.0);
        assert_eq!(wrap_two_pi(-1e-300), 0.0, "rem_euclid rounds up to TAU; wrapped to 0");
    }

    #[test]
    fn wrapping_pi() {
        assert!((wrap_pi(PI + 0.1) - (-PI + 0.1)).abs() < 1e-12);
        assert!((wrap_pi(-PI + 0.1) - (-PI + 0.1)).abs() < 1e-12);
        assert!((wrap_pi(PI) - PI).abs() < 1e-12);
    }

    #[test]
    fn wrapping_degrees() {
        assert_eq!(wrap_360(720.5), 0.5);
        assert_eq!(wrap_360(-90.0), 270.0);
    }

    #[test]
    fn wrap_two_pi_in_range() {
        for seed in 0..256 {
            let x = DetRng::new(seed).next_in(-1e6, 1e6);
            let w = wrap_two_pi(x);
            assert!((0.0..TAU).contains(&w), "seed {seed}: {x} wrapped to {w}");
        }
    }

    #[test]
    fn wrap_pi_in_range() {
        for seed in 0..256 {
            let x = DetRng::new(seed).next_in(-1e6, 1e6);
            let w = wrap_pi(x);
            assert!(w > -PI - 1e-9 && w <= PI + 1e-9, "seed {seed}: {x} wrapped to {w}");
        }
    }

    #[test]
    fn wrap_preserves_angle_mod_tau() {
        for seed in 0..256 {
            let x = DetRng::new(seed).next_in(-1e4, 1e4);
            let w = wrap_two_pi(x);
            // sin/cos must agree with the original angle.
            assert!((w.sin() - x.sin()).abs() < 1e-7, "seed {seed}: {x} wrapped to {w}");
            assert!((w.cos() - x.cos()).abs() < 1e-7, "seed {seed}: {x} wrapped to {w}");
        }
    }
}
