//! A minimal 3D vector for orbital geometry.
//!
//! All Hypatia geometry works in kilometres; distances between LEO nodes are
//! O(10^2..10^4) km, comfortably inside f64's exact range.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A 3-component f64 vector (kilometres unless stated otherwise).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 0.0 };

    /// Construct from components.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Dot product.
    pub fn dot(self, other: Vec3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Cross product.
    pub fn cross(self, other: Vec3) -> Vec3 {
        Vec3 {
            x: self.y * other.z - self.z * other.y,
            y: self.z * other.x - self.x * other.z,
            z: self.x * other.y - self.y * other.x,
        }
    }

    /// Euclidean norm.
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared norm (avoids the sqrt when only comparisons are needed).
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    /// Distance to another point.
    pub fn distance(self, other: Vec3) -> f64 {
        (self - other).norm()
    }

    /// Unit vector in this direction. Panics on the zero vector.
    pub fn normalized(self) -> Vec3 {
        let n = self.norm();
        assert!(n > 0.0, "cannot normalize the zero vector");
        self / n
    }

    /// Angle between two vectors in radians, in `[0, pi]`.
    pub fn angle_to(self, other: Vec3) -> f64 {
        let denom = self.norm() * other.norm();
        assert!(denom > 0.0, "angle with zero vector is undefined");
        (self.dot(other) / denom).clamp(-1.0, 1.0).acos()
    }

    /// Rotate about the Z axis by `theta` radians (counter-clockwise looking
    /// down +Z). The workhorse of ECI↔ECEF conversion.
    pub fn rotate_z(self, theta: f64) -> Vec3 {
        let (s, c) = theta.sin_cos();
        Vec3 { x: c * self.x - s * self.y, y: s * self.x + c * self.y, z: self.z }
    }

    /// Rotate about the X axis by `theta` radians.
    pub fn rotate_x(self, theta: f64) -> Vec3 {
        let (s, c) = theta.sin_cos();
        Vec3 { x: self.x, y: c * self.y - s * self.z, z: s * self.y + c * self.z }
    }

    /// Componentwise finite check.
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}
impl AddAssign for Vec3 {
    fn add_assign(&mut self, o: Vec3) {
        *self = *self + o;
    }
}
impl Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}
impl SubAssign for Vec3 {
    fn sub_assign(&mut self, o: Vec3) {
        *self = *self - o;
    }
}
impl Mul<f64> for Vec3 {
    type Output = Vec3;
    fn mul(self, k: f64) -> Vec3 {
        Vec3::new(self.x * k, self.y * k, self.z * k)
    }
}
impl Mul<Vec3> for f64 {
    type Output = Vec3;
    fn mul(self, v: Vec3) -> Vec3 {
        v * self
    }
}
impl Div<f64> for Vec3 {
    type Output = Vec3;
    fn div(self, k: f64) -> Vec3 {
        Vec3::new(self.x / k, self.y / k, self.z / k)
    }
}
impl Neg for Vec3 {
    type Output = Vec3;
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;
    use std::f64::consts::{FRAC_PI_2, PI};

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn dot_and_cross_basics() {
        let x = Vec3::new(1.0, 0.0, 0.0);
        let y = Vec3::new(0.0, 1.0, 0.0);
        let z = Vec3::new(0.0, 0.0, 1.0);
        assert_eq!(x.dot(y), 0.0);
        assert_eq!(x.cross(y), z);
        assert_eq!(y.cross(x), -z);
    }

    #[test]
    fn norm_and_distance() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        assert!(approx(v.norm(), 5.0));
        assert!(approx(v.norm_sq(), 25.0));
        assert!(approx(v.distance(Vec3::ZERO), 5.0));
    }

    #[test]
    fn rotate_z_quarter_turn() {
        let v = Vec3::new(1.0, 0.0, 2.0).rotate_z(FRAC_PI_2);
        assert!(approx(v.x, 0.0) && approx(v.y, 1.0) && approx(v.z, 2.0));
    }

    #[test]
    fn rotate_x_quarter_turn() {
        let v = Vec3::new(2.0, 1.0, 0.0).rotate_x(FRAC_PI_2);
        assert!(approx(v.x, 2.0) && approx(v.y, 0.0) && approx(v.z, 1.0));
    }

    #[test]
    fn angle_between_axes() {
        let x = Vec3::new(1.0, 0.0, 0.0);
        let y = Vec3::new(0.0, 2.0, 0.0);
        assert!(approx(x.angle_to(y), FRAC_PI_2));
        assert!(approx(x.angle_to(-x), PI));
        assert!(approx(x.angle_to(x * 3.0), 0.0));
    }

    #[test]
    #[should_panic]
    fn normalize_zero_panics() {
        Vec3::ZERO.normalized();
    }

    /// A vector with each component uniform in `[-bound, bound)`.
    fn random_vec(rng: &mut DetRng, bound: f64) -> Vec3 {
        Vec3::new(
            rng.next_in(-bound, bound),
            rng.next_in(-bound, bound),
            rng.next_in(-bound, bound),
        )
    }

    #[test]
    fn rotation_preserves_norm() {
        for seed in 0..256 {
            let mut rng = DetRng::new(seed);
            let v = random_vec(&mut rng, 1e4);
            let theta = rng.next_in(-10.0, 10.0);
            assert!((v.rotate_z(theta).norm() - v.norm()).abs() < 1e-6, "seed {seed}: {v:?}");
            assert!((v.rotate_x(theta).norm() - v.norm()).abs() < 1e-6, "seed {seed}: {v:?}");
        }
    }

    #[test]
    fn cross_is_orthogonal() {
        for seed in 0..256 {
            let mut rng = DetRng::new(seed);
            let (a, b) = (random_vec(&mut rng, 1e3), random_vec(&mut rng, 1e3));
            let c = a.cross(b);
            // |a.c| and |b.c| should be ~0 relative to the magnitudes involved.
            let scale = (a.norm() * b.norm() * c.norm()).max(1.0);
            assert!(a.dot(c).abs() / scale < 1e-9, "seed {seed}: {a:?} x {b:?}");
            assert!(b.dot(c).abs() / scale < 1e-9, "seed {seed}: {a:?} x {b:?}");
        }
    }

    #[test]
    fn triangle_inequality() {
        for seed in 0..256 {
            let mut rng = DetRng::new(seed);
            let (a, b) = (random_vec(&mut rng, 1e3), random_vec(&mut rng, 1e3));
            assert!((a + b).norm() <= a.norm() + b.norm() + 1e-9, "seed {seed}: {a:?} + {b:?}");
        }
    }
}
