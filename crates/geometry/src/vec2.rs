//! Points and displacement vectors in the plane.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use crate::Angle;

/// A point or displacement vector in the 2D plane, in meters.
///
/// `Vec2` is used both for positions (charger and device locations) and for
/// direction vectors (the `r_θ` unit vectors of the charging model). It is a
/// plain `Copy` value type.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Vec2 {
    /// The origin / zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// The unit vector pointing in direction `angle` (measured
    /// counter-clockwise from the positive x-axis).
    #[inline]
    pub fn unit(angle: Angle) -> Self {
        let (s, c) = angle.radians().sin_cos();
        Vec2 { x: c, y: s }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Z-component of the 3D cross product; positive when `other` is
    /// counter-clockwise from `self`.
    #[inline]
    pub fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Squared Euclidean norm (avoids the square root in distance tests).
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn distance(self, other: Vec2) -> f64 {
        (other - self).norm()
    }

    /// The direction of this vector as an [`Angle`] in `[0, 2π)`.
    ///
    /// The zero vector maps to angle `0`.
    #[inline]
    pub fn azimuth(self) -> Angle {
        Angle::from_radians(self.y.atan2(self.x))
    }

    /// Returns this vector scaled to unit length, or `None` for a (near-)zero
    /// vector.
    #[inline]
    pub fn normalized(self) -> Option<Vec2> {
        let n = self.norm();
        if n <= f64::EPSILON {
            None
        } else {
            Some(self / n)
        }
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    #[inline]
    pub fn lerp(self, other: Vec2, t: f64) -> Vec2 {
        self + (other - self) * t
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vec2 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec2) {
        *self = *self + rhs;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Vec2 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec2) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn div(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    #[inline]
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn arithmetic_basics() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a + b, Vec2::new(4.0, 1.0));
        assert_eq!(a - b, Vec2::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(b / 2.0, Vec2::new(1.5, -0.5));
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
        let mut c = a;
        c += b;
        assert_eq!(c, a + b);
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn dot_and_cross() {
        let a = Vec2::new(1.0, 0.0);
        let b = Vec2::new(0.0, 1.0);
        assert!(approx(a.dot(b), 0.0));
        assert!(approx(a.cross(b), 1.0));
        assert!(approx(b.cross(a), -1.0));
    }

    #[test]
    fn norms_and_distance() {
        let a = Vec2::new(3.0, 4.0);
        assert!(approx(a.norm(), 5.0));
        assert!(approx(a.norm_sq(), 25.0));
        assert!(approx(Vec2::ZERO.distance(a), 5.0));
    }

    #[test]
    fn azimuth_of_axes() {
        assert!(approx(Vec2::new(1.0, 0.0).azimuth().radians(), 0.0));
        assert!(approx(
            Vec2::new(0.0, 1.0).azimuth().radians(),
            std::f64::consts::FRAC_PI_2
        ));
        assert!(approx(
            Vec2::new(-1.0, 0.0).azimuth().radians(),
            std::f64::consts::PI
        ));
        // Fourth quadrant normalizes into [0, 2π).
        let a = Vec2::new(0.0, -1.0).azimuth().radians();
        assert!(approx(a, 3.0 * std::f64::consts::FRAC_PI_2));
    }

    #[test]
    fn unit_roundtrip() {
        for k in 0..16 {
            let theta = Angle::from_radians(k as f64 * 0.4);
            let v = Vec2::unit(theta);
            assert!(approx(v.norm(), 1.0));
            assert!(theta.distance(v.azimuth()).radians() < 1e-9);
        }
    }

    #[test]
    fn normalized_zero_is_none() {
        assert!(Vec2::ZERO.normalized().is_none());
        let n = Vec2::new(0.0, 2.0).normalized().unwrap();
        assert!(approx(n.norm(), 1.0));
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(2.0, 4.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec2::new(1.0, 2.0));
    }
}
