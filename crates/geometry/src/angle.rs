//! Orientations on the circle, normalized to `[0, 2π)`.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Neg, Sub};

/// `2π`, the full circle.
pub const TAU: f64 = std::f64::consts::TAU;

/// An orientation angle on the circle, stored normalized to `[0, 2π)`.
///
/// Chargers in the HASTE model rotate freely in `[0, 2π)`; all of the
/// dominant-task-set machinery reasons about directions modulo a full turn,
/// so this type keeps its invariant (`0 ≤ radians < 2π`) at every operation
/// and offers wrap-aware arithmetic ([`Angle::distance`],
/// [`Angle::ccw_delta`]).
///
/// `Angle` intentionally does **not** implement `Ord`: there is no total
/// order on the circle. Use [`Angle::ccw_delta`] relative to a reference
/// direction when a sweep order is needed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Angle(f64);

impl Angle {
    /// The zero angle (positive x-axis).
    pub const ZERO: Angle = Angle(0.0);

    /// Creates an angle from radians, normalizing into `[0, 2π)`.
    #[inline]
    pub fn from_radians(radians: f64) -> Self {
        let mut r = radians % TAU;
        if r < 0.0 {
            r += TAU;
        }
        // `% TAU` of a value barely below 0 can round to TAU itself.
        if r >= TAU {
            r = 0.0;
        }
        Angle(r)
    }

    /// Creates an angle from degrees, normalizing into `[0°, 360°)`.
    #[inline]
    pub fn from_degrees(degrees: f64) -> Self {
        Angle::from_radians(degrees.to_radians())
    }

    /// The normalized value in radians, in `[0, 2π)`.
    #[inline]
    pub fn radians(self) -> f64 {
        self.0
    }

    /// The normalized value in degrees, in `[0°, 360°)`.
    #[inline]
    pub fn degrees(self) -> f64 {
        self.0.to_degrees()
    }

    /// Counter-clockwise offset from `self` to `other`, in `[0, 2π)`.
    ///
    /// This is the rotation a charger at orientation `self` must perform,
    /// rotating counter-clockwise, to reach `other`.
    #[inline]
    pub fn ccw_delta(self, other: Angle) -> Angle {
        Angle::from_radians(other.0 - self.0)
    }

    /// The unsigned angular distance between two orientations, in `[0, π]`.
    #[inline]
    pub fn distance(self, other: Angle) -> Angle {
        let d = (self.0 - other.0).abs();
        Angle(d.min(TAU - d))
    }

    /// Whether `self` lies within `half_width` of `center` on the circle.
    ///
    /// The comparison is inclusive, matching the `≥ 0` dot-product tests in
    /// the paper's charging model (Eq. for `P_r`).
    #[inline]
    pub fn within(self, center: Angle, half_width: f64) -> bool {
        self.distance(center).radians() <= half_width + 1e-12
    }

    /// Midpoint of the counter-clockwise arc from `self` to `other`.
    #[inline]
    pub fn ccw_midpoint(self, other: Angle) -> Angle {
        Angle::from_radians(self.0 + self.ccw_delta(other).0 / 2.0)
    }

    /// Compares two angles by their counter-clockwise offset from a
    /// reference direction — the sweep order used by dominant-task-set
    /// extraction.
    #[inline]
    pub fn sweep_cmp(self, other: Angle, reference: Angle) -> Ordering {
        let a = reference.ccw_delta(self).0;
        let b = reference.ccw_delta(other).0;
        a.partial_cmp(&b).expect("angles are finite")
    }
}

impl Add for Angle {
    type Output = Angle;
    #[inline]
    fn add(self, rhs: Angle) -> Angle {
        Angle::from_radians(self.0 + rhs.0)
    }
}

impl Sub for Angle {
    type Output = Angle;
    #[inline]
    fn sub(self, rhs: Angle) -> Angle {
        Angle::from_radians(self.0 - rhs.0)
    }
}

impl Neg for Angle {
    type Output = Angle;
    #[inline]
    fn neg(self) -> Angle {
        Angle::from_radians(-self.0)
    }
}

impl fmt::Display for Angle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}°", self.degrees())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        assert_eq!(Angle::from_radians(TAU).radians(), 0.0);
        assert_eq!(Angle::from_radians(-TAU).radians(), 0.0);
        let a = Angle::from_radians(-0.5);
        assert!((a.radians() - (TAU - 0.5)).abs() < 1e-12);
        let b = Angle::from_radians(3.0 * TAU + 1.0);
        assert!((b.radians() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalization_never_yields_tau() {
        // Values just below zero must wrap strictly below 2π.
        let a = Angle::from_radians(-1e-18);
        assert!(a.radians() < TAU);
        assert!(a.radians() >= 0.0);
    }

    #[test]
    fn degrees_roundtrip() {
        let a = Angle::from_degrees(270.0);
        assert!((a.degrees() - 270.0).abs() < 1e-9);
        assert!((a.radians() - 3.0 * std::f64::consts::FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn ccw_delta_wraps() {
        let a = Angle::from_degrees(350.0);
        let b = Angle::from_degrees(10.0);
        assert!((a.ccw_delta(b).degrees() - 20.0).abs() < 1e-9);
        assert!((b.ccw_delta(a).degrees() - 340.0).abs() < 1e-9);
    }

    #[test]
    fn distance_is_symmetric_and_bounded() {
        let a = Angle::from_degrees(10.0);
        let b = Angle::from_degrees(200.0);
        let d1 = a.distance(b).degrees();
        let d2 = b.distance(a).degrees();
        assert!((d1 - d2).abs() < 1e-9);
        assert!((d1 - 170.0).abs() < 1e-9);
    }

    #[test]
    fn within_inclusive_boundary() {
        let c = Angle::from_degrees(90.0);
        assert!(Angle::from_degrees(120.0).within(c, 30f64.to_radians()));
        assert!(!Angle::from_degrees(121.0).within(c, 30f64.to_radians()));
    }

    #[test]
    fn ccw_midpoint_wraps() {
        let a = Angle::from_degrees(350.0);
        let b = Angle::from_degrees(10.0);
        assert!((a.ccw_midpoint(b).degrees() - 0.0).abs() < 1e-9);
    }

    #[test]
    fn sweep_order() {
        let reference = Angle::from_degrees(45.0);
        let a = Angle::from_degrees(50.0);
        let b = Angle::from_degrees(40.0); // 355° past the reference going CCW
        assert_eq!(a.sweep_cmp(b, reference), Ordering::Less);
    }
}
