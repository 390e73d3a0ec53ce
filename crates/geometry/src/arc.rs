//! Circular arcs of directions.

use crate::{Angle, TAU};

/// A closed arc of directions on the circle, described by a start direction
/// and a counter-clockwise width.
///
/// Arcs are the central object of dominant-task-set extraction: the set of
/// charger orientations that cover a given task is the arc of width `A_s`
/// centered at the task's azimuth from the charger.
///
/// A width of `2π` (or more, clamped) denotes the full circle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arc {
    start: Angle,
    width: f64,
}

impl Arc {
    /// The full circle.
    pub const FULL: Arc = Arc {
        start: Angle::ZERO,
        width: TAU,
    };

    /// Creates the arc starting at `start` and extending `width` radians
    /// counter-clockwise. Widths are clamped to `[0, 2π]`.
    #[inline]
    pub fn new(start: Angle, width: f64) -> Self {
        Arc {
            start,
            width: width.clamp(0.0, TAU),
        }
    }

    /// Creates the arc of half-width `half_width` centered on `center`.
    #[inline]
    pub fn centered(center: Angle, half_width: f64) -> Self {
        let hw = half_width.clamp(0.0, TAU / 2.0);
        Arc::new(center - Angle::from_radians(hw), 2.0 * hw)
    }

    /// The start direction (counter-clockwise end is `start + width`).
    #[inline]
    pub fn start(&self) -> Angle {
        self.start
    }

    /// The counter-clockwise end direction.
    #[inline]
    pub fn end(&self) -> Angle {
        self.start + Angle::from_radians(self.width)
    }

    /// The arc width in radians, in `[0, 2π]`.
    #[inline]
    pub fn width(&self) -> f64 {
        self.width
    }

    /// The direction at the middle of the arc.
    #[inline]
    pub fn midpoint(&self) -> Angle {
        self.start + Angle::from_radians(self.width / 2.0)
    }

    /// Whether the arc is the full circle.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.width >= TAU - 1e-12
    }

    /// Whether direction `a` lies on the (closed) arc.
    #[inline]
    pub fn contains(&self, a: Angle) -> bool {
        if self.is_full() {
            return true;
        }
        self.start.ccw_delta(a).radians() <= self.width + 1e-12
    }

    /// Whether two arcs share at least one direction.
    pub fn intersects(&self, other: &Arc) -> bool {
        if self.is_full() || other.is_full() {
            return true;
        }
        self.contains(other.start)
            || self.contains(other.end())
            || other.contains(self.start)
            || other.contains(self.end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deg(d: f64) -> Angle {
        Angle::from_degrees(d)
    }

    #[test]
    fn contains_simple() {
        let a = Arc::new(deg(10.0), 40f64.to_radians());
        assert!(a.contains(deg(10.0)));
        assert!(a.contains(deg(30.0)));
        assert!(a.contains(deg(50.0)));
        assert!(!a.contains(deg(51.0)));
        assert!(!a.contains(deg(9.0)));
    }

    #[test]
    fn contains_wrapping() {
        let a = Arc::new(deg(350.0), 30f64.to_radians());
        assert!(a.contains(deg(355.0)));
        assert!(a.contains(deg(0.0)));
        assert!(a.contains(deg(20.0)));
        assert!(!a.contains(deg(21.0)));
        assert!(!a.contains(deg(349.0)));
    }

    #[test]
    fn centered_matches_within() {
        let c = deg(90.0);
        let arc = Arc::centered(c, 30f64.to_radians());
        assert!(arc.contains(deg(60.0)));
        assert!(arc.contains(deg(120.0)));
        assert!(!arc.contains(deg(121.0)));
        assert!((arc.midpoint().degrees() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn full_circle() {
        assert!(Arc::FULL.is_full());
        assert!(Arc::FULL.contains(deg(123.0)));
        let nearly = Arc::new(deg(0.0), TAU);
        assert!(nearly.is_full());
    }

    #[test]
    fn zero_width_is_a_point() {
        let a = Arc::new(deg(45.0), 0.0);
        assert!(a.contains(deg(45.0)));
        assert!(!a.contains(deg(46.0)));
    }

    #[test]
    fn intersects_cases() {
        let a = Arc::new(deg(0.0), 60f64.to_radians());
        let b = Arc::new(deg(50.0), 60f64.to_radians());
        let c = Arc::new(deg(200.0), 20f64.to_radians());
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        assert!(a.intersects(&Arc::FULL));
        // One arc fully inside the other.
        let inner = Arc::new(deg(10.0), 10f64.to_radians());
        assert!(a.intersects(&inner));
        assert!(inner.intersects(&a));
    }

    #[test]
    fn width_clamped() {
        let a = Arc::new(deg(0.0), 10.0 * TAU);
        assert!(a.is_full());
        let b = Arc::new(deg(0.0), -1.0);
        assert_eq!(b.width(), 0.0);
    }
}
