//! Sector-shaped coverage areas of the directional charging model.

use crate::{Angle, Vec2};

/// A sector in the plane: apex, facing direction, full opening angle and
/// radius.
///
/// In the directional charging model of the paper both the charger's
/// *charging area* (opening angle `A_s`) and a device's *receiving area*
/// (opening angle `A_o`) are sectors of radius `D`. A device is chargeable by
/// a charger iff each lies in the other's sector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sector {
    /// Apex of the sector (the charger / device position).
    pub apex: Vec2,
    /// Facing direction of the sector axis.
    pub facing: Angle,
    /// Full opening angle in radians (the paper's `A_s` / `A_o`).
    pub opening: f64,
    /// Radius in meters (the paper's `D`).
    pub radius: f64,
}

impl Sector {
    /// Creates a sector.
    #[inline]
    pub fn new(apex: Vec2, facing: Angle, opening: f64, radius: f64) -> Self {
        Sector {
            apex,
            facing,
            opening,
            radius,
        }
    }

    /// Whether point `p` lies inside the (closed) sector.
    ///
    /// This is the paper's coverage test: `‖apex→p‖ ≤ radius` and the angle
    /// between `apex→p` and the facing direction is at most `opening / 2`.
    /// The apex itself is considered covered (a device co-located with a
    /// charger is trivially in range).
    pub fn contains(&self, p: Vec2) -> bool {
        let d = p - self.apex;
        let dist = d.norm();
        if dist > self.radius + 1e-12 {
            return false;
        }
        if dist <= f64::EPSILON {
            return true;
        }
        d.azimuth().within(self.facing, self.opening / 2.0)
    }

    /// The same angular test as [`Sector::contains`] but ignoring the radius
    /// — used when range has already been checked once and only the rotating
    /// orientation varies.
    pub fn contains_direction(&self, p: Vec2) -> bool {
        let d = p - self.apex;
        if d.norm() <= f64::EPSILON {
            return true;
        }
        d.azimuth().within(self.facing, self.opening / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sector(facing_deg: f64, opening_deg: f64, radius: f64) -> Sector {
        Sector::new(
            Vec2::ZERO,
            Angle::from_degrees(facing_deg),
            opening_deg.to_radians(),
            radius,
        )
    }

    #[test]
    fn contains_in_range_and_angle() {
        let s = sector(0.0, 60.0, 10.0);
        assert!(s.contains(Vec2::new(5.0, 0.0)));
        // 29° off-axis, still inside the 30° half-angle.
        let p = Vec2::unit(Angle::from_degrees(29.0)) * 5.0;
        assert!(s.contains(p));
        // 31° off-axis: outside.
        let q = Vec2::unit(Angle::from_degrees(31.0)) * 5.0;
        assert!(!s.contains(q));
    }

    #[test]
    fn contains_respects_radius() {
        let s = sector(0.0, 60.0, 10.0);
        assert!(s.contains(Vec2::new(10.0, 0.0)));
        assert!(!s.contains(Vec2::new(10.1, 0.0)));
    }

    #[test]
    fn apex_is_covered() {
        let s = sector(123.0, 1.0, 10.0);
        assert!(s.contains(Vec2::ZERO));
    }

    #[test]
    fn wrapping_facing() {
        let s = sector(350.0, 40.0, 10.0);
        let p = Vec2::unit(Angle::from_degrees(5.0)) * 3.0;
        assert!(s.contains(p));
        let q = Vec2::unit(Angle::from_degrees(15.0)) * 3.0;
        assert!(!q.norm().is_nan());
        assert!(!s.contains(q));
    }

    #[test]
    fn direction_only_test_ignores_radius() {
        let s = sector(0.0, 60.0, 1.0);
        assert!(s.contains_direction(Vec2::new(100.0, 0.0)));
        assert!(!s.contains(Vec2::new(100.0, 0.0)));
    }
}
