//! Charging utility functions.
//!
//! The paper's analysis (submodularity of HASTE-R, the switching/rescheduling
//! loss bounds) relies only on the utility being **normalized, non-decreasing
//! and concave** in harvested energy. Eq. (1) uses the linear-bounded
//! instance; the paper notes the results extend to general concave functions,
//! so the trait below is the extension point and [`ConcavePower`] is one such
//! extension.

/// A normalized, monotone, concave charging utility `U : energy ↦ [0, 1]`.
///
/// Implementations must satisfy, for the submodularity of the HASTE-R
/// objective to hold (Lemma 4.2):
///
/// * `utility(0, e) = 0` (normalized),
/// * non-decreasing in harvested energy,
/// * concave in harvested energy.
///
/// `haste-submodular`'s validators are run against every implementation in
/// this crate's tests.
pub trait UtilityFn: Send + Sync {
    /// Utility of having harvested `energy` joules toward a requirement of
    /// `required` joules.
    fn utility(&self, energy: f64, required: f64) -> f64;

    /// Marginal utility of adding `delta` joules on top of `energy`.
    ///
    /// Provided for convenience; the default just takes the difference, and
    /// implementations may override it with something cheaper.
    fn marginal(&self, energy: f64, delta: f64, required: f64) -> f64 {
        self.utility(energy + delta, required) - self.utility(energy, required)
    }
}

/// The paper's Eq. (1): `U(x) = x / E_j` for `x ≤ E_j`, else `1`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinearBounded;

impl UtilityFn for LinearBounded {
    #[inline]
    fn utility(&self, energy: f64, required: f64) -> f64 {
        debug_assert!(required > 0.0);
        (energy / required).clamp(0.0, 1.0)
    }

    #[inline]
    fn marginal(&self, energy: f64, delta: f64, required: f64) -> f64 {
        debug_assert!(required > 0.0);
        let before = (energy / required).min(1.0);
        let after = ((energy + delta) / required).min(1.0);
        (after - before).max(0.0)
    }
}

/// A general concave extension: `U(x) = min((x / E_j)^p, 1)` with exponent
/// `p ∈ (0, 1]`.
///
/// `p = 1` coincides with [`LinearBounded`]; smaller exponents reward the
/// first joules more, modeling devices whose marginal value of energy decays
/// (e.g. battery health). Used by the ablation benches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConcavePower {
    /// Exponent `p ∈ (0, 1]`.
    pub exponent: f64,
}

impl ConcavePower {
    /// Creates the utility; panics if `p` is outside `(0, 1]` (a convexity
    /// bug would silently break every approximation guarantee downstream).
    pub fn new(exponent: f64) -> Self {
        assert!(
            exponent > 0.0 && exponent <= 1.0,
            "ConcavePower exponent must be in (0, 1], got {exponent}"
        );
        ConcavePower { exponent }
    }
}

impl UtilityFn for ConcavePower {
    #[inline]
    fn utility(&self, energy: f64, required: f64) -> f64 {
        debug_assert!(required > 0.0);
        let ratio = (energy / required).max(0.0);
        ratio.powf(self.exponent).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_bounded_shape() {
        let u = LinearBounded;
        assert_eq!(u.utility(0.0, 100.0), 0.0);
        assert_eq!(u.utility(50.0, 100.0), 0.5);
        assert_eq!(u.utility(100.0, 100.0), 1.0);
        assert_eq!(u.utility(200.0, 100.0), 1.0);
    }

    #[test]
    fn linear_bounded_marginal_matches_difference() {
        let u = LinearBounded;
        for &(e, d) in &[(0.0, 10.0), (90.0, 20.0), (150.0, 5.0), (99.0, 1.0)] {
            let m = u.marginal(e, d, 100.0);
            let diff = u.utility(e + d, 100.0) - u.utility(e, 100.0);
            assert!((m - diff).abs() < 1e-12, "e={e} d={d}");
        }
    }

    #[test]
    fn concave_power_reduces_to_linear_at_p1() {
        let u = ConcavePower::new(1.0);
        for &e in &[0.0, 25.0, 50.0, 100.0, 150.0] {
            assert!((u.utility(e, 100.0) - LinearBounded.utility(e, 100.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn concavity_numerically() {
        // U((a+b)/2) ≥ (U(a)+U(b))/2 for concave U.
        for u in [&ConcavePower::new(0.5) as &dyn UtilityFn, &LinearBounded] {
            for &(a, b) in &[(0.0, 100.0), (10.0, 60.0), (50.0, 200.0)] {
                let mid = u.utility((a + b) / 2.0, 100.0);
                let avg = (u.utility(a, 100.0) + u.utility(b, 100.0)) / 2.0;
                assert!(mid >= avg - 1e-12);
            }
        }
    }

    #[test]
    fn monotone_and_bounded() {
        for u in [&ConcavePower::new(0.3) as &dyn UtilityFn, &LinearBounded] {
            let mut prev = 0.0;
            for step in 0..50 {
                let v = u.utility(step as f64 * 5.0, 100.0);
                assert!(v >= prev - 1e-12);
                assert!((0.0..=1.0).contains(&v));
                prev = v;
            }
        }
    }

    #[test]
    #[should_panic(expected = "exponent")]
    fn concave_power_rejects_convex_exponent() {
        let _ = ConcavePower::new(1.5);
    }
}
