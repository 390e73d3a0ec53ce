//! Constants of the directional charging model.

/// How a device's harvested power depends on the direction the energy
/// arrives from, *within* its receiving sector.
///
/// The paper's model is isotropic inside the sector ([`ReceiverGain::Uniform`]);
/// its cited future work (Lin et al., INFOCOM 2019) observes that real
/// rechargeable sensors harvest anisotropically. [`ReceiverGain::Cosine`]
/// models that: the power is scaled by `cos^e(ψ)` where `ψ` is the angle
/// between the device's facing direction and the incoming energy. The gain
/// is a fixed factor per (charger, device) pair — independent of the
/// charger's rotating orientation — so every scheduling result and
/// guarantee in this crate family carries over unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ReceiverGain {
    /// Isotropic within the receiving sector (the paper's model).
    #[default]
    Uniform,
    /// `cos^exponent` roll-off from the device's facing direction.
    Cosine {
        /// Roll-off exponent `e > 0`; larger = more directional.
        exponent: f64,
    },
}

impl ReceiverGain {
    /// Gain factor for energy arriving `offset` radians off the device's
    /// facing direction (callers guarantee `offset ≤ A_o / 2`).
    #[inline]
    pub fn factor(&self, offset: f64) -> f64 {
        match *self {
            ReceiverGain::Uniform => 1.0,
            ReceiverGain::Cosine { exponent } => offset.cos().max(0.0).powf(exponent),
        }
    }
}

/// Hardware and environment constants of the directional charging model
/// (Section 3.1 of the paper).
///
/// The charging power received by a device at distance `d` from a charger
/// that covers it (and that it covers back) is `α / (d + β)²`; coverage is
/// limited to distance `D` and to the two sector opening angles `A_s`
/// (charger side) and `A_o` (device side).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChargingParams {
    /// Power-law numerator `α` (watt·m²-ish, fitted empirically).
    pub alpha: f64,
    /// Power-law offset `β` in meters.
    pub beta: f64,
    /// Charging/receiving radius `D` in meters.
    pub radius: f64,
    /// Full charging angle `A_s` of chargers, in radians.
    pub charging_angle: f64,
    /// Full receiving angle `A_o` of devices, in radians.
    pub receiving_angle: f64,
    /// Anisotropy of the device-side harvest (default: the paper's
    /// isotropic sector).
    pub receiver_gain: ReceiverGain,
}

impl ChargingParams {
    /// The simulation defaults of the paper's Section 7.1:
    /// `α = 10⁴`, `β = 40`, `D = 20 m`, `A_s = A_o = π/3`.
    pub fn simulation_default() -> Self {
        ChargingParams {
            alpha: 10_000.0,
            beta: 40.0,
            radius: 20.0,
            charging_angle: std::f64::consts::FRAC_PI_3,
            receiving_angle: std::f64::consts::FRAC_PI_3,
            receiver_gain: ReceiverGain::Uniform,
        }
    }

    /// The empirical constants the paper fits to its Powercast TX91501
    /// testbed (Section 8): `α = 41.93`, `β = 0.6428`, `D = 4 m`,
    /// `A_s = π/3`, `A_o = 2π/3`.
    pub fn testbed_tx91501() -> Self {
        ChargingParams {
            alpha: 41.93,
            beta: 0.6428,
            radius: 4.0,
            charging_angle: std::f64::consts::FRAC_PI_3,
            receiving_angle: 2.0 * std::f64::consts::FRAC_PI_3,
            receiver_gain: ReceiverGain::Uniform,
        }
    }

    /// Returns a copy with a different charging angle `A_s`.
    pub fn with_charging_angle(mut self, a_s: f64) -> Self {
        self.charging_angle = a_s;
        self
    }

    /// Returns a copy with a different receiving angle `A_o`.
    pub fn with_receiving_angle(mut self, a_o: f64) -> Self {
        self.receiving_angle = a_o;
        self
    }

    /// Validates the parameters (all strictly positive where required,
    /// angles within `(0, 2π]`).
    pub fn validate(&self) -> Result<(), crate::ModelError> {
        use crate::ModelError::InvalidParams;
        let tau = std::f64::consts::TAU;
        if !(self.alpha.is_finite() && self.alpha > 0.0) {
            return Err(InvalidParams("alpha must be finite and positive"));
        }
        if !(self.beta.is_finite() && self.beta >= 0.0) {
            return Err(InvalidParams("beta must be finite and non-negative"));
        }
        if !(self.radius.is_finite() && self.radius > 0.0) {
            return Err(InvalidParams("radius must be finite and positive"));
        }
        if !(self.charging_angle > 0.0 && self.charging_angle <= tau + 1e-12) {
            return Err(InvalidParams("charging_angle must be in (0, 2π]"));
        }
        if !(self.receiving_angle > 0.0 && self.receiving_angle <= tau + 1e-12) {
            return Err(InvalidParams("receiving_angle must be in (0, 2π]"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        ChargingParams::simulation_default().validate().unwrap();
        ChargingParams::testbed_tx91501().validate().unwrap();
    }

    #[test]
    fn builders() {
        let p = ChargingParams::simulation_default()
            .with_charging_angle(1.0)
            .with_receiving_angle(2.0);
        assert_eq!(p.charging_angle, 1.0);
        assert_eq!(p.receiving_angle, 2.0);
    }

    #[test]
    fn rejects_bad_values() {
        let mut p = ChargingParams::simulation_default();
        p.alpha = -1.0;
        assert!(p.validate().is_err());
        let mut p = ChargingParams::simulation_default();
        p.radius = 0.0;
        assert!(p.validate().is_err());
        let mut p = ChargingParams::simulation_default();
        p.charging_angle = 0.0;
        assert!(p.validate().is_err());
        let mut p = ChargingParams::simulation_default();
        p.receiving_angle = 10.0;
        assert!(p.validate().is_err());
        let mut p = ChargingParams::simulation_default();
        p.beta = f64::NAN;
        assert!(p.validate().is_err());
    }
}
