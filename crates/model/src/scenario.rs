//! Full problem instances.

use crate::{
    Charger, ChargingParams, ConcavePower, LinearBounded, ModelError, Task, TimeGrid, UtilityFn,
};

/// The charging utility function a scenario uses.
///
/// Algorithms are generic over [`UtilityFn`]; scenarios carry this enum so
/// the choice round-trips through the text format ([`crate::io`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum UtilityModel {
    /// The paper's linear-bounded utility (Eq. 1).
    #[default]
    LinearBounded,
    /// The concave-power extension with the given exponent in `(0, 1]`.
    ConcavePower(f64),
}

impl UtilityFn for UtilityModel {
    #[inline]
    fn utility(&self, energy: f64, required: f64) -> f64 {
        match *self {
            UtilityModel::LinearBounded => LinearBounded.utility(energy, required),
            UtilityModel::ConcavePower(p) => ConcavePower { exponent: p }.utility(energy, required),
        }
    }

    #[inline]
    fn marginal(&self, energy: f64, delta: f64, required: f64) -> f64 {
        match *self {
            UtilityModel::LinearBounded => LinearBounded.marginal(energy, delta, required),
            UtilityModel::ConcavePower(p) => {
                ConcavePower { exponent: p }.marginal(energy, delta, required)
            }
        }
    }
}

/// A complete HASTE problem instance.
///
/// Holds everything the offline and online schedulers need: the charging
/// model constants, the slotted time grid, the chargers and tasks, the
/// switching delay `ρ` and (for the online scenario) the rescheduling delay
/// `τ`.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Charging model constants.
    pub params: ChargingParams,
    /// Discrete time grid (must cover every task's window).
    pub grid: TimeGrid,
    /// The chargers `s_1 … s_n`; `chargers[i].id == i`.
    pub chargers: Vec<Charger>,
    /// The tasks `T_1 … T_m`; `tasks[j].id == j`.
    pub tasks: Vec<Task>,
    /// Switching delay `ρ ∈ [0, 1]`, as a fraction of a slot.
    pub rho: f64,
    /// Rescheduling delay `τ` in whole slots (online scenario only).
    pub tau: usize,
    /// Utility function applied to every task.
    pub utility: UtilityModel,
}

impl Scenario {
    /// Creates a scenario and [`validate`](Scenario::validate)s it.
    pub fn new(
        params: ChargingParams,
        grid: TimeGrid,
        chargers: Vec<Charger>,
        tasks: Vec<Task>,
        rho: f64,
        tau: usize,
    ) -> Result<Self, ModelError> {
        let s = Scenario {
            params,
            grid,
            chargers,
            tasks,
            rho,
            tau,
            utility: UtilityModel::LinearBounded,
        };
        s.validate()?;
        Ok(s)
    }

    /// Number of chargers `n`.
    #[inline]
    pub fn num_chargers(&self) -> usize {
        self.chargers.len()
    }

    /// Number of tasks `m`.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Sum of all task weights — the maximum attainable overall utility.
    pub fn total_weight(&self) -> f64 {
        self.tasks.iter().map(|t| t.weight).sum()
    }

    /// Overall utility normalized by total weight would be `1.0` when every
    /// task is fully charged; this returns the latest end slot of any task,
    /// i.e. the number of slots the schedulers must decide.
    pub fn active_horizon(&self) -> usize {
        self.tasks.iter().map(|t| t.end_slot).max().unwrap_or(0)
    }

    /// Checks every structural invariant of the instance.
    pub fn validate(&self) -> Result<(), ModelError> {
        self.params.validate()?;
        self.grid.validate()?;
        if !(self.rho.is_finite() && (0.0..=1.0).contains(&self.rho)) {
            return Err(ModelError::InvalidDelay("rho must be within [0, 1]"));
        }
        for (i, c) in self.chargers.iter().enumerate() {
            if c.id.index() != i {
                return Err(ModelError::DuplicateId("charger ids must equal indices"));
            }
            if !(c.pos.x.is_finite() && c.pos.y.is_finite()) {
                return Err(ModelError::InvalidCharger {
                    index: i,
                    reason: "position must be finite",
                });
            }
        }
        for (j, t) in self.tasks.iter().enumerate() {
            if t.id.index() != j {
                return Err(ModelError::DuplicateId("task ids must equal indices"));
            }
            t.validate(j)?;
            if t.end_slot > self.grid.num_slots {
                return Err(ModelError::InvalidTask {
                    index: j,
                    reason: "task window exceeds the time grid",
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haste_geometry::{Angle, Vec2};

    fn tiny() -> Scenario {
        Scenario::new(
            ChargingParams::simulation_default(),
            TimeGrid::minutes(10),
            vec![Charger::new(0, Vec2::ZERO)],
            vec![Task::new(
                0,
                Vec2::new(5.0, 0.0),
                Angle::from_degrees(180.0),
                0,
                10,
                1000.0,
                1.0,
            )],
            1.0 / 12.0,
            1,
        )
        .unwrap()
    }

    #[test]
    fn valid_scenario_builds() {
        let s = tiny();
        assert_eq!(s.num_chargers(), 1);
        assert_eq!(s.num_tasks(), 1);
        assert_eq!(s.total_weight(), 1.0);
        assert_eq!(s.active_horizon(), 10);
    }

    #[test]
    fn rejects_task_beyond_grid() {
        let mut s = tiny();
        s.tasks[0].end_slot = 11;
        assert!(matches!(
            s.validate(),
            Err(ModelError::InvalidTask { index: 0, .. })
        ));
    }

    #[test]
    fn rejects_bad_rho() {
        let mut s = tiny();
        s.rho = 1.5;
        assert!(s.validate().is_err());
        s.rho = -0.1;
        assert!(s.validate().is_err());
    }

    #[test]
    fn rejects_misnumbered_ids() {
        let mut s = tiny();
        s.chargers[0].id = crate::ChargerId(5);
        assert!(s.validate().is_err());
        let mut s = tiny();
        s.tasks[0].id = crate::TaskId(2);
        assert!(s.validate().is_err());
    }

    #[test]
    fn utility_model_dispatch() {
        let lin = UtilityModel::LinearBounded;
        assert_eq!(lin.utility(50.0, 100.0), 0.5);
        let con = UtilityModel::ConcavePower(0.5);
        assert!((con.utility(25.0, 100.0) - 0.5).abs() < 1e-12);
        assert!((lin.marginal(50.0, 25.0, 100.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn active_horizon_of_empty_scenario() {
        let mut s = tiny();
        s.tasks.clear();
        assert_eq!(s.active_horizon(), 0);
        assert_eq!(s.total_weight(), 0.0);
    }
}
