//! Random scenario generation matching the paper's evaluation setups.

use haste_geometry::{Angle, Vec2, TAU};
use haste_model::{Charger, ChargingParams, Scenario, Task, TimeGrid};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How task positions are placed in the field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Placement {
    /// Uniform over the square field (the default of Section 7.1).
    Uniform,
    /// 2D Gaussian centered at the field midpoint with the given standard
    /// deviations, clamped to the field (the insight study of Fig. 17).
    Gaussian {
        /// Standard deviation of the x coordinate, in meters.
        sigma_x: f64,
        /// Standard deviation of the y coordinate, in meters.
        sigma_y: f64,
    },
}

/// A recipe for random scenarios; `generate(seed)` turns it into a concrete
/// [`Scenario`]. Field values mirror the paper's Section 7.1 defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Charging model constants.
    pub params: ChargingParams,
    /// Side length of the square field in meters.
    pub field: f64,
    /// Number of chargers `n` (placed uniformly).
    pub num_chargers: usize,
    /// Number of tasks `m`.
    pub num_tasks: usize,
    /// Required energy range `[lo, hi]` in joules.
    pub energy_range: (f64, f64),
    /// Task duration range `[lo, hi]` in slots (inclusive).
    pub duration_range: (usize, usize),
    /// Release slots are drawn uniformly from `[0, release_horizon)`.
    /// The paper fixes durations but not releases; see DESIGN.md §6.
    pub release_horizon: usize,
    /// Slot duration `T_s` in seconds.
    pub slot_seconds: f64,
    /// Switching delay `ρ`.
    pub rho: f64,
    /// Rescheduling delay `τ` in slots.
    pub tau: usize,
    /// Per-task weight; `None` means `1/m`.
    pub weight: Option<f64>,
    /// Task placement distribution.
    pub placement: Placement,
}

impl ScenarioSpec {
    /// The paper's default simulation setup (Section 7.1): 50 m × 50 m,
    /// `n = 50`, `m = 200`, `E_j ∈ [5, 20] kJ`, durations 10–120 min,
    /// `T_s` = 1 min, `ρ = 1/12`, `τ = 1`, `w_j = 1/200`.
    ///
    /// ```
    /// let scenario = haste_sim::ScenarioSpec::paper_default().generate(7);
    /// assert_eq!(scenario.num_chargers(), 50);
    /// assert_eq!(scenario.num_tasks(), 200);
    /// scenario.validate().unwrap();
    /// ```
    pub fn paper_default() -> Self {
        ScenarioSpec {
            params: ChargingParams::simulation_default(),
            field: 50.0,
            num_chargers: 50,
            num_tasks: 200,
            energy_range: (5_000.0, 20_000.0),
            duration_range: (10, 120),
            release_horizon: 120,
            slot_seconds: 60.0,
            rho: 1.0 / 12.0,
            tau: 1,
            weight: None,
            placement: Placement::Uniform,
        }
    }

    /// The paper's small-scale setup used against the brute-force optimum
    /// (Section 7.3.1): 10 m × 10 m, `n = 5`, `m = 10`,
    /// `E_j ∈ [200, 800] J`, durations 1–5 min — tightened to 2–5 so that
    /// every task honors the paper's standing assumption
    /// `t_e − t_r ≥ 2τ·T_s` (Section 3.1) at `τ = 1`.
    pub fn small_scale() -> Self {
        ScenarioSpec {
            params: ChargingParams::simulation_default(),
            field: 10.0,
            num_chargers: 5,
            num_tasks: 10,
            energy_range: (200.0, 800.0),
            duration_range: (2, 5),
            release_horizon: 5,
            slot_seconds: 60.0,
            rho: 1.0 / 12.0,
            tau: 1,
            weight: None,
            placement: Placement::Uniform,
        }
    }

    /// Generates the concrete scenario for one topology seed.
    pub fn generate(&self, seed: u64) -> Scenario {
        let mut rng = StdRng::seed_from_u64(seed);
        let weight = self.weight.unwrap_or(1.0 / self.num_tasks.max(1) as f64);

        let chargers: Vec<Charger> = (0..self.num_chargers)
            .map(|i| {
                Charger::new(
                    i as u32,
                    Vec2::new(
                        rng.gen_range(0.0..=self.field),
                        rng.gen_range(0.0..=self.field),
                    ),
                )
            })
            .collect();

        let tasks: Vec<Task> = (0..self.num_tasks)
            .map(|j| {
                let pos = self.sample_position(&mut rng);
                let facing = Angle::from_radians(rng.gen_range(0.0..TAU));
                let release = if self.release_horizon == 0 {
                    0
                } else {
                    rng.gen_range(0..self.release_horizon)
                };
                let duration = rng.gen_range(self.duration_range.0..=self.duration_range.1);
                let energy = rng.gen_range(self.energy_range.0..=self.energy_range.1);
                Task::new(
                    j as u32,
                    pos,
                    facing,
                    release,
                    release + duration,
                    energy,
                    weight,
                )
            })
            .collect();

        let num_slots = tasks.iter().map(|t| t.end_slot).max().unwrap_or(1);
        let grid = TimeGrid::new(self.slot_seconds, num_slots.max(1));
        let mut scenario = Scenario::new(self.params, grid, chargers, tasks, self.rho, self.tau)
            .expect("spec generates valid scenarios");
        scenario.tau = self.tau;
        scenario
    }

    fn sample_position(&self, rng: &mut StdRng) -> Vec2 {
        match self.placement {
            Placement::Uniform => Vec2::new(
                rng.gen_range(0.0..=self.field),
                rng.gen_range(0.0..=self.field),
            ),
            Placement::Gaussian { sigma_x, sigma_y } => {
                let mu = self.field / 2.0;
                // Rejection sampling: clamping would pile mass onto the
                // field border and distort the spread study (Fig. 17).
                for _ in 0..64 {
                    let x = mu + gaussian(rng) * sigma_x;
                    let y = mu + gaussian(rng) * sigma_y;
                    if (0.0..=self.field).contains(&x) && (0.0..=self.field).contains(&y) {
                        return Vec2::new(x, y);
                    }
                }
                Vec2::new(mu, mu)
            }
        }
    }
}

/// A standard normal draw via Box–Muller (rand_distr is outside the
/// dependency allowlist; two uniforms suffice).
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_generates_valid_scenarios() {
        let spec = ScenarioSpec::paper_default();
        for seed in 0..3 {
            let s = spec.generate(seed);
            s.validate().unwrap();
            assert_eq!(s.num_chargers(), 50);
            assert_eq!(s.num_tasks(), 200);
            assert!((s.total_weight() - 1.0).abs() < 1e-9);
            assert!(s.grid.num_slots <= 120 + 120);
            for t in &s.tasks {
                assert!(t.duration_slots() >= 10 && t.duration_slots() <= 120);
                assert!(t.required_energy >= 5_000.0 && t.required_energy <= 20_000.0);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = ScenarioSpec::small_scale();
        let a = spec.generate(7);
        let b = spec.generate(7);
        assert_eq!(a.chargers, b.chargers);
        assert_eq!(a.tasks, b.tasks);
        let c = spec.generate(8);
        assert_ne!(a.tasks, c.tasks);
    }

    #[test]
    fn gaussian_placement_concentrates() {
        let mut spec = ScenarioSpec::paper_default();
        spec.placement = Placement::Gaussian {
            sigma_x: 1.0,
            sigma_y: 1.0,
        };
        let s = spec.generate(1);
        let mu = spec.field / 2.0;
        let mean_dist = s
            .tasks
            .iter()
            .map(|t| t.device_pos.distance(Vec2::new(mu, mu)))
            .sum::<f64>()
            / s.tasks.len() as f64;
        assert!(mean_dist < 3.0, "tight Gaussian spread, got {mean_dist}");

        spec.placement = Placement::Gaussian {
            sigma_x: 50.0,
            sigma_y: 50.0,
        };
        let wide = spec.generate(1);
        let wide_dist = wide
            .tasks
            .iter()
            .map(|t| t.device_pos.distance(Vec2::new(mu, mu)))
            .sum::<f64>()
            / wide.tasks.len() as f64;
        assert!(wide_dist > mean_dist);
    }

    #[test]
    fn spec_roundtrips_check() {
        // PartialEq-based sanity: cloning preserves the recipe.
        let spec = ScenarioSpec::paper_default();
        assert_eq!(spec, spec.clone());
    }

    #[test]
    fn gaussian_helper_is_roughly_standard() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
