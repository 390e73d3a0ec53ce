//! Precomputed charger ↔ task chargeability.

use haste_geometry::Angle;

use crate::{power, Charger, ChargerId, Scenario, Task, TaskId};

/// A task chargeable by a given charger, with the quantities the schedulers
/// need precomputed: the azimuth `ψ_ij` the charger must face, and the
/// range-only power `P_r(s_i, o_j)` it would deliver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateTask {
    /// The task's id.
    pub task: TaskId,
    /// Azimuth of the device from the charger.
    pub azimuth: Angle,
    /// `P_r(s_i, o_j)` in watts (positive by construction).
    pub power: f64,
}

/// For every charger, the set of tasks it can charge (the paper's `T_i`) and
/// the reverse index (for every task, the chargers that can reach it).
///
/// Chargeability is orientation-independent (distance and receiving-sector
/// tests only), so this map is computed once per scenario and reused by
/// dominant-set extraction, the objective oracles, and the neighbor graph of
/// the distributed algorithm. Every entry is a pure function of one
/// charger–task pair, so a scenario that only ever appends tasks can grow
/// its map with [`CoverageMap::extend`] instead of rebuilding it.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageMap {
    per_charger: Vec<Vec<CandidateTask>>,
    per_task: Vec<Vec<ChargerId>>,
}

impl CoverageMap {
    /// Builds the map for a scenario. `O(n · m)` pair tests.
    pub fn build(scenario: &Scenario) -> Self {
        Self::build_par(scenario, 1)
    }

    /// Like [`CoverageMap::build`], with the per-charger pair tests spread
    /// over `threads` workers. Chargers are independent rows of the map and
    /// each row is computed in full by one worker, so the result is
    /// identical to the sequential build for every thread count.
    pub fn build_par(scenario: &Scenario, threads: usize) -> Self {
        let m = scenario.num_tasks();
        let rows = haste_parallel::par_map(&scenario.chargers, threads, |_, charger| {
            candidates(scenario, charger, &scenario.tasks).collect::<Vec<_>>()
        });
        // Reverse index, derived sequentially so charger ids stay sorted.
        let mut per_task = vec![Vec::new(); m];
        for (charger, row) in scenario.chargers.iter().zip(&rows) {
            for cand in row {
                per_task[cand.task.index()].push(charger.id);
            }
        }
        CoverageMap {
            per_charger: rows,
            per_task,
        }
    }

    /// Appends the tasks `scenario.tasks[self.num_tasks()..]` to the map and
    /// returns the number of charger–task pairs tested (`n` per new task).
    ///
    /// `scenario` must be the scenario this map was built over, grown only
    /// by appending tasks (same chargers, same parameters, task ids equal to
    /// their indices). The result then equals [`CoverageMap::build`] over
    /// the grown scenario bit for bit: each row is filtered in task order,
    /// so new candidates land after the old ones, and the reverse index is
    /// filled in charger order exactly as `build` fills it.
    pub fn extend(&mut self, scenario: &Scenario) -> usize {
        debug_assert_eq!(self.per_charger.len(), scenario.num_chargers());
        let from = self.num_tasks();
        let new_tasks = &scenario.tasks[from..];
        self.per_task.resize(scenario.num_tasks(), Vec::new());
        for (charger, row) in scenario.chargers.iter().zip(&mut self.per_charger) {
            for cand in candidates(scenario, charger, new_tasks) {
                self.per_task[cand.task.index()].push(charger.id);
                row.push(cand);
            }
        }
        scenario.num_chargers() * new_tasks.len()
    }

    /// Tasks chargeable by charger `i` (the paper's `T_i`).
    #[inline]
    pub fn tasks_of(&self, charger: ChargerId) -> &[CandidateTask] {
        &self.per_charger[charger.index()]
    }

    /// Chargers able to charge task `j`.
    #[inline]
    pub fn chargers_of(&self, task: TaskId) -> &[ChargerId] {
        &self.per_task[task.index()]
    }

    /// Number of chargers in the map.
    #[inline]
    pub fn num_chargers(&self) -> usize {
        self.per_charger.len()
    }

    /// Number of tasks in the map.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.per_task.len()
    }

    /// Whether two chargers are neighbors in the paper's sense: they can
    /// both charge at least one common task.
    pub fn are_neighbors(&self, a: ChargerId, b: ChargerId) -> bool {
        if a == b {
            return false;
        }
        let (ta, tb) = (&self.per_charger[a.index()], &self.per_charger[b.index()]);
        // Candidate lists are sorted by task id by construction.
        let (mut ia, mut ib) = (0, 0);
        while ia < ta.len() && ib < tb.len() {
            match ta[ia].task.cmp(&tb[ib].task) {
                std::cmp::Ordering::Less => ia += 1,
                std::cmp::Ordering::Greater => ib += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }
}

/// The charger–task pair tests of one charger against `tasks`, in task
/// order: the candidates it can charge. Both [`CoverageMap::build_par`] and
/// [`CoverageMap::extend`] go through here, so the geometry lives once.
fn candidates<'a>(
    scenario: &'a Scenario,
    charger: &'a Charger,
    tasks: &'a [Task],
) -> impl Iterator<Item = CandidateTask> + 'a {
    let params = &scenario.params;
    tasks
        .iter()
        .filter(move |task| power::chargeable(params, charger, task))
        .map(move |task| {
            let d = charger.pos.distance(task.device_pos);
            CandidateTask {
                task: task.id,
                azimuth: power::azimuth_to(charger, task),
                power: power::range_power(params, d)
                    * power::receiver_gain_factor(params, charger, task),
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Charger, ChargingParams, Task, TimeGrid};
    use haste_geometry::Vec2;

    fn scenario() -> Scenario {
        // Two chargers west and east of two devices; devices face west, so
        // only the west charger can charge them. A third far-away charger
        // reaches nothing.
        Scenario::new(
            ChargingParams::simulation_default(),
            TimeGrid::minutes(10),
            vec![
                Charger::new(0, Vec2::new(0.0, 0.0)),
                Charger::new(1, Vec2::new(20.0, 0.0)),
                Charger::new(2, Vec2::new(500.0, 500.0)),
            ],
            vec![
                Task::new(
                    0,
                    Vec2::new(10.0, 0.0),
                    Angle::from_degrees(180.0),
                    0,
                    10,
                    1000.0,
                    1.0,
                ),
                Task::new(
                    1,
                    Vec2::new(10.0, 1.0),
                    Angle::from_degrees(180.0),
                    0,
                    10,
                    1000.0,
                    1.0,
                ),
            ],
            0.0,
            0,
        )
        .unwrap()
    }

    #[test]
    fn coverage_respects_receiving_sector() {
        let s = scenario();
        let map = CoverageMap::build(&s);
        assert_eq!(map.tasks_of(ChargerId(0)).len(), 2);
        assert_eq!(map.tasks_of(ChargerId(1)).len(), 0);
        assert_eq!(map.tasks_of(ChargerId(2)).len(), 0);
        assert_eq!(map.chargers_of(TaskId(0)), &[ChargerId(0)]);
    }

    #[test]
    fn candidate_fields_are_consistent() {
        let s = scenario();
        let map = CoverageMap::build(&s);
        let c = &map.tasks_of(ChargerId(0))[0];
        assert_eq!(c.task, TaskId(0));
        assert!((c.azimuth.degrees() - 0.0).abs() < 1e-9);
        assert!((c.power - 10_000.0 / 2500.0).abs() < 1e-9);
    }

    #[test]
    fn neighbor_relation() {
        // Put both chargers where they can reach task 0.
        let mut s = scenario();
        s.tasks[0].device_facing = Angle::from_degrees(0.0); // faces east charger
        let map = CoverageMap::build(&s);
        // Task 0 now reachable only from charger 1; task 1 still only from 0.
        assert!(!map.are_neighbors(ChargerId(0), ChargerId(1)));
        assert!(!map.are_neighbors(ChargerId(0), ChargerId(0)));

        // Device between the two and 120° receiving angle facing north-ish
        // wouldn't cover both; instead make it face halfway using a full
        // receiving circle.
        let mut s2 = scenario();
        s2.params.receiving_angle = std::f64::consts::TAU;
        let map2 = CoverageMap::build(&s2);
        assert!(map2.are_neighbors(ChargerId(0), ChargerId(1)));
        assert!(map2.are_neighbors(ChargerId(1), ChargerId(0)));
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let s = scenario();
        let seq = CoverageMap::build(&s);
        let par = CoverageMap::build_par(&s, 4);
        assert_eq!(seq.per_charger, par.per_charger);
        assert_eq!(seq.per_task, par.per_task);
    }

    /// A seeded scatter of chargers and tasks dense enough that most tasks
    /// are reachable by several chargers.
    fn random_scenario(seed: u64, n: usize, m: usize) -> Scenario {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let point =
            |rng: &mut StdRng| Vec2::new(rng.gen_range(0.0..40.0), rng.gen_range(0.0..40.0));
        let chargers = (0..n)
            .map(|i| Charger::new(i as u32, point(&mut rng)))
            .collect();
        let tasks = (0..m)
            .map(|j| {
                let pos = point(&mut rng);
                let facing = Angle::from_radians(rng.gen_range(0.0..std::f64::consts::TAU));
                Task::new(j as u32, pos, facing, 0, 4, 1000.0, 1.0)
            })
            .collect();
        Scenario::new(
            ChargingParams::simulation_default(),
            TimeGrid::minutes(4),
            chargers,
            tasks,
            0.0,
            0,
        )
        .unwrap()
    }

    /// `full` truncated to its first `k` tasks.
    fn prefix(full: &Scenario, k: usize) -> Scenario {
        let mut s = full.clone();
        s.tasks.truncate(k);
        s
    }

    /// Grows a map chunk by chunk; after every `extend` it must equal a
    /// fresh build over the same prefix, per charger and per task.
    fn assert_extend_matches_build(full: &Scenario, chunks: &[usize]) {
        let mut map = CoverageMap::build(&prefix(full, 0));
        let mut k = 0;
        for &chunk in chunks {
            k += chunk;
            let grown = prefix(full, k);
            let pairs = map.extend(&grown);
            assert_eq!(pairs, full.num_chargers() * chunk);
            let built = CoverageMap::build(&grown);
            for i in 0..full.num_chargers() {
                let id = ChargerId(i as u32);
                assert_eq!(map.tasks_of(id), built.tasks_of(id), "charger {i} at {k}");
            }
            for j in 0..k {
                let id = TaskId(j as u32);
                assert_eq!(
                    map.chargers_of(id),
                    built.chargers_of(id),
                    "task {j} at {k}"
                );
            }
            assert_eq!(map, built);
        }
        assert_eq!(k, full.num_tasks());
    }

    #[test]
    fn extend_in_random_chunks_matches_build() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        for seed in 0..4 {
            let full = random_scenario(seed, 7, 60);
            assert!(
                (0..60).any(|j| CoverageMap::build(&full).chargers_of(TaskId(j)).len() > 1),
                "scenario too sparse to exercise the reverse index"
            );
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let mut chunks = vec![0];
            let mut left = full.num_tasks();
            while left > 0 {
                let chunk = rng.gen_range(0..=9usize).min(left);
                chunks.push(chunk);
                left -= chunk;
            }
            assert_extend_matches_build(&full, &chunks);
            // One chunk of every task, and an empty extend afterwards.
            assert_extend_matches_build(&full, &[full.num_tasks(), 0]);
        }
    }

    use haste_geometry::Angle;
}
