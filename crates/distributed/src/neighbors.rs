//! The neighbor graph of a charger network.
//!
//! Two chargers are neighbors iff they can both charge at least one common
//! task (Section 6.1). The paper assumes the communication range is at least
//! twice the charging range, so neighbors can always talk directly.

use haste_model::{CoverageMap, TaskId};

/// Adjacency structure over chargers.
#[derive(Debug, Clone, PartialEq)]
pub struct NeighborGraph {
    adj: Vec<Vec<usize>>,
}

impl NeighborGraph {
    /// Builds the graph from precomputed coverage: an edgeless graph
    /// [extended](NeighborGraph::extend) by every task of the map.
    pub fn build(coverage: &CoverageMap) -> Self {
        let mut graph = NeighborGraph {
            adj: vec![Vec::new(); coverage.num_chargers()],
        };
        graph.extend(coverage, 0);
        graph
    }

    /// Adds the edges contributed by tasks `from_task..coverage.num_tasks()`:
    /// every pair of chargers able to charge one of those tasks becomes
    /// adjacent. Adjacency lists stay sorted and free of duplicates, so
    /// extending task by task yields the same graph as one
    /// [`build`](NeighborGraph::build) over the whole map. Costs
    /// `O(Σⱼ deg(j)² · log n)` over the new tasks.
    pub fn extend(&mut self, coverage: &CoverageMap, from_task: usize) {
        for j in from_task..coverage.num_tasks() {
            let chargers = coverage.chargers_of(TaskId(j as u32));
            for (k, a) in chargers.iter().enumerate() {
                for b in &chargers[k + 1..] {
                    self.link(a.index(), b.index());
                    self.link(b.index(), a.index());
                }
            }
        }
    }

    /// Inserts `b` into `a`'s sorted adjacency list unless already there.
    fn link(&mut self, a: usize, b: usize) {
        let list = &mut self.adj[a];
        if let Err(at) = list.binary_search(&b) {
            list.insert(at, b);
        }
    }

    /// Number of chargers.
    #[inline]
    pub fn num_chargers(&self) -> usize {
        self.adj.len()
    }

    /// Neighbor indices of charger `i`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, i: usize) -> &[usize] {
        &self.adj[i]
    }

    /// Degree of charger `i` (`|N(s_i)|`).
    #[inline]
    pub fn degree(&self, i: usize) -> usize {
        self.adj[i].len()
    }

    /// Average degree over all chargers.
    pub fn average_degree(&self) -> f64 {
        if self.adj.is_empty() {
            return 0.0;
        }
        self.adj.iter().map(Vec::len).sum::<usize>() as f64 / self.adj.len() as f64
    }

    /// Maximum degree.
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haste_geometry::{Angle, Vec2};
    use haste_model::{Charger, ChargerId, ChargingParams, Scenario, Task, TimeGrid};

    /// Three chargers in a row; middle tasks visible to adjacent pairs.
    fn scenario() -> Scenario {
        let params =
            ChargingParams::simulation_default().with_receiving_angle(std::f64::consts::TAU);
        Scenario::new(
            params,
            TimeGrid::minutes(2),
            vec![
                Charger::new(0, Vec2::new(0.0, 0.0)),
                Charger::new(1, Vec2::new(30.0, 0.0)),
                Charger::new(2, Vec2::new(60.0, 0.0)),
            ],
            vec![
                Task::new(0, Vec2::new(15.0, 0.0), Angle::ZERO, 0, 2, 100.0, 1.0),
                Task::new(1, Vec2::new(45.0, 0.0), Angle::ZERO, 0, 2, 100.0, 1.0),
            ],
            0.0,
            0,
        )
        .unwrap()
    }

    #[test]
    fn chain_topology() {
        let s = scenario();
        let g = NeighborGraph::build(&CoverageMap::build(&s));
        assert_eq!(g.num_chargers(), 3);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[1]);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.max_degree(), 2);
        assert!((g.average_degree() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn no_common_tasks_no_edges() {
        let mut s = scenario();
        s.tasks.clear();
        let g = NeighborGraph::build(&CoverageMap::build(&s));
        assert_eq!(g.average_degree(), 0.0);
        for i in 0..3 {
            assert!(g.neighbors(i).is_empty());
        }
    }

    /// The paper's definition, pair by pair: `a ~ b` iff their candidate
    /// lists share a task.
    fn pairwise_neighbors(coverage: &CoverageMap, i: usize) -> Vec<usize> {
        (0..coverage.num_chargers())
            .filter(|&b| coverage.are_neighbors(ChargerId(i as u32), ChargerId(b as u32)))
            .collect()
    }

    #[test]
    fn extend_in_random_chunks_matches_build() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        let n = 8;
        let chargers = (0..n)
            .map(|i| {
                Charger::new(
                    i,
                    Vec2::new(rng.gen_range(0.0..40.0), rng.gen_range(0.0..40.0)),
                )
            })
            .collect();
        let tasks = (0..50)
            .map(|j| {
                let pos = Vec2::new(rng.gen_range(0.0..40.0), rng.gen_range(0.0..40.0));
                let facing = Angle::from_radians(rng.gen_range(0.0..std::f64::consts::TAU));
                Task::new(j, pos, facing, 0, 2, 100.0, 1.0)
            })
            .collect();
        let full = Scenario::new(
            ChargingParams::simulation_default(),
            TimeGrid::minutes(2),
            chargers,
            tasks,
            0.0,
            0,
        )
        .unwrap();
        let full_coverage = CoverageMap::build(&full);
        let full_graph = NeighborGraph::build(&full_coverage);
        assert!(full_graph.max_degree() > 1, "scenario too sparse");
        for i in 0..full.num_chargers() {
            assert_eq!(
                full_graph.neighbors(i),
                pairwise_neighbors(&full_coverage, i)
            );
        }

        let mut grown = full.clone();
        grown.tasks.clear();
        let mut coverage = CoverageMap::build(&grown);
        let mut graph = NeighborGraph::build(&coverage);
        while grown.num_tasks() < full.num_tasks() {
            let chunk = rng
                .gen_range(0..=7usize)
                .min(full.num_tasks() - grown.num_tasks());
            let from = grown.num_tasks();
            grown
                .tasks
                .extend_from_slice(&full.tasks[from..from + chunk]);
            coverage.extend(&grown);
            graph.extend(&coverage, from);
            let built = NeighborGraph::build(&CoverageMap::build(&grown));
            for i in 0..n as usize {
                assert_eq!(
                    graph.neighbors(i),
                    built.neighbors(i),
                    "charger {i} at {from}+{chunk}"
                );
            }
        }
        for i in 0..n as usize {
            assert_eq!(graph.neighbors(i), full_graph.neighbors(i));
        }
    }
}
