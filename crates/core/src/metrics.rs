//! Per-solve instrumentation: oracle-call counters and phase timings.
//!
//! Oracle counters come from the optimizers' [`OptimizerStats`], the
//! coverage-pair counter from the online engine's coverage map, the
//! policy-segment counter from the instance builds; all are exact and
//! thread-count-invariant (they are computed from loop bounds,
//! not sampled). Timings are wall-clock per solver phase; the
//! coverage-build phase happens outside [`crate::solve_offline`] (callers
//! build the [`CoverageMap`] once and reuse it), so solvers leave it zero
//! and the bench binaries fill it in when they time the build themselves.
//!
//! [`CoverageMap`]: haste_model::CoverageMap

use std::fmt;
use std::time::Duration;

use haste_submodular::OptimizerStats;

/// Instrumentation of one solver run (or, for the online loop, the sum over
/// all re-plan events).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolverMetrics {
    /// Worker threads the solve was configured with (0 is normalized to 1).
    pub threads: usize,
    /// Marginal-gain oracle evaluations across all optimizer runs.
    pub oracle_marginals: u64,
    /// Commit operations applied to optimizer states.
    pub oracle_commits: u64,
    /// Charger–task chargeability tests behind the coverage map (filled in
    /// by the online engine, which extends its map as tasks arrive).
    pub coverage_pairs: u64,
    /// Per-charger segment policy families the instance builds derived
    /// (dominant-set extractions over one segment's usable tasks); families
    /// reused from a held policy timeline are not counted.
    pub policy_segments: u64,
    /// Wall-clock spent building the chargeability [`haste_model::CoverageMap`]
    /// (zero unless the caller timed it; see module docs).
    pub coverage_build: Duration,
    /// Wall-clock spent building the HASTE-R instance (dominant-set
    /// extraction and policy families).
    pub instance_build: Duration,
    /// Wall-clock spent inside the greedy / tabular optimizer.
    pub greedy: Duration,
    /// Wall-clock spent materializing the selection into a schedule
    /// (including orientation holding).
    pub rounding: Duration,
    /// Wall-clock spent in the full-fidelity P1 evaluation of the schedule.
    pub p1_eval: Duration,
}

impl SolverMetrics {
    /// Sum of all phase timings.
    pub fn total_time(&self) -> Duration {
        self.coverage_build + self.instance_build + self.greedy + self.rounding + self.p1_eval
    }

    /// Folds the optimizer's oracle counters into these metrics.
    pub fn absorb_stats(&mut self, stats: &OptimizerStats) {
        self.oracle_marginals += stats.marginal_calls;
        self.oracle_commits += stats.commit_calls;
    }

    /// Accumulates another solve's metrics (counters add, timings add; the
    /// thread count is taken from `other` — merged runs share one config).
    pub fn merge(&mut self, other: &SolverMetrics) {
        self.threads = other.threads.max(self.threads);
        self.oracle_marginals += other.oracle_marginals;
        self.oracle_commits += other.oracle_commits;
        self.coverage_pairs += other.coverage_pairs;
        self.policy_segments += other.policy_segments;
        self.coverage_build += other.coverage_build;
        self.instance_build += other.instance_build;
        self.greedy += other.greedy;
        self.rounding += other.rounding;
        self.p1_eval += other.p1_eval;
    }
}

impl fmt::Display for SolverMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        write!(
            f,
            "oracle: {} marginals, {} commits | {} policy segments | \
             coverage {:.1} ms, instance {:.1} ms, greedy {:.1} ms, \
             rounding {:.1} ms, eval {:.1} ms | {} thread{}",
            self.oracle_marginals,
            self.oracle_commits,
            self.policy_segments,
            ms(self.coverage_build),
            ms(self.instance_build),
            ms(self.greedy),
            ms(self.rounding),
            ms(self.p1_eval),
            self.threads.max(1),
            if self.threads.max(1) == 1 { "" } else { "s" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_counters_and_timings() {
        let mut a = SolverMetrics {
            threads: 1,
            oracle_marginals: 10,
            oracle_commits: 2,
            coverage_pairs: 3,
            policy_segments: 9,
            greedy: Duration::from_millis(5),
            ..SolverMetrics::default()
        };
        let b = SolverMetrics {
            threads: 4,
            oracle_marginals: 30,
            oracle_commits: 4,
            coverage_pairs: 5,
            policy_segments: 11,
            instance_build: Duration::from_millis(7),
            ..SolverMetrics::default()
        };
        a.merge(&b);
        assert_eq!(a.threads, 4);
        assert_eq!(a.oracle_marginals, 40);
        assert_eq!(a.oracle_commits, 6);
        assert_eq!(a.coverage_pairs, 8);
        assert_eq!(a.policy_segments, 20);
        assert_eq!(a.total_time(), Duration::from_millis(12));
    }

    #[test]
    fn display_is_single_line() {
        let m = SolverMetrics::default();
        let s = format!("{m}");
        assert!(!s.contains('\n'));
        assert!(s.contains("marginals"));
        assert!(s.contains("policy segments"));
    }
}
