//! The HASTE algorithms — the paper's primary contribution.
//!
//! * [`extract_dominant_sets`] — Algorithm 1: reduce the continuous
//!   orientation space of a charger to its finitely many maximal covered
//!   task sets,
//! * [`HasteRInstance`] — the reformulated problem RP2: a monotone
//!   submodular objective over a partition-matroid ground set of
//!   (charger, slot, dominant set) scheduling policies,
//! * [`solve_offline`] — Algorithm 2: the centralized offline scheduler
//!   (TabularGreedy, `(1 − ρ)(1 − 1/e)` approximation),
//! * [`solve_baseline`] — the GreedyUtility / GreedyCover comparison
//!   algorithms,
//! * [`solve_exact`] — brute-force optimum for small instances.
//!
//! The distributed online algorithm (Algorithm 3) lives in
//! `haste-distributed`, built on the same instance machinery.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baselines;
mod dominant;
mod emr_solver;
mod exact;
mod instance;
mod metrics;
mod offline;

pub use baselines::{solve_baseline, solve_baseline_with_delay, BaselineKind};
pub use dominant::{extract_dominant_sets, DominantSet};
pub use emr_solver::{solve_offline_emr, EmrOptions, EmrResult};
pub use exact::{solve_exact, BruteForceError};
pub use instance::{
    DominantScope, EnergyState, HasteRInstance, InstanceOptions, Policy, PolicyTimelines,
};
pub use metrics::SolverMetrics;
pub use offline::{solve_offline, OfflineConfig, SolveResult};
