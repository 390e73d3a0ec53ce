//! End-to-end and per-layer benchmark of the HASTE scheduler.
//!
//! Three workloads drive the system through its public APIs only:
//!
//! * `replan` — an in-process 2×1 router, binary framing with 16-task
//!   batches, no WAL, 64 chargers: engine re-planning at `TICK` and the
//!   `UTILITY?` read path do almost all the work;
//! * `durable_ingest` — the same router with a write-ahead log on disk
//!   (every-tick fsync, default checkpoint threshold), text protocol with
//!   one task per `SUBMIT`, 8 chargers: the per-request front door and
//!   the WAL do the work, the engine is light;
//! * `paper_sweep` — the solver pipeline as a library, no service: the
//!   paper-default scenario through `CoverageMap::build`, `solve_offline`
//!   and `solve_online`.
//!
//! `--trace 0` prints the end-to-end metrics ([`END_TO_END`]); `--trace 1`
//! adds a traced run and prints the per-layer metrics ([`PER_LAYER`]).
//! The last line of standard output is the JSON result; the human report
//! goes to standard error.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::path::Path;

pub mod host;
pub mod service;
pub mod stats;
pub mod sweep;
pub mod trace;

/// A metric's name and unit.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Stable metric name.
    pub name: &'static str,
    /// Unit it is reported in.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics, every workload, untraced.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("tasks_per_s", "1/s"),
    m("submit_p50_us", "us"),
    m("tick_p50_ms", "ms"),
    m("tick_p90_ms", "ms"),
    m("query_p50_ms", "ms"),
    m("query_p90_ms", "ms"),
    m("utility", "utility"),
    m("peak_rss_mb", "MiB"),
    m("ok_ratio", "ratio"),
];

/// Per-layer metrics of the traced run. A layer the workload does not
/// cross reports 0.
pub const PER_LAYER: &[Metric] = &[
    m("engine.submit_us", "us"),
    m("engine.tick_ms", "ms"),
    m("engine.coverage_ms", "ms"),
    m("engine.instance_ms", "ms"),
    m("engine.negotiation_ms", "ms"),
    m("engine.rounding_ms", "ms"),
    m("engine.oracle_marginals", "count"),
    m("engine.negotiation_messages", "count"),
    m("shard.utility_parts_ms", "ms"),
    m("model.coverage_build_ms", "ms"),
    m("model.eval_ms", "ms"),
    m("wal.append_us", "us"),
    m("wal.fsync_ms", "ms"),
    m("wal.checkpoint_render_ms", "ms"),
    m("wal.checkpoint_write_ms", "ms"),
    m("wal.records", "count"),
    m("wal.fsyncs", "count"),
    m("wal.checkpoints", "count"),
    m("wal.log_bytes", "bytes"),
    m("wal.checkpoint_bytes", "bytes"),
    m("proto.parse_us", "us"),
    m("router.submit_server_us", "us"),
    m("router.tick_server_ms", "ms"),
    m("router.query_server_ms", "ms"),
    m("wire.submit_us", "us"),
    m("router.submit_unattributed_us", "us"),
    m("router.tick_unattributed_ms", "ms"),
    m("router.query_unattributed_ms", "ms"),
    m("share.submit_unattributed", "ratio"),
    m("share.tick_unattributed", "ratio"),
    m("share.query_unattributed", "ratio"),
    m("core.offline_solve_ms", "ms"),
    m("core.instance_ms", "ms"),
    m("submodular.greedy_ms", "ms"),
    m("core.rounding_ms", "ms"),
    m("core.oracle_marginals", "count"),
    m("core.oracle_commits", "count"),
    m("distributed.online_solve_ms", "ms"),
    m("distributed.instance_ms", "ms"),
    m("distributed.negotiation_ms", "ms"),
    m("distributed.messages", "count"),
    m("distributed.rounds", "count"),
    m("share.offline_unattributed", "ratio"),
    m("share.online_unattributed", "ratio"),
    m("overhead.setup_s", "s"),
    m("overhead.tasks_per_s", "1/s"),
    m("overhead.submit_p50_us", "us"),
    m("overhead.tick_p50_ms", "ms"),
    m("overhead.tick_p90_ms", "ms"),
    m("overhead.query_p50_ms", "ms"),
    m("overhead.query_p90_ms", "ms"),
    m("overhead.utility", "utility"),
    m("overhead.peak_rss_mb", "MiB"),
    m("overhead.ok_ratio", "ratio"),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// What a run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations refused or failed.
    pub failed: u64,
    /// [`END_TO_END`] values (untraced) or [`PER_LAYER`] values (traced).
    pub metrics: Values,
    /// Report lines for standard error.
    pub notes: Vec<String>,
}

/// Why a run produced no numbers.
#[derive(Debug)]
pub enum Failure {
    /// The run could not be set up or driven (a refused host, a transport
    /// error, a missing directory).
    Setup(String),
    /// The run finished but a correctness check failed.
    Incorrect {
        /// Operations attempted.
        attempted: u64,
        /// Operations counted as failed.
        failed: u64,
        /// The failed check.
        reason: String,
    },
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Engine re-planning and `UTILITY?` reads through the router.
    Replan,
    /// Text-protocol ingest into a durable router.
    DurableIngest,
    /// The library solver pipeline on the paper-default scenario.
    PaperSweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Replan,
        Workload::DurableIngest,
        Workload::PaperSweep,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Replan => "replan",
            Workload::DurableIngest => "durable_ingest",
            Workload::PaperSweep => "paper_sweep",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's sizes.
    Full,
    /// Tiny inputs for the benchmark's own tests.
    Smoke,
}

/// The service shape of a service workload.
pub fn service_spec(workload: Workload, size: Size) -> Option<service::ServiceSpec> {
    let full = size == Size::Full;
    match workload {
        Workload::Replan => Some(service::ServiceSpec {
            name: workload.name(),
            chargers: if full { 64 } else { 8 },
            field: 200.0,
            cells: (2, 1),
            slots: if full { 128 } else { 24 },
            tasks: if full { 32_000 } else { 600 },
            batch: Some(16),
            durable: false,
        }),
        Workload::DurableIngest => Some(service::ServiceSpec {
            name: workload.name(),
            chargers: 8,
            field: 200.0,
            cells: (2, 1),
            slots: if full { 128 } else { 24 },
            tasks: if full { 40_000 } else { 1_500 },
            batch: None,
            durable: true,
        }),
        Workload::PaperSweep => None,
    }
}

/// The sweep shape of `paper_sweep`.
pub fn sweep_spec(size: Size) -> sweep::SweepSpec {
    let mut scenario = haste_sim::ScenarioSpec::paper_default();
    if size == Size::Smoke {
        scenario.num_chargers = 8;
        scenario.num_tasks = 24;
        scenario.duration_range = (2, 10);
        scenario.release_horizon = 10;
    }
    sweep::SweepSpec {
        pool: if size == Size::Full { 40 } else { 12 },
        scenario,
    }
}

/// Runs one workload. `out_dir` receives the span file of a traced run
/// and the WAL directory of a durable one.
pub fn run(
    workload: Workload,
    size: Size,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
) -> Result<Outcome, Failure> {
    std::fs::create_dir_all(out_dir)
        .map_err(|e| Failure::Setup(format!("{}: {e}", out_dir.display())))?;
    let outcome = match service_spec(workload, size) {
        Some(spec) => service::run(&spec, seed, seconds, trace, out_dir)?,
        None => sweep::run(&sweep_spec(size), seed, seconds, trace, out_dir)?,
    };
    let expected = if trace { PER_LAYER } else { END_TO_END };
    for metric in expected {
        match outcome.metrics.get(metric.name) {
            Some(value) if value.is_finite() => {}
            other => {
                return Err(Failure::Setup(format!(
                    "metric {} was not measured ({other:?})",
                    metric.name
                )))
            }
        }
    }
    if outcome.metrics.len() != expected.len() {
        return Err(Failure::Setup(
            "a run emitted an undeclared metric".to_string(),
        ));
    }
    Ok(outcome)
}

/// Sets every per-layer metric a workload did not measure to 0: the
/// workload does no work in that layer.
pub(crate) fn fill_layer_defaults(values: &mut Values) {
    for metric in PER_LAYER {
        values.entry(metric.name).or_insert(0.0);
    }
}

/// Tracing overhead: traced value minus untraced value of every
/// end-to-end metric.
pub(crate) fn insert_overhead(
    values: &mut Values,
    untraced: &Values,
    traced: &Values,
    notes: &mut Vec<String>,
) {
    let mut line = String::from("tracing overhead (traced - untraced):");
    for metric in END_TO_END {
        let name = PER_LAYER
            .iter()
            .find(|m| m.name.strip_prefix("overhead.") == Some(metric.name))
            .expect("every end-to-end metric has an overhead entry")
            .name;
        let delta = traced.get(metric.name).copied().unwrap_or(0.0)
            - untraced.get(metric.name).copied().unwrap_or(0.0);
        values.insert(name, delta);
        line.push_str(&format!(" {}={delta:.6}", metric.name));
    }
    notes.push(line);
}

/// The result line: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {name: {"value": …, "unit": …}}}`. Metrics print in table
/// order with Rust's shortest round-trip float formatting.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(Metric, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(metric, value)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name,
                json_number(*value),
                metric.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite float as a JSON number (an integral value keeps a `.0`).
fn json_number(value: f64) -> String {
    let text = format!("{value}");
    if text.contains('.') {
        text
    } else {
        format!("{text}.0")
    }
}

/// Orders an outcome's values by the table that declares them.
pub fn ordered(trace: bool, values: &Values) -> Vec<(Metric, f64)> {
    let table = if trace { PER_LAYER } else { END_TO_END };
    table
        .iter()
        .map(|metric| {
            (
                *metric,
                values.get(metric.name).copied().unwrap_or(f64::NAN),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(metric.name), "duplicate {}", metric.name);
            assert!(metric.name.len() <= 64);
            assert!(metric.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(metric
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
            assert!(metric.unit.len() <= 16);
        }
    }

    #[test]
    fn result_json_is_one_line_with_the_four_keys() {
        let line = result_json(
            true,
            3,
            0,
            &[(m("a_ms", "ms"), 1.5), (m("b", "count"), 2.0)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a_ms\": \
             {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
    }
}
