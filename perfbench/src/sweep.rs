//! The `paper_sweep` workload: the paper's solver pipeline as a library,
//! no service. Each scenario of a seeded pool goes through
//! `CoverageMap::build`, `solve_offline` (Alg. 2) and `solve_online`
//! (Alg. 3) with library defaults, and both schedules are read back with
//! the P1 and HASTE-R evaluations.
//!
//! Operation mapping onto the shared metric names: `submit` is the
//! coverage build that admits a scenario's tasks into the model, `tick`
//! is planning one scenario (offline plus online solve), and `query` is
//! reading one schedule's utility (P1 plus HASTE-R evaluation — the
//! computation behind the service's `UTILITY?`).

use std::path::Path;
use std::time::{Duration, Instant};

use haste_core::{solve_offline, OfflineConfig, SolveResult};
use haste_distributed::{solve_online, OnlineConfig, OnlineResult};
use haste_model::{evaluate, evaluate_relaxed, CoverageMap, EvalOptions, Scenario};
use haste_sim::ScenarioSpec;

use crate::service::check_eq10;
use crate::stats::{mean, nearest_rank, quantile, tail};
use crate::trace::Tracer;
use crate::{host, Failure, Outcome, Values};

/// Pool-generation repeats; `setup_s` is their lower quartile (a
/// sub-millisecond figure that interference only ever inflates).
const SETUP_PROBES: usize = 25;

/// Shape of the sweep.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Scenarios in the seeded pool, cycled through while measuring.
    pub pool: usize,
    /// Scenario recipe (the paper default for the real workload).
    pub scenario: ScenarioSpec,
}

/// Deterministic outcome of one scenario's pipeline.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    offline_bits: (u64, u64),
    online_bits: (u64, u64),
    offline_marginals: u64,
    offline_commits: u64,
    online_messages: u64,
    online_rounds: u64,
}

/// One pass of the pipeline over one scenario.
struct Pass {
    coverage: Duration,
    offline_wall: Duration,
    online_wall: Duration,
    queries: [Duration; 2],
    offline: SolveResult,
    online: OnlineResult,
    reads: [(f64, f64); 2],
}

fn run_pass(scenario: &Scenario, tracer: Option<&mut Tracer>, op: u64) -> Pass {
    let mut local = Tracer::new();
    let tracer = tracer.unwrap_or(&mut local);
    let t0 = tracer.now();
    let coverage = std::hint::black_box(CoverageMap::build(scenario));
    let t1 = tracer.now();
    tracer.record("sweep.coverage", t0, t1, None, op);
    let offline = solve_offline(scenario, &coverage, &OfflineConfig::default());
    let t2 = tracer.now();
    tracer.record("core.offline_solve", t1, t2, None, op);
    let online = solve_online(scenario, &coverage, &OnlineConfig::default());
    let t3 = tracer.now();
    tracer.record("distributed.online_solve", t2, t3, None, op);
    let mut reads = [(0.0, 0.0); 2];
    let mut queries = [Duration::ZERO; 2];
    for (i, schedule) in [&offline.schedule, &online.schedule]
        .into_iter()
        .enumerate()
    {
        let start = tracer.now();
        let u = evaluate(scenario, &coverage, schedule, EvalOptions::default()).total_utility;
        let u_r = evaluate_relaxed(scenario, &coverage, schedule).total_utility;
        let end = tracer.now();
        tracer.record("sweep.query", start, end, None, op);
        reads[i] = (u, u_r);
        queries[i] = Duration::from_nanos(end - start);
    }
    Pass {
        coverage: Duration::from_nanos(t1 - t0),
        offline_wall: Duration::from_nanos(t2 - t1),
        online_wall: Duration::from_nanos(t3 - t2),
        queries,
        offline,
        online,
        reads,
    }
}

impl Pass {
    fn fingerprint(&self) -> Fingerprint {
        Fingerprint {
            offline_bits: (self.reads[0].0.to_bits(), self.reads[0].1.to_bits()),
            online_bits: (self.reads[1].0.to_bits(), self.reads[1].1.to_bits()),
            offline_marginals: self.offline.metrics.oracle_marginals,
            offline_commits: self.offline.metrics.oracle_commits,
            online_messages: self.online.stats.messages,
            online_rounds: self.online.stats.rounds,
        }
    }

    /// Eq. 10 for both results, and the read-back utility must equal the
    /// solvers' own P1 evaluation bit for bit.
    fn check(&self, rho: f64) -> Result<(), String> {
        for (name, (u, u_r), own) in [
            ("offline", self.reads[0], self.offline.report.total_utility),
            ("online", self.reads[1], self.online.report.total_utility),
        ] {
            check_eq10(u, u_r, rho).map_err(|e| format!("{name}: {e}"))?;
            if u.to_bits() != own.to_bits() {
                return Err(format!("{name}: read-back utility {u} != solver's {own}"));
            }
        }
        Ok(())
    }
}

/// Generates the seed's scenario pool.
fn pool(spec: &SweepSpec, seed: u64) -> Vec<Scenario> {
    (0..spec.pool as u64)
        .map(|i| {
            spec.scenario
                .generate(seed.wrapping_mul(1_000_003).wrapping_add(i))
        })
        .collect()
}

/// Runs the sweep for at least `seconds` of measured pipeline time and at
/// least one pass over the pool.
pub fn run(
    spec: &SweepSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
) -> Result<Outcome, Failure> {
    let mut setup_samples = Vec::with_capacity(SETUP_PROBES);
    let mut scenarios = Vec::new();
    for _ in 0..SETUP_PROBES {
        let start = Instant::now();
        scenarios = std::hint::black_box(pool(spec, seed));
        setup_samples.push(start.elapsed().as_secs_f64());
    }

    let mut passes: Vec<(usize, Pass)> = Vec::new();
    let mut measured = 0.0;
    let mut i = 0usize;
    // Read after the first pass over the pool, so every run measures the
    // same work.
    let mut peak_rss_mb = 0.0;
    while i < scenarios.len() || measured < seconds {
        let index = i % scenarios.len();
        let start = Instant::now();
        let pass = run_pass(&scenarios[index], None, i as u64);
        measured += start.elapsed().as_secs_f64();
        passes.push((index, pass));
        i += 1;
        if i == scenarios.len() {
            peak_rss_mb = host::peak_rss_mb().map_err(Failure::Setup)?;
        }
    }
    let attempted = passes.len() as u64 * 5;

    let incorrect = |reason: String| Failure::Incorrect {
        attempted,
        failed: 1,
        reason,
    };
    let mut reference: Vec<Option<Fingerprint>> = vec![None; scenarios.len()];
    for (index, pass) in &passes {
        pass.check(scenarios[*index].rho)
            .map_err(|e| incorrect(format!("scenario {index}: {e}")))?;
        let fingerprint = pass.fingerprint();
        match &reference[*index] {
            None => reference[*index] = Some(fingerprint),
            Some(first) if *first == fingerprint => {}
            Some(first) => {
                return Err(incorrect(format!(
                    "scenario {index} repeated with different results: {fingerprint:?} vs {first:?}"
                )))
            }
        }
    }
    let mut notes = vec![format!(
        "passes={} pool={} measured_s={measured:.3}",
        passes.len(),
        scenarios.len()
    )];
    let e2e = end_to_end(&passes, &scenarios, &setup_samples, peak_rss_mb, &mut notes)
        .map_err(Failure::Setup)?;
    if !trace {
        return Ok(Outcome {
            attempted,
            failed: 0,
            metrics: e2e,
            notes,
        });
    }

    // Traced run: one more pass over the pool with a span per call.
    let mut tracer = Tracer::new();
    let traced: Vec<(usize, Pass)> = scenarios
        .iter()
        .enumerate()
        .map(|(index, scenario)| (index, run_pass(scenario, Some(&mut tracer), index as u64)))
        .collect();
    for (index, pass) in &traced {
        if reference[*index].as_ref() != Some(&pass.fingerprint()) {
            return Err(incorrect(format!(
                "traced pass of scenario {index} differs"
            )));
        }
    }
    let traced_e2e = end_to_end(
        &traced,
        &scenarios,
        &setup_samples,
        peak_rss_mb,
        &mut Vec::new(),
    )
    .map_err(Failure::Setup)?;
    // The overhead baseline is the first untraced pass over the pool, so
    // both sides take one repeat of each scenario.
    let baseline = end_to_end(
        &passes[..scenarios.len()],
        &scenarios,
        &setup_samples,
        peak_rss_mb,
        &mut Vec::new(),
    )
    .map_err(Failure::Setup)?;
    let metrics = per_layer(&traced, &baseline, &traced_e2e, &mut notes);
    tracer
        .write_csv(&out_dir.join(format!("paper_sweep-seed{seed}.spans.csv")))
        .map_err(|e| Failure::Setup(format!("writing spans: {e}")))?;
    Ok(Outcome {
        attempted: attempted + traced.len() as u64 * 5,
        failed: 0,
        metrics,
        notes,
    })
}

/// End-to-end metrics over the pool. Each scenario contributes its best
/// repeat of every operation — interference from outside the process
/// (hypervisor steal on a shared VM) only ever slows a repeat — and the
/// percentiles run across scenarios.
fn end_to_end(
    passes: &[(usize, Pass)],
    scenarios: &[Scenario],
    setup_samples: &[f64],
    peak_rss_mb: f64,
    notes: &mut Vec<String>,
) -> Result<Values, String> {
    // Per scenario: fastest coverage build, plan, and each of the two
    // reads, in seconds; and the P1 utility (identical on every repeat).
    let mut best: Vec<Option<([f64; 4], f64)>> = vec![None; scenarios.len()];
    for (index, pass) in passes {
        let times = [
            pass.coverage.as_secs_f64(),
            (pass.offline_wall + pass.online_wall).as_secs_f64(),
            pass.queries[0].as_secs_f64(),
            pass.queries[1].as_secs_f64(),
        ];
        let utility = pass.reads[0].0 + pass.reads[1].0;
        let entry = best[*index].get_or_insert((times, utility));
        for (kept, time) in entry.0.iter_mut().zip(times) {
            *kept = kept.min(time);
        }
    }
    let best: Vec<([f64; 4], f64)> = best.into_iter().flatten().collect();
    let sorted = |values: Vec<f64>| {
        let mut values = values;
        values.sort_by(f64::total_cmp);
        values
    };
    let submit = sorted(best.iter().map(|(t, _)| t[0] * 1e6).collect());
    let tick = sorted(best.iter().map(|(t, _)| t[1] * 1e3).collect());
    let query = sorted(
        best.iter()
            .flat_map(|(t, _)| [t[2] * 1e3, t[3] * 1e3])
            .collect(),
    );
    notes.push(format!(
        "samples (best repeat of {} scenarios over {} passes): submit={} (p90 {:.3}us) tick={} \
         query={} setup={}",
        best.len(),
        passes.len(),
        submit.len(),
        tail(&submit, 90.0).unwrap_or(f64::NAN),
        tick.len(),
        query.len(),
        setup_samples.len()
    ));
    let too_few = |what: &str| format!("too few {what} samples: enlarge the pool");
    let tasks: usize = scenarios.iter().map(Scenario::num_tasks).sum();
    let pipeline_s: f64 = best.iter().map(|(t, _)| t.iter().sum::<f64>()).sum();
    let utilities: Vec<f64> = best.iter().map(|(_, u)| *u).collect();
    let mut v = Values::new();
    v.insert(
        "setup_s",
        quantile(setup_samples, 25.0).ok_or("no set-up samples")?,
    );
    v.insert("tasks_per_s", tasks as f64 / pipeline_s.max(1e-9));
    v.insert(
        "submit_p50_us",
        nearest_rank(&submit, 50.0).ok_or_else(|| too_few("submit"))?,
    );
    v.insert(
        "tick_p50_ms",
        nearest_rank(&tick, 50.0).ok_or_else(|| too_few("tick"))?,
    );
    v.insert(
        "tick_p90_ms",
        tail(&tick, 90.0).ok_or_else(|| too_few("tick"))?,
    );
    v.insert(
        "query_p50_ms",
        nearest_rank(&query, 50.0).ok_or_else(|| too_few("query"))?,
    );
    v.insert(
        "query_p90_ms",
        tail(&query, 90.0).ok_or_else(|| too_few("query"))?,
    );
    v.insert("utility", mean(&utilities));
    v.insert("peak_rss_mb", peak_rss_mb);
    v.insert("ok_ratio", 1.0);
    Ok(v)
}

fn per_layer(
    traced: &[(usize, Pass)],
    untraced: &Values,
    traced_e2e: &Values,
    notes: &mut Vec<String>,
) -> Values {
    let n = traced.len().max(1) as f64;
    let ms = |f: &dyn Fn(&Pass) -> Duration| {
        traced
            .iter()
            .map(|(_, p)| f(p).as_secs_f64() * 1e3)
            .sum::<f64>()
            / n
    };
    let count = |f: &dyn Fn(&Pass) -> u64| traced.iter().map(|(_, p)| f(p)).sum::<u64>() as f64;
    let mut v = Values::new();
    let offline = ms(&|p| p.offline_wall);
    let off_instance = ms(&|p| p.offline.metrics.instance_build);
    let off_greedy = ms(&|p| p.offline.metrics.greedy);
    let off_rounding = ms(&|p| p.offline.metrics.rounding);
    let off_eval = ms(&|p| p.offline.metrics.p1_eval);
    v.insert("core.offline_solve_ms", offline);
    v.insert("core.instance_ms", off_instance);
    v.insert("submodular.greedy_ms", off_greedy);
    v.insert("core.rounding_ms", off_rounding);
    v.insert(
        "core.oracle_marginals",
        count(&|p| p.offline.metrics.oracle_marginals),
    );
    v.insert(
        "core.oracle_commits",
        count(&|p| p.offline.metrics.oracle_commits),
    );
    let online = ms(&|p| p.online_wall);
    let on_instance = ms(&|p| p.online.metrics.instance_build);
    let on_negotiation = ms(&|p| p.online.metrics.greedy);
    let on_rounding = ms(&|p| p.online.metrics.rounding);
    let on_eval = ms(&|p| p.online.metrics.p1_eval);
    v.insert("distributed.online_solve_ms", online);
    v.insert("distributed.instance_ms", on_instance);
    v.insert("distributed.negotiation_ms", on_negotiation);
    v.insert("distributed.messages", count(&|p| p.online.stats.messages));
    v.insert("distributed.rounds", count(&|p| p.online.stats.rounds));
    v.insert("model.coverage_build_ms", ms(&|p| p.coverage));
    v.insert("model.eval_ms", ms(&|p| p.queries[0] + p.queries[1]) / 2.0);
    let off_rest = offline - off_instance - off_greedy - off_rounding - off_eval;
    let on_rest = online - on_instance - on_negotiation - on_rounding - on_eval;
    v.insert("share.offline_unattributed", off_rest / offline.max(1e-12));
    v.insert("share.online_unattributed", on_rest / online.max(1e-12));
    notes.push(format!(
        "layers offline solve: n={} wall={offline:.4}ms core.instance={off_instance:.4} \
         submodular.greedy={off_greedy:.4} core.rounding={off_rounding:.4} model.eval={off_eval:.4} \
         unattributed={off_rest:.4} ({:.1}% of wall)",
        traced.len(),
        100.0 * off_rest / offline.max(1e-12)
    ));
    notes.push(format!(
        "layers online solve: n={} wall={online:.4}ms distributed.instance={on_instance:.4} \
         distributed.negotiation={on_negotiation:.4} rounding={on_rounding:.4} \
         model.eval={on_eval:.4} unattributed={on_rest:.4} ({:.1}% of wall)",
        traced.len(),
        100.0 * on_rest / online.max(1e-12)
    ));
    crate::fill_layer_defaults(&mut v);
    crate::insert_overhead(&mut v, untraced, traced_e2e, notes);
    v
}
