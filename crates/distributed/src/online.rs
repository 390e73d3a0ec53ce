//! The distributed **online** scheduler: Algorithm 3 embedded in the
//! arrival event loop.
//!
//! Charging tasks become known at their release slots. On every arrival the
//! affected chargers re-negotiate their future policies; because of the
//! rescheduling delay `τ` the new plan only takes effect `τ` slots later —
//! until then the previous plan keeps executing (and whatever it delivered
//! is accounted as the initial energy of the re-negotiation). The final
//! schedule is scored by the full P1 evaluator (switching delay `ρ`
//! included), which is how the competitive ratio
//! `½(1 − ρ)(1 − 1/e)` of Theorem 6.1 is exercised empirically.

use std::time::Instant;

use haste_core::{
    solve_baseline_with_delay, BaselineKind, HasteRInstance, InstanceOptions, PolicyTimelines,
    SolveResult, SolverMetrics,
};
use haste_model::{
    evaluate, evaluate_relaxed, CoverageMap, EvalOptions, EvalReport, Scenario, Schedule,
};
use haste_submodular::Selection;

use crate::neighbors::NeighborGraph;
use crate::protocol::{NegotiationConfig, NegotiationStats};
use crate::round_engine::negotiate_rounds;
use crate::threaded_engine::negotiate_threaded;

/// Which negotiation engine executes each re-planning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Sequential synchronous rounds (fast, exact message accounting).
    #[default]
    Rounds,
    /// One thread per charger with real message passing (identical output).
    Threaded,
}

/// A charger failure event: the charger stops emitting (and negotiating)
/// from `slot` onward. The network detects it at `slot` and, after the
/// rescheduling delay `τ`, replans around it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChargerFailure {
    /// Which charger dies.
    pub charger: haste_model::ChargerId,
    /// First slot it is dead in.
    pub slot: haste_model::Slot,
}

/// Configuration of the online scheduler.
#[derive(Debug, Clone, Default)]
pub struct OnlineConfig {
    /// Negotiation parameters (colors, samples, shared seed).
    pub negotiation: NegotiationConfig,
    /// Engine choice.
    pub engine: EngineKind,
    /// Injected charger failures (robustness studies / failure testing).
    pub failures: Vec<ChargerFailure>,
    /// Localized renegotiation: on each arrival only the chargers able to
    /// serve the new tasks (plus their one-hop neighbors) replan; everyone
    /// else keeps their current plan, which enters the replanning as fixed
    /// background energy. This is the locality the paper's Algorithm 3
    /// describes ("invoked at charger `s_i` upon arrival of new charging
    /// tasks that can be charged by `s_i`"); the default `false` replans
    /// globally, which is what the reported figures use.
    pub localized: bool,
    /// Worker threads for the instance (re)builds on each negotiation
    /// (1 = sequential, `0` = auto-detect via
    /// `haste_parallel::default_threads`). The executed schedule is
    /// bit-identical for every value; this only parallelizes dominant-set
    /// extraction.
    pub threads: usize,
}

/// Result of an online run.
#[derive(Debug, Clone)]
pub struct OnlineResult {
    /// The executed schedule.
    pub schedule: Schedule,
    /// Full P1 evaluation (switching delay included).
    pub report: EvalReport,
    /// HASTE-R value of the executed schedule (no switching delay).
    pub relaxed_value: f64,
    /// Communication counters accumulated over all re-negotiations,
    /// indexed by absolute slot.
    pub stats: NegotiationStats,
    /// Solver phase timings and oracle counters accumulated over all
    /// re-negotiations (`instance_build`, `greedy` = negotiation time,
    /// `rounding` = materialization, `p1_eval` = final evaluation).
    pub metrics: SolverMetrics,
}

/// Runs the distributed online algorithm over a scenario whose tasks carry
/// their release slots.
pub fn solve_online(
    scenario: &Scenario,
    coverage: &CoverageMap,
    config: &OnlineConfig,
) -> OnlineResult {
    run_events(scenario, coverage, config, |_| {})
}

/// The event loop behind [`solve_online`]. `before_event` sees the held
/// policy timelines before every event (tests use it to force cold builds).
fn run_events(
    scenario: &Scenario,
    coverage: &CoverageMap,
    config: &OnlineConfig,
    mut before_event: impl FnMut(&mut PolicyTimelines),
) -> OnlineResult {
    let horizon = scenario.active_horizon();
    let n = scenario.num_chargers();
    let threads = haste_parallel::resolve_threads(config.threads);
    let graph = NeighborGraph::build(coverage);
    let mut schedule = Schedule::empty(n, scenario.grid.num_slots);
    let mut stats = NegotiationStats::new(horizon);
    let mut metrics = SolverMetrics {
        threads,
        ..SolverMetrics::default()
    };
    let mut timelines = PolicyTimelines::default();
    let mut known = vec![false; scenario.num_tasks()];
    let mut disabled = vec![false; n];
    // Physical death slot per charger (cleared from the executed schedule
    // immediately, independent of the replanning delay).
    let mut dead_from: Vec<Option<usize>> = vec![None; n];

    // Re-negotiation events: one per distinct task release or charger
    // failure slot. Tasks and failures are consumed in slot order (stable,
    // so ties keep index order), one pass over each for the whole run.
    let mut events: Vec<usize> = scenario.tasks.iter().map(|t| t.release_slot).collect();
    events.extend(config.failures.iter().map(|f| f.slot));
    events.sort_unstable();
    events.dedup();
    let mut tasks_by_release: Vec<usize> = (0..scenario.num_tasks()).collect();
    tasks_by_release.sort_by_key(|&j| scenario.tasks[j].release_slot);
    let mut failures = config.failures.clone();
    failures.sort_by_key(|f| f.slot);
    let (mut next_task, mut next_failure) = (0, 0);
    let mut arrived_now: Vec<usize> = Vec::new();
    let mut failed_now: Vec<usize> = Vec::new();

    for &t in &events {
        arrived_now.clear();
        while let Some(&j) = tasks_by_release.get(next_task) {
            if scenario.tasks[j].release_slot > t {
                break;
            }
            let id = scenario.tasks[j].id.index();
            known[id] = true;
            arrived_now.push(id);
            next_task += 1;
        }
        failed_now.clear();
        while let Some(failure) = failures.get(next_failure) {
            if failure.slot > t {
                break;
            }
            let i = failure.charger.index();
            disabled[i] = true;
            let first = dead_from[i].map_or(failure.slot, |d| d.min(failure.slot));
            dead_from[i] = Some(first);
            failed_now.push(i);
            next_failure += 1;
        }
        // A dead charger stops emitting the moment it dies, regardless of
        // how long the replanning takes.
        clear_dead(&mut schedule, &dead_from);
        before_event(&mut timelines);
        let replanned = replan_event(
            scenario,
            coverage,
            &graph,
            config,
            &mut schedule,
            ReplanEvent {
                slot: t,
                horizon,
                known: Some(&known),
                disabled: Some(&disabled),
                arrived_now: &arrived_now,
                failed_now: &failed_now,
                threads,
            },
            &mut timelines,
            &mut stats,
            &mut metrics,
        );
        // Holding (inside `replan_event`) must never resurrect a dead
        // charger.
        if replanned {
            clear_dead(&mut schedule, &dead_from);
        }
    }
    clear_dead(&mut schedule, &dead_from);

    // haste-lint: allow(D2) — phase timing feeds SolverMetrics, not algorithm state
    let eval_start = Instant::now();
    let report = evaluate(scenario, coverage, &schedule, EvalOptions::default());
    let relaxed = evaluate_relaxed(scenario, coverage, &schedule);
    metrics.p1_eval += eval_start.elapsed();
    metrics.oracle_marginals = stats.oracle_marginals;
    metrics.oracle_commits = stats.oracle_commits;
    OnlineResult {
        schedule,
        report,
        relaxed_value: relaxed.total_utility,
        stats,
        metrics,
    }
}

/// Blanks out every slot at or past a charger's death.
fn clear_dead(schedule: &mut Schedule, dead_from: &[Option<usize>]) {
    for (i, dead) in dead_from.iter().enumerate() {
        if let Some(d) = *dead {
            for k in d..schedule.num_slots() {
                schedule.set(haste_model::ChargerId(i as u32), k, None);
            }
        }
    }
}

/// One re-negotiation event, as seen by [`replan_event`].
pub(crate) struct ReplanEvent<'a> {
    /// The slot the event fires at (task release / failure detection).
    pub slot: usize,
    /// Planning horizon (`scenario.active_horizon()` for batch runs; the
    /// incremental engine passes the full grid).
    pub horizon: usize,
    /// Which tasks are known at this event (`None` = all of them, which is
    /// what the incremental engine uses: its scenario only ever contains
    /// arrived tasks).
    pub known: Option<&'a [bool]>,
    /// Chargers disabled by failures (never participate again); `None` =
    /// no failures.
    pub disabled: Option<&'a [bool]>,
    /// Task indices released exactly at `slot` (localized scope seeds).
    pub arrived_now: &'a [usize],
    /// Charger indices failing exactly at `slot` (localized scope seeds).
    pub failed_now: &'a [usize],
    /// Resolved worker-thread count for instance builds.
    pub threads: usize,
}

/// Executes one re-negotiation: freezes the prefix up to `slot + τ`, builds
/// the suffix HASTE-R instance, negotiates, and splices the new plan into
/// `schedule`. Returns `false` when the event is a no-op (past the horizon,
/// or nobody replans). Shared verbatim between [`solve_online`] and the
/// incremental [`crate::engine::OnlineEngine`] so both produce bit-identical
/// schedules for the same event sequence. `timelines` is the event loop's
/// held policy timelines: the instance build re-derives only the chargers
/// whose known candidates changed (or whose horizon grew).
#[allow(clippy::too_many_arguments)]
pub(crate) fn replan_event(
    scenario: &Scenario,
    coverage: &CoverageMap,
    graph: &NeighborGraph,
    config: &OnlineConfig,
    schedule: &mut Schedule,
    event: ReplanEvent<'_>,
    timelines: &mut PolicyTimelines,
    stats: &mut NegotiationStats,
    metrics: &mut SolverMetrics,
) -> bool {
    let n = scenario.num_chargers();
    // The new plan takes effect after the rescheduling delay.
    let effective = (event.slot + scenario.tau).min(event.horizon);
    if effective >= event.horizon {
        return false;
    }
    // Which chargers replan at this event: everyone (global mode), or —
    // in localized mode — the chargers able to serve a task released
    // right now, the newly failed ones, and one hop of neighbors of each
    // (the paper's negotiation scope).
    let replanning: Vec<bool> = if config.localized {
        let mut core = vec![false; n];
        for &task in event.arrived_now {
            for c in coverage.chargers_of(haste_model::TaskId(task as u32)) {
                core[c.index()] = true;
            }
        }
        for &charger in event.failed_now {
            core[charger] = true;
        }
        let mut aff = core.clone();
        for (i, &is_core) in core.iter().enumerate() {
            if is_core {
                for &j in graph.neighbors(i) {
                    aff[j] = true;
                }
            }
        }
        aff
    } else {
        vec![true; n]
    };
    let planning_disabled: Vec<bool> = (0..n)
        .map(|i| event.disabled.is_some_and(|d| d[i]) || !replanning[i])
        .collect();
    if planning_disabled.iter().all(|&d| d) {
        return false;
    }

    // Energy the frozen prefix already delivered (HASTE-R semantics —
    // the negotiation plans against the relaxed objective, exactly as
    // the analysis of Theorem 6.1 does).
    let prefix = evaluate(
        scenario,
        coverage,
        schedule,
        EvalOptions {
            rho: Some(0.0),
            slot_limit: Some(effective),
            ..EvalOptions::default()
        },
    );
    let mut initial_energy = prefix.per_task_energy;
    // In localized mode the kept future plans of non-replanning
    // chargers enter as fixed background energy (utility only depends
    // on each task's total, so the slot structure is irrelevant here).
    let snapshot = config.localized.then(|| schedule.clone());
    if config.localized {
        let mut masked = schedule.clone();
        for (i, &replans) in replanning.iter().enumerate() {
            if replans {
                for k in effective..schedule.num_slots() {
                    masked.set(haste_model::ChargerId(i as u32), k, None);
                }
            }
        }
        let kept = evaluate(
            scenario,
            coverage,
            &masked,
            EvalOptions {
                rho: Some(0.0),
                slot_start: Some(effective),
                ..EvalOptions::default()
            },
        );
        for (total, add) in initial_energy.iter_mut().zip(&kept.per_task_energy) {
            *total += add;
        }
    }
    // haste-lint: allow(D2) — phase timing feeds SolverMetrics, not algorithm state
    let build_start = Instant::now();
    let instance = HasteRInstance::build_on(
        scenario,
        coverage,
        InstanceOptions {
            slot_range: Some(effective..event.horizon),
            known_tasks: event.known.map(<[bool]>::to_vec),
            initial_energy: Some(initial_energy),
            disabled_chargers: planning_disabled
                .iter()
                .any(|&d| d)
                .then(|| planning_disabled.clone()),
            threads: Some(event.threads),
            ..InstanceOptions::default()
        },
        timelines,
    );
    metrics.instance_build += build_start.elapsed();
    metrics.policy_segments += instance.segments_derived();
    #[cfg(test)]
    tests::record_instance(&instance);
    // haste-lint: allow(D2) — phase timing feeds SolverMetrics, not algorithm state
    let negotiate_start = Instant::now();
    let (selection, run_stats): (Selection, NegotiationStats) = match config.engine {
        EngineKind::Rounds => negotiate_rounds(&instance, graph, &config.negotiation),
        EngineKind::Threaded => negotiate_threaded(&instance, graph, &config.negotiation),
    };
    metrics.greedy += negotiate_start.elapsed();
    // haste-lint: allow(D2) — phase timing feeds SolverMetrics, not algorithm state
    let rounding_start = Instant::now();
    instance.materialize_into(&selection, schedule);
    metrics.rounding += rounding_start.elapsed();
    // Localized mode: restore the kept plans of non-replanning chargers
    // (materialize_into wrote None over their partitions).
    if let Some(snapshot) = snapshot {
        for (i, &replans) in replanning.iter().enumerate() {
            if !replans {
                let id = haste_model::ChargerId(i as u32);
                for k in effective..schedule.num_slots() {
                    schedule.set(id, k, snapshot.get(id, k));
                }
            }
        }
    }
    // Chargers hold their last orientation through unassigned slots
    // (free top-up at zero switching cost); later renegotiations
    // overwrite the held suffix anyway.
    schedule.hold_orientations();
    stats.absorb(&run_stats, effective);
    true
}

/// Runs a baseline in the online setting: chargers only react to a task
/// `τ` slots after its release (their rescheduling delay), everything else
/// identical to the offline baseline.
pub fn solve_baseline_online(
    scenario: &Scenario,
    coverage: &CoverageMap,
    kind: BaselineKind,
) -> SolveResult {
    solve_baseline_with_delay(scenario, coverage, kind, scenario.tau)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::RefCell;

    use haste_core::{solve_offline, OfflineConfig};
    use haste_geometry::{Angle, Vec2};
    use haste_model::{Charger, ChargingParams, Task, TimeGrid};
    use haste_submodular::PartitionedObjective;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One built instance, partition by partition: every policy's
    /// orientation bits and `(task, energy bits)` deliveries.
    pub(crate) type InstanceDigest = (usize, usize, Vec<Vec<(u64, Vec<(usize, u64)>)>>);

    thread_local! {
        static RECORDED: RefCell<Option<Vec<InstanceDigest>>> = const { RefCell::new(None) };
    }

    /// Called by [`replan_event`] with every instance it builds.
    pub(crate) fn record_instance(instance: &HasteRInstance) {
        RECORDED.with(|recorded| {
            if let Some(digests) = recorded.borrow_mut().as_mut() {
                let partitions = (0..instance.num_partitions())
                    .map(|p| {
                        instance
                            .policies(p)
                            .iter()
                            .map(|policy| {
                                let deliveries = policy
                                    .deliveries
                                    .iter()
                                    .map(|&(task, energy)| (task, energy.to_bits()))
                                    .collect();
                                (policy.orientation.radians().to_bits(), deliveries)
                            })
                            .collect()
                    })
                    .collect();
                let range = &instance.slot_range;
                digests.push((range.start, range.end, partitions));
            }
        });
    }

    /// Runs `f` and returns its result with the digest of every instance
    /// the re-planning events built meanwhile (on this thread).
    pub(crate) fn recording<R>(f: impl FnOnce() -> R) -> (R, Vec<InstanceDigest>) {
        RECORDED.with(|recorded| *recorded.borrow_mut() = Some(Vec::new()));
        let result = f();
        let digests = RECORDED.with(|recorded| recorded.borrow_mut().take());
        (result, digests.expect("recording was on"))
    }

    /// Online configurations the timeline-equivalence tests sweep.
    fn timeline_configs() -> Vec<OnlineConfig> {
        let failures = vec![
            ChargerFailure {
                charger: haste_model::ChargerId(1),
                slot: 2,
            },
            ChargerFailure {
                charger: haste_model::ChargerId(4),
                slot: 5,
            },
        ];
        vec![
            OnlineConfig::default(),
            OnlineConfig {
                failures: failures.clone(),
                ..OnlineConfig::default()
            },
            OnlineConfig {
                localized: true,
                failures,
                ..OnlineConfig::default()
            },
            OnlineConfig {
                negotiation: NegotiationConfig {
                    colors: 3,
                    samples: 6,
                    seed: 11,
                },
                localized: true,
                ..OnlineConfig::default()
            },
        ]
    }

    /// `solve_online`'s event loop with fresh (empty) policy timelines at
    /// every event: each instance is a cold build.
    fn solve_online_cold(s: &Scenario, cov: &CoverageMap, config: &OnlineConfig) -> OnlineResult {
        run_events(s, cov, config, |timelines| {
            *timelines = PolicyTimelines::default()
        })
    }

    #[test]
    fn warm_timelines_build_the_cold_instances() {
        for seed in [61u64, 62, 63] {
            let s = random_scenario(seed, 6, 16, 1);
            let cov = CoverageMap::build(&s);
            for config in timeline_configs() {
                let (_, warm) = recording(|| solve_online(&s, &cov, &config));
                let (_, cold) = recording(|| solve_online_cold(&s, &cov, &config));
                assert!(warm.len() > 1, "seed {seed}: several re-planning events");
                assert_eq!(warm.len(), cold.len());
                for (event, (w, c)) in warm.iter().zip(&cold).enumerate() {
                    assert_eq!(w, c, "seed {seed} {config:?}: event {event} differs");
                }
            }
        }
    }

    #[test]
    fn persistent_timelines_match_fresh_ones_exactly() {
        for seed in [71u64, 72] {
            let s = random_scenario(seed, 6, 16, 1);
            let cov = CoverageMap::build(&s);
            for config in timeline_configs() {
                let warm = solve_online(&s, &cov, &config);
                let cold = solve_online_cold(&s, &cov, &config);
                assert_eq!(warm.schedule, cold.schedule, "seed {seed} {config:?}");
                assert_eq!(warm.relaxed_value.to_bits(), cold.relaxed_value.to_bits());
                assert_eq!(warm.stats, cold.stats);
                assert!(warm.metrics.policy_segments <= cold.metrics.policy_segments);
            }
        }
    }

    fn random_scenario(seed: u64, n: usize, m: usize, tau: usize) -> Scenario {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = ChargingParams::simulation_default();
        let chargers = (0..n)
            .map(|i| {
                Charger::new(
                    i as u32,
                    Vec2::new(rng.gen_range(0.0..50.0), rng.gen_range(0.0..50.0)),
                )
            })
            .collect();
        let tasks = (0..m)
            .map(|j| {
                let release = rng.gen_range(0..5usize);
                let duration = rng.gen_range(2 * tau.max(1)..=8usize.max(2 * tau + 1));
                Task::new(
                    j as u32,
                    Vec2::new(rng.gen_range(0.0..50.0), rng.gen_range(0.0..50.0)),
                    Angle::from_radians(rng.gen_range(0.0..std::f64::consts::TAU)),
                    release,
                    release + duration,
                    rng.gen_range(500.0..3000.0),
                    1.0 / m as f64,
                )
            })
            .collect();
        Scenario::new(
            params,
            TimeGrid::minutes(16),
            chargers,
            tasks,
            1.0 / 12.0,
            tau,
        )
        .unwrap()
    }

    #[test]
    fn online_with_no_delay_and_single_release_matches_offline_greedy_quality() {
        // Everything released at slot 0 and τ = 0 → one negotiation over
        // the full horizon; its value must be in the same class as the
        // centralized greedy (both are locally greedy executions, possibly
        // in different partition orders).
        let mut s = random_scenario(3, 5, 10, 0);
        for task in &mut s.tasks {
            let d = task.end_slot - task.release_slot;
            task.release_slot = 0;
            task.end_slot = d;
        }
        s.validate().unwrap();
        let cov = CoverageMap::build(&s);
        let online = solve_online(&s, &cov, &OnlineConfig::default());
        let offline = solve_offline(&s, &cov, &OfflineConfig::greedy());
        // Equal guarantee class: allow a modest spread between the two
        // greedy execution orders.
        assert!(
            online.relaxed_value >= 0.8 * offline.relaxed_value - 1e-9,
            "online {} vs offline {}",
            online.relaxed_value,
            offline.relaxed_value
        );
    }

    #[test]
    fn rescheduling_delay_only_hurts() {
        let s0 = random_scenario(5, 5, 12, 0);
        let mut s2 = s0.clone();
        s2.tau = 2;
        let cov = CoverageMap::build(&s0);
        let r0 = solve_online(&s0, &cov, &OnlineConfig::default());
        let r2 = solve_online(&s2, &cov, &OnlineConfig::default());
        assert!(
            r2.relaxed_value <= r0.relaxed_value + 1e-9,
            "tau=2 {} should not beat tau=0 {}",
            r2.relaxed_value,
            r0.relaxed_value
        );
    }

    #[test]
    fn online_beats_or_matches_online_baselines_on_average() {
        let mut wins = 0;
        let trials = 5;
        for seed in 0..trials {
            let s = random_scenario(100 + seed, 6, 14, 1);
            let cov = CoverageMap::build(&s);
            let online = solve_online(&s, &cov, &OnlineConfig::default());
            let bu = solve_baseline_online(&s, &cov, BaselineKind::GreedyUtility);
            let bc = solve_baseline_online(&s, &cov, BaselineKind::GreedyCover);
            if online.report.total_utility >= bu.report.total_utility - 1e-9
                && online.report.total_utility >= bc.report.total_utility - 1e-9
            {
                wins += 1;
            }
        }
        assert!(
            wins * 2 >= trials,
            "online HASTE lost to baselines in {} of {trials} trials",
            trials - wins
        );
    }

    #[test]
    fn engines_agree_online() {
        let s = random_scenario(8, 5, 10, 1);
        let cov = CoverageMap::build(&s);
        let rounds = solve_online(
            &s,
            &cov,
            &OnlineConfig {
                engine: EngineKind::Rounds,
                ..OnlineConfig::default()
            },
        );
        let threaded = solve_online(
            &s,
            &cov,
            &OnlineConfig {
                engine: EngineKind::Threaded,
                ..OnlineConfig::default()
            },
        );
        assert_eq!(rounds.schedule, threaded.schedule);
        assert_eq!(rounds.stats.messages, threaded.stats.messages);
    }

    #[test]
    fn report_value_bounded_by_relaxed() {
        let s = random_scenario(13, 5, 10, 1);
        let cov = CoverageMap::build(&s);
        let r = solve_online(&s, &cov, &OnlineConfig::default());
        assert!(r.report.total_utility <= r.relaxed_value + 1e-9);
        assert!(r.report.total_utility >= (1.0 - s.rho) * r.relaxed_value - 1e-9);
    }

    #[test]
    fn localized_replanning_close_to_global_and_cheaper() {
        for seed in [41u64, 42, 43] {
            let s = random_scenario(seed, 8, 20, 1);
            let cov = CoverageMap::build(&s);
            let global = solve_online(&s, &cov, &OnlineConfig::default());
            let local = solve_online(
                &s,
                &cov,
                &OnlineConfig {
                    localized: true,
                    ..OnlineConfig::default()
                },
            );
            assert!(
                local.stats.messages <= global.stats.messages,
                "seed {seed}: localized sent more messages ({} vs {})",
                local.stats.messages,
                global.stats.messages
            );
            assert!(
                local.relaxed_value >= 0.85 * global.relaxed_value - 1e-9,
                "seed {seed}: localized {} far below global {}",
                local.relaxed_value,
                global.relaxed_value
            );
        }
    }

    #[test]
    fn localized_engines_agree() {
        let s = random_scenario(44, 6, 14, 1);
        let cov = CoverageMap::build(&s);
        let cfg = OnlineConfig {
            localized: true,
            ..OnlineConfig::default()
        };
        let rounds = solve_online(&s, &cov, &cfg);
        let threaded = solve_online(
            &s,
            &cov,
            &OnlineConfig {
                engine: EngineKind::Threaded,
                ..cfg
            },
        );
        assert_eq!(rounds.schedule, threaded.schedule);
        assert_eq!(rounds.stats.messages, threaded.stats.messages);
    }

    #[test]
    fn online_baseline_with_zero_tau_equals_offline_baseline() {
        let mut s = random_scenario(31, 5, 12, 0);
        s.tau = 0;
        let cov = CoverageMap::build(&s);
        for kind in [
            haste_core::BaselineKind::GreedyUtility,
            haste_core::BaselineKind::GreedyCover,
        ] {
            let online = solve_baseline_online(&s, &cov, kind);
            let offline = haste_core::solve_baseline(&s, &cov, kind);
            assert_eq!(online.schedule, offline.schedule, "{}", kind.name());
        }
    }

    #[test]
    fn failed_charger_emits_nothing_after_death() {
        let s = random_scenario(21, 4, 10, 1);
        let cov = CoverageMap::build(&s);
        let kill_slot = 3;
        let cfg = OnlineConfig {
            failures: vec![ChargerFailure {
                charger: haste_model::ChargerId(0),
                slot: kill_slot,
            }],
            ..OnlineConfig::default()
        };
        let r = solve_online(&s, &cov, &cfg);
        for k in kill_slot..s.grid.num_slots {
            assert_eq!(
                r.schedule.get(haste_model::ChargerId(0), k),
                None,
                "dead charger oriented in slot {k}"
            );
        }
        // Failure can only cost utility.
        let healthy = solve_online(&s, &cov, &OnlineConfig::default());
        assert!(r.report.total_utility <= healthy.report.total_utility + 1e-9);
    }

    #[test]
    fn killing_every_charger_at_zero_yields_nothing() {
        let s = random_scenario(22, 3, 8, 1);
        let cov = CoverageMap::build(&s);
        let failures = (0..3)
            .map(|i| ChargerFailure {
                charger: haste_model::ChargerId(i),
                slot: 0,
            })
            .collect();
        let r = solve_online(
            &s,
            &cov,
            &OnlineConfig {
                failures,
                ..OnlineConfig::default()
            },
        );
        assert_eq!(r.report.total_utility, 0.0);
    }

    #[test]
    fn survivors_replan_around_a_failure() {
        // Two chargers sharing one long task; kill one mid-way — the other
        // must keep serving and total utility must beat "kill both".
        let s = random_scenario(23, 2, 6, 1);
        let cov = CoverageMap::build(&s);
        let one_dead = solve_online(
            &s,
            &cov,
            &OnlineConfig {
                failures: vec![ChargerFailure {
                    charger: haste_model::ChargerId(1),
                    slot: 2,
                }],
                ..OnlineConfig::default()
            },
        );
        let both_dead = solve_online(
            &s,
            &cov,
            &OnlineConfig {
                failures: vec![
                    ChargerFailure {
                        charger: haste_model::ChargerId(0),
                        slot: 2,
                    },
                    ChargerFailure {
                        charger: haste_model::ChargerId(1),
                        slot: 2,
                    },
                ],
                ..OnlineConfig::default()
            },
        );
        assert!(one_dead.report.total_utility >= both_dead.report.total_utility - 1e-12);
        // Engines agree under failures too.
        let threaded = solve_online(
            &s,
            &cov,
            &OnlineConfig {
                engine: EngineKind::Threaded,
                failures: vec![ChargerFailure {
                    charger: haste_model::ChargerId(1),
                    slot: 2,
                }],
                ..OnlineConfig::default()
            },
        );
        assert_eq!(one_dead.schedule, threaded.schedule);
    }

    #[test]
    fn metrics_are_monotone_sane() {
        // Seed 100 is known to produce a served scenario (it also drives
        // `online_beats_or_matches_online_baselines_on_average`).
        let s = random_scenario(100, 6, 14, 1);
        let cov = CoverageMap::build(&s);
        let r = solve_online(&s, &cov, &OnlineConfig::default());
        // `OnlineConfig::default()` leaves `threads: 0` = auto-detect.
        assert_eq!(r.metrics.threads, haste_parallel::resolve_threads(0));
        assert!(r.metrics.threads >= 1);
        assert!(r.metrics.oracle_marginals > 0);
        assert!(r.metrics.oracle_commits > 0);
        assert_eq!(r.metrics.oracle_marginals, r.stats.oracle_marginals);
        assert_eq!(r.metrics.oracle_commits, r.stats.oracle_commits);
        assert!(r.metrics.total_time() >= r.metrics.greedy);
        // The online loop never builds a coverage map itself.
        assert_eq!(r.metrics.coverage_build, std::time::Duration::ZERO);
    }

    #[test]
    fn threads_do_not_change_the_online_solution() {
        let s = random_scenario(19, 6, 14, 1);
        let cov = CoverageMap::build(&s);
        let base = solve_online(&s, &cov, &OnlineConfig::default());
        let par = solve_online(
            &s,
            &cov,
            &OnlineConfig {
                threads: 4,
                ..OnlineConfig::default()
            },
        );
        assert_eq!(base.schedule, par.schedule);
        assert_eq!(
            base.relaxed_value.to_bits(),
            par.relaxed_value.to_bits(),
            "threads changed the online value"
        );
        assert_eq!(base.stats.messages, par.stats.messages);
        assert_eq!(base.metrics.oracle_marginals, par.metrics.oracle_marginals);
    }

    #[test]
    fn empty_scenario() {
        let mut s = random_scenario(1, 3, 5, 1);
        s.tasks.clear();
        let cov = CoverageMap::build(&s);
        let r = solve_online(&s, &cov, &OnlineConfig::default());
        assert_eq!(r.report.total_utility, 0.0);
        assert_eq!(r.stats.messages, 0);
    }
}
