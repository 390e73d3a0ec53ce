//! Deterministic round-based negotiation engine (Algorithm 3's protocol,
//! simulated synchronously).
//!
//! For every (slot, color) pair the chargers repeatedly exchange bids — the
//! best marginal gain of any of their scheduling policies under the current
//! local knowledge — and the charger whose bid beats every unfixed
//! neighbor's (ties by lower id) fixes its policy and broadcasts the update.
//! Monotonicity guarantees a zero bid never becomes positive again, so
//! chargers drop out at their first zero bid; every round fixes at least the
//! globally best bidder, so the loop terminates in at most `n` rounds per
//! (slot, color).
//!
//! The engine keeps one global set of Monte-Carlo sample states. This is
//! *observationally identical* to each charger holding a local copy: any
//! charger able to affect a task is a neighbor of every other charger able
//! to affect it, so local views never diverge from the global one — the
//! [threaded engine](crate::negotiate_threaded) demonstrates this with
//! genuinely per-charger state and is tested to produce identical results.

use haste_core::{EnergyState, HasteRInstance};
use haste_submodular::{evaluate_selection, PartitionedObjective, Selection};

use crate::neighbors::NeighborGraph;
use crate::protocol::{color_of, NegotiationConfig, NegotiationStats};

/// Minimum gain considered worth bidding (guards float noise).
pub(crate) const GAIN_EPS: f64 = 1e-15;

/// Computes a charger's best bid for `partition` under color `c`: the
/// choice maximizing the summed marginal over the samples whose color
/// matches (falling back to all samples when none match, exactly like the
/// centralized TabularGreedy estimator). Allocation-free: this sits on the
/// innermost path of every negotiation round. Also returns the number of
/// marginal oracle evaluations the scan performed, for the negotiation's
/// oracle accounting.
pub(crate) fn best_bid(
    inst: &HasteRInstance,
    states: &[EnergyState],
    cfg: &NegotiationConfig,
    c: usize,
    partition: usize,
) -> (Option<(f64, usize)>, u64) {
    let choices = inst.num_choices(partition);
    if choices == 0 {
        return (None, 0);
    }
    let c_total = cfg.colors.max(1);
    let any_match = (0..states.len()).any(|s| color_of(cfg.seed, s, partition, c_total) == c);
    let mut best: Option<(f64, usize)> = None;
    let mut calls = 0u64;
    for x in 0..choices {
        let mut gain = 0.0;
        for (s, state) in states.iter().enumerate() {
            if !any_match || color_of(cfg.seed, s, partition, c_total) == c {
                gain += inst.marginal(state, partition, x);
                calls += 1;
            }
        }
        match best {
            Some((bg, _)) if gain <= bg => {}
            _ => best = Some((gain, x)),
        }
    }
    (best.filter(|&(g, _)| g > GAIN_EPS), calls)
}

/// Samples whose color for `partition` equals `c`.
pub(crate) fn matching_samples(
    cfg: &NegotiationConfig,
    partition: usize,
    c: usize,
) -> impl Iterator<Item = usize> + '_ {
    let c_total = cfg.colors.max(1);
    (0..cfg.effective_samples()).filter(move |&s| color_of(cfg.seed, s, partition, c_total) == c)
}

/// Best-of-N rounding over a flat `partitions × colors` table of fixed
/// choices: every charger can reconstruct all N sampled color vectors from
/// the shared seed, so the network can agree on the best sample with one
/// cheap aggregation (not part of the per-slot negotiation the paper
/// counts, hence not in the message stats). With C = 1 there is a single
/// deterministic sample and this is a no-op. Values are replayed from the
/// table in partition order so both engines compare identical
/// floating-point sums.
pub(crate) fn round_best_sample(
    inst: &HasteRInstance,
    cfg: &NegotiationConfig,
    table: &[Option<usize>],
) -> Selection {
    let c_total = cfg.colors.max(1);
    let partitions = inst.num_partitions();
    let mut best: Option<(Vec<Option<usize>>, f64)> = None;
    for s in 0..cfg.effective_samples() {
        let choices: Vec<Option<usize>> = (0..partitions)
            .map(|p| table[p * c_total + color_of(cfg.seed, s, p, c_total)])
            .collect();
        let value = evaluate_selection(inst, &choices);
        if best.as_ref().is_none_or(|(_, bv)| value > *bv) {
            best = Some((choices, value));
        }
    }
    let (choices, value) = best.unwrap_or_else(|| (Selection::empty(partitions).choices, 0.0));
    Selection { choices, value }
}

/// Runs the negotiation over the whole instance and returns the selected
/// policies plus communication statistics. Allocation-free per round: the
/// choice table is one flat `partitions × colors` array and the per-round
/// buffers are allocated once and reused for every (slot, color).
pub fn negotiate_rounds(
    inst: &HasteRInstance,
    graph: &NeighborGraph,
    cfg: &NegotiationConfig,
) -> (Selection, NegotiationStats) {
    let n = graph.num_chargers();
    let k_total = inst.num_slots();
    let c_total = cfg.colors.max(1);
    let mut states: Vec<EnergyState> = (0..cfg.effective_samples())
        .map(|_| inst.new_state())
        .collect();
    // table[p · C + c]: the choice partition p fixed under color c.
    let mut table: Vec<Option<usize>> = vec![None; inst.num_partitions() * c_total];
    let mut stats = NegotiationStats::new(k_total);
    // done[i]: charger i no longer participates in the current (k, c).
    let mut done = vec![false; n];
    let mut bids: Vec<Option<(f64, usize)>> = vec![None; n];
    let mut fixers: Vec<(usize, usize)> = Vec::with_capacity(n);

    for rel_k in 0..k_total {
        for c in 0..c_total {
            for (i, d) in done.iter_mut().enumerate() {
                *d = inst.num_choices(rel_k * n + i) == 0;
            }
            loop {
                stats.add_round(rel_k);
                // Bid phase: every participating charger broadcasts.
                bids.fill(None);
                let mut any_participant = false;
                for i in 0..n {
                    if done[i] {
                        continue;
                    }
                    any_participant = true;
                    stats.add_messages(rel_k, graph.degree(i) as u64);
                    let p = rel_k * n + i;
                    let (bid, calls) = best_bid(inst, &states, cfg, c, p);
                    bids[i] = bid;
                    stats.oracle_marginals += calls;
                }
                if !any_participant {
                    break;
                }
                // Decide phase: local maxima fix their policies.
                fixers.clear();
                for i in 0..n {
                    let Some((gain, choice)) = bids[i] else {
                        // First zero bid → drop out for this (k, c).
                        done[i] = true;
                        continue;
                    };
                    let wins = graph.neighbors(i).iter().all(|&j| match bids[j] {
                        Some((gj, _)) => gain > gj || (gain == gj && i < j),
                        None => true,
                    });
                    if wins {
                        fixers.push((i, choice));
                    }
                }
                for &(i, choice) in &fixers {
                    let p = rel_k * n + i;
                    table[p * c_total + c] = Some(choice);
                    for s in matching_samples(cfg, p, c) {
                        inst.commit(&mut states[s], p, choice);
                        stats.oracle_commits += 1;
                    }
                    done[i] = true;
                    // UPD broadcast.
                    stats.add_messages(rel_k, graph.degree(i) as u64);
                }
                if fixers.is_empty() {
                    break;
                }
            }
        }
    }

    drop(states);
    (round_best_sample(inst, cfg, &table), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use haste_core::DominantScope;
    use haste_geometry::{Angle, Vec2};
    use haste_model::{
        evaluate_relaxed, Charger, ChargingParams, CoverageMap, Scenario, Task, TimeGrid,
    };

    fn line_scenario() -> Scenario {
        let params =
            ChargingParams::simulation_default().with_receiving_angle(std::f64::consts::TAU);
        Scenario::new(
            params,
            TimeGrid::minutes(4),
            vec![
                Charger::new(0, Vec2::new(0.0, 0.0)),
                Charger::new(1, Vec2::new(30.0, 0.0)),
                Charger::new(2, Vec2::new(60.0, 0.0)),
            ],
            vec![
                Task::new(0, Vec2::new(0.0, 10.0), Angle::ZERO, 0, 4, 960.0, 1.0),
                Task::new(1, Vec2::new(15.0, 0.0), Angle::ZERO, 0, 4, 960.0, 1.0),
                Task::new(2, Vec2::new(45.0, 0.0), Angle::ZERO, 0, 4, 960.0, 1.0),
                Task::new(3, Vec2::new(60.0, 10.0), Angle::ZERO, 0, 4, 960.0, 1.0),
            ],
            0.0,
            0,
        )
        .unwrap()
    }

    #[test]
    fn negotiation_matches_relaxed_evaluator() {
        let s = line_scenario();
        let cov = CoverageMap::build(&s);
        let graph = NeighborGraph::build(&cov);
        let inst = HasteRInstance::build(&s, &cov, DominantScope::PerSlot);
        let (sel, stats) = negotiate_rounds(&inst, &graph, &NegotiationConfig::default());
        let schedule = inst.materialize(&sel);
        let report = evaluate_relaxed(&s, &cov, &schedule);
        assert!((sel.value - report.total_utility).abs() < 1e-9);
        assert!(stats.messages > 0);
        assert!(stats.rounds >= inst.num_slots() as u64);
    }

    #[test]
    fn negotiation_meets_half_of_optimum() {
        let s = line_scenario();
        let cov = CoverageMap::build(&s);
        let graph = NeighborGraph::build(&cov);
        let inst = HasteRInstance::build(&s, &cov, DominantScope::PerSlot);
        let opt = haste_submodular::brute_force(&inst, 1 << 24).unwrap();
        for colors in [1usize, 4] {
            let (sel, _) = negotiate_rounds(
                &inst,
                &graph,
                &NegotiationConfig {
                    colors,
                    samples: 16,
                    seed: 5,
                },
            );
            assert!(
                sel.value >= 0.5 * opt.value - 1e-9,
                "C={colors}: {} < half of {}",
                sel.value,
                opt.value
            );
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let s = line_scenario();
        let cov = CoverageMap::build(&s);
        let graph = NeighborGraph::build(&cov);
        let inst = HasteRInstance::build(&s, &cov, DominantScope::PerSlot);
        let cfg = NegotiationConfig {
            colors: 4,
            samples: 8,
            seed: 77,
        };
        let (a, sa) = negotiate_rounds(&inst, &graph, &cfg);
        let (b, sb) = negotiate_rounds(&inst, &graph, &cfg);
        assert_eq!(a.choices, b.choices);
        assert_eq!(sa.messages, sb.messages);
        assert_eq!(sa.rounds, sb.rounds);
    }

    #[test]
    fn empty_instance_sends_nothing() {
        let mut s = line_scenario();
        s.tasks.clear();
        let cov = CoverageMap::build(&s);
        let graph = NeighborGraph::build(&cov);
        let inst = HasteRInstance::build(&s, &cov, DominantScope::PerSlot);
        let (sel, stats) = negotiate_rounds(&inst, &graph, &NegotiationConfig::default());
        assert_eq!(sel.value, 0.0);
        assert_eq!(stats.messages, 0);
    }

    #[test]
    fn contention_resolves_by_gain_then_id() {
        // Two chargers able to serve one shared task; only one should point
        // at it per slot (the second charger's marginal after the first
        // saturates the slot is smaller but still positive — both may
        // serve; what matters is the negotiation terminates and beats
        // the single-charger utility).
        let params =
            ChargingParams::simulation_default().with_receiving_angle(std::f64::consts::TAU);
        let s = Scenario::new(
            params,
            TimeGrid::minutes(2),
            vec![
                Charger::new(0, Vec2::new(0.0, 0.0)),
                Charger::new(1, Vec2::new(20.0, 0.0)),
            ],
            vec![Task::new(
                0,
                Vec2::new(10.0, 0.0),
                Angle::ZERO,
                0,
                2,
                2000.0,
                1.0,
            )],
            0.0,
            0,
        )
        .unwrap();
        let cov = CoverageMap::build(&s);
        let graph = NeighborGraph::build(&cov);
        assert_eq!(graph.degree(0), 1);
        let inst = HasteRInstance::build(&s, &cov, DominantScope::PerSlot);
        let (sel, stats) = negotiate_rounds(&inst, &graph, &NegotiationConfig::default());
        // Both chargers end up serving the task (their gains stay positive).
        assert_eq!(sel.num_chosen(), 4);
        // Two rounds of competition per slot at minimum.
        assert!(stats.rounds >= 4);
    }
}
