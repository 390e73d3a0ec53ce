//! Concurrent negotiation engine: one OS thread per charger, message
//! passing over crossbeam channels.
//!
//! This engine demonstrates that Algorithm 3 really is distributed: each
//! charger thread holds *only its local view* of the per-sample energy
//! states and updates it exclusively from `Decide` messages received from
//! its neighbors. The protocol is identical to the
//! [round engine](crate::negotiate_rounds) — synchronous bid/decide rounds
//! per (slot, color) with the same deterministic winner rule — so both
//! engines produce bit-identical selections regardless of thread scheduling
//! (asserted by tests and the `distributed` bench).
//!
//! Round pacing uses a [`std::sync::Barrier`] plus one shared "anyone fixed
//! this round?" flag; a deployed system would detect quiescence with its
//! own termination protocol, which is orthogonal to what the paper measures
//! (bids and updates — the messages this engine counts).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;

use crossbeam::channel::{unbounded, Receiver, Sender};
use haste_core::{EnergyState, HasteRInstance};
use haste_submodular::{PartitionedObjective, Selection};

use crate::neighbors::NeighborGraph;
use crate::protocol::{NegotiationConfig, NegotiationStats};
use crate::round_engine::{best_bid, matching_samples, round_best_sample};

/// One message on the control channel between neighboring chargers.
#[derive(Debug, Clone, Copy)]
enum Msg {
    /// `ΔF*` announcement: the sender's best (gain, choice) for the current
    /// (slot, color), or `None` if it has dropped out.
    Bid {
        from: usize,
        bid: Option<(f64, usize)>,
    },
    /// End-of-round decision: `Some(choice)` iff the sender fixed a policy
    /// this round (the paper's `UPD` message).
    Decide {
        from: usize,
        fixed_choice: Option<usize>,
    },
}

/// Runs the negotiation with one thread per charger. Produces the same
/// selection and message/round counts as [`crate::negotiate_rounds`].
pub fn negotiate_threaded(
    inst: &HasteRInstance,
    graph: &NeighborGraph,
    cfg: &NegotiationConfig,
) -> (Selection, NegotiationStats) {
    let n = graph.num_chargers();
    let k_total = inst.num_slots();
    let c_total = cfg.colors.max(1);
    if n == 0 || k_total == 0 {
        return (
            Selection::empty(inst.num_partitions()),
            NegotiationStats::new(k_total),
        );
    }

    // Mailboxes: one channel per charger; senders handed to its neighbors.
    let (senders, receivers): (Vec<Sender<Msg>>, Vec<Receiver<Msg>>) =
        (0..n).map(|_| unbounded()).unzip();

    let barrier = Barrier::new(n);
    let any_fixed = AtomicBool::new(false);
    let total_messages = AtomicU64::new(0);
    // Oracle accounting mirrors the round engine: each charger counts its
    // own bid scans and own-fix commits (neighbor Decide replays are the
    // distributed copy of a commit already counted at the fixer).
    let total_marginals = AtomicU64::new(0);
    let total_commits = AtomicU64::new(0);
    let per_slot_messages: Vec<AtomicU64> = (0..k_total).map(|_| AtomicU64::new(0)).collect();
    let per_slot_rounds: Vec<AtomicU64> = (0..k_total).map(|_| AtomicU64::new(0)).collect();

    // Each thread returns its own fixed policies: (partition, color, choice).
    let fixes_per_charger: Vec<Vec<(usize, usize, usize)>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            let my_rx = receivers[i].clone();
            let neighbor_tx: Vec<Sender<Msg>> = graph
                .neighbors(i)
                .iter()
                .map(|&j| senders[j].clone())
                .collect();
            let barrier = &barrier;
            let any_fixed = &any_fixed;
            let total_messages = &total_messages;
            let total_marginals = &total_marginals;
            let total_commits = &total_commits;
            let per_slot_messages = &per_slot_messages;
            let per_slot_rounds = &per_slot_rounds;
            handles.push(scope.spawn(move || {
                charger_thread(
                    i,
                    inst,
                    graph,
                    cfg,
                    my_rx,
                    neighbor_tx,
                    barrier,
                    any_fixed,
                    total_messages,
                    total_marginals,
                    total_commits,
                    per_slot_messages,
                    per_slot_rounds,
                )
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("charger thread panicked"))
            .collect()
    });

    let mut table: Vec<Option<usize>> = vec![None; inst.num_partitions() * c_total];
    for fixes in &fixes_per_charger {
        for &(p, c, x) in fixes {
            table[p * c_total + c] = Some(x);
        }
    }
    // Best-of-N rounding, identical to the round engine's (each sample's
    // induced solution is replayed from the assembled table).
    let selection = round_best_sample(inst, cfg, &table);

    let mut stats = NegotiationStats::new(k_total);
    stats.messages = total_messages.load(Ordering::Relaxed);
    stats.oracle_marginals = total_marginals.load(Ordering::Relaxed);
    stats.oracle_commits = total_commits.load(Ordering::Relaxed);
    for k in 0..k_total {
        stats.per_slot_messages[k] = per_slot_messages[k].load(Ordering::Relaxed);
        let r = per_slot_rounds[k].load(Ordering::Relaxed);
        stats.per_slot_rounds[k] = r;
        stats.rounds += r;
    }
    (selection, stats)
}

/// The per-charger thread body: local state, bid/decide rounds.
#[allow(clippy::too_many_arguments)]
fn charger_thread(
    me: usize,
    inst: &HasteRInstance,
    graph: &NeighborGraph,
    cfg: &NegotiationConfig,
    rx: Receiver<Msg>,
    neighbor_tx: Vec<Sender<Msg>>,
    barrier: &Barrier,
    any_fixed: &AtomicBool,
    total_messages: &AtomicU64,
    total_marginals: &AtomicU64,
    total_commits: &AtomicU64,
    per_slot_messages: &[AtomicU64],
    per_slot_rounds: &[AtomicU64],
) -> Vec<(usize, usize, usize)> {
    let n = graph.num_chargers();
    let k_total = inst.num_slots();
    let c_total = cfg.colors.max(1);
    let n_samples = cfg.effective_samples();
    let deg = neighbor_tx.len();

    // Local view: this charger's copy of the per-sample energies, fed only
    // by its own commits and neighbors' Decide messages.
    let mut local_states: Vec<EnergyState> = (0..n_samples).map(|_| inst.new_state()).collect();
    let mut my_fixes: Vec<(usize, usize, usize)> = Vec::new();
    // A fast neighbor may send its Decide before we finished collecting
    // Bids; barriers guarantee all buffered messages belong to the current
    // round, so one small reorder buffer suffices.
    let mut pending: std::collections::VecDeque<Msg> = std::collections::VecDeque::new();

    let count = |slot: usize, msgs: u64| {
        total_messages.fetch_add(msgs, Ordering::Relaxed);
        per_slot_messages[slot].fetch_add(msgs, Ordering::Relaxed);
    };

    #[allow(clippy::needless_range_loop)] // rel_k indexes stats and partitions
    for rel_k in 0..k_total {
        for c in 0..c_total {
            let my_partition = rel_k * n + me;
            let mut done = inst.num_choices(my_partition) == 0;
            loop {
                // Round start: leader resets the "someone fixed" flag and
                // counts the round.
                if barrier.wait().is_leader() {
                    any_fixed.store(false, Ordering::SeqCst);
                    per_slot_rounds[rel_k].fetch_add(1, Ordering::Relaxed);
                }
                barrier.wait();

                // Bid phase. Done chargers keep sending lockstep `None`
                // bids (not counted — the deployed protocol simply stops).
                let my_bid = if done {
                    None
                } else {
                    let (bid, calls) = best_bid(inst, &local_states, cfg, c, my_partition);
                    total_marginals.fetch_add(calls, Ordering::Relaxed);
                    bid
                };
                if !done {
                    count(rel_k, deg as u64);
                }
                for tx in &neighbor_tx {
                    tx.send(Msg::Bid {
                        from: me,
                        bid: my_bid,
                    })
                    .expect("neighbor alive");
                }
                let mut neighbor_bids: Vec<(usize, Option<(f64, usize)>)> = Vec::with_capacity(deg);
                while neighbor_bids.len() < deg {
                    // Buffered messages are all Decides of this round
                    // (Bids are consumed immediately), so poll the channel.
                    match rx.recv().expect("bid expected") {
                        Msg::Bid { from, bid } => neighbor_bids.push((from, bid)),
                        // A fast neighbor already moved on to its decide
                        // phase; stash its Decide for ours.
                        decide @ Msg::Decide { .. } => pending.push_back(decide),
                    }
                }

                // Decide phase.
                let i_win = match my_bid {
                    None => false,
                    Some((gain, _)) => neighbor_bids.iter().all(|&(j, bid)| match bid {
                        Some((gj, _)) => gain > gj || (gain == gj && me < j),
                        None => true,
                    }),
                };
                let fixed_choice = if i_win {
                    let (_, choice) = my_bid.expect("winner has a bid");
                    Some(choice)
                } else {
                    None
                };
                for tx in &neighbor_tx {
                    tx.send(Msg::Decide {
                        from: me,
                        fixed_choice,
                    })
                    .expect("neighbor alive");
                }
                if let Some(choice) = fixed_choice {
                    count(rel_k, deg as u64); // UPD broadcast
                    my_fixes.push((my_partition, c, choice));
                    for s in matching_samples(cfg, my_partition, c) {
                        inst.commit(&mut local_states[s], my_partition, choice);
                        total_commits.fetch_add(1, Ordering::Relaxed);
                    }
                    any_fixed.store(true, Ordering::SeqCst);
                    done = true;
                } else if my_bid.is_none() {
                    done = true;
                }
                for _ in 0..deg {
                    let msg = pending
                        .pop_front()
                        .unwrap_or_else(|| rx.recv().expect("decide expected"));
                    match msg {
                        Msg::Decide { from, fixed_choice } => {
                            if let Some(choice) = fixed_choice {
                                let p = rel_k * n + from;
                                for s in matching_samples(cfg, p, c) {
                                    inst.commit(&mut local_states[s], p, choice);
                                }
                            }
                        }
                        // Barriers prevent a next-round Bid from arriving
                        // before every Decide of this round is consumed.
                        Msg::Bid { .. } => unreachable!("phase mismatch"),
                    }
                }

                barrier.wait();
                if !any_fixed.load(Ordering::SeqCst) {
                    break;
                }
            }
        }
    }
    my_fixes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round_engine::negotiate_rounds;
    use haste_core::DominantScope;
    use haste_geometry::{Angle, Vec2};
    use haste_model::{Charger, ChargingParams, CoverageMap, Scenario, Task, TimeGrid};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_scenario(seed: u64, n: usize, m: usize) -> Scenario {
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
                let release = rng.gen_range(0..4usize);
                let duration = rng.gen_range(1..=4usize);
                Task::new(
                    j as u32,
                    Vec2::new(rng.gen_range(0.0..50.0), rng.gen_range(0.0..50.0)),
                    Angle::from_radians(rng.gen_range(0.0..std::f64::consts::TAU)),
                    release,
                    release + duration,
                    rng.gen_range(200.0..2000.0),
                    1.0 / m as f64,
                )
            })
            .collect();
        Scenario::new(params, TimeGrid::minutes(8), chargers, tasks, 0.0, 0).unwrap()
    }

    #[test]
    fn threaded_matches_round_engine_exactly() {
        for seed in 0..4u64 {
            let s = random_scenario(seed, 6, 12);
            let cov = CoverageMap::build(&s);
            let graph = NeighborGraph::build(&cov);
            let inst = HasteRInstance::build(&s, &cov, DominantScope::PerSlot);
            for colors in [1usize, 3] {
                let cfg = NegotiationConfig {
                    colors,
                    samples: 8,
                    seed: seed * 31 + 7,
                };
                let (sel_r, stats_r) = negotiate_rounds(&inst, &graph, &cfg);
                let (sel_t, stats_t) = negotiate_threaded(&inst, &graph, &cfg);
                assert_eq!(
                    sel_r.choices, sel_t.choices,
                    "seed {seed} C={colors}: selections diverge"
                );
                assert!((sel_r.value - sel_t.value).abs() < 1e-12);
                assert_eq!(stats_r.messages, stats_t.messages, "seed {seed} C={colors}");
                assert_eq!(stats_r.rounds, stats_t.rounds);
                assert_eq!(stats_r.per_slot_messages, stats_t.per_slot_messages);
                // Both engines execute the same protocol, so they pay the
                // same oracle work.
                assert_eq!(stats_r.oracle_marginals, stats_t.oracle_marginals);
                assert_eq!(stats_r.oracle_commits, stats_t.oracle_commits);
                assert!(stats_r.oracle_marginals > 0);
            }
        }
    }

    #[test]
    fn single_charger_network() {
        let s = random_scenario(9, 1, 5);
        let cov = CoverageMap::build(&s);
        let graph = NeighborGraph::build(&cov);
        let inst = HasteRInstance::build(&s, &cov, DominantScope::PerSlot);
        let (sel, stats) = negotiate_threaded(&inst, &graph, &NegotiationConfig::default());
        // Degree 0 → no messages at all, but decisions still happen.
        assert_eq!(stats.messages, 0);
        let (sel_r, _) = negotiate_rounds(&inst, &graph, &NegotiationConfig::default());
        assert_eq!(sel.choices, sel_r.choices);
    }
}
