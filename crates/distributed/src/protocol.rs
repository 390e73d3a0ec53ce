//! Shared protocol pieces of the distributed negotiation.

/// Configuration of a negotiation run (the distributed analogue of the
/// offline TabularGreedy options).
#[derive(Debug, Clone)]
pub struct NegotiationConfig {
    /// Number of colors `C` (1 = distributed locally greedy).
    pub colors: usize,
    /// Monte-Carlo color-vector samples (`C > 1` only).
    pub samples: usize,
    /// Seed of the *shared* randomness: all chargers derive the same color
    /// matrix from it, as deployed chargers would from a broadcast seed.
    pub seed: u64,
}

impl Default for NegotiationConfig {
    fn default() -> Self {
        NegotiationConfig {
            colors: 1,
            samples: 1,
            seed: 0,
        }
    }
}

impl NegotiationConfig {
    /// Effective sample count: a single deterministic sample when `C = 1`.
    pub fn effective_samples(&self) -> usize {
        if self.colors <= 1 {
            1
        } else {
            self.samples.max(1)
        }
    }
}

/// Communication counters of a negotiation (Fig. 16 of the paper).
///
/// A broadcast by charger `i` counts as `|N(s_i)|` messages (one per
/// neighbor). A *round* is one synchronous bid/decide exchange within a
/// (slot, color) negotiation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NegotiationStats {
    /// Total messages sent.
    pub messages: u64,
    /// Total rounds executed.
    pub rounds: u64,
    /// Marginal-gain oracle evaluations across all chargers' bid
    /// computations (each charger counts its own `best_bid` scans).
    pub oracle_marginals: u64,
    /// Commit operations chargers applied to their local sample states when
    /// fixing their own policies (neighbor-decide replays are not counted —
    /// they mirror a commit already counted at the fixing charger).
    pub oracle_commits: u64,
    /// Messages per decision slot (indexed by slot − range start).
    pub per_slot_messages: Vec<u64>,
    /// Rounds per decision slot.
    pub per_slot_rounds: Vec<u64>,
}

impl NegotiationStats {
    /// Creates counters for `slots` decision slots.
    pub fn new(slots: usize) -> Self {
        NegotiationStats {
            messages: 0,
            rounds: 0,
            oracle_marginals: 0,
            oracle_commits: 0,
            per_slot_messages: vec![0; slots],
            per_slot_rounds: vec![0; slots],
        }
    }

    /// Records `count` messages in decision slot `slot`.
    pub fn add_messages(&mut self, slot: usize, count: u64) {
        self.messages += count;
        self.per_slot_messages[slot] += count;
    }

    /// Records one round in decision slot `slot`.
    pub fn add_round(&mut self, slot: usize) {
        self.rounds += 1;
        self.per_slot_rounds[slot] += 1;
    }

    /// Merges another run's counters (slot-wise lengths may differ; the
    /// online loop renegotiates shrinking suffixes).
    pub fn absorb(&mut self, other: &NegotiationStats, slot_offset: usize) {
        self.messages += other.messages;
        self.rounds += other.rounds;
        self.oracle_marginals += other.oracle_marginals;
        self.oracle_commits += other.oracle_commits;
        let needed = slot_offset + other.per_slot_messages.len();
        if self.per_slot_messages.len() < needed {
            self.per_slot_messages.resize(needed, 0);
            self.per_slot_rounds.resize(needed, 0);
        }
        for (k, (&m, &r)) in other
            .per_slot_messages
            .iter()
            .zip(&other.per_slot_rounds)
            .enumerate()
        {
            self.per_slot_messages[slot_offset + k] += m;
            self.per_slot_rounds[slot_offset + k] += r;
        }
    }

    /// Average messages per decision slot.
    pub fn avg_messages_per_slot(&self) -> f64 {
        if self.per_slot_messages.is_empty() {
            return 0.0;
        }
        self.messages as f64 / self.per_slot_messages.len() as f64
    }

    /// Average rounds per decision slot.
    pub fn avg_rounds_per_slot(&self) -> f64 {
        if self.per_slot_rounds.is_empty() {
            return 0.0;
        }
        self.rounds as f64 / self.per_slot_rounds.len() as f64
    }
}

/// The shared color matrix: `color(seed, sample, partition) ∈ [0, C)`.
///
/// Every charger evaluates this pure function identically, so the Monte-
/// Carlo color samples agree network-wide without extra communication
/// (stand-in for the paper's uniformly random `c_{i,k}` with a broadcast
/// seed). SplitMix64 finalizer over the packed inputs.
#[inline]
pub fn color_of(seed: u64, sample: usize, partition: usize, colors: usize) -> usize {
    if colors <= 1 {
        return 0;
    }
    let mut z = seed
        ^ (sample as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (partition as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % colors as u64) as usize
}

/// The final rounding colors for each partition, derived from the shared
/// seed with a distinct stream tag (paper: each charger draws its own
/// partitions' colors uniformly; a shared seed makes the draw reproducible).
///
/// The engines now use best-of-N rounding over the sampled color vectors
/// instead (see `negotiate_rounds`); this function remains as the paper's
/// literal rounding rule for reference and experimentation.
#[inline]
pub fn final_color_of(seed: u64, partition: usize, colors: usize) -> usize {
    color_of(seed ^ 0xF1A1_C0DE_0000_0001, usize::MAX, partition, colors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colors_in_range_and_deterministic() {
        for c in [1usize, 2, 4, 8] {
            for s in 0..5 {
                for p in 0..100 {
                    let a = color_of(42, s, p, c);
                    let b = color_of(42, s, p, c);
                    assert_eq!(a, b);
                    assert!(a < c);
                }
            }
        }
    }

    #[test]
    fn colors_vary_with_inputs() {
        let c = 8;
        let mut distinct = std::collections::BTreeSet::new();
        for p in 0..64 {
            distinct.insert(color_of(1, 0, p, c));
        }
        assert!(distinct.len() >= 4, "color function is degenerate");
    }

    #[test]
    fn colors_roughly_uniform() {
        let c = 4;
        let mut counts = [0u32; 4];
        for p in 0..4000 {
            counts[color_of(7, 3, p, c)] += 1;
        }
        for &count in &counts {
            assert!((800..1200).contains(&count), "skewed: {counts:?}");
        }
    }

    #[test]
    fn final_colors_in_range() {
        for c in [1usize, 3, 5] {
            for p in 0..50 {
                assert!(final_color_of(9, p, c) < c);
            }
        }
    }

    #[test]
    fn stats_accumulate_and_absorb() {
        let mut a = NegotiationStats::new(3);
        a.add_messages(0, 5);
        a.add_round(0);
        a.add_round(1);
        let mut b = NegotiationStats::new(2);
        b.add_messages(1, 7);
        b.add_round(1);
        a.absorb(&b, 1);
        assert_eq!(a.messages, 12);
        assert_eq!(a.rounds, 3);
        assert_eq!(a.per_slot_messages, vec![5, 0, 7]);
        assert_eq!(a.per_slot_rounds, vec![1, 1, 1]);
        assert!((a.avg_messages_per_slot() - 4.0).abs() < 1e-12);
        assert!((a.avg_rounds_per_slot() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn absorb_grows_slot_vectors() {
        let mut a = NegotiationStats::new(1);
        let mut b = NegotiationStats::new(4);
        b.add_messages(3, 2);
        a.absorb(&b, 2);
        assert_eq!(a.per_slot_messages.len(), 6);
        assert_eq!(a.per_slot_messages[5], 2);
    }
}
