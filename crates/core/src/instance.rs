//! The HASTE-R ground set and its submodular objective (Section 4.2 / RP2).
//!
//! Partitions are the blocks `Θ_{i,k}` — one per (charger, slot) pair,
//! indexed slot-major (`p = (k − k₀)·n + i`) so that partition order matches
//! the distributed algorithm's outer-slot loop. A partition's choices are
//! the charger's dominant task sets; selecting choice `x` in partition
//! `(i, k)` means "charger `i` spends slot `k` at the orientation covering
//! dominant set `x`". The objective is the paper's `f(X)` of RP2: the
//! weighted sum of task utilities of accumulated energy, evaluated *without*
//! switching delay (the HASTE-R relaxation).
//!
//! [`InstanceOptions`] generalizes the construction for the online setting:
//! a slot range (re-negotiating only the future), initial per-task energies
//! (what the frozen past already delivered), and a task visibility delay
//! (tasks become actionable `τ` slots after release).

use std::ops::Range;
use std::sync::Arc;

use haste_geometry::Angle;
use haste_model::{CandidateTask, ChargerId, CoverageMap, Scenario, Schedule, Slot, UtilityFn};
use haste_submodular::{PartitionedObjective, Selection};

use crate::dominant::{extract_dominant_sets, DominantSet};

/// Whether dominant sets are extracted per slot (over the tasks active in
/// that slot) or once globally per charger (the paper's `Γ_{i,k} = Γ_i`).
///
/// Both scope choices yield the same achievable coverage — a globally
/// dominant set restricted to a slot's active tasks is contained in some
/// per-slot dominant set and vice versa — but the per-slot ground set is
/// smaller and never offers energy to inactive tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DominantScope {
    /// Extract from tasks active in each slot (default; smaller ground set).
    PerSlot,
    /// Extract once per charger from all tasks, reuse for every slot
    /// (exactly the paper's formulation).
    Global,
}

/// Construction options for [`HasteRInstance::build_with`].
#[derive(Debug, Clone, Default)]
pub struct InstanceOptions {
    /// Dominant-set extraction scope (default [`DominantScope::PerSlot`]).
    pub scope: Option<DominantScope>,
    /// Decision slots (default `0 .. scenario.active_horizon()`).
    pub slot_range: Option<Range<Slot>>,
    /// Only tasks with `known[j]` participate (default: all). The online
    /// scheduler uses this to hide not-yet-released tasks.
    pub known_tasks: Option<Vec<bool>>,
    /// Energy each task already holds before the first decision slot
    /// (default zeros). Marginals are computed on top of this; the
    /// objective still reports *gain* (`f(∅) = 0`).
    pub initial_energy: Option<Vec<f64>>,
    /// A task only enters a slot's policies once `slot ≥ release + delay`
    /// (the rescheduling delay `τ` for purely local algorithms; the online
    /// negotiation loop instead handles `τ` by freezing prefixes).
    pub visibility_delay: Option<usize>,
    /// Chargers with `disabled[i]` get no policies at all — the online
    /// scheduler uses this to plan around failed chargers.
    pub disabled_chargers: Option<Vec<bool>>,
    /// Worker threads for the per-charger dominant-set extraction (`None`
    /// or `Some(1)` = sequential, `Some(0)` = auto-detect via
    /// `haste_parallel::default_threads`). Builds with little extraction
    /// left to do run inline regardless. Chargers are independent during
    /// extraction and families are assembled in charger order afterwards,
    /// so the instance is identical for every thread count.
    pub threads: Option<usize>,
}

/// One selectable scheduling policy: a dominant set with the per-slot energy
/// each member receives.
#[derive(Debug, Clone)]
pub struct Policy {
    /// Orientation `Θ_{i,k}^p` realizing the dominant set.
    pub orientation: Angle,
    /// `(task index, energy per fully-effective slot in joules)`.
    pub deliveries: Vec<(usize, f64)>,
}

/// Minimum derivation work (candidates × slots still to derive, summed over
/// the chargers whose timelines need it) before an instance build fans the
/// extraction out across threads: below this the scoped-thread setup costs
/// more than the extraction it parallelizes. Both paths derive identical
/// timelines, so the gate only moves wall-clock.
const PAR_TIMELINE_MIN_WORK: usize = 65_536;

/// A stretch `start..end` of one charger's slots over which its usable
/// candidate set — and therefore its policy family — is constant.
#[derive(Debug, Clone)]
struct Segment {
    start: Slot,
    end: Slot,
    family: Arc<[Policy]>,
}

/// One charger's policy timeline: contiguous segments, plus how many known
/// candidates they were derived from.
#[derive(Debug, Clone, Default)]
struct ChargerTimeline {
    known: Option<usize>,
    segments: Vec<Segment>,
}

/// Per-charger policy timelines, held across instance builds by an online
/// event loop (see [`HasteRInstance::build_on`]).
///
/// Segment boundaries are every candidate's visibility start and end slot,
/// known or not, so they do not depend on which tasks are known; a
/// segment's family is a pure function of the charger's known candidates
/// active in it. A charger whose known-candidate count is unchanged since
/// the last build (known sets only grow) therefore keeps its timeline,
/// clipped to the new slot range and extended if the range grew; only the
/// other chargers' dominant sets are extracted again.
///
/// One value serves one event loop: every build over the same scenario,
/// whose tasks, coverage and known set only ever grow, and whose slot
/// range never starts earlier than the previous one did (an earlier start
/// re-derives from scratch). Start from `PolicyTimelines::default()`.
#[derive(Debug, Clone, Default)]
pub struct PolicyTimelines {
    /// `(scope, visibility delay)` the timelines were derived under.
    derived_under: Option<(DominantScope, usize)>,
    chargers: Vec<ChargerTimeline>,
}

impl PolicyTimelines {
    /// Forgets every timeline derived under different build settings.
    fn reset_unless(&mut self, chargers: usize, scope: DominantScope, visibility_delay: usize) {
        let key = Some((scope, visibility_delay));
        if self.derived_under != key || self.chargers.len() != chargers {
            self.derived_under = key;
            self.chargers = vec![ChargerTimeline::default(); chargers];
        }
    }
}

impl ChargerTimeline {
    /// Reuses what still holds for `known` candidates over `range` and
    /// returns the slot derivation has to resume from (`range.end` when the
    /// timeline already covers the range).
    fn prepare(&mut self, known: usize, range: &Range<Slot>, deriver: &Deriver, i: usize) -> Slot {
        if self.known != Some(known) || self.segments.first().is_some_and(|s| s.start > range.start)
        {
            self.known = Some(known);
            self.segments.clear();
        }
        self.segments
            .retain(|s| s.end > range.start && s.start < range.end);
        if let Some(first) = self.segments.first_mut() {
            first.start = range.start;
        }
        match self.segments.last_mut() {
            None => range.start,
            Some(last) => {
                // The tail may have been cut at an earlier, shorter range:
                // its family holds up to the next boundary under this one.
                last.end = deriver.next_boundary(i, last.start, range.end);
                last.end
            }
        }
    }
}

/// Derives policy families for one build: the scenario, coverage and the
/// options that decide which candidates are usable in which slot.
struct Deriver<'s> {
    scenario: &'s Scenario,
    coverage: &'s CoverageMap,
    known: Option<&'s [bool]>,
    visibility_delay: usize,
    scope: DominantScope,
}

impl Deriver<'_> {
    fn candidates(&self, i: usize) -> &[CandidateTask] {
        self.coverage.tasks_of(ChargerId(i as u32))
    }

    fn is_known(&self, task_idx: usize) -> bool {
        self.known.is_none_or(|kn| kn[task_idx])
    }

    fn known_candidates(&self, i: usize) -> impl Iterator<Item = &CandidateTask> {
        self.candidates(i)
            .iter()
            .filter(|c| self.is_known(c.task.index()))
    }

    fn usable(&self, task_idx: usize, k: Slot) -> bool {
        let task = &self.scenario.tasks[task_idx];
        task.active_at(k)
            && self.is_known(task_idx)
            && k >= task.release_slot + self.visibility_delay
    }

    /// First slot after `k` (capped at `end`) where some candidate's
    /// visibility starts or ends — known or not, so that boundaries never
    /// move when a task becomes known.
    fn next_boundary(&self, i: usize, k: Slot, end: Slot) -> Slot {
        let mut next = end;
        for c in self.candidates(i) {
            let task = &self.scenario.tasks[c.task.index()];
            let start = task.release_slot + self.visibility_delay;
            if start > k && start < next {
                next = start;
            }
            if task.end_slot > k && task.end_slot < next {
                next = task.end_slot;
            }
        }
        next
    }

    /// Derives charger `i`'s segments over `from..end`.
    fn segments(&self, i: usize, from: Slot, end: Slot) -> Vec<Segment> {
        let slot_seconds = self.scenario.grid.slot_seconds;
        let charging_angle = self.scenario.params.charging_angle;
        // Global extraction reuses one dominant family per charger.
        let global: Vec<DominantSet> = match self.scope {
            DominantScope::PerSlot => Vec::new(),
            DominantScope::Global => {
                let known: Vec<_> = self.known_candidates(i).copied().collect();
                extract_dominant_sets(&known, charging_angle)
            }
        };
        let mut segments = Vec::new();
        let mut k = from;
        while k < end {
            let next = self.next_boundary(i, k, end);
            let family: Vec<Policy> = match self.scope {
                DominantScope::PerSlot => {
                    let active: Vec<_> = self
                        .candidates(i)
                        .iter()
                        .filter(|c| self.usable(c.task.index(), k))
                        .copied()
                        .collect();
                    if active.is_empty() {
                        Vec::new()
                    } else {
                        extract_dominant_sets(&active, charging_angle)
                            .into_iter()
                            .map(|set| Policy {
                                orientation: set.orientation,
                                deliveries: set
                                    .members
                                    .iter()
                                    .map(|&(t, power)| (t.index(), power * slot_seconds))
                                    .collect(),
                            })
                            .collect()
                    }
                }
                DominantScope::Global => global
                    .iter()
                    .map(|set| Policy {
                        orientation: set.orientation,
                        deliveries: set
                            .members
                            .iter()
                            // Global sets may contain tasks unusable in
                            // this segment; they receive nothing.
                            .filter(|(t, _)| self.usable(t.index(), k))
                            .map(|&(t, power)| (t.index(), power * slot_seconds))
                            .collect(),
                    })
                    .collect(),
            };
            segments.push(Segment {
                start: k,
                end: next,
                family: family.into(),
            });
            k = next;
        }
        segments
    }
}

/// The reformulated problem instance RP2: ground set + incremental oracle.
///
/// Policy families are stored once per (charger, activity segment) and
/// shared by every slot of the segment — the usable task set of a charger
/// is piecewise constant in time. The families are shared with the
/// [`PolicyTimelines`] they came from, so the online loop (which builds an
/// instance on every arrival) only derives the ones that changed.
pub struct HasteRInstance<'a> {
    scenario: &'a Scenario,
    /// Decision slots covered by this instance.
    pub slot_range: Range<Slot>,
    /// Unique policy families; `families[0]` is the empty family.
    families: Vec<Arc<[Policy]>>,
    /// `families` index for partition `p = (k − slot_range.start)·n + i`.
    partition_family: Vec<u32>,
    /// Per-task energy at the start of the instance.
    initial_energy: Vec<f64>,
    /// Segment families this build derived (the rest were reused).
    segments_derived: u64,
}

impl<'a> HasteRInstance<'a> {
    /// Builds the full-horizon instance (offline use).
    pub fn build(scenario: &'a Scenario, coverage: &CoverageMap, scope: DominantScope) -> Self {
        Self::build_with(
            scenario,
            coverage,
            InstanceOptions {
                scope: Some(scope),
                ..InstanceOptions::default()
            },
        )
    }

    /// Builds an instance under explicit [`InstanceOptions`].
    pub fn build_with(
        scenario: &'a Scenario,
        coverage: &CoverageMap,
        options: InstanceOptions,
    ) -> Self {
        Self::build_on(scenario, coverage, options, &mut PolicyTimelines::default())
    }

    /// Builds an instance under explicit [`InstanceOptions`], reusing (and
    /// updating) `timelines` from the previous build of the same event
    /// loop. Only chargers whose known-candidate set changed, or whose
    /// timeline does not yet reach the end of the slot range, derive
    /// policies; the instance equals a build from empty timelines
    /// ([`build_with`](Self::build_with)) partition for partition.
    pub fn build_on(
        scenario: &'a Scenario,
        coverage: &CoverageMap,
        options: InstanceOptions,
        timelines: &mut PolicyTimelines,
    ) -> Self {
        let n = scenario.num_chargers();
        let scope = options.scope.unwrap_or(DominantScope::PerSlot);
        let slot_range = options.slot_range.unwrap_or(0..scenario.active_horizon());
        let visibility_delay = options.visibility_delay.unwrap_or(0);
        let disabled = |i: usize| options.disabled_chargers.as_ref().is_some_and(|d| d[i]);
        let deriver = Deriver {
            scenario,
            coverage,
            known: options.known_tasks.as_deref(),
            visibility_delay,
            scope,
        };
        timelines.reset_unless(n, scope, visibility_delay);

        // Keep what still holds; collect the (charger, resume slot) pairs
        // that need extraction. Disabled chargers are left untouched: their
        // timelines catch up the next time they plan.
        let mut jobs: Vec<(usize, Slot)> = Vec::new();
        let mut work = 0;
        for (i, timeline) in timelines.chargers.iter_mut().enumerate() {
            if disabled(i) {
                continue;
            }
            let from = timeline.prepare(
                deriver.known_candidates(i).count(),
                &slot_range,
                &deriver,
                i,
            );
            if from < slot_range.end {
                jobs.push((i, from));
                work += deriver.candidates(i).len() * (slot_range.end - from);
            }
        }
        // Chargers are independent here; results come back in job order,
        // so the timelines are identical for every thread count.
        let threads = match options.threads {
            Some(t) if work >= PAR_TIMELINE_MIN_WORK => haste_parallel::resolve_threads(t),
            _ => 1,
        };
        let derived = haste_parallel::par_map(&jobs, threads, |_, &(i, from)| {
            deriver.segments(i, from, slot_range.end)
        });
        let mut segments_derived = 0;
        for (&(i, _), segments) in jobs.iter().zip(derived) {
            segments_derived += segments.len() as u64;
            timelines.chargers[i].segments.extend(segments);
        }

        // families[0] is the shared empty family.
        let mut families: Vec<Arc<[Policy]>> = vec![Arc::from(Vec::new())];
        let mut partition_family: Vec<u32> = vec![0; n * slot_range.len()];
        for (i, timeline) in timelines.chargers.iter().enumerate() {
            if disabled(i) {
                continue; // stays on the empty family
            }
            for segment in timeline.segments.iter().filter(|s| !s.family.is_empty()) {
                families.push(Arc::clone(&segment.family));
                let family_idx = (families.len() - 1) as u32;
                for slot in segment.start..segment.end {
                    partition_family[(slot - slot_range.start) * n + i] = family_idx;
                }
            }
        }
        let initial_energy = options
            .initial_energy
            .unwrap_or_else(|| vec![0.0; scenario.num_tasks()]);
        assert_eq!(initial_energy.len(), scenario.num_tasks());
        HasteRInstance {
            scenario,
            slot_range,
            families,
            partition_family,
            initial_energy,
            segments_derived,
        }
    }

    /// The scenario this instance was built from.
    pub fn scenario(&self) -> &Scenario {
        self.scenario
    }

    /// Number of decision slots covered.
    pub fn num_slots(&self) -> usize {
        self.slot_range.len()
    }

    /// Partition index of `(charger, slot)`; `slot` must be in range.
    #[inline]
    pub fn partition(&self, charger: ChargerId, slot: Slot) -> usize {
        debug_assert!(self.slot_range.contains(&slot));
        (slot - self.slot_range.start) * self.scenario.num_chargers() + charger.index()
    }

    /// Inverse of [`HasteRInstance::partition`].
    #[inline]
    pub fn charger_slot(&self, partition: usize) -> (ChargerId, Slot) {
        let n = self.scenario.num_chargers();
        (
            ChargerId((partition % n) as u32),
            partition / n + self.slot_range.start,
        )
    }

    /// The selectable policies of a partition.
    #[inline]
    pub fn policies(&self, partition: usize) -> &[Policy] {
        &self.families[self.partition_family[partition] as usize]
    }

    /// Charger segment families this build derived rather than reused from
    /// its [`PolicyTimelines`] (every segment, for a cold build).
    pub fn segments_derived(&self) -> u64 {
        self.segments_derived
    }

    /// Total number of ground-set elements (all policies of all partitions).
    pub fn ground_set_size(&self) -> usize {
        self.partition_family
            .iter()
            .map(|&f| self.families[f as usize].len())
            .sum()
    }

    /// Converts an optimizer [`Selection`] into a fresh orientation
    /// [`Schedule`] (slots outside the instance's range stay unassigned).
    pub fn materialize(&self, selection: &Selection) -> Schedule {
        let mut schedule =
            Schedule::empty(self.scenario.num_chargers(), self.scenario.grid.num_slots);
        self.materialize_into(selection, &mut schedule);
        schedule
    }

    /// Writes a selection's orientations into an existing schedule,
    /// touching only this instance's slot range.
    pub fn materialize_into(&self, selection: &Selection, schedule: &mut Schedule) {
        for (p, choice) in selection.choices.iter().enumerate() {
            let (charger, slot) = self.charger_slot(p);
            let theta = choice.map(|x| self.policies(p)[x].orientation);
            schedule.set(charger, slot, theta);
        }
    }

    /// A tie-break hook for the greedy optimizers that prefers, among
    /// equal-gain policies, one matching the orientation the charger holds
    /// in the previous slot — avoiding a needless switching delay without
    /// touching the HASTE-R objective value.
    pub fn switch_avoiding_tie_break(
        &self,
    ) -> impl Fn(&[Option<usize>], usize) -> Option<usize> + '_ {
        let n = self.scenario.num_chargers();
        move |choices: &[Option<usize>], p: usize| {
            let prev_p = p.checked_sub(n)?;
            let prev_choice = choices[prev_p]?;
            let prev_theta = self.policies(prev_p)[prev_choice].orientation;
            self.policies(p)
                .iter()
                .position(|pol| pol.orientation.distance(prev_theta).radians() < 1e-9)
        }
    }
}

/// Per-task accumulated energy plus the running objective value.
#[derive(Debug, Clone)]
pub struct EnergyState {
    /// Energy accumulated by each task, in joules (includes the instance's
    /// initial energy).
    pub energy: Vec<f64>,
    /// Cached `f` value: utility gained *by this instance's selections* on
    /// top of the initial energy.
    pub value: f64,
}

impl PartitionedObjective for HasteRInstance<'_> {
    type State = EnergyState;

    fn new_state(&self) -> EnergyState {
        EnergyState {
            energy: self.initial_energy.clone(),
            value: 0.0,
        }
    }

    fn num_partitions(&self) -> usize {
        self.partition_family.len()
    }

    fn num_choices(&self, partition: usize) -> usize {
        self.policies(partition).len()
    }

    fn value(&self, state: &EnergyState) -> f64 {
        state.value
    }

    fn marginal(&self, state: &EnergyState, partition: usize, choice: usize) -> f64 {
        let mut gain = 0.0;
        for &(task_idx, delta) in &self.policies(partition)[choice].deliveries {
            let task = &self.scenario.tasks[task_idx];
            gain += task.weight
                * self.scenario.utility.marginal(
                    state.energy[task_idx],
                    delta,
                    task.required_energy,
                );
        }
        gain
    }

    fn commit(&self, state: &mut EnergyState, partition: usize, choice: usize) {
        for &(task_idx, delta) in &self.policies(partition)[choice].deliveries {
            let task = &self.scenario.tasks[task_idx];
            state.value += task.weight
                * self.scenario.utility.marginal(
                    state.energy[task_idx],
                    delta,
                    task.required_energy,
                );
            state.energy[task_idx] += delta;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haste_geometry::{Angle, Vec2};
    use haste_model::{evaluate_relaxed, Charger, ChargingParams, Task, TimeGrid};
    use haste_submodular::{locally_greedy, GreedyOptions};

    /// One charger at the origin; two devices east and north, both facing
    /// back at the charger. A_s = 60° so they can't be covered together.
    fn scenario() -> Scenario {
        Scenario::new(
            ChargingParams::simulation_default(),
            TimeGrid::minutes(4),
            vec![Charger::new(0, Vec2::ZERO)],
            vec![
                Task::new(
                    0,
                    Vec2::new(10.0, 0.0),
                    Angle::from_degrees(180.0),
                    0,
                    4,
                    480.0,
                    1.0,
                ),
                Task::new(
                    1,
                    Vec2::new(0.0, 10.0),
                    Angle::from_degrees(270.0),
                    0,
                    2,
                    480.0,
                    1.0,
                ),
            ],
            0.0,
            0,
        )
        .unwrap()
    }

    #[test]
    fn ground_set_shape() {
        let s = scenario();
        let cov = CoverageMap::build(&s);
        let inst = HasteRInstance::build(&s, &cov, DominantScope::PerSlot);
        assert_eq!(inst.num_partitions(), 4); // 1 charger × 4 slots
                                              // Slots 0-1: both tasks active → two dominant sets; slots 2-3: one.
        assert_eq!(inst.num_choices(0), 2);
        assert_eq!(inst.num_choices(1), 2);
        assert_eq!(inst.num_choices(2), 1);
        assert_eq!(inst.num_choices(3), 1);
        assert_eq!(inst.ground_set_size(), 6);
    }

    #[test]
    fn partition_mapping_roundtrip() {
        let s = scenario();
        let cov = CoverageMap::build(&s);
        let inst = HasteRInstance::build(&s, &cov, DominantScope::PerSlot);
        for p in 0..inst.num_partitions() {
            let (c, k) = inst.charger_slot(p);
            assert_eq!(inst.partition(c, k), p);
        }
    }

    #[test]
    fn greedy_solution_matches_relaxed_evaluator() {
        // The oracle's incremental value must agree with the full P1
        // evaluator at ρ = 0 on the materialized schedule.
        let s = scenario();
        let cov = CoverageMap::build(&s);
        for scope in [DominantScope::PerSlot, DominantScope::Global] {
            let inst = HasteRInstance::build(&s, &cov, scope);
            let sel = locally_greedy(&inst, &GreedyOptions::default());
            let schedule = inst.materialize(&sel);
            let report = evaluate_relaxed(&s, &cov, &schedule);
            assert!(
                (sel.value - report.total_utility).abs() < 1e-9,
                "{scope:?}: oracle {} vs evaluator {}",
                sel.value,
                report.total_utility
            );
        }
    }

    #[test]
    fn per_slot_and_global_scopes_agree_on_value() {
        let s = scenario();
        let cov = CoverageMap::build(&s);
        let per_slot = HasteRInstance::build(&s, &cov, DominantScope::PerSlot);
        let global = HasteRInstance::build(&s, &cov, DominantScope::Global);
        let a = locally_greedy(&per_slot, &GreedyOptions::default());
        let b = locally_greedy(&global, &GreedyOptions::default());
        assert!((a.value - b.value).abs() < 1e-9);
    }

    #[test]
    fn optimum_serves_both_tasks_and_greedy_meets_its_bound() {
        // 240 J per aimed slot; each task needs 480 J, task 1 is only
        // active in slots 0-1. The optimum charges task 1 during 0-1 and
        // task 0 during 2-3 → both saturate → f = 2.0. Plain greedy may
        // tie-break into task 0 early and strand task 1, but must stay
        // within its 1/2 guarantee.
        let s = scenario();
        let cov = CoverageMap::build(&s);
        let inst = HasteRInstance::build(&s, &cov, DominantScope::PerSlot);
        let opt = haste_submodular::brute_force(&inst, 1 << 20).unwrap();
        assert!((opt.value - 2.0).abs() < 1e-9, "opt {}", opt.value);
        let sel = locally_greedy(&inst, &GreedyOptions::default());
        assert!(sel.value >= 0.5 * opt.value - 1e-9);
    }

    #[test]
    fn switch_avoiding_tie_break_prefers_previous_orientation() {
        let s = scenario();
        let cov = CoverageMap::build(&s);
        let inst = HasteRInstance::build(&s, &cov, DominantScope::PerSlot);
        let tie = inst.switch_avoiding_tie_break();
        // Suppose slot 0 chose the policy that serves task 0.
        let east_idx = inst
            .policies(0)
            .iter()
            .position(|p| p.deliveries.iter().any(|&(t, _)| t == 0))
            .unwrap();
        let chosen_theta = inst.policies(0)[east_idx].orientation;
        let mut choices = vec![None; inst.num_partitions()];
        choices[0] = Some(east_idx);
        // Partition 1 (same charger, slot 1) should prefer that same
        // orientation again.
        let preferred = tie(&choices, 1).unwrap();
        let theta = inst.policies(1)[preferred].orientation;
        assert!(theta.distance(chosen_theta).radians() < 1e-9);
        // No previous slot → no preference.
        assert_eq!(tie(&vec![None; inst.num_partitions()], 0), None);
    }

    #[test]
    fn oracle_passes_submodularity_validators() {
        let s = scenario();
        let cov = CoverageMap::build(&s);
        let inst = HasteRInstance::build(&s, &cov, DominantScope::PerSlot);
        haste_submodular::validate::check_all(&inst, 120, 7, 1e-9).unwrap();
    }

    #[test]
    fn slot_range_restricts_partitions() {
        let s = scenario();
        let cov = CoverageMap::build(&s);
        let inst = HasteRInstance::build_with(
            &s,
            &cov,
            InstanceOptions {
                slot_range: Some(2..4),
                ..InstanceOptions::default()
            },
        );
        assert_eq!(inst.num_partitions(), 2);
        let (c, k) = inst.charger_slot(0);
        assert_eq!((c, k), (ChargerId(0), 2));
        assert_eq!(inst.partition(ChargerId(0), 3), 1);
        // Only task 0 is active in slots 2-3.
        assert_eq!(inst.num_choices(0), 1);
    }

    #[test]
    fn initial_energy_shrinks_marginals() {
        let s = scenario();
        let cov = CoverageMap::build(&s);
        let fresh = HasteRInstance::build(&s, &cov, DominantScope::PerSlot);
        let primed = HasteRInstance::build_with(
            &s,
            &cov,
            InstanceOptions {
                initial_energy: Some(vec![400.0, 0.0]), // task 0 nearly full
                ..InstanceOptions::default()
            },
        );
        // Find the policy serving task 0 in partition 0 for both instances.
        let idx = |inst: &HasteRInstance| {
            inst.policies(0)
                .iter()
                .position(|p| p.deliveries.iter().any(|&(t, _)| t == 0))
                .unwrap()
        };
        let g_fresh = fresh.marginal(&fresh.new_state(), 0, idx(&fresh));
        let g_primed = primed.marginal(&primed.new_state(), 0, idx(&primed));
        // Fresh: 240/480 = 0.5; primed: only 80 J of headroom → 80/480.
        assert!((g_fresh - 0.5).abs() < 1e-9);
        assert!((g_primed - 80.0 / 480.0).abs() < 1e-9);
        // Normalization still holds.
        assert_eq!(primed.value(&primed.new_state()), 0.0);
    }

    #[test]
    fn unknown_tasks_are_invisible() {
        let s = scenario();
        let cov = CoverageMap::build(&s);
        let inst = HasteRInstance::build_with(
            &s,
            &cov,
            InstanceOptions {
                known_tasks: Some(vec![true, false]),
                ..InstanceOptions::default()
            },
        );
        // With task 1 hidden, every slot offers only the task-0 policy.
        for p in 0..inst.num_partitions() {
            assert!(inst.num_choices(p) <= 1);
            for pol in inst.policies(p) {
                assert!(pol.deliveries.iter().all(|&(t, _)| t == 0));
            }
        }
    }

    #[test]
    fn visibility_delay_hides_early_slots() {
        let s = scenario();
        let cov = CoverageMap::build(&s);
        let inst = HasteRInstance::build_with(
            &s,
            &cov,
            InstanceOptions {
                visibility_delay: Some(1),
                ..InstanceOptions::default()
            },
        );
        // Slot 0: both tasks released at 0 but invisible until slot 1.
        assert_eq!(inst.num_choices(0), 0);
        assert_eq!(inst.num_choices(1), 2);
    }

    #[test]
    fn disabled_chargers_get_no_policies() {
        let s = scenario();
        let cov = CoverageMap::build(&s);
        let inst = HasteRInstance::build_with(
            &s,
            &cov,
            InstanceOptions {
                disabled_chargers: Some(vec![true]),
                ..InstanceOptions::default()
            },
        );
        for p in 0..inst.num_partitions() {
            assert_eq!(inst.num_choices(p), 0);
        }
        assert_eq!(inst.ground_set_size(), 0);
    }

    /// One partition's policies as `(orientation bits, deliveries)`.
    type PartitionDigest = Vec<(u64, Vec<(usize, u64)>)>;

    fn digest(inst: &HasteRInstance) -> Vec<PartitionDigest> {
        (0..inst.num_partitions())
            .map(|p| {
                inst.policies(p)
                    .iter()
                    .map(|pol| {
                        let deliveries = pol
                            .deliveries
                            .iter()
                            .map(|&(t, e)| (t, e.to_bits()))
                            .collect();
                        (pol.orientation.radians().to_bits(), deliveries)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn warm_timelines_equal_cold_builds_over_an_event_sequence() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let (n, m) = (16, 96);
        let mut rng = StdRng::seed_from_u64(3);
        let params =
            ChargingParams::simulation_default().with_receiving_angle(std::f64::consts::TAU);
        let chargers = (0..n)
            .map(|i| {
                Charger::new(
                    i,
                    Vec2::new(rng.gen_range(0.0..20.0), rng.gen_range(0.0..20.0)),
                )
            })
            .collect();
        let tasks = (0..m)
            .map(|j| {
                let release = rng.gen_range(0..8usize);
                Task::new(
                    j,
                    Vec2::new(rng.gen_range(0.0..20.0), rng.gen_range(0.0..20.0)),
                    Angle::ZERO,
                    release,
                    rng.gen_range(release + 24..64),
                    1000.0,
                    1.0,
                )
            })
            .collect();
        let s = Scenario::new(params, TimeGrid::minutes(64), chargers, tasks, 0.0, 0).unwrap();
        let cov = CoverageMap::build(&s);

        for (scope, delay) in [(DominantScope::PerSlot, 0), (DominantScope::Global, 1)] {
            let mut timelines = PolicyTimelines::default();
            let (mut warm_segments, mut cold_segments) = (0, 0);
            // Every other event releases nothing (a failure or a localized
            // re-plan): the known set stays and only the range moves.
            for step in 0..12 {
                let released = |t: &Task| t.release_slot <= step / 2;
                let known: Vec<bool> = s.tasks.iter().map(released).collect();
                let end = s
                    .tasks
                    .iter()
                    .filter(|t| released(t))
                    .map(|t| t.end_slot)
                    .max()
                    .unwrap_or(0);
                if step == 0 {
                    let candidates: usize = (0..n).map(|i| cov.tasks_of(ChargerId(i)).len()).sum();
                    let work = candidates * (end - 1);
                    assert!(
                        work >= PAR_TIMELINE_MIN_WORK,
                        "the first build fans out ({work})"
                    );
                }
                let disabled: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.25)).collect();
                let options = |threads| InstanceOptions {
                    scope: Some(scope),
                    slot_range: Some(step + 1..end),
                    known_tasks: Some(known.clone()),
                    visibility_delay: Some(delay),
                    disabled_chargers: Some(disabled.clone()),
                    threads,
                    ..InstanceOptions::default()
                };
                let warm = HasteRInstance::build_on(&s, &cov, options(Some(4)), &mut timelines);
                let cold = HasteRInstance::build_with(&s, &cov, options(None));
                assert_eq!(digest(&warm), digest(&cold), "{scope:?} step {step}");
                warm_segments += warm.segments_derived();
                cold_segments += cold.segments_derived();
            }
            assert!(
                warm_segments < cold_segments,
                "{warm_segments} vs {cold_segments}"
            );
        }
    }

    #[test]
    fn materialize_into_respects_range() {
        let s = scenario();
        let cov = CoverageMap::build(&s);
        let inst = HasteRInstance::build_with(
            &s,
            &cov,
            InstanceOptions {
                slot_range: Some(2..4),
                ..InstanceOptions::default()
            },
        );
        let sel = locally_greedy(&inst, &GreedyOptions::default());
        let mut schedule = Schedule::empty(1, 4);
        schedule.set(ChargerId(0), 0, Some(Angle::from_degrees(7.0)));
        inst.materialize_into(&sel, &mut schedule);
        // Prefix untouched.
        assert_eq!(
            schedule.get(ChargerId(0), 0),
            Some(Angle::from_degrees(7.0))
        );
        // Suffix has the greedy decision for slot 2 (task 0 only).
        assert!(schedule.get(ChargerId(0), 2).is_some());
    }
}
