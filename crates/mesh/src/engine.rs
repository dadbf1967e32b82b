//! The step engine: applies [`StepPlan`]s to a [`Grid`].
//!
//! Because the comparators within a plan touch disjoint cells (validated at
//! plan construction), applying them sequentially is observationally
//! identical to the paper's simultaneous hardware step.

use crate::fault::FaultPlan;
use crate::grid::Grid;
use crate::kernel::{CompiledPlan, KernelValue};
use crate::plan::{Comparator, StepPlan};
use crate::sortedness::InversionTracker;
use crate::trace::TraceSink;

/// What happened during the application of one plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StepOutcome {
    /// Number of comparators evaluated.
    pub comparisons: u64,
    /// Number of comparators that actually exchanged their values.
    pub swaps: u64,
}

impl StepOutcome {
    /// Accumulates another outcome into this one.
    #[inline]
    pub fn absorb(&mut self, other: StepOutcome) {
        self.comparisons += other.comparisons;
        self.swaps += other.swaps;
    }
}

/// Applies one synchronous step to the grid.
///
/// # Panics
///
/// Panics if a comparator indexes outside the grid — call
/// [`StepPlan::check_bounds`] when accepting plans from untrusted
/// construction paths. Plans produced by this workspace's algorithm
/// builders are checked at build time.
pub fn apply_plan<T: Ord>(grid: &mut Grid<T>, plan: &StepPlan) -> StepOutcome {
    let data = grid.as_mut_slice();
    let mut swaps = 0u64;
    for c in plan.comparators() {
        let (lo, hi) = (c.keep_min as usize, c.keep_max as usize);
        if data[lo] > data[hi] {
            data.swap(lo, hi);
            swaps += 1;
        }
    }
    StepOutcome { comparisons: plan.len() as u64, swaps }
}

/// Applies one step while reporting each executed exchange to a trace sink.
/// Slower than [`apply_plan`]; used by observers and debugging tools.
pub fn apply_plan_traced<T: Ord, S: TraceSink>(
    grid: &mut Grid<T>,
    plan: &StepPlan,
    step_index: u64,
    sink: &mut S,
) -> StepOutcome {
    let data = grid.as_mut_slice();
    let mut swaps = 0u64;
    for c in plan.comparators() {
        let (lo, hi) = (c.keep_min as usize, c.keep_max as usize);
        if data[lo] > data[hi] {
            data.swap(lo, hi);
            swaps += 1;
            sink.on_swap(step_index, c.keep_min, c.keep_max);
        }
    }
    sink.on_step_end(step_index, swaps);
    StepOutcome { comparisons: plan.len() as u64, swaps }
}

/// Applies one step while keeping an [`InversionTracker`] exact: the
/// tracker's count is updated in O(1) after every executed exchange, so
/// the caller can test sortedness in O(1) after the step.
///
/// Behaviourally identical to [`apply_plan`] on the grid and the returned
/// outcome; the tracker must have been built over this grid (and kept
/// up to date through every intervening exchange).
pub fn apply_plan_tracked<T: Ord>(
    grid: &mut Grid<T>,
    plan: &StepPlan,
    tracker: &mut InversionTracker,
) -> StepOutcome {
    let data = grid.as_mut_slice();
    let mut swaps = 0u64;
    for c in plan.comparators() {
        let (lo, hi) = (c.keep_min as usize, c.keep_max as usize);
        if data[lo] > data[hi] {
            data.swap(lo, hi);
            swaps += 1;
            tracker.apply_swap(data, c.keep_min, c.keep_max);
        }
    }
    StepOutcome { comparisons: plan.len() as u64, swaps }
}

/// [`apply_plan_traced`] and [`apply_plan_tracked`] combined: reports each
/// exchange to the sink *and* keeps the tracker exact. Used by the traced
/// runner so the 0–1 observers get O(1) per-step sortedness checks too.
pub fn apply_plan_traced_tracked<T: Ord, S: TraceSink>(
    grid: &mut Grid<T>,
    plan: &StepPlan,
    step_index: u64,
    sink: &mut S,
    tracker: &mut InversionTracker,
) -> StepOutcome {
    let data = grid.as_mut_slice();
    let mut swaps = 0u64;
    for c in plan.comparators() {
        let (lo, hi) = (c.keep_min as usize, c.keep_max as usize);
        if data[lo] > data[hi] {
            data.swap(lo, hi);
            swaps += 1;
            sink.on_swap(step_index, c.keep_min, c.keep_max);
            tracker.apply_swap(data, c.keep_min, c.keep_max);
        }
    }
    sink.on_step_end(step_index, swaps);
    StepOutcome { comparisons: plan.len() as u64, swaps }
}

/// What happened during one step executed under a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultyStepOutcome {
    /// Comparators actually evaluated (plan length minus suppressions).
    pub comparisons: u64,
    /// Comparators that exchanged their values.
    pub swaps: u64,
    /// Comparators suppressed by the fault plan this step.
    pub dropped: u64,
}

/// Applies one step under a fault plan: suppressed comparators (stuck
/// wires, transient drops) are skipped.
///
/// Stalls are a whole-step decision the caller makes
/// ([`FaultPlan::step_stalled`]) before it calls any faulty step
/// function; the step given here runs. With a no-op plan
/// ([`FaultPlan::is_noop`]) this is behaviourally identical to
/// [`apply_plan`]. Fault decisions are pure per-wire hashes, so the
/// result is independent of comparator visit order — the property that
/// keeps this path bit-identical to [`apply_compiled_faulty`].
pub fn apply_plan_faulty<T: Ord>(
    grid: &mut Grid<T>,
    plan: &StepPlan,
    step: u64,
    faults: &FaultPlan,
) -> FaultyStepOutcome {
    let data = grid.as_mut_slice();
    let mut swaps = 0u64;
    let mut dropped = 0u64;
    for c in plan.comparators() {
        if faults.comparator_dropped(step, *c) {
            dropped += 1;
            continue;
        }
        let (lo, hi) = (c.keep_min as usize, c.keep_max as usize);
        if data[lo] > data[hi] {
            data.swap(lo, hi);
            swaps += 1;
        }
    }
    FaultyStepOutcome { comparisons: plan.len() as u64 - dropped, swaps, dropped }
}

/// [`apply_plan_faulty`] while keeping an [`InversionTracker`] exact
/// (updated in O(1) after every executed exchange).
pub fn apply_plan_faulty_tracked<T: Ord>(
    grid: &mut Grid<T>,
    plan: &StepPlan,
    step: u64,
    faults: &FaultPlan,
    tracker: &mut InversionTracker,
) -> FaultyStepOutcome {
    let data = grid.as_mut_slice();
    let mut swaps = 0u64;
    let mut dropped = 0u64;
    for c in plan.comparators() {
        if faults.comparator_dropped(step, *c) {
            dropped += 1;
            continue;
        }
        let (lo, hi) = (c.keep_min as usize, c.keep_max as usize);
        if data[lo] > data[hi] {
            data.swap(lo, hi);
            swaps += 1;
            tracker.apply_swap(data, c.keep_min, c.keep_max);
        }
    }
    FaultyStepOutcome { comparisons: plan.len() as u64 - dropped, swaps, dropped }
}

/// The kernel-engine counterpart of [`apply_plan_faulty`]: one drop mask
/// around the branchless compiled segments.
///
/// The step's drop set comes from [`FaultPlan::drop_mask`], 64 wires per
/// word. The cells of every dropped comparator are saved into `held`, the
/// whole compiled step runs, and the saved cells are put back, less the
/// exchanges they would have made. The comparators of one step touch
/// disjoint cells ([`StepPlan`] enforces this), so restoring a dropped
/// pair cannot undo anything another comparator did: the result is
/// exactly [`apply_plan_faulty`]'s grid and counts, which
/// `tests/fault_props.rs` and the `meshsort-core` `fault_differential`
/// suite pin.
///
/// `compiled` must be the lowering of `plan`, and the caller has already
/// decided the step does not stall. `held` is scratch that a run reuses
/// across steps; on return it lists the step's dropped comparators with
/// their cell values from before the step.
pub fn apply_compiled_faulty<T: KernelValue>(
    grid: &mut Grid<T>,
    compiled: &CompiledPlan,
    plan: &StepPlan,
    step: u64,
    faults: &FaultPlan,
    held: &mut Vec<(Comparator, T, T)>,
) -> FaultyStepOutcome {
    let data = grid.as_mut_slice();
    held.clear();
    for chunk in plan.comparators().chunks(64) {
        let mut mask = faults.drop_mask(step, chunk);
        while mask != 0 {
            let c = chunk[mask.trailing_zeros() as usize];
            mask &= mask - 1;
            held.push((c, data[c.keep_min as usize], data[c.keep_max as usize]));
        }
    }
    let mut swaps = compiled.execute(data);
    for &(c, at_min, at_max) in held.iter() {
        swaps -= u64::from(at_min > at_max);
        data[c.keep_min as usize] = at_min;
        data[c.keep_max as usize] = at_max;
    }
    let dropped = held.len() as u64;
    FaultyStepOutcome { comparisons: compiled.comparisons() - dropped, swaps, dropped }
}

/// Applies one pre-compiled step with the branchless segment kernels.
///
/// Observationally identical to [`apply_plan`] on the source plan: the
/// comparators of one step are disjoint and therefore commute, so the
/// compiled execution order cannot change the final grid or the swap
/// count. Differential tests in `tests/kernel_props.rs` pin this.
pub fn apply_compiled<T: KernelValue>(grid: &mut Grid<T>, compiled: &CompiledPlan) -> StepOutcome {
    let swaps = compiled.execute(grid.as_mut_slice());
    StepOutcome { comparisons: compiled.comparisons(), swaps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::TargetOrder;
    use crate::trace::SwapLog;

    #[test]
    fn applies_exchange_when_out_of_order() {
        let mut g = Grid::from_rows(2, vec![5, 1, 2, 0]).unwrap();
        let plan = StepPlan::from_pairs(vec![(0, 1), (2, 3)]).unwrap();
        let out = apply_plan(&mut g, &plan);
        assert_eq!(out.comparisons, 2);
        assert_eq!(out.swaps, 2);
        assert_eq!(g.as_slice(), &[1, 5, 0, 2]);
    }

    #[test]
    fn no_swap_when_in_order() {
        let mut g = Grid::from_rows(2, vec![1, 5, 0, 2]).unwrap();
        let plan = StepPlan::from_pairs(vec![(0, 1), (2, 3)]).unwrap();
        let out = apply_plan(&mut g, &plan);
        assert_eq!(out.swaps, 0);
        assert_eq!(g.as_slice(), &[1, 5, 0, 2]);
    }

    #[test]
    fn reverse_direction_keeps_min_at_high_index() {
        // Paper Definition 1: reverse bubble sort stores the smaller value
        // in the *rightmost* cell. Encoded as keep_min = right index.
        let mut g = Grid::from_rows(2, vec![1, 5, 0, 0]).unwrap();
        let plan = StepPlan::from_pairs(vec![(1, 0)]).unwrap();
        apply_plan(&mut g, &plan);
        assert_eq!(g.as_slice(), &[5, 1, 0, 0]);
    }

    #[test]
    fn equal_values_do_not_swap() {
        let mut g = Grid::from_rows(2, vec![3, 3, 3, 3]).unwrap();
        let plan = StepPlan::from_pairs(vec![(0, 1), (2, 3)]).unwrap();
        let out = apply_plan(&mut g, &plan);
        assert_eq!(out.swaps, 0);
    }

    #[test]
    fn multiset_preserved() {
        let mut g = Grid::from_rows(3, vec![8, 1, 6, 3, 5, 7, 4, 9, 2]).unwrap();
        let plan = StepPlan::from_pairs(vec![(0, 1), (2, 5), (3, 4), (6, 7)]).unwrap();
        let mut before = g.as_slice().to_vec();
        apply_plan(&mut g, &plan);
        let mut after = g.as_slice().to_vec();
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after);
    }

    #[test]
    fn outcome_absorb() {
        let mut a = StepOutcome { comparisons: 3, swaps: 1 };
        a.absorb(StepOutcome { comparisons: 2, swaps: 2 });
        assert_eq!(a, StepOutcome { comparisons: 5, swaps: 3 });
    }

    #[test]
    fn traced_application_records_swaps() {
        let mut g = Grid::from_rows(2, vec![5, 1, 0, 2]).unwrap();
        let plan = StepPlan::from_pairs(vec![(0, 1), (2, 3)]).unwrap();
        let mut log = SwapLog::default();
        let out = apply_plan_traced(&mut g, &plan, 7, &mut log);
        assert_eq!(out.swaps, 1);
        assert_eq!(log.swaps(), &[(7, 0, 1)]);
        assert_eq!(log.step_totals(), &[(7, 1)]);
    }

    #[test]
    fn tracked_application_matches_untracked() {
        let order = TargetOrder::Snake;
        let mut a = Grid::from_rows(3, vec![8u32, 1, 6, 3, 5, 7, 4, 9, 2]).unwrap();
        let mut b = a.clone();
        let mut tracker = InversionTracker::new(&b, order);
        let plan = StepPlan::from_pairs(vec![(0, 1), (2, 5), (3, 4), (6, 7)]).unwrap();
        let oa = apply_plan(&mut a, &plan);
        let ob = apply_plan_tracked(&mut b, &plan, &mut tracker);
        assert_eq!(oa, ob);
        assert_eq!(a, b);
        assert_eq!(tracker.inversions(), b.order_inversions(order) as u64);
        assert_eq!(tracker.is_sorted(), b.is_sorted(order));
    }

    #[test]
    fn traced_tracked_matches_traced() {
        let order = TargetOrder::RowMajor;
        let mut a = Grid::from_rows(2, vec![5u32, 1, 0, 2]).unwrap();
        let mut b = a.clone();
        let plan = StepPlan::from_pairs(vec![(0, 1), (2, 3)]).unwrap();
        let mut log_a = SwapLog::default();
        let mut log_b = SwapLog::default();
        let mut tracker = InversionTracker::new(&b, order);
        let oa = apply_plan_traced(&mut a, &plan, 3, &mut log_a);
        let ob = apply_plan_traced_tracked(&mut b, &plan, 3, &mut log_b, &mut tracker);
        assert_eq!(oa, ob);
        assert_eq!(a, b);
        assert_eq!(log_a.swaps(), log_b.swaps());
        assert_eq!(tracker.inversions(), b.order_inversions(order) as u64);
    }

    #[test]
    fn compiled_application_matches_scalar() {
        let mut a = Grid::from_rows(3, vec![8u32, 1, 6, 3, 5, 7, 4, 9, 2]).unwrap();
        let mut b = a.clone();
        let plan = StepPlan::from_pairs(vec![(0, 1), (2, 5), (3, 4), (6, 7)]).unwrap();
        let compiled = CompiledPlan::compile(&plan);
        let oa = apply_plan(&mut a, &plan);
        let ob = apply_compiled(&mut b, &compiled);
        assert_eq!(oa, ob);
        assert_eq!(a, b);
    }

    #[test]
    fn faulty_with_noop_plan_matches_plain() {
        let faults = FaultPlan::none();
        let mut a = Grid::from_rows(3, vec![8u32, 1, 6, 3, 5, 7, 4, 9, 2]).unwrap();
        let mut b = a.clone();
        let plan = StepPlan::from_pairs(vec![(0, 1), (2, 5), (3, 4), (6, 7)]).unwrap();
        let oa = apply_plan(&mut a, &plan);
        let ob = apply_plan_faulty(&mut b, &plan, 0, &faults);
        assert_eq!(
            ob,
            FaultyStepOutcome { comparisons: oa.comparisons, swaps: oa.swaps, dropped: 0 }
        );
        assert_eq!(a, b);
    }

    #[test]
    fn stuck_wire_suppresses_exchange() {
        use crate::fault::{FaultSpec, StuckWire};
        let plan = StepPlan::from_pairs(vec![(0, 1), (2, 3)]).unwrap();
        let schedule = crate::schedule::CycleSchedule::new(vec![plan.clone()], 4).unwrap();
        let mut spec = FaultSpec::none(0);
        spec.stuck.push(StuckWire::permanent(0, 1));
        let faults = FaultPlan::compile(&spec, &schedule).unwrap();
        let mut g = Grid::from_rows(2, vec![5, 1, 2, 0]).unwrap();
        let out = apply_plan_faulty(&mut g, &plan, 0, &faults);
        assert_eq!(out, FaultyStepOutcome { comparisons: 1, swaps: 1, dropped: 1 });
        // (0,1) untouched, (2,3) exchanged.
        assert_eq!(g.as_slice(), &[5, 1, 0, 2]);
    }

    #[test]
    fn compiled_faulty_matches_scalar_faulty() {
        use crate::fault::FaultSpec;
        let plan = StepPlan::from_pairs(vec![(0, 1), (2, 5), (3, 4), (6, 7)]).unwrap();
        let schedule = crate::schedule::CycleSchedule::new(vec![plan.clone()], 9).unwrap();
        let compiled = CompiledPlan::compile(&plan);
        let faults = FaultPlan::compile(&FaultSpec::transient(0xBEEF, 0.5), &schedule).unwrap();
        for step in 0..32u64 {
            let mut a = Grid::from_rows(3, vec![8u32, 1, 6, 3, 5, 7, 4, 9, 2]).unwrap();
            let mut b = a.clone();
            let oa = apply_plan_faulty(&mut a, &plan, step, &faults);
            let ob =
                apply_compiled_faulty(&mut b, &compiled, &plan, step, &faults, &mut Vec::new());
            assert_eq!(oa, ob, "step {step}");
            assert_eq!(a, b, "step {step}");
        }
    }

    /// A 12×12 step of 70 disjoint comparators — more than one 64-wire
    /// drop-mask word — that compiles to a stride-2 pair run, a
    /// two-window column run, a reversed pair run and a scatter tail.
    fn mixed_segment_plan() -> StepPlan {
        let mut pairs: Vec<(u32, u32)> = (0..48).map(|k| (2 * k, 2 * k + 1)).collect();
        pairs.extend((96..108).map(|c| (c, c + 12)));
        pairs.extend((0..6).map(|k| (121 + 2 * k, 120 + 2 * k)));
        pairs.extend([(132, 143), (139, 134), (137, 138), (133, 140)]);
        StepPlan::from_pairs(pairs).unwrap()
    }

    #[test]
    fn masked_step_matches_scalar_faulty_step() {
        use crate::fault::{FaultSpec, StuckWire};
        let plan = mixed_segment_plan();
        assert_eq!(plan.len(), 70);
        let compiled = CompiledPlan::compile(&plan);
        assert_eq!(compiled.run_segments(), 3, "the four irregular wires form the scatter tail");
        let schedule = crate::schedule::CycleSchedule::new(vec![plan.clone()], 144).unwrap();
        let mut stuck = FaultSpec::transient(3, 0.05);
        stuck.stuck.push(StuckWire::permanent(137, 138));
        stuck.stuck.push(StuckWire::window(96, 108, 4, 12));
        let mut rng = crate::Rng::seed_from_u64(0xD20B);
        let mut held = Vec::new();
        for spec in [FaultSpec::transient(0xBEEF, 0.1), FaultSpec::transient(7, 0.5), stuck] {
            let faults = FaultPlan::compile(&spec, &schedule).unwrap();
            for step in 0..40u64 {
                // Few distinct values, so ties and already-ordered pairs occur.
                let data: Vec<u32> = (0..144).map(|_| rng.range(0..20) as u32).collect();
                let mut a = Grid::from_rows(12, data.clone()).unwrap();
                let mut b = a.clone();
                let oa = apply_plan_faulty(&mut a, &plan, step, &faults);
                let ob = apply_compiled_faulty(&mut b, &compiled, &plan, step, &faults, &mut held);
                assert_eq!(oa, ob, "{spec:?} step {step}");
                assert_eq!(a, b, "{spec:?} step {step}");
                let dropped: Vec<Comparator> = plan
                    .comparators()
                    .iter()
                    .copied()
                    .filter(|&c| faults.comparator_dropped(step, c))
                    .collect();
                assert_eq!(held.iter().map(|h| h.0).collect::<Vec<_>>(), dropped);
                for &(c, at_min, at_max) in &held {
                    let (lo, hi) = (c.keep_min as usize, c.keep_max as usize);
                    assert_eq!((b.as_slice()[lo], b.as_slice()[hi]), (data[lo], data[hi]));
                    assert_eq!((at_min, at_max), (data[lo], data[hi]));
                }
            }
        }
    }

    #[test]
    fn masked_step_with_every_comparator_dropped_changes_nothing() {
        use crate::fault::FaultSpec;
        let plan = mixed_segment_plan();
        let compiled = CompiledPlan::compile(&plan);
        let schedule = crate::schedule::CycleSchedule::new(vec![plan.clone()], 144).unwrap();
        let faults = FaultPlan::compile(&FaultSpec::transient(1, 1.0), &schedule).unwrap();
        let mut g = Grid::from_rows(12, (0..144u32).rev().collect()).unwrap();
        let before = g.clone();
        let mut held = Vec::new();
        let out = apply_compiled_faulty(&mut g, &compiled, &plan, 0, &faults, &mut held);
        assert_eq!(out, FaultyStepOutcome { comparisons: 0, swaps: 0, dropped: 70 });
        assert_eq!(g, before);
        assert_eq!(held.len(), 70);
        let mut c = before.clone();
        assert_eq!(apply_plan_faulty(&mut c, &plan, 0, &faults), out);
    }

    #[test]
    fn faulty_tracked_keeps_tracker_exact() {
        use crate::fault::FaultSpec;
        let order = TargetOrder::Snake;
        let plan = StepPlan::from_pairs(vec![(0, 1), (2, 5), (3, 4), (6, 7)]).unwrap();
        let schedule = crate::schedule::CycleSchedule::new(vec![plan.clone()], 9).unwrap();
        let faults = FaultPlan::compile(&FaultSpec::transient(7, 0.4), &schedule).unwrap();
        let mut g = Grid::from_rows(3, vec![8u32, 1, 6, 3, 5, 7, 4, 9, 2]).unwrap();
        let mut tracker = InversionTracker::new(&g, order);
        for step in 0..16u64 {
            apply_plan_faulty_tracked(&mut g, &plan, step, &faults, &mut tracker);
            assert_eq!(tracker.inversions(), g.order_inversions(order) as u64, "step {step}");
        }
    }

    #[test]
    fn idempotent_once_ordered() {
        let mut g = Grid::from_rows(2, vec![4, 9, 1, 3]).unwrap();
        let plan = StepPlan::from_pairs(vec![(0, 1), (2, 3)]).unwrap();
        apply_plan(&mut g, &plan);
        let snapshot = g.clone();
        let out = apply_plan(&mut g, &plan);
        assert_eq!(out.swaps, 0);
        assert_eq!(g, snapshot);
    }
}
