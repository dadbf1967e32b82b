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

/// Hears what one scalar step does, and may veto comparators.
///
/// [`apply_plan_observed`] is the one scalar compare-exchange loop; an
/// observer is how a caller watches it (trace sinks, the
/// [`InversionTracker`]) or suppresses comparators in it (a
/// [`FaultPlan`]'s stuck wires and transient drops). Every method has a
/// no-op default, so an observer implements only what it needs, and the
/// no-op observer `()` monomorphises [`apply_plan_observed`] into the
/// bare loop of [`apply_plan`].
///
/// Implemented for `()`, `&mut InversionTracker`, `&mut S` for every
/// [`TraceSink`] `S`, `&FaultPlan` (the veto) and pairs `(A, B)` of
/// observers.
pub trait StepObserver {
    /// Whether comparator `c` is suppressed at step `step`. A vetoed
    /// comparator is neither evaluated nor counted as a comparison.
    #[inline]
    fn vetoes(&mut self, _step: u64, _c: Comparator) -> bool {
        false
    }

    /// Called after each executed exchange; `data` is the grid slice
    /// *after* the exchange.
    #[inline]
    fn on_swap<T: Ord>(&mut self, _data: &[T], _step: u64, _c: Comparator) {}

    /// Called once at the end of the step with its swap count.
    #[inline]
    fn on_step_end(&mut self, _step: u64, _swaps: u64) {}
}

/// The no-op observer.
impl StepObserver for () {}

/// Keeps the tracker exact: O(1) per executed exchange.
impl StepObserver for &mut InversionTracker {
    #[inline]
    fn on_swap<T: Ord>(&mut self, data: &[T], _step: u64, c: Comparator) {
        self.apply_swap(data, c.keep_min, c.keep_max);
    }
}

/// Reports each exchange and each step end to the sink.
impl<S: TraceSink + ?Sized> StepObserver for &mut S {
    #[inline]
    fn on_swap<T: Ord>(&mut self, _data: &[T], step: u64, c: Comparator) {
        TraceSink::on_swap(*self, step, c.keep_min, c.keep_max);
    }

    #[inline]
    fn on_step_end(&mut self, step: u64, swaps: u64) {
        TraceSink::on_step_end(*self, step, swaps);
    }
}

/// Vetoes every comparator the fault plan drops at the step (stuck wires
/// and transient drops). Stalls are a whole-step decision the caller makes
/// ([`FaultPlan::step_stalled`]) before it runs the step at all. Fault
/// decisions are pure per-wire hashes, so the result does not depend on
/// comparator visit order — the property that keeps the vetoed scalar
/// step bit-identical to [`apply_compiled_faulty`].
impl StepObserver for &FaultPlan {
    #[inline]
    fn vetoes(&mut self, step: u64, c: Comparator) -> bool {
        self.comparator_dropped(step, c)
    }
}

/// Both observers hear every event; a comparator is vetoed if either
/// vetoes it.
impl<A: StepObserver, B: StepObserver> StepObserver for (A, B) {
    #[inline]
    fn vetoes(&mut self, step: u64, c: Comparator) -> bool {
        self.0.vetoes(step, c) || self.1.vetoes(step, c)
    }

    #[inline]
    fn on_swap<T: Ord>(&mut self, data: &[T], step: u64, c: Comparator) {
        self.0.on_swap(data, step, c);
        self.1.on_swap(data, step, c);
    }

    #[inline]
    fn on_step_end(&mut self, step: u64, swaps: u64) {
        self.0.on_step_end(step, swaps);
        self.1.on_step_end(step, swaps);
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
#[inline]
pub fn apply_plan<T: Ord>(grid: &mut Grid<T>, plan: &StepPlan) -> StepOutcome {
    apply_plan_observed(grid, plan, 0, ())
}

/// Applies step `step` of a run to the grid while `obs` watches: the one
/// scalar compare-exchange loop behind [`apply_plan`], the traced and
/// tracked runs and the scalar fault oracle.
///
/// Vetoed comparators are skipped and not counted, so `comparisons` is
/// the plan length less the vetoes. Without vetoes the grid and the
/// outcome are exactly [`apply_plan`]'s.
///
/// # Panics
///
/// As for [`apply_plan`].
#[inline]
pub fn apply_plan_observed<T: Ord, O: StepObserver>(
    grid: &mut Grid<T>,
    plan: &StepPlan,
    step: u64,
    mut obs: O,
) -> StepOutcome {
    let data = grid.as_mut_slice();
    let mut swaps = 0u64;
    let mut vetoed = 0u64;
    for &c in plan.comparators() {
        if obs.vetoes(step, c) {
            vetoed += 1;
            continue;
        }
        let (lo, hi) = (c.keep_min as usize, c.keep_max as usize);
        if data[lo] > data[hi] {
            data.swap(lo, hi);
            swaps += 1;
            obs.on_swap(data, step, c);
        }
    }
    obs.on_step_end(step, swaps);
    StepOutcome { comparisons: plan.len() as u64 - vetoed, swaps }
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

/// The kernel-engine counterpart of [`apply_plan_observed`] under a
/// [`FaultPlan`] veto: one drop mask around the branchless compiled
/// segments.
///
/// The step's drop set comes from [`FaultPlan::drop_mask`], 64 wires per
/// word. The cells of every dropped comparator are saved into `held`, the
/// whole compiled step runs, and the saved cells are put back, less the
/// exchanges they would have made. The comparators of one step touch
/// disjoint cells ([`StepPlan`] enforces this), so restoring a dropped
/// pair cannot undo anything another comparator did: the result is
/// exactly the vetoed scalar step's grid and counts, which
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
    use crate::fault::{FaultSpec, StuckWire};
    use crate::order::TargetOrder;
    use crate::schedule::CycleSchedule;
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
    fn stuck_wire_suppresses_exchange() {
        let plan = StepPlan::from_pairs(vec![(0, 1), (2, 3)]).unwrap();
        let schedule = CycleSchedule::new(vec![plan.clone()], 4).unwrap();
        let mut spec = FaultSpec::none(0);
        spec.stuck.push(StuckWire::permanent(0, 1));
        let faults = FaultPlan::compile(&spec, &schedule).unwrap();
        let mut g = Grid::from_rows(2, vec![5, 1, 2, 0]).unwrap();
        let out = apply_plan_observed(&mut g, &plan, 0, &faults);
        assert_eq!(out, StepOutcome { comparisons: 1, swaps: 1 });
        // (0,1) untouched, (2,3) exchanged.
        assert_eq!(g.as_slice(), &[5, 1, 0, 2]);
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

    /// What one observed step reports besides the grid: its outcome and
    /// the tracker and swap log it kept, when the observer has them.
    struct Observed {
        out: StepOutcome,
        tracker: Option<InversionTracker>,
        log: Option<SwapLog>,
    }

    /// One row of the observer matrix: runs `plan` as step `step` of
    /// `grid` through [`apply_plan_observed`] with one observer.
    type Case = fn(&mut Grid<u32>, &StepPlan, u64, &FaultPlan, TargetOrder) -> Observed;

    #[test]
    fn observer_matrix_matches_the_executors_and_keeps_trackers_exact() {
        // (name, vetoed by the fault plan, run the step)
        let cases: [(&str, bool, Case); 5] = [
            ("no-op", false, |g, plan, step, _, _| Observed {
                out: apply_plan_observed(g, plan, step, ()),
                tracker: None,
                log: None,
            }),
            ("tracker", false, |g, plan, step, _, order| {
                let mut tracker = InversionTracker::new(g, order);
                let out = apply_plan_observed(g, plan, step, &mut tracker);
                Observed { out, tracker: Some(tracker), log: None }
            }),
            ("swap log", false, |g, plan, step, _, _| {
                let mut log = SwapLog::default();
                let out = apply_plan_observed(g, plan, step, &mut log);
                Observed { out, tracker: None, log: Some(log) }
            }),
            ("tracker + sink", false, |g, plan, step, _, order| {
                let mut tracker = InversionTracker::new(g, order);
                let mut log = SwapLog::default();
                let out = apply_plan_observed(g, plan, step, (&mut tracker, &mut log));
                Observed { out, tracker: Some(tracker), log: Some(log) }
            }),
            ("fault veto + tracker", true, |g, plan, step, faults, order| {
                let mut tracker = InversionTracker::new(g, order);
                let out = apply_plan_observed(g, plan, step, (faults, &mut tracker));
                Observed { out, tracker: Some(tracker), log: None }
            }),
        ];
        let plan = mixed_segment_plan();
        let compiled = CompiledPlan::compile(&plan);
        let schedule = CycleSchedule::new(vec![plan.clone()], 144).unwrap();
        let mut stuck = FaultSpec::transient(0xBEEF, 0.3);
        stuck.stuck.push(StuckWire::permanent(137, 138));
        stuck.stuck.push(StuckWire::window(96, 108, 4, 12));
        let mut rng = crate::Rng::seed_from_u64(0x0B5E);
        let mut held = Vec::new();
        for spec in [FaultSpec::none(0), stuck] {
            let faults = FaultPlan::compile(&spec, &schedule).unwrap();
            for step in 0..24u64 {
                let order = [TargetOrder::RowMajor, TargetOrder::Snake][step as usize % 2];
                // Few distinct values, so ties and already-ordered pairs occur.
                let data: Vec<u32> = (0..144).map(|_| rng.range(0..20) as u32).collect();
                let start = Grid::from_rows(12, data).unwrap();
                let mut clean = start.clone();
                let clean_out = apply_plan(&mut clean, &plan);
                let mut faulty = start.clone();
                let f =
                    apply_compiled_faulty(&mut faulty, &compiled, &plan, step, &faults, &mut held);
                let faulty_out = StepOutcome { comparisons: f.comparisons, swaps: f.swaps };
                for (name, vetoed, run) in cases {
                    let (expect, expect_out) =
                        if vetoed { (&faulty, faulty_out) } else { (&clean, clean_out) };
                    let ctx = format!("{name}, {spec:?}, step {step}");
                    let mut g = start.clone();
                    let seen = run(&mut g, &plan, step, &faults, order);
                    assert_eq!(seen.out, expect_out, "{ctx}");
                    assert_eq!(&g, expect, "{ctx}");
                    if let Some(tracker) = seen.tracker {
                        assert_eq!(tracker.inversions(), g.order_inversions(order) as u64, "{ctx}");
                        assert_eq!(tracker.is_sorted(), g.is_sorted(order), "{ctx}");
                    }
                    if let Some(log) = seen.log {
                        // Disjoint comparators: a comparator swaps iff its
                        // cells were out of order before the step.
                        let before = start.as_slice();
                        let swapped: Vec<(u64, u32, u32)> = plan
                            .comparators()
                            .iter()
                            .filter(|c| before[c.keep_min as usize] > before[c.keep_max as usize])
                            .map(|c| (step, c.keep_min, c.keep_max))
                            .collect();
                        assert_eq!(log.swaps(), swapped.as_slice(), "{ctx}");
                        assert_eq!(log.step_totals(), &[(step, expect_out.swaps)], "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn masked_step_matches_vetoed_scalar_step() {
        let plan = mixed_segment_plan();
        assert_eq!(plan.len(), 70);
        let compiled = CompiledPlan::compile(&plan);
        assert_eq!(compiled.run_segments(), 3, "the four irregular wires form the scatter tail");
        let schedule = CycleSchedule::new(vec![plan.clone()], 144).unwrap();
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
                let oa = apply_plan_observed(&mut a, &plan, step, &faults);
                let ob = apply_compiled_faulty(&mut b, &compiled, &plan, step, &faults, &mut held);
                assert_eq!(
                    ob,
                    FaultyStepOutcome {
                        comparisons: oa.comparisons,
                        swaps: oa.swaps,
                        dropped: plan.len() as u64 - oa.comparisons
                    },
                    "{spec:?} step {step}"
                );
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
        let plan = mixed_segment_plan();
        let compiled = CompiledPlan::compile(&plan);
        let schedule = CycleSchedule::new(vec![plan.clone()], 144).unwrap();
        let faults = FaultPlan::compile(&FaultSpec::transient(1, 1.0), &schedule).unwrap();
        let mut g = Grid::from_rows(12, (0..144u32).rev().collect()).unwrap();
        let before = g.clone();
        let mut held = Vec::new();
        let out = apply_compiled_faulty(&mut g, &compiled, &plan, 0, &faults, &mut held);
        assert_eq!(out, FaultyStepOutcome { comparisons: 0, swaps: 0, dropped: 70 });
        assert_eq!(g, before);
        assert_eq!(held.len(), 70);
        let mut c = before.clone();
        assert_eq!(apply_plan_observed(&mut c, &plan, 0, &faults), StepOutcome::default());
        assert_eq!(c, before);
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
