//! Differential property tests pinning the optimized execution paths —
//! compiled branchless kernels, hybrid sortedness detection, incremental
//! inversion tracking — to the reference scalar engine. Every paper
//! number flows through these paths, so the contract is bit-identical
//! observability: same final grid, same swap/comparison counts, same
//! first-sorted step.

use meshsort_mesh::engine::{apply_plan, apply_plan_observed};
use meshsort_mesh::plan::{Comparator, StepPlan};
use meshsort_mesh::rng::{self, Rng};
use meshsort_mesh::trace::SwapCounter;
use meshsort_mesh::{CompiledPlan, CycleSchedule, Grid, InversionTracker, TargetOrder};

/// Cases per property.
const CASES: u32 = 96;

/// A random valid step plan on `cells` cells: a random matching over a
/// shuffled cell list, with random comparator directions. Deliberately
/// unstructured — no run of it resembles a row or column phase — so the
/// compiler's scatter fallback and run detection both get exercised.
fn arb_plan(rng: &mut Rng, cells: usize) -> StepPlan {
    let mut order: Vec<u32> = (0..cells as u32).collect();
    rng.shuffle(&mut order);
    let comparators: Vec<Comparator> = order
        .chunks_exact(2)
        .map(|pair| {
            if rng.next_u64() & 1 == 1 {
                Comparator::new(pair[1], pair[0])
            } else {
                Comparator::new(pair[0], pair[1])
            }
        })
        .collect();
    StepPlan::new(comparators).expect("matching is disjoint")
}

/// A random cyclic schedule of 1–4 random plans over `cells` cells.
fn arb_schedule(rng: &mut Rng, cells: usize) -> CycleSchedule {
    let plans = (0..rng.range(1..5)).map(|_| arb_plan(rng, cells)).collect();
    CycleSchedule::new(plans, cells).expect("plans are in bounds")
}

fn arb_order(rng: &mut Rng) -> TargetOrder {
    [TargetOrder::RowMajor, TargetOrder::Snake][rng.range(0..2)]
}

/// `len` uniform draws from `0..bound`.
fn arb_vec(rng: &mut Rng, bound: usize, len: usize) -> Vec<u32> {
    (0..len).map(|_| rng.range(0..bound) as u32).collect()
}

/// Asserts all run paths agree with the reference on one (schedule, grid,
/// order) instance, returning nothing but panicking with context on any
/// divergence. `cap` is small so unsortable random schedules terminate.
fn assert_paths_agree<T>(schedule: &CycleSchedule, grid: &Grid<T>, order: TargetOrder, cap: u64)
where
    T: meshsort_mesh::KernelValue + std::fmt::Debug,
{
    let mut reference = grid.clone();
    let mut hybrid = grid.clone();
    let mut kernel = grid.clone();
    let mut traced = grid.clone();
    let out_ref = schedule.run_until_sorted_reference(&mut reference, order, cap);
    let out_hyb = schedule.run_until_sorted(&mut hybrid, order, cap);
    let out_ker = schedule.run_until_sorted_kernel(&mut kernel, order, cap);
    let mut counter = SwapCounter::default();
    let out_tra = schedule.run_until_sorted_traced(&mut traced, order, cap, &mut counter);
    assert_eq!(out_ref, out_hyb, "hybrid outcome diverged");
    assert_eq!(out_ref, out_ker, "kernel outcome diverged");
    assert_eq!(out_ref, out_tra, "traced outcome diverged");
    assert_eq!(reference, hybrid, "hybrid grid diverged");
    assert_eq!(reference, kernel, "kernel grid diverged");
    assert_eq!(reference, traced, "traced grid diverged");
    assert_eq!(counter.total(), out_ref.swaps, "trace sink missed swaps");
}

#[test]
fn compiled_plan_matches_scalar_on_random_grids() {
    rng::check(CASES, |rng| {
        let plan = arb_plan(rng, 36);
        let data = arb_vec(rng, 50, 36);
        let mut scalar = Grid::from_rows(6, data.clone()).unwrap();
        let mut compiled_grid = Grid::from_rows(6, data).unwrap();
        let compiled = CompiledPlan::compile(&plan);
        let out = apply_plan(&mut scalar, &plan);
        let swaps = compiled.execute(compiled_grid.as_mut_slice());
        assert_eq!(scalar, compiled_grid);
        assert_eq!(out.swaps, swaps);
        assert_eq!(out.comparisons, compiled.comparisons());
    });
}

#[test]
fn compiled_plan_matches_scalar_on_zero_one_grids() {
    rng::check(CASES, |rng| {
        let plan = arb_plan(rng, 36);
        let data: Vec<u8> = (0..36).map(|_| rng.range(0..2) as u8).collect();
        // The paper's 0-1 analysis: tiny value domain, maximal duplicate
        // pressure on the strict-greater swap condition.
        let mut scalar = Grid::from_rows(6, data.clone()).unwrap();
        let mut compiled_grid = Grid::from_rows(6, data).unwrap();
        let compiled = CompiledPlan::compile(&plan);
        let out = apply_plan(&mut scalar, &plan);
        let swaps = compiled.execute(compiled_grid.as_mut_slice());
        assert_eq!(scalar, compiled_grid);
        assert_eq!(out.swaps, swaps);
    });
}

#[test]
fn compile_is_lossless_up_to_order() {
    rng::check(CASES, |rng| {
        let plan = arb_plan(rng, 64);
        let compiled = CompiledPlan::compile(&plan);
        let mut expanded = compiled.expand();
        let mut original = plan.comparators().to_vec();
        let key = |c: &Comparator| (c.keep_min, c.keep_max);
        expanded.sort_unstable_by_key(key);
        original.sort_unstable_by_key(key);
        assert_eq!(expanded, original);
        assert_eq!(compiled.comparisons(), plan.len() as u64);
    });
}

#[test]
fn tracker_stays_exact_under_plan_application() {
    rng::check(CASES, |rng| {
        let plans: Vec<StepPlan> = (0..rng.range(1..6)).map(|_| arb_plan(rng, 25)).collect();
        let data = arb_vec(rng, 20, 25);
        let order = arb_order(rng);
        let mut grid = Grid::from_rows(5, data).unwrap();
        let mut tracker = InversionTracker::new(&grid, order);
        for plan in &plans {
            apply_plan_observed(&mut grid, plan, 0, &mut tracker);
            assert_eq!(tracker.inversions(), grid.order_inversions(order) as u64);
            assert_eq!(tracker.is_sorted(), grid.is_sorted(order));
        }
    });
}

#[test]
fn run_paths_agree_on_small_grids() {
    rng::check(CASES, |rng| {
        let schedule = arb_schedule(rng, 16);
        let data = arb_vec(rng, 30, 16);
        let order = arb_order(rng);
        // Below the hybrid threshold: exercises the reference fallback and
        // the always-tracked traced path against each other.
        let grid = Grid::from_rows(4, data).unwrap();
        assert_paths_agree(&schedule, &grid, order, 48);
    });
}

#[test]
fn run_paths_agree_on_large_grids() {
    rng::check(CASES, |rng| {
        let schedule = arb_schedule(rng, 100);
        let data = arb_vec(rng, 60, 100);
        let order = arb_order(rng);
        // Above the hybrid threshold: scan mode, the tracked-mode switch,
        // and compiled execution all engage. Random schedules rarely sort,
        // so this also pins cap-hit outcomes; duplicates are present, so
        // transient sorted states under arbitrary schedules are too.
        let grid = Grid::from_rows(10, data).unwrap();
        assert_paths_agree(&schedule, &grid, order, 64);
    });
}

#[test]
fn run_paths_agree_on_zero_one_large_grids() {
    rng::check(CASES, |rng| {
        let schedule = arb_schedule(rng, 100);
        let ones = rng.range(0..101);
        let order = arb_order(rng);
        // Adversarial 0-1 block layout: all ones before all zeros.
        let data: Vec<u8> = (0..100).map(|i| u8::from(i < ones)).collect();
        let grid = Grid::from_rows(10, data).unwrap();
        assert_paths_agree(&schedule, &grid, order, 64);
    });
}

#[test]
fn run_paths_agree_on_reversed_and_sorted_grids() {
    // Deterministic adversarial cases on an odd-even transposition line
    // embedded in a 10×10 grid (the same construction as the schedule unit
    // tests, but driven through every path).
    let n = 100usize;
    let odd: Vec<(u32, u32)> = (0..n - 1).step_by(2).map(|i| (i as u32, i as u32 + 1)).collect();
    let even: Vec<(u32, u32)> = (1..n - 1).step_by(2).map(|i| (i as u32, i as u32 + 1)).collect();
    let schedule = CycleSchedule::new(
        vec![StepPlan::from_pairs(odd).unwrap(), StepPlan::from_pairs(even).unwrap()],
        n,
    )
    .unwrap();
    for order in [TargetOrder::RowMajor, TargetOrder::Snake] {
        let reversed = Grid::from_rows(10, (0..n as u32).rev().collect()).unwrap();
        assert_paths_agree(&schedule, &reversed, order, 4 * n as u64);
        let sorted = meshsort_mesh::grid::sorted_permutation_grid(10, order);
        assert_paths_agree(&schedule, &sorted, order, 4 * n as u64);
    }
}
