//! Batched many-grid lockstep execution (structure-of-arrays).
//!
//! Every Monte-Carlo experiment in the suite is an expectation over
//! thousands of *independent* small-grid sorts, and per-grid execution
//! leaves almost all of the machine idle: each step of a side-8 sort is a
//! few dozen compare-exchanges, far too little work to fill vector units,
//! and the per-grid run loop re-pays its scheduling overhead N times. The
//! 0–1 subsystem already exploits this shape symbolically (64 placements
//! per pass via `u64` lane masks in `meshsort-zeroone`); this module is the
//! real-payload generalization for arbitrary [`KernelValue`] grids.
//!
//! # Layout and execution
//!
//! [`run_batch_until_sorted`] transposes a batch of `B` grids of `N` cells
//! from grid-major (`B` separate `Vec`s) to **cell-major lanes**: one flat
//! buffer of `N·B` values where `data[cell·B + lane]` holds `cell` of grid
//! `lane`. All grids then step in lockstep through one shared
//! [`CycleSchedule`]: for each comparator `(keep_min, keep_max)` of the
//! step's [`crate::CompiledPlan`], the engine runs the branchless
//! compare-exchange of [`crate::kernel`] across the batch dimension — two
//! contiguous `B`-wide rows, elementwise min/max, per-lane swap tallies —
//! which autovectorizes with no per-grid branching.
//!
//! # Retirement and faithfulness
//!
//! Each grid must report the *same* [`RunOutcome`] it would get from
//! [`CycleSchedule::run_until_sorted`]: steps to the first sorted state,
//! and swap/comparison totals over exactly those steps. Convergence is
//! detected by per-lane **quiescence**, not per-step sortedness scans
//! (which would cost strided loads across the whole buffer every step):
//! the per-lane swap tally already computed by the compare-exchange loop
//! doubles as a change detector. A step swaps a lane iff it changes that
//! lane's data, so a lane that goes one full schedule cycle without a
//! swap is at a fixed point of the cycle and will never change again.
//! At that moment the engine scans the lane once: if sorted, the lane
//! *retires* with `steps` equal to its **last swapping step** `s` — the
//! sorted-fixed-point certificate (below) makes `s` exactly the first
//! sorted step, because a sorted grid fires no wires (so sorting earlier
//! would have made step `s` swapless) — and with the swap/comparison
//! totals checkpointed when step `s` ran. If the scan finds the lane
//! unsorted it is stuck at a non-sorting fixed point and simply runs to
//! the cap, exactly like the scalar engines. Retired lanes clear their
//! bit in the batch bitset (`LaneMask`) and drop out of accounting
//! while the batch keeps stepping.
//!
//! Retired lanes keep flowing through the compare-exchanges, which is only
//! sound because the sorted state is a **fixed point** of the schedule —
//! every wire is dead on a sorted grid, so the data (and the would-be swap
//! count) of a retired lane never changes again. That property is exactly
//! what [`crate::absint::verify_sorted_fixed_point`] certifies statically.
//! The entry point proves it *before* committing to lockstep execution,
//! with the `O(comparators)` rank form
//! [`crate::absint::verify_sorted_fixed_point_ranked`] (pinned to the dense
//! proof's verdict and first offender by the absint differential suite),
//! and falls back to faithful per-grid kernel runs for any schedule where
//! it fails to hold. All five paper algorithms pass the proof (pinned by
//! the absint test suite), so they always take the lockstep path.
//!
//! When at most half the lanes remain live the batch is *compacted*:
//! retired columns (whose final grids were written back at retirement) are
//! dropped and the live lanes re-packed contiguously, so long straggler
//! tails do not pay full-batch bandwidth.
//!
//! Sharding a batch across cores is layered above this module (see
//! `meshsort_core::SortJob::run_batch`, which shards through the
//! `MESHSORT_THREADS` plumbing of `meshsort-stats`); the engine here is
//! deliberately single-threaded and deterministic.

use crate::absint;
use crate::error::MeshError;
use crate::grid::Grid;
use crate::kernel::{cx_slots, CompiledPlan, KernelValue};
use crate::order::TargetOrder;
use crate::schedule::{CycleSchedule, RunOutcome};

/// Bitset of live (not yet sorted) batch lanes — the batch counterpart of
/// the scalar engine's [`crate::InversionTracker`] check: one bit per lane,
/// cleared when the lane's grid first reads sorted.
#[derive(Debug, Clone)]
struct LaneMask {
    words: Vec<u64>,
    live: usize,
}

impl LaneMask {
    fn full(lanes: usize) -> Self {
        let mut words = vec![u64::MAX; lanes.div_ceil(64)];
        if lanes % 64 != 0 {
            if let Some(last) = words.last_mut() {
                *last = (1u64 << (lanes % 64)) - 1;
            }
        }
        LaneMask { words, live: lanes }
    }

    fn clear(&mut self, lane: usize) {
        let word = &mut self.words[lane / 64];
        let bit = 1u64 << (lane % 64);
        if *word & bit != 0 {
            *word &= !bit;
            self.live -= 1;
        }
    }

    fn live(&self) -> usize {
        self.live
    }

    fn is_live(&self, lane: usize) -> bool {
        self.words[lane / 64] & (1u64 << (lane % 64)) != 0
    }

    /// Calls `f` for every live lane, in increasing lane order.
    fn for_each(&self, mut f: impl FnMut(usize)) {
        for (wi, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                f(wi * 64 + w.trailing_zeros() as usize);
                w &= w - 1;
            }
        }
    }
}

/// Drives a batch of independent grids to `order` in lockstep through one
/// shared schedule, up to `cap` steps each, returning one [`RunOutcome`]
/// per grid (index-aligned with `grids`).
///
/// Each grid's outcome and final contents are **bit-identical** to what a
/// standalone [`CycleSchedule::run_until_sorted`] /
/// [`CycleSchedule::run_until_sorted_kernel`] run would produce
/// (`tests/batch_props.rs` pins this differentially): same first-sorted
/// step, same swap and comparison totals over those steps, `steps == cap`
/// with `sorted == false` for grids that fail to sort within the cap, and
/// zero-cost outcomes for grids that are already sorted on entry.
///
/// Lockstep execution requires the sorted state to be a fixed point of the
/// schedule; the engine certifies that statically on every call via
/// [`crate::absint::verify_sorted_fixed_point_ranked`] and silently falls
/// back to per-grid kernel runs when the proof fails, so the faithfulness
/// contract holds for *every* schedule while all five paper algorithms
/// take the fast path.
///
/// An empty batch returns an empty vector. As with the scalar run loops,
/// the schedule must have been validated against grids of this size (every
/// [`CycleSchedule`] is bounds-checked at construction).
///
/// # Errors
///
/// [`MeshError::MixedBatchSides`] if the grids do not all share one side.
pub fn run_batch_until_sorted<T: KernelValue>(
    schedule: &CycleSchedule,
    grids: &mut [Grid<T>],
    order: TargetOrder,
    cap: u64,
) -> Result<Vec<RunOutcome>, MeshError> {
    let Some(first) = grids.first() else {
        return Ok(Vec::new());
    };
    let side = first.side();
    if let Some(odd) = grids.iter().find(|g| g.side() != side) {
        return Err(MeshError::MixedBatchSides { expected: side, found: odd.side() });
    }
    if absint::verify_sorted_fixed_point_ranked(schedule, order, side).is_err() {
        // Sorted grids are not inert under this schedule, so lanes cannot
        // retire in place; run each grid through the (equally faithful)
        // per-grid kernel engine instead.
        let outcomes =
            grids.iter_mut().map(|g| schedule.run_until_sorted_kernel(g, order, cap)).collect();
        return Ok(outcomes);
    }
    Ok(run_lockstep(schedule, grids, order, cap, side))
}

/// Whether lane `col` of the cell-major buffer reads sorted: every
/// adjacent rank pair of `order`'s rank table is non-inverted. Full-lane
/// scans are strided and therefore only run at retirement candidacy
/// (quiescence), never per step.
fn lane_sorted<T: Ord>(soa: &[T], width: usize, col: usize, table: &[u32]) -> bool {
    table.windows(2).all(|w| soa[w[0] as usize * width + col] <= soa[w[1] as usize * width + col])
}

/// Branchless compare-exchange of one comparator across the whole batch:
/// cell row `lo` receives the per-lane minima, row `hi` the maxima, and
/// `swaps[lane]` counts the exchange. Same selects as the scalar kernel —
/// contiguous rows and a `u32` tally keep the loop vectorizable.
fn cx_lanes<T: KernelValue>(soa: &mut [T], width: usize, lo: usize, hi: usize, swaps: &mut [u32]) {
    let (lo_off, hi_off) = (lo * width, hi * width);
    if lo_off < hi_off {
        let (head, tail) = soa.split_at_mut(hi_off);
        let mins = &mut head[lo_off..lo_off + width];
        let maxs = &mut tail[..width];
        for ((mn, mx), sw) in mins.iter_mut().zip(maxs.iter_mut()).zip(swaps.iter_mut()) {
            cx_slots(mn, mx, sw);
        }
    } else {
        let (head, tail) = soa.split_at_mut(lo_off);
        let maxs = &mut head[hi_off..hi_off + width];
        let mins = &mut tail[..width];
        for ((mn, mx), sw) in mins.iter_mut().zip(maxs.iter_mut()).zip(swaps.iter_mut()) {
            cx_slots(mn, mx, sw);
        }
    }
}

/// Copies lane `col` of the cell-major buffer back into its source grid.
fn write_back<T: KernelValue>(grid: &mut Grid<T>, soa: &[T], width: usize, col: usize) {
    for (cell, slot) in grid.as_mut_slice().iter_mut().enumerate() {
        *slot = soa[cell * width + col];
    }
}

/// The lockstep engine proper; only entered once the sorted state is known
/// to be a fixed point of `schedule` (see [`run_batch_until_sorted`]).
fn run_lockstep<T: KernelValue>(
    schedule: &CycleSchedule,
    grids: &mut [Grid<T>],
    order: TargetOrder,
    cap: u64,
    side: usize,
) -> Vec<RunOutcome> {
    let cells = side * side;
    let batch = grids.len();
    let table = order.rank_to_flat_table(side);
    // Hoist each compiled step to a flat comparator pair list once; the
    // inner loops then vectorize across lanes, not across comparators.
    let step_pairs: Vec<Vec<(u32, u32)>> = schedule
        .compiled_plans()
        .iter()
        .map(|p| p.expand().iter().map(|c| (c.keep_min, c.keep_max)).collect())
        .collect();
    let step_comparisons: Vec<u64> =
        schedule.compiled_plans().iter().map(CompiledPlan::comparisons).collect();

    // Grid-major -> cell-major transpose.
    let mut soa: Vec<T> = Vec::with_capacity(cells * batch);
    for cell in 0..cells {
        for g in grids.iter() {
            soa.push(g.as_slice()[cell]);
        }
    }

    let mut outcomes =
        vec![RunOutcome { steps: 0, swaps: 0, comparisons: 0, sorted: false }; batch];
    // Column `col` of the (possibly compacted) buffer belongs to grid
    // `lane_of[col]`.
    let mut lane_of: Vec<u32> = (0..batch as u32).collect();
    let mut width = batch;
    let mut mask = LaneMask::full(width);
    let mut swaps_total: Vec<u64> = vec![0; width];
    let mut swaps_step: Vec<u32> = vec![0; width];
    // Quiescence bookkeeping: the step each lane last swapped at, and its
    // comparison total as of that step (its retirement snapshot).
    let mut last_swap: Vec<u64> = vec![0; width];
    let mut comp_at_last_swap: Vec<u64> = vec![0; width];
    let mut retiring: Vec<usize> = Vec::new();

    // Grids sorted on entry cost zero steps, exactly like the scalar runs.
    for col in 0..width {
        if lane_sorted(&soa, width, col, &table) {
            outcomes[lane_of[col] as usize].sorted = true;
            mask.clear(col);
        }
    }

    // A lane unchanged over this many consecutive steps has seen every
    // plan of the cycle act as the identity: it is at a fixed point of
    // the whole cycle and will never change again.
    let cycle = schedule.cycle_len() as u64;
    let quiet_window = cycle;
    let mut comparisons_so_far = 0u64;
    let mut t = 0u64;
    while t < cap && mask.live() > 0 {
        let i = (t % cycle) as usize;
        for &(lo, hi) in &step_pairs[i] {
            cx_lanes(&mut soa, width, lo as usize, hi as usize, &mut swaps_step);
        }
        comparisons_so_far += step_comparisons[i];
        t += 1;
        // Flush the vector-friendly u32 step tallies (a step swaps each
        // lane at most once per comparator, far below u32::MAX) into the
        // u64 running totals, and drive quiescence detection off the same
        // numbers: a swap timestamps the lane; a lane quiet for exactly
        // one full cycle gets its single sortedness scan. Retired lanes
        // tally zero forever (every wire is dead on sorted data) and the
        // `==` trigger fires at most once per lane, so neither re-enters.
        retiring.clear();
        for col in 0..width {
            let s = swaps_step[col];
            if s > 0 {
                swaps_step[col] = 0;
                swaps_total[col] += u64::from(s);
                last_swap[col] = t;
                comp_at_last_swap[col] = comparisons_so_far;
            } else if t - last_swap[col] == quiet_window
                && mask.is_live(col)
                && lane_sorted(&soa, width, col, &table)
            {
                retiring.push(col);
            }
        }
        for &col in &retiring {
            let lane = lane_of[col] as usize;
            outcomes[lane] = RunOutcome {
                steps: last_swap[col],
                swaps: swaps_total[col],
                comparisons: comp_at_last_swap[col],
                sorted: true,
            };
            write_back(&mut grids[lane], &soa, width, col);
            mask.clear(col);
        }
        // Straggler compaction: once at most half the columns are live,
        // re-pack them contiguously so the tail of slow lanes stops paying
        // full-batch bandwidth. Retired grids were written back above.
        if mask.live() * 2 <= width && mask.live() > 0 && width >= 8 {
            let mut live_cols = Vec::with_capacity(mask.live());
            mask.for_each(|col| live_cols.push(col));
            let mut packed = Vec::with_capacity(cells * live_cols.len());
            for cell in 0..cells {
                let row = &soa[cell * width..(cell + 1) * width];
                packed.extend(live_cols.iter().map(|&c| row[c]));
            }
            soa = packed;
            lane_of = live_cols.iter().map(|&c| lane_of[c]).collect();
            swaps_total = live_cols.iter().map(|&c| swaps_total[c]).collect();
            last_swap = live_cols.iter().map(|&c| last_swap[c]).collect();
            comp_at_last_swap = live_cols.iter().map(|&c| comp_at_last_swap[c]).collect();
            width = live_cols.len();
            swaps_step = vec![0; width];
            mask = LaneMask::full(width);
        }
    }

    // Lanes still live when the loop exits fall in two classes. A lane
    // that sorted within the last `quiet_window` steps before the cap has
    // not had its quiescence trigger yet — scan it now and retire it at
    // its last swapping step (its data has been fixed since). Anything
    // else genuinely failed to sort: steps == cap, sorted == false, the
    // same shape the scalar engines report.
    mask.for_each(|col| {
        let lane = lane_of[col] as usize;
        outcomes[lane] = if lane_sorted(&soa, width, col, &table) {
            RunOutcome {
                steps: last_swap[col],
                swaps: swaps_total[col],
                comparisons: comp_at_last_swap[col],
                sorted: true,
            }
        } else {
            RunOutcome {
                steps: t,
                swaps: swaps_total[col],
                comparisons: comparisons_so_far,
                sorted: false,
            }
        };
        write_back(&mut grids[lane], &soa, width, col);
    });
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::StepPlan;

    /// Odd-even transposition on the flat row-major line of an n²-cell
    /// grid — a schedule whose sorted state is a fixed point, so the
    /// lockstep path genuinely runs.
    fn odd_even_schedule(cells: usize) -> CycleSchedule {
        let odd: Vec<(u32, u32)> =
            (0..cells.saturating_sub(1)).step_by(2).map(|i| (i as u32, i as u32 + 1)).collect();
        let even: Vec<(u32, u32)> =
            (1..cells.saturating_sub(1)).step_by(2).map(|i| (i as u32, i as u32 + 1)).collect();
        CycleSchedule::new(
            vec![StepPlan::from_pairs(odd).unwrap(), StepPlan::from_pairs(even).unwrap()],
            cells,
        )
        .unwrap()
    }

    fn scrambled(side: usize, salt: u32) -> Grid<u32> {
        let cells = (side * side) as u32;
        let data: Vec<u32> =
            (0..cells).map(|v| (v.wrapping_mul(2654435761).wrapping_add(salt)) % cells).collect();
        Grid::from_rows(side, data).unwrap()
    }

    fn check_against_scalar(side: usize, batch: usize, cap: u64) {
        let s = odd_even_schedule(side * side);
        let mut grids: Vec<Grid<u32>> = (0..batch).map(|i| scrambled(side, i as u32)).collect();
        let mut solo = grids.clone();
        let outcomes = run_batch_until_sorted(&s, &mut grids, TargetOrder::RowMajor, cap).unwrap();
        assert_eq!(outcomes.len(), batch);
        for (i, g) in solo.iter_mut().enumerate() {
            let expect = s.run_until_sorted(g, TargetOrder::RowMajor, cap);
            assert_eq!(outcomes[i], expect, "outcome diverged for grid {i}");
            assert_eq!(&grids[i], g, "final grid diverged for grid {i}");
        }
    }

    #[test]
    fn empty_batch() {
        let s = odd_even_schedule(16);
        let mut grids: Vec<Grid<u32>> = Vec::new();
        let out = run_batch_until_sorted(&s, &mut grids, TargetOrder::RowMajor, 64).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn single_grid_batch_matches_scalar() {
        check_against_scalar(4, 1, 64);
    }

    #[test]
    fn batch_matches_scalar_small() {
        check_against_scalar(4, 7, 64);
    }

    #[test]
    fn batch_matches_scalar_above_small_grid_threshold() {
        // 10×10 = 100 cells: the solo runs take the hybrid path while the
        // batch uses quiescence retirement; outcomes must still agree.
        check_against_scalar(10, 13, 1_000);
    }

    #[test]
    fn compaction_exercised() {
        // A batch much wider than the compaction floor with one straggler
        // (reversed line sorts slowest) forces several compaction rounds.
        let side = 4;
        let s = odd_even_schedule(side * side);
        let mut grids: Vec<Grid<u32>> = (0..33).map(|i| scrambled(side, i)).collect();
        grids[17] = Grid::from_rows(side, (0..16u32).rev().collect()).unwrap();
        let mut solo = grids.clone();
        let outcomes = run_batch_until_sorted(&s, &mut grids, TargetOrder::RowMajor, 64).unwrap();
        for (i, g) in solo.iter_mut().enumerate() {
            let expect = s.run_until_sorted(g, TargetOrder::RowMajor, 64);
            assert_eq!(outcomes[i], expect, "grid {i}");
            assert_eq!(&grids[i], g, "grid {i}");
        }
    }

    #[test]
    fn already_sorted_lane_costs_zero() {
        let side = 4;
        let s = odd_even_schedule(side * side);
        let mut grids =
            vec![Grid::from_rows(side, (0..16u32).collect()).unwrap(), scrambled(side, 9)];
        let outcomes = run_batch_until_sorted(&s, &mut grids, TargetOrder::RowMajor, 64).unwrap();
        assert_eq!(outcomes[0], RunOutcome { steps: 0, swaps: 0, comparisons: 0, sorted: true });
        assert!(outcomes[1].sorted);
        assert!(grids[0].is_sorted(TargetOrder::RowMajor));
    }

    #[test]
    fn cap_reports_unsorted_per_lane() {
        let side = 4;
        let s = odd_even_schedule(side * side);
        let mut grids = vec![
            Grid::from_rows(side, (0..16u32).rev().collect()).unwrap(),
            Grid::from_rows(side, (0..16u32).collect()).unwrap(),
        ];
        let mut solo = grids.clone();
        let outcomes = run_batch_until_sorted(&s, &mut grids, TargetOrder::RowMajor, 2).unwrap();
        for (i, g) in solo.iter_mut().enumerate() {
            let expect = s.run_until_sorted(g, TargetOrder::RowMajor, 2);
            assert_eq!(outcomes[i], expect, "grid {i}");
            assert_eq!(&grids[i], g, "grid {i}");
        }
        assert!(!outcomes[0].sorted);
        assert_eq!(outcomes[0].steps, 2);
        assert!(outcomes[1].sorted);
    }

    #[test]
    fn mixed_sides_rejected() {
        let s = odd_even_schedule(16);
        let mut grids = vec![scrambled(4, 0), scrambled(3, 0)];
        let err = run_batch_until_sorted(&s, &mut grids, TargetOrder::RowMajor, 64).unwrap_err();
        assert_eq!(err, MeshError::MixedBatchSides { expected: 4, found: 3 });
    }

    #[test]
    fn non_fixed_point_schedule_falls_back() {
        // Reverse bubble pairs (keep_min on the right) make the sorted
        // row-major state a *non*-fixed point: the proof fails and the
        // engine must fall back to per-grid runs, still matching them.
        let pairs: Vec<(u32, u32)> = (0..8).map(|k| (2 * k + 1, 2 * k)).collect();
        let s = CycleSchedule::new(vec![StepPlan::from_pairs(pairs).unwrap()], 16).unwrap();
        assert!(absint::verify_sorted_fixed_point(&s, TargetOrder::RowMajor, 4).is_err());
        let mut grids: Vec<Grid<u32>> = (0..5).map(|i| scrambled(4, i)).collect();
        let mut solo = grids.clone();
        let outcomes = run_batch_until_sorted(&s, &mut grids, TargetOrder::RowMajor, 8).unwrap();
        for (i, g) in solo.iter_mut().enumerate() {
            let expect = s.run_until_sorted_kernel(g, TargetOrder::RowMajor, 8);
            assert_eq!(outcomes[i], expect, "grid {i}");
            assert_eq!(&grids[i], g, "grid {i}");
        }
    }

    #[test]
    fn lane_mask_semantics() {
        let mut m = LaneMask::full(67);
        assert_eq!(m.live(), 67);
        m.clear(0);
        m.clear(64);
        m.clear(64); // double-clear is a no-op
        assert_eq!(m.live(), 65);
        let mut seen = Vec::new();
        m.for_each(|l| seen.push(l));
        assert_eq!(seen.len(), 65);
        assert!(!seen.contains(&0));
        assert!(!seen.contains(&64));
        assert!(seen.contains(&66));
    }
}
