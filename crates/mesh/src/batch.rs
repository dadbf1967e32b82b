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
//! buffer of `N·B` lanes where `data[cell·B + lane]` holds `cell` of grid
//! `lane`. The buffer holds **ranks, not values**. During the transpose
//! each grid is rank-coded: a stable LSD radix over
//! [`KernelValue::order_key`] (skipping every byte on which all keys
//! agree, so a permutation of `0..256` costs one counting pass) gives each
//! cell its dense order-preserving rank, equal values sharing a rank.
//! Ranks are stored in the narrowest unsigned lane that fits — `u8` up to
//! 256 cells, `u16` up to 65 536, `u32` above — so one vector register
//! holds 4× (at `u8`) the lanes of a `u32` value buffer. All grids then
//! step in lockstep through one shared [`CycleSchedule`]: for each
//! comparator `(keep_min, keep_max)` of the step's [`crate::CompiledPlan`],
//! the engine runs a branchless compare-exchange across the batch
//! dimension — two contiguous `B`-wide rows, elementwise min/max, per-lane
//! swap tallies as wide as the lanes — which autovectorizes with no
//! per-grid branching. A finished lane is mapped back through its table
//! of distinct values.
//!
//! Stepping ranks is exact, not an approximation: a compare-exchange
//! network commutes with every monotone relabelling of its inputs (the
//! fact behind the paper's `A ↦ A^01` reduction), and rank coding is one.
//! Every comparator sees `a > b` on ranks exactly when it does on values,
//! so swaps, comparisons, steps and the final arrangement are those of the
//! value-typed run.
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
use crate::kernel::{CompiledPlan, KernelValue};
use crate::order::TargetOrder;
use crate::schedule::{CycleSchedule, RunOutcome};
use std::ops::AddAssign;

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
    let cells = side * side;
    Ok(if cells <= 1 << 8 {
        run_lockstep::<u8, T>(schedule, grids, order, cap, side)
    } else if cells <= 1 << 16 {
        run_lockstep::<u16, T>(schedule, grids, order, cap, side)
    } else {
        run_lockstep::<u32, T>(schedule, grids, order, cap, side)
    })
}

/// Unsigned lane type of the rank-coded buffer: `u8`, `u16` or `u32`,
/// the narrowest that holds every rank of a grid (see [`run_lockstep`]).
trait Rank: Copy + Ord + Default + From<bool> + AddAssign + Into<u64> {
    /// Largest value of the type.
    const MAX: usize;
    /// `index` as a lane value; it must fit.
    fn from_index(index: usize) -> Self;
    /// The value as a table index.
    fn index(self) -> usize;
}

macro_rules! impl_rank {
    ($($t:ty),*) => {$(
        impl Rank for $t {
            const MAX: usize = <$t>::MAX as usize;
            #[inline]
            fn from_index(index: usize) -> Self {
                <$t>::try_from(index).expect("rank fits the lane width")
            }
            #[inline]
            fn index(self) -> usize {
                self as usize
            }
        }
    )*};
}

impl_rank!(u8, u16, u32);

/// Bit offsets of the key bytes the radix must pass over: those on which
/// not all `keys` agree (the set bits of OR ^ AND), least significant
/// first.
fn radix_shifts(keys: &[u128]) -> impl Iterator<Item = u32> {
    let (any, all) = keys.iter().fold((0u128, u128::MAX), |(o, a), &k| (o | k, a & k));
    let varying = any ^ all;
    (0..128).step_by(8).filter(move |&s| (varying >> s) as u8 != 0)
}

/// Sorts the cells of a grid by their [`KernelValue::order_key`]s with a
/// stable LSD radix, one counting pass per byte of [`radix_shifts`]: a
/// permutation of `0..256` costs one pass. Returns the cell indices in
/// key order.
fn radix_order<'a>(keys: &[u128], order: &'a mut Vec<u32>, spare: &'a mut Vec<u32>) -> &'a [u32] {
    order.clear();
    order.extend(0..keys.len() as u32);
    spare.resize(keys.len(), 0);
    for shift in radix_shifts(keys) {
        let digit = |key: u128| usize::from((key >> shift) as u8);
        let mut start = [0usize; 256];
        for &key in keys {
            start[digit(key)] += 1;
        }
        let mut sum = 0;
        for slot in &mut start {
            (*slot, sum) = (sum, sum + *slot);
        }
        for &cell in order.iter() {
            let d = digit(keys[cell as usize]);
            spare[start[d]] = cell;
            start[d] += 1;
        }
        std::mem::swap(order, spare);
    }
    order
}

/// Lane `col` of a cell-major buffer `width` lanes wide.
#[derive(Clone, Copy)]
struct Column<'a, R> {
    soa: &'a [R],
    width: usize,
    col: usize,
}

impl<R: Rank> Column<'_, R> {
    fn get(self, cell: usize) -> R {
        self.soa[cell * self.width + self.col]
    }
}

/// Scratch buffers of the rank coder, reused across the grids of a batch.
struct RankCoder<T> {
    keys: Vec<u128>,
    order: Vec<u32>,
    spare: Vec<u32>,
    values: Vec<T>,
}

impl<T: KernelValue> RankCoder<T> {
    fn new() -> Self {
        RankCoder { keys: Vec::new(), order: Vec::new(), spare: Vec::new(), values: Vec::new() }
    }

    /// Writes `grid`'s dense order-preserving ranks into lane `col` of the
    /// cell-major buffer (`soa[cell * width + col]`): equal values get equal
    /// ranks, and rank `r` is the `r`-th smallest distinct value. The grid
    /// itself becomes the lane's write-back table, its distinct values
    /// ascending in its first slots, until [`RankCoder::decode`] restores it.
    fn encode<R: Rank>(&mut self, grid: &mut Grid<T>, soa: &mut [R], width: usize, col: usize) {
        self.values.clear();
        self.values.extend_from_slice(grid.as_slice());
        self.keys.clear();
        self.keys.extend(self.values.iter().map(|v| v.order_key()));
        let order = radix_order(&self.keys, &mut self.order, &mut self.spare);
        let table = grid.as_mut_slice();
        let mut rank = 0;
        let mut prev = self.keys[order[0] as usize];
        table[0] = self.values[order[0] as usize];
        for &cell in order {
            let key = self.keys[cell as usize];
            if key != prev {
                prev = key;
                rank += 1;
                table[rank] = self.values[cell as usize];
            }
            soa[cell as usize * width + col] = R::from_index(rank);
        }
    }

    /// Maps lane `col`'s ranks through its table (the grid, as
    /// [`RankCoder::encode`] left it), restoring the grid's values in their
    /// final arrangement.
    fn decode<R: Rank>(&mut self, grid: &mut Grid<T>, ranks: Column<'_, R>) {
        self.values.clear();
        self.values.extend_from_slice(grid.as_slice());
        for (cell, slot) in grid.as_mut_slice().iter_mut().enumerate() {
            *slot = self.values[ranks.get(cell).index()];
        }
    }
}

/// Whether lane `col` of the cell-major buffer reads sorted: every
/// adjacent rank pair of `order`'s rank table is non-inverted. Full-lane
/// scans are strided and therefore only run at retirement candidacy
/// (quiescence), never per step.
fn lane_sorted<R: Rank>(soa: &[R], width: usize, col: usize, table: &[u32]) -> bool {
    table.windows(2).all(|w| soa[w[0] as usize * width + col] <= soa[w[1] as usize * width + col])
}

/// Branchless compare-exchange of one comparator across the whole batch:
/// cell row `lo` receives the per-lane minima, row `hi` the maxima, and
/// `swaps[lane]` counts the exchange. Contiguous rows and a tally as wide
/// as the lanes keep the loop vectorized: on `u8` lanes baseline x86-64
/// SSE2 does 16 lanes per `pminub`/`pmaxub`.
fn cx_lanes<R: Rank>(soa: &mut [R], width: usize, lo: usize, hi: usize, swaps: &mut [R]) {
    let (lo_off, hi_off) = (lo * width, hi * width);
    let (mins, maxs) = if lo_off < hi_off {
        let (head, tail) = soa.split_at_mut(hi_off);
        (&mut head[lo_off..lo_off + width], &mut tail[..width])
    } else {
        let (head, tail) = soa.split_at_mut(lo_off);
        (&mut tail[..width], &mut head[hi_off..hi_off + width])
    };
    for ((mn, mx), sw) in mins.iter_mut().zip(maxs.iter_mut()).zip(swaps.iter_mut()) {
        let (a, b) = (*mn, *mx);
        *mn = a.min(b);
        *mx = a.max(b);
        *sw += R::from(a > b);
    }
}

/// The lockstep engine proper; only entered once the sorted state is known
/// to be a fixed point of `schedule` (see [`run_batch_until_sorted`]).
/// Rank-codes `grids` into `R` lanes (the transpose to cell-major), steps
/// them and writes each lane back through its table.
///
/// A compare-exchange network commutes with every monotone relabelling of
/// its inputs, so stepping each grid's dense ranks instead of its values
/// gives the same exchanges, counts and final arrangement. The caller
/// picks the narrowest lane that holds every rank — `u8` up to 256 cells,
/// `u16` up to 65 536, `u32` above — and the per-step swap tally shares
/// its width: one step swaps a lane at most `cells / 2` times, because a
/// step's comparators touch disjoint cells.
fn run_lockstep<R: Rank, T: KernelValue>(
    schedule: &CycleSchedule,
    grids: &mut [Grid<T>],
    order: TargetOrder,
    cap: u64,
    side: usize,
) -> Vec<RunOutcome> {
    let cells = side * side;
    debug_assert!(cells <= R::MAX + 1, "every rank fits the lane width");
    debug_assert!(cells / 2 <= R::MAX, "a step's swap tally fits the lane width");
    let width = grids.len();
    let mut coder = RankCoder::new();
    let mut soa = vec![R::default(); cells * width];
    for (col, grid) in grids.iter_mut().enumerate() {
        coder.encode(grid, &mut soa, width, col);
    }
    step_lanes(schedule, order, cap, side, soa, width, &mut |lane, ranks| {
        coder.decode(&mut grids[lane], ranks);
    })
}

/// Steps the rank-coded cell-major buffer `soa` of `batch` lanes to
/// `order` and returns one outcome per lane; `write_back(lane, ranks)`
/// receives each lane's final ranks once, when the lane retires or the
/// cap is hit.
fn step_lanes<R: Rank>(
    schedule: &CycleSchedule,
    order: TargetOrder,
    cap: u64,
    side: usize,
    mut soa: Vec<R>,
    batch: usize,
    write_back: &mut dyn FnMut(usize, Column<'_, R>),
) -> Vec<RunOutcome> {
    let cells = side * side;
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

    let mut outcomes =
        vec![RunOutcome { steps: 0, swaps: 0, comparisons: 0, sorted: false }; batch];
    // Column `col` of the (possibly compacted) buffer belongs to grid
    // `lane_of[col]`.
    let mut lane_of: Vec<u32> = (0..batch as u32).collect();
    let mut width = batch;
    let mut mask = LaneMask::full(width);
    let mut swaps_total: Vec<u64> = vec![0; width];
    let mut swaps_step: Vec<R> = vec![R::default(); width];
    // Quiescence bookkeeping: the step each lane last swapped at, and its
    // comparison total as of that step (its retirement snapshot).
    let mut last_swap: Vec<u64> = vec![0; width];
    let mut comp_at_last_swap: Vec<u64> = vec![0; width];
    let mut retiring: Vec<usize> = Vec::new();

    // Grids sorted on entry cost zero steps, exactly like the scalar runs.
    for col in 0..width {
        if lane_sorted(&soa, width, col, &table) {
            outcomes[lane_of[col] as usize].sorted = true;
            write_back(lane_of[col] as usize, Column { soa: &soa, width, col });
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
        // Flush the lane-width step tallies into the u64 running totals,
        // and drive quiescence detection off the same
        // numbers: a swap timestamps the lane; a lane quiet for exactly
        // one full cycle gets its single sortedness scan. Retired lanes
        // tally zero forever (every wire is dead on sorted data) and the
        // `==` trigger fires at most once per lane, so neither re-enters.
        retiring.clear();
        for col in 0..width {
            let s: u64 = swaps_step[col].into();
            if s > 0 {
                swaps_step[col] = R::default();
                swaps_total[col] += s;
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
            write_back(lane, Column { soa: &soa, width, col });
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
            swaps_step = vec![R::default(); width];
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
        write_back(lane, Column { soa: &soa, width, col });
    });
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::StepPlan;
    use crate::rng::Rng;

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

    /// Rank-codes `values` into lane 1 of a two-lane buffer, checks the
    /// ranks are dense and order-isomorphic to the values (ties included)
    /// after `passes` radix passes, and that write-back restores the grid.
    fn check_rank_coding<T: KernelValue + std::fmt::Debug>(values: Vec<T>, passes: usize) {
        let keys: Vec<u128> = values.iter().map(|v| v.order_key()).collect();
        assert_eq!(radix_shifts(&keys).count(), passes, "radix passes");
        let cells = values.len();
        let side = (1..=cells).find(|s| s * s == cells).expect("a square grid");
        let original = Grid::from_rows(side, values).unwrap();
        let mut grid = original.clone();
        let mut coder = RankCoder::new();
        let mut soa = vec![0u16; 2 * cells];
        coder.encode(&mut grid, &mut soa, 2, 1);
        let ranks: Vec<u16> = (0..cells).map(|cell| soa[cell * 2 + 1]).collect();
        let v = original.as_slice();
        for i in 0..cells {
            for j in 0..cells {
                assert_eq!(ranks[i].cmp(&ranks[j]), v[i].cmp(&v[j]), "cells {i} and {j}");
            }
        }
        let mut distinct = v.to_vec();
        distinct.sort();
        distinct.dedup();
        assert_eq!(ranks.iter().max().map(|&r| usize::from(r) + 1), Some(distinct.len()));
        assert_eq!(&grid.as_slice()[..distinct.len()], &distinct[..], "write-back table");
        coder.decode(&mut grid, Column { soa: &soa, width: 2, col: 1 });
        assert_eq!(grid, original, "write-back round trip");
    }

    #[test]
    fn rank_coding_skips_agreeing_digits() {
        let mut perm: Vec<u32> = (0..256).collect();
        Rng::seed_from_u64(3).shuffle(&mut perm);
        check_rank_coding(perm.clone(), 1);
        check_rank_coding(perm.iter().map(|v| v % 7).collect(), 1);
        check_rank_coding(perm.iter().map(|v| ((v % 5) << 16) | 0xAB).collect(), 1);
        check_rank_coding(vec![42u8; 9], 0);
        check_rank_coding(vec![false, true, true, false], 1);
    }

    #[test]
    fn rank_coding_on_every_digit() {
        let mut rng = Rng::seed_from_u64(5);
        let mut wide: Vec<u128> = (0..16)
            .map(|_| (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64()))
            .collect();
        wide[3] = wide[11];
        wide[7] = 0;
        wide[8] = u128::MAX;
        check_rank_coding(wide, 16);
        let signed = vec![i128::MIN, -1, 0, 1, i128::MAX, -1, i128::MIN, 7, 0];
        check_rank_coding(signed, 16);
    }

    #[test]
    fn every_lane_width_matches_scalar() {
        // The u16 and u32 lanes are only chosen above 256 and 65 536
        // cells; forcing them on a small batch checks their stepping loop
        // against the scalar engine, with duplicates and a straggler.
        let side = 4;
        let s = odd_even_schedule(side * side);
        let mut grids: Vec<Grid<i64>> = (0..21)
            .map(|i| {
                let g = scrambled(side, i);
                Grid::from_rows(side, g.as_slice().iter().map(|&v| i64::from(v % 6) - 3).collect())
                    .unwrap()
            })
            .collect();
        grids[9] = Grid::from_rows(side, (0..16).rev().map(|v| (v - 8) * (i64::MAX / 8)).collect())
            .unwrap();
        let mut expect = grids.clone();
        let outcomes: Vec<RunOutcome> =
            expect.iter_mut().map(|g| s.run_until_sorted(g, TargetOrder::RowMajor, 64)).collect();
        type Runner =
            fn(&CycleSchedule, &mut [Grid<i64>], TargetOrder, u64, usize) -> Vec<RunOutcome>;
        let runners: [Runner; 3] =
            [run_lockstep::<u8, i64>, run_lockstep::<u16, i64>, run_lockstep::<u32, i64>];
        for (width, run) in runners.iter().enumerate() {
            let mut batch = grids.clone();
            assert_eq!(run(&s, &mut batch, TargetOrder::RowMajor, 64, side), outcomes, "{width}");
            assert_eq!(batch, expect, "lane width {width}");
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
