//! Compiled segment kernels: branchless step execution.
//!
//! [`CompiledPlan::compile`] lowers a validated [`StepPlan`] to a small
//! segment IR. Because the comparators of one step touch pairwise disjoint
//! cells, they commute, so the compiler first sorts them by their keep-min
//! index and then greedily extracts maximal *arithmetic runs*: sequences of
//! comparators whose keep-min and keep-max indices both advance by the same
//! constant stride. On the workspace's algorithms this recovers exactly the
//! hardware structure of each phase:
//!
//! * a **row phase** (and the merged row-even + wrap-around step of the
//!   row-major algorithms) becomes one stride-2 pair run over the whole
//!   grid,
//! * a **uniform column phase** becomes one stride-1 run of two parallel
//!   windows (`gap = side`) per row pair, which autovectorizes into
//!   elementwise `min`/`max` over two slices,
//! * **staggered column phases** become stride-2 two-window runs,
//! * anything irregular falls back to a scatter segment executed
//!   comparator by comparator.
//!
//! Every segment kernel uses a branchless compare-exchange (conditional
//! moves / vector `min`+`max` for the integer types behind
//! [`KernelValue`]), so the ~50%-mispredicted swap branch the scalar
//! reference engine pays on random data disappears. The engine's generic
//! `Ord` path ([`crate::engine::apply_plan`]) remains the behavioural
//! reference; differential tests pin the two together.

use crate::plan::{Comparator, StepPlan};

mod sealed {
    pub trait Sealed {}
}

/// Cell value types eligible for the branchless kernels.
///
/// Sealed and implemented for the primitive integer types (plus `bool` and
/// `char`), whose compare-exchange lowers to `min`/`max`/`cmov` without a
/// data-dependent branch. Everything else sorts through the generic `Ord`
/// reference path.
pub trait KernelValue: Copy + Ord + sealed::Sealed {
    /// Order-preserving key: `a.cmp(&b) == a.order_key().cmp(&b.order_key())`.
    /// Unsigned types widen, signed types flip their sign bit first, and
    /// `bool` and `char` widen. The batch engine ranks grids by it.
    fn order_key(self) -> u128;

    /// Branchless compare-exchange: `(smaller, larger, swapped)`, where
    /// `swapped` is `true` iff `a > b` — the exact condition under which
    /// the reference engine exchanges a comparator's cells.
    #[inline(always)]
    fn sort2(a: Self, b: Self) -> (Self, Self, bool) {
        let swapped = a > b;
        if swapped {
            (b, a, true)
        } else {
            (a, b, false)
        }
    }
}

macro_rules! impl_kernel_value {
    ($($t:ty => |$v:ident| $key:expr),* $(,)?) => {$(
        impl sealed::Sealed for $t {}
        impl KernelValue for $t {
            #[inline]
            fn order_key(self) -> u128 {
                let $v = self;
                $key
            }
        }
    )*};
}

impl_kernel_value!(
    u8 => |v| u128::from(v),
    u16 => |v| u128::from(v),
    u32 => |v| u128::from(v),
    u64 => |v| u128::from(v),
    u128 => |v| v,
    usize => |v| v as u128,
    i8 => |v| u128::from(v as u8 ^ (1 << 7)),
    i16 => |v| u128::from(v as u16 ^ (1 << 15)),
    i32 => |v| u128::from(v as u32 ^ (1 << 31)),
    i64 => |v| u128::from(v as u64 ^ (1 << 63)),
    i128 => |v| v as u128 ^ (1 << 127),
    isize => |v| (v as usize ^ (1 << (usize::BITS - 1))) as u128,
    bool => |v| u128::from(v),
    char => |v| u128::from(u32::from(v)),
);

/// A maximal arithmetic run: comparator `k` (for `k < count`) keeps the
/// smaller value at flat index `min_start + k·stride` and the larger at
/// `max_start + k·stride`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    min_start: u32,
    max_start: u32,
    stride: u32,
    count: u32,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Segment {
    Run(Run),
    Scatter(Vec<Comparator>),
}

/// A [`StepPlan`] lowered to segment IR for branchless execution.
///
/// Compiled once at [`crate::CycleSchedule`] construction and replayed by
/// [`crate::engine::apply_compiled`]. Compilation is lossless up to
/// comparator order: the executed comparator *set* is exactly the plan's
/// (comparators of one step commute because their cells are disjoint).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledPlan {
    segments: Vec<Segment>,
    comparisons: u64,
}

/// Runs shorter than this execute through the scatter fallback; extracting
/// them as runs would cost more dispatch than they save.
const MIN_RUN: usize = 4;

impl CompiledPlan {
    /// Lowers a validated plan to segment IR.
    pub fn compile(plan: &StepPlan) -> CompiledPlan {
        Self::compile_with_min_run(plan, MIN_RUN)
    }

    /// Lowers a plan to segment IR, accepting arithmetic runs of at least
    /// `min_run` comparators (clamped to a floor of 2 — a one-comparator
    /// "run" is just a costlier scatter entry). The default
    /// [`Self::compile`] threshold favours dense canonical steps; the
    /// schedule optimizer (`crate::opt`) compiles its dead-wire-stripped
    /// steps with a lower threshold so the sparse survivor columns still
    /// fuse into runs instead of falling into the scatter path.
    ///
    /// # Panics
    ///
    /// Panics when `min_run` is zero (a zero-length run is meaningless).
    pub fn compile_with_min_run(plan: &StepPlan, min_run: usize) -> CompiledPlan {
        assert!(min_run > 0, "run threshold must be positive");
        let mut cs: Vec<Comparator> = plan.comparators().to_vec();
        // Disjointness makes comparators commute; sorting by the keep-min
        // index exposes each phase's arithmetic structure as long runs.
        cs.sort_unstable_by_key(|c| c.keep_min);

        let mut segments: Vec<Segment> = Vec::new();
        let mut scatter: Vec<Comparator> = Vec::new();
        let mut i = 0usize;
        while i < cs.len() {
            let mut stride = 0i64;
            let mut j = i + 1;
            while j < cs.len() {
                let dmin = i64::from(cs[j].keep_min) - i64::from(cs[j - 1].keep_min);
                let dmax = i64::from(cs[j].keep_max) - i64::from(cs[j - 1].keep_max);
                if dmin != dmax || dmin <= 0 || (j > i + 1 && dmin != stride) {
                    break;
                }
                stride = dmin;
                j += 1;
            }
            let len = j - i;
            if len >= min_run.max(2) {
                if !scatter.is_empty() {
                    segments.push(Segment::Scatter(std::mem::take(&mut scatter)));
                }
                segments.push(Segment::Run(Run {
                    min_start: cs[i].keep_min,
                    max_start: cs[i].keep_max,
                    stride: stride as u32,
                    count: len as u32,
                }));
                i = j;
            } else {
                scatter.push(cs[i]);
                i += 1;
            }
        }
        if !scatter.is_empty() {
            segments.push(Segment::Scatter(scatter));
        }
        CompiledPlan { segments, comparisons: plan.len() as u64 }
    }

    /// Number of comparators the compiled step evaluates — equal to the
    /// source plan's [`StepPlan::len`].
    #[inline]
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }

    /// Re-expands the IR to a comparator list. The result is a permutation
    /// of the source plan's comparators (same set, possibly reordered);
    /// tests assert this losslessness on random plans.
    pub fn expand(&self) -> Vec<Comparator> {
        let mut out = Vec::with_capacity(self.comparisons as usize);
        for seg in &self.segments {
            match seg {
                Segment::Run(r) => {
                    for k in 0..r.count {
                        out.push(Comparator::new(
                            r.min_start + k * r.stride,
                            r.max_start + k * r.stride,
                        ));
                    }
                }
                Segment::Scatter(cs) => out.extend_from_slice(cs),
            }
        }
        out
    }

    /// Number of run segments (the rest is scatter) — exposed for tests
    /// asserting that algorithm phases compile to the expected shape.
    pub fn run_segments(&self) -> usize {
        self.segments.iter().filter(|s| matches!(s, Segment::Run(_))).count()
    }

    /// Executes the compiled step over a data slice, returning the number
    /// of exchanges. Indices must be in bounds (guaranteed when the source
    /// plan passed [`StepPlan::check_bounds`], as every plan inside a
    /// [`crate::CycleSchedule`] has).
    pub fn execute<T: KernelValue>(&self, data: &mut [T]) -> u64 {
        let mut swaps = 0u64;
        for seg in &self.segments {
            match seg {
                Segment::Run(r) => swaps += u64::from(exec_run(data, *r)),
                Segment::Scatter(cs) => {
                    for c in cs {
                        let (lo, hi) = (c.keep_min as usize, c.keep_max as usize);
                        let (mn, mx, s) = T::sort2(data[lo], data[hi]);
                        data[lo] = mn;
                        data[hi] = mx;
                        swaps += u64::from(s);
                    }
                }
            }
        }
        swaps
    }
}

/// Branchless compare-exchange into two slots (smaller value into `mn`).
///
/// The swap tally is `u32` on purpose: a run holds at most `u32::MAX`
/// comparators (indices are `u32`), each contributing at most one swap, and
/// the narrower accumulator is what lets LLVM keep the whole loop in vector
/// registers — a 64-bit tally forces a widening step that blocks
/// vectorization outright (~2.5× slower on the two-window path).
#[inline(always)]
pub(crate) fn cx_slots<T: KernelValue>(mn: &mut T, mx: &mut T, swaps: &mut u32) {
    let a = *mn;
    let b = *mx;
    let s = a > b;
    *mn = if s { b } else { a };
    *mx = if s { a } else { b };
    *swaps += u32::from(s);
}

fn exec_run<T: KernelValue>(data: &mut [T], run: Run) -> u32 {
    let lo0 = run.min_start as usize;
    let hi0 = run.max_start as usize;
    let stride = run.stride as usize;
    let count = run.count as usize;
    let mut swaps = 0u32;

    // The keep-min window starts at `lo0`, the keep-max window at `hi0`;
    // `base` is whichever comes first in memory.
    let (base, gap, min_is_low) =
        if lo0 < hi0 { (lo0, hi0 - lo0, true) } else { (hi0, lo0 - hi0, false) };

    if stride == 1 && gap >= count {
        // Two parallel contiguous windows (uniform column phases, wrap-free
        // chains): elementwise min/max over two slices — autovectorizes.
        let (a, b) = data[base..base + gap + count].split_at_mut(gap);
        let a = &mut a[..count];
        if min_is_low {
            for (mn, mx) in a.iter_mut().zip(b.iter_mut()) {
                cx_slots(mn, mx, &mut swaps);
            }
        } else {
            for (mx, mn) in a.iter_mut().zip(b.iter_mut()) {
                cx_slots(mn, mx, &mut swaps);
            }
        }
    } else if stride == 2 && gap == 1 {
        // Adjacent pairs (row phases; the merged row-even + wrap step forms
        // one such run across the whole grid). The branchless select keeps
        // throughput data-independent — a branchy swap mispredicts its way to
        // ~5× slower on random data even though it looks faster on
        // already-sorted steady state.
        let span = &mut data[base..base + 2 * count];
        if min_is_low {
            for pair in span.chunks_exact_mut(2) {
                let (a, b) = (pair[0], pair[1]);
                let s = a > b;
                pair[0] = if s { b } else { a };
                pair[1] = if s { a } else { b };
                swaps += u32::from(s);
            }
        } else {
            for pair in span.chunks_exact_mut(2) {
                let (a, b) = (pair[1], pair[0]);
                let s = a > b;
                pair[1] = if s { b } else { a };
                pair[0] = if s { a } else { b };
                swaps += u32::from(s);
            }
        }
    } else if stride > 1 && gap > stride * (count - 1) {
        // Two disjoint strided windows (staggered column phases): split,
        // then walk both with the same stride.
        let (a, b) = data.split_at_mut(base + gap);
        let ia = a[base..].iter_mut().step_by(stride).take(count);
        let ib = b.iter_mut().step_by(stride).take(count);
        if min_is_low {
            for (mn, mx) in ia.zip(ib) {
                cx_slots(mn, mx, &mut swaps);
            }
        } else {
            for (mx, mn) in ia.zip(ib) {
                cx_slots(mn, mx, &mut swaps);
            }
        }
    } else {
        // General constant-stride run (wrap chains executed standalone:
        // stride = side, gap = 1). Still branchless, just not sliceable.
        for k in 0..count {
            let lo = lo0 + k * stride;
            let hi = hi0 + k * stride;
            let (mn, mx, s) = T::sort2(data[lo], data[hi]);
            data[lo] = mn;
            data[hi] = mx;
            swaps += u32::from(s);
        }
    }
    swaps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::apply_plan;
    use crate::grid::Grid;

    fn compiled_matches_reference(plan: &StepPlan, data: Vec<u32>, side: usize) {
        let mut a = Grid::from_rows(side, data.clone()).unwrap();
        let mut b = Grid::from_rows(side, data).unwrap();
        let out = apply_plan(&mut a, plan);
        let compiled = CompiledPlan::compile(plan);
        let swaps = compiled.execute(b.as_mut_slice());
        assert_eq!(a, b, "grids diverged");
        assert_eq!(out.swaps, swaps, "swap counts diverged");
        assert_eq!(out.comparisons, compiled.comparisons());
    }

    #[test]
    fn sort2_semantics() {
        assert_eq!(u32::sort2(3, 5), (3, 5, false));
        assert_eq!(u32::sort2(5, 3), (3, 5, true));
        assert_eq!(u32::sort2(4, 4), (4, 4, false));
    }

    fn keys_preserve_order<T: KernelValue + std::fmt::Debug>(values: &[T]) {
        for &a in values {
            for &b in values {
                assert_eq!(a.cmp(&b), a.order_key().cmp(&b.order_key()), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn order_keys_preserve_order() {
        keys_preserve_order(&[0u8, 1, 127, 128, u8::MAX]);
        keys_preserve_order(&[0u32, 1, u32::MAX - 1, u32::MAX]);
        keys_preserve_order(&[0u128, 1, 1 << 64, (1 << 64) + 1, u128::MAX]);
        keys_preserve_order(&[i8::MIN, -1, 0, 1, i8::MAX]);
        keys_preserve_order(&[i32::MIN, i32::MIN + 1, -1, 0, 1, i32::MAX]);
        keys_preserve_order(&[i64::MIN, -(1 << 40), -1, 0, 1 << 40, i64::MAX]);
        keys_preserve_order(&[i128::MIN, -1, 0, 1, i128::MAX]);
        keys_preserve_order(&[isize::MIN, -1, 0, isize::MAX]);
        keys_preserve_order(&[usize::MIN, 1, usize::MAX]);
        keys_preserve_order(&[false, true]);
        keys_preserve_order(&['\0', 'a', 'z', '\u{10FFFF}']);
    }

    #[test]
    fn row_phase_compiles_to_single_pair_run() {
        // Odd row phase on a 6×6 mesh: pairs (2k, 2k+1) in every row —
        // after sorting by keep-min this is one stride-2 run.
        let side = 6;
        let pairs: Vec<(u32, u32)> = (0..side)
            .flat_map(|r| {
                (0..side / 2).map(move |k| {
                    let base = (r * side + 2 * k) as u32;
                    (base, base + 1)
                })
            })
            .collect();
        let plan = StepPlan::from_pairs(pairs).unwrap();
        let compiled = CompiledPlan::compile(&plan);
        assert_eq!(compiled.run_segments(), 1);
        compiled_matches_reference(&plan, (0..36u32).rev().collect(), side);
    }

    #[test]
    fn column_phase_compiles_to_stride1_runs() {
        // Odd column phase on 6×6: per row pair, one stride-1 two-window
        // run of length `side`.
        let side = 6usize;
        let pairs: Vec<(u32, u32)> = (0..side)
            .flat_map(|c| {
                (0..side / 2).map(move |k| {
                    let top = (2 * k * side + c) as u32;
                    (top, top + side as u32)
                })
            })
            .collect();
        let plan = StepPlan::from_pairs(pairs).unwrap();
        let compiled = CompiledPlan::compile(&plan);
        assert_eq!(compiled.run_segments(), side / 2);
        compiled_matches_reference(&plan, (0..36u32).rev().collect(), side);
    }

    #[test]
    fn reverse_direction_run() {
        // Reverse bubble pairs: keep-min on the right.
        let pairs: Vec<(u32, u32)> = (0..8).map(|k| (2 * k + 1, 2 * k)).collect();
        let plan = StepPlan::from_pairs(pairs).unwrap();
        compiled_matches_reference(&plan, (0..16u32).collect(), 4);
    }

    #[test]
    fn wrap_chain_run() {
        // Wrap wires on a 4×4 mesh: (r·s + s−1, (r+1)·s) — stride-s, gap-1.
        let side = 4u32;
        let pairs: Vec<(u32, u32)> =
            (0..side - 1).map(|r| (r * side + side - 1, (r + 1) * side)).collect();
        let plan = StepPlan::from_pairs(pairs).unwrap();
        compiled_matches_reference(&plan, (0..16u32).rev().collect(), side as usize);
    }

    #[test]
    fn staggered_columns_strided_windows() {
        // Stride-2 gap-`side` runs: odd-phase on even columns of an 8×8.
        let side = 8usize;
        let pairs: Vec<(u32, u32)> = (0..side / 2)
            .flat_map(|k| {
                (0..side).step_by(2).map(move |c| {
                    let top = (2 * k * side + c) as u32;
                    (top, top + side as u32)
                })
            })
            .collect();
        let plan = StepPlan::from_pairs(pairs).unwrap();
        let data: Vec<u32> = (0..64u32).map(|v| v.wrapping_mul(2654435761) % 97).collect();
        compiled_matches_reference(&plan, data, side);
    }

    #[test]
    fn tiny_plans_scatter() {
        let plan = StepPlan::from_pairs(vec![(0, 5), (7, 2)]).unwrap();
        let compiled = CompiledPlan::compile(&plan);
        assert_eq!(compiled.run_segments(), 0);
        compiled_matches_reference(&plan, vec![9, 3, 1, 4, 1, 5, 9, 2, 6], 3);
    }

    #[test]
    fn empty_plan() {
        let compiled = CompiledPlan::compile(&StepPlan::empty());
        assert_eq!(compiled.comparisons(), 0);
        let mut data: Vec<u32> = vec![3, 1];
        assert_eq!(compiled.execute(&mut data), 0);
        assert_eq!(data, vec![3, 1]);
    }

    #[test]
    fn expand_is_lossless_up_to_order() {
        let plan =
            StepPlan::from_pairs(vec![(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (11, 10)]).unwrap();
        let compiled = CompiledPlan::compile(&plan);
        let mut expanded = compiled.expand();
        let mut original = plan.comparators().to_vec();
        let key = |c: &Comparator| (c.keep_min, c.keep_max);
        expanded.sort_unstable_by_key(key);
        original.sort_unstable_by_key(key);
        assert_eq!(expanded, original);
    }

    #[test]
    fn duplicates_do_not_count_as_swaps() {
        let pairs: Vec<(u32, u32)> = (0..4).map(|k| (2 * k, 2 * k + 1)).collect();
        let plan = StepPlan::from_pairs(pairs).unwrap();
        let compiled = CompiledPlan::compile(&plan);
        let mut data = vec![7u32; 8];
        assert_eq!(compiled.execute(&mut data), 0);
    }
}
