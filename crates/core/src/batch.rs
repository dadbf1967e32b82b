//! Batched sorting: many independent grids through one shared plan.
//!
//! The canonical implementation lives in [`crate::SortJob::run_batch`]:
//! it resolves the shared compiled schedule from the [`crate::cache`],
//! shards the batch into fixed-width sub-batches, and fans the shards out
//! across worker threads via `meshsort_stats::parallel::map_chunks` — the
//! same `MESHSORT_THREADS` plumbing the Monte-Carlo drivers use. Each
//! shard executes the SoA lockstep engine; per-grid outcomes are faithful
//! to a standalone [`crate::SortJob::run`] regardless of batch
//! composition, shard width, or thread count (`mesh/tests/batch_props.rs`
//! pins this differentially).
//!
//! [`sort_batch`] / [`sort_batch_with`] are **deprecated shims** over the
//! job API, kept for existing callers; this module's lasting exports are
//! the tuning constants [`DEFAULT_SHARD_WIDTH`] and [`LOCKSTEP_MAX_CELLS`].

use crate::algorithm::AlgorithmId;
use crate::job::{Budget, SortJob};
use crate::runner::{static_step_bound, SortRun};
use meshsort_mesh::{Grid, KernelValue, MeshError};
use meshsort_stats::parallel;
use std::hash::Hash;

/// Default shard width for [`sort_batch`]: wide enough that the lockstep
/// inner loops stay vector-friendly and per-step overhead amortizes
/// (measured side-8 throughput is within noise of the serial optimum at
/// 512 lanes and gains < 10% beyond it; see `BENCH_meshsort.json`), and
/// small enough that a side-16 shard's structure-of-arrays buffer
/// (128 KiB: one `u8` rank per cell and lane) stays in L2.
///
/// Threads take whole shards, so a batch of at most this many grids is
/// one shard and runs on one thread whatever the thread count: a
/// 256-grid experiment batch does not spread across cores. Narrower
/// shards were measured and rejected (DESIGN.md §12).
pub const DEFAULT_SHARD_WIDTH: usize = 512;

/// Largest grid (in cells) the lockstep engine is profitable for. Bigger
/// grids mean narrower effective batches per unit of work and a
/// structure-of-arrays buffer far outside cache, where the measured
/// lockstep throughput falls *behind* the per-grid kernel loop; above
/// this, [`sort_batch_with`] runs each grid through the per-grid kernel
/// engine instead (still sharded across threads, still bit-faithful).
pub const LOCKSTEP_MAX_CELLS: usize = 1024;

/// Sorts every grid of `grids` in place with `algorithm`, batched — the
/// many-grid counterpart of [`crate::runner::sort_to_completion`], with the
/// retirement horizon set to the statically proven convergence bound
/// ([`static_step_bound`]; the Θ(N) cap above the fixpoint gate),
/// [`parallel::default_threads`] workers (the
/// `MESHSORT_THREADS` override applies) and [`DEFAULT_SHARD_WIDTH`] shards.
///
/// Returns one [`SortRun`] per grid, index-aligned with `grids` and
/// bit-identical (outcome and final grid) to what a standalone
/// `sort_to_completion` on that grid would produce.
///
/// # Errors
///
/// [`MeshError::UnsupportedSide`] when the algorithm is not defined for the
/// batch's side; [`MeshError::MixedBatchSides`] when the grids do not all
/// share one side.
#[deprecated(note = "use SortJob::new(algorithm, side).budget(Budget::Static).run_batch(grids)")]
pub fn sort_batch<T: KernelValue + Hash + Send>(
    algorithm: AlgorithmId,
    grids: &mut [Grid<T>],
) -> Result<Vec<SortRun>, MeshError> {
    let cap = static_step_bound(algorithm, grids.first().map_or(1, Grid::side));
    #[allow(deprecated)]
    sort_batch_with(algorithm, grids, cap, parallel::default_threads(), DEFAULT_SHARD_WIDTH)
}

/// [`sort_batch`] with explicit step cap, worker count, and shard width.
///
/// Determinism contract: outcomes and final grids are identical for every
/// `threads` and `shard_width` — sharding only changes scheduling, never
/// per-grid results (each grid's run is independent; the lockstep engine
/// is faithful per lane). Grids above [`LOCKSTEP_MAX_CELLS`] cells are
/// executed per grid through the kernel engine (sharded across the same
/// workers) instead of in lockstep; because both engines are bit-faithful
/// the switch is invisible in the results, only in throughput.
///
/// # Errors
///
/// As for [`sort_batch`].
///
/// # Panics
///
/// Panics if `shard_width` is zero.
#[deprecated(
    note = "use SortJob::new(algorithm, side).budget(Budget::Steps(cap)).threads(..).shard_width(..).run_batch(grids)"
)]
pub fn sort_batch_with<T: KernelValue + Hash + Send>(
    algorithm: AlgorithmId,
    grids: &mut [Grid<T>],
    cap: u64,
    threads: usize,
    shard_width: usize,
) -> Result<Vec<SortRun>, MeshError> {
    assert!(shard_width > 0, "shard_width must be non-zero");
    let Some(first) = grids.first() else {
        return Ok(Vec::new());
    };
    let side = first.side();
    let runs = SortJob::new(algorithm, side)
        .budget(Budget::Steps(cap))
        .threads(threads)
        .shard_width(shard_width)
        .run_batch(grids)
        .map_err(crate::error::demote_to_mesh)?;
    Ok(runs.iter().map(|r| SortRun { algorithm, side, outcome: r.into() }).collect())
}

#[cfg(test)]
#[allow(deprecated)] // the shims stay pinned by their original tests
mod tests {
    use super::*;
    use crate::runner::{default_step_cap, sort_to_completion, sort_with_cap};

    fn scrambled(side: usize, salt: u32) -> Grid<u32> {
        let cells = (side * side) as u32;
        let data: Vec<u32> =
            (0..cells).map(|v| (v.wrapping_mul(2654435761).wrapping_add(salt)) % cells).collect();
        Grid::from_rows(side, data).unwrap()
    }

    #[test]
    fn batch_matches_per_grid_runs_all_five() {
        let side = 8;
        for a in AlgorithmId::ALL {
            let mut grids: Vec<Grid<u32>> = (0..9).map(|i| scrambled(side, i)).collect();
            grids.push(Grid::from_rows(side, (0..64u32).rev().collect()).unwrap());
            let mut solo = grids.clone();
            let runs = sort_batch(a, &mut grids).unwrap();
            assert_eq!(runs.len(), grids.len());
            for (i, g) in solo.iter_mut().enumerate() {
                let expect = sort_to_completion(a, g).unwrap();
                assert_eq!(runs[i], expect, "{a}: grid {i}");
                assert_eq!(&grids[i], g, "{a}: grid {i}");
            }
        }
    }

    #[test]
    fn sharding_and_threads_do_not_change_results() {
        let side = 8;
        let a = AlgorithmId::SnakeAlternating;
        let baseline: Vec<Grid<u32>> = (0..10).map(|i| scrambled(side, i)).collect();
        let cap = default_step_cap(side);
        let mut expect = baseline.clone();
        let expect_runs = sort_batch_with(a, &mut expect, cap, 1, 3).unwrap();
        // Ragged shards (10 % 3 != 0, 10 % 4 != 0) and varying threads.
        for (threads, width) in [(1, 4), (2, 3), (4, 4), (3, 100)] {
            let mut grids = baseline.clone();
            let runs = sort_batch_with(a, &mut grids, cap, threads, width).unwrap();
            assert_eq!(runs, expect_runs, "threads={threads} width={width}");
            assert_eq!(grids, expect, "threads={threads} width={width}");
        }
    }

    #[test]
    fn batch_cap_matches_per_grid_cap() {
        let side = 8;
        let a = AlgorithmId::SnakePhaseAligned;
        let mut grids: Vec<Grid<u32>> = (0..4).map(|i| scrambled(side, i)).collect();
        let mut solo = grids.clone();
        let runs = sort_batch_with(a, &mut grids, 3, 1, 2).unwrap();
        for (i, g) in solo.iter_mut().enumerate() {
            let expect = sort_with_cap(a, g, 3).unwrap();
            assert_eq!(runs[i], expect, "grid {i}");
            assert_eq!(&grids[i], g, "grid {i}");
        }
    }

    #[test]
    fn large_grids_take_kernel_fallback_and_still_match() {
        // 34 * 34 = 1156 cells > LOCKSTEP_MAX_CELLS, so this batch runs
        // through the per-grid kernel branch; results must be identical
        // to standalone runs all the same.
        let side = 34;
        assert!(side * side > LOCKSTEP_MAX_CELLS);
        let a = AlgorithmId::SnakeAlternating;
        let mut grids: Vec<Grid<u32>> = (0..3).map(|i| scrambled(side, i)).collect();
        let mut solo = grids.clone();
        let runs = sort_batch(a, &mut grids).unwrap();
        for (i, g) in solo.iter_mut().enumerate() {
            let expect = sort_to_completion(a, g).unwrap();
            assert_eq!(runs[i], expect, "grid {i}");
            assert_eq!(&grids[i], g, "grid {i}");
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let mut grids: Vec<Grid<u32>> = Vec::new();
        assert!(sort_batch(AlgorithmId::SnakeAlternating, &mut grids).unwrap().is_empty());
    }

    #[test]
    fn batch_errors_propagate() {
        let mut odd = vec![scrambled(3, 0)];
        assert!(matches!(
            sort_batch(AlgorithmId::RowMajorRowFirst, &mut odd),
            Err(MeshError::UnsupportedSide { side: 3, .. })
        ));
        let mut mixed = vec![scrambled(4, 0), scrambled(8, 0)];
        assert_eq!(
            sort_batch(AlgorithmId::SnakeAlternating, &mut mixed).unwrap_err(),
            MeshError::MixedBatchSides { expected: 4, found: 8 }
        );
    }
}
