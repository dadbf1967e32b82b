//! Differential properties of the SoA lockstep batch engine.
//!
//! The faithfulness contract (DESIGN.md "Batch engine"): for every grid in
//! a batch, the final grid contents AND the per-grid counters (steps,
//! swaps, comparisons, sorted flag) are bit-identical to what the scalar
//! engines produce on that grid alone — for all five Savari algorithms,
//! for random and adversarial batches, for ragged batches, for
//! single-grid batches, and for any shard width / thread count.
//!
//! Inputs are seeded (`meshsort_mesh::Rng`), so every run checks the
//! same grids.

use meshsort_core::{optimized_for, runner, schedule_for, AlgorithmId, Budget, SortJob};
use meshsort_mesh::schedule::RunOutcome;
use meshsort_mesh::{run_batch_until_sorted, Grid, KernelValue, Rng, TargetOrder};
use std::fmt::Debug;

/// A pseudo-random permutation of `0..side²`.
fn permutation_grid(side: usize, seed: u64) -> Grid<u32> {
    let mut v: Vec<u32> = (0..(side * side) as u32).collect();
    Rng::seed_from_u64(seed).shuffle(&mut v);
    Grid::from_rows(side, v).unwrap()
}

fn reversed_grid(side: usize) -> Grid<u32> {
    Grid::from_rows(side, (0..(side * side) as u32).rev().collect()).unwrap()
}

fn sorted_grid(side: usize, order: TargetOrder) -> Grid<u32> {
    let table = order.rank_to_flat_table(side);
    let mut v = vec![0u32; side * side];
    for (rank, &flat) in table.iter().enumerate() {
        v[flat as usize] = rank as u32;
    }
    let g = Grid::from_rows(side, v).unwrap();
    assert!(g.is_sorted(order));
    g
}

/// Grid with duplicate keys — the engines only assume `Ord`, not
/// distinctness, so the contract must hold beyond permutations.
fn duplicate_heavy_grid(side: usize, seed: u64) -> Grid<u32> {
    let mut rng = Rng::seed_from_u64(seed);
    let v: Vec<u32> = (0..side * side).map(|_| rng.range(0..4) as u32).collect();
    Grid::from_rows(side, v).unwrap()
}

/// Runs `grids` through the mesh-level lockstep engine and checks every
/// lane against both scalar engines (kernel and reference) grid by grid.
fn assert_batch_faithful<T: KernelValue + Debug>(
    algorithm: AlgorithmId,
    side: usize,
    grids: &[Grid<T>],
    cap: u64,
) {
    let schedule = schedule_for(algorithm, side).unwrap();
    let order = algorithm.order();

    let mut batch = grids.to_vec();
    let outcomes = run_batch_until_sorted(&schedule, &mut batch, order, cap).unwrap();
    assert_eq!(outcomes.len(), grids.len());

    for (i, original) in grids.iter().enumerate() {
        let mut kernel = original.clone();
        let expect_kernel: RunOutcome = schedule.run_until_sorted_kernel(&mut kernel, order, cap);
        let mut reference = original.clone();
        let expect_ref = schedule.run_until_sorted_reference(&mut reference, order, cap);

        assert_eq!(outcomes[i], expect_kernel, "{algorithm} side {side}: counters, grid {i}");
        assert_eq!(outcomes[i], expect_ref, "{algorithm} side {side}: engines disagree, grid {i}");
        assert_eq!(batch[i], kernel, "{algorithm} side {side}: final grid, grid {i}");
        assert_eq!(batch[i], reference, "{algorithm} side {side}: reference grid, grid {i}");
    }
}

/// Sides exercised per algorithm: the row-major algorithms are defined for
/// even sides only; the snakes for any side ≥ 1. Side 8 crosses the
/// `SMALL_GRID_CELLS` threshold, side 4 stays under it.
fn supported_sides(algorithm: AlgorithmId) -> Vec<usize> {
    [4, 5, 8, 9].into_iter().filter(|&s| algorithm.schedule(s).is_ok()).collect()
}

#[test]
fn random_batches_bit_identical_all_five() {
    for algorithm in AlgorithmId::ALL {
        for side in supported_sides(algorithm) {
            let cap = runner::default_step_cap(side);
            let grids: Vec<Grid<u32>> =
                (0..13).map(|i| permutation_grid(side, i * 37 + side as u64)).collect();
            assert_batch_faithful(algorithm, side, &grids, cap);
        }
    }
}

#[test]
fn adversarial_batches_bit_identical_all_five() {
    for algorithm in AlgorithmId::ALL {
        for side in supported_sides(algorithm) {
            let cap = runner::default_step_cap(side);
            let order = algorithm.order();
            // Reversed (the Corollary-1-style adversary), already sorted
            // (must retire at step 0), duplicate-heavy, and near-sorted
            // grids in one batch, so retirement is maximally staggered.
            let mut near = sorted_grid(side, order);
            let flat = near.side(); // single swapped pair in row 0
            {
                let rows = near.as_mut_slice();
                rows.swap(0, flat.min(rows.len() - 1));
            }
            let grids = vec![
                reversed_grid(side),
                sorted_grid(side, order),
                duplicate_heavy_grid(side, 5),
                near,
                permutation_grid(side, 99),
            ];
            assert_batch_faithful(algorithm, side, &grids, cap);
        }
    }
}

#[test]
fn single_grid_batches_match_solo_jobs() {
    for algorithm in AlgorithmId::ALL {
        for side in supported_sides(algorithm) {
            let mut solo = permutation_grid(side, 7);
            let mut batch = vec![solo.clone()];
            let runs = SortJob::new(algorithm, side)
                .threads(1)
                .shard_width(1)
                .run_batch(&mut batch)
                .unwrap();
            let expect = SortJob::new(algorithm, side).run(&mut solo).unwrap();
            assert_eq!(runs.len(), 1);
            assert_eq!(runs[0], expect, "{algorithm} side {side}");
            assert_eq!(batch[0], solo, "{algorithm} side {side}");
        }
    }
}

#[test]
fn ragged_batches_invariant_under_shard_width_and_threads() {
    // 29 grids: not a multiple of any shard width below, so every
    // configuration ends in a ragged tail shard.
    let algorithm = AlgorithmId::SnakeStaggeredCols;
    let side = 8;
    let cap = runner::default_step_cap(side);
    let baseline: Vec<Grid<u32>> = (0..29).map(|i| permutation_grid(side, i)).collect();

    let job = SortJob::new(algorithm, side).budget(Budget::Steps(cap));
    let mut expect = baseline.clone();
    let expect_runs = job.clone().threads(1).shard_width(29).run_batch(&mut expect).unwrap();
    for (i, g) in expect.iter().enumerate() {
        let mut solo = baseline[i].clone();
        let solo_run = job.run(&mut solo).unwrap();
        assert_eq!(expect_runs[i], solo_run, "grid {i}");
        assert_eq!(*g, solo, "grid {i}");
    }

    for (threads, width) in [(1, 4), (2, 5), (4, 3), (3, 8), (16, 1), (2, 1000)] {
        let mut grids = baseline.clone();
        let runs = job.clone().threads(threads).shard_width(width).run_batch(&mut grids).unwrap();
        assert_eq!(runs, expect_runs, "threads={threads} width={width}");
        assert_eq!(grids, expect, "threads={threads} width={width}");
    }
}

#[test]
fn capped_batches_report_faithful_partial_counters() {
    for algorithm in AlgorithmId::ALL {
        let side = 8;
        for cap in [0, 1, 5] {
            let grids: Vec<Grid<u32>> = (0..6).map(|i| permutation_grid(side, i + 3)).collect();
            assert_batch_faithful(algorithm, side, &grids, cap);
        }
    }
}

#[test]
fn optimized_plans_execute_directly_in_the_lockstep_engine() {
    // The batch engine takes any `CycleSchedule`, so a certified
    // dead-wire-stripped plan runs through the same SoA lockstep path as
    // the raw schedule. Certificate obligations guarantee stripped wires
    // never swap: final grids, steps, and swaps must be bit-identical,
    // with comparisons strictly reduced wherever wires were stripped.
    for algorithm in AlgorithmId::ALL {
        for side in supported_sides(algorithm) {
            let raw = schedule_for(algorithm, side).unwrap();
            let plan = optimized_for(algorithm, side).unwrap();
            let order = algorithm.order();
            let cap = runner::default_step_cap(side);
            let grids: Vec<Grid<u32>> = (0..7)
                .map(|i| permutation_grid(side, i * 11 + 1))
                .chain([reversed_grid(side)])
                .collect();

            let mut raw_batch = grids.clone();
            let raw_out = run_batch_until_sorted(&raw, &mut raw_batch, order, cap).unwrap();
            let mut opt_batch = grids.clone();
            let opt_out =
                run_batch_until_sorted(&plan.schedule, &mut opt_batch, order, cap).unwrap();

            assert_eq!(raw_batch, opt_batch, "{algorithm} side {side}: final grids");
            let mut reduced = false;
            for (i, (r, o)) in raw_out.iter().zip(&opt_out).enumerate() {
                assert_eq!(r.steps, o.steps, "{algorithm} side {side}: steps, grid {i}");
                assert_eq!(r.swaps, o.swaps, "{algorithm} side {side}: swaps, grid {i}");
                assert_eq!(r.sorted, o.sorted, "{algorithm} side {side}: sorted, grid {i}");
                assert!(
                    o.comparisons <= r.comparisons,
                    "{algorithm} side {side}: optimized plan must never compare more, grid {i}"
                );
                reduced |= o.comparisons < r.comparisons;
            }
            assert_eq!(
                reduced,
                !plan.stripped.is_empty(),
                "{algorithm} side {side}: comparator reduction iff wires were stripped"
            );
        }
    }
}

#[test]
fn optimized_batch_jobs_match_raw_batch_jobs() {
    // Same property one level up: `SortJob::run_batch` with
    // `.optimized(true)` feeds the stripped plan straight into the
    // lockstep engine (no per-grid fallback), so server batches get the
    // comparator-reduction win with unchanged results.
    for algorithm in AlgorithmId::ALL {
        for side in supported_sides(algorithm) {
            let grids: Vec<Grid<u32>> = (0..5).map(|i| permutation_grid(side, i * 7 + 2)).collect();
            let mut raw_batch = grids.clone();
            let raw_runs = SortJob::new(algorithm, side).run_batch(&mut raw_batch).unwrap();
            let mut opt_batch = grids.clone();
            let opt_runs =
                SortJob::new(algorithm, side).optimized(true).run_batch(&mut opt_batch).unwrap();
            assert_eq!(raw_batch, opt_batch, "{algorithm} side {side}: final grids");
            for (i, (r, o)) in raw_runs.iter().zip(&opt_runs).enumerate() {
                assert_eq!(r.steps, o.steps, "{algorithm} side {side}: steps, grid {i}");
                assert_eq!(r.swaps, o.swaps, "{algorithm} side {side}: swaps, grid {i}");
                assert_eq!(
                    r.convergence, o.convergence,
                    "{algorithm} side {side}: convergence, grid {i}"
                );
            }
        }
    }
}

#[test]
fn mass_retirement_batch_exercises_compaction() {
    // One hard straggler among many instantly-sorted lanes forces the
    // engine through its live-lane compaction path; faithfulness must
    // survive the re-pack.
    let algorithm = AlgorithmId::SnakeAlternating;
    let side = 8;
    let order = algorithm.order();
    let cap = runner::default_step_cap(side);
    let mut grids: Vec<Grid<u32>> = (0..70).map(|_| sorted_grid(side, order)).collect();
    grids[37] = reversed_grid(side);
    assert_batch_faithful(algorithm, side, &grids, cap);
}

/// Sides 16 and 17 where the algorithm supports them: the workload side,
/// the last side whose ranks fit `u8` lanes (256 cells) and the first that
/// needs `u16` lanes (289 cells).
fn lane_boundary_sides(algorithm: AlgorithmId) -> Vec<usize> {
    [16, 17].into_iter().filter(|&s| algorithm.schedule(s).is_ok()).collect()
}

/// Maps each cell of a few random permutation grids (plus the reversed
/// grid) through `f`, for every algorithm at both lane-boundary sides,
/// and checks the batch against the per-grid engines.
fn assert_boundary_batches_faithful<T: KernelValue + Debug>(f: impl Fn(u32, usize) -> T) {
    for algorithm in AlgorithmId::ALL {
        for side in lane_boundary_sides(algorithm) {
            let cells = side * side;
            let grids: Vec<Grid<T>> = (0..4)
                .map(|i| permutation_grid(side, i * 13 + side as u64))
                .chain([reversed_grid(side)])
                .map(|g| Grid::from_rows(side, g.as_slice().iter().map(|&v| f(v, cells)).collect()))
                .collect::<Result<_, _>>()
                .unwrap();
            assert_batch_faithful(algorithm, side, &grids, runner::default_step_cap(side));
        }
    }
}

#[test]
fn lane_boundary_sides_bit_identical_all_five() {
    assert_boundary_batches_faithful(|v, _| v);
}

#[test]
fn duplicate_heavy_and_extreme_values_bit_identical() {
    assert_boundary_batches_faithful(|v, _| [0, 1, u32::MAX - 1, u32::MAX][v as usize % 4]);
    assert_boundary_batches_faithful(
        |v, cells| if (v as usize) < cells / 2 { 0 } else { u32::MAX },
    );
    for algorithm in AlgorithmId::ALL {
        for side in lane_boundary_sides(algorithm) {
            let constant = Grid::from_rows(side, vec![7u32; side * side]).unwrap();
            let grids = [constant, duplicate_heavy_grid(side, 11), duplicate_heavy_grid(side, 12)];
            assert_batch_faithful(algorithm, side, &grids, runner::default_step_cap(side));
        }
    }
}

#[test]
fn signed_values_with_negatives_and_min_bit_identical() {
    assert_boundary_batches_faithful(|v, cells| match v {
        0 => i32::MIN,
        1 => i32::MAX,
        _ => (v as i32 - cells as i32 / 2) * 1_000,
    });
    assert_boundary_batches_faithful(|v, cells| match v % 3 {
        0 => i64::MIN,
        _ => (i64::from(v) - cells as i64 / 2) << 40,
    });
}

#[test]
fn u128_values_differing_only_above_bit_64_bit_identical() {
    assert_boundary_batches_faithful(|v, _| (u128::from(v) << 64) | 0xDEAD_BEEF);
}

#[test]
fn bool_and_char_values_bit_identical() {
    assert_boundary_batches_faithful(|v, _| v % 3 == 0);
    assert_boundary_batches_faithful(|v, _| char::from_u32(0x1F600 + v % 40).unwrap());
}
