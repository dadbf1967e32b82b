//! Engine equivalence of [`SortJob`] (DESIGN.md §14): every engine is a
//! pure dispatch choice. Across the job space — engine × budget × raw or
//! optimized plan × fault injection, at sides 4, 5, 8 and 34 (above
//! `LOCKSTEP_MAX_CELLS`, where the batch engine falls back to the kernel)
//! — each job must reproduce the [`Engine::Scalar`] oracle exactly: the
//! whole [`RunOutcome`] (steps, swaps, comparisons, convergence label,
//! budget and fault statistics) and the final grid. `run_batch` must
//! equal per-grid `run` calls on the same grids.

use meshsort_core::{resilient_policy_for, AlgorithmId, Budget, Engine, RunOutcome, SortJob};
use meshsort_mesh::fault::{FaultPlan, FaultSpec, StuckWire};
use meshsort_mesh::{Grid, Rng};

const ENGINES: [Engine; 3] = [Engine::Auto, Engine::Kernel, Engine::Batch];
const BUDGETS: [Budget; 4] = [Budget::Default, Budget::Static, Budget::Steps(3), Budget::Steps(40)];
const SIDES: [usize; 4] = [4, 5, 8, 34];

/// The fault axis of the matrix.
#[derive(Debug, Clone, Copy)]
enum Faults {
    /// A fault-free job.
    None,
    /// The no-op fault plan with an explicit policy: the resilient
    /// engine, with nothing to inject.
    NoopPlanWithPolicy,
    /// Transient drops and stalls plus one permanently stuck wire:
    /// exercises the drop path, the watchdog and recovery scrubbing.
    TransientAndStuck,
}

fn with_faults(job: SortJob, faults: Faults) -> SortJob {
    match faults {
        Faults::None => job,
        Faults::NoopPlanWithPolicy => {
            let policy = resilient_policy_for(job.algorithm(), job.side());
            job.fault_plan(FaultPlan::none()).resilient_policy(policy)
        }
        Faults::TransientAndStuck => {
            let mut spec = FaultSpec::transient(42, 0.02);
            spec.stall_rate = 0.01;
            spec.stuck.push(StuckWire::permanent(0, 1));
            job.fault_spec(spec)
        }
    }
}

/// A random permutation and a random 0-1 grid (ties on every
/// comparator class) of side `side`.
fn inputs(side: usize, rng: &mut Rng) -> Vec<Grid<u32>> {
    let n = side * side;
    let mut permutation: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut permutation);
    let zero_one: Vec<u32> = (0..n).map(|_| rng.range(0..2) as u32).collect();
    vec![Grid::from_rows(side, permutation).unwrap(), Grid::from_rows(side, zero_one).unwrap()]
}

/// Runs `job` on every engine of the matrix and checks each against the
/// scalar oracle, per grid and batched.
fn assert_matches_scalar_oracle(job: &SortJob, grids: &[Grid<u32>]) {
    let oracle: Vec<(RunOutcome, Grid<u32>)> = grids
        .iter()
        .map(|g| {
            let mut g = g.clone();
            let run = job.clone().engine(Engine::Scalar).run(&mut g).unwrap();
            (run, g)
        })
        .collect();
    for engine in ENGINES {
        let job = job.clone().engine(engine);
        let mut batch = grids.to_vec();
        let runs = job.run_batch(&mut batch).unwrap();
        assert_eq!(runs.len(), grids.len());
        for (i, ((expect, expect_grid), start)) in oracle.iter().zip(grids).enumerate() {
            let ctx = format!("{job:?}, grid {i}");
            let mut solo = start.clone();
            let run = job.run(&mut solo).unwrap();
            assert_eq!(&run, expect, "{ctx}: run outcome");
            assert_eq!(&solo, expect_grid, "{ctx}: run grid");
            assert_eq!(runs[i], run, "{ctx}: run_batch outcome");
            assert_eq!(batch[i], solo, "{ctx}: run_batch grid");
        }
    }
}

fn check_matrix(faults: Faults, seed: u64) {
    let mut rng = Rng::seed_from_u64(seed);
    for side in SIDES {
        for a in AlgorithmId::ALL.into_iter().filter(|a| a.supports_side(side)) {
            let grids = inputs(side, &mut rng);
            for budget in BUDGETS {
                for optimized in [false, true] {
                    let job = SortJob::new(a, side).budget(budget).optimized(optimized);
                    assert_matches_scalar_oracle(&with_faults(job, faults), &grids);
                }
            }
        }
    }
}

#[test]
fn fault_free_jobs_match_the_scalar_oracle() {
    check_matrix(Faults::None, 0x10B5);
}

#[test]
fn noop_fault_plan_jobs_match_the_scalar_oracle() {
    check_matrix(Faults::NoopPlanWithPolicy, 0x10B6);
}

#[test]
fn faulted_jobs_match_the_scalar_oracle() {
    check_matrix(Faults::TransientAndStuck, 0x10B7);
}

#[test]
fn the_matrix_reaches_every_outcome_class() {
    // Guards the matrix against going vacuous: the budgets and faults
    // above must produce converged and budget-exhausted fault-free runs,
    // and resilient runs that drop comparators.
    let mut rng = Rng::seed_from_u64(0x10B8);
    let grids = inputs(8, &mut rng);
    let a = AlgorithmId::SnakeAlternating;
    let mut g = grids[0].clone();
    assert!(SortJob::new(a, 8).run(&mut g).unwrap().sorted());
    let mut g = grids[0].clone();
    assert!(!SortJob::new(a, 8).budget(Budget::Steps(3)).run(&mut g).unwrap().sorted());
    let mut g = grids[0].clone();
    let faulted = with_faults(SortJob::new(a, 8), Faults::TransientAndStuck).run(&mut g).unwrap();
    assert!(faulted.faults.expect("resilient runs report fault stats").dropped > 0);
}
