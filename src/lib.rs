//! # meshsort — two-dimensional bubble sorting on a mesh of processors
//!
//! A production-quality reproduction of
//! **Serap A. Savari, “Average Case Analysis of Five Two-Dimensional
//! Bubble Sorting Algorithms”, SPAA 1993**: the five generalizations of
//! the odd-even transposition sort to a `√N × √N` mesh, the synchronous
//! mesh simulator they run on, the 0–1 analysis machinery of the paper's
//! proofs, exact combinatorics for every closed-form quantity, and an
//! experiment harness that validates every theorem, lemma and corollary
//! empirically.
//!
//! ## Quick start
//!
//! ```
//! use meshsort::prelude::*;
//!
//! // An 8×8 mesh holding a random-ish permutation (here: reversed).
//! let mut grid = Grid::from_rows(8, (0..64u32).rev().collect()).unwrap();
//!
//! // Sort it with the first row-major algorithm (wrap-around wires).
//! let run = SortJob::new(AlgorithmId::RowMajorRowFirst, 8).run(&mut grid).unwrap();
//! assert!(run.sorted());
//! assert!(grid.is_sorted(TargetOrder::RowMajor));
//!
//! // The paper's headline: Θ(N) steps even on average.
//! assert!(run.steps as usize > 8); // far above the √N diameter scale
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |-------|----------|
//! | [`mesh`] | grid, comparators, step plans, engine, schedules |
//! | [`linear`] | 1D odd-even transposition + reverse bubble sort |
//! | [`core`] | the five algorithms (R1, R2, S1, S2, S3) and runners |
//! | [`zeroone`] | column stats, travel lemmas, Z/Y trackers, bounds |
//! | [`exact`] | bignum rationals + every paper formula, exactly |
//! | [`stats`] | seeding, Welford, CIs, tails, parallel Monte Carlo |
//! | [`workloads`] | permutations, 0–1 matrices, adversaries |
//! | [`baselines`] | Shearsort |
//! | [`experiments`] | the E01–E15 harness (see DESIGN.md §4) |
//! | [`analyze`] | `meshcheck`: static schedule certification (structure, kernel IR, 0-1) |
//! | [`serve`] | `meshsortd`: the sorting/certification service and its load generator |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use meshsort_analyze as analyze;
pub use meshsort_baselines as baselines;
pub use meshsort_core as core;
pub use meshsort_exact as exact;
pub use meshsort_experiments as experiments;
pub use meshsort_linear as linear;
pub use meshsort_mesh as mesh;
pub use meshsort_serve as serve;
pub use meshsort_stats as stats;
pub use meshsort_workloads as workloads;
pub use meshsort_zeroone as zeroone;

/// Command-line interface building blocks for the `meshsort` binary.
pub mod cli;

/// The most common imports, one `use` away.
pub mod prelude {
    pub use meshsort_core::{AlgorithmId, Budget, Engine, RunOutcome, SortJob};
    pub use meshsort_mesh::{Grid, Pos, Rng, TargetOrder};
    pub use meshsort_workloads::permutation::random_permutation_grid;
    pub use meshsort_workloads::zero_one::random_balanced_zero_one_grid;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn umbrella_reexports_work() {
        let mut g = Grid::from_rows(4, (0..16u32).rev().collect()).unwrap();
        let run = SortJob::new(AlgorithmId::SnakeAlternating, 4).run(&mut g).unwrap();
        assert!(run.sorted());
        assert!(g.is_sorted(TargetOrder::Snake));
        assert_eq!(Pos::new(0, 0).flat(4), 0);
    }
}
