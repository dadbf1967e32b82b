//! # meshsort-core — the five two-dimensional bubble sorting algorithms
//!
//! This crate is the reproduction of the primary contribution of
//! Savari, *Average Case Analysis of Five Two-Dimensional Bubble Sorting
//! Algorithms* (SPAA 1993): five generalizations of the odd-even
//! transposition sort to a `√N × √N` mesh of processors.
//!
//! Two algorithms finish in **row-major** order and require wrap-around
//! wires between the leftmost and rightmost columns
//! ([`AlgorithmId::RowMajorRowFirst`], [`AlgorithmId::RowMajorColFirst`]);
//! three finish in **snakelike** order
//! ([`AlgorithmId::SnakeAlternating`], [`AlgorithmId::SnakeStaggeredCols`],
//! [`AlgorithmId::SnakePhaseAligned`]). Each repeats a fixed 4-step cycle
//! of synchronous comparison-exchange steps; the cycles are compiled once
//! into [`meshsort_mesh::CycleSchedule`]s and replayed by the engine.
//!
//! The paper proves all five need `Θ(N)` steps on a random permutation
//! both on average and with high probability — far worse than the
//! `Ω(√N)` diameter bound. The experiment harness in
//! `meshsort-experiments` validates every one of those statements
//! empirically against this implementation.
//!
//! ```
//! use meshsort_core::{AlgorithmId, SortJob};
//! use meshsort_mesh::Grid;
//!
//! // Sort a 4×4 permutation with the first row-major algorithm.
//! let data: Vec<u32> = (0..16).rev().collect();
//! let mut grid = Grid::from_rows(4, data).unwrap();
//! let run = SortJob::new(AlgorithmId::RowMajorRowFirst, 4).run(&mut grid).unwrap();
//! assert!(run.sorted());
//! assert!(grid.is_sorted(meshsort_mesh::TargetOrder::RowMajor));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod batch;
pub mod cache;
pub mod error;
pub mod instrument;
pub mod job;
pub mod min_tracker;
pub mod phases;
pub mod row_major;
pub mod runner;
pub mod snake;
pub mod variants;

pub use algorithm::AlgorithmId;
pub use batch::{DEFAULT_SHARD_WIDTH, LOCKSTEP_MAX_CELLS};
pub use cache::{optimized_for, schedule_for, static_bound_for};
pub use error::Error;
pub use job::{Budget, Convergence, Engine, FaultStats, RunOutcome, SortJob};
pub use runner::{fault_plan_for, resilient_policy_for, static_step_bound};
