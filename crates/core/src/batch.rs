//! Tuning constants of batched sorting: many independent grids through
//! one shared plan.
//!
//! The implementation lives in [`crate::SortJob::run_batch`]: it resolves
//! the shared compiled schedule from the [`crate::cache`], shards the
//! batch into fixed-width sub-batches, and fans the shards out across
//! worker threads via `meshsort_stats::parallel::map_chunks` — the same
//! `MESHSORT_THREADS` plumbing the Monte-Carlo drivers use. Each shard
//! executes the SoA lockstep engine; per-grid outcomes are faithful to a
//! standalone [`crate::SortJob::run`] regardless of batch composition,
//! shard width, or thread count (`mesh/tests/batch_props.rs` pins this
//! differentially).

/// Default shard width of [`crate::SortJob::run_batch`]: wide enough that
/// the lockstep inner loops stay vector-friendly and per-step overhead
/// amortizes (measured side-8 throughput is within noise of the serial
/// optimum at 512 lanes and gains < 10% beyond it; see
/// `BENCH_meshsort.json`), and small enough that a side-16 shard's
/// structure-of-arrays buffer (128 KiB: one `u8` rank per cell and lane)
/// stays in L2.
///
/// Threads take whole shards, so a batch of at most this many grids is
/// one shard and runs on one thread whatever the thread count: a
/// 256-grid experiment batch does not spread across cores. Narrower
/// shards were measured and rejected (DESIGN.md §12).
pub const DEFAULT_SHARD_WIDTH: usize = 512;

/// Largest grid (in cells) the lockstep engine runs. Bigger grids mean
/// narrower effective batches per unit of work and a structure-of-arrays
/// buffer far outside cache, where the measured lockstep throughput fell
/// *behind* the per-grid kernel loop; above this, [`crate::SortJob`] with
/// [`crate::Engine::Auto`] or [`crate::Engine::Batch`] runs each grid
/// through the per-grid kernel engine instead (still sharded across
/// threads, still bit-faithful). The threshold was measured on `u32`
/// lanes, before the lanes became rank-coded (DESIGN.md §12).
pub const LOCKSTEP_MAX_CELLS: usize = 1024;
