//! `SortJob` — the one entry point for every sorting request.
//!
//! A [`SortJob`] is a builder that names each axis of a run explicitly —
//! engine × budget × plan × faults — so the library, the CLI, and the
//! `meshsortd` wire protocol all speak one request shape. Every engine
//! choice gives bit-identical results: `tests/job_equivalence.rs` checks
//! each point of that space against the [`Engine::Scalar`] oracle.
//!
//! ```
//! use meshsort_core::{AlgorithmId, Budget, SortJob};
//! use meshsort_mesh::Grid;
//!
//! let mut grid = Grid::from_rows(4, (0..16u32).rev().collect()).unwrap();
//! let run = SortJob::new(AlgorithmId::SnakeAlternating, 4)
//!     .budget(Budget::Static)
//!     .optimized(true)
//!     .run(&mut grid)
//!     .unwrap();
//! assert!(run.sorted());
//! assert!(run.steps <= run.budget);
//! ```
//!
//! Every job resolves its compiled schedule through [`crate::cache`], so
//! no request ever recompiles a plan — the property the `meshsortd`
//! batcher leans on.

use crate::algorithm::AlgorithmId;
use crate::batch::{DEFAULT_SHARD_WIDTH, LOCKSTEP_MAX_CELLS};
use crate::cache;
use crate::error::Error;
use crate::runner::{default_step_cap, resilient_policy_for, static_step_bound};
use meshsort_mesh::fault::derive_seed;
use meshsort_mesh::schedule::RunOutcome as ScheduleOutcome;
use meshsort_mesh::{
    batch as mesh_batch, metrics, CycleSchedule, FaultPlan, FaultSpec, Grid, KernelValue,
    MeshError, OptimizedPlan, ResilientPolicy, ResilientReport, TargetOrder,
};
use meshsort_stats::parallel;
use std::hash::Hash;
use std::sync::Arc;

/// Re-export of the convergence taxonomy every run is classified into
/// ([`meshsort_mesh::fault::RunOutcome`]): `Converged`, `Degraded`,
/// `BudgetExhausted`, or `IntegrityViolation`.
pub use meshsort_mesh::fault::RunOutcome as Convergence;

/// Which execution engine a [`SortJob`] runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// Pick the best engine for the shape: the branchless kernel for
    /// single grids, the SoA lockstep engine (with kernel fallback above
    /// [`LOCKSTEP_MAX_CELLS`]) for batches.
    #[default]
    Auto,
    /// The reference scalar engine — the executable form of the paper's
    /// definitions. Slow; kept for differential testing.
    Scalar,
    /// The branchless compiled-kernel engine, per grid.
    Kernel,
    /// The SoA lockstep batch engine (grids above [`LOCKSTEP_MAX_CELLS`]
    /// cells fall back to the kernel engine, bit-faithfully).
    Batch,
}

/// How many steps a [`SortJob`] may spend before giving up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Budget {
    /// The generous Θ(N) cap ([`default_step_cap`]).
    #[default]
    Default,
    /// The tightest sound cap: the statically proven convergence bound
    /// ([`static_step_bound`]), intersected with the optimized plan's
    /// certified bound when [`SortJob::optimized`] is set.
    Static,
    /// An explicit step cap.
    Steps(u64),
}

/// Fault injection requested for a job: either a pre-compiled plan or a
/// spec compiled against the job's schedule at run time (seed derived per
/// `(algorithm, side)` exactly like [`crate::runner::fault_plan_for`]).
#[derive(Debug, Clone, PartialEq)]
enum FaultSource {
    Plan(FaultPlan),
    Spec(FaultSpec),
}

/// Builder for one sorting request; see the module docs.
///
/// The builder is cheap (no plan is resolved until [`SortJob::run`] /
/// [`SortJob::run_batch`]) and reusable: running does not consume it, so
/// the server batcher can apply one job to many grids.
#[derive(Debug, Clone, PartialEq)]
pub struct SortJob {
    algorithm: AlgorithmId,
    side: usize,
    engine: Engine,
    budget: Budget,
    optimized: bool,
    faults: Option<FaultSource>,
    policy: Option<ResilientPolicy>,
    threads: Option<usize>,
    shard_width: Option<usize>,
}

/// The unified result of a [`SortJob`]: engine totals, the classified
/// convergence outcome, and the budget the run was granted. The sorted
/// grid itself is mutated in place by [`SortJob::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Which algorithm ran.
    pub algorithm: AlgorithmId,
    /// Mesh side.
    pub side: usize,
    /// Steps executed before the grid first read sorted (or the budget
    /// ran out).
    pub steps: u64,
    /// Total exchanges performed (recovery scrubbing included for
    /// resilient runs).
    pub swaps: u64,
    /// Total comparator evaluations.
    pub comparisons: u64,
    /// Classified outcome: converged, degraded, budget-exhausted, or
    /// integrity violation.
    pub convergence: Convergence,
    /// The step budget the run was granted (the resolved [`Budget`], or
    /// the resilient policy's `step_budget`).
    pub budget: u64,
    /// Fault-run accounting; `None` for fault-free jobs.
    pub faults: Option<FaultStats>,
}

impl RunOutcome {
    /// `true` when the run converged to the target order.
    pub fn sorted(&self) -> bool {
        self.convergence.converged()
    }
}

/// Fault-injection accounting of a resilient run, flattened from
/// [`ResilientReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultStats {
    /// Comparators suppressed by stuck wires or transient drops.
    pub dropped: u64,
    /// Whole steps lost to stalls.
    pub stalled_steps: u64,
    /// Recovery scrub attempts performed.
    pub recovery_attempts: u64,
    /// Steps executed by recovery scrubbing.
    pub recovery_steps: u64,
}

impl SortJob {
    /// A job for `algorithm` on `side × side` grids, with the default
    /// axes: [`Engine::Auto`], [`Budget::Default`], raw (un-optimized)
    /// plan, no fault injection.
    pub fn new(algorithm: AlgorithmId, side: usize) -> Self {
        SortJob {
            algorithm,
            side,
            engine: Engine::default(),
            budget: Budget::default(),
            optimized: false,
            faults: None,
            policy: None,
            threads: None,
            shard_width: None,
        }
    }

    /// Selects the execution engine.
    #[must_use]
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Selects the step budget.
    #[must_use]
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Runs through the certified dead-wire-stripped plan
    /// ([`cache::optimized_for`]) instead of the raw schedule.
    #[must_use]
    pub fn optimized(mut self, optimized: bool) -> Self {
        self.optimized = optimized;
        self
    }

    /// Injects a pre-compiled fault plan; the run goes through the
    /// resilient engine (budget rail, livelock watchdog, recovery
    /// scrubbing).
    #[must_use]
    pub fn fault_plan(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(FaultSource::Plan(faults));
        self
    }

    /// Injects faults from a spec, compiled against the job's schedule at
    /// run time with the seed derived per `(algorithm, side)` — the same
    /// derivation as [`crate::runner::fault_plan_for`].
    #[must_use]
    pub fn fault_spec(mut self, spec: FaultSpec) -> Self {
        self.faults = Some(FaultSource::Spec(spec));
        self
    }

    /// Overrides the resilient policy (default:
    /// [`resilient_policy_for`]). Setting a policy forces the resilient
    /// engine even without faults.
    #[must_use]
    pub fn resilient_policy(mut self, policy: ResilientPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Worker threads for [`SortJob::run_batch`] (default:
    /// [`parallel::default_threads`], honouring `MESHSORT_THREADS`).
    /// Threads take whole shards, so a batch no wider than one shard
    /// ([`SortJob::shard_width`]) runs on one thread whatever this says.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Shard width for [`SortJob::run_batch`] (default:
    /// [`DEFAULT_SHARD_WIDTH`]). Zero is rejected as
    /// [`Error::InvalidJob`].
    #[must_use]
    pub fn shard_width(mut self, shard_width: usize) -> Self {
        self.shard_width = Some(shard_width);
        self
    }

    /// The job's algorithm.
    pub fn algorithm(&self) -> AlgorithmId {
        self.algorithm
    }

    /// The job's mesh side.
    pub fn side(&self) -> usize {
        self.side
    }

    /// Whether the job runs the optimized plan.
    pub fn is_optimized(&self) -> bool {
        self.optimized
    }

    /// The resolved step cap this job grants a fault-free run — what
    /// [`RunOutcome::budget`] will report.
    pub fn resolved_budget(&self) -> Result<u64, Error> {
        let plan = if self.optimized {
            Some(cache::optimized_for(self.algorithm, self.side)?)
        } else {
            None
        };
        Ok(self.resolve_cap(plan.as_deref()))
    }

    fn resolve_cap(&self, plan: Option<&OptimizedPlan>) -> u64 {
        match self.budget {
            Budget::Default => default_step_cap(self.side),
            Budget::Static => {
                let bound = static_step_bound(self.algorithm, self.side);
                plan.map_or(bound, |p| bound.min(p.static_bound))
            }
            Budget::Steps(cap) => cap,
        }
    }

    /// The compiled schedule this job executes: the optimized plan's when
    /// [`SortJob::optimized`] is set, the raw cached schedule otherwise.
    /// Both come from the process-wide [`crate::cache`]; nothing is
    /// recompiled per call.
    fn resolve(&self) -> Result<(ScheduleRef, u64), Error> {
        if self.optimized {
            let plan = cache::optimized_for(self.algorithm, self.side)?;
            let cap = self.resolve_cap(Some(&plan));
            Ok((ScheduleRef::Optimized(plan), cap))
        } else {
            let schedule = cache::schedule_for(self.algorithm, self.side)?;
            let cap = self.resolve_cap(None);
            Ok((ScheduleRef::Raw(schedule), cap))
        }
    }

    fn resolve_faults(&self, schedule: &CycleSchedule) -> Result<Option<FaultPlan>, Error> {
        match &self.faults {
            None => Ok(None),
            Some(FaultSource::Plan(plan)) => Ok(Some(plan.clone())),
            Some(FaultSource::Spec(spec)) => {
                let mut derived = spec.clone();
                derived.seed =
                    derive_seed(spec.seed, &format!("{}/{}", self.algorithm.name(), self.side));
                Ok(Some(FaultPlan::compile(&derived, schedule)?))
            }
        }
    }

    fn check_side<T: Ord + Clone>(&self, grid: &Grid<T>) -> Result<(), Error> {
        if grid.side() == self.side {
            Ok(())
        } else {
            Err(Error::InvalidJob {
                reason: format!(
                    "job is for side {} but the grid has side {}",
                    self.side,
                    grid.side()
                ),
            })
        }
    }

    /// Sorts `grid` in place and reports the unified outcome.
    ///
    /// # Errors
    ///
    /// [`Error::Mesh`] when the algorithm is not defined for the job's
    /// side or the fault spec is invalid; [`Error::InvalidJob`] when the
    /// grid's side differs from the job's.
    pub fn run<T: KernelValue + Hash>(&self, grid: &mut Grid<T>) -> Result<RunOutcome, Error> {
        self.check_side(grid)?;
        let order = self.algorithm.order();
        let (schedule, cap) = self.resolve()?;
        let schedule = schedule.as_schedule();
        let faults = self.resolve_faults(schedule)?;

        if faults.is_some() || self.policy.is_some() {
            let policy =
                self.policy.unwrap_or_else(|| resilient_policy_for(self.algorithm, self.side));
            let faults = faults.unwrap_or_else(FaultPlan::none);
            let report = match self.engine {
                Engine::Scalar => {
                    schedule.run_until_sorted_resilient(grid, order, &faults, &policy)
                }
                Engine::Auto | Engine::Kernel | Engine::Batch => {
                    schedule.run_until_sorted_resilient_kernel(grid, order, &faults, &policy)
                }
            };
            return Ok(outcome_from_report(self.algorithm, self.side, &report, &policy));
        }

        let stats = match self.engine {
            Engine::Scalar => schedule.run_until_sorted(grid, order, cap),
            Engine::Auto | Engine::Kernel => schedule.run_until_sorted_kernel(grid, order, cap),
            Engine::Batch => {
                let lane = std::slice::from_mut(grid);
                let mut outcomes = run_batch_engine(schedule, lane, order, cap, self.side)?;
                outcomes.pop().expect("one lane in, one outcome out")
            }
        };
        Ok(outcome_from_stats(self.algorithm, self.side, stats, grid, cap))
    }

    /// Sorts every grid of `grids` in place, batched — sharded across
    /// worker threads, stepped in SoA lockstep through the one shared
    /// schedule (with the per-grid kernel fallback above
    /// [`LOCKSTEP_MAX_CELLS`] cells). Outcomes are index-aligned with
    /// `grids` and bit-identical to per-grid [`SortJob::run`] calls
    /// regardless of batch composition, shard width, or thread count.
    ///
    /// With [`SortJob::optimized`] set the lockstep engine executes the
    /// dead-wire-stripped plan directly — server batches get the
    /// comparator-reduction win without leaving the batch path.
    ///
    /// # Errors
    ///
    /// As for [`SortJob::run`], plus [`MeshError::MixedBatchSides`] when
    /// the grids do not all share the job's side and
    /// [`Error::InvalidJob`] for a zero shard width.
    pub fn run_batch<T: KernelValue + Hash + Send>(
        &self,
        grids: &mut [Grid<T>],
    ) -> Result<Vec<RunOutcome>, Error> {
        let Some(first) = grids.first() else {
            return Ok(Vec::new());
        };
        self.check_side(first)?;
        if let Some(odd) = grids.iter().find(|g| g.side() != self.side) {
            return Err(Error::Mesh(MeshError::MixedBatchSides {
                expected: self.side,
                found: odd.side(),
            }));
        }
        let shard_width = self.shard_width.unwrap_or(DEFAULT_SHARD_WIDTH);
        if shard_width == 0 {
            return Err(Error::InvalidJob { reason: "shard width must be non-zero".into() });
        }
        let threads = self.threads.unwrap_or_else(parallel::default_threads);
        let order = self.algorithm.order();
        let (schedule, cap) = self.resolve()?;
        let schedule = schedule.as_schedule();
        let faults = self.resolve_faults(schedule)?;

        if faults.is_some() || self.policy.is_some() {
            let policy =
                self.policy.unwrap_or_else(|| resilient_policy_for(self.algorithm, self.side));
            let faults = faults.unwrap_or_else(FaultPlan::none);
            let scalar = self.engine == Engine::Scalar;
            let shards = parallel::map_chunks(grids, shard_width, threads, |_, shard| {
                shard
                    .iter_mut()
                    .map(|g| {
                        if scalar {
                            schedule.run_until_sorted_resilient(g, order, &faults, &policy)
                        } else {
                            schedule.run_until_sorted_resilient_kernel(g, order, &faults, &policy)
                        }
                    })
                    .collect::<Vec<_>>()
            });
            let mut runs = Vec::with_capacity(shards.iter().map(Vec::len).sum());
            for report in shards.iter().flatten() {
                runs.push(outcome_from_report(self.algorithm, self.side, report, &policy));
            }
            return Ok(runs);
        }

        let engine = self.engine;
        let side = self.side;
        let shards = parallel::map_chunks(grids, shard_width, threads, |_, shard| match engine {
            Engine::Scalar => Ok(shard
                .iter_mut()
                .map(|g| schedule.run_until_sorted(g, order, cap))
                .collect::<Vec<_>>()),
            Engine::Kernel => Ok(shard
                .iter_mut()
                .map(|g| schedule.run_until_sorted_kernel(g, order, cap))
                .collect::<Vec<_>>()),
            Engine::Auto | Engine::Batch => run_batch_engine(schedule, shard, order, cap, side),
        });
        let mut stats = Vec::with_capacity(grids.len());
        for shard in shards {
            stats.extend(shard?);
        }
        Ok(stats
            .into_iter()
            .zip(grids.iter())
            .map(|(s, g)| outcome_from_stats(self.algorithm, self.side, s, g, cap))
            .collect())
    }
}

/// The batch engine on one shard of side-`side` grids: SoA lockstep up to
/// [`LOCKSTEP_MAX_CELLS`] cells, the per-grid kernel engine above.
fn run_batch_engine<T: KernelValue>(
    schedule: &CycleSchedule,
    grids: &mut [Grid<T>],
    order: TargetOrder,
    cap: u64,
    side: usize,
) -> Result<Vec<ScheduleOutcome>, MeshError> {
    if side * side <= LOCKSTEP_MAX_CELLS {
        mesh_batch::run_batch_until_sorted(schedule, grids, order, cap)
    } else {
        Ok(grids.iter_mut().map(|g| schedule.run_until_sorted_kernel(g, order, cap)).collect())
    }
}

/// The schedule a job resolved to — raw or optimized, both `Arc`s out of
/// the process-wide cache.
enum ScheduleRef {
    Raw(Arc<CycleSchedule>),
    Optimized(Arc<OptimizedPlan>),
}

impl ScheduleRef {
    fn as_schedule(&self) -> &CycleSchedule {
        match self {
            ScheduleRef::Raw(s) => s,
            ScheduleRef::Optimized(p) => &p.schedule,
        }
    }
}

/// Classifies a fault-free run against the grid it produced: a run that
/// hit its cap reports `BudgetExhausted` with its residual inversions.
fn outcome_from_stats<T: Ord + Clone>(
    algorithm: AlgorithmId,
    side: usize,
    stats: ScheduleOutcome,
    grid: &Grid<T>,
    cap: u64,
) -> RunOutcome {
    let convergence = if stats.sorted {
        Convergence::Converged { steps: stats.steps }
    } else {
        Convergence::BudgetExhausted {
            steps: stats.steps,
            residual_inversions: metrics::inversions(grid, algorithm.order()),
        }
    };
    RunOutcome {
        algorithm,
        side,
        steps: stats.steps,
        swaps: stats.swaps,
        comparisons: stats.comparisons,
        convergence,
        budget: cap,
        faults: None,
    }
}

fn outcome_from_report(
    algorithm: AlgorithmId,
    side: usize,
    report: &ResilientReport,
    policy: &ResilientPolicy,
) -> RunOutcome {
    RunOutcome {
        algorithm,
        side,
        steps: report.steps,
        swaps: report.swaps,
        comparisons: report.comparisons,
        convergence: report.outcome,
        budget: policy.step_budget,
        faults: Some(FaultStats {
            dropped: report.dropped,
            stalled_steps: report.stalled_steps,
            recovery_attempts: report.recovery_attempts,
            recovery_steps: report.recovery_steps,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reversed(side: usize) -> Grid<u32> {
        Grid::from_rows(side, (0..(side * side) as u32).rev().collect()).unwrap()
    }

    fn scrambled(side: usize, salt: u32) -> Grid<u32> {
        let cells = (side * side) as u32;
        let data: Vec<u32> =
            (0..cells).map(|v| (v.wrapping_mul(2654435761).wrapping_add(salt)) % cells).collect();
        Grid::from_rows(side, data).unwrap()
    }

    #[test]
    fn default_job_sorts_all_five() {
        for a in AlgorithmId::ALL {
            let mut g = reversed(8);
            let run = SortJob::new(a, 8).run(&mut g).unwrap();
            assert!(run.sorted(), "{a}");
            assert!(g.is_sorted(a.order()), "{a}");
            assert_eq!((run.algorithm, run.side), (a, 8), "{a}");
            assert_eq!(run.convergence, Convergence::Converged { steps: run.steps }, "{a}");
            assert_eq!(run.budget, default_step_cap(8), "{a}");
            assert!(run.faults.is_none(), "{a}");
            // Θ(N) regime: a reversed input is expensive.
            assert!(run.steps >= 8, "{a}: {}", run.steps);
        }
    }

    #[test]
    fn already_sorted_costs_zero() {
        for a in AlgorithmId::ALL {
            let mut g = meshsort_mesh::grid::sorted_permutation_grid(4, a.order());
            let run = SortJob::new(a, 4).run(&mut g).unwrap();
            assert_eq!(run.steps, 0, "{a}");
            assert_eq!(run.convergence, Convergence::Converged { steps: 0 }, "{a}");
        }
    }

    #[test]
    fn engines_agree_bit_for_bit() {
        // Side 34 is above LOCKSTEP_MAX_CELLS: `Engine::Batch` takes the
        // per-grid kernel fallback there.
        for side in [8, 34] {
            for a in AlgorithmId::ALL {
                let mut grids = [reversed(side), reversed(side), reversed(side), reversed(side)];
                let runs: Vec<RunOutcome> =
                    [Engine::Auto, Engine::Scalar, Engine::Kernel, Engine::Batch]
                        .iter()
                        .zip(grids.iter_mut())
                        .map(|(e, g)| SortJob::new(a, side).engine(*e).run(g).unwrap())
                        .collect();
                for run in &runs[1..] {
                    assert_eq!(run, &runs[0], "{a} side {side}");
                }
                for g in &grids[1..] {
                    assert_eq!(g, &grids[0], "{a} side {side}");
                }
            }
        }
    }

    #[test]
    fn static_budget_is_tighter_and_still_sorts() {
        for a in AlgorithmId::ALL {
            let mut g = reversed(8);
            let run = SortJob::new(a, 8).budget(Budget::Static).run(&mut g).unwrap();
            assert!(run.sorted(), "{a}");
            assert!(run.budget < default_step_cap(8), "{a}");
            assert!(run.steps <= run.budget, "{a}");
        }
    }

    #[test]
    fn explicit_budget_exhaustion_classifies() {
        let mut g = reversed(8);
        let run = SortJob::new(AlgorithmId::SnakeAlternating, 8)
            .budget(Budget::Steps(2))
            .run(&mut g)
            .unwrap();
        assert!(!run.sorted());
        assert!(!g.is_sorted(TargetOrder::Snake));
        assert_eq!(run.budget, 2);
        match run.convergence {
            Convergence::BudgetExhausted { steps, residual_inversions } => {
                assert_eq!(steps, 2);
                assert!(residual_inversions > 0);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn classification_follows_the_grid_across_runs() {
        // A starved run leaves the grid unsorted and says so; a second run
        // on the same grid picks up from there and converges.
        let job = SortJob::new(AlgorithmId::SnakeAlternating, 8);
        let mut g = reversed(8);
        let starved = job.clone().budget(Budget::Steps(2)).run(&mut g).unwrap();
        assert_eq!(
            starved.convergence,
            Convergence::BudgetExhausted {
                steps: 2,
                residual_inversions: metrics::inversions(&g, TargetOrder::Snake)
            }
        );
        let full = job.run(&mut g).unwrap();
        assert_eq!(full.convergence, Convergence::Converged { steps: full.steps });
        assert!(g.is_sorted(TargetOrder::Snake));
    }

    #[test]
    fn optimized_job_matches_raw() {
        for a in AlgorithmId::ALL {
            let mut raw = reversed(8);
            let mut opt = reversed(8);
            let base = SortJob::new(a, 8).run(&mut raw).unwrap();
            let run =
                SortJob::new(a, 8).optimized(true).budget(Budget::Static).run(&mut opt).unwrap();
            assert!(run.sorted(), "{a}");
            assert_eq!(raw, opt, "{a}");
            assert_eq!(base.steps, run.steps, "{a}");
            assert_eq!(base.swaps, run.swaps, "{a}");
            if a == AlgorithmId::SnakePhaseAligned {
                assert!(run.comparisons < base.comparisons, "{a}: dead wires must be stripped");
            } else {
                assert_eq!(base.comparisons, run.comparisons, "{a}");
            }
        }
    }

    #[test]
    fn optimized_run_respects_the_static_bound() {
        for a in AlgorithmId::ALL {
            let mut g = reversed(8);
            let run =
                SortJob::new(a, 8).optimized(true).budget(Budget::Static).run(&mut g).unwrap();
            assert!(run.sorted(), "{a}");
            assert!(run.steps <= static_step_bound(a, 8), "{a}");
        }
    }

    #[test]
    fn fault_spec_job_converges_and_accounts() {
        let mut g = reversed(8);
        let run = SortJob::new(AlgorithmId::SnakeAlternating, 8)
            .fault_spec(FaultSpec::transient(0xFA11, 0.02))
            .run(&mut g)
            .unwrap();
        assert!(run.sorted(), "{:?}", run.convergence);
        assert!(g.is_sorted(TargetOrder::Snake));
        let faults = run.faults.expect("fault stats present");
        assert!(faults.dropped > 0, "transient faults must drop comparators");
        assert_eq!(run.budget, resilient_policy_for(AlgorithmId::SnakeAlternating, 8).step_budget);
    }

    #[test]
    fn fault_plan_jobs_converge_under_mild_faults() {
        let policy = ResilientPolicy::for_side(8);
        for a in AlgorithmId::ALL {
            let faults = crate::fault_plan_for(a, 8, &FaultSpec::transient(0xFA11, 0.02)).unwrap();
            let mut g = reversed(8);
            let run =
                SortJob::new(a, 8).fault_plan(faults).resilient_policy(policy).run(&mut g).unwrap();
            assert!(run.sorted(), "{a}: {:?}", run.convergence);
            assert!(g.is_sorted(a.order()), "{a}");
        }
    }

    #[test]
    fn noop_fault_plan_matches_fault_free_run() {
        let policy = ResilientPolicy::for_side(8);
        for a in AlgorithmId::ALL {
            let mut plain = reversed(8);
            let mut resilient = reversed(8);
            let base = SortJob::new(a, 8).run(&mut plain).unwrap();
            let run = SortJob::new(a, 8)
                .fault_plan(FaultPlan::none())
                .resilient_policy(policy)
                .run(&mut resilient)
                .unwrap();
            assert_eq!(run.convergence, Convergence::Converged { steps: base.steps }, "{a}");
            assert_eq!((run.steps, run.swaps), (base.steps, base.swaps), "{a}");
            assert_eq!(run.comparisons, base.comparisons, "{a}");
            assert_eq!(plain, resilient, "{a}");
        }
    }

    #[test]
    fn policy_without_faults_uses_resilient_engine() {
        let mut g = reversed(8);
        let policy = ResilientPolicy::for_side(8);
        let run = SortJob::new(AlgorithmId::SnakeAlternating, 8)
            .resilient_policy(policy)
            .run(&mut g)
            .unwrap();
        assert!(run.sorted());
        assert_eq!(run.budget, policy.step_budget);
        assert_eq!(run.faults.unwrap().dropped, 0);
    }

    #[test]
    fn batch_matches_per_grid_runs() {
        for a in AlgorithmId::ALL {
            let job = SortJob::new(a, 8).budget(Budget::Static);
            let mut grids: Vec<Grid<u32>> = (0..5).map(|i| scrambled(8, i)).collect();
            grids.push(reversed(8));
            let mut solo = grids.clone();
            let runs = job.run_batch(&mut grids).unwrap();
            for (i, g) in solo.iter_mut().enumerate() {
                let expect = job.run(g).unwrap();
                assert_eq!(runs[i], expect, "{a}: grid {i}");
                assert_eq!(&grids[i], g, "{a}: grid {i}");
            }
        }
    }

    #[test]
    fn batch_step_cap_matches_per_grid_cap() {
        let job = SortJob::new(AlgorithmId::SnakePhaseAligned, 8).budget(Budget::Steps(3));
        let mut grids: Vec<Grid<u32>> = (0..4).map(|i| scrambled(8, i)).collect();
        let mut solo = grids.clone();
        let runs = job.clone().shard_width(2).threads(1).run_batch(&mut grids).unwrap();
        for (i, g) in solo.iter_mut().enumerate() {
            let expect = job.run(g).unwrap();
            assert!(!expect.sorted(), "grid {i}: three steps cannot sort it");
            assert_eq!(runs[i], expect, "grid {i}");
            assert_eq!(&grids[i], g, "grid {i}");
        }
    }

    #[test]
    fn sharding_and_threads_do_not_change_results() {
        let job = SortJob::new(AlgorithmId::SnakeAlternating, 8);
        let baseline: Vec<Grid<u32>> = (0..10).map(|i| scrambled(8, i)).collect();
        let mut expect = baseline.clone();
        let expect_runs = job.clone().threads(1).shard_width(3).run_batch(&mut expect).unwrap();
        // Ragged shards (10 % 3 != 0, 10 % 4 != 0) and varying threads.
        for (threads, width) in [(1, 4), (2, 3), (4, 4), (3, 100)] {
            let mut grids = baseline.clone();
            let runs =
                job.clone().threads(threads).shard_width(width).run_batch(&mut grids).unwrap();
            assert_eq!(runs, expect_runs, "threads={threads} width={width}");
            assert_eq!(grids, expect, "threads={threads} width={width}");
        }
    }

    #[test]
    fn large_batch_takes_kernel_fallback_and_matches_runs() {
        // 34 * 34 = 1156 cells > LOCKSTEP_MAX_CELLS, so this batch runs
        // through the per-grid kernel branch.
        let side = 34;
        assert!(side * side > LOCKSTEP_MAX_CELLS);
        let job = SortJob::new(AlgorithmId::SnakeAlternating, side);
        let mut grids: Vec<Grid<u32>> = (0..3).map(|i| scrambled(side, i)).collect();
        let mut solo = grids.clone();
        let runs = job.run_batch(&mut grids).unwrap();
        for (i, g) in solo.iter_mut().enumerate() {
            assert_eq!(runs[i], job.run(g).unwrap(), "grid {i}");
            assert_eq!(&grids[i], g, "grid {i}");
        }
    }

    #[test]
    fn optimized_batch_matches_raw_batch() {
        for a in AlgorithmId::ALL {
            let mut raw: Vec<Grid<u32>> = (0..6).map(|_| reversed(8)).collect();
            let mut opt = raw.clone();
            let base = SortJob::new(a, 8).run_batch(&mut raw).unwrap();
            let runs = SortJob::new(a, 8).optimized(true).run_batch(&mut opt).unwrap();
            assert_eq!(raw, opt, "{a}");
            for (b, r) in base.iter().zip(&runs) {
                assert_eq!(b.steps, r.steps, "{a}");
                assert_eq!(b.swaps, r.swaps, "{a}");
            }
        }
    }

    #[test]
    fn side_mismatch_is_invalid_job() {
        let mut g = reversed(4);
        let err = SortJob::new(AlgorithmId::SnakeAlternating, 8).run(&mut g).unwrap_err();
        assert_eq!(err.code(), 400);
        assert!(matches!(err, Error::InvalidJob { .. }));
    }

    #[test]
    fn zero_shard_width_is_invalid_job_not_a_panic() {
        let mut grids = vec![reversed(8)];
        let err = SortJob::new(AlgorithmId::SnakeAlternating, 8)
            .shard_width(0)
            .run_batch(&mut grids)
            .unwrap_err();
        assert!(matches!(err, Error::InvalidJob { .. }));
    }

    #[test]
    fn mixed_sides_and_unsupported_sides_propagate() {
        let mut mixed = vec![reversed(8), reversed(4)];
        let err = SortJob::new(AlgorithmId::SnakeAlternating, 8).run_batch(&mut mixed).unwrap_err();
        assert_eq!(err, Error::Mesh(MeshError::MixedBatchSides { expected: 8, found: 4 }));
        let mut odd = reversed(3);
        let err = SortJob::new(AlgorithmId::RowMajorRowFirst, 3).run(&mut odd).unwrap_err();
        assert!(matches!(err, Error::Mesh(MeshError::UnsupportedSide { side: 3, .. })));
        assert_eq!(err.code(), 105);
        let err = SortJob::new(AlgorithmId::RowMajorRowFirst, 3)
            .run_batch(std::slice::from_mut(&mut odd))
            .unwrap_err();
        assert!(matches!(err, Error::Mesh(MeshError::UnsupportedSide { side: 3, .. })));
        // Snake algorithms are defined on odd sides.
        assert!(SortJob::new(AlgorithmId::SnakeAlternating, 3).run(&mut odd).unwrap().sorted());
    }

    #[test]
    fn resolved_budget_matches_run_report() {
        let job =
            SortJob::new(AlgorithmId::SnakePhaseAligned, 8).optimized(true).budget(Budget::Static);
        let mut g = reversed(8);
        let run = job.run(&mut g).unwrap();
        assert_eq!(job.resolved_budget().unwrap(), run.budget);
        assert_eq!(run.budget, 127, "S3 side 8 certified bound");
    }

    #[test]
    fn empty_batch_is_empty() {
        let mut grids: Vec<Grid<u32>> = Vec::new();
        assert!(SortJob::new(AlgorithmId::SnakeAlternating, 8)
            .run_batch(&mut grids)
            .unwrap()
            .is_empty());
    }
}
