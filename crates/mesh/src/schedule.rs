//! Cyclic step schedules.
//!
//! Every algorithm in the paper repeats a fixed cycle of steps (a 4-step
//! cycle for all five 2D algorithms, a 2-step cycle for the 1D odd-even
//! transposition sort). A [`CycleSchedule`] stores the validated plans of
//! one cycle — plus their branchless [`CompiledPlan`] lowerings, built once
//! at construction — and replays them forever.
//!
//! # Execution paths
//!
//! Every fault-free run goes through one private driver loop that is
//! generic over two things: the *executor* that runs a step (the scalar
//! comparator loop [`crate::engine::apply_plan`] or the compiled
//! branchless kernel [`crate::engine::apply_compiled`]) and the
//! *sortedness check* read after every step. The public runs are
//! selections of the pair:
//!
//! * [`CycleSchedule::run_until_sorted_reference`] — scalar steps and a
//!   full [`Grid::is_sorted`] rescan after every step. Kept as the
//!   behavioural oracle for differential tests.
//! * [`CycleSchedule::run_until_sorted`] — scalar steps and the hybrid
//!   scan/tracker check described below.
//! * [`CycleSchedule::run_until_sorted_kernel`] — compiled steps and the
//!   hybrid check; the fast path the Monte-Carlo drivers use.
//! * [`CycleSchedule::run_until_sorted_traced`] — scalar steps observed by
//!   an [`InversionTracker`] and a [`TraceSink`].
//!
//! All four produce bit-identical [`RunOutcome`]s and final grids; the
//! property tests in `tests/kernel_props.rs` and the cross-algorithm suite
//! in `meshsort-core` pin this. Fault-injected runs have their own driver,
//! [`CycleSchedule::run_until_sorted_resilient`] and its kernel twin.
//!
//! # Hybrid sortedness detection
//!
//! The runs must stop at the *first* sorted step, and a sorted state need
//! not be a fixed point of an arbitrary schedule, so sortedness is tested
//! after every step. Testing is cheap because unsortedness only needs a
//! *witness*: one adjacent rank pair known to be inverted. As long as the
//! witness pair stays inverted the check is a single probe; when a step
//! fixes it, a contiguous local scan finds a replacement, and only a clean
//! suffix forces a full rescan ([`Grid::first_order_inversion_fast`]).
//! Should a full rescan have to walk at least half the grid, the run
//! switches (once) to the O(1)-per-swap [`InversionTracker`] — built only
//! at that moment, so runs that never switch pay nothing for it.

use crate::engine::{
    apply_compiled, apply_compiled_faulty, apply_plan, apply_plan_observed, FaultyStepOutcome,
    StepOutcome,
};
use crate::error::MeshError;
use crate::fault::{self, FaultPlan, ResilientPolicy, ResilientReport};
use crate::grid::Grid;
use crate::kernel::{CompiledPlan, KernelValue};
use crate::metrics;
use crate::order::TargetOrder;
use crate::plan::StepPlan;
use crate::sortedness::InversionTracker;
use crate::trace::TraceSink;

/// Grids smaller than this run through the reference loop: at this size a
/// full rescan is a handful of comparisons and the tracker's table
/// allocations would dominate (the 0–1 subsystem sweeps millions of tiny
/// grids).
const SMALL_GRID_CELLS: usize = 64;

/// A repeating sequence of step plans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleSchedule {
    plans: Vec<StepPlan>,
    compiled: Vec<CompiledPlan>,
}

/// Result of driving a grid until it reached the target order (or a cap).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Steps executed before the grid first read sorted. If the input was
    /// already sorted this is `0`.
    pub steps: u64,
    /// Total swaps over those steps.
    pub swaps: u64,
    /// Total comparator evaluations over those steps.
    pub comparisons: u64,
    /// `false` when the step cap was hit before the grid sorted.
    pub sorted: bool,
}

impl CycleSchedule {
    /// Builds a schedule from the plans of one cycle, bounds-checking every
    /// plan against a mesh of `cells` cells and lowering each plan to its
    /// compiled segment form.
    ///
    /// # Errors
    ///
    /// [`MeshError::EmptySchedule`] for an empty plan list, or the first
    /// bounds violation from [`StepPlan::check_bounds`].
    pub fn new(plans: Vec<StepPlan>, cells: usize) -> Result<Self, MeshError> {
        if plans.is_empty() {
            return Err(MeshError::EmptySchedule);
        }
        for p in &plans {
            p.check_bounds(cells)?;
        }
        let compiled = plans.iter().map(CompiledPlan::compile).collect();
        Ok(CycleSchedule { plans, compiled })
    }

    /// Builds a schedule from plans and *pre-built* compiled lowerings,
    /// bounds-checking the plans but taking the compiled forms as given.
    ///
    /// This is the constructor for schedules whose IR was produced by
    /// something other than [`CompiledPlan::compile`] — the schedule
    /// optimizer re-fuses stripped steps with
    /// [`CompiledPlan::compile_with_min_run`]. Callers are responsible for
    /// certifying plan/IR agreement via `crate::verify::verify_schedule_ir`
    /// (the optimizer's certificate does exactly that); nothing here checks
    /// that `compiled[i]` expands to `plans[i]`.
    ///
    /// # Errors
    ///
    /// [`MeshError::EmptySchedule`] for an empty plan list,
    /// [`MeshError::ScheduleShapeMismatch`] when the plan and IR lists
    /// disagree in length, or the first bounds violation from
    /// [`StepPlan::check_bounds`].
    pub fn from_parts(
        plans: Vec<StepPlan>,
        compiled: Vec<CompiledPlan>,
        cells: usize,
    ) -> Result<Self, MeshError> {
        if plans.is_empty() {
            return Err(MeshError::EmptySchedule);
        }
        if plans.len() != compiled.len() {
            return Err(MeshError::ScheduleShapeMismatch {
                plans: plans.len(),
                compiled: compiled.len(),
            });
        }
        for p in &plans {
            p.check_bounds(cells)?;
        }
        Ok(CycleSchedule { plans, compiled })
    }

    /// Number of steps in one cycle.
    #[inline]
    pub fn cycle_len(&self) -> usize {
        self.plans.len()
    }

    /// The plan executed at (0-indexed) step `t`.
    #[inline]
    pub fn plan_at(&self, t: u64) -> &StepPlan {
        &self.plans[(t % self.plans.len() as u64) as usize]
    }

    /// All plans of one cycle.
    pub fn plans(&self) -> &[StepPlan] {
        &self.plans
    }

    /// The compiled lowerings of one cycle, index-aligned with
    /// [`CycleSchedule::plans`].
    pub fn compiled_plans(&self) -> &[CompiledPlan] {
        &self.compiled
    }

    /// Cycling iterator over plan indices starting at step `start` — the
    /// per-step `plan_at` modulo arithmetic hoisted out of the run loops.
    #[inline]
    fn cycle_indices(&self, start: u64) -> impl Iterator<Item = usize> + '_ {
        let offset = (start % self.plans.len() as u64) as usize;
        (0..self.plans.len()).cycle().skip(offset)
    }

    /// The scalar executor: step `i` of the cycle through [`apply_plan`].
    fn scalar<T: Ord>(&self) -> impl FnMut(&mut Grid<T>, usize) -> StepOutcome + '_ {
        move |grid, i| apply_plan(grid, &self.plans[i])
    }

    /// The kernel executor: step `i` of the cycle through its compiled
    /// lowering ([`apply_compiled`]).
    fn kernel<T: KernelValue>(&self) -> impl FnMut(&mut Grid<T>, usize) -> StepOutcome + '_ {
        move |grid, i| apply_compiled(grid, &self.compiled[i])
    }

    /// Executes exactly `steps` steps starting at step index `start`.
    pub fn run_steps<T: Ord>(&self, grid: &mut Grid<T>, start: u64, steps: u64) -> StepOutcome {
        self.steps_with(grid, start, steps, self.scalar())
    }

    /// [`CycleSchedule::run_steps`] through the compiled branchless
    /// kernels. Identical grid and counts; `bench_ablation_kernel`
    /// measures the difference in time.
    pub fn run_steps_kernel<T: KernelValue>(
        &self,
        grid: &mut Grid<T>,
        start: u64,
        steps: u64,
    ) -> StepOutcome {
        self.steps_with(grid, start, steps, self.kernel())
    }

    /// The loop of both `run_steps` variants.
    fn steps_with<T>(
        &self,
        grid: &mut Grid<T>,
        start: u64,
        steps: u64,
        mut exec: impl FnMut(&mut Grid<T>, usize) -> StepOutcome,
    ) -> StepOutcome {
        let mut total = StepOutcome::default();
        let mut indices = self.cycle_indices(start);
        for _ in 0..steps {
            let i = indices.next().expect("cycle iterator never ends");
            total.absorb(exec(grid, i));
        }
        total
    }

    /// Executes steps from index `0` until the grid first reads sorted in
    /// `order`, checking after every step, up to `cap` steps.
    ///
    /// Scalar comparator loop with the hybrid scan/tracker sortedness
    /// check (see the module docs). Integer grids should prefer
    /// [`CycleSchedule::run_until_sorted_kernel`].
    pub fn run_until_sorted<T: Ord>(
        &self,
        grid: &mut Grid<T>,
        order: TargetOrder,
        cap: u64,
    ) -> RunOutcome {
        if grid.cells() < SMALL_GRID_CELLS {
            return self.run_until_sorted_reference(grid, order, cap);
        }
        self.drive(grid, cap, Hybrid::new(order), self.scalar())
    }

    /// [`CycleSchedule::run_until_sorted`] through the compiled branchless
    /// kernels — the fast path for integer grids. Bit-identical
    /// [`RunOutcome`] and final grid.
    pub fn run_until_sorted_kernel<T: KernelValue>(
        &self,
        grid: &mut Grid<T>,
        order: TargetOrder,
        cap: u64,
    ) -> RunOutcome {
        if grid.cells() < SMALL_GRID_CELLS {
            return self.run_until_sorted_reference(grid, order, cap);
        }
        self.drive(grid, cap, Hybrid::new(order), self.kernel())
    }

    /// Scalar steps with a full [`Grid::is_sorted`] rescan after every
    /// step — the behavioural oracle the other runs are differentially
    /// tested against, and the baseline that
    /// `bench_ablation_sorted_check` measures.
    pub fn run_until_sorted_reference<T: Ord>(
        &self,
        grid: &mut Grid<T>,
        order: TargetOrder,
        cap: u64,
    ) -> RunOutcome {
        self.drive(grid, cap, Rescan(order), self.scalar())
    }

    /// Like [`CycleSchedule::run_until_sorted`] but reporting every
    /// exchange and every step end to a [`TraceSink`] — for examples and
    /// debugging tools that watch a run.
    ///
    /// Tracing must observe each exchange individually, so execution is
    /// always scalar; sortedness uses the O(1) [`InversionTracker`] check.
    pub fn run_until_sorted_traced<T: Ord, S: TraceSink>(
        &self,
        grid: &mut Grid<T>,
        order: TargetOrder,
        cap: u64,
        sink: &mut S,
    ) -> RunOutcome {
        let tracker = InversionTracker::new(grid, order);
        self.drive(grid, cap, Traced { tracker, sink }, self.scalar())
    }

    /// The fault-free driver loop behind every `run_until_sorted*`: steps
    /// the cycle from index `0` until `check` reads the grid sorted, up to
    /// `cap` steps. `exec` runs step `i` of the cycle unless `check` has
    /// to observe the step itself (tracked and traced modes).
    fn drive<T: Ord>(
        &self,
        grid: &mut Grid<T>,
        cap: u64,
        mut check: impl Sortedness<T>,
        mut exec: impl FnMut(&mut Grid<T>, usize) -> StepOutcome,
    ) -> RunOutcome {
        let mut out = RunOutcome { steps: 0, swaps: 0, comparisons: 0, sorted: check.start(grid) };
        if out.sorted {
            return out;
        }
        let mut indices = self.cycle_indices(0);
        for t in 0..cap {
            let i = indices.next().expect("cycle iterator never ends");
            let step = check.step(grid, &self.plans[i], t, |g| exec(g, i));
            out.swaps += step.swaps;
            out.comparisons += step.comparisons;
            out.steps = t + 1;
            if check.sorted(grid) {
                out.sorted = true;
                return out;
            }
        }
        out
    }

    /// Drives the grid toward `order` under a [`FaultPlan`], scalar
    /// comparator loop. Termination is unconditional: the main loop is
    /// bounded by `policy.step_budget`, a watchdog aborts livelocks (no
    /// new adjacent-inversion minimum at a cycle boundary for
    /// `policy.stall_window` steps), and recovery scrubbing — bounded
    /// extra *fault-free* cycles, granted `policy.recovery_attempts` times
    /// with the cycle allowance doubling per attempt — may still finish
    /// the sort after transient damage. The returned
    /// [`ResilientReport`] carries the classified
    /// [`fault::RunOutcome`] plus full step/swap/drop/stall/recovery
    /// accounting.
    ///
    /// This is the oracle of the kernel path: every step is
    /// [`apply_plan_observed`] with the fault plan's veto and an
    /// [`InversionTracker`], so the tracker is exact after every step.
    /// With a no-op plan the outcome's step/swap/comparison counts are
    /// identical to [`CycleSchedule::run_until_sorted`] (pinned by
    /// `tests/fault_props.rs`).
    pub fn run_until_sorted_resilient<T: Ord + Clone + std::hash::Hash>(
        &self,
        grid: &mut Grid<T>,
        order: TargetOrder,
        faults: &FaultPlan,
        policy: &ResilientPolicy,
    ) -> ResilientReport {
        self.run_resilient_impl(
            grid,
            order,
            policy,
            InversionTracker::new(grid, order),
            |g, i, t, tr| {
                let plan = &self.plans[i];
                let out = apply_plan_observed(g, plan, t, (faults, tr));
                let dropped = plan.len() as u64 - out.comparisons;
                FaultyStepOutcome { comparisons: out.comparisons, swaps: out.swaps, dropped }
            },
            |g, cap| self.run_until_sorted(g, order, cap),
            faults,
        )
    }

    /// [`CycleSchedule::run_until_sorted_resilient`] through the compiled
    /// kernels: every non-stalled step is one masked branchless step
    /// ([`apply_compiled_faulty`]). Sortedness after a step is the
    /// inverted-pair witness probe of [`CycleSchedule::run_until_sorted`];
    /// the exact inversion count is taken only where the watchdog reads
    /// it, once per cycle. Bit-identical report and final grid — fault
    /// decisions are order-independent per-wire hashes, the masked step
    /// equals the scalar faulty step, and the watchdog reads the same
    /// exact count.
    pub fn run_until_sorted_resilient_kernel<T: KernelValue + std::hash::Hash>(
        &self,
        grid: &mut Grid<T>,
        order: TargetOrder,
        faults: &FaultPlan,
        policy: &ResilientPolicy,
    ) -> ResilientReport {
        let mut held = Vec::new();
        self.run_resilient_impl(
            grid,
            order,
            policy,
            WitnessProgress { order, witness: grid.first_order_inversion_fast(order) },
            |g, i, t, _| {
                apply_compiled_faulty(g, &self.compiled[i], &self.plans[i], t, faults, &mut held)
            },
            |g, cap| self.run_until_sorted_kernel(g, order, cap),
            faults,
        )
    }

    /// Shared resilient driver. The stall decision is made here, once
    /// per step; `faulty_step` executes a step that does not stall, and
    /// `progress` answers whether the grid is sorted (after every step)
    /// and its exact adjacent-inversion count (at the watchdog's cycle
    /// boundaries). `scrub` runs the fault-free engine up to a step cap
    /// (recovery scrubbing: the fault burst is over, so repair passes run
    /// clean). The scalar and kernel wrappers differ only in *how* they
    /// step and observe, never in a count they report.
    #[allow(clippy::too_many_arguments)]
    fn run_resilient_impl<T: Ord + Clone + std::hash::Hash, P: Progress<T>>(
        &self,
        grid: &mut Grid<T>,
        order: TargetOrder,
        policy: &ResilientPolicy,
        mut progress: P,
        mut faulty_step: impl FnMut(&mut Grid<T>, usize, u64, &mut P) -> FaultyStepOutcome,
        mut scrub: impl FnMut(&mut Grid<T>, u64) -> RunOutcome,
        faults: &FaultPlan,
    ) -> ResilientReport {
        let checksum_before = metrics::multiset_checksum(grid.as_slice());
        let mut rep = ResilientReport {
            outcome: fault::RunOutcome::Converged { steps: 0 },
            steps: 0,
            swaps: 0,
            comparisons: 0,
            dropped: 0,
            stalled_steps: 0,
            recovery_attempts: 0,
            recovery_steps: 0,
        };
        let cycle = self.plans.len() as u64;
        let mut sorted = progress.sorted(grid);
        let mut livelocked = false;
        if !sorted {
            let mut best = progress.inversions(grid);
            let mut last_progress = 0u64;
            let mut indices = self.cycle_indices(0);
            while rep.steps < policy.step_budget {
                let i = indices.next().expect("cycle iterator never ends");
                let t = rep.steps;
                if faults.step_stalled(t) {
                    rep.stalled_steps += 1;
                } else {
                    let out = faulty_step(grid, i, t, &mut progress);
                    rep.swaps += out.swaps;
                    rep.comparisons += out.comparisons;
                    rep.dropped += out.dropped;
                }
                rep.steps += 1;
                if progress.sorted(grid) {
                    sorted = true;
                    break;
                }
                // Watchdog at cycle boundaries: progress means a new
                // adjacent-inversion minimum; a full stall window without
                // one is a livelock (e.g. every useful wire stuck).
                if rep.steps % cycle == 0 {
                    let inv = progress.inversions(grid);
                    if inv < best {
                        best = inv;
                        last_progress = rep.steps;
                    } else if rep.steps - last_progress >= policy.stall_window {
                        livelocked = true;
                        break;
                    }
                }
            }
        }
        if !sorted && policy.recovery_attempts > 0 && policy.recovery_cycles > 0 {
            let mut cycles = policy.recovery_cycles;
            for _ in 0..policy.recovery_attempts {
                rep.recovery_attempts += 1;
                let out = scrub(grid, cycles.saturating_mul(cycle));
                rep.recovery_steps += out.steps;
                rep.swaps += out.swaps;
                rep.comparisons += out.comparisons;
                sorted = out.sorted;
                if sorted {
                    break;
                }
                // Backoff: double the scrub allowance per attempt.
                cycles = cycles.saturating_mul(2);
            }
        }
        let checksum_after = metrics::multiset_checksum(grid.as_slice());
        rep.outcome = if checksum_after != checksum_before {
            fault::RunOutcome::IntegrityViolation {
                expected: checksum_before,
                actual: checksum_after,
            }
        } else if sorted {
            fault::RunOutcome::Converged { steps: rep.total_steps() }
        } else if livelocked {
            fault::RunOutcome::Degraded {
                residual_inversions: metrics::inversions(grid, order),
                max_displacement: metrics::max_rank_displacement(grid, order),
            }
        } else {
            fault::RunOutcome::BudgetExhausted {
                steps: rep.steps,
                residual_inversions: metrics::inversions(grid, order),
            }
        };
        rep
    }
}

/// What [`refresh_witness`] found after a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Probe {
    /// Unsorted: the witness still holds, or a local scan replaced it.
    Held,
    /// Unsorted, but only a full rescan found the new witness, which
    /// is therefore the first inversion's depth.
    Rescanned,
    /// No adjacent rank pair is inverted.
    Sorted,
}

/// The witness check of the hybrid scheme (see the module docs): probe
/// the inverted pair `witness`; if a step fixed it, scan on from it
/// ([`Grid::find_order_inversion_from`]: any inversion is valid evidence,
/// not just the first), and only when that suffix is clean rescan the
/// whole grid ([`Grid::first_order_inversion_fast`]). Updates `witness`
/// unless the grid is sorted.
fn refresh_witness<T: Ord>(grid: &Grid<T>, order: TargetOrder, witness: &mut usize) -> Probe {
    if grid.order_pair_inverted(order, *witness) {
        return Probe::Held;
    }
    if let Some(w) = grid.find_order_inversion_from(order, *witness) {
        *witness = w;
        return Probe::Held;
    }
    match grid.first_order_inversion_fast(order) {
        Some(depth) => {
            *witness = depth;
            Probe::Rescanned
        }
        None => Probe::Sorted,
    }
}

/// How a fault-free run reads sortedness, and how it runs a step it has
/// to observe. [`CycleSchedule::drive`] calls `start` once, then `step`
/// and `sorted` once per step.
trait Sortedness<T> {
    /// Sets up on the starting grid; `true` when it already reads sorted.
    fn start(&mut self, grid: &Grid<T>) -> bool;

    /// Runs `plan` as step `t`: through the run's executor `exec`, unless
    /// this check must hear every exchange of the step.
    #[inline]
    fn step(
        &mut self,
        grid: &mut Grid<T>,
        _plan: &StepPlan,
        _t: u64,
        exec: impl FnOnce(&mut Grid<T>) -> StepOutcome,
    ) -> StepOutcome {
        exec(grid)
    }

    /// Whether the grid reads sorted after the step just run.
    fn sorted(&mut self, grid: &Grid<T>) -> bool;
}

/// The reference check: a full [`Grid::is_sorted`] rescan after every step.
struct Rescan(TargetOrder);

impl<T: Ord> Sortedness<T> for Rescan {
    fn start(&mut self, grid: &Grid<T>) -> bool {
        grid.is_sorted(self.0)
    }

    fn sorted(&mut self, grid: &Grid<T>) -> bool {
        grid.is_sorted(self.0)
    }
}

/// The hybrid check of the module docs. In scan mode it holds a
/// *witness* — an adjacent rank pair known to be inverted — so most steps
/// settle sortedness with a single probe, and steps run on the executor.
/// A full rescan that has to walk at least half the grid flips the run
/// into tracked mode — building the [`InversionTracker`] only then, so
/// runs that never switch (the common case on random inputs) pay nothing
/// for it — after which steps are scalar, observed by the tracker in O(1)
/// per swap, and the check is O(1).
struct Hybrid {
    order: TargetOrder,
    witness: usize,
    switch_depth: usize,
    tracker: Option<InversionTracker>,
}

impl Hybrid {
    fn new(order: TargetOrder) -> Self {
        Hybrid { order, witness: 0, switch_depth: 0, tracker: None }
    }
}

impl<T: Ord> Sortedness<T> for Hybrid {
    fn start(&mut self, grid: &Grid<T>) -> bool {
        self.switch_depth = grid.cells() / 2;
        match grid.first_order_inversion_fast(self.order) {
            Some(witness) => {
                self.witness = witness;
                false
            }
            None => true,
        }
    }

    #[inline]
    fn step(
        &mut self,
        grid: &mut Grid<T>,
        plan: &StepPlan,
        t: u64,
        exec: impl FnOnce(&mut Grid<T>) -> StepOutcome,
    ) -> StepOutcome {
        match self.tracker.as_mut() {
            Some(tracker) => apply_plan_observed(grid, plan, t, tracker),
            None => exec(grid),
        }
    }

    fn sorted(&mut self, grid: &Grid<T>) -> bool {
        if let Some(tracker) = &self.tracker {
            return tracker.is_sorted();
        }
        match refresh_witness(grid, self.order, &mut self.witness) {
            Probe::Sorted => true,
            Probe::Rescanned if self.witness >= self.switch_depth => {
                self.tracker = Some(InversionTracker::new(grid, self.order));
                false
            }
            Probe::Held | Probe::Rescanned => false,
        }
    }
}

/// The traced check: every step is scalar, observed by an exact
/// [`InversionTracker`] and the trace sink.
struct Traced<'s, S> {
    tracker: InversionTracker,
    sink: &'s mut S,
}

impl<T: Ord, S: TraceSink> Sortedness<T> for Traced<'_, S> {
    fn start(&mut self, _: &Grid<T>) -> bool {
        self.tracker.is_sorted()
    }

    fn step(
        &mut self,
        grid: &mut Grid<T>,
        plan: &StepPlan,
        t: u64,
        _: impl FnOnce(&mut Grid<T>) -> StepOutcome,
    ) -> StepOutcome {
        apply_plan_observed(grid, plan, t, (&mut self.tracker, &mut *self.sink))
    }

    fn sorted(&mut self, _: &Grid<T>) -> bool {
        self.tracker.is_sorted()
    }
}

/// How the resilient driver reads the grid's progress.
trait Progress<T> {
    /// Whether the grid reads sorted. The driver calls this before the
    /// first step and after every step, stalled or not, and stops at the
    /// first `true`.
    fn sorted(&mut self, grid: &Grid<T>) -> bool;

    /// The exact number of adjacent-rank inversions: what the livelock
    /// watchdog compares, once per cycle.
    fn inversions(&mut self, grid: &Grid<T>) -> u64;
}

/// The scalar oracle's progress: the faulty step keeps the tracker exact
/// through every exchange, so both answers are O(1).
impl<T: Ord> Progress<T> for InversionTracker {
    fn sorted(&mut self, _: &Grid<T>) -> bool {
        self.is_sorted()
    }

    fn inversions(&mut self, _: &Grid<T>) -> u64 {
        InversionTracker::inversions(self)
    }
}

/// The kernel path's progress: an inverted-pair witness (`None` once the
/// grid reads sorted) probed after every step, and a contiguous exact
/// count ([`Grid::order_inversions_fast`]) only when the watchdog asks.
struct WitnessProgress {
    order: TargetOrder,
    witness: Option<usize>,
}

impl<T: Ord> Progress<T> for WitnessProgress {
    fn sorted(&mut self, grid: &Grid<T>) -> bool {
        if let Some(w) = self.witness.as_mut() {
            if refresh_witness(grid, self.order, w) == Probe::Sorted {
                self.witness = None;
            }
        }
        self.witness.is_none()
    }

    fn inversions(&mut self, grid: &Grid<T>) -> u64 {
        grid.order_inversions_fast(self.order) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Odd-even transposition on a 1×n grid expressed as a 2-step cycle —
    /// a minimal end-to-end exercise of the schedule machinery. (The real
    /// 1D implementation lives in `meshsort-linear`.)
    fn odd_even_row_schedule(n: usize) -> CycleSchedule {
        let odd: Vec<(u32, u32)> =
            (0..n.saturating_sub(1)).step_by(2).map(|i| (i as u32, i as u32 + 1)).collect();
        let even: Vec<(u32, u32)> =
            (1..n.saturating_sub(1)).step_by(2).map(|i| (i as u32, i as u32 + 1)).collect();
        CycleSchedule::new(
            vec![StepPlan::from_pairs(odd).unwrap(), StepPlan::from_pairs(even).unwrap()],
            n,
        )
        .unwrap()
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(CycleSchedule::new(vec![], 4).unwrap_err(), MeshError::EmptySchedule);
    }

    #[test]
    fn rejects_out_of_bounds() {
        let p = StepPlan::from_pairs(vec![(0, 9)]).unwrap();
        assert!(matches!(
            CycleSchedule::new(vec![p], 4),
            Err(MeshError::IndexOutOfRange { index: 9, cells: 4 })
        ));
    }

    #[test]
    fn plan_cycles() {
        let s = odd_even_row_schedule(4);
        assert_eq!(s.cycle_len(), 2);
        assert_eq!(s.plan_at(0), s.plan_at(2));
        assert_eq!(s.plan_at(1), s.plan_at(3));
        assert_ne!(s.plan_at(0), s.plan_at(1));
        assert_eq!(s.compiled_plans().len(), 2);
    }

    #[test]
    fn sorts_a_reversed_line() {
        // Classic result: odd-even transposition sorts n values in <= n
        // steps. The flat row-major data of a 2×2 grid is a 4-cell line.
        let s = odd_even_row_schedule(4);
        let mut g = Grid::from_rows(2, vec![3u32, 2, 1, 0]).unwrap();
        let out = s.run_until_sorted(&mut g, TargetOrder::RowMajor, 16);
        assert!(out.sorted);
        assert!(out.steps <= 4, "steps = {}", out.steps);
        assert_eq!(g.as_slice(), &[0, 1, 2, 3]);
    }

    #[test]
    fn already_sorted_is_zero_steps() {
        let s = odd_even_row_schedule(4);
        let mut g = Grid::from_rows(2, vec![0u32, 1, 2, 3]).unwrap();
        let out = s.run_until_sorted(&mut g, TargetOrder::RowMajor, 16);
        assert!(out.sorted);
        assert_eq!(out.steps, 0);
        assert_eq!(out.swaps, 0);
    }

    #[test]
    fn cap_reports_unsorted() {
        let s = odd_even_row_schedule(4);
        let mut g = Grid::from_rows(2, vec![3u32, 2, 1, 0]).unwrap();
        let out = s.run_until_sorted(&mut g, TargetOrder::RowMajor, 1);
        assert!(!out.sorted);
        assert_eq!(out.steps, 1);
    }

    #[test]
    fn run_steps_counts() {
        let s = odd_even_row_schedule(4);
        let mut g = Grid::from_rows(2, vec![3u32, 2, 1, 0]).unwrap();
        let out = s.run_steps(&mut g, 0, 2);
        assert_eq!(out.comparisons, 3); // odd step: 2 comparators; even step: 1.
        assert!(out.swaps >= 2);
    }

    #[test]
    fn run_steps_kernel_matches_scalar() {
        let s = odd_even_row_schedule(16);
        let data: Vec<u32> = (0..16).map(|v: u32| v.wrapping_mul(2654435761) % 31).collect();
        let mut a = Grid::from_rows(4, data.clone()).unwrap();
        let mut b = Grid::from_rows(4, data).unwrap();
        // Misaligned start exercises the cycling iterator's offset.
        let oa = s.run_steps(&mut a, 3, 9);
        let ob = s.run_steps_kernel(&mut b, 3, 9);
        assert_eq!(oa, ob);
        assert_eq!(a, b);
    }

    #[test]
    fn hybrid_and_kernel_match_reference_on_large_line() {
        // 10×10 = 100 cells: above SMALL_GRID_CELLS, so the hybrid paths —
        // witness probes, local rescans and (on a reversed line) the
        // tracked-mode machinery — genuinely run.
        let n = 100usize;
        let s = odd_even_row_schedule(n);
        let data: Vec<u32> = (0..n as u32).rev().collect();
        let mut a = Grid::from_rows(10, data.clone()).unwrap();
        let mut b = Grid::from_rows(10, data.clone()).unwrap();
        let mut c = Grid::from_rows(10, data).unwrap();
        let cap = 4 * n as u64;
        let oa = s.run_until_sorted_reference(&mut a, TargetOrder::RowMajor, cap);
        let ob = s.run_until_sorted(&mut b, TargetOrder::RowMajor, cap);
        let oc = s.run_until_sorted_kernel(&mut c, TargetOrder::RowMajor, cap);
        assert!(oa.sorted);
        assert_eq!(oa, ob);
        assert_eq!(oa, oc);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn traced_run_matches_untraced() {
        use crate::trace::SwapCounter;
        let s = odd_even_row_schedule(4);
        let mut a = Grid::from_rows(2, vec![2u32, 0, 3, 1]).unwrap();
        let mut b = a.clone();
        let mut counter = SwapCounter::default();
        let oa = s.run_until_sorted(&mut a, TargetOrder::RowMajor, 16);
        let ob = s.run_until_sorted_traced(&mut b, TargetOrder::RowMajor, 16, &mut counter);
        assert_eq!(oa, ob);
        assert_eq!(a, b);
        assert_eq!(counter.total(), ob.swaps);
    }
}
