//! Deterministic fault injection and resilient-run outcome types.
//!
//! The engine elsewhere models a perfect machine: every comparator of
//! every step fires. Physical meshes misbehave — a wire can be *stuck*
//! (never fires, permanently or for a step window), a comparator can
//! *transiently drop* an exchange (per-step Bernoulli misfire), or a whole
//! synchronous step can *stall*. A [`FaultPlan`] injects exactly those
//! three fault classes between a [`CycleSchedule`]
//! and the engine, and the resilient runner
//! ([`CycleSchedule::run_until_sorted_resilient`](crate::CycleSchedule::run_until_sorted_resilient))
//! classifies what the damaged machine achieved as a [`RunOutcome`].
//!
//! # Determinism
//!
//! Every fault decision is a pure function of `(seed, fault kind, step
//! index, canonical wire)`, hashed through the SplitMix64 mixer
//! [`crate::rng::mix`] — not a draw from a sequential RNG stream. This matters: the compiled kernel
//! engine reorders the (disjoint, hence commuting) comparators of a step,
//! so any scheme that depended on *visit order* would desynchronise the
//! scalar and kernel paths. With per-wire hashing the same `(seed, side,
//! algorithm)` reproduces a bit-identical fault trace and final grid on
//! both engines; `tests/fault_props.rs` pins this differentially.

use crate::error::MeshError;
use crate::plan::{Comparator, StepPlan};
use crate::rng::mix;
use crate::schedule::CycleSchedule;

/// `until_step` value marking a stuck wire that never recovers.
pub const PERMANENT: u64 = u64::MAX;

/// Default step budget for a run of any of the five algorithms: the paper
/// shows each worst case is `Θ(N)` with a small observed constant, so
/// `8N + 8√N + 64` leaves a wide margin while still bounding runaway
/// loops. This is the canonical budget constant of the workspace
/// (`meshsort-core::runner::default_step_cap` delegates here).
#[inline]
pub fn default_step_budget(side: usize) -> u64 {
    let n = (side * side) as u64;
    8 * n + 8 * side as u64 + 64
}

/// Derives an independent fault seed from a root seed and a label (e.g.
/// `"r1/16"`), so one experiment seed yields decorrelated fault streams
/// per `(algorithm, side)` without coordination.
pub fn derive_seed(seed: u64, label: &str) -> u64 {
    let mut h = mix(seed);
    for b in label.bytes() {
        h = mix(h ^ u64::from(b).wrapping_mul(0x0100_0000_01B3));
    }
    h
}

const TAG_DROP: u64 = 0xD20B;
const TAG_STALL: u64 = 0x57A1;
const TAG_STUCK: u64 = 0x57CC;

/// The per-decision hash: a pure function of the plan seed, the fault
/// kind, the step index and a per-wire payload. Order-independent by
/// construction (see the module docs).
#[inline]
fn fault_hash(seed: u64, tag: u64, step: u64, payload: u64) -> u64 {
    let h = mix(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    mix(mix(h ^ step.wrapping_mul(0xA24B_AED4_963E_E407)) ^ payload)
}

/// The unordered cell pair of a comparator, smaller index first — the
/// key every per-wire fault decision is made on.
#[inline]
fn canonical_wire(c: Comparator) -> (u32, u32) {
    (c.keep_min.min(c.keep_max), c.keep_min.max(c.keep_max))
}

/// Converts a probability to a 65-bit fixed-point threshold such that
/// `u128::from(hash) < threshold` fires with probability `rate` over a
/// uniform 64-bit hash. Rate `1.0` maps to `2^64`, which every hash is
/// below; rate `0.0` maps to `0`, which no hash is below.
#[inline]
fn rate_to_threshold(rate: f64) -> u128 {
    (rate * 18_446_744_073_709_551_616.0) as u128 // rate * 2^64, saturating
}

/// A comparator wire forced stuck: it never exchanges during
/// `from_step..until_step`, regardless of its cell values.
///
/// The wire is identified by its unordered cell pair (canonicalised so
/// `cell_lo < cell_hi`); direction does not matter because a stuck wire
/// suppresses the exchange either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StuckWire {
    /// Smaller flat cell index of the wire.
    pub cell_lo: u32,
    /// Larger flat cell index of the wire.
    pub cell_hi: u32,
    /// First step (inclusive) at which the wire is stuck.
    pub from_step: u64,
    /// First step at which the wire works again ([`PERMANENT`] = never).
    pub until_step: u64,
}

impl StuckWire {
    /// A wire between cells `a` and `b` stuck from step 0 forever.
    pub fn permanent(a: u32, b: u32) -> Self {
        Self::window(a, b, 0, PERMANENT)
    }

    /// A wire stuck for the step range `from..until`.
    pub fn window(a: u32, b: u32, from: u64, until: u64) -> Self {
        StuckWire { cell_lo: a.min(b), cell_hi: a.max(b), from_step: from, until_step: until }
    }

    /// Whether this stuck window suppresses the comparator over cells
    /// `(lo, hi)` (canonical order) at step `step`.
    #[inline]
    pub fn covers(&self, step: u64, lo: u32, hi: u32) -> bool {
        self.cell_lo == lo && self.cell_hi == hi && self.from_step <= step && step < self.until_step
    }
}

/// Declarative description of a fault workload, compiled to a
/// [`FaultPlan`] against a concrete schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Seed of the deterministic fault stream.
    pub seed: u64,
    /// Per-step Bernoulli probability that a comparator misfires.
    pub drop_rate: f64,
    /// Per-step Bernoulli probability that the whole step stalls.
    pub stall_rate: f64,
    /// Number of schedule wires to pick (deterministically, from the
    /// seed) and hold permanently stuck. Clamped to the wire count.
    pub random_stuck: usize,
    /// Explicitly stuck wires, windows included.
    pub stuck: Vec<StuckWire>,
}

impl FaultSpec {
    /// A spec that injects nothing — compiles to a no-op plan.
    pub fn none(seed: u64) -> Self {
        FaultSpec { seed, drop_rate: 0.0, stall_rate: 0.0, random_stuck: 0, stuck: Vec::new() }
    }

    /// Pure transient misfires at `drop_rate`, no stalls, no stuck wires.
    pub fn transient(seed: u64, drop_rate: f64) -> Self {
        FaultSpec { seed, drop_rate, stall_rate: 0.0, random_stuck: 0, stuck: Vec::new() }
    }

    /// Validates the probability parameters.
    ///
    /// # Errors
    ///
    /// [`MeshError::InvalidFaultRate`] naming the first rate that is not a
    /// probability in `[0, 1]` (NaN included).
    pub fn validate(&self) -> Result<(), MeshError> {
        for (param, rate) in [("drop_rate", self.drop_rate), ("stall_rate", self.stall_rate)] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(MeshError::InvalidFaultRate { param });
            }
        }
        Ok(())
    }
}

/// One observable fault occurrence, as reported by [`FaultPlan::trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// A comparator was suppressed (stuck wire or transient drop).
    Dropped {
        /// Step index of the suppression.
        step: u64,
        /// The suppressed comparator's keep-min end.
        keep_min: u32,
        /// The suppressed comparator's keep-max end.
        keep_max: u32,
    },
    /// An entire step was skipped.
    Stalled {
        /// The skipped step's index.
        step: u64,
    },
}

/// A compiled, fully deterministic fault schedule.
///
/// Compiled from a [`FaultSpec`] against a concrete [`CycleSchedule`] (the
/// schedule supplies the wire population for `random_stuck` selection).
/// All queries are pure: the same plan answers the same questions
/// identically forever, so a run can be replayed bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    drop_threshold: u128,
    stall_threshold: u128,
    stuck: Vec<StuckWire>,
}

impl FaultPlan {
    /// The plan that injects nothing. [`FaultPlan::is_noop`] is `true` and
    /// every faulty execution path degenerates to the fault-free one.
    pub fn none() -> Self {
        FaultPlan { seed: 0, drop_threshold: 0, stall_threshold: 0, stuck: Vec::new() }
    }

    /// Compiles a spec against a schedule.
    ///
    /// `random_stuck` wires are chosen by a deterministic Fisher–Yates
    /// shuffle (keyed by the spec seed) of the schedule's canonical wire
    /// set, so the choice is a pure function of `(seed, schedule)`.
    ///
    /// # Errors
    ///
    /// [`MeshError::InvalidFaultRate`] via [`FaultSpec::validate`].
    pub fn compile(spec: &FaultSpec, schedule: &CycleSchedule) -> Result<Self, MeshError> {
        spec.validate()?;
        let mut stuck = spec.stuck.clone();
        if spec.random_stuck > 0 {
            let mut wires: Vec<(u32, u32)> = schedule
                .plans()
                .iter()
                .flat_map(|p| p.comparators().iter())
                .map(|&c| canonical_wire(c))
                .collect();
            wires.sort_unstable();
            wires.dedup();
            // Deterministic partial Fisher–Yates: position i receives a
            // uniformly hashed pick from the remaining suffix.
            let k = spec.random_stuck.min(wires.len());
            for i in 0..k {
                let span = (wires.len() - i) as u64;
                let j = i + (fault_hash(spec.seed, TAG_STUCK, i as u64, 0) % span) as usize;
                wires.swap(i, j);
                let (a, b) = wires[i];
                stuck.push(StuckWire::permanent(a, b));
            }
        }
        Ok(FaultPlan {
            seed: spec.seed,
            drop_threshold: rate_to_threshold(spec.drop_rate),
            stall_threshold: rate_to_threshold(spec.stall_rate),
            stuck,
        })
    }

    /// `true` when the plan can never suppress anything: faulty execution
    /// paths are then exact no-ops relative to the fault-free engine.
    pub fn is_noop(&self) -> bool {
        self.drop_threshold == 0 && self.stall_threshold == 0 && self.stuck.is_empty()
    }

    /// The stuck wires of this plan (explicit and randomly selected).
    pub fn stuck_wires(&self) -> &[StuckWire] {
        &self.stuck
    }

    /// Whether the entire step `step` stalls.
    #[inline]
    pub fn step_stalled(&self, step: u64) -> bool {
        self.stall_threshold != 0
            && u128::from(fault_hash(self.seed, TAG_STALL, step, 0)) < self.stall_threshold
    }

    /// Whether comparator `c` is suppressed at step `step` (by a stuck
    /// wire or a transient drop). Stalls are a separate, whole-step
    /// question — see [`FaultPlan::step_stalled`].
    #[inline]
    pub fn comparator_dropped(&self, step: u64, c: Comparator) -> bool {
        let (lo, hi) = canonical_wire(c);
        self.stuck.iter().any(|w| w.covers(step, lo, hi)) || self.hash_drops(step, lo, hi)
    }

    /// The transient-drop decision of wire `(lo, hi)` at `step`.
    #[inline]
    fn hash_drops(&self, step: u64, lo: u32, hi: u32) -> bool {
        self.drop_threshold != 0
            && u128::from(fault_hash(
                self.seed,
                TAG_DROP,
                step,
                (u64::from(lo) << 32) | u64::from(hi),
            )) < self.drop_threshold
    }

    /// [`FaultPlan::comparator_dropped`] for up to 64 comparators of one
    /// step at once: bit `b` of the result is set iff `cs[b]` is
    /// suppressed at `step`. Each wire's decision is its own hash, so no
    /// decision waits on the previous one — the masked kernel step
    /// ([`crate::engine::apply_compiled_faulty`]) builds its drop set
    /// from these words.
    ///
    /// # Panics
    ///
    /// Panics when `cs` holds more than 64 comparators.
    #[inline]
    pub fn drop_mask(&self, step: u64, cs: &[Comparator]) -> u64 {
        assert!(cs.len() <= 64, "a drop mask covers at most 64 comparators");
        let mut mask = 0u64;
        if self.drop_threshold != 0 {
            for &c in cs.iter().rev() {
                let (lo, hi) = canonical_wire(c);
                mask = mask << 1 | u64::from(self.hash_drops(step, lo, hi));
            }
        }
        for w in &self.stuck {
            if w.from_step <= step && step < w.until_step {
                for (b, &c) in cs.iter().enumerate() {
                    mask |= u64::from(canonical_wire(c) == (w.cell_lo, w.cell_hi)) << b;
                }
            }
        }
        mask
    }

    /// The fault events of one step against `plan`, in canonical
    /// (comparator-list) order. A stalled step reports a single
    /// [`FaultEvent::Stalled`].
    pub fn step_events(&self, step: u64, plan: &StepPlan) -> Vec<FaultEvent> {
        if self.step_stalled(step) {
            return vec![FaultEvent::Stalled { step }];
        }
        plan.comparators()
            .iter()
            .filter(|&&c| self.comparator_dropped(step, c))
            .map(|c| FaultEvent::Dropped { step, keep_min: c.keep_min, keep_max: c.keep_max })
            .collect()
    }

    /// The full fault trace of the first `steps` steps of `schedule` — the
    /// replay-determinism artifact: two compilations of the same spec
    /// yield identical traces (`analyze` asserts this).
    pub fn trace(&self, schedule: &CycleSchedule, steps: u64) -> Vec<FaultEvent> {
        (0..steps).flat_map(|t| self.step_events(t, schedule.plan_at(t))).collect()
    }
}

/// Classified result of a resilient run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The grid reached the target order.
    Converged {
        /// Total steps executed (main run plus recovery scrubbing).
        steps: u64,
    },
    /// The livelock watchdog fired: no new inversion-count minimum for a
    /// full stall window. The grid is left as the faults shaped it.
    Degraded {
        /// Inversions remaining with respect to the target order.
        residual_inversions: u64,
        /// Largest Manhattan distance of any value from its target cell.
        max_displacement: u64,
    },
    /// The step budget ran out before the grid sorted (and recovery, if
    /// allowed, did not finish the job either).
    BudgetExhausted {
        /// Steps executed in the main (faulty) run.
        steps: u64,
        /// Inversions remaining with respect to the target order.
        residual_inversions: u64,
    },
    /// The multiset of grid values changed during the run — an engine
    /// invariant violation (comparator exchanges permute values, never
    /// create or destroy them). Indicates a bug, never a legal fault.
    IntegrityViolation {
        /// Multiset checksum of the grid before the run.
        expected: u64,
        /// Multiset checksum of the grid after the run.
        actual: u64,
    },
}

impl RunOutcome {
    /// `true` only for [`RunOutcome::Converged`].
    pub fn converged(&self) -> bool {
        matches!(self, RunOutcome::Converged { .. })
    }

    /// Short machine-friendly label (`"converged"`, `"degraded"`,
    /// `"budget-exhausted"`, `"integrity-violation"`).
    pub fn label(&self) -> &'static str {
        match self {
            RunOutcome::Converged { .. } => "converged",
            RunOutcome::Degraded { .. } => "degraded",
            RunOutcome::BudgetExhausted { .. } => "budget-exhausted",
            RunOutcome::IntegrityViolation { .. } => "integrity-violation",
        }
    }
}

impl std::fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunOutcome::Converged { steps } => write!(f, "converged after {steps} steps"),
            RunOutcome::Degraded { residual_inversions, max_displacement } => write!(
                f,
                "degraded: {residual_inversions} residual inversions, max displacement {max_displacement}"
            ),
            RunOutcome::BudgetExhausted { steps, residual_inversions } => write!(
                f,
                "budget exhausted after {steps} steps ({residual_inversions} residual inversions)"
            ),
            RunOutcome::IntegrityViolation { expected, actual } => {
                write!(f, "integrity violation: checksum {expected:#018x} became {actual:#018x}")
            }
        }
    }
}

/// Budgets and thresholds governing a resilient run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilientPolicy {
    /// Hard cap on main-run steps; the run always terminates within it.
    pub step_budget: u64,
    /// Watchdog window: the run aborts as livelocked when this many steps
    /// pass without a new adjacent-inversion minimum. Must be generous
    /// enough that fault-free runs (which always make progress within a
    /// `Θ(N)` horizon) never trip it.
    pub stall_window: u64,
    /// Fault-free cycles granted to the *first* recovery scrub attempt
    /// (doubled on each further attempt). `0` disables recovery.
    pub recovery_cycles: u64,
    /// Maximum recovery attempts. `0` disables recovery.
    pub recovery_attempts: u64,
}

impl ResilientPolicy {
    /// Default policy for a mesh of the given side: budget
    /// [`default_step_budget`], watchdog window `4N + 4√N + 64` steps, and
    /// up to 3 scrub attempts starting at `2N + 2√N + 16` cycles (one
    /// attempt already covers the fault-free worst case, so recovery from
    /// purely transient damage converges on the first attempt).
    pub fn for_side(side: usize) -> Self {
        let n = (side * side) as u64;
        let s = side as u64;
        ResilientPolicy {
            step_budget: default_step_budget(side),
            stall_window: 4 * n + 4 * s + 64,
            recovery_cycles: 2 * n + 2 * s + 16,
            recovery_attempts: 3,
        }
    }

    /// The same policy with recovery scrubbing disabled — classification
    /// then reports the raw damage (used by degradation sweeps).
    pub fn without_recovery(mut self) -> Self {
        self.recovery_attempts = 0;
        self
    }

    /// Policy derived from a statically proven convergence bound (the
    /// `crate::opt` / `crate::absint` per-schedule bound) instead of the
    /// generic Θ(N) horizon of [`Self::for_side`].
    ///
    /// Sizing, all in whole cycles of `cycle_len` steps:
    ///
    /// * `stall_window` = the bound rounded up to a cycle — a fault-free
    ///   run *finishes* within the bound, so it can never plateau that
    ///   long without converging; any longer stall is real livelock.
    /// * `recovery_cycles` = `bound ⌈/⌉ cycle_len` — recovery scrubbing
    ///   restarts at cycle step 0 and the bound is proven from the
    ///   unconstrained state at step 0, so one fault-free scrub of this
    ///   many cycles deterministically sorts *any* grid state: the first
    ///   recovery attempt already suffices, doubling is pure margin.
    /// * `step_budget` = two stall windows — one window for the faulty
    ///   run to trip the watchdog plus one for the post-recovery re-run,
    ///   which is fault-free-equivalent after a successful scrub.
    ///
    /// For the canonical schedules the proven bound is well under the
    /// Θ(N) budget, so every field here is tighter than [`Self::for_side`]
    /// (pinned by `tests/fault_props.rs`).
    ///
    /// # Panics
    ///
    /// Panics when `cycle_len` is zero.
    pub fn from_static_bound(bound: u64, cycle_len: usize) -> Self {
        assert!(cycle_len > 0, "a schedule cycle has at least one step");
        let cycle = cycle_len as u64;
        let window = bound.div_ceil(cycle).max(1) * cycle;
        ResilientPolicy {
            step_budget: 2 * window,
            stall_window: window,
            recovery_cycles: bound.div_ceil(cycle).max(1),
            recovery_attempts: 3,
        }
    }
}

/// Full accounting of one resilient run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilientReport {
    /// Classified outcome.
    pub outcome: RunOutcome,
    /// Steps executed in the main (faulty) run.
    pub steps: u64,
    /// Comparator exchanges over the whole run, scrubbing included.
    pub swaps: u64,
    /// Comparator evaluations over the whole run, scrubbing included.
    pub comparisons: u64,
    /// Comparators suppressed by stuck wires or transient drops.
    pub dropped: u64,
    /// Whole steps lost to stalls.
    pub stalled_steps: u64,
    /// Recovery scrub attempts performed.
    pub recovery_attempts: u64,
    /// Steps executed by recovery scrubbing.
    pub recovery_steps: u64,
}

impl ResilientReport {
    /// Main-run plus recovery steps.
    pub fn total_steps(&self) -> u64 {
        self.steps + self.recovery_steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_schedule(n: usize) -> CycleSchedule {
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
    fn thresholds_hit_both_edges() {
        assert_eq!(rate_to_threshold(0.0), 0);
        assert_eq!(rate_to_threshold(1.0), 1u128 << 64);
        assert!(u128::from(u64::MAX) < rate_to_threshold(1.0));
        let half = rate_to_threshold(0.5);
        assert!(half > 0 && half < (1u128 << 64));
    }

    #[test]
    fn validate_rejects_bad_rates() {
        for bad in [-0.1, 1.5, f64::NAN] {
            let mut spec = FaultSpec::none(1);
            spec.drop_rate = bad;
            assert_eq!(
                spec.validate().unwrap_err(),
                MeshError::InvalidFaultRate { param: "drop_rate" }
            );
            let mut spec = FaultSpec::none(1);
            spec.stall_rate = bad;
            assert_eq!(
                spec.validate().unwrap_err(),
                MeshError::InvalidFaultRate { param: "stall_rate" }
            );
        }
        assert!(FaultSpec::transient(1, 1.0).validate().is_ok());
    }

    #[test]
    fn noop_plan_injects_nothing() {
        let s = line_schedule(8);
        let plan = FaultPlan::compile(&FaultSpec::none(7), &s).unwrap();
        assert!(plan.is_noop());
        assert!(FaultPlan::none().is_noop());
        // The seed is retained (it is inert once the thresholds are zero
        // and no wire is stuck), so compare behaviour, not the struct.
        assert_eq!(FaultPlan::compile(&FaultSpec::none(0), &s).unwrap(), FaultPlan::none());
        assert!(plan.trace(&s, 1000).is_empty());
        for t in 0..100 {
            assert_eq!(plan.drop_mask(t, s.plan_at(t).comparators()), 0);
            assert!(!plan.step_stalled(t));
        }
    }

    #[test]
    fn drop_rate_one_drops_everything() {
        let s = line_schedule(8);
        let plan = FaultPlan::compile(&FaultSpec::transient(3, 1.0), &s).unwrap();
        for t in 0..16 {
            for &c in s.plan_at(t).comparators() {
                assert!(plan.comparator_dropped(t, c));
            }
        }
    }

    #[test]
    fn drop_mask_matches_per_comparator_decisions() {
        let s = line_schedule(130);
        let mut spec = FaultSpec::transient(0x5EED, 0.3);
        spec.random_stuck = 3;
        spec.stuck.push(StuckWire::window(2, 3, 5, 9));
        let plan = FaultPlan::compile(&spec, &s).unwrap();
        for t in 0..16 {
            for chunk in s.plan_at(t).comparators().chunks(64) {
                let mask = plan.drop_mask(t, chunk);
                for (b, &c) in chunk.iter().enumerate() {
                    assert_eq!((mask >> b) & 1 == 1, plan.comparator_dropped(t, c), "t={t} {c:?}");
                }
            }
        }
    }

    #[test]
    fn drop_rate_is_roughly_respected() {
        let s = line_schedule(64);
        let plan = FaultPlan::compile(&FaultSpec::transient(11, 0.25), &s).unwrap();
        let mut total = 0u64;
        let mut dropped = 0u64;
        for t in 0..2000 {
            for &c in s.plan_at(t).comparators() {
                total += 1;
                dropped += u64::from(plan.comparator_dropped(t, c));
            }
        }
        let frac = dropped as f64 / total as f64;
        assert!((frac - 0.25).abs() < 0.02, "observed drop fraction {frac}");
    }

    #[test]
    fn same_spec_same_trace() {
        let s = line_schedule(16);
        let mut spec = FaultSpec::transient(0xFEED, 0.1);
        spec.stall_rate = 0.05;
        spec.random_stuck = 2;
        let a = FaultPlan::compile(&spec, &s).unwrap();
        let b = FaultPlan::compile(&spec, &s).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.trace(&s, 512), b.trace(&s, 512));
        assert!(!a.trace(&s, 512).is_empty());
    }

    #[test]
    fn different_seeds_different_traces() {
        let s = line_schedule(16);
        let a = FaultPlan::compile(&FaultSpec::transient(1, 0.1), &s).unwrap();
        let b = FaultPlan::compile(&FaultSpec::transient(2, 0.1), &s).unwrap();
        assert_ne!(a.trace(&s, 512), b.trace(&s, 512));
    }

    #[test]
    fn random_stuck_picks_distinct_schedule_wires() {
        let s = line_schedule(16);
        let mut wires: Vec<(u32, u32)> = s
            .plans()
            .iter()
            .flat_map(|p| p.comparators().iter())
            .map(|c| (c.keep_min.min(c.keep_max), c.keep_min.max(c.keep_max)))
            .collect();
        wires.sort_unstable();
        wires.dedup();
        let mut spec = FaultSpec::none(9);
        spec.random_stuck = 5;
        let plan = FaultPlan::compile(&spec, &s).unwrap();
        assert_eq!(plan.stuck_wires().len(), 5);
        let mut seen = std::collections::HashSet::new();
        for w in plan.stuck_wires() {
            assert!(wires.contains(&(w.cell_lo, w.cell_hi)), "{w:?} not a schedule wire");
            assert!(seen.insert((w.cell_lo, w.cell_hi)), "duplicate stuck wire {w:?}");
            assert_eq!(w.until_step, PERMANENT);
        }
        // Requesting more than exist clamps to the full wire set.
        spec.random_stuck = 10_000;
        let all = FaultPlan::compile(&spec, &s).unwrap();
        assert_eq!(all.stuck_wires().len(), wires.len());
    }

    #[test]
    fn stuck_window_has_bounds() {
        let w = StuckWire::window(5, 2, 10, 20);
        assert_eq!((w.cell_lo, w.cell_hi), (2, 5));
        assert!(!w.covers(9, 2, 5));
        assert!(w.covers(10, 2, 5));
        assert!(w.covers(19, 2, 5));
        assert!(!w.covers(20, 2, 5));
        assert!(!w.covers(10, 2, 6));
        let p = StuckWire::permanent(3, 1);
        assert!(p.covers(0, 1, 3) && p.covers(u64::MAX - 1, 1, 3));
    }

    #[test]
    fn stuck_wire_suppresses_both_directions() {
        let s = line_schedule(4);
        let mut spec = FaultSpec::none(0);
        spec.stuck.push(StuckWire::permanent(0, 1));
        let plan = FaultPlan::compile(&spec, &s).unwrap();
        assert!(plan.comparator_dropped(0, Comparator::new(0, 1)));
        assert!(plan.comparator_dropped(0, Comparator::new(1, 0)));
        assert!(!plan.comparator_dropped(0, Comparator::new(2, 3)));
    }

    #[test]
    fn stalled_step_reports_single_event() {
        let s = line_schedule(8);
        let mut spec = FaultSpec::none(4);
        spec.stall_rate = 1.0;
        let plan = FaultPlan::compile(&spec, &s).unwrap();
        for t in 0..8 {
            assert!(plan.step_stalled(t));
            assert_eq!(plan.step_events(t, s.plan_at(t)), vec![FaultEvent::Stalled { step: t }]);
        }
    }

    #[test]
    fn derive_seed_is_stable_and_label_sensitive() {
        assert_eq!(derive_seed(42, "r1/16"), derive_seed(42, "r1/16"));
        assert_ne!(derive_seed(42, "r1/16"), derive_seed(42, "r2/16"));
        assert_ne!(derive_seed(42, "r1/16"), derive_seed(43, "r1/16"));
    }

    #[test]
    fn policy_defaults_are_ordered() {
        let p = ResilientPolicy::for_side(16);
        assert_eq!(p.step_budget, default_step_budget(16));
        assert!(p.stall_window < p.step_budget);
        assert!(p.recovery_attempts > 0 && p.recovery_cycles > 0);
        let raw = p.without_recovery();
        assert_eq!(raw.recovery_attempts, 0);
        assert_eq!(raw.step_budget, p.step_budget);
    }

    #[test]
    fn outcome_labels_and_display() {
        let c = RunOutcome::Converged { steps: 10 };
        assert!(c.converged());
        assert_eq!(c.label(), "converged");
        assert!(c.to_string().contains("10 steps"));
        let d = RunOutcome::Degraded { residual_inversions: 3, max_displacement: 2 };
        assert!(!d.converged());
        assert_eq!(d.label(), "degraded");
        assert!(d.to_string().contains("3 residual"));
        let b = RunOutcome::BudgetExhausted { steps: 9, residual_inversions: 1 };
        assert_eq!(b.label(), "budget-exhausted");
        let i = RunOutcome::IntegrityViolation { expected: 1, actual: 2 };
        assert_eq!(i.label(), "integrity-violation");
        assert!(i.to_string().contains("checksum"));
    }
}
