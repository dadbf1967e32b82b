//! Step caps, convergence bounds and fault policies for sorting runs.
//!
//! [`crate::SortJob`] is the one way to run a sort; these helpers size
//! its budgets ([`default_step_cap`], [`static_step_bound`]), its
//! resilient policy ([`resilient_policy_for`]) and its fault plans
//! ([`fault_plan_for`]). Each resolves through the shared
//! [`crate::cache`], so repeated calls for the same `(algorithm, side)` —
//! the shape of every Monte-Carlo sweep — never recompile a plan.

use crate::algorithm::AlgorithmId;
use crate::cache;
use meshsort_mesh::fault::{self, derive_seed};
use meshsort_mesh::{FaultPlan, FaultSpec, MeshError, ResilientPolicy};

/// Generous step cap for a run of any of the five algorithms.
///
/// The paper shows the worst case of each algorithm is `Θ(N)`; exhaustive
/// small-mesh 0-1 sweeps in this workspace put the observed constant well
/// under 4, so a budget of `8N + 8√N + 64` (the workspace-wide constant,
/// [`meshsort_mesh::fault::default_step_budget`]) leaves a wide margin
/// while still bounding runaway loops if an implementation bug breaks
/// convergence.
#[inline]
pub fn default_step_cap(side: usize) -> u64 {
    fault::default_step_budget(side)
}

/// The tightest sound step cap known for `(algorithm, side)`: the
/// statically proven convergence bound — the exact dataflow fixpoint up
/// to [`meshsort_mesh::opt::exact_bound_max_side`], a verified
/// periodicity-lifted bound above it through side 256 (process-cached
/// via [`cache::static_bound_for`] either way) — roughly 3.5–5× tighter
/// than [`default_step_cap`] for the canonical schedules, falling back
/// to the Θ(N) budget for unsupported sides and beyond the liftable
/// range.
///
/// Every input provably sorts within the returned cap, so using it as a
/// retirement horizon (the batch engine) or budget rail changes no
/// observable outcome of a fault-free run.
pub fn static_step_bound(algorithm: AlgorithmId, side: usize) -> u64 {
    cache::static_bound_for(algorithm, side).unwrap_or_else(|| default_step_cap(side))
}

/// The resilient-run policy for `(algorithm, side)`: derived from the
/// static convergence bound
/// ([`ResilientPolicy::from_static_bound`] — watchdog, budget, and
/// recovery scrub all sized in proven-bound units, each tighter than the
/// Θ(N) defaults) when the bound is known, else
/// [`ResilientPolicy::for_side`].
pub fn resilient_policy_for(algorithm: AlgorithmId, side: usize) -> ResilientPolicy {
    match (cache::static_bound_for(algorithm, side), cache::schedule_for(algorithm, side)) {
        (Some(bound), Ok(schedule)) => {
            ResilientPolicy::from_static_bound(bound, schedule.cycle_len())
        }
        _ => ResilientPolicy::for_side(side),
    }
}

/// Compiles `spec` into a [`FaultPlan`] for `(algorithm, side)`, deriving
/// the plan seed from `spec.seed` and the `"name/side"` label so the same
/// root seed yields decorrelated — but individually reproducible — fault
/// streams per algorithm and side.
///
/// # Errors
///
/// [`MeshError::UnsupportedSide`] when the algorithm is not defined for
/// `side`; [`MeshError::InvalidFaultRate`] for rates outside `[0, 1]`.
pub fn fault_plan_for(
    algorithm: AlgorithmId,
    side: usize,
    spec: &FaultSpec,
) -> Result<FaultPlan, MeshError> {
    let schedule = cache::schedule_for(algorithm, side)?;
    let mut derived = spec.clone();
    derived.seed = derive_seed(spec.seed, &format!("{}/{side}", algorithm.name()));
    FaultPlan::compile(&derived, &schedule)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_is_theta_n() {
        assert!(default_step_cap(4) >= 8 * 16);
        assert!(default_step_cap(32) >= 8 * 1024);
    }

    #[test]
    fn fault_plan_for_is_deterministic_and_algorithm_keyed() {
        let spec = FaultSpec::transient(0x5EED, 0.1);
        let a = fault_plan_for(AlgorithmId::SnakeAlternating, 8, &spec).unwrap();
        let b = fault_plan_for(AlgorithmId::SnakeAlternating, 8, &spec).unwrap();
        assert_eq!(a, b);
        let sched = AlgorithmId::SnakeAlternating.schedule(8).unwrap();
        let other = fault_plan_for(AlgorithmId::SnakePhaseAligned, 8, &spec).unwrap();
        assert_ne!(a.trace(&sched, 256), other.trace(&sched, 256));
        // Unsupported sides and bad rates propagate.
        assert!(fault_plan_for(AlgorithmId::RowMajorRowFirst, 3, &spec).is_err());
        let bad = FaultSpec::transient(1, 2.0);
        assert_eq!(
            fault_plan_for(AlgorithmId::SnakeAlternating, 8, &bad).unwrap_err(),
            MeshError::InvalidFaultRate { param: "drop_rate" }
        );
    }

    #[test]
    fn static_bound_is_tighter_than_theta_and_falls_back_above_gate() {
        for a in AlgorithmId::ALL {
            for side in [4usize, 5, 8, 16] {
                if !a.supports_side(side) {
                    continue;
                }
                let bound = static_step_bound(a, side);
                assert!(bound > 0, "{a} side {side}");
                assert!(bound < default_step_cap(side), "{a} side {side}: {bound}");
            }
            // Above the exact-fixpoint gate the lifted bound still beats
            // the Θ(N) budget — the whole point of periodicity lifting.
            if a.supports_side(64) {
                let lifted = static_step_bound(a, 64);
                assert!(lifted < default_step_cap(64), "{a}: {lifted}");
            }
            // Beyond the liftable range the Θ(N) budget is the cap.
            if a.supports_side(512) {
                assert_eq!(static_step_bound(a, 512), default_step_cap(512), "{a}");
            }
        }
        // Unsupported sides also fall back rather than erroring.
        assert_eq!(static_step_bound(AlgorithmId::RowMajorRowFirst, 5), default_step_cap(5));
    }

    #[test]
    fn resilient_policy_from_static_bound_is_tighter_than_default() {
        for a in AlgorithmId::ALL {
            let policy = resilient_policy_for(a, 8);
            let default = ResilientPolicy::for_side(8);
            assert!(policy.step_budget < default.step_budget, "{a}");
            assert!(policy.stall_window < default.stall_window, "{a}");
            assert!(policy.recovery_cycles < default.recovery_cycles, "{a}");
            // A whole number of cycles, so the watchdog checks line up.
            assert_eq!(policy.stall_window % 4, 0, "{a}");
        }
        // Above the exact gate the lifted bound still tightens the
        // policy; beyond the liftable range the Θ(N) policy is unchanged.
        let lifted = resilient_policy_for(AlgorithmId::SnakeAlternating, 64);
        assert!(lifted.step_budget < ResilientPolicy::for_side(64).step_budget);
        assert_eq!(
            resilient_policy_for(AlgorithmId::SnakeAlternating, 512),
            ResilientPolicy::for_side(512)
        );
    }
}
