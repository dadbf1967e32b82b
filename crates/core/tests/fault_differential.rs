//! Scalar vs kernel resilient engines under faults, over the five real
//! algorithms. [`Engine::Scalar`] steps through the scalar faulty step
//! with an exact inversion tracker; [`Engine::Kernel`] runs each step as
//! one drop mask around the compiled segments and recounts only where the
//! watchdog reads. Every fault regime must give the two engines the same
//! whole [`RunOutcome`] — steps, swaps, comparisons, convergence class
//! and [`FaultStats`] — and the same final grid, on raw and optimized
//! schedules, at even and odd sides.
//!
//! [`FaultStats`]: meshsort_core::FaultStats

use meshsort_core::{
    resilient_policy_for, schedule_for, AlgorithmId, Convergence, Engine, RunOutcome, SortJob,
};
use meshsort_mesh::{FaultSpec, Grid, ResilientPolicy, Rng, StuckWire};

/// Sides under test; the row-major algorithms skip the odd ones.
const SIDES: [usize; 5] = [4, 5, 8, 16, 17];

fn scrambled(side: usize, seed: u64) -> Grid<u32> {
    let mut cells: Vec<u32> = (0..(side * side) as u32).collect();
    Rng::seed_from_u64(seed).shuffle(&mut cells);
    Grid::from_rows(side, cells).unwrap()
}

/// One fault regime: the spec to inject (if any) and the policy to run
/// under (if not the default).
struct Regime {
    label: &'static str,
    spec: Option<FaultSpec>,
    policy: Option<ResilientPolicy>,
}

fn regimes(a: AlgorithmId, side: usize) -> Vec<Regime> {
    let policy = resilient_policy_for(a, side);
    let with = |f: fn(&mut FaultSpec)| {
        let mut spec = FaultSpec::none(0xD1FF);
        f(&mut spec);
        Some(spec)
    };
    // A wire of the schedule's first step, stuck for steps 5..60.
    let wire = schedule_for(a, side).unwrap().plans()[0].comparators()[0];
    let mut windowed = FaultSpec::none(0xD1FF);
    windowed.stuck.push(StuckWire::window(wire.keep_min, wire.keep_max, 5, 60));
    vec![
        Regime { label: "drop 0.01", spec: with(|s| s.drop_rate = 0.01), policy: None },
        Regime { label: "drop 0.2", spec: with(|s| s.drop_rate = 0.2), policy: None },
        // Nothing fires: the watchdog trips and the recovery scrub sorts.
        Regime { label: "drop 1.0", spec: with(|s| s.drop_rate = 1.0), policy: None },
        Regime {
            label: "drop 1.0, no recovery",
            spec: with(|s| s.drop_rate = 1.0),
            policy: Some(policy.without_recovery()),
        },
        Regime { label: "stall 0.05", spec: with(|s| s.stall_rate = 0.05), policy: None },
        Regime { label: "random_stuck 3", spec: with(|s| s.random_stuck = 3), policy: None },
        Regime {
            label: "random_stuck 3, no recovery",
            spec: with(|s| s.random_stuck = 3),
            policy: Some(policy.without_recovery()),
        },
        Regime { label: "windowed stuck wire", spec: Some(windowed), policy: None },
        Regime {
            label: "drop 0.2, 6-step budget",
            spec: with(|s| s.drop_rate = 0.2),
            policy: Some(ResilientPolicy { step_budget: 6, ..policy.without_recovery() }),
        },
        Regime { label: "no-op plan, explicit policy", spec: None, policy: Some(policy) },
    ]
}

fn run(
    a: AlgorithmId,
    side: usize,
    optimized: bool,
    regime: &Regime,
    engine: Engine,
    grid: &mut Grid<u32>,
) -> RunOutcome {
    let mut job = SortJob::new(a, side).optimized(optimized).engine(engine);
    if let Some(spec) = &regime.spec {
        job = job.fault_spec(spec.clone());
    }
    if let Some(policy) = regime.policy {
        job = job.resilient_policy(policy);
    }
    job.run(grid).unwrap()
}

#[test]
fn scalar_and_kernel_engines_agree_under_every_fault_regime() {
    let (mut degraded, mut exhausted, mut recovered, mut converged) = (0, 0, 0, 0);
    for a in AlgorithmId::ALL {
        for side in SIDES.into_iter().filter(|&s| a.supports_side(s)) {
            for optimized in [false, true] {
                for regime in regimes(a, side) {
                    for seed in 0..2u64 {
                        let mut scalar = scrambled(side, seed);
                        let mut kernel = scalar.clone();
                        let s = run(a, side, optimized, &regime, Engine::Scalar, &mut scalar);
                        let k = run(a, side, optimized, &regime, Engine::Kernel, &mut kernel);
                        let at = format!(
                            "{a} side {side} optimized {optimized} {} seed {seed}",
                            regime.label
                        );
                        assert_eq!(s, k, "{at}");
                        assert_eq!(scalar, kernel, "{at}");
                        assert!(s.faults.is_some(), "{at}: resilient runs report fault stats");
                        match s.convergence {
                            Convergence::Degraded { .. } => degraded += 1,
                            Convergence::BudgetExhausted { .. } => exhausted += 1,
                            Convergence::Converged { .. } => {
                                if s.faults.unwrap().recovery_attempts > 0 {
                                    recovered += 1;
                                } else {
                                    converged += 1;
                                }
                            }
                            Convergence::IntegrityViolation { .. } => panic!("{at}: {s:?}"),
                        }
                    }
                }
            }
        }
    }
    // The matrix must reach every outcome class, or it proves less than
    // it claims.
    assert!(degraded > 0, "no run ended Degraded");
    assert!(exhausted > 0, "no run ended BudgetExhausted");
    assert!(recovered > 0, "no run converged through a recovery scrub");
    assert!(converged > 0, "no run converged in its main run");
}
