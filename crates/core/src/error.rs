//! The unified error surface of the workspace.
//!
//! Before the `SortJob` redesign every layer surfaced its own enum —
//! [`MeshError`] from construction, [`VerifyError`] from the static
//! passes, [`OptError`] from the plan optimizer — and the batch/runner
//! entry points panicked on contract violations. [`Error`] folds all of
//! them into one type with a **stable numeric discriminant**
//! ([`Error::code`]) so the `meshsortd` wire protocol can encode any
//! failure as a fixed `u16` that never changes meaning across releases:
//!
//! * `100–199` — mesh construction errors ([`MeshError`])
//! * `200–299` — static verification errors ([`VerifyError`])
//! * `300–399` — optimizer/certification errors ([`OptError`])
//! * `400–499` — job-level contract violations ([`Error::InvalidJob`])
//! * `500–599` — service-level conditions: overload ([`Error::QueueFull`]
//!   = 503) and deadline shedding ([`Error::DeadlineExceeded`] = 504)
//!
//! Within each band the code is `base + declaration index` of the
//! wrapped enum's variant; new variants append, existing codes are
//! frozen (pinned by `codes_are_stable` below).

use meshsort_mesh::{MeshError, OptError, VerifyError};
use std::fmt;

/// Any failure reachable from the public `meshsort-core` surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Grid/plan/schedule construction failed.
    Mesh(MeshError),
    /// A schedule failed static structural or IR-conformance checks.
    Verify(VerifyError),
    /// Plan optimization or certificate checking failed.
    Optimizer(OptError),
    /// A [`crate::SortJob`] was configured inconsistently (side mismatch,
    /// zero shard width, …). The reason is human-readable; the
    /// discriminant is what the wire carries.
    InvalidJob {
        /// What was wrong with the job.
        reason: String,
    },
    /// A bounded service queue rejected the request instead of buffering
    /// it unboundedly; retry with backoff.
    QueueFull {
        /// The queue's bound at the time of rejection.
        capacity: usize,
    },
    /// The request carried a deadline and the service could not start it
    /// in time; it was shed before any work was wasted on it. Retrying
    /// is pointless unless the client grants a fresh deadline.
    DeadlineExceeded {
        /// The deadline the request carried, in milliseconds.
        deadline_ms: u64,
        /// How long the request had already waited when it was shed.
        waited_ms: u64,
    },
}

impl Error {
    /// The stable wire discriminant (see module docs for the bands).
    pub fn code(&self) -> u16 {
        match self {
            Error::Mesh(e) => {
                100 + match e {
                    MeshError::BadDimensions { .. } => 0,
                    MeshError::ZeroSide => 1,
                    MeshError::IndexOutOfRange { .. } => 2,
                    MeshError::OverlappingComparators { .. } => 3,
                    MeshError::DegenerateComparator { .. } => 4,
                    MeshError::UnsupportedSide { .. } => 5,
                    MeshError::EmptySchedule => 6,
                    MeshError::MixedBatchSides { .. } => 7,
                    MeshError::InvalidFaultRate { .. } => 8,
                    MeshError::ScheduleShapeMismatch { .. } => 9,
                }
            }
            Error::Verify(e) => {
                200 + match e {
                    VerifyError::CycleLengthMismatch { .. } => 0,
                    VerifyError::IndexOutOfBounds { .. } => 1,
                    VerifyError::DegenerateComparator { .. } => 2,
                    VerifyError::DuplicateCell { .. } => 3,
                    VerifyError::NotMeshAdjacent { .. } => 4,
                    VerifyError::WrapNotAllowed { .. } => 5,
                    VerifyError::DirectionInconsistent { .. } => 6,
                    VerifyError::IrMissingComparator { .. } => 7,
                    VerifyError::IrExtraComparator { .. } => 8,
                    VerifyError::IrComparisonCountMismatch { .. } => 9,
                }
            }
            Error::Optimizer(e) => {
                300 + match e {
                    OptError::Mesh(_) => 0,
                    OptError::UnprovableConvergence { .. } => 1,
                    OptError::StrippedSetMismatch { .. } => 2,
                    OptError::StrippedWireLive { .. } => 3,
                    OptError::Structural(_) => 4,
                    OptError::IrConformance(_) => 5,
                    OptError::SortedNotFixedPoint { .. } => 6,
                    OptError::BoundMismatch { .. } => 7,
                    OptError::BoundExceedsBudget { .. } => 8,
                    OptError::Lift(_) => 9,
                    OptError::LiftUnverifiable => 10,
                }
            }
            Error::InvalidJob { .. } => 400,
            Error::QueueFull { .. } => 503,
            Error::DeadlineExceeded { .. } => 504,
        }
    }

    /// Short machine-friendly label of the error family, for log lines
    /// and metrics route keys.
    pub fn family(&self) -> &'static str {
        match self {
            Error::Mesh(_) => "mesh",
            Error::Verify(_) => "verify",
            Error::Optimizer(_) => "optimizer",
            Error::InvalidJob { .. } => "invalid-job",
            Error::QueueFull { .. } => "queue-full",
            Error::DeadlineExceeded { .. } => "deadline",
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Mesh(e) => write!(f, "{e}"),
            Error::Verify(e) => write!(f, "{e}"),
            Error::Optimizer(e) => write!(f, "{e}"),
            Error::InvalidJob { reason } => write!(f, "invalid sort job: {reason}"),
            Error::QueueFull { capacity } => {
                write!(f, "service queue full (capacity {capacity}); retry with backoff")
            }
            Error::DeadlineExceeded { deadline_ms, waited_ms } => {
                write!(
                    f,
                    "deadline exceeded: {deadline_ms} ms budget, waited {waited_ms} ms before \
                     execution could start"
                )
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Mesh(e) => Some(e),
            Error::Verify(e) => Some(e),
            Error::Optimizer(e) => Some(e),
            Error::InvalidJob { .. } | Error::QueueFull { .. } | Error::DeadlineExceeded { .. } => {
                None
            }
        }
    }
}

impl From<MeshError> for Error {
    fn from(e: MeshError) -> Self {
        Error::Mesh(e)
    }
}

impl From<VerifyError> for Error {
    fn from(e: VerifyError) -> Self {
        Error::Verify(e)
    }
}

impl From<OptError> for Error {
    fn from(e: OptError) -> Self {
        Error::Optimizer(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable() {
        // The wire protocol serializes these; the pairs below are frozen.
        assert_eq!(Error::Mesh(MeshError::BadDimensions { side: 2, len: 3 }).code(), 100);
        assert_eq!(Error::Mesh(MeshError::ZeroSide).code(), 101);
        assert_eq!(
            Error::Mesh(MeshError::UnsupportedSide { side: 3, requirement: "even" }).code(),
            105
        );
        assert_eq!(Error::Mesh(MeshError::MixedBatchSides { expected: 4, found: 8 }).code(), 107);
        assert_eq!(
            Error::Verify(VerifyError::CycleLengthMismatch { expected: 4, got: 3 }).code(),
            200
        );
        assert_eq!(
            Error::Verify(VerifyError::IrComparisonCountMismatch { step: 0, plan: 1, compiled: 2 })
                .code(),
            209
        );
        assert_eq!(Error::Optimizer(OptError::Mesh(MeshError::ZeroSide)).code(), 300);
        assert_eq!(Error::Optimizer(OptError::UnprovableConvergence { missing: 1 }).code(), 301);
        assert_eq!(
            Error::Optimizer(OptError::BoundExceedsBudget { bound: 9, budget: 8 }).code(),
            308
        );
        assert_eq!(Error::InvalidJob { reason: String::new() }.code(), 400);
        assert_eq!(Error::QueueFull { capacity: 64 }.code(), 503);
        assert_eq!(Error::DeadlineExceeded { deadline_ms: 10, waited_ms: 12 }.code(), 504);
    }

    #[test]
    fn codes_are_unique_per_variant() {
        let mesh = [
            MeshError::BadDimensions { side: 2, len: 3 },
            MeshError::ZeroSide,
            MeshError::IndexOutOfRange { index: 0, cells: 0 },
            MeshError::OverlappingComparators { index: 0 },
            MeshError::DegenerateComparator { index: 0 },
            MeshError::UnsupportedSide { side: 3, requirement: "even" },
            MeshError::EmptySchedule,
            MeshError::MixedBatchSides { expected: 4, found: 8 },
            MeshError::InvalidFaultRate { param: "drop_rate" },
            MeshError::ScheduleShapeMismatch { plans: 1, compiled: 2 },
        ];
        let mut seen = std::collections::BTreeSet::new();
        for e in mesh {
            let code = Error::from(e).code();
            assert!((100..200).contains(&code));
            assert!(seen.insert(code), "duplicate code {code}");
        }
    }

    #[test]
    fn from_impls_preserve_the_source() {
        let e = Error::from(MeshError::ZeroSide);
        assert_eq!(e, Error::Mesh(MeshError::ZeroSide));
        let v = VerifyError::CycleLengthMismatch { expected: 4, got: 3 };
        assert_eq!(Error::from(v.clone()), Error::Verify(v));
        let o = OptError::UnprovableConvergence { missing: 2 };
        assert_eq!(Error::from(o.clone()), Error::Optimizer(o));
    }

    #[test]
    fn display_and_source_chain() {
        let e = Error::Mesh(MeshError::ZeroSide);
        assert!(e.to_string().contains("at least 1"));
        assert!(std::error::Error::source(&e).is_some());
        let q = Error::QueueFull { capacity: 16 };
        assert!(q.to_string().contains("capacity 16"));
        assert!(std::error::Error::source(&q).is_none());
        assert_eq!(q.family(), "queue-full");
        let j = Error::InvalidJob { reason: "side 0".into() };
        assert!(j.to_string().contains("side 0"));
        assert_eq!(j.family(), "invalid-job");
        let d = Error::DeadlineExceeded { deadline_ms: 50, waited_ms: 80 };
        assert!(d.to_string().contains("50 ms budget"));
        assert!(d.to_string().contains("waited 80 ms"));
        assert_eq!(d.family(), "deadline");
        assert!(std::error::Error::source(&d).is_none());
    }
}
