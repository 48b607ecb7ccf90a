//! Errors raised during evaluation.

use crate::eval::EvalStats;
use seqdl_core::CoreError;
use seqdl_syntax::SyntaxError;
use std::fmt;

/// Errors raised by the evaluation engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The program failed a static well-formedness check (safety, stratification,
    /// arity consistency).
    IllFormed(SyntaxError),
    /// An IDB relation name of the program already holds facts in the input
    /// instance, or is declared there with a different arity.  The paper requires a
    /// program over a schema Γ to use IDB relation names outside Γ (Section 2.3).
    IdbRelationInInput {
        /// The offending relation name.
        relation: String,
    },
    /// A body could not be planned: some positive equation never has a fully bound
    /// side.  This cannot happen for safe rules; it indicates the rule is unsafe.
    Unplannable {
        /// Rendering of the offending rule.
        rule: String,
    },
    /// An evaluation task failed unexpectedly (a panic on an executor worker
    /// thread, say); surfaced as a result so a parallel run aborts cleanly
    /// instead of hanging or crashing the process.
    Internal {
        /// What failed.
        detail: String,
    },
    /// The data model rejected a fact or relation: an arity mismatch between a
    /// rule head, a demand seed, or an input relation and the arity the
    /// program gives that relation.
    Data(CoreError),
    /// A resource limit was exceeded; the program most likely does not terminate on
    /// this instance (cf. Example 2.3 of the paper).
    LimitExceeded {
        /// Which limit was hit.
        what: LimitKind,
        /// The configured limit value.
        limit: usize,
    },
    /// The evaluation was cancelled — by a deadline, a caller-held
    /// [`seqdl_core::CancelToken`], or a SIGINT — at a governor checkpoint
    /// (stratum boundary, fixpoint round, or amortised RAM-instruction
    /// check).  The instance built so far is discarded, but the statistics
    /// accumulated up to the cancellation point travel with the error so
    /// callers can report partial progress.
    Cancelled {
        /// Why the evaluation was cancelled (e.g. `"deadline of 50ms exceeded"`).
        reason: String,
        /// Statistics accumulated up to the cancellation point.
        partial_stats: Box<EvalStats>,
    },
    /// A worker job panicked inside the parallel executor.  The panic was
    /// contained by `catch_unwind`, the cancel token was poisoned so the
    /// surviving workers drained, and the error carries the offending rule.
    WorkerPanic {
        /// Rendering of the rule whose job panicked.
        rule: String,
        /// The panic payload, if it was a string.
        detail: String,
    },
}

/// Which evaluation limit was exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LimitKind {
    /// Too many fixpoint iterations in one stratum.
    Iterations,
    /// Too many derived facts.
    Facts,
    /// A derived path grew too long.
    PathLength,
    /// The global path store grew past the configured byte budget.
    StoreBytes,
}

impl fmt::Display for LimitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LimitKind::Iterations => f.write_str("fixpoint iterations"),
            LimitKind::Facts => f.write_str("derived facts"),
            LimitKind::PathLength => f.write_str("derived path length"),
            LimitKind::StoreBytes => f.write_str("path-store bytes"),
        }
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::IllFormed(e) => write!(f, "ill-formed program: {e}"),
            EvalError::IdbRelationInInput { relation } => write!(
                f,
                "IDB relation {relation} already occurs in the input instance; \
                 a program's IDB relation names must be disjoint from the input schema"
            ),
            EvalError::Unplannable { rule } => {
                write!(f, "cannot plan body of rule `{rule}` (rule is not safe)")
            }
            EvalError::Internal { detail } => {
                write!(f, "internal evaluation error: {detail}")
            }
            EvalError::Data(e) => write!(f, "fact rejected: {e}"),
            EvalError::LimitExceeded { what, limit } => {
                write!(f, "evaluation exceeded the limit of {limit} {what}")
            }
            EvalError::Cancelled { reason, .. } => {
                write!(f, "evaluation cancelled: {reason}")
            }
            EvalError::WorkerPanic { rule, detail } => {
                write!(
                    f,
                    "executor worker panicked evaluating rule `{rule}`: {detail}"
                )
            }
        }
    }
}

impl EvalError {
    /// Attach the run's accumulated statistics to a [`EvalError::Cancelled`]
    /// raised deep inside the evaluation (governor checkpoints return it with
    /// empty stats, since they cannot see the run totals).  Every other error
    /// passes through unchanged.
    #[must_use]
    pub fn with_partial_stats(self, stats: EvalStats) -> EvalError {
        match self {
            EvalError::Cancelled { reason, .. } => EvalError::Cancelled {
                reason,
                partial_stats: Box::new(stats),
            },
            other => other,
        }
    }

    /// The partial statistics carried by a [`EvalError::Cancelled`], if any.
    pub fn partial_stats(&self) -> Option<&EvalStats> {
        match self {
            EvalError::Cancelled { partial_stats, .. } => Some(partial_stats),
            _ => None,
        }
    }
}

impl std::error::Error for EvalError {}

impl From<SyntaxError> for EvalError {
    fn from(e: SyntaxError) -> Self {
        EvalError::IllFormed(e)
    }
}

impl From<CoreError> for EvalError {
    fn from(e: CoreError) -> Self {
        EvalError::Data(e)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = EvalError::LimitExceeded {
            what: LimitKind::Facts,
            limit: 1000,
        };
        assert_eq!(
            e.to_string(),
            "evaluation exceeded the limit of 1000 derived facts"
        );
        let e = EvalError::Unplannable {
            rule: "S($x) <- $x = $y.".into(),
        };
        assert!(e.to_string().contains("not safe"));
    }
}
