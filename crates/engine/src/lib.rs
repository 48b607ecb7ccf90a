//! # seqdl-engine — bottom-up evaluation of Sequence Datalog
//!
//! This crate implements the semantics of Section 2.3 of *Expressiveness within
//! Sequence Datalog* (PODS 2021): stratum-by-stratum evaluation of programs with
//! stratified negation, where each stratum is a semipositive program evaluated to
//! its least fixpoint over the result of the preceding strata.
//!
//! The components are:
//!
//! * [`matching`] — associative *matching* of path expressions against ground paths
//!   under a partial valuation: one backtracking walk that enumerates every
//!   decomposition into a continuation (which can stop it), and one
//!   deterministic pass for probes proved to admit at most one extension;
//! * [`plan`] — the per-predicate probe plan: which leading terms of each
//!   argument column are known when the predicate is matched, so the
//!   evaluator can probe a column index instead of scanning;
//! * [`ram`] — rules lowered in one pass to a flat instruction IR whose
//!   order binds variables through positive predicates first, evaluates
//!   positive equations once one side is ground (which rule safety
//!   guarantees is always eventually possible), and checks negated literals
//!   last; and each stratum's rules arranged into per-level merge sections
//!   and fixpoint loops;
//! * [`drive`] — the one fixpoint driver, which walks the lowered program
//!   semi-naively under explicit [`EvalLimits`], so that non-terminating
//!   programs (such as Example 2.3 of the paper) surface as
//!   [`EvalError::LimitExceeded`] instead of diverging;
//! * [`eval`] — limits, the run's governor, statistics, and instance
//!   preparation.
//!
//! This crate has no run entry point of its own: programs are evaluated
//! through `seqdl_exec::Executor`, which supplies the driver's rounds (in
//! place at one thread, over a worker pool at more) and contains worker
//! panics.  What this crate exposes directly is the compilation the executor
//! runs, e.g. the lowered program of Example 3.1:
//!
//! ```
//! use seqdl_engine::ram;
//! use seqdl_syntax::parse_program;
//!
//! // Example 3.1: all paths from R consisting exclusively of a's.
//! let program = parse_program("S($x) <- R($x), a·$x = $x·a.").unwrap();
//! let lowered = ram::lower(&program).unwrap();
//! // One stratum with one non-recursive rule, fired once in a merge round.
//! assert_eq!(lowered.strata.len(), 1);
//! assert_eq!(lowered.strata[0].procs.len(), 1);
//! assert!(lowered.strata[0].levels.iter().all(|level| level.loops.is_empty()));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(clippy::unwrap_used)]

pub mod drive;
pub mod error;
pub mod eval;
pub mod matching;
pub mod plan;
pub mod ram;
pub mod stats_json;

pub use drive::{prepare_run, Driver, Job, JobOutcome, ShardPolicy};
pub use error::{EvalError, LimitKind};
pub use eval::{
    check_idb_input, prepare_idb_instance, restrict_head_indexes, seed_instance, DeltaWindow,
    EvalLimits, EvalStats, FireStats, ResourceGovernor, RuleStats, StratumStats,
    GOVERNOR_CHECK_INTERVAL,
};
pub use plan::{ColumnProbe, PlannedPredicate, PrefixSource};
pub use ram::{fire_proc, RuleProc};
pub use stats_json::stats_json;
