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
//! * [`plan`] — a body planner that orders literals so that positive predicates bind
//!   variables first, positive equations are evaluated once one side is ground
//!   (which rule safety guarantees is always eventually possible), and negated
//!   literals are checked last;
//! * [`ram`] — planned rules lowered to a flat instruction IR, and each
//!   stratum's rules arranged into per-level merge sections and fixpoint loops;
//! * [`drive`] — the one fixpoint driver, which walks the lowered program
//!   semi-naively under explicit [`EvalLimits`], so that non-terminating
//!   programs (such as Example 2.3 of the paper) surface as
//!   [`EvalError::LimitExceeded`] instead of diverging;
//! * [`eval`] — the [`Engine`] entry points, limits, governor, and statistics.
//!
//! The top-level entry point is [`Engine`]:
//!
//! ```
//! use seqdl_core::{rel, repeat_path, Instance};
//! use seqdl_engine::Engine;
//! use seqdl_syntax::parse_program;
//!
//! // Example 3.1: all paths from R consisting exclusively of a's.
//! let program = parse_program("S($x) <- R($x), a·$x = $x·a.").unwrap();
//! let input = Instance::unary(rel("R"), [repeat_path("a", 3), repeat_path("b", 2)]);
//! let output = Engine::new().run(&program, &input).unwrap();
//! assert!(output.unary_paths(rel("S")).contains(&repeat_path("a", 3)));
//! assert!(!output.unary_paths(rel("S")).contains(&repeat_path("b", 2)));
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
    prepare_idb_instance, register_plan_indexes, restrict_head_indexes, seed_instance, DeltaWindow,
    EmitMemo, Engine, EvalLimits, EvalStats, FireStats, ResourceGovernor, RuleStats, StratumStats,
    GOVERNOR_CHECK_INTERVAL,
};
pub use plan::{plan_rule, BodyPlan, ColumnProbe, PlannedLiteral, PlannedPredicate, PrefixSource};
pub use ram::{fire_proc, RuleProc};
pub use stats_json::stats_json;

use seqdl_core::{Instance, Path, RelName};
use seqdl_syntax::Program;
use std::collections::BTreeSet;

/// Run `program` on `input` and read off the unary output relation `output`, i.e.
/// evaluate the *flat unary query* the program computes (Section 3.1).
///
/// # Errors
/// Any evaluation error (unsafe program, resource limits, …).
pub fn run_unary_query(
    program: &Program,
    input: &Instance,
    output: RelName,
) -> Result<BTreeSet<Path>, EvalError> {
    let result = Engine::new().run(program, input)?;
    Ok(result.unary_paths(output))
}

/// Run `program` on `input` and read off a nullary (boolean) output relation.
///
/// # Errors
/// Any evaluation error (unsafe program, resource limits, …).
pub fn run_boolean_query(
    program: &Program,
    input: &Instance,
    output: RelName,
) -> Result<bool, EvalError> {
    let result = Engine::new().run(program, input)?;
    Ok(result.nullary_true(output))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use seqdl_core::{rel, repeat_path};
    use seqdl_syntax::parse_program;

    #[test]
    fn unary_and_boolean_helpers() {
        let program = parse_program("S($x) <- R($x), a·$x = $x·a.").unwrap();
        let input = Instance::unary(rel("R"), [repeat_path("a", 2)]);
        let paths = run_unary_query(&program, &input, rel("S")).unwrap();
        assert_eq!(paths.len(), 1);

        let boolean = parse_program("A <- R($x), a·$x = $x·a.").unwrap();
        assert!(run_boolean_query(&boolean, &input, rel("A")).unwrap());
        let empty = Instance::unary(rel("R"), []);
        assert!(!run_boolean_query(&boolean, &empty, rel("A")).unwrap());
    }
}
