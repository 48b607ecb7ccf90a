//! # seqdl-analysis — static analysis and lint framework
//!
//! One pass pipeline over a program, one diagnostic vocabulary, three
//! consumers: the `seqdl check` command, the pre-flight warnings of `seqdl
//! run`/`seqdl query`, and the structural report of `seqdl analyze`.  The
//! same facts also feed the optimizer: the dead/always-false machinery is
//! shared with [`seqdl_rewrite::strip_dead()`], so what the checker flags as
//! [`Lint::DeadRule`] is exactly what the `--strip-dead` rewrite removes
//! before lowering to RAM.
//!
//! The passes (see [`check_program`]):
//!
//! 1. **Well-formedness** — per-variable safety refinements (head-only,
//!    negation-shadowed, generic unsafe), arity consistency, stratification;
//!    these are error-severity because evaluation would reject the program.
//! 2. **Variable hygiene** — body variables that occur exactly once.
//! 3. **Reachability** — rules and relations that cannot contribute to the
//!    declared outputs or query goal.
//! 4. **Satisfiability** — statically empty relations (no facts, no
//!    satisfiable producing rule) and always-false rules (contradictory
//!    equations, conflicting first values via `seqdl_syntax::adornment`).
//! 5. **Redundancy** — duplicate rules (up to renaming) and subsumed rules,
//!    with a fragment-narrowing note via `seqdl_fragments` subsumption.
//! 6. **Divergence risk** — uncertified recursive cliques from
//!    `seqdl-termination`, with per-rule measures and a `--timeout` hint.
//!
//! Findings carry stable lint codes (`SD-E001`, `SD-W101`, …; see
//! [`Lint`]) and render as text or as a versioned JSON document
//! ([`check_json`]) following the `stats_json` conventions.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod check;
pub mod diag;
pub mod render;

pub use check::{check_program, CheckOptions, CheckReport};
pub use diag::{Anchor, Diagnostic, Lint, Severity};
pub use render::{check_json, render_text};

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use seqdl_core::rel;
    use seqdl_syntax::parse_program;

    #[test]
    fn public_api_smoke_test() {
        let program = parse_program("T($x) <- R($x).\nS($x) <- T($x).").unwrap();
        let report = check_program(&program, &CheckOptions::for_outputs([rel("S")]));
        assert!(!report.has_errors());
        assert!(check_json(&report).contains("\"version\": 1"));
        assert!(render_text(&report).contains("check:"));
    }
}
