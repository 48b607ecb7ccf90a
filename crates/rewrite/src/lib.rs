//! # seqdl-rewrite — feature-elimination transformations
//!
//! This crate implements, as executable source-to-source rewrites, every
//! constructive redundancy result of *Expressiveness within Sequence Datalog*
//! (PODS 2021):
//!
//! | Paper result | Function |
//! |---|---|
//! | Lemma 4.1 / Theorem 4.2 — arity is redundant | [`eliminate_arity`] |
//! | Example 4.4 — positive equations are redundant given I, A | [`eliminate_positive_equations`] |
//! | Lemma 4.5 / Theorem 4.7 — equations are redundant given I | [`eliminate_equations`] |
//! | Lemma 4.10 — impure variables can be eliminated | [`purify_rule`] |
//! | Lemma 4.12 — packing structures split pure equations | [`PackingStructure`] |
//! | Lemma 4.13 — packing is redundant without recursion | [`eliminate_packing_nonrecursive`] |
//! | Theorem 4.15 — doubling / undoubling helper programs | [`doubling_program`], [`undoubling_program`] |
//! | Theorem 4.16 — intermediate predicates are redundant given E, without N, R | [`fold_intermediate_predicates`] |
//! | Lemma 7.2 — normal form for nonrecursive equation-free programs | [`to_normal_form`] |
//!
//! Every rewrite preserves the *flat unary query* computed by the program
//! (Section 3.1); the test-suites check this by differential evaluation against the
//! original program on concrete instances.
//!
//! Beyond the paper's feature eliminations, [`magic()`] adapts the classical
//! magic-set *demand* transformation to sequence datalog (first-value
//! adornments matched to the storage layer's column index), powering the
//! `seqdl query` goal-directed evaluation pipeline, and [`strip_dead()`]
//! removes rules that provably cannot contribute to the output relations
//! (unreachable heads, statically unsatisfiable bodies, reads from
//! statically empty relations) before the program is lowered to RAM.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arity;
pub mod equations;
pub mod error;
pub mod folding;
pub mod magic;
pub mod normal_form;
pub mod packing;
pub mod strip_dead;

pub use arity::{eliminate_arity, encode_pair};
pub use equations::{
    eliminate_equations, eliminate_negated_equations, eliminate_positive_equations,
};
pub use error::RewriteError;
pub use folding::fold_intermediate_predicates;
pub use magic::{goal_matches, magic, parse_goal, MagicProgram};
pub use normal_form::{classify_rule, to_normal_form, NormalForm};
pub use packing::{
    doubling_program, eliminate_packing_nonrecursive, purify_rule, split_into_single_idb_strata,
    undoubling_program, PackingStructure,
};
pub use strip_dead::{
    always_false_reason, needed_relations, nonempty_relations, statically_empty_relations,
    statically_empty_relations_seeded, strip_dead, strip_dead_seeded, strip_dead_with_edb,
    RemovedRule, StripReason, StripReport,
};

#[cfg(test)]
mod tests {
    use super::*;
    use seqdl_syntax::{parse_program, FeatureSet};

    #[test]
    fn public_api_smoke_test() {
        // Example 3.1 with an equation: eliminating equations introduces an
        // intermediate predicate and drops the E feature.
        let p = parse_program("S($x) <- R($x), a·$x = $x·a.").unwrap();
        let rewritten = eliminate_equations(&p).unwrap();
        let features = FeatureSet::of_program(&rewritten);
        assert!(!features.equations);
        assert!(features.intermediate || features.arity);
    }
}
