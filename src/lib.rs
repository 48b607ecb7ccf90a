//! # sequence-datalog — Datalog for sequence databases
//!
//! A from-scratch Rust implementation of the system studied in *Expressiveness
//! within Sequence Datalog* (Aamer, Hidders, Paredaens, Van den Bussche, PODS 2021):
//! a Datalog dialect whose terms are *path expressions* built from atomic values,
//! atomic variables, path variables, concatenation, and packing.
//!
//! This crate is a facade that re-exports the workspace's subsystems:
//!
//! * [`core`] — the sequence data model (atoms, packed values, paths, instances);
//! * [`syntax`] — path expressions, rules, programs, parser, and static analyses;
//! * [`analysis`] — the lint framework behind `seqdl check` (stable lint codes,
//!   dead-code and divergence diagnostics);
//! * [`unify`] — associative unification for path expressions (extended pig-pug);
//! * [`engine`] — the one-pass RAM lowering and the fixpoint driver behind
//!   bottom-up evaluation with stratified negation;
//! * [`exec`] — [`exec::Executor`], the one way to evaluate a program (in
//!   place at one thread, over a worker pool at more);
//! * [`rewrite`] — the paper's feature-elimination transformations;
//! * [`algebra`] — the sequence relational algebra of Section 7;
//! * [`fragments`] — features, fragments, the Theorem 6.1 classification, Figure 1;
//! * [`regex`] — regular expressions compiled to Sequence Datalog (recursion as
//!   syntactic sugar, cf. Section 1);
//! * [`termination`] — conservative termination analysis (cf. Section 2.3);
//! * [`trace`] — the span/event sink behind `--trace-out` and the profiler;
//! * [`io`] — program (`.sdl`) and instance (`.sdi`) files;
//! * [`wgen`] — synthetic workload generators.
//!
//! ## Quickstart
//!
//! ```
//! use sequence_datalog::prelude::*;
//!
//! // Example 3.1 of the paper: the paths from R that consist exclusively of a's.
//! let program = parse_program("S($x) <- R($x), a·$x = $x·a.").unwrap();
//! let input = Instance::unary(rel("R"), [repeat_path("a", 4), path_of(&["a", "b"])]);
//! let output = Executor::new().run(&program, &input).unwrap();
//! assert_eq!(output.unary_paths(rel("S")).len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use seqdl_algebra as algebra;
pub use seqdl_analysis as analysis;
pub use seqdl_core as core;
pub use seqdl_engine as engine;
pub use seqdl_exec as exec;
pub use seqdl_fragments as fragments;
pub use seqdl_io as io;
pub use seqdl_regex as regex;
pub use seqdl_rewrite as rewrite;
pub use seqdl_syntax as syntax;
pub use seqdl_termination as termination;
pub use seqdl_trace as trace;
pub use seqdl_unify as unify;
pub use seqdl_wgen as wgen;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use seqdl_core::{atom, path_of, rel, repeat_path, Fact, Instance, Path, RelName, Value};
    pub use seqdl_engine::EvalLimits;
    pub use seqdl_exec::{run_boolean_query, run_unary_query, Executor};
    pub use seqdl_fragments::{subsumed_by, Feature, Fragment, HasseDiagram};
    pub use seqdl_io::{
        load_instance, load_program, parse_instance, save_instance, write_instance,
    };
    pub use seqdl_regex::{compile_contains, compile_match, parse_regex, Regex};
    pub use seqdl_syntax::{parse_expr, parse_program, parse_rule, FeatureSet, Program};
    pub use seqdl_termination::{analyse as analyse_termination, guaranteed_terminating};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let program = parse_program("S($x) <- R($x), a·$x = $x·a.").unwrap();
        assert_eq!(Fragment::of_program(&program).to_string(), "{E}");
        let input = Instance::unary(rel("R"), [repeat_path("a", 2)]);
        assert!(
            run_boolean_query(&parse_program("A <- R($x).").unwrap(), &input, rel("A")).unwrap()
        );
    }

    #[test]
    fn extension_crates_are_reachable_from_the_prelude() {
        // Termination analysis certifies the quickstart program.
        let program = parse_program("S($x) <- R($x), a·$x = $x·a.").unwrap();
        assert!(guaranteed_terminating(&program));
        assert!(analyse_termination(&program).cliques.is_empty());

        // Regex compilation produces an equivalent program for the same query.
        let compiled = compile_match(
            &parse_regex("a*").unwrap(),
            &sequence_datalog_regex_defaults(),
        );
        let input = Instance::unary(rel("R"), [repeat_path("a", 4), path_of(&["a", "b"])]);
        let via_regex = run_unary_query(&compiled.program, &input, compiled.output).unwrap();
        let via_equation = run_unary_query(&program, &input, rel("S")).unwrap();
        assert_eq!(via_regex, via_equation);

        // Instances round-trip through the textual format.
        let text = write_instance(&input);
        assert_eq!(
            parse_instance(&text).unwrap().unary_paths(rel("R")),
            input.unary_paths(rel("R"))
        );
    }

    fn sequence_datalog_regex_defaults() -> crate::regex::CompileOptions {
        crate::regex::CompileOptions::default()
    }
}
