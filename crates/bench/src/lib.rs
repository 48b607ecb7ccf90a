//! # seqdl-bench — experiment drivers
//!
//! Shared drivers for every figure of the paper and the derived experiments
//! (ablations, engine scaling, demand-driven queries).  The `harness` binary
//! prints each reproduction as text; the Criterion benches in `benches/` time
//! the same drivers.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod json;

use seqdl_core::{rel, repeat_path, Instance, Path, RelName};
use seqdl_engine::EvalLimits;
use seqdl_fragments::witnesses;
use seqdl_fragments::{equivalence_classes, Fragment, HasseDiagram};
use seqdl_rewrite::{
    eliminate_arity, eliminate_equations, eliminate_packing_nonrecursive,
    fold_intermediate_predicates, to_normal_form,
};
use seqdl_syntax::{parse_program, Program};
use seqdl_unify::{solve, SolutionSet, SolveOptions};
use seqdl_wgen::Workloads;
use std::collections::BTreeSet;

/// An executor with generous limits for experiments and the given
/// worker-pool size.
pub fn bench_executor(threads: usize) -> seqdl_exec::Executor {
    seqdl_exec::Executor::new()
        .with_limits(EvalLimits {
            max_iterations: 100_000,
            max_facts: 5_000_000,
            max_path_len: 1_000_000,
            ..EvalLimits::default()
        })
        .with_threads(threads)
}

// ---------------------------------------------------------------------------
// FIG-1: the Hasse diagram of Figure 1
// ---------------------------------------------------------------------------

/// Build the Figure 1 Hasse diagram over the 16 fragments of {E, I, N, R}.
pub fn figure1_diagram() -> HasseDiagram {
    HasseDiagram::build(&Fragment::all_over_einr())
}

/// Number of equivalence classes over all 64 fragments (A, P included); the paper
/// predicts the same 11 classes because A and P are redundant.
pub fn figure1_class_count_full() -> usize {
    equivalence_classes(&Fragment::all()).len()
}

// ---------------------------------------------------------------------------
// FIG-2: the unification search DAG of Figure 2
// ---------------------------------------------------------------------------

/// Solve the Figure 2 equation `$x·⟨@y·$z⟩·@w = $u·$v·$u` and return the solution
/// set (4 symbolic solutions expected).
pub fn figure2_solutions() -> SolutionSet {
    let eq = seqdl_syntax::Equation::new(
        seqdl_syntax::parse_expr("$x·<@y·$z>·@w").unwrap(),
        seqdl_syntax::parse_expr("$u·$v·$u").unwrap(),
    );
    solve(&eq, &SolveOptions::default()).expect("Figure 2 equation is one-sided nonlinear")
}

/// A scaling family for unification: solve `$x1·…·$xk = a^n` (one-sided nonlinear),
/// returning the number of symbolic solutions.
pub fn unify_split_family(k: usize, n: usize) -> usize {
    let lhs: String = (1..=k)
        .map(|i| format!("$x{i}"))
        .collect::<Vec<_>>()
        .join("·");
    let rhs: String = vec!["a"; n].join("·");
    let eq = seqdl_syntax::Equation::new(
        seqdl_syntax::parse_expr(&lhs).unwrap(),
        seqdl_syntax::parse_expr(&rhs).unwrap(),
    );
    solve(&eq, &SolveOptions::default())
        .expect("ground right-hand side always terminates")
        .solutions
        .len()
}

// ---------------------------------------------------------------------------
// FIG-3: the subsumption decision procedure
// ---------------------------------------------------------------------------

/// Decide `F1 ≤ F2` for all 64×64 fragment pairs; returns the number of subsumed
/// pairs.
pub fn figure3_decide_all() -> usize {
    let all = Fragment::all();
    let mut count = 0usize;
    for &a in &all {
        for &b in &all {
            if seqdl_fragments::subsumed_by(a, b) {
                count += 1;
            }
        }
    }
    count
}

// ---------------------------------------------------------------------------
// Rewrite ablations (EXP-A, EXP-E, EXP-P, EXP-I)
// ---------------------------------------------------------------------------

/// Evaluate a unary query and return the output paths.
pub fn run_query(program: &Program, input: &Instance, output: RelName) -> BTreeSet<Path> {
    bench_executor(1)
        .run(program, input)
        .expect("experiment programs terminate within limits")
        .unary_paths(output)
}

/// EXP-A: the reversal query (Example 4.3) with arity vs after arity elimination.
/// Returns (original output size, rewritten output size) — they must agree.
pub fn arity_ablation(n: usize) -> (usize, usize) {
    let w = witnesses::reversal_with_arity();
    let rewritten = eliminate_arity(&w.program).expect("monadic EDB");
    let input = Workloads::new(42).random_strings(rel("R"), 4, n, 3);
    let a = run_query(&w.program, &input, w.output);
    let b = run_query(&rewritten, &input, w.output);
    assert_eq!(a, b);
    (a.len(), b.len())
}

/// EXP-E: the only-a's query in its three variants ({E}, {A,I}, {A,I,R}) on `a^n`
/// plus a non-a string; returns the (identical) output sizes.
pub fn equations_ablation(n: usize) -> Vec<usize> {
    let mut input = Workloads::new(7).a_power(rel("R"), n);
    input
        .insert_fact(seqdl_core::Fact::new(
            rel("R"),
            vec![Workloads::new(7).random_string(n, 2, 99)],
        ))
        .unwrap();
    [
        witnesses::only_as_equation(),
        witnesses::only_as_intermediate(),
        witnesses::only_as_recursion(),
    ]
    .iter()
    .map(|w| run_query(&w.program, &input, w.output).len())
    .collect()
}

/// EXP-E (elimination): run the mirrored-distinct-pairs query (Example 4.6) before
/// and after full equation elimination; returns the agreeing output sizes.
pub fn equation_elimination_ablation(n: usize) -> (usize, usize) {
    let w = witnesses::mirrored_distinct_pairs();
    let rewritten = eliminate_equations(&w.program).expect("elimination succeeds");
    let workloads = Workloads::new(11);
    let mut input = workloads.a_then_b(rel("R"), n);
    input
        .insert_fact(seqdl_core::Fact::new(
            rel("R"),
            vec![workloads.random_string(2 * n, 3, 5)],
        ))
        .unwrap();
    let a = run_query(&w.program, &input, w.output);
    let b = run_query(&rewritten, &input, w.output);
    assert_eq!(a, b);
    (a.len(), b.len())
}

/// EXP-P: Example 2.2 with packing vs the 28-rule packing-free program of Example
/// 4.14; returns (rule count of the rewriting, boolean answers agree).
pub fn packing_ablation(hay_len: usize) -> (usize, bool) {
    let w = witnesses::three_occurrences();
    let rewritten =
        eliminate_packing_nonrecursive(&w.program, w.output).expect("nonrecursive program");
    let workloads = Workloads::new(3);
    let mut input = Instance::unary(rel("R"), [workloads.random_string(hay_len, 2, 1)]);
    input
        .insert_fact(seqdl_core::Fact::new(
            rel("S"),
            vec![workloads.random_string(2, 2, 1)],
        ))
        .unwrap();
    let executor = bench_executor(1);
    let a = executor
        .run(&w.program, &input)
        .unwrap()
        .nullary_true(w.output);
    let b = executor
        .run(&rewritten, &input)
        .unwrap()
        .nullary_true(w.output);
    (rewritten.rule_count(), a == b)
}

/// EXP-I: a nonrecursive pipeline before and after intermediate-predicate folding;
/// returns the agreeing output sizes.
pub fn folding_ablation(strings: usize, max_len: usize) -> (usize, usize) {
    let program =
        parse_program("T1($y) <- R(x0·$y).\nT2($y·$y) <- T1($y).\nS($z) <- T2($z·x1).").unwrap();
    let folded = fold_intermediate_predicates(&program, rel("S")).expect("nonrecursive");
    let input = Workloads::new(9).random_strings(rel("R"), strings, max_len, 2);
    let a = run_query(&program, &input, rel("S"));
    let b = run_query(&folded, &input, rel("S"));
    assert_eq!(a, b);
    (a.len(), b.len())
}

// ---------------------------------------------------------------------------
// EXP-L: output-length growth (Lemma 5.1 / Theorem 5.3)
// ---------------------------------------------------------------------------

/// Run the squaring query on `a^n`: returns the maximum output path length (expected
/// `n²`, which no nonrecursive program can reach by Lemma 5.1).
pub fn squaring_output_length(n: usize) -> usize {
    let w = witnesses::squaring();
    let input = Workloads::new(0).a_power(rel("R"), n);
    run_query(&w.program, &input, w.output)
        .iter()
        .map(Path::len)
        .max()
        .unwrap_or(0)
}

/// The linear bound of Lemma 5.1 for a nonrecursive program: `a·x + b` where `a` is
/// the largest number of path-variable occurrences and `b` the largest number of
/// atom-like occurrences in any head.
pub fn lemma51_bound(program: &Program, max_input_len: usize) -> usize {
    let a = program
        .rules()
        .flat_map(|r| {
            r.head
                .args
                .iter()
                .map(seqdl_syntax::PathExpr::path_var_count)
        })
        .max()
        .unwrap_or(0);
    let b = program
        .rules()
        .flat_map(|r| {
            r.head
                .args
                .iter()
                .map(seqdl_syntax::PathExpr::atom_like_count)
        })
        .max()
        .unwrap_or(0);
    a * max_input_len + b
}

/// Maximum output length of the nonrecursive only-a's program on `a^n` (compare
/// against [`lemma51_bound`]).
pub fn nonrecursive_output_length(n: usize) -> usize {
    let w = witnesses::only_as_equation();
    let input = Workloads::new(0).a_power(rel("R"), n);
    run_query(&w.program, &input, w.output)
        .iter()
        .map(Path::len)
        .max()
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// EXP-B / EXP-NFA: engine scaling
// ---------------------------------------------------------------------------

/// Run graph reachability (Section 5.1.1) on a random digraph with `threads`
/// compute threads; returns whether `b` is reachable from `a`.
pub fn reachability_run(nodes: usize, edges: usize, threads: usize) -> bool {
    reachability_exec_stats(nodes, edges, threads).0
}

/// Run the Example 2.1 NFA-acceptance program on a random NFA instance with
/// `threads` compute threads; returns the number of accepted words.
pub fn nfa_run(states: usize, words: usize, word_len: usize, threads: usize) -> usize {
    let w = witnesses::nfa_acceptance();
    let input = Workloads::new(23).nfa_instance(states, 2, words, word_len);
    bench_executor(threads)
        .run(&w.program, &input)
        .expect("terminates")
        .unary_paths_iter(w.output)
        .count()
}

/// [`reachability_run`], returning the run's statistics alongside the
/// answer (the input of the stats-JSON and trace schema tests).
pub fn reachability_exec_stats(
    nodes: usize,
    edges: usize,
    threads: usize,
) -> (bool, seqdl_engine::EvalStats) {
    let w = witnesses::reachability();
    let input = Workloads::new(17).digraph_instance(nodes, edges);
    let (out, stats) = bench_executor(threads)
        .run_with_stats(&w.program, &input)
        .expect("terminates");
    (out.nullary_true(w.output), stats)
}

// ---------------------------------------------------------------------------
// EXP-Q: demand-driven query evaluation (magic sets)
// ---------------------------------------------------------------------------

/// The single-source reachability goal `T(a·$y)` on the Section 5.1.1 edge
/// encoding: every node reachable from `a`.
pub fn reachability_goal() -> seqdl_syntax::Predicate {
    seqdl_rewrite::parse_goal("T(a·$y)").expect("goal parses")
}

/// Evaluate the §5.1.1 reachability program *in full* through the executor and
/// filter the `T` relation by [`reachability_goal`]; returns the answer count
/// and the run's statistics — the baseline the demanded run must match.
pub fn reachability_query_full(
    nodes: usize,
    edges: usize,
    threads: usize,
) -> (usize, seqdl_engine::EvalStats) {
    let w = witnesses::reachability();
    let goal = reachability_goal();
    let input = Workloads::new(17).digraph_instance(nodes, edges);
    let (out, stats) = bench_executor(threads)
        .run_with_stats(&w.program, &input)
        .expect("terminates");
    let answers = out.relation(rel("T")).map_or(0, |r| {
        r.iter()
            .filter(|t| seqdl_rewrite::goal_matches(&goal, t))
            .count()
    });
    (answers, stats)
}

/// Evaluate the same goal *demand-driven*: magic-set rewrite, seed, run through
/// the executor, count the filtered answers.  Must agree with
/// [`reachability_query_full`] on the answer count while firing strictly fewer
/// rules on multi-source graphs.
pub fn reachability_query_demanded(
    nodes: usize,
    edges: usize,
    threads: usize,
) -> (usize, seqdl_engine::EvalStats) {
    let w = witnesses::reachability();
    let goal = reachability_goal();
    let input = Workloads::new(17).digraph_instance(nodes, edges);
    let mp = seqdl_rewrite::magic(&w.program, &goal).expect("reachability goal rewrites");
    let (out, stats) = bench_executor(threads)
        .run_with_stats_seeded(&mp.program, &input, &mp.seeds)
        .expect("terminates");
    (mp.answers(&out).len(), stats)
}

// ---------------------------------------------------------------------------
// EXP-RA: algebra round trip (Section 7)
// ---------------------------------------------------------------------------

/// Translate the Section 5.2 program to the sequence relational algebra and evaluate
/// both on a random graph; returns (datalog answer size, algebra answer size).
pub fn algebra_roundtrip(nodes: usize, edges: usize) -> (usize, usize) {
    let w = witnesses::only_black_successors();
    let mut input = Workloads::new(31).digraph_instance(nodes, edges);
    // Colour every second node black.
    for i in (0..nodes).step_by(2) {
        let name = match i {
            0 => "a".to_string(),
            1 => "b".to_string(),
            _ => format!("n{i}"),
        };
        input
            .insert_fact(seqdl_core::Fact::new(
                rel("B"),
                vec![seqdl_core::path_of(&[name.as_str()])],
            ))
            .unwrap();
    }
    let datalog = run_query(&w.program, &input, w.output);
    let expr = seqdl_algebra::datalog_to_algebra(&w.program, w.output).expect("nonrecursive");
    let algebra: BTreeSet<Path> = seqdl_algebra::eval(&expr, &input)
        .expect("evaluation succeeds")
        .into_iter()
        .filter(|t| t.len() == 1)
        .map(|t| t[0])
        .collect();
    (datalog.len(), algebra.len())
}

/// Size (number of rules) of the Lemma 7.2 normal form of the Section 5.2 program.
pub fn normal_form_size() -> usize {
    let w = witnesses::only_black_successors();
    to_normal_form(&w.program)
        .expect("nonrecursive, equation-free")
        .rule_count()
}

/// Convenience used by benches: the `a^n` squaring instance.
pub fn squaring_instance(n: usize) -> Instance {
    Instance::unary(rel("R"), [repeat_path("a", n)])
}

// ---------------------------------------------------------------------------
// EXP-RX: regular expressions as recursion (Section 1 remark; extension)
// ---------------------------------------------------------------------------

/// A workload of random strings over a 3-letter alphabet for the regex experiments.
pub fn regex_workload(strings: usize, max_len: usize) -> Instance {
    Workloads::new(41).random_strings(rel("R"), strings, max_len, 3)
}

/// The regular expression used by the regex experiments: strings over {x0, x1, x2}
/// that contain an `x0 x1` factor and end in `x2`.
pub fn regex_pattern() -> seqdl_regex::Regex {
    seqdl_regex::parse_regex("%* x0 x1 %* x2").expect("pattern parses")
}

/// Run the compiled Sequence Datalog program for [`regex_pattern`] on a random
/// workload; returns the number of matching strings.
pub fn regex_datalog_run(strings: usize, max_len: usize) -> usize {
    let compiled =
        seqdl_regex::compile_match(&regex_pattern(), &seqdl_regex::CompileOptions::default());
    let input = regex_workload(strings, max_len);
    bench_executor(1)
        .run(&compiled.program, &input)
        .expect("terminates")
        .unary_paths_iter(compiled.output)
        .count()
}

/// Run the direct NFA simulation for [`regex_pattern`] on the same workload;
/// returns the number of matching strings (must agree with
/// [`regex_datalog_run`]).
pub fn regex_nfa_run(strings: usize, max_len: usize) -> usize {
    let nfa = seqdl_regex::Nfa::from_regex(&regex_pattern());
    let input = regex_workload(strings, max_len);
    input
        .unary_paths_iter(rel("R"))
        .filter(|p| nfa.accepts(p))
        .count()
}

// ---------------------------------------------------------------------------
// EXP-T: termination analysis (Section 2.3 discussion; extension)
// ---------------------------------------------------------------------------

/// Run the conservative termination analysis over every witness program plus the
/// diverging Example 2.3; returns (certified count, total count).
pub fn termination_survey() -> (usize, usize) {
    let mut programs: Vec<Program> = witnesses::all_witnesses()
        .into_iter()
        .map(|w| w.program)
        .collect();
    programs.push(parse_program("T(a).\nT(a·$x) <- T($x).").expect("Example 2.3 parses"));
    let total = programs.len();
    let certified = programs
        .iter()
        .filter(|p| seqdl_termination::guaranteed_terminating(p))
        .count();
    (certified, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_reproduces_eleven_classes() {
        assert_eq!(figure1_diagram().classes.len(), 11);
        assert_eq!(figure1_class_count_full(), 11);
    }

    #[test]
    fn figure2_reproduces_four_solutions() {
        let s = figure2_solutions();
        assert_eq!(s.solutions.len(), 4);
        assert_eq!(s.tree.success_count(), 4);
    }

    #[test]
    fn figure3_counts_are_consistent_with_reflexivity() {
        let count = figure3_decide_all();
        assert!(count >= 64, "at least the reflexive pairs");
        assert!(count < 64 * 64, "not everything is subsumed");
    }

    #[test]
    fn ablations_agree_between_original_and_rewritten_programs() {
        assert_eq!(arity_ablation(5).0, arity_ablation(5).1);
        let eq = equations_ablation(6);
        assert!(eq.iter().all(|&x| x == eq[0]));
        let (a, b) = folding_ablation(4, 5);
        assert_eq!(a, b);
        let (rules, agree) = packing_ablation(6);
        assert_eq!(rules, 28);
        assert!(agree);
        let (a, b) = equation_elimination_ablation(3);
        assert_eq!(a, b);
    }

    #[test]
    fn squaring_grows_quadratically_and_nonrecursive_stays_linear() {
        for n in [2usize, 3, 4] {
            assert_eq!(squaring_output_length(n), n * n);
            let linear = nonrecursive_output_length(n);
            let bound = lemma51_bound(&witnesses::only_as_equation().program, n);
            assert!(linear <= bound);
        }
    }

    #[test]
    fn demanded_queries_agree_with_full_runs_and_fire_fewer_rules() {
        for threads in [1usize, 2] {
            let (full_answers, full_stats) = reachability_query_full(12, 30, threads);
            let (demanded_answers, demanded_stats) = reachability_query_demanded(12, 30, threads);
            assert_eq!(full_answers, demanded_answers, "threads = {threads}");
            assert!(
                demanded_stats.rule_firings < full_stats.rule_firings,
                "threads = {threads}: demanded {} vs full {}",
                demanded_stats.rule_firings,
                full_stats.rule_firings
            );
        }
    }

    #[test]
    fn algebra_roundtrip_agrees() {
        let (a, b) = algebra_roundtrip(8, 12);
        assert_eq!(a, b);
        assert!(normal_form_size() > 2);
    }
}
