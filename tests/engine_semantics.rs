//! Integration tests for the evaluation engine: stratified-negation semantics,
//! agreement with the naive reference evaluator, resource limits, and
//! associative matching through the engine.

mod reference;

use sequence_datalog::core::Schema;
use sequence_datalog::engine::EvalError;
use sequence_datalog::fragments::witnesses;
use sequence_datalog::prelude::*;
use sequence_datalog::wgen::Workloads;
use std::collections::BTreeMap;

fn p(spec: &str) -> Path {
    if spec.is_empty() {
        Path::empty()
    } else {
        path_of(&spec.split('·').collect::<Vec<_>>())
    }
}

// ---------------------------------------------------------------------------
// Naive (reference) vs semi-naive (engine)
// ---------------------------------------------------------------------------

#[test]
fn naive_and_semi_naive_agree_on_all_witnesses() {
    let w = Workloads::new(42);
    for witness in witnesses::all_witnesses() {
        // Build an instance covering every EDB relation the witness might read,
        // taking care never to pre-populate one of its IDB relations.
        let mut input = w.nfa_instance(4, 2, 4, 6);
        input = input
            .union(&w.digraph_instance(6, 12))
            .expect("compatible schemas");
        if !witness.program.idb_relations().contains(&rel("S")) {
            input = input
                .union(&w.random_strings(rel("S"), 3, 3, 9))
                .expect("compatible schemas");
        }
        input.declare_relation(rel("B"), 1);
        input
            .insert_fact(Fact::new(rel("B"), vec![p("a")]))
            .unwrap();

        let semi = Executor::new()
            .run(&witness.program, &input)
            .unwrap_or_else(|e| panic!("{}: semi-naive failed: {e}", witness.name));
        let naive = reference::evaluate(&witness.program, &input);
        assert_eq!(
            naive, semi,
            "{}: engine disagrees with the reference",
            witness.name
        );
    }
}

#[test]
fn semi_naive_fires_each_reachability_valuation_exactly_once() {
    // Regression guard for the delta-watermark evaluation on the Section 5.1.1
    // reachability program.  Semi-naive evaluation never re-fires a valuation:
    // the hoisted base rule fires once per edge, the recursive rule once per
    // pair of a T(x·y) fact and an R(y·z) edge, and `S <- T(a·b)` once if `b`
    // is reachable from `a`.  Naive evaluation would re-fire all of them every
    // round.
    let w = witnesses::reachability();
    let input = Workloads::new(3).digraph_instance(24, 80);
    let edges = input.relation(rel("R")).unwrap().tuples();
    let mut outdeg: BTreeMap<Value, usize> = BTreeMap::new();
    for edge in &edges {
        *outdeg.entry(edge[0].values()[0]).or_default() += 1;
    }
    let expected = reference::evaluate(&w.program, &input);
    let recursive: usize = expected
        .unary_paths(rel("T"))
        .iter()
        .map(|t| outdeg.get(&t.values()[1]).copied().unwrap_or(0))
        .sum();
    let firings = edges.len() + recursive + usize::from(expected.nullary_true(w.output));
    for threads in [1usize, 4] {
        let (output, stats) = Executor::new()
            .with_threads(threads)
            .run_with_stats(&w.program, &input)
            .unwrap();
        assert_eq!(output, expected, "threads = {threads}");
        assert_eq!(stats.rule_firings, firings, "threads = {threads}");
    }
}

#[test]
fn a_row_one_job_derives_twice_is_stored_once() {
    // Both R facts fire the rule in the same job and ground the same new
    // head row T(a): the job buffers it twice, and the merge keeps one.
    let program = parse_program("T(@x) <- R(@x·@y).").unwrap();
    let input = Instance::unary(rel("R"), [p("a·b"), p("a·c")]);
    let mut outputs = Vec::new();
    for threads in [1usize, 4] {
        let (output, stats) = Executor::new()
            .with_threads(threads)
            .run_with_stats(&program, &input)
            .unwrap();
        assert_eq!(stats.rule_firings, 2, "threads = {threads}");
        assert_eq!(stats.derived_facts, 1, "threads = {threads}");
        assert_eq!(stats.emit_memo_hits, 0, "threads = {threads}");
        assert_eq!(stats.rules.len(), 1, "threads = {threads}");
        assert_eq!(stats.rules[0].firings, 2, "threads = {threads}");
        assert_eq!(stats.rules[0].derived_facts, 1, "threads = {threads}");
        assert_eq!(
            output.unary_paths(rel("T")),
            [p("a")].into_iter().collect(),
            "threads = {threads}"
        );
        assert_eq!(output.relation(rel("T")).unwrap().len(), 1);
        outputs.push(output);
    }
    assert_eq!(outputs[0], outputs[1]);
}

// ---------------------------------------------------------------------------
// Stratified negation
// ---------------------------------------------------------------------------

#[test]
fn stratified_negation_is_applied_stratum_by_stratum() {
    // Stratum 1 computes Reach; stratum 2 computes the complement over nodes.
    let program = parse_program(
        "Node(@x) <- E(@x·@y).\nNode(@y) <- E(@x·@y).\n\
         Reach(a) <- Node(a).\nReach(@y) <- Reach(@x), E(@x·@y).\n\
         ---\n\
         Unreach(@x) <- Node(@x), !Reach(@x).",
    )
    .unwrap();
    let input = Instance::unary(rel("E"), [p("a·b"), p("b·c"), p("d·e")]);
    let out = Executor::new().run(&program, &input).unwrap();
    let unreach = out.unary_paths(rel("Unreach"));
    assert_eq!(unreach, [p("d"), p("e")].into_iter().collect());
    let reach = out.unary_paths(rel("Reach"));
    assert_eq!(reach, [p("a"), p("b"), p("c")].into_iter().collect());
}

#[test]
fn negation_against_edb_relations_is_semipositive() {
    let program = parse_program("S($x) <- R($x), !Q($x).").unwrap();
    let mut input = Instance::unary(rel("R"), [p("a"), p("b"), p("a·b")]);
    input.declare_relation(rel("Q"), 1);
    input
        .insert_fact(Fact::new(rel("Q"), vec![p("a")]))
        .unwrap();
    let out = run_unary_query(&program, &input, rel("S")).unwrap();
    assert_eq!(out, [p("b"), p("a·b")].into_iter().collect());
}

#[test]
fn unstratified_negation_is_rejected() {
    // P negated in the same stratum in which it is defined.
    let program = parse_program("P($x) <- R($x), !Q($x).\nQ($x) <- R($x), !P($x).").unwrap();
    let input = Instance::unary(rel("R"), [p("a")]);
    let result = Executor::new().run(&program, &input);
    assert!(matches!(result, Err(EvalError::IllFormed(_))));
}

#[test]
fn unsafe_rules_are_rejected() {
    // $y occurs only in the head.
    let program = parse_program("S($x·$y) <- R($x).").unwrap();
    let input = Instance::unary(rel("R"), [p("a")]);
    assert!(matches!(
        Executor::new().run(&program, &input),
        Err(EvalError::IllFormed(_))
    ));
}

#[test]
fn negated_equations_respect_valuations() {
    let program = parse_program("S($x·$y) <- R($x), R($y), $x != $y.").unwrap();
    let input = Instance::unary(rel("R"), [p("a"), p("b")]);
    let out = run_unary_query(&program, &input, rel("S")).unwrap();
    assert_eq!(out, [p("a·b"), p("b·a")].into_iter().collect());
}

// ---------------------------------------------------------------------------
// Associative matching through the engine
// ---------------------------------------------------------------------------

#[test]
fn matching_enumerates_all_decompositions() {
    // Splitting a path into two parts: every split point must be produced.
    let program = parse_program("Split($x·sep·$y) <- R($x·$y).").unwrap();
    let input = Instance::unary(rel("R"), [p("a·b·c")]);
    let out = run_unary_query(&program, &input, rel("Split")).unwrap();
    assert_eq!(
        out,
        [
            p("sep·a·b·c"),
            p("a·sep·b·c"),
            p("a·b·sep·c"),
            p("a·b·c·sep"),
        ]
        .into_iter()
        .collect()
    );
}

#[test]
fn matching_atomic_variables_only_binds_single_atoms() {
    let program = parse_program("First(@x) <- R(@x·$rest).").unwrap();
    let input = Instance::unary(rel("R"), [p("a·b·c"), p("z"), Path::empty()]);
    let out = run_unary_query(&program, &input, rel("First")).unwrap();
    assert_eq!(out, [p("a"), p("z")].into_iter().collect());
}

#[test]
fn matching_repeated_variables_requires_equal_bindings() {
    let program = parse_program("Square($x) <- R($x·$x).").unwrap();
    let input = Instance::unary(
        rel("R"),
        [
            p("a·b·a·b"),
            p("a·b·b·a"),
            p("a·a"),
            p("a·b·c"),
            Path::empty(),
        ],
    );
    let out = run_unary_query(&program, &input, rel("Square")).unwrap();
    assert_eq!(out, [p("a·b"), p("a"), p("")].into_iter().collect());
}

#[test]
fn matching_packed_values_requires_structural_equality() {
    // Pack in an intermediate relation, then match against the packed structure.
    let program = parse_program("T(<$x>·$y) <- R($x·$y).\n---\nInner($x) <- T(<$x>·$y).").unwrap();
    let input = Instance::unary(rel("R"), [p("a·b")]);
    let out = run_unary_query(&program, &input, rel("Inner")).unwrap();
    // Splits of a·b: (ε, a·b), (a, b), (a·b, ε) — the packed prefix is each of ε, a, a·b.
    assert_eq!(out, [p(""), p("a"), p("a·b")].into_iter().collect());
}

#[test]
fn equations_bind_variables_when_one_side_is_ground() {
    let program = parse_program("S($y) <- R($x), $x = a·$y·b.").unwrap();
    let input = Instance::unary(rel("R"), [p("a·q·r·b"), p("a·b"), p("x·y"), p("a·q")]);
    let out = run_unary_query(&program, &input, rel("S")).unwrap();
    assert_eq!(out, [p("q·r"), p("")].into_iter().collect());
}

// ---------------------------------------------------------------------------
// Limits and statistics
// ---------------------------------------------------------------------------

#[test]
fn fact_limit_stops_blowing_up_programs() {
    // The cross-product of substrings grows quickly; a small fact limit must stop it.
    let program = parse_program("Pairs($x·$y) <- R($u·$x·$v), R($w·$y·$z).").unwrap();
    let input = Instance::unary(rel("R"), [Workloads::new(1).random_string(14, 3, 0)]);
    let limits = EvalLimits {
        max_iterations: 100,
        max_facts: 50,
        max_path_len: 10_000,
        ..EvalLimits::default()
    };
    let result = Executor::new().with_limits(limits).run(&program, &input);
    assert!(matches!(result, Err(EvalError::LimitExceeded { .. })));
}

#[test]
fn path_length_limit_stops_growing_programs() {
    let program = parse_program("T(a).\nT($x·$x) <- T($x).").unwrap();
    let limits = EvalLimits {
        max_iterations: 1_000,
        max_facts: 1_000_000,
        max_path_len: 32,
        ..EvalLimits::default()
    };
    let result = Executor::new()
        .with_limits(limits)
        .run(&program, &Instance::new());
    assert!(matches!(result, Err(EvalError::LimitExceeded { .. })));
}

#[test]
fn stats_reflect_the_amount_of_work_done() {
    let w = witnesses::reachability();
    let small = Workloads::new(1).digraph_instance(6, 10);
    let large = Workloads::new(1).digraph_instance(40, 160);
    let (_, small_stats) = Executor::new().run_with_stats(&w.program, &small).unwrap();
    let (_, large_stats) = Executor::new().run_with_stats(&w.program, &large).unwrap();
    assert!(large_stats.derived_facts >= small_stats.derived_facts);
    assert!(large_stats.rule_firings >= small_stats.rule_firings);
    assert!(small_stats.iterations >= 1);
}

#[test]
fn outputs_of_flat_queries_on_flat_instances_are_flat() {
    // Even programs that use packing internally produce flat output relations when
    // the query is flat-to-flat (the paper's baseline query class).
    let w = witnesses::three_occurrences();
    let mut input = Instance::new();
    input.declare_relation(rel("R"), 1);
    input.declare_relation(rel("S"), 1);
    input
        .insert_fact(Fact::new(rel("R"), vec![p("a·b·a·b·a·b")]))
        .unwrap();
    input
        .insert_fact(Fact::new(rel("S"), vec![p("a·b")]))
        .unwrap();
    let out = Executor::new().run(&w.program, &input).unwrap();
    // The packed intermediate relation T is not flat, but the input and the nullary
    // output are; projecting the result to the output schema yields a flat instance.
    let mut schema = Schema::new();
    schema.declare(w.output, 0);
    assert!(out.project_to_schema(&schema).is_flat());
}
