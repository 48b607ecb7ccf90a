//! Differential tests for the paper's feature-elimination rewrites: every rewritten
//! program must compute the same query as the original on a battery of instances,
//! and must no longer use the eliminated feature.  The original's answers come
//! from the reference evaluator (`tests/reference`, the §2.2 semantics written
//! down directly); only the rewritten program runs through the `Executor`.

mod reference;

use sequence_datalog::fragments::witnesses::{self, Witness};
use sequence_datalog::prelude::*;
use sequence_datalog::rewrite::{
    doubling_program, eliminate_arity, eliminate_equations, eliminate_packing_nonrecursive,
    eliminate_positive_equations, fold_intermediate_predicates, to_normal_form, undoubling_program,
};
use sequence_datalog::wgen::Workloads;

/// A battery of small flat unary instances over `R` that exercises empty paths,
/// repetitions, and random strings.
fn unary_battery() -> Vec<Instance> {
    let w = Workloads::new(0xB0B);
    let mut out = vec![
        Instance::unary(rel("R"), []),
        Instance::unary(rel("R"), [Path::empty()]),
        Instance::unary(rel("R"), [repeat_path("a", 1), repeat_path("a", 4)]),
        Instance::unary(rel("R"), [path_of(&["a", "b", "a"]), path_of(&["b", "b"])]),
        w.a_then_b(rel("R"), 3),
    ];
    for seed in 0..4u64 {
        let w = Workloads::new(seed);
        out.push(w.random_strings(rel("R"), 5, 6, 2));
    }
    out
}

/// Assert that `original` (through the reference evaluator) and `rewritten`
/// (through the executor) compute the same query (output relation `output`)
/// on every instance in `inputs`.
fn assert_equivalent(
    original: &Program,
    rewritten: &Program,
    output: RelName,
    inputs: &[Instance],
    label: &str,
) {
    for (i, input) in inputs.iter().enumerate() {
        let a = reference::evaluate(original, input).unary_paths(output);
        let b = run_unary_query(rewritten, input, output)
            .unwrap_or_else(|e| panic!("{label}: rewritten failed on input {i}: {e}"));
        assert_eq!(a, b, "{label}: outputs differ on input {i}");
    }
}

fn feature_set(program: &Program) -> FeatureSet {
    FeatureSet::of_program(program)
}

// ---------------------------------------------------------------------------
// Theorem 4.2 — arity elimination
// ---------------------------------------------------------------------------

#[test]
fn arity_elimination_preserves_reversal() {
    let w = witnesses::reversal_with_arity();
    let rewritten = eliminate_arity(&w.program).expect("arity elimination succeeds");
    assert!(!feature_set(&rewritten).arity, "no arity after elimination");
    assert_equivalent(
        &w.program,
        &rewritten,
        w.output,
        &unary_battery(),
        "arity/reversal",
    );
}

#[test]
fn arity_elimination_preserves_squaring() {
    let w = witnesses::squaring();
    let rewritten = eliminate_arity(&w.program).expect("arity elimination succeeds");
    assert!(!feature_set(&rewritten).arity);
    let inputs: Vec<Instance> = (0..6usize)
        .map(|n| Instance::unary(rel("R"), [repeat_path("a", n)]))
        .collect();
    assert_equivalent(&w.program, &rewritten, w.output, &inputs, "arity/squaring");
}

#[test]
fn arity_elimination_preserves_only_as_intermediate() {
    let w = witnesses::only_as_intermediate();
    let rewritten = eliminate_arity(&w.program).expect("arity elimination succeeds");
    assert!(!feature_set(&rewritten).arity);
    assert_equivalent(
        &w.program,
        &rewritten,
        w.output,
        &unary_battery(),
        "arity/only-as",
    );
}

#[test]
fn arity_elimination_is_a_no_op_on_unary_programs() {
    let w = witnesses::only_as_equation();
    let rewritten = eliminate_arity(&w.program).expect("succeeds");
    assert!(!feature_set(&rewritten).arity);
    assert_equivalent(
        &w.program,
        &rewritten,
        w.output,
        &unary_battery(),
        "arity/no-op",
    );
}

// ---------------------------------------------------------------------------
// Theorem 4.7 — equation elimination (positive and negated)
// ---------------------------------------------------------------------------

#[test]
fn positive_equation_elimination_preserves_only_as() {
    let w = witnesses::only_as_equation();
    let rewritten = eliminate_positive_equations(&w.program).expect("succeeds");
    assert!(!feature_set(&rewritten).equations, "no equations left");
    assert_equivalent(
        &w.program,
        &rewritten,
        w.output,
        &unary_battery(),
        "eq+/only-as",
    );
}

#[test]
fn equation_elimination_preserves_only_as() {
    let w = witnesses::only_as_equation();
    let rewritten = eliminate_equations(&w.program).expect("succeeds");
    assert!(!feature_set(&rewritten).equations);
    assert_equivalent(
        &w.program,
        &rewritten,
        w.output,
        &unary_battery(),
        "eq/only-as",
    );
}

#[test]
fn negated_equation_elimination_preserves_mirrored_pairs() {
    // Example 4.6 / Lemma 4.5: the recursive rule with a nonequality.
    let w = witnesses::mirrored_distinct_pairs();
    let rewritten = eliminate_equations(&w.program).expect("succeeds");
    assert!(
        !feature_set(&rewritten).equations,
        "no equations after Lemma 4.5"
    );
    let inputs = vec![
        Instance::unary(rel("R"), []),
        Instance::unary(rel("R"), [Path::empty()]),
        Instance::unary(
            rel("R"),
            [
                path_of(&["a", "b", "c", "d"]),
                path_of(&["a", "b", "b", "a"]),
                path_of(&["x", "y"]),
                path_of(&["x", "x"]),
                path_of(&["x", "y", "z"]),
            ],
        ),
        Workloads::new(9).random_strings(rel("R"), 6, 6, 3),
    ];
    assert_equivalent(&w.program, &rewritten, w.output, &inputs, "eq-/mirrored");
}

#[test]
fn equation_elimination_preserves_policy_style_program() {
    // A two-equation rule with suffix matching, plus negation across strata.
    let program = parse_program(
        "HasPay($t, $v) <- Log($t), $t = $u·order·$v, $v = $w·pay·$z.\n\
         ---\n\
         Bad($t) <- Log($t), $t = $u·order·$v, !HasPay($t, $v).\n\
         ---\n\
         Good($t) <- Log($t), !Bad($t).",
    )
    .unwrap();
    let rewritten = eliminate_equations(&program).expect("succeeds");
    assert!(!feature_set(&rewritten).equations);
    let inputs = vec![
        Instance::unary(
            rel("Log"),
            [
                path_of(&["start", "order", "ship", "pay"]),
                path_of(&["start", "order", "ship"]),
                path_of(&["order", "pay", "order"]),
                path_of(&["ship", "close"]),
            ],
        ),
        Workloads::new(4).event_log(6, 5),
    ];
    assert_equivalent(&program, &rewritten, rel("Good"), &inputs, "eq/policy");
}

// ---------------------------------------------------------------------------
// Theorem 4.15 / Lemma 4.13 — packing elimination (non-recursive)
// ---------------------------------------------------------------------------

#[test]
fn packing_elimination_preserves_three_occurrences() {
    let w = witnesses::three_occurrences();
    let rewritten =
        eliminate_packing_nonrecursive(&w.program, w.output).expect("packing elimination");
    assert!(!feature_set(&rewritten).packing, "no packing left");

    let make = |r: &[&str], s: &[&str]| {
        let mut inst = Instance::new();
        inst.declare_relation(rel("R"), 1);
        inst.declare_relation(rel("S"), 1);
        for p in r {
            inst.insert_fact(Fact::new(
                rel("R"),
                vec![path_of(&p.split('·').collect::<Vec<_>>())],
            ))
            .unwrap();
        }
        for p in s {
            inst.insert_fact(Fact::new(
                rel("S"),
                vec![path_of(&p.split('·').collect::<Vec<_>>())],
            ))
            .unwrap();
        }
        inst
    };
    let inputs = [
        make(&["a·b·a·b·a·b"], &["a·b"]),
        make(&["a·b·a·b"], &["a·b"]),
        make(&["a·a·a·a"], &["a"]),
        make(&["x·y", "y·x", "x·x"], &["x"]),
        make(&[], &["a"]),
    ];
    for (i, input) in inputs.iter().enumerate() {
        let a = reference::evaluate(&w.program, input).nullary_true(w.output);
        let b = run_boolean_query(&rewritten, input, w.output).unwrap();
        assert_eq!(a, b, "packing/three-occurrences differ on input {i}");
    }
}

#[test]
fn packing_elimination_preserves_simple_packing_program() {
    // Mark every string that contains some S-string as a bracketed substring, then
    // extract the prefix before the bracket.
    let program = parse_program(
        "T($u·<$s>·$v) <- R($u·$s·$v), S($s).\n\
         ---\n\
         Out($u) <- T($u·<$s>·$v), S($s).",
    )
    .unwrap();
    let rewritten = eliminate_packing_nonrecursive(&program, rel("Out")).expect("succeeds");
    assert!(!feature_set(&rewritten).packing);

    let mut input = Instance::new();
    input.declare_relation(rel("R"), 1);
    input.declare_relation(rel("S"), 1);
    input
        .insert_fact(Fact::new(rel("R"), vec![path_of(&["x", "a", "b", "y"])]))
        .unwrap();
    input
        .insert_fact(Fact::new(rel("R"), vec![path_of(&["a", "b"])]))
        .unwrap();
    input
        .insert_fact(Fact::new(rel("S"), vec![path_of(&["a", "b"])]))
        .unwrap();
    let a = reference::evaluate(&program, &input).unary_paths(rel("Out"));
    let b = run_unary_query(&rewritten, &input, rel("Out")).unwrap();
    assert_eq!(a, b);
    assert!(a.contains(&path_of(&["x"])));
    assert!(a.contains(&Path::empty()));
}

#[test]
fn packing_elimination_rejects_recursive_programs() {
    let program = parse_program("T(<$x>) <- R($x).\nT(<$x>) <- T($x).\nS($x) <- T($x).").unwrap();
    let err = eliminate_packing_nonrecursive(&program, rel("S"));
    assert!(
        err.is_err(),
        "recursive packing elimination is explicitly unsupported"
    );
}

#[test]
fn doubling_then_undoubling_is_identity_on_flat_relations() {
    // Theorem 4.15's pre/post-processing: doubling R into R2 and undoubling back
    // into R3 must reproduce the original paths.
    let doubling = doubling_program(rel("R"), rel("R2"));
    let undoubling = undoubling_program(rel("R2"), rel("R3"));
    assert!(
        !FeatureSet::of_program(&doubling).negation,
        "doubling avoids negation"
    );
    assert!(
        !FeatureSet::of_program(&undoubling).negation,
        "undoubling avoids negation"
    );

    for input in unary_battery() {
        let doubled = Executor::new()
            .run(&doubling, &input)
            .expect("doubling terminates");
        assert_eq!(doubled, reference::evaluate(&doubling, &input));
        // Every doubled path has even length, twice the original.
        let orig = input.unary_paths(rel("R"));
        let dbl = doubled.unary_paths(rel("R2"));
        assert_eq!(orig.len(), dbl.len());
        for p in &dbl {
            assert_eq!(p.len() % 2, 0);
        }
        // Feed the doubled relation back through undoubling.
        let mid = Instance::unary(rel("R2"), dbl);
        let restored = Executor::new()
            .run(&undoubling, &mid)
            .expect("undoubling terminates");
        assert_eq!(restored, reference::evaluate(&undoubling, &mid));
        assert_eq!(restored.unary_paths(rel("R3")), orig);
    }
}

// ---------------------------------------------------------------------------
// Theorem 4.16 — intermediate-predicate folding
// ---------------------------------------------------------------------------

#[test]
fn folding_eliminates_intermediate_predicates() {
    let w = witnesses::only_as_intermediate();
    let folded = fold_intermediate_predicates(&w.program, w.output).expect("folding succeeds");
    assert!(
        !FeatureSet::of_program(&folded).intermediate,
        "a single IDB relation remains after folding"
    );
    assert_equivalent(
        &w.program,
        &folded,
        w.output,
        &unary_battery(),
        "fold/only-as",
    );
}

#[test]
fn folding_preserves_a_three_stage_pipeline() {
    // A nonrecursive pipeline with three IDB relations and no negation.
    let program = parse_program(
        "A($x·$x) <- R($x).\n\
         B($x·c) <- A($x).\n\
         Out($y) <- B(d·$y).",
    )
    .unwrap();
    let folded = fold_intermediate_predicates(&program, rel("Out")).expect("folding succeeds");
    assert!(!FeatureSet::of_program(&folded).intermediate);
    let inputs = vec![
        Instance::unary(
            rel("R"),
            [path_of(&["d"]), path_of(&["d", "e"]), path_of(&["e"])],
        ),
        Instance::unary(rel("R"), [Path::empty()]),
        Workloads::new(11).random_strings(rel("R"), 6, 4, 3),
    ];
    assert_equivalent(&program, &folded, rel("Out"), &inputs, "fold/pipeline");
}

#[test]
fn folding_rejects_recursive_programs() {
    let w = witnesses::squaring();
    assert!(fold_intermediate_predicates(&w.program, w.output).is_err());
}

// ---------------------------------------------------------------------------
// Lemma 7.2 — normal form
// ---------------------------------------------------------------------------

#[test]
fn normal_form_preserves_equation_free_programs() {
    use sequence_datalog::rewrite::classify_rule;
    let cases: Vec<(&str, &str)> = vec![
        ("T(a·$x, $x) <- R($x).\nS($x) <- T($x·a, $x).", "S"),
        ("S($y·$x) <- R($x·$y), Q($y).", "S"),
        (
            "W(@x) <- R(@x·@y), !B(@y).\n---\nS(@x) <- R(@x·@y), !W(@x).",
            "S",
        ),
    ];
    for (src, out) in cases {
        let program = parse_program(src).unwrap();
        let normal = to_normal_form(&program).expect("normalization succeeds");
        for rule in normal.rules() {
            assert!(
                classify_rule(rule).is_some(),
                "rule `{rule}` is not in one of the six normal forms"
            );
        }
        let mut inputs = unary_battery();
        // Provide Q and B relations for the cases that need them.
        for inst in &mut inputs {
            inst.declare_relation(rel("Q"), 1);
            inst.insert_fact(Fact::new(rel("Q"), vec![path_of(&["a"])]))
                .unwrap();
            inst.declare_relation(rel("B"), 1);
            inst.insert_fact(Fact::new(rel("B"), vec![path_of(&["a"])]))
                .unwrap();
        }
        assert_equivalent(&program, &normal, rel(out), &inputs, "normal-form");
    }
}

// ---------------------------------------------------------------------------
// Figure 3 / Theorem 6.1 — constructive fragment rewriting
// ---------------------------------------------------------------------------

#[test]
fn rewrite_into_moves_witnesses_into_subsuming_fragments() {
    use sequence_datalog::fragments::rewrite_into;
    let interesting: Vec<Witness> = vec![
        witnesses::only_as_equation(),
        witnesses::only_as_intermediate(),
        witnesses::reversal_with_arity(),
    ];
    for w in interesting {
        let source = Fragment::of_program(&w.program);
        for target in Fragment::all_over_einr() {
            if !subsumed_by(source, target) {
                continue;
            }
            let rewritten = rewrite_into(&w.program, w.output, target)
                .unwrap_or_else(|e| panic!("{}: rewrite into {target} failed: {e}", w.name));
            // A and P are redundant, so compare modulo them (Fragment::hat).
            let result = Fragment::of_program(&rewritten).hat();
            assert!(
                result.is_subset_of(target),
                "{}: rewriting into {target} produced fragment {result}",
                w.name
            );
            assert_equivalent(
                &w.program,
                &rewritten,
                w.output,
                &unary_battery(),
                &format!("{} -> {target}", w.name),
            );
        }
    }
}
