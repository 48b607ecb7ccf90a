//! End-to-end integration tests running every worked example of the paper through
//! the parser, the analyses, and the evaluation engine.

use sequence_datalog::engine::error::LimitKind;
use sequence_datalog::engine::EvalError;
use sequence_datalog::fragments::witnesses;
use sequence_datalog::prelude::*;

fn ab_path(spec: &str) -> Path {
    path_of(
        &spec
            .split('·')
            .filter(|s| !s.is_empty())
            .collect::<Vec<_>>(),
    )
}

/// Example 2.1 — NFA acceptance.  We hand-build the NFA accepting `(ab)^+` and check
/// that exactly the accepted strings from `R` end up in `A`.
#[test]
fn example_2_1_nfa_acceptance() {
    let witness = witnesses::nfa_acceptance();
    let mut input = Instance::new();
    // States: q0 (initial), q1; accepting state q0 after at least one "ab"? Use q2 as
    // final to keep it simple: q0 --a--> q1 --b--> q2, q2 --a--> q1.
    input.declare_relation(rel("N"), 1);
    input.declare_relation(rel("F"), 1);
    input.declare_relation(rel("D"), 3);
    input.declare_relation(rel("R"), 1);
    input
        .insert_fact(Fact::new(rel("N"), vec![path_of(&["q0"])]))
        .unwrap();
    input
        .insert_fact(Fact::new(rel("F"), vec![path_of(&["q2"])]))
        .unwrap();
    for (from, sym, to) in [("q0", "a", "q1"), ("q1", "b", "q2"), ("q2", "a", "q1")] {
        input
            .insert_fact(Fact::new(
                rel("D"),
                vec![path_of(&[from]), path_of(&[sym]), path_of(&[to])],
            ))
            .unwrap();
    }
    for s in ["a·b", "a·b·a·b", "a", "b·a", "a·b·a", ""] {
        input
            .insert_fact(Fact::new(rel("R"), vec![ab_path(s)]))
            .unwrap();
    }

    let output = Executor::new()
        .run(&witness.program, &input)
        .expect("terminates");
    let accepted = output.unary_paths(witness.output);
    assert!(accepted.contains(&ab_path("a·b")));
    assert!(accepted.contains(&ab_path("a·b·a·b")));
    assert!(!accepted.contains(&ab_path("a")));
    assert!(!accepted.contains(&ab_path("b·a")));
    assert!(!accepted.contains(&ab_path("a·b·a")));
    assert!(!accepted.contains(&Path::empty()));
    assert_eq!(accepted.len(), 2);
}

/// Example 2.2 — "at least three different occurrences of an S-string inside R-strings",
/// using packing and nonequalities.
#[test]
fn example_2_2_three_occurrences() {
    let witness = witnesses::three_occurrences();

    // "abab a" contains "ab" at two positions; adding "abab·ab" gives >= 3 distinct
    // packed occurrences overall.
    let mut yes = Instance::new();
    yes.declare_relation(rel("R"), 1);
    yes.declare_relation(rel("S"), 1);
    yes.insert_fact(Fact::new(rel("R"), vec![ab_path("a·b·a·b·a·b")]))
        .unwrap();
    yes.insert_fact(Fact::new(rel("S"), vec![ab_path("a·b")]))
        .unwrap();
    let out = Executor::new()
        .run(&witness.program, &yes)
        .expect("terminates");
    assert!(out.nullary_true(witness.output), "three occurrences exist");

    // Only two occurrences: a·b·a·b.
    let mut no = Instance::new();
    no.declare_relation(rel("R"), 1);
    no.declare_relation(rel("S"), 1);
    no.insert_fact(Fact::new(rel("R"), vec![ab_path("a·b·a·b")]))
        .unwrap();
    no.insert_fact(Fact::new(rel("S"), vec![ab_path("a·b")]))
        .unwrap();
    let out = Executor::new()
        .run(&witness.program, &no)
        .expect("terminates");
    assert!(!out.nullary_true(witness.output), "only two occurrences");
}

/// Example 2.3 — the two-rule program `T(a).  T(a·$x) <- T($x).` does not terminate;
/// the engine must stop at a resource limit instead of diverging.
#[test]
fn example_2_3_nonterminating_program_hits_a_limit() {
    let program = parse_program("T(a).\nT(a·$x) <- T($x).").expect("parses");
    let limits = EvalLimits {
        max_iterations: 50,
        max_facts: 10_000,
        max_path_len: 64,
        ..EvalLimits::default()
    };
    let executor = Executor::new().with_limits(limits);
    let err = executor
        .run(&program, &Instance::new())
        .expect_err("must not terminate normally");
    match err {
        EvalError::LimitExceeded { what, .. } => {
            assert!(matches!(
                what,
                LimitKind::Iterations | LimitKind::Facts | LimitKind::PathLength
            ));
        }
        other => panic!("expected LimitExceeded, got {other:?}"),
    }
}

/// Example 3.1 — "only a's" expressed in {E}, {A,I,R} and {A,I} (Example 4.4) all
/// compute the same query.
#[test]
fn example_3_1_only_as_three_ways_agree() {
    let variants = [
        witnesses::only_as_equation(),
        witnesses::only_as_recursion(),
        witnesses::only_as_intermediate(),
    ];
    let input = Instance::unary(
        rel("R"),
        [
            repeat_path("a", 7),
            repeat_path("a", 1),
            Path::empty(),
            ab_path("a·b·a"),
            ab_path("b"),
            repeat_path("b", 4),
        ],
    );
    let expected: Vec<Path> = vec![Path::empty(), repeat_path("a", 1), repeat_path("a", 7)];
    for w in variants {
        let got = run_unary_query(&w.program, &input, w.output).expect("terminates");
        assert_eq!(
            got.into_iter().collect::<Vec<_>>(),
            expected,
            "witness {} disagrees",
            w.name
        );
    }
}

/// Example 4.3 — reversal with arity and the arity-free pairing-encoded version agree.
#[test]
fn example_4_3_reversal_variants_agree() {
    let with_arity = witnesses::reversal_with_arity();
    let without_arity = witnesses::reversal_without_arity();
    let input = Instance::unary(
        rel("R"),
        [
            ab_path("x·y·z"),
            ab_path("p·q"),
            Path::empty(),
            ab_path("m"),
        ],
    );
    let a = run_unary_query(&with_arity.program, &input, with_arity.output).unwrap();
    let b = run_unary_query(&without_arity.program, &input, without_arity.output).unwrap();
    assert_eq!(a, b);
    assert!(a.contains(&ab_path("z·y·x")));
    assert!(a.contains(&ab_path("q·p")));
    assert!(a.contains(&Path::empty()));
    assert!(a.contains(&ab_path("m")));
}

/// Example 4.6 — strings of the form `a1…an·bn…b1` with `ai ≠ bi` for every i.
#[test]
fn example_4_6_mirrored_distinct_pairs() {
    let w = witnesses::mirrored_distinct_pairs();
    let input = Instance::unary(
        rel("R"),
        [
            ab_path("a·b·c·d"), // pairs (a,d), (b,c) — all distinct => accepted
            ab_path("a·b·b·a"), // pairs (a,a), (b,b) — equal => rejected
            ab_path("a·b·b·c"), // pairs (a,c) ok, (b,b) equal => rejected
            Path::empty(),      // n = 0 => accepted (vacuously)
            ab_path("x·y"),     // pair (x,y) distinct => accepted
            ab_path("x·x"),     // pair (x,x) => rejected
            ab_path("x·y·z"),   // odd length => rejected
        ],
    );
    let got = run_unary_query(&w.program, &input, w.output).unwrap();
    assert!(got.contains(&ab_path("a·b·c·d")));
    assert!(got.contains(&Path::empty()));
    assert!(got.contains(&ab_path("x·y")));
    assert!(!got.contains(&ab_path("a·b·b·a")));
    assert!(!got.contains(&ab_path("a·b·b·c")));
    assert!(!got.contains(&ab_path("x·x")));
    assert!(!got.contains(&ab_path("x·y·z")));
    assert_eq!(got.len(), 3);
}

/// Theorem 5.3 — the squaring query outputs `a^(n²)` for input `R(a^n)`.
#[test]
fn theorem_5_3_squaring_query() {
    let w = witnesses::squaring();
    for n in [0usize, 1, 2, 3, 5, 8] {
        let input = Instance::unary(rel("R"), [repeat_path("a", n)]);
        let out = run_unary_query(&w.program, &input, w.output).unwrap();
        assert!(
            out.contains(&repeat_path("a", n * n)),
            "a^{} missing from output for n = {n}",
            n * n
        );
        // The output is exactly the prefix-closure steps of the construction; the
        // longest path must be exactly n².
        let max = out.iter().map(Path::len).max().unwrap_or(0);
        assert_eq!(max, n * n, "longest output path is n² for n = {n}");
    }
}

/// Section 5.1.1 — graph reachability a →* b on length-2-path-encoded edges.
#[test]
fn section_5_1_1_reachability() {
    let w = witnesses::reachability();
    // Graph: a -> c -> d -> b  plus an irrelevant edge e -> f.
    let edges = |pairs: &[(&str, &str)]| {
        Instance::unary(
            rel("R"),
            pairs
                .iter()
                .map(|(x, y)| path_of(&[*x, *y]))
                .collect::<Vec<_>>(),
        )
    };
    let reachable = edges(&[("a", "c"), ("c", "d"), ("d", "b"), ("e", "f")]);
    assert!(run_boolean_query(&w.program, &reachable, w.output).unwrap());

    let unreachable = edges(&[("a", "c"), ("d", "b"), ("e", "f")]);
    assert!(!run_boolean_query(&w.program, &unreachable, w.output).unwrap());

    // Direct edge.
    let direct = edges(&[("a", "b")]);
    assert!(run_boolean_query(&w.program, &direct, w.output).unwrap());

    // Cycle not involving b.
    let cycle = edges(&[("a", "c"), ("c", "a")]);
    assert!(!run_boolean_query(&w.program, &cycle, w.output).unwrap());
}

/// Section 5.2 — "nodes all of whose successors are black" ({I, N} witness).
#[test]
fn section_5_2_only_black_successors() {
    let w = witnesses::only_black_successors();
    let mut input = Instance::new();
    input.declare_relation(rel("R"), 1);
    input.declare_relation(rel("B"), 1);
    // Edges: a -> b1, a -> b2 (both black);  c -> b1, c -> w1 (one white);
    //        d -> w1 (white only).
    for (x, y) in [
        ("a", "b1"),
        ("a", "b2"),
        ("c", "b1"),
        ("c", "w1"),
        ("d", "w1"),
    ] {
        input
            .insert_fact(Fact::new(rel("R"), vec![path_of(&[x, y])]))
            .unwrap();
    }
    for b in ["b1", "b2"] {
        input
            .insert_fact(Fact::new(rel("B"), vec![path_of(&[b])]))
            .unwrap();
    }
    let got = run_unary_query(&w.program, &input, w.output).unwrap();
    assert!(
        got.contains(&path_of(&["a"])),
        "all of a's successors are black"
    );
    assert!(!got.contains(&path_of(&["c"])), "c has a white successor");
    assert!(
        !got.contains(&path_of(&["d"])),
        "d has only white successors"
    );
    assert_eq!(got.len(), 1);
}

/// Every witness program advertises a fragment consistent with its actual features,
/// and all witnesses parse, are safe, and are stratified.
#[test]
fn witnesses_are_well_formed_and_runnable() {
    use sequence_datalog::syntax::analysis::{check_safety, check_stratification};
    for w in witnesses::all_witnesses() {
        check_safety(&w.program).unwrap_or_else(|e| panic!("{}: unsafe: {e}", w.name));
        check_stratification(&w.program)
            .unwrap_or_else(|e| panic!("{}: not stratified: {e}", w.name));
        assert!(
            w.program.idb_relations().contains(&w.output),
            "{}: output relation is an IDB relation",
            w.name
        );
    }
}

/// The introduction's JSON "Sales" restructuring: swapping the first two elements of
/// every item·year·value path groups sales by year instead of by item.
#[test]
fn introduction_sales_restructuring() {
    let program = parse_program("ByYear(@y·@i·$v) <- Sales(@i·@y·$v).").expect("parses");
    let input = Instance::unary(
        rel("Sales"),
        [
            path_of(&["shoe", "2020", "17"]),
            path_of(&["shoe", "2021", "23"]),
            path_of(&["hat", "2020", "5"]),
        ],
    );
    let got = run_unary_query(&program, &input, rel("ByYear")).unwrap();
    assert_eq!(got.len(), 3);
    assert!(got.contains(&path_of(&["2020", "shoe", "17"])));
    assert!(got.contains(&path_of(&["2021", "shoe", "23"])));
    assert!(got.contains(&path_of(&["2020", "hat", "5"])));
}

/// The introduction's process-mining policy: every occurrence of `order` is eventually
/// followed by `pay`.  Expressed with negation over a violation relation.
#[test]
fn introduction_process_mining_policy() {
    let program = parse_program(
        "HasPay($t, $v) <- Log($t), $t = $u·order·$v, $v = $w·pay·$z.\n\
         ---\n\
         Bad($t) <- Log($t), $t = $u·order·$v, !HasPay($t, $v).\n\
         ---\n\
         Good($t) <- Log($t), !Bad($t).",
    )
    .expect("parses");
    let input = Instance::unary(
        rel("Log"),
        [
            path_of(&["start", "order", "ship", "pay"]),
            path_of(&["start", "order", "ship"]),
            path_of(&["start", "ship", "close"]),
            path_of(&["order", "pay", "order", "pay"]),
            path_of(&["order", "pay", "order"]),
        ],
    );
    let got = run_unary_query(&program, &input, rel("Good")).unwrap();
    assert!(got.contains(&path_of(&["start", "order", "ship", "pay"])));
    assert!(got.contains(&path_of(&["start", "ship", "close"])));
    assert!(got.contains(&path_of(&["order", "pay", "order", "pay"])));
    assert!(!got.contains(&path_of(&["start", "order", "ship"])));
    assert!(!got.contains(&path_of(&["order", "pay", "order"])));
    assert_eq!(got.len(), 3);
}

/// Deep equality of two sets of sequences (the introduction's JSON deep-equal
/// motivation): R and S are deep-equal iff neither contains a path missing from the
/// other.
#[test]
fn introduction_deep_equality() {
    let program = parse_program(
        "OnlyR($x) <- R($x), !S($x).\nOnlyS($x) <- S($x), !R($x).\n\
         ---\n\
         Diff <- OnlyR($x).\nDiff <- OnlyS($x).\n\
         ---\n\
         Eq <- !Diff, R($x).",
    )
    .expect("parses");
    let mut equal = Instance::new();
    equal.declare_relation(rel("R"), 1);
    equal.declare_relation(rel("S"), 1);
    for r in ["a·b", "c"] {
        equal
            .insert_fact(Fact::new(rel("R"), vec![ab_path(r)]))
            .unwrap();
        equal
            .insert_fact(Fact::new(rel("S"), vec![ab_path(r)]))
            .unwrap();
    }
    assert!(run_boolean_query(&program, &equal, rel("Eq")).unwrap());

    let mut unequal = Instance::new();
    unequal.declare_relation(rel("R"), 1);
    unequal.declare_relation(rel("S"), 1);
    unequal
        .insert_fact(Fact::new(rel("R"), vec![ab_path("a·b")]))
        .unwrap();
    unequal
        .insert_fact(Fact::new(rel("S"), vec![ab_path("a")]))
        .unwrap();
    assert!(!run_boolean_query(&program, &unequal, rel("Eq")).unwrap());
}
