//! Property-based tests for the paper's transformations: the Lemma 4.1 pairing
//! encoding, packing structures, doubling/undoubling, and differential equivalence
//! of the feature-elimination rewrites on random instances: the original
//! program through the reference evaluator (`tests/reference`), the rewritten
//! one through the `Executor`.

mod reference;

use proptest::prelude::*;
use sequence_datalog::fragments::witnesses;
use sequence_datalog::prelude::*;
use sequence_datalog::rewrite::{
    doubling_program, eliminate_arity, eliminate_equations, encode_pair,
    fold_intermediate_predicates, undoubling_program, PackingStructure,
};
use sequence_datalog::syntax::{PathExpr, Term, Valuation, Var};

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

fn atom_name() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("a"), Just("b"), Just("c")]
}

fn flat_path(max_len: usize) -> impl Strategy<Value = Path> {
    prop::collection::vec(atom_name(), 0..=max_len).prop_map(|names| path_of(&names))
}

/// A path expression with optional packing and up to one level of nesting.
fn packed_expr() -> impl Strategy<Value = PathExpr> {
    let leaf = prop_oneof![
        atom_name().prop_map(Term::constant),
        prop_oneof![Just("x"), Just("y")].prop_map(|n| Term::Var(Var::path(n))),
    ];
    prop::collection::vec(
        prop_oneof![
            3 => leaf.clone(),
            1 => prop::collection::vec(leaf, 0..3)
                .prop_map(|ts| Term::Packed(PathExpr::from_terms(ts))),
        ],
        0..=5,
    )
    .prop_map(PathExpr::from_terms)
}

// ---------------------------------------------------------------------------
// Lemma 4.1 — the pairing encoding
// ---------------------------------------------------------------------------

proptest! {
    /// `(s1, s2) = (s1', s2')` iff `s1·a·s2·a·s1·b·s2 = s1'·a·s2'·a·s1'·b·s2'`.
    #[test]
    fn lemma_4_1_pairing_is_injective(
        s1 in flat_path(6),
        s2 in flat_path(6),
        t1 in flat_path(6),
        t2 in flat_path(6),
    ) {
        let enc = |x: &Path, y: &Path| {
            let valuation = {
                let mut v = Valuation::new();
                v.bind_path(Var::path("l"), *x);
                v.bind_path(Var::path("r"), *y);
                v
            };
            let expr = encode_pair(
                &PathExpr::var(Var::path("l")),
                &PathExpr::var(Var::path("r")),
            );
            valuation.apply(&expr).expect("encoding expression is fully bound")
        };
        let equal_pairs = s1 == t1 && s2 == t2;
        prop_assert_eq!(enc(&s1, &s2) == enc(&t1, &t2), equal_pairs);
    }

    /// The encoding length is 2(|s1| + |s2|) + 3, so it stays linear (used by the
    /// linearity argument of Lemma 5.1).
    #[test]
    fn lemma_4_1_pairing_length_is_linear(s1 in flat_path(8), s2 in flat_path(8)) {
        let expr = encode_pair(
            &PathExpr::from_path(&s1),
            &PathExpr::from_path(&s2),
        );
        let encoded = Valuation::new().apply(&expr).unwrap();
        prop_assert_eq!(encoded.len(), 2 * (s1.len() + s2.len()) + 3);
    }
}

// ---------------------------------------------------------------------------
// Packing structures (Section 4.3.4)
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn packing_structure_components_assemble_back(expr in packed_expr()) {
        let structure = PackingStructure::of(&expr);
        let components = PackingStructure::components(&expr);
        prop_assert_eq!(components.len(), structure.star_count());
        // Every component is free of packing.
        for c in &components {
            prop_assert!(!c.has_packing(), "component {} still contains packing", c);
        }
        // Reassembling the components along the structure restores the expression.
        let reassembled = structure.assemble(&components)
            .expect("component count matches star count");
        prop_assert_eq!(reassembled, expr);
    }

    #[test]
    fn flat_expressions_have_the_trivial_structure(p in flat_path(6)) {
        let expr = PathExpr::from_path(&p);
        let structure = PackingStructure::of(&expr);
        prop_assert!(structure.is_flat());
        prop_assert_eq!(structure.star_count(), 1);
        prop_assert_eq!(PackingStructure::components(&expr), vec![expr]);
    }

    #[test]
    fn equal_expressions_share_their_structure(expr in packed_expr()) {
        prop_assert_eq!(PackingStructure::of(&expr), PackingStructure::of(&expr.clone()));
        // Wrapping in packing adds one level.
        let wrapped = expr.clone().packed();
        let inner = PackingStructure::of(&expr);
        let outer = PackingStructure::of(&wrapped);
        prop_assert!(!outer.is_flat());
        prop_assert_ne!(outer, inner);
    }
}

// ---------------------------------------------------------------------------
// Doubling / undoubling (Theorem 4.15)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn doubling_then_undoubling_restores_every_path(paths in prop::collection::vec(flat_path(6), 0..6)) {
        let input = Instance::unary(rel("R"), paths);
        let doubling = doubling_program(rel("R"), rel("D"));
        let doubled = Executor::new().run(&doubling, &input).unwrap();
        // Doubling matches the Path::doubled helper.
        let expected: std::collections::BTreeSet<Path> =
            input.unary_paths(rel("R")).iter().map(Path::doubled).collect();
        prop_assert_eq!(doubled.unary_paths(rel("D")), expected);

        let undoubling = undoubling_program(rel("D"), rel("U"));
        let mid = Instance::unary(rel("D"), doubled.unary_paths(rel("D")));
        let restored = Executor::new().run(&undoubling, &mid).unwrap();
        prop_assert_eq!(restored.unary_paths(rel("U")), input.unary_paths(rel("R")));
    }
}

// ---------------------------------------------------------------------------
// Differential equivalence of rewrites on random instances
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn arity_elimination_is_equivalent_on_random_instances(paths in prop::collection::vec(flat_path(5), 0..5)) {
        let w = witnesses::reversal_with_arity();
        let rewritten = eliminate_arity(&w.program).unwrap();
        let input = Instance::unary(rel("R"), paths);
        let a = reference::evaluate(&w.program, &input).unary_paths(w.output);
        let b = run_unary_query(&rewritten, &input, w.output).unwrap();
        prop_assert_eq!(&a, &b);
        // And the query really is reversal.
        let expected: std::collections::BTreeSet<Path> =
            input.unary_paths(rel("R")).iter().map(Path::reversed).collect();
        prop_assert_eq!(a, expected);
    }

    #[test]
    fn equation_elimination_is_equivalent_on_random_instances(paths in prop::collection::vec(flat_path(5), 0..5)) {
        let w = witnesses::only_as_equation();
        let rewritten = eliminate_equations(&w.program).unwrap();
        let input = Instance::unary(rel("R"), paths);
        let a = reference::evaluate(&w.program, &input).unary_paths(w.output);
        let b = run_unary_query(&rewritten, &input, w.output).unwrap();
        prop_assert_eq!(&a, &b);
        // And the query really is "only a's".
        let expected: std::collections::BTreeSet<Path> = input
            .unary_paths(rel("R"))
            .into_iter()
            .filter(|p| p.iter().all(|v| *v == Value::Atom(atom("a"))))
            .collect();
        prop_assert_eq!(a, expected);
    }

    #[test]
    fn folding_is_equivalent_on_random_instances(paths in prop::collection::vec(flat_path(5), 0..5)) {
        let w = witnesses::only_as_intermediate();
        let folded = fold_intermediate_predicates(&w.program, w.output).unwrap();
        let input = Instance::unary(rel("R"), paths);
        let a = reference::evaluate(&w.program, &input).unary_paths(w.output);
        let b = run_unary_query(&folded, &input, w.output).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn negated_equation_elimination_is_equivalent_on_random_instances(
        paths in prop::collection::vec(flat_path(4), 0..5),
    ) {
        let w = witnesses::mirrored_distinct_pairs();
        let rewritten = eliminate_equations(&w.program).unwrap();
        let input = Instance::unary(rel("R"), paths);
        let a = reference::evaluate(&w.program, &input).unary_paths(w.output);
        let b = run_unary_query(&rewritten, &input, w.output).unwrap();
        prop_assert_eq!(a, b);
    }
}
