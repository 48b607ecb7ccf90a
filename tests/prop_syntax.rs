//! Property-based tests for the syntax layer: parser/pretty-printer round-trips,
//! feature detection, limited variables, valuations, and the precedence
//! graph's condensation against brute-force reachability.

use proptest::prelude::*;
use sequence_datalog::prelude::*;
use sequence_datalog::syntax::PathExpr;
use sequence_datalog::syntax::{
    analysis::{is_safe, limited_vars},
    Literal, PrecedenceGraph, Predicate, Rule, Stratum, Term, Valuation, Var,
};
use sequence_datalog::wgen::{ProgramConfig, ProgramGenerator};
use std::collections::{BTreeMap, BTreeSet};

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

fn atom_name() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("a"), Just("b"), Just("c")]
}

fn var_name() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("x"), Just("y"), Just("z"), Just("u")]
}

/// A single term: a constant, an atomic variable, a path variable, or a packed
/// flat expression.
fn term(allow_packing: bool) -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        atom_name().prop_map(Term::constant),
        var_name().prop_map(|n| Term::Var(Var::atom(n))),
        var_name().prop_map(|n| Term::Var(Var::path(n))),
    ];
    if allow_packing {
        prop_oneof![
            leaf.clone(),
            prop::collection::vec(leaf, 0..3)
                .prop_map(|ts| PathExpr::from_terms(ts).packed().terms()[0].clone()),
        ]
        .boxed()
    } else {
        leaf.boxed()
    }
}

/// A path expression of up to 5 terms.
fn path_expr(allow_packing: bool) -> impl Strategy<Value = PathExpr> {
    prop::collection::vec(term(allow_packing), 0..=5).prop_map(PathExpr::from_terms)
}

/// A flat ground path (for valuations).
fn flat_path() -> impl Strategy<Value = Path> {
    prop::collection::vec(atom_name(), 0..=6).prop_map(|names| path_of(&names))
}

// ---------------------------------------------------------------------------
// Parser / pretty-printer round trips
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn path_expressions_round_trip_through_the_parser(expr in path_expr(true)) {
        let rendered = expr.to_string();
        let reparsed = parse_expr(&rendered)
            .unwrap_or_else(|e| panic!("rendered expression `{rendered}` does not parse: {e}"));
        prop_assert_eq!(reparsed, expr);
    }

    #[test]
    fn rules_round_trip_through_the_parser(
        head_expr in path_expr(true),
        body_exprs in prop::collection::vec(path_expr(true), 1..=3),
    ) {
        // Build S(head_expr) <- R(b1), ..., R(bk).  This is not necessarily safe,
        // but parsing and printing do not require safety.
        let head = Predicate::new(rel("S"), vec![head_expr]);
        let body: Vec<Literal> = body_exprs
            .into_iter()
            .map(|e| Literal::pred(Predicate::new(rel("R"), vec![e])))
            .collect();
        let rule = Rule::new(head, body);
        let rendered = rule.to_string();
        let reparsed = sequence_datalog::syntax::parse_rule(&rendered)
            .unwrap_or_else(|e| panic!("rendered rule `{rendered}` does not parse: {e}"));
        prop_assert_eq!(reparsed, rule);
    }

    #[test]
    fn programs_round_trip_through_the_parser(
        exprs in prop::collection::vec(path_expr(false), 1..=4),
        negate in prop::collection::vec(any::<bool>(), 1..=4),
    ) {
        // One stratum per rule: Si($x) <- R($x), [!]Q(expr_i), so that negation and
        // multiple strata are exercised.  Variables in expr_i might be unlimited, so
        // force safety by reusing $x only.
        let mut source = String::new();
        for (i, (expr, neg)) in exprs.iter().zip(negate.iter()).enumerate() {
            let ground: PathExpr = expr
                .terms()
                .iter()
                .filter(|t| !t.is_var())
                .cloned()
                .collect();
            let literal = if *neg { format!("!Q({ground})") } else { format!("Q({ground})") };
            source.push_str(&format!("S{i}($x) <- R($x), {literal}.\n"));
            if i + 1 < exprs.len() {
                source.push_str("---\n");
            }
        }
        let program = parse_program(&source)
            .unwrap_or_else(|e| panic!("generated program does not parse: {e}\n{source}"));
        let rendered = program.to_string();
        let reparsed = parse_program(&rendered)
            .unwrap_or_else(|e| panic!("pretty-printed program does not parse: {e}\n{rendered}"));
        prop_assert_eq!(reparsed, program);
    }
}

// ---------------------------------------------------------------------------
// Path expressions: structure and substitution
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn concatenation_of_expressions_flattens(a in path_expr(true), b in path_expr(true)) {
        let c = a.concat(&b);
        prop_assert_eq!(c.terms().len(), a.terms().len() + b.terms().len());
        prop_assert_eq!(c.vars().len() <= a.vars().len() + b.vars().len(), true);
    }

    #[test]
    fn ground_expressions_become_paths(p in flat_path()) {
        let expr = PathExpr::from_path(&p);
        prop_assert!(expr.is_ground());
        prop_assert_eq!(expr.as_path(), Some(p));
        prop_assert_eq!(expr.vars().len(), 0);
    }

    #[test]
    fn substituting_all_variables_grounds_the_expression(expr in path_expr(false), p in flat_path()) {
        let map: std::collections::BTreeMap<Var, PathExpr> = expr
            .vars()
            .into_iter()
            .map(|v| {
                let replacement = if v.is_atom_var() {
                    PathExpr::constant("a")
                } else {
                    PathExpr::from_path(&p)
                };
                (v, replacement)
            })
            .collect();
        let grounded = expr.substitute(&map);
        prop_assert!(grounded.is_ground());
    }

    #[test]
    fn var_occurrences_counts_multiplicity(expr in path_expr(true)) {
        let occurrences = expr.var_occurrences();
        let distinct = expr.vars();
        prop_assert!(occurrences.len() >= distinct.len());
        for v in &distinct {
            prop_assert!(occurrences.contains(v));
        }
    }

    #[test]
    fn valuations_evaluate_ground_expressions_to_themselves(p in flat_path()) {
        let expr = PathExpr::from_path(&p);
        let valuation = Valuation::new();
        prop_assert_eq!(valuation.apply(&expr), Some(p));
    }

    #[test]
    fn valuations_respect_variable_kinds(p in flat_path()) {
        let x = Var::path("x");
        let a = Var::atom("a");
        let mut valuation = Valuation::new();
        valuation.bind_path(x, p);
        valuation.bind_atom(a, atom("q"));
        // $x · @a evaluates to p · q.
        let expr = PathExpr::var(x).concat(&PathExpr::var(a));
        let result = valuation.apply(&expr).unwrap();
        prop_assert_eq!(result.len(), p.len() + 1);
        // An unbound variable leaves the expression unevaluable.
        let dangling = expr.concat(&PathExpr::var(Var::path("unbound")));
        prop_assert_eq!(valuation.apply(&dangling), None);
    }
}

// ---------------------------------------------------------------------------
// Feature detection, safety, limited variables
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn adding_rules_never_removes_features(
        exprs in prop::collection::vec(path_expr(false), 1..=3),
    ) {
        // Build an increasing sequence of programs; the detected feature set must be
        // monotone under adding rules to the single stratum.
        let mut rules: Vec<String> = Vec::new();
        let mut previous = Fragment::empty();
        for (i, expr) in exprs.iter().enumerate() {
            let vars = expr.vars();
            let positive = if vars.is_empty() {
                "R($x)".to_string()
            } else {
                // Bind every variable of the expression through a positive predicate.
                let args: Vec<String> = vars.iter().map(|v| v.to_string()).collect();
                format!("R({})", args.join("·"))
            };
            rules.push(format!("S{i}({expr}) <- {positive}."));
            let program = parse_program(&rules.join("\n")).unwrap();
            let fragment = Fragment::of_program(&program);
            prop_assert!(
                previous.is_subset_of(fragment),
                "feature set shrank from {previous} to {fragment}"
            );
            previous = fragment;
        }
    }

    #[test]
    fn safety_is_equivalent_to_all_vars_limited(expr in path_expr(false)) {
        // S(expr) <- R($x).  The rule is safe iff every variable of expr is $x.
        let head = Predicate::new(rel("S"), vec![expr.clone()]);
        let body = vec![Literal::pred(Predicate::new(
            rel("R"),
            vec![PathExpr::var(Var::path("x"))],
        ))];
        let rule = Rule::new(head, body);
        let limited = limited_vars(&rule);
        prop_assert!(limited.contains(&Var::path("x")));
        let expected_safe = expr.vars().iter().all(|v| *v == Var::path("x"));
        prop_assert_eq!(is_safe(&rule), expected_safe);
    }

    #[test]
    fn equations_propagate_limitedness(expr in path_expr(false)) {
        // S($y) <- R($x), $y·expr_without_y = $x.   $y is limited because the other
        // side ($x) is limited.
        let x = Var::path("x");
        let y = Var::path("y");
        let lhs = PathExpr::var(y).concat(&expr.substitute(
            &expr.vars().into_iter().map(|v| (v, PathExpr::constant("a"))).collect(),
        ));
        let rule = Rule::new(
            Predicate::new(rel("S"), vec![PathExpr::var(y)]),
            vec![
                Literal::pred(Predicate::new(rel("R"), vec![PathExpr::var(x)])),
                Literal::eq(lhs, PathExpr::var(x)),
            ],
        );
        let limited = limited_vars(&rule);
        prop_assert!(limited.contains(&y), "equation did not limit $y");
        prop_assert!(is_safe(&rule));
    }

    #[test]
    fn feature_detection_matches_program_shape(use_eq in any::<bool>(), use_neg in any::<bool>(), use_rec in any::<bool>()) {
        let mut body = vec!["R($x)".to_string()];
        if use_eq {
            body.push("$x·a = a·$x".to_string());
        }
        if use_neg {
            body.push("!Q($x)".to_string());
        }
        let mut src = format!("S($x) <- {}.", body.join(", "));
        if use_rec {
            src.push_str("\nS($x·a) <- S($x).");
        }
        let program = parse_program(&src).unwrap();
        let features = FeatureSet::of_program(&program);
        prop_assert_eq!(features.equations, use_eq);
        prop_assert_eq!(features.negation, use_neg);
        prop_assert_eq!(features.recursion, use_rec);
        prop_assert!(!features.arity);
        prop_assert!(!features.packing);
        prop_assert!(!features.intermediate);
    }
}

// ---------------------------------------------------------------------------
// The condensation against brute-force reachability
// ---------------------------------------------------------------------------

/// The relations reachable from `start` by one or more dependency edges
/// (from a rule's head to each relation of its body), restricted to heads.
fn reachable(edges: &BTreeMap<RelName, BTreeSet<RelName>>, start: RelName) -> BTreeSet<RelName> {
    let mut seen = BTreeSet::new();
    let mut stack: Vec<RelName> = edges[&start].iter().copied().collect();
    while let Some(node) = stack.pop() {
        if seen.insert(node) {
            stack.extend(edges[&node].iter().copied());
        }
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn condensation_agrees_with_reachability(
        seed in 0u64..(1u64 << 32),
        salt in 0u64..(1u64 << 32),
        links in prop::collection::vec(0usize..256, 0..6),
    ) {
        let config = ProgramConfig {
            strata: 3,
            allow_recursion: true,
            ..ProgramConfig::default()
        };
        let mut program = ProgramGenerator::new(seed).random_program(salt, &config);
        // wgen's recursion is self-loops only; extra copy rules between its
        // heads add arbitrary edges, mutual recursion included.
        let heads: Vec<RelName> = program.idb_relations().into_iter().collect();
        let copies: Vec<Rule> = links
            .iter()
            .map(|&link| {
                // The low nibble picks the head, the high one the body.
                let (h, b) = (link % 16 % heads.len(), link / 16 % heads.len());
                let x = PathExpr::var(Var::path("x"));
                Rule::new(
                    Predicate::new(heads[h], vec![x.clone()]),
                    vec![Literal::pred(Predicate::new(heads[b], vec![x]))],
                )
            })
            .collect();
        program.strata.push(Stratum { rules: copies });

        let mut edges: BTreeMap<RelName, BTreeSet<RelName>> = BTreeMap::new();
        for rule in program.rules() {
            edges.entry(rule.head.relation).or_default();
        }
        for rule in program.rules() {
            let body: Vec<RelName> = rule
                .body_relations()
                .into_iter()
                .filter(|r| edges.contains_key(r))
                .collect();
            edges.entry(rule.head.relation).or_default().extend(body);
        }
        let reach: BTreeMap<RelName, BTreeSet<RelName>> =
            edges.keys().map(|&r| (r, reachable(&edges, r))).collect();

        let condensation = PrecedenceGraph::of_program(&program).condensation();
        let component = |r: RelName| {
            condensation
                .component_of(r)
                .unwrap_or_else(|| panic!("{r} heads a rule but has no component"))
        };
        for (&r, from_r) in &reach {
            let c = &condensation.components[component(r)];
            prop_assert_eq!(c.recursive, from_r.contains(&r), "recursive({}) on\n{}", r, &program);
            for (&s, from_s) in &reach {
                let mutual = r == s || (from_r.contains(&s) && from_s.contains(&r));
                prop_assert_eq!(
                    component(r) == component(s),
                    mutual,
                    "{} and {} on\n{}",
                    r,
                    s,
                    &program
                );
            }
        }
        // Every edge between two components climbs a level: the head's
        // component sits strictly above each body relation's.
        for (&head, body) in &edges {
            for &dep in body {
                let (h, d) = (component(head), component(dep));
                if h != d {
                    prop_assert!(
                        condensation.components[h].level > condensation.components[d].level,
                        "{} reads {} on\n{}",
                        head,
                        dep,
                        &program
                    );
                }
            }
        }
    }
}
