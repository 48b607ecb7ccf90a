//! Arity elimination (Lemma 4.1 and Theorem 4.2).
//!
//! The pairing encoding of Lemma 4.1 represents a pair of paths `(s1, s2)` by the
//! single path `s1·a·s2·a·s1·b·s2`, where `a` and `b` are any two distinct atomic
//! values.  The encoding is injective (the lemma), so a predicate of arity `n ≥ 2`
//! can be replaced by a predicate of arity `n − 1` whose last component encodes the
//! last two original components; iterating reduces every IDB predicate to arity one.
//!
//! Only IDB predicates are rewritten: queries are defined over monadic schemas
//! (Section 3.1), so EDB predicates already have arity at most one; a program whose
//! EDB relations have higher arity is rejected.

use crate::error::RewriteError;
use seqdl_syntax::{Atom, Literal, PathExpr, Predicate, Program, Rule, Term};
use std::collections::BTreeSet;

/// The two distinct atomic values used by the pairing encoding.  Lemma 4.1 holds for
/// *any* two distinct atomic values, including ones that occur in the data, so no
/// freshness condition is needed.
fn encoding_atoms() -> (Term, Term) {
    (Term::constant("a"), Term::constant("b"))
}

/// Encode the pair of expressions `(e1, e2)` as `e1·a·e2·a·e1·b·e2` (Lemma 4.1).
pub fn encode_pair(e1: &PathExpr, e2: &PathExpr) -> PathExpr {
    let (a, b) = encoding_atoms();
    let a = PathExpr::singleton(a);
    let b = PathExpr::singleton(b);
    e1.concat(&a)
        .concat(e2)
        .concat(&a)
        .concat(e1)
        .concat(&b)
        .concat(e2)
}

/// Reduce a predicate's arity to at most one by repeatedly encoding its last two
/// components.
fn encode_predicate(pred: &Predicate) -> Predicate {
    let mut args = pred.args.clone();
    while args.len() > 1 {
        let e2 = args.pop().expect("len > 1");
        let e1 = args.pop().expect("len > 1");
        args.push(encode_pair(&e1, &e2));
    }
    Predicate::new(pred.relation, args)
}

/// Eliminate the **A** feature: rewrite every IDB predicate of arity greater than
/// one using the pairing encoding of Lemma 4.1 (Theorem 4.2).
///
/// # Errors
/// [`RewriteError::NonMonadicEdb`] if some EDB relation has arity greater than one.
pub fn eliminate_arity(program: &Program) -> Result<Program, RewriteError> {
    let idb: BTreeSet<_> = program.idb_relations();
    // Reject non-monadic EDB relations: we cannot re-encode the input data.
    for rule in program.rules() {
        for lit in &rule.body {
            if let Atom::Pred(p) = &lit.atom {
                if !idb.contains(&p.relation) && p.arity() > 1 {
                    return Err(RewriteError::NonMonadicEdb {
                        relation: p.relation.name(),
                    });
                }
            }
        }
    }

    let rewritten = program.map_rules(|rule| {
        let head = if idb.contains(&rule.head.relation) {
            encode_predicate(&rule.head)
        } else {
            rule.head.clone()
        };
        let body = rule
            .body
            .iter()
            .map(|lit| match &lit.atom {
                Atom::Pred(p) if idb.contains(&p.relation) && p.arity() > 1 => Literal {
                    positive: lit.positive,
                    atom: Atom::Pred(encode_predicate(p)),
                },
                _ => lit.clone(),
            })
            .collect();
        Rule::new(head, body)
    });
    Ok(rewritten)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdl_core::{path_of, rel, repeat_path, Instance, Path};
    use seqdl_exec::run_unary_query;
    use seqdl_syntax::{parse_expr, parse_program, FeatureSet};
    use std::collections::BTreeSet;

    #[test]
    fn encode_pair_matches_example_4_3() {
        // enc($x, ε) = $x·a·a·$x·b  and  enc(ε, $x) = a·$x·a·b·$x.
        let x = parse_expr("$x").unwrap();
        let eps = PathExpr::empty();
        assert_eq!(encode_pair(&x, &eps), parse_expr("$x·a·a·$x·b").unwrap());
        assert_eq!(encode_pair(&eps, &x), parse_expr("a·$x·a·b·$x").unwrap());
    }

    #[test]
    fn encoding_is_injective_on_ground_pairs() {
        // Brute-force check of Lemma 4.1 over small flat paths (including paths that
        // themselves contain the encoding atoms a and b).
        let alphabet = ["a", "b", "c"];
        let mut paths = vec![Path::empty()];
        for &x in &alphabet {
            for &y in &alphabet {
                paths.push(path_of(&[x]));
                paths.push(path_of(&[x, y]));
            }
        }
        paths.sort();
        paths.dedup();
        let mut seen = std::collections::BTreeMap::new();
        for p1 in &paths {
            for p2 in &paths {
                let enc = encode_pair(&PathExpr::from_path(p1), &PathExpr::from_path(p2))
                    .as_path()
                    .expect("ground");
                if let Some(prev) = seen.insert(enc, (*p1, *p2)) {
                    panic!("collision: {prev:?} and {:?}", (p1, p2));
                }
            }
        }
    }

    #[test]
    fn reversal_program_still_computes_reversal_after_arity_elimination() {
        // Example 4.3.
        let program = parse_program(
            "T($x, eps) <- R($x).\nT($x, $y·@u) <- T($x·@u, $y).\nS($x) <- T(eps, $x).",
        )
        .unwrap();
        let rewritten = eliminate_arity(&program).unwrap();
        let features = FeatureSet::of_program(&rewritten);
        assert!(!features.arity, "arity not eliminated: {rewritten}");

        for input_paths in [
            vec![path_of(&["x", "y", "z"])],
            vec![path_of(&["a", "b"]), path_of(&["c"])],
            vec![Path::empty()],
            vec![repeat_path("a", 5)],
        ] {
            let input = Instance::unary(rel("R"), input_paths.clone());
            let expected: BTreeSet<Path> = input_paths.iter().map(Path::reversed).collect();
            let original = run_unary_query(&program, &input, rel("S")).unwrap();
            let new = run_unary_query(&rewritten, &input, rel("S")).unwrap();
            assert_eq!(original, expected);
            assert_eq!(
                new, expected,
                "rewritten program diverges on {input_paths:?}"
            );
        }
    }

    #[test]
    fn squaring_program_survives_arity_elimination() {
        let program = parse_program(
            "T(eps, $x, $x) <- R($x).\nT($y·$x, $x, $z) <- T($y, $x, a·$z).\nS($y) <- T($y, $x, eps).",
        )
        .unwrap();
        let rewritten = eliminate_arity(&program).unwrap();
        assert!(!FeatureSet::of_program(&rewritten).arity);
        for n in [0usize, 1, 3] {
            let input = Instance::unary(rel("R"), [repeat_path("a", n)]);
            let original = run_unary_query(&program, &input, rel("S")).unwrap();
            let new = run_unary_query(&rewritten, &input, rel("S")).unwrap();
            assert_eq!(original, new, "divergence at n={n}");
            assert!(new.contains(&repeat_path("a", n * n)));
        }
    }

    #[test]
    fn non_monadic_edb_is_rejected() {
        let program = parse_program("S(@x) <- D(@x, @y, @z).").unwrap();
        assert!(matches!(
            eliminate_arity(&program),
            Err(RewriteError::NonMonadicEdb { .. })
        ));
    }

    #[test]
    fn monadic_programs_are_untouched() {
        let program = parse_program("S($x) <- R($x), a·$x = $x·a.").unwrap();
        assert_eq!(eliminate_arity(&program).unwrap(), program);
    }

    #[test]
    fn negated_idb_predicates_are_also_encoded() {
        let program =
            parse_program("T($x, $x) <- R($x).\n---\nS($x) <- R($x), !T($x, $x·a).").unwrap();
        let rewritten = eliminate_arity(&program).unwrap();
        assert!(!FeatureSet::of_program(&rewritten).arity);
        // R(a·a) is in T as (a·a, a·a) but not as (a·a, a·a·a): S contains a·a.
        let input = Instance::unary(rel("R"), [path_of(&["a", "a"])]);
        let original = run_unary_query(&program, &input, rel("S")).unwrap();
        let new = run_unary_query(&rewritten, &input, rel("S")).unwrap();
        assert_eq!(original, new);
        assert_eq!(new.len(), 1);
    }
}
