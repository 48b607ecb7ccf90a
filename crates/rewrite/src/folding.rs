//! Intermediate-predicate elimination by folding (Theorem 4.16).
//!
//! In the absence of negation and recursion, intermediate predicates are redundant
//! provided equations are available: every call `P(e1, …, en)` to an intermediate
//! relation can be *folded*, replacing the call by the body of each rule defining
//! `P` (with fresh variables) plus equations unifying the call's arguments with the
//! head's arguments.  Iterating removes every IDB relation other than the output.

use crate::error::RewriteError;
use seqdl_core::RelName;
use seqdl_syntax::{FeatureSet, Literal, Program, Rule, Stratum};

/// Fold away every intermediate predicate, leaving `output` as the only IDB
/// relation (Theorem 4.16).
///
/// # Errors
/// * [`RewriteError::RequiresNonRecursive`] if the program is recursive.
/// * [`RewriteError::UnsupportedFeature`] if the program uses negation.
/// * [`RewriteError::IterationLimit`] if folding does not converge (cannot happen
///   for non-recursive inputs).
pub fn fold_intermediate_predicates(
    program: &Program,
    output: RelName,
) -> Result<Program, RewriteError> {
    let features = FeatureSet::of_program(program);
    if features.recursion {
        return Err(RewriteError::RequiresNonRecursive {
            rewrite: "intermediate-predicate folding",
        });
    }
    if features.negation {
        return Err(RewriteError::UnsupportedFeature {
            rewrite: "intermediate-predicate folding",
            feature: "negation",
        });
    }

    // Without negation, strata are irrelevant: flatten into a single rule list.
    let mut rules: Vec<Rule> = program.rules().cloned().collect();
    let idb = program.idb_relations();

    for _round in 0..10_000 {
        // Find a rule (any rule) whose body calls an IDB relation.
        let position = rules.iter().position(|r| {
            r.body.iter().any(|lit| {
                lit.positive
                    && lit
                        .atom
                        .as_predicate()
                        .is_some_and(|p| idb.contains(&p.relation))
            })
        });
        let Some(rule_ix) = position else {
            // Done: drop rules whose head is not the output relation; they can no
            // longer contribute to it.
            let final_rules: Vec<Rule> = rules
                .into_iter()
                .filter(|r| r.head.relation == output)
                .collect();
            return Ok(Program::new(vec![Stratum::new(final_rules)]));
        };
        let rule = rules[rule_ix].clone();
        // The first positive IDB call in the body.
        let call_pos = rule
            .body
            .iter()
            .position(|lit| {
                lit.positive
                    && lit
                        .atom
                        .as_predicate()
                        .is_some_and(|p| idb.contains(&p.relation))
            })
            .expect("found above");
        let call = rule.body[call_pos]
            .atom
            .as_predicate()
            .expect("checked predicate")
            .clone();

        // Resolve the call against every rule defining the called relation.
        let defining: Vec<Rule> = rules
            .iter()
            .filter(|r| r.head.relation == call.relation)
            .cloned()
            .collect();
        let mut replacements = Vec::new();
        for def in &defining {
            let fresh = def.freshen_vars("fold_");
            if fresh.head.arity() != call.arity() {
                continue;
            }
            let mut body: Vec<Literal> = rule
                .body
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != call_pos)
                .map(|(_, l)| l.clone())
                .collect();
            body.extend(fresh.body.iter().cloned());
            for (call_arg, head_arg) in call.args.iter().zip(fresh.head.args.iter()) {
                body.push(Literal::eq(call_arg.clone(), head_arg.clone()));
            }
            replacements.push(Rule::new(rule.head.clone(), body));
        }
        rules.remove(rule_ix);
        for (i, r) in replacements.into_iter().enumerate() {
            rules.insert(rule_ix + i, r);
        }
    }
    Err(RewriteError::IterationLimit {
        rewrite: "intermediate-predicate folding",
    })
}

/// Does any body literal of the program call an IDB relation other than `output`?
/// (Used by tests to check that folding is complete.)
pub fn calls_intermediate(program: &Program, output: RelName) -> bool {
    let idb = program.idb_relations();
    program.rules().any(|r| {
        r.head.relation != output
            || r.body.iter().any(|lit| {
                lit.atom
                    .as_predicate()
                    .is_some_and(|p| idb.contains(&p.relation) && p.relation != output)
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdl_core::{path_of, rel, repeat_path, Instance, Path};
    use seqdl_exec::run_unary_query;
    use seqdl_syntax::parse_program;
    use std::collections::BTreeSet;

    #[test]
    fn two_stage_pipeline_folds_to_a_single_relation() {
        // T holds suffixes after stripping a leading a; S strips a leading b from T.
        let program = parse_program("T($y) <- R(a·$y).\nS($z) <- T(b·$z).").unwrap();
        let folded = fold_intermediate_predicates(&program, rel("S")).unwrap();
        assert!(!calls_intermediate(&folded, rel("S")), "{folded}");
        assert_eq!(folded.idb_relations(), BTreeSet::from([rel("S")]));

        for paths in [
            vec![path_of(&["a", "b", "c"]), path_of(&["a", "b"])],
            vec![path_of(&["b", "a"]), path_of(&["a", "c", "d"])],
            vec![Path::empty()],
        ] {
            let input = Instance::unary(rel("R"), paths.clone());
            assert_eq!(
                run_unary_query(&program, &input, rel("S")).unwrap(),
                run_unary_query(&folded, &input, rel("S")).unwrap(),
                "divergence on {paths:?}"
            );
        }
    }

    #[test]
    fn multiple_defining_rules_produce_one_folded_rule_each() {
        let program =
            parse_program("T($x) <- R($x·a).\nT($x) <- R(b·$x).\nS($x·$x) <- T($x).").unwrap();
        let folded = fold_intermediate_predicates(&program, rel("S")).unwrap();
        assert_eq!(folded.idb_relations(), BTreeSet::from([rel("S")]));
        assert_eq!(folded.rule_count(), 2);
        let input = Instance::unary(
            rel("R"),
            [path_of(&["c", "a"]), path_of(&["b", "d"]), path_of(&["e"])],
        );
        assert_eq!(
            run_unary_query(&program, &input, rel("S")).unwrap(),
            run_unary_query(&folded, &input, rel("S")).unwrap()
        );
    }

    #[test]
    fn multiple_calls_in_one_body_are_folded() {
        // S contains concatenations of two T-paths.
        let program = parse_program("T($x) <- R(a·$x).\nS($x·$y) <- T($x), T($y).").unwrap();
        let folded = fold_intermediate_predicates(&program, rel("S")).unwrap();
        assert_eq!(folded.idb_relations(), BTreeSet::from([rel("S")]));
        let input = Instance::unary(rel("R"), [path_of(&["a", "p"]), path_of(&["a", "q"])]);
        let original = run_unary_query(&program, &input, rel("S")).unwrap();
        let new = run_unary_query(&folded, &input, rel("S")).unwrap();
        assert_eq!(original, new);
        assert!(original.contains(&path_of(&["p", "q"])));
        assert!(original.contains(&path_of(&["q", "p"])));
    }

    #[test]
    fn deeper_pipelines_fold_transitively() {
        let program = parse_program(
            "T1($x) <- R($x).\nT2($x·$x) <- T1($x).\nT3($x·c) <- T2($x).\nS($x) <- T3($x).",
        )
        .unwrap();
        let folded = fold_intermediate_predicates(&program, rel("S")).unwrap();
        assert_eq!(folded.idb_relations(), BTreeSet::from([rel("S")]));
        let input = Instance::unary(rel("R"), [repeat_path("a", 2)]);
        let expected: BTreeSet<Path> = [path_of(&["a", "a", "a", "a", "c"])].into();
        assert_eq!(
            run_unary_query(&folded, &input, rel("S")).unwrap(),
            expected
        );
        assert_eq!(
            run_unary_query(&program, &input, rel("S")).unwrap(),
            expected
        );
    }

    #[test]
    fn bodiless_facts_fold_into_ground_equations() {
        let program = parse_program("T(a·b).\nS($x) <- T($x), R($x).").unwrap();
        let folded = fold_intermediate_predicates(&program, rel("S")).unwrap();
        assert_eq!(folded.idb_relations(), BTreeSet::from([rel("S")]));
        let input = Instance::unary(rel("R"), [path_of(&["a", "b"]), path_of(&["a"])]);
        assert_eq!(
            run_unary_query(&program, &input, rel("S")).unwrap(),
            run_unary_query(&folded, &input, rel("S")).unwrap()
        );
    }

    #[test]
    fn recursion_and_negation_are_rejected() {
        let recursive =
            parse_program("T($x·a) <- T($x).\nT($x) <- R($x).\nS($x) <- T($x).").unwrap();
        assert!(matches!(
            fold_intermediate_predicates(&recursive, rel("S")),
            Err(RewriteError::RequiresNonRecursive { .. })
        ));
        let negated = parse_program("T($x) <- R($x).\n---\nS($x) <- R($x), !T($x).").unwrap();
        assert!(matches!(
            fold_intermediate_predicates(&negated, rel("S")),
            Err(RewriteError::UnsupportedFeature { .. })
        ));
    }

    #[test]
    fn programs_with_only_the_output_relation_are_unchanged_semantically() {
        let program = parse_program("S($x) <- R($x), a·$x = $x·a.").unwrap();
        let folded = fold_intermediate_predicates(&program, rel("S")).unwrap();
        let input = Instance::unary(rel("R"), [repeat_path("a", 2), path_of(&["b"])]);
        assert_eq!(
            run_unary_query(&program, &input, rel("S")).unwrap(),
            run_unary_query(&folded, &input, rel("S")).unwrap()
        );
    }
}
