//! Equation elimination (Example 4.4, Lemma 4.5, Theorem 4.7).
//!
//! * Positive equations are eliminated by introducing an auxiliary intermediate
//!   predicate holding the value of one side of the equation, and re-matching it
//!   against the other side (Example 4.4).
//! * Negated equations cannot be handled the same way inside recursive strata
//!   without breaking stratification; Lemma 4.5 instead inserts a *new stratum*
//!   before each stratum with negated equations, containing renamed copies of its
//!   rules plus auxiliary relations that collect the variable bindings under which
//!   some equation *does* hold; the original stratum then negates those relations.

use crate::error::RewriteError;
use seqdl_core::RelName;
use seqdl_syntax::{
    analysis::limited_vars, Atom, Equation, Literal, PathExpr, Predicate, Program, Rule, Stratum,
    Var,
};
use std::collections::{BTreeMap, BTreeSet};

/// Eliminate all **positive** equations from the program by introducing auxiliary
/// intermediate predicates (Example 4.4; the general construction behind Lemma 3.4
/// of the conference version).
///
/// The output uses the I and A features but no positive equations; negated
/// equations are left untouched.
///
/// # Errors
/// [`RewriteError::IterationLimit`] if the rewrite does not converge (cannot happen
/// for safe rules).
pub fn eliminate_positive_equations(program: &Program) -> Result<Program, RewriteError> {
    let mut current = program.clone();
    // Each pass eliminates one positive equation from one rule; iterate to fixpoint.
    for _ in 0..10_000 {
        let Some((stratum_ix, rule_ix)) = find_rule_with_positive_equation(&current) else {
            return Ok(current);
        };
        let rule = current.strata[stratum_ix].rules[rule_ix].clone();
        let (t_rule, call_rule) = split_positive_equation(&rule)?;
        let stratum = &mut current.strata[stratum_ix];
        stratum.rules[rule_ix] = call_rule;
        stratum.rules.insert(rule_ix, t_rule);
    }
    Err(RewriteError::IterationLimit {
        rewrite: "positive-equation elimination",
    })
}

fn find_rule_with_positive_equation(program: &Program) -> Option<(usize, usize)> {
    for (si, stratum) in program.strata.iter().enumerate() {
        for (ri, rule) in stratum.rules.iter().enumerate() {
            if !rule.positive_body_equations().is_empty() {
                return Some((si, ri));
            }
        }
    }
    None
}

/// Split one positive equation out of `rule`, producing the auxiliary `T` rule and
/// the rewritten calling rule (Example 4.4).
fn split_positive_equation(rule: &Rule) -> Result<(Rule, Rule), RewriteError> {
    // Pick an equation such that one side is limited by the rest of the body; orient
    // it so that `e_def` (stored in the auxiliary relation) is that side.  Prefer an
    // equation whose removal leaves the remaining body self-contained (all its
    // variables still limited), so the auxiliary rule is safe; such an equation (the
    // "last" one in the limited-variable fixpoint order) always exists, but we fall
    // back to the weaker condition for robustness.
    let equations: Vec<Equation> = rule
        .positive_body_equations()
        .into_iter()
        .cloned()
        .collect();
    for require_safe_rest in [true, false] {
        if let Some(result) = try_split(rule, &equations, require_safe_rest) {
            return Ok(result);
        }
    }
    // For a safe rule, some equation always has a side limited by the rest of the
    // body (the limited-variable fixpoint provides the order).
    Err(RewriteError::IterationLimit {
        rewrite: "positive-equation elimination (no orientable equation; rule unsafe?)",
    })
}

fn try_split(rule: &Rule, equations: &[Equation], require_safe_rest: bool) -> Option<(Rule, Rule)> {
    for eq in equations.iter() {
        // The positive part of the body without (one occurrence of) this equation.
        // Negated literals must *not* move into the auxiliary rule: their variables
        // may be limited only by the equation being eliminated, which would leave
        // the auxiliary rule unsafe.  They stay in the calling rule, where the
        // auxiliary predicate limits those variables again.
        let mut removed = false;
        let defining_body: Vec<Literal> = rule
            .body
            .iter()
            .filter(|lit| {
                if !lit.positive {
                    return false;
                }
                if !removed {
                    if let Atom::Eq(e) = &lit.atom {
                        if e == eq {
                            removed = true;
                            return false;
                        }
                    }
                }
                true
            })
            .cloned()
            .collect();
        let negative_body: Vec<Literal> = rule
            .body
            .iter()
            .filter(|lit| !lit.positive)
            .cloned()
            .collect();
        let defining_rule = Rule::new(rule.head.clone(), defining_body.clone());
        let limited = limited_vars(&defining_rule);
        if require_safe_rest {
            let defining_vars: BTreeSet<Var> =
                defining_body.iter().flat_map(|l| l.vars()).collect();
            if !defining_vars.iter().all(|v| limited.contains(v)) {
                continue;
            }
        }
        let lhs_ok = eq.lhs.vars().iter().all(|v| limited.contains(v));
        let rhs_ok = eq.rhs.vars().iter().all(|v| limited.contains(v));
        let (e_def, e_call) = if lhs_ok {
            (eq.lhs.clone(), eq.rhs.clone())
        } else if rhs_ok {
            (eq.rhs.clone(), eq.lhs.clone())
        } else {
            continue;
        };
        // Variables of the defining body, passed through the auxiliary relation.
        let body_vars: Vec<Var> = {
            let mut out = Vec::new();
            for lit in &defining_body {
                for v in lit.vars() {
                    if !out.contains(&v) {
                        out.push(v);
                    }
                }
            }
            out
        };
        let t_rel = RelName::fresh("EqAux");
        let mut t_args = vec![e_def];
        t_args.extend(body_vars.iter().map(|v| PathExpr::var(*v)));
        let t_rule = Rule::new(Predicate::new(t_rel, t_args), defining_body);

        let mut call_args = vec![e_call];
        call_args.extend(body_vars.iter().map(|v| PathExpr::var(*v)));
        let mut call_body = vec![Literal::pred(Predicate::new(t_rel, call_args))];
        call_body.extend(negative_body);
        let call_rule = Rule::new(rule.head.clone(), call_body);
        return Some((t_rule, call_rule));
    }
    None
}

/// Eliminate all **negated** equations from the program (Lemma 4.5), leaving only
/// positive equations.
pub fn eliminate_negated_equations(program: &Program) -> Program {
    let mut new_strata: Vec<Stratum> = Vec::new();
    for stratum in &program.strata {
        let has_negated_equations = stratum
            .rules
            .iter()
            .any(|r| !r.negative_body_equations().is_empty());
        if !has_negated_equations {
            new_strata.push(stratum.clone());
            continue;
        }

        // Renaming ρ: head relation names of this stratum get fresh names; relation
        // names occurring only in bodies map to themselves.
        let heads = stratum.head_relations();
        let rho: BTreeMap<RelName, RelName> = heads
            .iter()
            .map(|r| (*r, RelName::fresh(&format!("{}Pre", r.name()))))
            .collect();
        let rename_pred = |p: &Predicate| Predicate {
            relation: rho.get(&p.relation).copied().unwrap_or(p.relation),
            args: p.args.clone(),
        };
        let rename_rule = |r: &Rule| -> Rule {
            Rule::new(
                rename_pred(&r.head),
                r.body
                    .iter()
                    .map(|lit| match &lit.atom {
                        Atom::Pred(p) => Literal {
                            positive: lit.positive,
                            atom: Atom::Pred(rename_pred(p)),
                        },
                        Atom::Eq(_) => lit.clone(),
                    })
                    .collect(),
            )
        };

        let mut pre_stratum = Vec::new();
        let mut main_stratum = Vec::new();
        for rule in &stratum.rules {
            let negated_eqs: Vec<Equation> = rule
                .negative_body_equations()
                .into_iter()
                .cloned()
                .collect();
            // The rule body with negated equations removed.
            let body_without_neq: Vec<Literal> = rule
                .body
                .iter()
                .filter(|l| l.positive || !l.is_equation())
                .cloned()
                .collect();
            let stripped = Rule::new(rule.head.clone(), body_without_neq.clone());

            // ρ(H) ← ρ(B) goes to the new stratum in every case.
            pre_stratum.push(rename_rule(&stripped));

            if negated_eqs.is_empty() {
                main_stratum.push(rule.clone());
                continue;
            }

            // Variables appearing in B (the body without the negated equations).
            let body_vars: Vec<Var> = {
                let mut out = Vec::new();
                for lit in &body_without_neq {
                    for v in lit.vars() {
                        if !out.contains(&v) {
                            out.push(v);
                        }
                    }
                }
                out
            };
            let t_rel = RelName::fresh("NeqAux");
            let t_args: Vec<PathExpr> = body_vars.iter().map(|v| PathExpr::var(*v)).collect();
            // One auxiliary rule per negated equation: T(v…) ← ρ(B) ∧ e_i = e'_i.
            for eq in &negated_eqs {
                let mut body = rename_rule(&stripped).body;
                body.push(Literal::eq(eq.lhs.clone(), eq.rhs.clone()));
                pre_stratum.push(Rule::new(Predicate::new(t_rel, t_args.clone()), body));
            }
            // In the original stratum, replace r by H ← B ∧ ¬T(v…).
            let mut body = body_without_neq;
            body.push(Literal::not_pred(Predicate::new(t_rel, t_args)));
            main_stratum.push(Rule::new(rule.head.clone(), body));
        }
        new_strata.push(Stratum::new(pre_stratum));
        new_strata.push(Stratum::new(main_stratum));
    }
    Program::new(new_strata)
}

/// Eliminate the **E** feature entirely (Theorem 4.7): first remove negated
/// equations (Lemma 4.5), then positive equations (Example 4.4).  The result uses
/// intermediate predicates and arity instead; compose with
/// [`crate::eliminate_arity`] to also drop arity.
///
/// # Errors
/// Propagates errors of [`eliminate_positive_equations`].
pub fn eliminate_equations(program: &Program) -> Result<Program, RewriteError> {
    let no_negated = eliminate_negated_equations(program);
    eliminate_positive_equations(&no_negated)
}

/// Collect every relation name negated anywhere in the program (used by tests).
#[allow(dead_code)]
fn negated_relations(program: &Program) -> BTreeSet<RelName> {
    program
        .rules()
        .flat_map(|r| r.negative_body_predicates().into_iter().map(|p| p.relation))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdl_core::{path_of, rel, repeat_path, Instance, Path};
    use seqdl_exec::{run_boolean_query, run_unary_query};
    use seqdl_syntax::{analysis::check_stratification, parse_program, FeatureSet};
    use std::collections::BTreeSet;

    fn only_as_inputs() -> Vec<Instance> {
        vec![
            Instance::unary(rel("R"), [repeat_path("a", 3), path_of(&["a", "b"])]),
            Instance::unary(rel("R"), [Path::empty(), path_of(&["b"])]),
            Instance::unary(rel("R"), []),
        ]
    }

    #[test]
    fn example_4_4_positive_equation_elimination() {
        let program = parse_program("S($x) <- R($x), a·$x = $x·a.").unwrap();
        let rewritten = eliminate_positive_equations(&program).unwrap();
        let features = FeatureSet::of_program(&rewritten);
        assert!(!features.equations, "not equation-free: {rewritten}");
        assert!(features.intermediate && features.arity);
        for input in only_as_inputs() {
            assert_eq!(
                run_unary_query(&program, &input, rel("S")).unwrap(),
                run_unary_query(&rewritten, &input, rel("S")).unwrap()
            );
        }
    }

    #[test]
    fn chained_equations_are_eliminated() {
        let program = parse_program("S($z) <- R($x), $y = $x·a, $z = b·$y.").unwrap();
        let rewritten = eliminate_positive_equations(&program).unwrap();
        assert!(!FeatureSet::of_program(&rewritten).equations);
        let input = Instance::unary(rel("R"), [path_of(&["c"])]);
        let expected: BTreeSet<Path> = [path_of(&["b", "c", "a"])].into();
        assert_eq!(
            run_unary_query(&program, &input, rel("S")).unwrap(),
            expected
        );
        assert_eq!(
            run_unary_query(&rewritten, &input, rel("S")).unwrap(),
            expected
        );
    }

    #[test]
    fn positive_elimination_in_recursive_strata_keeps_stratification() {
        // A recursive rule with a positive equation.
        let program =
            parse_program("T($x) <- R($x).\nT($y) <- T($x), $x = a·$y.\nS($x) <- T($x).").unwrap();
        let rewritten = eliminate_positive_equations(&program).unwrap();
        assert!(!FeatureSet::of_program(&rewritten).equations);
        assert!(check_stratification(&rewritten).is_ok());
        let input = Instance::unary(rel("R"), [repeat_path("a", 3)]);
        assert_eq!(
            run_unary_query(&program, &input, rel("S")).unwrap(),
            run_unary_query(&rewritten, &input, rel("S")).unwrap()
        );
    }

    #[test]
    fn example_4_6_negated_equation_elimination() {
        // Paths of the form a1…an·bn…b1 with ai ≠ bi.
        let program = parse_program(
            "U($x, $x) <- R($x).\nU($x, $y) <- U($x, @a·$y·@b), @a != @b.\nS($x) <- U($x, eps).",
        )
        .unwrap();
        let rewritten = eliminate_negated_equations(&program);
        // No negated equations remain (negated predicates are fine).
        assert!(rewritten
            .rules()
            .all(|r| r.negative_body_equations().is_empty()));
        assert!(check_stratification(&rewritten).is_ok(), "{rewritten}");
        // The new stratum count doubled for the affected stratum.
        assert_eq!(rewritten.stratum_count(), 2);

        let inputs = [
            vec![path_of(&["a", "b", "c", "d"])], // pairs (a,d), (b,c): all distinct -> in S
            vec![path_of(&["a", "b", "b", "a"])], // pairs (a,a): not in S
            vec![path_of(&["a", "b"])],           // single pair (a,b) -> in S
            vec![path_of(&["a"])],                // odd length -> not in S
            vec![Path::empty()],                  // zero pairs -> in S
        ];
        for paths in inputs {
            let input = Instance::unary(rel("R"), paths.clone());
            assert_eq!(
                run_unary_query(&program, &input, rel("S")).unwrap(),
                run_unary_query(&rewritten, &input, rel("S")).unwrap(),
                "divergence on {paths:?}"
            );
        }
    }

    #[test]
    fn full_equation_elimination_theorem_4_7() {
        let program = parse_program(
            "U($x, $x) <- R($x).\nU($x, $y) <- U($x, @a·$y·@b), @a != @b.\nS($x) <- U($x, eps).",
        )
        .unwrap();
        let rewritten = eliminate_equations(&program).unwrap();
        assert!(!FeatureSet::of_program(&rewritten).equations, "{rewritten}");
        assert!(check_stratification(&rewritten).is_ok());
        for paths in [
            vec![path_of(&["a", "b", "c", "d"]), path_of(&["a", "a"])],
            vec![path_of(&["x", "y", "z", "z", "y", "q"])],
        ] {
            let input = Instance::unary(rel("R"), paths.clone());
            assert_eq!(
                run_unary_query(&program, &input, rel("S")).unwrap(),
                run_unary_query(&rewritten, &input, rel("S")).unwrap(),
                "divergence on {paths:?}"
            );
        }
    }

    #[test]
    fn boolean_query_with_nonequalities_is_preserved() {
        // A simplified Example 2.2 without packing: are there two different
        // substring occurrences of a string from S in R?
        let program = parse_program(
            "T($u, $s, $v) <- R($u·$s·$v), S($s).\n\
             A <- T($u1, $s, $v1), T($u2, $s, $v2), $u1 != $u2.",
        )
        .unwrap();
        let rewritten = eliminate_equations(&program).unwrap();
        assert!(!FeatureSet::of_program(&rewritten).equations);

        let mut yes = Instance::unary(rel("R"), [path_of(&["a", "b", "x", "a", "b"])]);
        yes.insert_fact(seqdl_core::Fact::new(rel("S"), vec![path_of(&["a", "b"])]))
            .unwrap();
        assert_eq!(
            run_boolean_query(&program, &yes, rel("A")).unwrap(),
            run_boolean_query(&rewritten, &yes, rel("A")).unwrap()
        );
        assert!(run_boolean_query(&program, &yes, rel("A")).unwrap());

        let mut no = Instance::unary(rel("R"), [path_of(&["a", "b", "x"])]);
        no.insert_fact(seqdl_core::Fact::new(rel("S"), vec![path_of(&["a", "b"])]))
            .unwrap();
        assert_eq!(
            run_boolean_query(&program, &no, rel("A")).unwrap(),
            run_boolean_query(&rewritten, &no, rel("A")).unwrap()
        );
        assert!(!run_boolean_query(&program, &no, rel("A")).unwrap());
    }

    #[test]
    fn programs_without_equations_are_untouched() {
        let program = parse_program("S($x) <- R($x).").unwrap();
        assert_eq!(eliminate_positive_equations(&program).unwrap(), program);
        assert_eq!(eliminate_negated_equations(&program), program);
    }
}
