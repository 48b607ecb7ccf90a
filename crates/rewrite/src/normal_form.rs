//! The normal form of Lemma 7.2 for nonrecursive, equation-free programs.
//!
//! Every rule of the normalised program has one of six shapes (numbered as in the
//! paper), which map directly onto sequence-relational-algebra operators
//! (Section 7):
//!
//! 1. `R1(v1, …, vn) ← R2(e1, …, em)` — *extraction*;
//! 2. `R1(v1, …, vn, e) ← R2(v1, …, vn)` — generalised projection (add a column);
//! 3. `R1(v1, …, vn) ← R2(x1, …, xk), R3(y1, …, yl)` — join;
//! 4. `R1(v1, …, vn) ← R2(v1, …, vn), ¬R3(v'1, …, v'm)` — antijoin;
//! 5. `R1(v'1, …, v'm) ← R2(v1, …, vn)` — column projection / permutation;
//! 6. `R(p) ← .` — constant relation.

use crate::error::RewriteError;
use seqdl_core::RelName;
use seqdl_syntax::{
    Atom, FeatureSet, Literal, PathExpr, Predicate, Program, Rule, Stratum, Term, Var, VarKind,
};
use std::collections::BTreeMap;

/// The six normal-form shapes of Lemma 7.2.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NormalForm {
    /// Form 1: extraction.
    Extraction,
    /// Form 2: add a computed column.
    AddColumn,
    /// Form 3: join of two predicates.
    Join,
    /// Form 4: antijoin (negated predicate over a subset of the variables).
    Antijoin,
    /// Form 5: projection / permutation of columns.
    Projection,
    /// Form 6: constant relation.
    Constant,
}

/// Classify a rule according to the six forms of Lemma 7.2, or `None` if it matches
/// none of them.
pub fn classify_rule(rule: &Rule) -> Option<NormalForm> {
    let head_vars: Vec<Var> = rule
        .head
        .args
        .iter()
        .map(single_var)
        .collect::<Option<Vec<_>>>()
        .unwrap_or_default();
    let head_all_vars = rule.head.args.len() == head_vars.len() && all_distinct(&head_vars);
    let head_all_path_vars = head_all_vars && head_vars.iter().all(Var::is_path_var);
    let positives = rule.positive_body_predicates();
    let negatives = rule.negative_body_predicates();
    let has_equations = rule.body.iter().any(Literal::is_equation);
    if has_equations {
        return None;
    }

    match (positives.len(), negatives.len(), rule.body.len()) {
        // Form 6: constant.
        (0, 0, 0) => {
            if rule.head.args.iter().all(PathExpr::is_ground) {
                Some(NormalForm::Constant)
            } else {
                None
            }
        }
        (1, 0, 1) => {
            let body = positives[0];
            let body_vars: Vec<Var> = body
                .args
                .iter()
                .map(single_var)
                .collect::<Option<Vec<_>>>()
                .unwrap_or_default();
            let body_all_vars = body.args.len() == body_vars.len() && all_distinct(&body_vars);
            let body_all_path_vars = body_all_vars && body_vars.iter().all(Var::is_path_var);
            // Form 2: R1(v1..vn, e) ← R2(v1..vn).
            if body_all_path_vars
                && rule.head.arity() == body.arity() + 1
                && rule.head.args[..body.arity()]
                    .iter()
                    .zip(body_vars.iter())
                    .all(|(a, v)| single_var(a) == Some(*v))
            {
                return Some(NormalForm::AddColumn);
            }
            // Form 5: projection (head vars a sub-list of distinct body path vars).
            if body_all_path_vars
                && head_all_path_vars
                && head_vars.iter().all(|v| body_vars.contains(v))
            {
                return Some(NormalForm::Projection);
            }
            // Form 1: extraction (head all distinct vars, body components arbitrary).
            if head_all_vars {
                return Some(NormalForm::Extraction);
            }
            None
        }
        // Form 3: join.
        (2, 0, 2) => {
            if !head_all_path_vars {
                return None;
            }
            let mut body_vars: Vec<Var> = Vec::new();
            for p in &positives {
                for a in &p.args {
                    match single_var(a) {
                        Some(v) if v.is_path_var() => body_vars.push(v),
                        _ => return None,
                    }
                }
            }
            if head_vars.iter().all(|v| body_vars.contains(v)) {
                Some(NormalForm::Join)
            } else {
                None
            }
        }
        // Form 4: antijoin.
        (1, 1, 2) => {
            if !head_all_path_vars {
                return None;
            }
            let body = positives[0];
            let body_vars: Vec<Var> = body
                .args
                .iter()
                .map(single_var)
                .collect::<Option<Vec<_>>>()
                .unwrap_or_default();
            if body.args.len() != body_vars.len()
                || !all_distinct(&body_vars)
                || !body_vars.iter().all(Var::is_path_var)
            {
                return None;
            }
            if head_vars != body_vars {
                return None;
            }
            let neg = negatives[0];
            let neg_vars: Vec<Var> = neg
                .args
                .iter()
                .map(single_var)
                .collect::<Option<Vec<_>>>()
                .unwrap_or_default();
            if neg.args.len() == neg_vars.len()
                && all_distinct(&neg_vars)
                && neg_vars.iter().all(|v| body_vars.contains(v))
            {
                Some(NormalForm::Antijoin)
            } else {
                None
            }
        }
        _ => None,
    }
}

fn single_var(expr: &PathExpr) -> Option<Var> {
    match expr.terms() {
        [Term::Var(v)] => Some(*v),
        _ => None,
    }
}

fn all_distinct(vars: &[Var]) -> bool {
    let mut seen = std::collections::BTreeSet::new();
    vars.iter().all(|v| seen.insert(*v))
}

/// Convert a nonrecursive, equation-free program into the normal form of Lemma 7.2.
/// Every rule of the result satisfies [`classify_rule`].
///
/// # Errors
/// * [`RewriteError::RequiresNonRecursive`] for recursive inputs;
/// * [`RewriteError::UnsupportedFeature`] if the program contains equations
///   (eliminate them first with [`crate::eliminate_equations`]).
pub fn to_normal_form(program: &Program) -> Result<Program, RewriteError> {
    let features = FeatureSet::of_program(program);
    if features.recursion {
        return Err(RewriteError::RequiresNonRecursive {
            rewrite: "normal form (Lemma 7.2)",
        });
    }
    if features.equations {
        return Err(RewriteError::UnsupportedFeature {
            rewrite: "normal form (Lemma 7.2)",
            feature: "equations",
        });
    }
    let mut strata = Vec::new();
    for stratum in &program.strata {
        let mut rules = Vec::new();
        for rule in &stratum.rules {
            rules.extend(normalise_rule(rule));
        }
        strata.push(Stratum::new(rules));
    }
    Ok(Program::new(strata))
}

/// Normalise a single rule into a set of normal-form rules (the "main stratum"
/// construction of the proof of Lemma 7.2).
fn normalise_rule(rule: &Rule) -> Vec<Rule> {
    let mut out: Vec<Rule> = Vec::new();

    // If the rule is already a constant rule, keep it (form 6 allows only ground
    // heads; other bodiless heads cannot occur in safe rules).
    if rule.body.is_empty() {
        out.push(rule.clone());
        return out;
    }

    // Step 1.1: replace every positive atom by a fresh predicate over its variables,
    // and replace atomic variables in the *main rule* by fresh path variables.
    let mut atom_to_path: BTreeMap<Var, Var> = BTreeMap::new();
    for v in rule.vars() {
        if v.kind == VarKind::Atom {
            atom_to_path.insert(v, Var::fresh_path(&format!("nf_{}", v.name)));
        }
    }
    let to_main_expr = |v: Var| -> PathExpr { PathExpr::var(*atom_to_path.get(&v).unwrap_or(&v)) };

    let mut positive_atoms: Vec<Predicate> = Vec::new();
    let mut negated_literals: Vec<Predicate> = Vec::new();
    for lit in &rule.body {
        let Atom::Pred(p) = &lit.atom else {
            unreachable!("equation-free precondition checked by to_normal_form");
        };
        if lit.positive {
            let vars = p.vars();
            let h_rel = RelName::fresh("NfH");
            if vars.is_empty() {
                // A variable-free atom: H' ← P(e…) (form 1) and H(a) ← H' (form 2).
                let h_prime = RelName::fresh("NfH0");
                out.push(Rule::new(
                    Predicate::nullary(h_prime),
                    vec![Literal::pred(p.clone())],
                ));
                out.push(Rule::new(
                    Predicate::new(h_rel, vec![PathExpr::constant("a")]),
                    vec![Literal::pred(Predicate::nullary(h_prime))],
                ));
                let fresh = Var::fresh_path("nf_v");
                positive_atoms.push(Predicate::new(h_rel, vec![PathExpr::var(fresh)]));
            } else {
                // Form 1 rule: H(vars…) ← P(e…), with the atom's own variables
                // (atomic variables allowed in form-1 heads).
                out.push(Rule::new(
                    Predicate::new(h_rel, vars.iter().map(|v| PathExpr::var(*v)).collect()),
                    vec![Literal::pred(p.clone())],
                ));
                // In the main rule the call uses path variables throughout.
                positive_atoms.push(Predicate::new(
                    h_rel,
                    vars.iter().map(|v| to_main_expr(*v)).collect(),
                ));
            }
        } else {
            negated_literals.push(p.clone());
        }
    }

    // Step 1.2: if there is no positive atom, introduce a constant relation.
    if positive_atoms.is_empty() {
        let c_rel = RelName::fresh("NfConst");
        out.push(Rule::fact(Predicate::new(
            c_rel,
            vec![PathExpr::constant("a")],
        )));
        let fresh = Var::fresh_path("nf_v");
        positive_atoms.push(Predicate::new(c_rel, vec![PathExpr::var(fresh)]));
    }

    // Step 1.2 (joining): combine positive atoms pairwise into a single atom.
    let join_all = |atoms: Vec<Predicate>, out: &mut Vec<Rule>| -> Predicate {
        let mut atoms = atoms;
        while atoms.len() > 1 {
            let a = atoms.remove(0);
            let b = atoms.remove(0);
            let mut vars: Vec<Var> = Vec::new();
            for p in [&a, &b] {
                for v in p.vars() {
                    if !vars.contains(&v) {
                        vars.push(v);
                    }
                }
            }
            let h_rel = RelName::fresh("NfJ");
            let joined = Predicate::new(h_rel, vars.iter().map(|v| PathExpr::var(*v)).collect());
            out.push(Rule::new(
                joined.clone(),
                vec![Literal::pred(a), Literal::pred(b)],
            ));
            atoms.insert(0, joined);
        }
        atoms.pop().expect("at least one atom")
    };
    let h_atom = join_all(positive_atoms, &mut out);

    // Step 2: one intermediate rule per negated literal, then join them back into a
    // single positive atom.
    let h_vars: Vec<Var> = h_atom.vars();
    let mut hn_atoms: Vec<Predicate> = Vec::new();
    let mut negation_rules: Vec<(Predicate, Predicate, Predicate)> = Vec::new();
    for neg in &negated_literals {
        let hn_rel = RelName::fresh("NfN");
        let hn = Predicate::new(hn_rel, h_vars.iter().map(|v| PathExpr::var(*v)).collect());
        // Remember (HN, H, N) to expand in step 3; the negated atom's expressions use
        // the main-rule variable renaming.
        let neg_main = Predicate::new(
            neg.relation,
            neg.args
                .iter()
                .map(|a| {
                    a.substitute(
                        &atom_to_path
                            .iter()
                            .map(|(k, v)| (*k, PathExpr::var(*v)))
                            .collect(),
                    )
                })
                .collect(),
        );
        negation_rules.push((hn.clone(), h_atom.clone(), neg_main));
        hn_atoms.push(hn);
    }
    let main_atom = if hn_atoms.is_empty() {
        h_atom.clone()
    } else {
        join_all(hn_atoms, &mut out)
    };

    // Step 3: expand each negation rule HN ← H, ¬N(e…) into forms 2, 4, and 5.
    for (hn, h, neg) in negation_rules {
        let base_vars: Vec<Var> = h.vars();
        let mut chain_rel = h.relation;
        let mut chain_vars: Vec<Var> = base_vars.clone();
        let mut value_vars: Vec<Var> = Vec::new();
        for expr in &neg.args {
            let next_rel = RelName::fresh("NfNe");
            let value_var = Var::fresh_path("nf_ne");
            let mut head_args: Vec<PathExpr> =
                chain_vars.iter().map(|v| PathExpr::var(*v)).collect();
            head_args.push(expr.clone());
            out.push(Rule::new(
                Predicate::new(next_rel, head_args),
                vec![Literal::pred(Predicate::new(
                    chain_rel,
                    chain_vars.iter().map(|v| PathExpr::var(*v)).collect(),
                ))],
            ));
            chain_rel = next_rel;
            chain_vars.push(value_var);
            value_vars.push(value_var);
        }
        // Form 4: FN(vars, values) ← Nm(vars, values), ¬N(values).
        let fn_rel = RelName::fresh("NfF");
        out.push(Rule::new(
            Predicate::new(
                fn_rel,
                chain_vars.iter().map(|v| PathExpr::var(*v)).collect(),
            ),
            vec![
                Literal::pred(Predicate::new(
                    chain_rel,
                    chain_vars.iter().map(|v| PathExpr::var(*v)).collect(),
                )),
                Literal::not_pred(Predicate::new(
                    neg.relation,
                    value_vars.iter().map(|v| PathExpr::var(*v)).collect(),
                )),
            ],
        ));
        // Form 5: HN(base vars) ← FN(vars, values).
        out.push(Rule::new(
            hn,
            vec![Literal::pred(Predicate::new(
                fn_rel,
                chain_vars.iter().map(|v| PathExpr::var(*v)).collect(),
            ))],
        ));
    }

    // Step 4: generate the final head expressions through a chain of form-2 rules,
    // then project with a form-5 rule.
    let head_exprs: Vec<PathExpr> = rule
        .head
        .args
        .iter()
        .map(|a| {
            a.substitute(
                &atom_to_path
                    .iter()
                    .map(|(k, v)| (*k, PathExpr::var(*v)))
                    .collect(),
            )
        })
        .collect();
    let base_vars: Vec<Var> = main_atom.vars();
    let mut chain_rel = main_atom.relation;
    let mut chain_vars = base_vars.clone();
    let mut value_vars: Vec<Var> = Vec::new();
    for expr in &head_exprs {
        let next_rel = RelName::fresh("NfT");
        let value_var = Var::fresh_path("nf_t");
        let mut head_args: Vec<PathExpr> = chain_vars.iter().map(|v| PathExpr::var(*v)).collect();
        head_args.push(expr.clone());
        out.push(Rule::new(
            Predicate::new(next_rel, head_args),
            vec![Literal::pred(Predicate::new(
                chain_rel,
                chain_vars.iter().map(|v| PathExpr::var(*v)).collect(),
            ))],
        ));
        chain_rel = next_rel;
        chain_vars.push(value_var);
        value_vars.push(value_var);
    }
    out.push(Rule::new(
        Predicate::new(
            rule.head.relation,
            value_vars.iter().map(|v| PathExpr::var(*v)).collect(),
        ),
        vec![Literal::pred(Predicate::new(
            chain_rel,
            chain_vars.iter().map(|v| PathExpr::var(*v)).collect(),
        ))],
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdl_core::{path_of, rel, Fact, Instance, Path};
    use seqdl_exec::run_unary_query;
    use seqdl_syntax::{parse_program, parse_rule};
    use std::collections::BTreeSet;

    #[test]
    fn classify_recognises_all_six_forms() {
        let cases = [
            (
                "H($y, $z, @u) <- P1($y·$y, $z·a, @u·d).",
                NormalForm::Extraction,
            ),
            ("N1($y, $z, $x·$y) <- H($y, $z).", NormalForm::AddColumn),
            (
                "H($y, $z, $u, $x) <- H1($y, $z, $u), H2($z, $x).",
                NormalForm::Join,
            ),
            (
                "F($y, $z, $n) <- N1($y, $z, $n), !N($n).",
                NormalForm::Antijoin,
            ),
            ("HN($y, $z) <- F($y, $z, $n).", NormalForm::Projection),
            ("T(a·b·c).", NormalForm::Constant),
        ];
        for (src, expected) in cases {
            let rule = parse_rule(src).unwrap();
            assert_eq!(classify_rule(&rule), Some(expected), "{src}");
        }
    }

    #[test]
    fn classify_rejects_non_normal_rules() {
        let not_normal = [
            "S($x) <- R($x), Q($x), P($x).", // three-way join
            "S($x·a) <- R($x), Q($x).",      // join with computed head
            "S($x) <- R($x), a·$x = $x·a.",  // equation
            "S($x·a) <- R($x).", // computed head over a single atom (not distinct variables)
        ];
        for src in not_normal {
            let rule = parse_rule(src).unwrap();
            assert_eq!(classify_rule(&rule), None, "{src}");
        }
    }

    fn assert_normalised_equivalent(src: &str, output: &str, inputs: Vec<Instance>) {
        let program = parse_program(src).unwrap();
        let normal = to_normal_form(&program).unwrap();
        for rule in normal.rules() {
            assert!(
                classify_rule(rule).is_some(),
                "rule not in normal form: {rule}"
            );
        }
        for input in inputs {
            let a = run_unary_query(&program, &input, rel(output)).unwrap();
            let b = run_unary_query(&normal, &input, rel(output)).unwrap();
            assert_eq!(a, b, "normalisation changed the query on {input}");
        }
    }

    #[test]
    fn simple_copy_rule_normalises() {
        assert_normalised_equivalent(
            "S($x) <- R($x).",
            "S",
            vec![
                Instance::unary(rel("R"), [path_of(&["a", "b"]), Path::empty()]),
                Instance::unary(rel("R"), []),
            ],
        );
    }

    #[test]
    fn extraction_and_head_construction_normalise() {
        assert_normalised_equivalent(
            "S($x·$x·c) <- R(a·$x·b).",
            "S",
            vec![Instance::unary(
                rel("R"),
                [
                    path_of(&["a", "z", "b"]),
                    path_of(&["a", "b"]),
                    path_of(&["z"]),
                ],
            )],
        );
    }

    #[test]
    fn joins_and_atomic_variables_normalise() {
        let mut input = Instance::unary(rel("R"), [path_of(&["a", "b"]), path_of(&["c", "d"])]);
        for p in [path_of(&["b"]), path_of(&["d"])] {
            input.insert_fact(Fact::new(rel("Q"), vec![p])).unwrap();
        }
        assert_normalised_equivalent("S(@u) <- R(@v·@u), Q(@u).", "S", vec![input]);
    }

    #[test]
    fn negation_normalises_into_antijoin_chains() {
        let mut input = Instance::unary(rel("R"), [path_of(&["a", "b"]), path_of(&["c", "d"])]);
        input
            .insert_fact(Fact::new(rel("B"), vec![path_of(&["b"])]))
            .unwrap();
        assert_normalised_equivalent("S(@x) <- R(@x·@y), !B(@y).", "S", vec![input]);
    }

    #[test]
    fn two_strata_with_negation_normalise() {
        let mut input = Instance::new();
        for (a, b) in [("n1", "n2"), ("n1", "n3"), ("n4", "n2")] {
            input
                .insert_fact(Fact::new(rel("R"), vec![path_of(&[a, b])]))
                .unwrap();
        }
        input
            .insert_fact(Fact::new(rel("B"), vec![path_of(&["n2"])]))
            .unwrap();
        assert_normalised_equivalent(
            "W(@x) <- R(@x·@y), !B(@y).\n---\nS(@x) <- R(@x·@y), !W(@x).",
            "S",
            vec![input],
        );
    }

    #[test]
    fn section_7_worked_example_normalises() {
        // The general example from the proof of Lemma 7.2 (relation names shortened,
        // data chosen so that some tuples survive the negations).
        let src = "T(a·b·c, @x·c·$y, $z·$z) <- P1($y·$y, $z·a, @u·d), P2($z·@x·c, d), !N1(@x·$y·$z, a·@x), !N2(a·b, $y).";
        let program = parse_program(src).unwrap();
        let normal = to_normal_form(&program).unwrap();
        for rule in normal.rules() {
            assert!(classify_rule(rule).is_some(), "not normal: {rule}");
        }
        // Build an instance where the body is satisfiable.
        let mut input = Instance::new();
        input
            .insert_fact(Fact::new(
                rel("P1"),
                vec![
                    path_of(&["y", "y"]),
                    path_of(&["z", "a"]),
                    path_of(&["u", "d"]),
                ],
            ))
            .unwrap();
        input
            .insert_fact(Fact::new(
                rel("P2"),
                vec![path_of(&["z", "x", "c"]), path_of(&["d"])],
            ))
            .unwrap();
        let executor = seqdl_exec::Executor::new();
        let a = executor.run(&program, &input).unwrap();
        let b = executor.run(&normal, &input).unwrap();
        assert_eq!(
            a.relation(rel("T")).map(|r| r.tuples()),
            b.relation(rel("T")).map(|r| r.tuples())
        );
        assert_eq!(a.relation(rel("T")).unwrap().len(), 1);
    }

    #[test]
    fn recursion_and_equations_are_rejected() {
        let recursive = parse_program("T($x·a) <- T($x).\nT($x) <- R($x).").unwrap();
        assert!(matches!(
            to_normal_form(&recursive),
            Err(RewriteError::RequiresNonRecursive { .. })
        ));
        let with_eq = parse_program("S($x) <- R($x), a·$x = $x·a.").unwrap();
        assert!(matches!(
            to_normal_form(&with_eq),
            Err(RewriteError::UnsupportedFeature { .. })
        ));
    }

    #[test]
    fn constant_rules_pass_through() {
        let program = parse_program("T(a·b).\nS($x) <- T($x).").unwrap();
        let normal = to_normal_form(&program).unwrap();
        for rule in normal.rules() {
            assert!(classify_rule(rule).is_some(), "not normal: {rule}");
        }
        let out = run_unary_query(&normal, &Instance::new(), rel("S")).unwrap();
        assert_eq!(out, BTreeSet::from([path_of(&["a", "b"])]));
    }
}
