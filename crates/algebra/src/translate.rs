//! The two directions of Theorem 7.1: sequence relational algebra ⇄ nonrecursive
//! Sequence Datalog.

use crate::expr::{col, AlgebraError, AlgebraExpr};
use seqdl_core::RelName;
use seqdl_rewrite::{classify_rule, to_normal_form, NormalForm};
use seqdl_syntax::{Literal, PathExpr, Predicate, Program, Rule, Stratum, Term, Var};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// Algebra -> Datalog
// ---------------------------------------------------------------------------

/// Translate an algebra expression into a nonrecursive Sequence Datalog program
/// computing the same relation in `output` ("That sequence relational algebra can be
/// translated to Sequence Datalog is clear", Section 7).
pub fn algebra_to_datalog(expr: &AlgebraExpr, output: RelName) -> Result<Program, AlgebraError> {
    let mut strata: Vec<Stratum> = Vec::new();
    let top = translate_expr(expr, &mut strata)?;
    // Final copy rule into the requested output name.
    let arity = expr.arity()?;
    let vars: Vec<PathExpr> = (0..arity)
        .map(|i| PathExpr::var(Var::path(&format!("c{i}"))))
        .collect();
    strata.push(Stratum::new(vec![Rule::new(
        Predicate::new(output, vars.clone()),
        vec![Literal::pred(Predicate::new(top, vars))],
    )]));
    Ok(Program::new(strata))
}

/// Translate `expr`, appending strata that define a fresh relation holding its
/// value, and return that relation's name.
fn translate_expr(expr: &AlgebraExpr, strata: &mut Vec<Stratum>) -> Result<RelName, AlgebraError> {
    let arity = expr.arity()?;
    let me = RelName::fresh("Alg");
    let vars: Vec<Var> = (0..arity).map(|i| Var::path(&format!("c{i}"))).collect();
    let var_exprs: Vec<PathExpr> = vars.iter().map(|v| PathExpr::var(*v)).collect();
    let head = Predicate::new(me, var_exprs.clone());

    let rules = match expr {
        AlgebraExpr::Relation { name, .. } => vec![Rule::new(
            head,
            vec![Literal::pred(Predicate::new(*name, var_exprs.clone()))],
        )],
        AlgebraExpr::Constant { tuples, .. } => tuples
            .iter()
            .map(|t| {
                Rule::fact(Predicate::new(
                    me,
                    t.iter().map(PathExpr::from_path).collect(),
                ))
            })
            .collect(),
        AlgebraExpr::Union(a, b) => {
            let ra = translate_expr(a, strata)?;
            let rb = translate_expr(b, strata)?;
            vec![
                Rule::new(
                    head.clone(),
                    vec![Literal::pred(Predicate::new(ra, var_exprs.clone()))],
                ),
                Rule::new(
                    head,
                    vec![Literal::pred(Predicate::new(rb, var_exprs.clone()))],
                ),
            ]
        }
        AlgebraExpr::Difference(a, b) => {
            let ra = translate_expr(a, strata)?;
            let rb = translate_expr(b, strata)?;
            vec![Rule::new(
                head,
                vec![
                    Literal::pred(Predicate::new(ra, var_exprs.clone())),
                    Literal::not_pred(Predicate::new(rb, var_exprs.clone())),
                ],
            )]
        }
        AlgebraExpr::Product(a, b) => {
            let ra = translate_expr(a, strata)?;
            let rb = translate_expr(b, strata)?;
            let na = a.arity()?;
            vec![Rule::new(
                head,
                vec![
                    Literal::pred(Predicate::new(ra, var_exprs[..na].to_vec())),
                    Literal::pred(Predicate::new(rb, var_exprs[na..].to_vec())),
                ],
            )]
        }
        AlgebraExpr::Select { input, lhs, rhs } => {
            let ri = translate_expr(input, strata)?;
            vec![Rule::new(
                head,
                vec![
                    Literal::pred(Predicate::new(ri, var_exprs.clone())),
                    Literal::eq(columns_to_vars(lhs, &vars), columns_to_vars(rhs, &vars)),
                ],
            )]
        }
        AlgebraExpr::Project { input, exprs } => {
            let ri = translate_expr(input, strata)?;
            let in_arity = input.arity()?;
            let in_vars: Vec<Var> = (0..in_arity).map(|i| Var::path(&format!("c{i}"))).collect();
            let in_var_exprs: Vec<PathExpr> = in_vars.iter().map(|v| PathExpr::var(*v)).collect();
            vec![Rule::new(
                Predicate::new(
                    me,
                    exprs.iter().map(|e| columns_to_vars(e, &in_vars)).collect(),
                ),
                vec![Literal::pred(Predicate::new(ri, in_var_exprs))],
            )]
        }
        AlgebraExpr::Unpack { input, column } => {
            let ri = translate_expr(input, strata)?;
            let mut body_args = var_exprs.clone();
            body_args[*column - 1] =
                PathExpr::singleton(Term::Packed(PathExpr::var(vars[*column - 1])));
            vec![Rule::new(
                head,
                vec![Literal::pred(Predicate::new(ri, body_args))],
            )]
        }
        AlgebraExpr::Substrings { input, column } => {
            let ri = translate_expr(input, strata)?;
            let in_arity = input.arity()?;
            let u = Var::fresh_path("sub_u");
            let w = Var::fresh_path("sub_w");
            // Column `column` of the operand is matched as $u·$s·$w where $s is the
            // new last column.
            let s = vars[in_arity]; // the appended column variable
            let mut body_args: Vec<PathExpr> = var_exprs[..in_arity].to_vec();
            body_args[*column - 1] =
                PathExpr::from_terms([Term::Var(u), Term::Var(s), Term::Var(w)]);
            let mut head_args: Vec<PathExpr> = var_exprs[..in_arity].to_vec();
            head_args[*column - 1] = body_args[*column - 1].clone();
            head_args.push(PathExpr::var(s));
            vec![Rule::new(
                Predicate::new(me, head_args),
                vec![Literal::pred(Predicate::new(ri, body_args))],
            )]
        }
    };
    strata.push(Stratum::new(rules));
    Ok(me)
}

/// Replace the column variables `$1..$n` in a selection/projection expression by the
/// given rule variables.
fn columns_to_vars(expr: &PathExpr, vars: &[Var]) -> PathExpr {
    let map: BTreeMap<Var, PathExpr> = vars
        .iter()
        .enumerate()
        .map(|(i, v)| (Var::path(&(i + 1).to_string()), PathExpr::var(*v)))
        .collect();
    expr.substitute(&map)
}

// ---------------------------------------------------------------------------
// Datalog -> Algebra
// ---------------------------------------------------------------------------

/// Translate a nonrecursive, equation-free Sequence Datalog program into an algebra
/// expression for the IDB relation `target` (Theorem 7.1).
///
/// Programs with equations can be handled by composing with
/// [`seqdl_rewrite::eliminate_equations`] first.
///
/// # Errors
/// Translation errors (recursion, equations, or rules outside Lemma 7.2 shapes after
/// normalisation — the latter indicates a bug).
pub fn datalog_to_algebra(program: &Program, target: RelName) -> Result<AlgebraExpr, AlgebraError> {
    let normal = to_normal_form(program)
        .map_err(|e| AlgebraError::Translation(format!("normal form failed: {e}")))?;
    let arities = normal
        .relation_arities()
        .map_err(|e| AlgebraError::Translation(format!("inconsistent arities: {e}")))?;
    let idb = normal.idb_relations();
    let mut memo: BTreeMap<RelName, AlgebraExpr> = BTreeMap::new();
    let rules: Vec<Rule> = normal.rules().cloned().collect();
    let expr = expr_for_relation(target, &rules, &idb, &arities, &mut memo, 0)?;
    Ok(expr)
}

fn expr_for_relation(
    relation: RelName,
    rules: &[Rule],
    idb: &std::collections::BTreeSet<RelName>,
    arities: &BTreeMap<RelName, usize>,
    memo: &mut BTreeMap<RelName, AlgebraExpr>,
    depth: usize,
) -> Result<AlgebraExpr, AlgebraError> {
    if let Some(e) = memo.get(&relation) {
        return Ok(e.clone());
    }
    if depth > 10_000 {
        return Err(AlgebraError::Translation(
            "relation dependency too deep (recursive program?)".into(),
        ));
    }
    if !idb.contains(&relation) {
        let arity = arities.get(&relation).copied().unwrap_or(1);
        return Ok(AlgebraExpr::relation(relation, arity));
    }
    let defining: Vec<&Rule> = rules
        .iter()
        .filter(|r| r.head.relation == relation)
        .collect();
    let arity = arities.get(&relation).copied().unwrap_or(0);
    let mut expr: Option<AlgebraExpr> = None;
    for rule in defining {
        let rule_expr = expr_for_rule(rule, rules, idb, arities, memo, depth + 1)?;
        expr = Some(match expr {
            None => rule_expr,
            Some(prev) => AlgebraExpr::union(prev, rule_expr),
        });
    }
    let result = expr.unwrap_or(AlgebraExpr::Constant {
        arity,
        tuples: Vec::new(),
    });
    memo.insert(relation, result.clone());
    Ok(result)
}

fn expr_for_rule(
    rule: &Rule,
    rules: &[Rule],
    idb: &std::collections::BTreeSet<RelName>,
    arities: &BTreeMap<RelName, usize>,
    memo: &mut BTreeMap<RelName, AlgebraExpr>,
    depth: usize,
) -> Result<AlgebraExpr, AlgebraError> {
    let form = classify_rule(rule).ok_or_else(|| {
        AlgebraError::Translation(format!("rule is not in Lemma 7.2 normal form: {rule}"))
    })?;
    let mut sub = |rel: RelName| expr_for_relation(rel, rules, idb, arities, memo, depth + 1);
    match form {
        NormalForm::Constant => {
            let tuple: Option<Vec<_>> = rule.head.args.iter().map(PathExpr::as_path).collect();
            Ok(AlgebraExpr::Constant {
                arity: rule.head.arity(),
                tuples: vec![tuple.expect("constant rules have ground heads")],
            })
        }
        NormalForm::AddColumn => {
            // R1(v1..vn, e) ← R2(v1..vn): project R2 onto ($1..$n, e[$i/vi]).
            let body = rule.positive_body_predicates()[0];
            let input = sub(body.relation)?;
            let body_vars: Vec<Var> = body.args.iter().map(|a| a.vars()[0]).collect();
            let mut exprs: Vec<PathExpr> = (1..=body_vars.len()).map(col).collect();
            let last = rule.head.args.last().expect("arity n+1");
            exprs.push(vars_to_columns(last, &body_vars));
            Ok(AlgebraExpr::project(input, exprs))
        }
        NormalForm::Projection => {
            let body = rule.positive_body_predicates()[0];
            let input = sub(body.relation)?;
            let body_vars: Vec<Var> = body.args.iter().map(|a| a.vars()[0]).collect();
            let exprs: Vec<PathExpr> = rule
                .head
                .args
                .iter()
                .map(|a| vars_to_columns(a, &body_vars))
                .collect();
            Ok(AlgebraExpr::project(input, exprs))
        }
        NormalForm::Join => {
            let positives = rule.positive_body_predicates();
            let (p1, p2) = (positives[0], positives[1]);
            let left = sub(p1.relation)?;
            let right = sub(p2.relation)?;
            let product = AlgebraExpr::product(left, right);
            // Column for each variable occurrence; add selections for repeats.
            let mut all_vars: Vec<Var> = Vec::new();
            for p in [p1, p2] {
                for a in &p.args {
                    all_vars.push(a.vars()[0]);
                }
            }
            let mut selected = product;
            let mut first_col: BTreeMap<Var, usize> = BTreeMap::new();
            for (i, v) in all_vars.iter().enumerate() {
                match first_col.get(v) {
                    None => {
                        first_col.insert(*v, i + 1);
                    }
                    Some(&j) => {
                        selected = AlgebraExpr::select(selected, col(j), col(i + 1));
                    }
                }
            }
            let exprs: Vec<PathExpr> = rule
                .head
                .args
                .iter()
                .map(|a| col(first_col[&a.vars()[0]]))
                .collect();
            Ok(AlgebraExpr::project(selected, exprs))
        }
        NormalForm::Antijoin => {
            // R1(v1..vn) ← R2(v1..vn), ¬R3(v'1..v'm): R2 − (tuples matching R3).
            let body = rule.positive_body_predicates()[0];
            let neg = rule.negative_body_predicates()[0];
            let base = sub(body.relation)?;
            let neg_expr = sub(neg.relation)?;
            let body_vars: Vec<Var> = body.args.iter().map(|a| a.vars()[0]).collect();
            let n = body_vars.len();
            let mut matching = AlgebraExpr::product(base.clone(), neg_expr);
            for (i, a) in neg.args.iter().enumerate() {
                let v = a.vars()[0];
                let j = body_vars.iter().position(|bv| *bv == v).expect("v' ⊆ v") + 1;
                matching = AlgebraExpr::select(matching, col(j), col(n + i + 1));
            }
            let matching = AlgebraExpr::project(matching, (1..=n).map(col).collect());
            Ok(AlgebraExpr::difference(base, matching))
        }
        NormalForm::Extraction => {
            // R1(v1..vn) ← R2(e1..em): generate candidate values for the variables
            // from substrings (and unpackings) of R2's columns, then select the
            // tuples where each e_j equals column j, and project onto the variables.
            let body = rule.positive_body_predicates()[0];
            let input = sub(body.relation)?;
            let m = body.arity();
            let head_vars: Vec<Var> = rule.head.args.iter().map(|a| a.vars()[0]).collect();
            let depth_needed = body
                .args
                .iter()
                .map(PathExpr::packing_depth)
                .max()
                .unwrap_or(0);

            // CAND: one-column relation of all candidate values.
            let mut cand: Option<AlgebraExpr> = None;
            for i in 1..=m {
                let subs = AlgebraExpr::project(
                    AlgebraExpr::substrings(input.clone(), i),
                    vec![col(m + 1)],
                );
                cand = Some(match cand {
                    None => subs,
                    Some(prev) => AlgebraExpr::union(prev, subs),
                });
            }
            let mut cand = cand.ok_or_else(|| {
                AlgebraError::Translation("extraction rule with nullary body".into())
            })?;
            // Deepen: values inside packed candidates, up to the nesting depth used
            // by the rule.
            let mut level = cand.clone();
            for _ in 0..depth_needed {
                // Unpack the (single) column, then take substrings of the content.
                let unpacked = AlgebraExpr::unpack(level.clone(), 1);
                let inner =
                    AlgebraExpr::project(AlgebraExpr::substrings(unpacked, 1), vec![col(2)]);
                cand = AlgebraExpr::union(cand, inner.clone());
                level = inner;
            }
            let atomic_cand = atomic_filter(&cand);

            // R2 × candidates for each variable.
            let mut combined = input;
            for v in &head_vars {
                let candidates = if v.is_atom_var() {
                    atomic_cand.clone()
                } else {
                    cand.clone()
                };
                combined = AlgebraExpr::product(combined, candidates);
            }
            // Selections: e_j (with variables replaced by their candidate columns)
            // must equal column j.
            let var_col: BTreeMap<Var, usize> = head_vars
                .iter()
                .enumerate()
                .map(|(i, v)| (*v, m + i + 1))
                .collect();
            let mut selected = combined;
            for (j, e) in body.args.iter().enumerate() {
                let map: BTreeMap<Var, PathExpr> = e
                    .vars()
                    .into_iter()
                    .map(|v| (v, col(var_col[&v])))
                    .collect();
                selected = AlgebraExpr::select(selected, e.substitute(&map), col(j + 1));
            }
            let exprs: Vec<PathExpr> = head_vars.iter().map(|v| col(var_col[v])).collect();
            Ok(AlgebraExpr::project(selected, exprs))
        }
    }
}

/// `ATOMIC(C)` for a one-column relation `C`: the tuples whose value is an atomic
/// value, expressed with the primitive operators only (Section 7 remarks that the
/// given operators suffice).
fn atomic_filter(cand: &AlgebraExpr) -> AlgebraExpr {
    // EMPTY: value = ε.
    let empty = AlgebraExpr::select(cand.clone(), col(1), PathExpr::empty());
    // LONG: value has two nonempty parts.  D = SUB_1(SUB_1(C)) has columns
    // (c, s, t); keep c = s·t, drop s = ε and t = ε, project to c.
    let d = AlgebraExpr::substrings(AlgebraExpr::substrings(cand.clone(), 1), 1);
    let split = AlgebraExpr::select(d, col(1), col(2).concat(&col(3)));
    let s_empty = AlgebraExpr::select(split.clone(), col(2), PathExpr::empty());
    let t_empty = AlgebraExpr::select(split.clone(), col(3), PathExpr::empty());
    let long = AlgebraExpr::project(
        AlgebraExpr::difference(AlgebraExpr::difference(split, s_empty), t_empty),
        vec![col(1)],
    );
    // PACKED: duplicate the column and unpack the copy; survivors had packed values.
    let dup = AlgebraExpr::project(cand.clone(), vec![col(1), col(1)]);
    let packed = AlgebraExpr::project(AlgebraExpr::unpack(dup, 2), vec![col(1)]);
    AlgebraExpr::difference(
        AlgebraExpr::difference(AlgebraExpr::difference(cand.clone(), empty), long),
        packed,
    )
}

/// Replace rule variables by the column variables of their positions.
fn vars_to_columns(expr: &PathExpr, body_vars: &[Var]) -> PathExpr {
    let map: BTreeMap<Var, PathExpr> = body_vars
        .iter()
        .enumerate()
        .map(|(i, v)| (*v, col(i + 1)))
        .collect();
    expr.substitute(&map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;
    use seqdl_core::{path_of, rel, Fact, Instance, Path};
    use seqdl_exec::Executor;
    use seqdl_syntax::parse_program;
    use std::collections::BTreeSet;

    /// Check `P(I)(target) = E(I)` for the translated expression (Theorem 7.1).
    fn assert_translation_agrees(src: &str, target: &str, instances: Vec<Instance>) {
        let program = parse_program(src).unwrap();
        let expr = datalog_to_algebra(&program, rel(target)).unwrap();
        let executor = Executor::new();
        for instance in instances {
            let datalog: BTreeSet<Vec<Path>> = executor
                .run(&program, &instance)
                .unwrap()
                .relation(rel(target))
                .map(|r| r.iter().map(<[Path]>::to_vec).collect())
                .unwrap_or_default();
            let algebra = eval(&expr, &instance).unwrap();
            assert_eq!(datalog, algebra, "mismatch for `{src}` on {instance}");
        }
    }

    fn edge_instance(edges: &[(&str, &str)], black: &[&str]) -> Instance {
        let mut inst = Instance::new();
        for (a, b) in edges {
            inst.insert_fact(Fact::new(rel("R"), vec![path_of(&[a, b])]))
                .unwrap();
        }
        for b in black {
            inst.insert_fact(Fact::new(rel("B"), vec![path_of(&[b])]))
                .unwrap();
        }
        inst
    }

    #[test]
    fn algebra_to_datalog_round_trips_each_operator() {
        let mut inst = Instance::new();
        for (x, y) in [("a", "b"), ("b", "c"), ("c", "c")] {
            inst.insert_fact(Fact::new(rel("E"), vec![path_of(&[x]), path_of(&[y])]))
                .unwrap();
        }
        inst.insert_fact(Fact::new(
            rel("P"),
            vec![Path::singleton(seqdl_core::Value::packed(path_of(&[
                "x", "y",
            ])))],
        ))
        .unwrap();
        let exprs = vec![
            AlgebraExpr::relation(rel("E"), 2),
            AlgebraExpr::select(AlgebraExpr::relation(rel("E"), 2), col(1), col(2)),
            AlgebraExpr::project(
                AlgebraExpr::relation(rel("E"), 2),
                vec![col(2).concat(&col(1))],
            ),
            AlgebraExpr::union(
                AlgebraExpr::project(AlgebraExpr::relation(rel("E"), 2), vec![col(1)]),
                AlgebraExpr::project(AlgebraExpr::relation(rel("E"), 2), vec![col(2)]),
            ),
            AlgebraExpr::difference(
                AlgebraExpr::project(AlgebraExpr::relation(rel("E"), 2), vec![col(1)]),
                AlgebraExpr::project(AlgebraExpr::relation(rel("E"), 2), vec![col(2)]),
            ),
            AlgebraExpr::product(
                AlgebraExpr::relation(rel("E"), 2),
                AlgebraExpr::relation(rel("E"), 2),
            ),
            AlgebraExpr::substrings(AlgebraExpr::relation(rel("P"), 1), 1),
            AlgebraExpr::unpack(AlgebraExpr::relation(rel("P"), 1), 1),
            AlgebraExpr::constant(1, vec![vec![path_of(&["q"])]]),
        ];
        let executor = Executor::new();
        for expr in exprs {
            let program = algebra_to_datalog(&expr, rel("Out")).unwrap();
            let expected = eval(&expr, &inst).unwrap();
            let got: BTreeSet<Vec<Path>> = executor
                .run(&program, &inst)
                .unwrap()
                .relation(rel("Out"))
                .map(|r| r.iter().map(<[Path]>::to_vec).collect())
                .unwrap_or_default();
            assert_eq!(expected, got, "mismatch for {expr}");
        }
    }

    #[test]
    fn copy_and_projection_rules_translate() {
        assert_translation_agrees(
            "S($x) <- R($x).",
            "S",
            vec![
                Instance::unary(rel("R"), [path_of(&["a", "b"]), Path::empty()]),
                Instance::unary(rel("R"), []),
            ],
        );
    }

    #[test]
    fn extraction_rules_translate() {
        assert_translation_agrees(
            "S($x) <- R(a·$x·b).",
            "S",
            vec![Instance::unary(
                rel("R"),
                [
                    path_of(&["a", "z", "b"]),
                    path_of(&["a", "b"]),
                    path_of(&["b", "a"]),
                ],
            )],
        );
    }

    #[test]
    fn extraction_with_atomic_variables_translates() {
        // @u must bind an atomic value: a·b·d (with @u = b) qualifies, a·b·c·d does
        // not.
        assert_translation_agrees(
            "S(@u) <- R(a·@u·d).",
            "S",
            vec![Instance::unary(
                rel("R"),
                [path_of(&["a", "b", "d"]), path_of(&["a", "b", "c", "d"])],
            )],
        );
    }

    #[test]
    fn joins_translate() {
        let mut inst = Instance::unary(rel("R"), [path_of(&["a"]), path_of(&["b"])]);
        for p in [path_of(&["b"]), path_of(&["c"])] {
            inst.insert_fact(Fact::new(rel("Q"), vec![p])).unwrap();
        }
        assert_translation_agrees("S($x) <- R($x), Q($x).", "S", vec![inst]);
    }

    #[test]
    fn negation_translates_to_difference() {
        assert_translation_agrees(
            "S(@x) <- R(@x·@y), !B(@y).",
            "S",
            vec![
                edge_instance(&[("n1", "n2"), ("n1", "n3"), ("n4", "n2")], &["n2"]),
                edge_instance(&[("n1", "n2")], &[]),
            ],
        );
    }

    #[test]
    fn two_strata_translate() {
        assert_translation_agrees(
            "W(@x) <- R(@x·@y), !B(@y).\n---\nS(@x) <- R(@x·@y), !W(@x).",
            "S",
            vec![edge_instance(
                &[("n1", "n2"), ("n1", "n3"), ("n4", "n2")],
                &["n2"],
            )],
        );
    }

    #[test]
    fn packed_extraction_translates() {
        // Extract the content of a packed value.
        let mut inst = Instance::new();
        inst.insert_fact(Fact::new(
            rel("R"),
            vec![Path::from_values([
                seqdl_core::Value::atom("c"),
                seqdl_core::Value::packed(path_of(&["a", "b"])),
            ])],
        ))
        .unwrap();
        inst.insert_fact(Fact::new(rel("R"), vec![path_of(&["c", "d"])]))
            .unwrap();
        assert_translation_agrees("S($x) <- R(c·<$x>).", "S", vec![inst]);
    }

    #[test]
    fn recursive_programs_are_rejected() {
        let program = parse_program("T($x·a) <- T($x).\nT($x) <- R($x).").unwrap();
        assert!(datalog_to_algebra(&program, rel("T")).is_err());
    }
}
