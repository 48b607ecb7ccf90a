//! Demand-driven (magic-set) query transformation.
//!
//! Given a program and a *goal* pattern such as `Reach(a·b·$x)`, [`magic`]
//! rewrites the program so that bottom-up evaluation only derives facts
//! *demanded* by the goal, instead of materialising the whole model:
//!
//! 1. the goal is **adorned** ([`seqdl_syntax::Adornment`]): a column is bound
//!    when the goal fixes the first value of its path — the same granularity
//!    the storage layer's column index keys on;
//! 2. every demanded IDB relation `P` gets, per adornment `α`, an **adorned
//!    copy** `P__m_α` whose rules are the original rules with (a) a *magic
//!    guard* `magic_P_α(…)` prepended where the head structure allows it and
//!    (b) positive IDB body atoms renamed to their own adorned copies;
//! 3. **magic rules** derive demand sideways: for each IDB subgoal, the guard
//!    plus the body prefix before the subgoal (in the body planner's order)
//!    implies a magic fact for that subgoal's bound first values;
//! 4. the goal's own bound first values become **seed facts** for the goal
//!    relation's magic predicate; the caller injects them with
//!    `Executor::run_seeded` and reads answers from
//!    [`MagicProgram::answer`], filtered through [`goal_matches`].
//!
//! Negation is handled conservatively: a relation read under negation must be
//! complete, so every such relation — and, transitively, everything it reads —
//! is evaluated *in full* under its original name, in its original stratum.
//! The adorned rules form one final stratum; they only negate original
//! relations, which are defined strictly earlier, so the rewritten program
//! passes the same safety and stratification analyses as the input (this is
//! checked before returning).

use crate::error::RewriteError;
use seqdl_core::{Fact, Instance, Path, RelName, Tuple, Value};
use seqdl_engine::matching::predicate_matches;
use seqdl_syntax::analysis::{check_safety, check_stratification};
use seqdl_syntax::{
    first_value_expr, guard_exprs, parse_rule, sip_order, Adornment, Atom, Literal, Predicate,
    Program, Rule, Stratum, Term, Var,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The result of the magic-set transformation: the rewritten program, the
/// demand seed facts, and where to read the goal's answers.
#[derive(Clone, Debug)]
pub struct MagicProgram {
    /// The rewritten (adorned + magic) program.
    pub program: Program,
    /// Seed facts for the goal's magic predicate — the goal's bound first
    /// values.  Inject with `Executor::run_seeded`.
    pub seeds: Vec<Fact>,
    /// The relation holding the goal's candidate answers (the goal relation's
    /// adorned copy).  Filter its tuples through [`goal_matches`].
    pub answer: RelName,
    /// The goal pattern itself.
    pub goal: Predicate,
}

impl MagicProgram {
    /// The goal answers in `result`: the tuples of the answer relation that
    /// match the goal pattern, as a sorted set.
    pub fn answers(&self, result: &Instance) -> BTreeSet<Tuple> {
        result
            .relation(self.answer)
            .map(|rel| {
                rel.iter()
                    .filter(|t| goal_matches(&self.goal, t))
                    .map(<[Path]>::to_vec)
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// Parse a goal pattern like `Reach(a·b·$x)?` (the trailing `?` and `.` are
/// optional).
///
/// # Errors
/// [`RewriteError::BadGoal`] when the text is not a single predicate pattern.
pub fn parse_goal(text: &str) -> Result<Predicate, RewriteError> {
    let trimmed = text.trim().trim_end_matches('?').trim_end_matches('.');
    let rule = parse_rule(&format!("{trimmed}.")).map_err(|e| RewriteError::BadGoal {
        message: format!("cannot parse goal `{text}`: {e}"),
    })?;
    if !rule.body.is_empty() {
        return Err(RewriteError::BadGoal {
            message: format!("goal `{text}` must be a single predicate pattern, not a rule"),
        });
    }
    Ok(rule.head)
}

/// Does `tuple` match the goal pattern (under some assignment of the goal's
/// variables)?  Decides existence only — the matcher short-circuits at the
/// first match and never clones or collects a valuation.
pub fn goal_matches(goal: &Predicate, tuple: &[Path]) -> bool {
    predicate_matches(goal, tuple, &seqdl_syntax::Valuation::new())
}

fn adorned_name(relation: RelName, adornment: &Adornment) -> RelName {
    let letters = adornment.letters();
    if letters.is_empty() {
        RelName::new(&format!("{}__m", relation.name()))
    } else {
        RelName::new(&format!("{}__m_{}", relation.name(), letters))
    }
}

fn magic_name(relation: RelName, adornment: &Adornment) -> RelName {
    RelName::new(&format!(
        "magic_{}_{}",
        relation.name(),
        adornment.letters()
    ))
}

/// The ground first *value* of a goal argument expression, for seeding.
fn seed_value(arg: &seqdl_syntax::PathExpr) -> Option<Value> {
    match arg.terms().first() {
        Some(Term::Const(a)) => Some(Value::Atom(*a)),
        Some(Term::Packed(inner)) => inner.as_path().map(Value::packed),
        _ => None,
    }
}

/// Rewrite `program` for demand-driven evaluation of `goal`.
///
/// The returned program, seeded with [`MagicProgram::seeds`], derives — for
/// the answer relation — exactly the facts of the original program's goal
/// relation that match the goal's demand, so
/// `magic(P, g).answers(run_seeded(…)) == { t ∈ full_run(P)[g.relation] | t
/// matches g }` (the differential property the test-suite pins down).
///
/// # Errors
/// [`RewriteError::BadGoal`] when the goal relation is not an IDB relation of
/// the program or its arity disagrees; [`RewriteError::MagicInvariant`] if the
/// rewritten program ever failed the safety or stratification analyses (a bug
/// guard, not an expected outcome).
pub fn magic(program: &Program, goal: &Predicate) -> Result<MagicProgram, RewriteError> {
    let arities = program
        .relation_arities()
        .map_err(|e| RewriteError::BadGoal {
            message: format!("program is ill-formed: {e}"),
        })?;
    let idb = program.idb_relations();
    if !idb.contains(&goal.relation) {
        return Err(RewriteError::BadGoal {
            message: format!(
                "goal relation {} is not an IDB relation of the program",
                goal.relation
            ),
        });
    }
    if arities.get(&goal.relation) != Some(&goal.arity()) {
        return Err(RewriteError::BadGoal {
            message: format!(
                "goal {} has arity {} but the program uses {} with arity {}",
                goal,
                goal.arity(),
                goal.relation,
                arities[&goal.relation]
            ),
        });
    }

    // Rules grouped by head relation, remembering the declared stratum.
    let mut rules_of: BTreeMap<RelName, Vec<(usize, &Rule)>> = BTreeMap::new();
    for (stratum_ix, stratum) in program.strata.iter().enumerate() {
        for rule in &stratum.rules {
            rules_of
                .entry(rule.head.relation)
                .or_default()
                .push((stratum_ix, rule));
        }
    }

    // Pass 1 — the *full* set: IDB relations the goal's rule subtree reads
    // under negation, closed under everything their own rules read.  These
    // must stay complete, so they keep their original names and strata, and
    // demanded rules read them in place (no adorned copy, no double
    // evaluation).
    let closure = |seeds: Vec<RelName>| -> BTreeSet<RelName> {
        let mut out: BTreeSet<RelName> = BTreeSet::new();
        let mut stack = seeds;
        while let Some(r) = stack.pop() {
            if !out.insert(r) {
                continue;
            }
            for (_, rule) in rules_of.get(&r).into_iter().flatten() {
                for body_rel in rule.body_relations() {
                    if idb.contains(&body_rel) && !out.contains(&body_rel) {
                        stack.push(body_rel);
                    }
                }
            }
        }
        out
    };
    let reachable = closure(vec![goal.relation]);
    let full = closure(
        reachable
            .iter()
            .flat_map(|r| rules_of.get(r).into_iter().flatten())
            .flat_map(|(_, rule)| rule.negative_body_predicates())
            .map(|p| p.relation)
            .filter(|r| idb.contains(r))
            .collect(),
    );

    // A goal relation that must itself stay complete gets no adorned copy at
    // all: the rewritten program is just the full portion, answered from the
    // original relation (demand could not have restricted it anyway).
    if full.contains(&goal.relation) {
        let strata: Vec<Stratum> = program
            .strata
            .iter()
            .map(|s| {
                Stratum::new(
                    s.rules
                        .iter()
                        .filter(|r| full.contains(&r.head.relation))
                        .cloned()
                        .collect(),
                )
            })
            .filter(|s| !s.rules.is_empty())
            .collect();
        return Ok(MagicProgram {
            program: Program::new(strata),
            seeds: Vec::new(),
            answer: goal.relation,
            goal: goal.clone(),
        });
    }

    // Pass 2 — the adornment worklist over the demanded portion.
    let goal_adornment = Adornment::of_goal(goal);
    let mut demanded: BTreeSet<(RelName, Adornment)> = BTreeSet::new();
    let mut queue: VecDeque<(RelName, Adornment)> = VecDeque::new();
    demanded.insert((goal.relation, goal_adornment.clone()));
    queue.push_back((goal.relation, goal_adornment.clone()));

    let mut adorned_rules: Vec<Rule> = Vec::new();
    let mut magic_rules: Vec<Rule> = Vec::new();
    let mut generated: BTreeSet<RelName> = BTreeSet::new();

    while let Some((relation, adornment)) = queue.pop_front() {
        generated.insert(adorned_name(relation, &adornment));
        if !adornment.is_all_free() {
            generated.insert(magic_name(relation, &adornment));
        }
        for (_, rule) in rules_of.get(&relation).into_iter().flatten() {
            // The magic guard, where the head structure allows one.  A rule
            // whose bound head columns start with path variables (or ε) cannot
            // be guarded and runs unrestricted — sound, just less selective.
            let guard: Option<Predicate> = if adornment.is_all_free() {
                None
            } else {
                guard_exprs(&rule.head, &adornment)
                    .map(|exprs| Predicate::new(magic_name(relation, &adornment), exprs))
            };
            let mut seed_bound: BTreeSet<Var> = BTreeSet::new();
            if let Some(g) = &guard {
                seed_bound.extend(g.vars());
            }
            let sip = sip_order(rule, &seed_bound);
            let mut sip_at: BTreeMap<usize, &Adornment> = BTreeMap::new();
            for step in &sip {
                sip_at.insert(step.body_index, &step.adornment);
            }

            let mut new_body: Vec<Literal> = guard.iter().cloned().map(Literal::pred).collect();
            // The body prefix (guard + earlier positive predicates, already
            // renamed) that implies demand for each subgoal.
            let mut prefix: Vec<Literal> = new_body.clone();
            for (body_index, lit) in rule.body.iter().enumerate() {
                let pred = lit.atom.as_predicate();
                match pred {
                    Some(q) if lit.positive && full.contains(&q.relation) => {
                        // A complete relation is read in place — its original
                        // rules are included below, so no adorned copy and no
                        // demand machinery are needed.
                        let _ = q;
                        new_body.push(lit.clone());
                        prefix.push(lit.clone());
                    }
                    Some(q) if lit.positive && idb.contains(&q.relation) => {
                        let beta = sip_at[&body_index];
                        if demanded.insert((q.relation, beta.clone())) {
                            queue.push_back((q.relation, beta.clone()));
                        }
                        let renamed =
                            Predicate::new(adorned_name(q.relation, beta), q.args.clone());
                        if !beta.is_all_free() {
                            // Demand rule: the prefix implies the subgoal's
                            // bound first values.  Bound columns have a first-
                            // value expression by construction of the adornment.
                            let bound_now: BTreeSet<Var> =
                                prefix.iter().flat_map(Literal::vars).collect();
                            let head_args: Vec<seqdl_syntax::PathExpr> = q
                                .args
                                .iter()
                                .zip(beta.columns())
                                .filter(|(_, c)| **c == seqdl_syntax::ColumnBinding::Bound)
                                .map(|(arg, _)| {
                                    first_value_expr(arg, &bound_now)
                                        .expect("bound columns have a first value")
                                })
                                .collect();
                            let head = Predicate::new(magic_name(q.relation, beta), head_args);
                            // Skip the degenerate self-implication `m(x) <- m(x).`
                            let trivial = prefix.len() == 1
                                && prefix[0].positive
                                && prefix[0].atom == Atom::Pred(head.clone());
                            if !trivial {
                                magic_rules.push(Rule::new(head, prefix.clone()));
                            }
                        }
                        new_body.push(Literal::pred(renamed.clone()));
                        prefix.push(Literal::pred(renamed));
                    }
                    Some(q) if lit.positive => {
                        // EDB predicates keep their names and join the prefix.
                        let _ = q;
                        new_body.push(lit.clone());
                        prefix.push(lit.clone());
                    }
                    Some(q) if idb.contains(&q.relation) => {
                        // A negated IDB atom reads the complete relation; pass
                        // 1 already placed it (and its reads) in `full`.
                        debug_assert!(full.contains(&q.relation));
                        let _ = q;
                        new_body.push(lit.clone());
                    }
                    _ => {
                        // Negated EDB atoms and (non)equations pass through.
                        // They are not part of the prefix: the planner orders
                        // them after every predicate, so their bindings are
                        // never available to a predicate probe.
                        new_body.push(lit.clone());
                    }
                }
            }
            adorned_rules.push(Rule::new(
                Predicate::new(adorned_name(relation, &adornment), rule.head.args.clone()),
                new_body,
            ));
        }
    }

    // Assemble: the full portion keeps its original strata (and order), the
    // magic + adorned rules form one final stratum.  Adorned rules only negate
    // original relations, which are defined strictly earlier, so declared-
    // stratum stratification is preserved.
    let mut strata: Vec<Stratum> = Vec::new();
    for stratum in &program.strata {
        let kept: Vec<Rule> = stratum
            .rules
            .iter()
            .filter(|r| full.contains(&r.head.relation))
            .cloned()
            .collect();
        if !kept.is_empty() {
            strata.push(Stratum::new(kept));
        }
    }
    let mut last = magic_rules;
    last.extend(adorned_rules);
    strata.push(Stratum::new(last));
    let rewritten = Program::new(strata);

    // A user relation literally named like a generated one would conflate
    // demand facts with data — refuse instead of silently merging.
    let original = program.all_relations();
    if let Some(clash) = generated.iter().find(|n| original.contains(n)) {
        return Err(RewriteError::BadGoal {
            message: format!(
                "the program already uses relation {clash}, which goal-directed \
                 evaluation needs for its rewrite; rename that relation to query this goal"
            ),
        });
    }

    // Validate against the paper's analyses: the construction must preserve
    // rule safety and stratified negation.
    check_safety(&rewritten).map_err(|e| RewriteError::MagicInvariant {
        message: format!("magic rewrite produced an unsafe rule: {e}"),
    })?;
    check_stratification(&rewritten).map_err(|e| RewriteError::MagicInvariant {
        message: format!("magic rewrite broke stratification: {e}"),
    })?;

    // Seeds: the goal's bound first values, one column per bound goal column.
    let mut seeds = Vec::new();
    if !goal_adornment.is_all_free() {
        let tuple: Tuple = goal
            .args
            .iter()
            .zip(goal_adornment.columns())
            .filter(|(_, c)| **c == seqdl_syntax::ColumnBinding::Bound)
            .map(|(arg, _)| {
                Path::singleton(seed_value(arg).expect("bound goal columns have a ground prefix"))
            })
            .collect();
        seeds.push(Fact::new(magic_name(goal.relation, &goal_adornment), tuple));
    }

    Ok(MagicProgram {
        program: rewritten,
        seeds,
        answer: adorned_name(goal.relation, &goal_adornment),
        goal: goal.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdl_core::{path_of, rel};
    use seqdl_exec::Executor;
    use seqdl_syntax::parse_program;

    fn graph(edges: &[(&str, &str)]) -> Instance {
        let mut input = Instance::new();
        for (x, y) in edges {
            input
                .insert_fact(Fact::new(rel("R"), vec![path_of(&[x, y])]))
                .unwrap();
        }
        input
    }

    fn reachability() -> Program {
        parse_program("T(@x·@y) <- R(@x·@y).\nT(@x·@z) <- T(@x·@y), R(@y·@z).").unwrap()
    }

    #[test]
    fn goal_parsing_accepts_question_marks() {
        let g = parse_goal("Reach(a·b·$x)?").unwrap();
        assert_eq!(g.relation, rel("Reach"));
        assert_eq!(g.arity(), 1);
        assert!(parse_goal("T($x) <- R($x)").is_err());
        assert!(parse_goal("not a goal at all (").is_err());
    }

    #[test]
    fn reachability_rewrite_has_guards_and_seed() {
        let program = reachability();
        let goal = parse_goal("T(a·$y)").unwrap();
        let mp = magic(&program, &goal).unwrap();
        assert_eq!(mp.seeds.len(), 1);
        assert_eq!(mp.seeds[0].relation, rel("magic_T_b"));
        assert_eq!(mp.seeds[0].tuple, vec![path_of(&["a"])]);
        assert_eq!(mp.answer, rel("T__m_b"));
        let text = mp.program.to_string();
        assert!(text.contains("magic_T_b(@x)"), "{text}");
        // The trivial self-implication magic rule is skipped.
        assert!(!text.contains("magic_T_b(@x) <- magic_T_b(@x)."), "{text}");
    }

    #[test]
    fn seeded_query_equals_full_run_filtered() {
        let program = reachability();
        let input = graph(&[("a", "b"), ("b", "c"), ("c", "d"), ("x", "y"), ("y", "x")]);
        let goal = parse_goal("T(a·$y)").unwrap();
        let mp = magic(&program, &goal).unwrap();

        let executor = Executor::new();
        let full = executor.run(&program, &input).unwrap();
        let expected: BTreeSet<Tuple> = full
            .relation(rel("T"))
            .unwrap()
            .iter()
            .filter(|t| goal_matches(&goal, t))
            .map(<[Path]>::to_vec)
            .collect();
        let demanded = executor.run_seeded(&mp.program, &input, &mp.seeds).unwrap();
        assert_eq!(mp.answers(&demanded), expected);
        assert_eq!(expected.len(), 3, "a reaches b, c, d");
        // Demand really restricts: the x/y cycle is never derived.
        assert!(demanded
            .relation(mp.answer)
            .unwrap()
            .iter()
            .all(|t| t[0].values().first() == Some(&Value::atom("a"))));
    }

    #[test]
    fn point_goals_filter_to_exact_tuples() {
        let program = reachability();
        let input = graph(&[("a", "b"), ("b", "c")]);
        let goal = parse_goal("T(a·c)").unwrap();
        let mp = magic(&program, &goal).unwrap();
        let out = Executor::new()
            .run_seeded(&mp.program, &input, &mp.seeds)
            .unwrap();
        let answers = mp.answers(&out);
        assert_eq!(answers, BTreeSet::from([vec![path_of(&["a", "c"])]]));
    }

    #[test]
    fn all_free_goals_still_prune_unreachable_rules() {
        // U's rules are not demanded by a goal on S.
        let program =
            parse_program("S($x) <- R($x).\nU($x·$x) <- R($x).\nV($x) <- U($x·$x).").unwrap();
        let goal = parse_goal("S($x)").unwrap();
        let mp = magic(&program, &goal).unwrap();
        assert!(mp.seeds.is_empty());
        assert_eq!(mp.program.rule_count(), 1);
        let input = Instance::unary(rel("R"), [path_of(&["a"]), path_of(&["b"])]);
        let out = Executor::new()
            .run_seeded(&mp.program, &input, &mp.seeds)
            .unwrap();
        assert_eq!(mp.answers(&out).len(), 2);
        assert!(out.relation(rel("U")).is_none());
    }

    #[test]
    fn negated_relations_are_kept_complete() {
        let program =
            parse_program("W(@x·@y) <- R(@x·@y), G(@y).\n---\nS(@x·@y) <- R(@x·@y), !W(@x·@y).")
                .unwrap();
        let goal = parse_goal("S(a·$y)").unwrap();
        let mp = magic(&program, &goal).unwrap();
        // W stays under its original name in an earlier stratum.
        assert!(mp
            .program
            .to_string()
            .contains("W(@x·@y) <- R(@x·@y), G(@y)."));
        let mut input = graph(&[("a", "b"), ("a", "c"), ("b", "c")]);
        input
            .insert_fact(Fact::new(rel("G"), vec![path_of(&["b"])]))
            .unwrap();
        let full = Executor::new().run(&program, &input).unwrap();
        let expected: BTreeSet<Tuple> = full
            .relation(rel("S"))
            .unwrap()
            .iter()
            .filter(|t| goal_matches(&goal, t))
            .map(<[Path]>::to_vec)
            .collect();
        let out = Executor::new()
            .run_seeded(&mp.program, &input, &mp.seeds)
            .unwrap();
        assert_eq!(mp.answers(&out), expected);
        assert_eq!(expected, BTreeSet::from([vec![path_of(&["a", "c"])]]));
    }

    #[test]
    fn complete_relations_are_read_in_place_not_copied() {
        // W is negated by S, so W stays complete; V reads W *positively* from
        // a demanded rule — the rewrite must read the original W, not spin up
        // an adorned copy of its rule subtree.
        let program = parse_program(
            "W(@x·@y) <- R(@x·@y), G(@y).\n---\n\
             S(@x·@y) <- R(@x·@y), W(@x·@y), !W(@y·@x).",
        )
        .unwrap();
        let goal = parse_goal("S(a·$y)").unwrap();
        let mp = magic(&program, &goal).unwrap();
        let text = mp.program.to_string();
        assert!(!text.contains("W__m"), "no adorned copy of W:\n{text}");
        assert!(
            !text.contains("magic_W"),
            "no demand machinery for W:\n{text}"
        );
        // W's single original rule appears exactly once.
        assert_eq!(text.matches("W(@x·@y) <- R(@x·@y), G(@y).").count(), 1);

        let mut input = graph(&[("a", "b"), ("b", "a"), ("a", "c")]);
        for g in ["a", "b"] {
            input
                .insert_fact(Fact::new(rel("G"), vec![path_of(&[g])]))
                .unwrap();
        }
        let full = Executor::new().run(&program, &input).unwrap();
        let expected: BTreeSet<Tuple> = full
            .relation(rel("S"))
            .unwrap()
            .iter()
            .filter(|t| goal_matches(&goal, t))
            .map(<[Path]>::to_vec)
            .collect();
        let out = Executor::new()
            .run_seeded(&mp.program, &input, &mp.seeds)
            .unwrap();
        assert_eq!(mp.answers(&out), expected);
    }

    #[test]
    fn goals_on_complete_relations_fall_back_to_the_full_portion() {
        // The goal's own subtree negates B, and B reads the goal relation
        // back, so V lands in the full set: demand cannot restrict it, and
        // the rewrite degrades to the full portion answered from the
        // original relation.
        let program = parse_program("B($x) <- V($x·a).\n---\nV($x) <- R($x), !B($x).").unwrap();
        let goal = parse_goal("V(a·$y)").unwrap();
        let mp = magic(&program, &goal).unwrap();
        assert_eq!(mp.answer, rel("V"));
        assert!(mp.seeds.is_empty());
        let input = Instance::unary(rel("R"), [path_of(&["a", "b"]), path_of(&["c"])]);
        let full = Executor::new().run(&program, &input).unwrap();
        let expected: BTreeSet<Tuple> = full
            .relation(rel("V"))
            .unwrap()
            .iter()
            .filter(|t| goal_matches(&goal, t))
            .map(<[Path]>::to_vec)
            .collect();
        let out = Executor::new()
            .run_seeded(&mp.program, &input, &mp.seeds)
            .unwrap();
        assert_eq!(mp.answers(&out), expected);
        assert_eq!(expected, BTreeSet::from([vec![path_of(&["a", "b"])]]));
    }

    #[test]
    fn packed_goal_prefixes_seed_packed_values() {
        let program = parse_program("T(<a·b>·$x) <- R($x).").unwrap();
        let goal = parse_goal("T(<a·b>·$y)").unwrap();
        let mp = magic(&program, &goal).unwrap();
        assert_eq!(mp.seeds.len(), 1);
        assert_eq!(
            mp.seeds[0].tuple,
            vec![Path::singleton(Value::packed(path_of(&["a", "b"])))]
        );
        let input = Instance::unary(rel("R"), [path_of(&["c"])]);
        let out = Executor::new()
            .run_seeded(&mp.program, &input, &mp.seeds)
            .unwrap();
        assert_eq!(mp.answers(&out).len(), 1);
    }

    #[test]
    fn bad_goals_are_reported() {
        let program = reachability();
        // EDB relation.
        let err = magic(&program, &parse_goal("R(a·$x)").unwrap()).unwrap_err();
        assert!(err.to_string().contains("not an IDB relation"), "{err}");
        // Unknown relation.
        let err = magic(&program, &parse_goal("Nope($x)").unwrap()).unwrap_err();
        assert!(err.to_string().contains("not an IDB relation"), "{err}");
        // Arity mismatch.
        let err = magic(&program, &parse_goal("T($x, $y)").unwrap()).unwrap_err();
        assert!(err.to_string().contains("arity"), "{err}");
    }

    #[test]
    fn colliding_generated_names_are_refused() {
        // A user relation named like the rewrite's magic predicate would
        // conflate demand with data; the transformation refuses instead.
        let program = parse_program("T(@x·@y) <- R(@x·@y).\nmagic_T_b($x) <- R($x).").unwrap();
        let err = magic(&program, &parse_goal("T(a·$y)").unwrap()).unwrap_err();
        assert!(err.to_string().contains("magic_T_b"), "{err}");
        let program = parse_program("T(@x·@y) <- R(@x·@y).\nT__m_b($x) <- R($x).").unwrap();
        let err = magic(&program, &parse_goal("T(a·$y)").unwrap()).unwrap_err();
        assert!(err.to_string().contains("T__m_b"), "{err}");
    }

    #[test]
    fn rewritten_programs_pass_the_static_analyses() {
        let program = parse_program(
            "P($x) <- R($x·a).\nP($x) <- Q($x·b).\nQ($x) <- P($x·a).\nQ($x) <- R($x).\n---\n\
             S($x) <- Q($x), !P($x).",
        )
        .unwrap();
        let goal = parse_goal("S(x0·$y)").unwrap();
        let mp = magic(&program, &goal).unwrap();
        assert!(check_safety(&mp.program).is_ok());
        assert!(check_stratification(&mp.program).is_ok());
    }
}
