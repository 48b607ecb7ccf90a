//! Body planning: ordering the literals of a rule body for evaluation.
//!
//! For a safe rule (Section 2.2) the limited-variable fixpoint guarantees an order
//! in which
//!
//! 1. positive predicates are matched first (binding their variables),
//! 2. each positive equation is evaluated at a point where at least one of its
//!    sides is fully bound (so it can be solved by matching against a ground path),
//! 3. negated predicates and negated equations are checked last, when all their
//!    variables are bound.
//!
//! Beyond ordering, the planner precomputes *how to probe* the storage layer
//! for each positive predicate: per argument column, the sequence of leading
//! terms that is statically known at match time (the same information the
//! adornment layer's sideways-information passing computes).  At match time
//! the first value they resolve to keys the relation's one index per column,
//! a first-value index ([`seqdl_core::ColumnIndex`]).

use crate::error::EvalError;
use seqdl_core::{AtomId, RelName, Value};
use seqdl_syntax::{Atom, Literal, Predicate, Rule, Term, Var, VarKind};
use std::collections::BTreeSet;

/// One statically-resolvable contributor to a column's known path prefix,
/// derived from a leading term of the argument expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PrefixSource {
    /// A constant term: exactly one known atom value.
    Const(AtomId),
    /// A ground packed term, interned at plan time: one known packed value.
    Packed(Value),
    /// An atomic variable bound by an earlier step: one value at runtime.
    AtomVar(Var),
    /// A path variable bound by an earlier step: zero or more values at
    /// runtime (its binding may be `ε`).
    PathVar(Var),
}

/// How the evaluator can probe one argument column of a predicate: the
/// column's statically-known leading terms, whose first resolved value keys
/// the relation's first-value index ([`seqdl_core::ColumnIndex`]) when the
/// predicate is matched.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnProbe {
    /// The leading sources of the argument expression, up to (and excluding)
    /// the first term whose denotation is unknown at match time.  Empty means
    /// nothing about the column's prefix is known.
    pub sources: Vec<PrefixSource>,
}

impl ColumnProbe {
    /// Can this column ever contribute an index probe?
    pub fn can_probe(&self) -> bool {
        !self.sources.is_empty()
    }
}

/// A positive predicate step: the predicate plus one [`ColumnProbe`] per argument
/// column, precomputed so matching can probe the relation's column indexes
/// instead of scanning every tuple.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlannedPredicate {
    /// The predicate to match.
    pub pred: Predicate,
    /// Per-column probe strategy (same length as `pred.args`).
    pub probes: Vec<ColumnProbe>,
    /// Bucket-side matching eligibility: the predicate is unary and its
    /// column is exactly two atomic terms, a constant or bound atomic
    /// variable (the one prefix source) followed by an unbound atomic
    /// variable `v`.  Candidates from the column's first-value bucket then
    /// finish matching without touching the tuple store: the entry's length
    /// checks the shape and its next value binds `v`.  A pattern the prefix
    /// covers entirely is left to the deterministic pass.
    pub extend: Option<Var>,
}

fn column_probes(pred: &Predicate, bound_before: &BTreeSet<Var>) -> Vec<ColumnProbe> {
    pred.args
        .iter()
        .map(|arg| {
            let mut sources = Vec::new();
            for term in arg.terms() {
                sources.push(match term {
                    Term::Const(a) => PrefixSource::Const(*a),
                    Term::Packed(inner) => match inner.as_path() {
                        Some(p) => PrefixSource::Packed(Value::packed(p)),
                        None => break,
                    },
                    Term::Var(v) if bound_before.contains(v) => match v.kind {
                        VarKind::Atom => PrefixSource::AtomVar(*v),
                        VarKind::Path => PrefixSource::PathVar(*v),
                    },
                    Term::Var(_) => break,
                });
            }
            ColumnProbe { sources }
        })
        .collect()
}

/// See [`PlannedPredicate::extend`]: eligibility of the bucket-side matcher.
/// The one prefix source is the first term, so the trailing variable is
/// unbound (a bound one would be a second source).
fn extend_probe(pred: &Predicate, probes: &[ColumnProbe]) -> Option<Var> {
    if pred.args.len() != 1 || probes[0].sources.len() != 1 {
        return None;
    }
    let atomic = |t: &Term| {
        matches!(t, Term::Const(_)) || matches!(t, Term::Var(v) if v.kind == VarKind::Atom)
    };
    match pred.args[0].terms() {
        [first, Term::Var(v)] if atomic(first) && v.kind == VarKind::Atom => Some(*v),
        _ => None,
    }
}

fn plan_predicate(pred: &Predicate, bound_before: &BTreeSet<Var>) -> PlannedPredicate {
    let probes = column_probes(pred, bound_before);
    PlannedPredicate {
        extend: extend_probe(pred, &probes),
        pred: pred.clone(),
        probes,
    }
}

/// One step of a planned body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlannedLiteral {
    /// Match a positive predicate against the current instance.
    MatchPredicate(PlannedPredicate),
    /// Evaluate a positive equation (one side is guaranteed ground at this point).
    SolveEquation(seqdl_syntax::Equation),
    /// Check a negated predicate (all variables bound).
    CheckNegatedPredicate(seqdl_syntax::Predicate),
    /// Check a negated equation (all variables bound).
    CheckNegatedEquation(seqdl_syntax::Equation),
}

/// A plan: the body literals of a rule in evaluation order.
#[derive(Clone, Debug, Default)]
pub struct BodyPlan {
    /// The ordered steps.
    pub steps: Vec<PlannedLiteral>,
}

impl BodyPlan {
    /// The planned positive predicate at step `index`.
    ///
    /// # Errors
    /// [`EvalError::PlanInvariant`] when the step is missing or is not a positive
    /// predicate match — a malformed plan surfaces as a result, not an abort.
    pub fn predicate_at(&self, index: usize) -> Result<&PlannedPredicate, EvalError> {
        match self.steps.get(index) {
            Some(PlannedLiteral::MatchPredicate(p)) => Ok(p),
            Some(other) => Err(EvalError::PlanInvariant {
                detail: format!("expected a predicate step at position {index}, found {other:?}"),
            }),
            None => Err(EvalError::PlanInvariant {
                detail: format!(
                    "expected a predicate step at position {index}, but the plan has only {} steps",
                    self.steps.len()
                ),
            }),
        }
    }

    /// Positions of the positive-predicate steps that match any of `relations` —
    /// in SCC-scoped semi-naive evaluation, the steps that draw from a delta.
    pub fn delta_positions(&self, relations: &BTreeSet<RelName>) -> Vec<usize> {
        self.steps
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s {
                PlannedLiteral::MatchPredicate(p) if relations.contains(&p.pred.relation) => {
                    Some(i)
                }
                _ => None,
            })
            .collect()
    }
}

/// Plan the body of a rule.
///
/// # Errors
/// [`EvalError::Unplannable`] if some positive equation never acquires a fully
/// bound side; this only happens for unsafe rules.
pub fn plan_rule(rule: &Rule) -> Result<BodyPlan, EvalError> {
    let mut steps = Vec::new();
    let mut bound: BTreeSet<Var> = BTreeSet::new();

    // 1. Positive predicates, in source order.  Each predicate's column probes are
    // computed against the variables bound by *earlier* steps — those are the
    // bindings actually in hand when the predicate is matched.
    for lit in rule.body.iter().filter(|l| l.positive) {
        if let Atom::Pred(p) = &lit.atom {
            let planned = plan_predicate(p, &bound);
            bound.extend(p.vars());
            steps.push(PlannedLiteral::MatchPredicate(planned));
        }
    }

    // 2. Positive equations, each at a point where one side is fully bound.
    let mut pending: Vec<&Literal> = rule
        .body
        .iter()
        .filter(|l| l.positive && l.is_equation())
        .collect();
    while !pending.is_empty() {
        let pick = pending.iter().position(|l| {
            // invariant: `pending` was filtered to equation literals just above.
            let eq = l.atom.as_equation().expect("filtered to equations");
            eq.lhs.vars().iter().all(|v| bound.contains(v))
                || eq.rhs.vars().iter().all(|v| bound.contains(v))
        });
        match pick {
            Some(ix) => {
                let lit = pending.remove(ix);
                // invariant: same filter as above — `pending` holds only equations.
                let eq = lit
                    .atom
                    .as_equation()
                    .expect("filtered to equations")
                    .clone();
                bound.extend(eq.vars());
                steps.push(PlannedLiteral::SolveEquation(eq));
            }
            None => {
                return Err(EvalError::Unplannable {
                    rule: rule.to_string(),
                })
            }
        }
    }

    // 3. Negated literals.
    for lit in rule.body.iter().filter(|l| !l.positive) {
        match &lit.atom {
            Atom::Pred(p) => steps.push(PlannedLiteral::CheckNegatedPredicate(p.clone())),
            Atom::Eq(e) => steps.push(PlannedLiteral::CheckNegatedEquation(e.clone())),
        }
    }

    Ok(BodyPlan { steps })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use seqdl_core::path_of;
    use seqdl_syntax::parse_rule;

    fn probes_of(plan: &BodyPlan) -> Vec<Vec<ColumnProbe>> {
        plan.steps
            .iter()
            .filter_map(|s| match s {
                PlannedLiteral::MatchPredicate(p) => Some(p.probes.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn predicates_come_before_equations_and_negation_last() {
        let rule = parse_rule("S($x) <- a·$x = $x·a, R($x), !B($x).").unwrap();
        let plan = plan_rule(&rule).unwrap();
        assert!(matches!(plan.steps[0], PlannedLiteral::MatchPredicate(_)));
        assert!(matches!(plan.steps[1], PlannedLiteral::SolveEquation(_)));
        assert!(matches!(
            plan.steps[2],
            PlannedLiteral::CheckNegatedPredicate(_)
        ));
    }

    #[test]
    fn chained_equations_are_ordered_by_boundness() {
        // $z = b·$y can only run after $y = $x·a has bound $y.
        let rule = parse_rule("S($z) <- R($x), $z = b·$y, $y = $x·a.").unwrap();
        let plan = plan_rule(&rule).unwrap();
        let equations: Vec<String> = plan
            .steps
            .iter()
            .filter_map(|s| match s {
                PlannedLiteral::SolveEquation(e) => Some(e.to_string()),
                _ => None,
            })
            .collect();
        assert_eq!(
            equations,
            vec!["$y = $x·a".to_string(), "$z = b·$y".to_string()]
        );
    }

    #[test]
    fn unsafe_rules_cannot_be_planned() {
        let rule = parse_rule("S($x) <- R($x), $y = $z.").unwrap();
        assert!(matches!(
            plan_rule(&rule),
            Err(EvalError::Unplannable { .. })
        ));
    }

    #[test]
    fn nonequalities_are_planned_as_negated_equations() {
        let rule = parse_rule("S($x) <- R($x·@a·@b), @a != @b.").unwrap();
        let plan = plan_rule(&rule).unwrap();
        assert!(matches!(
            plan.steps.last(),
            Some(PlannedLiteral::CheckNegatedEquation(_))
        ));
    }

    #[test]
    fn bodiless_rules_plan_to_nothing() {
        let rule = parse_rule("T(a).").unwrap();
        assert!(plan_rule(&rule).unwrap().steps.is_empty());
    }

    #[test]
    fn column_probes_reflect_prefixes_and_earlier_bindings() {
        // T comes first, so R's leading @y is bound by the time R is matched;
        // T's own leading @x is not bound before T itself.
        let rule = parse_rule("S(@x·@z) <- T(@x·@y), R(@y·@z).").unwrap();
        let plan = plan_rule(&rule).unwrap();
        let probes = probes_of(&plan);
        assert!(probes[0][0].sources.is_empty());
        assert!(!probes[0][0].can_probe());
        assert_eq!(
            probes[1][0].sources,
            vec![PrefixSource::AtomVar(Var::atom("y"))]
        );
        // @z is unbound when R is matched, so the known prefix stops at @y.
    }

    #[test]
    fn full_prefixes_accumulate_constants_and_bound_variables() {
        // After S binds @q and @a, D's first column knows the prefix @q·@a·c.
        let rule = parse_rule("T(@q) <- S(@q·@a·$y), D(@q·@a·c·$rest).").unwrap();
        let plan = plan_rule(&rule).unwrap();
        let probes = probes_of(&plan);
        assert_eq!(
            probes[1][0].sources,
            vec![
                PrefixSource::AtomVar(Var::atom("q")),
                PrefixSource::AtomVar(Var::atom("a")),
                PrefixSource::Const(seqdl_core::atom("c")),
            ]
        );
    }

    #[test]
    fn constant_empty_packed_and_bound_path_prefixes() {
        let rule = parse_rule("S($p) <- R($p), T(a·$x, eps, <b·c>·d, <$y>·b, $p·e).").unwrap();
        let plan = plan_rule(&rule).unwrap();
        let p = &probes_of(&plan)[1];
        // a·$x: a constant prefix.
        assert_eq!(
            p[0].sources,
            vec![PrefixSource::Const(seqdl_core::atom("a"))]
        );
        // eps: no first value, so no probe.
        assert!(p[1].sources.is_empty() && !p[1].can_probe());
        // <b·c>·d: a ground packed value then a constant.
        assert_eq!(
            p[2].sources,
            vec![
                PrefixSource::Packed(Value::packed(path_of(&["b", "c"]))),
                PrefixSource::Const(seqdl_core::atom("d")),
            ]
        );
        // <$y>·b: a packed term with variables leads — no probe.
        assert!(p[3].sources.is_empty() && !p[3].can_probe());
        // $p·e with $p bound: a path-variable source, then the constant.
        assert_eq!(
            p[4].sources,
            vec![
                PrefixSource::PathVar(Var::path("p")),
                PrefixSource::Const(seqdl_core::atom("e")),
            ]
        );
    }

    #[test]
    fn bucket_side_matching_needs_one_source_then_one_unbound_atom() {
        let extend_of = |text: &str| {
            let plan = plan_rule(&parse_rule(text).unwrap()).unwrap();
            plan.predicate_at(1).unwrap().extend
        };
        assert_eq!(extend_of("T(@y) <- S(@x), R(@x·@y)."), Some(Var::atom("y")));
        assert_eq!(extend_of("T(@y) <- S(@x), R(a·@y)."), Some(Var::atom("y")));
        // Two sources, a path variable, a second column, or a longer tail:
        // matched through the tuple store.
        assert_eq!(extend_of("T(@y) <- S(@x), R(@x·a·@y)."), None);
        assert_eq!(extend_of("T($y) <- S(@x), R(@x·$y)."), None);
        assert_eq!(extend_of("T(@y) <- S(@x), R(@x·@y, a)."), None);
        assert_eq!(extend_of("T(@y) <- S(@x), R(@x·@y·@z)."), None);
        assert_eq!(extend_of("T(@y) <- S($x), R($x·@y)."), None);
    }

    #[test]
    fn malformed_plan_accesses_surface_as_invariant_errors() {
        let rule = parse_rule("S($x) <- R($x), a·$x = $x·a, !B($x).").unwrap();
        let plan = plan_rule(&rule).unwrap();
        assert!(plan.predicate_at(0).is_ok());
        // Step 1 is an equation, step 2 a negated predicate, step 9 out of range:
        // all are planner invariant errors, not panics.
        for bad in [1usize, 2, 9] {
            match plan.predicate_at(bad) {
                Err(EvalError::PlanInvariant { detail }) => {
                    assert!(detail.contains("predicate step"), "{detail}");
                }
                other => panic!("expected PlanInvariant for step {bad}, got {other:?}"),
            }
        }
    }

    #[test]
    fn delta_positions_select_recursive_predicates() {
        use std::collections::BTreeSet;
        let rule = parse_rule("T(@x·@z) <- T(@x·@y), R(@y·@z), T(@z·@z).").unwrap();
        let plan = plan_rule(&rule).unwrap();
        let recursive = BTreeSet::from([seqdl_core::rel("T")]);
        assert_eq!(plan.delta_positions(&recursive), vec![0, 2]);
        assert!(plan.delta_positions(&BTreeSet::new()).is_empty());
    }
}
