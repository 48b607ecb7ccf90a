//! Adornments: binding patterns for goal-directed (magic-set) evaluation.
//!
//! A *goal* is a predicate pattern such as `Reach(a·b·$x)` — a question asked of
//! one relation instead of a whole-instance fixpoint.  Demand-driven evaluation
//! rewrites the program so that only derivations relevant to the goal fire; the
//! static information driving that rewrite is an **adornment**: per argument
//! column, is anything about the column's value known at call time?
//!
//! In classical Datalog an adorned column is *bound* (its whole value is known)
//! or *free*.  Sequence Datalog arguments are path *expressions*, so a column is
//! usually only partially known (`a·b·$x` fixes a prefix, not the path).  The
//! storage layer indexes every column by the path's *first value*
//! ([`seqdl_core::ColumnIndex`]), so a guaranteed first value is the
//! granularity that decides whether a column can be probed at all: here
//! [`ColumnBinding::Bound`] means "the first value of the column's path is
//! known when the predicate is matched".
//! A column whose expression starts with a constant, a ground packed term, or
//! an atomic variable bound by an earlier body step is `Bound`; everything
//! else — including *bound path variables*, which may denote `ε` and hence
//! constrain no first value — is `Free`.
//!
//! Adornments propagate through rule bodies by sideways information passing in
//! the same order the body planner (`seqdl_engine::plan`) evaluates positive
//! predicates (source order): each predicate is adorned with respect to the
//! variables bound by the magic guard and the predicates before it, then
//! contributes its own variables.  [`sip_order`] computes that walk.

use crate::ast::{Atom, Predicate, Rule};
use crate::term::{PathExpr, Term, Var, VarKind};
use std::collections::BTreeSet;
use std::fmt;

/// What is known about one argument column at call time.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ColumnBinding {
    /// The first value of the column's path is known (a ground prefix or a bound
    /// atomic variable leads the argument expression).
    Bound,
    /// Nothing about the column is known at call time.
    Free,
}

/// The adornment of a predicate occurrence: one [`ColumnBinding`] per argument
/// column.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Adornment(Vec<ColumnBinding>);

impl Adornment {
    /// Build an adornment from per-column bindings.
    pub fn new(columns: Vec<ColumnBinding>) -> Adornment {
        Adornment(columns)
    }

    /// The adornment of a *goal* pattern: a column is bound when its expression
    /// has a statically known first value (goal variables are free — they are
    /// the answers being asked for).
    pub fn of_goal(goal: &Predicate) -> Adornment {
        Adornment::of_subgoal(goal, &BTreeSet::new())
    }

    /// The adornment of a body predicate matched when `bound` variables are
    /// already bound by earlier steps.
    pub fn of_subgoal(pred: &Predicate, bound: &BTreeSet<Var>) -> Adornment {
        Adornment(
            pred.args
                .iter()
                .map(|arg| match first_value_expr(arg, bound) {
                    Some(_) => ColumnBinding::Bound,
                    None => ColumnBinding::Free,
                })
                .collect(),
        )
    }

    /// The per-column bindings.
    pub fn columns(&self) -> &[ColumnBinding] {
        &self.0
    }

    /// Number of bound columns.
    pub fn bound_count(&self) -> usize {
        self.0
            .iter()
            .filter(|c| **c == ColumnBinding::Bound)
            .count()
    }

    /// Is every column free (the adornment carries no demand information)?
    pub fn is_all_free(&self) -> bool {
        self.bound_count() == 0
    }

    /// The conventional letter string, `b` for bound and `f` for free columns
    /// (empty for nullary predicates).
    pub fn letters(&self) -> String {
        self.0
            .iter()
            .map(|c| match c {
                ColumnBinding::Bound => 'b',
                ColumnBinding::Free => 'f',
            })
            .collect()
    }
}

impl fmt::Display for Adornment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.letters())
    }
}

/// The length-1 expression denoting the *first value* of the column path that
/// `arg` denotes, when that value is statically known given the `bound`
/// variables:
///
/// * a leading constant `c` yields `c`;
/// * a leading *ground* packed term `⟨p⟩` yields `⟨p⟩` (one packed value);
/// * a leading atomic variable `@x ∈ bound` yields `@x` (exactly one atom).
///
/// Leading *path* variables yield `None` even when bound: a path variable may
/// denote `ε`, in which case the column's first value comes from whatever
/// follows, so no single expression captures it.  The empty expression also
/// yields `None` (an `ε` column has no first value).
pub fn first_value_expr(arg: &PathExpr, bound: &BTreeSet<Var>) -> Option<PathExpr> {
    match arg.terms().first() {
        Some(Term::Const(a)) => Some(PathExpr::singleton(Term::Const(*a))),
        Some(Term::Packed(inner)) if inner.is_ground() => {
            Some(PathExpr::singleton(Term::Packed(inner.clone())))
        }
        Some(Term::Var(v)) if v.kind == VarKind::Atom && bound.contains(v) => {
            Some(PathExpr::var(*v))
        }
        _ => None,
    }
}

/// The magic-guard argument expressions for a rule *head* under `adornment`:
/// one first-value expression per bound column.  Unlike body subgoals, a head's
/// leading atomic variables need no prior binding — the guard itself binds them
/// by matching the magic relation.  Returns `None` when some bound column's
/// head argument has no static first value (a leading path variable, say): such
/// a rule cannot be guarded and must run unrestricted.
pub fn guard_exprs(head: &Predicate, adornment: &Adornment) -> Option<Vec<PathExpr>> {
    let mut head_vars: BTreeSet<Var> = BTreeSet::new();
    head_vars.extend(head.vars());
    head.args
        .iter()
        .zip(adornment.columns())
        .filter(|(_, c)| **c == ColumnBinding::Bound)
        .map(|(arg, _)| first_value_expr(arg, &head_vars))
        .collect()
}

/// One step of the sideways-information-passing walk over a rule body: the
/// `body_index`-th literal is a positive predicate, matched with `adornment`
/// under the variables bound so far.
#[derive(Clone, Debug)]
pub struct SipStep {
    /// Index of the predicate literal in the rule body.
    pub body_index: usize,
    /// The predicate's adornment at match time.
    pub adornment: Adornment,
}

/// Walk the positive body predicates of `rule` in the body planner's evaluation
/// order (source order), threading the bound-variable set: each step is adorned
/// with respect to `seed_bound` (the variables the magic guard binds) plus the
/// variables of all earlier positive predicates, then contributes its own.
/// Positive equations are *not* folded in: the planner evaluates them after all
/// predicates, so their bindings are never available to a predicate probe.
pub fn sip_order(rule: &Rule, seed_bound: &BTreeSet<Var>) -> Vec<SipStep> {
    let mut bound = seed_bound.clone();
    let mut steps = Vec::new();
    for (body_index, lit) in rule.body.iter().enumerate() {
        if !lit.positive {
            continue;
        }
        let Atom::Pred(pred) = &lit.atom else {
            continue;
        };
        steps.push(SipStep {
            body_index,
            adornment: Adornment::of_subgoal(pred, &bound),
        });
        bound.extend(pred.vars());
    }
    steps
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_rule};

    fn expr(s: &str) -> PathExpr {
        parse_expr(s).unwrap()
    }

    #[test]
    fn first_values_of_concatenations() {
        let bound = BTreeSet::from([Var::atom("q"), Var::path("p")]);
        // Leading constant.
        assert_eq!(first_value_expr(&expr("a·$x"), &bound), Some(expr("a")));
        // Leading bound atomic variable.
        assert_eq!(first_value_expr(&expr("@q·$x"), &bound), Some(expr("@q")));
        // Leading unbound atomic variable.
        assert_eq!(first_value_expr(&expr("@u·$x"), &bound), None);
        // Leading path variable: no first value even when bound (it may be ε).
        assert_eq!(first_value_expr(&expr("$p·a"), &bound), None);
        // ε has no first value.
        assert_eq!(first_value_expr(&expr("eps"), &bound), None);
    }

    #[test]
    fn first_values_of_packed_terms() {
        let bound = BTreeSet::new();
        // A ground packed prefix is one known value.
        assert_eq!(
            first_value_expr(&expr("<a·b>·$x"), &bound),
            Some(expr("<a·b>"))
        );
        assert_eq!(
            first_value_expr(&expr("<eps>·$x"), &bound),
            Some(expr("<eps>"))
        );
        // A packed term with variables inside is not a known value.
        assert_eq!(first_value_expr(&expr("<$s>·$x"), &bound), None);
    }

    #[test]
    fn goal_adornments_read_prefixes() {
        let goal = parse_rule("Reach(a·b·$x).").unwrap().head;
        let a = Adornment::of_goal(&goal);
        assert_eq!(a.letters(), "b");
        assert_eq!(a.bound_count(), 1);

        let goal = parse_rule("T($x, a·$y, eps).").unwrap().head;
        let a = Adornment::of_goal(&goal);
        assert_eq!(a.letters(), "fbf");
        assert!(!a.is_all_free());

        let goal = parse_rule("S($x).").unwrap().head;
        assert!(Adornment::of_goal(&goal).is_all_free());
    }

    #[test]
    fn sip_propagates_bindings_in_planner_order() {
        // With @x seeded (by a magic guard), T is matched first with its leading
        // @x bound; R's leading @y only becomes bound after T contributes it.
        let rule = parse_rule("T(@x·@z) <- T(@x·@y), R(@y·@z).").unwrap();
        let seed = BTreeSet::from([Var::atom("x")]);
        let steps = sip_order(&rule, &seed);
        assert_eq!(steps.len(), 2);
        assert_eq!(steps[0].adornment.letters(), "b");
        assert_eq!(steps[1].adornment.letters(), "b");
        // Without the seed, T is free but R still gains @y from T.
        let steps = sip_order(&rule, &BTreeSet::new());
        assert_eq!(steps[0].adornment.letters(), "f");
        assert_eq!(steps[1].adornment.letters(), "b");
    }

    #[test]
    fn sip_skips_equations_and_negations() {
        let rule = parse_rule("S($x) <- R($x), $x = $y·a, !B($y).").unwrap();
        let steps = sip_order(&rule, &BTreeSet::new());
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].body_index, 0);
    }

    #[test]
    fn guard_exprs_follow_the_head_structure() {
        let rule = parse_rule("T(@x·@y) <- R(@x·@y).").unwrap();
        let a = Adornment::new(vec![ColumnBinding::Bound]);
        assert_eq!(guard_exprs(&rule.head, &a), Some(vec![expr("@x")]));

        // A constant-led head column is guarded by the constant itself.
        let rule = parse_rule("T(c·$x) <- R($x).").unwrap();
        assert_eq!(guard_exprs(&rule.head, &a), Some(vec![expr("c")]));

        // A path-variable-led head column cannot be guarded.
        let rule = parse_rule("T($x·a) <- R($x).").unwrap();
        assert_eq!(guard_exprs(&rule.head, &a), None);

        // Free columns contribute nothing.
        let rule = parse_rule("T(@x·@y, $z) <- R(@x·@y), R($z).").unwrap();
        let a = Adornment::new(vec![ColumnBinding::Bound, ColumnBinding::Free]);
        assert_eq!(guard_exprs(&rule.head, &a), Some(vec![expr("@x")]));
    }

    #[test]
    fn adornment_display_and_ordering() {
        let a = Adornment::new(vec![ColumnBinding::Bound, ColumnBinding::Free]);
        let b = Adornment::new(vec![ColumnBinding::Bound, ColumnBinding::Bound]);
        assert_eq!(a.to_string(), "bf");
        assert_ne!(a, b);
        // Ord exists so adornments can key worklist maps.
        assert!(b < a || a < b);
    }
}
