//! Probe planning: how the evaluator matches one positive predicate.
//!
//! The body order itself — positive predicates first, each positive equation
//! once one side is bound, negated literals last (Section 2.2's limited
//! variables guarantee it exists for a safe rule) — is decided in one pass by
//! [`lower_rule`](crate::ram::lower_rule), which plans each probe here as it
//! places it.  A planned probe records, per argument column, the sequence of
//! leading terms that is statically known at match time (the same
//! information the adornment layer's sideways-information passing computes).
//! At match time the first value they resolve to keys the relation's one
//! index per column, a first-value index ([`seqdl_core::ColumnIndex`]).

use seqdl_core::{AtomId, Value};
use seqdl_syntax::{Predicate, Term, Var, VarKind};

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

/// A positive predicate to probe: the predicate plus one [`ColumnProbe`] per
/// argument column, precomputed so matching can probe the relation's column
/// indexes instead of scanning every tuple.
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

impl PlannedPredicate {
    /// Plan a probe of `pred` entered with the variables `bound` bound: those
    /// are the bindings actually in hand when the predicate is matched.
    pub(crate) fn new(pred: &Predicate, bound: &[Var]) -> PlannedPredicate {
        let probes = column_probes(pred, bound);
        PlannedPredicate {
            extend: extend_probe(pred, &probes),
            pred: pred.clone(),
            probes,
        }
    }
}

fn column_probes(pred: &Predicate, bound: &[Var]) -> Vec<ColumnProbe> {
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
                    Term::Var(v) if bound.contains(v) => match v.kind {
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

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::error::EvalError;
    use crate::ram::{lower_rule, FilterOp, Inst, RuleProc};
    use seqdl_core::{path_of, rel, RelName};
    use seqdl_syntax::parse_rule;
    use std::collections::BTreeSet;

    fn lowered(text: &str) -> RuleProc {
        lower_rule(&parse_rule(text).unwrap(), &BTreeSet::new()).unwrap()
    }

    fn probes_of(proc: &RuleProc) -> Vec<Vec<ColumnProbe>> {
        proc.code
            .iter()
            .filter_map(|inst| match inst {
                Inst::Probe { pred, .. } => Some(pred.probes.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn predicates_come_before_equations_and_negation_last() {
        let code = lowered("S($x) <- a·$x = $x·a, R($x), !B($x).").code;
        assert!(matches!(code[0], Inst::Probe { .. }), "{code:?}");
        assert!(
            matches!(code[1], Inst::Filter(FilterOp::EqHolds(_))),
            "{code:?}"
        );
        assert!(
            matches!(code[2], Inst::Filter(FilterOp::NegPred(_))),
            "{code:?}"
        );
        assert!(matches!(code[3], Inst::Emit), "{code:?}");
    }

    #[test]
    fn chained_equations_are_ordered_by_boundness() {
        // $z = b·$y can only run after $y = $x·a has bound $y.
        let code = lowered("S($z) <- R($x), $z = b·$y, $y = $x·a.").code;
        let equations: Vec<String> = code
            .iter()
            .filter_map(|inst| match inst {
                Inst::Solve(e) => Some(e.to_string()),
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
            lower_rule(&rule, &BTreeSet::new()),
            Err(EvalError::Unplannable { .. })
        ));
    }

    #[test]
    fn nonequalities_are_planned_as_negated_equations() {
        let code = lowered("S($x) <- R($x·@a·@b), @a != @b.").code;
        assert!(
            matches!(code[code.len() - 2], Inst::Filter(FilterOp::NegEq(_))),
            "{code:?}"
        );
    }

    #[test]
    fn bodiless_rules_plan_to_nothing() {
        assert_eq!(lowered("T(a).").code, vec![Inst::Emit]);
    }

    #[test]
    fn column_probes_reflect_prefixes_and_earlier_bindings() {
        // T comes first, so R's leading @y is bound by the time R is matched;
        // T's own leading @x is not bound before T itself.
        let probes = probes_of(&lowered("S(@x·@z) <- T(@x·@y), R(@y·@z)."));
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
        let probes = probes_of(&lowered("T(@q) <- S(@q·@a·$y), D(@q·@a·c·$rest)."));
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
        let probes = probes_of(&lowered(
            "S($p) <- R($p), T(a·$x, eps, <b·c>·d, <$y>·b, $p·e).",
        ));
        let p = &probes[1];
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
        let extend_of = |text: &str| match &lowered(text).code[1] {
            Inst::Probe { pred, .. } => pred.extend,
            other => panic!("expected a probe, got {other:?}"),
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
    fn delta_positions_select_recursive_predicates() {
        let rule = parse_rule("T(@x·@z) <- T(@x·@y), R(@y·@z), T(@z·@z).").unwrap();
        let recursive: BTreeSet<RelName> = BTreeSet::from([rel("T")]);
        // The last T literal is fully bound, but a delta position stays an
        // enumerable probe.
        assert_eq!(
            lower_rule(&rule, &recursive).unwrap().delta_positions,
            vec![0, 2]
        );
        assert!(lower_rule(&rule, &BTreeSet::new())
            .unwrap()
            .delta_positions
            .is_empty());
    }
}
