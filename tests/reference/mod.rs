//! A test-only reference evaluator: the stratified fixpoint semantics of
//! §2.2, written down directly so that every optimised path can be checked
//! against it.
//!
//! Each declared stratum is evaluated naively: every rule fires against the
//! whole instance, round after round, until a round derives nothing new.
//! A rule's valuations are enumerated literal by literal.  Positive
//! predicates go in written order, each matched against every tuple of its
//! relation with [`match_predicate`].  Positive equations (through
//! [`solve_equation`]) and negated literals (as filters) apply as soon as
//! their variables are bound.  There is no planner, no index, no emit memo,
//! no delta watermark, and no RAM.
//!
//! The matcher is the reference's own and shares no code with the engine's:
//! a generate-and-test split enumerator.  Each term of an expression tries
//! every end position in turn, and the block it would cover is tested
//! against what the term denotes.  Grounding goes through
//! `Valuation::apply`.
//!
//! Include it from an integration test with `mod reference;`.

#![allow(dead_code)]

use sequence_datalog::core::{Fact, Instance, Path, PathView, Value};
use sequence_datalog::syntax::{
    Atom, Binding, Equation, Literal, PathExpr, Predicate, Program, Rule, Term, Valuation, Var,
    VarKind,
};
use std::collections::BTreeSet;

/// Rounds per stratum before the reference gives up on convergence.
const MAX_ROUNDS: usize = 10_000;

/// The least stratified fixpoint of `program` over `input`: the input
/// relations plus every IDB relation (declared even when empty).
pub fn evaluate(program: &Program, input: &Instance) -> Instance {
    evaluate_seeded(program, input, &[])
}

/// [`evaluate`] with demand `seeds` (magic-set facts) added before the first
/// stratum.
pub fn evaluate_seeded(program: &Program, input: &Instance, seeds: &[Fact]) -> Instance {
    let mut instance = input.clone();
    for rule in program.strata.iter().flat_map(|s| &s.rules) {
        instance.declare_relation(rule.head.relation, rule.head.args.len());
    }
    for seed in seeds {
        instance.insert_fact(seed.clone()).expect("seed arity");
    }
    for stratum in &program.strata {
        let mut rounds = 0;
        loop {
            rounds += 1;
            assert!(rounds <= MAX_ROUNDS, "reference: stratum did not converge");
            let derived: Vec<Fact> = stratum
                .rules
                .iter()
                .flat_map(|rule| consequences(rule, &instance))
                .collect();
            let mut grew = false;
            for fact in derived {
                grew |= instance.insert_fact(fact).expect("head arity");
            }
            if !grew {
                break;
            }
        }
    }
    instance
}

/// Every head fact one application of `rule` derives from `instance`.
pub fn consequences(rule: &Rule, instance: &Instance) -> Vec<Fact> {
    valuations(&rule.body, instance)
        .iter()
        .map(|nu| {
            let tuple = ground(&rule.head, nu).expect("safe rule binds its head");
            Fact::new(rule.head.relation, tuple)
        })
        .collect()
}

/// Every valuation satisfying `body` over `instance`.
fn valuations(body: &[Literal], instance: &Instance) -> Vec<Valuation> {
    let mut frontier = vec![Valuation::new()];
    let mut bound: BTreeSet<Var> = BTreeSet::new();
    let mut pending: Vec<&Literal> = body
        .iter()
        .filter(|l| !(l.positive && l.is_predicate()))
        .collect();
    settle(&mut pending, &mut frontier, &mut bound, instance);
    for literal in body.iter().filter(|l| l.positive) {
        let Atom::Pred(pred) = &literal.atom else {
            continue;
        };
        let tuples: Vec<_> = instance
            .relation(pred.relation)
            .map(|r| r.iter().cloned().collect())
            .unwrap_or_default();
        frontier = frontier
            .iter()
            .flat_map(|nu| tuples.iter().flat_map(|t| match_predicate(pred, t, nu)))
            .collect();
        bound.extend(pred.vars());
        settle(&mut pending, &mut frontier, &mut bound, instance);
    }
    assert!(
        pending.is_empty(),
        "unsafe rule body: {} never bound",
        pending
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    );
    frontier
}

/// Apply every pending equation and negation whose variables are bound,
/// repeating while an equation binds new variables.
fn settle(
    pending: &mut Vec<&Literal>,
    frontier: &mut Vec<Valuation>,
    bound: &mut BTreeSet<Var>,
    instance: &Instance,
) {
    let all_bound = |vars: Vec<Var>, bound: &BTreeSet<Var>| vars.iter().all(|v| bound.contains(v));
    while let Some(i) = pending.iter().position(|l| match &l.atom {
        Atom::Eq(eq) if l.positive => {
            all_bound(eq.lhs.vars(), bound) || all_bound(eq.rhs.vars(), bound)
        }
        _ => all_bound(l.vars(), bound),
    }) {
        let literal = pending.remove(i);
        *frontier = match (&literal.atom, literal.positive) {
            (Atom::Eq(eq), true) => frontier
                .iter()
                .flat_map(|nu| solve_equation(eq, nu).expect("one side is bound"))
                .collect(),
            (Atom::Eq(eq), false) => frontier
                .drain(..)
                .filter(|nu| nu.apply(&eq.lhs) != nu.apply(&eq.rhs))
                .collect(),
            (Atom::Pred(pred), _) => frontier
                .drain(..)
                .filter(|nu| {
                    let tuple = ground(pred, nu).expect("negation is bound");
                    !instance.contains_fact(&Fact::new(pred.relation, tuple))
                })
                .collect(),
        };
        bound.extend(literal.vars());
    }
}

/// The tuple `pred` denotes under `nu`, if `nu` binds all its variables.
fn ground(pred: &Predicate, nu: &Valuation) -> Option<Vec<Path>> {
    pred.args.iter().map(|arg| nu.apply(arg)).collect()
}

/// Every extension of `nu` under which each argument of `pred` denotes the
/// corresponding path of `tuple`; none when the arities differ.
pub fn match_predicate(pred: &Predicate, tuple: &[Path], nu: &Valuation) -> Vec<Valuation> {
    if pred.args.len() != tuple.len() {
        return Vec::new();
    }
    let mut frontier = vec![nu.clone()];
    for (arg, path) in pred.args.iter().zip(tuple) {
        frontier = frontier
            .iter()
            .flat_map(|nu| match_expr(arg, *path, nu))
            .collect();
    }
    frontier
}

/// Every extension of `nu` satisfying the positive equation `eq`: the side
/// `nu` grounds is applied, and the other side is matched against the
/// result.  `None` when `nu` grounds neither side.
pub fn solve_equation(eq: &Equation, nu: &Valuation) -> Option<Vec<Valuation>> {
    match nu.apply(&eq.lhs) {
        Some(lhs) => Some(match_expr(&eq.rhs, lhs, nu)),
        None => nu.apply(&eq.rhs).map(|rhs| match_expr(&eq.lhs, rhs, nu)),
    }
}

/// Every extension of `nu` under which `expr` denotes `path`.  Each term in
/// turn tries every end position from where the previous term stopped; the
/// expression matches when the last term ends at the end of `path`.
fn match_expr(expr: &PathExpr, path: Path, nu: &Valuation) -> Vec<Valuation> {
    let mut frontier = vec![(0, nu.clone())];
    for term in expr.terms() {
        let mut next = Vec::new();
        for (start, nu) in &frontier {
            for end in *start..=path.len() {
                let block = PathView::cut(path, *start, end);
                next.extend(match_block(term, block, nu).into_iter().map(|nu| (end, nu)));
            }
        }
        frontier = next;
    }
    frontier
        .into_iter()
        .filter(|(end, _)| *end == path.len())
        .map(|(_, nu)| nu)
        .collect()
}

/// Every extension of `nu` under which the single term `term` denotes
/// exactly `block`.  An unbound variable is bound to the block; a bound one
/// must equal it.
fn match_block(term: &Term, block: PathView, nu: &Valuation) -> Vec<Valuation> {
    let (v, binding) = match (term, block.values()) {
        (Term::Const(a), [Value::Atom(b)]) if a == b => return vec![nu.clone()],
        (Term::Packed(inner), [Value::Packed(p)]) => return match_expr(inner, *p, nu),
        (Term::Var(v), [Value::Atom(b)]) if v.kind == VarKind::Atom => (*v, Binding::Atom(*b)),
        (Term::Var(v), _) if v.kind == VarKind::Path => (*v, Binding::Path(block)),
        _ => return Vec::new(),
    };
    match nu.get(v) {
        None => vec![nu.extended(v, binding)],
        Some(bound) if *bound == binding => vec![nu.clone()],
        Some(_) => Vec::new(),
    }
}
