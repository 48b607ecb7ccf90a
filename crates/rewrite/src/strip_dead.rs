//! Dead-code elimination for programs: drop rules that provably cannot
//! contribute to the declared output relations.
//!
//! Three removal reasons, applied together to a fixpoint:
//!
//! * **Unreachable** — the rule's head relation cannot reach any output
//!   relation in the dependency graph (over positive *and* negated body
//!   occurrences, so stratified-negation semantics are untouched: a rule is
//!   only dropped when nothing the outputs depend on — even negatively —
//!   reads its head).
//! * **Always false** — the rule body is statically unsatisfiable: a
//!   contradictory equation (ground sides that differ, conflicting static
//!   first values via [`seqdl_syntax::first_value_expr`], disjoint length
//!   ranges) or a trivially failing nonequality `e != e`.
//! * **Empty relation** — a positive body predicate reads a relation that is
//!   statically empty: an EDB relation with no facts (when the caller knows
//!   the instance) or an IDB relation all of whose rules have been removed.
//!   Relations the caller will *seed* with facts at runtime (the magic-set
//!   demand seeds of `run_seeded`) are never statically empty — use
//!   [`strip_dead_seeded`] so the analysis knows about them.
//!
//! Removing a rule can only shrink the model of its head relation when the
//! rule could fire, and each reason above certifies it cannot — so the
//! stripped program computes the same facts for every output relation (and
//! for every relation the outputs depend on).  The differential property
//! test `tests/prop_check.rs` checks exactly that on random programs.

use seqdl_core::{Instance, RelName};
use seqdl_syntax::{first_value_expr, PathExpr, Program, Rule, Stratum, Term};
use std::collections::BTreeSet;
use std::fmt;

/// Why [`strip_dead`] removed a rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StripReason {
    /// The head relation cannot reach any output relation in the dependency
    /// graph.
    Unreachable,
    /// The rule body is statically unsatisfiable; the payload describes the
    /// offending literal.
    AlwaysFalse(String),
    /// A positive body predicate reads the named statically-empty relation.
    EmptyRelation(RelName),
}

impl fmt::Display for StripReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StripReason::Unreachable => f.write_str("unreachable from the outputs"),
            StripReason::AlwaysFalse(detail) => write!(f, "always false: {detail}"),
            StripReason::EmptyRelation(r) => {
                write!(f, "reads statically empty relation {r}")
            }
        }
    }
}

/// One rule dropped by [`strip_dead`], with its position in the original
/// program.
#[derive(Clone, Debug)]
pub struct RemovedRule {
    /// Index of the stratum the rule lived in.
    pub stratum: usize,
    /// Index of the rule within its stratum.
    pub rule_index: usize,
    /// Rendering of the removed rule.
    pub rule: String,
    /// Why it was removed.
    pub reason: StripReason,
}

/// The result of [`strip_dead`]: the surviving program plus an audit trail of
/// every removal.
#[derive(Clone, Debug)]
pub struct StripReport {
    /// The program with dead and always-false rules removed.  Stratum
    /// boundaries are preserved (strata may end up empty) so surviving rules
    /// keep their stratum indices.
    pub program: Program,
    /// The removed rules in original program order.
    pub removed: Vec<RemovedRule>,
}

impl StripReport {
    /// Did the rewrite change the program at all?
    pub fn changed(&self) -> bool {
        !self.removed.is_empty()
    }
}

/// The static lower/upper bound on the number of values a path expression can
/// denote: constants, atom variables, and packing brackets each contribute
/// exactly one value; path variables contribute zero or more.
fn length_range(expr: &PathExpr) -> (usize, Option<usize>) {
    let mut min = 0usize;
    let mut exact = true;
    for term in expr.terms() {
        match term {
            Term::Const(_) | Term::Packed(_) => min += 1,
            Term::Var(v) if v.is_atom_var() => min += 1,
            Term::Var(_) => exact = false,
        }
    }
    (min, exact.then_some(min))
}

/// The statically known first value of an expression, rendered for comparison:
/// `Some` only for a leading constant or ground packed term (no variables are
/// considered bound here).
fn static_first_value(expr: &PathExpr) -> Option<String> {
    first_value_expr(expr, &BTreeSet::new()).map(|e| e.to_string())
}

/// Is this rule's body statically unsatisfiable, given the set of statically
/// `empty` relations?  Returns a human-readable description of the first
/// offending literal, or `None` when every check passes.
///
/// The checks are conservative (syntactic): a `None` does not certify
/// satisfiability.
pub fn always_false_reason(rule: &Rule, empty: &BTreeSet<RelName>) -> Option<StripReason> {
    for pred in rule.positive_body_predicates() {
        if empty.contains(&pred.relation) {
            return Some(StripReason::EmptyRelation(pred.relation));
        }
    }
    for eq in rule.positive_body_equations() {
        // Fully ground sides: compare the paths they denote.
        if let (Some(l), Some(r)) = (eq.lhs.as_path(), eq.rhs.as_path()) {
            if l != r {
                return Some(StripReason::AlwaysFalse(format!(
                    "ground equation {eq} does not hold"
                )));
            }
            continue;
        }
        // Conflicting static first values (e.g. `a·$x = b·$y`).
        if let (Some(l), Some(r)) = (static_first_value(&eq.lhs), static_first_value(&eq.rhs)) {
            if l != r {
                return Some(StripReason::AlwaysFalse(format!(
                    "equation {eq} requires first value {l} = {r}"
                )));
            }
        }
        // Disjoint length ranges (e.g. `eps = a·$x`).
        let (lmin, lmax) = length_range(&eq.lhs);
        let (rmin, rmax) = length_range(&eq.rhs);
        if lmax.is_some_and(|m| m < rmin) || rmax.is_some_and(|m| m < lmin) {
            return Some(StripReason::AlwaysFalse(format!(
                "equation {eq} equates paths of incompatible lengths"
            )));
        }
    }
    for eq in rule.negative_body_equations() {
        if eq.lhs == eq.rhs {
            return Some(StripReason::AlwaysFalse(format!(
                "nonequality {} != {} can never hold",
                eq.lhs, eq.rhs
            )));
        }
    }
    None
}

/// The statically empty relations of `program`: seeded from the EDB relations
/// absent from `nonempty_edb` (when the caller knows the instance), then
/// propagated — an IDB relation is empty when all of its rules are always
/// false, and a rule is always false when it reads an empty relation
/// positively.  Runs to a fixpoint.
///
/// With `nonempty_edb = None` nothing is assumed about the EDB, so only IDB
/// relations whose rules are all unsatisfiable on their own are reported.
pub fn statically_empty_relations(
    program: &Program,
    nonempty_edb: Option<&BTreeSet<RelName>>,
) -> BTreeSet<RelName> {
    statically_empty_relations_seeded(program, nonempty_edb, &BTreeSet::new())
}

/// [`statically_empty_relations`] for a program that will be evaluated with
/// injected seed facts (`run_seeded`): the `seeded` relations hold facts at
/// runtime no matter what their rules look like, so they are never reported
/// empty — in particular an IDB relation whose rules are all statically false
/// is still nonempty when it is seeded.
pub fn statically_empty_relations_seeded(
    program: &Program,
    nonempty_edb: Option<&BTreeSet<RelName>>,
    seeded: &BTreeSet<RelName>,
) -> BTreeSet<RelName> {
    let idb = program.idb_relations();
    let mut empty: BTreeSet<RelName> = match nonempty_edb {
        Some(nonempty) => program
            .edb_relations()
            .into_iter()
            .filter(|r| !nonempty.contains(r) && !seeded.contains(r))
            .collect(),
        None => BTreeSet::new(),
    };
    loop {
        let mut grew = false;
        for relation in &idb {
            if empty.contains(relation) || seeded.contains(relation) {
                continue;
            }
            let all_false = program
                .rules()
                .filter(|r| r.head.relation == *relation)
                .all(|r| always_false_reason(r, &empty).is_some());
            if all_false {
                empty.insert(*relation);
                grew = true;
            }
        }
        if !grew {
            return empty;
        }
    }
}

/// The relations the `outputs` transitively depend on (through positive *and*
/// negated body occurrences), including the outputs themselves.
pub fn needed_relations(program: &Program, outputs: &BTreeSet<RelName>) -> BTreeSet<RelName> {
    let mut needed: BTreeSet<RelName> = outputs.clone();
    let mut stack: Vec<RelName> = outputs.iter().copied().collect();
    while let Some(relation) = stack.pop() {
        for rule in program.rules() {
            if rule.head.relation != relation {
                continue;
            }
            for body in rule.body_relations() {
                if needed.insert(body) {
                    stack.push(body);
                }
            }
        }
    }
    needed
}

/// Strip rules that cannot contribute to the `outputs`, with no assumption
/// about the EDB.  See [`strip_dead_with_edb`].
pub fn strip_dead(program: &Program, outputs: &BTreeSet<RelName>) -> StripReport {
    strip_dead_with_edb(program, outputs, None)
}

/// Strip rules of a program that will be evaluated with injected seed facts
/// (`run_seeded`, as the magic-set query pipeline does): the `seeded`
/// relations are treated as never statically empty, so rules reading them
/// positively survive even when every rule *producing* them is statically
/// false — at runtime the seeds make them nonempty and those rules can fire.
/// No assumption is made about the EDB.
pub fn strip_dead_seeded(
    program: &Program,
    outputs: &BTreeSet<RelName>,
    seeded: &BTreeSet<RelName>,
) -> StripReport {
    strip_dead_impl(program, outputs, None, seeded)
}

/// Strip rules that cannot contribute to the `outputs`: rules whose head
/// relation is unreachable from the outputs and rules whose body is statically
/// unsatisfiable (see the [module docs](self)), iterated to a fixpoint.
///
/// When `nonempty_edb` is `Some`, EDB relations outside the set are treated as
/// statically empty — pass the relations actually present in the instance
/// (e.g. via [`nonempty_relations`]).  Stratum boundaries are preserved;
/// strata may come out empty.
pub fn strip_dead_with_edb(
    program: &Program,
    outputs: &BTreeSet<RelName>,
    nonempty_edb: Option<&BTreeSet<RelName>>,
) -> StripReport {
    strip_dead_impl(program, outputs, nonempty_edb, &BTreeSet::new())
}

fn strip_dead_impl(
    program: &Program,
    outputs: &BTreeSet<RelName>,
    nonempty_edb: Option<&BTreeSet<RelName>>,
    seeded: &BTreeSet<RelName>,
) -> StripReport {
    // Remember every rule's original coordinates before any removal.
    let mut current: Vec<Vec<(usize, usize, Rule)>> = program
        .strata
        .iter()
        .enumerate()
        .map(|(si, s)| {
            s.rules
                .iter()
                .enumerate()
                .map(|(ri, r)| (si, ri, r.clone()))
                .collect()
        })
        .collect();
    let mut removed: Vec<RemovedRule> = Vec::new();

    loop {
        let snapshot = Program::new(
            current
                .iter()
                .map(|s| Stratum::new(s.iter().map(|(_, _, r)| r.clone()).collect()))
                .collect(),
        );
        let empty = statically_empty_relations_seeded(&snapshot, nonempty_edb, seeded);
        let needed = needed_relations(&snapshot, outputs);
        let mut dropped_any = false;
        for stratum in &mut current {
            stratum.retain(|(si, ri, rule)| {
                let reason = if !needed.contains(&rule.head.relation) {
                    Some(StripReason::Unreachable)
                } else {
                    always_false_reason(rule, &empty)
                };
                match reason {
                    Some(reason) => {
                        removed.push(RemovedRule {
                            stratum: *si,
                            rule_index: *ri,
                            rule: rule.to_string(),
                            reason,
                        });
                        dropped_any = true;
                        false
                    }
                    None => true,
                }
            });
        }
        if !dropped_any {
            removed.sort_by_key(|r| (r.stratum, r.rule_index));
            return StripReport {
                program: Program::new(
                    current
                        .into_iter()
                        .map(|s| Stratum::new(s.into_iter().map(|(_, _, r)| r).collect()))
                        .collect(),
                ),
                removed,
            };
        }
    }
}

/// The relations of `instance` that hold at least one fact — the shape
/// [`strip_dead_with_edb`] expects for its `nonempty_edb` argument.
pub fn nonempty_relations(instance: &Instance) -> BTreeSet<RelName> {
    instance
        .relation_names_iter()
        .filter(|&name| instance.relation(name).is_some_and(|r| !r.is_empty()))
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use seqdl_core::rel;
    use seqdl_syntax::parse_program;

    fn outputs(names: &[&str]) -> BTreeSet<RelName> {
        names.iter().map(|n| rel(n)).collect()
    }

    #[test]
    fn unreachable_rules_are_removed() {
        let p = parse_program("T($x) <- R($x).\nU($x) <- R($x).\nS($x) <- T($x).").unwrap();
        let report = strip_dead(&p, &outputs(&["S"]));
        assert_eq!(report.program.rule_count(), 2);
        assert_eq!(report.removed.len(), 1);
        assert_eq!(report.removed[0].reason, StripReason::Unreachable);
        assert!(report.removed[0].rule.starts_with("U($x)"));
    }

    #[test]
    fn negated_dependencies_are_kept() {
        let p = parse_program("W($x) <- R($x).\n---\nS($x) <- R($x), !W($x).").unwrap();
        let report = strip_dead(&p, &outputs(&["S"]));
        assert!(!report.changed(), "negated dependency W must survive");
    }

    #[test]
    fn contradictory_equations_are_removed() {
        let p = parse_program("S($x) <- R($x), a·$x = b·$x.\nS($x) <- R($x).").unwrap();
        let report = strip_dead(&p, &outputs(&["S"]));
        assert_eq!(report.program.rule_count(), 1);
        assert!(matches!(
            report.removed[0].reason,
            StripReason::AlwaysFalse(_)
        ));
    }

    #[test]
    fn ground_equations_and_trivial_nonequalities() {
        assert!(always_false_reason(
            &seqdl_syntax::parse_rule("S <- R($x), a·b = a·c.").unwrap(),
            &BTreeSet::new()
        )
        .is_some());
        assert!(always_false_reason(
            &seqdl_syntax::parse_rule("S <- R($x), $x != $x.").unwrap(),
            &BTreeSet::new()
        )
        .is_some());
        assert!(always_false_reason(
            &seqdl_syntax::parse_rule("S <- R($x), eps = a·$x.").unwrap(),
            &BTreeSet::new()
        )
        .is_some());
        // Satisfiable bodies survive all checks.
        assert!(always_false_reason(
            &seqdl_syntax::parse_rule("S($x) <- R($x), a·$x = $x·a.").unwrap(),
            &BTreeSet::new()
        )
        .is_none());
    }

    #[test]
    fn empty_relation_knowledge_propagates() {
        // With an instance that has no B facts, T is empty, so S's first rule
        // can never fire.
        let p = parse_program("T($x) <- B($x).\nS($x) <- T($x).\nS($x) <- R($x).").unwrap();
        let nonempty = outputs(&["R"]);
        let report = strip_dead_with_edb(&p, &outputs(&["S"]), Some(&nonempty));
        assert_eq!(report.program.rule_count(), 1);
        assert_eq!(report.removed.len(), 2);
        let empties = statically_empty_relations(&p, Some(&nonempty));
        assert!(empties.contains(&rel("B")));
        assert!(empties.contains(&rel("T")));
    }

    #[test]
    fn seeded_relations_are_never_statically_empty() {
        // M's only rule is always false, so without seed knowledge M is
        // derived empty and both rules reading it die.  With M seeded (the
        // magic-set query shape: seed facts injected at runtime), the rules
        // must survive.
        let p = parse_program("M($x) <- R($x), a·$x = b·$x.\nS($x) <- M($x), R($x).").unwrap();
        let unseeded = strip_dead(&p, &outputs(&["S"]));
        assert_eq!(
            unseeded.program.rule_count(),
            0,
            "sanity: M propagates empty"
        );

        let seeds = outputs(&["M"]);
        assert!(!statically_empty_relations_seeded(&p, None, &seeds).contains(&rel("M")));
        let report = strip_dead_seeded(&p, &outputs(&["S"]), &seeds);
        assert_eq!(
            report.program.rule_count(),
            1,
            "the rule reading seeded M must survive"
        );
        assert!(report.removed[0].rule.starts_with("M($x)"));
    }

    #[test]
    fn magic_programs_keep_rules_guarded_by_the_seeded_demand_relation() {
        // The goal relation is recursive and the recursive rule's demand
        // prefix reads P, whose only rule is statically false.  Every demand
        // rule of the seeded magic relation is then always false — but the
        // seed facts still make it nonempty at runtime, so the adorned base
        // rule it guards must survive.  Seed-blind stripping removes it.
        let p = parse_program(
            "T(@x·@y) <- R(@x·@y).\n\
             T(@x·@z) <- P(@x), T(@x·@y), R(@y·@z).\n\
             P(@x) <- N(@x), a·@x = b·@x.",
        )
        .unwrap();
        let goal = crate::parse_goal("T(a·$y)?").unwrap();
        let mp = crate::magic(&p, &goal).unwrap();
        let seeded: BTreeSet<RelName> = mp.seeds.iter().map(|f| f.relation).collect();
        assert!(!seeded.is_empty(), "bound goal must produce seed facts");
        let answers = BTreeSet::from([mp.answer]);

        // Seed-blind stripping over-prunes: it derives the seeded magic
        // relation empty and drops the base rule producing the answers.
        let blind = strip_dead(&mp.program, &answers);
        assert!(
            !blind.program.rules().any(|r| r.head.relation == mp.answer),
            "precondition: without seed knowledge the answer rules die\n{}",
            mp.program
        );

        let seeded_report = strip_dead_seeded(&mp.program, &answers, &seeded);
        assert!(
            seeded_report
                .program
                .rules()
                .any(|r| r.head.relation == mp.answer),
            "seed-aware stripping must keep the answer-producing base rule\n{}",
            seeded_report.program
        );
    }

    #[test]
    fn seeded_edb_relations_are_nonempty_despite_the_instance() {
        // B is absent from the instance, but seeded at runtime.
        let p = parse_program("S($x) <- B($x).").unwrap();
        let nonempty = outputs(&["R"]);
        let seeds = outputs(&["B"]);
        assert!(
            !statically_empty_relations_seeded(&p, Some(&nonempty), &seeds).contains(&rel("B"))
        );
    }

    #[test]
    fn stratum_boundaries_survive_stripping() {
        let p = parse_program("T($x) <- R($x).\n---\nS($x) <- R($x), !T($x).").unwrap();
        let report = strip_dead(&p, &outputs(&["S"]));
        assert_eq!(report.program.stratum_count(), 2);
    }
}
