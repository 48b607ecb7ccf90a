//! Lowering rules to RAM procedures and whole programs.
//!
//! [`lower_rule`] orders a rule body and emits its instructions in one pass,
//! keeping one set of the variables bound so far.  The order is the one the
//! limited-variable fixpoint of a safe rule (Section 2.2) guarantees:
//!
//! 1. positive predicates in source order (binding their variables);
//! 2. each positive equation at the first point where one of its sides is
//!    fully bound (so it can be solved by matching against a ground path);
//! 3. negated predicates and negated equations last, when all their
//!    variables are bound.
//!
//! Three fusions, one cut and one per-probe verdict are decided on the way,
//! all statically from the bound set:
//!
//! * a positive predicate whose variables are all bound by earlier steps
//!   collapses to a [`FilterOp::FusedProbe`] existence check — except at a
//!   delta position, which must stay enumerable so a
//!   [`DeltaWindow`](crate::eval::DeltaWindow) can restrict it;
//! * a positive equation whose variables are all bound collapses to a
//!   [`FilterOp::EqHolds`] comparison (no valuation clone);
//! * a terminal probe absorbs the following [`Inst::Emit`] into its candidate
//!   loop (`fused_emit`), so the hot innermost join level runs without any
//!   per-candidate instruction dispatch;
//! * the existential cut ([`RuleProc::emit_keep`]): the choice points after
//!   the last one that first binds a head variable can only re-derive an
//!   emitted head fact, so after an emit the interpreter backtracks straight
//!   past them (a fused terminal probe or a `Solve` right before the emit
//!   stops at its first extension);
//! * the det verdict ([`probe_is_det`]): a probe whose every tuple admits at
//!   most one extension under the bound set is matched in place by
//!   [`match_predicate_det`](crate::matching::match_predicate_det).
//!
//! Whole-program lowering additionally computes each stratum's statement
//! structure from the precedence graph's condensation: non-recursive
//! components and *static* rules of recursive components (rules with no delta
//! position — semi-naive never re-fires them after round zero) are hoisted
//! into a once-per-stratum merge section; the remaining rules form one
//! fixpoint loop per recursive component.

use crate::error::EvalError;
use crate::plan::PlannedPredicate;
use crate::ram::ir::{
    FilterOp, Inst, LevelProgram, LoopProgram, Program, RuleProc, StratumProgram,
};
use seqdl_core::RelName;
use seqdl_syntax::{Atom, PathExpr, PrecedenceGraph, Predicate, Rule, Stratum, Term, Var, VarKind};
use std::collections::BTreeSet;

/// Lower one rule to a RAM procedure.  `recursive_over` names the relations
/// driving the enclosing fixpoint (empty for single-pass scopes): a positive
/// predicate over one of them is a delta position, which stays an
/// enumerable probe.
///
/// # Errors
/// [`EvalError::Unplannable`] if some positive equation never acquires a
/// fully bound side; this only happens for unsafe rules.
pub fn lower_rule(rule: &Rule, recursive_over: &BTreeSet<RelName>) -> Result<RuleProc, EvalError> {
    let mut code = Vec::with_capacity(rule.body.len() + 1);
    let mut delta_positions = Vec::new();
    // Rules are short, so the bound-variable set is a flat vector with linear
    // membership tests.
    let mut bound: Vec<Var> = Vec::new();
    let head_vars = rule.head.vars();
    let mut choice_points = 0usize;
    let mut emit_keep = 0usize;
    // Count a choice point binding `vars` and add them to the bound set; the
    // choice point is kept by the cut if it binds a head variable first.
    let mut choice = |vars: Vec<Var>, bound: &mut Vec<Var>| {
        choice_points += 1;
        for v in vars {
            if !bound.contains(&v) {
                if head_vars.contains(&v) {
                    emit_keep = choice_points;
                }
                bound.push(v);
            }
        }
    };

    // 1. Positive predicates, in source order.
    for lit in rule.body.iter().filter(|l| l.positive) {
        let Atom::Pred(p) = &lit.atom else { continue };
        let vars = p.vars();
        let delta = recursive_over.contains(&p.relation);
        if !delta && vars.iter().all(|v| bound.contains(v)) {
            code.push(Inst::Filter(FilterOp::FusedProbe(p.clone())));
            continue;
        }
        if delta {
            delta_positions.push(code.len());
        }
        code.push(Inst::Probe {
            pred: PlannedPredicate::new(p, &bound),
            det: probe_is_det(p, &bound),
            fused_emit: false,
        });
        choice(vars, &mut bound);
    }

    // 2. Positive equations, each at the first point where one side is
    // fully bound.
    let mut pending: Vec<_> = rule
        .body
        .iter()
        .filter(|l| l.positive)
        .filter_map(|l| l.atom.as_equation())
        .collect();
    while !pending.is_empty() {
        let side_bound = |side: &PathExpr| side.vars().iter().all(|v| bound.contains(v));
        let Some(ix) = pending
            .iter()
            .position(|eq| side_bound(&eq.lhs) || side_bound(&eq.rhs))
        else {
            return Err(EvalError::Unplannable {
                rule: rule.to_string(),
            });
        };
        let eq = pending.remove(ix);
        let vars = eq.vars();
        if vars.iter().all(|v| bound.contains(v)) {
            code.push(Inst::Filter(FilterOp::EqHolds(eq.clone())));
        } else {
            code.push(Inst::Solve(eq.clone()));
            choice(vars, &mut bound);
        }
    }

    // 3. Negated literals.
    for lit in rule.body.iter().filter(|l| !l.positive) {
        code.push(Inst::Filter(match &lit.atom {
            Atom::Pred(p) => FilterOp::NegPred(p.clone()),
            Atom::Eq(e) => FilterOp::NegEq(e.clone()),
        }));
    }

    match code.last_mut() {
        Some(Inst::Probe { fused_emit, .. }) => *fused_emit = true,
        _ => code.push(Inst::Emit),
    }
    Ok(RuleProc {
        templatable: rule
            .head
            .args
            .iter()
            .all(|a| a.terms().iter().all(|t| !matches!(t, Term::Packed(_)))),
        rule: rule.clone(),
        code,
        emit_keep,
        hoisted: delta_positions.is_empty(),
        delta_positions,
    })
}

/// The lowering's det verdict: is a probe of `pred`, entered with exactly
/// the variables `bound` bound, *deterministic* — does every tuple admit at
/// most one extension?  It holds iff a left-to-right walk of each argument
/// (later arguments seeing the variables earlier ones bind) never faces a
/// choice point.  [`lower_rule`] tags such probes for
/// [`match_predicate_det`](crate::matching::match_predicate_det), which binds
/// in place instead of buffering the extensions.
pub fn probe_is_det(pred: &Predicate, bound: &[Var]) -> bool {
    let mut walk = bound.to_vec();
    pred.args
        .iter()
        .all(|arg| det_terms(arg.terms(), &mut walk))
}

/// Would a left-to-right walk of `terms` under the bound set `bound` ever
/// face a choice point?  No iff every term consumes a statically-determined
/// block: constants and atomic variables take one value, bound path variables
/// take their binding's length, packed terms take one packed value (with the
/// same rule inside), and an *unbound* path variable only appears as the last
/// term of its list, where it must absorb the whole remainder.  `bound` is
/// updated in place with the variables such a walk binds, so later arguments
/// (and later occurrences of the same variable) see them.
fn det_terms(terms: &[Term], bound: &mut Vec<Var>) -> bool {
    let last = terms.len().wrapping_sub(1);
    for (i, term) in terms.iter().enumerate() {
        match term {
            Term::Const(_) => {}
            Term::Packed(inner) => {
                if !det_terms(inner.terms(), bound) {
                    return false;
                }
            }
            Term::Var(v) => match v.kind {
                VarKind::Atom => {
                    if !bound.contains(v) {
                        bound.push(*v);
                    }
                }
                VarKind::Path => {
                    if !bound.contains(v) {
                        if i != last {
                            return false;
                        }
                        bound.push(*v);
                    }
                }
            },
        }
    }
    true
}

/// Lower one declared stratum: lower every rule (each with its own
/// component's relations as the fixpoint scope) and build the per-level
/// merge/loop statement structure from the precedence graph's condensation.
///
/// # Errors
/// Unplannable (unsafe) rules.
pub fn lower_stratum(stratum: &Stratum) -> Result<StratumProgram, EvalError> {
    let condensation = PrecedenceGraph::of_rules(stratum.rules.iter()).condensation();
    let comp_of: Vec<usize> = stratum
        .rules
        .iter()
        .map(|r| {
            // invariant: the condensation was built from this same stratum's rules,
            // so every head relation is one of its nodes.
            condensation
                .component_of(r.head.relation)
                .expect("every rule head is a node of the stratum's precedence graph")
        })
        .collect();
    let empty = BTreeSet::new();
    let procs: Vec<RuleProc> = stratum
        .rules
        .iter()
        .enumerate()
        .map(|(ix, rule)| {
            let scc = &condensation.components[comp_of[ix]];
            lower_rule(rule, if scc.recursive { &scc.members } else { &empty })
        })
        .collect::<Result<_, _>>()?;
    let mut levels: Vec<LevelProgram> = (0..condensation.level_count())
        .map(|_| LevelProgram::default())
        .collect();
    for (c, scc) in condensation.components.iter().enumerate() {
        let rule_ixs: Vec<usize> = (0..stratum.rules.len())
            .filter(|&i| comp_of[i] == c)
            .collect();
        if scc.recursive {
            let (hoisted, body): (Vec<usize>, Vec<usize>) =
                rule_ixs.into_iter().partition(|&i| procs[i].hoisted);
            levels[scc.level].merge.extend(hoisted);
            levels[scc.level].loops.push(LoopProgram {
                relations: scc.members.clone(),
                body,
            });
        } else {
            levels[scc.level].merge.extend(rule_ixs);
        }
    }
    Ok(StratumProgram { procs, levels })
}

/// Lower a whole program to RAM, one [`StratumProgram`] per declared stratum.
///
/// # Errors
/// Unplannable (unsafe) rules.
pub fn lower(program: &seqdl_syntax::Program) -> Result<Program, EvalError> {
    Ok(Program {
        strata: program
            .strata
            .iter()
            .map(lower_stratum)
            .collect::<Result<_, _>>()?,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use seqdl_core::rel;
    use seqdl_syntax::parse_program;

    fn lower_first(source: &str) -> StratumProgram {
        let program = parse_program(source).unwrap();
        lower_stratum(&program.strata[0]).unwrap()
    }

    #[test]
    fn fully_bound_predicates_fuse_to_filters() {
        // After T(@x·@y) binds both variables, the second T literal is fully
        // bound and not a delta position (the stratum is non-recursive here),
        // so it collapses to a fused-probe filter; the terminal instruction
        // absorbs the emit.
        let lowered = lower_first("S(@x) <- T(@x·@y), U(@y·@x).");
        let code = &lowered.procs[0].code;
        assert!(
            matches!(
                code[0],
                Inst::Probe {
                    fused_emit: false,
                    ..
                }
            ),
            "{code:?}"
        );
        assert!(
            matches!(code[1], Inst::Filter(FilterOp::FusedProbe(_))),
            "{code:?}"
        );
        assert!(matches!(code[2], Inst::Emit), "{code:?}");
    }

    #[test]
    fn terminal_probes_absorb_the_emit() {
        let lowered = lower_first("T(@x·@z) <- T(@x·@y), R(@y·@z).");
        let code = &lowered.procs[0].code;
        assert_eq!(code.len(), 2, "{code:?}");
        assert!(
            matches!(
                code[1],
                Inst::Probe {
                    fused_emit: true,
                    ..
                }
            ),
            "{code:?}"
        );
    }

    #[test]
    fn fully_bound_equations_fuse_and_delta_positions_stay_enumerable() {
        // In the recursive rule, the T literal is a delta position: it must
        // stay a probe even when a different plan order could bind it.  The
        // equation over already-bound variables becomes a filter.
        let lowered = lower_first("T($x) <- R($x).\nT($y) <- T($y), $y·a = a·$y.");
        let recursive = &lowered.procs[1];
        assert_eq!(recursive.delta_positions, vec![0], "{recursive:?}");
        assert!(
            matches!(recursive.code[0], Inst::Probe { .. }),
            "{:?}",
            recursive.code
        );
        assert!(
            matches!(recursive.code[1], Inst::Filter(FilterOp::EqHolds(_))),
            "{:?}",
            recursive.code
        );
    }

    #[test]
    fn static_rules_hoist_out_of_the_fixpoint_loop() {
        // Both rules head the recursive component {T}, but only the second
        // reads T: the first is static and hoists into the merge section.
        let lowered = lower_first("T($x) <- R($x).\nT($y) <- T(@u·$y).");
        assert!(lowered.procs[0].hoisted);
        assert!(!lowered.procs[1].hoisted);
        assert_eq!(lowered.levels.len(), 1);
        assert_eq!(lowered.levels[0].merge, vec![0]);
        assert_eq!(lowered.levels[0].loops.len(), 1);
        assert_eq!(lowered.levels[0].loops[0].body, vec![1]);
        assert!(lowered.levels[0].loops[0].relations.contains(&rel("T")));
    }

    #[test]
    fn nonrecursive_chain_schedules_one_component_per_level() {
        let lowered = lower_first("T1($x) <- R($x).\nT2($x) <- T1($x).\nS($x) <- T2($x).");
        assert_eq!(lowered.levels.len(), 3);
        for (li, level) in lowered.levels.iter().enumerate() {
            assert_eq!(level.merge, vec![li], "rule {li} alone at level {li}");
            assert!(level.loops.is_empty());
        }
    }

    #[test]
    fn independent_relations_share_a_level() {
        let lowered = lower_first(
            "T($x) <- R($x).\nU($x) <- R($x).\nS($x) <- T($x), U($x).\nS($x) <- R($x·a).",
        );
        assert_eq!(lowered.levels.len(), 2);
        let mut level0 = lowered.levels[0].merge.clone();
        level0.sort_unstable();
        assert_eq!(level0, vec![0, 1], "T and U are independent");
        assert_eq!(
            lowered.levels[1].merge,
            vec![2, 3],
            "both S rules in one unit"
        );
        assert!(lowered.levels.iter().all(|l| l.loops.is_empty()));
    }

    #[test]
    fn recursion_is_confined_to_its_component() {
        let lowered = lower_first(
            "E($p) <- R($p).\nT(@x·@y) <- E(@x·@y).\nT(@x·@z) <- T(@x·@y), E(@y·@z).\nS <- T(a·b).",
        );
        assert_eq!(lowered.levels.len(), 3);
        assert_eq!(lowered.levels[0].merge, vec![0]);
        assert!(lowered.levels[0].loops.is_empty());
        // T's base rule hoists into level 1's merge; only the recursive rule
        // loops, over T alone.
        assert_eq!(lowered.levels[1].merge, vec![1]);
        assert_eq!(lowered.levels[1].loops.len(), 1);
        assert_eq!(lowered.levels[1].loops[0].body, vec![2]);
        assert_eq!(
            lowered.levels[1].loops[0].relations,
            BTreeSet::from([rel("T")])
        );
        assert_eq!(lowered.levels[2].merge, vec![3]);
        assert!(lowered.levels[2].loops.is_empty());
    }

    #[test]
    fn declared_strata_schedule_separately() {
        let program =
            parse_program("W(@x) <- R(@x·@y), !B(@y).\n---\nS(@x) <- R(@x·@y), !W(@x).").unwrap();
        let lowered = lower(&program).unwrap();
        assert_eq!(lowered.strata.len(), 2);
        for stratum in &lowered.strata {
            assert_eq!(stratum.levels.len(), 1);
            assert_eq!(stratum.levels[0].merge, vec![0]);
            assert!(stratum.levels[0].loops.is_empty());
        }
    }

    #[test]
    fn emit_keep_counts_choice_points_through_the_last_head_binder() {
        let keep = |source: &str, stratum: usize| {
            let program = parse_program(source).unwrap();
            lower_stratum(&program.strata[stratum]).unwrap().procs[0].emit_keep
        };
        let policy = "HasPay($s) <- Log($t), $t = $p·order·$s, $s = $u·pay·$v.\n---\n\
                      Viol($t) <- Log($t), $t = $p·order·$s, !HasPay($s).\n---\n\
                      Compliant($t) <- Log($t), !Viol($t).";
        // The Log probe binds only `$t`; the order split first binds `$s`;
        // the pay split binds only the dead `$u`, `$v`.
        assert_eq!(keep(policy, 0), 2);
        // `$t` is the head: the order split after the Log probe is dead.
        assert_eq!(keep(policy, 1), 1);
        assert_eq!(keep(policy, 2), 1);
        // A nullary head is ground before any choice point.
        assert_eq!(keep("S <- T(@x·@y).", 0), 0);
        // Both reachability probes bind a head variable: nothing is cut.
        let reach = lower_first("T(@x·@y) <- R(@x·@y).\nT(@x·@z) <- T(@x·@y), R(@y·@z).");
        assert_eq!(reach.procs[1].emit_keep, 2);
    }

    #[test]
    fn negated_literals_lower_to_filters() {
        let program = parse_program("T($x) <- R($x).\n---\nS($x) <- T($x), !B($x).").unwrap();
        let lowered = lower_stratum(&program.strata[1]).unwrap();
        let code = &lowered.procs[0].code;
        assert!(
            matches!(code[1], Inst::Filter(FilterOp::NegPred(_))),
            "{code:?}"
        );
    }
}
