//! The flat RAM instruction set and lowered program structure.
//!
//! A [`RuleProc`] is one rule compiled to a linear instruction sequence over
//! its [`BodyPlan`]: choice points ([`Inst::Probe`], [`Inst::Solve`]) push a
//! frame the interpreter backtracks through, deterministic guards
//! ([`Inst::Filter`]) just pass or fail, and [`Inst::Emit`] grounds the head
//! through the emit memo.  A [`Program`] arranges the procedures of each
//! stratum into per-level statements: a merge section that runs exactly once
//! (non-recursive components plus static rules of recursive components,
//! hoisted out of the fixpoint) and one loop per recursive component.  That
//! statement list is what executes: [`crate::drive::Driver`] walks it level
//! by level, one round for each merge section and lock-step semi-naive
//! rounds for each level's loops.

use crate::plan::{BodyPlan, PlannedLiteral};
use seqdl_core::RelName;
use seqdl_syntax::Rule;
use std::collections::BTreeSet;
use std::fmt;

/// One instruction of a lowered rule procedure.  `step` indexes into the
/// procedure's [`BodyPlan::steps`]; the plan's per-step metadata (column
/// probes, bucket-side eligibility) is reused at execution time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Inst {
    /// Choice point: enumerate the candidates of the positive predicate at
    /// plan position `step` (through the trie/joint indexes when possible),
    /// binding its variables per candidate.  With `fused_emit` the probe is
    /// the last body step and the lowering fused the following [`Inst::Emit`]
    /// into its candidate loop.
    Probe {
        /// Plan position of the predicate.
        step: usize,
        /// Emit directly from the candidate loop (terminal probe fusion).
        fused_emit: bool,
    },
    /// Choice point: solve the positive equation at plan position `step`,
    /// enumerating its binding extensions.
    Solve {
        /// Plan position of the equation.
        step: usize,
    },
    /// Deterministic guard: pass or backtrack, never binds.
    Filter(FilterOp),
    /// Ground the head under the current valuation, deduplicate through the
    /// [`EmitMemo`](crate::eval::EmitMemo), and append genuinely new facts.
    Emit,
}

/// The guard kinds a [`Inst::Filter`] can execute.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FilterOp {
    /// A fused probe: every variable of the positive predicate at `step` is
    /// bound by earlier instructions, so the probe collapses to one ground
    /// existence check against the relation's dedup index.  Never emitted at
    /// a delta position (a [`DeltaWindow`](crate::eval::DeltaWindow) must be
    /// able to restrict the step to a tuple-id range).
    FusedProbe {
        /// Plan position of the fully-bound predicate.
        step: usize,
    },
    /// A fully-bound positive equation: both sides ground, one comparison.
    EqHolds {
        /// Plan position of the equation.
        step: usize,
    },
    /// A negated predicate (always fully bound by plan order).
    NegPred {
        /// Plan position of the negated predicate.
        step: usize,
    },
    /// A negated equation (always fully bound by plan order).
    NegEq {
        /// Plan position of the negated equation.
        step: usize,
    },
}

/// One rule lowered to a RAM procedure: the owned rule and plan plus the
/// instruction sequence and the precomputed delta-variant expansion.
#[derive(Clone, Debug)]
pub struct RuleProc {
    /// The source rule (owned; procedures outlive the borrow of the program).
    pub rule: Rule,
    /// The planned body the instructions index into.
    pub plan: BodyPlan,
    /// The instruction sequence.  Always non-empty; ends in [`Inst::Emit`]
    /// unless the final probe carries `fused_emit`.
    pub code: Vec<Inst>,
    /// Per plan step: the probe is *deterministic* under the binding state
    /// the plan guarantees there — each candidate tuple admits at most one
    /// extension, so the interpreter binds in place instead of buffering and
    /// replaying enumerated extensions (see
    /// [`match_predicate_det`](crate::matching::match_predicate_det)).
    pub det: Vec<bool>,
    /// Per plan step: the probe's index selection is a pure function of its
    /// bound atomic variables' values — no column's prefix sources include a
    /// bound *path* variable, so constants and packed terms fix the rest of
    /// every prefix statically — and the interpreter memoises
    /// `choose_candidates` per key tuple within one fire call.
    pub choose_cacheable: Vec<bool>,
    /// Plan positions that draw from a fixpoint-driving relation — the
    /// precomputed [`DeltaWindow`](crate::eval::DeltaWindow) variant
    /// expansion: one windowed variant fires per position per semi-naive
    /// round.
    pub delta_positions: Vec<usize>,
    /// The rule is static over its fixpoint scope (no delta positions): it
    /// fires exactly once per stratum and is hoisted into the merge section.
    pub hoisted: bool,
    /// Per head argument: its term count (precomputed so firing does not
    /// re-walk the head).
    pub term_counts: Vec<usize>,
    /// The head has no packed terms, so it grounds to exactly one segment per
    /// term — the fused terminal loop may prefill the row once per loop entry
    /// and only re-fill the probe-fed holes.
    pub templatable: bool,
}

/// The per-level statements of one stratum: a merge section that runs exactly
/// once, then the fixpoint loops of the level's recursive components.
#[derive(Clone, Debug, Default)]
pub struct LevelProgram {
    /// Procedure indices (into [`StratumProgram::procs`]) fired exactly once
    /// at level entry: rules of non-recursive components plus static rules
    /// hoisted out of the level's loops.
    pub merge: Vec<usize>,
    /// One fixpoint loop per recursive component of the level.
    pub loops: Vec<LoopProgram>,
}

/// The fixpoint loop of one recursive component.
#[derive(Clone, Debug)]
pub struct LoopProgram {
    /// The component's head relations — the loop's delta (purged and re-marked
    /// every round); the loop exits when every delta is empty.
    pub relations: BTreeSet<RelName>,
    /// Procedure indices of the loop body: the component's rules with at
    /// least one delta position, fired over the full instance in the loop's
    /// first round and once per delta window in every later round.
    pub body: Vec<usize>,
}

/// One stratum lowered to RAM: its rule procedures (in rule order) and its
/// level statements (in evaluation order).
#[derive(Clone, Debug)]
pub struct StratumProgram {
    /// One procedure per rule of the stratum, in declaration order.
    pub procs: Vec<RuleProc>,
    /// Statements per dependency level, levels in ascending order.
    pub levels: Vec<LevelProgram>,
}

/// A whole program lowered to RAM, one [`StratumProgram`] per declared
/// stratum.
#[derive(Clone, Debug)]
pub struct Program {
    /// Per-stratum programs, in evaluation order.
    pub strata: Vec<StratumProgram>,
}

impl RuleProc {
    fn fmt_inst(&self, f: &mut fmt::Formatter<'_>, pc: usize, inst: &Inst) -> fmt::Result {
        write!(f, "      {pc:02}  ")?;
        match inst {
            Inst::Probe { step, fused_emit } => {
                let planned = match &self.plan.steps[*step] {
                    PlannedLiteral::MatchPredicate(p) => p,
                    other => return writeln!(f, "probe <invalid step {other:?}>"),
                };
                if *fused_emit {
                    write!(f, "probe+emit {} -> {}", planned.pred, self.rule.head)?;
                } else {
                    write!(f, "probe   {}", planned.pred)?;
                }
                let probed: Vec<String> = planned
                    .probes
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.can_probe())
                    .map(|(c, p)| format!("col{c}[{}]", p.sources.len()))
                    .collect();
                if !probed.is_empty() {
                    write!(f, "  ; via {}", probed.join(" "))?;
                }
                if planned.extend.is_some() {
                    write!(f, ", bucket")?;
                } else if self.det[*step] {
                    write!(f, ", det")?;
                }
                if self.delta_positions.contains(step) {
                    write!(f, "  [delta]")?;
                }
                writeln!(f)
            }
            Inst::Solve { step } => match &self.plan.steps[*step] {
                PlannedLiteral::SolveEquation(eq) => writeln!(f, "solve   {eq}"),
                other => writeln!(f, "solve <invalid step {other:?}>"),
            },
            Inst::Filter(op) => match op {
                FilterOp::FusedProbe { step } => match &self.plan.steps[*step] {
                    PlannedLiteral::MatchPredicate(p) => {
                        writeln!(f, "filter  {}  ; fused probe (fully bound)", p.pred)
                    }
                    other => writeln!(f, "filter <invalid step {other:?}>"),
                },
                FilterOp::EqHolds { step } => match &self.plan.steps[*step] {
                    PlannedLiteral::SolveEquation(eq) => {
                        writeln!(f, "filter  {eq}  ; fully bound")
                    }
                    other => writeln!(f, "filter <invalid step {other:?}>"),
                },
                FilterOp::NegPred { step } => match &self.plan.steps[*step] {
                    PlannedLiteral::CheckNegatedPredicate(p) => writeln!(f, "filter  !{p}"),
                    other => writeln!(f, "filter <invalid step {other:?}>"),
                },
                FilterOp::NegEq { step } => match &self.plan.steps[*step] {
                    PlannedLiteral::CheckNegatedEquation(eq) => writeln!(f, "filter  !({eq})"),
                    other => writeln!(f, "filter <invalid step {other:?}>"),
                },
            },
            Inst::Emit => writeln!(f, "emit    {}", self.rule.head),
        }
    }
}

impl fmt::Display for RuleProc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "    {}", self.rule)?;
        for (pc, inst) in self.code.iter().enumerate() {
            self.fmt_inst(f, pc, inst)?;
        }
        Ok(())
    }
}

fn fmt_relations(relations: &BTreeSet<RelName>) -> String {
    relations
        .iter()
        .map(|r| r.name().to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

impl fmt::Display for StratumProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (lv, level) in self.levels.iter().enumerate() {
            writeln!(f, "  level {lv}:")?;
            if !level.merge.is_empty() {
                writeln!(f, "  merge (once):")?;
                for &p in &level.merge {
                    write!(f, "{}", self.procs[p])?;
                }
            }
            for lp in &level.loops {
                writeln!(f, "  loop {{{}}}:", fmt_relations(&lp.relations))?;
                for &p in &lp.body {
                    write!(f, "{}", self.procs[p])?;
                }
                writeln!(f, "    purge delta {{{}}}", fmt_relations(&lp.relations))?;
                writeln!(
                    f,
                    "    exit when delta {{{}}} is empty",
                    fmt_relations(&lp.relations)
                )?;
            }
        }
        Ok(())
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, stratum) in self.strata.iter().enumerate() {
            writeln!(f, "stratum {i}:")?;
            write!(f, "{stratum}")?;
        }
        Ok(())
    }
}
