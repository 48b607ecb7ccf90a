//! The flat RAM instruction set and lowered program structure.
//!
//! A [`RuleProc`] is one rule compiled to a linear instruction sequence over
//! its [`BodyPlan`]: choice points ([`Inst::Probe`], [`Inst::Solve`]) push a
//! frame the interpreter backtracks through, deterministic guards
//! ([`Inst::Filter`]) just pass or fail, and [`Inst::Emit`] grounds the head,
//! buffers it unless the head relation holds it, then cuts the trail back to
//! [`RuleProc::emit_keep`] choice points.  Besides the code, a procedure
//! carries what the lowering proved about it: the per-step
//! [`RuleProc::det`] verdict and whether the head is
//! [`RuleProc::templatable`] for the fused emit loop.  A [`Program`]
//! arranges the procedures of each stratum into per-level statements: a
//! merge section that runs exactly once (non-recursive components plus
//! static rules of recursive components, hoisted out of the fixpoint) and
//! one loop per recursive component.  That statement list is what
//! executes: [`crate::drive::Driver`] walks it level by level, one round for
//! each merge section and lock-step semi-naive rounds for each level's
//! loops.

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
    /// plan position `step` (through a column's first-value index when
    /// possible),
    /// binding its variables per candidate.  With `fused_emit` the probe is
    /// the last body step and the lowering fused the following [`Inst::Emit`]
    /// into its candidate loop; a fused probe past the cut (it binds no head
    /// variable first, see [`RuleProc::emit_keep`]) leaves that loop after
    /// its first emit.
    Probe {
        /// Plan position of the predicate.
        step: usize,
        /// Emit directly from the candidate loop (terminal probe fusion).
        fused_emit: bool,
    },
    /// Choice point: solve the positive equation at plan position `step`,
    /// enumerating its binding extensions.  Past the cut and directly before
    /// [`Inst::Emit`], the solver stops at the first extension.
    Solve {
        /// Plan position of the equation.
        step: usize,
    },
    /// Deterministic guard: pass or backtrack, never binds.
    Filter(FilterOp),
    /// Ground the head under the current valuation and append it to the
    /// job's buffer unless the head relation already holds it.
    /// Then cut: backtracking resumes at the last of the first
    /// [`RuleProc::emit_keep`] choice points, since every later one binds
    /// only variables the head does not read.
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
/// instruction sequence, the precomputed delta-variant expansion, and the
/// existential cut ([`RuleProc::emit_keep`]).
#[derive(Clone, Debug)]
pub struct RuleProc {
    /// The source rule (owned; procedures outlive the borrow of the program).
    pub rule: Rule,
    /// The planned body the instructions index into.
    pub plan: BodyPlan,
    /// The instruction sequence.  Always non-empty; ends in [`Inst::Emit`]
    /// unless the final probe carries `fused_emit`.
    pub code: Vec<Inst>,
    /// The existential cut: the number of leading choice points ([`Inst::Probe`]
    /// and [`Inst::Solve`], in code order) up to and including the last one
    /// that first binds a head variable — 0 when the head is ground before
    /// any choice point.  Once the head is emitted, every further solution of
    /// the later choice points only re-derives the same head fact, so the
    /// interpreter truncates its trail to this length after each emit.  Only
    /// duplicate head valuations are pruned, so the new facts a pass derives,
    /// and their order, are unchanged.
    pub emit_keep: usize,
    /// Per plan step: the probe is *deterministic* under the binding state
    /// the plan guarantees there — each candidate tuple admits at most one
    /// extension, so the interpreter binds in place instead of buffering and
    /// replaying enumerated extensions (see
    /// [`match_predicate_det`](crate::matching::match_predicate_det)).
    pub det: Vec<bool>,
    /// Plan positions that draw from a fixpoint-driving relation — the
    /// precomputed [`DeltaWindow`](crate::eval::DeltaWindow) variant
    /// expansion: one windowed variant fires per position per semi-naive
    /// round.
    pub delta_positions: Vec<usize>,
    /// The rule is static over its fixpoint scope (no delta positions): it
    /// fires exactly once per stratum and is hoisted into the merge section.
    pub hoisted: bool,
    /// The head has no packed terms, so its content is the values of its
    /// constants and variables — the fused terminal loop may prefill those
    /// values once per loop entry and only re-fill the probe-fed holes.
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
                if *fused_emit && self.once_at(pc) {
                    write!(f, ", once")?;
                }
                if self.delta_positions.contains(step) {
                    write!(f, "  [delta]")?;
                }
                if *fused_emit {
                    self.fmt_cut(f, pc)?;
                }
                writeln!(f)
            }
            Inst::Solve { step } => {
                match &self.plan.steps[*step] {
                    PlannedLiteral::SolveEquation(eq) => write!(f, "solve   {eq}")?,
                    other => write!(f, "solve <invalid step {other:?}>")?,
                }
                if matches!(self.code.get(pc + 1), Some(Inst::Emit)) && self.once_at(pc) {
                    write!(f, ", once")?;
                }
                writeln!(f)
            }
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
            Inst::Emit => {
                write!(f, "emit    {}", self.rule.head)?;
                self.fmt_cut(f, pc)?;
                writeln!(f)
            }
        }
    }

    /// The code positions of the choice points, in order.
    fn choice_pcs(&self) -> impl Iterator<Item = usize> + '_ {
        self.code
            .iter()
            .enumerate()
            .filter(|(_, i)| matches!(i, Inst::Probe { .. } | Inst::Solve { .. }))
            .map(|(pc, _)| pc)
    }

    /// The number of choice points before code position `pc` — the trail
    /// length whenever the interpreter reaches `pc`.
    fn choice_points_before(&self, pc: usize) -> usize {
        self.choice_pcs().take_while(|&c| c < pc).count()
    }

    /// Is the choice point at `pc` past the cut (it binds no head variable
    /// first)?
    fn once_at(&self, pc: usize) -> bool {
        self.choice_points_before(pc) >= self.emit_keep
    }

    /// Append `; cut to NN` when the emit at `pc` backtracks past choice
    /// points: `NN` is the code position of the last kept choice point, or
    /// `end` when none is kept.
    fn fmt_cut(&self, f: &mut fmt::Formatter<'_>, pc: usize) -> fmt::Result {
        if self.emit_keep >= self.choice_points_before(pc) {
            return Ok(());
        }
        match self.emit_keep.checked_sub(1) {
            Some(last) => {
                let kept = self.choice_pcs().nth(last).unwrap_or_default();
                write!(f, "  ; cut to {kept:02}")
            }
            None => write!(f, "  ; cut to end"),
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
