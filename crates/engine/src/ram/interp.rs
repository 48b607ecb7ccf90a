//! The shared non-recursive RAM interpreter.
//!
//! One machine executes every lowered procedure: a program counter walks the
//! instruction sequence forward, each choice point ([`Inst::Probe`],
//! [`Inst::Solve`]) owns a frame holding its candidate cursor, and a trail of
//! active choice points drives backtracking.  Every instruction carries the
//! literal it executes, and a [`DeltaWindow`] names the probe it restricts by
//! code position, so dispatch reads nothing but the code.  A single [`Valuation`] is
//! threaded through the whole walk; a frame records the valuation depth on
//! entry and backtracks by truncating to it — no recursion frames, no
//! continuation closures, no interior-mutability error channel.
//!
//! After every emit the trail is cut to [`RuleProc::emit_keep`] choice points
//! (the existential cut): the choice points past it bind no head variable,
//! so their remaining solutions could only re-derive the fact just emitted.
//! A fused terminal probe past the cut leaves its candidate loop after its
//! first emit, and a `Solve` past the cut right before the emit stops its
//! solver at the first extension.
//!
//! An emit makes two checks and keeps no table of its own: it interns the
//! head row's paths, where a repeated path hits the thread's consing cache,
//! and it skips the row if the head relation already holds it.  A row one
//! job derives twice is buffered twice; the merge keeps the first copy.
//!
//! Candidate enumeration picks the smallest first-value bucket through
//! `choose_candidates` on every probe entry, clamps it to the delta window
//! with `partition_point`, and finishes each candidate one of three ways:
//! bucket-side (an entry's length and next value bind one trailing atomic
//! variable without touching the tuple store), the deterministic pass
//! (probes the lowering proved admit at most one extension), or the
//! backtracking walk, whose extensions a frame buffers and replays —
//! equations included.  A fused terminal probe emits from its candidate loop,
//! prefilling a template head row when the head has no packed terms.  The
//! differential property tests pin the output to the test-only reference
//! evaluator, which has a matcher of its own.

use crate::error::EvalError;
use crate::eval::{choose_candidates, DeltaWindow, FireStats};
use crate::matching::{
    equation_holds, find_row, match_predicate_det, match_predicate_sink, solve_equation,
};
use crate::plan::PlannedPredicate;
use crate::ram::ir::{FilterOp, Inst, RuleProc};
use seqdl_core::{BucketEntry, Instance, Path, Relation, Rows, Value};
use seqdl_syntax::{Binding, Equation, PathExpr, Rule, Term, Valuation, Var};

/// The candidate source of one probe frame.
enum Cands<'r> {
    /// First-value bucket entries (carry length/next-value metadata).
    Entries(&'r [BucketEntry]),
    /// Scan fallback: tuple ids `cursor..end`.
    Scan(usize),
    /// No relation (absent or arity mismatch) — or a non-probe frame.
    Empty,
}

/// How a probe frame finishes matching one candidate.
#[derive(Clone, Copy)]
enum Mode {
    /// Deterministic predicate (proved by the lowering): at most one
    /// extension per tuple, bound in place — no buffering, no replay.
    Det,
    /// Bucket-side with one trailing unbound atomic variable: entry length
    /// 2 (the bucket's first value plus one) and the entry's next value
    /// decide and bind.
    BucketBind(Var),
    /// General predicate: buffer the tuple's extension deltas and replay.
    General,
    /// Equation frame: extensions buffered on entry, no candidates.
    Equation,
}

/// The rows of a frame with no relation to draw from.
static NO_ROWS: Rows = Rows::new(0);

/// One choice-point frame.
struct Frame<'r> {
    /// Valuation depth on entry — the truncation target for backtracking.
    depth: usize,
    cands: Cands<'r>,
    cursor: usize,
    mode: Mode,
    rows: &'r Rows,
    /// Flattened binding deltas of the buffered extensions; extension `k`
    /// spans `ext[bounds[k]..bounds[k + 1]]`.
    ext: Vec<(Var, Binding)>,
    bounds: Vec<usize>,
    next_ext: usize,
}

/// A candidate pulled from a frame (by value, so matching can mutate the
/// frame's buffers).
enum Cand {
    Entry(BucketEntry),
    Id(usize),
}

impl Cand {
    fn id(&self) -> usize {
        match self {
            Cand::Entry(e) => e.id as usize,
            Cand::Id(id) => *id,
        }
    }
}

impl<'r> Frame<'r> {
    fn new() -> Frame<'r> {
        Frame {
            depth: 0,
            cands: Cands::Empty,
            cursor: 0,
            mode: Mode::General,
            rows: &NO_ROWS,
            ext: Vec::new(),
            bounds: Vec::new(),
            next_ext: 0,
        }
    }

    /// (Re-)initialise this frame for a probe of `planned` over `relation`,
    /// choosing the index, clamping to `window` (the delta window when it
    /// restricts this step), and deciding bucket-side eligibility.
    fn enter_probe(
        &mut self,
        planned: &PlannedPredicate,
        relation: Option<&'r Relation>,
        window: Option<DeltaWindow>,
        det: bool,
        nu: &Valuation,
        stats: &mut FireStats,
    ) {
        self.depth = nu.len();
        self.cursor = 0;
        self.ext.clear();
        self.bounds.clear();
        self.next_ext = 0;
        self.mode = if det { Mode::Det } else { Mode::General };
        let Some(relation) = relation else {
            self.cands = Cands::Empty;
            return;
        };
        let len = relation.len();
        let (first_id, last_id) = match window {
            Some(w) => (w.lo.min(len), w.hi.min(len)),
            None => (0, len),
        };
        self.rows = relation.rows();
        let Some(entries) = choose_candidates(relation, planned, nu) else {
            stats.scans += 1;
            self.cursor = first_id;
            self.cands = Cands::Scan(last_id);
            return;
        };
        stats.index_probes += 1;
        // The full-range case (no window on this step) skips the
        // `partition_point` searches outright.
        let (lo, hi) = if first_id == 0 && last_id == len {
            (0, entries.len())
        } else {
            (
                entries.partition_point(|e| (e.id as usize) < first_id),
                entries.partition_point(|e| (e.id as usize) < last_id),
            )
        };
        if let Some(v) = planned.extend {
            self.mode = Mode::BucketBind(v);
        }
        self.cands = Cands::Entries(&entries[lo..hi]);
    }

    /// (Re-)initialise this frame for an equation, buffering every binding
    /// extension up front — only the first with `once`.  `None` means
    /// neither side was fully bound — an unsafe rule.
    fn enter_solve(&mut self, eq: &Equation, nu: &mut Valuation, once: bool) -> Option<()> {
        self.depth = nu.len();
        self.cands = Cands::Empty;
        self.cursor = 0;
        self.mode = Mode::Equation;
        solve_equation(eq, nu, &mut self.refill(once))
    }

    /// Empty the extension buffer and return the sink that refills it: the
    /// bindings each extension adds past the entry depth become one buffered
    /// entry, replayed in order by [`Frame::next`].  The sink stops the walk
    /// after the first extension iff `once`.
    fn refill(&mut self, once: bool) -> impl FnMut(&mut Valuation) -> bool + '_ {
        self.ext.clear();
        self.bounds.clear();
        self.bounds.push(0);
        self.next_ext = 0;
        let (ext, bounds, depth) = (&mut self.ext, &mut self.bounds, self.depth);
        move |nu| {
            ext.extend_from_slice(nu.bindings_since(depth));
            bounds.push(ext.len());
            once
        }
    }

    /// Candidates remaining in this frame (before any matching filters them).
    fn cands_len(&self) -> usize {
        match self.cands {
            Cands::Entries(entries) => entries.len(),
            Cands::Scan(end) => end.saturating_sub(self.cursor),
            Cands::Empty => 0,
        }
    }

    fn advance(&mut self) -> Option<Cand> {
        match self.cands {
            Cands::Entries(entries) => {
                let e = *entries.get(self.cursor)?;
                self.cursor += 1;
                Some(Cand::Entry(e))
            }
            Cands::Scan(end) => {
                if self.cursor >= end {
                    return None;
                }
                let id = self.cursor;
                self.cursor += 1;
                Some(Cand::Id(id))
            }
            Cands::Empty => None,
        }
    }

    /// Advance to the next satisfying binding state: truncate `nu` back to
    /// the entry depth, then replay the next buffered extension or match the
    /// next candidate.  Returns `false` when exhausted.  `planned` is the
    /// probe's predicate (`None` for equation frames, which only replay).
    fn next(&mut self, planned: Option<&PlannedPredicate>, nu: &mut Valuation) -> bool {
        nu.truncate(self.depth);
        loop {
            if self.next_ext + 1 < self.bounds.len() {
                let lo = self.bounds[self.next_ext];
                let hi = self.bounds[self.next_ext + 1];
                for (v, b) in &self.ext[lo..hi] {
                    nu.bind_new(*v, *b);
                }
                self.next_ext += 1;
                return true;
            }
            let Some(cand) = self.advance() else {
                return false;
            };
            let mode = self.mode;
            match (mode, cand) {
                (Mode::BucketBind(v), Cand::Entry(e)) => {
                    if e.len == 2 {
                        if let Some(b) = e.next_atom() {
                            nu.bind_new(v, Binding::Atom(b));
                            return true;
                        }
                    }
                }
                (Mode::Det, cand) => {
                    // invariant: det-mode frames are only built by probe lowering, which
                    // always attaches the planned predicate.
                    let planned = planned.expect("det mode only on probe frames");
                    if match_predicate_det(&planned.pred, self.rows.row(cand.id()), nu) {
                        return true;
                    }
                }
                (Mode::General, cand) => {
                    // invariant: general-mode frames are only built by probe lowering, which
                    // always attaches the planned predicate.
                    let planned = planned.expect("general mode only on probe frames");
                    let rows = self.rows;
                    match_predicate_sink(
                        &planned.pred,
                        rows.row(cand.id()),
                        nu,
                        &mut self.refill(false),
                    );
                    // Loop: the buffered-extension branch replays them.
                }
                (Mode::Equation, _) | (Mode::BucketBind(..), Cand::Id(_)) => {
                    unreachable!("bucket mode only arises from first-value buckets")
                }
            }
        }
    }
}

fn unplannable(rule: &Rule) -> EvalError {
    EvalError::Unplannable {
        rule: rule.to_string(),
    }
}

/// Ground the head under `nu` and append the row if the head relation does
/// not hold it yet.  Each argument is grounded by [`Valuation::apply`]: built
/// from values and interned once.
fn emit_head(
    rule: &Rule,
    head_relation: Option<&Relation>,
    nu: &Valuation,
    row: &mut Vec<Path>,
    out: &mut Rows,
    stats: &mut FireStats,
) -> Result<(), EvalError> {
    row.clear();
    for arg in &rule.head.args {
        row.push(nu.apply(arg).ok_or_else(|| unplannable(rule))?);
    }
    emit_row(head_relation, row, out, stats);
    Ok(())
}

/// The back half of every emit: count the firing and append the grounded
/// head row to `out` unless the head relation already holds it.  A row this
/// job already buffered is buffered again and dropped at the merge.
fn emit_row(head_relation: Option<&Relation>, row: &[Path], out: &mut Rows, stats: &mut FireStats) {
    stats.firings += 1;
    if head_relation.is_some_and(|r| r.contains(row)) {
        return;
    }
    out.push(row);
}

/// A fused loop's head row, prefilled from the valuation once per loop
/// entry so that each candidate only fills the holes its probe binds.
#[derive(Default)]
struct HeadTemplate {
    /// The prefilled arguments' values, one argument after another.  An
    /// atomic variable the probe binds is one slot, overwritten per
    /// candidate.
    values: Vec<Value>,
    /// Per head argument: the end of its slots in `values`, or `None` for an
    /// argument grounded per emit by [`Valuation::apply`].  That is a lone
    /// path variable, interned as a cut of its parent's storage, or one with
    /// a path variable the probe binds, whose view's values `apply` copies in.
    ends: Vec<Option<usize>>,
    /// The slots of the atomic variables the probe binds.
    holes: Vec<(usize, Var)>,
}

impl HeadTemplate {
    /// Prefill from `nu`: every head variable it binds becomes values, every
    /// other one a hole.  Interns nothing, so a loop that emits nothing
    /// leaves the store as it was.
    fn prefill(&mut self, args: &[PathExpr], nu: &Valuation) {
        self.values.clear();
        self.ends.clear();
        self.holes.clear();
        for arg in args {
            let terms = arg.terms();
            let applied = match terms {
                [Term::Var(v)] => v.is_path_var(),
                _ => terms.iter().any(|t| match t {
                    Term::Var(v) => v.is_path_var() && !nu.contains(*v),
                    _ => false,
                }),
            };
            if applied {
                self.ends.push(None);
                continue;
            }
            for term in terms {
                match term {
                    Term::Const(a) => self.values.push(Value::Atom(*a)),
                    Term::Var(v) => match nu.get(*v) {
                        Some(Binding::Atom(a)) => self.values.push(Value::Atom(*a)),
                        Some(Binding::Path(p)) => self.values.extend_from_slice(p.values()),
                        None => {
                            self.holes.push((self.values.len(), *v));
                            self.values.push(Value::Packed(Path::empty()));
                        }
                    },
                    Term::Packed(_) => unreachable!("templatable excludes packing"),
                }
            }
            self.ends.push(Some(self.values.len()));
        }
    }

    /// Ground the head row into `row` and emit it: each prefilled argument
    /// is interned from its slots, the others are applied.
    fn emit(
        &self,
        rule: &Rule,
        head_relation: Option<&Relation>,
        nu: &Valuation,
        row: &mut Vec<Path>,
        out: &mut Rows,
        stats: &mut FireStats,
    ) -> Result<(), EvalError> {
        row.clear();
        let mut start = 0;
        for (arg, end) in rule.head.args.iter().zip(&self.ends) {
            row.push(match *end {
                Some(end) => {
                    let path = Path::from_slice(&self.values[start..end]);
                    start = end;
                    path
                }
                None => nu.apply(arg).ok_or_else(|| unplannable(rule))?,
            });
        }
        emit_row(head_relation, row, out, stats);
        Ok(())
    }
}

/// Execute one lowered rule procedure against the instance, appending derived
/// head rows to `out` (rows of the head's arity) and returning the pass's
/// counters.  With a [`DeltaWindow`] the probe at the window's code
/// position only draws tuples with ids inside it — the semi-naive
/// restriction, shardable across jobs.  The call only reads `instance`, so
/// jobs may run concurrently.
///
/// `governor`, when given, is polled once every
/// [`crate::eval::GOVERNOR_CHECK_INTERVAL`] dispatched instructions — an
/// amortised checkpoint, so the dispatch loop stays tight while a runaway
/// firing pass still observes deadlines and cancellation.
///
/// # Errors
/// Unsafe rules surface as [`EvalError::Unplannable`]; cancellation as
/// [`EvalError::Cancelled`].
pub fn fire_proc(
    proc: &RuleProc,
    instance: &Instance,
    window: Option<DeltaWindow>,
    out: &mut Rows,
    governor: Option<&crate::eval::ResourceGovernor>,
) -> Result<FireStats, EvalError> {
    let rule = &proc.rule;
    let head = &rule.head;
    let head_relation = instance
        .relation(head.relation)
        .filter(|r| r.arity() == head.args.len());
    let code = &proc.code;
    // Each predicate instruction's relation, resolved once per pass: probes
    // enumerate it, filters check membership in it.  A relation of another
    // arity holds no row the instruction could match.
    let relations: Vec<Option<&Relation>> = code
        .iter()
        .map(|inst| {
            let pred = match inst {
                Inst::Probe { pred, .. } => &pred.pred,
                Inst::Filter(FilterOp::FusedProbe(pred) | FilterOp::NegPred(pred)) => pred,
                _ => return None,
            };
            instance
                .relation(pred.relation)
                .filter(|r| r.arity() == pred.args.len())
        })
        .collect();
    let mut frames: Vec<Frame<'_>> = code.iter().map(|_| Frame::new()).collect();
    // The trail holds each choice point at most once, so `code.len()` bounds
    // its depth.
    let mut trail = vec![0usize; code.len()];
    let mut trail_len = 0usize;
    let mut stats = FireStats::default();
    let mut nu = Valuation::new();
    // The one scratch row of the pass: membership checks ground into it, and
    // emits build the head row in it.
    let mut row_scratch: Vec<Path> = Vec::new();
    let templatable = proc.templatable;
    let mut template = HeadTemplate::default();

    let mut pc = 0usize;
    'forward: loop {
        stats.instructions += 1;
        // Amortised governor checkpoint: one cheap cancellation-and-deadline
        // poll per GOVERNOR_CHECK_INTERVAL dispatches.
        if stats.instructions % crate::eval::GOVERNOR_CHECK_INTERVAL == 0 {
            if let Some(g) = governor {
                g.check_fast()?;
            }
        }
        match &code[pc] {
            Inst::Filter(op) => {
                let pass = match op {
                    FilterOp::FusedProbe(pred) => {
                        stats.index_probes += 1;
                        stats.fused_probes += 1;
                        match find_row(pred, &nu, &mut row_scratch) {
                            Some(stored) => {
                                stored && relations[pc].is_some_and(|r| r.contains(&row_scratch))
                            }
                            None => return Err(unplannable(rule)),
                        }
                    }
                    FilterOp::EqHolds(eq) => match equation_holds(eq, &nu) {
                        Some(holds) => holds,
                        None => return Err(unplannable(rule)),
                    },
                    FilterOp::NegPred(pred) => match find_row(pred, &nu, &mut row_scratch) {
                        Some(stored) => {
                            !(stored && relations[pc].is_some_and(|r| r.contains(&row_scratch)))
                        }
                        None => return Err(unplannable(rule)),
                    },
                    FilterOp::NegEq(eq) => match equation_holds(eq, &nu) {
                        Some(holds) => !holds,
                        None => return Err(unplannable(rule)),
                    },
                };
                if pass {
                    pc += 1;
                    continue 'forward;
                }
            }
            Inst::Probe {
                pred: planned,
                det,
                fused_emit,
            } => {
                frames[pc].enter_probe(
                    planned,
                    relations[pc],
                    window.filter(|w| w.pos == pc),
                    *det,
                    &nu,
                    &mut stats,
                );
                if *fused_emit {
                    // The fused terminal loop: candidates emit straight from
                    // the frame, with no per-candidate dispatch or trail work.
                    // Past the cut it binds no head variable, so its first
                    // emit is its only distinct one: leave the loop there and
                    // cut the trail as [`Inst::Emit`] does.
                    stats.fused_probes += 1;
                    let once = trail_len >= proc.emit_keep;
                    // Prefilling the head row costs one pass over the head
                    // terms per loop entry; with only a candidate or two it
                    // is cheaper to ground the head per emit.
                    if templatable && frames[pc].cands_len() >= 4 {
                        // Prefill the head row from the current valuation;
                        // only the probe-bound holes change per candidate.
                        template.prefill(&head.args, &nu);
                        match frames[pc].mode {
                            // Bucket-side bind feeding exactly the one hole:
                            // emit straight from the bucket entries, no
                            // valuation traffic at all.
                            Mode::BucketBind(v)
                                if template.holes.len() == 1 && template.holes[0].1 == v =>
                            {
                                debug_assert!(!once, "the probe binds the head hole");
                                let entries = match &frames[pc].cands {
                                    Cands::Entries(entries) => *entries,
                                    _ => &[],
                                };
                                let pos = template.holes[0].0;
                                for e in entries {
                                    if e.len == 2 {
                                        if let Some(b) = e.next_atom() {
                                            stats.instructions += 1;
                                            template.values[pos] = Value::Atom(b);
                                            template.emit(
                                                rule,
                                                head_relation,
                                                &nu,
                                                &mut row_scratch,
                                                out,
                                                &mut stats,
                                            )?;
                                        }
                                    }
                                }
                            }
                            _ => {
                                while frames[pc].next(Some(planned), &mut nu) {
                                    stats.instructions += 1;
                                    for &(pos, v) in &template.holes {
                                        template.values[pos] = match nu.get(v) {
                                            Some(Binding::Atom(a)) => Value::Atom(*a),
                                            _ => return Err(unplannable(rule)),
                                        };
                                    }
                                    template.emit(
                                        rule,
                                        head_relation,
                                        &nu,
                                        &mut row_scratch,
                                        out,
                                        &mut stats,
                                    )?;
                                    if once {
                                        trail_len = proc.emit_keep;
                                        break;
                                    }
                                }
                            }
                        }
                    } else {
                        while frames[pc].next(Some(planned), &mut nu) {
                            stats.instructions += 1;
                            emit_head(rule, head_relation, &nu, &mut row_scratch, out, &mut stats)?;
                            if once {
                                trail_len = proc.emit_keep;
                                break;
                            }
                        }
                    }
                } else if frames[pc].next(Some(planned), &mut nu) {
                    trail[trail_len] = pc;
                    trail_len += 1;
                    pc += 1;
                    continue 'forward;
                }
            }
            Inst::Solve(eq) => {
                // Past the cut and right before the emit, the first
                // extension is the only one whose emit can be new.
                let once =
                    trail_len >= proc.emit_keep && matches!(code.get(pc + 1), Some(Inst::Emit));
                if frames[pc].enter_solve(eq, &mut nu, once).is_none() {
                    return Err(unplannable(rule));
                }
                if frames[pc].next(None, &mut nu) {
                    trail[trail_len] = pc;
                    trail_len += 1;
                    pc += 1;
                    continue 'forward;
                }
            }
            Inst::Emit => {
                emit_head(rule, head_relation, &nu, &mut row_scratch, out, &mut stats)?;
                trail_len = trail_len.min(proc.emit_keep);
            }
        }
        // Backtrack: resume the most recent active choice point, popping
        // exhausted ones; an empty trail ends the walk.
        loop {
            if trail_len == 0 {
                return Ok(stats);
            }
            let cp = trail[trail_len - 1];
            stats.instructions += 1;
            let resumed = match &code[cp] {
                Inst::Probe { pred, .. } => frames[cp].next(Some(pred), &mut nu),
                Inst::Solve(_) => frames[cp].next(None, &mut nu),
                _ => unreachable!("only choice points are trailed"),
            };
            if resumed {
                pc = cp + 1;
                continue 'forward;
            }
            trail_len -= 1;
        }
    }
}
