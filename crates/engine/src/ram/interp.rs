//! The shared non-recursive RAM interpreter.
//!
//! One machine executes every lowered procedure: a program counter walks the
//! instruction sequence forward, each choice point ([`Inst::Probe`],
//! [`Inst::Solve`]) owns a frame holding its candidate cursor, and a trail of
//! active choice points drives backtracking.  A single [`Valuation`] is
//! threaded through the whole walk; a frame records the valuation depth on
//! entry and backtracks by truncating to it — no recursion frames, no
//! continuation closures, no interior-mutability error channel.
//!
//! Candidate enumeration picks the smallest index list through
//! `choose_candidates`, clamps it to the delta window with
//! `partition_point`, walks trie buckets bucket-side where the plan allows,
//! and otherwise matches tuples with the deterministic pass (probes the
//! lowering proved admit at most one extension) or the backtracking walk,
//! whose extensions a frame buffers and replays — equations included.  The
//! differential property tests pin its output to the test-only reference
//! evaluator, which has a matcher of its own.

use crate::error::EvalError;
use crate::eval::{
    choose_candidates, CandList, Chosen, DeltaWindow, EmitKey, EmitMemo, FireStats, DUMMY_VALUE,
    MAX_JOINT_COLS,
};
use crate::matching::{
    equation_holds, ground_tuple, match_predicate_det, match_predicate_sink, solve_equation,
};
use crate::plan::{PlannedLiteral, PlannedPredicate, PrefixSource};
use crate::ram::ir::{FilterOp, Inst, RuleProc};
use seqdl_core::{
    joint_probe_key, Fact, FxMap, Instance, Path, PathId, Relation, Segment, TrieEntry, Tuple,
    Value,
};
use seqdl_syntax::{Binding, Equation, Rule, Term, Valuation, Var};

/// The candidate source of one probe frame.
enum Cands<'r> {
    /// Trie-bucket entries (carry length/next-value metadata).
    Entries(&'r [TrieEntry]),
    /// Bare tuple ids from the joint/ε/packed indexes.
    Ids(&'r [u32]),
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
    /// Bucket-side, prefix covers the pattern: entry length `n` decides.
    BucketLen(u32),
    /// Bucket-side with one trailing unbound atomic variable: entry length
    /// `n + 1` plus the entry's next-value decide and bind.
    BucketBind(u32, Var),
    /// General predicate: buffer the tuple's extension deltas and replay.
    General,
    /// Equation frame: extensions buffered on entry, no candidates.
    Equation,
}

/// One choice-point frame.
struct Frame<'r> {
    /// Valuation depth on entry — the truncation target for backtracking.
    depth: usize,
    cands: Cands<'r>,
    cursor: usize,
    mode: Mode,
    tuples: &'r [Tuple],
    /// Flattened binding deltas of the buffered extensions; extension `k`
    /// spans `ext[bounds[k]..bounds[k + 1]]`.
    ext: Vec<(Var, Binding)>,
    bounds: Vec<usize>,
    next_ext: usize,
    /// Probe entries so far, counted towards [`CHOOSE_CACHE_WARMUP`].
    entered: u32,
    /// Memoised index choices for key-pure probes (see
    /// [`RuleProc::choose_cacheable`]): hash of the bound atomic-variable
    /// values → (verified key values, chosen list).  Valid for the whole
    /// fire call — the relation borrow is frozen — and never cleared between
    /// probe entries.
    choose_memo: FxMap<u64, ([Value; MAX_JOINT_COLS], Chosen<'r>)>,
}

/// A candidate pulled from a frame (by value, so matching can mutate the
/// frame's buffers).
enum Cand {
    Entry(TrieEntry),
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
            tuples: &[],
            ext: Vec::new(),
            bounds: Vec::new(),
            next_ext: 0,
            entered: 0,
            choose_memo: FxMap::default(),
        }
    }

    /// (Re-)initialise this frame for a probe of `planned` over `relation`,
    /// choosing the index, clamping to the window, and deciding bucket-side
    /// eligibility.
    #[allow(clippy::too_many_arguments)]
    fn enter_probe(
        &mut self,
        planned: &PlannedPredicate,
        relation: Option<&'r Relation>,
        window: Option<DeltaWindow>,
        step: usize,
        det: bool,
        cacheable: bool,
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
        let (first_id, last_id) = match window {
            Some(w) if w.pos == step => (w.lo.min(relation.len()), w.hi.min(relation.len())),
            _ => (0, relation.len()),
        };
        self.tuples = relation.as_slice();
        // Key-pure probes replay the same index choice for the same tuple of
        // bound atomic-variable values (the lowering proved nothing else
        // about the valuation can change it), so repeated entries skip
        // `choose_candidates` — the hot case is an inner join probed
        // thousands of times over a handful of distinct keys.  The stored
        // key values are compared on hit, so a hash collision falls back to
        // a fresh choice.  The two size gates keep cheap probes off the memo
        // entirely: over a small relation the index choice is a shallow trie
        // lookup that a memo hit can't beat, and a probe entered a handful
        // of times can't recoup the map's allocation and hashing.
        let mut memo_slot = None;
        self.entered = self.entered.saturating_add(1);
        if cacheable && relation.len() >= CHOOSE_CACHE_MIN_REL && self.entered > CHOOSE_CACHE_WARMUP
        {
            let mut keys = [DUMMY_VALUE; MAX_JOINT_COLS];
            let mut n = 0usize;
            let mut resolved = true;
            'key: for probe in &planned.probes {
                for source in &probe.sources {
                    if let PrefixSource::AtomVar(v) = source {
                        match nu.get(*v) {
                            Some(Binding::Atom(a)) => {
                                keys[n] = Value::Atom(*a);
                                n += 1;
                            }
                            _ => {
                                resolved = false;
                                break 'key;
                            }
                        }
                    }
                }
            }
            if resolved {
                let key = joint_probe_key(&keys[..n]);
                if let Some((seen, chosen)) = self.choose_memo.get(&key) {
                    if seen[..n] == keys[..n] {
                        stats.index_probes += 1;
                        let chosen = *chosen;
                        self.apply_chosen(chosen, planned, first_id, last_id, relation.len());
                        return;
                    }
                }
                memo_slot = Some((key, keys));
            }
        }
        match choose_candidates(relation, planned, nu) {
            Some(chosen) => {
                stats.index_probes += 1;
                if let Some((key, firsts)) = memo_slot {
                    self.choose_memo.insert(key, (firsts, chosen));
                }
                self.apply_chosen(chosen, planned, first_id, last_id, relation.len());
            }
            None => {
                stats.scans += 1;
                self.cursor = first_id;
                self.cands = Cands::Scan(last_id);
            }
        }
    }

    /// Clamp a chosen candidate list to the `[first_id, last_id)` window
    /// and install it, deciding bucket-side eligibility.  The full-range case (no window on this
    /// step) skips the `partition_point` searches outright.
    fn apply_chosen(
        &mut self,
        chosen: Chosen<'r>,
        planned: &PlannedPredicate,
        first_id: usize,
        last_id: usize,
        rel_len: usize,
    ) {
        let full = first_id == 0 && last_id == rel_len;
        match chosen.list {
            CandList::Entries(entries) => {
                let (lo, hi) = if full {
                    (0, entries.len())
                } else {
                    (
                        entries.partition_point(|e| (e.id as usize) < first_id),
                        entries.partition_point(|e| (e.id as usize) < last_id),
                    )
                };
                let bucket_side = planned
                    .extend
                    .filter(|_| chosen.trie_col == Some((0, planned.probes[0].sources.len())));
                let n = planned.probes[0].sources.len() as u32;
                match bucket_side {
                    Some(None) => self.mode = Mode::BucketLen(n),
                    Some(Some(v)) => self.mode = Mode::BucketBind(n, v),
                    None => {}
                }
                self.cands = Cands::Entries(&entries[lo..hi]);
            }
            CandList::Ids(ids) => {
                let (lo, hi) = if full {
                    (0, ids.len())
                } else {
                    (
                        ids.partition_point(|&id| (id as usize) < first_id),
                        ids.partition_point(|&id| (id as usize) < last_id),
                    )
                };
                self.cands = Cands::Ids(&ids[lo..hi]);
            }
        }
    }

    /// (Re-)initialise this frame for an equation, buffering every binding
    /// extension up front.  `None` means neither side was fully bound — an
    /// unsafe rule.
    fn enter_solve(&mut self, eq: &Equation, nu: &mut Valuation) -> Option<()> {
        self.depth = nu.len();
        self.cands = Cands::Empty;
        self.cursor = 0;
        self.mode = Mode::Equation;
        solve_equation(eq, nu, &mut self.refill())
    }

    /// Empty the extension buffer and return the sink that refills it: the
    /// bindings each extension adds past the entry depth become one buffered
    /// entry, replayed in order by [`Frame::next`].  The sink never stops the
    /// walk.
    fn refill(&mut self) -> impl FnMut(&mut Valuation) -> bool + '_ {
        self.ext.clear();
        self.bounds.clear();
        self.bounds.push(0);
        self.next_ext = 0;
        let (ext, bounds, depth) = (&mut self.ext, &mut self.bounds, self.depth);
        move |nu| {
            ext.extend_from_slice(nu.bindings_since(depth));
            bounds.push(ext.len());
            false
        }
    }

    /// Candidates remaining in this frame (before any matching filters them).
    fn cands_len(&self) -> usize {
        match self.cands {
            Cands::Entries(entries) => entries.len(),
            Cands::Ids(ids) => ids.len(),
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
            Cands::Ids(ids) => {
                let id = *ids.get(self.cursor)? as usize;
                self.cursor += 1;
                Some(Cand::Id(id))
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
                (Mode::BucketLen(n), Cand::Entry(e)) => {
                    if e.len == n {
                        return true;
                    }
                }
                (Mode::BucketBind(n, v), Cand::Entry(e)) => {
                    if e.len == n + 1 {
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
                    let tuple = &self.tuples[cand.id()];
                    if match_predicate_det(&planned.pred, tuple, nu) {
                        return true;
                    }
                }
                (Mode::General, cand) => {
                    // invariant: general-mode frames are only built by probe lowering, which
                    // always attaches the planned predicate.
                    let planned = planned.expect("general mode only on probe frames");
                    let tuples = self.tuples;
                    match_predicate_sink(&planned.pred, &tuples[cand.id()], nu, &mut self.refill());
                    // Loop: the buffered-extension branch replays them.
                }
                (Mode::Equation, _)
                | (Mode::BucketLen(_), Cand::Id(_))
                | (Mode::BucketBind(..), Cand::Id(_)) => {
                    unreachable!("bucket modes only arise from trie-entry candidate lists")
                }
            }
        }
    }
}

/// Rule bodies at most this long run entirely on stack-allocated working
/// storage; longer ones fall back to heap vectors.
const MAX_INLINE_STEPS: usize = 8;

/// Probe entries a frame must see within one fire call before the choose
/// memo activates: below this, the index choices saved can't recoup the
/// memo's allocation and per-entry key hashing.
const CHOOSE_CACHE_WARMUP: u32 = 16;

/// Minimum probed-relation size for the choose memo: against a smaller
/// relation, `choose_candidates` is a shallow trie lookup about as cheap as
/// the memo hit itself.
const CHOOSE_CACHE_MIN_REL: usize = 128;

fn unplannable(rule: &Rule) -> EvalError {
    EvalError::Unplannable {
        rule: rule.to_string(),
    }
}

fn plan_invariant(step: usize, expected: &str) -> EvalError {
    EvalError::PlanInvariant {
        detail: format!("RAM instruction references step {step}, expected {expected}"),
    }
}

/// Ground the head under `nu`, deduplicate through the memo, and append
/// genuinely new facts.
#[allow(clippy::too_many_arguments)]
fn emit_head(
    rule: &Rule,
    head_relation: Option<&Relation>,
    term_counts: &[usize],
    nu: &Valuation,
    memo: &mut EmitMemo,
    seg_scratch: &mut Vec<Segment>,
    tuple_scratch: &mut Tuple,
    out: &mut Vec<Fact>,
    stats: &mut FireStats,
) -> Result<(), EvalError> {
    let head = &rule.head;
    seg_scratch.clear();
    for arg in &head.args {
        if nu.segments_into(arg, seg_scratch).is_none() {
            return Err(unplannable(rule));
        }
    }
    emit_segs(
        rule,
        head_relation,
        term_counts,
        memo,
        seg_scratch,
        tuple_scratch,
        out,
        stats,
    );
    Ok(())
}

/// The back half of [`emit_head`]: count the firing, deduplicate the built
/// segment row through the memo, and append the fact if it is genuinely new.
/// Shared with the templated fused-emit loops, which fill `seg_scratch` holes
/// directly instead of re-walking the head expression.
#[allow(clippy::too_many_arguments)]
fn emit_segs(
    rule: &Rule,
    head_relation: Option<&Relation>,
    term_counts: &[usize],
    memo: &mut EmitMemo,
    seg_scratch: &[Segment],
    tuple_scratch: &mut Tuple,
    out: &mut Vec<Fact>,
    stats: &mut FireStats,
) {
    stats.firings += 1;
    match memo.seen.entry(EmitKey::from_slice(seg_scratch)) {
        std::collections::hash_map::Entry::Occupied(_) => {
            stats.emit_memo_hits += 1;
            return;
        }
        std::collections::hash_map::Entry::Vacant(slot) => {
            slot.insert(());
        }
    }
    tuple_scratch.clear();
    let mut offset = 0usize;
    for &n in term_counts {
        tuple_scratch.push(Path::from_segments(&seg_scratch[offset..offset + n]));
        offset += n;
    }
    if head_relation.is_some_and(|r| r.contains(tuple_scratch)) {
        return;
    }
    out.push(Fact::new(rule.head.relation, tuple_scratch.clone()));
}

fn predicate_of(proc: &RuleProc, step: usize) -> Result<&PlannedPredicate, EvalError> {
    match proc.plan.steps.get(step) {
        Some(PlannedLiteral::MatchPredicate(p)) => Ok(p),
        _ => Err(plan_invariant(step, "a positive predicate")),
    }
}

/// Execute one lowered rule procedure against the instance, appending derived
/// head facts to `out` and returning the pass's counters.  With a
/// [`DeltaWindow`] the predicate at the window's plan position only draws
/// tuples with ids inside it — the semi-naive restriction, shardable across
/// jobs.  The call only reads `instance`, so jobs may run concurrently.
/// `memo` is the pass's [`EmitMemo`]: a fresh one is always correct, since it
/// only short-circuits duplicate emissions.
///
/// `governor`, when given, is polled once every
/// [`crate::eval::GOVERNOR_CHECK_INTERVAL`] dispatched instructions — an
/// amortised checkpoint, so the dispatch loop stays tight while a runaway
/// firing pass still observes deadlines and cancellation.
///
/// # Errors
/// Unsafe rules surface as [`EvalError::Unplannable`]; malformed instruction
/// sequences as [`EvalError::PlanInvariant`]; cancellation as
/// [`EvalError::Cancelled`].
pub fn fire_proc(
    proc: &RuleProc,
    instance: &Instance,
    window: Option<DeltaWindow>,
    memo: &mut EmitMemo,
    out: &mut Vec<Fact>,
    governor: Option<&crate::eval::ResourceGovernor>,
) -> Result<FireStats, EvalError> {
    let rule = &proc.rule;
    let head = &rule.head;
    let head_relation = instance
        .relation(head.relation)
        .filter(|r| r.arity() == head.args.len());
    let term_counts = &proc.term_counts;
    let code = &proc.code;
    // All per-call working storage lives on the stack for typical rule sizes
    // (the heap fallback only triggers on very long bodies): a fire call on an
    // empty delta window must cost setup, not mallocs.
    let step_relation = |s: &PlannedLiteral| match s {
        PlannedLiteral::MatchPredicate(p) => instance
            .relation(p.pred.relation)
            .filter(|r| r.arity() == p.pred.args.len()),
        _ => None,
    };
    let steps = &proc.plan.steps;
    let mut rel_buf: [Option<&Relation>; MAX_INLINE_STEPS] = [None; MAX_INLINE_STEPS];
    let mut rel_vec: Vec<Option<&Relation>> = Vec::new();
    let step_relations: &[Option<&Relation>] = if steps.len() <= MAX_INLINE_STEPS {
        for (slot, s) in rel_buf.iter_mut().zip(steps) {
            *slot = step_relation(s);
        }
        &rel_buf[..steps.len()]
    } else {
        rel_vec.extend(steps.iter().map(step_relation));
        &rel_vec
    };
    let mut frame_buf: [Frame<'_>; MAX_INLINE_STEPS];
    let mut frame_vec: Vec<Frame<'_>>;
    let frames: &mut [Frame<'_>] = if code.len() <= MAX_INLINE_STEPS {
        frame_buf = std::array::from_fn(|_| Frame::new());
        &mut frame_buf[..code.len()]
    } else {
        frame_vec = code.iter().map(|_| Frame::new()).collect();
        &mut frame_vec
    };
    // The trail holds each choice point at most once, so `code.len()` bounds
    // its depth.
    let mut trail_buf = [0usize; MAX_INLINE_STEPS];
    let mut trail_vec: Vec<usize> = Vec::new();
    let trail: &mut [usize] = if code.len() <= MAX_INLINE_STEPS {
        &mut trail_buf
    } else {
        trail_vec.resize(code.len(), 0);
        &mut trail_vec
    };
    let mut trail_len = 0usize;
    let mut stats = FireStats::default();
    let mut nu = Valuation::new();
    let mut seg_scratch: Vec<Segment> = Vec::new();
    let mut tuple_scratch: Tuple = Vec::new();
    let templatable = proc.templatable;
    let mut holes: Vec<(usize, Var)> = Vec::new();

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
                    FilterOp::FusedProbe { step } => {
                        let planned = predicate_of(proc, *step)?;
                        stats.index_probes += 1;
                        stats.fused_probes += 1;
                        let Some(tuple) = ground_tuple(&planned.pred, &nu) else {
                            return Err(unplannable(rule));
                        };
                        step_relations[*step].is_some_and(|r| r.contains(&tuple))
                    }
                    FilterOp::EqHolds { step } => match &proc.plan.steps[*step] {
                        PlannedLiteral::SolveEquation(eq) => match equation_holds(eq, &nu) {
                            Some(holds) => holds,
                            None => return Err(unplannable(rule)),
                        },
                        _ => return Err(plan_invariant(*step, "a positive equation")),
                    },
                    FilterOp::NegPred { step } => match &proc.plan.steps[*step] {
                        PlannedLiteral::CheckNegatedPredicate(pred) => {
                            let Some(tuple) = ground_tuple(pred, &nu) else {
                                return Err(unplannable(rule));
                            };
                            !instance.contains_fact(&Fact::new(pred.relation, tuple))
                        }
                        _ => return Err(plan_invariant(*step, "a negated predicate")),
                    },
                    FilterOp::NegEq { step } => match &proc.plan.steps[*step] {
                        PlannedLiteral::CheckNegatedEquation(eq) => match equation_holds(eq, &nu) {
                            Some(holds) => !holds,
                            None => return Err(unplannable(rule)),
                        },
                        _ => return Err(plan_invariant(*step, "a negated equation")),
                    },
                };
                if pass {
                    pc += 1;
                    continue 'forward;
                }
            }
            Inst::Probe { step, fused_emit } => {
                let planned = predicate_of(proc, *step)?;
                frames[pc].enter_probe(
                    planned,
                    step_relations[*step],
                    window,
                    *step,
                    proc.det[*step],
                    proc.choose_cacheable[*step],
                    &nu,
                    &mut stats,
                );
                if *fused_emit {
                    // The fused terminal loop: candidates emit straight from
                    // the frame, with no per-candidate dispatch or trail work.
                    stats.fused_probes += 1;
                    // Prefilling the head row costs one pass over the head
                    // terms per loop entry; with only a candidate or two it
                    // is cheaper to ground the head per emit.
                    if templatable && frames[pc].cands_len() >= 4 {
                        // Prefill the head row from the current valuation;
                        // only the probe-bound holes change per candidate.
                        seg_scratch.clear();
                        holes.clear();
                        for arg in &head.args {
                            for term in arg.terms() {
                                match term {
                                    Term::Const(a) => {
                                        seg_scratch.push(Segment::Value(Value::Atom(*a)));
                                    }
                                    Term::Var(v) => match nu.get(*v) {
                                        Some(Binding::Atom(a)) => {
                                            seg_scratch.push(Segment::Value(Value::Atom(*a)));
                                        }
                                        Some(Binding::Path(p)) => seg_scratch.push(p.as_segment()),
                                        None => {
                                            holes.push((seg_scratch.len(), *v));
                                            seg_scratch.push(Segment::Path(PathId::EMPTY));
                                        }
                                    },
                                    Term::Packed(_) => unreachable!("templatable excludes packing"),
                                }
                            }
                        }
                        let entries = match &frames[pc].cands {
                            Cands::Entries(entries) => *entries,
                            _ => &[],
                        };
                        match frames[pc].mode {
                            // Bucket-side bind feeding exactly the one hole:
                            // emit straight from the trie entries, no
                            // valuation traffic at all.
                            Mode::BucketBind(n, v) if holes.len() == 1 && holes[0].1 == v => {
                                let pos = holes[0].0;
                                for e in entries {
                                    if e.len == n + 1 {
                                        if let Some(b) = e.next_atom() {
                                            stats.instructions += 1;
                                            seg_scratch[pos] = Segment::Value(Value::Atom(b));
                                            emit_segs(
                                                rule,
                                                head_relation,
                                                term_counts,
                                                memo,
                                                &seg_scratch,
                                                &mut tuple_scratch,
                                                out,
                                                &mut stats,
                                            );
                                        }
                                    }
                                }
                            }
                            // Bucket-side length check with a fully ground
                            // head: every match fires the same row, so count
                            // them and run the memo once.
                            Mode::BucketLen(n) if holes.is_empty() => {
                                let k = entries.iter().filter(|e| e.len == n).count();
                                if k > 0 {
                                    stats.instructions += k;
                                    stats.firings += k - 1;
                                    // The k-1 collapsed duplicates never probe
                                    // the memo; count them as memo hits so the
                                    // fused path's counters match the general
                                    // loop's firings − distinct-emissions split.
                                    stats.emit_memo_hits += k - 1;
                                    emit_segs(
                                        rule,
                                        head_relation,
                                        term_counts,
                                        memo,
                                        &seg_scratch,
                                        &mut tuple_scratch,
                                        out,
                                        &mut stats,
                                    );
                                }
                            }
                            _ => {
                                while frames[pc].next(Some(planned), &mut nu) {
                                    stats.instructions += 1;
                                    for &(pos, v) in &holes {
                                        seg_scratch[pos] = match nu.get(v) {
                                            Some(Binding::Atom(a)) => {
                                                Segment::Value(Value::Atom(*a))
                                            }
                                            Some(Binding::Path(p)) => p.as_segment(),
                                            None => return Err(unplannable(rule)),
                                        };
                                    }
                                    emit_segs(
                                        rule,
                                        head_relation,
                                        term_counts,
                                        memo,
                                        &seg_scratch,
                                        &mut tuple_scratch,
                                        out,
                                        &mut stats,
                                    );
                                }
                            }
                        }
                    } else {
                        while frames[pc].next(Some(planned), &mut nu) {
                            stats.instructions += 1;
                            emit_head(
                                rule,
                                head_relation,
                                term_counts,
                                &nu,
                                memo,
                                &mut seg_scratch,
                                &mut tuple_scratch,
                                out,
                                &mut stats,
                            )?;
                        }
                    }
                } else if frames[pc].next(Some(planned), &mut nu) {
                    trail[trail_len] = pc;
                    trail_len += 1;
                    pc += 1;
                    continue 'forward;
                }
            }
            Inst::Solve { step } => {
                let eq = match &proc.plan.steps[*step] {
                    PlannedLiteral::SolveEquation(eq) => eq,
                    _ => return Err(plan_invariant(*step, "a positive equation")),
                };
                if frames[pc].enter_solve(eq, &mut nu).is_none() {
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
                emit_head(
                    rule,
                    head_relation,
                    term_counts,
                    &nu,
                    memo,
                    &mut seg_scratch,
                    &mut tuple_scratch,
                    out,
                    &mut stats,
                )?;
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
                Inst::Probe { step, .. } => {
                    let planned = predicate_of(proc, *step)?;
                    frames[cp].next(Some(planned), &mut nu)
                }
                Inst::Solve { .. } => frames[cp].next(None, &mut nu),
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
