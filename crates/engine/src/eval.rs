//! Stratum-by-stratum fixpoint evaluation (Section 2.3): the [`Engine`] entry
//! points, resource limits and the run's governor, evaluation statistics,
//! and the index selection the RAM interpreter probes through.  The fixpoint
//! loop itself is [`crate::drive`].

use crate::drive::{prepare_run, Driver, ShardPolicy};
use crate::error::{EvalError, LimitKind};
use crate::plan::{BodyPlan, ColumnProbe, PlannedLiteral, PlannedPredicate, PrefixSource};
use seqdl_core::{
    CancelToken, Fact, Instance, Path, RelName, Relation, TrieEntry, Value, TRIE_DEPTH,
};
use seqdl_syntax::{Binding, Program, ProgramInfo, Valuation};
use std::sync::{PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Resource limits for evaluation.
///
/// The paper only considers programs that terminate on every instance; these limits
/// make non-termination (Example 2.3) a reportable error instead of a hang.
#[derive(Clone, Copy, Debug)]
pub struct EvalLimits {
    /// Maximum fixpoint rounds per scheduled fixpoint: a dependency level's
    /// merge round plus its loop rounds.
    pub max_iterations: usize,
    /// Maximum total number of derived facts.
    pub max_facts: usize,
    /// Maximum length of any derived path.
    pub max_path_len: usize,
    /// Wall-clock deadline for the whole run; `None` disables it.  Exceeding
    /// the deadline surfaces as [`EvalError::Cancelled`] with partial stats,
    /// observed at the next governor checkpoint (stratum boundary, fixpoint
    /// round, or amortised RAM-instruction check).
    pub deadline: Option<Duration>,
    /// Budget on global path-store *growth* (bytes beyond the store's size at
    /// run start); `None` disables it.  Exceeding the budget surfaces as
    /// [`EvalError::LimitExceeded`] with [`LimitKind::StoreBytes`].
    pub max_store_bytes: Option<usize>,
}

impl Default for EvalLimits {
    fn default() -> Self {
        EvalLimits {
            max_iterations: 10_000,
            max_facts: 1_000_000,
            max_path_len: 100_000,
            deadline: None,
            max_store_bytes: None,
        }
    }
}

/// How often the RAM interpreter's instruction loop polls the governor: one
/// cheap flag-plus-deadline check every this many dispatched instructions, so
/// the hot loop stays tight while cancellation latency stays bounded.
pub const GOVERNOR_CHECK_INTERVAL: usize = 4096;

/// The run-scoped resource governor: one per evaluation, shared (by
/// reference) with every fixpoint loop, worker job, and interpreter call of
/// that run.  It folds three concerns into two checkpoint calls:
///
/// * **cancellation** — a caller-held [`CancelToken`] (SIGINT, a poisoning
///   worker panic, an external supervisor);
/// * **deadline** — [`EvalLimits::deadline`] measured from governor creation;
/// * **memory budget** — [`EvalLimits::max_store_bytes`] measured as global
///   path-store growth over the baseline captured at governor creation.
///
/// [`ResourceGovernor::check_fast`] (cancellation + deadline) is cheap enough
/// for the interpreter's amortised instruction checkpoint; the full
/// [`ResourceGovernor::check`] additionally reads the global store statistics
/// and runs at fixpoint-round and stratum boundaries.
#[derive(Debug)]
pub struct ResourceGovernor {
    deadline: Option<(Instant, Duration)>,
    cancel: Option<CancelToken>,
    max_store_bytes: Option<usize>,
    store_baseline: usize,
}

impl ResourceGovernor {
    /// A governor for a run starting now, under `limits`, observing `cancel`
    /// if given.
    pub fn for_run(limits: &EvalLimits, cancel: Option<CancelToken>) -> ResourceGovernor {
        ResourceGovernor {
            deadline: limits.deadline.map(|d| (Instant::now() + d, d)),
            cancel,
            max_store_bytes: limits.max_store_bytes,
            store_baseline: if limits.max_store_bytes.is_some() {
                seqdl_core::store_stats().total_bytes()
            } else {
                0
            },
        }
    }

    /// The cancel token this governor observes, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Cancellation-and-deadline checkpoint — cheap enough for the
    /// interpreter's amortised instruction check.  The
    /// [`EvalError::Cancelled`] it returns carries empty statistics; the
    /// run's entry point attaches the accumulated ones on the way out.
    ///
    /// # Errors
    /// [`EvalError::Cancelled`] when the token is cancelled or the deadline
    /// has passed.
    pub fn check_fast(&self) -> Result<(), EvalError> {
        if let Some(token) = &self.cancel {
            token.checkpoint();
            if token.is_cancelled() {
                return Err(EvalError::Cancelled {
                    reason: token.reason(),
                    partial_stats: Box::default(),
                });
            }
        }
        if let Some((at, limit)) = self.deadline {
            if Instant::now() >= at {
                return Err(EvalError::Cancelled {
                    reason: format!("deadline of {limit:?} exceeded"),
                    partial_stats: Box::default(),
                });
            }
        }
        Ok(())
    }

    /// Full checkpoint: [`ResourceGovernor::check_fast`] plus the store-growth
    /// budget.  Runs at every fixpoint round and stratum boundary.
    ///
    /// # Errors
    /// [`EvalError::Cancelled`] on cancellation or deadline,
    /// [`EvalError::LimitExceeded`] on a blown store budget.
    pub fn check(&self) -> Result<(), EvalError> {
        self.check_fast()?;
        if let Some(budget) = self.max_store_bytes {
            let grown = seqdl_core::store_stats()
                .total_bytes()
                .saturating_sub(self.store_baseline);
            if grown > budget {
                return Err(EvalError::LimitExceeded {
                    what: LimitKind::StoreBytes,
                    limit: budget,
                });
            }
        }
        Ok(())
    }
}

/// Which fixpoint algorithm to use within a stratum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FixpointStrategy {
    /// Re-evaluate every rule against the full instance each iteration.
    Naive,
    /// Semi-naive evaluation: after the first iteration, only rule instantiations
    /// that use at least one fact derived in the previous iteration are considered.
    SemiNaive,
}

/// Counters describing an evaluation run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Total fixpoint iterations across all strata.
    pub iterations: usize,
    /// Number of facts derived (beyond the input).
    pub derived_facts: usize,
    /// Number of successful rule firings (head instantiations, counting duplicates).
    pub rule_firings: usize,
    /// Positive-predicate steps answered through an index (prefix trie, ε
    /// bucket, packed bucket, or joint index) instead of a relation scan.
    pub index_probes: usize,
    /// Positive-predicate steps that fell back to scanning the relation (or
    /// its delta window).
    pub scans: usize,
    /// RAM instruction dispatches executed by [`crate::ram::fire_proc`]
    /// (including choice-point resumes and fused-loop candidate advances).
    pub instructions_executed: usize,
    /// Executions of instructions the RAM lowering fused: fully-bound
    /// predicate probes compiled to existence-check filters, and terminal
    /// probe+emit loops.
    pub fused_probes: usize,
    /// Firings whose derived fact was recognised as a duplicate by the
    /// per-job emit memo (one segment-identity probe instead of grounding
    /// and re-deriving the head tuple).
    pub emit_memo_hits: usize,
    /// High-water mark of shard jobs any single delta window fanned out into
    /// during the *current* stratum; the per-stratum breakdown consumes it
    /// into [`StratumStats::shards`] at each stratum boundary.
    pub delta_shards: usize,
    /// Per-stratum breakdown, one entry per declared stratum, in evaluation order.
    pub strata: Vec<StratumStats>,
    /// Per-rule profile, one entry per (stratum, rule) that fired at least one
    /// pass, in first-fire order, merged deterministically from the driver's
    /// jobs at any thread count.
    pub rules: Vec<RuleStats>,
}

impl EvalStats {
    /// Fold one rule-firing pass's counters into the run totals.
    pub fn apply_fire(&mut self, fire: FireStats) {
        self.rule_firings += fire.firings;
        self.index_probes += fire.index_probes;
        self.scans += fire.scans;
        self.instructions_executed += fire.instructions;
        self.fused_probes += fire.fused_probes;
        self.emit_memo_hits += fire.emit_memo_hits;
    }

    /// Fold one rule-firing pass into both the run totals and the per-rule
    /// profile entry keyed by `(stratum, rule_ix)`.  `rule` renders the rule
    /// lazily — it is only invoked the first time the entry is created.
    /// `derived` counts the facts the pass buffered (new at emit time; the
    /// merge-time dedup across rules is not attributed back).
    pub fn apply_rule_fire(
        &mut self,
        stratum: usize,
        rule_ix: usize,
        rule: impl FnOnce() -> String,
        fire: FireStats,
        wall: std::time::Duration,
        derived: usize,
    ) {
        self.apply_fire(fire);
        let pos = self
            .rules
            .iter()
            .position(|r| r.stratum == stratum && r.rule_ix == rule_ix);
        let entry = match pos {
            Some(p) => &mut self.rules[p],
            None => {
                self.rules.push(RuleStats {
                    stratum,
                    rule_ix,
                    rule: rule(),
                    ..RuleStats::default()
                });
                self.rules.last_mut().expect("entry just pushed")
            }
        };
        entry.firings += fire.firings;
        entry.derived_facts += derived;
        entry.wall += wall;
        entry.index_probes += fire.index_probes;
        entry.scans += fire.scans;
        entry.instructions += fire.instructions;
        entry.fused_probes += fire.fused_probes;
        entry.emit_memo_hits += fire.emit_memo_hits;
    }

    /// Record that one delta window fanned out into `shards` shard jobs; the
    /// per-stratum maximum lands in [`StratumStats::shards`].
    pub fn note_shards(&mut self, shards: usize) {
        self.delta_shards = self.delta_shards.max(shards);
    }
}

/// Counters produced by one [`fire_proc`](crate::ram::fire_proc) pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FireStats {
    /// Head instantiations (rule firings, counting duplicates).
    pub firings: usize,
    /// Predicate steps answered through an index probe.
    pub index_probes: usize,
    /// Predicate steps that scanned the relation.
    pub scans: usize,
    /// RAM instruction dispatches.
    pub instructions: usize,
    /// Executions of fused instructions.
    pub fused_probes: usize,
    /// Firings deduplicated by the emit memo (segment-identity probe hits,
    /// plus duplicates a fused bucket-count loop collapsed without probing).
    pub emit_memo_hits: usize,
}

/// Per-rule profile entry of an evaluation run: one rule's share of the
/// counters in [`EvalStats`], plus where it sits in the stratification.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RuleStats {
    /// Index of the stratum the rule belongs to (in evaluation order).
    pub stratum: usize,
    /// Index of the rule within its stratum's rule list.
    pub rule_ix: usize,
    /// Rendering of the rule.
    pub rule: String,
    /// Head instantiations (counting duplicates).
    pub firings: usize,
    /// Facts the rule's firing passes buffered (new at emit time; cross-rule
    /// duplicates dropped later at the merge point are still counted here).
    pub derived_facts: usize,
    /// Wall-clock time spent in the rule's firing passes.  Under the parallel
    /// executor passes overlap, so rule walls can sum past the stratum wall.
    pub wall: std::time::Duration,
    /// Predicate steps answered through an index probe.
    pub index_probes: usize,
    /// Predicate steps that scanned the relation.
    pub scans: usize,
    /// RAM instruction dispatches.
    pub instructions: usize,
    /// Executions of fused instructions.
    pub fused_probes: usize,
    /// Firings deduplicated by the emit memo.
    pub emit_memo_hits: usize,
}

/// Counters for one declared stratum of an evaluation run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StratumStats {
    /// Number of rules in the stratum.
    pub rules: usize,
    /// Fixpoint iterations (evaluation rounds) spent in the stratum: one
    /// merge round per dependency level with a merge section, plus the rounds
    /// of the level's loops (a non-recursive stratum takes exactly one round
    /// per level).
    pub iterations: usize,
    /// Facts derived by the stratum.
    pub derived_facts: usize,
    /// Rule firings (head instantiations, counting duplicates) in the stratum.
    pub rule_firings: usize,
    /// Highest number of shard jobs any single delta window of this stratum
    /// fanned out into (1 when delta variants fired unsharded, 0 when the
    /// stratum never fired a windowed variant) — the audit trail for the
    /// executor's shard-policy clamp at `--threads N`.
    pub shards: usize,
    /// Wall-clock time spent evaluating the stratum.
    pub wall: std::time::Duration,
}

/// A *delta window* restricting one positive-predicate step of a plan: the step at
/// plan position `pos` only draws tuples with ids in `lo..hi`.
///
/// With `lo` the relation's length at the previous iteration boundary and `hi` its
/// current length, this is classic semi-naive evaluation ("at least one fact from
/// the last iteration").  The driver further splits `lo..hi` into disjoint
/// shards, one job per shard, which a worker pool can fire concurrently.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeltaWindow {
    /// The plan position (index into [`BodyPlan::steps`]) being restricted.
    pub pos: usize,
    /// First tuple id drawn at the restricted position (inclusive).
    pub lo: usize,
    /// Last tuple id drawn at the restricted position (exclusive).
    pub hi: usize,
}

/// The evaluation engine.
#[derive(Clone, Debug)]
pub struct Engine {
    limits: EvalLimits,
    strategy: FixpointStrategy,
    cancel: Option<CancelToken>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An engine with default limits and semi-naive evaluation.
    pub fn new() -> Engine {
        Engine {
            limits: EvalLimits::default(),
            strategy: FixpointStrategy::SemiNaive,
            cancel: None,
        }
    }

    /// Override the resource limits.
    pub fn with_limits(mut self, limits: EvalLimits) -> Engine {
        self.limits = limits;
        self
    }

    /// Override the fixpoint strategy.
    pub fn with_strategy(mut self, strategy: FixpointStrategy) -> Engine {
        self.strategy = strategy;
        self
    }

    /// Attach a [`CancelToken`] the engine polls at every governor checkpoint.
    /// Cancelling the token (from any thread, or a signal handler via
    /// [`CancelToken::linked_to`]) makes the run return
    /// [`EvalError::Cancelled`] with the statistics accumulated so far.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Engine {
        self.cancel = Some(token);
        self
    }

    /// The attached cancel token, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// The configured resource limits.
    pub fn limits(&self) -> EvalLimits {
        self.limits
    }

    /// The configured fixpoint strategy.
    pub fn strategy(&self) -> FixpointStrategy {
        self.strategy
    }

    /// Evaluate `program` on `input`, returning the final instance (input relations
    /// plus all IDB relations).
    ///
    /// # Errors
    /// Ill-formed programs and exceeded resource limits.
    pub fn run(&self, program: &Program, input: &Instance) -> Result<Instance, EvalError> {
        self.run_with_stats(program, input).map(|(i, _)| i)
    }

    /// Like [`Engine::run`], additionally returning evaluation statistics.
    ///
    /// # Errors
    /// Ill-formed programs and exceeded resource limits.
    pub fn run_with_stats(
        &self,
        program: &Program,
        input: &Instance,
    ) -> Result<(Instance, EvalStats), EvalError> {
        self.run_with_stats_seeded(program, input, &[])
    }

    /// Evaluate `program` on `input` with extra `seeds` injected before the
    /// first stratum — the entry point of demand-driven (magic-set) query
    /// evaluation, where the goal's bound arguments become facts of the magic
    /// predicates.  Seeds may populate relations that are IDB in `program`
    /// (which plain inputs must not), since they are demand, not data.
    ///
    /// # Errors
    /// Ill-formed programs, seed arity mismatches, and exceeded resource
    /// limits.
    pub fn run_seeded(
        &self,
        program: &Program,
        input: &Instance,
        seeds: &[Fact],
    ) -> Result<Instance, EvalError> {
        self.run_with_stats_seeded(program, input, seeds)
            .map(|(i, _)| i)
    }

    /// Like [`Engine::run_seeded`], additionally returning evaluation
    /// statistics.  The run is the [`Driver`] with its inline round: the
    /// same rounds, jobs, and counters as a one-thread executor.
    ///
    /// # Errors
    /// Ill-formed programs, seed arity mismatches, and exceeded resource
    /// limits.
    pub fn run_with_stats_seeded(
        &self,
        program: &Program,
        input: &Instance,
        seeds: &[Fact],
    ) -> Result<(Instance, EvalStats), EvalError> {
        let governor = ResourceGovernor::for_run(&self.limits, self.cancel.clone());
        let mut stats = EvalStats::default();
        let outcome = prepare_run(program, input, seeds).and_then(|(instance, lowered)| {
            let instance = RwLock::new(instance);
            let driver = Driver {
                engine: self,
                governor: &governor,
                shard: ShardPolicy::default(),
                program: &lowered,
                instance: &instance,
            };
            driver.run(&mut stats, driver.inline_round(), |_, e, _| Err(e))?;
            Ok(instance
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner))
        });
        match outcome {
            Ok(instance) => Ok((instance, stats)),
            Err(e) => Err(e.with_partial_stats(stats)),
        }
    }

    /// Drain `new_facts` into `instance`, enforcing the fact-count and path-length
    /// limits.  Each fact is *moved* into the
    /// store (no tuple clone), duplicates cost one dedup-map lookup, and the
    /// path-length limit is checked once per genuinely new head tuple — anything
    /// already in the instance passed that check when it was first inserted, so
    /// duplicates are not re-walked.
    ///
    /// The driver's merge calls it between rounds, under the write lock.
    ///
    /// # Errors
    /// Arity mismatches and exceeded resource limits.
    pub fn absorb(
        &self,
        instance: &mut Instance,
        new_facts: &mut Vec<Fact>,
        stats: &mut EvalStats,
    ) -> Result<(), EvalError> {
        for fact in new_facts.drain(..) {
            let Some(inserted_tuple) = instance.insert_fact_new(fact).map_err(EvalError::Data)?
            else {
                continue;
            };
            if inserted_tuple
                .iter()
                .any(|p| p.len() > self.limits.max_path_len)
            {
                return Err(EvalError::LimitExceeded {
                    what: LimitKind::PathLength,
                    limit: self.limits.max_path_len,
                });
            }
            stats.derived_facts += 1;
            if stats.derived_facts > self.limits.max_facts {
                return Err(EvalError::LimitExceeded {
                    what: LimitKind::Facts,
                    limit: self.limits.max_facts,
                });
            }
        }
        Ok(())
    }
}

/// Insert demand seed facts into a prepared instance.  Seeds bypass the
/// IDB-in-input check of [`prepare_idb_instance`] on purpose: magic predicates
/// are heads of magic rules (IDB), yet their initial demand comes from the
/// goal, not from derivation.
///
/// # Errors
/// [`EvalError::Data`] on arity mismatches between seeds and existing
/// relations.
pub fn seed_instance(instance: &mut Instance, seeds: &[Fact]) -> Result<(), EvalError> {
    for seed in seeds {
        instance
            .insert_fact(seed.clone())
            .map_err(EvalError::Data)?;
    }
    Ok(())
}

/// Clone `input` and register every IDB relation of the program so empty results
/// are observable.  The paper requires IDB relation names to lie outside the input
/// schema Γ; inputs that already populate an IDB relation (or declare it with
/// another arity) are rejected here, which would otherwise surface as a confusing
/// arity error later.
///
/// # Errors
/// [`EvalError::IdbRelationInInput`] on a schema collision.
pub fn prepare_idb_instance(info: &ProgramInfo, input: &Instance) -> Result<Instance, EvalError> {
    let mut instance = input.clone();
    for (rel, arity) in &info.arities {
        if info.idb.contains(rel) {
            if let Some(existing) = input.relation(*rel) {
                if !existing.is_empty() || existing.arity() != *arity {
                    return Err(EvalError::IdbRelationInInput {
                        relation: rel.name().to_string(),
                    });
                }
            }
            instance.declare_relation(*rel, *arity);
        }
    }
    Ok(instance)
}

/// Register every planner-selected index of `plans` on the instance's
/// relations: multi-column join indexes
/// ([`seqdl_core::Relation::ensure_joint_index`]) and deepened column tries
/// ([`seqdl_core::Relation::ensure_column_depth`]).  Call once before a
/// fixpoint: inserts maintain registered indexes, so they stay current for
/// the whole evaluation.
pub fn register_plan_indexes<'a>(
    plans: impl IntoIterator<Item = &'a BodyPlan>,
    instance: &mut Instance,
) {
    for plan in plans {
        for (relation, cols) in plan.joint_index_requests() {
            instance.ensure_joint_index(relation, cols);
        }
        for (relation, column, depth) in plan.column_depth_requests() {
            instance.ensure_column_depth(relation, column, depth);
        }
    }
}

/// Deactivate every column trie of the `heads` relations that no plan in
/// `plans` can ever probe ([`ColumnProbe::can_probe`] is the same static
/// predicate `choose_candidates` uses at runtime, so a deactivated column
/// is one the whole evaluation never consults).  Head relations are the
/// growing ones — every insert during the fixpoint pays for exactly the
/// indexes some probe can use, instead of indexing every column by default.
///
/// Restriction is safe even when over-eager: `choose_candidates` skips
/// deactivated columns entirely and falls back to scanning, and
/// re-activation (by a later evaluation whose plans do probe the column)
/// rebuilds the trie from the stored tuples.
pub fn restrict_head_indexes<'a>(
    heads: impl IntoIterator<Item = RelName>,
    plans: impl IntoIterator<Item = &'a BodyPlan>,
    instance: &mut Instance,
) {
    let mut needed: seqdl_core::FxMap<RelName, u64> = seqdl_core::FxMap::default();
    for plan in plans {
        for step in &plan.steps {
            if let PlannedLiteral::MatchPredicate(p) = step {
                let mask = needed.entry(p.pred.relation).or_insert(0);
                for (column, probe) in p.probes.iter().enumerate() {
                    if probe.can_probe() && column < u64::BITS as usize {
                        *mask |= 1u64 << column;
                    }
                }
            }
        }
    }
    for head in heads {
        instance.restrict_column_indexes(head, needed.get(&head).copied().unwrap_or(0));
    }
}

/// An emit-deduplication memo, keyed by the *segment identity* of the
/// grounded head: one interned id per head term (atom binding, path binding,
/// or constant).  A firing whose segment tuple was seen before by this memo
/// is a duplicate derivation — it is counted, but recognised in one hash
/// probe without grounding any path and without touching the relation's
/// dedup index.  The driver gives every job a fresh one.
#[derive(Debug, Default)]
pub struct EmitMemo {
    pub(crate) seen: seqdl_core::FxMap<EmitKey, ()>,
}

impl EmitMemo {
    /// An empty memo.
    pub fn new() -> EmitMemo {
        EmitMemo::default()
    }
}

/// Heads of up to two terms (the overwhelmingly common case) pack the memo
/// key into one `u128`; up to four terms use an inline array; longer heads
/// spill to the heap.  Small keys keep the memo's working set dense — the
/// per-duplicate probe is the hot memory access of a fixpoint.
const EMIT_INLINE: usize = 4;

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) enum EmitKey {
    Packed(u128),
    Inline(u8, [seqdl_core::Segment; EMIT_INLINE]),
    Heap(Box<[seqdl_core::Segment]>),
}

/// A segment as a 40-bit code (8-bit tag + 32-bit id); two fit a `u128` with
/// room to spare, and the tag for "no segment" is 0, so length is implicit.
fn segment_code(seg: seqdl_core::Segment) -> u64 {
    match seg {
        seqdl_core::Segment::Value(Value::Atom(a)) => (1u64 << 32) | u64::from(a.symbol().index()),
        seqdl_core::Segment::Value(Value::Packed(p)) => (2u64 << 32) | u64::from(p.id().index()),
        seqdl_core::Segment::Path(p) => (3u64 << 32) | u64::from(p.index()),
    }
}

impl EmitKey {
    pub(crate) fn from_slice(segs: &[seqdl_core::Segment]) -> EmitKey {
        match segs {
            [] => EmitKey::Packed(0),
            [a] => EmitKey::Packed(u128::from(segment_code(*a))),
            [a, b] => {
                EmitKey::Packed(u128::from(segment_code(*a)) | (u128::from(segment_code(*b)) << 40))
            }
            _ if segs.len() <= EMIT_INLINE => {
                let mut inline =
                    [seqdl_core::Segment::Path(seqdl_core::PathId::EMPTY); EMIT_INLINE];
                inline[..segs.len()].copy_from_slice(segs);
                EmitKey::Inline(segs.len() as u8, inline)
            }
            _ => EmitKey::Heap(segs.into()),
        }
    }
}

/// A placeholder for value buffers (never read before being overwritten).
pub(crate) const DUMMY_VALUE: Value = Value::Packed(Path::empty());

/// Joint probes over more columns than this fall back to column probing.
pub(crate) const MAX_JOINT_COLS: usize = 8;

/// An indexed candidate list: trie buckets carry [`TrieEntry`] metadata for
/// bucket-side matching, the other indexes (joint, ε, any-packed) carry bare
/// tuple ids.
#[derive(Clone, Copy)]
pub(crate) enum CandList<'r> {
    Entries(&'r [TrieEntry]),
    Ids(&'r [u32]),
}

impl CandList<'_> {
    fn len(&self) -> usize {
        match self {
            CandList::Entries(e) => e.len(),
            CandList::Ids(i) => i.len(),
        }
    }
}

/// The winning candidate list plus its provenance: `trie_col` is set when the
/// list came from a column trie that consumed the *entire* resolved prefix
/// (column, prefix length) — the precondition for bucket-side matching.
#[derive(Clone, Copy)]
pub(crate) struct Chosen<'r> {
    pub(crate) list: CandList<'r>,
    pub(crate) trie_col: Option<(usize, usize)>,
}

/// Keep `best` the smallest candidate list seen so far.
fn consider<'r>(best: &mut Option<Chosen<'r>>, cand: Chosen<'r>) {
    if best.as_ref().is_none_or(|b| cand.list.len() < b.list.len()) {
        *best = Some(cand);
    }
}

/// The smallest available indexed candidate list for `planned` under `nu`:
/// the joint index (when the planner selected one), each column's resolved
/// prefix through its trie, exact-`ε` buckets, and any-packed buckets all
/// compete, and the shortest list wins.  `None` means no column offers an
/// index at all — scan the relation.
pub(crate) fn choose_candidates<'r>(
    relation: &'r Relation,
    planned: &PlannedPredicate,
    nu: &Valuation,
) -> Option<Chosen<'r>> {
    let mut best: Option<Chosen<'r>> = None;
    if let Some(cols) = planned.joint_cols.as_deref() {
        if cols.len() <= MAX_JOINT_COLS {
            let mut firsts = [DUMMY_VALUE; MAX_JOINT_COLS];
            let mut ok = true;
            for (i, &c) in cols.iter().enumerate() {
                match first_value(&planned.probes[c], nu) {
                    Some(v) => firsts[i] = v,
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                if let Some(ids) = relation.probe_joint(cols, &firsts[..cols.len()]) {
                    consider(
                        &mut best,
                        Chosen {
                            list: CandList::Ids(ids),
                            trie_col: None,
                        },
                    );
                }
            }
        }
    }
    let mut buf = [DUMMY_VALUE; TRIE_DEPTH];
    for (column, probe) in planned.probes.iter().enumerate() {
        if !probe.can_probe() || !relation.column_active(column) {
            continue;
        }
        if matches!(&best, Some(b) if b.list.len() == 0) {
            break;
        }
        let (n, complete) = resolve_prefix(probe, nu, &mut buf);
        if n > 0 {
            let full_walk = relation
                .column_index(column)
                .is_some_and(|trie| n <= trie.depth());
            consider(
                &mut best,
                Chosen {
                    list: CandList::Entries(relation.probe_prefix(column, &buf[..n])),
                    trie_col: full_walk.then_some((column, n)),
                },
            );
        } else if complete {
            // Every source resolved to zero values and the sources cover the
            // whole argument: the column must be exactly ε.
            consider(
                &mut best,
                Chosen {
                    list: CandList::Ids(relation.probe_empty(column)),
                    trie_col: None,
                },
            );
        } else if probe.leading_packed_var {
            consider(
                &mut best,
                Chosen {
                    list: CandList::Ids(relation.probe_packed_first(column)),
                    trie_col: None,
                },
            );
        }
    }
    best
}

/// Resolve the statically-known leading values of one column into `buf`,
/// returning how many were filled (capped at [`TRIE_DEPTH`]) and whether the
/// sources were consumed completely (so `probe.exact` still pins the column).
fn resolve_prefix(
    probe: &ColumnProbe,
    nu: &Valuation,
    buf: &mut [Value; TRIE_DEPTH],
) -> (usize, bool) {
    let mut n = 0usize;
    for source in &probe.sources {
        if n == TRIE_DEPTH {
            return (n, false);
        }
        match source {
            PrefixSource::Const(a) => {
                buf[n] = Value::Atom(*a);
                n += 1;
            }
            PrefixSource::Packed(v) => {
                buf[n] = *v;
                n += 1;
            }
            PrefixSource::AtomVar(v) => match nu.get(*v) {
                Some(Binding::Atom(a)) => {
                    buf[n] = Value::Atom(*a);
                    n += 1;
                }
                _ => return (n, false),
            },
            PrefixSource::PathVar(v) => match nu.get(*v) {
                Some(Binding::Path(p)) => {
                    for value in p.values() {
                        if n == TRIE_DEPTH {
                            return (n, false);
                        }
                        buf[n] = *value;
                        n += 1;
                    }
                }
                _ => return (n, false),
            },
        }
    }
    (n, probe.exact)
}

/// The runtime first value of a joint-index column (guaranteed by the planner
/// to resolve; `None` only on a defensive miss, which disables the joint
/// probe for this call).
pub(crate) fn first_value(probe: &ColumnProbe, nu: &Valuation) -> Option<Value> {
    match probe.sources.first()? {
        PrefixSource::Const(a) => Some(Value::Atom(*a)),
        PrefixSource::Packed(v) => Some(*v),
        PrefixSource::AtomVar(v) => match nu.get(*v) {
            Some(Binding::Atom(a)) => Some(Value::Atom(*a)),
            _ => None,
        },
        PrefixSource::PathVar(_) => None,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use seqdl_core::{path_of, rel, repeat_path};
    use seqdl_syntax::parse_program;
    use std::collections::BTreeSet;

    fn engine() -> Engine {
        Engine::new().with_limits(EvalLimits {
            max_iterations: 1000,
            max_facts: 100_000,
            max_path_len: 10_000,
            ..EvalLimits::default()
        })
    }

    #[test]
    fn example_3_1_only_as_with_equation() {
        let program = parse_program("S($x) <- R($x), a·$x = $x·a.").unwrap();
        let input = Instance::unary(
            rel("R"),
            [
                repeat_path("a", 4),
                path_of(&["a", "b", "a"]),
                Path::empty(),
            ],
        );
        let out = engine().run(&program, &input).unwrap();
        let s = out.unary_paths(rel("S"));
        assert!(s.contains(&repeat_path("a", 4)));
        assert!(s.contains(&Path::empty()));
        assert!(!s.contains(&path_of(&["a", "b", "a"])));
    }

    #[test]
    fn example_3_1_only_as_with_recursion_matches_equation_variant() {
        let with_eq = parse_program("S($x) <- R($x), a·$x = $x·a.").unwrap();
        let with_rec =
            parse_program("T($x, $x) <- R($x).\nT($x, $y) <- T($x, $y·a).\nS($x) <- T($x, eps).")
                .unwrap();
        let input = Instance::unary(
            rel("R"),
            [
                repeat_path("a", 3),
                path_of(&["b"]),
                path_of(&["a", "b"]),
                Path::empty(),
            ],
        );
        let s1 = engine()
            .run(&with_eq, &input)
            .unwrap()
            .unary_paths(rel("S"));
        let s2 = engine()
            .run(&with_rec, &input)
            .unwrap()
            .unary_paths(rel("S"));
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), 2);
    }

    #[test]
    fn example_4_3_reversal_with_arity() {
        let program = parse_program(
            "T($x, eps) <- R($x).\nT($x, $y·@u) <- T($x·@u, $y).\nS($x) <- T(eps, $x).",
        )
        .unwrap();
        let input = Instance::unary(rel("R"), [path_of(&["a", "b", "c"])]);
        let out = engine().run(&program, &input).unwrap();
        assert_eq!(
            out.unary_paths(rel("S")),
            BTreeSet::from([path_of(&["c", "b", "a"])])
        );
    }

    #[test]
    fn example_2_1_nfa_acceptance() {
        // NFA over {a, b} accepting strings ending in b: states q0 (initial), q1
        // (final); q0 -a-> q0, q0 -b-> q1, q1 -a-> q0, q1 -b-> q1.
        let program = parse_program(
            "S(@q·$x, eps) <- R($x), N(@q).\n\
             S(@q2·$y, $z·@a) <- S(@q1·@a·$y, $z), D(@q1, @a, @q2).\n\
             A($x) <- S(@q, $x), F(@q).",
        )
        .unwrap();
        let mut input = Instance::new();
        input
            .insert_fact(Fact::new(rel("N"), vec![path_of(&["q0"])]))
            .unwrap();
        input
            .insert_fact(Fact::new(rel("F"), vec![path_of(&["q1"])]))
            .unwrap();
        for (from, sym, to) in [
            ("q0", "a", "q0"),
            ("q0", "b", "q1"),
            ("q1", "a", "q0"),
            ("q1", "b", "q1"),
        ] {
            input
                .insert_fact(Fact::new(
                    rel("D"),
                    vec![path_of(&[from]), path_of(&[sym]), path_of(&[to])],
                ))
                .unwrap();
        }
        for word in [
            vec!["a", "b"],
            vec!["b", "b", "b"],
            vec!["a"],
            vec!["b", "a"],
        ] {
            input
                .insert_fact(Fact::new(rel("R"), vec![path_of(&word)]))
                .unwrap();
        }
        let out = engine().run(&program, &input).unwrap();
        let accepted = out.unary_paths(rel("A"));
        assert!(accepted.contains(&path_of(&["a", "b"])));
        assert!(accepted.contains(&path_of(&["b", "b", "b"])));
        assert!(!accepted.contains(&path_of(&["a"])));
        assert!(!accepted.contains(&path_of(&["b", "a"])));
    }

    #[test]
    fn example_2_2_three_occurrences_boolean_query() {
        let program = parse_program(
            "T($u·<$s>·$v) <- R($u·$s·$v), S($s).\n\
             A <- T($x), T($y), T($z), $x != $y, $x != $z, $y != $z.",
        )
        .unwrap();
        // "ab" occurs three times in abxabyab.
        let mut input = Instance::unary(
            rel("R"),
            [path_of(&["a", "b", "x", "a", "b", "y", "a", "b"])],
        );
        input
            .insert_fact(Fact::new(rel("S"), vec![path_of(&["a", "b"])]))
            .unwrap();
        assert!(engine()
            .run(&program, &input)
            .unwrap()
            .nullary_true(rel("A")));

        // Only two occurrences: a·b·x·a·b.
        let mut input2 = Instance::unary(rel("R"), [path_of(&["a", "b", "x", "a", "b"])]);
        input2
            .insert_fact(Fact::new(rel("S"), vec![path_of(&["a", "b"])]))
            .unwrap();
        assert!(!engine()
            .run(&program, &input2)
            .unwrap()
            .nullary_true(rel("A")));
    }

    #[test]
    fn squaring_query_from_theorem_5_3() {
        let program = parse_program(
            "T(eps, $x, $x) <- R($x).\nT($y·$x, $x, $z) <- T($y, $x, a·$z).\nS($y) <- T($y, $x, eps).",
        )
        .unwrap();
        for n in [0usize, 1, 2, 3, 5] {
            let input = Instance::unary(rel("R"), [repeat_path("a", n)]);
            let out = engine().run(&program, &input).unwrap();
            let s = out.unary_paths(rel("S"));
            assert!(
                s.contains(&repeat_path("a", n * n)),
                "a^{} missing from output for n={n}",
                n * n
            );
        }
    }

    #[test]
    fn stratified_negation_only_black_successors() {
        // Section 5.2: nodes whose successors are all black, on graphs encoded as
        // length-2 paths.
        let program =
            parse_program("W(@x) <- R(@x·@y), !B(@y).\n---\nS(@x) <- R(@x·@y), !W(@x).").unwrap();
        let mut input = Instance::new();
        for (a, b) in [("n1", "n2"), ("n1", "n3"), ("n4", "n2")] {
            input
                .insert_fact(Fact::new(rel("R"), vec![path_of(&[a, b])]))
                .unwrap();
        }
        // n2 is black, n3 is not.
        input
            .insert_fact(Fact::new(rel("B"), vec![path_of(&["n2"])]))
            .unwrap();
        let out = engine().run(&program, &input).unwrap();
        let s = out.unary_paths(rel("S"));
        // n4's only successor (n2) is black; n1 has a non-black successor (n3).
        assert!(s.contains(&path_of(&["n4"])));
        assert!(!s.contains(&path_of(&["n1"])));
    }

    #[test]
    fn graph_reachability_in_fragment_i_r() {
        let program =
            parse_program("T(@x·@y) <- R(@x·@y).\nT(@x·@z) <- T(@x·@y), R(@y·@z).\nS <- T(a·b).")
                .unwrap();
        let mut chain = Instance::new();
        for (x, y) in [("a", "c"), ("c", "d"), ("d", "b")] {
            chain
                .insert_fact(Fact::new(rel("R"), vec![path_of(&[x, y])]))
                .unwrap();
        }
        assert!(engine()
            .run(&program, &chain)
            .unwrap()
            .nullary_true(rel("S")));

        let mut no_path = Instance::new();
        for (x, y) in [("a", "c"), ("d", "b")] {
            no_path
                .insert_fact(Fact::new(rel("R"), vec![path_of(&[x, y])]))
                .unwrap();
        }
        assert!(!engine()
            .run(&program, &no_path)
            .unwrap()
            .nullary_true(rel("S")));
    }

    #[test]
    fn example_2_3_nonterminating_program_hits_limits() {
        let program = parse_program("T(a).\nT(a·$x) <- T($x).").unwrap();
        let tight = Engine::new().with_limits(EvalLimits {
            max_iterations: 50,
            ..EvalLimits::default()
        });
        let err = tight.run(&program, &Instance::new()).unwrap_err();
        assert!(matches!(err, EvalError::LimitExceeded { .. }));
    }

    #[test]
    fn naive_and_semi_naive_agree() {
        let program = parse_program(
            "T(@x·@y) <- R(@x·@y).\nT(@x·@z) <- T(@x·@y), R(@y·@z).\nS($p) <- T($p).",
        )
        .unwrap();
        let mut input = Instance::new();
        for (x, y) in [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("b", "e")] {
            input
                .insert_fact(Fact::new(rel("R"), vec![path_of(&[x, y])]))
                .unwrap();
        }
        let naive = engine()
            .with_strategy(FixpointStrategy::Naive)
            .run(&program, &input)
            .unwrap();
        let semi = engine()
            .with_strategy(FixpointStrategy::SemiNaive)
            .run(&program, &input)
            .unwrap();
        assert_eq!(naive.unary_paths(rel("S")), semi.unary_paths(rel("S")));
        assert_eq!(naive.unary_paths(rel("S")).len(), 5 + 4 + 4 + 4 + 3);
    }

    #[test]
    fn stats_report_iterations_and_facts() {
        let program = parse_program("S($x) <- R($x).").unwrap();
        let input = Instance::unary(rel("R"), [path_of(&["a"]), path_of(&["b"])]);
        let (_, stats) = engine().run_with_stats(&program, &input).unwrap();
        assert_eq!(stats.derived_facts, 2);
        assert!(stats.iterations >= 1);
        assert_eq!(stats.rule_firings, 2);
    }

    #[test]
    fn empty_idb_relations_are_declared_in_the_output() {
        let program = parse_program("S($x) <- R($x), a·$x = $x·a.").unwrap();
        let input = Instance::unary(rel("R"), [path_of(&["b"])]);
        let out = engine().run(&program, &input).unwrap();
        assert!(out.relation(rel("S")).is_some());
        assert!(out.unary_paths(rel("S")).is_empty());
    }

    #[test]
    fn unsafe_programs_are_rejected_before_evaluation() {
        let program = parse_program("S($y) <- R($x).").unwrap();
        assert!(matches!(
            engine().run(&program, &Instance::new()),
            Err(EvalError::IllFormed(_))
        ));
    }

    use seqdl_core::Path;
}
