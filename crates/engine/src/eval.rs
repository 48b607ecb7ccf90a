//! Stratum-by-stratum fixpoint evaluation (Section 2.3): resource limits and
//! the run's governor, evaluation statistics, instance preparation, and the
//! index selection the RAM interpreter probes through.  The fixpoint loop
//! itself is [`crate::drive`]; runs start at `seqdl_exec::Executor`.

use crate::error::{EvalError, LimitKind};
use crate::plan::{ColumnProbe, PlannedPredicate, PrefixSource};
use crate::ram::{Inst, RuleProc};
use seqdl_core::{BucketEntry, CancelToken, CoreError, Fact, Instance, RelName, Relation, Value};
use seqdl_syntax::{Binding, ProgramInfo, Valuation};
use std::collections::{BTreeMap, BTreeSet};
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

/// Counters describing an evaluation run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Total fixpoint iterations across all strata.
    pub iterations: usize,
    /// Number of facts derived (beyond the input).
    pub derived_facts: usize,
    /// Number of successful rule firings (head instantiations, counting duplicates).
    pub rule_firings: usize,
    /// Positive-predicate steps answered through a column's first-value
    /// index instead of a relation scan.
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
    /// Retired: always 0.  Duplicate firings are dropped by the path store's
    /// consing and the head relation's dedup, which count nothing here.  The
    /// field and its stats-JSON key stay so existing consumers still read it.
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
    }

    /// Fold one rule-firing pass into both the run totals and the per-rule
    /// profile entry keyed by `(stratum, rule_ix)`.  `rule` renders the rule
    /// lazily — it is only invoked the first time the entry is created.
    /// `derived` counts the facts the pass added to its head relation at the
    /// merge.
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
    /// Facts the rule's firing passes added to its head relation.  Passes
    /// merge in job order, so a fact several rules derive in one round counts
    /// for the first of them.
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

/// A *delta window* restricting one probe of a rule procedure: the
/// [`Inst::Probe`] at code position `pos` only draws tuples with ids in
/// `lo..hi`.
///
/// With `lo` the relation's length at the previous iteration boundary and `hi` its
/// current length, this is classic semi-naive evaluation ("at least one fact from
/// the last iteration").  The driver further splits `lo..hi` into disjoint
/// shards, one job per shard, which a worker pool can fire concurrently.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeltaWindow {
    /// The code position (index into [`RuleProc::code`]) being restricted.
    pub pos: usize,
    /// First tuple id drawn at the restricted position (inclusive).
    pub lo: usize,
    /// Last tuple id drawn at the restricted position (exclusive).
    pub hi: usize,
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
            .insert_row(seed.relation, &seed.tuple)
            .map_err(EvalError::Data)?;
    }
    Ok(())
}

/// Reject an input that populates an IDB relation of a program, or declares
/// any relation the program uses at another arity.  The paper requires IDB
/// relation names to lie outside the input schema Γ, and every relation to
/// have one arity; a mismatched input relation would otherwise read as
/// absent, so a negation over it would silently hold.  `arities` must cover
/// every name in `idb`.
///
/// # Errors
/// [`EvalError::IdbRelationInInput`] naming the first colliding IDB
/// relation, else [`EvalError::Data`] with [`CoreError::ArityMismatch`]
/// (`expected` is the program's arity, `found` the input's) for the first
/// mismatched relation.
pub fn check_idb_input(
    idb: &BTreeSet<RelName>,
    arities: &BTreeMap<RelName, usize>,
    input: &Instance,
) -> Result<(), EvalError> {
    for rel in idb {
        if let Some(existing) = input.relation(*rel) {
            if !existing.is_empty() || arities.get(rel) != Some(&existing.arity()) {
                return Err(EvalError::IdbRelationInInput {
                    relation: rel.name().to_string(),
                });
            }
        }
    }
    for (&relation, &expected) in arities {
        if let Some(existing) = input.relation(relation) {
            if existing.arity() != expected {
                return Err(EvalError::Data(CoreError::ArityMismatch {
                    relation,
                    expected,
                    found: existing.arity(),
                }));
            }
        }
    }
    Ok(())
}

/// Clone `input` and register every IDB relation of the program so empty
/// results are observable, after [`check_idb_input`].
///
/// # Errors
/// [`EvalError::IdbRelationInInput`] on a schema collision.
pub fn prepare_idb_instance(info: &ProgramInfo, input: &Instance) -> Result<Instance, EvalError> {
    check_idb_input(&info.idb, &info.arities, input)?;
    let mut instance = input.clone();
    for rel in &info.idb {
        if let Some(&arity) = info.arities.get(rel) {
            instance.declare_relation(*rel, arity);
        }
    }
    Ok(instance)
}

/// Deactivate every column index of the `heads` relations that no
/// [`Inst::Probe`] of `procs` can ever use ([`ColumnProbe::can_probe`] is the
/// same static predicate `choose_candidates` uses at runtime, so a
/// deactivated column is one the whole evaluation never consults; a
/// [`FilterOp::FusedProbe`](crate::ram::FilterOp::FusedProbe) only checks
/// membership, which needs no column index).  Head relations are the
/// growing ones — every insert during the fixpoint pays for exactly the
/// indexes some probe can use, instead of indexing every column by default.
///
/// Restriction is safe even when over-eager: `choose_candidates` skips
/// deactivated columns entirely and falls back to scanning, and
/// re-activation (by a later evaluation whose probes do use the column)
/// rebuilds the index from the stored tuples.
pub fn restrict_head_indexes<'a>(
    heads: impl IntoIterator<Item = RelName>,
    procs: impl IntoIterator<Item = &'a RuleProc>,
    instance: &mut Instance,
) {
    let mut needed: seqdl_core::FxMap<RelName, u64> = seqdl_core::FxMap::default();
    for proc in procs {
        for inst in &proc.code {
            if let Inst::Probe { pred: p, .. } = inst {
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

/// The smallest first-value bucket for `planned` under `nu`: each probeable
/// column whose first value resolves offers its bucket, and the shortest
/// wins.  `None` means no column offers an index at all — scan the relation.
pub(crate) fn choose_candidates<'r>(
    relation: &'r Relation,
    planned: &PlannedPredicate,
    nu: &Valuation,
) -> Option<&'r [BucketEntry]> {
    let mut best: Option<&'r [BucketEntry]> = None;
    for (column, probe) in planned.probes.iter().enumerate() {
        if !probe.can_probe() || !relation.column_active(column) {
            continue;
        }
        if best.is_some_and(<[BucketEntry]>::is_empty) {
            break;
        }
        if let Some(first) = resolve_first(probe, nu) {
            let bucket = relation.probe_first(column, &first);
            if best.is_none_or(|b| bucket.len() < b.len()) {
                best = Some(bucket);
            }
        }
    }
    best
}

/// The first value of a column under `nu`: the first value its leading
/// sources resolve to.  A path variable bound to `ε` contributes nothing and
/// defers to the next source; an unbound variable, or sources that all
/// resolve to `ε`, leave it unknown.
fn resolve_first(probe: &ColumnProbe, nu: &Valuation) -> Option<Value> {
    for source in &probe.sources {
        match source {
            PrefixSource::Const(a) => return Some(Value::Atom(*a)),
            PrefixSource::Packed(v) => return Some(*v),
            PrefixSource::AtomVar(v) => {
                return match nu.get(*v) {
                    Some(Binding::Atom(a)) => Some(Value::Atom(*a)),
                    _ => None,
                }
            }
            PrefixSource::PathVar(v) => match nu.get(*v) {
                Some(Binding::Path(p)) => {
                    if let Some(first) = p.values().first() {
                        return Some(*first);
                    }
                }
                _ => return None,
            },
        }
    }
    None
}
