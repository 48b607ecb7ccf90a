//! The fixpoint driver: the one loop that evaluates a lowered
//! [`ram::Program`].
//!
//! The driver walks the lowered statement list itself.  Per declared stratum
//! and per dependency level it fires the level's `merge` section once, in one
//! round, and then advances the level's `loops` (one per recursive component)
//! as lock-step semi-naive fixpoints over each [`LoopProgram::body`].
//!
//! Every round is a batch of [`Job`]s handed to a caller-supplied `round`
//! closure, which returns one [`JobOutcome`] per job.  That closure is the
//! only seam: `seqdl_exec::Executor` fires the jobs in place or fans them out
//! over its worker pool.  Jobs only read the instance; the driver merges
//! their private buffers between rounds in job order, so the output is
//! independent of how a round was executed.

use crate::error::{EvalError, LimitKind};
use crate::eval::{
    prepare_idb_instance, restrict_head_indexes, seed_instance, DeltaWindow, EvalLimits, EvalStats,
    FireStats, ResourceGovernor, StratumStats,
};
use crate::ram::{self, fire_proc, Inst, LoopProgram, RuleProc, StratumProgram};
use seqdl_core::{Fact, Instance, RelName, Relation, Rows};
use seqdl_syntax::{Program, ProgramInfo};
use std::collections::BTreeMap;
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// Default number of delta tuples per shard when a delta window is split
/// into jobs.
pub const DELTA_SHARD: usize = 128;

/// Upper bound on shards per delta window, as a multiple of the worker count:
/// a huge delta is split into at most `SHARD_FANOUT × threads` jobs (the shard
/// size grows instead), so a round is never flooded with thousands of tiny
/// windows.  Output is unaffected — relations compare as sets and the merge
/// stays in deterministic job order.
const SHARD_FANOUT: usize = 4;

/// How delta windows are split into shard jobs: at least `base` tuples per
/// shard, at most `max_shards` shards per window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardPolicy {
    /// Minimum tuples per shard.
    pub base: usize,
    /// Maximum shards per delta window.
    pub max_shards: usize,
}

impl ShardPolicy {
    /// Shards of at least `base` tuples, at most four per thread.
    pub fn new(base: usize, threads: usize) -> ShardPolicy {
        ShardPolicy {
            base,
            max_shards: SHARD_FANOUT * threads.max(1),
        }
    }

    /// The shard size used for a delta window of `span` tuples.
    pub fn size_for(&self, span: usize) -> usize {
        let base = self.base.max(1);
        let max_shards = self.max_shards.max(1);
        if span.div_ceil(base) > max_shards {
            span.div_ceil(max_shards)
        } else {
            base
        }
    }
}

/// One unit of work for a round: fire one rule procedure, optionally
/// restricted to a delta window.  Jobs only read the instance.
#[derive(Clone, Copy, Debug)]
pub struct Job<'a> {
    /// Position in the round; outcomes merge in ascending id order.
    pub id: usize,
    /// Index of the rule within its stratum's rule list — the per-rule
    /// profile key shard jobs are merged under.
    pub rule_ix: usize,
    /// The rule's lowered procedure.
    pub proc: &'a RuleProc,
    /// The delta window of a semi-naive variant; `None` fires over the full
    /// instance.
    pub window: Option<DeltaWindow>,
}

/// The result of one job: the rows it derived for its rule's head relation
/// and the firing-pass counters, or the first evaluation error the job hit.
#[derive(Debug)]
pub struct JobOutcome {
    /// The job's id.
    pub id: usize,
    /// The job's stratum-relative rule index.
    pub rule_ix: usize,
    /// Wall-clock time the job's firing pass took.
    pub wall: Duration,
    /// Derived head rows and counters, or the job's error.
    pub result: Result<(Rows, FireStats), EvalError>,
}

impl<'a> Job<'a> {
    /// Fire the job's procedure over `instance`, buffering the head rows it
    /// derives that are not yet in the head relation.  A row the job derives
    /// twice is buffered twice; the merge keeps one.
    ///
    /// # Errors
    /// Whatever [`fire_proc`] reports.
    pub fn fire(
        &self,
        instance: &Instance,
        governor: &ResourceGovernor,
    ) -> Result<(Rows, FireStats), EvalError> {
        let mut out = Rows::new(self.proc.rule.head.args.len());
        fire_proc(self.proc, instance, self.window, &mut out, Some(governor))
            .map(|fire| (out, fire))
    }

    /// Run the job as one profiled pass: a rule span and a wall clock around
    /// `fire` (normally [`Job::fire`], wrapped by callers that contain
    /// panics), plus the pass's trace counters.
    pub fn run(
        self,
        fire: impl FnOnce(&Job<'a>) -> Result<(Rows, FireStats), EvalError>,
    ) -> JobOutcome {
        let _rule_span = seqdl_trace::span(|| {
            format!(
                "rule r{} {}{}",
                self.rule_ix,
                self.proc.rule.head.relation,
                match self.window {
                    Some(w) => format!(" Δ{}..{}", w.lo, w.hi),
                    None => String::new(),
                }
            )
        });
        let start = Instant::now();
        let result = fire(&self);
        let wall = start.elapsed();
        if seqdl_trace::enabled() {
            if let Ok((_, fire)) = &result {
                seqdl_trace::counter("index probes", fire.index_probes as u64);
                seqdl_trace::counter("scans", fire.scans as u64);
                seqdl_trace::counter("emits", fire.firings as u64);
            }
        }
        JobOutcome {
            id: self.id,
            rule_ix: self.rule_ix,
            wall,
            result,
        }
    }
}

/// Read-lock the instance.  Only the merge takes the write lock, and a panic
/// there unwinds the whole run, so a poisoned lock is never read by a job;
/// recovering the guard just avoids a second panic.
pub fn read(instance: &RwLock<Instance>) -> RwLockReadGuard<'_, Instance> {
    instance.read().unwrap_or_else(PoisonError::into_inner)
}

fn write(instance: &RwLock<Instance>) -> RwLockWriteGuard<'_, Instance> {
    instance.write().unwrap_or_else(PoisonError::into_inner)
}

/// Analyse, prepare, and lower a run once: the working instance (input plus
/// declared IDB relations plus demand `seeds`), with the IDB column indexes
/// no probe can use switched off, and the lowered program.
///
/// # Errors
/// Ill-formed programs, IDB relations in the input, input relations at
/// another arity than the program's, seed arity mismatches, and unplannable
/// rules.
pub fn prepare_run(
    program: &Program,
    input: &Instance,
    seeds: &[Fact],
) -> Result<(Instance, ram::Program), EvalError> {
    let info = ProgramInfo::analyse(program)?;
    let mut instance = prepare_idb_instance(&info, input)?;
    seed_instance(&mut instance, seeds)?;
    let lowered = ram::lower(program)?;
    // Derived relations keep only the column indexes some probe can use;
    // every other column stops paying per-insert indexing.
    let procs = lowered.strata.iter().flat_map(|s| &s.procs);
    restrict_head_indexes(info.idb.iter().copied(), procs, &mut instance);
    Ok((instance, lowered))
}

/// The fixpoint driver over one lowered program and its working instance.
pub struct Driver<'a> {
    /// The run's limits on rounds, facts, and path length.
    pub limits: EvalLimits,
    /// The run's governor, polled at every stratum and round boundary.
    pub governor: &'a ResourceGovernor,
    /// How delta windows split into shard jobs.
    pub shard: ShardPolicy,
    /// The lowered program; jobs borrow its procedures.
    pub program: &'a ram::Program,
    /// The working instance: read by jobs, written only by the merge.
    pub instance: &'a RwLock<Instance>,
}

/// Per-loop fixpoint state inside a lock-step group.
struct LoopState<'p> {
    program: &'p LoopProgram,
    /// Watermark per loop relation: its length at the previous round boundary.
    delta_start: BTreeMap<RelName, usize>,
    /// Rounds completed; round 0 covers the full instance, later rounds the
    /// delta since the previous round.
    round: usize,
    /// Still growing?  A converged loop contributes no further jobs.
    active: bool,
}

impl<'a> Driver<'a> {
    /// Evaluate every stratum in order, each round through `round`.  A
    /// stratum that fails is handed to `recover` with its index and error;
    /// `recover` either repairs the stratum (by re-running
    /// [`Driver::stratum`]) or returns the error to end the run.
    ///
    /// # Errors
    /// Evaluation errors, exceeded limits, and cancellation.
    pub fn run(
        &self,
        stats: &mut EvalStats,
        mut round: impl FnMut(Vec<Job<'a>>) -> Vec<JobOutcome>,
        mut recover: impl FnMut(usize, EvalError, &mut EvalStats) -> Result<(), EvalError>,
    ) -> Result<(), EvalError> {
        let _run_span = seqdl_trace::span(|| "run".to_string());
        for (si, stratum) in self.program.strata.iter().enumerate() {
            let _stratum_span = seqdl_trace::span(|| format!("stratum {si}"));
            // Stratum boundary: the full governor check — cancellation,
            // deadline, and the store byte budget — before any job runs.
            seqdl_trace::instant("governor check");
            self.governor.check()?;
            let start = Instant::now();
            let before = (stats.iterations, stats.derived_facts, stats.rule_firings);
            if let Err(e) = self.stratum(si, stats, &mut round) {
                recover(si, e, stats)?;
            }
            stats.strata.push(StratumStats {
                rules: stratum.procs.len(),
                iterations: stats.iterations - before.0,
                derived_facts: stats.derived_facts - before.1,
                rule_firings: stats.rule_firings - before.2,
                shards: std::mem::take(&mut stats.delta_shards),
                wall: start.elapsed(),
            });
        }
        Ok(())
    }

    /// Evaluate stratum `si`: per level, fire the merge section in one
    /// round, then advance the level's loops as one lock-step group.
    ///
    /// # Errors
    /// Evaluation errors, exceeded limits, and cancellation.
    pub fn stratum(
        &self,
        si: usize,
        stats: &mut EvalStats,
        round: &mut impl FnMut(Vec<Job<'a>>) -> Vec<JobOutcome>,
    ) -> Result<(), EvalError> {
        let stratum = &self.program.strata[si];
        for (li, level) in stratum.levels.iter().enumerate() {
            let _level_span = seqdl_trace::span(|| format!("level {li}"));
            // A level is one scheduled fixpoint for the iteration limit: its
            // merge round plus its loop rounds.
            let mut rounds = 0usize;
            if !level.merge.is_empty() {
                let _round_span = seqdl_trace::span(|| "round 0".to_string());
                self.next_round(&mut rounds, stats)?;
                let jobs = level
                    .merge
                    .iter()
                    .enumerate()
                    .map(|(id, &rule_ix)| Job {
                        id,
                        rule_ix,
                        proc: &stratum.procs[rule_ix],
                        window: None,
                    })
                    .collect();
                self.merge(stratum, round(jobs), stats)?;
            }
            if !level.loops.is_empty() {
                self.fixpoint_group(stratum, &level.loops, &mut rounds, stats, round)?;
            }
        }
        Ok(())
    }

    /// Start a new round of the current level, enforcing the iteration limit
    /// and polling the full governor.
    fn next_round(&self, rounds: &mut usize, stats: &mut EvalStats) -> Result<(), EvalError> {
        let limit = self.limits.max_iterations;
        if *rounds >= limit {
            return Err(EvalError::LimitExceeded {
                what: LimitKind::Iterations,
                limit,
            });
        }
        *rounds += 1;
        seqdl_trace::instant("governor check");
        self.governor.check()?;
        stats.iterations += 1;
        Ok(())
    }

    /// The loops of one level, advanced in lock-step: every round pools the
    /// body jobs of every loop still growing — one per rule-variant × delta
    /// shard — and each loop converges (and drops out) on its own.  Loops of
    /// one level never read each other's relations, so lock-step rounds
    /// derive exactly what sequential per-loop fixpoints would.
    fn fixpoint_group(
        &self,
        stratum: &'a StratumProgram,
        loops: &'a [LoopProgram],
        rounds: &mut usize,
        stats: &mut EvalStats,
        round: &mut impl FnMut(Vec<Job<'a>>) -> Vec<JobOutcome>,
    ) -> Result<(), EvalError> {
        let mut states: Vec<LoopState<'a>> = loops
            .iter()
            .map(|program| LoopState {
                program,
                delta_start: BTreeMap::new(),
                round: 0,
                active: true,
            })
            .collect();
        let mut group_round = 0usize;
        while states.iter().any(|s| s.active) {
            let _round_span = seqdl_trace::span(|| format!("round {group_round}"));
            group_round += 1;
            self.next_round(rounds, stats)?;
            let mut jobs: Vec<Job<'a>> = Vec::new();
            // Watermarks recorded before merging: facts inserted by this round
            // land at ids ≥ these marks and form each loop's next delta.
            let marks: Vec<BTreeMap<RelName, usize>> = {
                let guard = read(self.instance);
                for state in states.iter().filter(|s| s.active) {
                    for &rule_ix in &state.program.body {
                        let proc = &stratum.procs[rule_ix];
                        // Round 0 covers every valuation once: the whole
                        // relation at the first delta position, the full
                        // instance elsewhere.  Later rounds fire one variant
                        // per delta position over the tuples the previous
                        // round added.
                        let positions = if state.round == 0 {
                            proc.delta_positions.get(..1).unwrap_or_default()
                        } else {
                            &proc.delta_positions
                        };
                        for &pos in positions {
                            // invariant: the lowering records only probe
                            // positions as delta positions.
                            let Inst::Probe { pred, .. } = &proc.code[pos] else {
                                unreachable!("a delta position is a probe")
                            };
                            let relation = pred.pred.relation;
                            let hi = guard.relation(relation).map_or(0, Relation::len);
                            let lo = if state.round == 0 {
                                0
                            } else {
                                state.delta_start.get(&relation).copied().unwrap_or(hi)
                            };
                            if lo >= hi {
                                continue;
                            }
                            // Split the window into equal shards; the shard
                            // count is clamped by the shard policy.
                            let size = self.shard.size_for(hi - lo);
                            stats.note_shards((hi - lo).div_ceil(size));
                            let mut shard_lo = lo;
                            while shard_lo < hi {
                                let shard_hi = (shard_lo + size).min(hi);
                                jobs.push(Job {
                                    id: jobs.len(),
                                    rule_ix,
                                    proc,
                                    window: Some(DeltaWindow {
                                        pos,
                                        lo: shard_lo,
                                        hi: shard_hi,
                                    }),
                                });
                                shard_lo = shard_hi;
                            }
                        }
                    }
                }
                states
                    .iter()
                    .map(|state| {
                        state
                            .program
                            .relations
                            .iter()
                            .map(|r| (*r, guard.relation(*r).map_or(0, Relation::len)))
                            .collect()
                    })
                    .collect()
            };
            self.merge(stratum, round(jobs), stats)?;
            // A loop keeps iterating exactly while its own relations grew;
            // growth is visible as a length past the pre-merge watermark.
            let guard = read(self.instance);
            for (state, marks) in states.iter_mut().zip(marks) {
                if !state.active {
                    continue;
                }
                state.active = marks
                    .iter()
                    .any(|(r, &mark)| guard.relation(*r).map_or(0, Relation::len) > mark);
                state.delta_start = marks;
                state.round += 1;
            }
        }
        Ok(())
    }

    /// Merge a round's private buffers into the instance under the write
    /// lock, in ascending job order — the single mutation point of a run.
    /// Errors surface in job order too, so failures are deterministic, and so
    /// is the per-rule profile: shard jobs fold into `stats.rules` keyed by
    /// `(stratum, rule index)`, whichever thread ran them.
    fn merge(
        &self,
        stratum: &StratumProgram,
        mut outcomes: Vec<JobOutcome>,
        stats: &mut EvalStats,
    ) -> Result<(), EvalError> {
        let _merge_span = seqdl_trace::span(|| "merge".to_string());
        // The stratum under construction: `run` pushes its entry afterwards.
        let stratum_ix = stats.strata.len();
        outcomes.sort_by_key(|o| o.id);
        let mut guard = write(self.instance);
        for outcome in outcomes {
            let rule_ix = outcome.rule_ix;
            let (rows, fire) = outcome.result?;
            let head = &stratum.procs[rule_ix].rule.head;
            let before = stats.derived_facts;
            self.absorb(&mut guard, head.relation, &rows, stats)?;
            stats.apply_rule_fire(
                stratum_ix,
                rule_ix,
                || stratum.procs[rule_ix].rule.to_string(),
                fire,
                outcome.wall,
                stats.derived_facts - before,
            );
        }
        Ok(())
    }

    /// Insert one job's derived `rows` into the relation `head`, enforcing
    /// the fact-count and path-length limits.  The relation is looked up once
    /// per job, duplicates cost one dedup-chain walk, and the path-length
    /// limit is checked once per genuinely new row — anything already in the
    /// instance passed that check when it was first inserted.
    fn absorb(
        &self,
        instance: &mut Instance,
        head: RelName,
        rows: &Rows,
        stats: &mut EvalStats,
    ) -> Result<(), EvalError> {
        if rows.is_empty() {
            return Ok(());
        }
        let limits = &self.limits;
        let relation = instance.relation_mut(head, rows.arity());
        for row in rows.iter() {
            if !relation.insert(head, row).map_err(EvalError::Data)? {
                continue;
            }
            if row.iter().any(|p| p.len() > limits.max_path_len) {
                return Err(EvalError::LimitExceeded {
                    what: LimitKind::PathLength,
                    limit: limits.max_path_len,
                });
            }
            stats.derived_facts += 1;
            if stats.derived_facts > limits.max_facts {
                return Err(EvalError::LimitExceeded {
                    what: LimitKind::Facts,
                    limit: limits.max_facts,
                });
            }
        }
        Ok(())
    }
}
