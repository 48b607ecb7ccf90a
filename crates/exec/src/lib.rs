//! # seqdl-exec — the one way to evaluate a program
//!
//! [`Executor`] is the entry point of evaluation.  It prepares and lowers a
//! program, then runs `seqdl-engine`'s [`Driver`], which evaluates the
//! lowered program in rounds of independent jobs: per dependency level, one
//! round for the level's merge section, then lock-step semi-naive rounds for
//! its recursive loops, each delta window split into shard jobs.  The driver
//! hands every round to a `round` closure, and this crate supplies two:
//!
//! * `--threads 1` fires the jobs in place, each under `catch_unwind`, as
//!   the one owner of the path and name tables ([`seqdl_core::exclusive`]);
//! * `--threads N` fans them out over a fixed pool of `N − 1` workers built
//!   from `std::thread` and `std::sync`, the driver thread running the
//!   first job of each round itself.
//!
//! Workers only ever *read* the shared instance (behind an `RwLock`) and
//! produce derived facts into private buffers; the driver merges those
//! buffers between rounds in deterministic job order, so the output instance
//! is independent of the thread count.  A panicking job poisons the run, the
//! surviving jobs drain, and the driver re-runs the failed stratum once in
//! place; a panic that recurs there ends the run with
//! [`EvalError::WorkerPanic`].
//!
//! ```
//! use seqdl_core::{rel, Fact, path_of, Instance};
//! use seqdl_exec::Executor;
//! use seqdl_syntax::parse_program;
//!
//! let program = parse_program(
//!     "T(@x·@y) <- R(@x·@y).\nT(@x·@z) <- T(@x·@y), R(@y·@z).\nS <- T(a·b).",
//! )
//! .unwrap();
//! let mut input = Instance::new();
//! for (x, y) in [("a", "c"), ("c", "b")] {
//!     input.insert_fact(Fact::new(rel("R"), vec![path_of(&[x, y])])).unwrap();
//! }
//! let out = Executor::new().with_threads(4).run(&program, &input).unwrap();
//! assert!(out.nullary_true(rel("S")));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(clippy::unwrap_used)]

use seqdl_core::{CancelToken, Fact, Instance, Path, RelName, Rows};
use seqdl_engine::drive::{read, DELTA_SHARD};
use seqdl_engine::{
    prepare_run, Driver, EvalError, EvalLimits, EvalStats, FireStats, Job, JobOutcome,
    ResourceGovernor, ShardPolicy,
};
use seqdl_syntax::Program;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex, PoisonError, RwLock};
use std::thread;
use std::time::Duration;

/// Deterministic fault injection for the robustness test suite: arm a global
/// countdown and the Kth job fired through [`run_job`] panics inside the
/// `catch_unwind` region, exercising the poison → drain → retry path.
/// Compiled only under the `fail-inject` feature; release builds carry no
/// trace of it.
#[cfg(feature = "fail-inject")]
pub mod fail {
    use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

    /// `-1` means disarmed; `k ≥ 0` means "panic on the job firing that
    /// finds this at zero" — i.e. the (k+1)-th firing after arming.
    static COUNTDOWN: AtomicIsize = AtomicIsize::new(-1);

    /// Whether the countdown stays at zero after firing, so every later
    /// firing panics too.
    static REPEATING: AtomicBool = AtomicBool::new(false);

    fn set(k: usize, repeating: bool) {
        REPEATING.store(repeating, Ordering::SeqCst);
        COUNTDOWN.store(isize::try_from(k).unwrap_or(isize::MAX), Ordering::SeqCst);
    }

    /// Arm the injector: the `k`-th subsequent job firing panics, once
    /// (`k = 0` panics on the very next one).
    pub fn arm(k: usize) {
        set(k, false);
    }

    /// Arm the injector so that the `k`-th subsequent job firing and every
    /// firing after it panic, until [`disarm`] — a fault the stratum retry
    /// cannot get past.
    pub fn arm_repeating(k: usize) {
        set(k, true);
    }

    /// Disarm the injector without firing.
    pub fn disarm() {
        COUNTDOWN.store(-1, Ordering::SeqCst);
        REPEATING.store(false, Ordering::SeqCst);
    }

    /// Still waiting to fire?  `false` once a one-shot panic has happened (or
    /// the injector was never armed) — tests assert this to prove the fault
    /// was actually injected.  A repeating injector stays armed.
    pub fn armed() -> bool {
        COUNTDOWN.load(Ordering::SeqCst) >= 0
    }

    /// Called by every job firing; panics once per [`arm`], and on every
    /// firing from the chosen one on after [`arm_repeating`].
    pub fn maybe_panic() {
        let repeating = REPEATING.load(Ordering::SeqCst);
        let (Ok(prev) | Err(prev)) =
            COUNTDOWN.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| match v {
                1.. => Some(v - 1),
                0 if !repeating => Some(-1),
                _ => None,
            });
        if prev == 0 {
            panic!("fail-inject: injected worker panic");
        }
    }
}

/// Shared panic-poison flag for one executor run.  The first panicking job
/// sets it; every job drawn afterwards sees it and drains as an empty success,
/// so the round's merge (which processes outcomes in job order) surfaces
/// exactly one [`EvalError::WorkerPanic`].  The stratum retry clears the flag
/// before it re-runs, so the retried jobs evaluate again.  This is
/// deliberately *not* the user-facing [`seqdl_core::CancelToken`]: poisoning
/// is an internal executor condition that a retry may absolve, while a
/// cancelled user token must stay cancelled.
#[derive(Debug, Default)]
struct Poison {
    flag: AtomicBool,
}

impl Poison {
    fn is_set(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    fn set(&self) {
        self.flag.store(true, Ordering::Release);
    }

    fn reset(&self) {
        self.flag.store(false, Ordering::Release);
    }
}

/// The error reported when the worker pool's channels disconnect mid-round —
/// only possible if a pool thread died outside the contained panic path.
fn pool_died() -> EvalError {
    EvalError::Internal {
        detail: "executor worker pool disconnected".to_string(),
    }
}

/// Fire one job against the shared instance, containing panics.
///
/// Every job produces exactly one [`JobOutcome`], so a round's collect can
/// never block on a missing result:
///
/// * if the run is already poisoned, the job *drains* — it returns an empty
///   success without evaluating anything, so the merge surfaces only the
///   panicking job's [`EvalError::WorkerPanic`];
/// * if evaluation panics, `catch_unwind` contains it, the poison flag is set
///   (draining the surviving workers' queues), and the outcome carries the
///   offending rule's rendering plus the panic payload.
fn run_job(
    job: Job<'_>,
    instance: &Instance,
    governor: &ResourceGovernor,
    poison: &Poison,
) -> JobOutcome {
    if poison.is_set() {
        return JobOutcome {
            id: job.id,
            rule_ix: job.rule_ix,
            wall: Duration::ZERO,
            result: Ok((
                Rows::new(job.proc.rule.head.args.len()),
                FireStats::default(),
            )),
        };
    }
    job.run(|job| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            #[cfg(feature = "fail-inject")]
            fail::maybe_panic();
            job.fire(instance, governor)
        }))
        .unwrap_or_else(|panic| {
            let detail = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "worker panicked".to_string());
            poison.set();
            Err(EvalError::WorkerPanic {
                rule: job.proc.rule.to_string(),
                detail,
            })
        })
    })
}

/// The worker loop: take jobs from the shared queue until it closes, evaluate
/// each under a read lock, send the private buffer back.  Panic containment
/// and poison draining live in [`run_job`].
fn worker(
    jobs: &Mutex<mpsc::Receiver<Job<'_>>>,
    results: mpsc::Sender<JobOutcome>,
    instance: &RwLock<Instance>,
    governor: &ResourceGovernor,
    poison: &Poison,
) {
    loop {
        // Hold the queue lock only while drawing one job; blocking in `recv`
        // under the lock is the idiomatic mpmc-over-mpsc pattern — the lock is
        // released as soon as a job (or disconnection) arrives.
        let job = match jobs.lock().unwrap_or_else(PoisonError::into_inner).recv() {
            Ok(job) => job,
            Err(_) => return,
        };
        let outcome = run_job(job, &read(instance), governor, poison);
        if results.send(outcome).is_err() {
            return;
        }
    }
}

/// The in-place round: fire every job on the calling thread, in order, each
/// through [`run_job`].  `--threads 1` runs every round this way, and so
/// does the stratum retry after a worker panic.
fn run_in_place(
    jobs: Vec<Job<'_>>,
    instance: &RwLock<Instance>,
    governor: &ResourceGovernor,
    poison: &Poison,
) -> Vec<JobOutcome> {
    let guard = read(instance);
    jobs.into_iter()
        .map(|job| run_job(job, &guard, governor, poison))
        .collect()
}

/// The largest thread count the front ends accept.  They check it before
/// any thread starts, so a mistyped count is an error message rather than a
/// failed spawn deep inside the worker pool.
pub const MAX_THREADS: usize = 256;

/// The evaluator: resource limits, an optional cancel token, a thread count,
/// and a shard size in front of the one fixpoint driver.  `threads == 1`
/// evaluates in place with no pool at all; `threads == 0` uses the machine's
/// available parallelism.
#[derive(Clone, Debug)]
pub struct Executor {
    limits: EvalLimits,
    cancel: Option<CancelToken>,
    threads: usize,
    shard_size: usize,
}

impl Default for Executor {
    fn default() -> Self {
        Executor::new()
    }
}

impl Executor {
    /// An executor with default limits, single-threaded.
    pub fn new() -> Executor {
        Executor {
            limits: EvalLimits::default(),
            cancel: None,
            threads: 1,
            shard_size: DELTA_SHARD,
        }
    }

    /// Override the resource limits.
    pub fn with_limits(mut self, limits: EvalLimits) -> Executor {
        self.limits = limits;
        self
    }

    /// Attach a [`CancelToken`] polled at every governor checkpoint.
    /// Cancelling the token (from any thread, or a signal handler via
    /// [`CancelToken::linked_to`]) makes the run return
    /// [`EvalError::Cancelled`] with the statistics accumulated so far.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Executor {
        self.cancel = Some(token);
        self
    }

    /// Set the base number of delta tuples per shard (minimum 1; default 128).
    /// A delta window is split into shards of at least this size, and into at
    /// most a small multiple of the worker count — whichever yields fewer
    /// shards — so small deltas stay in one job and huge deltas cannot flood
    /// the job queue.
    pub fn with_shard_size(mut self, shard_size: usize) -> Executor {
        self.shard_size = shard_size.max(1);
        self
    }

    /// The configured base shard size.
    pub fn shard_size(&self) -> usize {
        self.shard_size
    }

    /// The maximum number of shard jobs one delta window can fan out into
    /// (`SHARD_FANOUT ×` the effective thread count) — the clamp that keeps
    /// huge deltas from flooding the job queue.
    pub fn max_delta_shards(&self) -> usize {
        self.shard_policy().max_shards
    }

    fn shard_policy(&self) -> ShardPolicy {
        ShardPolicy::new(self.shard_size, self.effective_threads())
    }

    /// Set the number of compute threads.  `1` runs in place (no pool), with
    /// the calling thread as the one owner of the path and name tables
    /// ([`seqdl_core::exclusive`]) for the whole run, so its lookups take no
    /// lock and fill no per-thread copy; `N > 1` spawns `N − 1` pool workers
    /// with the driver thread executing one job per round itself, so exactly
    /// `N` threads compute, each through its own mirror of the shared
    /// tables; `0` means "use all available parallelism".
    pub fn with_threads(mut self, threads: usize) -> Executor {
        self.threads = threads;
        self
    }

    /// The effective worker count (resolving `0` to the machine parallelism).
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.threads
        }
    }

    /// Evaluate `program` on `input`, returning the final instance (input
    /// relations plus all IDB relations).
    ///
    /// # Errors
    /// Ill-formed programs, exceeded resource limits, cancellation, and a
    /// worker panic that recurs when its stratum is retried.
    pub fn run(&self, program: &Program, input: &Instance) -> Result<Instance, EvalError> {
        self.run_with_stats(program, input).map(|(i, _)| i)
    }

    /// Like [`Executor::run`], additionally returning evaluation statistics
    /// (including the per-stratum breakdown).
    ///
    /// # Errors
    /// As for [`Executor::run`].
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
    /// As for [`Executor::run`], plus seed arity mismatches.
    pub fn run_seeded(
        &self,
        program: &Program,
        input: &Instance,
        seeds: &[Fact],
    ) -> Result<Instance, EvalError> {
        self.run_with_stats_seeded(program, input, seeds)
            .map(|(i, _)| i)
    }

    /// Like [`Executor::run_seeded`], additionally returning evaluation
    /// statistics.
    ///
    /// # Errors
    /// As for [`Executor::run_seeded`].
    pub fn run_with_stats_seeded(
        &self,
        program: &Program,
        input: &Instance,
        seeds: &[Fact],
    ) -> Result<(Instance, EvalStats), EvalError> {
        let threads = self.effective_threads();
        if threads <= 1 {
            // No other thread computes, so this one owns the path and name
            // tables for the whole run.
            return seqdl_core::exclusive(|| self.evaluate(program, input, seeds, threads));
        }
        self.evaluate(program, input, seeds, threads)
    }

    /// The body of [`Executor::run_with_stats_seeded`] on `threads` threads.
    fn evaluate(
        &self,
        program: &Program,
        input: &Instance,
        seeds: &[Fact],
        threads: usize,
    ) -> Result<(Instance, EvalStats), EvalError> {
        let (instance, lowered) = prepare_run(program, input, seeds)?;
        let lock = RwLock::new(instance);
        // One governor per run: the deadline clock starts here, the store
        // baseline is sampled here, and every checkpoint (stratum boundaries,
        // fixpoint rounds, amortised in-job instruction checks) polls the same
        // governor from every thread.
        let governor = ResourceGovernor::for_run(&self.limits, self.cancel.clone());
        let poison = Poison::default();
        let driver = Driver {
            limits: self.limits,
            governor: &governor,
            shard: self.shard_policy(),
            program: &lowered,
            instance: &lock,
        };
        let in_place = |jobs: Vec<Job<'_>>| run_in_place(jobs, &lock, &governor, &poison);
        // A worker panic fails its stratum with `WorkerPanic` after the poison
        // flag drained the other jobs.  The instance is consistent (merges are
        // atomic under the write lock) and stratum rules are monotone over it,
        // so re-running the stratum in place reaches exactly the fixpoint an
        // undisturbed run computes.  The flag is cleared first, or every
        // retried job would drain too; a panic that recurs on the retry is
        // contained again and ends the run.
        let recover = |si: usize, err: EvalError, stats: &mut EvalStats| match err {
            EvalError::WorkerPanic { .. } => {
                let _recovery_span = seqdl_trace::span(|| format!("recover stratum {si}"));
                poison.reset();
                let mut retry = in_place;
                driver.stratum(si, stats, &mut retry)
            }
            e => Err(e),
        };
        let mut stats = EvalStats::default();
        let outcome = if threads <= 1 {
            driver.run(&mut stats, in_place, recover)
        } else {
            let (job_tx, job_rx) = mpsc::channel::<Job<'_>>();
            let job_queue = Mutex::new(job_rx);
            let (out_tx, out_rx) = mpsc::channel::<JobOutcome>();
            thread::scope(|scope| {
                // The driver runs one job per round itself, so it is the Nth
                // compute thread: spawn N−1 pool workers.
                for _ in 0..threads - 1 {
                    let results = out_tx.clone();
                    let queue = &job_queue;
                    let shared = &lock;
                    let gov = &governor;
                    let poi = &poison;
                    scope.spawn(move || worker(queue, results, shared, gov, poi));
                }
                // Workers hold clones; dropping the original lets a round's
                // collect fail fast (instead of hanging) if the pool ever dies.
                drop(out_tx);
                let outcome = driver.run(
                    &mut stats,
                    |jobs| {
                        // The driver thread is a worker too: hand all but the
                        // first job to the pool, run the first one in place
                        // (small rounds — the serial tail of a fixpoint — never
                        // pay a channel round-trip), then collect the rest.
                        let expected = jobs.len();
                        let mut outcomes = Vec::with_capacity(expected);
                        let mut jobs = jobs.into_iter();
                        let first = jobs.next();
                        for job in jobs {
                            let (id, rule_ix) = (job.id, job.rule_ix);
                            if job_tx.send(job).is_err() {
                                outcomes.push(JobOutcome {
                                    id,
                                    rule_ix,
                                    wall: Duration::ZERO,
                                    result: Err(pool_died()),
                                });
                            }
                        }
                        if let Some(job) = first {
                            outcomes.push(run_job(job, &read(&lock), &governor, &poison));
                        }
                        while outcomes.len() < expected {
                            match out_rx.recv() {
                                Ok(outcome) => outcomes.push(outcome),
                                Err(_) => {
                                    outcomes.push(JobOutcome {
                                        id: usize::MAX,
                                        rule_ix: 0,
                                        wall: Duration::ZERO,
                                        result: Err(pool_died()),
                                    });
                                    break;
                                }
                            }
                        }
                        outcomes
                    },
                    recover,
                );
                // Closing the job queue ends the workers; the scope joins them.
                drop(job_tx);
                outcome
            })
        };
        match outcome {
            Ok(()) => Ok((
                lock.into_inner().unwrap_or_else(PoisonError::into_inner),
                stats,
            )),
            // Cancelled errors pick up the run's accumulated statistics here —
            // governor checkpoints deep in the evaluation cannot see them.
            Err(e) => Err(e.with_partial_stats(stats)),
        }
    }
}

/// Run `program` on `input` and read off the unary output relation `output`,
/// i.e. evaluate the *flat unary query* the program computes (Section 3.1).
///
/// # Errors
/// Any evaluation error (unsafe program, resource limits, …).
pub fn run_unary_query(
    program: &Program,
    input: &Instance,
    output: RelName,
) -> Result<BTreeSet<Path>, EvalError> {
    Ok(Executor::new().run(program, input)?.unary_paths(output))
}

/// Run `program` on `input` and read off a nullary (boolean) output relation.
///
/// # Errors
/// Any evaluation error (unsafe program, resource limits, …).
pub fn run_boolean_query(
    program: &Program,
    input: &Instance,
    output: RelName,
) -> Result<bool, EvalError> {
    Ok(Executor::new().run(program, input)?.nullary_true(output))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use seqdl_core::{path_of, rel, repeat_path, CoreError};
    use seqdl_syntax::parse_program;

    fn graph_instance(edges: &[(&str, &str)]) -> Instance {
        let mut input = Instance::new();
        for (x, y) in edges {
            input
                .insert_fact(Fact::new(rel("R"), vec![path_of(&[x, y])]))
                .unwrap();
        }
        input
    }

    #[test]
    fn nonrecursive_strata_take_a_single_pass() {
        // Two declared strata, each a single level: one round per stratum.
        let program = parse_program("T($x) <- R($x).\n---\nS($x) <- T($x), !B($x).").unwrap();
        let input = Instance::unary(rel("R"), [path_of(&["a"]), path_of(&["b"])]);
        let (out, stats) = Executor::new().run_with_stats(&program, &input).unwrap();
        assert_eq!(out.unary_paths(rel("S")).len(), 2);
        assert_eq!(stats.strata.len(), 2);
        for stratum in &stats.strata {
            assert_eq!(stratum.iterations, 1, "single pass per stratum: {stats:?}");
        }
        // The pool runs the same driver: the same rounds and firings.
        let (_, pooled) = Executor::new()
            .with_threads(4)
            .run_with_stats(&program, &input)
            .unwrap();
        assert_eq!(pooled.iterations, stats.iterations);
        assert_eq!(pooled.rule_firings, stats.rule_firings);
    }

    #[test]
    fn nonrecursive_chain_takes_one_round_per_level() {
        let program =
            parse_program("T1($x) <- R($x).\nT2($x) <- T1($x).\nS($x) <- T2($x).").unwrap();
        let input = Instance::unary(rel("R"), [path_of(&["a"])]);
        let (out, stats) = Executor::new().run_with_stats(&program, &input).unwrap();
        assert_eq!(out.unary_paths(rel("S")).len(), 1);
        assert_eq!(stats.strata[0].iterations, 3, "one round per level");
        assert_eq!(stats.rule_firings, 3, "each rule fired exactly once");
    }

    /// The output at one thread, checked equal at two and four threads.
    fn assert_thread_counts_agree(program: &Program, input: &Instance) -> Instance {
        let one = Executor::new().run(program, input).unwrap();
        for threads in [2usize, 4] {
            let many = Executor::new()
                .with_threads(threads)
                .run(program, input)
                .unwrap();
            assert_eq!(one, many, "threads = {threads}");
        }
        one
    }

    #[test]
    fn thread_counts_agree_on_recursive_programs() {
        let program = parse_program(
            "T(@x·@y) <- R(@x·@y).\nT(@x·@z) <- T(@x·@y), R(@y·@z).\nS($p) <- T($p).",
        )
        .unwrap();
        let input = graph_instance(&[("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("b", "e")]);
        assert_thread_counts_agree(&program, &input);
    }

    #[test]
    fn semi_naive_closure_on_a_cycle_is_the_least_fixpoint() {
        let program = parse_program(
            "T(@x·@y) <- R(@x·@y).\nT(@x·@z) <- T(@x·@y), R(@y·@z).\nS($p) <- T($p).",
        )
        .unwrap();
        let input = graph_instance(&[("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("b", "e")]);
        let output = Executor::new().run(&program, &input).unwrap();
        // The least fixpoint: a, b, c and d lie on one cycle and each reach
        // all five nodes; e reaches none.
        assert_eq!(output.unary_paths(rel("S")).len(), 5 + 4 + 4 + 4 + 3);
    }

    #[test]
    fn thread_counts_agree_on_mutual_recursion_and_negation() {
        let program = parse_program(
            "P($x) <- R($x·a).\nP($x) <- Q($x·b).\nQ($x) <- P($x·a).\nQ($x) <- R($x).\n---\n\
             S($x) <- Q($x), !P($x).",
        )
        .unwrap();
        let input = Instance::unary(
            rel("R"),
            [
                path_of(&["a", "a", "a", "b"]),
                path_of(&["b", "a"]),
                path_of(&["a", "b", "a", "a"]),
            ],
        );
        assert_thread_counts_agree(&program, &input);
    }

    #[test]
    fn same_level_independent_components_evaluate_together() {
        let program =
            parse_program("T($x) <- R($x).\nU($x·$x) <- R($x).\nS($x) <- T($x), U($x·$x).")
                .unwrap();
        let input = Instance::unary(rel("R"), [path_of(&["a"]), path_of(&["b"])]);
        let (out, stats) = Executor::new()
            .with_threads(2)
            .run_with_stats(&program, &input)
            .unwrap();
        assert_eq!(out.unary_paths(rel("S")).len(), 2);
        // T and U share level 0, S is level 1: two rounds total.
        assert_eq!(stats.strata[0].iterations, 2);
    }

    #[test]
    fn independent_recursive_components_advance_in_lock_step() {
        // P and Q are independent suffix-closure recursions sharing level 0:
        // the group fixpoint pools both components' jobs per round, so the
        // stratum's round count is driven by the *deeper* component (P over the
        // length-4 path: 5 productive rounds + 1 convergence round = 6), not
        // the sum of both components' fixpoints (6 + 4 = 10 run serially).
        let program = parse_program(
            "P($x) <- R($x).\nP($y) <- P(@u·$y).\nQ($x) <- S($x).\nQ($y) <- Q(@u·$y).",
        )
        .unwrap();
        let mut input = Instance::unary(rel("R"), [path_of(&["a", "b", "c", "d"])]);
        input
            .insert_fact(Fact::new(rel("S"), vec![path_of(&["x", "y"])]))
            .unwrap();
        let one = assert_thread_counts_agree(&program, &input);
        for threads in [1usize, 2, 4] {
            let (out, stats) = Executor::new()
                .with_threads(threads)
                .run_with_stats(&program, &input)
                .unwrap();
            assert_eq!(one, out, "threads = {threads}");
            assert_eq!(stats.strata[0].iterations, 6, "lock-step rounds: {stats:?}");
        }
    }

    #[test]
    fn diverging_programs_hit_the_iteration_limit() {
        let program = parse_program("T(a).\nT(a·$x) <- T($x).").unwrap();
        let tight = EvalLimits {
            max_iterations: 20,
            max_facts: 100_000,
            max_path_len: 100_000,
            ..EvalLimits::default()
        };
        for threads in [1usize, 4] {
            let err = Executor::new()
                .with_limits(tight)
                .with_threads(threads)
                .run(&program, &Instance::new())
                .unwrap_err();
            assert!(matches!(err, EvalError::LimitExceeded { .. }), "{err}");
        }
    }

    #[test]
    fn idb_relations_in_the_input_are_rejected() {
        let program = parse_program("S($x) <- R($x).").unwrap();
        let input = Instance::unary(rel("S"), [path_of(&["a"])]);
        assert!(matches!(
            Executor::new().run(&program, &input),
            Err(EvalError::IdbRelationInInput { .. })
        ));
    }

    #[test]
    fn input_relations_at_another_arity_are_rejected() {
        // R is read at arity 1 but the input declares it at arity 2: read as
        // absent, `!R(@x)` would hold and `U` would come out empty.
        let program = parse_program("S(@x) <- T(@x), !R(@x).\nU(@x) <- R(@x).").unwrap();
        let mut input = Instance::unary(rel("T"), [path_of(&["a"])]);
        input
            .insert_fact(Fact::new(rel("R"), vec![path_of(&["a"]), path_of(&["b"])]))
            .unwrap();
        let seeds = [Fact::new(rel("S"), vec![path_of(&["b"])])];
        for threads in [1usize, 4] {
            let exec = Executor::new().with_threads(threads);
            for result in [
                exec.run(&program, &input),
                exec.run_seeded(&program, &input, &seeds),
            ] {
                match result {
                    Err(EvalError::Data(CoreError::ArityMismatch {
                        relation,
                        expected: 1,
                        found: 2,
                    })) => assert_eq!(relation, rel("R")),
                    other => {
                        panic!("threads = {threads}: expected an arity mismatch, got {other:?}")
                    }
                }
            }
        }
        // The same relation at the program's arity evaluates.
        let mut input = Instance::unary(rel("T"), [path_of(&["a"])]);
        input
            .insert_fact(Fact::new(rel("R"), vec![path_of(&["b"])]))
            .unwrap();
        let out = Executor::new().run(&program, &input).unwrap();
        assert_eq!(out.unary_paths(rel("S")).len(), 1);
        assert_eq!(out.unary_paths(rel("U")).len(), 1);
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        let exec = Executor::new().with_threads(0);
        assert!(exec.effective_threads() >= 1);
        let program = parse_program("S($x) <- R($x).").unwrap();
        let input = Instance::unary(rel("R"), [path_of(&["a"])]);
        assert_eq!(
            exec.run(&program, &input)
                .unwrap()
                .unary_paths(rel("S"))
                .len(),
            1
        );
    }

    #[test]
    fn shard_policy_clamps_the_shard_count() {
        let policy = ShardPolicy {
            base: 128,
            max_shards: 8,
        };
        // Small deltas keep the base size (one or a few jobs).
        assert_eq!(policy.size_for(100), 128);
        assert_eq!(policy.size_for(1024), 128);
        // A huge delta is split into at most `max_shards` jobs.
        assert_eq!(policy.size_for(10_000), 1250);
        assert!(10_000usize.div_ceil(policy.size_for(10_000)) <= 8);
        // Degenerate configurations stay usable.
        let tiny = ShardPolicy {
            base: 0,
            max_shards: 0,
        };
        assert_eq!(tiny.size_for(5), 5);
    }

    #[test]
    fn custom_shard_sizes_preserve_the_output() {
        let program = parse_program("T($x) <- R($x).\nT($y) <- T(@u·$y).").unwrap();
        let paths: Vec<_> = (0..50)
            .map(|i| path_of(&[&format!("n{i}"), "x", "y"]))
            .collect();
        let input = Instance::unary(rel("R"), paths);
        let sequential = Executor::new().run(&program, &input).unwrap();
        for (threads, shard) in [(1usize, 1usize), (2, 7), (4, 1000)] {
            let exec = Executor::new().with_threads(threads).with_shard_size(shard);
            assert_eq!(exec.shard_size(), shard.max(1));
            let parallel = exec.run(&program, &input).unwrap();
            assert_eq!(sequential, parallel, "threads = {threads}, shard = {shard}");
        }
        // A zero shard size is clamped to 1 instead of dividing by zero.
        assert_eq!(Executor::new().with_shard_size(0).shard_size(), 1);
    }

    #[test]
    fn seeded_runs_inject_demand_before_the_first_stratum() {
        // The seed populates an IDB relation — plain inputs must not do that,
        // demand seeds may.
        let program = parse_program("T($x) <- M($x).\nT($y) <- T(@u·$y).\nM(z).").unwrap();
        let seeds = vec![Fact::new(rel("M"), vec![path_of(&["a", "b"])])];
        let out = Executor::new()
            .with_threads(2)
            .run_seeded(&program, &Instance::new(), &seeds)
            .unwrap();
        let t = out.unary_paths(rel("T"));
        assert!(t.contains(&path_of(&["a", "b"])));
        assert!(t.contains(&path_of(&["b"])));
        let in_place = Executor::new()
            .run_seeded(&program, &Instance::new(), &seeds)
            .unwrap();
        assert_eq!(in_place, out);
    }

    #[test]
    fn delta_sharding_covers_large_deltas() {
        // A recursive component whose first delta exceeds one shard (> 128
        // tuples): suffixes of a long path, derived one per iteration, but the
        // *base* rule's initial pass seeds > 128 tuples at once via R.
        let program = parse_program("T($x) <- R($x).\nT($y) <- T(@u·$y).").unwrap();
        let paths: Vec<_> = (0..300)
            .map(|i| path_of(&[&format!("n{i}"), "x"]))
            .collect();
        let input = Instance::unary(rel("R"), paths);
        assert_thread_counts_agree(&program, &input);
    }

    #[test]
    fn stats_report_iterations_and_facts() {
        let program = parse_program("S($x) <- R($x).").unwrap();
        let input = Instance::unary(rel("R"), [path_of(&["a"]), path_of(&["b"])]);
        let (_, stats) = Executor::new().run_with_stats(&program, &input).unwrap();
        assert_eq!(stats.derived_facts, 2);
        assert!(stats.iterations >= 1);
        assert_eq!(stats.rule_firings, 2);
    }

    #[test]
    fn empty_idb_relations_are_declared_in_the_output() {
        let program = parse_program("S($x) <- R($x), a·$x = $x·a.").unwrap();
        let input = Instance::unary(rel("R"), [path_of(&["b"])]);
        let out = Executor::new().run(&program, &input).unwrap();
        assert!(out.relation(rel("S")).is_some());
        assert!(out.unary_paths(rel("S")).is_empty());
    }

    #[test]
    fn unsafe_programs_are_rejected_before_evaluation() {
        let program = parse_program("S($y) <- R($x).").unwrap();
        assert!(matches!(
            Executor::new().run(&program, &Instance::new()),
            Err(EvalError::IllFormed(_))
        ));
    }

    #[test]
    fn unary_and_boolean_helpers() {
        let program = parse_program("S($x) <- R($x), a·$x = $x·a.").unwrap();
        let input = Instance::unary(rel("R"), [repeat_path("a", 2)]);
        let paths = run_unary_query(&program, &input, rel("S")).unwrap();
        assert_eq!(paths.len(), 1);

        let boolean = parse_program("A <- R($x), a·$x = $x·a.").unwrap();
        assert!(run_boolean_query(&boolean, &input, rel("A")).unwrap());
        let empty = Instance::unary(rel("R"), []);
        assert!(!run_boolean_query(&boolean, &empty, rel("A")).unwrap());
    }
}
