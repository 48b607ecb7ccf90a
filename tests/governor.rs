//! Acceptance tests for the resource governor: wall-clock deadlines,
//! deterministic countdown cancellation through the parallel executor, and
//! the path-store byte budget.

use std::time::{Duration, Instant};

use sequence_datalog::core::CancelToken;
use sequence_datalog::engine::{EvalError, EvalLimits, LimitKind};
use sequence_datalog::exec::Executor;
use sequence_datalog::prelude::*;
use sequence_datalog::wgen::Workloads;

/// A program that grows a path forever; only the governor can stop it once
/// the classic limits are pushed out of the way.
fn diverging_program() -> Program {
    parse_program("T(a).\nT(a·$x) <- T($x).").unwrap()
}

fn unlimited() -> EvalLimits {
    EvalLimits {
        max_iterations: 100_000_000,
        max_facts: 100_000_000,
        max_path_len: 100_000_000,
        ..EvalLimits::default()
    }
}

#[test]
fn deadline_cancels_a_diverging_run_promptly() {
    let deadline = Duration::from_millis(50);
    let executor = Executor::new().with_limits(EvalLimits {
        deadline: Some(deadline),
        ..unlimited()
    });
    let started = Instant::now();
    let result = executor.run_with_stats(&diverging_program(), &Instance::new());
    let elapsed = started.elapsed();

    match result {
        Err(EvalError::Cancelled {
            reason,
            partial_stats,
        }) => {
            assert!(reason.contains("deadline"), "reason: {reason}");
            assert!(
                partial_stats.iterations > 0,
                "partial stats should record the work done before the \
                 deadline: {partial_stats:?}"
            );
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
    // The governor checks at every fixpoint round and every few thousand
    // interpreter instructions, so overshoot past the deadline is bounded by
    // one checkpoint interval.  Debug builds are slow; 2 s is still within
    // the acceptance envelope's spirit and catches any unbounded hang.
    assert!(
        elapsed < Duration::from_secs(2),
        "run overshot its 50ms deadline by too much: {elapsed:?}"
    );
}

#[test]
fn deadline_on_reachability_bench_terminates_within_bound() {
    // The §5.1.1 reachability workload on a 128-node random digraph — the
    // acceptance benchmark for `--timeout 50ms`.  A fast machine may finish
    // under the deadline (that is success too); either way the run must
    // terminate promptly and a cancelled run must carry partial stats.
    let program = parse_program("T(@x·@y) <- R(@x·@y).\nT(@x·@z) <- T(@x·@y), R(@y·@z).").unwrap();
    let input = Workloads::new(17).digraph_instance(128, 512);
    let deadline = Duration::from_millis(50);
    let started = Instant::now();
    let result = Executor::new()
        .with_limits(EvalLimits {
            deadline: Some(deadline),
            ..unlimited()
        })
        .with_threads(4)
        .run_with_stats(&program, &input);
    let elapsed = started.elapsed();

    match result {
        Ok((_, stats)) => assert!(stats.iterations > 0),
        Err(EvalError::Cancelled {
            reason,
            partial_stats,
        }) => {
            assert!(reason.contains("deadline"), "reason: {reason}");
            assert!(partial_stats.rule_firings > 0 || partial_stats.iterations > 0);
        }
        Err(other) => panic!("unexpected error: {other}"),
    }
    assert!(
        elapsed < Duration::from_secs(2),
        "reachability run did not respect its deadline: {elapsed:?}"
    );
}

#[test]
fn countdown_cancellation_works_through_the_executor() {
    // The deterministic countdown hits a governor checkpoint regardless of
    // machine speed, so this pins the full cancellation path — token to
    // checkpoint to `Cancelled` — without any wall-clock dependence.
    for threads in [1usize, 4] {
        let token = CancelToken::new();
        token.cancel_after(5);
        let result = Executor::new()
            .with_limits(unlimited())
            .with_cancel_token(token)
            .with_threads(threads)
            .run_with_stats(&diverging_program(), &Instance::new());
        match result {
            Err(EvalError::Cancelled { reason, .. }) => {
                assert_eq!(
                    reason, "test countdown elapsed",
                    "threads {threads}: wrong reason"
                );
            }
            other => panic!("threads {threads}: expected Cancelled, got {other:?}"),
        }
    }
}

#[test]
fn store_byte_budget_surfaces_limit_exceeded() {
    // The diverging program interns an ever-longer path each round; a small
    // byte budget must stop it with the StoreBytes limit, not a deadline.
    let executor = Executor::new().with_limits(EvalLimits {
        max_store_bytes: Some(4 * 1024),
        ..unlimited()
    });
    let result = executor.run(&diverging_program(), &Instance::new());
    match result {
        Err(EvalError::LimitExceeded { what, limit }) => {
            assert_eq!(what, LimitKind::StoreBytes);
            assert_eq!(limit, 4 * 1024);
        }
        other => panic!("expected StoreBytes limit, got {other:?}"),
    }
}
