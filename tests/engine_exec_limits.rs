//! Regression tests pinning `max_iterations` behaviour of the one fixpoint
//! driver, through `Engine` and through the executor at 1, 2, and 4 threads.
//!
//! The limit bounds *rounds per scheduled fixpoint*: each dependency level of
//! a stratum is one scheduled fixpoint, and its rounds are the level's merge
//! round (when it has a merge section) plus the rounds of its loops, which
//! advance in lock-step.  `Engine` runs the same driver as the executor, so
//! both hit `LimitExceeded` at exactly the same limit, at any thread count.

use sequence_datalog::engine::{EvalError, EvalLimits};
use sequence_datalog::exec::Executor;
use sequence_datalog::prelude::*;

fn engine_with_max_iterations(max_iterations: usize) -> Engine {
    Engine::new().with_limits(EvalLimits {
        max_iterations,
        max_facts: 100_000,
        max_path_len: 100_000,
        ..EvalLimits::default()
    })
}

/// Suffix-closure program: on a single length-5 path its one level needs the
/// merge round (the base rule) plus 6 loop rounds (5 productive rounds and
/// the round that detects convergence), i.e. it converges iff the limit
/// allows 7 rounds.
fn suffix_program() -> Program {
    parse_program("T($x) <- R($x).\nT($y) <- T(@u·$y).").unwrap()
}

fn suffix_input() -> Instance {
    Instance::unary(rel("R"), [path_of(&["a", "b", "c", "d", "e"])])
}

#[test]
fn limits_trigger_identically_on_recursive_strata() {
    let program = suffix_program();
    let input = suffix_input();
    for (limit, expect_ok) in [(7usize, true), (6, false), (1, false)] {
        let engine = engine_with_max_iterations(limit);
        let engine_result = engine.run(&program, &input);
        assert_eq!(
            engine_result.is_ok(),
            expect_ok,
            "engine at limit {limit}: {engine_result:?}"
        );
        for threads in [1usize, 2, 4] {
            let exec_result = Executor::new()
                .with_engine(engine.clone())
                .with_threads(threads)
                .run(&program, &input);
            assert_eq!(
                exec_result.is_ok(),
                expect_ok,
                "executor ({threads} threads) at limit {limit}: {exec_result:?}"
            );
            match (&engine_result, &exec_result) {
                (Ok(a), Ok(b)) => assert_eq!(a, b),
                (Err(a), Err(b)) => {
                    assert!(matches!(a, EvalError::LimitExceeded { .. }), "{a}");
                    assert_eq!(a, b, "identical limit errors");
                }
                _ => unreachable!("checked above"),
            }
        }
    }
}

#[test]
fn diverging_programs_fail_identically_at_every_thread_count() {
    let program = parse_program("T(a).\nT(a·$x) <- T($x).").unwrap();
    let engine = engine_with_max_iterations(25);
    let engine_err = engine.run(&program, &Instance::new()).unwrap_err();
    assert!(matches!(engine_err, EvalError::LimitExceeded { .. }));
    for threads in [1usize, 2, 4] {
        let exec_err = Executor::new()
            .with_engine(engine.clone())
            .with_threads(threads)
            .run(&program, &Instance::new())
            .unwrap_err();
        assert_eq!(engine_err, exec_err, "threads = {threads}");
    }
}

#[test]
fn single_pass_rounds_respect_the_limit_without_being_stricter_than_the_engine() {
    // Three dependency levels are three scheduled fixpoints of one merge
    // round each: any limit ≥ 1 passes, while a zero limit forbids
    // evaluation, through the engine and at every thread count.
    let program = parse_program("T1($x) <- R($x).\nT2($x) <- T1($x).\nS($x) <- T2($x).").unwrap();
    let input = Instance::unary(rel("R"), [path_of(&["a"])]);
    let (_, stats) = engine_with_max_iterations(1)
        .run_with_stats(&program, &input)
        .unwrap();
    assert_eq!(stats.strata[0].iterations, 3, "one round per level");
    for threads in [1usize, 2, 4] {
        let exec = |limit| {
            Executor::new()
                .with_engine(engine_with_max_iterations(limit))
                .with_threads(threads)
                .run_with_stats(&program, &input)
        };
        let (_, exec_stats) = exec(1).unwrap();
        assert_eq!(exec_stats.iterations, stats.iterations);
        assert!(
            matches!(exec(0), Err(EvalError::LimitExceeded { .. })),
            "threads = {threads}"
        );
    }
    assert!(matches!(
        engine_with_max_iterations(0).run(&program, &input),
        Err(EvalError::LimitExceeded { .. })
    ));
}

#[test]
fn executor_is_never_stricter_than_the_engine_on_chained_recursion() {
    // Two dependent recursive components in one stratum are two levels, and
    // each level is its own scheduled fixpoint.  Level {A}: the merge round
    // plus 5 loop rounds over the suffixes of a·b·c·d = 6.  Level {B}: the
    // merge round copying A plus 1 loop round finding nothing new = 2.  The
    // limit applies per level, so 6 is the threshold, and the stratum takes
    // 8 rounds in total.
    let program =
        parse_program("A($x) <- R($x).\nA($y) <- A(@u·$y).\nB($x) <- A($x).\nB($y) <- B(@u·$y).")
            .unwrap();
    let input = Instance::unary(rel("R"), [path_of(&["a", "b", "c", "d"])]);
    for (limit, expect_ok) in [(5usize, false), (6, true), (20, true)] {
        let engine = engine_with_max_iterations(limit);
        let engine_result = engine.run_with_stats(&program, &input);
        assert_eq!(engine_result.is_ok(), expect_ok, "limit {limit}");
        for threads in [1usize, 2, 4] {
            let exec_result = Executor::new()
                .with_engine(engine.clone())
                .with_threads(threads)
                .run_with_stats(&program, &input);
            match (&engine_result, &exec_result) {
                (Ok((a, a_stats)), Ok((b, b_stats))) => {
                    assert_eq!(a, b, "limit {limit}, threads {threads}");
                    assert_eq!(a_stats.strata[0].iterations, 8);
                    assert_eq!(b_stats.strata[0].iterations, 8);
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "limit {limit}, threads {threads}"),
                _ => panic!("limit {limit}, threads {threads}: engine and executor disagree"),
            }
        }
    }
}
