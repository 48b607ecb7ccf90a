//! Regression tests pinning `max_iterations` behaviour of the one fixpoint
//! driver, through the executor at 1, 2, and 4 threads.
//!
//! The limit bounds *rounds per scheduled fixpoint*: each dependency level of
//! a stratum is one scheduled fixpoint, and its rounds are the level's merge
//! round (when it has a merge section) plus the rounds of its loops, which
//! advance in lock-step.  Every thread count runs the same driver, so the
//! in-place run at one thread and the pool at two and four hit
//! `LimitExceeded` at exactly the same limit; a run that converges matches
//! the reference evaluator (`tests/reference`).

mod reference;

use sequence_datalog::engine::{EvalError, EvalLimits};
use sequence_datalog::exec::Executor;
use sequence_datalog::prelude::*;

fn executor(max_iterations: usize, threads: usize) -> Executor {
    Executor::new()
        .with_limits(EvalLimits {
            max_iterations,
            max_facts: 100_000,
            max_path_len: 100_000,
            ..EvalLimits::default()
        })
        .with_threads(threads)
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
    let expected = reference::evaluate(&program, &input);
    for (limit, expect_ok) in [(7usize, true), (6, false), (1, false)] {
        let one = executor(limit, 1).run(&program, &input);
        assert_eq!(
            one.is_ok(),
            expect_ok,
            "one thread at limit {limit}: {one:?}"
        );
        match &one {
            Ok(out) => assert_eq!(out, &expected, "limit {limit}"),
            Err(e) => assert!(matches!(e, EvalError::LimitExceeded { .. }), "{e}"),
        }
        for threads in [2usize, 4] {
            let many = executor(limit, threads).run(&program, &input);
            assert_eq!(one, many, "{threads} threads at limit {limit}");
        }
    }
}

#[test]
fn diverging_programs_fail_identically_at_every_thread_count() {
    let program = parse_program("T(a).\nT(a·$x) <- T($x).").unwrap();
    let one = executor(25, 1).run(&program, &Instance::new()).unwrap_err();
    assert!(matches!(one, EvalError::LimitExceeded { .. }));
    for threads in [2usize, 4] {
        let many = executor(25, threads)
            .run(&program, &Instance::new())
            .unwrap_err();
        assert_eq!(one, many, "threads = {threads}");
    }
}

#[test]
fn single_pass_rounds_respect_the_limit_without_being_stricter_than_the_engine() {
    // Three dependency levels are three scheduled fixpoints of one merge
    // round each: any limit ≥ 1 passes, while a zero limit forbids
    // evaluation, at every thread count.
    let program = parse_program("T1($x) <- R($x).\nT2($x) <- T1($x).\nS($x) <- T2($x).").unwrap();
    let input = Instance::unary(rel("R"), [path_of(&["a"])]);
    let expected = reference::evaluate(&program, &input);
    for threads in [1usize, 2, 4] {
        let (out, stats) = executor(1, threads)
            .run_with_stats(&program, &input)
            .unwrap();
        assert_eq!(out, expected, "threads = {threads}");
        assert_eq!(stats.strata[0].iterations, 3, "one round per level");
        assert_eq!(stats.iterations, 3, "threads = {threads}");
        assert!(
            matches!(
                executor(0, threads).run(&program, &input),
                Err(EvalError::LimitExceeded { .. })
            ),
            "threads = {threads}"
        );
    }
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
    let expected = reference::evaluate(&program, &input);
    for (limit, expect_ok) in [(5usize, false), (6, true), (20, true)] {
        let one = executor(limit, 1).run_with_stats(&program, &input);
        assert_eq!(one.is_ok(), expect_ok, "limit {limit}");
        if let Ok((out, stats)) = &one {
            assert_eq!(out, &expected, "limit {limit}");
            assert_eq!(stats.strata[0].iterations, 8);
        }
        for threads in [2usize, 4] {
            let many = executor(limit, threads).run_with_stats(&program, &input);
            match (&one, &many) {
                (Ok((a, a_stats)), Ok((b, b_stats))) => {
                    assert_eq!(a, b, "limit {limit}, threads {threads}");
                    assert_eq!(a_stats.strata[0].iterations, b_stats.strata[0].iterations);
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "limit {limit}, threads {threads}"),
                _ => panic!("limit {limit}, threads {threads}: thread counts disagree"),
            }
        }
    }
}
