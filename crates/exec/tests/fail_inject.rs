//! Differential fault-injection tests for panic containment and recovery.
//!
//! Compiled only with `--features fail-inject`: the injector arms a global
//! countdown and the chosen job panics inside the executor's `catch_unwind`
//! region.  The tests prove the full robustness story — the panic poisons
//! the run, surviving jobs drain, the driver re-runs the stratum in place and
//! still produces an output identical to an uninjected run; and a panic that
//! recurs on that retry surfaces as `WorkerPanic` instead of unwinding.
#![cfg(feature = "fail-inject")]

use seqdl_core::{path_of, rel, Fact, Instance};
use seqdl_engine::EvalError;
use seqdl_exec::{fail, Executor};
use seqdl_syntax::parse_program;

fn reachability_program() -> seqdl_syntax::Program {
    parse_program("T(@x·@y) <- R(@x·@y).\nT(@x·@z) <- T(@x·@y), R(@y·@z).\nS($p) <- T($p).")
        .unwrap()
}

fn graph_instance() -> Instance {
    let mut input = Instance::new();
    for (x, y) in [
        ("a", "b"),
        ("b", "c"),
        ("c", "d"),
        ("d", "e"),
        ("e", "a"),
        ("b", "f"),
        ("f", "g"),
    ] {
        input
            .insert_fact(Fact::new(rel("R"), vec![path_of(&[x, y])]))
            .unwrap();
    }
    input
}

/// The single test entry point: the injector's countdown is process-global
/// state, so every scenario runs serially inside one `#[test]`.
#[test]
fn injected_worker_panics_recover_or_surface() {
    let program = reachability_program();
    let input = graph_instance();
    let reference = Executor::new().run(&program, &input).unwrap();

    // Recovery: the injected panic poisons the run, the stratum retries in
    // place, and the final instance is identical to the uninjected reference
    // — at every thread count and at two different injection points.
    for threads in [1usize, 2, 4] {
        for k in [0usize, 2] {
            fail::arm(k);
            let out = Executor::new()
                .with_threads(threads)
                .run(&program, &input)
                .unwrap_or_else(|e| panic!("threads={threads}, k={k}: recovery failed with {e}"));
            assert!(
                !fail::armed(),
                "threads={threads}, k={k}: the fault was never injected"
            );
            assert_eq!(reference, out, "threads={threads}, k={k}");
        }
    }

    // A panic that recurs on the retry is contained again: the run returns
    // WorkerPanic with the offending rule's rendering and the panic payload
    // instead of unwinding.
    for threads in [1usize, 4] {
        fail::arm_repeating(0);
        let err = Executor::new()
            .with_threads(threads)
            .run(&program, &input)
            .unwrap_err();
        fail::disarm();
        match &err {
            EvalError::WorkerPanic { rule, detail } => {
                assert!(!rule.is_empty(), "rule rendering missing: {err}");
                assert!(
                    detail.contains("fail-inject"),
                    "panic payload not preserved: {err}"
                );
            }
            other => panic!("threads={threads}: expected WorkerPanic, got {other}"),
        }
    }
    fail::disarm();

    // A disarmed injector never fires: plain runs stay clean.
    let out = Executor::new()
        .with_threads(4)
        .run(&program, &input)
        .unwrap();
    assert_eq!(reference, out);
}
