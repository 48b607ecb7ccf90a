//! wgen-driven differential property test for the tracing layer: recording a
//! run (spans + counters) must be invisible to evaluation — the traced run
//! derives exactly the same instance and the same core statistics as the
//! untraced run, through the executor at one and four threads.  The recorded spans themselves must be well-formed:
//! every begin has a matching end on its thread, per-thread timestamps are
//! monotone, and nesting follows the run → stratum → level → round →
//! rule/merge hierarchy.
//!
//! Tracing is process-global (one session at a time), so every test in this
//! binary serializes on [`TEST_LOCK`]; sessions from other test *binaries*
//! are separate processes and cannot interfere.

use proptest::prelude::*;
use sequence_datalog::engine::EvalStats;
use sequence_datalog::exec::Executor;
use sequence_datalog::prelude::*;
use sequence_datalog::trace;
use sequence_datalog::wgen::{ProgramConfig, ProgramGenerator, Workloads};
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Strip the wall-clock fields, which legitimately differ between two runs of
/// the same workload; everything else must match exactly.
fn normalized(stats: &EvalStats) -> EvalStats {
    let mut stats = stats.clone();
    for stratum in &mut stats.strata {
        stratum.wall = Duration::ZERO;
    }
    for rule in &mut stats.rules {
        rule.wall = Duration::ZERO;
    }
    stats
}

/// The nesting rank of a span name: a span may only open inside a span of
/// equal or lower rank (worker threads open `rule` spans with no enclosing
/// context, which is also fine — the stack is empty there).
fn rank(name: &str) -> u32 {
    if name == "run" {
        0
    } else if name.starts_with("recover stratum") {
        2
    } else if name.starts_with("stratum") {
        1
    } else if name.starts_with("level") {
        3
    } else if name.starts_with("round") {
        4
    } else if name == "merge" || name.starts_with("rule") {
        5
    } else {
        panic!("unknown span name {name:?}");
    }
}

/// Check span well-formedness over one session's events (already stably
/// sorted by timestamp with per-thread order preserved).
fn check_well_formed(events: &[trace::Event]) {
    let mut stacks: HashMap<u32, Vec<&str>> = HashMap::new();
    let mut last_ts: HashMap<u32, u64> = HashMap::new();
    for event in events {
        let prev = last_ts.entry(event.tid).or_insert(0);
        assert!(
            event.ts_us >= *prev,
            "timestamps must be monotone per thread: {} then {} on tid {}",
            prev,
            event.ts_us,
            event.tid
        );
        *prev = event.ts_us;
        match event.kind {
            trace::EventKind::Begin => {
                let stack = stacks.entry(event.tid).or_default();
                if let Some(parent) = stack.last() {
                    assert!(
                        rank(&event.name) >= rank(parent),
                        "span {:?} must not open inside {:?}",
                        event.name,
                        parent
                    );
                }
                stack.push(&event.name);
            }
            trace::EventKind::End => {
                let top = stacks
                    .get_mut(&event.tid)
                    .and_then(Vec::pop)
                    .unwrap_or_else(|| panic!("end of {:?} without a begin", event.name));
                assert_eq!(top, event.name, "spans must close in LIFO order");
            }
            trace::EventKind::Counter | trace::EventKind::Instant => {}
        }
    }
    for (tid, stack) in stacks {
        assert!(stack.is_empty(), "unclosed spans on tid {tid}: {stack:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn tracing_changes_neither_results_nor_statistics(
        seed in 0u64..(1u64 << 32),
        salt in 0u64..(1u64 << 32),
        allow_equations in any::<bool>(),
        allow_negation in any::<bool>(),
    ) {
        let _serial = lock();
        let config = ProgramConfig {
            allow_equations,
            allow_negation,
            allow_recursion: true,
            ..ProgramConfig::default()
        };
        let program = ProgramGenerator::new(seed).random_program(salt, &config);
        let mut input = Workloads::new(seed ^ salt).random_flat_instance(2, 3, 4, 2);
        input.declare_relation(rel("R0"), 1);
        input.declare_relation(rel("R1"), 1);

        // The executor at one and four threads: traced ≡ untraced.
        for threads in [1usize, 4] {
            let (plain_out, plain_stats) = Executor::new()
                .with_threads(threads)
                .run_with_stats(&program, &input)
                .unwrap_or_else(|e| panic!("untraced executor run failed: {e}\n{program}"));
            let session = trace::start();
            let traced = Executor::new()
                .with_threads(threads)
                .run_with_stats(&program, &input);
            let events = session.finish();
            let (traced_out, traced_stats) = traced
                .unwrap_or_else(|e| panic!("traced executor run failed: {e}\n{program}"));
            prop_assert_eq!(
                &plain_out,
                &traced_out,
                "executor (threads = {}) outputs differ on\n{}",
                threads,
                &program
            );
            prop_assert_eq!(
                normalized(&plain_stats),
                normalized(&traced_stats),
                "executor (threads = {}) stats differ on\n{}",
                threads,
                &program
            );
            prop_assert!(!events.is_empty(), "a traced run records events");
            check_well_formed(&events);
        }
    }
}

/// A four-thread reachability run records rule spans on pool worker threads:
/// the trace carries at least two distinct thread ids, and the driver thread
/// holds the full run → stratum hierarchy.
#[test]
fn parallel_trace_spans_workers_and_driver() {
    let _serial = lock();
    let program = parse_program("T(@x·@y) <- R(@x·@y).\nT(@x·@z) <- T(@x·@y), R(@y·@z).").unwrap();
    let mut input = Instance::new();
    for (x, y) in [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f")] {
        input
            .insert_fact(Fact::new(rel("R"), vec![path_of(&[x, y])]))
            .unwrap();
    }
    // One-tuple shards split every delta window into several jobs: the base
    // rule runs alone in its level's merge round, and a five-edge chain never
    // fills a default-size shard, so without this no round would reach the
    // pool.
    let session = trace::start();
    let result = Executor::new()
        .with_threads(4)
        .with_shard_size(1)
        .run(&program, &input);
    let events = session.finish();
    result.expect("reachability terminates");
    check_well_formed(&events);
    let tids: std::collections::BTreeSet<u32> = events.iter().map(|e| e.tid).collect();
    assert!(tids.len() >= 2, "expected >=2 thread ids, got {tids:?}");
    let run_tid = events
        .iter()
        .find(|e| e.name == "run")
        .map(|e| e.tid)
        .expect("run span recorded");
    assert!(
        events
            .iter()
            .any(|e| e.tid == run_tid && e.name.starts_with("stratum")),
        "the driver thread records the stratum spans"
    );
    assert!(
        events
            .iter()
            .any(|e| e.tid != run_tid && e.name.starts_with("rule")),
        "at least one rule pass runs on a pool worker"
    );
}

/// Counters and instants ride along without breaking span nesting, and a
/// finished session leaves tracing disabled — a second untraced run records
/// nothing.
#[test]
fn sessions_are_bounded_and_counters_are_recorded() {
    let _serial = lock();
    let program = parse_program("S($x) <- R($x).").unwrap();
    let input = Instance::unary(rel("R"), [path_of(&["a"]), path_of(&["b"])]);
    let session = trace::start();
    Executor::new().run(&program, &input).expect("runs");
    let events = session.finish();
    check_well_formed(&events);
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, trace::EventKind::Counter)),
        "rule passes record counter events"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, trace::EventKind::Instant)),
        "governor checkpoints record instants"
    );
    assert!(!trace::enabled(), "finish() disables tracing");
    let session = trace::start();
    let events_without_run = session.finish();
    assert!(
        events_without_run.is_empty(),
        "an empty session records nothing"
    );
}
