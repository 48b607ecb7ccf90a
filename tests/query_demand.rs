//! Acceptance tests for demand-driven query evaluation on the §5.1.1
//! reachability workload: a single-source goal must fire strictly fewer rules
//! than the full fixpoint (measured via `EvalStats`) while producing exactly
//! the full-run-then-filter answers, at 1 and 4 executor threads.

use sequence_datalog::core::Tuple;
use sequence_datalog::exec::Executor;
use sequence_datalog::prelude::*;
use sequence_datalog::rewrite::{goal_matches, magic, parse_goal};
use sequence_datalog::wgen::Workloads;
use std::collections::BTreeSet;

fn reachability_program() -> Program {
    // Section 5.1.1: edges as length-2 paths, T the transitive closure.
    parse_program("T(@x·@y) <- R(@x·@y).\nT(@x·@z) <- T(@x·@y), R(@y·@z).").unwrap()
}

#[test]
fn single_source_query_fires_strictly_fewer_rules_than_the_full_run() {
    let program = reachability_program();
    let goal = parse_goal("T(a·$y)").unwrap();
    let input = Workloads::new(17).digraph_instance(16, 48);

    let executor = Executor::new();
    let (full, full_stats) = executor.run_with_stats(&program, &input).unwrap();
    let expected: BTreeSet<Tuple> = full
        .relation(rel("T"))
        .unwrap()
        .iter()
        .filter(|t| goal_matches(&goal, t))
        .map(|row| row.to_vec())
        .collect();
    assert!(!expected.is_empty(), "the workload must have answers");

    let mp = magic(&program, &goal).unwrap();
    for threads in [1usize, 4] {
        let (out, stats) = Executor::new()
            .with_threads(threads)
            .run_with_stats_seeded(&mp.program, &input, &mp.seeds)
            .unwrap();
        assert_eq!(
            mp.answers(&out),
            expected,
            "threads = {threads}: query must equal full-run-then-filter"
        );
        assert!(
            stats.rule_firings < full_stats.rule_firings,
            "threads = {threads}: demanded evaluation fired {} rules, \
             the full run {} — demand must be strictly cheaper",
            stats.rule_firings,
            full_stats.rule_firings
        );
    }
}

#[test]
fn point_queries_and_empty_demands_behave() {
    let program = reachability_program();
    let input = Workloads::new(17).digraph_instance(12, 30);
    let executor = Executor::new();
    let full = executor.run(&program, &input).unwrap();

    for goal_text in ["T(a·b)", "T(b·$y)", "T(zzz·$y)", "T($p)"] {
        let goal = parse_goal(goal_text).unwrap();
        let expected: BTreeSet<Tuple> = full
            .relation(rel("T"))
            .unwrap()
            .iter()
            .filter(|t| goal_matches(&goal, t))
            .map(|row| row.to_vec())
            .collect();
        let mp = magic(&program, &goal).unwrap();
        let out = executor.run_seeded(&mp.program, &input, &mp.seeds).unwrap();
        assert_eq!(mp.answers(&out), expected, "goal {goal_text}");
    }
}
