//! wgen-driven differential property test for the RAM lowering: compiling
//! planned rules to the flat instruction IR and running them on the shared
//! interpreter must derive exactly what the reference evaluator
//! (`tests/reference`) derives — on random safe, stratified programs with
//! recursion and negation, through the executor at one and four threads, and
//! through the demand-driven (magic-set) query path.
//!
//! This guards the whole lowering: bound-set propagation, probe/equation
//! fusion, terminal probe+emit fusion, static-rule hoisting, and the
//! interpreter's frame machine (candidate selection, delta-window clamping,
//! bucket-side fast path, buffered extension replay, backtracking).

mod reference;

use proptest::prelude::*;
use sequence_datalog::exec::Executor;
use sequence_datalog::prelude::*;
use sequence_datalog::rewrite::magic;
use sequence_datalog::wgen::{ProgramConfig, ProgramGenerator, Workloads};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ram_execution_equals_the_reference(
        seed in 0u64..(1u64 << 32),
        salt in 0u64..(1u64 << 32),
        goal_salt in 0u64..(1u64 << 32),
        allow_equations in any::<bool>(),
        allow_negation in any::<bool>(),
        allow_arity in any::<bool>(),
    ) {
        let config = ProgramConfig {
            allow_equations,
            allow_negation,
            allow_arity,
            allow_recursion: true,
            ..ProgramConfig::default()
        };
        let generator = ProgramGenerator::new(seed);
        let program = generator.random_program(salt, &config);
        let mut input = Workloads::new(seed ^ salt).random_flat_instance(2, 3, 4, 2);
        input.declare_relation(rel("R0"), 1);
        input.declare_relation(rel("R1"), 1);

        let expected = reference::evaluate(&program, &input);
        for threads in [1usize, 4] {
            let out = Executor::new()
                .with_threads(threads)
                .run(&program, &input)
                .unwrap_or_else(|e| panic!("RAM executor run failed: {e}\n{program}"));
            prop_assert_eq!(
                &expected,
                &out,
                "executor (threads = {}) vs reference on\n{}",
                threads,
                &program
            );
        }

        // The demand-driven path: magic-rewritten programs exercise seeded
        // fixpoints, guard predicates, and deeper join chains.
        let output = program
            .strata
            .last()
            .and_then(|s| s.rules.last())
            .map(|r| r.head.clone())
            .expect("generated programs have rules");
        let goal = generator.random_goal(goal_salt, output.relation, output.arity());
        let mp = magic(&program, &goal)
            .unwrap_or_else(|e| panic!("magic failed for goal {goal}: {e}\n{program}"));
        let expected_answers =
            mp.answers(&reference::evaluate_seeded(&mp.program, &input, &mp.seeds));
        for threads in [1usize, 4] {
            let out = Executor::new()
                .with_threads(threads)
                .run_seeded(&mp.program, &input, &mp.seeds)
                .map(|out| mp.answers(&out))
                .unwrap_or_else(|e| panic!("RAM seeded executor failed: {e}\n{}", mp.program));
            prop_assert_eq!(
                &expected_answers,
                &out,
                "magic executor (threads = {}) vs reference: goal {} on\n{}",
                threads,
                &goal,
                &mp.program
            );
        }
    }
}

/// A static rule inside a recursive component fires exactly one pass: its
/// firings equal the input size, not input × rounds — at every thread count,
/// pinned here so hoisting stays observable in the stats.
#[test]
fn hoisted_static_rules_fire_one_pass() {
    let program = parse_program("T($x) <- R($x).\nT($y) <- T(@u·$y).").unwrap();
    let paths: Vec<_> = (0..10)
        .map(|i| path_of(&[&format!("a{i}"), &format!("b{i}"), &format!("c{i}")]))
        .collect();
    let input = Instance::unary(rel("R"), paths);
    for threads in [1usize, 4] {
        let (out, stats) = Executor::new()
            .with_threads(threads)
            .run_with_stats(&program, &input)
            .unwrap();
        // 10 base paths + their 20 distinct proper suffixes + ε.
        assert_eq!(out.unary_paths(rel("T")).len(), 31, "threads = {threads}");
        // One static pass (10 firings) + 30 recursive firings across the
        // fixpoint rounds.  Re-firing the static rule every productive round
        // would show as ≥ 70.
        assert_eq!(stats.rule_firings, 40, "threads = {threads}: {stats:?}");
        assert_eq!(stats.iterations, 5, "threads = {threads}: {stats:?}");
    }
}

/// RAM runs at 1, 2, and 4 threads produce identical instances on the §5.1.1
/// reachability program, and match the reference evaluator exactly.
#[test]
fn reachability_identical_across_thread_counts() {
    let program =
        parse_program("T(@x·@y) <- R(@x·@y).\nT(@x·@z) <- T(@x·@y), R(@y·@z).\nS <- T(a·b).")
            .unwrap();
    let mut input = Instance::new();
    for (x, y) in [("a", "c"), ("c", "b"), ("b", "d"), ("d", "a"), ("c", "e")] {
        input
            .insert_fact(Fact::new(rel("R"), vec![path_of(&[x, y])]))
            .unwrap();
    }
    let expected = reference::evaluate(&program, &input);
    for threads in [1usize, 2, 4] {
        let out = Executor::new()
            .with_threads(threads)
            .run(&program, &input)
            .unwrap();
        assert_eq!(expected, out, "threads = {threads}");
    }
}
