//! wgen-driven differential property test for demand-driven (magic-set) query
//! evaluation: for random safe, stratified programs and random goal binding
//! patterns, evaluating the magic rewrite seeded with the goal's demand must
//! yield exactly the answers of a full run filtered by the goal — at one and
//! four executor threads, and under the sequential engine.  The full run and
//! the goal filter come from the test-only reference evaluator and its own
//! matcher, so the expected answers share no code with the engine.
//!
//! This guards the whole query pipeline: goal adornment, the sideways
//! information passing over rule bodies, guard insertion, magic demand rules,
//! the full-portion closure under negation, seeding, and answer filtering.

mod reference;

use proptest::prelude::*;
use sequence_datalog::core::Tuple;
use sequence_datalog::exec::Executor;
use sequence_datalog::prelude::*;
use sequence_datalog::rewrite::{magic, strip_dead_seeded};
use sequence_datalog::syntax::Valuation;
use sequence_datalog::wgen::{ProgramConfig, ProgramGenerator, Workloads};
use std::collections::BTreeSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn demanded_evaluation_equals_full_run_then_filter(
        seed in 0u64..(1u64 << 32),
        salt in 0u64..(1u64 << 32),
        goal_salt in 0u64..(1u64 << 32),
        allow_equations in any::<bool>(),
        allow_negation in any::<bool>(),
        allow_arity in any::<bool>(),
        allow_recursion in any::<bool>(),
    ) {
        let config = ProgramConfig {
            allow_equations,
            allow_negation,
            allow_arity,
            allow_recursion,
            ..ProgramConfig::default()
        };
        let generator = ProgramGenerator::new(seed);
        let program = generator.random_program(salt, &config);
        let mut input = Workloads::new(seed ^ salt).random_flat_instance(2, 3, 4, 2);
        input.declare_relation(rel("R0"), 1);
        input.declare_relation(rel("R1"), 1);

        // Query the relation of the last rule of the last stratum, with a
        // random binding pattern per column.
        let output = program
            .strata
            .last()
            .and_then(|s| s.rules.last())
            .map(|r| r.head.clone())
            .expect("generated programs have rules");
        let goal = generator.random_goal(goal_salt, output.relation, output.arity());

        let full = reference::evaluate(&program, &input);
        let expected: BTreeSet<Tuple> = full
            .relation(goal.relation)
            .map(|r| {
                r.iter()
                    .filter(|t| !reference::match_predicate(&goal, t, &Valuation::new()).is_empty())
                    .cloned()
                    .collect()
            })
            .unwrap_or_default();

        let mp = magic(&program, &goal)
            .unwrap_or_else(|e| panic!("magic failed for goal {goal}: {e}\n{program}"));
        let engine_out = Engine::new()
            .run_seeded(&mp.program, &input, &mp.seeds)
            .unwrap_or_else(|e| panic!("seeded engine run failed: {e}\n{}", mp.program));
        prop_assert_eq!(
            mp.answers(&engine_out),
            expected.clone(),
            "engine: goal {} on\n{}\nrewritten:\n{}",
            &goal,
            &program,
            &mp.program
        );
        for threads in [1usize, 4] {
            let out = Executor::new()
                .with_threads(threads)
                .run_seeded(&mp.program, &input, &mp.seeds)
                .unwrap_or_else(|e| panic!("seeded executor run failed: {e}\n{}", mp.program));
            prop_assert_eq!(
                mp.answers(&out),
                expected.clone(),
                "threads = {}: goal {} on\n{}\nrewritten:\n{}",
                threads,
                &goal,
                &program,
                &mp.program
            );
        }

        // Seed-aware dead-rule stripping (what `seqdl query` applies before
        // lowering) must preserve the answers too: seeded relations are
        // nonempty at runtime even when every rule producing them is
        // statically false.
        let seeded: BTreeSet<RelName> = mp.seeds.iter().map(|f| f.relation).collect();
        let answer_set: BTreeSet<RelName> = [mp.answer].into_iter().collect();
        let stripped = strip_dead_seeded(&mp.program, &answer_set, &seeded);
        let stripped_out = Engine::new()
            .run_seeded(&stripped.program, &input, &mp.seeds)
            .unwrap_or_else(|e| panic!("stripped seeded run failed: {e}\n{}", stripped.program));
        prop_assert_eq!(
            mp.answers(&stripped_out),
            expected.clone(),
            "strip_dead_seeded changed the answers: goal {} on\n{}\nrewritten:\n{}\nstripped:\n{}",
            &goal,
            &program,
            &mp.program,
            &stripped.program
        );
        for threads in [1usize, 4] {
            let out = Executor::new()
                .with_threads(threads)
                .run_seeded(&stripped.program, &input, &mp.seeds)
                .unwrap_or_else(|e| {
                    panic!("stripped seeded executor run failed: {e}\n{}", stripped.program)
                });
            prop_assert_eq!(
                mp.answers(&out),
                expected.clone(),
                "threads = {}: strip_dead_seeded changed the answers: goal {} on\n{}\nstripped:\n{}",
                threads,
                &goal,
                &program,
                &stripped.program
            );
        }
    }
}
