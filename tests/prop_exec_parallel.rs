//! wgen-driven differential property test for the parallel executor: the
//! executor at 1 thread (the in-place round) and at 2 and 4 worker threads
//! must produce the reference evaluator's instance (`tests/reference`) on
//! randomly generated safe, stratified programs — including terminating
//! recursive rules, which exercise the delta-sharded parallel fixpoint.
//!
//! This guards the whole driver: the lowered level structure, the single
//! merge round per level, the loop-scoped semi-naive rounds, and the
//! between-rounds merge of per-worker buffers.

mod reference;

use proptest::prelude::*;
use sequence_datalog::exec::Executor;
use sequence_datalog::prelude::*;
use sequence_datalog::wgen::{ProgramConfig, ProgramGenerator, Workloads};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sequential_and_parallel_produce_identical_instances(
        seed in 0u64..(1u64 << 32),
        salt in 0u64..(1u64 << 32),
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
        let program = ProgramGenerator::new(seed).random_program(salt, &config);
        let mut input = Workloads::new(seed ^ salt).random_flat_instance(2, 3, 4, 2);
        input.declare_relation(rel("R0"), 1);
        input.declare_relation(rel("R1"), 1);

        let expected = reference::evaluate(&program, &input);
        let sequential = Executor::new()
            .run(&program, &input)
            .unwrap_or_else(|e| panic!("one thread failed: {e}\n{program}"));
        prop_assert_eq!(&expected, &sequential, "one thread vs reference\n{}", program);
        for threads in [2usize, 4] {
            let parallel = Executor::new()
                .with_threads(threads)
                .run(&program, &input)
                .unwrap_or_else(|e| panic!("executor ({threads} threads) failed: {e}\n{program}"));
            // Instances compare relation-by-relation with set semantics, so this
            // covers every IDB relation regardless of derivation order.
            prop_assert_eq!(&expected, &parallel, "threads = {}\n{}", threads, program);
        }
    }
}
