//! wgen-driven differential property test for the fixpoint: the engine's
//! semi-naive evaluation (index-probed delta slices) must produce the naive
//! reference evaluator's instance (`tests/reference`) on randomly generated
//! safe, stratified programs.
//!
//! This guards the indexed storage layer: the column index, the watermark delta
//! views, and the probe planner are all exercised by the engine, while the
//! reference enumerates every tuple with no index at all.

mod reference;

use proptest::prelude::*;
use sequence_datalog::prelude::*;
use sequence_datalog::wgen::{ProgramConfig, ProgramGenerator, Workloads};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn naive_and_semi_naive_produce_identical_instances(
        seed in 0u64..(1u64 << 32),
        salt in 0u64..(1u64 << 32),
        allow_equations in any::<bool>(),
        allow_negation in any::<bool>(),
        allow_arity in any::<bool>(),
    ) {
        let config = ProgramConfig {
            allow_equations,
            allow_negation,
            allow_arity,
            ..ProgramConfig::default()
        };
        let program = ProgramGenerator::new(seed).random_nonrecursive_program(salt, &config);
        let mut input = Workloads::new(seed ^ salt).random_flat_instance(2, 3, 4, 2);
        input.declare_relation(rel("R0"), 1);
        input.declare_relation(rel("R1"), 1);

        let semi = Executor::new()
            .run(&program, &input)
            .unwrap_or_else(|e| panic!("semi-naive failed: {e}\n{program}"));

        // Instances compare relation-by-relation with set semantics, so this
        // covers every IDB relation regardless of derivation order.
        let expected = reference::evaluate(&program, &input);
        prop_assert_eq!(&expected, &semi, "semi-naive vs reference\n{}", &program);
    }
}
