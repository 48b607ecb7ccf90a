//! Metamorphic properties the paper's semantics guarantees, checked on the
//! engine over random wgen programs, with the reference evaluator
//! (`tests/reference`) anchoring each base run:
//!
//! * negation-free programs are monotone: adding EDB facts never removes a
//!   derived fact;
//! * the output does not depend on the order input facts were inserted in,
//!   nor on the order of rules within a stratum.

mod reference;

use proptest::prelude::*;
use sequence_datalog::prelude::*;
use sequence_datalog::syntax::Stratum;
use sequence_datalog::wgen::{ProgramConfig, ProgramGenerator, Workloads};

fn flat_input(seed: u64) -> Instance {
    let mut input = Workloads::new(seed).random_flat_instance(2, 3, 4, 2);
    input.declare_relation(rel("R0"), 1);
    input.declare_relation(rel("R1"), 1);
    input
}

fn run(program: &Program, input: &Instance) -> Instance {
    Executor::new()
        .run(program, input)
        .unwrap_or_else(|e| panic!("engine failed: {e}\n{program}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn negation_free_programs_are_monotone_under_edb_insertion(
        seed in 0u64..(1u64 << 32),
        salt in 0u64..(1u64 << 32),
        extra_seed in 0u64..(1u64 << 32),
        allow_equations in any::<bool>(),
        allow_arity in any::<bool>(),
        allow_recursion in any::<bool>(),
    ) {
        let config = ProgramConfig {
            allow_equations,
            allow_negation: false,
            allow_arity,
            allow_recursion,
            ..ProgramConfig::default()
        };
        let program = ProgramGenerator::new(seed).random_program(salt, &config);
        let small = flat_input(seed ^ salt);
        let mut large = small.clone();
        for fact in flat_input(extra_seed).facts() {
            large.insert_fact(fact).expect("unary EDB facts");
        }
        let out_small = run(&program, &small);
        prop_assert_eq!(&out_small, &reference::evaluate(&program, &small), "{}", &program);
        let out_large = run(&program, &large);
        for fact in out_small.facts() {
            prop_assert!(
                out_large.contains_fact(&fact),
                "{} lost after EDB insertion on\n{}",
                fact,
                &program
            );
        }
    }

    #[test]
    fn output_ignores_fact_order_and_rule_order(
        seed in 0u64..(1u64 << 32),
        salt in 0u64..(1u64 << 32),
        rotate in 0usize..8,
        allow_equations in any::<bool>(),
        allow_negation in any::<bool>(),
        allow_recursion in any::<bool>(),
    ) {
        let config = ProgramConfig {
            allow_equations,
            allow_negation,
            allow_recursion,
            ..ProgramConfig::default()
        };
        let program = ProgramGenerator::new(seed).random_program(salt, &config);
        let input = flat_input(seed ^ salt);
        let expected = run(&program, &input);
        prop_assert_eq!(&expected, &reference::evaluate(&program, &input), "{}", &program);

        // The same facts, inserted in reverse order after a rotation.
        let mut facts: Vec<Fact> = input.facts().collect();
        let shift = rotate % facts.len().max(1);
        facts.rotate_left(shift);
        facts.reverse();
        let mut reordered = Instance::new();
        reordered.declare_relation(rel("R0"), 1);
        reordered.declare_relation(rel("R1"), 1);
        for fact in facts {
            reordered.insert_fact(fact).expect("unary EDB facts");
        }
        prop_assert_eq!(&expected, &run(&program, &reordered), "fact order on\n{}", &program);

        // The same strata with each stratum's rules rotated and reversed.
        let permuted = Program {
            strata: program
                .strata
                .iter()
                .map(|stratum| {
                    let mut rules = stratum.rules.clone();
                    let shift = rotate % rules.len().max(1);
                    rules.rotate_left(shift);
                    rules.reverse();
                    Stratum { rules }
                })
                .collect(),
        };
        prop_assert_eq!(&expected, &run(&permuted, &input), "rule order on\n{}", &permuted);
    }
}
