//! Differential testing over *randomly generated* nonrecursive programs: the
//! executor, the equation-elimination rewrite, the Lemma 7.2 normal form, and
//! the Theorem 7.1 algebra translation must all agree with the naive reference
//! evaluator (`tests/reference`) on the original program, and the termination
//! analysis must certify every program.

mod reference;

use sequence_datalog::algebra::{datalog_to_algebra, eval};
use sequence_datalog::core::Tuple;
use sequence_datalog::prelude::*;
use sequence_datalog::rewrite::{eliminate_equations, to_normal_form};
use sequence_datalog::wgen::{ProgramConfig, ProgramGenerator, Workloads};
use std::collections::BTreeSet;

/// The output relation of a generated program: the head of the last rule of the
/// last stratum.
fn output_relation(program: &Program) -> RelName {
    program
        .strata
        .last()
        .and_then(|s| s.rules.last())
        .map(|r| r.head.relation)
        .expect("generated programs have rules")
}

/// A small random instance over the generator's EDB schema `{R0/1, R1/1}`.
fn edb_instance(seed: u64) -> Instance {
    let w = Workloads::new(seed);
    let mut instance = w.random_flat_instance(2, 3, 4, 2);
    // `random_flat_instance` already names its relations R0, R1; make sure both
    // exist even when empty.
    instance.declare_relation(rel("R0"), 1);
    instance.declare_relation(rel("R1"), 1);
    instance
}

/// All tuples of `relation` in `result`, as a set.
fn tuples_of(result: &Instance, relation: RelName) -> BTreeSet<Tuple> {
    result
        .relation(relation)
        .map(|r| r.tuples().into_iter().collect())
        .unwrap_or_default()
}

#[test]
fn naive_and_semi_naive_agree_on_random_programs() {
    let generator = ProgramGenerator::new(0xFEED);
    for salt in 0..25u64 {
        let program = generator.random_nonrecursive_program(salt, &ProgramConfig::default());
        let input = edb_instance(salt);
        let semi = Executor::new()
            .run(&program, &input)
            .unwrap_or_else(|e| panic!("salt {salt}: semi-naive failed: {e}\n{program}"));
        let naive = reference::evaluate(&program, &input);
        for relation in program.idb_relations() {
            assert_eq!(
                tuples_of(&naive, relation),
                tuples_of(&semi, relation),
                "salt {salt}: executor disagrees with the reference on {relation}\n{program}"
            );
        }
    }
}

#[test]
fn equation_elimination_preserves_random_programs() {
    let generator = ProgramGenerator::new(0xBEEF);
    let config = ProgramConfig {
        allow_equations: true,
        allow_negation: true,
        allow_arity: true,
        ..ProgramConfig::default()
    };
    for salt in 0..20u64 {
        let program = generator.random_nonrecursive_program(salt, &config);
        if !FeatureSet::of_program(&program).equations {
            continue;
        }
        let rewritten = eliminate_equations(&program)
            .unwrap_or_else(|e| panic!("salt {salt}: elimination failed: {e}\n{program}"));
        assert!(
            !FeatureSet::of_program(&rewritten).equations,
            "salt {salt}: equations remain"
        );
        let output = output_relation(&program);
        let input = edb_instance(salt ^ 0x55);
        let a = reference::evaluate(&program, &input);
        let b = Executor::new().run(&rewritten, &input).unwrap();
        assert_eq!(
            tuples_of(&a, output),
            tuples_of(&b, output),
            "salt {salt}: outputs differ\noriginal:\n{program}\nrewritten:\n{rewritten}"
        );
    }
}

#[test]
fn normal_form_preserves_random_equation_free_programs() {
    let generator = ProgramGenerator::new(0xCAFE);
    let config = ProgramConfig {
        allow_equations: false,
        allow_negation: true,
        allow_arity: true,
        ..ProgramConfig::default()
    };
    for salt in 0..20u64 {
        let program = generator.random_nonrecursive_program(salt, &config);
        let normal = to_normal_form(&program)
            .unwrap_or_else(|e| panic!("salt {salt}: normalization failed: {e}\n{program}"));
        let output = output_relation(&program);
        let input = edb_instance(salt ^ 0xAA);
        let a = reference::evaluate(&program, &input);
        let b = Executor::new().run(&normal, &input).unwrap();
        assert_eq!(
            tuples_of(&a, output),
            tuples_of(&b, output),
            "salt {salt}: normal form changed the query\noriginal:\n{program}\nnormal:\n{normal}"
        );
    }
}

#[test]
fn algebra_translation_agrees_on_random_equation_free_programs() {
    let generator = ProgramGenerator::new(0xD00D);
    let config = ProgramConfig {
        strata: 2,
        rules_per_stratum: 2,
        allow_equations: false,
        allow_negation: true,
        allow_arity: true,
        allow_recursion: false,
    };
    let mut translated = 0;
    for salt in 0..20u64 {
        let program = generator.random_nonrecursive_program(salt, &config);
        let output = output_relation(&program);
        let expr = match datalog_to_algebra(&program, output) {
            Ok(expr) => expr,
            Err(e) => panic!("salt {salt}: algebra translation failed: {e}\n{program}"),
        };
        translated += 1;
        let input = edb_instance(salt ^ 0x33);
        let datalog = tuples_of(&reference::evaluate(&program, &input), output);
        let algebra: BTreeSet<Tuple> = eval(&expr, &input)
            .unwrap_or_else(|e| panic!("salt {salt}: algebra evaluation failed: {e}\n{program}"))
            .into_iter()
            .collect();
        assert_eq!(
            datalog, algebra,
            "salt {salt}: algebra and Datalog disagree\n{program}"
        );
    }
    assert!(translated > 0);
}

#[test]
fn termination_analysis_certifies_random_nonrecursive_programs() {
    let generator = ProgramGenerator::new(0xACE);
    for salt in 0..25u64 {
        let program = generator.random_nonrecursive_program(salt, &ProgramConfig::default());
        assert!(
            guaranteed_terminating(&program),
            "salt {salt}: nonrecursive program not certified\n{program}"
        );
    }
}
