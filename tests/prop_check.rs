//! Property tests for the static-analysis framework: `strip_dead` is a
//! semantics-preserving rewrite (relative to the declared output), the
//! checker reports every defect the workload generator injects, and the
//! pruning is observable in the RAM instruction counter.

mod reference;

use sequence_datalog::analysis::{check_program, CheckOptions, Lint, Severity};
use sequence_datalog::core::Tuple;
use sequence_datalog::exec::Executor;
use sequence_datalog::prelude::*;
use sequence_datalog::rewrite::{nonempty_relations, strip_dead, strip_dead_with_edb};
use sequence_datalog::wgen::{ProgramConfig, ProgramGenerator, Workloads};
use std::collections::BTreeSet;

/// The conventional output relation: the head of the last rule of the last
/// stratum (what the CLI defaults to).
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
    instance.declare_relation(rel("R0"), 1);
    instance.declare_relation(rel("R1"), 1);
    instance
}

fn tuples_of(result: &Instance, relation: RelName) -> BTreeSet<Tuple> {
    result
        .relation(relation)
        .map(|r| r.tuples().into_iter().collect())
        .unwrap_or_default()
}

/// Render a relation's tuples as sorted text, for byte-identical comparison.
fn render(result: &Instance, relation: RelName) -> String {
    let mut lines: Vec<String> = tuples_of(result, relation)
        .iter()
        .map(|t| {
            let args: Vec<String> = t.iter().map(ToString::to_string).collect();
            format!("{relation}({})", args.join(", "))
        })
        .collect();
    lines.sort();
    lines.join("\n")
}

#[test]
fn strip_dead_preserves_the_output_on_random_programs() {
    let generator = ProgramGenerator::new(0x5717);
    let config = ProgramConfig {
        allow_negation: true,
        allow_equations: true,
        allow_arity: true,
        allow_recursion: true,
        ..ProgramConfig::default()
    };
    for salt in 0..30u64 {
        let program = generator.random_program(salt, &config);
        let output = output_relation(&program);
        let outputs: BTreeSet<RelName> = [output].into_iter().collect();
        let input = edb_instance(salt ^ 0x9E);
        let stripped = strip_dead_with_edb(&program, &outputs, Some(&nonempty_relations(&input)));

        let expected = reference::evaluate(&program, &input);
        let pruned = Engine::new()
            .run(&stripped.program, &input)
            .unwrap_or_else(|e| panic!("salt {salt}: stripped failed: {e}\n{}", stripped.program));
        assert_eq!(
            tuples_of(&expected, output),
            tuples_of(&pruned, output),
            "salt {salt}: strip_dead changed the output\noriginal:\n{program}\nstripped:\n{}",
            stripped.program
        );
        // The parallel executor agrees at 1 and 4 threads.
        for threads in [1usize, 4] {
            let exec = Executor::new()
                .with_threads(threads)
                .run(&stripped.program, &input)
                .unwrap_or_else(|e| panic!("salt {salt}: {threads}-thread run failed: {e}"));
            assert_eq!(
                tuples_of(&expected, output),
                tuples_of(&exec, output),
                "salt {salt}: executor at {threads} thread(s) disagrees\n{}",
                stripped.program
            );
        }
    }
}

#[test]
fn every_injected_defect_is_reported_with_its_code() {
    let generator = ProgramGenerator::new(0xDEF0);
    let config = ProgramConfig {
        allow_negation: true,
        allow_equations: true,
        allow_arity: true,
        allow_recursion: true,
        ..ProgramConfig::default()
    };
    for salt in 0..30u64 {
        let (program, defects) = generator.random_program_with_defects(salt, &config);
        assert!(!defects.is_empty(), "salt {salt}: no defects injected");
        let output = output_relation(&program);
        let report = check_program(&program, &CheckOptions::for_outputs([output]));
        // Generated programs are safe and stratified: the injected defects
        // are warnings, never errors — zero false errors.
        assert_eq!(
            report.count(Severity::Error),
            0,
            "salt {salt}: false error\n{program}\n{:?}",
            report.diagnostics
        );
        let fired = report.codes();
        for defect in &defects {
            // The codes wgen records are plain strings (it sits below the
            // analysis crate); they must resolve to real lints...
            let lint = Lint::from_code(defect.code)
                .unwrap_or_else(|| panic!("wgen records unknown lint code {}", defect.code));
            assert!(lint.severity() >= Severity::Warning, "{}", defect.code);
            // ...and each one must actually fire on the seeded program.
            assert!(
                fired.contains(defect.code),
                "salt {salt}: {} ({}) not reported\n{program}\nreported: {fired:?}",
                defect.code,
                defect.description
            );
        }
    }
}

#[test]
fn injected_defects_do_not_change_the_output_and_strip_dead_removes_them() {
    let generator = ProgramGenerator::new(0xA11);
    let config = ProgramConfig::default();
    for salt in 0..20u64 {
        let clean = generator.random_program(salt, &config);
        let (seeded, _) = generator.random_program_with_defects(salt, &config);
        let output = output_relation(&clean);
        let outputs: BTreeSet<RelName> = [output].into_iter().collect();
        let input = edb_instance(salt ^ 0x77);
        let a = Engine::new().run(&clean, &input).unwrap();
        let b = Engine::new().run(&seeded, &input).unwrap();
        assert_eq!(
            tuples_of(&a, output),
            tuples_of(&b, output),
            "salt {salt}: injection changed the output\n{seeded}"
        );
        // Stripping removes at least the dead and unused-variable carriers.
        let stripped = strip_dead(&seeded, &outputs);
        assert!(
            stripped.removed.len() >= 2,
            "salt {salt}: expected the injected dead rules to be stripped\n{seeded}"
        );
    }
}

#[test]
fn strip_dead_cuts_instructions_on_a_dead_rule_laden_program() {
    // The §5.1.1 reachability workload buried under dead weight: ten rules
    // that derive relations nothing reads.
    let mut source = String::from("T(@x·@y) <- R(@x·@y).\nT(@x·@z) <- T(@x·@y), R(@y·@z).\n");
    for i in 0..10 {
        source.push_str(&format!("Junk{i}(@x·@y) <- R(@x·@y), T(@x·@y).\n"));
    }
    // The conventional output must stay T: name it explicitly below.
    let program = parse_program(&source).unwrap();
    let mut input = Instance::new();
    for (x, y) in [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")] {
        input
            .insert_fact(sequence_datalog::core::Fact::new(
                rel("R"),
                vec![path_of(&[x, y])],
            ))
            .unwrap();
    }
    let outputs: BTreeSet<RelName> = [rel("T")].into_iter().collect();
    let stripped = strip_dead_with_edb(&program, &outputs, Some(&nonempty_relations(&input)));
    assert_eq!(stripped.removed.len(), 10, "all junk rules removed");

    let executor = Executor::new();
    let (full, full_stats) = executor.run_with_stats(&program, &input).unwrap();
    let (pruned, pruned_stats) = executor.run_with_stats(&stripped.program, &input).unwrap();
    assert_eq!(
        render(&full, rel("T")),
        render(&pruned, rel("T")),
        "output must be byte-identical"
    );
    assert!(
        pruned_stats.instructions_executed < full_stats.instructions_executed,
        "expected fewer instructions: {} vs {}",
        pruned_stats.instructions_executed,
        full_stats.instructions_executed
    );
}
