//! Example 2.1 of the paper: representing an NFA as data (relations N, D, F) and
//! computing, inside Sequence Datalog, which strings of a unary relation R the NFA
//! accepts.
//!
//! Run with `cargo run --example nfa_matching`.

use sequence_datalog::fragments::witnesses;
use sequence_datalog::prelude::*;
use sequence_datalog::wgen::Workloads;

fn main() {
    let witness = witnesses::nfa_acceptance();
    println!(
        "Example 2.1 program ({}):\n{}\n",
        Fragment::of_program(&witness.program),
        witness.program
    );

    // A hand-built NFA over {a, b} accepting the strings that end in b.
    let mut input = Instance::new();
    input
        .insert_fact(Fact::new(rel("N"), vec![path_of(&["q0"])]))
        .unwrap();
    input
        .insert_fact(Fact::new(rel("F"), vec![path_of(&["q1"])]))
        .unwrap();
    for (from, sym, to) in [
        ("q0", "a", "q0"),
        ("q0", "b", "q1"),
        ("q1", "a", "q0"),
        ("q1", "b", "q1"),
    ] {
        input
            .insert_fact(Fact::new(
                rel("D"),
                vec![path_of(&[from]), path_of(&[sym]), path_of(&[to])],
            ))
            .unwrap();
    }
    for word in [
        vec!["a", "b"],
        vec!["b", "a"],
        vec!["b", "b", "b"],
        vec!["a"],
    ] {
        input
            .insert_fact(Fact::new(rel("R"), vec![path_of(&word)]))
            .unwrap();
    }

    let result = Executor::new()
        .run(&witness.program, &input)
        .expect("evaluation succeeds");
    println!("accepted strings (ending in b):");
    for p in result.unary_paths(rel("A")) {
        println!("  {p}");
    }
    assert_eq!(result.unary_paths(rel("A")).len(), 2);

    // The same program drives a randomly generated NFA workload.
    let random = Workloads::new(99).nfa_instance(4, 2, 10, 12);
    let result = Executor::new()
        .run(&witness.program, &random)
        .expect("evaluation succeeds");
    println!(
        "\nrandom NFA workload: {} of {} words accepted",
        result.unary_paths(rel("A")).len(),
        random.unary_paths(rel("R")).len()
    );
}
