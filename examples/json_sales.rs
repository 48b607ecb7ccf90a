//! The JSON-motivated example from the paper's introduction: a `Sales` object is a
//! set of item·year·value triples (length-3 sequences).  Restructuring it to group
//! by year instead of by item "simply amounts to swapping the first two elements of
//! every sequence"; deep-equality of two objects is equality of their sets of
//! sequences.
//!
//! Run with `cargo run --example json_sales`.

use sequence_datalog::prelude::*;
use sequence_datalog::wgen::Workloads;

fn main() {
    // Group by year: swap the first two elements of every triple.
    let regroup = parse_program("ByYear(@y·@i·$v) <- Sales(@i·@y·$v).").expect("program parses");

    let sales = Workloads::new(7).sales_instance(3, 2);
    println!("Sales (grouped by item):\n{sales}\n");

    let result = Executor::new()
        .run(&regroup, &sales)
        .expect("evaluation succeeds");
    println!("ByYear (grouped by year):");
    for p in result.unary_paths(rel("ByYear")) {
        println!("  {p}");
    }
    assert_eq!(
        result.unary_paths(rel("ByYear")).len(),
        sales.unary_paths(rel("Sales")).len()
    );

    // Deep-equality of two JSON objects modelled as sequence sets: A and B are
    // deep-equal iff no sequence is in one but not the other.
    let deep_equal = parse_program(
        "OnlyA($x) <- A($x), !B($x).\n\
         OnlyB($x) <- B($x), !A($x).\n\
         ---\n\
         Diff <- OnlyA($x).\n\
         Diff <- OnlyB($x).",
    )
    .expect("program parses");

    let mut same = Instance::new();
    for r in ["A", "B"] {
        for p in sales.unary_paths(rel("Sales")) {
            same.insert_fact(Fact::new(rel(r), vec![p])).unwrap();
        }
    }
    let result = Executor::new()
        .run(&deep_equal, &same)
        .expect("evaluation succeeds");
    println!(
        "\nidentical objects: Diff = {}",
        result.nullary_true(rel("Diff"))
    );
    assert!(!result.nullary_true(rel("Diff")));

    let mut different = same.clone();
    different
        .insert_fact(Fact::new(rel("A"), vec![path_of(&["item9", "2030", "1"])]))
        .unwrap();
    let result = Executor::new()
        .run(&deep_equal, &different)
        .expect("evaluation succeeds");
    println!(
        "after adding one triple to A: Diff = {}",
        result.nullary_true(rel("Diff"))
    );
    assert!(result.nullary_true(rel("Diff")));
}
