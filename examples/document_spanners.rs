//! Document spanners / information extraction (one of the motivations in the
//! paper's introduction): regular-expression matching over a sequence database,
//! compiled to an ordinary Sequence Datalog program.
//!
//! Run with `cargo run --example document_spanners`.

use sequence_datalog::prelude::*;
use sequence_datalog::regex::CompileOptions;

fn main() {
    // A tiny "document" collection: tokenised sentences stored as paths in `Doc`.
    let docs = Instance::unary(
        rel("Doc"),
        [
            path_of(&["order", "42", "shipped", "to", "alice"]),
            path_of(&["order", "7", "cancelled"]),
            path_of(&["invoice", "9", "paid", "by", "bob"]),
            path_of(&["order", "13", "shipped", "to", "bob"]),
        ],
    );

    // Extraction pattern: documents announcing that an order was shipped to someone.
    let pattern = parse_regex("order % shipped to %").expect("pattern parses");
    println!("pattern: {pattern}\n");

    // Compile the pattern into a Sequence Datalog program (Example 2.1 style): the
    // paper's remark that regular matching is syntactic sugar for recursion.
    let options = CompileOptions {
        input: rel("Doc"),
        output: rel("Shipped"),
        ..CompileOptions::default()
    };
    let compiled = compile_match(&pattern, &options);
    println!(
        "compiled program ({} rules, fragment {}):\n{}\n",
        compiled.program.rule_count(),
        Fragment::of_program(&compiled.program),
        compiled.program
    );

    let result = Executor::new()
        .run(&compiled.program, &docs)
        .expect("terminates");
    println!("matching documents:");
    for doc in result.unary_paths(rel("Shipped")) {
        println!("  {doc}");
    }

    // The direct NFA simulation and the AST matcher agree with the engine.
    let nfa = sequence_datalog::regex::Nfa::from_regex(&pattern);
    for doc in docs.unary_paths(rel("Doc")) {
        assert_eq!(
            nfa.accepts(&doc),
            result.unary_paths(rel("Shipped")).contains(&doc)
        );
        assert_eq!(pattern.matches(&doc), nfa.accepts(&doc));
    }
    println!("\nNFA simulation and AST matcher agree with the compiled program ✓");

    // "Contains" queries wrap the pattern in wildcards: who is ever mentioned after
    // the word `to`?
    let contains = compile_contains(&parse_regex("to bob").unwrap(), &options);
    let result = Executor::new()
        .run(&contains.program, &docs)
        .expect("terminates");
    println!("\ndocuments mentioning `to bob`:");
    for doc in result.unary_paths(rel("Shipped")) {
        println!("  {doc}");
    }
}
