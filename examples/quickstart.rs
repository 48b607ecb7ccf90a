//! Quickstart: parse a Sequence Datalog program, run it, inspect the output.
//!
//! Run with `cargo run --example quickstart`.

use sequence_datalog::prelude::*;

fn main() {
    // Example 3.1 of the paper: the paths from R consisting exclusively of a's,
    // expressed with a single equation (fragment {E}).
    let program = parse_program("S($x) <- R($x), a·$x = $x·a.").expect("program parses");
    println!("program ({}):\n{program}\n", Fragment::of_program(&program));

    let input = Instance::unary(
        rel("R"),
        [
            repeat_path("a", 5),
            path_of(&["a", "b", "a"]),
            path_of(&["b"]),
            Path::empty(),
        ],
    );
    println!("input instance:\n{input}\n");

    let output = Executor::new()
        .run(&program, &input)
        .expect("evaluation succeeds");
    println!("output relation S:");
    for p in output.unary_paths(rel("S")) {
        println!("  S({p})");
    }

    // The same query without equations (Example 4.4, fragment {A, I}) gives the
    // same answer.
    let no_equations =
        parse_program("T(a·$x, $x) <- R($x).\nS($x) <- T($x·a, $x).").expect("program parses");
    let output2 = Executor::new()
        .run(&no_equations, &input)
        .expect("evaluation succeeds");
    assert_eq!(output.unary_paths(rel("S")), output2.unary_paths(rel("S")));
    println!("\nthe {{A, I}} variant (Example 4.4) computes the same query ✓");
}
