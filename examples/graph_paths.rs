//! Graph databases store paths as first-class sequences (G-CORE motivation from the
//! paper's introduction).  Here edges are length-2 paths, reachability is the {I, R}
//! witness query of Section 5.1.1, and we also ask for the nodes that lie on every
//! path of a stored set of paths.
//!
//! Run with `cargo run --example graph_paths`.

use sequence_datalog::fragments::witnesses;
use sequence_datalog::prelude::*;
use sequence_datalog::wgen::Workloads;

fn main() {
    // Reachability a ->* b on a random digraph.
    let reach = witnesses::reachability();
    let graph = Workloads::new(5).digraph_instance(12, 30);
    let result = Executor::new()
        .run(&reach.program, &graph)
        .expect("evaluation succeeds");
    println!(
        "random digraph with {} edges: b reachable from a? {}",
        graph.fact_count(),
        result.nullary_true(rel("S"))
    );

    // Nodes common to all stored paths: node @n is *missing* from path $p if $p does
    // not contain it; nodes on every path are those not missing from any.
    let common = parse_program(
        "Node(@n) <- Paths($u·@n·$v).\n\
         On(@n, $p) <- Node(@n), Paths($p), $p = $u·@n·$v.\n\
         ---\n\
         Missing(@n) <- Node(@n), Paths($p), !On(@n, $p).\n\
         ---\n\
         Common(@n) <- Node(@n), !Missing(@n).",
    )
    .expect("program parses");

    let paths = Instance::unary(
        rel("Paths"),
        [
            path_of(&["v1", "v2", "v3", "v4"]),
            path_of(&["v0", "v2", "v4"]),
            path_of(&["v2", "v5", "v4"]),
        ],
    );
    let result = Executor::new()
        .run(&common, &paths)
        .expect("evaluation succeeds");
    println!("\nstored paths:\n{paths}\n");
    println!("nodes on every stored path:");
    for n in result.unary_paths(rel("Common")) {
        println!("  {n}");
    }
    assert_eq!(
        result.unary_paths(rel("Common")),
        [path_of(&["v2"]), path_of(&["v4"])].into()
    );
}
