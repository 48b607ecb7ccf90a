//! Representing trees with packing (Section 8 of the paper): a tree with root label
//! `a` and child trees `T1 … Tn` is the path `a·⟨T1⟩·…·⟨Tn⟩`.  This example builds a
//! small "XML-ish" catalogue, queries it with packed patterns, and shows that the
//! flat query we compute survives packing elimination (Theorem 4.15).
//!
//! Run with `cargo run --example trees_and_packing`.

use sequence_datalog::prelude::*;
use sequence_datalog::rewrite::eliminate_packing_nonrecursive;

/// `label(children…)` — build the path encoding of a tree node.
fn node(label: &str, children: &[Path]) -> Path {
    let mut path = path_of(&[label]);
    for child in children {
        path.push(Value::packed(*child));
    }
    path
}

fn main() {
    // <catalogue>
    //   <book><title>logic</title><year>2021</year></book>
    //   <book><title>databases</title><year>1995</year></book>
    // </catalogue>
    let book1 = node(
        "book",
        &[
            node("title", &[node("logic", &[])]),
            node("year", &[node("2021", &[])]),
        ],
    );
    let book2 = node(
        "book",
        &[
            node("title", &[node("databases", &[])]),
            node("year", &[node("1995", &[])]),
        ],
    );
    let catalogue = node("catalogue", &[book1, book2]);
    println!("catalogue as a packed path:\n  {catalogue}\n");

    let mut input = Instance::new();
    input.declare_relation(rel("Tree"), 1);
    input
        .insert_fact(Fact::new(rel("Tree"), vec![catalogue]))
        .unwrap();

    // Query: the title labels of all books.  Packed patterns navigate the tree; the
    // output is a flat unary relation, i.e. one of the paper's baseline queries.
    let query = parse_program(
        "Book($b) <- Tree(catalogue·$pre·<$b>·$post).\n\
         ---\n\
         Title(@t) <- Book(book·<title·<@t·$rest>>·$more).",
    )
    .expect("query parses");
    let output = Executor::new().run(&query, &input).expect("terminates");
    println!("book titles:");
    for title in output.unary_paths(rel("Title")) {
        println!("  {title}");
    }
    assert_eq!(output.unary_paths(rel("Title")).len(), 2);

    // The input is NOT flat (it contains packed values), but the same *program*
    // restricted to flat instances is still a flat query, and Theorem 4.15 says the
    // packing feature itself is never necessary for flat queries.  Demonstrate the
    // rewrite on Example 2.2, whose input is flat:
    let packed_witness = sequence_datalog::fragments::witnesses::three_occurrences();
    let unpacked = eliminate_packing_nonrecursive(&packed_witness.program, packed_witness.output)
        .expect("nonrecursive");
    println!(
        "\nExample 2.2 uses fragment {}; the packing-free rewrite uses {} and {} rules.",
        Fragment::of_program(&packed_witness.program),
        Fragment::of_program(&unpacked),
        unpacked.rule_count()
    );

    let mut flat_input = Instance::new();
    flat_input.declare_relation(rel("R"), 1);
    flat_input.declare_relation(rel("S"), 1);
    flat_input
        .insert_fact(Fact::new(
            rel("R"),
            vec![path_of(&["x", "y", "x", "y", "x", "y"])],
        ))
        .unwrap();
    flat_input
        .insert_fact(Fact::new(rel("S"), vec![path_of(&["x", "y"])]))
        .unwrap();
    let original =
        run_boolean_query(&packed_witness.program, &flat_input, packed_witness.output).unwrap();
    let rewritten = run_boolean_query(&unpacked, &flat_input, packed_witness.output).unwrap();
    assert_eq!(original, rewritten);
    println!("both agree that the flat instance has three occurrences: {original} ✓");
}
