//! A column index costs no heap block per first value: inserting many
//! distinct rows over tens of thousands of first values, with the index on,
//! allocates only when one of the relation's growing buffers or its index's
//! slab or span map doubles.
//!
//! The counting allocator is process-wide, so this binary holds one test.

mod counting;

use seqdl_core::{rel, Path, Relation, Value};

#[test]
fn indexing_distinct_rows_allocates_per_doubling_not_per_first_value() {
    const ROWS: usize = 100_000;
    const FIRSTS: usize = 60_000;
    // Intern the paths first: the path store's growth is not the relation's.
    // Rows past the first `FIRSTS` come back to earlier first values, so
    // their buckets move to the slab's end.
    let paths: Vec<Path> = (0..ROWS)
        .map(|i| {
            Path::from_values([
                Value::atom(&format!("k{}", i % FIRSTS)),
                Value::atom(&format!("v{i}")),
            ])
        })
        .collect();
    let name = rel("R");
    let mut relation = Relation::new(1);
    let before = counting::allocations();
    for path in &paths {
        assert!(relation.insert(name, &[*path]).expect("unary"));
    }
    let allocations = counting::allocations() - before;
    assert_eq!(relation.len(), ROWS);
    assert_eq!(relation.probe_first(0, &paths[7].values()[0]).len(), 2);
    // Five buffers (rows, dedup map, id chain, span map, slab) double about
    // log2(100k) ≈ 17 times each.
    assert!(
        allocations < 100,
        "{allocations} allocations for {ROWS} rows"
    );
}
