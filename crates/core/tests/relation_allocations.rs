//! A stored row costs its paths and nothing more: inserting many distinct
//! rows into a relation with its column indexes off allocates only when one
//! of its few growing buffers doubles, never per row.
//!
//! The counting allocator is process-wide, so this binary holds one test.

mod counting;

use seqdl_core::{rel, Path, Relation, Value};

#[test]
fn inserting_distinct_unary_rows_allocates_per_doubling_not_per_row() {
    const ROWS: usize = 100_000;
    // Intern the paths first: the path store's growth is not the relation's.
    let paths: Vec<Path> = (0..ROWS)
        .map(|i| Path::from_values([Value::atom(&format!("n{i}"))]))
        .collect();
    let name = rel("R");
    let mut relation = Relation::new(1);
    relation.set_active_columns(0);
    let before = counting::allocations();
    for path in &paths {
        assert!(relation.insert(name, &[*path]).expect("unary"));
    }
    let allocations = counting::allocations() - before;
    assert_eq!(relation.len(), ROWS);
    // Three buffers double about log2(100k) ≈ 17 times each.
    assert!(
        allocations < 64,
        "{allocations} allocations for {ROWS} rows"
    );
}
