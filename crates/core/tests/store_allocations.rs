//! Interning new paths copies them into the store's chunked arena: many
//! distinct short paths allocate once per chunk and once per table doubling,
//! never once per path.
//!
//! The counting allocator is process-wide, so this binary holds one test.

mod counting;

use seqdl_core::{Path, Value};

#[test]
fn interning_distinct_paths_allocates_per_chunk_not_per_path() {
    const ATOMS: usize = 317;
    const PATHS: usize = 100_000;
    // Intern the atoms first: the atom interner's growth is not the store's.
    let atoms: Vec<Value> = (0..ATOMS).map(|i| Value::atom(&format!("a{i}"))).collect();
    let before = counting::allocations();
    for i in 0..PATHS {
        Path::from_slice(&[atoms[i / ATOMS], atoms[i % ATOMS]]);
    }
    let allocations = counting::allocations() - before;
    assert_eq!(seqdl_core::store_stats().distinct_paths, PATHS + 1);
    // 200k values fill a few dozen chunks, and the store's tables double
    // about log2(100k) ≈ 17 times each.
    assert!(
        allocations < 1_000,
        "{allocations} allocations for {PATHS} paths"
    );
}
