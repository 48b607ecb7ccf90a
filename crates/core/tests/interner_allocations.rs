//! Interning new names copies them into the interner's chunked arena: many
//! distinct short names allocate once per chunk and once per table
//! doubling, never once per name.
//!
//! The counting allocator is process-wide, so this binary holds one test.

mod counting;

use seqdl_core::Symbol;

#[test]
fn interning_new_names_allocates_per_chunk_not_per_name() {
    const NAMES: usize = 100_000;
    // Build the strings first: only the interner's allocations count.
    let names: Vec<String> = (0..NAMES).map(|i| format!("name{i}")).collect();
    let before = counting::allocations();
    let symbols: Vec<Symbol> = names.iter().map(|n| Symbol::intern(n)).collect();
    let allocations = counting::allocations() - before;
    assert_eq!(symbols.last().map(|s| s.name()), names.last().cloned());
    // 889 KB of names fill about 220 chunks, and the interner's tables
    // (and the `symbols` vector) double about log2(100k) ≈ 17 times each.
    assert!(
        allocations < 1_000,
        "{allocations} allocations for {NAMES} names"
    );
}
