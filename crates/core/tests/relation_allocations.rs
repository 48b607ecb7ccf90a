//! A stored row costs its paths and nothing more: inserting many distinct
//! rows into a relation with its column indexes off allocates only when one
//! of its few growing buffers doubles, never per row.
//!
//! The counting allocator is process-wide, so this binary holds one test
//! and counts only between two reads on the test's own thread.

use seqdl_core::{rel, Path, Relation, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting allocations and reallocations.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc`/`realloc` above, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System`, and the caller upholds the
        // `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

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
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for path in &paths {
        assert!(relation.insert(name, &[*path]).expect("unary"));
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(relation.len(), ROWS);
    // Three buffers double about log2(100k) ≈ 17 times each.
    assert!(
        allocations < 64,
        "{allocations} allocations for {ROWS} rows"
    );
}
