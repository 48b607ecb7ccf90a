//! Interning new paths copies them into the store's chunked arena: many
//! distinct short paths allocate once per chunk and once per table doubling,
//! never once per path.
//!
//! The counting allocator is process-wide, so this binary holds one test
//! and counts only between two reads on the test's own thread.

use seqdl_core::{Path, Value};
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
fn interning_distinct_paths_allocates_per_chunk_not_per_path() {
    const ATOMS: usize = 317;
    const PATHS: usize = 100_000;
    // Intern the atoms first: the atom interner's growth is not the store's.
    let atoms: Vec<Value> = (0..ATOMS).map(|i| Value::atom(&format!("a{i}"))).collect();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..PATHS {
        Path::from_slice(&[atoms[i / ATOMS], atoms[i % ATOMS]]);
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(seqdl_core::store_stats().distinct_paths, PATHS + 1);
    // 200k values fill a few dozen chunks, and the store's tables double
    // about log2(100k) ≈ 17 times each.
    assert!(
        allocations < 1_000,
        "{allocations} allocations for {PATHS} paths"
    );
}
