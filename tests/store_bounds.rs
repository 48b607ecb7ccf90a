//! Regression test for the unbounded-store hazard: the backtracking matcher's
//! enumerated prefix cuts must be *views* into the parent path, interned only
//! when a fact is actually emitted — never speculatively.
//!
//! The adversarial program joins two adjacent path variables against a path
//! with no `b` in it: `A($x) <- R($x·$y·b·$y).` on `R = {a^L}` forces the
//! matcher to enumerate every `(start, end)` split for `$x` and `$y` — Θ(L²)
//! candidate cuts — and reject all of them (zero facts emitted).  If those
//! cuts were interned, the global path store would grow by Θ(L²) distinct
//! subpaths; with views it grows by O(1).
//!
//! This file is deliberately its own integration-test binary: the path store
//! is process-global, so the byte accounting must not share a process with
//! unrelated tests.

mod reference;

use sequence_datalog::exec::Executor;
use sequence_datalog::prelude::{parse_program, rel, repeat_path, Instance};

#[test]
fn rejected_prefix_cuts_do_not_grow_the_store() {
    const L: usize = 256;
    let program = parse_program("A($x) <- R($x·$y·b·$y).").unwrap();
    // Interning a^L (and the program's atoms) happens before the measurement.
    let input = Instance::unary(rel("R"), [repeat_path("a", L)]);

    let before = sequence_datalog::core::store_stats();
    // The RAM interpreter enumerates the adversarial cuts.
    let out = Executor::new().run(&program, &input).unwrap();
    let after = sequence_datalog::core::store_stats();

    // No fact matches (there is no `b`), so nothing should be emitted...
    assert!(out.unary_paths(rel("A")).is_empty());
    assert_eq!(out, reference::evaluate(&program, &input));

    // ...and nothing should have been interned.  The old behaviour interned a
    // distinct subpath per speculative cut: Θ(L²/2) ≈ 32k paths at L = 256.
    // Views keep the growth constant; the bound below leaves two orders of
    // magnitude of slack while still catching any O(L²) (or even O(L))
    // regression.
    let grown_paths = after.distinct_paths - before.distinct_paths;
    let grown_bytes = after.total_bytes().saturating_sub(before.total_bytes());
    // Printed so CI can archive the regression numbers (`--nocapture`).
    println!("adversarial-store: L={L} grown_paths={grown_paths} grown_bytes={grown_bytes}");
    assert!(
        grown_paths < 16,
        "speculative cuts were interned: {grown_paths} new paths \
         (before {before:?}, after {after:?})"
    );
    assert!(
        grown_bytes < 64 * 1024,
        "store grew by {grown_bytes} bytes on a zero-emission run \
         (before {before:?}, after {after:?})"
    );
}

#[test]
fn emitted_facts_still_intern_their_cuts() {
    // The positive control: with a `b` present the join succeeds, and the
    // emitted bindings must be real interned paths.
    let program = parse_program("A($x) <- R($x·$y·b·$y).").unwrap();
    let mut values = vec!["a"; 6];
    values.push("b");
    values.extend(["a"; 3]);
    // a^6 · b · a^3: $x = a^3, $y = a^3 is the unique solution.
    let input = Instance::unary(rel("R"), [sequence_datalog::prelude::path_of(&values)]);
    let out = Executor::new().run(&program, &input).unwrap();
    assert_eq!(out, reference::evaluate(&program, &input));
    let a = out.unary_paths(rel("A"));
    assert_eq!(a.len(), 1);
    assert!(a.contains(&repeat_path("a", 3)));
}
