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
//! Checks intern nothing either: an equality filter compares contents and a
//! negated predicate looks its row up without interning it, even a row that
//! packs a path.  Nor does a head: a path variable inside a longer head
//! argument is copied into the argument's content, not stored on its own.
//! So the store grows by exactly the paths the answer holds
//! (`tests/store_growth_law.rs` states this for random programs).
//!
//! This file is deliberately its own integration-test binary: the path store
//! is process-global, so the byte accounting must not share a process with
//! unrelated tests.  Within the binary, every test holds [`STORE`] so that no
//! other test interns while one measures.

mod reference;

use sequence_datalog::core::store_stats;
use sequence_datalog::exec::Executor;
use sequence_datalog::prelude::{
    parse_program, path_of, rel, repeat_path, Fact, Instance, Path, Value,
};
use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};

/// Serialises the tests of this binary around the process-global store.
static STORE: Mutex<()> = Mutex::new(());

fn hold_store() -> MutexGuard<'static, ()> {
    STORE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn rejected_prefix_cuts_do_not_grow_the_store() {
    let _store = hold_store();
    const L: usize = 256;
    let program = parse_program("A($x) <- R($x·$y·b·$y).").unwrap();
    // Interning a^L (and the program's atoms) happens before the measurement.
    let input = Instance::unary(rel("R"), [repeat_path("a", L)]);

    let before = store_stats();
    // The RAM interpreter enumerates the adversarial cuts.
    let out = Executor::new().run(&program, &input).unwrap();
    let after = store_stats();

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
    let _store = hold_store();
    // The positive control: with a `b` present the join succeeds, and the
    // emitted bindings must be real interned paths.
    let program = parse_program("A($x) <- R($x·$y·b·$y).").unwrap();
    let mut values = vec!["a"; 6];
    values.push("b");
    values.extend(["a"; 3]);
    // a^6 · b · a^3: $x = a^3, $y = a^3 is the unique solution.
    let input = Instance::unary(rel("R"), [path_of(&values)]);
    let out = Executor::new().run(&program, &input).unwrap();
    assert_eq!(out, reference::evaluate(&program, &input));
    let a = out.unary_paths(rel("A"));
    assert_eq!(a.len(), 1);
    assert!(a.contains(&repeat_path("a", 3)));
}

#[test]
fn equality_filters_grow_the_store_by_the_answer_only() {
    let _store = hold_store();
    // `$x != $y` compares each split's two halves.  Interning them to compare
    // would add every `$y` suffix that is not itself an answer.  The atoms
    // are this test's own, so no other test interned any of these paths.
    let program = parse_program("T($x) <- R($t), $t = $x·$y, $x != $y.").unwrap();
    let inputs = [
        path_of(&["eq_a", "eq_b", "eq_c", "eq_d"]),
        path_of(&["eq_a", "eq_b", "eq_a", "eq_b"]),
        path_of(&["eq_c", "eq_d", "eq_e", "eq_f", "eq_g"]),
    ];
    let input = Instance::unary(rel("R"), inputs);

    let before = store_stats();
    let out = Executor::new().run(&program, &input).unwrap();
    let after = store_stats();

    let answer = out.unary_paths(rel("T"));
    assert_eq!(answer.len(), 12);
    // Every non-empty answer path that is not an input path is new content.
    let new_answer_paths = answer
        .iter()
        .filter(|p| !p.is_empty() && !inputs.contains(p))
        .count();
    let grown_paths = after.distinct_paths - before.distinct_paths;
    println!("equality-check-store: grown_paths={grown_paths} new_answer_paths={new_answer_paths}");
    assert_eq!(
        grown_paths, new_answer_paths,
        "the store grew by more than the answer (before {before:?}, after {after:?})"
    );
    assert_eq!(out, reference::evaluate(&program, &input));
}

#[test]
fn negated_membership_checks_intern_nothing() {
    let _store = hold_store();
    // Each `$s` the rule checks against `W`, which holds none of them, must
    // be found absent without being stored.
    let program = parse_program("V($t) <- R($t), $t = $p·c·$s, !W($s).").unwrap();
    let inputs = [
        path_of(&["neg_a", "c", "neg_b", "neg_d"]),
        path_of(&["c", "neg_e", "c", "neg_f"]),
        path_of(&["neg_g", "neg_h"]),
    ];
    let mut input = Instance::unary(rel("R"), inputs);
    input
        .insert_fact(Fact::new(rel("W"), vec![path_of(&["neg_w"])]))
        .unwrap();
    let suffixes: Vec<Vec<Value>> = [
        &["neg_b", "neg_d"][..],
        &["neg_e", "c", "neg_f"],
        &["neg_f"],
    ]
    .iter()
    .map(|names| names.iter().map(|n| Value::atom(n)).collect())
    .collect();
    assert!(suffixes.iter().all(|s| Path::find(s).is_none()));

    let before = store_stats();
    let out = Executor::new().run(&program, &input).unwrap();
    let after = store_stats();

    let grown_paths = after.distinct_paths - before.distinct_paths;
    println!("negated-check-store: grown_paths={grown_paths}");
    assert_eq!(
        out.unary_paths(rel("V")),
        BTreeSet::from([inputs[0], inputs[1]])
    );
    assert!(
        suffixes.iter().all(|s| Path::find(s).is_none()),
        "a checked suffix was interned"
    );
    assert_eq!(
        grown_paths, 0,
        "the answer holds input paths only (before {before:?}, after {after:?})"
    );
    assert_eq!(out, reference::evaluate(&program, &input));
}

#[test]
fn heads_store_their_arguments_only() {
    let _store = hold_store();
    // `$x` is a proper cut of each input; the head `$x·z` copies its values
    // in, so the cut itself is not stored.
    let program = parse_program("T($x·z) <- R($t), $t = $x·c·$y.").unwrap();
    let inputs = [
        path_of(&["hd_a", "hd_b", "c", "hd_d"]),
        path_of(&["hd_e", "hd_f", "c", "hd_g"]),
    ];
    let input = Instance::unary(rel("R"), inputs);

    let before = store_stats();
    let out = Executor::new().run(&program, &input).unwrap();
    let after = store_stats();

    let grown_paths = after.distinct_paths - before.distinct_paths;
    println!("head-argument-store: grown_paths={grown_paths}");
    assert_eq!(
        out.unary_paths(rel("T")),
        BTreeSet::from([
            path_of(&["hd_a", "hd_b", "z"]),
            path_of(&["hd_e", "hd_f", "z"])
        ])
    );
    for cut in [["hd_a", "hd_b"], ["hd_e", "hd_f"]] {
        let values: Vec<Value> = cut.iter().map(|n| Value::atom(n)).collect();
        assert!(Path::find(&values).is_none(), "{cut:?} was stored");
    }
    assert_eq!(
        grown_paths, 2,
        "the store grew by more than the 2 answers (before {before:?}, after {after:?})"
    );
    assert_eq!(out, reference::evaluate(&program, &input));
}

#[test]
fn packed_membership_checks_intern_nothing() {
    let _store = hold_store();
    // Each check grounds `<$x·q>`; `Q` holds no such packed value, and the
    // packed path `$x·q` must be found absent without being stored.
    let program = parse_program("S($x) <- R($x), !Q(<$x·q>).").unwrap();
    let inputs = [path_of(&["pk_a", "pk_b"]), path_of(&["pk_c", "pk_d"])];
    let mut input = Instance::unary(rel("R"), inputs);
    input
        .insert_fact(Fact::new(rel("Q"), vec![path_of(&["pk_zz"])]))
        .unwrap();

    let before = store_stats();
    let out = Executor::new().run(&program, &input).unwrap();
    let after = store_stats();

    let grown_paths = after.distinct_paths - before.distinct_paths;
    println!("packed-check-store: grown_paths={grown_paths}");
    assert_eq!(out.unary_paths(rel("S")), BTreeSet::from(inputs));
    for packed in [["pk_a", "pk_b", "q"], ["pk_c", "pk_d", "q"]] {
        let values: Vec<Value> = packed.iter().map(|n| Value::atom(n)).collect();
        assert!(Path::find(&values).is_none(), "{packed:?} was stored");
    }
    assert_eq!(
        grown_paths, 0,
        "the answer holds input paths only (before {before:?}, after {after:?})"
    );
    assert_eq!(out, reference::evaluate(&program, &input));
}
