//! `Relation` against a model: an insertion-ordered `Vec` of distinct rows
//! plus a `BTreeSet` of them.  Random insert sequences over arities 0–3, with
//! many duplicates and with column indexes switched off and on between
//! inserts, must agree with the model on every reading the evaluator uses:
//! `len`, `contains`, iteration order, `slice_from` at every watermark, the
//! ids (and entry lengths) of every `probe_first` bucket, and set equality.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sequence_datalog::core::Relation;
use sequence_datalog::prelude::*;
use std::collections::BTreeSet;

/// A small pool of paths, so random rows repeat often: `ε`, flat paths
/// sharing first values, and packed values.
fn path_pool() -> Vec<Path> {
    vec![
        Path::empty(),
        path_of(&["a"]),
        path_of(&["b"]),
        path_of(&["a", "b"]),
        path_of(&["a", "c", "a"]),
        path_of(&["b", "a"]),
        Path::from_values([Value::packed(path_of(&["a"]))]),
        Path::from_values([Value::packed(path_of(&["a"])), Value::atom("b")]),
    ]
}

/// The model: distinct rows in first-insertion order, and the same rows as
/// a set.
#[derive(Default)]
struct Model {
    rows: Vec<Vec<Path>>,
    set: BTreeSet<Vec<Path>>,
}

impl Model {
    fn insert(&mut self, row: &[Path]) -> bool {
        let new = self.set.insert(row.to_vec());
        if new {
            self.rows.push(row.to_vec());
        }
        new
    }
}

/// Every reading of `relation` agrees with `model`.  `active` is the mask
/// last passed to `set_active_columns` (all ones if never).
fn check(relation: &Relation, model: &Model, active: u64, pool: &[Path]) {
    let arity = relation.arity();
    assert_eq!(relation.len(), model.rows.len());
    assert_eq!(relation.is_empty(), model.rows.is_empty());
    let stored: Vec<&[Path]> = relation.iter().collect();
    let expected: Vec<&[Path]> = model.rows.iter().map(Vec::as_slice).collect();
    assert_eq!(stored, expected, "iteration order");
    for (id, row) in expected.iter().enumerate() {
        assert_eq!(relation.rows().row(id), *row);
    }
    for mark in 0..=model.rows.len() + 1 {
        let since: Vec<&[Path]> = relation.slice_from(mark).collect();
        assert_eq!(
            since,
            expected[mark.min(expected.len())..],
            "slice_from({mark})"
        );
    }
    // Membership of every row over the pool, present or not.
    let mut probe_rows: Vec<Vec<Path>> = vec![Vec::new()];
    for _ in 0..arity {
        probe_rows = probe_rows
            .into_iter()
            .flat_map(|row| {
                pool.iter().map(move |p| {
                    let mut longer = row.clone();
                    longer.push(*p);
                    longer
                })
            })
            .collect();
    }
    for row in &probe_rows {
        assert_eq!(relation.contains(row), model.set.contains(row), "{row:?}");
    }
    assert!(!relation.contains(&vec![Path::empty(); arity + 1]));
    // Every first-value bucket of every column, in ascending id order.
    let firsts: BTreeSet<Value> = pool
        .iter()
        .filter_map(|p| p.values().first().copied())
        .collect();
    for column in 0..arity + 1 {
        for first in &firsts {
            let bucket = relation.probe_first(column, first);
            let ids: Vec<usize> = bucket.iter().map(|e| e.id as usize).collect();
            let want: Vec<usize> = if column < arity && active & (1 << column) != 0 {
                (0..model.rows.len())
                    .filter(|&id| model.rows[id][column].values().first() == Some(first))
                    .collect()
            } else {
                Vec::new()
            };
            assert_eq!(ids, want, "column {column}, first value {first}");
            for e in bucket {
                assert_eq!(e.len as usize, model.rows[e.id as usize][column].len());
            }
        }
    }
    // Set semantics: the same rows in another order make an equal relation,
    // and `tuples()` is the sorted set.
    let mut reversed = Relation::new(arity);
    for row in model.rows.iter().rev() {
        assert!(reversed.insert(rel("M"), row).expect("arity"));
    }
    assert_eq!(relation, &reversed);
    assert_eq!(
        relation.tuples(),
        model.set.iter().cloned().collect::<Vec<_>>()
    );
}

/// One random run: inserts (half of them repeats of a stored row) with index
/// masks switched at random, checked against the model after every step.
fn run(seed: u64, arity: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pool = path_pool();
    let mut relation = Relation::new(arity);
    let mut model = Model::default();
    let mut active = !0u64;
    let steps = rng.gen_range(1..=40usize);
    for _ in 0..steps {
        if rng.gen_bool(0.15) {
            active = rng.gen_range(0..16u64);
            relation.set_active_columns(active);
        } else {
            let row: Vec<Path> = if !model.rows.is_empty() && rng.gen_bool(0.5) {
                model.rows[rng.gen_range(0..model.rows.len())].clone()
            } else {
                (0..arity)
                    .map(|_| pool[rng.gen_range(0..pool.len())])
                    .collect()
            };
            let new = relation.insert(rel("M"), &row).expect("arity");
            assert_eq!(new, model.insert(&row), "insert {row:?}");
        }
        check(&relation, &model, active, &pool);
    }
    // A wrong-arity row is refused and changes nothing.
    let wrong = vec![Path::empty(); arity + 1];
    assert!(relation.insert(rel("M"), &wrong).is_err());
    check(&relation, &model, active, &pool);
}

proptest! {
    #[test]
    fn relations_agree_with_the_model(seed in any::<u64>(), arity in 0usize..=3) {
        run(seed, arity);
    }
}

#[test]
fn every_arity_runs_against_the_model() {
    for arity in 0..=3 {
        for seed in 0..8 {
            run(seed, arity);
        }
    }
}
