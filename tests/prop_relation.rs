//! `Relation` against a model: an insertion-ordered `Vec` of distinct rows
//! plus a `BTreeSet` of them.  Random insert sequences over arities 0–3, with
//! many duplicates and with column indexes switched off and on between
//! inserts, must agree with the model on every reading the evaluator uses:
//! `len`, `contains`, iteration order, `slice_from` at every watermark, the
//! ids (and entry lengths) of every `probe_first` bucket, and set equality.
//!
//! A second model run draws rows over few or many first values in sorted,
//! round-robin and shuffled orders, so buckets move to the end of their
//! column's slab and the slab compacts; after every insert each bucket's ids
//! must still be the model's.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sequence_datalog::core::Relation;
use sequence_datalog::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

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

/// The orders `keyed_run` inserts its rows in.
#[derive(Clone, Copy, Debug)]
enum Order {
    /// Every row of a first value in one run, as `write_instance` writes.
    Sorted,
    /// Cycling through the first values, one row each.
    RoundRobin,
    Shuffled,
}

/// Rows `k·j` and `j·k` over `keys` first values in column 0 and
/// `per_key` in column 1, inserted in `order` with repeats and occasional
/// index mask switches; after every step every bucket of both columns must
/// hold the model's ids, ascending.
fn keyed_run(seed: u64, keys: usize, per_key: usize, order: Order) {
    let mut rng = StdRng::seed_from_u64(seed);
    let key = |k: usize| Value::atom(&format!("key{k}"));
    let val = |j: usize| Value::atom(&format!("val{j}"));
    let mut pairs: Vec<(usize, usize)> = match order {
        Order::Sorted => (0..keys)
            .flat_map(|k| (0..per_key).map(move |j| (k, j)))
            .collect(),
        Order::RoundRobin | Order::Shuffled => (0..per_key)
            .flat_map(|j| (0..keys).map(move |k| (k, j)))
            .collect(),
    };
    if let Order::Shuffled = order {
        for i in (1..pairs.len()).rev() {
            pairs.swap(i, rng.gen_range(0..=i));
        }
    }
    let mut relation = Relation::new(2);
    let mut model = Model::default();
    // (column, first value) → the model's ids, ascending.
    let mut buckets: BTreeMap<(usize, Value), Vec<u32>> = BTreeMap::new();
    let mut active = !0u64;
    for &(k, j) in &pairs {
        if rng.gen_bool(0.03) {
            active = rng.gen_range(0..4u64);
            relation.set_active_columns(active);
        }
        let row = [
            Path::from_values([key(k), val(j)]),
            Path::from_values([val(j), key(k)]),
        ];
        for _ in 0..rng.gen_range(1..=2usize) {
            let new = relation.insert(rel("K"), &row).expect("arity");
            if model.insert(&row) {
                assert!(new, "insert {k}·{j}");
                let id = (model.rows.len() - 1) as u32;
                buckets.entry((0, key(k))).or_default().push(id);
                buckets.entry((1, val(j))).or_default().push(id);
            } else {
                assert!(!new, "repeat {k}·{j}");
            }
        }
        for ((column, first), ids) in &buckets {
            let bucket = relation.probe_first(*column, first);
            let got: Vec<u32> = bucket.iter().map(|e| e.id).collect();
            let want: &[u32] = if active & (1 << column) != 0 {
                ids
            } else {
                &[]
            };
            assert_eq!(got, want, "column {column}, first value {first}, {order:?}");
            assert!(bucket.iter().all(|e| e.len == 2));
        }
    }
    assert_eq!(relation.len(), keys * per_key);
}

proptest! {
    #[test]
    fn relations_agree_with_the_model(seed in any::<u64>(), arity in 0usize..=3) {
        run(seed, arity);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn buckets_keep_the_model_ids_in_every_insert_order(
        seed in any::<u64>(),
        many in any::<bool>(),
        order in 0usize..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = if many { rng.gen_range(20..=60usize) } else { rng.gen_range(1..=4usize) };
        let per_key = rng.gen_range(1..=8usize);
        let order = [Order::Sorted, Order::RoundRobin, Order::Shuffled][order];
        keyed_run(seed, keys, per_key, order);
    }
}

#[test]
fn every_insert_order_keeps_the_model_ids() {
    for order in [Order::Sorted, Order::RoundRobin, Order::Shuffled] {
        for (seed, keys, per_key) in [(1, 1, 30), (2, 3, 20), (3, 40, 6), (4, 100, 3)] {
            keyed_run(seed, keys, per_key, order);
        }
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
