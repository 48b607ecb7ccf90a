//! Regression test for the invariant stated in the `hash` module: keys that
//! differ only in their last word must spread over the low bits of
//! [`fx_hash`], which the std `HashMap` uses to pick a home bucket.
//!
//! It lives in its own test binary because it interns 4096 paths into the
//! process-wide store, which would disturb the store-growth bounds that the
//! library's unit tests check while running alongside it.

use seqdl_core::{fx_hash, AtomId, Path, Value};
use std::collections::HashSet;
use std::hash::Hash;

const KEYS: usize = 4096;

/// How many distinct low-12-bit patterns the keys' hashes cover.
fn low_bit_patterns<T: Hash>(keys: &[T]) -> usize {
    keys.iter()
        .map(|k| fx_hash(k) & 0xfff)
        .collect::<HashSet<_>>()
        .len()
}

#[test]
fn keys_differing_in_their_last_word_spread_over_the_low_bits() {
    let atoms: Vec<AtomId> = (0..KEYS)
        .map(|i| AtomId::new(&format!("hash_spread_{i}")))
        .collect();
    let values: Vec<Value> = atoms.iter().map(|&a| Value::Atom(a)).collect();
    let paths: Vec<Path> = values.iter().map(|&v| Path::singleton(v)).collect();
    assert_eq!(atoms.iter().collect::<HashSet<_>>().len(), KEYS);
    assert_eq!(paths.iter().collect::<HashSet<_>>().len(), KEYS);
    for (what, patterns) in [
        ("Value::Atom", low_bit_patterns(&values)),
        ("AtomId", low_bit_patterns(&atoms)),
        ("Path", low_bit_patterns(&paths)),
    ] {
        assert!(
            patterns >= KEYS / 2,
            "{KEYS} distinct {what} keys hash to only {patterns} low-12-bit patterns"
        );
    }
}
