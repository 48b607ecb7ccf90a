//! The workspace's hash function: a fast multiply-xor hasher (FxHash-style).
//!
//! Used for every hash map on the hot path — first-value column buckets, the
//! store's thread-local consing caches, and the one consing table that finds
//! paths, relation rows and atom names by their hash.  It is deterministic
//! across runs (unlike `RandomState`) and much cheaper than SipHash for the
//! short interned-id sequences that make up paths and tuples: hashing a
//! tuple is one `write_*` call per length prefix and per interned id.
//!
//! Invariant: the last word written must reach the low bits of the hash.  The
//! std `HashMap` (hashbrown) picks a key's home bucket from those low bits, and
//! most keys here — [`crate::Value`], [`crate::AtomId`], [`crate::Path`] — vary
//! only in their last `u32`.  Each step therefore XORs the word in *after* the
//! rotate and multiplies last: since the multiplier is odd, the low `k` bits of
//! the result are a bijection of the low `k` bits of the mixed word, so keys
//! differing in the low bits of their last word land in different buckets.
//! Rotating after the XOR instead would push every bit of the word out of the
//! low 26 bits and put all such keys in one home bucket.  The `hash_spread`
//! test of this crate checks the invariant.
//!
//! Strings are poor keys for this hasher alone: `str` hashing ends with a
//! constant `0xff` word, so the low bits depend on little more than the first
//! byte of the last eight-byte chunk (`n0`…`n11999` cover 64 low-14-bit
//! patterns).  Key maps by interned ids where possible.  The interner finds
//! names by their hash: it hashes them with `FxStrHasher`, which finishes
//! with a xor-shift-multiply step that folds the high bits into the low
//! ones, and looks that `u64` up in the consing table.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A fast multiply-xor hasher (FxHash-style).
#[derive(Clone)]
pub struct FxHasher(u64);

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Default for FxHasher {
    fn default() -> FxHasher {
        FxHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// [`FxHasher`] over a string's bytes, finished with a 64-bit xor-shift-multiply
/// step so that the low bits of the hash depend on every byte.
#[derive(Clone, Default)]
pub(crate) struct FxStrHasher(FxHasher);

impl Hasher for FxStrHasher {
    fn finish(&self) -> u64 {
        let mut h = self.0.finish();
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^ (h >> 33)
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
    }
}

/// A `HashMap` using [`FxHasher`].
pub type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Hash a value with [`FxHasher`] in one call.
pub fn fx_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}
