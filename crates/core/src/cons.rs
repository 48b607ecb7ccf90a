//! The crate's one consing table: find a content's id by its hash, or add it.
//!
//! Paths ([`crate::store`]), atom names ([`crate::interner`]) and the rows of
//! a [`crate::Relation`] are each stored once under a dense `u32` id, so
//! equal contents have equal ids.  All three find an id through [`Chains`]:
//! a content's hash maps to the newest id with that hash, and older ids with
//! an equal hash chain through a per-id `next` array, so a collision costs
//! four bytes rather than a bucket vector.  A lookup walks the chain and asks
//! the caller whether an id's content equals its own; find-or-add does so in
//! one map operation.  Ids run from 0 and stop below `u32::MAX`, which ends a
//! chain, so a full table is an error for the caller to report.
//!
//! A relation keeps its rows itself.  Paths and names keep theirs in a
//! [`ConsTable`]: the id → content table plus an arena of leaked chunks of
//! [`CHUNK_LEN`] elements.  A new content is copied to the front of the
//! current chunk's unused tail and cut off, so it allocates nothing until a
//! chunk fills; only one longer than [`ARENA_MAX_LEN`] is leaked on its own.
//!
//! The caller supplies the hash (see [`crate::hash`]).  This crate's unit
//! tests key the chains by two bits of it, so distinct contents collide and
//! every lookup, by all three users, walks a chain of older ids.

use crate::hash::FxMap;
use std::collections::hash_map::Entry;

/// The end of a chain, and so the one id a table never hands out.
pub(crate) const NO_ID: u32 = u32::MAX;

/// Elements per arena chunk: 4 KiB of bytes, 32 KiB of values.
pub(crate) const CHUNK_LEN: usize = 4096;

/// The longest content copied into the arena, so starting a fresh chunk
/// never abandons more than an eighth of the old one.
pub(crate) const ARENA_MAX_LEN: usize = CHUNK_LEN / 8;

/// A table already holds `u32::MAX` ids.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Full;

/// What [`Chains::find_or_add`] found: the id of an equal content already
/// held, or the id it just handed out for a new one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Consed {
    Old(u32),
    New(u32),
}

impl Consed {
    /// The id, old or new.
    pub(crate) fn id(self) -> u32 {
        match self {
            Consed::Old(id) | Consed::New(id) => id,
        }
    }
}

/// The id a table hands out next when it already holds `len` ids.
fn new_id(len: usize) -> Result<u32, Full> {
    (len < NO_ID as usize).then_some(len as u32).ok_or(Full)
}

/// The map key of `hash`: all of it, or two bits in this crate's unit tests.
pub(crate) fn key(hash: u64) -> u64 {
    hash & if cfg!(test) { 0b11 } else { !0 }
}

/// Hash → newest id, and id → the next older id with the same hash.
#[derive(Clone, Debug, Default)]
pub(crate) struct Chains {
    newest: FxMap<u64, u32>,
    /// One slot per id handed out; [`NO_ID`] ends a chain.
    next: Vec<u32>,
}

impl Chains {
    /// The newest id added under `hash` for which `is` holds.  Adds nothing.
    #[inline]
    pub(crate) fn find(&self, hash: u64, is: impl FnMut(u32) -> bool) -> Option<u32> {
        let newest = self.newest.get(&key(hash)).copied().unwrap_or(NO_ID);
        walk(&self.next, newest, is)
    }

    /// [`Chains::find`], or else a new id under `hash`, for the caller to
    /// store its content under.
    #[inline]
    pub(crate) fn find_or_add(
        &mut self,
        hash: u64,
        is: impl FnMut(u32) -> bool,
    ) -> Result<Consed, Full> {
        let id = new_id(self.next.len());
        let older = match self.newest.entry(key(hash)) {
            Entry::Occupied(mut newest) => {
                if let Some(old) = walk(&self.next, *newest.get(), is) {
                    return Ok(Consed::Old(old));
                }
                newest.insert(id?)
            }
            Entry::Vacant(slot) => {
                slot.insert(id?);
                NO_ID
            }
        };
        self.next.push(older);
        id.map(Consed::New)
    }
}

/// Follow the chain `next` from `id` to the first id for which `is` holds.
#[inline]
fn walk(next: &[u32], mut id: u32, mut is: impl FnMut(u32) -> bool) -> Option<u32> {
    while id != NO_ID {
        if is(id) {
            return Some(id);
        }
        id = next[id as usize];
    }
    None
}

/// Slices of `T`, each stored once under its id and found through
/// [`Chains`].
pub(crate) struct ConsTable<T: 'static> {
    /// Id → content; append-only, so prefixes of this table never change.
    entries: Vec<&'static [T]>,
    chains: Chains,
    /// The unused tail of the current arena chunk.
    tail: &'static mut [T],
    /// Bytes of copied content; a content stored without a copy adds none.
    copied_bytes: usize,
}

impl<T: Copy + PartialEq> ConsTable<T> {
    /// An empty table.
    pub(crate) fn new() -> ConsTable<T> {
        ConsTable {
            entries: Vec::new(),
            chains: Chains::default(),
            tail: &mut [],
            copied_bytes: 0,
        }
    }

    /// The contents, indexed by id.
    pub(crate) fn entries(&self) -> &[&'static [T]] {
        &self.entries
    }

    /// Bytes of content copied into the arena or leaked on its own.
    pub(crate) fn copied_bytes(&self) -> usize {
        self.copied_bytes
    }

    /// Approximate bytes of the entry table, the hash map (key, value and
    /// one control byte per bucket at its capacity) and the chain array.
    pub(crate) fn table_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<&'static [T]>()
            + self.chains.newest.capacity() * (std::mem::size_of::<(u64, u32)>() + 1)
            + self.chains.next.capacity() * std::mem::size_of::<u32>()
    }

    /// The id of `content`, whose hash is `hash`, if it is stored.
    #[inline]
    pub(crate) fn find(&self, hash: u64, content: &[T]) -> Option<u32> {
        self.chains
            .find(hash, |id| self.entries[id as usize] == content)
    }

    /// The id of `content`, whose hash is `hash`, storing it first if it is
    /// new: as `stored`, which must equal `content` and lives forever, or as
    /// a copy when `stored` is `None`.  [`Consed::New`] says it was new.
    pub(crate) fn intern(
        &mut self,
        hash: u64,
        content: &[T],
        stored: Option<&'static [T]>,
    ) -> Result<Consed, Full> {
        let entries = &self.entries;
        let consed = self
            .chains
            .find_or_add(hash, |id| entries[id as usize] == content)?;
        if let Consed::New(_) = consed {
            let stored = stored.unwrap_or_else(|| self.copy(content));
            self.entries.push(stored);
        }
        Ok(consed)
    }

    /// Store `stored` as the next entry under no hash, so that no lookup
    /// finds it: the path store's `ε`, which is never hashed.
    pub(crate) fn add_unhashed(&mut self, stored: &'static [T]) {
        self.chains.next.push(NO_ID);
        self.entries.push(stored);
    }

    /// A copy of `content` that lives forever: cut from the arena's tail (a
    /// fresh chunk when the tail is too short), or leaked on its own.
    fn copy(&mut self, content: &[T]) -> &'static [T] {
        self.copied_bytes += std::mem::size_of_val(content);
        if content.len() > ARENA_MAX_LEN {
            return Box::leak(content.into());
        }
        if self.tail.len() < content.len() {
            // A fresh chunk, filled with any element until content is copied in.
            self.tail = Box::leak(vec![content[0]; CHUNK_LEN].into_boxed_slice());
        }
        let (stored, rest) = std::mem::take(&mut self.tail).split_at_mut(content.len());
        stored.copy_from_slice(content);
        self.tail = rest;
        stored
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::hash::fx_hash;
    use crate::value::Value;
    use std::collections::HashMap;
    use std::fmt::Debug;

    #[test]
    fn ids_stop_below_u32_max() {
        let last = u32::MAX as usize - 1;
        assert_eq!(new_id(0), Ok(0));
        assert_eq!(new_id(last), Ok(u32::MAX - 1));
        assert_eq!(new_id(last + 1), Err(Full));
        assert_eq!(new_id(usize::MAX), Err(Full));
    }

    #[test]
    fn interleaved_interns_and_finds_agree_with_a_map_model() {
        // 4^0 + … + 4^4 = 341 contents, so most steps meet one already seen,
        // and two hash bits put about 85 of them on each chain.
        let mut table = ConsTable::<u8>::new();
        let mut model: HashMap<Vec<u8>, u32> = HashMap::new();
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        for step in 0..4_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let content: Vec<u8> = (0..state % 5)
                .map(|i| (state >> (8 + 2 * i)) as u8 & 3)
                .collect();
            let hash = fx_hash(&content);
            let known = model.get(&content).copied();
            if state & 0x100_0000 == 0 {
                assert_eq!(
                    table.find(hash, &content),
                    known,
                    "step {step}: find {content:?}"
                );
            } else {
                let next = u32::try_from(model.len()).unwrap();
                let consed = table.intern(hash, &content, None).unwrap();
                let want = known.map_or(Consed::New(next), Consed::Old);
                assert_eq!(consed, want, "step {step}: intern {content:?}");
                model.insert(content.clone(), consed.id());
            }
            assert_eq!(table.entries().len(), model.len());
        }
        assert!(model.len() > 250, "{} contents", model.len());
        for (content, &id) in &model {
            assert_eq!(table.entries()[id as usize], content.as_slice());
            assert_eq!(table.find(fx_hash(content), content), Some(id));
        }
    }

    #[test]
    fn find_never_adds_an_entry() {
        let mut table = ConsTable::<u8>::new();
        table.add_unhashed(&[]);
        let before = (
            table.entries().len(),
            table.copied_bytes(),
            table.table_bytes(),
        );
        for content in [&b""[..], b"a", b"ab", b"abc"] {
            let hash = fx_hash(content);
            assert_eq!(table.find(hash, content), None, "{content:?}");
            assert_eq!(table.find(hash, content), None, "{content:?} again");
        }
        let after = (
            table.entries().len(),
            table.copied_bytes(),
            table.table_bytes(),
        );
        assert_eq!(after, before);
        // The unhashed entry is not found either; interning the same content
        // stores it again under a hash.
        assert_eq!(table.intern(fx_hash(b""), b"", None), Ok(Consed::New(1)));
        assert_eq!(table.find(fx_hash(b""), b""), Some(1));
    }

    /// Intern distinct contents of mixed lengths, more than three chunks'
    /// worth in all, plus contents past the arena cap, and check that each
    /// keeps its elements, its id and its share of `copied_bytes`.
    /// `element` must be one-to-one on `0..251`.
    fn check_arena<T: Copy + PartialEq + Debug + std::hash::Hash + 'static>(
        element: impl Fn(usize) -> T,
    ) {
        let mut contents: Vec<Vec<T>> = (0..4 * CHUNK_LEN / 3)
            .map(|i| {
                let mut content = vec![element(i / 251), element(i % 251)];
                content.extend((0..i % 5).map(&element));
                content
            })
            .collect();
        for len in [ARENA_MAX_LEN, ARENA_MAX_LEN + 1, CHUNK_LEN, CHUNK_LEN + 3] {
            contents.insert(700, (0..len).map(|j| element(j % 251)).collect());
        }
        let total: usize = contents.iter().map(Vec::len).sum();
        assert!(total > 3 * CHUNK_LEN);
        let mut table = ConsTable::new();
        let ids: Vec<u32> = contents
            .iter()
            .map(|c| table.intern(fx_hash(c), c, None).unwrap().id())
            .collect();
        assert_eq!(table.copied_bytes(), total * std::mem::size_of::<T>());
        for (content, &id) in contents.iter().zip(&ids) {
            assert_eq!(table.entries()[id as usize], content.as_slice());
            assert_eq!(
                table.intern(fx_hash(content), content, None),
                Ok(Consed::Old(id))
            );
        }
        // A content that already lives forever is kept as it is, uncopied.
        let stored: &'static [T] = Box::leak((0..9).map(|j| element(7 * j + 1)).collect());
        let id = table
            .intern(fx_hash(stored), stored, Some(stored))
            .unwrap()
            .id();
        assert!(std::ptr::eq(table.entries()[id as usize], stored));
        assert_eq!(table.copied_bytes(), total * std::mem::size_of::<T>());
    }

    #[test]
    fn chunk_boundaries_and_long_contents_keep_their_bytes() {
        check_arena(|i| i as u8);
    }

    #[test]
    fn chunk_boundaries_and_long_contents_keep_their_values() {
        let atoms: Vec<Value> = (0..251)
            .map(|i| Value::atom(&format!("cons_v{i}")))
            .collect();
        check_arena(|i| atoms[i]);
    }
}
