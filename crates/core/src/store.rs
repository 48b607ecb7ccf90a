//! Hash-consed path storage: every distinct path is stored exactly once.
//!
//! The evaluator moves paths constantly — a relation row is a run of paths in
//! its relation's flat arena, deltas are windows over rows, valuations bind
//! paths to variables — and before this module existed every one of those
//! moves cloned a `Vec<Value>`.  The store replaces the owned vector with an
//! interned identity: a [`PathId`] is a dense `u32` into a process-wide table
//! of value slices, so
//!
//! * equality of paths is equality of ids (O(1), no content walk),
//! * hashing a path hashes one `u32` (consistent with equality because the
//!   table holds each content exactly once),
//! * cloning a path copies four bytes, and
//! * the values of a path are a `&'static [Value]` shared by every holder.
//!
//! The table is append-only and global (like the string interner of
//! [`crate::interner`], and for the same reason: values flow freely between
//! programs, instances, and engines).  Content lives in an arena of leaked
//! fixed-size chunks: a new path is copied to the front of the current
//! chunk's unused tail and cut off, so storing it allocates nothing until a
//! chunk fills.  Only a path longer than an eighth of a chunk gets a leaked
//! allocation of its own.  This is the memory-density trade systems like
//! Octopus make: storage is shared across identical content and lives for the
//! process, with [`store_stats`] exposing the footprint so harnesses can
//! report it.
//!
//! **One consing table.**  Besides the id → content table, the store keeps a
//! single content-keyed table: the content hash maps to the newest id with
//! that hash, and older ids with an equal hash chain through a per-id `next`
//! array, so a collision costs four bytes rather than a bucket vector.  Every
//! construction route — value sequences, slices, cuts of stored paths,
//! compositions, singletons — is a thin caller of one function, `intern`,
//! which hashes the content once and
//!
//! * answers the empty path with the constant [`PathId::EMPTY`];
//! * otherwise checks this thread's consing cache (content hash → id,
//!   verified against the thread's entry mirror) without taking any lock —
//!   the dominant case, since every duplicate rule firing re-derives an
//!   existing path;
//! * and on a cache miss takes the write lock once to probe the chain and,
//!   if the content is new, append it.
//!
//! A new content is stored without a copy when the caller hands in a slice
//! that already lives forever — a cut of a stored path aliases its parent's
//! storage — and copied once into the arena otherwise.  A composition is
//! first built as a value sequence in a reused buffer — a rule head argument
//! in its valuation's, this crate's own compositions ([`Path::from_values`],
//! [`Path::concat`], [`Path::push`]) in a thread-local one (`intern_built`)
//! — and interned once, so a repeat composition allocates nothing.  Reads
//! (`resolve`) go through the thread-local mirror of the append-only entry
//! table, so resolving an id a thread has seen before is a plain
//! bounds-checked array read with no atomics — the "shared read-only store"
//! shape the multi-threaded executor wants.  Its read-only twin, `find`,
//! probes the same cache and chain for a content without ever adding it.
//!
//! **Growth discipline.**  The store never forgets an interned path, so an
//! evaluation interns a content only where a relation is to hold it.  The
//! matcher's backtracking prefix enumeration tries up to O(L²) distinct cuts
//! of a length-L path probed by adjacent unbound path variables; bindings
//! hold them as unregistered `(parent, start, end)` views
//! ([`crate::PathView`]) whose comparisons run over the shared value slice.
//! A rule head builds each argument's values from its valuation and interns
//! that content once: a view inside the argument is copied in, and only an
//! argument that is one path variable interns the view itself, as a cut
//! aliasing its parent's storage ([`crate::PathView::to_path`]).  Checks
//! intern nothing: an equation whose ground side is one bound path variable
//! is matched over that variable's view, an equality filter compares
//! contents, and a membership check looks its row up with `find`
//! ([`Path::find`]), a packed path inside the row included — a content the
//! store lacks is in no relation.  Two equation cases still intern what no
//! relation need hold: a ground side that is not one variable is interned
//! so that the other side's bindings can be views of it, and a side that
//! packs a path interns the packed path (a packed value *is* an id).  Store
//! growth thus tracks the facts an evaluation *keeps*, not the matches it
//! *tried* or the checks it *made*: `tests/store_growth_law.rs` checks that
//! it equals the new paths of the result on random programs, and
//! `store_stats` (and the evaluator's `max_store_bytes` budget) exist so
//! deployments can watch and bound what remains.

use crate::hash::{fx_hash, FxMap};
use crate::path::Path;
use crate::value::Value;
use std::cell::RefCell;
use std::sync::{OnceLock, PoisonError, RwLock};

/// The identity of an interned path: a dense index into the global store.
///
/// Two `PathId`s are equal if and only if they were interned from equal value
/// sequences — the hash-consing invariant every fast path above relies on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PathId(u32);

impl PathId {
    /// The id of the empty path `ε` (entry 0, reserved at store creation).
    pub const EMPTY: PathId = PathId(0);

    /// The raw index of this id (useful for dense side tables).
    pub fn index(self) -> u32 {
        self.0
    }
}

/// Values per arena chunk (8 bytes each, so 32 KiB).
const CHUNK_VALUES: usize = 4096;

/// The longest content copied into the arena.  A longer one gets a leaked
/// allocation of its own, so starting a fresh chunk never abandons more than
/// an eighth of the old one.
const ARENA_MAX_LEN: usize = CHUNK_VALUES / 8;

struct StoreInner {
    /// Id → content; append-only, so prefixes of this table never change.
    entries: Vec<&'static [Value]>,
    /// Content hash → the newest id whose content has that hash.
    newest: FxMap<u64, u32>,
    /// Id → the next older id with the same content hash.  Id 0 (`ε`, which
    /// is never hashed) ends a chain.
    next: Vec<u32>,
    /// The unused tail of the current arena chunk: new content is copied to
    /// its front and cut off.
    tail: &'static mut [Value],
    /// Bytes of copied content (stored cuts alias their parent and add nothing).
    owned_bytes: usize,
}

impl StoreInner {
    /// The id holding `slice`, whose content hash is `hash`, or 0 (`ε`,
    /// never hashed) if the store holds no such content.
    fn probe(&self, hash: u64, slice: &[Value]) -> u32 {
        let mut id = self.newest.get(&hash).copied().unwrap_or(0);
        while id != 0 && self.entries[id as usize] != slice {
            id = self.next[id as usize];
        }
        id
    }

    /// A copy of `slice` that lives forever: cut from the arena's tail (a
    /// fresh chunk when the tail is too short), or leaked on its own when
    /// `slice` is longer than [`ARENA_MAX_LEN`].
    fn copy(&mut self, slice: &[Value]) -> &'static [Value] {
        self.owned_bytes += std::mem::size_of_val(slice);
        if slice.len() > ARENA_MAX_LEN {
            return Box::leak(slice.into());
        }
        if self.tail.len() < slice.len() {
            self.tail = Box::leak(vec![Value::Packed(Path::empty()); CHUNK_VALUES].into());
        }
        let (stored, rest) = std::mem::take(&mut self.tail).split_at_mut(slice.len());
        stored.copy_from_slice(slice);
        self.tail = rest;
        stored
    }
}

fn store() -> &'static RwLock<StoreInner> {
    static STORE: OnceLock<RwLock<StoreInner>> = OnceLock::new();
    STORE.get_or_init(|| {
        RwLock::new(StoreInner {
            entries: vec![&[]],
            newest: FxMap::default(),
            next: vec![0],
            tail: &mut [],
            owned_bytes: 0,
        })
    })
}

/// This thread's side of the store.  `entries` is a prefix copy of the
/// append-only global table, so it never goes stale: a hit is a plain array
/// read, and a miss re-syncs the tail under the read lock.  `cache` maps a
/// content hash to the id this thread last interned under it; `buf` is the
/// reused buffer of `intern_built`.
struct Mirror {
    entries: Vec<&'static [Value]>,
    cache: FxMap<u64, u32>,
    buf: Vec<Value>,
}

thread_local! {
    static MIRROR: RefCell<Mirror> = const {
        RefCell::new(Mirror {
            entries: Vec::new(),
            cache: std::collections::HashMap::with_hasher(std::hash::BuildHasherDefault::new()),
            buf: Vec::new(),
        })
    };
}

impl Mirror {
    fn resolve(&mut self, ix: usize) -> &'static [Value] {
        if ix >= self.entries.len() {
            let guard = store().read().unwrap_or_else(PoisonError::into_inner);
            let from = self.entries.len();
            self.entries.extend_from_slice(&guard.entries[from..]);
        }
        self.entries[ix]
    }
}

/// The value slice of an interned path.
pub(crate) fn resolve(id: PathId) -> &'static [Value] {
    MIRROR.with(|m| m.borrow_mut().resolve(id.0 as usize))
}

/// Intern `slice`: the one interning function every construction route calls.
/// On a miss the store keeps `stored` — which must equal `slice` and lives
/// forever, so nothing is copied — or, when it is `None`, a copy of `slice`.
pub(crate) fn intern(slice: &[Value], stored: Option<&'static [Value]>) -> PathId {
    debug_assert!(stored.is_none_or(|s| s == slice));
    if slice.is_empty() {
        return PathId::EMPTY;
    }
    let hash = fx_hash(slice);
    MIRROR.with(|m| {
        let mut m = m.borrow_mut();
        if let Some(&id) = m.cache.get(&hash) {
            if m.resolve(id as usize) == slice {
                return PathId(id);
            }
        }
        let mut guard = store().write().unwrap_or_else(PoisonError::into_inner);
        let g = &mut *guard;
        let mut id = g.probe(hash, slice);
        if id == 0 {
            let stored = stored.unwrap_or_else(|| g.copy(slice));
            id = u32::try_from(g.entries.len()).expect("path store overflow");
            g.entries.push(stored);
            g.next.push(g.newest.insert(hash, id).unwrap_or(0));
        }
        drop(guard);
        m.cache.insert(hash, id);
        PathId(id)
    })
}

/// The id of the stored path with content `slice`, interning nothing: the
/// thread's consing cache first, then the chain probed under the read lock.
/// `None` means no path has this content, so no relation can hold a row with
/// it — which is all a membership check needs to know.
pub(crate) fn find(slice: &[Value]) -> Option<PathId> {
    if slice.is_empty() {
        return Some(PathId::EMPTY);
    }
    let hash = fx_hash(slice);
    MIRROR.with(|m| {
        let mut m = m.borrow_mut();
        if let Some(&id) = m.cache.get(&hash) {
            if m.resolve(id as usize) == slice {
                return Some(PathId(id));
            }
        }
        let id = store()
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .probe(hash, slice);
        (id != 0).then(|| {
            m.cache.insert(hash, id);
            PathId(id)
        })
    })
}

/// Intern the content `fill` writes into this thread's reused buffer: a
/// content already stored allocates nothing, a new one is copied once.
/// `fill` may itself intern paths (a nested call just builds in a buffer of
/// its own).
pub(crate) fn intern_built(fill: impl FnOnce(&mut Vec<Value>)) -> PathId {
    let mut buf = MIRROR.with(|m| std::mem::take(&mut m.borrow_mut().buf));
    buf.clear();
    fill(&mut buf);
    let id = intern(&buf, None);
    MIRROR.with(|m| m.borrow_mut().buf = buf);
    id
}

/// A snapshot of the global store's size, for memory-footprint reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of distinct paths interned (including `ε`).
    pub distinct_paths: usize,
    /// Bytes of path content the store copied.  Shared sub-slices (subpaths
    /// of stored paths) contribute nothing: they alias their parent's
    /// storage.  The unfilled tail of the current arena chunk is not counted.
    pub owned_bytes: usize,
    /// Approximate bytes of table overhead: the entry table, the consing
    /// table's hash map and its per-id chain array.
    pub table_bytes: usize,
}

impl StoreStats {
    /// Total approximate footprint in bytes.
    pub fn total_bytes(&self) -> usize {
        self.owned_bytes + self.table_bytes
    }
}

/// Snapshot the global store's statistics.
pub fn store_stats() -> StoreStats {
    let guard = store().read().unwrap_or_else(PoisonError::into_inner);
    // Hash-map overhead estimated as key + value + one byte of control per
    // bucket at the current capacity.
    let map_bytes = guard.newest.capacity() * (std::mem::size_of::<(u64, u32)>() + 1);
    StoreStats {
        distinct_paths: guard.entries.len(),
        owned_bytes: guard.owned_bytes,
        table_bytes: guard.entries.capacity() * std::mem::size_of::<&'static [Value]>()
            + map_bytes
            + guard.next.capacity() * std::mem::size_of::<u32>(),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::path::Path;
    use crate::{atom, path_of};

    #[test]
    fn interning_is_idempotent_and_ids_are_identity() {
        let a = path_of(&["a", "b", "c"]);
        let b = path_of(&["a", "b", "c"]);
        let c = path_of(&["a", "b"]);
        assert_eq!(a.id(), b.id());
        assert_ne!(a.id(), c.id());
        assert_eq!(Path::empty().id(), PathId::EMPTY);
    }

    #[test]
    fn singleton_memo_agrees_with_general_interning() {
        let via_singleton = Path::singleton(Value::Atom(atom("memo_probe")));
        let via_general = Path::from_values([Value::Atom(atom("memo_probe"))]);
        assert_eq!(via_singleton.id(), via_general.id());
    }

    #[test]
    fn subslice_interning_shares_parent_storage() {
        let parent = path_of(&["s1", "s2", "s3", "s4"]);
        let sub = parent.subpath(1, 3);
        // The sub-slice aliases the parent's storage: same address range.
        let parent_range = parent.values().as_ptr_range();
        let sub_ptr = sub.values().as_ptr();
        assert!(parent_range.contains(&sub_ptr));
        // And it is the same id as interning the content from scratch.
        assert_eq!(sub, path_of(&["s2", "s3"]));
    }

    #[test]
    fn arena_chunks_keep_every_earlier_content() {
        // Mixed lengths, more than three chunks' worth of values in all, plus
        // contents past the arena cap that are leaked on their own.
        let filler: Vec<Value> = (0..8)
            .map(|j| Value::atom(&format!("arena_v{j}")))
            .collect();
        let mut contents: Vec<Vec<Value>> = (0..4 * CHUNK_VALUES / 3)
            .map(|i| {
                let mut values = vec![Value::atom(&format!("arena_k{i}"))];
                values.extend(filler.iter().cycle().take(i % 5));
                values
            })
            .collect();
        for len in [ARENA_MAX_LEN + 1, CHUNK_VALUES + 3] {
            contents.insert(700, filler.iter().copied().cycle().take(len).collect());
        }
        assert!(contents.iter().map(Vec::len).sum::<usize>() > 3 * CHUNK_VALUES);
        let paths: Vec<Path> = contents.iter().map(|c| Path::from_slice(c)).collect();
        for (path, content) in paths.iter().zip(&contents) {
            assert_eq!(path.values(), content.as_slice());
            assert_eq!(Path::from_slice(content), *path);
        }
        // A thread with an empty mirror resolves the same content.
        std::thread::spawn(move || {
            for (path, content) in paths.iter().zip(&contents) {
                assert_eq!(path.values(), content.as_slice());
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    fn find_answers_without_interning() {
        let content = [Value::atom("find_x"), Value::atom("find_y")];
        assert_eq!(find(&content), None);
        assert_eq!(find(&content), None, "a miss stores nothing");
        assert_eq!(find(&[]), Some(PathId::EMPTY));
        let stored = Path::from_slice(&content);
        assert_eq!(find(&content), Some(stored.id()));
        // A thread whose consing cache never saw the content finds it too.
        std::thread::spawn(move || assert_eq!(find(&content), Some(stored.id())))
            .join()
            .unwrap();
    }

    #[test]
    fn store_stats_grow_with_new_content() {
        let before = store_stats();
        let _ = path_of(&["stats_x", "stats_y", "stats_z"]);
        let after = store_stats();
        assert!(after.distinct_paths > before.distinct_paths);
        assert!(after.owned_bytes > before.owned_bytes);
        assert!(after.total_bytes() >= after.owned_bytes);
    }

    #[test]
    fn concurrent_interning_yields_one_id_per_content() {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    (0..100)
                        .map(|i| path_of(&["cc", &format!("v{}", i % 10), &format!("t{}", t % 2)]))
                        .collect::<Vec<Path>>()
                })
            })
            .collect();
        let results: Vec<Vec<Path>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Threads with the same t % 2 interned equal contents and, because
        // path equality is id equality, must agree on every id.
        assert_eq!(results[0], results[2]);
        assert_eq!(results[1], results[3]);
    }
}
