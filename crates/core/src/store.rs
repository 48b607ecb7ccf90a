//! Hash-consed path storage: every distinct path is stored exactly once.
//!
//! The evaluator moves paths constantly — tuples are vectors of paths, deltas
//! are windows over tuples, valuations bind paths to variables — and before
//! this module existed every one of those moves cloned a `Vec<Value>`.  The
//! store replaces the owned vector with an interned identity: a [`PathId`] is
//! a dense `u32` into a process-wide table of value slices, so
//!
//! * equality of paths is equality of ids (O(1), no content walk),
//! * hashing a path hashes one `u32` (consistent with equality because the
//!   table holds each content exactly once),
//! * cloning a path copies four bytes, and
//! * the values of a path are a `&'static [Value]` shared by every holder.
//!
//! The table is append-only and global (like the string interner of
//! [`crate::interner`], and for the same reason: values flow freely between
//! programs, instances, and engines).  Entries are leaked `Box<[Value]>`
//! allocations — the memory-density trade systems like Octopus make: storage
//! is shared across identical content and lives for the process, with
//! [`store_stats`] exposing the footprint so harnesses can report it.
//!
//! Two fast paths keep the dominant cases off the lock entirely:
//!
//! * the empty path is the constant [`PathId::EMPTY`], and
//! * singleton atom paths (the whole content of flat classical instances) go
//!   through a dense per-atom memo table mirrored thread-locally.
//!
//! General reads (`resolve`) also go through a thread-local mirror of the
//! append-only entry table, so resolving an id a thread has seen before is a
//! plain bounds-checked array read with no atomics — the "shared read-only
//! store" shape the multi-threaded executor wants.  Only interning *new*
//! content takes the write lock.
//!
//! **Growth discipline.**  The matcher's backtracking prefix enumeration
//! tries up to O(L²) distinct cuts of a length-L path probed by adjacent
//! unbound path variables, and the store never forgets an interned path.
//! Speculative cuts therefore stay *out* of the store: bindings hold
//! unregistered `(parent, start, end)` views ([`crate::PathView`]) whose
//! comparisons run over the shared value slice, and a cut is interned only
//! when it survives to a fact emission or equation grounding
//! ([`crate::PathView::to_path`]).  Store growth thus tracks the facts an
//! evaluation *keeps*, not the matches it *tried*; `store_stats` (and the
//! evaluator's `max_store_bytes` budget) exist so deployments can watch and
//! bound what remains.

use crate::hash::{fx_hash, FxMap};
use crate::interner::AtomId;
use crate::value::Value;
use parking_lot::RwLock;
use std::cell::RefCell;
use std::sync::OnceLock;

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

const EMPTY_VALUES: &[Value] = &[];
const NO_ID: u32 = u32::MAX;

struct StoreInner {
    /// Content hash → candidate ids; the hash-consing table.  Keying on the
    /// precomputed content hash (instead of the slice) means one content walk
    /// per intern call total: the caller hashes once and every probe and the
    /// final insert reuse that hash, where a slice-keyed map re-hashed the
    /// content at each of its own probes.  Collisions only lengthen the
    /// candidate list, which the equality checks filter.
    by_content: FxMap<u64, Vec<u32>>,
    /// Id → content; append-only, so prefixes of this table never change.
    entries: Vec<&'static [Value]>,
    /// Bytes of leaked owned slices (shared sub-slices add nothing here).
    owned_bytes: usize,
    /// Atom symbol index → id of the singleton path holding that atom.
    singleton: Vec<u32>,
    /// `(parent id, start, end)` → subpath id: lets [`crate::Path::subpath`]
    /// answer repeat cuts by hashing three `u32`s instead of re-hashing the
    /// value content (the matcher enumerates the same cuts constantly).
    subpaths: FxMap<(u32, u32, u32), u32>,
}

fn store() -> &'static RwLock<StoreInner> {
    static STORE: OnceLock<RwLock<StoreInner>> = OnceLock::new();
    STORE.get_or_init(|| {
        let mut by_content: FxMap<u64, Vec<u32>> = FxMap::default();
        by_content.insert(fx_hash(EMPTY_VALUES), vec![0]);
        RwLock::new(StoreInner {
            by_content,
            entries: vec![EMPTY_VALUES],
            owned_bytes: 0,
            singleton: Vec::new(),
            subpaths: FxMap::default(),
        })
    })
}

/// Thread-local mirror of the global tables.  The entry and singleton tables
/// are append-only, so a prefix copy is forever consistent: a hit is a plain
/// array read, and a miss re-syncs the tail under the read lock.  `by_hash`
/// is this thread's private consing cache — content hash → candidate ids —
/// which answers repeat interning of already-stored content (the dominant
/// case: every duplicate rule firing re-derives an existing path) without
/// touching the lock at all.
struct Mirror {
    entries: Vec<&'static [Value]>,
    singleton: Vec<u32>,
    by_hash: FxMap<u64, Vec<u32>>,
    /// `(parent, start, end)` → id: this thread's subpath-cut cache.
    subpaths: FxMap<(u32, u32, u32), u32>,
    /// Segment-sequence hash → candidate ids: this thread's composition
    /// cache, so re-deriving `q2 · $y` with interned `$y` hashes two ids
    /// instead of the concatenated content (see [`crate::path::Segment`]).
    by_segments: FxMap<u64, Vec<u32>>,
}

const fn new_fx_map<K, V>() -> FxMap<K, V> {
    std::collections::HashMap::with_hasher(std::hash::BuildHasherDefault::new())
}

thread_local! {
    static MIRROR: RefCell<Mirror> = const {
        RefCell::new(Mirror {
            entries: Vec::new(),
            singleton: Vec::new(),
            by_hash: new_fx_map(),
            subpaths: new_fx_map(),
            by_segments: new_fx_map(),
        })
    };
}

/// Resolve an id through the mirror the caller already borrowed.
fn mirror_resolve(m: &mut Mirror, ix: usize) -> &'static [Value] {
    if ix >= m.entries.len() {
        let guard = store().read();
        let from = m.entries.len();
        m.entries.extend_from_slice(&guard.entries[from..]);
    }
    m.entries[ix]
}

/// Look `values` up in this thread's consing cache.  Lock-free on a hit;
/// candidate ids unseen by this thread's entry mirror trigger one tail
/// re-sync under the read lock.
fn tls_lookup(hash: u64, values: &[Value]) -> Option<PathId> {
    MIRROR.with(|m| {
        let mut m = m.borrow_mut();
        // Copy the (almost always single) candidate ids out so the map borrow
        // does not overlap the mirror re-sync below.
        let mut candidates = [0u32; 4];
        let n = {
            let ids = m.by_hash.get(&hash)?;
            let n = ids.len().min(candidates.len());
            candidates[..n].copy_from_slice(&ids[..n]);
            n
        };
        for &id in &candidates[..n] {
            if mirror_resolve(&mut m, id as usize) == values {
                return Some(PathId(id));
            }
        }
        None
    })
}

fn tls_record(hash: u64, id: PathId) {
    MIRROR.with(|m| {
        let mut m = m.borrow_mut();
        let ids = m.by_hash.entry(hash).or_default();
        if !ids.contains(&id.0) {
            ids.push(id.0);
        }
    });
}

/// The value slice of an interned path.
pub(crate) fn resolve(id: PathId) -> &'static [Value] {
    let ix = id.0 as usize;
    MIRROR.with(|m| mirror_resolve(&mut m.borrow_mut(), ix))
}

/// What the general interner is given to insert on a miss.
enum NewContent<'a> {
    /// An owned vector: leaked into the table on insert.
    Owned(Vec<Value>),
    /// A slice that already lives forever (a sub-slice of a stored path):
    /// stored as-is, no copy, no allocation.
    Static(&'static [Value]),
    /// A borrowed slice: copied only on a genuine miss.
    Borrowed(&'a [Value]),
}

impl NewContent<'_> {
    fn as_slice(&self) -> &[Value] {
        match self {
            NewContent::Owned(v) => v,
            NewContent::Static(s) => s,
            NewContent::Borrowed(s) => s,
        }
    }
}

/// Intern a value sequence, with the empty and singleton-atom fast paths and
/// the thread-local consing cache in front of the lock.
fn intern_content(content: NewContent<'_>) -> PathId {
    let slice = content.as_slice();
    match slice {
        [] => return PathId::EMPTY,
        [Value::Atom(a)] => return intern_singleton_atom(*a),
        _ => {}
    }
    let hash = fx_hash(slice);
    if let Some(id) = tls_lookup(hash, slice) {
        return id;
    }
    {
        let guard = store().read();
        if let Some(id) = find_by_content(&guard, hash, slice) {
            tls_record(hash, PathId(id));
            return PathId(id);
        }
    }
    let id = {
        let mut guard = store().write();
        if let Some(id) = find_by_content(&guard, hash, content.as_slice()) {
            PathId(id)
        } else {
            let stored: &'static [Value] = match content {
                NewContent::Owned(v) => {
                    guard.owned_bytes += v.len() * std::mem::size_of::<Value>();
                    Box::leak(v.into_boxed_slice())
                }
                NewContent::Static(s) => s,
                NewContent::Borrowed(s) => {
                    guard.owned_bytes += std::mem::size_of_val(s);
                    Box::leak(s.to_vec().into_boxed_slice())
                }
            };
            PathId(push_entry(&mut guard, hash, stored))
        }
    };
    tls_record(hash, id);
    id
}

/// The id under `hash` whose stored content equals `slice`, if any.
fn find_by_content(guard: &StoreInner, hash: u64, slice: &[Value]) -> Option<u32> {
    guard
        .by_content
        .get(&hash)?
        .iter()
        .copied()
        .find(|&id| guard.entries[id as usize] == slice)
}

fn push_entry(guard: &mut StoreInner, hash: u64, stored: &'static [Value]) -> u32 {
    let id = u32::try_from(guard.entries.len()).expect("path store overflow");
    guard.entries.push(stored);
    guard.by_content.entry(hash).or_default().push(id);
    id
}

/// Intern an owned value vector (the buffer is reused as the stored slice on
/// a miss, so building content exactly-sized costs one allocation total).
pub(crate) fn intern_vec(values: Vec<Value>) -> PathId {
    intern_content(NewContent::Owned(values))
}

/// Intern a slice that lives forever — a sub-slice of an already stored
/// path.  Never copies: on a miss the slice itself becomes the table entry,
/// which is what makes `subpath`/`subpaths` and the matcher's prefix
/// enumeration allocation-free.
pub(crate) fn intern_static(values: &'static [Value]) -> PathId {
    intern_content(NewContent::Static(values))
}

/// The id of `parent[start..end]` through the cut memo: a repeat cut hashes
/// three `u32`s instead of the slice content.  `slice` must be exactly
/// `resolve(parent)[start..end]`, nonempty and a proper sub-slice.
pub(crate) fn subpath_id(parent: PathId, start: u32, end: u32, slice: &'static [Value]) -> PathId {
    let key = (parent.0, start, end);
    let cached = MIRROR.with(|m| m.borrow().subpaths.get(&key).copied());
    if let Some(id) = cached {
        return PathId(id);
    }
    let id = {
        let hit = store().read().subpaths.get(&key).copied();
        match hit {
            Some(id) => PathId(id),
            None => {
                let id = intern_content(NewContent::Static(slice));
                store().write().subpaths.insert(key, id.0);
                id
            }
        }
    };
    MIRROR.with(|m| {
        m.borrow_mut().subpaths.insert(key, id.0);
    });
    id
}

/// One segment of a composed path: a single value or a whole interned path.
/// The composition memo keys on the segment *identities* (each one u32-sized),
/// so repeat compositions of interned pieces cost O(#segments), not
/// O(total content length).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Segment {
    /// One value.
    Value(Value),
    /// All values of an interned path, spliced in order.
    Path(PathId),
}

fn segment_hash(segments: &[Segment]) -> u64 {
    use std::hash::Hasher;
    let mut h = crate::hash::FxHasher::default();
    for seg in segments {
        match seg {
            Segment::Value(Value::Atom(a)) => {
                h.write_u8(1);
                h.write_u32(a.symbol().index());
            }
            Segment::Value(Value::Packed(p)) => {
                h.write_u8(2);
                h.write_u32(p.id().0);
            }
            Segment::Path(p) => {
                h.write_u8(3);
                h.write_u32(p.0);
            }
        }
    }
    h.finish()
}

/// Does `content` equal the concatenation the segments denote?  Pure slice
/// compares — no hashing, no allocation.
fn segments_match(m: &mut Mirror, content: &[Value], segments: &[Segment]) -> bool {
    let mut off = 0usize;
    for seg in segments {
        match seg {
            Segment::Value(v) => {
                if content.get(off) != Some(v) {
                    return false;
                }
                off += 1;
            }
            Segment::Path(p) => {
                let vals = mirror_resolve(m, p.0 as usize);
                let end = off + vals.len();
                if content.len() < end || &content[off..end] != vals {
                    return false;
                }
                off = end;
            }
        }
    }
    off == content.len()
}

/// Intern the concatenation denoted by `segments`, through the thread-local
/// composition memo: a repeat composition hashes one `u32` per segment and
/// verifies by slice compares; only a genuinely new composition builds the
/// content and goes through full interning.
pub(crate) fn intern_segments(segments: &[Segment]) -> PathId {
    match segments {
        [] => return PathId::EMPTY,
        [Segment::Path(p)] => return *p,
        [Segment::Value(Value::Atom(a))] => return intern_singleton_atom(*a),
        _ => {}
    }
    let hash = segment_hash(segments);
    let hit = MIRROR.with(|m| {
        let mut m = m.borrow_mut();
        let mut candidates = [0u32; 4];
        let n = match m.by_segments.get(&hash) {
            Some(ids) => {
                let n = ids.len().min(candidates.len());
                candidates[..n].copy_from_slice(&ids[..n]);
                n
            }
            None => 0,
        };
        for &id in &candidates[..n] {
            let content = mirror_resolve(&mut m, id as usize);
            if segments_match(&mut m, content, segments) {
                return Some(PathId(id));
            }
        }
        None
    });
    if let Some(id) = hit {
        return id;
    }
    // Miss: build the content once and intern it (the buffer becomes the
    // stored slice if the content is new).
    let mut content = Vec::with_capacity(
        segments
            .iter()
            .map(|s| match s {
                Segment::Value(_) => 1,
                Segment::Path(p) => resolve(*p).len(),
            })
            .sum(),
    );
    for seg in segments {
        match seg {
            Segment::Value(v) => content.push(*v),
            Segment::Path(p) => content.extend_from_slice(resolve(*p)),
        }
    }
    let id = intern_content(NewContent::Owned(content));
    MIRROR.with(|m| {
        let mut m = m.borrow_mut();
        let ids = m.by_segments.entry(hash).or_default();
        if !ids.contains(&id.0) {
            ids.push(id.0);
        }
    });
    id
}

/// Intern a borrowed slice (copied only when genuinely new).
pub(crate) fn intern_slice(values: &[Value]) -> PathId {
    intern_content(NewContent::Borrowed(values))
}

/// Intern the singleton path holding one atom, through the dense memo table:
/// after the first touch of an atom, this is a thread-local array read.
pub(crate) fn intern_singleton_atom(a: AtomId) -> PathId {
    let ix = a.symbol().index() as usize;
    let cached = MIRROR.with(|m| {
        let m = m.borrow();
        m.singleton.get(ix).copied().unwrap_or(NO_ID)
    });
    if cached != NO_ID {
        return PathId(cached);
    }
    let id = {
        let guard = store().read();
        guard.singleton.get(ix).copied().unwrap_or(NO_ID)
    };
    let id = if id != NO_ID {
        id
    } else {
        let mut guard = store().write();
        match guard.singleton.get(ix).copied().filter(|&id| id != NO_ID) {
            Some(id) => id,
            None => {
                // The content may already be interned through the general path
                // (e.g. as a length-1 sub-slice); keep the consing invariant.
                let single = [Value::Atom(a)];
                let hash = fx_hash(&single[..]);
                let id = match find_by_content(&guard, hash, &single[..]) {
                    Some(id) => id,
                    None => {
                        guard.owned_bytes += std::mem::size_of::<Value>();
                        let stored: &'static [Value] = Box::leak(Box::new(single));
                        push_entry(&mut guard, hash, stored)
                    }
                };
                if guard.singleton.len() <= ix {
                    guard.singleton.resize(ix + 1, NO_ID);
                }
                guard.singleton[ix] = id;
                id
            }
        }
    };
    MIRROR.with(|m| {
        let mut m = m.borrow_mut();
        if m.singleton.len() <= ix {
            m.singleton.resize(ix + 1, NO_ID);
        }
        m.singleton[ix] = id;
    });
    PathId(id)
}

/// A snapshot of the global store's size, for memory-footprint reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of distinct paths interned (including `ε`).
    pub distinct_paths: usize,
    /// Bytes of leaked value storage owned by the store.  Shared sub-slices
    /// (subpaths of stored paths) contribute nothing: they alias their
    /// parent's storage.
    pub owned_bytes: usize,
    /// Approximate bytes of table overhead (entry table, consing map buckets,
    /// singleton memo).
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
    let guard = store().read();
    let slice_ref = std::mem::size_of::<&'static [Value]>();
    // Hash-map overhead estimated as key + value + one word of control per
    // bucket at the current capacity.
    let map_bytes = guard.by_content.capacity()
        * (std::mem::size_of::<u64>() + std::mem::size_of::<Vec<u32>>() + 8)
        + guard.entries.len() * std::mem::size_of::<u32>();
    StoreStats {
        distinct_paths: guard.entries.len(),
        owned_bytes: guard.owned_bytes,
        table_bytes: guard.entries.capacity() * slice_ref
            + map_bytes
            + guard.singleton.capacity() * std::mem::size_of::<u32>()
            + guard.subpaths.capacity() * (4 * std::mem::size_of::<u32>() + 8),
    }
}

#[cfg(test)]
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
