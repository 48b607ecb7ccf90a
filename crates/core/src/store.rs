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
//! programs, instances, and engines).  It is the crate's one consing table
//! (`cons.rs`): the content hash leads through a chain of ids to the one
//! holding an equal content, and new content is copied into leaked arena
//! chunks, so storage is shared across identical content and lives for the
//! process; [`store_stats`] reports the footprint.  Entry 0 is `ε`, which is
//! never hashed.  Every construction route — value sequences, slices, cuts
//! of stored paths, compositions, singletons — is a thin caller of one
//! function, `intern`, which hashes the content once and
//!
//! * answers the empty path with the constant [`PathId::EMPTY`];
//! * on a thread that owns the store (see below) finds or adds the content
//!   in the table itself, in one probe;
//! * otherwise checks this thread's consing cache (content hash → id,
//!   verified against the thread's entry mirror) without taking any lock —
//!   the dominant case, since every duplicate rule firing re-derives an
//!   existing path;
//! * and on a cache miss takes the write lock once to find the content or,
//!   if it is new, add it.
//!
//! A new content is stored without a copy when the caller hands in a slice
//! that already lives forever — a cut of a stored path aliases its parent's
//! storage — and copied once into the arena otherwise.  A composition is
//! first built as a value sequence in a reused buffer — a rule head argument
//! in its valuation's, this crate's own compositions
//! ([`crate::Path::from_values`], [`crate::Path::concat`],
//! [`crate::Path::push`]) in a thread-local one (`intern_built`) — and
//! interned once, so a repeat composition allocates nothing.  On a thread
//! that shares the store, reads (`resolve`) go through the thread-local
//! mirror of the append-only entry table, so resolving an id the thread has
//! seen before is a plain bounds-checked array read with no atomics — the
//! "shared read-only store" shape the executor's pool workers want.  The
//! read-only twin of `intern`, `find`, looks a content up through the same
//! cache and table without adding it.
//!
//! **One owner.**  A thread that loads or evaluates alone need not share:
//! [`exclusive`] takes the name interner's write lock and then the store's,
//! runs a closure, and releases both when it returns or unwinds.  The
//! guards sit in this thread's state, and while they are held every entry
//! point on the thread — `intern`, `intern_built`, `find`, `resolve`,
//! [`store_stats`] and the interner's — works on the held table directly:
//! no lock per lookup, one probe per new path, and nothing copied into the
//! mirror (neither its entries nor its consing cache).  The instance loader
//! always owns the tables, and the executor and the CLI do when they run on
//! one thread.  The owner waits on no other thread, so threads that intern
//! meanwhile block until the release and then go on as before; a nested
//! `exclusive` just runs its closure.
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
//! ([`crate::Path::find`]), a packed path inside the row included — a
//! content the store lacks is in no relation.  Two equation cases still
//! intern what no relation need hold: a ground side that is not one variable
//! is interned so that the other side's bindings can be views of it, and a
//! side that packs a path interns the packed path (a packed value *is* an
//! id).  Store growth thus tracks the facts an evaluation *keeps*, not the
//! matches it *tried* or the checks it *made*: `tests/store_growth_law.rs`
//! checks that it equals the new paths of the result on random programs,
//! and `store_stats` (and the evaluator's `max_store_bytes` budget) exist so
//! deployments can watch and bound what remains.

use crate::cons::ConsTable;
use crate::hash::{fx_hash, FxMap};
use crate::interner;
use crate::value::Value;
use std::cell::RefCell;
use std::sync::{OnceLock, PoisonError, RwLock, RwLockWriteGuard};

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

fn store() -> &'static RwLock<ConsTable<Value>> {
    static STORE: OnceLock<RwLock<ConsTable<Value>>> = OnceLock::new();
    STORE.get_or_init(|| {
        let mut table = ConsTable::new();
        table.add_unhashed(&[]);
        RwLock::new(table)
    })
}

/// This thread's side of the store.  `owner` is the store's write guard
/// while this thread owns it ([`exclusive`]); every other field is unused
/// then.  `entries` is a prefix copy of the append-only global table, so it
/// never goes stale: a hit is a plain array read, and a miss re-syncs the
/// tail under the read lock.  `cache` maps a content hash to the id this
/// thread last interned under it; `buf` is the reused buffer of
/// `intern_built`.
struct Mirror {
    owner: Option<RwLockWriteGuard<'static, ConsTable<Value>>>,
    entries: Vec<&'static [Value]>,
    cache: FxMap<u64, u32>,
    buf: Vec<Value>,
}

thread_local! {
    static MIRROR: RefCell<Mirror> = const {
        RefCell::new(Mirror {
            owner: None,
            entries: Vec::new(),
            cache: std::collections::HashMap::with_hasher(std::hash::BuildHasherDefault::new()),
            buf: Vec::new(),
        })
    };
}

impl Mirror {
    fn resolve(&mut self, ix: usize) -> &'static [Value] {
        if let Some(table) = &self.owner {
            return table.entries()[ix];
        }
        if ix >= self.entries.len() {
            let guard = store().read().unwrap_or_else(PoisonError::into_inner);
            let from = self.entries.len();
            self.entries.extend_from_slice(&guard.entries()[from..]);
        }
        self.entries[ix]
    }
}

/// Run `f` with this thread as the one owner of the name interner and the
/// path store: take the interner's write lock, then the store's, and
/// release both when `f` returns or unwinds.  Meanwhile every table lookup
/// on this thread works on the held tables with no lock and no per-thread
/// copy, and other threads that intern wait for the release.  So `f` must
/// not wait on a thread that interns.  A nested call just runs `f`.
pub fn exclusive<R>(f: impl FnOnce() -> R) -> R {
    /// Empties this thread's slot when `f` returns or unwinds.
    struct Release;
    impl Drop for Release {
        fn drop(&mut self) {
            drop(MIRROR.with_borrow_mut(|m| m.owner.take()));
        }
    }
    if MIRROR.with_borrow(|m| m.owner.is_some()) {
        return f();
    }
    interner::holding(|| {
        let guard = store().write().unwrap_or_else(PoisonError::into_inner);
        MIRROR.with_borrow_mut(|m| m.owner = Some(guard));
        let _release = Release;
        f()
    })
}

/// The value slice of an interned path.
pub(crate) fn resolve(id: PathId) -> &'static [Value] {
    MIRROR.with(|m| m.borrow_mut().resolve(id.0 as usize))
}

/// Intern `slice`: the one interning function every construction route calls.
/// On a miss the store keeps `stored` — which must equal `slice` and lives
/// forever, so nothing is copied — or, when it is `None`, a copy of `slice`.
pub(crate) fn intern(slice: &[Value], stored: Option<&'static [Value]>) -> PathId {
    const FULL: &str = "path store overflow";
    debug_assert!(stored.is_none_or(|s| s == slice));
    if slice.is_empty() {
        return PathId::EMPTY;
    }
    let hash = fx_hash(slice);
    MIRROR.with(|m| {
        let mut m = m.borrow_mut();
        if let Some(table) = &mut m.owner {
            return PathId(table.intern(hash, slice, stored).expect(FULL).id());
        }
        if let Some(&id) = m.cache.get(&hash) {
            if m.resolve(id as usize) == slice {
                return PathId(id);
            }
        }
        let id = store()
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .intern(hash, slice, stored)
            .expect(FULL)
            .id();
        m.cache.insert(hash, id);
        PathId(id)
    })
}

/// The id of the stored path with content `slice`, interning nothing: the
/// owned table, or else the thread's consing cache and then the chain probed
/// under the read lock.  `None` means no path has this content, so no
/// relation can hold a row with it — which is all a membership check needs
/// to know.
pub(crate) fn find(slice: &[Value]) -> Option<PathId> {
    if slice.is_empty() {
        return Some(PathId::EMPTY);
    }
    let hash = fx_hash(slice);
    MIRROR.with(|m| {
        let mut m = m.borrow_mut();
        if let Some(table) = &m.owner {
            return table.find(hash, slice).map(PathId);
        }
        if let Some(&id) = m.cache.get(&hash) {
            if m.resolve(id as usize) == slice {
                return Some(PathId(id));
            }
        }
        let id = store()
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .find(hash, slice)?;
        m.cache.insert(hash, id);
        Some(PathId(id))
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
    let of = |table: &ConsTable<Value>| StoreStats {
        distinct_paths: table.entries().len(),
        owned_bytes: table.copied_bytes(),
        table_bytes: table.table_bytes(),
    };
    MIRROR.with_borrow(|m| match &m.owner {
        Some(table) => of(table),
        None => of(&store().read().unwrap_or_else(PoisonError::into_inner)),
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::cons::{self, ARENA_MAX_LEN, CHUNK_LEN};
    use crate::path::Path;
    use crate::{atom, path_of};
    use std::collections::HashSet;

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
        let mut contents: Vec<Vec<Value>> = (0..4 * CHUNK_LEN / 3)
            .map(|i| {
                let mut values = vec![Value::atom(&format!("arena_k{i}"))];
                values.extend(filler.iter().cycle().take(i % 5));
                values
            })
            .collect();
        for len in [ARENA_MAX_LEN + 1, CHUNK_LEN + 3] {
            contents.insert(700, filler.iter().copied().cycle().take(len).collect());
        }
        assert!(contents.iter().map(Vec::len).sum::<usize>() > 3 * CHUNK_LEN);
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
    fn colliding_paths_chain_through_older_ids() {
        // Unit tests key the chains by two bits of each hash: 40 new paths
        // share at most four chains, so every lookup below walks one.
        let contents: Vec<[Value; 2]> = (0..40)
            .map(|i| [Value::atom("chain_p"), Value::atom(&format!("chain_p{i}"))])
            .collect();
        let keys: HashSet<u64> = contents.iter().map(|c| cons::key(fx_hash(c))).collect();
        assert!(keys.len() <= 4);
        let paths: Vec<Path> = contents.iter().map(|c| Path::from_slice(c)).collect();
        for (content, path) in contents.iter().zip(&paths) {
            assert_eq!(path.values(), content);
            assert_eq!(find(content), Some(path.id()));
        }
        // A thread with an empty consing cache probes the chains themselves.
        std::thread::spawn(move || {
            for (content, path) in contents.iter().zip(&paths) {
                assert_eq!(Path::from_slice(content), *path);
            }
        })
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

    /// This thread's mirror: its entry-copy and consing-cache lengths.
    fn mirror_lens() -> (usize, usize) {
        MIRROR.with_borrow(|m| (m.entries.len(), m.cache.len()))
    }

    fn owns() -> bool {
        MIRROR.with_borrow(|m| m.owner.is_some())
    }

    /// Run `f` on a new thread and wait at most ten seconds for its result,
    /// so that a lock left held fails the test instead of hanging it.
    fn on_other_thread<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(f()).unwrap());
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("the other thread interned within ten seconds")
    }

    #[test]
    fn exclusive_lookups_agree_with_shared_ones() {
        let names = ["excl_a", "excl_b", "excl_c"];
        let known = path_of(&names);
        let sub = known.subpath(1, 3);
        let before = store_stats();
        let (inside, fresh, stats, grown) = exclusive(|| {
            assert!(owns());
            let inside = path_of(&names);
            assert_eq!(inside.values(), known.values());
            assert_eq!(known.subpath(1, 3), sub);
            assert_eq!(find(sub.values()), Some(sub.id()));
            assert_eq!(atom("excl_b").name(), "excl_b");
            let stats = store_stats();
            // Nothing else interns meanwhile: a new path takes the next id.
            let fresh = path_of(&["excl_new", "excl_a"]);
            assert_eq!(fresh.id().index() as usize, stats.distinct_paths);
            (inside, fresh, stats, store_stats())
        });
        assert!(!owns());
        assert_eq!(inside, known);
        assert_eq!(grown.distinct_paths, stats.distinct_paths + 1);
        assert!(grown.owned_bytes > stats.owned_bytes);
        assert!(before.distinct_paths <= stats.distinct_paths);
        assert!(grown.distinct_paths <= store_stats().distinct_paths);
        assert_eq!(path_of(&["excl_new", "excl_a"]), fresh);
        assert_eq!(find(fresh.values()), Some(fresh.id()));
        let resolved = on_other_thread(move || (fresh.to_string(), path_of(&names)));
        assert_eq!(resolved, ("excl_new·excl_a".to_string(), known));
    }

    #[test]
    fn exclusive_fills_no_mirror() {
        let lens = mirror_lens();
        let paths = exclusive(|| {
            let paths: Vec<Path> = (0..50)
                .map(|i| path_of(&["excl_m", &format!("excl_m{i}")]))
                .collect();
            for path in &paths {
                assert_eq!(path.len(), 2);
                assert_eq!(find(path.values()), Some(path.id()));
                assert_eq!(path.subpath(1, 2).len(), 1);
            }
            assert_eq!(mirror_lens(), lens);
            paths
        });
        assert_eq!(mirror_lens(), lens);
        // Outside, the same lookups go through the mirror again.
        assert_eq!(paths[7].to_string(), "excl_m·excl_m7");
        assert!(mirror_lens().0 > paths[7].id().index() as usize);
    }

    #[test]
    fn nested_exclusive_is_a_no_op() {
        let path = exclusive(|| {
            let inner = exclusive(|| {
                assert!(owns());
                path_of(&["excl_nested"])
            });
            assert!(owns(), "the inner call leaves the outer one holding");
            assert_eq!(find(inner.values()), Some(inner.id()));
            inner
        });
        assert!(!owns());
        assert_eq!(path_of(&["excl_nested"]), path);
    }

    #[test]
    fn exclusive_releases_both_locks_on_panic() {
        let unwound = std::panic::catch_unwind(|| {
            exclusive(|| {
                let _ = path_of(&["excl_panic"]);
                panic!("inside exclusive");
            })
        });
        assert!(unwound.is_err());
        assert!(!owns());
        // Another thread adds a new name and a new path.
        let path = on_other_thread(|| path_of(&["excl_after_panic"]));
        assert_eq!(path.to_string(), "excl_after_panic");
        assert_eq!(exclusive(|| path_of(&["excl_after_panic"])), path);
    }

    #[test]
    fn exclusive_holds_other_interning_threads_until_release() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::{mpsc, Arc};
        let done = Arc::new(AtomicBool::new(false));
        let (ids, waiter) = exclusive(|| {
            let ids: Vec<Path> = (0..20)
                .map(|i| path_of(&["excl_wait", &format!("excl_wait{i}")]))
                .collect();
            let (started_tx, started) = mpsc::channel();
            let flag = Arc::clone(&done);
            let waiter = std::thread::spawn(move || {
                started_tx.send(()).unwrap();
                let theirs: Vec<Path> = (0..20)
                    .map(|i| path_of(&["excl_wait", &format!("excl_wait{i}")]))
                    .collect();
                flag.store(true, Ordering::SeqCst);
                theirs
            });
            started.recv().unwrap();
            std::thread::sleep(std::time::Duration::from_millis(20));
            // Its first name lookup waits for the interner's lock.
            assert!(!done.load(Ordering::SeqCst));
            (ids, waiter)
        });
        assert_eq!(waiter.join().unwrap(), ids);
        assert!(done.load(Ordering::SeqCst));
    }
}
