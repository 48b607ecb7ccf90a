//! Global string interner and the identifier newtypes built on it.
//!
//! The paper's universe **dom** of atomic values is countably infinite and abstract;
//! only equality between atomic values is ever observed by the semantics.  We
//! therefore represent atomic values (and relation names, and variable names) as
//! interned strings: a [`Symbol`] is a dense `u32` index into a process-wide table,
//! so equality and hashing are O(1) and every identifier can still be printed with
//! its original name.
//!
//! The interner is global (guarded by a `std::sync::RwLock`) because values flow
//! freely between programs, instances, and engines in this workspace; threading an
//! interner handle through every API would add noise without adding safety.  A
//! thread inside [`crate::store::exclusive`] holds its write lock, and every
//! lookup on that thread reads the held table with no lock round.
//!
//! Each name is stored once and lives for the rest of the process, like the
//! symbol itself, in a table of the crate's one consing type (`cons.rs`,
//! the path store's over bytes): its bytes are copied into a leaked arena
//! chunk, and it is found by its hash from the crate's finalised string
//! hasher (see [`crate::hash`]).

use crate::cons::{ConsTable, Consed};
use crate::hash::FxStrHasher;
use std::cell::RefCell;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// An interned string: a cheap, copyable identity for a name.
///
/// Two `Symbol`s are equal if and only if they were interned from equal strings.
/// Ordering is by the underlying index (i.e. interning order), not by name.  It
/// is stable within a process run; it gives deterministic iteration orders, and
/// it is the order in which sorted output lists atoms.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

fn hash_name(name: &str) -> u64 {
    let mut h = FxStrHasher::default();
    name.hash(&mut h);
    h.finish()
}

/// The suffix [`Symbol::fresh`] tries next.
static FRESH: AtomicU64 = AtomicU64::new(0);

fn interner() -> &'static RwLock<ConsTable<u8>> {
    static INTERNER: OnceLock<RwLock<ConsTable<u8>>> = OnceLock::new();
    INTERNER.get_or_init(|| RwLock::new(ConsTable::new()))
}

thread_local! {
    /// The interner's write guard while this thread owns it.
    static HELD: RefCell<Option<RwLockWriteGuard<'static, ConsTable<u8>>>> =
        const { RefCell::new(None) };
}

/// Run `f` holding the interner's write lock in this thread's state, so
/// that every lookup on the thread reads the held table; release it when `f`
/// returns or unwinds.  Called by [`crate::store::exclusive`] only.
pub(crate) fn holding<R>(f: impl FnOnce() -> R) -> R {
    struct Release;
    impl Drop for Release {
        fn drop(&mut self) {
            drop(HELD.with_borrow_mut(Option::take));
        }
    }
    HELD.set(Some(
        interner().write().unwrap_or_else(PoisonError::into_inner),
    ));
    let _release = Release;
    f()
}

fn shared() -> RwLockReadGuard<'static, ConsTable<u8>> {
    interner().read().unwrap_or_else(PoisonError::into_inner)
}

/// Find or add `name`, whose hash is `hash`: in the held table, or else in
/// the shared one under its write lock.
fn add(name: &str, hash: u64) -> Consed {
    let add = |table: &mut ConsTable<u8>| table.intern(hash, name.as_bytes(), None);
    HELD.with_borrow_mut(|held| match held {
        Some(table) => add(table),
        None => add(&mut interner().write().unwrap_or_else(PoisonError::into_inner)),
    })
    .expect("interner overflow")
}

impl Symbol {
    /// Intern `name`, returning its symbol.  Idempotent.
    pub fn intern(name: &str) -> Symbol {
        let hash = hash_name(name);
        // A shared table is probed under the read lock first, so a known name
        // takes no write lock; a held table is probed once.
        let known = HELD.with_borrow(|held| match held {
            Some(_) => None,
            None => shared().find(hash, name.as_bytes()),
        });
        Symbol(known.unwrap_or_else(|| add(name, hash).id()))
    }

    /// The interned string itself.
    fn text(self) -> &'static str {
        let ix = self.0 as usize;
        let bytes = HELD.with_borrow(|held| match held {
            Some(table) => table.entries()[ix],
            None => shared().entries()[ix],
        });
        std::str::from_utf8(bytes).expect("a name is stored from a str")
    }

    /// The string this symbol was interned from.
    pub fn name(self) -> String {
        self.text().to_owned()
    }

    /// Run `f` on the interned string without cloning it.
    pub fn with_name<R>(self, f: impl FnOnce(&str) -> R) -> R {
        f(self.text())
    }

    /// The raw index of this symbol (useful for dense tables).
    pub fn index(self) -> u32 {
        self.0
    }

    /// Rebuild a symbol from a raw index previously obtained from
    /// [`Symbol::index`].  Passing an index that was never handed out yields
    /// a symbol whose name lookups panic.
    pub fn from_index(ix: u32) -> Symbol {
        Symbol(ix)
    }

    /// Generate a fresh symbol whose name starts with `prefix` and is guaranteed not
    /// to have been interned before this call.  Used by program rewrites that need
    /// fresh relation or variable names.
    pub fn fresh(prefix: &str) -> Symbol {
        loop {
            let n = FRESH.fetch_add(1, Ordering::Relaxed);
            let candidate = format!("{prefix}{n}");
            // One lock round finds or adds the name, so no other thread can
            // intern it between the check and the add.
            if let Consed::New(ix) = add(&candidate, hash_name(&candidate)) {
                return Symbol(ix);
            }
        }
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.with_name(|n| write!(f, "Symbol({n:?})"))
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.with_name(|n| f.write_str(n))
    }
}

macro_rules! symbol_newtype {
    ($(#[$meta:meta])* $name:ident) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(Symbol);

        impl $name {
            /// Intern `name` into this namespace.
            pub fn new(name: &str) -> Self {
                Self(Symbol::intern(name))
            }

            /// Wrap an existing symbol.
            pub fn from_symbol(sym: Symbol) -> Self {
                Self(sym)
            }

            /// The underlying interned symbol.
            pub fn symbol(self) -> Symbol {
                self.0
            }

            /// The original string.
            pub fn name(self) -> String {
                self.0.name()
            }

            /// Generate a fresh identifier with the given prefix.
            pub fn fresh(prefix: &str) -> Self {
                Self(Symbol::fresh(prefix))
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Display::fmt(&self.0, f)
            }
        }
    };
}

symbol_newtype!(
    /// An atomic value from the universe **dom** (Section 2.1).
    ///
    /// Atomic values are opaque: the only operation the semantics ever performs on
    /// them is an equality test, which interning makes O(1).
    AtomId
);

symbol_newtype!(
    /// A relation name (the `R` in `R(p1, …, pn)`).
    RelName
);

symbol_newtype!(
    /// A variable name, shared by atomic variables (`@x`) and path variables (`$x`).
    ///
    /// The *kind* of a variable (atomic vs path) is tracked separately by the syntax
    /// crate; two variables with the same name but different kinds are distinct.
    VarSym
);

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::cons::{self, ARENA_MAX_LEN, CHUNK_LEN};
    use std::collections::HashSet;
    use std::hash::{BuildHasher, BuildHasherDefault};

    #[test]
    fn interning_is_idempotent_and_injective() {
        let a = Symbol::intern("alpha");
        let b = Symbol::intern("alpha");
        let c = Symbol::intern("beta");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.name(), "alpha");
        assert_eq!(c.name(), "beta");
    }

    #[test]
    fn with_name_avoids_clone_and_matches_name() {
        let a = Symbol::intern("gamma");
        let len = a.with_name(str::len);
        assert_eq!(len, 5);
        assert_eq!(a.name().len(), len);
    }

    #[test]
    fn fresh_symbols_are_distinct_from_existing_and_each_other() {
        let existing = Symbol::intern("fresh_test0");
        let mut seen = HashSet::new();
        seen.insert(existing);
        for _ in 0..64 {
            let s = Symbol::fresh("fresh_test");
            assert!(seen.insert(s), "fresh symbol collided: {s}");
        }
    }

    #[test]
    fn newtypes_are_namespaced_wrappers() {
        let a = AtomId::new("x");
        let r = RelName::new("x");
        let v = VarSym::new("x");
        // Same underlying symbol, but the Rust types keep the namespaces apart.
        assert_eq!(a.symbol(), r.symbol());
        assert_eq!(r.symbol(), v.symbol());
        assert_eq!(a.name(), "x");
        assert_eq!(format!("{a}"), "x");
        assert_eq!(format!("{r:?}"), "RelName(x)");
    }

    #[test]
    fn symbols_order_deterministically_within_a_run() {
        let a = Symbol::intern("order_a_zzz");
        let b = Symbol::intern("order_b_zzz");
        // Interned later => larger index.
        assert!(a.index() < b.index());
        assert!(a < b);
    }

    #[test]
    fn colliding_names_chain_through_older_indexes() {
        // Unit tests key the chains by two bits of each hash: 200 new names
        // share at most four chains, so every lookup below walks one.
        let names: Vec<String> = (0..200).map(|i| format!("chain_{i}")).collect();
        let symbols: Vec<Symbol> = names.iter().map(|n| Symbol::intern(n)).collect();
        let hashes: HashSet<u64> = names.iter().map(|n| cons::key(hash_name(n))).collect();
        assert!(hashes.len() <= 8);
        for (name, &symbol) in names.iter().zip(&symbols) {
            assert_eq!(Symbol::intern(name), symbol);
            assert_eq!(symbol.name(), *name);
        }
        let distinct: HashSet<Symbol> = symbols.iter().copied().collect();
        assert_eq!(distinct.len(), names.len());
        let fresh = Symbol::fresh("chain_");
        assert!(!symbols.contains(&fresh));
    }

    #[test]
    fn arena_chunks_keep_every_earlier_name() {
        // More than three chunks of short names, plus names past the arena
        // cap that are leaked on their own.
        let mut names: Vec<String> = (0..3 * CHUNK_LEN / 8)
            .map(|i| format!("arena_name_{i}"))
            .collect();
        for len in [ARENA_MAX_LEN + 1, CHUNK_LEN + 3] {
            names.insert(700, "é".repeat(len.div_ceil(2)));
        }
        assert!(names.iter().map(String::len).sum::<usize>() > 3 * CHUNK_LEN);
        let symbols: Vec<Symbol> = names.iter().map(|n| Symbol::intern(n)).collect();
        for (name, &symbol) in names.iter().zip(&symbols) {
            assert_eq!(symbol.name(), *name);
            assert_eq!(Symbol::intern(name), symbol);
        }
    }

    #[test]
    fn name_hashes_spread_over_the_low_bits() {
        // The std `HashMap` picks a home bucket from a hash's low bits; plain
        // Fx puts these 12,000 names in 64 low-14-bit patterns.
        let build = BuildHasherDefault::<FxStrHasher>::default();
        let buckets: HashSet<u64> = (0..12_000)
            .map(|i| build.hash_one(format!("n{i}").as_str()) & 0x3fff)
            .collect();
        assert!(buckets.len() >= 7_500, "{} buckets", buckets.len());
    }

    #[test]
    fn interning_is_thread_safe() {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    (0..200)
                        .map(|j| Symbol::intern(&format!("t{}_{}", i % 2, j)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<Symbol>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Threads with the same i % 2 interned the same strings and must agree.
        assert_eq!(results[0], results[2]);
        assert_eq!(results[1], results[3]);
    }

    #[test]
    fn fresh_never_returns_a_name_another_thread_added() {
        use std::sync::{Arc, Barrier};
        // Two threads intern the next suffixes `fresh` will try, keeping the
        // symbols they added, while two others draw fresh symbols with the
        // same prefix.  A fresh symbol is one `fresh` added itself, so no
        // other thread can have added it.
        let base = FRESH.load(Ordering::Relaxed);
        let start = Arc::new(Barrier::new(4));
        let interning: Vec<_> = (0..2u64)
            .map(|t| {
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    (0..3_000)
                        .filter_map(|k| {
                            let name = format!("race{}", base + 2 * k + t);
                            match add(&name, hash_name(&name)) {
                                Consed::New(ix) => Some(Symbol(ix)),
                                Consed::Old(_) => None,
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let drawing: Vec<_> = (0..2)
            .map(|_| {
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    (0..2_000)
                        .map(|_| Symbol::fresh("race"))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let added: HashSet<Symbol> = interning
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let fresh: Vec<Symbol> = drawing
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let distinct: HashSet<Symbol> = fresh.iter().copied().collect();
        assert_eq!(distinct.len(), fresh.len());
        for symbol in fresh {
            assert!(
                !added.contains(&symbol),
                "{symbol} was added by another thread"
            );
        }
    }

    #[test]
    fn exclusive_names_agree_with_shared_ones() {
        let known = Symbol::intern("excl_name_known");
        let (inside, new, fresh) = crate::store::exclusive(|| {
            assert!(HELD.with_borrow(Option::is_some));
            assert_eq!(known.name(), "excl_name_known");
            let new = Symbol::intern("excl_name_new");
            assert_eq!(Symbol::intern("excl_name_new"), new);
            let fresh = Symbol::fresh("excl_name_known");
            assert_ne!(fresh, known);
            (Symbol::intern("excl_name_known"), new, fresh)
        });
        assert!(HELD.with_borrow(Option::is_none));
        assert_eq!(inside, known);
        assert_eq!(Symbol::intern("excl_name_new"), new);
        assert_eq!(new.name(), "excl_name_new");
        assert_eq!(Symbol::intern(&fresh.name()), fresh);
        assert!(fresh.name().starts_with("excl_name_known"));
    }
}
