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
//! interner handle through every API would add noise without adding safety.
//!
//! Each name is stored once and lives for the rest of the process, like the
//! symbol itself, in a table of the crate's one consing type (`cons.rs`,
//! the path store's over bytes): its bytes are copied into a leaked arena
//! chunk, and it is found by its hash from the crate's finalised string
//! hasher (see [`crate::hash`]).

use crate::cons::ConsTable;
use crate::hash::FxStrHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, PoisonError, RwLock};

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

fn interner() -> &'static RwLock<ConsTable<u8>> {
    static INTERNER: OnceLock<RwLock<ConsTable<u8>>> = OnceLock::new();
    INTERNER.get_or_init(|| RwLock::new(ConsTable::new()))
}

/// The index of `name`, whose hash is `hash`, if it was interned.
fn find(name: &str, hash: u64) -> Option<u32> {
    interner()
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .find(hash, name.as_bytes())
}

impl Symbol {
    /// Intern `name`, returning its symbol.  Idempotent.
    pub fn intern(name: &str) -> Symbol {
        let hash = hash_name(name);
        let ix = find(name, hash).unwrap_or_else(|| {
            interner()
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .intern(hash, name.as_bytes(), None)
                .expect("interner overflow")
        });
        Symbol(ix)
    }

    /// The interned string itself.
    fn text(self) -> &'static str {
        let bytes = interner()
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .entries()[self.0 as usize];
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
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        loop {
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let candidate = format!("{prefix}{n}");
            if find(&candidate, hash_name(&candidate)).is_none() {
                return Symbol::intern(&candidate);
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
}
