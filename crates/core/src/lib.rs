//! # seqdl-core — data model for sequence databases
//!
//! This crate implements the data model of Section 2.1 of *Expressiveness within
//! Sequence Datalog* (Aamer, Hidders, Paredaens, Van den Bussche, PODS 2021):
//!
//! * a countably infinite universe **dom** of *atomic values*, represented here by
//!   interned strings ([`AtomId`]);
//! * *values*, which are either atomic values or *packed values* `⟨p⟩` wrapping a
//!   path ([`Value`]);
//! * *paths*, finite sequences of values ([`Path`]), with `ε` the empty path and `·`
//!   (associative) concatenation;
//! * *schemas* assigning arities to relation names ([`Schema`]);
//! * *instances* assigning a finite n-ary relation on paths to every relation name
//!   ([`Instance`]), equivalently viewed as finite sets of *facts* ([`Fact`]).
//!
//! It also holds the one text rendering of values, paths and facts
//! ([`render`]), which every `Display` impl and the answer [`Renderer`] share.
//!
//! The crate deliberately contains no syntax (path *expressions*, rules, programs —
//! see `seqdl-syntax`) and no evaluation (see `seqdl-engine`): it is the substrate
//! every other crate in the workspace builds on.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(clippy::unwrap_used)]

pub mod cancel;
mod cons;
pub mod error;
pub mod hash;
pub mod instance;
pub mod interner;
pub mod path;
pub mod render;
pub mod store;
pub mod value;

pub use cancel::CancelToken;
pub use error::CoreError;
pub use hash::{fx_hash, FxHasher, FxMap};
pub use instance::{BucketEntry, ColumnIndex, Fact, Instance, Relation, Rows, Schema, Tuple};
pub use interner::{AtomId, RelName, Symbol, VarSym};
pub use path::{Path, PathView, Subpaths};
pub use render::Renderer;
pub use store::{store_stats, PathId, StoreStats};
pub use value::Value;

/// Convenience: intern an atomic value by name.
///
/// ```
/// use seqdl_core::{atom, Value};
/// let a = atom("a");
/// assert_eq!(Value::Atom(a).to_string(), "a");
/// ```
pub fn atom(name: &str) -> AtomId {
    AtomId::new(name)
}

/// Convenience: intern a relation name.
pub fn rel(name: &str) -> RelName {
    RelName::new(name)
}

/// Convenience: build a flat path of atomic values from symbol names.
///
/// ```
/// use seqdl_core::path_of;
/// let p = path_of(&["a", "b", "a"]);
/// assert_eq!(p.to_string(), "a·b·a");
/// assert_eq!(p.len(), 3);
/// ```
pub fn path_of(names: &[&str]) -> Path {
    Path::from_values(names.iter().map(|n| Value::Atom(atom(n))))
}

/// Convenience: build the path `a^n` (the atom `name` repeated `n` times).
pub fn repeat_path(name: &str, n: usize) -> Path {
    let a = atom(name);
    Path::from_values(std::iter::repeat_n(Value::Atom(a), n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_build_expected_paths() {
        assert_eq!(path_of(&[]).len(), 0);
        assert!(path_of(&[]).is_empty());
        assert_eq!(repeat_path("a", 5).len(), 5);
        assert_eq!(repeat_path("a", 0), Path::empty());
        assert_eq!(path_of(&["x", "y"]).to_string(), "x·y");
    }

    #[test]
    fn atoms_are_interned_by_name() {
        assert_eq!(atom("hello"), atom("hello"));
        assert_ne!(atom("hello"), atom("world"));
        assert_eq!(atom("hello").name(), "hello");
    }

    #[test]
    fn relation_names_are_interned_by_name() {
        assert_eq!(rel("R"), rel("R"));
        assert_ne!(rel("R"), rel("S"));
        assert_eq!(rel("R").name(), "R");
    }
}
