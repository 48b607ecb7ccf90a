//! Values: atomic values and packed values (Section 2.1).
//!
//! The paper defines values and paths by mutual induction:
//!
//! 1. every atomic value is a value;
//! 2. every finite sequence of values is a path (`ε` is the empty path);
//! 3. if `p` is a path then `⟨p⟩` is a *packed value*;
//! 4. every packed value is a value.
//!
//! [`Value`] is the value type; [`crate::Path`] is the path type.

use crate::interner::AtomId;
use crate::path::Path;
use crate::render;
use std::fmt;

/// A value: an atomic value or a packed path `⟨p⟩`.
///
/// Both variants wrap an interned `u32` identity — an [`AtomId`] symbol or a
/// hash-consed [`Path`] id — so a `Value` is eight bytes, `Copy`, and tests
/// equality and hashes in O(1) even when the packed payload is arbitrarily
/// deep.  Ordering is not O(1) for packed values: it compares the packed
/// paths by content.  Atoms come before packed values, and two atoms compare
/// by interner index (the order their names were first interned), not by
/// name.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// An atomic value from **dom**.
    Atom(AtomId),
    /// A packed value `⟨p⟩`, wrapping a path and treating it as a single value.
    Packed(Path),
}

impl Value {
    /// Intern and wrap an atomic value by name.
    pub fn atom(name: &str) -> Value {
        Value::Atom(AtomId::new(name))
    }

    /// Pack a path into a packed value.
    pub fn packed(path: Path) -> Value {
        Value::Packed(path)
    }

    /// Is this an atomic value?
    pub fn is_atom(&self) -> bool {
        matches!(self, Value::Atom(_))
    }

    /// Is this a packed value?
    pub fn is_packed(&self) -> bool {
        matches!(self, Value::Packed(_))
    }

    /// The atom, if this value is atomic.
    pub fn as_atom(&self) -> Option<AtomId> {
        match self {
            Value::Atom(a) => Some(*a),
            Value::Packed(_) => None,
        }
    }

    /// The packed path, if this value is packed.
    pub fn as_packed(&self) -> Option<&Path> {
        match self {
            Value::Atom(_) => None,
            Value::Packed(p) => Some(p),
        }
    }

    /// Packing depth: 0 for atoms, `1 + depth(p)` for `⟨p⟩`.
    ///
    /// ```
    /// use seqdl_core::{Value, Path, path_of};
    /// assert_eq!(Value::atom("a").packing_depth(), 0);
    /// let packed = Value::packed(path_of(&["a", "b"]));
    /// assert_eq!(packed.packing_depth(), 1);
    /// let nested = Value::packed(Path::from_values([packed]));
    /// assert_eq!(nested.packing_depth(), 2);
    /// ```
    pub fn packing_depth(&self) -> usize {
        match self {
            Value::Atom(_) => 0,
            Value::Packed(p) => 1 + p.packing_depth(),
        }
    }

    /// Total number of atomic-value occurrences, at any packing depth.
    pub fn atom_count(&self) -> usize {
        match self {
            Value::Atom(_) => 1,
            Value::Packed(p) => p.atom_count(),
        }
    }
}

/// Atom names consisting of ASCII alphanumerics and `_` (other than `eps`)
/// print bare; any other atom name prints single-quoted so that the output
/// can be re-parsed.  See [`crate::render`].
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        render::write_value(f, *self, &mut render::Interned)
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl From<AtomId> for Value {
    fn from(a: AtomId) -> Self {
        Value::Atom(a)
    }
}

impl From<Path> for Value {
    fn from(p: Path) -> Self {
        Value::packed(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{atom, path_of};

    #[test]
    fn atoms_and_packed_values_are_distinguished() {
        let a = Value::atom("a");
        let packed = Value::packed(path_of(&["a"]));
        assert!(a.is_atom());
        assert!(!a.is_packed());
        assert!(packed.is_packed());
        assert!(!packed.is_atom());
        assert_ne!(a, packed);
        assert_eq!(a.as_atom(), Some(atom("a")));
        assert_eq!(packed.as_packed(), Some(&path_of(&["a"])));
        assert_eq!(a.as_packed(), None);
        assert_eq!(packed.as_atom(), None);
    }

    #[test]
    fn packing_depth_counts_nesting() {
        let flat = Value::atom("c");
        assert_eq!(flat.packing_depth(), 0);
        let one = Value::packed(path_of(&["a", "b", "a"]));
        assert_eq!(one.packing_depth(), 1);
        let two = Value::packed(Path::from_values([one, flat]));
        assert_eq!(two.packing_depth(), 2);
        assert_eq!(two.atom_count(), 4);
    }

    #[test]
    fn display_matches_paper_notation() {
        // c · ⟨a·b·a⟩ is the paper's example of a path containing a packed value.
        let packed = Value::packed(path_of(&["a", "b", "a"]));
        assert_eq!(packed.to_string(), "<a·b·a>");
        let odd = Value::atom("complete order");
        assert_eq!(odd.to_string(), "'complete order'");
        // The reserved word `eps` (empty path literal in the parser) must be quoted.
        assert_eq!(Value::atom("eps").to_string(), "'eps'");
    }

    #[test]
    fn conversions_from_atoms_and_paths() {
        let v: Value = atom("z").into();
        assert!(v.is_atom());
        let v: Value = path_of(&["z"]).into();
        assert!(v.is_packed());
    }
}
