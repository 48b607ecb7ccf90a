//! Paths: finite sequences of values, with associative concatenation (Section 2.1).

use crate::interner::AtomId;
use crate::render;
use crate::store::{self, PathId};
use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;
use std::ops::Index;

/// A path: a finite sequence of [`Value`]s.  The empty path is `ε`.
///
/// Concatenation (`·`) is associative; [`Path::concat`] and the [`Extend`] /
/// [`FromIterator`] implementations all preserve that reading.  A value `v` is
/// identified with the length-1 path `v` (see [`Path::singleton`]), which is how
/// classical relational instances embed into sequence databases.
///
/// Representation: a path is a hash-consed [`PathId`] into the global
/// [`crate::store`] — four bytes, `Copy`, with equality and hashing on the id
/// (valid because the store holds each content exactly once).  The value
/// sequence itself is the shared `&'static [Value]` returned by
/// [`Path::values`].  Ordering remains *content* ordering (lexicographic over
/// values), not id ordering.  Atoms inside compare by their interner index
/// (see [`Value`]), so a sorted output follows the order in which its atoms
/// were first interned; for a given input that order, and hence the output,
/// is the same at every thread count.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Path(PathId);

impl Path {
    /// The empty path `ε`.
    pub const fn empty() -> Path {
        Path(PathId::EMPTY)
    }

    /// A one-element path holding `value`.
    pub fn singleton(value: Value) -> Path {
        Path(store::intern(&[value], None))
    }

    /// Build a path from any sequence of values.
    pub fn from_values(values: impl IntoIterator<Item = Value>) -> Path {
        Path(store::intern_built(|buf| buf.extend(values)))
    }

    /// Build a path from a borrowed value slice (copied only if the content is
    /// new to the store).
    pub fn from_slice(values: &[Value]) -> Path {
        Path(store::intern(values, None))
    }

    /// Build a path from a slice that lives forever — typically a sub-slice of
    /// another path's [`Path::values`].  Never copies the values: on a store
    /// miss the slice itself becomes the stored content.
    pub fn from_static(values: &'static [Value]) -> Path {
        Path(store::intern(values, Some(values)))
    }

    /// The stored path with content `values`, if the store holds one.
    /// Interns nothing, so a check can ask whether a row could exist without
    /// growing the store: `None` means no relation holds such a path.
    pub fn find(values: &[Value]) -> Option<Path> {
        store::find(values).map(Path)
    }

    /// Build a flat path from atoms.
    pub fn from_atoms(atoms: impl IntoIterator<Item = AtomId>) -> Path {
        Path::from_values(atoms.into_iter().map(Value::Atom))
    }

    /// The interned identity of this path (equal ids ⇔ equal paths).
    pub fn id(&self) -> PathId {
        self.0
    }

    /// Number of values in the path (`|p|`).
    pub fn len(&self) -> usize {
        self.values().len()
    }

    /// Is this the empty path `ε`?
    pub fn is_empty(&self) -> bool {
        self.0 == PathId::EMPTY
    }

    /// The values of the path, in order.  The slice is shared storage owned by
    /// the global store, hence the `'static` lifetime.
    pub fn values(&self) -> &'static [Value] {
        store::resolve(self.0)
    }

    /// Iterate over the values of the path.
    pub fn iter(&self) -> std::slice::Iter<'static, Value> {
        self.values().iter()
    }

    /// Concatenation `self · other`: the two operands' values are copied into
    /// a reused buffer and interned once, so a repeat concatenation allocates
    /// nothing.
    pub fn concat(&self, other: &Path) -> Path {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        let (left, right) = (self.values(), other.values());
        Path(store::intern_built(|buf| {
            buf.extend_from_slice(left);
            buf.extend_from_slice(right);
        }))
    }

    /// Append a single value, re-interning.  This is O(len); callers building
    /// a path value by value should collect into a `Vec<Value>` and intern
    /// once via [`Path::from_values`].
    pub fn push(&mut self, value: Value) {
        let values = self.values();
        *self = Path(store::intern_built(|buf| {
            buf.extend_from_slice(values);
            buf.push(value);
        }));
    }

    /// The contiguous subpath `p[start..end]` (half-open), as its own path.
    /// Zero-copy: the cut is interned from the parent's own storage, so a new
    /// subpath aliases the parent's stored values and nothing is allocated.
    ///
    /// # Panics
    /// Panics if the range is out of bounds (mirrors slice indexing).
    pub fn subpath(&self, start: usize, end: usize) -> Path {
        let values = self.values();
        let slice = &values[start..end];
        if slice.len() == values.len() {
            return *self;
        }
        if slice.is_empty() {
            return Path::empty();
        }
        Path::from_static(slice)
    }

    /// Iterate over all contiguous subpaths (substrings) of this path,
    /// including `ε` (reported exactly once, first) and the path itself.
    /// This is the semantics of the `SUB` operator of Section 7.
    ///
    /// Each yielded path is backed by a shared sub-slice of this path's
    /// storage: the iterator allocates nothing per item beyond first-time
    /// interning of a genuinely new subpath id.
    pub fn subpaths(&self) -> Subpaths {
        Subpaths {
            parent: *self,
            values: self.values(),
            start: 0,
            end: 0,
            emitted_empty: false,
        }
    }

    /// All contiguous subpaths, collected ([`Path::subpaths`] is the
    /// allocation-free iterator form).
    pub fn substrings(&self) -> Vec<Path> {
        self.subpaths().collect()
    }

    /// Does `needle` occur as a contiguous subpath of `self`?
    pub fn contains_subpath(&self, needle: &Path) -> bool {
        if needle.is_empty() {
            return true;
        }
        if needle.len() > self.len() {
            return false;
        }
        let needle = needle.values();
        self.values().windows(needle.len()).any(|w| w == needle)
    }

    /// A path is *flat* if it contains no packed values at any depth (Section 3.1
    /// restricts query inputs and outputs to flat instances).
    pub fn is_flat(&self) -> bool {
        self.values().iter().all(|v| !v.is_packed())
    }

    /// Maximum packing depth over the values of the path (0 for flat paths).
    pub fn packing_depth(&self) -> usize {
        self.values()
            .iter()
            .map(Value::packing_depth)
            .max()
            .unwrap_or(0)
    }

    /// Total number of atomic-value occurrences at any depth.
    pub fn atom_count(&self) -> usize {
        self.values().iter().map(Value::atom_count).sum()
    }

    /// Reverse the path (used by the reversal example, Example 4.3).
    pub fn reversed(&self) -> Path {
        Path::from_values(self.values().iter().rev().copied())
    }

    /// The *doubled* version `k1·k1·k2·k2·…·kn·kn` of the path, as used by the
    /// doubling step in the proof of Theorem 4.15.
    pub fn doubled(&self) -> Path {
        Path::from_values(self.values().iter().flat_map(|v| [*v, *v]))
    }

    /// Invert [`Path::doubled`]: returns `None` if the path is not a doubled path.
    pub fn undoubled(&self) -> Option<Path> {
        if !self.len().is_multiple_of(2) {
            return None;
        }
        let mut out = Vec::with_capacity(self.len() / 2);
        for pair in self.values().chunks(2) {
            if pair[0] != pair[1] {
                return None;
            }
            out.push(pair[0]);
        }
        Some(Path::from_values(out))
    }
}

/// An *unregistered* view `parent[start..end]` of an interned path: a
/// contiguous slice of the parent's shared storage that is **not** itself
/// interned in the global store.
///
/// The backtracking matcher enumerates O(L) candidate cuts per path variable
/// (O(L²) for adjacent variables) and almost all of them are rejected by a
/// later literal.  Registering every candidate made the store grow with the
/// number of *attempted* matches rather than the number of *derived* facts —
/// the "growth caveat" of [`crate::store`].  A `PathView` defers interning:
/// bindings hold views, all comparisons during matching run over the value
/// slice, and only the cuts that survive to fact emission (or equation
/// grounding) are interned via [`PathView::to_path`].
///
/// Equality, hashing, and ordering are over the *content* (the value
/// sequence), with an O(1) fast path when two views share a parent and range,
/// so views of equal content behave identically no matter how they were cut.
#[derive(Clone, Copy)]
pub struct PathView {
    parent: Path,
    start: u32,
    end: u32,
}

impl PathView {
    /// The view `parent[start..end]` (half-open).  No interning happens.
    ///
    /// # Panics
    /// Panics if the range is out of bounds (mirrors slice indexing).
    pub fn cut(parent: Path, start: usize, end: usize) -> PathView {
        // Validate the range eagerly so `values()` cannot panic later.
        let _ = &parent.values()[start..end];
        PathView {
            parent,
            start: start as u32,
            end: end as u32,
        }
    }

    /// The values of the view, in order — a sub-slice of the parent's shared
    /// storage, so no allocation or interning.
    pub fn values(&self) -> &'static [Value] {
        &self.parent.values()[self.start as usize..self.end as usize]
    }

    /// Number of values in the view.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Is the view empty?
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The interned path with this view's content.  This is the *only* point
    /// where a view touches the store: full-range views resolve to the parent
    /// in O(1), empty views to `ε`, and proper cuts are interned as
    /// [`Path::subpath`]s, aliasing the parent's storage.
    pub fn to_path(&self) -> Path {
        self.parent.subpath(self.start as usize, self.end as usize)
    }

    /// The interned path with this view's content, if the store holds one —
    /// [`PathView::to_path`] without the interning ([`Path::find`]).
    /// Full-range and empty views answer in O(1), as there.
    pub fn find(&self) -> Option<Path> {
        if self.start == 0 && self.end as usize == self.parent.len() {
            return Some(self.parent);
        }
        Path::find(self.values())
    }

    /// The interned parent path this view cuts into.
    pub fn parent(&self) -> Path {
        self.parent
    }

    /// The `(start, end)` range of the view within its parent.
    pub fn range(&self) -> (usize, usize) {
        (self.start as usize, self.end as usize)
    }
}

/// A whole interned path, viewed (no cut, no store traffic).
impl From<Path> for PathView {
    fn from(parent: Path) -> PathView {
        let len = parent.len() as u32;
        PathView {
            parent,
            start: 0,
            end: len,
        }
    }
}

impl PartialEq for PathView {
    fn eq(&self, other: &PathView) -> bool {
        if self.parent.id() == other.parent.id()
            && self.start == other.start
            && self.end == other.end
        {
            return true;
        }
        self.values() == other.values()
    }
}

impl Eq for PathView {}

impl std::hash::Hash for PathView {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Content hashing, consistent with content equality.
        self.values().hash(state);
    }
}

/// Content ordering, consistent with [`Path`]'s content ordering.
impl Ord for PathView {
    fn cmp(&self, other: &PathView) -> Ordering {
        if self.parent.id() == other.parent.id()
            && self.start == other.start
            && self.end == other.end
        {
            return Ordering::Equal;
        }
        self.values().cmp(other.values())
    }
}

impl PartialOrd for PathView {
    fn partial_cmp(&self, other: &PathView) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for PathView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        render::write_path(f, self.values(), &mut render::Interned)
    }
}

impl fmt::Debug for PathView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Iterator over the contiguous subpaths of a path; see [`Path::subpaths`].
#[derive(Clone, Debug)]
pub struct Subpaths {
    parent: Path,
    values: &'static [Value],
    start: usize,
    end: usize,
    emitted_empty: bool,
}

impl Iterator for Subpaths {
    type Item = Path;

    fn next(&mut self) -> Option<Path> {
        if !self.emitted_empty {
            self.emitted_empty = true;
            return Some(Path::empty());
        }
        if self.end < self.values.len() {
            self.end += 1;
        } else if self.start + 1 < self.values.len() {
            self.start += 1;
            self.end = self.start + 1;
        } else {
            return None;
        }
        Some(self.parent.subpath(self.start, self.end))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.values.len();
        let total = n * (n + 1) / 2 + 1;
        let done = if !self.emitted_empty {
            0
        } else {
            // Subpaths emitted so far: all with earlier starts, plus this start's.
            1 + (0..self.start).map(|s| n - s).sum::<usize>() + (self.end - self.start)
        };
        (total - done, Some(total - done))
    }
}

impl ExactSizeIterator for Subpaths {}

impl Default for Path {
    fn default() -> Path {
        Path::empty()
    }
}

/// Content ordering (lexicographic over values), *not* id ordering, so the
/// order of two paths does not depend on which was interned first.  Atoms
/// compare by interner index (see [`Value`]).  Consistent with `Eq` because
/// equal content implies equal id.
impl Ord for Path {
    fn cmp(&self, other: &Path) -> Ordering {
        if self.0 == other.0 {
            return Ordering::Equal;
        }
        self.values().cmp(other.values())
    }
}

impl PartialOrd for Path {
    fn partial_cmp(&self, other: &Path) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Index<usize> for Path {
    type Output = Value;
    fn index(&self, ix: usize) -> &Value {
        &self.values()[ix]
    }
}

impl FromIterator<Value> for Path {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Path::from_values(iter)
    }
}

impl Extend<Value> for Path {
    fn extend<T: IntoIterator<Item = Value>>(&mut self, iter: T) {
        let values = self.values();
        *self = Path(store::intern_built(|buf| {
            buf.extend_from_slice(values);
            buf.extend(iter);
        }));
    }
}

impl IntoIterator for Path {
    type Item = Value;
    type IntoIter = std::iter::Copied<std::slice::Iter<'static, Value>>;
    fn into_iter(self) -> Self::IntoIter {
        self.values().iter().copied()
    }
}

impl<'a> IntoIterator for &'a Path {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.values().iter()
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        render::write_path(f, self.values(), &mut render::Interned)
    }
}

impl fmt::Debug for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::{atom, path_of, repeat_path};

    #[test]
    fn empty_path_properties() {
        let e = Path::empty();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert!(e.is_flat());
        assert_eq!(e.to_string(), "eps");
        assert_eq!(e.substrings(), vec![Path::empty()]);
        assert_eq!(e.reversed(), e);
        assert_eq!(e.doubled(), e);
        assert_eq!(Path::default(), e);
    }

    #[test]
    fn concatenation_is_associative() {
        let p = path_of(&["a", "b"]);
        let q = path_of(&["c"]);
        let r = path_of(&["d", "e"]);
        assert_eq!(p.concat(&q).concat(&r), p.concat(&q.concat(&r)));
        assert_eq!(p.concat(&Path::empty()), p);
        assert_eq!(Path::empty().concat(&p), p);
    }

    #[test]
    fn hash_consing_makes_equality_id_equality() {
        let p = path_of(&["a", "b", "c"]);
        let q = path_of(&["a"]).concat(&path_of(&["b", "c"]));
        assert_eq!(p, q);
        assert_eq!(p.id(), q.id());
        // Distinct contents get distinct ids.
        assert_ne!(p.id(), path_of(&["a", "b"]).id());
    }

    #[test]
    fn substrings_enumerates_all_contiguous_subpaths() {
        let p = path_of(&["a", "b", "c"]);
        let subs = p.substrings();
        // ε plus 3 + 2 + 1 nonempty substrings.
        assert_eq!(subs.len(), 7);
        assert!(subs.contains(&Path::empty()));
        assert!(subs.contains(&path_of(&["a"])));
        assert!(subs.contains(&path_of(&["b", "c"])));
        assert!(subs.contains(&p));
        assert!(!subs.contains(&path_of(&["a", "c"])));
    }

    #[test]
    fn subpaths_iterator_is_exact_sized_and_shares_storage() {
        let p = path_of(&["sp1", "sp2", "sp3", "sp4"]);
        let it = p.subpaths();
        assert_eq!(it.len(), 4 * 5 / 2 + 1);
        assert_eq!(it.clone().count(), it.len());
        let range = p.values().as_ptr_range();
        for sub in p.subpaths().filter(|s| s.len() >= 2 && s.len() < p.len()) {
            // Multi-value proper subpaths are interned as shared sub-slices of
            // the parent's storage (a singleton may have been interned earlier
            // from a copy of its own).
            assert!(range.contains(&sub.values().as_ptr()), "{sub} not shared");
        }
        // Mid-iteration size hints stay exact.
        let mut it = p.subpaths();
        for remaining in (0..=it.len()).rev() {
            assert_eq!(it.len(), remaining);
            if remaining > 0 {
                it.next().unwrap();
            }
        }
        assert_eq!(it.next(), None);
    }

    #[test]
    fn contains_subpath_is_contiguous_containment() {
        let p = path_of(&["a", "b", "a", "c"]);
        assert!(p.contains_subpath(&Path::empty()));
        assert!(p.contains_subpath(&path_of(&["b", "a"])));
        assert!(p.contains_subpath(&p));
        assert!(!p.contains_subpath(&path_of(&["a", "a"])));
        assert!(!p.contains_subpath(&path_of(&["a", "b", "a", "c", "d"])));
    }

    #[test]
    fn flatness_and_packing_depth() {
        let flat = path_of(&["a", "b"]);
        assert!(flat.is_flat());
        assert_eq!(flat.packing_depth(), 0);

        // c · ⟨a·b·a⟩, the paper's example path with packing.
        let mixed = Path::from_values([Value::atom("c"), Value::packed(path_of(&["a", "b", "a"]))]);
        assert!(!mixed.is_flat());
        assert_eq!(mixed.packing_depth(), 1);
        assert_eq!(mixed.atom_count(), 4);
        assert_eq!(mixed.to_string(), "c·<a·b·a>");
    }

    #[test]
    fn doubling_round_trips() {
        let p = path_of(&["k1", "k2", "k3"]);
        let d = p.doubled();
        assert_eq!(d.len(), 6);
        assert_eq!(d.to_string(), "k1·k1·k2·k2·k3·k3");
        assert_eq!(d.undoubled(), Some(p));
        // Non-doubled paths are rejected.
        assert_eq!(path_of(&["a", "b"]).undoubled(), None);
        assert_eq!(path_of(&["a"]).undoubled(), None);
        assert_eq!(Path::empty().undoubled(), Some(Path::empty()));
    }

    #[test]
    fn reversal_and_indexing() {
        let p = path_of(&["x", "y", "z"]);
        assert_eq!(p.reversed(), path_of(&["z", "y", "x"]));
        assert_eq!(p[0], Value::Atom(atom("x")));
        assert_eq!(p[2], Value::Atom(atom("z")));
    }

    #[test]
    fn ordering_is_content_lexicographic() {
        // Intern in an order deliberately at odds with content order.
        let zb = path_of(&["zz_order", "b"]);
        let za = path_of(&["zz_order", "a"]);
        let z = path_of(&["zz_order"]);
        assert!(z < za, "prefix sorts first");
        assert!(za < zb, "lexicographic on the last value");
        assert!(Path::empty() < z);
        let mut v = vec![zb, z, za, Path::empty()];
        v.sort();
        assert_eq!(v, vec![Path::empty(), z, za, zb]);
    }

    #[test]
    fn repeat_path_builds_a_powers() {
        let p = repeat_path("a", 4);
        assert_eq!(p.to_string(), "a·a·a·a");
        assert!(p.iter().all(|v| v.as_atom() == Some(atom("a"))));
    }

    #[test]
    fn path_view_ordering_matches_content() {
        let p = path_of(&["m", "a", "b"]);
        let q = path_of(&["a", "b", "z"]);
        let va = PathView::cut(p, 1, 3); // a·b
        let vb = PathView::cut(q, 0, 2); // a·b
        assert_eq!(va.cmp(&vb), std::cmp::Ordering::Equal);
        assert!(PathView::cut(p, 1, 2) < va, "prefix sorts first");
        assert!(va < PathView::cut(q, 0, 3));
        assert_eq!(va.to_path().to_string(), format!("{va}"));
    }

    #[test]
    fn from_iterator_extend_and_push() {
        let mut p: Path = [Value::atom("a"), Value::atom("b")].into_iter().collect();
        p.extend([Value::atom("c")]);
        assert_eq!(p, path_of(&["a", "b", "c"]));
        p.push(Value::atom("d"));
        assert_eq!(p, path_of(&["a", "b", "c", "d"]));
        let collected: Vec<&Value> = (&p).into_iter().collect();
        assert_eq!(collected.len(), 4);
        let owned: Vec<Value> = p.into_iter().collect();
        assert_eq!(owned.len(), 4);
    }
}
