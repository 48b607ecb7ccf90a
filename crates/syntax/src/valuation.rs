//! Valuations: assignments of atomic values to atomic variables and paths to path
//! variables (Section 2.3).

use crate::term::{PathExpr, Term, Var, VarKind};
use seqdl_core::{AtomId, Path, PathView, Segment, Value};
use std::cell::RefCell;
use std::fmt;

thread_local! {
    /// Reusable content buffer of [`Valuation::apply`] and
    /// [`Valuation::find`].  It is taken out while in use, so a packed term,
    /// grounded by a nested `apply`, builds in a vector of its own.
    static VALUES_SCRATCH: RefCell<Vec<Value>> = const { RefCell::new(Vec::new()) };
}

/// What a variable is bound to: an atomic value (for `@x`) or a path (for `$x`).
///
/// Path bindings are [`PathView`]s — possibly unregistered cuts of an interned
/// path.  The backtracking matcher binds every speculative prefix cut it
/// enumerates, so holding views (compared by content over shared storage)
/// keeps rejected candidates out of the global store; a binding is interned
/// exactly when it reaches an emission or grounding ([`Binding::as_path`],
/// [`Valuation::apply`], [`Valuation::segments_into`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Binding {
    /// Binding of an atomic variable.
    Atom(AtomId),
    /// Binding of a path variable.
    Path(PathView),
}

impl Binding {
    /// View the binding as a path (an atomic value is the length-1 path holding
    /// it).  Interns the content if the underlying view was a speculative cut.
    pub fn as_path(&self) -> Path {
        match self {
            Binding::Atom(a) => Path::singleton(Value::Atom(*a)),
            Binding::Path(v) => v.to_path(),
        }
    }

    /// Does the binding's shape fit the given variable kind?
    pub fn fits(&self, kind: VarKind) -> bool {
        matches!(
            (self, kind),
            (Binding::Atom(_), VarKind::Atom) | (Binding::Path(_), VarKind::Path)
        )
    }
}

impl fmt::Display for Binding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Binding::Atom(a) => write!(f, "{}", Value::Atom(*a)),
            Binding::Path(p) => write!(f, "{p}"),
        }
    }
}

/// A valuation ν: a finite map from variables to bindings of the right kind.
///
/// A valuation is *appropriate* for a syntactic construct if it is defined on all
/// variables of that construct; [`Valuation::apply`] returns `None` otherwise.
///
/// Rules bind a handful of variables, and the backtracking matcher binds and
/// unbinds on a single valuation millions of times, in strictly LIFO order.
/// The map is therefore stored as a small *unsorted* vector in binding order:
/// a bind is a push, the matcher's unbind is a pop, and lookups scan from the
/// most recently bound end (which is also the variable most likely to be
/// queried next).  Equality is map equality, independent of binding order,
/// and [`Valuation::iter`] yields variable order, so observable behaviour is
/// unchanged.
#[derive(Clone, Debug, Default)]
pub struct Valuation {
    entries: Vec<(Var, Binding)>,
}

impl PartialEq for Valuation {
    fn eq(&self, other: &Valuation) -> bool {
        self.entries.len() == other.entries.len()
            && self.entries.iter().all(|(v, b)| other.get(*v) == Some(b))
    }
}

impl Eq for Valuation {}

impl Valuation {
    /// The empty valuation.
    pub fn new() -> Valuation {
        Valuation::default()
    }

    fn position(&self, var: Var) -> Option<usize> {
        // Scan from the most recent binding: the matcher queries what it just
        // bound far more often than early bindings.
        self.entries.iter().rposition(|(v, _)| *v == var)
    }

    /// Bind `var` to `binding`.
    ///
    /// # Panics
    /// Panics if the binding's shape does not fit the variable's kind (this is a
    /// programming error in the caller, never a data error).
    pub fn bind(&mut self, var: Var, binding: Binding) {
        assert!(
            binding.fits(var.kind),
            "binding {binding} does not fit variable {var}"
        );
        match self.position(var) {
            Some(ix) => self.entries[ix].1 = binding,
            None => self.entries.push((var, binding)),
        }
    }

    /// Bind an atomic variable to an atomic value.
    pub fn bind_atom(&mut self, var: Var, value: AtomId) {
        self.bind(var, Binding::Atom(value));
    }

    /// Bind a variable the caller knows is unbound (skips the overwrite
    /// scan).  The backtracking matcher pairs this with
    /// [`Valuation::pop_binding`].
    ///
    /// # Panics
    /// Panics if the binding's shape does not fit the variable's kind; in
    /// debug builds, also if `var` is already bound.
    pub fn bind_new(&mut self, var: Var, binding: Binding) {
        assert!(
            binding.fits(var.kind),
            "binding {binding} does not fit variable {var}"
        );
        debug_assert!(!self.contains(var), "bind_new on bound variable {var}");
        self.entries.push((var, binding));
    }

    /// Remove the *most recent* binding, which the caller knows is `var` —
    /// the O(1) LIFO twin of [`Valuation::bind_new`].
    ///
    /// # Panics
    /// In debug builds, panics if the most recent binding is not `var`.
    pub fn pop_binding(&mut self, var: Var) {
        debug_assert_eq!(
            self.entries.last().map(|(v, _)| *v),
            Some(var),
            "pop_binding out of LIFO order"
        );
        self.entries.pop();
    }

    /// Bind a path variable to a path.
    pub fn bind_path(&mut self, var: Var, path: Path) {
        self.bind(var, Binding::Path(path.into()));
    }

    /// A copy of this valuation with one extra binding.
    pub fn extended(&self, var: Var, binding: Binding) -> Valuation {
        let mut out = self.clone();
        out.bind(var, binding);
        out
    }

    /// Remove the binding of `var`, returning it if there was one.  Together with
    /// [`Valuation::bind`] this lets backtracking matchers explore extensions on a
    /// single valuation instead of cloning one per candidate.  The matcher
    /// unbinds in LIFO order, so this is almost always a pop.
    pub fn unbind(&mut self, var: Var) -> Option<Binding> {
        let ix = self.position(var)?;
        if ix + 1 == self.entries.len() {
            return self.entries.pop().map(|(_, b)| b);
        }
        Some(self.entries.remove(ix).1)
    }

    /// The binding of `var`, if any.
    pub fn get(&self, var: Var) -> Option<&Binding> {
        self.position(var).map(|ix| &self.entries[ix].1)
    }

    /// Is `var` bound?
    pub fn contains(&self, var: Var) -> bool {
        self.position(var).is_some()
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Drop every binding added after the valuation had `len` entries — the
    /// bulk LIFO twin of [`Valuation::pop_binding`], used by frame-based
    /// matchers that record a depth on entry and backtrack to it wholesale.
    ///
    /// # Panics
    /// In debug builds, panics if `len` exceeds the current length.
    pub fn truncate(&mut self, len: usize) {
        debug_assert!(len <= self.entries.len(), "truncate past the binding end");
        self.entries.truncate(len);
    }

    /// The `(variable, binding)` pairs added after the valuation had `start`
    /// entries, in binding order — the delta a frame-based matcher buffers
    /// from a nested enumeration and replays later with [`Valuation::bind_new`].
    pub fn bindings_since(&self, start: usize) -> &[(Var, Binding)] {
        &self.entries[start..]
    }

    /// Is the valuation empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over `(variable, binding)` pairs in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (Var, &Binding)> + '_ {
        let mut sorted: Vec<&(Var, Binding)> = self.entries.iter().collect();
        sorted.sort_by_key(|(v, _)| *v);
        sorted.into_iter().map(|(v, b)| (*v, b))
    }

    /// Is this valuation appropriate for (defined on all variables of) `expr`?
    /// Walks the terms in place: the solver asks this on every entry.
    pub fn is_appropriate_for(&self, expr: &PathExpr) -> bool {
        expr.terms().iter().all(|term| match term {
            Term::Const(_) => true,
            Term::Var(v) => self.contains(*v),
            Term::Packed(inner) => self.is_appropriate_for(inner),
        })
    }

    /// Apply the valuation to a path expression, producing the denoted path.
    ///
    /// Returns `None` if some variable of the expression is unbound.
    pub fn apply(&self, expr: &PathExpr) -> Option<Path> {
        // Single-term expressions denote an already interned path: reuse its
        // id instead of copying and re-hashing the content.  `$x` heads and
        // goal filters hit this on every firing.
        match expr.terms() {
            [] => return Some(Path::empty()),
            [Term::Const(a)] => return Some(Path::singleton(Value::Atom(*a))),
            [Term::Var(v)] => {
                return match self.get(*v)? {
                    Binding::Atom(a) => Some(Path::singleton(Value::Atom(*a))),
                    Binding::Path(p) => Some(p.to_path()),
                }
            }
            _ => {}
        }
        // Build the content in a reused buffer and intern it once: re-deriving
        // an already known path allocates nothing, and a cut bound to a
        // variable is copied from, never interned on its own.
        self.with_values(expr, Path::from_slice)
    }

    /// The stored path `expr` denotes under this valuation, found without
    /// interning it ([`Path::find`]): `Some(None)` when the store holds no
    /// such path, so no relation holds it either, and `None` if some variable
    /// is unbound.  Membership checks ground their rows through this.
    pub fn find(&self, expr: &PathExpr) -> Option<Option<Path>> {
        match expr.terms() {
            [] => Some(Some(Path::empty())),
            [Term::Var(v)] => match self.get(*v)? {
                Binding::Atom(a) => Some(Path::find(&[Value::Atom(*a)])),
                Binding::Path(p) => Some(p.find()),
            },
            _ => self.with_values(expr, Path::find),
        }
    }

    /// Build the values `expr` denotes in this thread's reused buffer and
    /// hand them to `finish`.  `None` if some variable is unbound.
    fn with_values<T>(&self, expr: &PathExpr, finish: impl FnOnce(&[Value]) -> T) -> Option<T> {
        VALUES_SCRATCH.with(|scratch| {
            let mut values = scratch.take();
            values.clear();
            let out = self
                .values_into(expr, &mut values)
                .map(|()| finish(&values));
            scratch.replace(values);
            out
        })
    }

    /// Append the values of the path `expr` denotes under this valuation,
    /// interning nothing but what a packed term packs.  `None` if some
    /// variable is unbound.
    pub fn values_into(&self, expr: &PathExpr, out: &mut Vec<Value>) -> Option<()> {
        for term in expr.terms() {
            match term {
                Term::Const(a) => out.push(Value::Atom(*a)),
                Term::Var(v) => match self.get(*v)? {
                    Binding::Atom(a) => out.push(Value::Atom(*a)),
                    Binding::Path(p) => out.extend_from_slice(p.values()),
                },
                Term::Packed(inner) => out.push(Value::packed(self.apply(inner)?)),
            }
        }
        Some(())
    }

    /// Append the segment sequence `expr` denotes under this valuation — one
    /// [`Segment`] per term, each the interned identity of what the term
    /// denotes.  `None` if some variable is unbound.  The per-term segment
    /// count is static, so the evaluator splits a rule head's segment
    /// sequence back into one path per argument.
    pub fn segments_into(&self, expr: &PathExpr, out: &mut Vec<Segment>) -> Option<()> {
        for term in expr.terms() {
            match term {
                Term::Const(a) => out.push(Segment::Value(Value::Atom(*a))),
                Term::Var(v) => match self.get(*v)? {
                    Binding::Atom(a) => out.push(Segment::Value(Value::Atom(*a))),
                    Binding::Path(p) => out.push(p.as_segment()),
                },
                Term::Packed(inner) => {
                    let mut nested = Vec::new();
                    self.segments_into(inner, &mut nested)?;
                    out.push(Segment::Value(Value::packed(Path::from_segments(&nested))));
                }
            }
        }
        Some(())
    }

    /// Restrict the valuation to the given variables.
    pub fn restricted_to(&self, vars: &[Var]) -> Valuation {
        Valuation {
            entries: self
                .entries
                .iter()
                .filter(|(v, _)| vars.contains(v))
                .cloned()
                .collect(),
        }
    }
}

impl fmt::Display for Valuation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, (v, b)) in self.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v} -> {b}")?;
        }
        f.write_str("}")
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use seqdl_core::{atom, path_of};

    #[test]
    fn applying_a_valuation_substitutes_and_flattens() {
        // ν($x) = b·c, ν(@q) = q0; apply to @q·$x·a.
        let x = Var::path("x");
        let q = Var::atom("q");
        let mut nu = Valuation::new();
        nu.bind_path(x, path_of(&["b", "c"]));
        nu.bind_atom(q, atom("q0"));
        let e = PathExpr::from_terms([Term::Var(q), Term::Var(x), Term::constant("a")]);
        assert!(nu.is_appropriate_for(&e));
        assert_eq!(nu.apply(&e), Some(path_of(&["q0", "b", "c", "a"])));
    }

    #[test]
    fn packing_in_expressions_packs_the_result() {
        let x = Var::path("x");
        let mut nu = Valuation::new();
        nu.bind_path(x, path_of(&["a", "b"]));
        let e = PathExpr::from_terms([Term::constant("c"), Term::Packed(PathExpr::var(x))]);
        let p = nu.apply(&e).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.to_string(), "c·<a·b>");
    }

    #[test]
    fn missing_bindings_make_apply_fail() {
        let e = PathExpr::var(Var::path("unbound"));
        let nu = Valuation::new();
        assert!(!nu.is_appropriate_for(&e));
        assert_eq!(nu.apply(&e), None);
    }

    #[test]
    fn empty_path_binding_vanishes_in_concatenation() {
        let x = Var::path("x");
        let mut nu = Valuation::new();
        nu.bind_path(x, Path::empty());
        let e = PathExpr::from_terms([Term::constant("a"), Term::Var(x), Term::constant("b")]);
        assert_eq!(nu.apply(&e), Some(path_of(&["a", "b"])));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn binding_kind_mismatch_panics() {
        let mut nu = Valuation::new();
        nu.bind(Var::atom("x"), Binding::Path(path_of(&["a", "b"]).into()));
    }

    #[test]
    fn extended_and_restricted() {
        let x = Var::path("x");
        let y = Var::path("y");
        let mut nu = Valuation::new();
        nu.bind_path(x, path_of(&["a"]));
        let nu2 = nu.extended(y, Binding::Path(path_of(&["b"]).into()));
        assert_eq!(nu2.len(), 2);
        assert_eq!(nu.len(), 1);
        let only_y = nu2.restricted_to(&[y]);
        assert!(only_y.contains(y));
        assert!(!only_y.contains(x));
    }

    #[test]
    fn binding_as_path_identifies_values_with_singletons() {
        assert_eq!(
            Binding::Atom(atom("a")).as_path(),
            Path::singleton(Value::Atom(atom("a")))
        );
        assert_eq!(Binding::Path(Path::empty().into()).as_path(), Path::empty());
    }

    #[test]
    fn display_is_readable() {
        let mut nu = Valuation::new();
        nu.bind_atom(Var::atom("q"), atom("q0"));
        assert_eq!(nu.to_string(), "{@q -> q0}");
    }
}
