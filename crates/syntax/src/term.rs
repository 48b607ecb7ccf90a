//! Path expressions (Section 2.2): paths with variables and packing added in.
//!
//! The set of path expressions is the smallest set such that
//!
//! 1. every atomic value is a path expression;
//! 2. every variable (atomic `@x` or path `$x`) is a path expression;
//! 3. if `e` is a path expression then `⟨e⟩` is a path expression;
//! 4. every finite sequence of path expressions is a path expression.
//!
//! Because concatenation is associative we keep path expressions in a *flattened*
//! form: a [`PathExpr`] is a sequence of [`Term`]s, where a term is a constant, a
//! variable, or a packed sub-expression.  The empty sequence is `ε`.

use seqdl_core::{AtomId, Path, Value, VarSym};
use std::collections::BTreeMap;
use std::fmt;

/// Kind of a variable: atomic variables range over atomic values, path variables
/// over paths.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum VarKind {
    /// An atomic variable `@x`.
    Atom,
    /// A path variable `$x`.
    Path,
}

/// A variable: a kind plus an interned name.  `@x` and `$x` are distinct variables.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var {
    /// Atomic or path variable.
    pub kind: VarKind,
    /// The variable's name (without the `@`/`$` sigil).
    pub name: VarSym,
}

impl Var {
    /// An atomic variable `@name`.
    pub fn atom(name: &str) -> Var {
        Var {
            kind: VarKind::Atom,
            name: VarSym::new(name),
        }
    }

    /// A path variable `$name`.
    pub fn path(name: &str) -> Var {
        Var {
            kind: VarKind::Path,
            name: VarSym::new(name),
        }
    }

    /// A fresh path variable whose name starts with `prefix`.
    pub fn fresh_path(prefix: &str) -> Var {
        Var {
            kind: VarKind::Path,
            name: VarSym::fresh(prefix),
        }
    }

    /// A fresh atomic variable whose name starts with `prefix`.
    pub fn fresh_atom(prefix: &str) -> Var {
        Var {
            kind: VarKind::Atom,
            name: VarSym::fresh(prefix),
        }
    }

    /// Is this an atomic variable?
    pub fn is_atom_var(&self) -> bool {
        self.kind == VarKind::Atom
    }

    /// Is this a path variable?
    pub fn is_path_var(&self) -> bool {
        self.kind == VarKind::Path
    }

    /// The sigil used to print this variable (`@` or `$`).
    pub fn sigil(&self) -> char {
        match self.kind {
            VarKind::Atom => '@',
            VarKind::Path => '$',
        }
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.sigil(), self.name)
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// One term of a flattened path expression.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A constant atomic value.
    Const(AtomId),
    /// A variable (atomic or path).
    Var(Var),
    /// A packed sub-expression `⟨e⟩`.
    Packed(PathExpr),
}

impl Term {
    /// A constant term by atom name.
    pub fn constant(name: &str) -> Term {
        Term::Const(AtomId::new(name))
    }

    /// Is this term a packed sub-expression?
    pub fn is_packed(&self) -> bool {
        matches!(self, Term::Packed(_))
    }

    /// Is this term a variable?
    pub fn is_var(&self) -> bool {
        matches!(self, Term::Var(_))
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Const(a) => fmt::Display::fmt(&Value::Atom(*a), f),
            Term::Var(v) => fmt::Display::fmt(v, f),
            Term::Packed(e) => write!(f, "<{e}>"),
        }
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A path expression: a flattened sequence of terms.  The empty sequence is `ε`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PathExpr(Vec<Term>);

impl PathExpr {
    /// The empty path expression `ε`.
    pub fn empty() -> PathExpr {
        PathExpr(Vec::new())
    }

    /// A one-term expression.
    pub fn singleton(term: Term) -> PathExpr {
        PathExpr(vec![term])
    }

    /// A single-variable expression.
    pub fn var(v: Var) -> PathExpr {
        PathExpr::singleton(Term::Var(v))
    }

    /// A single-constant expression by atom name.
    pub fn constant(name: &str) -> PathExpr {
        PathExpr::singleton(Term::constant(name))
    }

    /// Build an expression from terms, flattening nothing (terms are already flat).
    pub fn from_terms(terms: impl IntoIterator<Item = Term>) -> PathExpr {
        PathExpr(terms.into_iter().collect())
    }

    /// Convert a ground [`Path`] into the corresponding path expression.
    pub fn from_path(path: &Path) -> PathExpr {
        PathExpr(
            path.iter()
                .map(|v| match v {
                    Value::Atom(a) => Term::Const(*a),
                    Value::Packed(p) => Term::Packed(PathExpr::from_path(p)),
                })
                .collect(),
        )
    }

    /// The terms of the expression.
    pub fn terms(&self) -> &[Term] {
        &self.0
    }

    /// Number of terms.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Is this the empty expression `ε`?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Concatenation `self · other`.
    pub fn concat(&self, other: &PathExpr) -> PathExpr {
        let mut out = self.0.clone();
        out.extend(other.0.iter().cloned());
        PathExpr(out)
    }

    /// Append a term in place.
    pub fn push(&mut self, term: Term) {
        self.0.push(term);
    }

    /// Wrap this expression in packing: `⟨self⟩` as a one-term expression.
    pub fn packed(self) -> PathExpr {
        PathExpr::singleton(Term::Packed(self))
    }

    /// All variables occurring in the expression (at any packing depth), in order of
    /// first occurrence, without duplicates.
    pub fn vars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut Vec<Var>) {
        for t in &self.0 {
            match t {
                Term::Var(v) => {
                    if !out.contains(v) {
                        out.push(*v);
                    }
                }
                Term::Packed(e) => e.collect_vars(out),
                Term::Const(_) => {}
            }
        }
    }

    /// All variable *occurrences* (with duplicates), in left-to-right order.
    pub fn var_occurrences(&self) -> Vec<Var> {
        let mut out = Vec::new();
        fn walk(e: &PathExpr, out: &mut Vec<Var>) {
            for t in &e.0 {
                match t {
                    Term::Var(v) => out.push(*v),
                    Term::Packed(inner) => walk(inner, out),
                    Term::Const(_) => {}
                }
            }
        }
        walk(self, &mut out);
        out
    }

    /// All constants occurring in the expression (at any packing depth).
    pub fn constants(&self) -> Vec<AtomId> {
        let mut out = Vec::new();
        fn walk(e: &PathExpr, out: &mut Vec<AtomId>) {
            for t in &e.0 {
                match t {
                    Term::Const(a) => out.push(*a),
                    Term::Packed(inner) => walk(inner, out),
                    Term::Var(_) => {}
                }
            }
        }
        walk(self, &mut out);
        out
    }

    /// Does packing `⟨…⟩` occur anywhere in the expression?
    pub fn has_packing(&self) -> bool {
        self.0.iter().any(|t| t.is_packed())
    }

    /// Is the expression ground (variable-free)?
    pub fn is_ground(&self) -> bool {
        self.vars().is_empty()
    }

    /// Convert a ground expression to the path it denotes; `None` if not ground.
    pub fn as_path(&self) -> Option<Path> {
        let mut values = Vec::with_capacity(self.len());
        for t in &self.0 {
            match t {
                Term::Const(a) => values.push(Value::Atom(*a)),
                Term::Packed(e) => values.push(Value::packed(e.as_path()?)),
                Term::Var(_) => return None,
            }
        }
        Some(Path::from_values(values))
    }

    /// Simultaneously substitute variables by expressions.  Variables not in the map
    /// are left untouched.  The result is flattened.
    pub fn substitute(&self, map: &BTreeMap<Var, PathExpr>) -> PathExpr {
        let mut out = Vec::new();
        for t in &self.0 {
            match t {
                Term::Const(a) => out.push(Term::Const(*a)),
                Term::Var(v) => match map.get(v) {
                    Some(e) => out.extend(e.0.iter().cloned()),
                    None => out.push(Term::Var(*v)),
                },
                Term::Packed(e) => out.push(Term::Packed(e.substitute(map))),
            }
        }
        PathExpr(out)
    }

    /// Rename variables according to `map` (leaving others untouched).
    pub fn rename_vars(&self, map: &BTreeMap<Var, Var>) -> PathExpr {
        let subst: BTreeMap<Var, PathExpr> =
            map.iter().map(|(k, v)| (*k, PathExpr::var(*v))).collect();
        self.substitute(&subst)
    }

    /// The maximum packing nesting depth in the expression (0 if no packing).
    pub fn packing_depth(&self) -> usize {
        self.0
            .iter()
            .map(|t| match t {
                Term::Packed(e) => 1 + e.packing_depth(),
                _ => 0,
            })
            .max()
            .unwrap_or(0)
    }

    /// Number of path variables occurring (with multiplicity).
    pub fn path_var_count(&self) -> usize {
        self.var_occurrences()
            .iter()
            .filter(|v| v.is_path_var())
            .count()
    }

    /// Number of atomic values and atomic variables occurring (with multiplicity),
    /// the `b_i` quantity in the proof of Lemma 5.1.
    pub fn atom_like_count(&self) -> usize {
        fn walk(e: &PathExpr) -> usize {
            e.0.iter()
                .map(|t| match t {
                    Term::Const(_) => 1,
                    Term::Var(v) if v.is_atom_var() => 1,
                    Term::Var(_) => 0,
                    Term::Packed(inner) => walk(inner),
                })
                .sum()
        }
        walk(self)
    }
}

impl FromIterator<Term> for PathExpr {
    fn from_iter<T: IntoIterator<Item = Term>>(iter: T) -> Self {
        PathExpr(iter.into_iter().collect())
    }
}

impl From<Var> for PathExpr {
    fn from(v: Var) -> Self {
        PathExpr::var(v)
    }
}

impl From<AtomId> for PathExpr {
    fn from(a: AtomId) -> Self {
        PathExpr::singleton(Term::Const(a))
    }
}

impl fmt::Display for PathExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("eps");
        }
        for (i, t) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str("·")?;
            }
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for PathExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdl_core::path_of;

    fn x() -> Var {
        Var::path("x")
    }
    fn ax() -> Var {
        Var::atom("x")
    }

    #[test]
    fn atomic_and_path_variables_are_distinct() {
        assert_ne!(x(), ax());
        assert_eq!(x().to_string(), "$x");
        assert_eq!(ax().to_string(), "@x");
        assert!(x().is_path_var());
        assert!(ax().is_atom_var());
    }

    #[test]
    fn display_matches_paper_notation() {
        // a·$x = the left side of Example 3.1's equation.
        let e = PathExpr::from_terms([Term::constant("a"), Term::Var(x())]);
        assert_eq!(e.to_string(), "a·$x");
        assert_eq!(PathExpr::empty().to_string(), "eps");
        // @a·⟨⟨$x·$y⟩·$z⟩·⟨ε⟩ from Example 4.11.
        let inner = PathExpr::from_terms([Term::Var(Var::path("x")), Term::Var(Var::path("y"))]);
        let e = PathExpr::from_terms([
            Term::Var(Var::atom("a")),
            Term::Packed(PathExpr::from_terms([
                Term::Packed(inner),
                Term::Var(Var::path("z")),
            ])),
            Term::Packed(PathExpr::empty()),
        ]);
        assert_eq!(e.to_string(), "@a·<<$x·$y>·$z>·<eps>");
        assert_eq!(e.packing_depth(), 2);
    }

    #[test]
    fn vars_are_collected_in_order_without_duplicates() {
        let e = PathExpr::from_terms([
            Term::Var(x()),
            Term::constant("a"),
            Term::Packed(PathExpr::from_terms([Term::Var(ax()), Term::Var(x())])),
        ]);
        assert_eq!(e.vars(), vec![x(), ax()]);
        assert_eq!(e.var_occurrences(), vec![x(), ax(), x()]);
        assert_eq!(e.constants(), vec![AtomId::new("a")]);
    }

    #[test]
    fn ground_expressions_convert_to_paths() {
        let p = path_of(&["a", "b"]);
        let e = PathExpr::from_path(&p);
        assert!(e.is_ground());
        assert_eq!(e.as_path(), Some(p));
        let with_var = PathExpr::from_terms([Term::constant("a"), Term::Var(x())]);
        assert!(!with_var.is_ground());
        assert_eq!(with_var.as_path(), None);
    }

    #[test]
    fn packed_paths_round_trip_through_expressions() {
        let p = Path::from_values([Value::atom("c"), Value::packed(path_of(&["a", "b"]))]);
        let e = PathExpr::from_path(&p);
        assert!(e.has_packing());
        assert_eq!(e.as_path(), Some(p));
    }

    #[test]
    fn substitution_flattens() {
        // Substituting $x := a·$y into $x·$x gives a·$y·a·$y.
        let e = PathExpr::from_terms([Term::Var(x()), Term::Var(x())]);
        let map = BTreeMap::from([(
            x(),
            PathExpr::from_terms([Term::constant("a"), Term::Var(Var::path("y"))]),
        )]);
        let s = e.substitute(&map);
        assert_eq!(s.to_string(), "a·$y·a·$y");
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn substitution_reaches_inside_packing() {
        let e = PathExpr::from_terms([Term::Packed(PathExpr::var(x()))]);
        let map = BTreeMap::from([(x(), PathExpr::constant("a"))]);
        assert_eq!(e.substitute(&map).to_string(), "<a>");
    }

    #[test]
    fn renaming_variables() {
        let e = PathExpr::from_terms([Term::Var(x()), Term::Var(ax())]);
        let map = BTreeMap::from([(x(), Var::path("z"))]);
        assert_eq!(e.rename_vars(&map).to_string(), "$z·@x");
    }

    #[test]
    fn counting_helpers_for_lemma_5_1() {
        // $x·a·@u·$x has 2 path-variable occurrences and 2 atom-like occurrences.
        let e = PathExpr::from_terms([
            Term::Var(x()),
            Term::constant("a"),
            Term::Var(Var::atom("u")),
            Term::Var(x()),
        ]);
        assert_eq!(e.path_var_count(), 2);
        assert_eq!(e.atom_like_count(), 2);
    }

    #[test]
    fn concat_and_packed_builders() {
        let e1 = PathExpr::constant("a");
        let e2 = PathExpr::var(x());
        let cat = e1.concat(&e2);
        assert_eq!(cat.to_string(), "a·$x");
        assert_eq!(cat.clone().packed().to_string(), "<a·$x>");
        assert_eq!(cat.len(), 2);
        let empty_concat = PathExpr::empty().concat(&PathExpr::empty());
        assert!(empty_concat.is_empty());
    }

    #[test]
    fn fresh_variables_do_not_collide() {
        let a = Var::fresh_path("v");
        let b = Var::fresh_path("v");
        assert_ne!(a, b);
        assert!(a.name.name().starts_with('v'));
    }
}
