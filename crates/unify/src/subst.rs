//! Variable substitutions and symbolic solutions (Section 4.3.1).

use seqdl_syntax::{Equation, PathExpr, Var};
use std::collections::BTreeMap;
use std::fmt;

/// A variable substitution: a partial map from variables to path expressions.
///
/// A substitution ρ is a *symbolic solution* of an equation `e1 = e2` if
/// `ρ(e1)` and `ρ(e2)` are the same path expression.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Substitution {
    map: BTreeMap<Var, PathExpr>,
}

impl Substitution {
    /// The identity (empty) substitution.
    pub fn identity() -> Substitution {
        Substitution::default()
    }

    /// A substitution with a single binding.
    pub fn single(var: Var, expr: PathExpr) -> Substitution {
        let mut s = Substitution::identity();
        s.bind(var, expr);
        s
    }

    /// Bind `var` to `expr` (overwriting any previous binding).
    pub fn bind(&mut self, var: Var, expr: PathExpr) {
        self.map.insert(var, expr);
    }

    /// The image of `var`, if bound.
    pub fn get(&self, var: Var) -> Option<&PathExpr> {
        self.map.get(&var)
    }

    /// Is the substitution the identity?
    pub fn is_identity(&self) -> bool {
        self.map.is_empty()
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the substitution empty?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate over the bindings in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (Var, &PathExpr)> + '_ {
        self.map.iter().map(|(v, e)| (*v, e))
    }

    /// The domain of the substitution.
    pub fn domain(&self) -> Vec<Var> {
        self.map.keys().copied().collect()
    }

    /// The underlying map, for use with [`PathExpr::substitute`].
    pub fn as_map(&self) -> &BTreeMap<Var, PathExpr> {
        &self.map
    }

    /// Apply the substitution to a path expression.
    pub fn apply(&self, expr: &PathExpr) -> PathExpr {
        expr.substitute(&self.map)
    }

    /// Composition `step ∘ self`: first apply `self`, then `step`.
    ///
    /// The result maps every variable `v` in `self`'s domain to `step(self(v))`,
    /// and every variable in `step`'s domain but not `self`'s to `step(v)`.
    pub fn then(&self, step: &Substitution) -> Substitution {
        let mut out = BTreeMap::new();
        for (v, e) in &self.map {
            out.insert(*v, step.apply(e));
        }
        for (v, e) in &step.map {
            out.entry(*v).or_insert_with(|| e.clone());
        }
        Substitution { map: out }
    }

    /// Restrict the substitution to the given variables.
    pub fn restricted_to(&self, vars: &[Var]) -> Substitution {
        Substitution {
            map: self
                .map
                .iter()
                .filter(|(v, _)| vars.contains(v))
                .map(|(v, e)| (*v, e.clone()))
                .collect(),
        }
    }

    /// Is this substitution a symbolic solution of `eq`, i.e. does applying it make
    /// both sides syntactically equal?
    pub fn solves(&self, eq: &Equation) -> bool {
        self.apply(&eq.lhs) == self.apply(&eq.rhs)
    }
}

impl fmt::Display for Substitution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, (v, e)) in self.map.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v} -> {e}")?;
        }
        f.write_str("}")
    }
}

impl FromIterator<(Var, PathExpr)> for Substitution {
    fn from_iter<T: IntoIterator<Item = (Var, PathExpr)>>(iter: T) -> Self {
        Substitution {
            map: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdl_syntax::parse_expr;

    fn e(s: &str) -> PathExpr {
        parse_expr(s).unwrap()
    }

    #[test]
    fn application_substitutes_and_flattens() {
        let s = Substitution::single(Var::path("x"), e("a·$y"));
        assert_eq!(s.apply(&e("$x·$x")), e("a·$y·a·$y"));
        assert_eq!(s.apply(&e("<$x>·b")), e("<a·$y>·b"));
        assert_eq!(s.apply(&e("$z")), e("$z"));
    }

    #[test]
    fn composition_applies_left_then_right() {
        // self: $x ↦ $u·$x   then step: $u ↦ @w  gives  $x ↦ @w·$x, $u ↦ @w.
        let first = Substitution::single(Var::path("x"), e("$u·$x"));
        let step = Substitution::single(Var::path("u"), e("@w"));
        let composed = first.then(&step);
        assert_eq!(composed.get(Var::path("x")), Some(&e("@w·$x")));
        assert_eq!(composed.get(Var::path("u")), Some(&e("@w")));
        assert_eq!(composed.len(), 2);
    }

    #[test]
    fn composition_with_identity_is_identity() {
        let s = Substitution::single(Var::path("x"), e("a"));
        assert_eq!(s.then(&Substitution::identity()), s);
        assert_eq!(Substitution::identity().then(&s), s);
    }

    #[test]
    fn solves_checks_syntactic_equality_after_application() {
        // Paper Example 4.8, first solution of $x·⟨@y·$z⟩·@w = $u·$v·$u:
        //   {$x ↦ @w, $u ↦ @w, $v ↦ ⟨@y·$z⟩}
        let eq = Equation::new(e("$x·<@y·$z>·@w"), e("$u·$v·$u"));
        let sol: Substitution = [
            (Var::path("x"), e("@w")),
            (Var::path("u"), e("@w")),
            (Var::path("v"), e("<@y·$z>")),
        ]
        .into_iter()
        .collect();
        assert!(sol.solves(&eq));
        let not_sol = Substitution::single(Var::path("x"), e("@w"));
        assert!(!not_sol.solves(&eq));
    }

    #[test]
    fn restriction_keeps_only_requested_vars() {
        let s: Substitution = [(Var::path("x"), e("a")), (Var::path("y"), e("b"))]
            .into_iter()
            .collect();
        let r = s.restricted_to(&[Var::path("x")]);
        assert_eq!(r.len(), 1);
        assert!(r.get(Var::path("y")).is_none());
    }

    #[test]
    fn display_matches_paper_notation() {
        let s = Substitution::single(Var::path("u"), e("<@y·$z>·@w"));
        assert_eq!(s.to_string(), "{$u -> <@y·$z>·@w}");
        assert_eq!(Substitution::identity().to_string(), "{}");
    }
}
