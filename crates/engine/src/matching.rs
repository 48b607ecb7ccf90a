//! Associative matching of path expressions against ground paths.
//!
//! The central operation of the evaluator: given a path expression `e`, a ground
//! path `p`, and a partial valuation ν, enumerate all extensions ν′ ⊇ ν such that
//! ν′(e) = p.  Because concatenation is associative, an unbound path variable can
//! absorb any contiguous (possibly empty) block of the remaining path, so matching
//! enumerates all decompositions.
//!
//! Two walks implement it.  One backtracking walk enumerates extensions into a
//! continuation that can stop it: [`match_predicate_sink`] for probes,
//! [`solve_equation`] for equations, and [`predicate_matches`] for existence
//! checks.  One deterministic pass, [`match_predicate_det`], binds in place for
//! probes the lowering proved admit at most one extension per tuple.

use seqdl_core::{Path, PathView, Value};
use seqdl_syntax::{Binding, Equation, PathExpr, Predicate, Term, Valuation, VarKind};

/// Hand every extension of `valuation` under which each argument of `pred`
/// denotes the corresponding path of `tuple` to `sink`, until `sink` returns
/// `true`; the result says whether it did.  Arity mismatches never match.
///
/// This is the fixpoint loop's entry point: matching backtracks on `valuation`
/// itself (which is restored to its original bindings before returning), so a
/// candidate tuple that fails to match allocates nothing.  The valuation passed to
/// `sink` is only valid for the duration of the call (its extra bindings are
/// backtracked away afterwards); `sink` must copy whatever it wants to keep.
pub fn match_predicate_sink(
    pred: &Predicate,
    tuple: &[Path],
    valuation: &mut Valuation,
    sink: &mut dyn FnMut(&mut Valuation) -> bool,
) -> bool {
    pred.args.len() == tuple.len() && match_args(&pred.args, tuple, valuation, sink)
}

/// Does *some* extension of `valuation` match `pred` against `tuple`?  The
/// walk stops at the first match.  Answer filters (`seqdl query` matching a
/// goal pattern against a result relation) call this once per tuple.
pub fn predicate_matches(pred: &Predicate, tuple: &[Path], valuation: &Valuation) -> bool {
    let mut nu = valuation.clone();
    match_predicate_sink(pred, tuple, &mut nu, &mut |_| true)
}

/// Match the argument expressions column by column, calling `sink` once for every
/// valuation under which all columns match.  `nu` is restored before returning.
fn match_args(
    args: &[PathExpr],
    tuple: &[Path],
    nu: &mut Valuation,
    sink: &mut dyn FnMut(&mut Valuation) -> bool,
) -> bool {
    let Some((arg, rest)) = args.split_first() else {
        return sink(nu);
    };
    // invariant: relation arity equals the argument count — enforced when the
    // program is analysed and when facts are inserted, before matching runs.
    let (path, paths) = tuple.split_first().expect("arity checked by the caller");
    match_terms(arg.terms(), *path, 0, path.values(), nu, &mut |nu| {
        match_args(rest, paths, nu, sink)
    })
}

/// Does the (fully bound) equation hold under `valuation`?  Returns `None` if some
/// variable of the equation is unbound.
pub fn equation_holds(eq: &Equation, valuation: &Valuation) -> Option<bool> {
    let lhs = valuation.apply(&eq.lhs)?;
    let rhs = valuation.apply(&eq.rhs)?;
    Some(lhs == rhs)
}

/// Hand every extension of `valuation` satisfying `eq` to `sink`, until `sink`
/// returns `true`.  One side must be fully bound under `valuation` (the
/// planner guarantees this for safe rules): the other side is matched against
/// the path it denotes.  Returns `None` if neither side is fully bound.
/// `valuation` is restored before returning, as in [`match_predicate_sink`].
pub fn solve_equation(
    eq: &Equation,
    valuation: &mut Valuation,
    sink: &mut dyn FnMut(&mut Valuation) -> bool,
) -> Option<()> {
    let (ground, open) = if valuation.is_appropriate_for(&eq.lhs) {
        (&eq.lhs, &eq.rhs)
    } else {
        (&eq.rhs, &eq.lhs)
    };
    let path = valuation.apply(ground)?;
    match_terms(open.terms(), path, 0, path.values(), valuation, sink);
    Some(())
}

/// Match a term sequence against the value suffix `parent.values()[base..]`
/// (passed pre-sliced as `values`), calling `sink` at every complete match
/// until it returns `true`; the result says whether it did.  Backtracks on
/// `nu` in place: any binding added during the walk is removed again, so `nu`
/// leaves in the state it entered.  Carrying the parent path's identity lets
/// every path-variable binding resolve through the store's `(id, start, end)`
/// subpath memo — a whole-suffix bind at `base == 0` reuses the parent's id
/// outright, and enumerated prefixes hash three `u32`s instead of their value
/// content.
fn match_terms(
    terms: &[Term],
    parent: Path,
    base: usize,
    values: &'static [Value],
    nu: &mut Valuation,
    sink: &mut dyn FnMut(&mut Valuation) -> bool,
) -> bool {
    let Some((first, rest)) = terms.split_first() else {
        return values.is_empty() && sink(nu);
    };
    match first {
        Term::Const(a) => match values.first() {
            Some(Value::Atom(b)) if a == b => {
                match_terms(rest, parent, base + 1, &values[1..], nu, sink)
            }
            _ => false,
        },
        Term::Packed(inner) => match values.first() {
            Some(Value::Packed(p)) => {
                match_terms(inner.terms(), *p, 0, p.values(), nu, &mut |nu| {
                    match_terms(rest, parent, base + 1, &values[1..], nu, &mut *sink)
                })
            }
            _ => false,
        },
        Term::Var(v) => match v.kind {
            VarKind::Atom => {
                let Some(Value::Atom(b)) = values.first() else {
                    return false;
                };
                match nu.get(*v) {
                    Some(Binding::Atom(bound)) if bound == b => {
                        match_terms(rest, parent, base + 1, &values[1..], nu, sink)
                    }
                    Some(Binding::Atom(_)) => false,
                    None => {
                        nu.bind_new(*v, Binding::Atom(*b));
                        let found = match_terms(rest, parent, base + 1, &values[1..], nu, sink);
                        nu.pop_binding(*v);
                        found
                    }
                    // A binding of the wrong shape cannot occur: `Valuation::bind`
                    // checks it.
                    Some(Binding::Path(_)) => unreachable!("valuation binding of the wrong kind"),
                }
            }
            VarKind::Path => match nu.get(*v) {
                Some(Binding::Path(bound)) => {
                    let n = bound.len();
                    values.len() >= n
                        && &values[..n] == bound.values()
                        && match_terms(rest, parent, base + n, &values[n..], nu, sink)
                }
                None if rest.is_empty() => {
                    // A trailing unbound path variable must absorb everything
                    // that is left; bind it directly instead of enumerating
                    // every prefix only to reject all but the full one.
                    let suffix = PathView::cut(parent, base, base + values.len());
                    nu.bind_new(*v, Binding::Path(suffix));
                    let found = sink(nu);
                    nu.pop_binding(*v);
                    found
                }
                None => {
                    // Try every prefix (including the empty one), as
                    // unregistered views: a speculative cut rejected by a
                    // later term must not grow the global store.
                    for split in 0..=values.len() {
                        let prefix = PathView::cut(parent, base, base + split);
                        nu.bind_new(*v, Binding::Path(prefix));
                        let found =
                            match_terms(rest, parent, base + split, &values[split..], nu, sink);
                        nu.pop_binding(*v);
                        if found {
                            return true;
                        }
                    }
                    false
                }
                Some(Binding::Atom(_)) => unreachable!("valuation binding of the wrong kind"),
            },
        },
    }
}

/// In-place matcher for probes the lowering proved *deterministic*: under the
/// binding state the plan guarantees at this step, every tuple admits at most
/// one extension (each argument consumes its path left-to-right with no
/// choice point — constants, atomic variables, bound path variables, and at
/// most one unbound path variable sitting last in its term list).  Bindings
/// are applied directly to `nu`; on a mismatch everything added here is
/// truncated away and the call returns `false`.  On success the bindings stay
/// (the caller backtracks by truncating to its own entry depth), and they are
/// exactly the bindings the general enumerator would have produced for the
/// single extension — in the same order.
pub fn match_predicate_det(pred: &Predicate, tuple: &[Path], nu: &mut Valuation) -> bool {
    let start = nu.len();
    if pred.args.len() != tuple.len() {
        return false;
    }
    for (arg, path) in pred.args.iter().zip(tuple) {
        if !det_terms(arg.terms(), *path, 0, path.values(), nu) {
            nu.truncate(start);
            return false;
        }
    }
    true
}

/// One deterministic left-to-right pass of `terms` over `values` (the suffix
/// of `parent` starting at `base`); binds onto `nu` without backtracking.
fn det_terms(
    terms: &[Term],
    parent: Path,
    mut base: usize,
    mut values: &'static [Value],
    nu: &mut Valuation,
) -> bool {
    let last = terms.len().wrapping_sub(1);
    for (i, term) in terms.iter().enumerate() {
        match term {
            Term::Const(a) => match values.first() {
                Some(Value::Atom(b)) if a == b => {
                    base += 1;
                    values = &values[1..];
                }
                _ => return false,
            },
            Term::Packed(inner) => match values.first() {
                Some(Value::Packed(p)) => {
                    if !det_terms(inner.terms(), *p, 0, p.values(), nu) {
                        return false;
                    }
                    base += 1;
                    values = &values[1..];
                }
                _ => return false,
            },
            Term::Var(v) => match v.kind {
                VarKind::Atom => {
                    let Some(Value::Atom(b)) = values.first() else {
                        return false;
                    };
                    let b = *b;
                    match nu.get(*v) {
                        Some(Binding::Atom(bound)) => {
                            if *bound != b {
                                return false;
                            }
                        }
                        None => nu.bind_new(*v, Binding::Atom(b)),
                        Some(Binding::Path(_)) => {
                            unreachable!("valuation binding of the wrong kind")
                        }
                    }
                    base += 1;
                    values = &values[1..];
                }
                VarKind::Path => match nu.get(*v) {
                    Some(Binding::Path(bound)) => {
                        let n = bound.len();
                        if values.len() < n || &values[..n] != bound.values() {
                            return false;
                        }
                        base += n;
                        values = &values[n..];
                    }
                    None => {
                        debug_assert!(i == last, "det lowering proved the trailing position");
                        let suffix = PathView::cut(parent, base, base + values.len());
                        nu.bind_new(*v, Binding::Path(suffix));
                        base += values.len();
                        values = &values[values.len()..];
                    }
                    Some(Binding::Atom(_)) => unreachable!("valuation binding of the wrong kind"),
                },
            },
        }
    }
    values.is_empty()
}

/// Convenience for tests and callers: apply a valuation to a predicate to obtain the
/// corresponding ground tuple, if the valuation is appropriate.
pub fn ground_tuple(pred: &Predicate, valuation: &Valuation) -> Option<Vec<Path>> {
    pred.args.iter().map(|a| valuation.apply(a)).collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use seqdl_core::{atom, path_of, rel, Path};
    use seqdl_syntax::{parse_expr, Predicate, Var};

    fn expr(s: &str) -> PathExpr {
        parse_expr(s).unwrap()
    }

    /// Every extension of `nu` matching `pred` against `tuple`, collected
    /// through the sink; also checks that the walk restores the valuation.
    fn all_matches(pred: &Predicate, tuple: &[Path], nu: &Valuation) -> Vec<Valuation> {
        let mut out = Vec::new();
        let mut scratch = nu.clone();
        let stopped = match_predicate_sink(pred, tuple, &mut scratch, &mut |nu| {
            out.push(nu.clone());
            false
        });
        assert!(!stopped);
        assert_eq!(&scratch, nu, "the walk restores the valuation");
        out
    }

    /// [`all_matches`] of the one-column pattern `e` against `path`.
    fn expr_matches(e: &str, path: Path, nu: &Valuation) -> Vec<Valuation> {
        all_matches(&Predicate::new(rel("T"), vec![expr(e)]), &[path], nu)
    }

    /// Every extension of `nu` satisfying `eq`, collected through the sink.
    fn solutions(eq: &Equation, nu: &Valuation) -> Option<Vec<Valuation>> {
        let mut out = Vec::new();
        let mut scratch = nu.clone();
        solve_equation(eq, &mut scratch, &mut |nu| {
            out.push(nu.clone());
            false
        })?;
        assert_eq!(&scratch, nu, "the walk restores the valuation");
        Some(out)
    }

    #[test]
    fn matching_constants_and_atom_variables() {
        let matches = expr_matches("a·@x·c", path_of(&["a", "b", "c"]), &Valuation::new());
        assert_eq!(matches.len(), 1);
        assert_eq!(
            matches[0].get(Var::atom("x")),
            Some(&Binding::Atom(atom("b")))
        );
        // Atom variable cannot absorb two values.
        assert!(expr_matches("a·@x", path_of(&["a", "b", "c"]), &Valuation::new()).is_empty());
        // Constant mismatch.
        assert!(expr_matches("a·b", path_of(&["a", "c"]), &Valuation::new()).is_empty());
    }

    #[test]
    fn unbound_path_variables_enumerate_all_decompositions() {
        // $x·$y against a·b·c: 4 splits (|$x| = 0..3).
        let matches = expr_matches("$x·$y", path_of(&["a", "b", "c"]), &Valuation::new());
        assert_eq!(matches.len(), 4);
        // Each match reassembles to the original path.
        for nu in &matches {
            let x = nu.get(Var::path("x")).unwrap().as_path();
            let y = nu.get(Var::path("y")).unwrap().as_path();
            assert_eq!(x.concat(&y), path_of(&["a", "b", "c"]));
        }
    }

    #[test]
    fn repeated_path_variables_must_agree() {
        // $x·$x against a·b·a·b: only $x = a·b.
        let matches = expr_matches("$x·$x", path_of(&["a", "b", "a", "b"]), &Valuation::new());
        assert_eq!(matches.len(), 1);
        assert_eq!(
            matches[0].get(Var::path("x")),
            Some(&Binding::Path(path_of(&["a", "b"]).into()))
        );
        assert!(expr_matches("$x·$x", path_of(&["a", "b", "a"]), &Valuation::new()).is_empty());
    }

    #[test]
    fn bound_variables_constrain_the_match() {
        let mut nu = Valuation::new();
        nu.bind_path(Var::path("x"), path_of(&["a"]));
        let matches = expr_matches("$x·$y", path_of(&["a", "b"]), &nu);
        assert_eq!(matches.len(), 1);
        assert_eq!(
            matches[0].get(Var::path("y")),
            Some(&Binding::Path(path_of(&["b"]).into()))
        );
        // A conflicting binding yields no matches.
        let mut nu = Valuation::new();
        nu.bind_path(Var::path("x"), path_of(&["c"]));
        assert!(expr_matches("$x·$y", path_of(&["a", "b"]), &nu).is_empty());
    }

    #[test]
    fn packing_must_match_packed_values() {
        let packed_path =
            Path::from_values([Value::atom("c"), Value::packed(path_of(&["a", "b"]))]);
        let matches = expr_matches("c·<$s>", packed_path, &Valuation::new());
        assert_eq!(matches.len(), 1);
        assert_eq!(
            matches[0].get(Var::path("s")),
            Some(&Binding::Path(path_of(&["a", "b"]).into()))
        );
        // A packed expression never matches an atomic value.
        assert!(expr_matches("<$s>", path_of(&["a"]), &Valuation::new()).is_empty());
        // And a path variable *can* match a packed value (it is a value like any
        // other).
        let matches = expr_matches("c·$v", packed_path, &Valuation::new());
        assert_eq!(matches.len(), 1);
    }

    #[test]
    fn empty_expression_matches_only_the_empty_path() {
        assert_eq!(
            expr_matches("eps", Path::empty(), &Valuation::new()).len(),
            1
        );
        assert!(expr_matches("eps", path_of(&["a"]), &Valuation::new()).is_empty());
    }

    #[test]
    fn predicate_matching_threads_valuations_across_components() {
        // T($x, $x·a) against (b, b·a) succeeds; against (b, c·a) fails.
        let pred = Predicate::new(rel("T"), vec![expr("$x"), expr("$x·a")]);
        let ok = all_matches(
            &pred,
            &[path_of(&["b"]), path_of(&["b", "a"])],
            &Valuation::new(),
        );
        assert_eq!(ok.len(), 1);
        let bad = all_matches(
            &pred,
            &[path_of(&["b"]), path_of(&["c", "a"])],
            &Valuation::new(),
        );
        assert!(bad.is_empty());
        // Arity mismatch never matches.
        assert!(all_matches(&pred, &[path_of(&["b"])], &Valuation::new()).is_empty());
    }

    #[test]
    fn equation_matching_uses_the_ground_side() {
        // With $x bound, a·$x = $y·a binds $y.
        let eq = Equation::new(expr("a·$x"), expr("$y·a"));
        let mut nu = Valuation::new();
        nu.bind_path(Var::path("x"), path_of(&["a"]));
        let matches = solutions(&eq, &nu).unwrap();
        assert_eq!(matches.len(), 1);
        assert_eq!(
            matches[0].get(Var::path("y")),
            Some(&Binding::Path(path_of(&["a"]).into()))
        );
        // Fully bound equations are just checked.
        let mut nu2 = matches[0].clone();
        nu2.bind_path(Var::path("z"), Path::empty());
        let eq2 = Equation::new(expr("$x"), expr("$y"));
        assert_eq!(solutions(&eq2, &nu2).unwrap().len(), 1);
        let eq3 = Equation::new(expr("$x"), expr("$z"));
        assert!(solutions(&eq3, &nu2).unwrap().is_empty());
        // Neither side bound: planner error signalled by None.
        assert!(solutions(&Equation::new(expr("$p"), expr("$q")), &Valuation::new()).is_none());
    }

    #[test]
    fn predicate_matches_agrees_with_enumeration() {
        // Same answers as full enumeration on a grab-bag of patterns, without
        // enumerating: repeated variables, packing, constants, arity mismatch.
        let cases: Vec<(Predicate, Vec<Path>)> = vec![
            (
                Predicate::new(rel("T"), vec![expr("$x·$x")]),
                vec![path_of(&["a", "b", "a", "b"])],
            ),
            (
                Predicate::new(rel("T"), vec![expr("$x·$x")]),
                vec![path_of(&["a", "b", "a"])],
            ),
            (
                Predicate::new(rel("T"), vec![expr("$x"), expr("$x·a")]),
                vec![path_of(&["b"]), path_of(&["b", "a"])],
            ),
            (
                Predicate::new(rel("T"), vec![expr("$x"), expr("$x·a")]),
                vec![path_of(&["b"]), path_of(&["c", "a"])],
            ),
            (
                Predicate::new(rel("T"), vec![expr("c·<$s>")]),
                vec![Path::from_values([
                    Value::atom("c"),
                    Value::packed(path_of(&["a", "b"])),
                ])],
            ),
            (
                Predicate::new(rel("T"), vec![expr("a·$x·$y")]),
                vec![path_of(&["a", "b", "c"])],
            ),
            (
                Predicate::new(rel("T"), vec![expr("$x")]),
                vec![path_of(&["a"]), path_of(&["b"])],
            ),
        ];
        for (pred, tuple) in cases {
            assert_eq!(
                predicate_matches(&pred, &tuple, &Valuation::new()),
                !all_matches(&pred, &tuple, &Valuation::new()).is_empty(),
                "disagreement on {pred} vs {tuple:?}"
            );
        }
        // Bound valuations constrain the existence check too.
        let pred = Predicate::new(rel("T"), vec![expr("$x·$y")]);
        let mut nu = Valuation::new();
        nu.bind_path(Var::path("x"), path_of(&["c"]));
        assert!(!predicate_matches(&pred, &[path_of(&["a", "b"])], &nu));
    }

    #[test]
    fn ground_tuple_and_matches_some_tuple() {
        let pred = Predicate::new(rel("R"), vec![expr("$x·a")]);
        let mut nu = Valuation::new();
        nu.bind_path(Var::path("x"), path_of(&["b"]));
        assert_eq!(ground_tuple(&pred, &nu), Some(vec![path_of(&["b", "a"])]));
        assert_eq!(ground_tuple(&pred, &Valuation::new()), None);

        let tuples = [vec![path_of(&["b", "a"])], vec![path_of(&["c"])]];
        assert!(tuples.iter().any(|t| predicate_matches(&pred, t, &nu)));
        let mut nu_miss = Valuation::new();
        nu_miss.bind_path(Var::path("x"), path_of(&["z"]));
        assert!(!tuples.iter().any(|t| predicate_matches(&pred, t, &nu_miss)));
    }

    #[test]
    fn only_as_equation_matches_exactly_a_powers() {
        // a·$x = $x·a with $x bound: holds iff $x is all a's.
        let eq = Equation::new(expr("a·$x"), expr("$x·a"));
        for (path, expected) in [
            (seqdl_core::repeat_path("a", 4), true),
            (path_of(&["a", "b", "a"]), false),
            (Path::empty(), true),
        ] {
            let mut nu = Valuation::new();
            nu.bind_path(Var::path("x"), path);
            assert_eq!(equation_holds(&eq, &nu), Some(expected));
        }
    }
}
