//! Matcher-level differential properties: the engine's backtracking walk
//! (`match_predicate_sink`, `predicate_matches` and `solve_equation`) and its
//! deterministic pass (`match_predicate_det`, wherever the lowering's det
//! verdict `ram::probe_is_det` admits it) against the reference evaluator's
//! own generate-and-test matcher.
//!
//! Predicates, tuples and partial valuations are random.  Patterns mix
//! constants, repeated atomic and path variables, packed terms and `eps`
//! columns, and often put an atomic variable right after a path variable.
//! Tuples are mostly groundings of the pattern, so matches are common, and
//! some columns are random paths instead.  Valuations pre-bind some
//! variables, usually consistently with the grounding and sometimes not.
//! Paths run up to eight values over a two-atom alphabet, so the value that
//! anchors a split usually occurs more than once, and path variables are
//! often bound to cuts at a nonzero offset of a longer path, as the engine's
//! own bindings are.  One equation per case has such a cut as its whole
//! ground side.

mod reference;

use proptest::prelude::*;
use sequence_datalog::core::{atom, rel, Path, PathView, Value};
use sequence_datalog::engine::matching::{
    match_predicate_det, match_predicate_sink, predicate_matches, solve_equation,
};
use sequence_datalog::engine::ram::probe_is_det;
use sequence_datalog::syntax::{Binding, Equation, PathExpr, Predicate, Term, Valuation, Var};

/// A small deterministic generator (SplitMix64) seeded by the case.
struct Gen(u64);

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    fn atom(&mut self) -> &'static str {
        ["a", "b"][self.below(2)]
    }

    /// A random expression of up to four picks; zero terms is `eps`.  A
    /// pick is one term or a path variable followed by an atomic one.
    /// Packed terms nest while `depth` lasts.
    fn expr(&mut self, depth: usize) -> PathExpr {
        let mut terms = Vec::new();
        for _ in 0..self.below(5) {
            match self.below(if depth > 0 { 9 } else { 8 }) {
                0 | 1 => terms.push(Term::constant(self.atom())),
                2 | 3 => terms.push(self.atom_var()),
                4..=6 => terms.push(self.path_var()),
                7 => terms.extend([self.path_var(), self.atom_var()]),
                _ => terms.push(Term::Packed(self.expr(depth - 1))),
            }
        }
        PathExpr::from_terms(terms)
    }

    fn atom_var(&mut self) -> Term {
        Term::Var(Var::atom(["x", "y"][self.below(2)]))
    }

    fn path_var(&mut self) -> Term {
        Term::Var(Var::path(["p", "q", "r"][self.below(3)]))
    }

    /// A random path of up to `max` values, occasionally packed ones (of up
    /// to three values).
    fn path(&mut self, max: usize, depth: usize) -> Path {
        let len = self.below(max + 1);
        Path::from_values((0..len).map(|_| {
            if depth > 0 && self.below(4) == 0 {
                Value::packed(self.path(3, depth - 1))
            } else {
                Value::atom(self.atom())
            }
        }))
    }

    /// `content` as a cut at a nonzero offset of a longer path: one to
    /// three random values before it, up to two after.
    fn cut_of(&mut self, content: Path) -> PathView {
        let before = self.path(2, 0).values().len() + 1;
        let pre = Path::from_values((0..before).map(|_| Value::atom(self.atom())));
        let post = self.path(2, 0);
        let parent = pre.concat(&content).concat(&post);
        PathView::cut(parent, before, before + content.len())
    }

    /// A path binding of up to eight values: a whole path, or often a cut of
    /// a longer one.
    fn path_binding(&mut self) -> Binding {
        let content = self.path(8, 1);
        if self.below(2) == 0 {
            Binding::Path(self.cut_of(content))
        } else {
            Binding::Path(content.into())
        }
    }

    /// A valuation binding every variable the generator uses.
    fn total_valuation(&mut self) -> Valuation {
        let mut nu = Valuation::new();
        for name in ["x", "y"] {
            nu.bind_atom(Var::atom(name), atom(self.atom()));
        }
        for name in ["p", "q", "r"] {
            let binding = self.path_binding();
            nu.bind(Var::path(name), binding);
        }
        nu
    }

    /// Some of `total`'s bindings, a few replaced by fresh random values.
    fn partial_valuation(&mut self, total: &Valuation) -> Valuation {
        let mut nu = Valuation::new();
        for (var, binding) in total.iter() {
            match (self.below(8), binding) {
                (0 | 1, _) => nu.bind(var, *binding),
                (2, Binding::Atom(_)) => nu.bind_atom(var, atom(self.atom())),
                (2, Binding::Path(_)) => {
                    let binding = self.path_binding();
                    nu.bind(var, binding);
                }
                _ => {}
            }
        }
        nu
    }
}

/// A valuation as its sorted binding list, comparable across matchers.
type Canon = Vec<(Var, Binding)>;

fn canon(nu: &Valuation) -> Canon {
    nu.iter().map(|(v, b)| (v, *b)).collect()
}

fn sorted(valuations: &[Valuation]) -> Vec<Canon> {
    let mut out: Vec<Canon> = valuations.iter().map(canon).collect();
    out.sort();
    out
}

/// Every extension the engine's sink hands out, sorted; the walk must also
/// restore the valuation it was given.
fn engine_matches(pred: &Predicate, tuple: &[Path], nu: &Valuation) -> Vec<Canon> {
    let mut out = Vec::new();
    let mut scratch = nu.clone();
    match_predicate_sink(pred, tuple, &mut scratch, &mut |ext| {
        out.push(canon(ext));
        false
    });
    assert_eq!(&scratch, nu, "match_predicate_sink restores the valuation");
    out.sort();
    out
}

fn engine_solutions(eq: &Equation, nu: &Valuation) -> Option<Vec<Canon>> {
    let mut out = Vec::new();
    let mut scratch = nu.clone();
    let solved = solve_equation(eq, &mut scratch, &mut |ext| {
        out.push(canon(ext));
        false
    });
    assert_eq!(&scratch, nu, "solve_equation restores the valuation");
    out.sort();
    solved.map(|()| out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn engine_matcher_agrees_with_the_reference_matcher(seed in 0u64..(1u64 << 48)) {
        let mut g = Gen(seed);
        let total = g.total_valuation();
        let nu = g.partial_valuation(&total);

        let args: Vec<PathExpr> = (0..1 + g.below(3)).map(|_| g.expr(1)).collect();
        let tuple: Vec<Path> = args
            .iter()
            .map(|arg| {
                if g.below(4) == 0 {
                    g.path(8, 1)
                } else {
                    total.apply(arg).expect("a total valuation grounds every expression")
                }
            })
            .collect();
        let pred = Predicate::new(rel("T"), args);
        let expected = reference::match_predicate(&pred, &tuple, &nu);
        prop_assert_eq!(
            engine_matches(&pred, &tuple, &nu),
            sorted(&expected),
            "{} against {:?} under {}",
            &pred,
            &tuple,
            &nu
        );
        prop_assert_eq!(
            predicate_matches(&pred, &tuple, &nu),
            !expected.is_empty(),
            "{} against {:?} under {}",
            &pred,
            &tuple,
            &nu
        );

        // Wherever the lowering's det verdict admits the pre-bound
        // variables, the reference never finds two extensions, and the det
        // pass binds exactly the one it finds or, failing, restores `nu`.
        let bound: Vec<Var> = nu.iter().map(|(v, _)| v).collect();
        if probe_is_det(&pred, &bound) {
            prop_assert!(expected.len() <= 1, "{} against {:?} under {}", &pred, &tuple, &nu);
            let mut scratch = nu.clone();
            prop_assert_eq!(
                match_predicate_det(&pred, &tuple, &mut scratch),
                !expected.is_empty(),
                "{} against {:?} under {}",
                &pred,
                &tuple,
                &nu
            );
            prop_assert_eq!(
                canon(&scratch),
                canon(expected.first().unwrap_or(&nu)),
                "{} against {:?} under {}",
                &pred,
                &tuple,
                &nu
            );
        }

        // An equation whose ground side is often the grounding of the open
        // side, so that it has solutions; a valuation that grounds neither
        // side must be refused by both solvers.
        let open = g.expr(1);
        let ground = if g.below(2) == 0 {
            let path = total.apply(&open).expect("a total valuation grounds every expression");
            PathExpr::from_path(&path)
        } else {
            g.expr(1)
        };
        let eq = if g.below(2) == 0 {
            Equation::new(ground, open)
        } else {
            Equation::new(open, ground)
        };
        prop_assert_eq!(
            engine_solutions(&eq, &nu),
            reference::solve_equation(&eq, &nu).map(|s| sorted(&s)),
            "{} under {}",
            &eq,
            &nu
        );

        // An equation whose ground side is one variable bound to a cut at a
        // nonzero offset: the engine matches over the cut's parent, the
        // reference over the interned cut.  The cut's content is usually the
        // grounding of the open side.
        let open = g.expr(1);
        let content = if g.below(4) == 0 {
            g.path(8, 1)
        } else {
            total.apply(&open).expect("a total valuation grounds every expression")
        };
        let cut = g.cut_of(content);
        let mut nu_cut = nu.clone();
        nu_cut.bind(Var::path("g"), Binding::Path(cut));
        let ground = PathExpr::var(Var::path("g"));
        let eq = if g.below(2) == 0 {
            Equation::new(ground, open)
        } else {
            Equation::new(open, ground)
        };
        prop_assert_eq!(
            engine_solutions(&eq, &nu_cut),
            reference::solve_equation(&eq, &nu_cut).map(|s| sorted(&s)),
            "{} under {}",
            &eq,
            &nu_cut
        );
    }
}
