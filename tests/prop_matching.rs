//! Matcher-level differential properties: the engine's backtracking walk
//! (`match_predicate_sink`, `predicate_matches` and `solve_equation`) and its
//! deterministic pass (`match_predicate_det`, wherever the lowering's det
//! verdict `ram::probe_is_det` admits it) against the reference evaluator's
//! own generate-and-test matcher.
//!
//! Predicates, tuples and partial valuations are random.  Patterns mix
//! constants, repeated atomic and path variables, packed terms and `eps`
//! columns.  Tuples are mostly groundings of the pattern, so matches are
//! common, and some columns are random paths instead.  Valuations pre-bind
//! some variables, usually consistently with the grounding and sometimes not.

mod reference;

use proptest::prelude::*;
use sequence_datalog::core::{atom, rel, Path, Value};
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

    /// A random expression of up to four terms; zero terms is `eps`.  Packed
    /// terms nest while `depth` lasts.
    fn expr(&mut self, depth: usize) -> PathExpr {
        let mut terms = Vec::new();
        for _ in 0..self.below(5) {
            terms.push(match self.below(if depth > 0 { 8 } else { 7 }) {
                0 | 1 => Term::constant(self.atom()),
                2 | 3 => Term::Var(Var::atom(["x", "y"][self.below(2)])),
                4..=6 => Term::Var(Var::path(["p", "q", "r"][self.below(3)])),
                _ => Term::Packed(self.expr(depth - 1)),
            });
        }
        PathExpr::from_terms(terms)
    }

    /// A random path of up to three values, occasionally packed ones.
    fn path(&mut self, depth: usize) -> Path {
        let len = self.below(4);
        Path::from_values((0..len).map(|_| {
            if depth > 0 && self.below(4) == 0 {
                Value::packed(self.path(depth - 1))
            } else {
                Value::atom(self.atom())
            }
        }))
    }

    /// A valuation binding every variable the generator uses.
    fn total_valuation(&mut self) -> Valuation {
        let mut nu = Valuation::new();
        for name in ["x", "y"] {
            nu.bind_atom(Var::atom(name), atom(self.atom()));
        }
        for name in ["p", "q", "r"] {
            nu.bind_path(Var::path(name), self.path(1));
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
                (2, Binding::Path(_)) => nu.bind_path(var, self.path(1)),
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
                    g.path(1)
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
    }
}
