//! The witness programs used throughout the paper's examples and primitivity
//! proofs, ready to run against the engine.

use seqdl_core::RelName;
use seqdl_syntax::{parse_program, Program};

/// A named witness program with the fragment it belongs to and the output relation
/// it computes.
#[derive(Clone, Debug)]
pub struct Witness {
    /// A short identifier (e.g. `"only-as-equation"`).
    pub name: &'static str,
    /// Where it appears in the paper.
    pub reference: &'static str,
    /// The program.
    pub program: Program,
    /// The output relation.
    pub output: RelName,
}

fn witness(name: &'static str, reference: &'static str, output: &str, src: &str) -> Witness {
    Witness {
        name,
        reference,
        program: parse_program(src).expect("witness programs are well-formed"),
        output: RelName::new(output),
    }
}

/// Example 3.1 — "only a's" with an equation (fragment {E}).
pub fn only_as_equation() -> Witness {
    witness(
        "only-as-equation",
        "Example 3.1",
        "S",
        "S($x) <- R($x), a·$x = $x·a.",
    )
}

/// Example 3.1 — "only a's" with recursion (fragment {A, I, R}).
pub fn only_as_recursion() -> Witness {
    witness(
        "only-as-recursion",
        "Example 3.1",
        "S",
        "T($x, $x) <- R($x).\nT($x, $y) <- T($x, $y·a).\nS($x) <- T($x, eps).",
    )
}

/// Example 4.4 — "only a's" without equations, via an intermediate predicate
/// (fragment {A, I}).
pub fn only_as_intermediate() -> Witness {
    witness(
        "only-as-intermediate",
        "Example 4.4",
        "S",
        "T(a·$x, $x) <- R($x).\nS($x) <- T($x·a, $x).",
    )
}

/// Example 4.3 — reversal, with arity (fragment {A, I, R}).
pub fn reversal_with_arity() -> Witness {
    witness(
        "reversal-arity",
        "Example 4.3",
        "S",
        "T($x, eps) <- R($x).\nT($x, $y·@u) <- T($x·@u, $y).\nS($x) <- T(eps, $x).",
    )
}

/// Example 4.3 — reversal, arity eliminated by the pairing encoding (fragment {I, R}).
pub fn reversal_without_arity() -> Witness {
    witness(
        "reversal-no-arity",
        "Example 4.3",
        "S",
        "T($x·a·a·$x·b) <- R($x).\nT($x·a·$y·@u·a·$x·b·$y·@u) <- T($x·@u·a·$y·a·$x·@u·b·$y).\nS($x) <- T(a·$x·a·b·$x).",
    )
}

/// Theorem 5.3 — the squaring query: output `a^(n²)` for every `R(a^n)` (fragment
/// {A, I, R}; not expressible without recursion by Lemma 5.1).
pub fn squaring() -> Witness {
    witness(
        "squaring",
        "Theorem 5.3",
        "S",
        "T(eps, $x, $x) <- R($x).\nT($y·$x, $x, $z) <- T($y, $x, a·$z).\nS($y) <- T($y, $x, eps).",
    )
}

/// Example 2.1 — NFA acceptance (fragment {A, I, R}).
pub fn nfa_acceptance() -> Witness {
    witness(
        "nfa-acceptance",
        "Example 2.1",
        "A",
        "S(@q·$x, eps) <- R($x), N(@q).\n\
         S(@q2·$y, $z·@a) <- S(@q1·@a·$y, $z), D(@q1, @a, @q2).\n\
         A($x) <- S(@q, $x), F(@q).",
    )
}

/// Example 2.2 — at least three different occurrences of an `S`-string inside
/// `R`-strings, using packing and nonequalities (fragment {E, I, N, P}).
pub fn three_occurrences() -> Witness {
    witness(
        "three-occurrences",
        "Example 2.2",
        "A",
        "T($u·<$s>·$v) <- R($u·$s·$v), S($s).\n\
         A <- T($x), T($y), T($z), $x != $y, $x != $z, $y != $z.",
    )
}

/// Section 5.1.1 — graph reachability `a →* b` on edges encoded as length-2 paths
/// (fragment {I, R}; not expressible without recursion).
pub fn reachability() -> Witness {
    witness(
        "reachability",
        "Section 5.1.1",
        "S",
        "T(@x·@y) <- R(@x·@y).\nT(@x·@z) <- T(@x·@y), R(@y·@z).\nS <- T(a·b).",
    )
}

/// Section 5.2 — nodes all of whose successors are black (fragment {I, N}; not
/// expressible without intermediate predicates).
pub fn only_black_successors() -> Witness {
    witness(
        "only-black-successors",
        "Section 5.2",
        "S",
        "W(@x) <- R(@x·@y), !B(@y).\n---\nS(@x) <- R(@x·@y), !W(@x).",
    )
}

/// Example 4.6 — strings of the form `a1…an·bn…b1` with `ai ≠ bi` (fragment
/// {A, E, I, N, R}).
pub fn mirrored_distinct_pairs() -> Witness {
    witness(
        "mirrored-distinct-pairs",
        "Example 4.6",
        "S",
        "U($x, $x) <- R($x).\nU($x, $y) <- U($x, @a·$y·@b), @a != @b.\nS($x) <- U($x, eps).",
    )
}

/// All witnesses, for enumeration by the harness and the test-suite.
pub fn all_witnesses() -> Vec<Witness> {
    vec![
        only_as_equation(),
        only_as_recursion(),
        only_as_intermediate(),
        reversal_with_arity(),
        reversal_without_arity(),
        squaring(),
        nfa_acceptance(),
        three_occurrences(),
        reachability(),
        only_black_successors(),
        mirrored_distinct_pairs(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::Fragment;
    use seqdl_core::{path_of, rel, repeat_path, Instance};
    use seqdl_exec::{run_unary_query, Executor};
    use seqdl_syntax::analysis::check_safety;

    fn frag(s: &str) -> Fragment {
        s.parse().unwrap()
    }

    #[test]
    fn all_witnesses_are_safe_and_in_their_stated_fragments() {
        let expected = [
            ("only-as-equation", "E"),
            ("only-as-recursion", "AIR"),
            ("only-as-intermediate", "AI"),
            ("reversal-arity", "AIR"),
            ("reversal-no-arity", "IR"),
            ("squaring", "AIR"),
            ("nfa-acceptance", "AIR"),
            ("three-occurrences", "EINP"),
            ("reachability", "IR"),
            ("only-black-successors", "IN"),
            ("mirrored-distinct-pairs", "AEINR"),
        ];
        let witnesses = all_witnesses();
        assert_eq!(witnesses.len(), expected.len());
        for (w, (name, fragment)) in witnesses.iter().zip(expected) {
            assert_eq!(w.name, name);
            assert!(check_safety(&w.program).is_ok(), "{name} is unsafe");
            assert_eq!(
                Fragment::of_program(&w.program),
                frag(fragment),
                "{name} is not in {{{fragment}}}"
            );
        }
    }

    #[test]
    fn the_three_only_as_variants_agree() {
        let input = Instance::unary(
            rel("R"),
            [
                repeat_path("a", 4),
                path_of(&["a", "b", "a"]),
                path_of(&["b"]),
                seqdl_core::Path::empty(),
            ],
        );
        let expected = run_unary_query(&only_as_equation().program, &input, rel("S")).unwrap();
        for w in [only_as_recursion(), only_as_intermediate()] {
            let got = run_unary_query(&w.program, &input, w.output).unwrap();
            assert_eq!(got, expected, "{} disagrees", w.name);
        }
        assert_eq!(expected.len(), 2);
    }

    #[test]
    fn reversal_variants_agree_and_reverse() {
        let paths = [path_of(&["x", "y", "z"]), path_of(&["p", "q"])];
        let input = Instance::unary(rel("R"), paths);
        let with = run_unary_query(&reversal_with_arity().program, &input, rel("S")).unwrap();
        let without = run_unary_query(&reversal_without_arity().program, &input, rel("S")).unwrap();
        assert_eq!(with, without);
        assert_eq!(with, paths.iter().map(seqdl_core::Path::reversed).collect());
    }

    #[test]
    fn squaring_witness_squares() {
        for n in [0usize, 2, 4] {
            let input = Instance::unary(rel("R"), [repeat_path("a", n)]);
            let out = run_unary_query(&squaring().program, &input, rel("S")).unwrap();
            assert!(out.contains(&repeat_path("a", n * n)));
        }
    }

    #[test]
    fn boolean_witnesses_answer_correctly() {
        // Reachability: a -> c -> b reaches, a -> c / d -> b does not.
        let mut yes = Instance::new();
        for (x, y) in [("a", "c"), ("c", "b")] {
            yes.insert_fact(seqdl_core::Fact::new(rel("R"), vec![path_of(&[x, y])]))
                .unwrap();
        }
        let w = reachability();
        assert!(Executor::new()
            .run(&w.program, &yes)
            .unwrap()
            .nullary_true(w.output));
        let mut no = Instance::new();
        for (x, y) in [("a", "c"), ("d", "b")] {
            no.insert_fact(seqdl_core::Fact::new(rel("R"), vec![path_of(&[x, y])]))
                .unwrap();
        }
        assert!(!Executor::new()
            .run(&w.program, &no)
            .unwrap()
            .nullary_true(w.output));
    }
}
