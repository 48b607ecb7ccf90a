//! Compilation of an NFA into a Sequence Datalog program (Example 2.1 made
//! self-contained): matching runs on the ordinary bottom-up engine using only the
//! {A, I, R} features, confirming the paper's remark that regular-expression
//! matching is syntactic sugar for recursion.

use crate::ast::Regex;
use crate::nfa::{Label, Nfa};
use seqdl_core::RelName;
use seqdl_syntax::{Literal, PathExpr, Predicate, Program, Rule, Term, Var};

/// Options controlling the generated program.
#[derive(Clone, Debug)]
pub struct CompileOptions {
    /// The unary EDB relation holding the candidate strings.
    pub input: RelName,
    /// The unary IDB relation receiving the matching strings.
    pub output: RelName,
    /// Prefix used for the atoms that encode NFA states.  State atoms only ever
    /// appear at the start of the first component of the step relation, so a clash
    /// with input atoms is harmless, but a distinctive prefix keeps traces readable.
    pub state_prefix: String,
    /// Name of the intermediate "step" relation.
    pub step_relation: RelName,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            input: RelName::new("R"),
            output: RelName::new("Match"),
            state_prefix: "q".to_string(),
            step_relation: RelName::new("Step"),
        }
    }
}

/// A compiled regular expression: the generated program plus the relation names a
/// caller needs to run it.
#[derive(Clone, Debug)]
pub struct CompiledRegex {
    /// The generated Sequence Datalog program.
    pub program: Program,
    /// The EDB relation the program reads candidate strings from.
    pub input: RelName,
    /// The IDB relation holding the strings that match.
    pub output: RelName,
}

/// Compile a regular expression into a program selecting, from the unary relation
/// `options.input`, exactly the strings that **fully match** the expression.
pub fn compile_match(regex: &Regex, options: &CompileOptions) -> CompiledRegex {
    let nfa = Nfa::from_regex(regex);
    compile_nfa(&nfa, options)
}

/// Compile a regular expression into a program selecting the strings that **contain
/// a substring matching** the expression (i.e. a full match of `%* e %*`).
pub fn compile_contains(regex: &Regex, options: &CompileOptions) -> CompiledRegex {
    let wrapped = regex.clone().contains();
    compile_match(&wrapped, options)
}

/// Compile an arbitrary NFA (hand-built or Thompson-constructed) into a program in
/// the style of Example 2.1, with the transition table inlined as one rule per
/// transition instead of a ternary `D` relation.
pub fn compile_nfa(nfa: &Nfa, options: &CompileOptions) -> CompiledRegex {
    let state = |i: usize| Term::constant(&format!("{}{}", options.state_prefix, i));
    let step = options.step_relation;
    let x = Var::path("x");
    let y = Var::path("y");
    let z = Var::path("z");
    let c = Var::atom("c");

    let mut rules = Vec::new();

    // Seeding: Step(q_i · $x, eps) <- R($x)  for every initial state i.
    for i in nfa.initial_states() {
        let head = Predicate::new(
            step,
            vec![
                PathExpr::from_terms([state(i), Term::Var(x)]),
                PathExpr::empty(),
            ],
        );
        let body = vec![Literal::pred(Predicate::new(
            options.input,
            vec![PathExpr::var(x)],
        ))];
        rules.push(Rule::new(head, body));
    }

    // One rule per transition.
    for &(from, label, to) in nfa.transitions() {
        let rule = match label {
            // Step(q_to · $y, $z · a) <- Step(q_from · a · $y, $z).
            Label::Atom(a) => {
                let a_term = Term::Const(a);
                Rule::new(
                    Predicate::new(
                        step,
                        vec![
                            PathExpr::from_terms([state(to), Term::Var(y)]),
                            PathExpr::from_terms([Term::Var(z), a_term.clone()]),
                        ],
                    ),
                    vec![Literal::pred(Predicate::new(
                        step,
                        vec![
                            PathExpr::from_terms([state(from), a_term, Term::Var(y)]),
                            PathExpr::var(z),
                        ],
                    ))],
                )
            }
            // Step(q_to · $y, $z · @c) <- Step(q_from · @c · $y, $z).
            Label::Any => Rule::new(
                Predicate::new(
                    step,
                    vec![
                        PathExpr::from_terms([state(to), Term::Var(y)]),
                        PathExpr::from_terms([Term::Var(z), Term::Var(c)]),
                    ],
                ),
                vec![Literal::pred(Predicate::new(
                    step,
                    vec![
                        PathExpr::from_terms([state(from), Term::Var(c), Term::Var(y)]),
                        PathExpr::var(z),
                    ],
                ))],
            ),
            // Step(q_to · $y, $z) <- Step(q_from · $y, $z).
            Label::Epsilon => Rule::new(
                Predicate::new(
                    step,
                    vec![
                        PathExpr::from_terms([state(to), Term::Var(y)]),
                        PathExpr::var(z),
                    ],
                ),
                vec![Literal::pred(Predicate::new(
                    step,
                    vec![
                        PathExpr::from_terms([state(from), Term::Var(y)]),
                        PathExpr::var(z),
                    ],
                ))],
            ),
        };
        rules.push(rule);
    }

    // Acceptance: Match($x) <- Step(q_f, $x)  for every final state f.
    for f in nfa.final_states() {
        let head = Predicate::new(options.output, vec![PathExpr::var(x)]);
        let body = vec![Literal::pred(Predicate::new(
            step,
            vec![PathExpr::singleton(state(f)), PathExpr::var(x)],
        ))];
        rules.push(Rule::new(head, body));
    }

    CompiledRegex {
        program: Program::single_stratum(rules),
        input: options.input,
        output: options.output,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_regex;
    use seqdl_core::{path_of, rel, repeat_path, Instance, Path};
    use seqdl_exec::run_unary_query;
    use seqdl_syntax::{
        analysis::{check_safety, check_stratification},
        FeatureSet,
    };

    fn p(names: &[&str]) -> Path {
        path_of(names)
    }

    fn run(compiled: &CompiledRegex, strings: Vec<Path>) -> std::collections::BTreeSet<Path> {
        let input = Instance::unary(compiled.input, strings);
        run_unary_query(&compiled.program, &input, compiled.output).expect("terminates")
    }

    #[test]
    fn compiled_programs_are_safe_stratified_and_air_only() {
        let regex = parse_regex("a (b|c)* d?").unwrap();
        let compiled = compile_match(&regex, &CompileOptions::default());
        check_safety(&compiled.program).expect("safe");
        check_stratification(&compiled.program).expect("stratified");
        let features = FeatureSet::of_program(&compiled.program);
        assert!(!features.equations);
        assert!(!features.negation);
        assert!(!features.packing);
        assert!(features.arity);
        assert!(features.intermediate);
        assert!(features.recursion);
    }

    #[test]
    fn compiled_match_selects_exactly_the_matching_strings() {
        let regex = parse_regex("a (b|c)*").unwrap();
        let compiled = compile_match(&regex, &CompileOptions::default());
        let strings = vec![
            p(&["a"]),
            p(&["a", "b", "c", "b"]),
            p(&["b", "a"]),
            p(&["a", "d"]),
            Path::empty(),
        ];
        let got = run(&compiled, strings);
        assert!(got.contains(&p(&["a"])));
        assert!(got.contains(&p(&["a", "b", "c", "b"])));
        assert!(!got.contains(&p(&["b", "a"])));
        assert!(!got.contains(&p(&["a", "d"])));
        assert!(!got.contains(&Path::empty()));
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn compiled_contains_selects_strings_with_a_matching_substring() {
        let regex = parse_regex("b c").unwrap();
        let compiled = compile_contains(&regex, &CompileOptions::default());
        let strings = vec![
            p(&["a", "b", "c", "d"]),
            p(&["b", "c"]),
            p(&["b", "d", "c"]),
            p(&["c", "b"]),
        ];
        let got = run(&compiled, strings);
        assert_eq!(got.len(), 2);
        assert!(got.contains(&p(&["a", "b", "c", "d"])));
        assert!(got.contains(&p(&["b", "c"])));
    }

    #[test]
    fn empty_word_regexes_accept_the_empty_path() {
        let compiled = compile_match(&Regex::Epsilon, &CompileOptions::default());
        let got = run(&compiled, vec![Path::empty(), p(&["a"])]);
        assert_eq!(got.len(), 1);
        assert!(got.contains(&Path::empty()));
    }

    #[test]
    fn custom_relation_names_are_respected() {
        let options = CompileOptions {
            input: rel("Log"),
            output: rel("Compliant"),
            state_prefix: "state".to_string(),
            step_relation: rel("Walk"),
        };
        let regex = parse_regex("order %* pay").unwrap();
        let compiled = compile_contains(&regex, &options);
        assert_eq!(compiled.input, rel("Log"));
        assert_eq!(compiled.output, rel("Compliant"));
        assert!(compiled.program.idb_relations().contains(&rel("Walk")));
        let input = Instance::unary(
            rel("Log"),
            [
                p(&["start", "order", "ship", "pay"]),
                p(&["start", "order"]),
            ],
        );
        let got = run_unary_query(&compiled.program, &input, rel("Compliant")).unwrap();
        assert_eq!(got.len(), 1);
        assert!(got.contains(&p(&["start", "order", "ship", "pay"])));
    }

    #[test]
    fn compiled_program_agrees_with_the_matcher_and_the_nfa() {
        let regexes = ["a (b|c)*", "(a|b)+ c?", "% a %", "a b a", "a*", "eps"];
        // All words over {a, b, c} of length <= 4.
        let alphabet = ["a", "b", "c"];
        let mut words = vec![Path::empty()];
        let mut frontier = vec![Path::empty()];
        for _ in 0..4 {
            let mut next = Vec::new();
            for w in &frontier {
                for a in alphabet {
                    let mut e = *w;
                    e.push(seqdl_core::Value::Atom(seqdl_core::atom(a)));
                    next.push(e);
                    words.push(e);
                }
            }
            frontier = next;
        }
        for src in regexes {
            let regex = parse_regex(src).unwrap();
            let nfa = Nfa::from_regex(&regex);
            let compiled = compile_match(&regex, &CompileOptions::default());
            let got = run(&compiled, words.clone());
            for word in &words {
                let expected = regex.matches(word);
                assert_eq!(
                    nfa.accepts(word),
                    expected,
                    "NFA disagrees on {word} for `{src}`"
                );
                assert_eq!(
                    got.contains(word),
                    expected,
                    "compiled program disagrees on {word} for `{src}`"
                );
            }
        }
    }

    #[test]
    fn state_atoms_in_the_input_do_not_confuse_the_program() {
        // Input strings that deliberately contain the state atoms q0, q1, ….
        let regex = parse_regex("q0 q1*").unwrap();
        let compiled = compile_match(&regex, &CompileOptions::default());
        let got = run(
            &compiled,
            vec![
                p(&["q0"]),
                p(&["q0", "q1", "q1"]),
                p(&["q1"]),
                repeat_path("q0", 2),
            ],
        );
        assert!(got.contains(&p(&["q0"])));
        assert!(got.contains(&p(&["q0", "q1", "q1"])));
        assert!(!got.contains(&p(&["q1"])));
        assert!(!got.contains(&repeat_path("q0", 2)));
    }
}
