//! Metamorphic properties the paper's semantics guarantees, checked on the
//! engine over random wgen programs, with the reference evaluator
//! (`tests/reference`) anchoring each base run:
//!
//! * negation-free programs are monotone: adding EDB facts never removes a
//!   derived fact;
//! * the output does not depend on the order input facts were inserted in,
//!   nor on the order of rules within a stratum;
//! * the output does not depend on names: consistently renaming every
//!   relation and variable renames the output and changes nothing else.
//!   Names are interned, and `RelName` orders by interning order, so fresh
//!   names interned in a shuffled order also reorder every `BTreeSet` and
//!   `BTreeMap` keyed by relation in lowering and in the driver.

mod reference;

use proptest::prelude::*;
use sequence_datalog::prelude::*;
use sequence_datalog::syntax::{Atom, Literal, Predicate, Rule, Stratum, Var};
use sequence_datalog::wgen::{ProgramConfig, ProgramGenerator, Workloads};
use std::collections::{BTreeMap, BTreeSet};

fn flat_input(seed: u64) -> Instance {
    let mut input = Workloads::new(seed).random_flat_instance(2, 3, 4, 2);
    input.declare_relation(rel("R0"), 1);
    input.declare_relation(rel("R1"), 1);
    input
}

fn run(program: &Program, input: &Instance) -> Instance {
    Executor::new()
        .run(program, input)
        .unwrap_or_else(|e| panic!("engine failed: {e}\n{program}"))
}

/// `items` in a seeded pseudo-random order (Fisher–Yates over xorshift64).
fn shuffled<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
    let mut state = seed | 1;
    for i in (1..items.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
    items
}

/// A fresh name for each of `names`, interned in a shuffled order.
fn fresh_names<T: Ord + Copy>(
    names: BTreeSet<T>,
    seed: u64,
    fresh: impl Fn(T) -> T,
) -> BTreeMap<T, T> {
    shuffled(names.into_iter().collect(), seed)
        .into_iter()
        .map(|name| (name, fresh(name)))
        .collect()
}

fn rename_predicate(p: &Predicate, rels: &BTreeMap<RelName, RelName>) -> Predicate {
    Predicate::new(rels[&p.relation], p.args.clone())
}

fn rename_program(
    program: &Program,
    rels: &BTreeMap<RelName, RelName>,
    vars: &BTreeMap<Var, Var>,
) -> Program {
    program.map_rules(|rule| {
        let rule = rule.rename_vars(vars);
        let body = rule
            .body
            .iter()
            .map(|lit| {
                let atom = match &lit.atom {
                    Atom::Pred(p) => Atom::Pred(rename_predicate(p, rels)),
                    eq => eq.clone(),
                };
                if lit.positive {
                    Literal::positive(atom)
                } else {
                    Literal::negative(atom)
                }
            })
            .collect();
        Rule::new(rename_predicate(&rule.head, rels), body)
    })
}

fn rename_instance(instance: &Instance, rels: &BTreeMap<RelName, RelName>) -> Instance {
    let mut out = Instance::new();
    for name in instance.relation_names() {
        let arity = instance.relation(name).map_or(0, |r| r.arity());
        out.declare_relation(rels[&name], arity);
    }
    for fact in instance.facts() {
        out.insert_fact(Fact::new(rels[&fact.relation], fact.tuple))
            .expect("renaming keeps arities");
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn negation_free_programs_are_monotone_under_edb_insertion(
        seed in 0u64..(1u64 << 32),
        salt in 0u64..(1u64 << 32),
        extra_seed in 0u64..(1u64 << 32),
        allow_equations in any::<bool>(),
        allow_arity in any::<bool>(),
        allow_recursion in any::<bool>(),
    ) {
        let config = ProgramConfig {
            allow_equations,
            allow_negation: false,
            allow_arity,
            allow_recursion,
            ..ProgramConfig::default()
        };
        let program = ProgramGenerator::new(seed).random_program(salt, &config);
        let small = flat_input(seed ^ salt);
        let mut large = small.clone();
        for fact in flat_input(extra_seed).facts() {
            large.insert_fact(fact).expect("unary EDB facts");
        }
        let out_small = run(&program, &small);
        prop_assert_eq!(&out_small, &reference::evaluate(&program, &small), "{}", &program);
        let out_large = run(&program, &large);
        for fact in out_small.facts() {
            prop_assert!(
                out_large.contains_fact(&fact),
                "{} lost after EDB insertion on\n{}",
                fact,
                &program
            );
        }
    }

    #[test]
    fn output_ignores_fact_order_and_rule_order(
        seed in 0u64..(1u64 << 32),
        salt in 0u64..(1u64 << 32),
        rotate in 0usize..8,
        allow_equations in any::<bool>(),
        allow_negation in any::<bool>(),
        allow_recursion in any::<bool>(),
    ) {
        let config = ProgramConfig {
            allow_equations,
            allow_negation,
            allow_recursion,
            ..ProgramConfig::default()
        };
        let program = ProgramGenerator::new(seed).random_program(salt, &config);
        let input = flat_input(seed ^ salt);
        let expected = run(&program, &input);
        prop_assert_eq!(&expected, &reference::evaluate(&program, &input), "{}", &program);

        // The same facts, inserted in reverse order after a rotation.
        let mut facts: Vec<Fact> = input.facts().collect();
        let shift = rotate % facts.len().max(1);
        facts.rotate_left(shift);
        facts.reverse();
        let mut reordered = Instance::new();
        reordered.declare_relation(rel("R0"), 1);
        reordered.declare_relation(rel("R1"), 1);
        for fact in facts {
            reordered.insert_fact(fact).expect("unary EDB facts");
        }
        prop_assert_eq!(&expected, &run(&program, &reordered), "fact order on\n{}", &program);

        // The same strata with each stratum's rules rotated and reversed.
        let permuted = Program {
            strata: program
                .strata
                .iter()
                .map(|stratum| {
                    let mut rules = stratum.rules.clone();
                    let shift = rotate % rules.len().max(1);
                    rules.rotate_left(shift);
                    rules.reverse();
                    Stratum { rules }
                })
                .collect(),
        };
        prop_assert_eq!(&expected, &run(&permuted, &input), "rule order on\n{}", &permuted);
    }

    #[test]
    fn consistent_renaming_renames_the_output(
        seed in 0u64..(1u64 << 32),
        salt in 0u64..(1u64 << 32),
        shuffle in any::<u64>(),
        allow_equations in any::<bool>(),
        allow_negation in any::<bool>(),
        allow_arity in any::<bool>(),
        allow_recursion in any::<bool>(),
    ) {
        let config = ProgramConfig {
            allow_equations,
            allow_negation,
            allow_arity,
            allow_recursion,
            ..ProgramConfig::default()
        };
        let program = ProgramGenerator::new(seed).random_program(salt, &config);
        let input = flat_input(seed ^ salt);
        let expected = run(&program, &input);
        prop_assert_eq!(&expected, &reference::evaluate(&program, &input), "{}", &program);

        let mut relations = program.all_relations();
        relations.extend(input.relation_names());
        let rels = fresh_names(relations, shuffle, |_| RelName::fresh("Q"));
        let variables: BTreeSet<Var> = program.rules().flat_map(Rule::vars).collect();
        let vars = fresh_names(variables, shuffle.rotate_left(17), |v| Var {
            name: sequence_datalog::core::VarSym::fresh("v"),
            ..v
        });
        let renamed = rename_program(&program, &rels, &vars);
        let renamed_input = rename_instance(&input, &rels);
        let renamed_expected = rename_instance(&expected, &rels);
        for threads in [1usize, 4] {
            let out = Executor::new()
                .with_threads(threads)
                .run(&renamed, &renamed_input)
                .unwrap_or_else(|e| panic!("engine failed: {e}\n{renamed}"));
            prop_assert_eq!(
                &renamed_expected,
                &out,
                "threads = {}: renaming changed the output of\n{}\nrenamed to\n{}",
                threads,
                &program,
                &renamed
            );
        }
    }
}
