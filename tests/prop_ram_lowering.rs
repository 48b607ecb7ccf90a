//! wgen-driven differential property test for the RAM lowering: compiling
//! rules to the flat instruction IR and running them on the shared
//! interpreter must derive exactly what the reference evaluator
//! (`tests/reference`) derives — on random safe, stratified programs with
//! recursion and negation, through the executor at one and four threads, and
//! through the demand-driven (magic-set) query path.
//!
//! This guards the whole lowering: bound-set propagation, probe/equation
//! fusion, terminal probe+emit fusion, static-rule hoisting, and the
//! interpreter's frame machine (candidate selection, delta-window clamping,
//! bucket-side fast path, det pass, buffered extension replay,
//! backtracking), and the existential cut after each emit.

mod reference;

use proptest::prelude::*;
use sequence_datalog::exec::Executor;
use sequence_datalog::prelude::*;
use sequence_datalog::rewrite::magic;
use sequence_datalog::syntax::analysis::check_safety;
use sequence_datalog::syntax::{Atom, Predicate};
use sequence_datalog::wgen::{ProgramConfig, ProgramGenerator, Workloads};
use std::collections::BTreeSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ram_execution_equals_the_reference(
        seed in 0u64..(1u64 << 32),
        salt in 0u64..(1u64 << 32),
        goal_salt in 0u64..(1u64 << 32),
        allow_equations in any::<bool>(),
        allow_negation in any::<bool>(),
        allow_arity in any::<bool>(),
    ) {
        let config = ProgramConfig {
            allow_equations,
            allow_negation,
            allow_arity,
            allow_recursion: true,
            ..ProgramConfig::default()
        };
        let generator = ProgramGenerator::new(seed);
        let program = generator.random_program(salt, &config);
        let mut input = Workloads::new(seed ^ salt).random_flat_instance(2, 3, 4, 2);
        input.declare_relation(rel("R0"), 1);
        input.declare_relation(rel("R1"), 1);

        let expected = reference::evaluate(&program, &input);
        for threads in [1usize, 4] {
            let out = Executor::new()
                .with_threads(threads)
                .run(&program, &input)
                .unwrap_or_else(|e| panic!("RAM executor run failed: {e}\n{program}"));
            prop_assert_eq!(
                &expected,
                &out,
                "executor (threads = {}) vs reference on\n{}",
                threads,
                &program
            );
        }

        // The demand-driven path: magic-rewritten programs exercise seeded
        // fixpoints, guard predicates, and deeper join chains.
        let output = program
            .strata
            .last()
            .and_then(|s| s.rules.last())
            .map(|r| r.head.clone())
            .expect("generated programs have rules");
        let goal = generator.random_goal(goal_salt, output.relation, output.arity());
        let mp = magic(&program, &goal)
            .unwrap_or_else(|e| panic!("magic failed for goal {goal}: {e}\n{program}"));
        let expected_answers =
            mp.answers(&reference::evaluate_seeded(&mp.program, &input, &mp.seeds));
        for threads in [1usize, 4] {
            let out = Executor::new()
                .with_threads(threads)
                .run_seeded(&mp.program, &input, &mp.seeds)
                .map(|out| mp.answers(&out))
                .unwrap_or_else(|e| panic!("RAM seeded executor failed: {e}\n{}", mp.program));
            prop_assert_eq!(
                &expected_answers,
                &out,
                "magic executor (threads = {}) vs reference: goal {} on\n{}",
                threads,
                &goal,
                &mp.program
            );
        }
    }
}

/// Project the IDB relations of `program`: argument `j` of the `i`-th IDB
/// relation survives iff bit `(2i + j) mod 64` of `mask` is set (wgen
/// relations have arity at most 2), so a relation may
/// lose every argument and turn nullary.  The projection applies to every
/// occurrence of a relation, heads and bodies alike.  Dropping a positive
/// body argument can leave a rule unsafe; then only the relations no body
/// reads are projected, which only ever drops head arguments.  Either way
/// the rule bodies keep variables the heads no longer read — dead trailing
/// choice points for the existential cut.
fn project_idb(program: &Program, mask: u64) -> Program {
    let idb: Vec<RelName> = program.idb_relations().into_iter().collect();
    let read: BTreeSet<RelName> = program
        .rules()
        .flat_map(|r| &r.body)
        .filter_map(|l| match &l.atom {
            Atom::Pred(p) => Some(p.relation),
            Atom::Eq(_) => None,
        })
        .collect();
    let project = |eligible: &dyn Fn(RelName) -> bool| {
        let cut = |p: &mut Predicate| {
            let Some(i) = idb.iter().position(|r| *r == p.relation) else {
                return;
            };
            if eligible(p.relation) {
                let mut j = 0;
                p.args.retain(|_| {
                    j += 1;
                    (mask >> ((2 * i + j - 1) % 64)) & 1 == 1
                });
            }
        };
        let mut out = program.clone();
        for rule in out.strata.iter_mut().flat_map(|s| &mut s.rules) {
            cut(&mut rule.head);
            for literal in &mut rule.body {
                if let Atom::Pred(p) = &mut literal.atom {
                    cut(p);
                }
            }
        }
        out
    };
    let everywhere = project(&|_| true);
    if check_safety(&everywhere).is_ok() {
        everywhere
    } else {
        project(&|r| !read.contains(&r))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The existential cut prunes only duplicate head valuations: with heads
    /// projected so that most rules end in choice points binding variables
    /// the head never reads, the executor still derives exactly what the
    /// reference evaluator derives, at one and four threads.
    #[test]
    fn projected_heads_equal_the_reference(
        seed in 0u64..(1u64 << 32),
        salt in 0u64..(1u64 << 32),
        mask in any::<u64>(),
        allow_negation in any::<bool>(),
    ) {
        let config = ProgramConfig {
            allow_equations: true,
            allow_negation,
            allow_arity: true,
            allow_recursion: true,
            ..ProgramConfig::default()
        };
        let program = project_idb(&ProgramGenerator::new(seed).random_program(salt, &config), mask);
        let mut input = Workloads::new(seed ^ salt).random_flat_instance(2, 3, 4, 2);
        input.declare_relation(rel("R0"), 1);
        input.declare_relation(rel("R1"), 1);

        let expected = reference::evaluate(&program, &input);
        for threads in [1usize, 4] {
            let out = Executor::new()
                .with_threads(threads)
                .run(&program, &input)
                .unwrap_or_else(|e| panic!("RAM executor run failed: {e}\n{program}"));
            prop_assert_eq!(
                &expected,
                &out,
                "executor (threads = {}) vs reference on\n{}",
                threads,
                &program
            );
        }
    }
}

/// The existential cut on the order-then-pay policy: `HasPay` fires once per
/// `order` position whose suffix holds a `pay` (its `pay` split stops at the
/// first match), and `Viol` once per violating trace (its first violating
/// `order` split ends the trace).  Both counts come from a plain scan of the
/// log; the answers come from the reference evaluator.
#[test]
fn existential_cuts_fire_once_per_head_binding() {
    let program = parse_program(include_str!("../examples/programs/order_then_pay.sdl")).unwrap();
    let traces: [&[&str]; 9] = [
        &[],
        &["order", "pay"],
        &["order", "pay", "pay", "ship"],
        &["pay", "order", "order", "pay", "pay"],
        &["order", "ship", "pay", "order"],
        &["login", "order", "order"],
        &["order", "pay", "order", "pay"],
        &["ship", "order", "pay", "order", "pay"],
        &["order"],
    ];
    let input = Instance::unary(rel("Log"), traces.iter().map(|t| path_of(t)));
    let (mut has_pay, mut viol) = (0usize, 0usize);
    for trace in &traces {
        let mut violating = false;
        for (i, event) in trace.iter().enumerate() {
            if *event == "order" {
                if trace[i + 1..].contains(&"pay") {
                    has_pay += 1;
                } else {
                    violating = true;
                }
            }
        }
        viol += usize::from(violating);
    }
    assert_eq!((has_pay, viol), (9, 3), "the scan itself");
    let expected = reference::evaluate(&program, &input);
    for threads in [1usize, 4] {
        let (out, stats) = Executor::new()
            .with_threads(threads)
            .run_with_stats(&program, &input)
            .unwrap();
        assert_eq!(expected, out, "threads = {threads}");
        let firings = |head: &str| -> usize {
            stats
                .rules
                .iter()
                .filter(|r| r.rule.starts_with(head))
                .map(|r| r.firings)
                .sum()
        };
        assert_eq!(firings("HasPay("), has_pay, "threads = {threads}");
        assert_eq!(firings("Viol("), viol, "threads = {threads}");
    }
}

/// A static rule inside a recursive component fires exactly one pass: its
/// firings equal the input size, not input × rounds — at every thread count,
/// pinned here so hoisting stays observable in the stats.
#[test]
fn hoisted_static_rules_fire_one_pass() {
    let program = parse_program("T($x) <- R($x).\nT($y) <- T(@u·$y).").unwrap();
    let paths: Vec<_> = (0..10)
        .map(|i| path_of(&[&format!("a{i}"), &format!("b{i}"), &format!("c{i}")]))
        .collect();
    let input = Instance::unary(rel("R"), paths);
    for threads in [1usize, 4] {
        let (out, stats) = Executor::new()
            .with_threads(threads)
            .run_with_stats(&program, &input)
            .unwrap();
        // 10 base paths + their 20 distinct proper suffixes + ε.
        assert_eq!(out.unary_paths(rel("T")).len(), 31, "threads = {threads}");
        // One static pass (10 firings) + 30 recursive firings across the
        // fixpoint rounds.  Re-firing the static rule every productive round
        // would show as ≥ 70.
        assert_eq!(stats.rule_firings, 40, "threads = {threads}: {stats:?}");
        assert_eq!(stats.iterations, 5, "threads = {threads}: {stats:?}");
    }
}

/// RAM runs at 1, 2, and 4 threads produce identical instances on the §5.1.1
/// reachability program, and match the reference evaluator exactly.  The
/// second and third programs end in a fully bound unary probe at a delta
/// position, `M(@y)`, which the det pass matches (pinned in its listing
/// line); the third also derives new `M` facts, so the windowed probe sees
/// fresh delta tuples.
#[test]
fn reachability_identical_across_thread_counts() {
    let edges = |relation: &str| {
        let mut input = Instance::new();
        for (x, y) in [("a", "c"), ("c", "b"), ("b", "d"), ("d", "a"), ("c", "e")] {
            input
                .insert_fact(Fact::new(rel(relation), vec![path_of(&[x, y])]))
                .unwrap();
        }
        input
    };
    let mut sourced = edges("E");
    for source in ["c", "f"] {
        sourced
            .insert_fact(Fact::new(rel("S"), vec![path_of(&[source])]))
            .unwrap();
    }
    let fully_bound_delta = "M(@x) <- S(@x).\nM(@y) <- M(@x), E(@x·@y), M(@y).";
    for (source, input) in [
        (
            "T(@x·@y) <- R(@x·@y).\nT(@x·@z) <- T(@x·@y), R(@y·@z).\nS <- T(a·b).".to_string(),
            edges("R"),
        ),
        (fully_bound_delta.to_string(), sourced.clone()),
        (
            format!("{fully_bound_delta}\nM(@y) <- M(@x), E(@x·@y)."),
            sourced,
        ),
    ] {
        let program = parse_program(&source).unwrap();
        if source.starts_with("M(") {
            let listing = sequence_datalog::engine::ram::lower(&program)
                .unwrap()
                .to_string();
            let line = "      02  probe+emit M(@y) -> M(@y)  ; via col0[1], det, once  [delta]\n";
            assert!(listing.contains(line), "missing {line:?} in:\n{listing}");
        }
        let expected = reference::evaluate(&program, &input);
        for threads in [1usize, 2, 4] {
            let out = Executor::new()
                .with_threads(threads)
                .run(&program, &input)
                .unwrap();
            assert_eq!(expected, out, "threads = {threads} on\n{program}");
        }
    }
}

/// Probe shapes with no single resolved first value per column still match
/// the reference at 1 and 4 threads, through a column bucket or a scan: the
/// NFA witness's `D(@q1, @a, @q2)` with two bound columns, `Even($w, eps)`,
/// a leading packed variable `R(<$x>·$y)`, and a bound path-variable prefix
/// `R($u·$v)` whose binding has zero, one or two values.
#[test]
fn probes_without_a_single_first_value_match_the_reference() {
    let cases = [
        (
            "S(@q·$x, eps) <- R($x), N(@q).\n\
             S(@q2·$y, $z·@a) <- S(@q1·@a·$y, $z), D(@q1, @a, @q2).\n\
             A($x) <- S(@q, $x), F(@q).",
            "N(q0).\nF(q2).\nD(q0, a, q0).\nD(q0, b, q0).\nD(q0, a, q1).\nD(q1, a, q1).\n\
             D(q1, b, q2).\nD(q2, a, q2).\nD(q2, b, q2).\n\
             R(eps).\nR(a).\nR(a·b).\nR(b·a·b).\nR(a·a·b·a).\nR(b·b).",
            "A",
        ),
        (
            include_str!("../examples/programs/nfa_even.sdl"),
            "Input(eps).\nInput(a).\nInput(a·a).\nInput(a·a·a).\nInput(a·a·a·a).\nInput(a·b).",
            "Match",
        ),
        (
            "P($x, $y) <- R(<$x>·$y).",
            "R(<a·b>·c).\nR(<eps>).\nR(<a>·<b>).\nR(c·<a>).\nR(eps).",
            "P",
        ),
        (
            "U($u, $v) <- S($u), R($u·$v).",
            "S(eps).\nS(a).\nS(a·b).\nR(a·b·c).\nR(a·b).\nR(a).\nR(b·a).\nR(eps).",
            "U",
        ),
    ];
    for (source, facts, output) in cases {
        let program = parse_program(source).unwrap();
        let input = sequence_datalog::io::parse_instance(facts).unwrap();
        let expected = reference::evaluate(&program, &input);
        assert!(
            expected
                .relation(rel(output))
                .is_some_and(|r| !r.is_empty()),
            "the reference derives some {output} on\n{program}"
        );
        for threads in [1usize, 4] {
            let out = Executor::new()
                .with_threads(threads)
                .run(&program, &input)
                .unwrap();
            assert_eq!(expected, out, "threads = {threads} on\n{program}");
        }
    }
}
