//! Render identity: the answer renderer (`seqdl_core::Renderer`, behind
//! `seqdl run`, `seqdl query` and `--save`) and the `Display` impls must print
//! byte for byte what the earlier per-row formatter printed.  The module
//! `oracle` below is a copy of that formatter: `Display` of each path joined
//! with `, `, `rows.sort()` of the tuples for `run`, a `BTreeSet` of cloned
//! tuples for `query`, and a string sort of per-fact `format!`s for
//! `write_instance`.  It shares no formatting code with the renderer.
//!
//! Inputs are random instances over atoms that print bare and atoms that
//! must be quoted (`'complete order'`, `'eps'`, names containing `'`), with
//! `ε` columns, nested packed values and arities 0–3, plus `seqdl-wgen`
//! workloads.  The `query` cases run the CLI in-process on both of its
//! branches: an EDB goal (a filter over the input) and an IDB goal (the
//! magic rewrite), with the expected answers taken from the test-only
//! reference evaluator.

mod reference;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seqdl_cli::run_cli;
use sequence_datalog::core::{Renderer, Tuple};
use sequence_datalog::io::write_instance;
use sequence_datalog::prelude::*;
use sequence_datalog::syntax::{Predicate, Valuation};
use sequence_datalog::wgen::{ProgramConfig, ProgramGenerator, Workloads};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The formatter the renderer replaced, kept as the comparison oracle.
mod oracle {
    use super::*;

    pub fn value(v: &Value) -> String {
        match v {
            Value::Atom(a) => {
                let name = a.name();
                let bare = !name.is_empty()
                    && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                    && name != "eps";
                if bare {
                    name
                } else {
                    format!("'{}'", name.replace('\\', "\\\\").replace('\'', "\\'"))
                }
            }
            Value::Packed(p) => format!("<{}>", path(p)),
        }
    }

    pub fn path(p: &Path) -> String {
        if p.is_empty() {
            return "eps".to_string();
        }
        p.values().iter().map(value).collect::<Vec<_>>().join("·")
    }

    fn args(tuple: &[Path]) -> String {
        tuple.iter().map(path).collect::<Vec<_>>().join(", ")
    }

    /// `seqdl run`'s rows of one relation.
    pub fn run_rows(relation: RelName, tuples: &[&[Path]]) -> String {
        let mut rows: Vec<&[Path]> = tuples.to_vec();
        rows.sort();
        rows.iter()
            .map(|t| format!("  {relation}({})\n", args(t)))
            .collect()
    }

    /// `seqdl query`'s answer block.
    pub fn query_block(goal: &Predicate, answers: &BTreeSet<Tuple>) -> String {
        let mut out = format!("{}: {} answer(s)\n", goal, answers.len());
        for tuple in answers {
            if tuple.is_empty() {
                out.push_str(&format!("  {}\n", goal.relation));
            } else {
                out.push_str(&format!("  {}({})\n", goal.relation, args(tuple)));
            }
        }
        out
    }

    /// `Fact`'s `Display`.
    pub fn fact(relation: RelName, tuple: &[Path]) -> String {
        format!("{relation}({})", args(tuple))
    }

    /// The textual instance format `--save` writes.
    pub fn write_instance(instance: &Instance) -> String {
        let mut out = String::new();
        for name in instance.relation_names_iter() {
            if let Some(relation) = instance.relation(name) {
                out.push_str(&format!("@relation {}/{}.\n", name, relation.arity()));
            }
        }
        let mut rendered: Vec<String> = instance
            .facts()
            .map(|f| {
                if f.tuple.is_empty() {
                    format!("{}.", f.relation)
                } else {
                    format!("{}({}).", f.relation, args(&f.tuple))
                }
            })
            .collect();
        rendered.sort();
        for fact in rendered {
            out.push_str(&fact);
            out.push('\n');
        }
        out
    }
}

/// Atom names that print bare and names the quoting rule must catch.
const NAMES: [&str; 10] = [
    "a",
    "b",
    "x_1",
    "Z9",
    "complete order",
    "eps",
    "it's",
    "'",
    "é",
    "",
];

fn random_value(rng: &mut StdRng, depth: usize) -> Value {
    if depth > 0 && rng.gen_bool(0.25) {
        Value::packed(random_path(rng, depth - 1))
    } else {
        Value::atom(NAMES[rng.gen_range(0..NAMES.len())])
    }
}

fn random_path(rng: &mut StdRng, depth: usize) -> Path {
    let len = rng.gen_range(0..=3usize);
    Path::from_values(
        (0..len)
            .map(|_| random_value(rng, depth))
            .collect::<Vec<_>>(),
    )
}

/// Relations `Render0/0` … `Render3/3`, each with a few random tuples.
fn random_instance(seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut instance = Instance::new();
    for arity in 0..=3usize {
        let relation = rel(&format!("Render{arity}"));
        instance.declare_relation(relation, arity);
        for _ in 0..rng.gen_range(0..=12usize) {
            let tuple: Tuple = (0..arity).map(|_| random_path(&mut rng, 2)).collect();
            instance
                .insert_fact(Fact::new(relation, tuple))
                .expect("arity is consistent");
        }
    }
    instance
}

fn rendered_rows(relation: RelName, tuples: &[&[Path]]) -> String {
    let mut out = String::new();
    Renderer::new().write_sorted_rows(&mut out, relation, tuples.iter().copied());
    out
}

/// Every relation, path, value and fact of `instance` renders as the oracle
/// prints it, and so does the whole instance in the file format.
fn assert_renders_like_oracle(instance: &Instance) {
    for name in instance.relation_names() {
        let relation = instance.relation(name).expect("listed relation");
        let tuples: Vec<&[Path]> = relation.iter().collect();
        if relation.arity() > 0 {
            assert_eq!(
                rendered_rows(name, &tuples),
                oracle::run_rows(name, &tuples),
                "rows of {name}"
            );
        }
        for tuple in tuples {
            assert_eq!(
                Fact::new(name, tuple.to_vec()).to_string(),
                oracle::fact(name, tuple)
            );
            for path in tuple {
                assert_eq!(path.to_string(), oracle::path(path));
                for value in path.values() {
                    assert_eq!(value.to_string(), oracle::value(value));
                }
                let view = sequence_datalog::core::PathView::cut(*path, 0, path.len() / 2);
                assert_eq!(view.to_string(), oracle::path(&view.to_path()));
            }
        }
    }
    assert_eq!(write_instance(instance), oracle::write_instance(instance));
}

static FILES: AtomicUsize = AtomicUsize::new(0);

/// A fresh temp file holding `contents`.
fn temp_file(name: &str, contents: &str) -> String {
    let mut path = std::env::temp_dir();
    let n = FILES.fetch_add(1, Ordering::Relaxed);
    path.push(format!("seqdl-render-{}-{n}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("write temp file");
    path.display().to_string()
}

fn cli(args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    run_cli(&args).unwrap_or_else(|e| panic!("seqdl {args:?} failed: {e}"))
}

/// The tuples of `relation` in `instance` the goal matches, by the
/// reference matcher.
fn expected_answers(instance: &Instance, goal: &Predicate) -> BTreeSet<Tuple> {
    instance
        .relation(goal.relation)
        .map(|r| {
            r.iter()
                .filter(|t| !reference::match_predicate(goal, t, &Valuation::new()).is_empty())
                .map(|row| row.to_vec())
                .collect()
        })
        .unwrap_or_default()
}

/// The random EDB of a generated program, with the unary random paths of
/// `Render1` added to `R0` so quoted atoms, `ε` and packed values reach the
/// answers.
fn program_input(seed: u64) -> Instance {
    let mut input = Workloads::new(seed).random_flat_instance(2, 3, 4, 2);
    input.declare_relation(rel("R0"), 1);
    input.declare_relation(rel("R1"), 1);
    let extra = random_instance(seed);
    if let Some(render1) = extra.relation(rel("Render1")) {
        for tuple in render1.iter() {
            input.insert_row(rel("R0"), tuple).expect("R0 is unary");
        }
    }
    input
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_instances_render_like_the_oracle(seed in 0u64..(1u64 << 32)) {
        assert_renders_like_oracle(&random_instance(seed));
    }

    #[test]
    fn wgen_workloads_render_like_the_oracle(seed in 0u64..(1u64 << 32)) {
        let w = Workloads::new(seed);
        assert_renders_like_oracle(&w.random_flat_instance(3, 8, 5, 3));
        assert_renders_like_oracle(&w.digraph_instance(12, 30));
        assert_renders_like_oracle(&w.event_log(6, 8));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cli_run_and_both_query_branches_print_like_the_oracle(
        seed in 0u64..(1u64 << 32),
        salt in 0u64..(1u64 << 32),
        goal_salt in 0u64..(1u64 << 32),
    ) {
        let generator = ProgramGenerator::new(seed);
        let program = generator.random_program(salt, &ProgramConfig::default());
        let input = program_input(seed ^ salt);
        let program_file = temp_file("p.sdl", &program.to_string());
        let instance_file = temp_file("i.sdi", &oracle::write_instance(&input));
        let full = reference::evaluate(&program, &input);
        let head = program
            .strata
            .last()
            .and_then(|s| s.rules.last())
            .map(|r| r.head.clone())
            .expect("generated programs have rules");

        // `run`: the report ends with the sorted rows of the output relation.
        if let Some(relation) = full.relation(head.relation).filter(|r| r.arity() > 0) {
            let report = cli(&[
                "run", "--program", &program_file, "--instance", &instance_file,
                "--output", &head.relation.name(),
            ]);
            let expected = format!(
                "{}: {} fact(s)\n{}",
                head.relation,
                relation.len(),
                oracle::run_rows(head.relation, &relation.iter().collect::<Vec<_>>())
            );
            prop_assert!(report.ends_with(&expected), "run report:\n{report}\nexpected tail:\n{expected}");
        }

        // `query`, IDB branch (magic rewrite) and EDB branch (input filter).
        let idb_goal = generator.random_goal(goal_salt, head.relation, head.arity());
        let edb_goal = generator.random_goal(goal_salt, rel("R0"), 1);
        for (goal, source) in [(&idb_goal, &full), (&edb_goal, &input)] {
            let report = cli(&[
                "query", "--program", &program_file, "--instance", &instance_file,
                "--goal", &goal.to_string(),
            ]);
            let expected = oracle::query_block(goal, &expected_answers(source, goal));
            prop_assert!(report.ends_with(&expected), "query report:\n{report}\nexpected tail:\n{expected}");
        }
    }
}

#[test]
fn hand_built_edge_cases_render_like_the_oracle() {
    let nested = Path::from_values([
        Value::atom("eps"),
        Value::packed(Path::from_values([
            Value::atom("complete order"),
            Value::packed(Path::empty()),
            Value::packed(path_of(&["it's", "a"])),
        ])),
    ]);
    let mut instance = Instance::new();
    instance.declare_relation(rel("Edge0"), 0);
    instance
        .insert_fact(Fact::new(rel("Edge0"), vec![]))
        .expect("nullary fact");
    for tuple in [
        vec![Path::empty(), nested, path_of(&["complete order"])],
        vec![path_of(&["eps"]), Path::empty(), Path::empty()],
        vec![path_of(&["a", "'"]), path_of(&[""]), nested],
    ] {
        instance
            .insert_fact(Fact::new(rel("Edge3"), tuple))
            .expect("ternary fact");
    }
    assert_renders_like_oracle(&instance);

    // Nullary answers print the bare relation name in `query`.
    let goal = sequence_datalog::rewrite::parse_goal("Edge0").expect("goal parses");
    let answers = expected_answers(&instance, &goal);
    let mut rendered = format!("{}: {} answer(s)\n", goal, answers.len());
    Renderer::new().write_sorted_rows(
        &mut rendered,
        goal.relation,
        answers.iter().map(Vec::as_slice),
    );
    assert_eq!(rendered, oracle::query_block(&goal, &answers));
    assert_eq!(rendered, "Edge0: 1 answer(s)\n  Edge0\n");

    // The same through the CLI, on an IDB and an EDB nullary goal.
    let program = temp_file("nullary.sdl", "EdgeIdb <- Edge0.\n");
    let input = temp_file("nullary.sdi", &oracle::write_instance(&instance));
    for goal in ["EdgeIdb", "Edge0"] {
        let report = cli(&[
            "query",
            "--program",
            &program,
            "--instance",
            &input,
            "--goal",
            goal,
        ]);
        assert!(
            report.ends_with(&format!("{goal}: 1 answer(s)\n  {goal}\n")),
            "{report}"
        );
    }
}
