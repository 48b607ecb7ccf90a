//! Property tests for the hash-consed path representation and the indexed
//! evaluation pipeline built on it.
//!
//! Three layers are pinned down:
//!
//! 1. **Store invariants** — id equality ⇔ path equality, concatenation
//!    associativity through the buffered composition route, subpath identity
//!    through the zero-copy cut route, and `Display` round-trips through the
//!    parser.
//! 2. **Index agreement** — first-value index probes return exactly the
//!    tuples a linear scan finds.
//! 3. **Pipeline differential** — the interned pipeline computes the same
//!    models as the reference evaluator (`tests/reference`, the §2.2
//!    semantics written down directly) on random wgen programs, through the
//!    `Executor` at 1 and 4 threads.

mod reference;

use proptest::prelude::*;
use seqdl_core::{rel, Instance, Path, PathId, Value};
use seqdl_engine::EvalLimits;
use seqdl_exec::Executor;
use seqdl_wgen::{ProgramConfig, ProgramGenerator, Workloads};

fn atom_name() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("a"), Just("b"), Just("c"), Just("d")]
}

fn flat_path() -> impl Strategy<Value = Path> {
    prop::collection::vec(atom_name(), 0..=8).prop_map(|names| seqdl_core::path_of(&names))
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        atom_name().prop_map(Value::atom),
        flat_path().prop_map(Value::packed),
    ]
}

fn deep_path() -> impl Strategy<Value = Path> {
    prop::collection::vec(value(), 0..=6).prop_map(Path::from_values)
}

proptest! {
    /// Hash-consing: equal content ⇔ equal id, across every construction
    /// route (value iterators, concatenation, subpaths, slices).
    #[test]
    fn id_equality_is_path_equality(a in deep_path(), b in deep_path()) {
        prop_assert_eq!(a == b, a.id() == b.id());
        prop_assert_eq!(a.values() == b.values(), a.id() == b.id());
        // Rebuilding from the shared values yields the same id.
        let rebuilt = Path::from_values(a.values().iter().copied());
        prop_assert_eq!(rebuilt.id(), a.id());
        let sliced = Path::from_slice(a.values());
        prop_assert_eq!(sliced.id(), a.id());
    }

    /// Concatenation through the buffered composition route stays
    /// associative and produces the same ids as element-wise construction.
    #[test]
    fn concat_is_associative_and_consed(a in deep_path(), b in deep_path(), c in deep_path()) {
        let left = a.concat(&b).concat(&c);
        let right = a.concat(&b.concat(&c));
        prop_assert_eq!(left.id(), right.id());
        let elementwise = Path::from_values(
            a.values().iter().chain(b.values()).chain(c.values()).copied(),
        );
        prop_assert_eq!(left.id(), elementwise.id());
        prop_assert_eq!(a.concat(&Path::empty()).id(), a.id());
        prop_assert_eq!(Path::empty().id(), PathId::EMPTY);
    }

    /// Subpaths interned as zero-copy cuts equal fresh interning of the
    /// same content, and the subpath iterator agrees with direct cuts.
    #[test]
    fn subpaths_are_consed_cuts(a in deep_path(), start in 0usize..=6, end in 0usize..=6) {
        let (start, end) = (start.min(a.len()), end.min(a.len()));
        let (start, end) = (start.min(end), start.max(end));
        let cut = a.subpath(start, end);
        prop_assert_eq!(cut.id(), Path::from_slice(&a.values()[start..end]).id());
        prop_assert_eq!(a.subpath(0, a.len()).id(), a.id());
        let via_iter: Vec<Path> = a.subpaths().collect();
        prop_assert_eq!(via_iter.len(), a.len() * (a.len() + 1) / 2 + 1);
        prop_assert!(via_iter.contains(&cut) || start == end);
    }

    /// Display round-trips through the instance-text parser, preserving the
    /// interned identity.
    #[test]
    fn display_round_trips_to_the_same_id(a in deep_path()) {
        let text = format!("R({a}).");
        let parsed = seqdl_io::parse_instance(&text).unwrap();
        let back: Vec<Path> = parsed.unary_paths_iter(rel("R")).collect();
        prop_assert_eq!(back.len(), 1);
        prop_assert_eq!(back[0].id(), a.id());
    }
}

/// Brute-force reference for first-value probes: scan all tuples of a
/// unary relation and keep those whose path starts with `first`.
fn scan_first(instance: &Instance, name: &str, first: &Value) -> Vec<Path> {
    instance
        .unary_paths_iter(rel(name))
        .filter(|p| p.values().first() == Some(first))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// First-value index probes agree with a linear scan, for a random probe
    /// value and for the first value of every stored path.
    #[test]
    fn trie_probe_agrees_with_linear_scan(
        paths in prop::collection::vec(deep_path(), 1..40),
        probe in value(),
    ) {
        let firsts = paths.iter().filter_map(|p| p.values().first().copied());
        let probes: Vec<Value> = std::iter::once(probe).chain(firsts).collect();
        let instance = Instance::unary(rel("R"), paths);
        let relation = instance.relation(rel("R")).unwrap();
        for first in &probes {
            let probed: Vec<Path> = relation
                .probe_first(0, first)
                .iter()
                .map(|e| relation.rows().row(e.id as usize)[0])
                .collect();
            prop_assert_eq!(probed, scan_first(&instance, "R", first));
        }
    }
}

fn eval_limits() -> EvalLimits {
    EvalLimits {
        max_iterations: 400,
        max_facts: 60_000,
        max_path_len: 2_000,
        ..EvalLimits::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The whole interned pipeline — column indexes, bucket-side
    /// matching, the path store's arena — is output-identical to the reference evaluator
    /// on random programs, for the Executor at 1 and 4 threads.
    #[test]
    fn interned_pipeline_is_output_identical(
        seed in 0u64..(1u64 << 32),
        salt in 0u64..(1u64 << 32),
        recursion in any::<bool>(),
        allow_negation in any::<bool>(),
    ) {
        let config = ProgramConfig {
            allow_recursion: recursion,
            allow_negation,
            ..ProgramConfig::default()
        };
        let program = ProgramGenerator::new(seed).random_program(salt, &config);
        let mut input = Workloads::new(seed ^ salt).random_flat_instance(2, 4, 5, 2);
        input.declare_relation(rel("R0"), 1);
        input.declare_relation(rel("R1"), 1);

        // A run that finishes within the limits has a finite model, so the
        // reference terminates on it too; a run that hits a limit is skipped.
        if let Ok(one) = Executor::new().with_limits(eval_limits()).run(&program, &input) {
            let reference = reference::evaluate(&program, &input);
            prop_assert_eq!(&reference, &one, "one thread diverged from the reference");
            let four = Executor::new()
                .with_limits(eval_limits())
                .with_threads(4)
                .run(&program, &input)
                .expect("four threads agree on termination");
            prop_assert_eq!(&reference, &four, "four threads diverged from the reference");
        }
    }
}
