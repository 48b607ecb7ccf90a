//! The store-growth law: an evaluation stores the paths its result holds and
//! no others.  The paper's instance (§2.1, §2.2) is a set of facts over
//! paths, so every path a run adds to the global store must be one that some
//! relation of the result holds — an intermediate relation counts, a
//! rejected match, a failed check or a built-but-discarded head does not.
//!
//! For random `seqdl-wgen` programs (arity, negation, equations and
//! recursion; the generator packs nothing) over random instances whose atoms
//! are fresh to the case, the store must grow by exactly the number of
//! distinct result paths it did not hold before the run, at one thread and
//! at four.
//!
//! The path store is process-global, so this file is its own test binary,
//! and every test holds [`STORE`] so that no other test interns while one
//! measures.

use proptest::prelude::*;
use sequence_datalog::core::store_stats;
use sequence_datalog::exec::Executor;
use sequence_datalog::prelude::*;
use sequence_datalog::wgen::{ProgramConfig, ProgramGenerator, Workloads};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Serialises the tests of this binary around the process-global store.
static STORE: Mutex<()> = Mutex::new(());

fn hold_store() -> MutexGuard<'static, ()> {
    STORE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Numbers the cases, so each renames its atoms apart from every other.
static CASE: AtomicUsize = AtomicUsize::new(0);

/// `input` with every atom `x` renamed to `x_law{case}`: content no earlier
/// case stored, so the run has new paths to store.
fn fresh_copy(input: &Instance) -> Instance {
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let rename = |value: &Value| match value {
        Value::Atom(a) => Value::atom(&format!("{}_law{case}", a.name())),
        Value::Packed(_) => unreachable!("the instance is flat"),
    };
    let mut out = Instance::new();
    for name in input.relation_names() {
        let relation = input.relation(name).expect("a listed relation");
        out.declare_relation(name, relation.arity());
        for row in relation.iter() {
            let row = row
                .iter()
                .map(|path| Path::from_values(path.iter().map(rename)))
                .collect();
            out.insert_fact(Fact::new(name, row)).expect("same arity");
        }
    }
    out
}

/// Run `program` on `input` and check the law: the store grows by exactly
/// the distinct paths of the result with an id it did not hold before.
fn assert_growth_law(program: &Program, input: &Instance, threads: usize) {
    let held = store_stats().distinct_paths;
    let out = Executor::new()
        .with_threads(threads)
        .run(program, input)
        .unwrap_or_else(|e| panic!("{threads} thread(s) failed: {e}\n{program}"));
    let grown = store_stats().distinct_paths - held;
    let new_paths: BTreeSet<Path> = out
        .facts_ref()
        .flat_map(|(_, row)| row.iter().copied())
        .filter(|path| path.id().index() as usize >= held)
        .collect();
    assert_eq!(
        grown,
        new_paths.len(),
        "at {threads} thread(s) the store grew by {grown} paths, the result holds {} new \
         ones\n{program}",
        new_paths.len()
    );
}

fn case(seed: u64, salt: u64) -> (Program, Instance) {
    let config = ProgramConfig {
        allow_equations: true,
        allow_negation: true,
        allow_arity: true,
        allow_recursion: true,
        ..ProgramConfig::default()
    };
    let program = ProgramGenerator::new(seed).random_program(salt, &config);
    let mut input = Workloads::new(seed ^ salt).random_flat_instance(2, 4, 6, 3);
    input.declare_relation(rel("R0"), 1);
    input.declare_relation(rel("R1"), 1);
    (program, fresh_copy(&input))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn store_grows_by_the_new_result_paths_at_one_thread(
        seed in 0u64..(1u64 << 32),
        salt in 0u64..(1u64 << 32),
    ) {
        let _store = hold_store();
        let (program, input) = case(seed, salt);
        assert_growth_law(&program, &input, 1);
    }

    #[test]
    fn store_grows_by_the_new_result_paths_at_four_threads(
        seed in 0u64..(1u64 << 32),
        salt in 0u64..(1u64 << 32),
    ) {
        let _store = hold_store();
        let (program, input) = case(seed, salt);
        assert_growth_law(&program, &input, 4);
    }
}
