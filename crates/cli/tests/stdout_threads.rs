//! The real binary's stdout is the same at every thread count.  `seqdl run`
//! and `seqdl query` on a `seqdl-wgen` digraph are run as child processes at
//! `--threads 1` and `--threads 4`, and their stdout must be byte-identical.
//! (An in-process report is no oracle here: atoms print in the order the
//! process first interned them, and this test process interns the digraph's
//! atoms in generation order, while a child reads them from the sorted file.)

use std::process::Command;

const REACHABILITY: &str = "T(@x·@y) <- R(@x·@y).\nT(@x·@z) <- T(@x·@y), R(@y·@z).\n";

fn temp_file(name: &str, contents: &str) -> String {
    let mut path = std::env::temp_dir();
    path.push(format!("seqdl-stdout-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("write temp file");
    path.display().to_string()
}

/// The stdout and stderr of a successful `seqdl` run.
fn output_of(args: &[&str]) -> (String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_seqdl"))
        .args(args)
        .output()
        .expect("spawn seqdl");
    let stderr = String::from_utf8(output.stderr).expect("stderr is UTF-8");
    assert!(output.status.success(), "seqdl {args:?} failed: {stderr}");
    (
        String::from_utf8(output.stdout).expect("stdout is UTF-8"),
        stderr,
    )
}

/// Run `args` at one and four threads; both stdouts, and both stderrs, must
/// be identical.  Returns that stdout and stderr.
fn outputs_at_every_thread_count(args: &[&str]) -> (String, String) {
    let one = output_of(&[args, &["--threads", "1"]].concat());
    let four = output_of(&[args, &["--threads", "4"]].concat());
    assert_eq!(one, four, "seqdl {args:?} at 1 and 4 threads");
    one
}

/// Run `args` at one and four threads; both stdouts must be identical.
/// Returns that stdout.
fn same_at_every_thread_count(args: &[&str]) -> String {
    outputs_at_every_thread_count(args).0
}

#[test]
fn run_and_query_stdout_is_identical_at_one_and_four_threads() {
    let graph = seqdl_wgen::Workloads::new(7).digraph_instance(40, 120);
    let program = temp_file("reach.sdl", REACHABILITY);
    let instance = temp_file("graph.sdi", &seqdl_io::write_instance(&graph));

    let run = same_at_every_thread_count(&[
        "run",
        "--program",
        &program,
        "--instance",
        &instance,
        "--output",
        "T",
    ]);
    let rows = run.lines().filter(|l| l.starts_with("  T(")).count();
    assert!(rows > 100, "expected a nontrivial closure, got {rows} rows");
    assert!(run.starts_with(&format!("T: {rows} fact(s)\n")), "{run}");

    let query = same_at_every_thread_count(&[
        "query",
        "--program",
        &program,
        "--instance",
        &instance,
        "--goal",
        "T(a·$y)",
    ]);
    assert!(query.starts_with("T(a·$y): "), "{query}");
}

#[test]
fn a_row_one_job_derives_twice_prints_once() {
    // Both facts ground the same head row in one job; the merge keeps one.
    let program = temp_file("twice.sdl", "T(@x) <- R(@x·@y).\n");
    let instance = temp_file("twice.sdi", "R(a·b).\nR(a·c).\n");
    let (stdout, stderr) = outputs_at_every_thread_count(&[
        "run",
        "--program",
        &program,
        "--instance",
        &instance,
        "--output",
        "T",
    ]);
    assert_eq!(stdout, "T: 1 fact(s)\n  T(a)\n\n");
    // The lint warning on the unused `@y` goes to stderr, not stdout.
    assert!(stderr.starts_with("warning[SD-W201]"), "{stderr}");
}

#[test]
fn query_prints_preflight_warnings_on_stderr() {
    let program = temp_file("warn-query.sdl", "T(@x) <- R(@x·@y).\n");
    let instance = temp_file("warn-query.sdi", "R(a·b).\nR(a·c).\n");
    let (stdout, stderr) = outputs_at_every_thread_count(&[
        "query",
        "--program",
        &program,
        "--instance",
        &instance,
        "--goal",
        "T(a)",
    ]);
    assert!(stdout.starts_with("T(a): "), "{stdout}");
    assert!(!stdout.contains("warning["), "{stdout}");
    assert!(stderr.starts_with("warning[SD-W201]"), "{stderr}");
}

#[test]
fn atoms_print_in_first_interned_order() {
    // Atoms compare by interner index, so a fresh process prints them in
    // the order the input first names them, not by name.
    let program = temp_file("order.sdl", "S($x) <- R($x).\n");
    let instance = temp_file("order.sdi", "R(zeta).\nR(alpha).\nR(mid).\n");
    let stdout = same_at_every_thread_count(&[
        "run",
        "--program",
        &program,
        "--instance",
        &instance,
        "--output",
        "S",
    ]);
    assert_eq!(stdout, "S: 3 fact(s)\n  S(zeta)\n  S(alpha)\n  S(mid)\n\n");
}
