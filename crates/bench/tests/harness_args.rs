//! The harness accepts `--threads N` and section names only: anything else
//! exits 2 with the list of sections instead of silently printing nothing.

use std::process::{Command, Output};

fn harness(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_harness"))
        .args(args)
        .output()
        .expect("spawn harness")
}

fn assert_rejected(args: &[&str], reason: &str) {
    let output = harness(args);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(output.stdout.is_empty(), "{args:?} printed a section");
    assert!(stderr.contains(reason), "{args:?}: {stderr}");
    assert!(
        stderr.contains("sections: fig1 fig2 fig3"),
        "{args:?}: {stderr}"
    );
}

#[test]
fn unknown_arguments_exit_2_with_the_section_list() {
    assert_rejected(&["bogus"], "unknown argument `bogus`");
    // A misspelt or retired flag is not a section name.
    assert_rejected(&["--mem-stats", "fig1"], "unknown argument `--mem-stats`");
}

#[test]
fn threads_above_the_cap_exit_2() {
    // fig1 builds no executor, so not even an unchecked count starts a thread.
    let too_many = (seqdl_exec::MAX_THREADS + 1).to_string();
    assert_rejected(
        &["--threads", &too_many, "fig1"],
        "--threads must be at most",
    );
}

#[test]
fn a_known_section_runs() {
    let output = harness(&["fig1"]);
    assert_eq!(output.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("11 (paper: 11)"), "{stdout}");
}
