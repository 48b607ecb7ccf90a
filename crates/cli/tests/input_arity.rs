//! An instance that declares a relation at another arity than the program
//! reads it is rejected by `seqdl run` and `seqdl query`, whichever output or
//! goal is asked for: read as absent, `!R(@x)` would silently hold.  `seqdl
//! check --instance` rejects it with the same message.

use std::process::Command;

const PROGRAM: &str = "S(@x) <- T(@x), !R(@x).\nU(@x) <- R(@x).\nV(@x) <- T(@x).\n";
const INSTANCE: &str = "R(a, b).\nT(a).\n";

fn temp_file(name: &str, contents: &str) -> String {
    let mut path = std::env::temp_dir();
    path.push(format!("seqdl-arity-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("write temp file");
    path.display().to_string()
}

#[test]
fn run_and_query_reject_an_input_relation_at_another_arity() {
    let program = temp_file("p.sdl", PROGRAM);
    let instance = temp_file("db.sdi", INSTANCE);
    let base = ["--program", &program, "--instance", &instance];
    // `V` reads no `R`: strip-dead (for `run`) and the magic rewrite (for
    // `query`) drop every rule that does, and `T` is an input relation the
    // query answers without evaluating; the input is still rejected.
    for tail in [
        ["run", "--output", "S"],
        ["run", "--output", "U"],
        ["run", "--output", "V"],
        ["query", "--goal", "S($y)"],
        ["query", "--goal", "V($y)"],
        ["query", "--goal", "T($y)"],
    ] {
        for threads in ["1", "4"] {
            let output = Command::new(env!("CARGO_BIN_EXE_seqdl"))
                .args(&tail[..1])
                .args(base)
                .args(&tail[1..])
                .args(["--threads", threads])
                .output()
                .expect("spawn seqdl");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(!output.status.success(), "{tail:?}: exit 0");
            assert!(
                output.stdout.is_empty(),
                "{tail:?}: stdout {:?}",
                output.stdout
            );
            assert!(
                stderr.contains("arity mismatch for relation R: expected 1, found 2"),
                "{tail:?}: {stderr}"
            );
        }
    }
}

#[test]
fn check_rejects_an_input_relation_at_another_arity() {
    let program = temp_file("check-p.sdl", PROGRAM);
    let instance = temp_file("check-db.sdi", INSTANCE);
    let check = |tail: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_seqdl"))
            .args(["check", "--program", &program])
            .args(tail)
            .output()
            .expect("spawn seqdl")
    };
    for output in ["S", "U", "V"] {
        assert!(check(&["--output", output]).status.success(), "{output}");
        for format in ["text", "json"] {
            let tail = [
                "--output",
                output,
                "--instance",
                &instance,
                "--format",
                format,
            ];
            let result = check(&tail);
            let stderr = String::from_utf8_lossy(&result.stderr);
            assert!(!result.status.success(), "{tail:?}: exit 0");
            assert!(
                stderr.contains("arity mismatch for relation R: expected 1, found 2"),
                "{tail:?}: {stderr}"
            );
        }
    }
}
