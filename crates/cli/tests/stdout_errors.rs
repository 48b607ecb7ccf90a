//! A closed or failing stdout ends `seqdl` through its own error path, never
//! through a panic: a reader that went away (`seqdl … | head`) is a quiet
//! success, and any other write error is reported and exits 1.
#![cfg(unix)]

use std::process::{Command, Output, Stdio};

fn seqdl_hasse(stdout: impl Into<Stdio>) -> Output {
    Command::new(env!("CARGO_BIN_EXE_seqdl"))
        .arg("hasse")
        .stdout(stdout)
        .stderr(Stdio::piped())
        .output()
        .expect("run seqdl")
}

#[test]
fn a_closed_pipe_is_a_quiet_success() {
    let (reader, writer) = std::io::pipe().expect("create pipe");
    drop(reader);
    let output = seqdl_hasse(writer);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(output.status.code(), Some(0), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}

#[test]
fn a_full_device_is_reported_and_exits_1() {
    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .expect("open /dev/full");
    let output = seqdl_hasse(full);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with("seqdl: cannot write output: "),
        "{stderr}"
    );
}
