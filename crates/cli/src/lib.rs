//! # seqdl-cli — the `seqdl` command-line tool
//!
//! A small, dependency-free CLI that exposes the workspace's functionality to users
//! who want to work with Sequence Datalog programs as files:
//!
//! ```text
//! seqdl run        --program q.sdl --instance db.sdi [--output S] [--threads N] [--stats]
//! seqdl check      --program q.sdl [--instance db.sdi] [--format json] [--deny warnings]
//! seqdl analyze    --program q.sdl
//! seqdl termination --program q.sdl
//! seqdl rewrite    --program q.sdl --eliminate equations [--output S]
//! seqdl normalize  --program q.sdl
//! seqdl algebra    --program q.sdl --output S
//! seqdl fragment   --program q.sdl --target IR --output S
//! seqdl hasse      [--dot] [--all]
//! seqdl unify      --equation "$x·<@y·$z>·@w = $u·$v·$u" [--allow-empty] [--dot]
//! seqdl regex      --pattern "a (b|c)*" [--contains] [--instance db.sdi] [--input R] [--output Match]
//! seqdl help
//! ```
//!
//! Every command is a pure function from parsed flags to a report string, so the
//! whole surface is unit-testable without spawning processes.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(clippy::unwrap_used)]

pub mod args;
pub mod commands;

pub use args::{parse_flags, ArgError, Flags};
pub use commands::{run_command, CliError};

use std::sync::atomic::AtomicBool;

/// Process-wide interrupt flag: the SIGINT handler sets it (the only
/// async-signal-safe thing it does), and every engine built by the CLI links
/// its [`seqdl_core::CancelToken`] to it — so Ctrl-C makes a running
/// evaluation return [`seqdl_engine::EvalError::Cancelled`] with partial
/// statistics at the next governor checkpoint instead of killing the process.
pub static INTERRUPTED: AtomicBool = AtomicBool::new(false);

/// Install the SIGINT handler that sets [`INTERRUPTED`].  Called once by the
/// `seqdl` binary before dispatching; library users (and the unit tests) can
/// skip it and cancel through their own tokens.
#[cfg(unix)]
pub fn install_sigint_handler() {
    use std::sync::atomic::Ordering;
    extern "C" fn on_sigint(_signum: i32) {
        // Async-signal-safe: a single atomic store, no allocation, no locks.
        INTERRUPTED.store(true, Ordering::Release);
    }
    const SIGINT: i32 = 2;
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    // Registering a handler cannot fail for SIGINT with a valid function
    // pointer; the previous handler (the default) is intentionally discarded.
    unsafe {
        signal(SIGINT, on_sigint);
    }
}

/// No-op on platforms without POSIX signals.
#[cfg(not(unix))]
pub fn install_sigint_handler() {}

/// Entry point used by the `seqdl` binary: dispatch on the subcommand name.
///
/// # Errors
/// Propagates argument, file, parse, and evaluation errors as [`CliError`].
pub fn run_cli(args: &[String]) -> Result<String, CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Ok(commands::help_text());
    };
    let flags = parse_flags(rest).map_err(CliError::Args)?;
    run_command(command, &flags)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn args(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn no_arguments_prints_help() {
        let output = run_cli(&[]).unwrap();
        assert!(output.contains("seqdl run"));
        assert!(output.contains("seqdl hasse"));
    }

    #[test]
    fn unknown_subcommands_are_reported() {
        let err = run_cli(&args(&["frobnicate"])).unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn help_subcommand_works() {
        assert!(run_cli(&args(&["help"])).unwrap().contains("seqdl analyze"));
    }

    #[test]
    fn hasse_runs_without_files() {
        let output = run_cli(&args(&["hasse"])).unwrap();
        assert!(output.contains("11"), "mentions the 11 classes:\n{output}");
        let dot = run_cli(&args(&["hasse", "--dot"])).unwrap();
        assert!(dot.contains("digraph"));
    }

    #[test]
    fn unify_runs_the_figure_2_equation() {
        let output = run_cli(&args(&["unify", "--equation", "$x·<@y·$z>·@w = $u·$v·$u"])).unwrap();
        assert!(output.contains("4 symbolic solution"), "{output}");
    }
}
