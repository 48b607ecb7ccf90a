//! # seqdl-io — loading and storing sequence databases and programs
//!
//! A small, dependency-free text format for sequence database instances, plus
//! helpers for reading programs and instances from files:
//!
//! * An **instance file** (`.sdi`) is a list of ground facts, one per line, in the
//!   same syntax the engine and the paper use: `R(a·b·c).`, `D(q0, a, q1).`,
//!   `Flag().` for nullary facts.  Blank lines and `#`/`%` comments are ignored.
//!   An optional declaration line `@relation R/1.` declares a relation (so that
//!   empty relations survive a round trip).
//! * A **program file** (`.sdl`) is ordinary Sequence Datalog source as accepted by
//!   [`seqdl_syntax::parse_program`], with the same comment conventions.
//!
//! [`write_instance`] and [`parse_instance`] round-trip every instance, including
//! ones with packed values.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(clippy::unwrap_used)]

pub mod files;
pub mod instance_text;

pub use files::{load_instance, load_program, save_instance, IoError};
pub use instance_text::{parse_instance, write_instance, InstanceParseError};

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use seqdl_core::{path_of, rel, Instance};

    #[test]
    fn public_api_smoke_test() {
        let instance = Instance::unary(rel("R"), [path_of(&["a", "b"])]);
        let text = write_instance(&instance);
        let back = parse_instance(&text).unwrap();
        assert_eq!(back.unary_paths(rel("R")), instance.unary_paths(rel("R")));
    }
}
