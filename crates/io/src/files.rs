//! File-level helpers: load programs and instances from disk, save instances.

use crate::instance_text::{parse_instance, write_instance, InstanceParseError};
use seqdl_core::Instance;
use seqdl_syntax::{parse_program, Program, SyntaxError};
use std::fmt;
use std::path::Path as FsPath;

/// Errors raised by the file helpers.
#[derive(Debug)]
pub enum IoError {
    /// The file could not be read or written.
    File {
        /// The path involved.
        path: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The file was read but is not a well-formed program.
    Program {
        /// The path involved.
        path: String,
        /// The underlying parse error.
        source: SyntaxError,
    },
    /// The file was read but is not a well-formed instance.
    Instance {
        /// The path involved.
        path: String,
        /// The underlying parse error.
        source: InstanceParseError,
    },
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::File { path, source } => write!(f, "{path}: {source}"),
            IoError::Program { path, source } => write!(f, "{path}: {source}"),
            IoError::Instance { path, source } => write!(f, "{path}: {source}"),
        }
    }
}

impl std::error::Error for IoError {}

/// Load a Sequence Datalog program from a `.sdl` file.
///
/// The text is parsed as written (the lexer skips `%`, `#` and `//`
/// comments), so parse-error offsets are byte offsets into the file.
///
/// # Errors
/// File-system errors and parse errors, each tagged with the path.
pub fn load_program(path: impl AsRef<FsPath>) -> Result<Program, IoError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path).map_err(|source| IoError::File {
        path: path.display().to_string(),
        source,
    })?;
    parse_program(&text).map_err(|source| IoError::Program {
        path: path.display().to_string(),
        source,
    })
}

/// Load a sequence database instance from a `.sdi` file.
///
/// # Errors
/// File-system errors and parse errors, each tagged with the path.
pub fn load_instance(path: impl AsRef<FsPath>) -> Result<Instance, IoError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path).map_err(|source| IoError::File {
        path: path.display().to_string(),
        source,
    })?;
    parse_instance(&text).map_err(|source| IoError::Instance {
        path: path.display().to_string(),
        source,
    })
}

/// Save an instance to a `.sdi` file in the textual format of
/// [`crate::instance_text::write_instance`].
///
/// # Errors
/// File-system errors, tagged with the path.
pub fn save_instance(path: impl AsRef<FsPath>, instance: &Instance) -> Result<(), IoError> {
    let path = path.as_ref();
    std::fs::write(path, write_instance(instance)).map_err(|source| IoError::File {
        path: path.display().to_string(),
        source,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use seqdl_core::{path_of, rel, Fact};

    fn temp_file(name: &str) -> std::path::PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!("seqdl-io-test-{}-{name}", std::process::id()));
        dir
    }

    #[test]
    fn programs_load_from_files_with_comments() {
        let path = temp_file("program.sdl");
        std::fs::write(
            &path,
            "# the only-a's query (Example 3.1)\nS($x) <- R($x), a·$x = $x·a.\n% trailing comment\n",
        )
        .unwrap();
        let program = load_program(&path).unwrap();
        assert_eq!(program.rule_count(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn instances_round_trip_through_files() {
        let path = temp_file("instance.sdi");
        let mut instance = Instance::unary(rel("R"), [path_of(&["a", "b"])]);
        instance.declare_relation(rel("D"), 3);
        instance
            .insert_fact(Fact::new(
                rel("D"),
                vec![path_of(&["q0"]), path_of(&["a"]), path_of(&["q1"])],
            ))
            .unwrap();
        save_instance(&path, &instance).unwrap();
        let back = load_instance(&path).unwrap();
        assert_eq!(back.fact_count(), instance.fact_count());
        assert_eq!(back.unary_paths(rel("R")), instance.unary_paths(rel("R")));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_files_report_the_path() {
        let err = load_program("/nonexistent/prog.sdl").unwrap_err();
        assert!(err.to_string().contains("/nonexistent/prog.sdl"));
        let err = load_instance("/nonexistent/inst.sdi").unwrap_err();
        assert!(err.to_string().contains("/nonexistent/inst.sdi"));
    }

    #[test]
    fn program_parse_errors_are_located_in_the_file_as_written() {
        let path = temp_file("commented-bad.sdl");
        std::fs::write(&path, "% a comment line\nS($x <- R($x).\n").unwrap();
        match load_program(&path) {
            Err(IoError::Program {
                source: SyntaxError::Parse { offset, .. },
                ..
            }) => assert_eq!(offset, 22),
            other => panic!("expected a parse error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_files_report_parse_errors() {
        let path = temp_file("bad.sdl");
        std::fs::write(&path, "S($x <- R($x).").unwrap();
        assert!(matches!(load_program(&path), Err(IoError::Program { .. })));
        std::fs::remove_file(&path).ok();

        let path = temp_file("bad.sdi");
        std::fs::write(&path, "R($x).").unwrap();
        assert!(matches!(
            load_instance(&path),
            Err(IoError::Instance { .. })
        ));
        std::fs::remove_file(&path).ok();
    }
}
