//! A minimal command-line flag parser (no external dependencies).
//!
//! The grammar is the conventional one: the first argument names the subcommand;
//! `--flag value` supplies an option, `--flag` alone a boolean switch, and anything
//! else is a positional argument.  `--flag=value` is also accepted.  A `--flag`
//! named in neither [`VALUE_FLAGS`] nor [`SWITCH_FLAGS`] is an error.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Parsed command-line arguments for one subcommand.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Flags {
    /// Positional arguments, in order.
    pub positional: Vec<String>,
    /// `--name value` options.
    pub options: BTreeMap<String, String>,
    /// `--name` boolean switches.
    pub switches: BTreeSet<String>,
}

/// Errors raised while parsing arguments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

/// The set of flag names that take a value.
pub const VALUE_FLAGS: &[&str] = &[
    "program",
    "instance",
    "output",
    "format",
    "deny",
    "input",
    "target",
    "eliminate",
    "equation",
    "pattern",
    "max-iterations",
    "max-facts",
    "max-path-len",
    "max-store-bytes",
    "timeout",
    "threads",
    "shard-size",
    "goal",
    "state-prefix",
    "save",
    "trace-out",
    "stats-format",
];

/// The set of boolean switches some command reads.
pub const SWITCH_FLAGS: &[&str] = &[
    "all",
    "allow-empty",
    "contains",
    "dot",
    "no-strip-dead",
    "profile",
    "show-ram",
    "show-rewrite",
    "stats",
];

/// An [`ArgError`] for a flag in neither list, suggesting the nearest known
/// flag when one is within two edits.
fn unknown_flag(name: &str) -> ArgError {
    let suggestion = VALUE_FLAGS
        .iter()
        .chain(SWITCH_FLAGS)
        .map(|known| (edit_distance(name, known), known))
        .filter(|(distance, _)| *distance <= 2)
        .min_by_key(|(distance, _)| *distance)
        .map_or_else(
            || "run `seqdl help` for usage".to_string(),
            |(_, known)| format!("did you mean `--{known}`?"),
        );
    ArgError(format!("unknown flag `--{name}`; {suggestion}"))
}

/// Levenshtein edit distance, for did-you-mean suggestions.
pub(crate) fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut prev = row[0];
        row[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            let next = (prev + cost).min(row[j] + 1).min(row[j + 1] + 1);
            prev = row[j + 1];
            row[j + 1] = next;
        }
    }
    row[b.len()]
}

/// Parse the arguments following the subcommand name.
///
/// # Errors
/// Unknown `--flags`, missing values, and duplicate options are reported.
pub fn parse_flags(args: &[String]) -> Result<Flags, ArgError> {
    let mut flags = Flags::default();
    let mut index = 0;
    while index < args.len() {
        let arg = &args[index];
        if let Some(name) = arg.strip_prefix("--") {
            let (name, inline_value) = match name.split_once('=') {
                Some((n, v)) => (n, Some(v.to_string())),
                None => (name, None),
            };
            if VALUE_FLAGS.contains(&name) {
                let value = match inline_value {
                    Some(v) => v,
                    None => {
                        index += 1;
                        args.get(index)
                            .cloned()
                            .ok_or_else(|| ArgError(format!("--{name} expects a value")))?
                    }
                };
                if flags.options.insert(name.to_string(), value).is_some() {
                    return Err(ArgError(format!("--{name} given twice")));
                }
            } else if !SWITCH_FLAGS.contains(&name) {
                return Err(unknown_flag(name));
            } else if inline_value.is_some() {
                return Err(ArgError(format!("--{name} does not take a value")));
            } else {
                flags.switches.insert(name.to_string());
            }
        } else {
            flags.positional.push(arg.clone());
        }
        index += 1;
    }
    Ok(flags)
}

impl Flags {
    /// The value of a required option.
    ///
    /// # Errors
    /// Reports the missing option by name.
    pub fn require(&self, name: &str) -> Result<&str, ArgError> {
        self.options
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| ArgError(format!("missing required option --{name}")))
    }

    /// The value of an optional option.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// Is the boolean switch set?
    pub fn has(&self, name: &str) -> bool {
        self.switches.contains(name)
    }

    /// Parse an optional numeric option.
    ///
    /// # Errors
    /// Reports values that are not numbers.
    pub fn get_usize(&self, name: &str) -> Result<Option<usize>, ArgError> {
        match self.get(name) {
            None => Ok(None),
            Some(value) => value
                .parse()
                .map(Some)
                .map_err(|_| ArgError(format!("--{name} expects a number, got `{value}`"))),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn args(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn options_switches_and_positionals_are_separated() {
        let flags = parse_flags(&args(&[
            "--program",
            "p.sdl",
            "--dot",
            "extra",
            "--output=S",
        ]))
        .unwrap();
        assert_eq!(flags.require("program").unwrap(), "p.sdl");
        assert_eq!(flags.get("output"), Some("S"));
        assert!(flags.has("dot"));
        assert!(!flags.has("stats"));
        assert_eq!(flags.positional, vec!["extra".to_string()]);
    }

    #[test]
    fn missing_values_and_duplicates_are_errors() {
        assert!(parse_flags(&args(&["--program"])).is_err());
        assert!(parse_flags(&args(&["--program", "a", "--program", "b"])).is_err());
        assert!(parse_flags(&args(&["--dot=value"])).is_err());
    }

    #[test]
    fn unknown_flags_are_errors_with_a_suggestion() {
        let err = parse_flags(&args(&["--stast"])).unwrap_err();
        assert!(err.to_string().contains("unknown flag `--stast`"), "{err}");
        assert!(err.to_string().contains("did you mean `--stats`?"), "{err}");
        let err = parse_flags(&args(&["--strategy", "naive"])).unwrap_err();
        assert!(
            err.to_string().contains("unknown flag `--strategy`"),
            "{err}"
        );
    }

    #[test]
    fn numeric_options_are_validated() {
        let flags = parse_flags(&args(&["--max-facts", "100"])).unwrap();
        assert_eq!(flags.get_usize("max-facts").unwrap(), Some(100));
        assert_eq!(flags.get_usize("max-iterations").unwrap(), None);
        let bad = parse_flags(&args(&["--max-facts", "lots"])).unwrap();
        assert!(bad.get_usize("max-facts").is_err());
    }

    #[test]
    fn required_options_report_their_name() {
        let flags = parse_flags(&args(&[])).unwrap();
        let err = flags.require("program").unwrap_err();
        assert!(err.to_string().contains("--program"));
    }
}
