//! The textual instance format: ground facts, one per line.

use seqdl_core::{CoreError, Fact, Instance, RelName, Relation, Renderer};
use seqdl_syntax::{parse_rule, FactReader};
use std::fmt::{self, Write as _};
use std::ops::Range;

/// Errors raised while parsing an instance file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InstanceParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for InstanceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "instance parse error on line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for InstanceParseError {}

/// Render an instance in the textual format: one `@relation` declaration per
/// relation (so empty relations survive the round trip), in [`RelName`] order,
/// followed by one ground fact per line.  The facts are rendered into one
/// buffer and sorted as strings, so their order does not depend on interning.
pub fn write_instance(instance: &Instance) -> String {
    let mut out = String::new();
    let mut facts = String::new();
    let mut ranges: Vec<Range<usize>> = Vec::new();
    let mut renderer = Renderer::new();
    for name in instance.relation_names_iter() {
        let Some(relation) = instance.relation(name) else {
            continue;
        };
        writeln!(out, "@relation {}/{}.", name, relation.arity()).expect("write to string");
        let name = name.name();
        for tuple in relation.iter() {
            let start = facts.len();
            renderer.write_tuple(&mut facts, &name, tuple);
            facts.push('.');
            ranges.push(start..facts.len());
        }
    }
    ranges.sort_unstable_by(|a, b| facts[a.clone()].cmp(&facts[b.clone()]));
    out.reserve(facts.len() + ranges.len());
    for range in ranges {
        out.push_str(&facts[range]);
        out.push('\n');
    }
    out
}

/// Parse the textual instance format produced by [`write_instance`].
///
/// Lines whose first non-whitespace character is `#` or `%` are comments; blank
/// lines are ignored.  `@relation R/2.` declares a relation.  Every other line must
/// be a single ground fact terminated by `.`.
///
/// Each fact line is read by a [`FactReader`], which interns its paths with
/// no tokens or syntax tree, and its row is inserted by slice, so a fact
/// allocates nothing of its own on the way into its relation.  A line the reader declines goes through the
/// rule parser instead, which accepts the rare spellings the reader leaves
/// out (such as `R(a) <- .`) and words every error.  The whole load runs as
/// the one owner of the path and name tables ([`seqdl_core::exclusive`]), so
/// no lookup takes a lock.
///
/// # Errors
/// Reports the first offending line: syntax errors, non-ground facts, facts with a
/// body, or arity clashes, a declaration among them.
pub fn parse_instance(text: &str) -> Result<Instance, InstanceParseError> {
    seqdl_core::exclusive(|| parse_lines(text))
}

fn parse_lines(text: &str) -> Result<Instance, InstanceParseError> {
    let mut instance = Instance::new();
    let mut reader = FactReader::new();
    for (index, raw_line) in text.lines().enumerate() {
        let line_number = index + 1;
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let inserted = if let Some(declaration) = line.strip_prefix("@relation") {
            let (name, arity) =
                parse_declaration(declaration).map_err(|message| InstanceParseError {
                    line: line_number,
                    message,
                })?;
            declare(&mut instance, RelName::new(&name), arity)
        } else {
            match reader.read(line) {
                Some((relation, row)) => instance.insert_row(relation, row).map(drop),
                None => {
                    let fact = parse_fact_line(line).map_err(|message| InstanceParseError {
                        line: line_number,
                        message,
                    })?;
                    instance.insert_fact(fact).map(drop)
                }
            }
        };
        inserted.map_err(|e| InstanceParseError {
            line: line_number,
            message: e.to_string(),
        })?;
    }
    Ok(instance)
}

/// Declare `relation` with `arity`, unless it already has another arity:
/// `declare_relation` would keep it as it is, silently.
fn declare(instance: &mut Instance, relation: RelName, arity: usize) -> Result<(), CoreError> {
    match instance.relation(relation).map(Relation::arity) {
        Some(expected) if expected != arity => Err(CoreError::ArityMismatch {
            relation,
            expected,
            found: arity,
        }),
        _ => {
            instance.declare_relation(relation, arity);
            Ok(())
        }
    }
}

fn parse_declaration(rest: &str) -> Result<(String, usize), String> {
    let rest = rest.trim().trim_end_matches('.');
    let (name, arity) = rest
        .split_once('/')
        .ok_or_else(|| "expected `@relation Name/arity.`".to_string())?;
    let arity: usize = arity
        .trim()
        .parse()
        .map_err(|_| format!("invalid arity `{}`", arity.trim()))?;
    let name = name.trim();
    if name.is_empty() {
        return Err("empty relation name".to_string());
    }
    Ok((name.to_string(), arity))
}

fn parse_fact_line(line: &str) -> Result<Fact, String> {
    let rule = parse_rule(line).map_err(|e| e.to_string())?;
    if !rule.body.is_empty() {
        return Err("facts must not have a body".to_string());
    }
    let mut tuple = Vec::with_capacity(rule.head.args.len());
    for arg in &rule.head.args {
        match arg.as_path() {
            Some(path) => tuple.push(path),
            None => {
                return Err(format!(
                    "component `{arg}` is not ground; instance files may only contain ground facts"
                ))
            }
        }
    }
    Ok(Fact::new(rule.head.relation, tuple))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use seqdl_core::{atom, path_of, rel, Path, Value};

    fn roundtrip(instance: &Instance) -> Instance {
        parse_instance(&write_instance(instance)).expect("round trip parses")
    }

    #[test]
    fn a_huge_declared_arity_parses_and_evaluates() {
        // Relations build their column indexes on the first insert, so an
        // empty relation costs nothing per declared column.
        let instance = parse_instance("@relation R/99999999999999.\nT(a).\n").unwrap();
        assert_eq!(
            instance.relation(rel("R")).map(|r| r.arity()),
            Some(99_999_999_999_999)
        );
        let program = seqdl_syntax::parse_program("S(@x) <- T(@x).").unwrap();
        let out = seqdl_exec::Executor::new()
            .run(&program, &instance)
            .unwrap();
        assert_eq!(
            out.unary_paths(rel("S")),
            std::collections::BTreeSet::from([path_of(&["a"])])
        );
        assert!(out.relation(rel("R")).is_some_and(|r| r.is_empty()));
    }

    #[test]
    fn simple_unary_instances_round_trip() {
        let instance = Instance::unary(
            rel("R"),
            [path_of(&["a", "b", "c"]), path_of(&["a"]), Path::empty()],
        );
        let back = roundtrip(&instance);
        assert_eq!(back.unary_paths(rel("R")), instance.unary_paths(rel("R")));
        assert_eq!(back.fact_count(), 3);
    }

    #[test]
    fn higher_arity_and_nullary_facts_round_trip() {
        let mut instance = Instance::new();
        instance.declare_relation(rel("D"), 3);
        instance.declare_relation(rel("Flag"), 0);
        instance
            .insert_fact(Fact::new(
                rel("D"),
                vec![path_of(&["q0"]), path_of(&["a"]), path_of(&["q1"])],
            ))
            .unwrap();
        instance
            .insert_fact(Fact::new(rel("Flag"), vec![]))
            .unwrap();
        let back = roundtrip(&instance);
        assert!(back.nullary_true(rel("Flag")));
        assert!(back.contains_fact(&Fact::new(
            rel("D"),
            vec![path_of(&["q0"]), path_of(&["a"]), path_of(&["q1"])],
        )));
    }

    #[test]
    fn packed_values_round_trip() {
        let packed =
            Path::from_values([Value::Atom(atom("c")), Value::packed(path_of(&["a", "b"]))]);
        let instance = Instance::unary(rel("R"), [packed]);
        let back = roundtrip(&instance);
        assert!(back.unary_paths(rel("R")).contains(&packed));
    }

    #[test]
    fn odd_atom_names_round_trip_via_quoting() {
        let instance = Instance::unary(
            rel("Log"),
            [path_of(&["receive-payment", "2020", "has space", "eps"])],
        );
        let back = roundtrip(&instance);
        assert_eq!(
            back.unary_paths(rel("Log")),
            instance.unary_paths(rel("Log"))
        );
    }

    #[test]
    fn backslashes_and_quotes_round_trip() {
        let names = ["a\\", "\\", "a\\'b", "a\\\\b"];
        let instance = Instance::unary(rel("Esc"), names.map(|name| path_of(&[name])));
        let text = write_instance(&instance);
        assert!(text.contains("Esc('a\\\\')."), "{text}");
        assert_eq!(roundtrip(&instance), instance, "{text}");
        // `\\` reads as one backslash; a lone backslash stays literal.
        let read = parse_instance("R('a\\\\b').\nR('a\\b').\n").unwrap();
        assert_eq!(read.unary_paths(rel("R")).len(), 1);
        assert!(read.contains_fact(&Fact::new(rel("R"), vec![path_of(&["a\\b"])])));
    }

    #[test]
    fn empty_relations_survive_via_declarations() {
        let mut instance = Instance::new();
        instance.declare_relation(rel("Empty"), 2);
        instance.declare_relation(rel("R"), 1);
        instance
            .insert_fact(Fact::new(rel("R"), vec![path_of(&["a"])]))
            .unwrap();
        let back = roundtrip(&instance);
        assert!(back.relation(rel("Empty")).is_some());
        assert_eq!(back.relation(rel("Empty")).unwrap().arity(), 2);
        assert_eq!(back.relation(rel("Empty")).unwrap().len(), 0);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# a comment\n\n% another comment\nR(a·b).\n   \nR(c).\n";
        let instance = parse_instance(text).unwrap();
        assert_eq!(instance.unary_paths(rel("R")).len(), 2);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_instance("R(a).\nR($x).\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("ground"));

        let err = parse_instance("R(a).\nS(b) <- R(a).\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("body"));

        let err = parse_instance("R(a).\nR(a, b).\n").unwrap_err();
        assert_eq!(err.line, 2, "arity clash is reported on the offending line");

        let err = parse_instance("@relation R.\n").unwrap_err();
        assert_eq!(err.line, 1);

        let err = parse_instance("@relation R/x.\n").unwrap_err();
        assert!(err.message.contains("arity"));

        assert!(parse_instance("not a fact\n").is_err());
    }

    #[test]
    fn a_declaration_after_facts_must_match_their_arity() {
        let err = parse_instance("R(a, b).\n@relation R/1.\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(
            err.message,
            "arity mismatch for relation R: expected 2, found 1"
        );
        let same = parse_instance("R(a, b).\n@relation R/2.\n").unwrap();
        assert_eq!(same.relation(rel("R")).map(|r| r.arity()), Some(2));
    }

    #[test]
    fn a_declaration_must_match_an_earlier_declaration() {
        let err = parse_instance("@relation R/1.\n@relation R/3.\nR(a).\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(
            err.message,
            "arity mismatch for relation R: expected 1, found 3"
        );
        // A repeated identical declaration stays legal, and so does a
        // declaration that facts of its arity follow.
        let repeated = parse_instance("@relation R/1.\n@relation R/1.\nR(a).\n").unwrap();
        assert_eq!(repeated.fact_count(), 1);
        let err = parse_instance("@relation R/1.\nR(a, b).\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(
            err.message,
            "arity mismatch for relation R: expected 1, found 2"
        );
    }

    #[test]
    fn output_is_sorted_and_deterministic() {
        let mut a = Instance::new();
        a.declare_relation(rel("B"), 1);
        a.declare_relation(rel("A"), 1);
        a.insert_fact(Fact::new(rel("B"), vec![path_of(&["z"])]))
            .unwrap();
        a.insert_fact(Fact::new(rel("A"), vec![path_of(&["y"])]))
            .unwrap();
        a.insert_fact(Fact::new(rel("A"), vec![path_of(&["x"])]))
            .unwrap();
        let first = write_instance(&a);
        let second = write_instance(&parse_instance(&first).unwrap());
        assert_eq!(first, second, "writing is idempotent after one round trip");
    }
}
