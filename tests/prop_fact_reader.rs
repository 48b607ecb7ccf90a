//! The ground-fact reader (`seqdl_syntax::FactReader`) against the rule
//! parser it short-cuts.  For every line, either the reader returns the fact
//! that `parse_rule` reads from it, or it declines and `parse_instance`
//! returns what the rule route alone returns: the same fact, or an error with
//! the same line and message.
//!
//! Inputs: the `.sdi` text of `seqdl-wgen` instances, facts over random
//! packed paths written by `Renderer` (so the reader inverts the renderer's
//! quoting), respelled with other concatenation marks, spaces and comments,
//! and hand-written lines at the edges of the grammar.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sequence_datalog::core::Renderer;
use sequence_datalog::prelude::*;
use sequence_datalog::syntax::FactReader;
use sequence_datalog::wgen::Workloads;

/// The fact `parse_instance` read from `line` before it had a reader: the
/// rule parser's reading of a bodiless ground rule, or the loader's message.
fn by_rule(line: &str) -> Result<Fact, String> {
    let rule = parse_rule(line).map_err(|e| e.to_string())?;
    if !rule.body.is_empty() {
        return Err("facts must not have a body".to_string());
    }
    let tuple = rule
        .head
        .args
        .iter()
        .map(|arg| {
            arg.as_path().ok_or_else(|| {
                format!(
                    "component `{arg}` is not ground; instance files may only contain ground facts"
                )
            })
        })
        .collect::<Result<Vec<Path>, String>>()?;
    Ok(Fact::new(rule.head.relation, tuple))
}

/// Check the reader against the rule route on one fact line; returns
/// whether the reader accepted it.
fn check_line(line: &str) -> bool {
    let expected = by_rule(line.trim());
    let read = FactReader::new()
        .read(line.trim())
        .map(|(relation, row)| Fact::new(relation, row.to_vec()));
    if let Some(fact) = &read {
        assert_eq!(
            Ok(fact),
            expected.as_ref(),
            "reader vs rule parser on {line:?}"
        );
    }
    match (parse_instance(line), expected) {
        (Ok(instance), Ok(fact)) => {
            assert_eq!(instance.fact_count(), 1, "{line:?}");
            assert!(instance.contains_fact(&fact), "{line:?}");
        }
        (Err(error), Err(message)) => {
            assert_eq!((error.line, error.message), (1, message), "{line:?}");
        }
        (got, expected) => panic!("{line:?}: parse_instance {got:?}, rule route {expected:?}"),
    }
    read.is_some()
}

/// Check every line of an instance text, and the whole text against an
/// instance built by the rule route; every fact line must be read.
fn check_text(text: &str) {
    let mut oracle = Instance::new();
    for line in text.lines() {
        if let Some(declaration) = line.strip_prefix("@relation ") {
            let (name, arity) = declaration
                .trim_end_matches('.')
                .split_once('/')
                .expect("a declaration");
            oracle.declare_relation(rel(name), arity.parse().expect("an arity"));
        } else {
            assert!(check_line(line), "the reader declined {line:?}");
            oracle
                .insert_fact(by_rule(line).expect("a fact"))
                .expect("arity is consistent");
        }
    }
    assert_eq!(parse_instance(text).expect("the text parses"), oracle);
}

/// Atom names that print bare and names the quoting rule must catch.
const NAMES: [&str; 14] = [
    "a",
    "n11",
    "x_1",
    "eps",
    "epsilon",
    "has space",
    "it's",
    "a\\b",
    "a\\",
    "\\",
    "\\'",
    "a·b",
    "é",
    "",
];

fn random_path(rng: &mut StdRng, depth: usize) -> Path {
    let len = rng.gen_range(0..=3usize);
    let values: Vec<Value> = (0..len)
        .map(|_| {
            if depth > 0 && rng.gen_bool(0.3) {
                Value::packed(random_path(rng, depth - 1))
            } else {
                Value::atom(NAMES[rng.gen_range(0..NAMES.len())])
            }
        })
        .collect();
    Path::from_values(values)
}

/// `line` with each `·` replaced by `*` or `.`, spaces put between
/// characters and a trailing comment added, at random.  The result need not
/// be a fact (a space can split a name, a `.` before a space ends the rule),
/// which checks the reader's refusals too.
fn respelled(line: &str, rng: &mut StdRng) -> String {
    let mut out = String::new();
    for c in line.chars() {
        if rng.gen_bool(0.1) {
            out.push(' ');
        }
        match c {
            '·' => out.push(['·', '*', '.'][rng.gen_range(0..3usize)]),
            c => out.push(c),
        }
    }
    if rng.gen_bool(0.2) {
        out.push_str(" % a comment");
    }
    out
}

proptest! {
    #[test]
    fn wgen_instances_read_like_the_rule_parser(seed in 0u64..1_000) {
        let w = Workloads::new(seed);
        check_text(&write_instance(&w.digraph_instance(60, 120)));
        check_text(&write_instance(&w.event_log(40, 12)));
    }

    #[test]
    fn rendered_facts_read_back_to_the_same_tuple(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut renderer = Renderer::new();
        for _ in 0..16 {
            let arity = rng.gen_range(0..=3usize);
            let tuple: Vec<Path> = (0..arity).map(|_| random_path(&mut rng, 2)).collect();
            let mut line = String::new();
            renderer.write_tuple(&mut line, "Fr", &tuple);
            line.push('.');
            let expected = Fact::new(rel("Fr"), tuple);
            let mut reader = FactReader::new();
            assert_eq!(reader.read(&line), Some((expected.relation, expected.tuple.as_slice())), "{line:?}");
            assert!(check_line(&line));
            check_line(&respelled(&line, &mut rng));
        }
    }
}

#[test]
fn hand_written_lines_read_like_the_rule_parser() {
    // Lines the reader reads itself.
    for line in [
        "R(a·b).",
        "R(a*b).",
        "R(a.b).",
        "R(a.<b>.'c').",
        " R ( a · b , < c > , eps ) . ",
        "R(<>, ⟨a⟩·ε, <eps>, ⟨b>).",
        "R('it\\'s'·'eps'·'a b').",
        "R(a). % trailing comment",
        "R(a).# trailing comment",
        "R(a). // trailing comment",
        "R.",
        "R().",
        "R( ) .",
        "1(2).",
        "R(epsx·xeps).",
    ] {
        assert!(check_line(line), "the reader declined {line:?}");
    }
    // Lines it leaves to the rule parser: well-formed rare spellings, and
    // every error, which must keep its wording.
    for line in [
        "R(a) <- .",
        "R(a) :- .",
        "R(a ∧ b).",
        "R($x).",
        "R(@x).",
        "R(a) <- S(a).",
        "R(<-a>).",
        "R(a·).",
        "R(a,).",
        "R(a b).",
        "R(a.ε).",
        "R(a. b).",
        "R('unterminated).",
        "eps(a).",
        "'R'(a).",
        "R(a)",
        "R(a).b",
        "R(a). R(b).",
        "R(a)./x",
        "R(a). ---",
        "R(a % comment).",
        "R(S(a)).",
        "R(a)\u{a0}.",
        "// only a comment",
    ] {
        assert!(!check_line(line), "the reader accepted {line:?}");
    }
}

#[test]
fn one_reader_over_many_lines_reads_each_relation_name_afresh() {
    // The reader keeps the last relation name; runs of one name, names that
    // extend or cut the last one, and declined lines must not confuse it.
    let mut reader = FactReader::new();
    for line in [
        "R(a).",
        "R(b).",
        "Rx(a).",
        "R(a).",
        "R.",
        "R($x).",
        "S(a).",
        "SS(a, b).",
        "S(b).",
        "eps(a).",
        "S(c).",
        "R(c).",
    ] {
        let read = reader
            .read(line)
            .map(|(relation, row)| Fact::new(relation, row.to_vec()));
        let fresh = FactReader::new()
            .read(line)
            .map(|(relation, row)| Fact::new(relation, row.to_vec()));
        assert_eq!(read, fresh, "{line:?}");
        if let Some(fact) = read {
            assert_eq!(Ok(fact), by_rule(line), "{line:?}");
        }
    }
}
