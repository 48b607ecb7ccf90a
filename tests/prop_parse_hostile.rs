//! Hostile-input fuzzing for the three text parsers: `parse_program`,
//! `parse_instance` and `parse_goal` must return `Ok` or `Err` on any input,
//! and never panic.
//!
//! The inputs are the example programs, an instance and a few goals, each
//! mutated by inserting, deleting, replacing and duplicating the characters
//! the grammars give meaning to, plus random byte strings decoded as lossy
//! UTF-8.  Every input goes through all three parsers.  Mutated fact lines of
//! `seqdl-wgen` instances also go through `parse_instance` one line at a
//! time, so that every line reaches its ground-fact reader, and the printed
//! text of random `seqdl-wgen` programs is mutated the same way.

use proptest::prelude::*;
use sequence_datalog::io::parse_instance;
use sequence_datalog::prelude::*;
use sequence_datalog::rewrite::parse_goal;
use sequence_datalog::wgen::{ProgramConfig, ProgramGenerator, Workloads};

const PROGRAMS: &[&str] = &[
    include_str!("../examples/programs/lints_showcase.sdl"),
    include_str!("../examples/programs/nfa_even.sdl"),
    include_str!("../examples/programs/only_as.sdl"),
    include_str!("../examples/programs/order_then_pay.sdl"),
    include_str!("../examples/programs/reachability.sdl"),
    include_str!("../examples/programs/squaring.sdl"),
    include_str!("../examples/programs/stratified_difference.sdl"),
];

const INSTANCE: &str = "% an instance\n\
    @relation R/2.\n\
    @relation E/1.\n\
    R(a·b, <c·<d>>).\n\
    R(eps, 'it\\'s'·x).\n\
    S(a·a·a).\n\
    B.\n";

const GOALS: &[&str] = &["Reach(a·b·$x)?", "T(@x·<$y·a>, eps).", "S?", "Q('a b'·$z)"];

/// What the mutations insert: the characters the lexer treats specially, NUL,
/// the largest Unicode scalar value, a digit run that makes a declared arity
/// huge, and a few multi-character tokens.
const TOKENS: &[&str] = &[
    "·",
    "*",
    "ε",
    "<",
    ">",
    "⟨",
    "⟩",
    "$",
    "@",
    "'",
    "\\",
    "\\'",
    "\0",
    "\u{10FFFF}",
    "(",
    ")",
    ",",
    ".",
    "!",
    "=",
    "<-",
    "---",
    "%",
    "eps",
    "?",
    "/",
    "99999999999999",
    "\n",
];

/// Apply one edit, decoded from the random word `r`, to `text`.
fn mutate(text: &mut Vec<char>, r: u64) {
    let pos = (r >> 2) as usize % (text.len() + 1);
    let token: Vec<char> = TOKENS[(r >> 24) as usize % TOKENS.len()].chars().collect();
    let span = pos..(pos + 1 + (r >> 40) as usize % 8).min(text.len());
    match r % 4 {
        0 => {
            text.splice(pos..pos, token);
        }
        1 => {
            text.drain(span);
        }
        2 => {
            text.splice(pos..(pos + 1).min(text.len()), token);
        }
        _ => {
            let copy: Vec<char> = text[span].to_vec();
            text.splice(pos..pos, copy);
        }
    }
}

fn mutated(source: &str, edits: &[u64]) -> String {
    let mut text: Vec<char> = source.chars().collect();
    for &r in edits {
        mutate(&mut text, r);
    }
    text.into_iter().collect()
}

/// Run every parser on `text`; a panic fails the property, any result passes.
fn parse_all(text: &str) {
    let _ = parse_program(text);
    let _ = parse_instance(text);
    let _ = parse_goal(text);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn mutated_programs_never_panic_the_parsers(
        source in 0usize..PROGRAMS.len(),
        edits in prop::collection::vec(any::<u64>(), 1..24),
    ) {
        parse_all(&mutated(PROGRAMS[source], &edits));
    }

    #[test]
    fn mutated_instances_never_panic_the_parsers(
        edits in prop::collection::vec(any::<u64>(), 1..24),
    ) {
        parse_all(&mutated(INSTANCE, &edits));
    }

    #[test]
    fn mutated_goals_never_panic_the_parsers(
        goal in 0usize..GOALS.len(),
        edits in prop::collection::vec(any::<u64>(), 1..8),
    ) {
        parse_all(&mutated(GOALS[goal], &edits));
    }

    #[test]
    fn mutated_wgen_facts_never_panic_the_instance_parser(
        seed in 0u64..64,
        edits in prop::collection::vec(any::<u64>(), 1..24),
    ) {
        let w = Workloads::new(seed);
        let text = write_instance(&w.digraph_instance(8, 12)) + &write_instance(&w.event_log(4, 6));
        let text = mutated(&text, &edits);
        parse_all(&text);
        for line in text.lines() {
            let _ = parse_instance(line);
        }
    }

    #[test]
    fn mutated_wgen_programs_never_panic_the_parsers(
        seed in 0u64..64,
        salt in any::<u64>(),
        recursive in any::<bool>(),
        edits in prop::collection::vec(any::<u64>(), 1..24),
    ) {
        let config = ProgramConfig { allow_recursion: recursive, ..ProgramConfig::default() };
        let text = ProgramGenerator::new(seed).random_program(salt, &config).to_string();
        prop_assert!(parse_program(&text).is_ok(), "unmutated program fails to parse:\n{}", text);
        parse_all(&mutated(&text, &edits));
    }

    #[test]
    fn random_bytes_never_panic_the_parsers(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        parse_all(&String::from_utf8_lossy(&bytes));
    }
}
