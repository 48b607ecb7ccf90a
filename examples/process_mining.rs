//! Process mining on event logs (one of the application domains motivating the
//! paper): event logs are sets of sequences of activities, and Sequence Datalog
//! expresses trace-level policies directly.
//!
//! The policy checked here is the introduction's example: *every occurrence of
//! `order` is eventually followed by `pay`*.
//!
//! Run with `cargo run --example process_mining`.

use sequence_datalog::prelude::*;
use sequence_datalog::wgen::Workloads;

fn main() {
    // Violations: some occurrence of `order` has no later `pay`.  A trace is
    // compliant if it is in the log and not a violation.  Note the use of path
    // variables to quantify over arbitrary prefixes/suffixes of a trace.
    let program = parse_program(
        "HasPay($s) <- Log($t), $t = $p·order·$s, $s = $u·pay·$v.\n\
         ---\n\
         Viol($t) <- Log($t), $t = $p·order·$s, !HasPay($s).\n\
         ---\n\
         Compliant($t) <- Log($t), !Viol($t).",
    )
    .expect("program parses");
    println!("policy program:\n{program}\n");

    // A synthetic event log plus two hand-written traces with known status.
    let mut log = Workloads::new(2024).event_log(6, 5);
    log.insert_fact(Fact::new(
        rel("Log"),
        vec![path_of(&["start", "order", "ship", "pay", "close"])],
    ))
    .unwrap();
    log.insert_fact(Fact::new(
        rel("Log"),
        vec![path_of(&["start", "order", "ship", "close"])],
    ))
    .unwrap();

    let result = Executor::new()
        .run(&program, &log)
        .expect("evaluation succeeds");
    println!("compliant traces:");
    for t in result.unary_paths(rel("Compliant")) {
        println!("  {t}");
    }
    println!("\nviolating traces:");
    for t in result.unary_paths(rel("Viol")) {
        println!("  {t}");
    }

    let compliant = result.unary_paths(rel("Compliant"));
    assert!(compliant.contains(&path_of(&["start", "order", "ship", "pay", "close"])));
    assert!(!compliant.contains(&path_of(&["start", "order", "ship", "close"])));
    println!("\nhand-written traces classified as expected ✓");
}
