//! Termination in Sequence Datalog: the paper restricts attention to terminating
//! programs (Section 2.3) and cites Bonner and Mecca's termination guarantees.
//! This example runs the conservative termination analysis over the paper's
//! programs, shows the diverging Example 2.3 being refused, and demonstrates the
//! engine's resource limits as the runtime safety net.
//!
//! Run with `cargo run --example termination_lab`.

use sequence_datalog::engine::EvalError;
use sequence_datalog::fragments::witnesses;
use sequence_datalog::prelude::*;

fn main() {
    // 1. Every witness program from the paper is certified by the static analysis.
    println!("static termination analysis of the paper's programs:");
    for witness in witnesses::all_witnesses() {
        let report = analyse_termination(&witness.program);
        println!("  {:<28} {}", witness.name, report.verdict);
        assert!(guaranteed_terminating(&witness.program));
    }

    // 2. Example 2.3 — `T(a).  T(a·$x) <- T($x).` — is refused, with the offending
    //    rule in the report.
    let diverging = parse_program("T(a).\nT(a·$x) <- T($x).").expect("parses");
    let report = analyse_termination(&diverging);
    println!("\nExample 2.3:\n{report}");
    assert!(!guaranteed_terminating(&diverging));

    // 3. At runtime, the engine's limits turn divergence into a clean error.
    let limited = Executor::new().with_limits(EvalLimits {
        max_iterations: 100,
        max_facts: 10_000,
        max_path_len: 128,
        ..EvalLimits::default()
    });
    match limited.run(&diverging, &Instance::new()) {
        Err(EvalError::LimitExceeded { what, limit }) => {
            println!("engine stopped Example 2.3 cleanly: exceeded {limit} ({what:?})");
        }
        other => panic!("expected a limit violation, got {other:?}"),
    }

    // 4. The squaring query of Theorem 5.3 terminates but produces quadratic
    //    output — the analysis certifies it via the rank-decreasing criterion.
    let squaring = witnesses::squaring();
    let report = analyse_termination(&squaring.program);
    println!("\nsquaring query: {report}");
    for n in [2usize, 4, 8] {
        let input = Instance::unary(rel("R"), [repeat_path("a", n)]);
        let longest = run_unary_query(&squaring.program, &input, squaring.output)
            .unwrap()
            .iter()
            .map(Path::len)
            .max()
            .unwrap_or(0);
        println!("  |input| = {n:>2}  ->  longest output path = {longest:>3} (= n²)");
        assert_eq!(longest, n * n);
    }
}
