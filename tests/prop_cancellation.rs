//! Property test for cancellation safety: cancelling an evaluation at an
//! arbitrary governor checkpoint must never corrupt anything observable.
//!
//! For random wgen programs and instances, a [`CancelToken`] armed with a
//! deterministic countdown cancels the run after `k` checkpoints.  The
//! properties:
//!
//! * the cancelled run returns `EvalError::Cancelled` (or finishes before the
//!   countdown elapses — small runs may hit no checkpoint at all);
//! * its partial statistics are monotone: every counter is bounded by the
//!   uncancelled run's totals (evaluation does strictly less work, never more);
//! * a fresh re-run of the same program on the same input — after the
//!   cancelled attempt — produces exactly the instance of the reference
//!   evaluator (`tests/reference`), proving the cancelled evaluation leaked
//!   no state into later runs.

mod reference;

use proptest::prelude::*;
use sequence_datalog::core::CancelToken;
use sequence_datalog::engine::EvalError;
use sequence_datalog::exec::Executor;
use sequence_datalog::prelude::*;
use sequence_datalog::wgen::{ProgramConfig, ProgramGenerator, Workloads};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cancellation_at_any_checkpoint_is_clean(
        seed in 0u64..(1u64 << 32),
        salt in 0u64..(1u64 << 32),
        countdown in 1u64..48,
        parallel in any::<bool>(),
        allow_recursion in any::<bool>(),
    ) {
        let threads = if parallel { 4 } else { 1 };
        let config = ProgramConfig {
            allow_recursion,
            ..ProgramConfig::default()
        };
        let program = ProgramGenerator::new(seed).random_program(salt, &config);
        let mut input = Workloads::new(seed ^ salt).random_flat_instance(2, 3, 4, 2);
        input.declare_relation(rel("R0"), 1);
        input.declare_relation(rel("R1"), 1);

        // The uncancelled run, whose counters bound the cancelled run's.
        let (_, full_stats) = Executor::new()
            .with_threads(threads)
            .run_with_stats(&program, &input)
            .unwrap_or_else(|e| panic!("uncancelled run failed: {e}\n{program}"));

        // Cancel after `countdown` checkpoints (deterministic test countdown;
        // no wall clock involved).
        let token = CancelToken::new();
        token.cancel_after(countdown);
        let cancelled = Executor::new()
            .with_cancel_token(token)
            .with_threads(threads)
            .run_with_stats(&program, &input);
        match cancelled {
            Err(EvalError::Cancelled { reason, partial_stats }) => {
                prop_assert!(
                    reason.contains("countdown"),
                    "unexpected reason `{}`", reason
                );
                // Partial work is bounded by the uncancelled totals.
                prop_assert!(partial_stats.iterations <= full_stats.iterations);
                prop_assert!(partial_stats.derived_facts <= full_stats.derived_facts);
                prop_assert!(partial_stats.rule_firings <= full_stats.rule_firings);
            }
            Err(e) => panic!("expected Cancelled, got {e}\n{program}"),
            // The whole run fit under the countdown: nothing to check beyond
            // the re-run below.
            Ok(_) => {}
        }

        // A fresh run after the cancelled attempt matches the reference
        // evaluator exactly: cancellation left no partial state behind.
        let rerun = Executor::new()
            .with_threads(threads)
            .run(&program, &input)
            .unwrap_or_else(|e| panic!("re-run failed: {e}\n{program}"));
        let expected = reference::evaluate(&program, &input);
        prop_assert_eq!(&expected, &rerun, "{}", program);
    }
}
