//! The RAM layer: planned rules compiled to a flat instruction IR and run on
//! one shared non-recursive interpreter.
//!
//! Lowering ([`lower()`], [`lower_stratum`], [`lower_rule`]) turns each
//! [`BodyPlan`](crate::plan::BodyPlan) into a linear [`RuleProc`] — fusing
//! fully-bound probes and equations into filters and the terminal probe into
//! its emit — and arranges each stratum's procedures into per-level merge
//! sections (run once) and fixpoint loops (one per recursive component).
//! Execution ([`fire_proc`]) walks one procedure's instruction sequence with
//! an explicit frame-per-choice-point machine.  The lowered [`Program`] is
//! the schedule too: [`crate::drive`] walks its levels — merge sections once,
//! loops to their fixpoint — and fires every procedure through
//! [`fire_proc`].

pub mod interp;
pub mod ir;
pub mod lower;

pub use interp::fire_proc;
pub use ir::{FilterOp, Inst, LevelProgram, LoopProgram, Program, RuleProc, StratumProgram};
pub use lower::{lower, lower_rule, lower_stratum};
