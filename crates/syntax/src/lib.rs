//! # seqdl-syntax — syntax of Sequence Datalog
//!
//! This crate implements Section 2.2 of *Expressiveness within Sequence Datalog*
//! (PODS 2021): path expressions, predicates, equations, literals, rules, strata,
//! and programs — together with a concrete-syntax parser and pretty-printer, and the
//! static analyses the rest of the paper relies on:
//!
//! * **limited variables** and rule **safety** (Section 2.2);
//! * the **dependency graph**, recursion detection, EDB/IDB classification,
//!   semipositivity, and stratification checks (Sections 2.2–2.3);
//! * **feature detection** for the six features A, E, I, N, P, R (Section 3).
//!
//! ## Concrete syntax
//!
//! The parser accepts the paper's notation, ASCII-fied:
//!
//! ```text
//! % Example 3.1: all paths from R consisting exclusively of a's.
//! S($x) <- R($x), a·$x = $x·a.
//! ```
//!
//! * `@x` is an atomic variable, `$x` a path variable;
//! * `·` or an immediately-adjoining `.` is concatenation, `eps` the empty path;
//! * `<e>` is packing;
//! * `<-`, `:-` or `←` separates head from body; literals are comma-separated;
//! * `!`, `~` or `¬` negates an atom, `e1 != e2` is a nonequality;
//! * a rule ends with `.`; strata are separated by a line of dashes `---`;
//! * `%`, `#` or `//` start a comment that runs to the end of the line.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(clippy::unwrap_used)]

pub mod adornment;
pub mod analysis;
pub mod ast;
pub mod error;
pub mod parser;
pub mod term;
pub mod valuation;

pub use adornment::{first_value_expr, guard_exprs, sip_order, Adornment, ColumnBinding, SipStep};
pub use analysis::{Condensation, FeatureSet, PrecedenceGraph, ProgramInfo, SccInfo};
pub use ast::{Atom, Equation, Literal, Predicate, Program, Rule, Stratum};
pub use error::SyntaxError;
pub use parser::{parse_expr, parse_program, parse_rule, FactReader};
pub use term::{PathExpr, Term, Var, VarKind};
pub use valuation::{Binding, Valuation};

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn public_api_smoke_test() {
        let program = parse_program("S($x) <- R($x), a·$x = $x·a.").unwrap();
        assert_eq!(program.rule_count(), 1);
        let features = FeatureSet::of_program(&program);
        assert!(features.equations);
        assert!(!features.recursion);
    }
}
