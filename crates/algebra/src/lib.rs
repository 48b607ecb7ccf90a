//! # seqdl-algebra — the sequence relational algebra of Section 7
//!
//! The classical relational algebra (union, difference, cartesian product, equality
//! selection, projection) extended to the sequence data model:
//!
//! * **generalised selection** `σ_{α=β}(R)` where `α`, `β` are path expressions over
//!   the column variables `$1, …, $n`;
//! * **generalised projection** `π_{α1,…,αp}(R)` building new columns from path
//!   expressions;
//! * **unpacking** `UNPACK_i(R)` replacing a packed value `⟨s⟩` in column `i` by `s`
//!   (and dropping tuples whose column `i` is not packed);
//! * **substrings** `SUB_i(R)` appending a column ranging over the substrings of
//!   column `i`.
//!
//! [`eval()`] evaluates algebra expressions over instances; [`algebra_to_datalog`] and
//! [`datalog_to_algebra`] implement the two directions of Theorem 7.1 (equivalence
//! with nonrecursive Sequence Datalog).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod eval;
pub mod expr;
pub mod translate;

pub use eval::eval;
pub use expr::{col, AlgebraError, AlgebraExpr};
pub use translate::{algebra_to_datalog, datalog_to_algebra};

#[cfg(test)]
mod tests {
    use super::*;
    use seqdl_core::{path_of, rel, Instance};

    #[test]
    fn public_api_smoke_test() {
        let input = Instance::unary(rel("R"), [path_of(&["a", "b"])]);
        let expr = AlgebraExpr::relation(rel("R"), 1);
        let out = eval(&expr, &input).unwrap();
        assert_eq!(out.len(), 1);
    }
}
