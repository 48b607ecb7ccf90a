//! Error type for the core data model.

use crate::interner::RelName;
use std::fmt;

/// Errors raised by the core data model (arity mismatches, schema violations and
/// full relations).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A fact was inserted with a number of components different from the relation's
    /// declared or previously observed arity.
    ArityMismatch {
        /// The relation involved.
        relation: RelName,
        /// The arity the relation already has.
        expected: usize,
        /// The arity of the offending tuple.
        found: usize,
    },
    /// A relation name was used that the schema does not declare.
    UnknownRelation {
        /// The undeclared relation.
        relation: RelName,
    },
    /// A row was inserted into a relation that already holds as many rows as
    /// its `u32` row ids can number.
    TooManyTuples {
        /// The full relation.
        relation: RelName,
        /// The most rows a relation holds.
        limit: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::ArityMismatch {
                relation,
                expected,
                found,
            } => write!(
                f,
                "arity mismatch for relation {relation}: expected {expected}, found {found}"
            ),
            CoreError::UnknownRelation { relation } => {
                write!(f, "relation {relation} is not declared in the schema")
            }
            CoreError::TooManyTuples { relation, limit } => {
                write!(
                    f,
                    "relation {relation} is full: it holds at most {limit} tuples"
                )
            }
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rel;

    #[test]
    fn errors_render_readably() {
        let e = CoreError::ArityMismatch {
            relation: rel("R"),
            expected: 2,
            found: 3,
        };
        assert_eq!(
            e.to_string(),
            "arity mismatch for relation R: expected 2, found 3"
        );
        let e = CoreError::UnknownRelation { relation: rel("Q") };
        assert!(e.to_string().contains("Q"));
        let e = CoreError::TooManyTuples {
            relation: rel("R"),
            limit: 7,
        };
        assert_eq!(
            e.to_string(),
            "relation R is full: it holds at most 7 tuples"
        );
    }
}
