//! Evaluation of algebra expressions over instances.

use crate::expr::{AlgebraError, AlgebraExpr};
use seqdl_core::{Instance, Path, Tuple, Value};
use seqdl_syntax::{Valuation, Var};
use std::collections::BTreeSet;

/// Evaluate an algebra expression over an instance, producing the set of result
/// tuples.
///
/// # Errors
/// Arity mismatches, out-of-range columns, and column variables that do not refer to
/// columns of the operand.
pub fn eval(expr: &AlgebraExpr, instance: &Instance) -> Result<BTreeSet<Tuple>, AlgebraError> {
    match expr {
        AlgebraExpr::Relation { name, arity } => match instance.relation(*name) {
            None => Ok(BTreeSet::new()),
            Some(rel) => {
                if rel.arity() != *arity && !rel.is_empty() {
                    return Err(AlgebraError::RelationArityMismatch {
                        relation: name.name(),
                        declared: *arity,
                        found: rel.arity(),
                    });
                }
                Ok(rel.iter().map(<[Path]>::to_vec).collect())
            }
        },
        AlgebraExpr::Constant { tuples, .. } => Ok(tuples.iter().cloned().collect()),
        AlgebraExpr::Union(a, b) => {
            expr.arity()?;
            let mut out = eval(a, instance)?;
            out.extend(eval(b, instance)?);
            Ok(out)
        }
        AlgebraExpr::Difference(a, b) => {
            expr.arity()?;
            let left = eval(a, instance)?;
            let right = eval(b, instance)?;
            Ok(left.difference(&right).cloned().collect())
        }
        AlgebraExpr::Product(a, b) => {
            let left = eval(a, instance)?;
            let right = eval(b, instance)?;
            let mut out = BTreeSet::new();
            for l in &left {
                for r in &right {
                    let mut t = l.clone();
                    t.extend(r.iter().cloned());
                    out.insert(t);
                }
            }
            Ok(out)
        }
        AlgebraExpr::Select { input, lhs, rhs } => {
            let arity = input.arity()?;
            let rows = eval(input, instance)?;
            let mut out = BTreeSet::new();
            for t in rows {
                let nu = tuple_valuation(&t);
                let l = apply_columns(lhs, &nu, arity)?;
                let r = apply_columns(rhs, &nu, arity)?;
                if l == r {
                    out.insert(t);
                }
            }
            Ok(out)
        }
        AlgebraExpr::Project { input, exprs } => {
            let arity = input.arity()?;
            let rows = eval(input, instance)?;
            let mut out = BTreeSet::new();
            for t in rows {
                let nu = tuple_valuation(&t);
                let mut projected = Vec::with_capacity(exprs.len());
                for e in exprs {
                    projected.push(apply_columns(e, &nu, arity)?);
                }
                out.insert(projected);
            }
            Ok(out)
        }
        AlgebraExpr::Unpack { input, column } => {
            let arity = input.arity()?;
            if *column == 0 || *column > arity {
                return Err(AlgebraError::ColumnOutOfRange {
                    column: *column,
                    arity,
                });
            }
            let rows = eval(input, instance)?;
            let mut out = BTreeSet::new();
            for t in rows {
                let cell = &t[*column - 1];
                // UNPACK keeps only tuples whose column is a single packed value.
                if cell.len() == 1 {
                    if let Value::Packed(inner) = &cell[0] {
                        let mut nt = t.clone();
                        nt[*column - 1] = *inner;
                        out.insert(nt);
                    }
                }
            }
            Ok(out)
        }
        AlgebraExpr::Substrings { input, column } => {
            let arity = input.arity()?;
            if *column == 0 || *column > arity {
                return Err(AlgebraError::ColumnOutOfRange {
                    column: *column,
                    arity,
                });
            }
            let rows = eval(input, instance)?;
            let mut out = BTreeSet::new();
            for t in rows {
                // `subpaths` streams id-backed slices of the stored path: no
                // per-substring vector is ever materialised.
                for sub in t[*column - 1].subpaths() {
                    let mut nt = t.clone();
                    nt.push(sub);
                    out.insert(nt);
                }
            }
            Ok(out)
        }
    }
}

fn tuple_valuation(tuple: &[Path]) -> Valuation {
    let mut nu = Valuation::new();
    for (i, p) in tuple.iter().enumerate() {
        nu.bind_path(Var::path(&(i + 1).to_string()), *p);
    }
    nu
}

fn apply_columns(
    expr: &seqdl_syntax::PathExpr,
    nu: &Valuation,
    arity: usize,
) -> Result<Path, AlgebraError> {
    nu.apply(expr).ok_or_else(|| {
        let bad = expr
            .vars()
            .into_iter()
            .find(|v| !nu.contains(*v))
            .map(|v| v.to_string())
            .unwrap_or_else(|| format!("<arity {arity}>"));
        AlgebraError::BadColumnVariable { variable: bad }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::col;
    use seqdl_core::{path_of, rel, Fact, Instance};
    use seqdl_syntax::parse_expr;

    fn sample() -> Instance {
        let mut inst = Instance::new();
        for (x, y) in [("a", "b"), ("a", "c"), ("b", "b")] {
            inst.insert_fact(Fact::new(rel("E"), vec![path_of(&[x]), path_of(&[y])]))
                .unwrap();
        }
        inst.insert_fact(Fact::new(rel("R"), vec![path_of(&["a", "b", "a"])]))
            .unwrap();
        inst
    }

    #[test]
    fn relation_constant_union_difference_product() {
        let inst = sample();
        let e = AlgebraExpr::relation(rel("E"), 2);
        assert_eq!(eval(&e, &inst).unwrap().len(), 3);
        // Missing relations evaluate to the empty set.
        assert!(eval(&AlgebraExpr::relation(rel("Zzz"), 2), &inst)
            .unwrap()
            .is_empty());

        let c = AlgebraExpr::constant(2, vec![vec![path_of(&["a"]), path_of(&["b"])]]);
        let union = AlgebraExpr::union(e.clone(), c.clone());
        assert_eq!(eval(&union, &inst).unwrap().len(), 3);
        let diff = AlgebraExpr::difference(e.clone(), c.clone());
        assert_eq!(eval(&diff, &inst).unwrap().len(), 2);
        let prod = AlgebraExpr::product(e.clone(), c);
        assert_eq!(eval(&prod, &inst).unwrap().len(), 3);
        assert_eq!(eval(&prod, &inst).unwrap().iter().next().unwrap().len(), 4);
    }

    #[test]
    fn generalised_selection_with_path_expressions() {
        let inst = sample();
        let e = AlgebraExpr::relation(rel("E"), 2);
        // Classical equality selection σ_{$1=$2}.
        let eq = AlgebraExpr::select(e.clone(), col(1), col(2));
        assert_eq!(eval(&eq, &inst).unwrap().len(), 1);
        // Path-expression selection: tuples where $1·$2 = a·b.
        let cat = AlgebraExpr::select(
            e.clone(),
            parse_expr("$1·$2").unwrap(),
            parse_expr("a·b").unwrap(),
        );
        assert_eq!(eval(&cat, &inst).unwrap().len(), 1);
        // Selecting on a constant: σ_{$1=a}.
        let const_sel = AlgebraExpr::select(e, col(1), parse_expr("a").unwrap());
        assert_eq!(eval(&const_sel, &inst).unwrap().len(), 2);
    }

    #[test]
    fn generalised_projection_builds_new_paths() {
        let inst = sample();
        let e = AlgebraExpr::relation(rel("E"), 2);
        let p = AlgebraExpr::project(e, vec![parse_expr("$2·x·$1").unwrap()]);
        let rows = eval(&p, &inst).unwrap();
        assert!(rows.contains(&vec![path_of(&["b", "x", "a"])]));
        assert_eq!(rows.len(), 3);
        // Projection can duplicate and reorder columns.
        let e = AlgebraExpr::relation(rel("E"), 2);
        let swap = AlgebraExpr::project(e, vec![col(2), col(1), col(1)]);
        let rows = eval(&swap, &inst).unwrap();
        assert!(rows.contains(&vec![path_of(&["b"]), path_of(&["a"]), path_of(&["a"])]));
    }

    #[test]
    fn substrings_operator_enumerates_contiguous_subpaths() {
        let inst = sample();
        let r = AlgebraExpr::relation(rel("R"), 1);
        let sub = AlgebraExpr::substrings(r, 1);
        let rows = eval(&sub, &inst).unwrap();
        // a·b·a has 1 + 3 + 2 + 1 = 7 distinct substrings... but a appears twice as
        // a length-1 substring, so 6 distinct values; plus the original column.
        assert_eq!(rows.len(), 6);
        assert!(rows.contains(&vec![path_of(&["a", "b", "a"]), Path::empty()]));
        assert!(rows.contains(&vec![path_of(&["a", "b", "a"]), path_of(&["b", "a"])]));
    }

    #[test]
    fn unpack_operator_requires_a_packed_singleton() {
        let mut inst = Instance::new();
        inst.insert_fact(Fact::new(
            rel("P"),
            vec![Path::singleton(Value::packed(path_of(&["x", "y"])))],
        ))
        .unwrap();
        inst.insert_fact(Fact::new(rel("P"), vec![path_of(&["plain"])]))
            .unwrap();
        let unpacked = AlgebraExpr::unpack(AlgebraExpr::relation(rel("P"), 1), 1);
        let rows = eval(&unpacked, &inst).unwrap();
        assert_eq!(rows.len(), 1);
        assert!(rows.contains(&vec![path_of(&["x", "y"])]));
    }

    #[test]
    fn errors_are_reported() {
        let inst = sample();
        let bad_select = AlgebraExpr::select(AlgebraExpr::relation(rel("E"), 2), col(3), col(1));
        assert!(matches!(
            eval(&bad_select, &inst),
            Err(AlgebraError::BadColumnVariable { .. })
        ));
        let bad_arity = AlgebraExpr::relation(rel("E"), 1);
        assert!(matches!(
            eval(&bad_arity, &inst),
            Err(AlgebraError::RelationArityMismatch { .. })
        ));
        let bad_union = AlgebraExpr::union(
            AlgebraExpr::relation(rel("E"), 2),
            AlgebraExpr::relation(rel("R"), 1),
        );
        assert!(matches!(
            eval(&bad_union, &inst),
            Err(AlgebraError::ArityMismatch { .. })
        ));
    }

    use seqdl_core::{Path, Value};
}
