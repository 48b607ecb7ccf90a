//! Packing elimination (Section 4.3: Lemmas 4.10, 4.12, 4.13 and Theorem 4.15).
//!
//! The pipeline for a **non-recursive** program is the one of the paper:
//!
//! 1. split the program into strata with a single IDB relation each (possible for
//!    any non-recursive stratified program);
//! 2. per stratum: rewrite calls to earlier, already-rewritten IDB relations into
//!    calls to their packing-structure-specialised versions plus equations;
//! 3. eliminate *impure* variables by solving half-pure equations with associative
//!    unification (Lemma 4.10);
//! 4. split the remaining pure equations and nonequalities along their *packing
//!    structures* into packing-free component (non)equations (Lemma 4.12);
//! 5. drop rules and literals that can never be satisfied on flat instances
//!    (positive EDB predicates with packing, equations with mismatched packing
//!    structures, …), and specialise head predicates by packing structure
//!    (Lemma 4.13).
//!
//! For **recursive** programs the paper defers to the flat–flat theorem of J-Logic;
//! this reproduction provides the doubling and undoubling helper programs used by
//! that construction ([`doubling_program`], [`undoubling_program`]) but reports
//! [`RewriteError::UnsupportedRecursivePacking`] for the full recursive case (see
//! DESIGN.md).

use crate::error::RewriteError;
use seqdl_core::RelName;
use seqdl_syntax::{
    analysis::check_stratification, parse_program, Atom, Equation, FeatureSet, Literal, PathExpr,
    PrecedenceGraph, Predicate, Program, Rule, Stratum, Term, Var, VarKind,
};
use seqdl_unify::{solve_allowing_empty, SolveOptions, Substitution};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

// ---------------------------------------------------------------------------
// Packing structures (Section 4.3.4)
// ---------------------------------------------------------------------------

/// One item of a packing structure: a star (a packing-free component) or a nested
/// packed structure.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum PsItem {
    /// `∗` — a maximal packing-free stretch.
    Star,
    /// `⟨δ⟩` — a packed sub-structure.
    Packed(PackingStructure),
}

/// The packing structure `δ(e)` of a path expression (Section 4.3.4): the shape of
/// its packing, with consecutive packing-free stretches collapsed into single stars.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct PackingStructure {
    items: Vec<PsItem>,
}

impl PackingStructure {
    /// Compute `δ(e)`.
    pub fn of(expr: &PathExpr) -> PackingStructure {
        let mut items = Vec::new();
        let push_star = |items: &mut Vec<PsItem>| {
            if items.last() != Some(&PsItem::Star) {
                items.push(PsItem::Star);
            }
        };
        push_star(&mut items);
        for term in expr.terms() {
            match term {
                Term::Const(_) | Term::Var(_) => push_star(&mut items),
                Term::Packed(inner) => {
                    push_star(&mut items);
                    items.push(PsItem::Packed(PackingStructure::of(inner)));
                    push_star(&mut items);
                }
            }
        }
        PackingStructure { items }
    }

    /// The flat structure `∗` (no packing).
    pub fn flat() -> PackingStructure {
        PackingStructure {
            items: vec![PsItem::Star],
        }
    }

    /// Is this the flat structure `∗`?
    pub fn is_flat(&self) -> bool {
        self.items == vec![PsItem::Star]
    }

    /// The number of stars, i.e. the number of components of any expression with
    /// this structure.
    pub fn star_count(&self) -> usize {
        self.items
            .iter()
            .map(|i| match i {
                PsItem::Star => 1,
                PsItem::Packed(inner) => inner.star_count(),
            })
            .sum()
    }

    /// The components of `expr` (which must have this packing structure): the
    /// packing-free sub-expressions standing at each star, in pre-order.
    pub fn components(expr: &PathExpr) -> Vec<PathExpr> {
        let mut out = Vec::new();
        let mut current = PathExpr::empty();
        for term in expr.terms() {
            match term {
                Term::Packed(inner) => {
                    out.push(std::mem::take(&mut current));
                    out.extend(PackingStructure::components(inner));
                }
                other => current.push(other.clone()),
            }
        }
        out.push(current);
        out
    }

    /// Rebuild an expression with this packing structure from components (inverse of
    /// [`PackingStructure::components`] for expressions of this structure).
    pub fn assemble(&self, components: &[PathExpr]) -> Option<PathExpr> {
        let mut ix = 0usize;
        let result = self.assemble_inner(components, &mut ix)?;
        if ix == components.len() {
            Some(result)
        } else {
            None
        }
    }

    fn assemble_inner(&self, components: &[PathExpr], ix: &mut usize) -> Option<PathExpr> {
        let mut out = PathExpr::empty();
        for item in &self.items {
            match item {
                PsItem::Star => {
                    let c = components.get(*ix)?;
                    *ix += 1;
                    out = out.concat(c);
                }
                PsItem::Packed(inner) => {
                    let nested = inner.assemble_inner(components, ix)?;
                    out.push(Term::Packed(nested));
                }
            }
        }
        Some(out)
    }

    /// A short name usable inside generated relation names.
    pub fn mangled(&self) -> String {
        let mut out = String::new();
        for item in &self.items {
            match item {
                PsItem::Star => out.push('s'),
                PsItem::Packed(inner) => {
                    out.push('p');
                    out.push_str(&inner.mangled());
                    out.push('q');
                }
            }
        }
        out
    }
}

impl fmt::Display for PackingStructure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                f.write_str("·")?;
            }
            match item {
                PsItem::Star => f.write_str("*")?,
                PsItem::Packed(inner) => write!(f, "<{inner}>")?,
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Purity (Section 4.3.3)
// ---------------------------------------------------------------------------

/// The *pure* variables of a rule (Section 4.3.3): variables guaranteed to hold
/// packing-free values on flat instances.  `flat_relations` is the set of relation
/// names known to hold only flat paths (the EDB plus already-rewritten relations);
/// variables of positive predicates over those relations are the *source variables*.
pub fn pure_vars(rule: &Rule, flat_relations: &BTreeSet<RelName>) -> BTreeSet<Var> {
    let mut pure: BTreeSet<Var> = BTreeSet::new();
    for pred in rule.positive_body_predicates() {
        if flat_relations.contains(&pred.relation) {
            pure.extend(pred.vars());
        }
    }
    loop {
        let mut changed = false;
        for eq in rule.positive_body_equations() {
            for (this, other) in [(&eq.lhs, &eq.rhs), (&eq.rhs, &eq.lhs)] {
                if !other.has_packing() && other.vars().iter().all(|v| pure.contains(v)) {
                    for v in this.vars() {
                        changed |= pure.insert(v);
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    pure
}

/// Classification of a positive equation with respect to purity (Example 4.9).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EquationPurity {
    /// All variables on both sides are pure.
    Pure,
    /// One side has only pure variables; the other contains an impure variable.
    HalfPure,
    /// Both sides contain impure variables.
    FullyImpure,
}

/// Classify an equation with respect to a set of pure variables.
pub fn classify_equation(eq: &Equation, pure: &BTreeSet<Var>) -> EquationPurity {
    let lhs_pure = eq.lhs.vars().iter().all(|v| pure.contains(v));
    let rhs_pure = eq.rhs.vars().iter().all(|v| pure.contains(v));
    match (lhs_pure, rhs_pure) {
        (true, true) => EquationPurity::Pure,
        (false, false) => EquationPurity::FullyImpure,
        _ => EquationPurity::HalfPure,
    }
}

/// Eliminate impure variables from a rule (Lemma 4.10): returns a finite set of
/// rules, equivalent to `rule` on flat instances, in which all positive equations
/// are pure.
///
/// # Errors
/// Unification search limits, or the internal recursion cap.
pub fn purify_rule(
    rule: &Rule,
    flat_relations: &BTreeSet<RelName>,
) -> Result<Vec<Rule>, RewriteError> {
    purify_rule_rec(rule, flat_relations, 0)
}

fn purify_rule_rec(
    rule: &Rule,
    flat_relations: &BTreeSet<RelName>,
    depth: usize,
) -> Result<Vec<Rule>, RewriteError> {
    if depth > 64 {
        return Err(RewriteError::IterationLimit {
            rewrite: "impure-variable elimination",
        });
    }
    let pure = pure_vars(rule, flat_relations);
    // Find a half-pure positive equation.
    let half_pure = rule
        .body
        .iter()
        .enumerate()
        .find(|(_, lit)| {
            lit.positive
                && lit
                    .atom
                    .as_equation()
                    .is_some_and(|eq| classify_equation(eq, &pure) == EquationPurity::HalfPure)
        })
        .map(|(i, lit)| (i, lit.atom.as_equation().expect("checked").clone()));

    let Some((eq_ix, eq)) = half_pure else {
        // No half-pure equations left.  For a safe rule this means no impure
        // variables remain in positive equations.
        return Ok(vec![rule.clone()]);
    };

    // Orient: e1 = pure side, e2 = impure side.
    let lhs_pure = eq.lhs.vars().iter().all(|v| pure.contains(v));
    let (e1, e2) = if lhs_pure {
        (eq.lhs.clone(), eq.rhs.clone())
    } else {
        (eq.rhs.clone(), eq.lhs.clone())
    };

    // Replace each variable occurrence u_i in e1 by a fresh variable v_i and record
    // the equations u_i = v_i.
    let mut fresh_pairs: Vec<(Var, Var)> = Vec::new();
    let e1_prime = replace_occurrences_with_fresh(&e1, &mut fresh_pairs);

    // r'' = rule with the half-pure equation replaced by the u_i = v_i equations.
    let mut body: Vec<Literal> = rule
        .body
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != eq_ix)
        .map(|(_, l)| l.clone())
        .collect();
    for (u, v) in &fresh_pairs {
        body.push(Literal::eq(PathExpr::var(*u), PathExpr::var(*v)));
    }
    let r_double_prime = Rule::new(rule.head.clone(), body);

    // Solve e1' = e2 (one-sided nonlinear by construction), allowing empty words.
    let unify_eq = Equation::new(e1_prime, e2);
    let solutions = solve_allowing_empty(&unify_eq, &SolveOptions::default())?;

    // Variables pure in r'' (used for the validity check).
    let pure_in_rpp = pure_vars(&r_double_prime, flat_relations);

    let mut out = Vec::new();
    for rho in solutions {
        if !is_valid_substitution(&rho, &pure_in_rpp) {
            continue;
        }
        let new_rule = apply_substitution_to_rule(&r_double_prime, &rho);
        out.extend(purify_rule_rec(&new_rule, flat_relations, depth + 1)?);
    }
    Ok(out)
}

fn replace_occurrences_with_fresh(expr: &PathExpr, pairs: &mut Vec<(Var, Var)>) -> PathExpr {
    let terms = expr
        .terms()
        .iter()
        .map(|t| match t {
            Term::Var(v) => {
                let fresh = match v.kind {
                    VarKind::Atom => Var::fresh_atom("pv_a"),
                    VarKind::Path => Var::fresh_path("pv_p"),
                };
                pairs.push((*v, fresh));
                Term::Var(fresh)
            }
            Term::Packed(inner) => Term::Packed(replace_occurrences_with_fresh(inner, pairs)),
            Term::Const(a) => Term::Const(*a),
        })
        .collect::<Vec<_>>();
    PathExpr::from_terms(terms)
}

/// A substitution is *valid* (proof of Lemma 4.10) if it maps variables that are
/// pure in `r''` only to expressions without packing.
fn is_valid_substitution(rho: &Substitution, pure: &BTreeSet<Var>) -> bool {
    rho.iter()
        .all(|(v, e)| !pure.contains(&v) || !e.has_packing())
}

fn apply_substitution_to_rule(rule: &Rule, rho: &Substitution) -> Rule {
    rule.substitute(rho.as_map())
}

// ---------------------------------------------------------------------------
// Single-IDB strata
// ---------------------------------------------------------------------------

/// Re-stratify a non-recursive program so that every stratum defines exactly one IDB
/// relation, in dependency order (used by the proof of Lemma 4.13).
///
/// # Errors
/// [`RewriteError::RequiresNonRecursive`] if the program is recursive.
pub fn split_into_single_idb_strata(program: &Program) -> Result<Program, RewriteError> {
    let condensation = PrecedenceGraph::of_program(program).condensation();
    if condensation.has_recursion() {
        return Err(RewriteError::RequiresNonRecursive {
            rewrite: "single-IDB stratification",
        });
    }
    // Topological order: a relation comes after everything it depends on,
    // level by level (a relation's level is its longest dependency chain),
    // in relation order within a level.
    let mut order: Vec<(usize, RelName)> = condensation
        .components
        .iter()
        .flat_map(|c| c.members.iter().map(move |&r| (c.level, r)))
        .collect();
    order.sort_unstable();
    let mut strata = Vec::new();
    for (_, relation) in order {
        let rules: Vec<Rule> = program
            .rules()
            .filter(|r| r.head.relation == relation)
            .cloned()
            .collect();
        strata.push(Stratum::new(rules));
    }
    let result = Program::new(strata);
    // The topological order respects negation for stratified non-recursive programs.
    check_stratification(&result).map_err(|_| RewriteError::UnsupportedFeature {
        rewrite: "single-IDB stratification",
        feature: "negation of a relation defined later in the dependency order",
    })?;
    Ok(result)
}

// ---------------------------------------------------------------------------
// Packing elimination for non-recursive programs (Lemma 4.13)
// ---------------------------------------------------------------------------

/// Eliminate the **P** feature from a non-recursive program (Lemma 4.13).
///
/// `output` names the query's output relation; it keeps its name and its flat
/// (star-shaped) contents.  The rewritten program may use arity and intermediate
/// predicates (both redundant features).
///
/// # Errors
/// * [`RewriteError::UnsupportedRecursivePacking`] for recursive inputs;
/// * unification search limits during purification.
pub fn eliminate_packing_nonrecursive(
    program: &Program,
    output: RelName,
) -> Result<Program, RewriteError> {
    let features = FeatureSet::of_program(program);
    if features.recursion {
        return Err(RewriteError::UnsupportedRecursivePacking);
    }
    if !features.packing {
        return Ok(program.clone());
    }
    let split = split_into_single_idb_strata(program)?;
    let edb = program.edb_relations();

    // For every rewritten IDB relation, the packing structures it was specialised
    // into and the corresponding fresh relation names.
    let mut specialisations: BTreeMap<RelName, Vec<(PackingStructure, RelName)>> = BTreeMap::new();
    // Relations known to hold only flat paths in the rewritten program.
    let mut flat_relations: BTreeSet<RelName> = edb.clone();

    let mut new_strata: Vec<Stratum> = Vec::new();
    for stratum in &split.strata {
        let mut rules_after_calls: Vec<Rule> = Vec::new();
        for rule in &stratum.rules {
            rules_after_calls.extend(rewrite_positive_calls(rule, &specialisations));
        }

        // Purify (Lemma 4.10), then split equations along packing structures
        // (Lemma 4.12), then drop unsatisfiable literals/rules and rewrite negated
        // calls and heads (Lemma 4.13).
        let mut final_rules: Vec<Rule> = Vec::new();
        for rule in &rules_after_calls {
            for purified in purify_rule(rule, &flat_relations)? {
                for split_rule in split_rule_equations(&purified) {
                    if let Some(cleaned) =
                        clean_rule_for_flat_instances(&split_rule, &edb, &specialisations)
                    {
                        final_rules.push(cleaned);
                    }
                }
            }
        }

        // Specialise heads by packing structure.
        let mut specialised_rules: Vec<Rule> = Vec::new();
        for rule in &final_rules {
            specialised_rules.push(specialise_head(rule, &mut specialisations));
        }
        // Every specialised relation introduced in this stratum holds only
        // packing-free components.
        for specs in specialisations.values() {
            for (_, fresh) in specs {
                flat_relations.insert(*fresh);
            }
        }
        new_strata.push(Stratum::new(specialised_rules));
    }

    // Map the flat specialisation of the output relation back to its original name.
    let mut final_stratum = Vec::new();
    if let Some(specs) = specialisations.get(&output) {
        if let Some((_, flat_rel)) = specs.iter().find(|(ps, _)| ps.is_flat()) {
            let x = Var::fresh_path("out");
            final_stratum.push(Rule::new(
                Predicate::new(output, vec![PathExpr::var(x)]),
                vec![Literal::pred(Predicate::new(
                    *flat_rel,
                    vec![PathExpr::var(x)],
                ))],
            ));
        }
    }
    if !final_stratum.is_empty() {
        new_strata.push(Stratum::new(final_stratum));
    }
    Ok(Program::new(new_strata))
}

/// Rewrite positive calls to already-specialised relations: `P(e)` becomes, for each
/// packing structure `ps` of `P`, a copy of the rule with the call replaced by
/// `P_ps($f1, …, $fm) ∧ e = e'`, where `e'` is `ps` with its stars replaced by the
/// fresh variables (proof of Lemma 4.13).
fn rewrite_positive_calls(
    rule: &Rule,
    specialisations: &BTreeMap<RelName, Vec<(PackingStructure, RelName)>>,
) -> Vec<Rule> {
    // Find the first positive call to a specialised relation.
    let call = rule.body.iter().enumerate().find(|(_, lit)| {
        lit.positive
            && lit
                .atom
                .as_predicate()
                .is_some_and(|p| specialisations.contains_key(&p.relation))
    });
    let Some((ix, lit)) = call else {
        return vec![rule.clone()];
    };
    let pred = lit.atom.as_predicate().expect("checked").clone();
    // Only unary specialised relations exist (heads were unary before rewriting).
    let arg = pred.args.first().cloned().unwrap_or_else(PathExpr::empty);
    let mut out = Vec::new();
    for (ps, fresh_rel) in &specialisations[&pred.relation] {
        let fresh_vars: Vec<Var> = (0..ps.star_count())
            .map(|_| Var::fresh_path("ps"))
            .collect();
        let components: Vec<PathExpr> = fresh_vars.iter().map(|v| PathExpr::var(*v)).collect();
        let e_prime = ps.assemble(&components).expect("component count matches");
        let mut body: Vec<Literal> = rule
            .body
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != ix)
            .map(|(_, l)| l.clone())
            .collect();
        body.push(Literal::pred(Predicate::new(*fresh_rel, components)));
        // When the call's argument is a single path variable we can substitute the
        // packing-structure expression for it directly instead of adding the
        // equation `arg = e'`; this is exactly the (unique) solution associative
        // unification would find, and it keeps the rule count at the paper's size
        // (Example 4.14 reports 28 rules for Example 2.2).
        let new_rule = match arg.terms() {
            [Term::Var(v)] if v.is_path_var() && !e_prime.vars().contains(v) => {
                let map: BTreeMap<Var, PathExpr> = [(*v, e_prime)].into();
                Rule::new(rule.head.clone(), body).substitute(&map)
            }
            _ => {
                body.push(Literal::eq(arg.clone(), e_prime));
                Rule::new(rule.head.clone(), body)
            }
        };
        out.extend(rewrite_positive_calls(&new_rule, specialisations));
    }
    out
}

/// Split pure equations and nonequalities along packing structures (Lemma 4.12).
/// Returns the set of replacement rules (nonequalities are disjunctive, so one rule
/// per component).
fn split_rule_equations(rule: &Rule) -> Vec<Rule> {
    // First handle positive equations (conjunctive split, within one rule).
    let mut body: Vec<Literal> = Vec::new();
    for lit in &rule.body {
        match (&lit.atom, lit.positive) {
            (Atom::Eq(eq), true) if eq.has_packing() => {
                let ps1 = PackingStructure::of(&eq.lhs);
                let ps2 = PackingStructure::of(&eq.rhs);
                if ps1 != ps2 {
                    // Unsatisfiable on flat instances: drop the whole rule.
                    return Vec::new();
                }
                let c1 = PackingStructure::components(&eq.lhs);
                let c2 = PackingStructure::components(&eq.rhs);
                for (a, b) in c1.into_iter().zip(c2) {
                    body.push(Literal::eq(a, b));
                }
            }
            _ => body.push(lit.clone()),
        }
    }
    let rule = Rule::new(rule.head.clone(), body);

    // Then handle negated equations (disjunctive split, one rule per component).
    let neq_ix = rule
        .body
        .iter()
        .position(|lit| !lit.positive && lit.atom.as_equation().is_some_and(Equation::has_packing));
    let Some(ix) = neq_ix else {
        return vec![rule];
    };
    let eq = rule.body[ix].atom.as_equation().expect("checked").clone();
    let ps1 = PackingStructure::of(&eq.lhs);
    let ps2 = PackingStructure::of(&eq.rhs);
    let rest: Vec<Literal> = rule
        .body
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != ix)
        .map(|(_, l)| l.clone())
        .collect();
    if ps1 != ps2 {
        // Different structures: the nonequality is always true on flat instances.
        return split_rule_equations(&Rule::new(rule.head.clone(), rest));
    }
    let c1 = PackingStructure::components(&eq.lhs);
    let c2 = PackingStructure::components(&eq.rhs);
    let mut out = Vec::new();
    for (a, b) in c1.into_iter().zip(c2) {
        let mut body = rest.clone();
        body.push(Literal::neq(a, b));
        out.extend(split_rule_equations(&Rule::new(rule.head.clone(), body)));
    }
    out
}

/// Drop literals and rules that cannot matter on flat instances, and rewrite negated
/// calls to specialised relations (Lemma 4.13).  Returns `None` if the rule can
/// never fire.
fn clean_rule_for_flat_instances(
    rule: &Rule,
    edb: &BTreeSet<RelName>,
    specialisations: &BTreeMap<RelName, Vec<(PackingStructure, RelName)>>,
) -> Option<Rule> {
    let mut body = Vec::new();
    for lit in &rule.body {
        match &lit.atom {
            Atom::Pred(p) if p.has_packing() => {
                if edb.contains(&p.relation) || !specialisations.contains_key(&p.relation) {
                    if lit.positive {
                        // A positive flat predicate can never hold a packed path.
                        return None;
                    } else {
                        // The negated literal is vacuously true: drop it.
                        continue;
                    }
                } else {
                    // A negated call to a rewritten relation: specialise it.
                    debug_assert!(!lit.positive, "positive calls were rewritten earlier");
                    let arg = p.args.first().cloned().unwrap_or_else(PathExpr::empty);
                    let ps = PackingStructure::of(&arg);
                    match specialisations[&p.relation].iter().find(|(s, _)| *s == ps) {
                        Some((_, fresh_rel)) => {
                            let components = PackingStructure::components(&arg);
                            body.push(Literal {
                                positive: false,
                                atom: Atom::Pred(Predicate::new(*fresh_rel, components)),
                            });
                        }
                        None => {
                            // No rule ever derives this structure: the negation is
                            // vacuously true.
                            continue;
                        }
                    }
                }
            }
            Atom::Pred(p)
                if !lit.positive
                    && !p.has_packing()
                    && specialisations.contains_key(&p.relation) =>
            {
                // A packing-free negated call to a rewritten relation: it refers to
                // the flat specialisation if one exists, and is vacuously true
                // otherwise.
                let arg = p.args.first().cloned().unwrap_or_else(PathExpr::empty);
                match specialisations[&p.relation]
                    .iter()
                    .find(|(s, _)| s.is_flat())
                {
                    Some((_, fresh_rel)) => body.push(Literal {
                        positive: false,
                        atom: Atom::Pred(Predicate::new(*fresh_rel, vec![arg])),
                    }),
                    None => continue,
                }
            }
            _ => body.push(lit.clone()),
        }
    }
    Some(Rule::new(rule.head.clone(), body))
}

/// Replace the head `R(e)` by `R_δ(e)(c1, …, cm)` where the `ci` are the components
/// of `e` (Lemma 4.13).  Nullary heads are left untouched.
fn specialise_head(
    rule: &Rule,
    specialisations: &mut BTreeMap<RelName, Vec<(PackingStructure, RelName)>>,
) -> Rule {
    if rule.head.arity() != 1 {
        return rule.clone();
    }
    let relation = rule.head.relation;
    let arg = rule.head.args[0].clone();
    let ps = PackingStructure::of(&arg);
    let specs = specialisations.entry(relation).or_default();
    let fresh_rel = match specs.iter().find(|(s, _)| *s == ps) {
        Some((_, r)) => *r,
        None => {
            let fresh = RelName::fresh(&format!("{}_ps_{}_", relation.name(), ps.mangled()));
            specs.push((ps.clone(), fresh));
            fresh
        }
    };
    let components = PackingStructure::components(&arg);
    Rule::new(Predicate::new(fresh_rel, components), rule.body.clone())
}

// ---------------------------------------------------------------------------
// Doubling and undoubling (Theorem 4.15)
// ---------------------------------------------------------------------------

/// The doubling program of Theorem 4.15: computes in `to` the doubled versions
/// `k1·k1·k2·k2·…·kn·kn` of the paths of the unary relation `from`.
pub fn doubling_program(from: RelName, to: RelName) -> Program {
    let text = format!(
        "Tdbl(eps, $x) <- {from}($x).\n\
         Tdbl($x·@y·@y, $z) <- Tdbl($x, @y·$z).\n\
         {to}($x) <- Tdbl($x, eps).",
        from = from.name(),
        to = to.name(),
    );
    parse_program(&text).expect("doubling program is well-formed")
}

/// The undoubling program of Theorem 4.15: computes in `to` the un-doubled versions
/// of the (doubled) paths of the unary relation `from`.
pub fn undoubling_program(from: RelName, to: RelName) -> Program {
    let text = format!(
        "Tundbl($x, eps) <- {from}($x).\n\
         Tundbl($x, @y·$z) <- Tundbl($x·@y·@y, $z).\n\
         {to}($x) <- Tundbl(eps, $x).",
        from = from.name(),
        to = to.name(),
    );
    parse_program(&text).expect("undoubling program is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdl_core::{path_of, rel, repeat_path, Fact, Instance, Path};
    use seqdl_exec::{run_boolean_query, run_unary_query};
    use seqdl_syntax::{parse_expr, parse_rule};

    // -- packing structures --------------------------------------------------

    #[test]
    fn packing_structure_of_example_4_11() {
        // e = @a·⟨⟨$x·$y⟩·$z⟩·⟨ε⟩ has δ(e) = ∗·⟨∗·⟨∗⟩·∗⟩·∗·⟨∗⟩·∗ and 7 components.
        let e = parse_expr("@a·<<$x·$y>·$z>·<eps>").unwrap();
        let ps = PackingStructure::of(&e);
        assert_eq!(ps.to_string(), "*·<*·<*>·*>·*·<*>·*");
        assert_eq!(ps.star_count(), 7);
        let components = PackingStructure::components(&e);
        assert_eq!(components.len(), 7);
        let rendered: Vec<String> = components.iter().map(|c| c.to_string()).collect();
        assert_eq!(
            rendered,
            vec!["@a", "eps", "$x·$y", "$z", "eps", "eps", "eps"]
        );
        // Reassembling the components gives back the original expression.
        assert_eq!(ps.assemble(&components), Some(e));
    }

    #[test]
    fn packing_structure_of_flat_expressions_is_a_single_star() {
        for src in ["eps", "a", "a·$x·@y·b"] {
            let e = parse_expr(src).unwrap();
            let ps = PackingStructure::of(&e);
            assert!(ps.is_flat(), "{src}");
            assert_eq!(ps.star_count(), 1);
            assert_eq!(PackingStructure::components(&e), vec![e]);
        }
        assert_ne!(
            PackingStructure::of(&parse_expr("<a>").unwrap()),
            PackingStructure::flat()
        );
    }

    #[test]
    fn mangled_names_distinguish_structures() {
        let a = PackingStructure::of(&parse_expr("<a>").unwrap());
        let b = PackingStructure::of(&parse_expr("<a>·<b>").unwrap());
        let c = PackingStructure::of(&parse_expr("<<a>>").unwrap());
        assert_ne!(a.mangled(), b.mangled());
        assert_ne!(a.mangled(), c.mangled());
        assert_ne!(b.mangled(), c.mangled());
    }

    // -- purity ----------------------------------------------------------------

    #[test]
    fn purity_classification_of_example_4_9() {
        let flat: BTreeSet<RelName> = [rel("R")].into();
        // First rule of Example 4.9: all three equations are pure.
        let r1 = parse_rule("S($x) <- R($x, $y), <$x> = <$y>, a·$x = $z, $y = <$u>.").unwrap();
        let pure = pure_vars(&r1, &flat);
        assert!(pure.contains(&Var::path("x")));
        assert!(pure.contains(&Var::path("y")));
        assert!(pure.contains(&Var::path("z")));
        // $u is pure too: the other side of $y = <$u> is $y, which is pure and
        // packing-free (that is exactly why the paper calls this equation pure).
        assert!(pure.contains(&Var::path("u")));
        for eq in r1.positive_body_equations() {
            let class = classify_equation(eq, &pure);
            assert_eq!(class, EquationPurity::Pure, "{eq}");
        }

        // Second rule: both equations are half-pure.
        let r2 = parse_rule("S($x) <- R($x, $y), <$y> = $z, <$x> = <$z>.").unwrap();
        let pure = pure_vars(&r2, &flat);
        assert!(!pure.contains(&Var::path("z")));
        for eq in r2.positive_body_equations() {
            assert_eq!(
                classify_equation(eq, &pure),
                EquationPurity::HalfPure,
                "{eq}"
            );
        }

        // Third rule: ⟨$t⟩ = ⟨$z⟩ is fully impure.
        let r3 = parse_rule("S($x) <- R($x, $y), <$t> = <$z>, $z = <$y>, $t = <$x>.").unwrap();
        let pure = pure_vars(&r3, &flat);
        let fully = r3
            .positive_body_equations()
            .iter()
            .filter(|eq| classify_equation(eq, &pure) == EquationPurity::FullyImpure)
            .count();
        assert_eq!(fully, 1);
    }

    #[test]
    fn purify_rule_eliminates_impure_variables() {
        let flat: BTreeSet<RelName> = [rel("R")].into();
        // $z is impure: bound to <$y> by a half-pure equation; the other equation
        // compares it with <$x>.  After purification the rule should be expressed
        // with pure equations only (and be equivalent to requiring $x = $y).
        let rule = parse_rule("S($x) <- R($x·$y), <$y> = $z, <$x> = <$z>.").unwrap();
        let purified = purify_rule(&rule, &flat).unwrap();
        assert!(!purified.is_empty());
        for r in &purified {
            let pure = pure_vars(r, &flat);
            for eq in r.positive_body_equations() {
                assert_eq!(classify_equation(eq, &pure), EquationPurity::Pure, "{r}");
            }
        }
    }

    // -- single-IDB stratification ----------------------------------------------

    #[test]
    fn split_into_single_idb_strata_orders_by_dependency() {
        let program = seqdl_syntax::parse_program(
            "S($x) <- T($x), U($x).\nT($x) <- R($x).\nU($x) <- T($x·a).",
        )
        .unwrap();
        let split = split_into_single_idb_strata(&program).unwrap();
        assert_eq!(split.stratum_count(), 3);
        // T must come before U and S; U before S.
        let order: Vec<RelName> = split
            .strata
            .iter()
            .map(|s| *s.head_relations().iter().next().unwrap())
            .collect();
        let pos = |r: RelName| order.iter().position(|x| *x == r).unwrap();
        assert!(pos(rel("T")) < pos(rel("U")));
        assert!(pos(rel("U")) < pos(rel("S")));

        let recursive = seqdl_syntax::parse_program("T($x·a) <- T($x).\nT($x) <- R($x).").unwrap();
        assert!(split_into_single_idb_strata(&recursive).is_err());
    }

    // -- packing elimination -------------------------------------------------

    fn three_occurrence_instance(hay: &[&str], needle: &[&str]) -> Instance {
        let mut input = Instance::unary(rel("R"), [path_of(hay)]);
        input
            .insert_fact(Fact::new(rel("S"), vec![path_of(needle)]))
            .unwrap();
        input
    }

    #[test]
    fn example_2_2_packing_elimination_preserves_the_boolean_query() {
        // Example 2.2 / Example 4.14: at least three different occurrences of a
        // string from S as a substring of strings from R.
        let program = seqdl_syntax::parse_program(
            "T($u·<$s>·$v) <- R($u·$s·$v), S($s).\n\
             A <- T($x), T($y), T($z), $x != $y, $x != $z, $y != $z.",
        )
        .unwrap();
        let rewritten = eliminate_packing_nonrecursive(&program, rel("A")).unwrap();
        assert!(
            !FeatureSet::of_program(&rewritten).packing,
            "packing not eliminated:\n{rewritten}"
        );
        // Example 4.14 reports that the rewriting yields a program with 28 rules
        // (1 projection rule for T plus 3×3×3 nonequality combinations for A).
        assert_eq!(rewritten.rule_count(), 28);
        let cases: Vec<(Instance, bool)> = vec![
            (
                three_occurrence_instance(&["a", "b", "x", "a", "b", "y", "a", "b"], &["a", "b"]),
                true,
            ),
            (
                three_occurrence_instance(&["a", "b", "x", "a", "b"], &["a", "b"]),
                false,
            ),
            (
                three_occurrence_instance(&["a", "a", "a", "a"], &["a"]),
                true,
            ),
            (three_occurrence_instance(&["a", "a"], &["a"]), false),
        ];
        for (input, expected) in cases {
            let original = run_boolean_query(&program, &input, rel("A")).unwrap();
            let new = run_boolean_query(&rewritten, &input, rel("A")).unwrap();
            assert_eq!(original, expected);
            assert_eq!(new, expected, "rewritten program diverges on {input}");
        }
    }

    #[test]
    fn unary_packing_query_is_preserved() {
        // S returns the strings whose packed version appears in the intermediate T.
        let program =
            seqdl_syntax::parse_program("T(<$x>·$x) <- R($x).\nS($y) <- T(<$y>·$y), Q($y).")
                .unwrap();
        let rewritten = eliminate_packing_nonrecursive(&program, rel("S")).unwrap();
        assert!(!FeatureSet::of_program(&rewritten).packing, "{rewritten}");
        let mut input = Instance::unary(rel("R"), [path_of(&["a", "b"]), path_of(&["c"])]);
        for q in [path_of(&["a", "b"]), path_of(&["z"])] {
            input.insert_fact(Fact::new(rel("Q"), vec![q])).unwrap();
        }
        assert_eq!(
            run_unary_query(&program, &input, rel("S")).unwrap(),
            run_unary_query(&rewritten, &input, rel("S")).unwrap()
        );
        assert_eq!(
            run_unary_query(&rewritten, &input, rel("S")).unwrap(),
            [path_of(&["a", "b"])].into()
        );
    }

    #[test]
    fn negated_packed_calls_are_specialised() {
        // S holds the R-strings whose packed version is NOT in T.
        let program =
            seqdl_syntax::parse_program("T(<$x>) <- Q($x).\n---\nS($y) <- R($y), !T(<$y>).")
                .unwrap();
        let rewritten = eliminate_packing_nonrecursive(&program, rel("S")).unwrap();
        assert!(!FeatureSet::of_program(&rewritten).packing, "{rewritten}");
        let mut input = Instance::unary(rel("R"), [path_of(&["a"]), path_of(&["b"])]);
        input
            .insert_fact(Fact::new(rel("Q"), vec![path_of(&["a"])]))
            .unwrap();
        let expected: BTreeSet<Path> = [path_of(&["b"])].into();
        assert_eq!(
            run_unary_query(&program, &input, rel("S")).unwrap(),
            expected
        );
        assert_eq!(
            run_unary_query(&rewritten, &input, rel("S")).unwrap(),
            expected
        );
    }

    #[test]
    fn packing_free_programs_pass_through_unchanged() {
        let program = seqdl_syntax::parse_program("S($x) <- R($x), a·$x = $x·a.").unwrap();
        assert_eq!(
            eliminate_packing_nonrecursive(&program, rel("S")).unwrap(),
            program
        );
    }

    #[test]
    fn recursive_packing_is_reported_as_unsupported() {
        let program = seqdl_syntax::parse_program(
            "T(<$x>) <- R($x).\nT(<$x>·$y) <- T($y), R($x).\nS($x) <- T($x).",
        )
        .unwrap();
        assert!(matches!(
            eliminate_packing_nonrecursive(&program, rel("S")),
            Err(RewriteError::UnsupportedRecursivePacking)
        ));
    }

    // -- doubling / undoubling -------------------------------------------------

    #[test]
    fn doubling_and_undoubling_programs_invert_each_other() {
        let doubling = doubling_program(rel("R"), rel("Rd"));
        let undoubling = undoubling_program(rel("Rd"), rel("Rback"));
        let paths = [path_of(&["k1", "k2", "k3"]), path_of(&["a"]), Path::empty()];
        let input = Instance::unary(rel("R"), paths);
        let doubled = seqdl_exec::Executor::new().run(&doubling, &input).unwrap();
        let doubled_paths = doubled.unary_paths(rel("Rd"));
        assert_eq!(
            doubled_paths,
            paths.iter().map(Path::doubled).collect::<BTreeSet<_>>()
        );
        // Feed the doubled relation into the undoubling program.
        let input2 = Instance::unary(rel("Rd"), doubled_paths);
        let undoubled = seqdl_exec::Executor::new()
            .run(&undoubling, &input2)
            .unwrap();
        assert_eq!(
            undoubled.unary_paths(rel("Rback")),
            paths.into_iter().collect::<BTreeSet<_>>()
        );
    }

    #[test]
    fn doubling_program_avoids_negation_as_promised_by_the_proof() {
        let p = doubling_program(rel("R"), rel("Rd"));
        let f = FeatureSet::of_program(&p);
        assert!(!f.negation);
        assert!(f.arity && f.recursion);
        let p = undoubling_program(rel("Sd"), rel("S"));
        assert!(!FeatureSet::of_program(&p).negation);
    }

    #[test]
    fn repeated_a_inputs_work_through_doubling() {
        let doubling = doubling_program(rel("R"), rel("Rd"));
        let input = Instance::unary(rel("R"), [repeat_path("a", 4)]);
        let out = seqdl_exec::Executor::new().run(&doubling, &input).unwrap();
        assert!(out.unary_paths(rel("Rd")).contains(&repeat_path("a", 8)));
    }
}
