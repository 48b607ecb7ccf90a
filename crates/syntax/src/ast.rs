//! Abstract syntax: predicates, equations, literals, rules, strata, programs
//! (Section 2.2).

use crate::error::SyntaxError;
use crate::term::{PathExpr, Var};
use seqdl_core::RelName;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::str::FromStr;

/// A predicate `P(e1, …, en)`: a relation name applied to path expressions.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Predicate {
    /// The relation name `P`.
    pub relation: RelName,
    /// The component path expressions `e1, …, en`.
    pub args: Vec<PathExpr>,
}

impl Predicate {
    /// Build a predicate.
    pub fn new(relation: RelName, args: Vec<PathExpr>) -> Predicate {
        Predicate { relation, args }
    }

    /// A nullary predicate `P`.
    pub fn nullary(relation: RelName) -> Predicate {
        Predicate {
            relation,
            args: Vec::new(),
        }
    }

    /// The predicate's arity.
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// All variables occurring in the predicate, in order of first occurrence.
    pub fn vars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        for a in &self.args {
            for v in a.vars() {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// Does packing occur in any component?
    pub fn has_packing(&self) -> bool {
        self.args.iter().any(PathExpr::has_packing)
    }

    /// Substitute variables by expressions in all components.
    pub fn substitute(&self, map: &BTreeMap<Var, PathExpr>) -> Predicate {
        Predicate {
            relation: self.relation,
            args: self.args.iter().map(|a| a.substitute(map)).collect(),
        }
    }

    /// Rename variables in all components.
    pub fn rename_vars(&self, map: &BTreeMap<Var, Var>) -> Predicate {
        Predicate {
            relation: self.relation,
            args: self.args.iter().map(|a| a.rename_vars(map)).collect(),
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.relation)?;
        if self.args.is_empty() {
            return Ok(());
        }
        f.write_str("(")?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{a}")?;
        }
        f.write_str(")")
    }
}

/// An equation `e1 = e2` between path expressions.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Equation {
    /// Left-hand side.
    pub lhs: PathExpr,
    /// Right-hand side.
    pub rhs: PathExpr,
}

impl Equation {
    /// Build an equation.
    pub fn new(lhs: PathExpr, rhs: PathExpr) -> Equation {
        Equation { lhs, rhs }
    }

    /// All variables occurring in the equation.
    pub fn vars(&self) -> Vec<Var> {
        let mut out = self.lhs.vars();
        for v in self.rhs.vars() {
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }

    /// Does packing occur on either side?
    pub fn has_packing(&self) -> bool {
        self.lhs.has_packing() || self.rhs.has_packing()
    }

    /// Substitute variables by expressions on both sides.
    pub fn substitute(&self, map: &BTreeMap<Var, PathExpr>) -> Equation {
        Equation {
            lhs: self.lhs.substitute(map),
            rhs: self.rhs.substitute(map),
        }
    }
}

impl fmt::Display for Equation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {}", self.lhs, self.rhs)
    }
}

/// An atom: a predicate or an equation (Section 2.2).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Atom {
    /// A predicate atom.
    Pred(Predicate),
    /// An equation atom.
    Eq(Equation),
}

impl Atom {
    /// All variables occurring in the atom.
    pub fn vars(&self) -> Vec<Var> {
        match self {
            Atom::Pred(p) => p.vars(),
            Atom::Eq(e) => e.vars(),
        }
    }

    /// Does packing occur in the atom?
    pub fn has_packing(&self) -> bool {
        match self {
            Atom::Pred(p) => p.has_packing(),
            Atom::Eq(e) => e.has_packing(),
        }
    }

    /// Substitute variables by expressions.
    pub fn substitute(&self, map: &BTreeMap<Var, PathExpr>) -> Atom {
        match self {
            Atom::Pred(p) => Atom::Pred(p.substitute(map)),
            Atom::Eq(e) => Atom::Eq(e.substitute(map)),
        }
    }

    /// The predicate, if this atom is one.
    pub fn as_predicate(&self) -> Option<&Predicate> {
        match self {
            Atom::Pred(p) => Some(p),
            Atom::Eq(_) => None,
        }
    }

    /// The equation, if this atom is one.
    pub fn as_equation(&self) -> Option<&Equation> {
        match self {
            Atom::Eq(e) => Some(e),
            Atom::Pred(_) => None,
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Atom::Pred(p) => fmt::Display::fmt(p, f),
            Atom::Eq(e) => fmt::Display::fmt(e, f),
        }
    }
}

/// A literal: an atom or a negated atom.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Literal {
    /// `true` for a positive literal, `false` for a negated one.
    pub positive: bool,
    /// The underlying atom.
    pub atom: Atom,
}

impl Literal {
    /// A positive predicate literal.
    pub fn pred(p: Predicate) -> Literal {
        Literal {
            positive: true,
            atom: Atom::Pred(p),
        }
    }

    /// A negated predicate literal.
    pub fn not_pred(p: Predicate) -> Literal {
        Literal {
            positive: false,
            atom: Atom::Pred(p),
        }
    }

    /// A positive equation literal.
    pub fn eq(lhs: PathExpr, rhs: PathExpr) -> Literal {
        Literal {
            positive: true,
            atom: Atom::Eq(Equation::new(lhs, rhs)),
        }
    }

    /// A nonequality `e1 ≠ e2` (negated equation).
    pub fn neq(lhs: PathExpr, rhs: PathExpr) -> Literal {
        Literal {
            positive: false,
            atom: Atom::Eq(Equation::new(lhs, rhs)),
        }
    }

    /// Build a positive literal from an atom.
    pub fn positive(atom: Atom) -> Literal {
        Literal {
            positive: true,
            atom,
        }
    }

    /// Build a negative literal from an atom.
    pub fn negative(atom: Atom) -> Literal {
        Literal {
            positive: false,
            atom,
        }
    }

    /// All variables of the literal.
    pub fn vars(&self) -> Vec<Var> {
        self.atom.vars()
    }

    /// Is this a (possibly negated) predicate literal?
    pub fn is_predicate(&self) -> bool {
        matches!(self.atom, Atom::Pred(_))
    }

    /// Is this a (possibly negated) equation literal?
    pub fn is_equation(&self) -> bool {
        matches!(self.atom, Atom::Eq(_))
    }

    /// Substitute variables by expressions.
    pub fn substitute(&self, map: &BTreeMap<Var, PathExpr>) -> Literal {
        Literal {
            positive: self.positive,
            atom: self.atom.substitute(map),
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.positive {
            fmt::Display::fmt(&self.atom, f)
        } else if let Atom::Eq(e) = &self.atom {
            write!(f, "{} != {}", e.lhs, e.rhs)
        } else {
            write!(f, "!{}", self.atom)
        }
    }
}

/// A rule `H ← B`: a head predicate and a body (finite set of literals).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Rule {
    /// The head predicate.
    pub head: Predicate,
    /// The body literals.
    pub body: Vec<Literal>,
}

impl Rule {
    /// Build a rule.
    pub fn new(head: Predicate, body: Vec<Literal>) -> Rule {
        Rule { head, body }
    }

    /// A bodiless rule `H ← .` (a fact-producing rule).
    pub fn fact(head: Predicate) -> Rule {
        Rule {
            head,
            body: Vec::new(),
        }
    }

    /// All variables occurring in the rule, in order of first occurrence.
    pub fn vars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        for v in self.head.vars() {
            if !out.contains(&v) {
                out.push(v);
            }
        }
        for lit in &self.body {
            for v in lit.vars() {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// The positive predicate atoms of the body.
    pub fn positive_body_predicates(&self) -> Vec<&Predicate> {
        self.body
            .iter()
            .filter(|l| l.positive)
            .filter_map(|l| l.atom.as_predicate())
            .collect()
    }

    /// The negated predicate atoms of the body.
    pub fn negative_body_predicates(&self) -> Vec<&Predicate> {
        self.body
            .iter()
            .filter(|l| !l.positive)
            .filter_map(|l| l.atom.as_predicate())
            .collect()
    }

    /// The positive equations of the body.
    pub fn positive_body_equations(&self) -> Vec<&Equation> {
        self.body
            .iter()
            .filter(|l| l.positive)
            .filter_map(|l| l.atom.as_equation())
            .collect()
    }

    /// The negated equations (nonequalities) of the body.
    pub fn negative_body_equations(&self) -> Vec<&Equation> {
        self.body
            .iter()
            .filter(|l| !l.positive)
            .filter_map(|l| l.atom.as_equation())
            .collect()
    }

    /// Relation names occurring in body predicates (positive or negated).
    pub fn body_relations(&self) -> BTreeSet<RelName> {
        self.body
            .iter()
            .filter_map(|l| l.atom.as_predicate())
            .map(|p| p.relation)
            .collect()
    }

    /// Does packing occur anywhere in the rule?
    pub fn has_packing(&self) -> bool {
        self.head.has_packing() || self.body.iter().any(|l| l.atom.has_packing())
    }

    /// Substitute variables by expressions throughout the rule.
    pub fn substitute(&self, map: &BTreeMap<Var, PathExpr>) -> Rule {
        Rule {
            head: self.head.substitute(map),
            body: self.body.iter().map(|l| l.substitute(map)).collect(),
        }
    }

    /// Rename variables throughout the rule.
    pub fn rename_vars(&self, map: &BTreeMap<Var, Var>) -> Rule {
        let subst: BTreeMap<Var, PathExpr> =
            map.iter().map(|(k, v)| (*k, PathExpr::var(*v))).collect();
        self.substitute(&subst)
    }

    /// Rename all variables of the rule with fresh names (used by folding and other
    /// rewrites to avoid capture).
    pub fn freshen_vars(&self, prefix: &str) -> Rule {
        let map: BTreeMap<Var, Var> = self
            .vars()
            .into_iter()
            .map(|v| {
                let fresh = match v.kind {
                    crate::term::VarKind::Atom => Var::fresh_atom(prefix),
                    crate::term::VarKind::Path => Var::fresh_path(prefix),
                };
                (v, fresh)
            })
            .collect();
        self.rename_vars(&map)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.head)?;
        if !self.body.is_empty() {
            f.write_str(" <- ")?;
            for (i, l) in self.body.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{l}")?;
            }
        }
        f.write_str(".")
    }
}

/// A stratum: a finite set of safe rules.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Stratum {
    /// The rules of the stratum.
    pub rules: Vec<Rule>,
}

impl Stratum {
    /// Build a stratum from rules.
    pub fn new(rules: Vec<Rule>) -> Stratum {
        Stratum { rules }
    }

    /// Relation names used in rule heads of this stratum.
    pub fn head_relations(&self) -> BTreeSet<RelName> {
        self.rules.iter().map(|r| r.head.relation).collect()
    }

    /// Relation names negated in bodies of this stratum.
    pub fn negated_relations(&self) -> BTreeSet<RelName> {
        self.rules
            .iter()
            .flat_map(|r| r.negative_body_predicates().into_iter().map(|p| p.relation))
            .collect()
    }
}

impl fmt::Display for Stratum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.rules.iter().enumerate() {
            if i > 0 {
                f.write_str("\n")?;
            }
            write!(f, "{r}")?;
        }
        Ok(())
    }
}

/// A program: a finite sequence of strata, evaluated in order (Section 2.3).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Program {
    /// The strata, in evaluation order.
    pub strata: Vec<Stratum>,
}

impl Program {
    /// Build a program from strata.
    pub fn new(strata: Vec<Stratum>) -> Program {
        Program { strata }
    }

    /// A program consisting of a single stratum.
    pub fn single_stratum(rules: Vec<Rule>) -> Program {
        Program {
            strata: vec![Stratum::new(rules)],
        }
    }

    /// Iterate over all rules, across strata, in order.
    pub fn rules(&self) -> impl Iterator<Item = &Rule> + '_ {
        self.strata.iter().flat_map(|s| s.rules.iter())
    }

    /// Total number of rules.
    pub fn rule_count(&self) -> usize {
        self.strata.iter().map(|s| s.rules.len()).sum()
    }

    /// Number of strata.
    pub fn stratum_count(&self) -> usize {
        self.strata.len()
    }

    /// The IDB relation names: names used in the head of some rule (Section 2.3).
    pub fn idb_relations(&self) -> BTreeSet<RelName> {
        self.rules().map(|r| r.head.relation).collect()
    }

    /// The EDB relation names: names used in bodies but never in a head.
    pub fn edb_relations(&self) -> BTreeSet<RelName> {
        let idb = self.idb_relations();
        self.rules()
            .flat_map(|r| r.body_relations())
            .filter(|r| !idb.contains(r))
            .collect()
    }

    /// All relation names mentioned anywhere in the program.
    pub fn all_relations(&self) -> BTreeSet<RelName> {
        let mut out = self.idb_relations();
        out.extend(self.rules().flat_map(|r| r.body_relations()));
        out
    }

    /// The arity of every relation, checking consistency across all occurrences.
    ///
    /// # Errors
    /// Fails with [`SyntaxError::InconsistentArity`] if a relation name occurs with
    /// two different arities.
    pub fn relation_arities(&self) -> Result<BTreeMap<RelName, usize>, SyntaxError> {
        let mut out: BTreeMap<RelName, usize> = BTreeMap::new();
        let mut observe = |rel: RelName, arity: usize| -> Result<(), SyntaxError> {
            match out.get(&rel) {
                Some(&known) if known != arity => Err(SyntaxError::InconsistentArity {
                    relation: rel.name(),
                    first: known,
                    second: arity,
                }),
                _ => {
                    out.insert(rel, arity);
                    Ok(())
                }
            }
        };
        for rule in self.rules() {
            observe(rule.head.relation, rule.head.arity())?;
            for lit in &rule.body {
                if let Atom::Pred(p) = &lit.atom {
                    observe(p.relation, p.arity())?;
                }
            }
        }
        Ok(out)
    }

    /// Append a stratum at the end of the program.
    pub fn push_stratum(&mut self, stratum: Stratum) {
        self.strata.push(stratum);
    }

    /// Apply a function to every rule, preserving the stratum structure.
    pub fn map_rules(&self, mut f: impl FnMut(&Rule) -> Rule) -> Program {
        Program {
            strata: self
                .strata
                .iter()
                .map(|s| Stratum::new(s.rules.iter().map(&mut f).collect()))
                .collect(),
        }
    }

    /// Apply a function mapping every rule to a set of replacement rules, preserving
    /// the stratum structure.
    pub fn flat_map_rules(&self, mut f: impl FnMut(&Rule) -> Vec<Rule>) -> Program {
        Program {
            strata: self
                .strata
                .iter()
                .map(|s| Stratum::new(s.rules.iter().flat_map(&mut f).collect()))
                .collect(),
        }
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, s) in self.strata.iter().enumerate() {
            if i > 0 {
                f.write_str("\n---\n")?;
            }
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

impl FromStr for Program {
    type Err = SyntaxError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        crate::parser::parse_program(s)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::term::Term;
    use seqdl_core::rel;

    fn only_as_rule() -> Rule {
        // S($x) <- R($x), a·$x = $x·a.
        let x = Var::path("x");
        Rule::new(
            Predicate::new(rel("S"), vec![PathExpr::var(x)]),
            vec![
                Literal::pred(Predicate::new(rel("R"), vec![PathExpr::var(x)])),
                Literal::eq(
                    PathExpr::from_terms([Term::constant("a"), Term::Var(x)]),
                    PathExpr::from_terms([Term::Var(x), Term::constant("a")]),
                ),
            ],
        )
    }

    #[test]
    fn rule_display_matches_concrete_syntax() {
        assert_eq!(only_as_rule().to_string(), "S($x) <- R($x), a·$x = $x·a.");
        let nullary = Rule::new(
            Predicate::nullary(rel("A")),
            vec![Literal::pred(Predicate::new(
                rel("T"),
                vec![PathExpr::var(Var::path("x"))],
            ))],
        );
        assert_eq!(nullary.to_string(), "A <- T($x).");
        let fact = Rule::fact(Predicate::new(rel("T"), vec![PathExpr::constant("a")]));
        assert_eq!(fact.to_string(), "T(a).");
    }

    #[test]
    fn negated_literals_display() {
        let l = Literal::not_pred(Predicate::new(
            rel("B"),
            vec![PathExpr::var(Var::atom("y"))],
        ));
        assert_eq!(l.to_string(), "!B(@y)");
        let ne = Literal::neq(PathExpr::var(Var::atom("a")), PathExpr::var(Var::atom("b")));
        assert_eq!(ne.to_string(), "@a != @b");
    }

    #[test]
    fn rule_accessors_classify_body_literals() {
        let r = only_as_rule();
        assert_eq!(r.positive_body_predicates().len(), 1);
        assert_eq!(r.positive_body_equations().len(), 1);
        assert!(r.negative_body_predicates().is_empty());
        assert!(r.negative_body_equations().is_empty());
        assert_eq!(r.vars(), vec![Var::path("x")]);
        assert_eq!(r.body_relations(), BTreeSet::from([rel("R")]));
        assert!(!r.has_packing());
    }

    #[test]
    fn program_idb_edb_classification() {
        let p = Program::single_stratum(vec![only_as_rule()]);
        assert_eq!(p.idb_relations(), BTreeSet::from([rel("S")]));
        assert_eq!(p.edb_relations(), BTreeSet::from([rel("R")]));
        assert_eq!(p.all_relations(), BTreeSet::from([rel("R"), rel("S")]));
        assert_eq!(p.rule_count(), 1);
        assert_eq!(p.stratum_count(), 1);
    }

    #[test]
    fn relation_arities_detects_inconsistency() {
        let x = Var::path("x");
        let good = Program::single_stratum(vec![only_as_rule()]);
        let arities = good.relation_arities().unwrap();
        assert_eq!(arities[&rel("S")], 1);
        assert_eq!(arities[&rel("R")], 1);

        let bad = Program::single_stratum(vec![
            only_as_rule(),
            Rule::new(
                Predicate::new(rel("S"), vec![PathExpr::var(x), PathExpr::var(x)]),
                vec![Literal::pred(Predicate::new(
                    rel("R"),
                    vec![PathExpr::var(x)],
                ))],
            ),
        ]);
        assert!(bad.relation_arities().is_err());
    }

    #[test]
    fn freshen_vars_renames_consistently() {
        let r = only_as_rule();
        let fresh = r.freshen_vars("f");
        assert_eq!(fresh.vars().len(), 1);
        assert_ne!(fresh.vars()[0], Var::path("x"));
        // Structure is preserved: still one predicate and one equation.
        assert_eq!(fresh.positive_body_predicates().len(), 1);
        assert_eq!(fresh.positive_body_equations().len(), 1);
    }

    #[test]
    fn substitution_distributes_over_rule() {
        let r = only_as_rule();
        let map = BTreeMap::from([(Var::path("x"), PathExpr::constant("a"))]);
        let s = r.substitute(&map);
        assert_eq!(s.to_string(), "S(a) <- R(a), a·a = a·a.");
    }

    #[test]
    fn program_display_separates_strata() {
        let mut p = Program::single_stratum(vec![only_as_rule()]);
        p.push_stratum(Stratum::new(vec![Rule::fact(Predicate::nullary(rel("A")))]));
        let text = p.to_string();
        assert!(text.contains("---"));
        assert_eq!(p.stratum_count(), 2);
    }

    #[test]
    fn map_and_flat_map_rules_preserve_strata() {
        let p = Program::single_stratum(vec![only_as_rule()]);
        let doubled = p.flat_map_rules(|r| vec![r.clone(), r.clone()]);
        assert_eq!(doubled.rule_count(), 2);
        assert_eq!(doubled.stratum_count(), 1);
        let identity = p.map_rules(Clone::clone);
        assert_eq!(identity, p);
    }
}
