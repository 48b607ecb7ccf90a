//! Static analyses over programs: limited variables and safety (Section 2.2), the
//! precedence graph and its condensation into strongly connected components —
//! the one place recursion (Section 3) is decided — EDB/IDB classification,
//! semipositivity, stratification (Section 2.3), and feature detection (Section 3).

use crate::ast::{Program, Rule};
use crate::error::SyntaxError;
use crate::term::Var;
use seqdl_core::RelName;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Which of the six features a program uses (Section 3).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FeatureSet {
    /// **A** — some predicate has arity greater than one.
    pub arity: bool,
    /// **R** — the dependency graph has a cycle (some strongly connected
    /// component of the [`PrecedenceGraph`] is recursive).
    pub recursion: bool,
    /// **E** — some rule contains an equation.
    pub equations: bool,
    /// **N** — some rule contains a negated atom.
    pub negation: bool,
    /// **P** — a packed path expression `⟨e⟩` occurs in some rule.
    pub packing: bool,
    /// **I** — at least two different IDB relation names are used.
    pub intermediate: bool,
}

impl FeatureSet {
    /// Detect the features used by `program`.
    pub fn of_program(program: &Program) -> FeatureSet {
        let arity = program.rules().any(|r| {
            r.head.arity() > 1
                || r.body
                    .iter()
                    .any(|l| l.atom.as_predicate().is_some_and(|p| p.arity() > 1))
        });
        let equations = program
            .rules()
            .any(|r| r.body.iter().any(|l| l.is_equation()));
        let negation = program.rules().any(|r| r.body.iter().any(|l| !l.positive));
        let packing = program.rules().any(Rule::has_packing);
        let intermediate = program.idb_relations().len() >= 2;
        let recursion = PrecedenceGraph::of_program(program)
            .condensation()
            .has_recursion();
        FeatureSet {
            arity,
            recursion,
            equations,
            negation,
            packing,
            intermediate,
        }
    }

    /// The single-letter names of the used features, in alphabetical order
    /// A, E, I, N, P, R.
    pub fn letters(&self) -> String {
        let mut out = String::new();
        for (flag, letter) in [
            (self.arity, 'A'),
            (self.equations, 'E'),
            (self.intermediate, 'I'),
            (self.negation, 'N'),
            (self.packing, 'P'),
            (self.recursion, 'R'),
        ] {
            if flag {
                out.push(letter);
            }
        }
        out
    }
}

impl fmt::Display for FeatureSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let letters: Vec<String> = self.letters().chars().map(|c| c.to_string()).collect();
        write!(f, "{{{}}}", letters.join(", "))
    }
}

/// The *limited variables* of a rule (Section 2.2): the smallest set such that
///
/// 1. every variable occurring in a positive predicate in the body is limited; and
/// 2. if all variables in one side of a positive equation are limited, then all
///    variables in the other side are limited too.
pub fn limited_vars(rule: &Rule) -> BTreeSet<Var> {
    let mut limited: BTreeSet<Var> = BTreeSet::new();
    for pred in rule.positive_body_predicates() {
        limited.extend(pred.vars());
    }
    loop {
        let mut changed = false;
        for eq in rule.positive_body_equations() {
            let lhs_vars: BTreeSet<Var> = eq.lhs.vars().into_iter().collect();
            let rhs_vars: BTreeSet<Var> = eq.rhs.vars().into_iter().collect();
            if lhs_vars.iter().all(|v| limited.contains(v)) {
                for v in &rhs_vars {
                    changed |= limited.insert(*v);
                }
            }
            if rhs_vars.iter().all(|v| limited.contains(v)) {
                for v in &lhs_vars {
                    changed |= limited.insert(*v);
                }
            }
        }
        if !changed {
            break;
        }
    }
    limited
}

/// Is the rule safe, i.e. are all its variables limited (Section 2.2)?
pub fn is_safe(rule: &Rule) -> bool {
    let limited = limited_vars(rule);
    rule.vars().iter().all(|v| limited.contains(v))
}

/// Check that every rule of the program is safe.
///
/// # Errors
/// Returns [`SyntaxError::UnsafeRule`] naming the first unsafe rule found.
pub fn check_safety(program: &Program) -> Result<(), SyntaxError> {
    for rule in program.rules() {
        let limited = limited_vars(rule);
        let unlimited: Vec<String> = rule
            .vars()
            .into_iter()
            .filter(|v| !limited.contains(v))
            .map(|v| v.to_string())
            .collect();
        if !unlimited.is_empty() {
            return Err(SyntaxError::UnsafeRule {
                rule: rule.to_string(),
                unlimited,
            });
        }
    }
    Ok(())
}

/// Check stratified negation (Section 2.2): when a negated predicate `¬P(…)` occurs
/// in some stratum, no rule in that stratum or a later one may use `P` in its head.
///
/// # Errors
/// Returns [`SyntaxError::NotStratified`] describing the first violation.
pub fn check_stratification(program: &Program) -> Result<(), SyntaxError> {
    for (i, stratum) in program.strata.iter().enumerate() {
        for negated in stratum.negated_relations() {
            for (j, later) in program.strata.iter().enumerate().skip(i) {
                if later.head_relations().contains(&negated) {
                    return Err(SyntaxError::NotStratified {
                        message: format!(
                            "relation {negated} is negated in stratum {i} but defined in stratum {j}"
                        ),
                    });
                }
            }
        }
    }
    Ok(())
}

/// Is the program semipositive, i.e. are negated predicates only applied to EDB
/// relation names (Section 2.3)?  Negated equations do not affect semipositivity.
pub fn is_semipositive(program: &Program) -> bool {
    let idb = program.idb_relations();
    program.rules().all(|r| {
        r.negative_body_predicates()
            .iter()
            .all(|p| !idb.contains(&p.relation))
    })
}

/// The *precedence graph* over the IDB relation names of a set of rules: there is
/// an edge from `R` to `S` ("R precedes S") when `R` occurs in the body of a rule
/// with head `S`, i.e. `S` can only be computed once `R` is, whether that
/// occurrence is positive or negated.
///
/// This is the dependency graph of the paper (footnote 2: an edge from `S` to
/// `R` when `R` occurs in the body of a rule with head `S`) with its edges
/// reversed — the orientation an evaluation *scheduler* wants: condensing the
/// graph into strongly connected components and ordering them topologically
/// yields a plan in which every component is computed after everything it
/// reads, non-recursive components need a single pass, and components at the
/// same level are mutually independent (they can run in parallel).  Whether a
/// program is stratified is decided by [`check_stratification`] over its
/// declared strata.
#[derive(Clone, Debug)]
pub struct PrecedenceGraph {
    /// The nodes (head relation names of the rules), in first-head order.
    nodes: Vec<RelName>,
    /// Relation name → index into `nodes`.
    index: BTreeMap<RelName, usize>,
    /// `succ[i]` holds `j` when node `i` precedes node `j` (i occurs in a body of a
    /// rule with head `j`).
    succ: Vec<BTreeSet<usize>>,
}

impl PrecedenceGraph {
    /// Build the precedence graph of a set of rules.  The nodes are the *head*
    /// relations of the given rules; body occurrences of other relations (the EDB,
    /// or heads of rules outside the set) constrain nothing and produce no edges.
    pub fn of_rules<'a>(rules: impl IntoIterator<Item = &'a Rule>) -> PrecedenceGraph {
        let rules: Vec<&Rule> = rules.into_iter().collect();
        let mut nodes: Vec<RelName> = Vec::new();
        let mut index: BTreeMap<RelName, usize> = BTreeMap::new();
        for rule in &rules {
            let head = rule.head.relation;
            if let std::collections::btree_map::Entry::Vacant(e) = index.entry(head) {
                e.insert(nodes.len());
                nodes.push(head);
            }
        }
        let mut succ: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); nodes.len()];
        for rule in rules {
            let head_ix = index[&rule.head.relation];
            for relation in rule.body_relations() {
                if let Some(&body_ix) = index.get(&relation) {
                    succ[body_ix].insert(head_ix);
                }
            }
        }
        PrecedenceGraph { nodes, index, succ }
    }

    /// Build the precedence graph of a whole program (all strata pooled).
    pub fn of_program(program: &Program) -> PrecedenceGraph {
        PrecedenceGraph::of_rules(program.rules())
    }

    /// The nodes of the graph (head relation names), in first-head order.
    pub fn nodes(&self) -> &[RelName] {
        &self.nodes
    }

    /// Does the graph contain an edge from `from` to `to`?
    pub fn has_edge(&self, from: RelName, to: RelName) -> bool {
        match (self.index.get(&from), self.index.get(&to)) {
            (Some(&f), Some(&t)) => self.succ[f].contains(&t),
            _ => false,
        }
    }

    /// Condense the graph into strongly connected components, topologically
    /// ordered: every component appears after all components it reads from.
    pub fn condensation(&self) -> Condensation {
        let n = self.nodes.len();
        // Iterative Tarjan.  Components are emitted dependents-first (an SCC is
        // completed only after everything reachable from it), so the evaluation
        // order is the reverse of the emission order.
        let mut ix_counter = 0usize;
        let mut ix = vec![usize::MAX; n]; // discovery index per node
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut emitted: Vec<Vec<usize>> = Vec::new();
        // Explicit DFS frames: (node, iterator position into succ list).
        let succ_lists: Vec<Vec<usize>> = self
            .succ
            .iter()
            .map(|s| s.iter().copied().collect())
            .collect();
        for root in 0..n {
            if ix[root] != usize::MAX {
                continue;
            }
            ix[root] = ix_counter;
            low[root] = ix_counter;
            ix_counter += 1;
            stack.push(root);
            on_stack[root] = true;
            let mut frames: Vec<(usize, usize)> = vec![(root, 0)];
            while let Some(&(v, child_pos)) = frames.last() {
                if let Some(&w) = succ_lists[v].get(child_pos) {
                    frames.last_mut().expect("frame exists").1 += 1;
                    if ix[w] == usize::MAX {
                        ix[w] = ix_counter;
                        low[w] = ix_counter;
                        ix_counter += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        frames.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(ix[w]);
                    }
                } else {
                    frames.pop();
                    if low[v] == ix[v] {
                        let mut component = Vec::new();
                        loop {
                            let w = stack.pop().expect("Tarjan stack underflow");
                            on_stack[w] = false;
                            component.push(w);
                            if w == v {
                                break;
                            }
                        }
                        emitted.push(component);
                    }
                    if let Some(&(parent, _)) = frames.last() {
                        low[parent] = low[parent].min(low[v]);
                    }
                }
            }
        }
        emitted.reverse(); // dependencies now come first

        // Membership map: node → component index (in evaluation order).
        let mut component_of = vec![0usize; n];
        for (c, members) in emitted.iter().enumerate() {
            for &v in members {
                component_of[v] = c;
            }
        }
        // A component is recursive when it has more than one member or a self-loop.
        // Levels: the longest chain of inter-component dependencies below each
        // component; components sharing a level are mutually independent.
        let mut components: Vec<SccInfo> = Vec::with_capacity(emitted.len());
        for (c, members) in emitted.iter().enumerate() {
            let recursive = members.len() > 1 || members.iter().any(|&v| self.succ[v].contains(&v));
            let mut level = 0usize;
            for &v in members {
                // Incoming edges: scan predecessors via succ of every earlier node.
                // (Cheap enough: graphs are IDB-sized, not data-sized.)
                for (u, succs) in self.succ.iter().enumerate() {
                    if succs.contains(&v) && component_of[u] != c {
                        level = level.max(components[component_of[u]].level + 1);
                    }
                }
            }
            components.push(SccInfo {
                members: members.iter().map(|&v| self.nodes[v]).collect(),
                recursive,
                level,
            });
        }
        Condensation { components }
    }
}

/// One strongly connected component of a [`PrecedenceGraph`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SccInfo {
    /// The relation names in the component.
    pub members: BTreeSet<RelName>,
    /// Does evaluating the component need a fixpoint?  True when the component has
    /// more than one member or a self-loop; false means a single pass suffices.
    pub recursive: bool,
    /// Length of the longest chain of inter-component dependencies below this
    /// component.  Components with equal levels never read from one another, so
    /// they can be evaluated in parallel.
    pub level: usize,
}

/// The condensation of a [`PrecedenceGraph`]: its strongly connected components in
/// topological (evaluation) order.
#[derive(Clone, Debug)]
pub struct Condensation {
    /// The components; every component appears after all components it reads from.
    pub components: Vec<SccInfo>,
}

impl Condensation {
    /// The component index of `relation`, if it heads any rule.
    pub fn component_of(&self, relation: RelName) -> Option<usize> {
        self.components
            .iter()
            .position(|c| c.members.contains(&relation))
    }

    /// Does some component need a fixpoint — does the graph have a cycle,
    /// self-loops included?  This is the paper's **R** feature.
    pub fn has_recursion(&self) -> bool {
        self.components.iter().any(|c| c.recursive)
    }

    /// Number of levels (1 + the maximum component level; 0 when empty).
    pub fn level_count(&self) -> usize {
        self.components
            .iter()
            .map(|c| c.level + 1)
            .max()
            .unwrap_or(0)
    }
}

/// The facts about a well-formed program that evaluation needs.
#[derive(Clone, Debug)]
pub struct ProgramInfo {
    /// The IDB relation names.
    pub idb: BTreeSet<RelName>,
    /// Arity of every relation name (consistent across the program).
    pub arities: BTreeMap<RelName, usize>,
}

impl ProgramInfo {
    /// Analyse a program, checking safety, arity consistency, and stratification.
    ///
    /// # Errors
    /// Any violation of those three well-formedness conditions.
    pub fn analyse(program: &Program) -> Result<ProgramInfo, SyntaxError> {
        check_safety(program)?;
        check_stratification(program)?;
        let arities = program.relation_arities()?;
        Ok(ProgramInfo {
            idb: program.idb_relations(),
            arities,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::parser::{parse_program, parse_rule};
    use seqdl_core::rel;

    #[test]
    fn features_of_example_3_1_equation_variant() {
        let p = parse_program("S($x) <- R($x), a·$x = $x·a.").unwrap();
        let f = FeatureSet::of_program(&p);
        assert_eq!(f.letters(), "E");
        assert!(!f.arity && !f.recursion && !f.negation && !f.packing && !f.intermediate);
    }

    #[test]
    fn features_of_example_3_1_recursive_variant() {
        let p =
            parse_program("T($x, $x) <- R($x).\nT($x, $y) <- T($x, $y·a).\nS($x) <- T($x, eps).")
                .unwrap();
        let f = FeatureSet::of_program(&p);
        assert_eq!(f.letters(), "AIR");
        assert!(f.arity && f.intermediate && f.recursion);
        assert!(!f.equations && !f.negation && !f.packing);
    }

    #[test]
    fn features_of_example_2_2_packing_program() {
        let p = parse_program(
            "T($u·<$s>·$v) <- R($u·$s·$v), S($s).\nA <- T($x), T($y), T($z), $x != $y, $x != $z, $y != $z.",
        )
        .unwrap();
        let f = FeatureSet::of_program(&p);
        // Uses E (nonequalities are negated equations), I (T and A), N, P.
        assert!(f.equations && f.intermediate && f.negation && f.packing);
        assert!(!f.arity && !f.recursion);
        assert_eq!(f.letters(), "EINP");
    }

    #[test]
    fn dependency_graph_detects_recursion_and_self_loops() {
        let recursive = parse_program("T($x·a) <- T($x).\nT($x) <- R($x).").unwrap();
        assert!(PrecedenceGraph::of_program(&recursive)
            .condensation()
            .has_recursion());

        let nonrec = parse_program("T($x) <- R($x).\nS($x) <- T($x).").unwrap();
        let g = PrecedenceGraph::of_program(&nonrec);
        assert_eq!(g.nodes().len(), 2);
        assert!(g.has_edge(rel("T"), rel("S")));
        let c = g.condensation();
        assert!(!c.has_recursion());
        let (s, t) = (
            c.component_of(rel("S")).unwrap(),
            c.component_of(rel("T")).unwrap(),
        );
        assert!(c.components[s].level > c.components[t].level);

        let mutual = parse_program("P($x) <- Q($x).\nQ($x) <- P($x·a).\nP($x) <- R($x).").unwrap();
        let c = PrecedenceGraph::of_program(&mutual).condensation();
        assert!(c.has_recursion());
        let p = c.component_of(rel("P")).unwrap();
        assert!(c.components[p].recursive);
        assert_eq!(c.component_of(rel("Q")), Some(p));
    }

    #[test]
    fn limited_variables_follow_the_inductive_definition() {
        // $x is limited by R($x); $z becomes limited through the equation a·$x = $z.
        let r = parse_rule("S($z) <- R($x), a·$x = $z.").unwrap();
        let lim = limited_vars(&r);
        assert!(lim.contains(&Var::path("x")));
        assert!(lim.contains(&Var::path("z")));
        assert!(is_safe(&r));

        // $y only occurs in the head: unsafe.
        let r = parse_rule("S($y) <- R($x).").unwrap();
        assert!(!is_safe(&r));

        // A variable that only occurs in a negated predicate is not limited.
        let r = parse_rule("S($x) <- R($x), !Q($y).").unwrap();
        assert!(!is_safe(&r));

        // Chained equations limit transitively: $x limits $y, $y limits $z.
        let r = parse_rule("S($z) <- R($x), $y = $x·a, $z = b·$y.").unwrap();
        assert!(is_safe(&r));

        // An equation between two unlimited sides limits nothing.
        let r = parse_rule("S($y) <- R($x), $y = $z.").unwrap();
        assert!(!is_safe(&r));
    }

    #[test]
    fn example_programs_from_the_paper_are_safe() {
        let sources = [
            "S(@q·$x, eps) <- R($x), N(@q).\nS(@q2·$y, $z·@a) <- S(@q1·@a·$y, $z), D(@q1, @a, @q2).\nA($x) <- S(@q, $x), F(@q).",
            "T($u·<$s>·$v) <- R($u·$s·$v), S($s).\nA <- T($x), T($y), T($z), $x != $y, $x != $z, $y != $z.",
            "T($x, eps) <- R($x).\nT($x, $y·@u) <- T($x·@u, $y).\nS($x) <- T(eps, $x).",
            "T(eps, $x, $x) <- R($x).\nT($y·$x, $x, $z) <- T($y, $x, a·$z).\nS($y) <- T($y, $x, eps).",
        ];
        for src in sources {
            let p = parse_program(src).unwrap();
            assert!(check_safety(&p).is_ok(), "not safe: {src}");
        }
    }

    #[test]
    fn safety_error_reports_the_unlimited_variables() {
        let p = parse_program("S($y) <- R($x).").unwrap();
        match check_safety(&p) {
            Err(SyntaxError::UnsafeRule { unlimited, .. }) => {
                assert_eq!(unlimited, vec!["$y".to_string()]);
            }
            other => panic!("expected UnsafeRule, got {other:?}"),
        }
    }

    #[test]
    fn stratification_checks_negated_heads() {
        // Negating a relation defined in the same stratum is rejected.
        let bad = parse_program("T($x) <- R($x).\nS($x) <- R($x), !T($x).").unwrap();
        assert!(check_stratification(&bad).is_err());

        // Splitting into two strata fixes it.
        let good = parse_program("T($x) <- R($x).\n---\nS($x) <- R($x), !T($x).").unwrap();
        assert!(check_stratification(&good).is_ok());

        // Negating a relation defined in a *later* stratum is also rejected.
        let bad = parse_program("S($x) <- R($x), !T($x).\n---\nT($x) <- R($x).").unwrap();
        assert!(check_stratification(&bad).is_err());

        // Negated EDB predicates are fine.
        let edb_neg = parse_program("S($x) <- R($x), !B($x).").unwrap();
        assert!(check_stratification(&edb_neg).is_ok());
    }

    #[test]
    fn semipositivity_distinguishes_edb_and_idb_negation() {
        let semi = parse_program("S($x) <- R($x), !B($x).").unwrap();
        assert!(is_semipositive(&semi));
        let not_semi = parse_program("T($x) <- R($x).\n---\nS($x) <- R($x), !T($x).").unwrap();
        assert!(!is_semipositive(&not_semi));
        // Negated equations do not affect semipositivity.
        let with_neq = parse_program("S(@x) <- R(@x·@y), @x != @y.").unwrap();
        assert!(is_semipositive(&with_neq));
    }

    #[test]
    fn program_info_bundles_the_analyses() {
        let p = parse_program("T($x) <- R($x).\n---\nS($x) <- T($x), !B($x).").unwrap();
        let info = ProgramInfo::analyse(&p).unwrap();
        assert_eq!(info.idb, BTreeSet::from([rel("S"), rel("T")]));
        assert_eq!(p.edb_relations(), BTreeSet::from([rel("B"), rel("R")]));
        let features = FeatureSet::of_program(&p);
        assert!(features.intermediate);
        assert!(features.negation);
        assert_eq!(info.arities[&rel("S")], 1);

        // An unsafe program is rejected by analyse().
        let bad = parse_program("S($y) <- R($x).").unwrap();
        assert!(ProgramInfo::analyse(&bad).is_err());
    }

    #[test]
    fn precedence_graph_orients_edges_dependency_first() {
        let p = parse_program("T($x) <- R($x).\nS($x) <- T($x).").unwrap();
        let g = PrecedenceGraph::of_program(&p);
        assert!(g.has_edge(rel("T"), rel("S")));
        assert!(!g.has_edge(rel("S"), rel("T")));
        // EDB relations are not nodes and produce no edges.
        assert!(!g.has_edge(rel("R"), rel("T")));
        assert_eq!(g.nodes().len(), 2);
    }

    #[test]
    fn condensation_orders_components_topologically() {
        // P and Q are mutually recursive; S reads Q; T is independent of all.
        let p = parse_program(
            "P($x) <- Q($x).\nQ($x) <- P($x·a).\nQ($x) <- R($x).\nS($x) <- Q($x).\nT($x) <- R($x).",
        )
        .unwrap();
        let c = PrecedenceGraph::of_program(&p).condensation();
        assert_eq!(c.components.len(), 3);
        let pq = c.component_of(rel("P")).unwrap();
        assert_eq!(c.component_of(rel("Q")), Some(pq));
        assert!(c.components[pq].recursive);
        assert_eq!(
            c.components[pq].members,
            BTreeSet::from([rel("P"), rel("Q")])
        );
        let s = c.component_of(rel("S")).unwrap();
        let t = c.component_of(rel("T")).unwrap();
        assert!(s > pq, "S must come after the {{P, Q}} component");
        assert!(!c.components[s].recursive);
        assert!(!c.components[t].recursive);
        // Levels: {P,Q} and T are independent roots; S is one level above {P,Q}.
        assert_eq!(c.components[pq].level, 0);
        assert_eq!(c.components[t].level, 0);
        assert_eq!(c.components[s].level, 1);
        assert_eq!(c.level_count(), 2);
    }

    #[test]
    fn self_loops_make_singleton_components_recursive() {
        let p = parse_program("T($x) <- R($x).\nT($x) <- T($x·a).\nS($x) <- T($x).").unwrap();
        let c = PrecedenceGraph::of_program(&p).condensation();
        let t = c.component_of(rel("T")).unwrap();
        let s = c.component_of(rel("S")).unwrap();
        assert!(c.components[t].recursive);
        assert!(!c.components[s].recursive);
        assert!(t < s);
        assert_eq!(c.component_of(rel("Absent")), None);
    }

    #[test]
    fn feature_display_uses_set_notation() {
        let p = parse_program("S($x) <- R($x), a·$x = $x·a.").unwrap();
        let f = FeatureSet::of_program(&p);
        assert_eq!(f.to_string(), "{E}");
        let empty = FeatureSet::default();
        assert_eq!(empty.to_string(), "{}");
    }
}
