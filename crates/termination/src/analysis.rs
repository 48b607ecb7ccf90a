//! The termination criteria and the per-program report.
//!
//! Soundness arguments (sketch):
//!
//! * **Nonrecursive** — each stratum fires every rule a bounded number of times;
//!   Lemma 5.1 of the paper even gives a linear output-length bound.
//! * **Size non-increasing** — if in every recursive rule of a clique the head
//!   measure is ≤ the measure of some positive body predicate of the same clique,
//!   then every derived clique fact is no larger than some previously derived clique
//!   fact, hence no larger than the largest "base" fact (derived without using the
//!   clique).  Facts over the finite active atom set with bounded component lengths
//!   and fixed arities form a finite set, so the fixpoint is reached.
//! * **Rank decreasing** — if every recursive rule of a clique is *linearly*
//!   recursive (exactly one positive body predicate from the clique) and some
//!   argument position strictly shrinks from that body predicate to the head, then
//!   every fact's chain of clique ancestors strictly decreases that argument's
//!   length; chains are therefore no longer than the largest base fact, each fact
//!   has finitely many successors (the rest of the instance is finite), and the set
//!   of derivable facts is finite by König's lemma.

use crate::measure::Measure;
use seqdl_core::RelName;
use seqdl_syntax::{PrecedenceGraph, Program, Rule};
use std::collections::BTreeSet;
use std::fmt;

/// Why a recursive clique is guaranteed to terminate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Guarantee {
    /// The clique is not actually recursive (a single relation without a self-loop).
    Nonrecursive,
    /// Every recursive rule is size non-increasing with respect to some clique body
    /// predicate.
    SizeNonIncreasing,
    /// Every recursive rule is linearly recursive and strictly decreases the given
    /// argument position (0-based).
    RankDecreasing {
        /// The 0-based argument position that shrinks.
        argument: usize,
    },
}

impl fmt::Display for Guarantee {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Guarantee::Nonrecursive => f.write_str("nonrecursive"),
            Guarantee::SizeNonIncreasing => f.write_str("size non-increasing"),
            Guarantee::RankDecreasing { argument } => {
                write!(f, "argument {} strictly decreases", argument + 1)
            }
        }
    }
}

/// The overall verdict for a program.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Every recursive clique carries a termination guarantee.
    Terminating,
    /// At least one clique could not be certified; the program may or may not
    /// terminate.
    Unknown,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Terminating => f.write_str("guaranteed to terminate"),
            Verdict::Unknown => f.write_str("termination not guaranteed"),
        }
    }
}

/// A recursive rule that defeated every termination criterion, located by its
/// coordinates in the analysed program — coordinates rather than a rendering
/// alone, so consumers (the `seqdl check` divergence lint) can anchor
/// diagnostics to the exact rule even when several rules render identically.
#[derive(Clone, Debug)]
pub struct OffendingRule {
    /// Index of the stratum the rule lives in.
    pub stratum: usize,
    /// Index of the rule within its stratum.
    pub rule_index: usize,
    /// Rendering of the rule.
    pub rule: String,
}

/// The analysis result for one recursive clique (strongly connected component of
/// the dependency graph).
#[derive(Clone, Debug)]
pub struct CliqueReport {
    /// The IDB relations of the clique.
    pub relations: Vec<RelName>,
    /// The guarantee found, if any.
    pub guarantee: Option<Guarantee>,
    /// The recursive rules that defeated every criterion (empty when a
    /// guarantee was found).
    pub offending_rules: Vec<OffendingRule>,
}

/// The analysis result for a whole program.
#[derive(Clone, Debug)]
pub struct TerminationReport {
    /// The overall verdict.
    pub verdict: Verdict,
    /// One report per recursive clique, in first-appearance order.
    pub cliques: Vec<CliqueReport>,
}

impl fmt::Display for TerminationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.verdict)?;
        for clique in &self.cliques {
            let names: Vec<String> = clique.relations.iter().map(|r| r.to_string()).collect();
            match &clique.guarantee {
                Some(g) => writeln!(f, "  {{{}}}: {}", names.join(", "), g)?,
                None => {
                    writeln!(
                        f,
                        "  {{{}}}: no guarantee found; offending rules:",
                        names.join(", ")
                    )?;
                    for rule in &clique.offending_rules {
                        writeln!(f, "    {}", rule.rule)?;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Convenience wrapper: does [`analyse`] certify the program?
pub fn guaranteed_terminating(program: &Program) -> bool {
    analyse(program).verdict == Verdict::Terminating
}

/// Analyse a program and produce a [`TerminationReport`].
pub fn analyse(program: &Program) -> TerminationReport {
    // The cliques are the recursive strongly connected components, each
    // listed in relation order and ordered by its smallest member.
    let mut members: Vec<Vec<RelName>> = PrecedenceGraph::of_program(program)
        .condensation()
        .components
        .into_iter()
        .filter(|c| c.recursive)
        .map(|c| c.members.into_iter().collect())
        .collect();
    members.sort_unstable();
    let cliques: Vec<CliqueReport> = members
        .iter()
        .map(|clique| analyse_clique(program, clique))
        .collect();

    let verdict = if cliques.iter().all(|c| c.guarantee.is_some()) {
        Verdict::Terminating
    } else {
        Verdict::Unknown
    };
    TerminationReport { verdict, cliques }
}

/// The recursive rules of a clique — head in the clique and at least one positive
/// body predicate in the clique — with their (stratum, index) coordinates.
fn recursive_rules<'a>(
    program: &'a Program,
    clique: &BTreeSet<RelName>,
) -> Vec<(usize, usize, &'a Rule)> {
    program
        .strata
        .iter()
        .enumerate()
        .flat_map(|(si, s)| s.rules.iter().enumerate().map(move |(ri, r)| (si, ri, r)))
        .filter(|(_, _, rule)| {
            clique.contains(&rule.head.relation)
                && rule
                    .positive_body_predicates()
                    .iter()
                    .any(|p| clique.contains(&p.relation))
        })
        .collect()
}

fn analyse_clique(program: &Program, clique: &[RelName]) -> CliqueReport {
    let clique_set: BTreeSet<RelName> = clique.iter().copied().collect();
    let rules = recursive_rules(program, &clique_set);
    if rules.is_empty() {
        return CliqueReport {
            relations: clique.to_vec(),
            guarantee: Some(Guarantee::Nonrecursive),
            offending_rules: Vec::new(),
        };
    }

    // Criterion 1: size non-increasing.
    let size_offenders: Vec<(usize, usize, &Rule)> = rules
        .iter()
        .copied()
        .filter(|(_, _, rule)| !rule_is_size_non_increasing(rule, &clique_set))
        .collect();
    if size_offenders.is_empty() {
        return CliqueReport {
            relations: clique.to_vec(),
            guarantee: Some(Guarantee::SizeNonIncreasing),
            offending_rules: Vec::new(),
        };
    }

    // Criterion 2: rank decreasing at some argument position, linear recursion only.
    let max_arity = rules
        .iter()
        .map(|(_, _, r)| r.head.arity())
        .min()
        .unwrap_or(0);
    for argument in 0..max_arity {
        if rules
            .iter()
            .all(|(_, _, rule)| rule_decreases_argument(rule, &clique_set, argument))
        {
            return CliqueReport {
                relations: clique.to_vec(),
                guarantee: Some(Guarantee::RankDecreasing { argument }),
                offending_rules: Vec::new(),
            };
        }
    }

    CliqueReport {
        relations: clique.to_vec(),
        guarantee: None,
        offending_rules: size_offenders
            .iter()
            .map(|(stratum, rule_index, r)| OffendingRule {
                stratum: *stratum,
                rule_index: *rule_index,
                rule: r.to_string(),
            })
            .collect(),
    }
}

/// Is the head measure bounded by the measure of some positive body predicate of
/// the same clique?
fn rule_is_size_non_increasing(rule: &Rule, clique: &BTreeSet<RelName>) -> bool {
    let head_measure = Measure::of_predicate(&rule.head);
    rule.positive_body_predicates()
        .iter()
        .filter(|p| clique.contains(&p.relation))
        .any(|p| head_measure.le(&Measure::of_predicate(p)))
}

/// Is the rule linearly recursive and does the given head argument strictly shrink
/// compared to the same argument of its unique clique body predicate?
fn rule_decreases_argument(rule: &Rule, clique: &BTreeSet<RelName>, argument: usize) -> bool {
    let clique_predicates: Vec<_> = rule
        .positive_body_predicates()
        .into_iter()
        .filter(|p| clique.contains(&p.relation))
        .collect();
    let [parent] = clique_predicates.as_slice() else {
        // Nonlinear recursion: the rank argument of the soundness sketch breaks down
        // (a large non-designated parent can be recombined indefinitely), so the
        // criterion refuses to certify such rules.
        return false;
    };
    let (Some(head_arg), Some(parent_arg)) =
        (rule.head.args.get(argument), parent.args.get(argument))
    else {
        return false;
    };
    Measure::of_expr(head_arg).lt(&Measure::of_expr(parent_arg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdl_syntax::parse_program;

    fn report(src: &str) -> TerminationReport {
        analyse(&parse_program(src).unwrap())
    }

    #[test]
    fn nonrecursive_programs_are_certified() {
        let r = report("S($x) <- R($x), a·$x = $x·a.\nT($x·$x) <- S($x).");
        assert_eq!(r.verdict, Verdict::Terminating);
        assert!(r.cliques.is_empty(), "no recursive cliques at all");
    }

    #[test]
    fn example_2_3_is_not_certified() {
        let r = report("T(a).\nT(a·$x) <- T($x).");
        assert_eq!(r.verdict, Verdict::Unknown);
        assert_eq!(r.cliques.len(), 1);
        assert!(r.cliques[0].guarantee.is_none());
        assert!(!r.cliques[0].offending_rules.is_empty());
        assert!(r.to_string().contains("no guarantee"));
    }

    #[test]
    fn consuming_recursion_is_size_non_increasing() {
        // The "only a's" program of Example 3.1: T($x, $y) <- T($x, $y·a).
        let r = report("T($x, $x) <- R($x).\nT($x, $y) <- T($x, $y·a).\nS($x) <- T($x, eps).");
        assert_eq!(r.verdict, Verdict::Terminating);
        assert_eq!(r.cliques.len(), 1);
        assert_eq!(r.cliques[0].guarantee, Some(Guarantee::SizeNonIncreasing));
    }

    #[test]
    fn squaring_is_rank_decreasing() {
        let r = report(
            "T(eps, $x, $x) <- R($x).\nT($y·$x, $x, $z) <- T($y, $x, a·$z).\nS($y) <- T($y, $x, eps).",
        );
        assert_eq!(r.verdict, Verdict::Terminating);
        assert_eq!(r.cliques.len(), 1);
        assert_eq!(
            r.cliques[0].guarantee,
            Some(Guarantee::RankDecreasing { argument: 2 })
        );
    }

    #[test]
    fn nfa_acceptance_is_certified() {
        let r = report(
            "S(@q·$x, eps) <- R($x), N(@q).\n\
             S(@q2·$y, $z·@a) <- S(@q1·@a·$y, $z), D(@q1, @a, @q2).\n\
             A($x) <- S(@q, $x), F(@q).",
        );
        assert_eq!(r.verdict, Verdict::Terminating);
        // The recursive rule keeps the total size constant (4 occurrences on both
        // sides), so the stronger size-non-increasing criterion already applies.
        assert_eq!(r.cliques[0].guarantee, Some(Guarantee::SizeNonIncreasing));
    }

    #[test]
    fn reachability_is_certified() {
        let r = report("T(@x·@y) <- R(@x·@y).\nT(@x·@z) <- T(@x·@y), R(@y·@z).\nS <- T(a·b).");
        assert_eq!(r.verdict, Verdict::Terminating);
        assert_eq!(r.cliques[0].guarantee, Some(Guarantee::SizeNonIncreasing));
    }

    #[test]
    fn growing_mutual_recursion_is_not_certified() {
        let r = report("P($x·a) <- Q($x).\nQ($x·b) <- P($x).\nP($x) <- R($x).");
        assert_eq!(r.verdict, Verdict::Unknown);
        assert_eq!(r.cliques.len(), 1);
        assert_eq!(r.cliques[0].relations.len(), 2);
    }

    #[test]
    fn shrinking_mutual_recursion_is_certified() {
        let r = report("P($x) <- Q($x·a).\nQ($x) <- P($x·b).\nP($x) <- R($x).\nS($x) <- P($x).");
        assert_eq!(r.verdict, Verdict::Terminating);
        assert_eq!(r.cliques[0].guarantee, Some(Guarantee::SizeNonIncreasing));
    }

    #[test]
    fn nonlinear_growing_recursion_is_not_rank_certified() {
        // Doubling via nonlinear recursion: neither criterion may certify this.
        let r = report("T($x·$y) <- T($x), T($y).\nT($x) <- R($x).\nS($x) <- T($x).");
        assert_eq!(r.verdict, Verdict::Unknown);
    }

    #[test]
    fn duplicating_head_variables_defeats_the_size_criterion_but_not_rank() {
        // T($x·$x, $z) <- T($x, a·$z): arg 1 doubles but arg 2 strictly shrinks, and
        // the rule is linearly recursive, so the rank criterion certifies it.
        let r = report("T($x, $x) <- R($x).\nT($x·$x, $z) <- T($x, a·$z).\nS($x) <- T($x, eps).");
        assert_eq!(r.verdict, Verdict::Terminating);
        assert_eq!(
            r.cliques[0].guarantee,
            Some(Guarantee::RankDecreasing { argument: 1 })
        );
    }

    #[test]
    fn reports_render_readably() {
        let r = report("T(a).\nT(a·$x) <- T($x).");
        let text = r.to_string();
        assert!(text.contains("termination not guaranteed"));
        let ok = report("T($x, $x) <- R($x).\nT($x, $y) <- T($x, $y·a).\nS($x) <- T($x, eps).");
        assert!(ok.to_string().contains("guaranteed to terminate"));
        assert!(ok.to_string().contains("size non-increasing"));
    }
}
