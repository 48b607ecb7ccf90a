//! The pass pipeline: run every lint over a program and collect the findings
//! into one [`CheckReport`].
//!
//! [`check_program`] is the single analysis entry point shared by `seqdl
//! check`, the pre-flight warnings of `seqdl run`/`seqdl query`, and the
//! structural halves of `seqdl analyze`/`seqdl termination` — each command
//! renders a different slice of the same report instead of re-deriving
//! program structure on its own.

use crate::diag::{Anchor, Diagnostic, Lint, Severity};
use seqdl_core::RelName;
use seqdl_fragments::{subsumed_by, Fragment};
use seqdl_rewrite::{
    needed_relations, statically_empty_relations, strip_dead_with_edb, StripReason,
};
use seqdl_syntax::analysis::{check_stratification, limited_vars};
use seqdl_syntax::{FeatureSet, Program, ProgramInfo, Rule, SyntaxError, Var};
use seqdl_termination::{analyse as analyse_termination, Measure, TerminationReport, Verdict};
use std::collections::{BTreeMap, BTreeSet};

/// What the checker should assume about the program's context.
#[derive(Clone, Debug, Default)]
pub struct CheckOptions {
    /// The output relations dead-code analysis is relative to.  Empty means
    /// "no declared outputs": reachability lints (dead rules/relations) are
    /// skipped entirely rather than flagging everything.
    pub outputs: BTreeSet<RelName>,
    /// The relations that hold at least one fact in the instance the program
    /// will run against, when known.  `None` assumes nothing about the EDB.
    pub nonempty_edb: Option<BTreeSet<RelName>>,
}

impl CheckOptions {
    /// Check relative to the given output relations, with no EDB knowledge.
    pub fn for_outputs(outputs: impl IntoIterator<Item = RelName>) -> CheckOptions {
        CheckOptions {
            outputs: outputs.into_iter().collect(),
            nonempty_edb: None,
        }
    }
}

/// Everything the pass pipeline found out about one program.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// The findings, in pass order (well-formedness first).
    pub diagnostics: Vec<Diagnostic>,
    /// The outputs the reachability passes were relative to.
    pub outputs: BTreeSet<RelName>,
    /// The program's feature set.
    pub features: FeatureSet,
    /// The program's language fragment.
    pub fragment: Fragment,
    /// The termination analysis, verbatim.
    pub termination: TerminationReport,
    /// The well-formedness bundle, when the program is well-formed
    /// (`None` exactly when an error-severity diagnostic fired).
    pub info: Option<ProgramInfo>,
}

impl CheckReport {
    /// Number of diagnostics at the given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// The distinct lint codes that fired.
    pub fn codes(&self) -> BTreeSet<&'static str> {
        self.diagnostics.iter().map(|d| d.lint.code()).collect()
    }

    /// The one-line summary `seqdl check` and `seqdl analyze` print.
    pub fn summary(&self) -> String {
        format!(
            "check: {} error(s), {} warning(s), {} info(s)",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
        )
    }

    /// Did any error-severity diagnostic fire?
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }
}

/// Render a [`Measure`] compactly: the bounded count plus each path variable
/// with its multiplicity, e.g. `1+$x` or `2+2·$y`.
fn measure_str(m: &Measure) -> String {
    let mut out = m.bounded.to_string();
    for (v, n) in &m.path_var_occurrences {
        if *n == 1 {
            out.push_str(&format!("+{v}"));
        } else {
            out.push_str(&format!("+{n}·{v}"));
        }
    }
    out
}

/// Rename the variables of a rule to canonical names in first-occurrence
/// order (`$c0`, `@c1`, …), so alpha-equivalent rules render identically.
fn canonical_rendering(rule: &Rule) -> String {
    let mut map: BTreeMap<Var, Var> = BTreeMap::new();
    let mut order: Vec<Var> = Vec::new();
    let mut note = |v: Var| {
        if !order.contains(&v) {
            order.push(v);
        }
    };
    for arg in &rule.head.args {
        for v in arg.var_occurrences() {
            note(v);
        }
    }
    for lit in &rule.body {
        for v in lit.vars() {
            note(v);
        }
    }
    for (i, v) in order.into_iter().enumerate() {
        let fresh = if v.is_atom_var() {
            Var::atom(&format!("c{i}"))
        } else {
            Var::path(&format!("c{i}"))
        };
        map.insert(v, fresh);
    }
    rule.rename_vars(&map).to_string()
}

/// The rules of a program with their (stratum, index-within-stratum)
/// coordinates, in program order.
fn indexed_rules(program: &Program) -> Vec<(usize, usize, &Rule)> {
    program
        .strata
        .iter()
        .enumerate()
        .flat_map(|(si, s)| s.rules.iter().enumerate().map(move |(ri, r)| (si, ri, r)))
        .collect()
}

fn rule_anchor(stratum: usize, rule_index: usize, rule: &Rule) -> Anchor {
    Anchor::Rule {
        stratum,
        rule_index,
        rule: rule.to_string(),
    }
}

/// Pass 1 — well-formedness: per-variable safety refinements (head-only,
/// negation-shadowed, generic unsafe), arity consistency, stratification.
fn well_formedness_pass(program: &Program, out: &mut Vec<Diagnostic>) {
    for (si, ri, rule) in indexed_rules(program) {
        let limited = limited_vars(rule);
        let body_vars: BTreeSet<Var> = rule.body.iter().flat_map(|l| l.vars()).collect();
        let positive_vars: BTreeSet<Var> = rule
            .body
            .iter()
            .filter(|l| l.positive)
            .flat_map(|l| l.vars())
            .collect();
        let mut generic: Vec<String> = Vec::new();
        for v in rule.vars() {
            if limited.contains(&v) {
                continue;
            }
            if !body_vars.contains(&v) {
                out.push(Diagnostic::new(
                    Lint::HeadOnlyVariable,
                    format!("head variable {v} never occurs in the body"),
                    rule_anchor(si, ri, rule),
                ));
            } else if !positive_vars.contains(&v) {
                out.push(Diagnostic::new(
                    Lint::NegationShadowedVariable,
                    format!("variable {v} occurs only under negation, so nothing binds it"),
                    rule_anchor(si, ri, rule),
                ));
            } else {
                generic.push(v.to_string());
            }
        }
        if !generic.is_empty() {
            out.push(Diagnostic::new(
                Lint::UnsafeRule,
                format!("unlimited variable(s) {}", generic.join(", ")),
                rule_anchor(si, ri, rule),
            ));
        }
    }
    if let Err(SyntaxError::InconsistentArity {
        relation,
        first,
        second,
    }) = program.relation_arities()
    {
        out.push(Diagnostic::new(
            Lint::InconsistentArity,
            format!("used with arity {first} and with arity {second}"),
            Anchor::Relation { relation },
        ));
    }
    if let Err(SyntaxError::NotStratified { message }) = check_stratification(program) {
        out.push(Diagnostic::new(
            Lint::NotStratified,
            message,
            Anchor::Program,
        ));
    }
}

/// Pass 2 — variable hygiene: body variables that occur exactly once.
fn variable_pass(program: &Program, out: &mut Vec<Diagnostic>) {
    for (si, ri, rule) in indexed_rules(program) {
        let limited = limited_vars(rule);
        let mut occurrences: BTreeMap<Var, usize> = BTreeMap::new();
        let count_expr = |e: &seqdl_syntax::PathExpr, occ: &mut BTreeMap<Var, usize>| {
            for v in e.var_occurrences() {
                *occ.entry(v).or_insert(0) += 1;
            }
        };
        for arg in &rule.head.args {
            count_expr(arg, &mut occurrences);
        }
        for lit in &rule.body {
            match &lit.atom {
                seqdl_syntax::Atom::Pred(p) => {
                    for arg in &p.args {
                        count_expr(arg, &mut occurrences);
                    }
                }
                seqdl_syntax::Atom::Eq(eq) => {
                    count_expr(&eq.lhs, &mut occurrences);
                    count_expr(&eq.rhs, &mut occurrences);
                }
            }
        }
        for (v, n) in occurrences {
            // A limited variable with a single occurrence sits in the body
            // (head-only variables are unlimited) and constrains nothing.
            if n == 1 && limited.contains(&v) {
                out.push(Diagnostic::new(
                    Lint::UnusedVariable,
                    format!("variable {v} occurs only once and constrains nothing"),
                    rule_anchor(si, ri, rule),
                ));
            }
        }
    }
}

/// Passes 3 and 4 — reachability and satisfiability: dead rules and
/// relations relative to the outputs, statically empty relations, and
/// always-false rules.  Reuses the [`seqdl_rewrite::strip_dead`] machinery so
/// the lints agree exactly with what the `--strip-dead` optimisation removes.
fn reachability_pass(program: &Program, options: &CheckOptions, out: &mut Vec<Diagnostic>) {
    let empty = statically_empty_relations(program, options.nonempty_edb.as_ref());
    let positively_read: BTreeSet<RelName> = program
        .rules()
        .flat_map(|r| r.positive_body_predicates())
        .map(|p| p.relation)
        .collect();
    for relation in &empty {
        if positively_read.contains(relation) {
            out.push(Diagnostic::new(
                Lint::EmptyRelation,
                "statically empty (no facts, no satisfiable producing rule) but read positively",
                Anchor::Relation {
                    relation: relation.to_string(),
                },
            ));
        }
    }

    if options.outputs.is_empty() {
        // Without declared outputs everything is "dead"; report only the
        // unconditional satisfiability findings.
        for (si, ri, rule) in indexed_rules(program) {
            if let Some(reason) = seqdl_rewrite::always_false_reason(rule, &empty) {
                out.push(Diagnostic::new(
                    Lint::AlwaysFalseRule,
                    reason.to_string(),
                    rule_anchor(si, ri, rule),
                ));
            }
        }
        return;
    }

    let report = strip_dead_with_edb(program, &options.outputs, options.nonempty_edb.as_ref());
    let outputs: Vec<String> = options.outputs.iter().map(|r| r.to_string()).collect();
    let outputs = outputs.join(", ");
    for removed in &report.removed {
        let anchor = Anchor::Rule {
            stratum: removed.stratum,
            rule_index: removed.rule_index,
            rule: removed.rule.clone(),
        };
        match &removed.reason {
            StripReason::Unreachable => out.push(Diagnostic::new(
                Lint::DeadRule,
                format!("cannot contribute to output(s) {outputs}"),
                anchor,
            )),
            reason => out.push(Diagnostic::new(
                Lint::AlwaysFalseRule,
                reason.to_string(),
                anchor,
            )),
        }
    }
    let needed = needed_relations(program, &options.outputs);
    for relation in program.idb_relations() {
        if !needed.contains(&relation) {
            out.push(Diagnostic::new(
                Lint::DeadRelation,
                format!("cannot contribute to output(s) {outputs}"),
                Anchor::Relation {
                    relation: relation.to_string(),
                },
            ));
        }
    }
}

/// Pass 5 — duplicate and subsumed rules.
///
/// Duplicates are exact repeats up to variable renaming (first-occurrence
/// canonicalization).  A rule is subsumed when an earlier rule has the same
/// head and a strict subset of its body literals: every valuation satisfying
/// the larger body satisfies the smaller one, so the later rule derives
/// nothing new.  Both checks are syntactic (shared variable names for
/// subsumption), hence conservative.
///
/// Returns the (stratum, rule index) coordinates of every redundant rule, so
/// the caller can reason about the program minus exactly those copies —
/// coordinates, not renderings, because a textually identical duplicate
/// shares its rendering with the kept original.
fn duplicate_pass(program: &Program, out: &mut Vec<Diagnostic>) -> BTreeSet<(usize, usize)> {
    let rules = indexed_rules(program);
    let mut canonical_seen: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    let mut redundant: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (si, ri, rule) in &rules {
        let key = canonical_rendering(rule);
        match canonical_seen.get(&key) {
            Some((fs, fr)) => {
                redundant.insert((*si, *ri));
                out.push(Diagnostic::new(
                    Lint::DuplicateRule,
                    format!("repeats stratum {fs} rule {fr} up to variable renaming"),
                    rule_anchor(*si, *ri, rule),
                ));
            }
            None => {
                canonical_seen.insert(key, (*si, *ri));
            }
        }
    }
    for (si, ri, rule) in &rules {
        if redundant.contains(&(*si, *ri)) {
            continue;
        }
        let body: BTreeSet<String> = rule.body.iter().map(|l| l.to_string()).collect();
        for (oi, oj, other) in &rules {
            if (oi, oj) == (si, ri) || redundant.contains(&(*oi, *oj)) {
                continue;
            }
            let other_body: BTreeSet<String> = other.body.iter().map(|l| l.to_string()).collect();
            if other.head == rule.head
                && other_body.is_subset(&body)
                && other_body.len() < body.len()
            {
                redundant.insert((*si, *ri));
                out.push(Diagnostic::new(
                    Lint::SubsumedRule,
                    format!(
                        "stratum {oi} rule {oj} already derives everything this rule can \
                         (its body is a subset of this one)"
                    ),
                    rule_anchor(*si, *ri, rule),
                ));
                break;
            }
        }
    }
    redundant
}

/// Pass 6 — divergence risk: cliques the termination analysis could not
/// certify, with per-rule measures and a `--timeout` suggestion.
fn divergence_pass(program: &Program, report: &TerminationReport, out: &mut Vec<Diagnostic>) {
    if report.verdict == Verdict::Terminating {
        return;
    }
    for clique in &report.cliques {
        if clique.guarantee.is_some() {
            continue;
        }
        let relations: Vec<String> = clique.relations.iter().map(|r| r.to_string()).collect();
        for offending in &clique.offending_rules {
            // The report carries the rule's coordinates in the very program
            // we analysed, so the lookup is a direct index — no rendering
            // comparison that could silently miss or conflate duplicates.
            let rule = program
                .strata
                .get(offending.stratum)
                .and_then(|s| s.rules.get(offending.rule_index));
            let Some(rule) = rule else {
                // Coordinates out of range would mean the report came from a
                // different program; still surface the risk rather than
                // dropping the diagnostic.
                out.push(Diagnostic::new(
                    Lint::DivergenceRisk,
                    format!(
                        "recursion through {{{}}} has no termination guarantee (offending rule \
                         {}); consider running with --timeout",
                        relations.join(", "),
                        offending.rule,
                    ),
                    Anchor::Program,
                ));
                continue;
            };
            let head = Measure::of_predicate(&rule.head);
            let body = rule
                .positive_body_predicates()
                .iter()
                .filter(|p| clique.relations.contains(&p.relation))
                .map(|p| Measure::of_predicate(p))
                .max_by_key(Measure::total)
                .unwrap_or_default();
            out.push(Diagnostic::new(
                Lint::DivergenceRisk,
                format!(
                    "recursion through {{{}}} has no termination guarantee: head measure {} is \
                     not bounded by any clique body measure (largest {}); consider running with \
                     --timeout",
                    relations.join(", "),
                    measure_str(&head),
                    measure_str(&body),
                ),
                rule_anchor(offending.stratum, offending.rule_index, rule),
            ));
        }
    }
}

/// Run the full pass pipeline over `program`.
///
/// This never fails: ill-formed programs come back as error-severity
/// diagnostics (with `report.info == None`) rather than an `Err`, so the
/// checker can keep reporting past the first problem.
pub fn check_program(program: &Program, options: &CheckOptions) -> CheckReport {
    let mut diagnostics = Vec::new();
    well_formedness_pass(program, &mut diagnostics);
    variable_pass(program, &mut diagnostics);
    reachability_pass(program, options, &mut diagnostics);
    let redundant = duplicate_pass(program, &mut diagnostics);
    let termination = analyse_termination(program);
    divergence_pass(program, &termination, &mut diagnostics);

    let features = FeatureSet::of_program(program);
    let fragment = Fragment::of_program(program);
    let mut fragment_note = format!("program lies in fragment {fragment}");
    if !redundant.is_empty() {
        // Dropping redundant rules can only shrink the fragment, and a
        // smaller fragment always subsumes into the original (Theorem 6.1).
        // Filter by coordinates, not renderings: a textually identical
        // duplicate renders the same as its kept original.
        let kept: Vec<&Rule> = indexed_rules(program)
            .into_iter()
            .filter(|(si, ri, _)| !redundant.contains(&(*si, *ri)))
            .map(|(_, _, r)| r)
            .collect();
        let reduced = Fragment::of_program(&Program::single_stratum(
            kept.into_iter().cloned().collect(),
        ));
        if reduced != fragment && subsumed_by(reduced, fragment) {
            fragment_note.push_str(&format!(
                "; dropping the redundant rules narrows it to {reduced}"
            ));
        }
    }
    diagnostics.push(Diagnostic::new(
        Lint::FragmentNote,
        fragment_note,
        Anchor::Program,
    ));

    let has_errors = diagnostics.iter().any(|d| d.severity == Severity::Error);
    let info = if has_errors {
        None
    } else {
        ProgramInfo::analyse(program).ok()
    };
    CheckReport {
        diagnostics,
        outputs: options.outputs.clone(),
        features,
        fragment,
        termination,
        info,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use seqdl_core::rel;
    use seqdl_syntax::parse_program;

    fn check(src: &str, outputs: &[&str]) -> CheckReport {
        let program = parse_program(src).unwrap();
        let options = CheckOptions::for_outputs(outputs.iter().map(|n| rel(n)));
        check_program(&program, &options)
    }

    fn codes(report: &CheckReport) -> BTreeSet<&'static str> {
        report.codes()
    }

    #[test]
    fn clean_program_reports_only_the_fragment_note() {
        let report = check("T($x) <- R($x).\nS($x) <- T($x).", &["S"]);
        assert_eq!(codes(&report), BTreeSet::from(["SD-I401"]));
        assert!(!report.has_errors());
        assert!(report.info.is_some());
        assert_eq!(
            report.summary(),
            "check: 0 error(s), 0 warning(s), 1 info(s)"
        );
    }

    #[test]
    fn head_only_and_negation_shadowed_variables_refine_unsafe() {
        let report = check("S($x, $y) <- R($x).", &["S"]);
        assert!(
            codes(&report).contains("SD-E004"),
            "{:?}",
            report.diagnostics
        );
        let report = check("S($x) <- R($x), !B($y).", &["S"]);
        assert!(
            codes(&report).contains("SD-E005"),
            "{:?}",
            report.diagnostics
        );
        assert!(report.info.is_none());
    }

    #[test]
    fn dead_rules_and_relations_fire_together() {
        let report = check("T($x) <- R($x).\nU($x) <- R($x).\nS($x) <- T($x).", &["S"]);
        assert!(codes(&report).contains("SD-W101"));
        assert!(codes(&report).contains("SD-W102"));
    }

    #[test]
    fn duplicates_are_detected_up_to_renaming() {
        let report = check("S($x) <- R($x).\nS($y) <- R($y).", &["S"]);
        assert!(
            codes(&report).contains("SD-W105"),
            "{:?}",
            report.diagnostics
        );
    }

    #[test]
    fn subsumed_rules_are_detected() {
        let report = check("S($x) <- R($x).\nS($x) <- R($x), B($x).", &["S"]);
        assert!(
            codes(&report).contains("SD-W106"),
            "{:?}",
            report.diagnostics
        );
    }

    #[test]
    fn textually_identical_duplicates_keep_the_original_in_the_kept_set() {
        // Both copies render identically; the kept set must retain the first
        // one, so the "reduced" program still has the equation and the note
        // cannot claim a narrowing that deduplication alone would not give.
        let report = check(
            "S($x) <- R($x), a·$x = $x·a.\nS($x) <- R($x), a·$x = $x·a.",
            &["S"],
        );
        assert!(
            codes(&report).contains("SD-W105"),
            "{:?}",
            report.diagnostics
        );
        let note = report
            .diagnostics
            .iter()
            .find(|d| d.lint == Lint::FragmentNote)
            .unwrap();
        assert!(
            !note.message.contains("narrows"),
            "dropping one identical copy must not narrow the fragment: {}",
            note.message
        );
    }

    #[test]
    fn duplicate_offending_rules_get_their_own_divergence_anchors() {
        // Two textually identical uncertified recursive rules: each must be
        // anchored at its own coordinates, not both at the first occurrence.
        let report = check("T(a).\nT(a·$x) <- T($x).\nT(a·$x) <- T($x).", &["T"]);
        let anchors: Vec<(usize, usize)> = report
            .diagnostics
            .iter()
            .filter(|d| d.lint == Lint::DivergenceRisk)
            .filter_map(|d| match &d.anchor {
                Anchor::Rule {
                    stratum,
                    rule_index,
                    ..
                } => Some((*stratum, *rule_index)),
                _ => None,
            })
            .collect();
        assert_eq!(anchors.len(), 2, "{:?}", report.diagnostics);
        assert_ne!(anchors[0], anchors[1], "anchors must be distinct");
    }

    #[test]
    fn unused_variables_warn_but_do_not_error() {
        let report = check("S($x) <- R($x), B($y).", &["S"]);
        assert!(codes(&report).contains("SD-W201"));
        assert!(!report.has_errors());
    }

    #[test]
    fn divergence_risk_carries_measures_and_a_timeout_hint() {
        let report = check("T(a).\nT(a·$x) <- T($x).", &["T"]);
        let diag = report
            .diagnostics
            .iter()
            .find(|d| d.lint == Lint::DivergenceRisk)
            .unwrap();
        assert!(diag.message.contains("--timeout"), "{}", diag.message);
        assert!(diag.message.contains("head measure"), "{}", diag.message);
    }

    #[test]
    fn empty_edb_knowledge_produces_empty_relation_lints() {
        let program = parse_program("T($x) <- B($x).\nS($x) <- T($x).\nS($x) <- R($x).").unwrap();
        let options = CheckOptions {
            outputs: BTreeSet::from([rel("S")]),
            nonempty_edb: Some(BTreeSet::from([rel("R")])),
        };
        let report = check_program(&program, &options);
        assert!(
            report.codes().contains("SD-W103"),
            "{:?}",
            report.diagnostics
        );
        assert!(report.codes().contains("SD-W104"));
    }

    #[test]
    fn always_false_rules_are_reported_without_outputs_too() {
        let program = parse_program("S($x) <- R($x), a·$x = b·$x.").unwrap();
        let report = check_program(&program, &CheckOptions::default());
        assert!(report.codes().contains("SD-W104"));
        // No outputs declared: nothing is reported dead.
        assert!(!report.codes().contains("SD-W101"));
    }
}
