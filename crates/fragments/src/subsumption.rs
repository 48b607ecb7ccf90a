//! The subsumption relation `F1 ≤ F2` (Theorem 6.1) and its constructive
//! if-direction (Figure 3).

use crate::fragment::{Feature, Fragment};
use seqdl_core::RelName;
use seqdl_rewrite::{
    eliminate_arity, eliminate_equations, eliminate_packing_nonrecursive,
    fold_intermediate_predicates, RewriteError,
};
use seqdl_syntax::Program;

/// The five conditions of Theorem 6.1, evaluated for a pair of fragments.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SubsumptionReport {
    /// Condition 1: `N ∈ F1 ⇒ N ∈ F2`.
    pub negation_preserved: bool,
    /// Condition 2: `R ∈ F1 ⇒ R ∈ F2`.
    pub recursion_preserved: bool,
    /// Condition 3: `E ∈ F1 ⇒ (E ∈ F2 ∨ I ∈ F2)`.
    pub equations_covered: bool,
    /// Condition 4: `(I ∈ F1 ∧ R ∉ F1 ∧ N ∉ F1) ⇒ (I ∈ F2 ∨ E ∈ F2)`.
    pub intermediate_covered_without_nr: bool,
    /// Condition 5: `(I ∈ F1 ∧ (R ∈ F1 ∨ N ∈ F1)) ⇒ I ∈ F2`.
    pub intermediate_covered_with_nr: bool,
}

impl SubsumptionReport {
    /// Do all five conditions hold?
    pub fn holds(&self) -> bool {
        self.negation_preserved
            && self.recursion_preserved
            && self.equations_covered
            && self.intermediate_covered_without_nr
            && self.intermediate_covered_with_nr
    }

    /// The numbers (1–5) of the conditions that fail.
    pub fn failing_conditions(&self) -> Vec<usize> {
        [
            self.negation_preserved,
            self.recursion_preserved,
            self.equations_covered,
            self.intermediate_covered_without_nr,
            self.intermediate_covered_with_nr,
        ]
        .iter()
        .enumerate()
        .filter(|(_, ok)| !**ok)
        .map(|(i, _)| i + 1)
        .collect()
    }
}

/// Evaluate the five conditions of Theorem 6.1 for `F1 ≤ F2`.
pub fn subsumption_conditions(f1: Fragment, f2: Fragment) -> SubsumptionReport {
    use Feature::*;
    let has = |f: Fragment, x: Feature| f.contains(x);
    SubsumptionReport {
        negation_preserved: !has(f1, Negation) || has(f2, Negation),
        recursion_preserved: !has(f1, Recursion) || has(f2, Recursion),
        equations_covered: !has(f1, Equations) || has(f2, Equations) || has(f2, Intermediate),
        intermediate_covered_without_nr: !(has(f1, Intermediate)
            && !has(f1, Recursion)
            && !has(f1, Negation))
            || has(f2, Intermediate)
            || has(f2, Equations),
        intermediate_covered_with_nr: !(has(f1, Intermediate)
            && (has(f1, Recursion) || has(f1, Negation)))
            || has(f2, Intermediate),
    }
}

/// Is `F1 ≤ F2`, i.e. is every query computable in `F1` also computable in `F2`
/// (Theorem 6.1)?
pub fn subsumed_by(f1: Fragment, f2: Fragment) -> bool {
    subsumption_conditions(f1, f2).holds()
}

/// Constructively rewrite `program` (whose output relation is `output`) into the
/// target fragment, following the if-direction of Theorem 6.1 (Figure 3).
///
/// The target must subsume the program's own fragment; packing elimination is only
/// available for non-recursive programs (see DESIGN.md).
///
/// # Errors
/// * [`RewriteError::UnsupportedFeature`] if the target does not subsume the
///   program's fragment (no rewrite exists);
/// * any error of the individual elimination passes.
pub fn rewrite_into(
    program: &Program,
    output: RelName,
    target: Fragment,
) -> Result<Program, RewriteError> {
    let current = Fragment::of_program(program);
    if !subsumed_by(current, target) {
        return Err(RewriteError::UnsupportedFeature {
            rewrite: "fragment rewriting (Theorem 6.1)",
            feature: "a feature the target fragment cannot express",
        });
    }
    let mut result = program.clone();

    // Packing elimination specialises unary heads, so drop arity first when packing
    // has to go; arity can always be re-eliminated later (it is redundant).
    if !target.contains(Feature::Packing)
        && Fragment::of_program(&result).contains(Feature::Packing)
    {
        if Fragment::of_program(&result).contains(Feature::Arity) {
            result = eliminate_arity(&result)?;
        }
        result = eliminate_packing_nonrecursive(&result, output)?;
    }
    // Equations (Theorem 4.7) — only needed when the target lacks E; the rewrite
    // introduces I and A.
    if !target.contains(Feature::Equations)
        && Fragment::of_program(&result).contains(Feature::Equations)
    {
        result = eliminate_equations(&result)?;
    }
    // Intermediate predicates (Theorem 4.16) — only applicable without N and R, and
    // requires E in the target (condition 4 guarantees E ∈ F2 in that case).
    if !target.contains(Feature::Intermediate)
        && Fragment::of_program(&result).contains(Feature::Intermediate)
    {
        result = fold_intermediate_predicates(&result, output)?;
    }
    // Arity last (Theorem 4.2).
    if !target.contains(Feature::Arity) && Fragment::of_program(&result).contains(Feature::Arity) {
        result = eliminate_arity(&result)?;
    }

    // Re-eliminate equations introduced by folding/arity if the target lacks E.
    if !target.contains(Feature::Equations)
        && Fragment::of_program(&result).contains(Feature::Equations)
    {
        result = eliminate_equations(&result)?;
        if !target.contains(Feature::Arity)
            && Fragment::of_program(&result).contains(Feature::Arity)
        {
            result = eliminate_arity(&result)?;
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdl_core::{path_of, rel, repeat_path, Instance};
    use seqdl_exec::run_unary_query;
    use seqdl_syntax::parse_program;

    fn frag(s: &str) -> Fragment {
        s.parse().unwrap()
    }

    #[test]
    fn reflexivity_and_monotonicity() {
        for f in Fragment::all() {
            assert!(subsumed_by(f, f), "{f} not ≤ itself");
            assert!(subsumed_by(f, Fragment::full()));
            assert!(subsumed_by(Fragment::empty(), f));
        }
    }

    #[test]
    fn transitivity_over_all_fragments() {
        let all = Fragment::all_over_einr();
        for &a in &all {
            for &b in &all {
                if !subsumed_by(a, b) {
                    continue;
                }
                for &c in &all {
                    if subsumed_by(b, c) {
                        assert!(subsumed_by(a, c), "{a} ≤ {b} ≤ {c} but not {a} ≤ {c}");
                    }
                }
            }
        }
    }

    #[test]
    fn arity_and_packing_are_redundant_in_the_relation() {
        // F ≤ F − {A, P} for every fragment (Theorems 4.2 and 4.15).
        for f in Fragment::all() {
            assert!(subsumed_by(f, f.hat()), "{f} not ≤ {}", f.hat());
            assert!(subsumed_by(f.hat(), f));
        }
    }

    #[test]
    fn the_papers_headline_equivalences_and_separations() {
        // {E} ≡ {I} ≡ {E, I}  (Theorems 4.7, 4.16, 5.7).
        assert!(subsumed_by(frag("E"), frag("I")));
        assert!(subsumed_by(frag("I"), frag("E")));
        assert!(subsumed_by(frag("EI"), frag("E")));
        // E is primitive in the absence of I (Theorem 5.7).
        assert!(!subsumed_by(frag("E"), frag("ANPR")));
        // I is primitive in the presence of N (Theorem 5.5) and of R (Theorem 5.6).
        assert!(!subsumed_by(frag("IN"), frag("EN")));
        assert!(!subsumed_by(frag("IR"), frag("ER")));
        // Recursion and negation are primitive.
        assert!(!subsumed_by(frag("R"), frag("AEINP")));
        assert!(!subsumed_by(frag("N"), frag("AEIPR")));
        // {I, N, R} ≡ {E, I, N, R}; {I, R} ≡ {E, I, R}; {I, N} ≡ {E, I, N}.
        assert!(subsumed_by(frag("EINR"), frag("INR")));
        assert!(subsumed_by(frag("EIR"), frag("IR")));
        assert!(subsumed_by(frag("EIN"), frag("IN")));
        // {E, N} and {N} are incomparable with {R}-containing fragments lacking N.
        assert!(!subsumed_by(frag("EN"), frag("EIR")));
        assert!(!subsumed_by(frag("R"), frag("EN")));
    }

    #[test]
    fn figure_1_non_edges_fail_some_condition() {
        // {E, R} is not subsumed by {N, R} (condition 3) and vice versa (condition 1).
        let report = subsumption_conditions(frag("ER"), frag("NR"));
        assert!(!report.holds());
        assert_eq!(report.failing_conditions(), vec![3]);
        let report = subsumption_conditions(frag("NR"), frag("ER"));
        assert_eq!(report.failing_conditions(), vec![1]);
    }

    #[test]
    fn rewrite_into_moves_only_as_query_from_e_to_i() {
        // Example 3.1: the {E} program is rewritten into a fragment without E.
        let program = parse_program("S($x) <- R($x), a·$x = $x·a.").unwrap();
        let target = frag("AI");
        let rewritten = rewrite_into(&program, rel("S"), target).unwrap();
        assert!(Fragment::of_program(&rewritten).is_subset_of(target));
        let input = Instance::unary(rel("R"), [repeat_path("a", 3), path_of(&["a", "b"])]);
        assert_eq!(
            run_unary_query(&program, &input, rel("S")).unwrap(),
            run_unary_query(&rewritten, &input, rel("S")).unwrap()
        );
    }

    #[test]
    fn rewrite_into_folds_intermediates_when_target_has_equations_only() {
        let program = parse_program("T($y) <- R(a·$y).\nS($z) <- T(b·$z).").unwrap();
        let target = frag("E");
        let rewritten = rewrite_into(&program, rel("S"), target).unwrap();
        assert!(Fragment::of_program(&rewritten).is_subset_of(target));
        let input = Instance::unary(rel("R"), [path_of(&["a", "b", "c"]), path_of(&["b", "c"])]);
        assert_eq!(
            run_unary_query(&program, &input, rel("S")).unwrap(),
            run_unary_query(&rewritten, &input, rel("S")).unwrap()
        );
    }

    #[test]
    fn rewrite_into_eliminates_packing() {
        // The packed-marker program: T stores R-strings with the Q-substring packed;
        // S reads them back.  Rewriting into {E, I} must drop the P feature.
        let program =
            parse_program("T($u·<$s>·$v) <- R($u·$s·$v), Q($s).\nS($s) <- T($u·<$s>·$v), Q($s).")
                .unwrap();
        let target = frag("EI");
        let rewritten = rewrite_into(&program, rel("S"), target).unwrap();
        assert!(
            Fragment::of_program(&rewritten).is_subset_of(target),
            "{} not within {target}: {rewritten}",
            Fragment::of_program(&rewritten)
        );
        let mut input = Instance::unary(rel("R"), [path_of(&["x", "a", "b", "y"])]);
        input
            .insert_fact(seqdl_core::Fact::new(rel("Q"), vec![path_of(&["a", "b"])]))
            .unwrap();
        assert_eq!(
            run_unary_query(&program, &input, rel("S")).unwrap(),
            run_unary_query(&rewritten, &input, rel("S")).unwrap()
        );
    }

    #[test]
    fn rewrite_into_rejects_non_subsuming_targets() {
        let program = parse_program("S($x) <- R($x), a·$x = $x·a.").unwrap();
        assert!(rewrite_into(&program, rel("S"), frag("NR")).is_err());
    }
}
