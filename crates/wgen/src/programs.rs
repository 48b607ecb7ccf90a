//! Random *safe, stratified, nonrecursive* Sequence Datalog programs.
//!
//! The generator is used for differential testing: every generated program is safe
//! and stratified by construction, terminates (it is nonrecursive), and exercises a
//! configurable subset of the paper's features (equations, negation, arity,
//! intermediate predicates).  Equal seeds produce equal programs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seqdl_core::RelName;
use seqdl_syntax::{Literal, PathExpr, Predicate, Program, Rule, Stratum, Term, Var};

/// Configuration for [`ProgramGenerator`].
#[derive(Clone, Copy, Debug)]
pub struct ProgramConfig {
    /// Number of strata to generate (each stratum only reads relations defined in
    /// earlier strata or the EDB, so stratification holds by construction).
    pub strata: usize,
    /// Number of rules per stratum; each rule defines its own IDB relation.
    pub rules_per_stratum: usize,
    /// Allow positive equations that decompose a bound variable.
    pub allow_equations: bool,
    /// Allow negated predicates over the EDB and earlier strata.
    pub allow_negation: bool,
    /// Allow binary IDB relations (the A feature); otherwise everything is unary.
    pub allow_arity: bool,
    /// Allow *terminating* recursive rules (the R feature): a stratum may gain a
    /// suffix-consuming rule `H($y) <- H(@u·$y).` for one of its unary heads,
    /// or a mutually recursive pair `H1($y) <- H2(@u·$y).` and
    /// `H2($y) <- H1(@u·$y).` over two of them.  Such rules only derive
    /// suffixes of already-derived paths, so the fixpoint stays finite, and
    /// they never appear under negation (negated predicates only draw from
    /// earlier strata), so stratification is preserved.
    pub allow_recursion: bool,
}

impl Default for ProgramConfig {
    fn default() -> Self {
        ProgramConfig {
            strata: 2,
            rules_per_stratum: 2,
            allow_equations: true,
            allow_negation: true,
            allow_arity: true,
            allow_recursion: false,
        }
    }
}

/// A defect [`ProgramGenerator::random_program_with_defects`] injected into a
/// program, with the stable lint code `seqdl check` must report for it.
///
/// The codes are plain strings here (wgen sits below the analysis crate in
/// the dependency order); the property suite resolves them against
/// `seqdl_analysis::Lint::from_code` to keep them honest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InjectedDefect {
    /// The lint code the checker must report, e.g. `"SD-W105"`.
    pub code: &'static str,
    /// What was injected, for failure messages.
    pub description: String,
}

/// A seeded generator of random nonrecursive programs over the EDB schema
/// `{R0/1, R1/1}`.
#[derive(Clone, Debug)]
pub struct ProgramGenerator {
    seed: u64,
}

impl ProgramGenerator {
    /// A generator with the given seed.
    pub fn new(seed: u64) -> ProgramGenerator {
        ProgramGenerator { seed }
    }

    /// The EDB relations every generated program reads: `R0` and `R1`, both unary.
    pub fn edb_relations() -> Vec<(RelName, usize)> {
        vec![(RelName::new("R0"), 1), (RelName::new("R1"), 1)]
    }

    /// Generate a random safe, stratified, nonrecursive program.  The relation
    /// defined by the last rule of the last stratum is a natural "output" relation
    /// for differential tests.
    pub fn random_nonrecursive_program(&self, salt: u64, config: &ProgramConfig) -> Program {
        let config = ProgramConfig {
            allow_recursion: false,
            ..*config
        };
        self.random_program(salt, &config)
    }

    /// Generate a random safe, stratified, *terminating* program; with
    /// [`ProgramConfig::allow_recursion`] set, strata may contain
    /// suffix-consuming recursive rules.
    pub fn random_program(&self, salt: u64, config: &ProgramConfig) -> Program {
        let mut rng =
            StdRng::seed_from_u64(self.seed.wrapping_mul(0x51_7C_C1_B7_27_22_0A_95) ^ salt);
        // Relations available to rule bodies: the EDB plus the heads of *earlier*
        // strata (never the current one, so the program is nonrecursive and
        // trivially stratified even with negation).
        let mut available: Vec<(RelName, usize)> = Self::edb_relations();
        let mut strata = Vec::new();

        for stratum_index in 0..config.strata.max(1) {
            let mut rules = Vec::new();
            let mut defined_here: Vec<(RelName, usize)> = Vec::new();
            for rule_index in 0..config.rules_per_stratum.max(1) {
                let head_arity = if config.allow_arity && rng.gen_bool(0.4) {
                    2
                } else {
                    1
                };
                let head_relation = RelName::new(&format!("S{stratum_index}_{rule_index}"));
                let rule =
                    self.random_rule(&mut rng, config, &available, head_relation, head_arity);
                defined_here.push((head_relation, head_arity));
                rules.push(rule);
            }
            // Optionally close one unary head of this stratum under suffixes with
            // a recursive rule, or sometimes two of them mutually (see
            // `allow_recursion`).  The body predicate binds both variables, so
            // the rule is safe; derivations only shorten paths, so it terminates.
            if config.allow_recursion && rng.gen_bool(0.6) {
                let mut unary = defined_here.iter().filter(|(_, a)| *a == 1).map(|r| r.0);
                if let Some(h1) = unary.next() {
                    let h2 = unary.next().filter(|_| rng.gen_bool(0.5)).unwrap_or(h1);
                    let (u, y) = (Var::atom("ru"), Var::path("ry"));
                    let suffix = PathExpr::from_terms([Term::Var(u), Term::Var(y)]);
                    let mut loops = vec![(h1, h2), (h2, h1)];
                    loops.dedup(); // a self-loop once
                    for (head, body) in loops {
                        rules.push(Rule::new(
                            Predicate::new(head, vec![PathExpr::var(y)]),
                            vec![Literal::pred(Predicate::new(body, vec![suffix.clone()]))],
                        ));
                    }
                }
            }
            available.extend(defined_here);
            strata.push(Stratum::new(rules));
        }
        Program::new(strata)
    }

    /// Generate a random program and inject three known defects into it: a
    /// dead rule (fresh head relation `Dead0` nothing reads), a duplicate of
    /// the last rule with freshly renamed variables, and a rule carrying a
    /// variable that occurs only once (`Lint0`).  Returns the program plus
    /// the lint codes `seqdl check` must report for the injections.
    ///
    /// The injected rules derive only fresh relations (or repeat an existing
    /// rule), so the program's output relation — the head of the last
    /// pre-injection rule, which the duplicate preserves — computes exactly
    /// what the clean program computes.
    pub fn random_program_with_defects(
        &self,
        salt: u64,
        config: &ProgramConfig,
    ) -> (Program, Vec<InjectedDefect>) {
        let mut program = self.random_program(salt, config);
        let mut defects = Vec::new();

        // Dead rule: a fresh relation nothing reads, prepended to the first
        // stratum so the natural output (last rule of the last stratum) keeps
        // its position.
        let v = Var::path("dead0");
        let dead = Rule::new(
            Predicate::new(RelName::new("Dead0"), vec![PathExpr::var(v)]),
            vec![Literal::pred(Predicate::new(
                RelName::new("R0"),
                vec![PathExpr::var(v)],
            ))],
        );
        defects.push(InjectedDefect {
            code: "SD-W101",
            description: format!("dead rule {dead}"),
        });
        defects.push(InjectedDefect {
            code: "SD-W102",
            description: "dead relation Dead0".to_string(),
        });
        program.strata[0].rules.insert(0, dead);

        // Unused variable: $unused0 occurs exactly once.  The rule is dead
        // too (nothing reads Lint0), but the variable lint is what it is for.
        let x = Var::path("lx");
        let unused = Var::path("unused0");
        let lint = Rule::new(
            Predicate::new(RelName::new("Lint0"), vec![PathExpr::var(x)]),
            vec![
                Literal::pred(Predicate::new(RelName::new("R0"), vec![PathExpr::var(x)])),
                Literal::pred(Predicate::new(
                    RelName::new("R1"),
                    vec![PathExpr::var(unused)],
                )),
            ],
        );
        defects.push(InjectedDefect {
            code: "SD-W201",
            description: format!("unused variable in {lint}"),
        });
        program.strata[0].rules.insert(1, lint);

        // Duplicate rule: repeat the output rule with renamed variables,
        // right after the original, so the last rule's head relation — the
        // natural output — is unchanged.
        if let Some(last) = program.strata.last_mut() {
            if let Some(original) = last.rules.last().cloned() {
                // Rename every variable to a fixed `dup{i}` name (Rule::
                // freshen_vars draws from a global counter, which would make
                // equal seeds produce unequal programs).
                let map: std::collections::BTreeMap<Var, Var> = original
                    .vars()
                    .into_iter()
                    .enumerate()
                    .map(|(i, v)| {
                        let name = format!("dup{i}");
                        let fresh = match v.kind {
                            seqdl_syntax::VarKind::Atom => Var::atom(&name),
                            seqdl_syntax::VarKind::Path => Var::path(&name),
                        };
                        (v, fresh)
                    })
                    .collect();
                let copy = original.rename_vars(&map);
                defects.push(InjectedDefect {
                    code: "SD-W105",
                    description: format!("duplicate of {original}"),
                });
                last.rules.push(copy);
            }
        }

        (program, defects)
    }

    /// Generate a random *goal* pattern for `relation` with the given arity:
    /// per column, one of a free path variable, a ground prefix followed by a
    /// path variable (demanding a first value), a fully ground path, or `ε`.
    /// The constants are drawn from the vocabulary the program generator and
    /// [`crate::Workloads::random_flat_instance`] use, so goals sometimes have
    /// answers and sometimes do not — both matter to differential tests.
    pub fn random_goal(&self, salt: u64, relation: RelName, arity: usize) -> Predicate {
        let mut rng =
            StdRng::seed_from_u64(self.seed.wrapping_mul(0xD1_B5_4A_32_D1_92_ED_03) ^ salt);
        let constants = ["a", "b", "c", "x0", "x1"];
        let constant =
            |rng: &mut StdRng| Term::constant(constants[rng.gen_range(0..constants.len())]);
        let args: Vec<PathExpr> = (0..arity)
            .map(|column| {
                let tail = Var::path(&format!("g{column}"));
                match rng.gen_range(0..4u8) {
                    // Free column.
                    0 => PathExpr::var(tail),
                    // Bound first value, free tail.
                    1 => {
                        let mut terms = vec![constant(&mut rng)];
                        if rng.gen_bool(0.5) {
                            terms.push(constant(&mut rng));
                        }
                        terms.push(Term::Var(tail));
                        PathExpr::from_terms(terms)
                    }
                    // Fully ground column.
                    2 => {
                        let len = rng.gen_range(1usize..=2);
                        PathExpr::from_terms((0..len).map(|_| constant(&mut rng)))
                    }
                    // The empty path.
                    _ => PathExpr::empty(),
                }
            })
            .collect();
        Predicate::new(relation, args)
    }

    fn random_rule(
        &self,
        rng: &mut StdRng,
        config: &ProgramConfig,
        available: &[(RelName, usize)],
        head_relation: RelName,
        head_arity: usize,
    ) -> Rule {
        let mut next_var = 0usize;
        let fresh = |next_var: &mut usize| {
            let v = Var::path(&format!("v{next_var}"));
            *next_var += 1;
            v
        };

        // 1–2 positive body predicates over available relations, with fresh path
        // variables as arguments (every variable is therefore limited).
        let mut body = Vec::new();
        let mut bound: Vec<Var> = Vec::new();
        let predicate_count = 1 + usize::from(rng.gen_bool(0.5));
        for _ in 0..predicate_count {
            let (relation, arity) = available[rng.gen_range(0..available.len())];
            let args: Vec<PathExpr> = (0..arity)
                .map(|_| {
                    let v = fresh(&mut next_var);
                    bound.push(v);
                    PathExpr::var(v)
                })
                .collect();
            body.push(Literal::pred(Predicate::new(relation, args)));
        }

        // Optionally decompose one bound variable with a positive equation, binding
        // two new variables (the E feature; the new variables are limited because
        // the other side of the equation is).
        if config.allow_equations && rng.gen_bool(0.6) {
            let target = bound[rng.gen_range(0..bound.len())];
            let left = fresh(&mut next_var);
            let right = fresh(&mut next_var);
            body.push(Literal::eq(
                PathExpr::var(target),
                PathExpr::var(left).concat(&PathExpr::var(right)),
            ));
            bound.push(left);
            bound.push(right);
        }

        // Optionally a negated predicate over an available relation, using already
        // bound variables only (safe) — relations come from earlier strata or the
        // EDB, so stratification is preserved.
        if config.allow_negation && rng.gen_bool(0.5) {
            let (relation, arity) = available[rng.gen_range(0..available.len())];
            let args: Vec<PathExpr> = (0..arity)
                .map(|_| PathExpr::var(bound[rng.gen_range(0..bound.len())]))
                .collect();
            body.push(Literal::not_pred(Predicate::new(relation, args)));
        }

        // Head arguments: short concatenations of bound variables and constants.
        let constants = ["a", "b", "c"];
        let head_args: Vec<PathExpr> = (0..head_arity)
            .map(|_| {
                let pieces = 1 + usize::from(rng.gen_bool(0.5));
                let terms: Vec<Term> = (0..pieces)
                    .map(|_| {
                        if rng.gen_bool(0.7) {
                            Term::Var(bound[rng.gen_range(0..bound.len())])
                        } else {
                            Term::constant(constants[rng.gen_range(0..constants.len())])
                        }
                    })
                    .collect();
                PathExpr::from_terms(terms)
            })
            .collect();

        Rule::new(Predicate::new(head_relation, head_args), body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdl_syntax::analysis::{check_safety, check_stratification, PrecedenceGraph};
    use seqdl_syntax::FeatureSet;

    #[test]
    fn generated_programs_are_safe_stratified_and_nonrecursive() {
        let generator = ProgramGenerator::new(7);
        for salt in 0..40u64 {
            let program = generator.random_nonrecursive_program(salt, &ProgramConfig::default());
            check_safety(&program)
                .unwrap_or_else(|e| panic!("salt {salt}: unsafe: {e}\n{program}"));
            check_stratification(&program)
                .unwrap_or_else(|e| panic!("salt {salt}: not stratified: {e}\n{program}"));
            assert!(
                !FeatureSet::of_program(&program).recursion,
                "salt {salt}: recursive"
            );
        }
    }

    #[test]
    fn recursive_programs_are_safe_stratified_and_sometimes_recursive() {
        let generator = ProgramGenerator::new(21);
        let config = ProgramConfig {
            allow_recursion: true,
            ..ProgramConfig::default()
        };
        let (mut saw_recursion, mut saw_mutual) = (false, false);
        for salt in 0..40u64 {
            let program = generator.random_program(salt, &config);
            check_safety(&program)
                .unwrap_or_else(|e| panic!("salt {salt}: unsafe: {e}\n{program}"));
            check_stratification(&program)
                .unwrap_or_else(|e| panic!("salt {salt}: not stratified: {e}\n{program}"));
            saw_recursion |= FeatureSet::of_program(&program).recursion;
            let condensation = PrecedenceGraph::of_program(&program).condensation();
            saw_mutual |= condensation.components.iter().any(|c| c.members.len() >= 2);
        }
        assert!(saw_recursion, "allow_recursion never produced a cycle");
        assert!(
            saw_mutual,
            "allow_recursion never produced a mutual recursion"
        );
    }

    #[test]
    fn generated_programs_respect_the_feature_switches() {
        let generator = ProgramGenerator::new(9);
        let config = ProgramConfig {
            allow_equations: false,
            allow_negation: false,
            allow_arity: false,
            ..ProgramConfig::default()
        };
        for salt in 0..20u64 {
            let program = generator.random_nonrecursive_program(salt, &config);
            let features = FeatureSet::of_program(&program);
            assert!(!features.equations, "salt {salt}");
            assert!(!features.negation, "salt {salt}");
            assert!(!features.arity, "salt {salt}");
            assert!(!features.packing, "salt {salt}");
        }
    }

    #[test]
    fn defect_injection_preserves_safety_stratification_and_the_output_rule() {
        let generator = ProgramGenerator::new(17);
        let config = ProgramConfig {
            allow_recursion: true,
            ..ProgramConfig::default()
        };
        for salt in 0..40u64 {
            let clean = generator.random_program(salt, &config);
            let (seeded, defects) = generator.random_program_with_defects(salt, &config);
            check_safety(&seeded).unwrap_or_else(|e| panic!("salt {salt}: unsafe: {e}\n{seeded}"));
            check_stratification(&seeded)
                .unwrap_or_else(|e| panic!("salt {salt}: not stratified: {e}\n{seeded}"));
            // Exactly the four designed defect codes.
            let mut codes: Vec<&str> = defects.iter().map(|d| d.code).collect();
            codes.sort_unstable();
            assert_eq!(codes, ["SD-W101", "SD-W102", "SD-W105", "SD-W201"]);
            // The natural output relation (head of the last rule) is the same
            // as in the clean program: the appended duplicate repeats it.
            let clean_out = clean.rules().last().unwrap().head.relation;
            let seeded_out = seeded.rules().last().unwrap().head.relation;
            assert_eq!(clean_out, seeded_out, "salt {salt}");
            assert_eq!(seeded.rule_count(), clean.rule_count() + 3, "salt {salt}");
        }
    }

    #[test]
    fn defect_injection_is_deterministic() {
        let generator = ProgramGenerator::new(23);
        let (a, da) = generator.random_program_with_defects(5, &ProgramConfig::default());
        let (b, db) = generator.random_program_with_defects(5, &ProgramConfig::default());
        assert_eq!(a, b);
        assert_eq!(da, db);
    }

    #[test]
    fn random_goals_cover_the_binding_patterns() {
        let generator = ProgramGenerator::new(13);
        let relation = RelName::new("S1_0");
        let (mut free, mut prefix, mut ground, mut empty) = (false, false, false, false);
        for salt in 0..60u64 {
            let goal = generator.random_goal(salt, relation, 2);
            assert_eq!(goal.relation, relation);
            assert_eq!(goal.arity(), 2);
            for arg in &goal.args {
                let vars = arg.vars();
                if arg.is_empty() {
                    empty = true;
                } else if vars.is_empty() {
                    ground = true;
                } else if arg.terms().len() == 1 {
                    free = true;
                } else {
                    prefix = true;
                }
            }
        }
        assert!(free && prefix && ground && empty, "all four patterns occur");
    }

    #[test]
    fn generation_is_deterministic_in_seed_and_salt() {
        let a = ProgramGenerator::new(3).random_nonrecursive_program(5, &ProgramConfig::default());
        let b = ProgramGenerator::new(3).random_nonrecursive_program(5, &ProgramConfig::default());
        let c = ProgramGenerator::new(4).random_nonrecursive_program(5, &ProgramConfig::default());
        assert_eq!(a, b);
        assert_ne!(a.to_string(), c.to_string());
    }

    #[test]
    fn programs_grow_with_the_configuration() {
        let generator = ProgramGenerator::new(11);
        let small = generator.random_nonrecursive_program(
            1,
            &ProgramConfig {
                strata: 1,
                rules_per_stratum: 1,
                ..ProgramConfig::default()
            },
        );
        let large = generator.random_nonrecursive_program(
            1,
            &ProgramConfig {
                strata: 3,
                rules_per_stratum: 4,
                ..ProgramConfig::default()
            },
        );
        assert_eq!(small.rule_count(), 1);
        assert_eq!(large.rule_count(), 12);
        assert_eq!(large.stratum_count(), 3);
    }
}
