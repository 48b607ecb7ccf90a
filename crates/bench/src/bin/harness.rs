//! Textual reproduction of every figure of the paper plus the derived experiment
//! tables (ablations, engine scaling, demand-driven queries).
//!
//! Usage: `cargo run -p seqdl-bench --bin harness [--release] [--threads N] [section…]`
//! where `section` is any of `fig1 fig2 fig3 arity equations packing folding
//! linearity reachability nfa query regex termination algebra`; with no
//! sections every section is printed.  `--threads N` sets the worker-pool size
//! of the executor runs in the reachability, NFA and query sections (default 1;
//! 0 = all cores; at most [`seqdl_exec::MAX_THREADS`]).  Any other argument
//! exits with status 2 and the usage line.  Sections assert what the paper
//! predicts: Figure 1's 11 classes and Figure 2's 4 solutions, every rewritten
//! program answering as its original, Example 4.14's 28 rules, squaring's n²
//! output against the Lemma 5.1 bound, Datalog agreeing with the algebra,
//! Example 2.3 left uncertified, answers independent of the thread count,
//! demanded answers equal to full-run-then-filter, and a compiled regex
//! equivalent to its NFA.  Timings are indicative only; the performance record
//! is perfbench.

use seqdl_bench as drivers;
use std::time::Instant;

/// Every section, in the order the harness prints them.
const SECTIONS: [&str; 14] = [
    "fig1",
    "fig2",
    "fig3",
    "arity",
    "equations",
    "packing",
    "folding",
    "linearity",
    "reachability",
    "nfa",
    "query",
    "regex",
    "termination",
    "algebra",
];

/// Parse `[--threads N] [section…]` into the thread count and the requested
/// sections (empty = all).
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<(usize, Vec<String>), String> {
    let mut args = args.into_iter();
    let mut threads = 1;
    let mut sections = Vec::new();
    while let Some(arg) = args.next() {
        if arg == "--threads" {
            threads = args
                .next()
                .and_then(|v| v.parse::<usize>().ok())
                .ok_or("--threads expects a number")?;
            if threads > seqdl_exec::MAX_THREADS {
                return Err(format!(
                    "--threads must be at most {} (0 = all available cores), got {threads}",
                    seqdl_exec::MAX_THREADS
                ));
            }
        } else if SECTIONS.contains(&arg.as_str()) {
            sections.push(arg);
        } else {
            return Err(format!("unknown argument `{arg}`"));
        }
    }
    Ok((threads, sections))
}

fn main() {
    let (threads, sections) = parse_args(std::env::args().skip(1)).unwrap_or_else(|message| {
        eprintln!(
            "harness: {message}\nusage: harness [--threads N] [section…]\nsections: {}",
            SECTIONS.join(" ")
        );
        std::process::exit(2);
    });
    let want = |name: &str| sections.is_empty() || sections.iter().any(|s| s == name);

    if want("fig1") {
        section("FIG-1  Figure 1: Hasse diagram of fragment expressiveness");
        let diagram = drivers::figure1_diagram();
        let full = drivers::figure1_class_count_full();
        assert_eq!(diagram.classes.len(), 11, "Figure 1 has 11 classes");
        assert_eq!(full, 11, "A and P add no class to Figure 1");
        println!(
            "equivalence classes over the 16 {{E,I,N,R}} fragments: {} (paper: 11)",
            diagram.classes.len()
        );
        println!(
            "equivalence classes over all 64 fragments (A, P included): {full} (paper: 11, since A and P are redundant)"
        );
        println!("{}", diagram.render_text());
    }

    if want("fig2") {
        section("FIG-2  Figure 2: associative unification of  $x·<@y·$z>·@w = $u·$v·$u");
        let start = Instant::now();
        let solutions = drivers::figure2_solutions();
        assert_eq!(solutions.solutions.len(), 4, "Figure 2 has 4 solutions");
        assert_eq!(
            solutions.tree.success_count(),
            4,
            "Figure 2 has 4 successful branches"
        );
        println!(
            "search tree: {} nodes, {} successful branches (paper: 4), {} failure leaves  [{:?}]",
            solutions.tree.len(),
            solutions.tree.success_count(),
            solutions.tree.failure_count(),
            start.elapsed()
        );
        println!("complete set of symbolic solutions (paper lists 4):");
        for s in &solutions.solutions {
            println!("  {s}");
        }
        println!("\nunification scaling ($x1·…·$xk = a^n, number of symbolic solutions):");
        println!("{:>4} {:>4} {:>12}", "k", "n", "solutions");
        for k in [2usize, 3, 4] {
            for n in [4usize, 8, 12] {
                println!(
                    "{:>4} {:>4} {:>12}",
                    k,
                    n,
                    drivers::unify_split_family(k, n)
                );
            }
        }
    }

    if want("fig3") {
        section("FIG-3  Theorem 6.1: deciding F1 ≤ F2 for all 64×64 fragment pairs");
        let start = Instant::now();
        let subsumed = drivers::figure3_decide_all();
        println!("subsumed pairs: {subsumed} / 4096  [{:?}]", start.elapsed());
    }

    if want("arity") {
        section("EXP-A  Theorem 4.2: arity elimination (reversal query, Example 4.3)");
        println!("{:>8} {:>10} {:>10}", "max len", "original", "rewritten");
        for n in [4usize, 8, 16] {
            let (a, b) = drivers::arity_ablation(n);
            assert_eq!(a, b, "arity elimination must keep the answers");
            println!("{n:>8} {a:>10} {b:>10}");
        }
    }

    if want("equations") {
        section("EXP-E  Theorem 4.7: the only-a's query in {E}, {A,I}, {A,I,R}");
        println!("{:>6} {:>8} {:>8} {:>8}", "n", "{E}", "{A,I}", "{A,I,R}");
        for n in [4usize, 16, 64] {
            let sizes = drivers::equations_ablation(n);
            assert!(
                sizes.iter().all(|&size| size == sizes[0]),
                "the three fragments must compute the same query"
            );
            println!("{:>6} {:>8} {:>8} {:>8}", n, sizes[0], sizes[1], sizes[2]);
        }
        println!("\nnegated-equation elimination (Example 4.6), output sizes before/after:");
        for n in [2usize, 3, 4] {
            let (a, b) = drivers::equation_elimination_ablation(n);
            assert_eq!(a, b, "equation elimination must keep the answers");
            println!("  n = {n}: {a} vs {b}");
        }
    }

    if want("packing") {
        section("EXP-P  Lemma 4.13 / Example 4.14: packing elimination (Example 2.2)");
        for hay in [6usize, 10, 14] {
            let (rules, agree) = drivers::packing_ablation(hay);
            assert_eq!(rules, 28, "Example 4.14 has 28 rules");
            assert!(agree, "packing elimination must keep the answer");
            println!(
                "haystack length {hay:>3}: rewritten program has {rules} rules (paper: 28); answers agree: {agree}"
            );
        }
    }

    if want("folding") {
        section("EXP-I  Theorem 4.16: intermediate-predicate folding");
        println!(
            "{:>8} {:>8} {:>10} {:>10}",
            "strings", "max len", "original", "folded"
        );
        for (s, l) in [(4usize, 4usize), (8, 6), (16, 8)] {
            let (a, b) = drivers::folding_ablation(s, l);
            assert_eq!(a, b, "folding must keep the answers");
            println!("{s:>8} {l:>8} {a:>10} {b:>10}");
        }
    }

    if want("linearity") {
        section("EXP-L  Lemma 5.1 vs Theorem 5.3: output-length growth on R(a^n)");
        println!(
            "{:>4} {:>16} {:>20} {:>16}",
            "n", "squaring (n^2)", "nonrecursive output", "Lemma 5.1 bound"
        );
        let bound_program = seqdl_fragments::witnesses::only_as_equation().program;
        for n in [2usize, 4, 8, 16] {
            let squaring = drivers::squaring_output_length(n);
            let nonrecursive = drivers::nonrecursive_output_length(n);
            let bound = drivers::lemma51_bound(&bound_program, n);
            assert_eq!(squaring, n * n, "squaring outputs a^(n²)");
            assert!(
                nonrecursive <= bound,
                "Lemma 5.1 bounds nonrecursive output"
            );
            println!("{n:>4} {squaring:>16} {nonrecursive:>20} {bound:>16}");
        }
    }

    if want("reachability") {
        section("EXP-B  Section 5.1.1: graph reachability, exec(1) vs exec(N)");
        println!(
            "{:>8} {:>8} {:>12} {:>12}",
            "nodes",
            "edges",
            "exec(1)",
            format!("exec({threads})")
        );
        for (nodes, edges) in [
            (8usize, 16usize),
            (16, 48),
            (32, 128),
            (64, 384),
            (128, 1024),
        ] {
            let t1 = Instant::now();
            let semi = drivers::reachability_run(nodes, edges, 1);
            let t_semi = t1.elapsed();
            let t2 = Instant::now();
            let parallel = drivers::reachability_run(nodes, edges, threads);
            let t_exec = t2.elapsed();
            assert_eq!(
                semi, parallel,
                "the answer must not depend on the thread count"
            );
            println!(
                "{nodes:>8} {edges:>8} {:>12?} {:>12?}   (reachable: {semi})",
                t_semi, t_exec
            );
        }
    }

    if want("nfa") {
        section("EXP-NFA  Example 2.1: NFA acceptance, exec(1) vs exec(N)");
        println!(
            "{:>8} {:>8} {:>10} {:>12} {:>12}",
            "states",
            "words",
            "word len",
            "exec(1)",
            format!("exec({threads})")
        );
        for (states, words, len) in [
            (3usize, 8usize, 8usize),
            (5, 8, 16),
            (8, 16, 24),
            (12, 32, 40),
            (16, 48, 64),
        ] {
            let t1 = Instant::now();
            let b = drivers::nfa_run(states, words, len, 1);
            let t_semi = t1.elapsed();
            let t2 = Instant::now();
            let c = drivers::nfa_run(states, words, len, threads);
            let t_exec = t2.elapsed();
            assert_eq!(b, c, "the answer must not depend on the thread count");
            println!(
                "{states:>8} {words:>8} {len:>10} {:>12?} {:>12?}   (accepted: {b})",
                t_semi, t_exec
            );
        }
    }

    if want("query") {
        section("EXP-Q  Demand-driven query evaluation: T(a·$y) on §5.1.1 reachability");
        println!(
            "{:>8} {:>8} {:>12} {:>12} {:>12} {:>12} {:>9}",
            "nodes", "edges", "full", "full fires", "demanded", "dem. fires", "answers"
        );
        for (nodes, edges) in [
            (8usize, 16usize),
            (16, 48),
            (32, 128),
            (64, 384),
            (128, 1024),
        ] {
            let t0 = Instant::now();
            let (full_answers, full_stats) =
                drivers::reachability_query_full(nodes, edges, threads);
            let t_full = t0.elapsed();
            let t1 = Instant::now();
            let (demanded_answers, demanded_stats) =
                drivers::reachability_query_demanded(nodes, edges, threads);
            let t_demanded = t1.elapsed();
            assert_eq!(
                full_answers, demanded_answers,
                "demanded answers must equal full-run-then-filter"
            );
            assert!(
                demanded_stats.rule_firings <= full_stats.rule_firings,
                "demand must not fire more rules"
            );
            println!(
                "{nodes:>8} {edges:>8} {t_full:>12?} {:>12} {t_demanded:>12?} {:>12} {:>9}",
                full_stats.rule_firings, demanded_stats.rule_firings, full_answers
            );
        }
    }

    if want("regex") {
        section("EXP-RX  Regular expressions compiled to Sequence Datalog (Section 1 remark)");
        println!("pattern: {}", drivers::regex_pattern());
        println!(
            "{:>8} {:>8} {:>18} {:>18}",
            "strings", "max len", "compiled datalog", "NFA simulation"
        );
        for (strings, len) in [(16usize, 12usize), (32, 16), (48, 24)] {
            let t0 = Instant::now();
            let a = drivers::regex_datalog_run(strings, len);
            let t_datalog = t0.elapsed();
            let t1 = Instant::now();
            let b = drivers::regex_nfa_run(strings, len);
            let t_nfa = t1.elapsed();
            assert_eq!(a, b, "compiled program and NFA must agree");
            println!(
                "{strings:>8} {len:>8} {:>18?} {:>18?}   (matches: {a})",
                t_datalog, t_nfa
            );
        }
    }

    if want("termination") {
        section("EXP-T  Conservative termination analysis (Section 2.3 discussion)");
        let (certified, total) = drivers::termination_survey();
        assert!(certified < total, "Example 2.3 must stay uncertified");
        println!(
            "certified {certified} of {total} programs (the witness programs terminate; Example 2.3 is refused)"
        );
    }

    if want("algebra") {
        section("EXP-RA  Theorem 7.1 / Lemma 7.2: Datalog vs sequence relational algebra");
        println!(
            "normal form of the Section 5.2 program: {} rules (all in Lemma 7.2 shapes)",
            drivers::normal_form_size()
        );
        println!(
            "{:>8} {:>8} {:>10} {:>10}",
            "nodes", "edges", "datalog", "algebra"
        );
        for (nodes, edges) in [(6usize, 10usize), (10, 20), (14, 30)] {
            let (a, b) = drivers::algebra_roundtrip(nodes, edges);
            assert_eq!(a, b, "Datalog and the algebra must agree");
            println!("{nodes:>8} {edges:>8} {a:>10} {b:>10}");
        }
    }
}

fn section(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}
