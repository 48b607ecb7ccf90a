//! Textual reproduction of every figure of the paper plus the derived experiment
//! tables (ablations, engine scaling, demand-driven queries).
//!
//! Usage: `cargo run -p seqdl-bench --bin harness [--release] [--threads N] [--mem-stats]
//! [--stats-format text|json] [--profile] [--trace-out trace.json] [section…]`
//! where `section` is any of `fig1 fig2 fig3 arity equations packing folding
//! linearity reachability nfa query algebra regex termination`; with no arguments every section is printed.
//! `--threads N` sets the worker-pool size of the stratified executor columns in
//! the reachability and NFA sections (default 1; 0 = all cores).
//! `--mem-stats` appends memory-footprint columns (result facts, distinct
//! interned paths, approximate store KiB) to the reachability and NFA rows and
//! a peak-RSS footer per section; store numbers are cumulative per process.
//! `--stats-format json` appends the machine-readable evaluation-statistics
//! document (the `seqdl --stats-format json` schema) for the largest workload
//! of the reachability, NFA, and query sections; `--profile` appends the
//! per-rule hot-rules table for the same runs; `--trace-out FILE` records the
//! reachability section's largest executor run as Chrome trace-event JSON
//! (open at <https://ui.perfetto.dev>).

use seqdl_bench as drivers;
use std::time::Instant;

/// The observability add-ons requested for the reachability/NFA/query
/// sections.
struct Observability {
    json: bool,
    profile: bool,
    trace_out: Option<String>,
}

impl Observability {
    fn active(&self) -> bool {
        self.json || self.profile || self.trace_out.is_some()
    }

    /// Print the requested per-run add-ons for one labeled workload.
    fn emit(&self, label: &str, stats: &seqdl_engine::EvalStats) {
        if self.profile {
            println!("per-rule profile ({label}, hottest first):");
            let mut order: Vec<&seqdl_engine::RuleStats> = stats.rules.iter().collect();
            order.sort_by(|a, b| {
                b.wall
                    .cmp(&a.wall)
                    .then_with(|| (a.stratum, a.rule_ix).cmp(&(b.stratum, b.rule_ix)))
            });
            for r in order {
                println!(
                    "  s{}r{}: {} firing(s), {} fact(s), {:?}, {} probe(s), {} scan(s) — {}",
                    r.stratum,
                    r.rule_ix,
                    r.firings,
                    r.derived_facts,
                    r.wall,
                    r.index_probes,
                    r.scans,
                    r.rule
                );
            }
        }
        if self.json {
            println!("stats json ({label}):");
            print!(
                "{}",
                seqdl_engine::stats_json(stats, &seqdl_core::store_stats(), None)
            );
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let threads = match args.iter().position(|a| a == "--threads") {
        Some(i) => {
            let value = args.get(i + 1).and_then(|v| v.parse::<usize>().ok());
            let Some(value) = value else {
                eprintln!("--threads expects a number");
                std::process::exit(2);
            };
            args.drain(i..=i + 1);
            value
        }
        None => 1,
    };
    let mem_stats = match args.iter().position(|a| a == "--mem-stats") {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    };
    let json = match args.iter().position(|a| a == "--stats-format") {
        Some(i) => {
            let value = args.get(i + 1).cloned();
            match value.as_deref() {
                Some("json") => {
                    args.drain(i..=i + 1);
                    true
                }
                Some("text") => {
                    args.drain(i..=i + 1);
                    false
                }
                _ => {
                    eprintln!("--stats-format expects `text` or `json`");
                    std::process::exit(2);
                }
            }
        }
        None => false,
    };
    let profile = match args.iter().position(|a| a == "--profile") {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    };
    let trace_out = match args.iter().position(|a| a == "--trace-out") {
        Some(i) => {
            let Some(value) = args.get(i + 1).cloned() else {
                eprintln!("--trace-out expects a file path");
                std::process::exit(2);
            };
            args.drain(i..=i + 1);
            Some(value)
        }
        None => None,
    };
    let obs = Observability {
        json,
        profile,
        trace_out,
    };
    let args = args;
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name);

    if want("fig1") {
        section("FIG-1  Figure 1: Hasse diagram of fragment expressiveness");
        let diagram = drivers::figure1_diagram();
        println!(
            "equivalence classes over the 16 {{E,I,N,R}} fragments: {} (paper: 11)",
            diagram.classes.len()
        );
        println!(
            "equivalence classes over all 64 fragments (A, P included): {} (paper: 11, since A and P are redundant)",
            drivers::figure1_class_count_full()
        );
        println!("{}", diagram.render_text());
    }

    if want("fig2") {
        section("FIG-2  Figure 2: associative unification of  $x·<@y·$z>·@w = $u·$v·$u");
        let start = Instant::now();
        let solutions = drivers::figure2_solutions();
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
            println!("{n:>8} {a:>10} {b:>10}");
        }
    }

    if want("equations") {
        section("EXP-E  Theorem 4.7: the only-a's query in {E}, {A,I}, {A,I,R}");
        println!("{:>6} {:>8} {:>8} {:>8}", "n", "{E}", "{A,I}", "{A,I,R}");
        for n in [4usize, 16, 64] {
            let sizes = drivers::equations_ablation(n);
            println!("{:>6} {:>8} {:>8} {:>8}", n, sizes[0], sizes[1], sizes[2]);
        }
        println!("\nnegated-equation elimination (Example 4.6), output sizes before/after:");
        for n in [2usize, 3, 4] {
            let (a, b) = drivers::equation_elimination_ablation(n);
            println!("  n = {n}: {a} vs {b}");
        }
    }

    if want("packing") {
        section("EXP-P  Lemma 4.13 / Example 4.14: packing elimination (Example 2.2)");
        for hay in [6usize, 10, 14] {
            let (rules, agree) = drivers::packing_ablation(hay);
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
            println!(
                "{:>4} {:>16} {:>20} {:>16}",
                n,
                drivers::squaring_output_length(n),
                drivers::nonrecursive_output_length(n),
                drivers::lemma51_bound(&bound_program, n)
            );
        }
    }

    if want("reachability") {
        section("EXP-B  Section 5.1.1: graph reachability, exec(1) vs exec(N)");
        let mem_cols = if mem_stats {
            format!(" {:>9} {:>9} {:>10}", "facts", "paths", "store KiB")
        } else {
            String::new()
        };
        println!(
            "{:>8} {:>8} {:>12} {:>12}{mem_cols}",
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
            let semi_result = drivers::reachability_result(nodes, edges, 1);
            let t_semi = t1.elapsed();
            let semi = drivers::reachability_answer(&semi_result);
            let t2 = Instant::now();
            let parallel =
                drivers::reachability_answer(&drivers::reachability_result(nodes, edges, threads));
            let t_exec = t2.elapsed();
            assert_eq!(
                semi, parallel,
                "the answer must not depend on the thread count"
            );
            let mem_cols = if mem_stats {
                let m = drivers::mem_snapshot(&semi_result);
                format!(
                    " {:>9} {:>9} {:>10}",
                    m.facts,
                    m.distinct_paths,
                    m.store_bytes / 1024
                )
            } else {
                String::new()
            };
            println!(
                "{nodes:>8} {edges:>8} {:>12?} {:>12?}{mem_cols}   (reachable: {semi})",
                t_semi, t_exec
            );
        }
        if mem_stats {
            println!("peak RSS: {} KiB", drivers::peak_rss_kib());
        }
        if obs.active() {
            // One extra run of the largest workload with the add-ons applied:
            // the trace session wraps exactly this run, so the exported spans
            // show one executor schedule with real thread ids.
            let trace = obs
                .trace_out
                .as_ref()
                .map(|p| (p.clone(), seqdl_trace::start()));
            let (_, stats) = drivers::reachability_exec_stats(128, 1024, threads);
            if let Some((path, session)) = trace {
                let events = session.finish();
                std::fs::write(&path, seqdl_trace::chrome_trace_json(&events))
                    .expect("write trace file");
                println!("trace: {} event(s) written to {path}", events.len());
            }
            obs.emit(&format!("reachability 128x1024, exec({threads})"), &stats);
        }
    }

    if want("nfa") {
        section("EXP-NFA  Example 2.1: NFA acceptance, exec(1) vs exec(N)");
        let mem_cols = if mem_stats {
            format!(" {:>9} {:>9} {:>10}", "facts", "paths", "store KiB")
        } else {
            String::new()
        };
        println!(
            "{:>8} {:>8} {:>10} {:>12} {:>12}{mem_cols}",
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
            let semi_result = drivers::nfa_result(states, words, len, 1);
            let t_semi = t1.elapsed();
            let b = drivers::nfa_answer(&semi_result);
            let t2 = Instant::now();
            let c = drivers::nfa_answer(&drivers::nfa_result(states, words, len, threads));
            let t_exec = t2.elapsed();
            assert_eq!(b, c, "the answer must not depend on the thread count");
            let mem_cols = if mem_stats {
                let m = drivers::mem_snapshot(&semi_result);
                format!(
                    " {:>9} {:>9} {:>10}",
                    m.facts,
                    m.distinct_paths,
                    m.store_bytes / 1024
                )
            } else {
                String::new()
            };
            println!(
                "{states:>8} {words:>8} {len:>10} {:>12?} {:>12?}{mem_cols}   (accepted: {b})",
                t_semi, t_exec
            );
        }
        if mem_stats {
            println!("peak RSS: {} KiB", drivers::peak_rss_kib());
        }
        if obs.json || obs.profile {
            let (_, stats) = drivers::nfa_exec_stats(16, 48, 64, threads);
            obs.emit(&format!("nfa 16x64, exec({threads})"), &stats);
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
        if obs.json || obs.profile {
            let (_, stats) = drivers::reachability_query_demanded(128, 1024, threads);
            obs.emit(&format!("query demanded 128x1024, exec({threads})"), &stats);
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
            println!("{nodes:>8} {edges:>8} {a:>10} {b:>10}");
        }
    }
}

fn section(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}
