//! The subcommand implementations.

use crate::args::{edit_distance, ArgError, Flags};
use seqdl_algebra::datalog_to_algebra;
use seqdl_analysis::{check_json, check_program, render_text, CheckOptions, Severity};
use seqdl_core::{Instance, Path, RelName, Relation, Renderer};
use seqdl_engine::EvalLimits;
use seqdl_exec::{Executor, MAX_THREADS};
use seqdl_fragments::{rewrite_into, Feature, Fragment, HasseDiagram};
use seqdl_io::{load_instance, load_program};
use seqdl_regex::{compile_contains, compile_match, parse_regex, CompileOptions};
use seqdl_rewrite::{
    eliminate_arity, eliminate_equations, eliminate_packing_nonrecursive,
    fold_intermediate_predicates, goal_matches, magic, parse_goal, to_normal_form,
};
use seqdl_syntax::{parse_expr, Equation, PrecedenceGraph, Program};
use seqdl_unify::{is_one_sided_nonlinear, solve, solve_allowing_empty, SolveOptions};
use std::fmt;
use std::fmt::Write as _;
use std::io::Write as _;

/// Errors surfaced to the user by the CLI.
#[derive(Debug)]
pub enum CliError {
    /// Bad command-line arguments.
    Args(ArgError),
    /// An unknown subcommand.
    UnknownCommand(String),
    /// Anything that went wrong while executing the command (file, parse,
    /// evaluation, or rewrite errors), already rendered.
    Command(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::UnknownCommand(name) => {
                write!(f, "unknown command `{name}`; run `seqdl help` for usage")
            }
            CliError::Command(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

fn command_error(e: impl fmt::Display) -> CliError {
    CliError::Command(e.to_string())
}

/// The `seqdl help` text.
pub fn help_text() -> String {
    concat!(
        "seqdl — Sequence Datalog for sequence databases (PODS 2021 reproduction)\n",
        "\n",
        "Usage:\n",
        "  seqdl run         --program q.sdl --instance db.sdi [--output S] [--threads N]\n",
        "                    [--shard-size N] [--max-iterations N] [--max-facts N]\n",
        "                    [--max-path-len N] [--timeout 50ms|2s] [--max-store-bytes 64m]\n",
        "                    [--stats] [--profile] [--stats-format text|json]\n",
        "                    [--trace-out trace.json] [--save out.sdi]\n",
        "  seqdl query       --program q.sdl --instance db.sdi --goal \"Reach(a·b·$x)?\"\n",
        "                    [--threads N] [--timeout 50ms] [--stats] [--profile]\n",
        "                    [--stats-format text|json] [--trace-out trace.json] [--show-rewrite]\n",
        "                    (demand-driven: only rules relevant to the goal fire, via the\n",
        "                    magic-set rewrite)\n",
        "  seqdl check       --program q.sdl [--instance db.sdi] [--output S] [--format text|json]\n",
        "                    [--deny warnings]\n",
        "  seqdl analyze     --program q.sdl [--show-ram]\n",
        "  seqdl termination --program q.sdl\n",
        "  seqdl rewrite     --program q.sdl --eliminate arity|equations|packing|intermediate [--output S]\n",
        "  seqdl normalize   --program q.sdl\n",
        "  seqdl algebra     --program q.sdl --output S\n",
        "  seqdl fragment    --program q.sdl --target EINR --output S\n",
        "  seqdl hasse       [--dot] [--all]\n",
        "  seqdl unify       --equation \"lhs = rhs\" [--allow-empty] [--dot]\n",
        "  seqdl regex       --pattern \"a (b|c)*\" [--contains] [--instance db.sdi] [--input R] [--output Match]\n",
        "  seqdl help\n",
        "\n",
        "Programs are .sdl files (Sequence Datalog source); instances are .sdi files\n",
        "(ground facts, one per line).  See the repository README for the syntax.\n",
        "\n",
        "Static analysis: `seqdl check` runs the lint pipeline (dead rules,\n",
        "always-false bodies, duplicate and subsumed rules, variable hygiene,\n",
        "divergence risk) and reports findings with stable codes (SD-E…, SD-W…,\n",
        "SD-I…).  `--deny warnings` exits nonzero on any warning; `--format json`\n",
        "emits a versioned machine-readable document.  A program may annotate\n",
        "intentional findings with `% expect: SD-W101` comment lines — expected\n",
        "codes do not fail `--deny warnings`, and an expected code that does NOT\n",
        "fire is an error.  `run` and `query` print the same warnings to stderr\n",
        "as a pre-flight and prune rules that cannot contribute to the output\n",
        "before evaluation (disable with `--no-strip-dead`; `--save` also\n",
        "disables the pruning, since it must materialise every relation).\n",
        "\n",
        "Rules are compiled to a flat RAM-style instruction program\n",
        "(`seqdl analyze --show-ram` prints the listing).\n",
        "\n",
        "Resource governance: `--timeout D` imposes a wall-clock deadline (bare\n",
        "numbers are milliseconds; `ms`/`s`/`m` suffixes accepted), and\n",
        "`--max-store-bytes N` bounds the path store's growth (`k`/`m`/`g`\n",
        "suffixes accepted).  A run stopped by either — or by Ctrl-C — exits\n",
        "nonzero and reports the statistics accumulated up to that point.\n",
        "\n",
        "Parallelism: `--threads N` evaluates with N compute threads (1, the\n",
        "default, runs in place; 0 uses all available cores; at most 256).\n",
        "The output is identical at every thread count.\n",
        "\n",
        "Observability: `--stats` prints evaluation counters with per-stratum\n",
        "wall percentages and the path store's size; `--profile` prints a\n",
        "hot-rules table (per-rule firings, derived facts, wall time, and\n",
        "index counters, hottest first); `--stats-format json` replaces the\n",
        "text block with a stable JSON document (outcome, totals, strata,\n",
        "per-rule profile, store) that the bench harness consumes; and\n",
        "`--trace-out FILE` records the run's spans (run → stratum → round →\n",
        "rule, with real thread ids) as Chrome trace-event JSON — open it at\n",
        "https://ui.perfetto.dev or chrome://tracing.\n",
    )
    .to_string()
}

/// Dispatch a single subcommand.
///
/// # Errors
/// Propagates argument, file, parse, and evaluation errors as [`CliError`].
pub fn run_command(command: &str, flags: &Flags) -> Result<String, CliError> {
    match command {
        "help" | "--help" | "-h" => Ok(help_text()),
        "run" => cmd_run(flags),
        "query" => cmd_query(flags),
        "check" => cmd_check(flags),
        "analyze" | "analyse" => cmd_analyze(flags),
        "termination" => cmd_termination(flags),
        "rewrite" => cmd_rewrite(flags),
        "normalize" | "normalise" => cmd_normalize(flags),
        "algebra" => cmd_algebra(flags),
        "fragment" => cmd_fragment(flags),
        "hasse" => cmd_hasse(flags),
        "unify" => cmd_unify(flags),
        "regex" => cmd_regex(flags),
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

fn load_program_flag(flags: &Flags) -> Result<Program, CliError> {
    let path = flags.require("program")?;
    load_program(path).map_err(command_error)
}

fn load_instance_flag(flags: &Flags) -> Result<Instance, CliError> {
    let path = flags.require("instance")?;
    load_instance(path).map_err(command_error)
}

fn output_relation(flags: &Flags, program: &Program) -> Result<RelName, CliError> {
    if let Some(name) = flags.get("output") {
        return Ok(RelName::new(name));
    }
    // Default: the single IDB relation of the last stratum's last rule.
    program
        .strata
        .last()
        .and_then(|s| s.rules.last())
        .map(|r| r.head.relation)
        .ok_or_else(|| CliError::Command("program has no rules; pass --output explicitly".into()))
}

/// Parse a `--timeout` value: a bare number means milliseconds; `ms`, `s`,
/// and `m` suffixes are accepted (`50ms`, `2s`, `1m`).
fn parse_timeout(value: &str) -> Result<std::time::Duration, CliError> {
    let value = value.trim();
    let (number, scale_ms) = if let Some(n) = value.strip_suffix("ms") {
        (n, 1u64)
    } else if let Some(n) = value.strip_suffix('s') {
        (n, 1_000)
    } else if let Some(n) = value.strip_suffix('m') {
        (n, 60_000)
    } else {
        (value, 1)
    };
    number
        .trim()
        .parse::<u64>()
        .ok()
        .and_then(|n| n.checked_mul(scale_ms))
        .map(std::time::Duration::from_millis)
        .ok_or_else(|| {
            CliError::Command(format!(
                "--timeout expects a duration like `500`, `50ms`, `2s`, or `1m`, got `{value}`"
            ))
        })
}

/// Parse a `--max-store-bytes` value: a bare number is bytes; `k`/`kb`,
/// `m`/`mb`, and `g`/`gb` suffixes scale by powers of 1024.
fn parse_bytes(value: &str) -> Result<usize, CliError> {
    let value = value.trim();
    let lower = value.to_ascii_lowercase();
    let (number, scale) = if let Some(n) = lower.strip_suffix("kb").or(lower.strip_suffix('k')) {
        (n.to_string(), 1usize << 10)
    } else if let Some(n) = lower.strip_suffix("mb").or(lower.strip_suffix('m')) {
        (n.to_string(), 1 << 20)
    } else if let Some(n) = lower.strip_suffix("gb").or(lower.strip_suffix('g')) {
        (n.to_string(), 1 << 30)
    } else {
        (lower, 1)
    };
    number
        .trim()
        .parse::<usize>()
        .map(|n| n.saturating_mul(scale))
        .map_err(|_| {
            CliError::Command(format!(
                "--max-store-bytes expects a size like `1048576`, `64k`, or `4m`, got `{value}`"
            ))
        })
}

/// The executor configured by the flags: limits and the Ctrl-C token plus
/// `--threads N` (1 = in place, 0 = all available cores, at most
/// [`MAX_THREADS`]) and `--shard-size N` (base delta tuples per parallel
/// shard).
fn executor_from_flags(flags: &Flags) -> Result<Executor, CliError> {
    let mut limits = EvalLimits::default();
    if let Some(n) = flags.get_usize("max-iterations")? {
        limits.max_iterations = n;
    }
    if let Some(n) = flags.get_usize("max-facts")? {
        limits.max_facts = n;
    }
    if let Some(n) = flags.get_usize("max-path-len")? {
        limits.max_path_len = n;
    }
    if let Some(value) = flags.get("timeout") {
        limits.deadline = Some(parse_timeout(value)?);
    }
    if let Some(value) = flags.get("max-store-bytes") {
        limits.max_store_bytes = Some(parse_bytes(value)?);
    }
    let threads = flags.get_usize("threads")?.unwrap_or(1);
    if threads > MAX_THREADS {
        return Err(CliError::Command(format!(
            "--threads must be at most {MAX_THREADS} (0 = all available cores), got {threads}"
        )));
    }
    let mut executor = Executor::new()
        .with_limits(limits)
        // Ctrl-C cancels a running evaluation at the next governor checkpoint
        // instead of killing the process: the run returns with partial stats.
        .with_cancel_token(seqdl_core::CancelToken::linked_to(&crate::INTERRUPTED))
        .with_threads(threads);
    if let Some(shard) = flags.get_usize("shard-size")? {
        executor = executor.with_shard_size(shard);
    }
    Ok(executor)
}

/// Every relation name known to the program or the instance.
fn known_relations(program: &Program, instance: &Instance) -> Vec<RelName> {
    let mut known: Vec<RelName> = program.all_relations().into_iter().collect();
    for name in instance.relation_names_iter() {
        if !known.contains(&name) {
            known.push(name);
        }
    }
    known
}

/// A [`CliError`] for a relation name that appears nowhere in the program or
/// the instance, with a did-you-mean suggestion when a known name is close.
fn unknown_relation_error(name: RelName, known: &[RelName]) -> CliError {
    let suggestion = known
        .iter()
        .map(|k| {
            // Case-insensitive matches outrank near-misses by edit distance.
            let rank = if k.name().eq_ignore_ascii_case(&name.name()) {
                0
            } else {
                edit_distance(&name.name(), &k.name())
            };
            (rank, *k)
        })
        .filter(|(rank, _)| *rank <= 2)
        .min_by_key(|(rank, _)| *rank)
        .map(|(_, k)| format!("; did you mean `{k}`?"))
        .unwrap_or_default();
    CliError::Command(format!(
        "unknown relation `{name}`: it appears nowhere in the program or the instance{suggestion}"
    ))
}

/// The rendering requested by `--stats-format` (the default is the historical
/// human-readable block).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StatsFormat {
    Text,
    Json,
}

fn stats_format(flags: &Flags) -> Result<StatsFormat, CliError> {
    match flags.get("stats-format") {
        None | Some("text") => Ok(StatsFormat::Text),
        Some("json") => Ok(StatsFormat::Json),
        Some(other) => Err(CliError::Command(format!(
            "unknown stats format `{other}` (expected `text` or `json`)"
        ))),
    }
}

/// A tracing session opened for `--trace-out FILE`, carried across the run so
/// the Chrome trace-event JSON is written whether the run succeeds or fails.
struct TraceCapture {
    path: String,
    session: seqdl_trace::Session,
}

fn start_trace(flags: &Flags) -> Option<TraceCapture> {
    flags.get("trace-out").map(|path| TraceCapture {
        path: path.to_string(),
        session: seqdl_trace::start(),
    })
}

impl TraceCapture {
    /// Stop recording, write the trace file, and return a one-line note for
    /// the report.
    fn write(self) -> Result<String, CliError> {
        let events = self.session.finish();
        std::fs::write(&self.path, seqdl_trace::chrome_trace_json(&events))
            .map_err(|e| CliError::Command(format!("cannot write {}: {e}", self.path)))?;
        Ok(format!(
            "trace: {} event(s) written to {}",
            events.len(),
            self.path
        ))
    }
}

/// Render an evaluation error from `run`/`query`, appending the partial
/// statistics a cancelled run accumulated before it stopped — so a `--timeout`
/// or Ctrl-C still reports how far the evaluation got (and the process exits
/// nonzero).  Under `--stats-format json` the partial statistics and the
/// outcome (`cancelled`/`limit`/`error`) are appended as the same JSON
/// document a successful run would print, so tooling parses failures too.
fn eval_error_report(
    executor: &Executor,
    error: &seqdl_engine::EvalError,
    format: StatsFormat,
) -> CliError {
    let mut message = error.to_string();
    match format {
        StatsFormat::Json => {
            let default_stats = seqdl_engine::EvalStats::default();
            let stats = error.partial_stats().unwrap_or(&default_stats);
            message.push('\n');
            message.push_str(&seqdl_engine::stats_json(
                stats,
                &seqdl_core::store_stats(),
                Some(error),
            ));
        }
        StatsFormat::Text => {
            if let Some(stats) = error.partial_stats() {
                message.push_str("\npartial progress at cancellation:\n");
                write_stats(&mut message, executor, stats);
            }
        }
    }
    // The stats block ends with a newline; the CLI error printer adds its
    // own, so trim the trailing one.
    while message.ends_with('\n') {
        message.pop();
    }
    CliError::Command(message)
}

/// Append the `--stats` block shared by `run` and `query`.
fn write_stats(report: &mut String, executor: &Executor, stats: &seqdl_engine::EvalStats) {
    writeln!(
        report,
        "threads: {}, shard size: {} (≤ {} shards per delta), iterations: {}, derived facts: {}, rule firings: {}",
        executor.effective_threads(),
        executor.shard_size(),
        executor.max_delta_shards(),
        stats.iterations,
        stats.derived_facts,
        stats.rule_firings
    )
    .expect("write to string");
    // Attribute index effectiveness: predicate steps answered by a column's
    // first-value index vs. relation scans.  For `query`, this is what shows
    // a demand-driven win coming from probing, not merely from fewer firings.
    writeln!(
        report,
        "index probes: {}, relation scans: {}, instructions executed: {}, fused probes: {}",
        stats.index_probes, stats.scans, stats.instructions_executed, stats.fused_probes
    )
    .expect("write to string");
    let eval_wall: std::time::Duration = stats.strata.iter().map(|s| s.wall).sum();
    for (i, stratum) in stats.strata.iter().enumerate() {
        let pct = if eval_wall.is_zero() {
            0.0
        } else {
            stratum.wall.as_secs_f64() / eval_wall.as_secs_f64() * 100.0
        };
        writeln!(
            report,
            "stratum {i}: {} rule(s), {} iteration(s), {} fact(s), {} firing(s), {} delta shard(s), {:?} ({pct:.1}% of eval wall)",
            stratum.rules,
            stratum.iterations,
            stratum.derived_facts,
            stratum.rule_firings,
            stratum.shards,
            stratum.wall
        )
        .expect("write to string");
    }
    let store = seqdl_core::store_stats();
    writeln!(
        report,
        "store: {} distinct path(s), {:.1} KiB",
        store.distinct_paths,
        store.total_bytes() as f64 / 1024.0
    )
    .expect("write to string");
}

/// The tail `run` and `query` append after their answers: the JSON stats
/// document, or the text `--stats` block (opened by the command's `preamble`
/// lines) and the `--profile` table; then the trace note, if any.
fn write_run_tail(
    report: &mut String,
    flags: &Flags,
    format: StatsFormat,
    executor: &Executor,
    stats: &seqdl_engine::EvalStats,
    preamble: &[String],
    trace_note: Option<String>,
) {
    match format {
        StatsFormat::Json => {
            report.push_str(&seqdl_engine::stats_json(
                stats,
                &seqdl_core::store_stats(),
                None,
            ));
        }
        StatsFormat::Text => {
            if flags.has("stats") {
                for line in preamble {
                    writeln!(report, "{line}").expect("write to string");
                }
                write_stats(report, executor, stats);
            }
            if flags.has("profile") {
                write_profile(report, stats);
            }
        }
    }
    if let Some(note) = trace_note {
        writeln!(report, "{note}").expect("write to string");
    }
}

/// Append the `--profile` hot-rules table: every rule that fired, hottest (by
/// accumulated pass wall time) first, with its counters, then one roll-up
/// line per stratum.  Parallel passes overlap, so summed rule walls can
/// exceed a stratum's wall clock.
fn write_profile(report: &mut String, stats: &seqdl_engine::EvalStats) {
    if stats.rules.is_empty() {
        report.push_str("per-rule profile: no rule fired\n");
        return;
    }
    report.push_str("per-rule profile (hottest first):\n");
    let mut order: Vec<&seqdl_engine::RuleStats> = stats.rules.iter().collect();
    order.sort_by(|a, b| {
        b.wall
            .cmp(&a.wall)
            .then_with(|| (a.stratum, a.rule_ix).cmp(&(b.stratum, b.rule_ix)))
    });
    for r in &order {
        writeln!(
            report,
            "  s{}r{}: {} firing(s), {} fact(s), {:?}, {} probe(s), {} scan(s), {} instruction(s), {} fused — {}",
            r.stratum,
            r.rule_ix,
            r.firings,
            r.derived_facts,
            r.wall,
            r.index_probes,
            r.scans,
            r.instructions,
            r.fused_probes,
            r.rule
        )
        .expect("write to string");
    }
    for (i, stratum) in stats.strata.iter().enumerate() {
        let (mut firings, mut facts, mut wall) = (0usize, 0usize, std::time::Duration::ZERO);
        let mut rules = 0usize;
        for r in stats.rules.iter().filter(|r| r.stratum == i) {
            rules += 1;
            firings += r.firings;
            facts += r.derived_facts;
            wall += r.wall;
        }
        writeln!(
            report,
            "  stratum {i} rollup: {rules} rule(s) profiled, {firings} firing(s), {facts} fact(s), {wall:?} summed rule wall (stratum wall {:?})",
            stratum.wall
        )
        .expect("write to string");
    }
}

/// The lint codes a program file declares as intentional: one or more per
/// `% expect: SD-W101[, SD-W102 …]` comment line.  Read from the raw file
/// text, because the loader strips comment lines before parsing.
fn expected_lints(path: &str) -> Vec<String> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut codes = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        let Some(rest) = line
            .strip_prefix('%')
            .or_else(|| line.strip_prefix('#'))
            .map(str::trim_start)
            .and_then(|r| r.strip_prefix("expect:"))
        else {
            continue;
        };
        for token in rest.split(|c: char| c == ',' || c.is_whitespace()) {
            if !token.is_empty() {
                codes.push(token.to_string());
            }
        }
    }
    codes
}

/// The [`CheckOptions`] shared by `check`, `run`, and `query`: lints are
/// computed relative to the declared (or defaulted) output relations, and —
/// when an instance is at hand — relative to which EDB relations actually
/// hold facts.
fn check_options(
    outputs: impl IntoIterator<Item = RelName>,
    instance: Option<&Instance>,
) -> CheckOptions {
    let mut options = CheckOptions::for_outputs(outputs);
    options.nonempty_edb = instance.map(seqdl_rewrite::nonempty_relations);
    options
}

/// `seqdl check`: run the full lint pipeline and report diagnostics.  Exits
/// nonzero on errors, on `--deny warnings` with unexpected warnings present,
/// on `% expect:` codes that did not fire, and on an `--instance` that `run`
/// would reject (facts for an IDB relation, or a relation at another arity).
fn cmd_check(flags: &Flags) -> Result<String, CliError> {
    let path = flags.require("program")?.to_string();
    let program = load_program(&path).map_err(command_error)?;
    let instance = match flags.get("instance") {
        Some(_) => Some(load_instance_flag(flags)?),
        None => None,
    };
    let outputs = match flags.get("output") {
        Some(name) => vec![RelName::new(name)],
        // Default to the conventional output (the last rule's head); a
        // program with no rules checks everything reachable from nothing.
        None => output_relation(flags, &program).ok().into_iter().collect(),
    };
    let deny_warnings = match flags.get("deny") {
        None => false,
        Some("warnings") => true,
        Some(other) => {
            return Err(CliError::Command(format!(
                "unknown --deny class `{other}` (expected `warnings`)"
            )))
        }
    };
    let report = check_program(&program, &check_options(outputs, instance.as_ref()));
    let rendered = match flags.get("format") {
        None | Some("text") => render_text(&report),
        Some("json") => check_json(&report),
        Some(other) => {
            return Err(CliError::Command(format!(
                "unknown check format `{other}` (expected `text` or `json`)"
            )))
        }
    };

    let expected = expected_lints(&path);
    let fired = report.codes();
    let mut failures: Vec<String> = Vec::new();
    if report.has_errors() {
        failures.push(format!("{} error(s)", report.count(Severity::Error)));
    }
    // The instance is rejected as `run` and `query` would reject it.
    if let Some(Err(error)) = instance.as_ref().map(|i| check_idb_schema(&program, i)) {
        failures.push(error.to_string());
    }
    for code in &expected {
        if !fired.contains(code.as_str()) {
            failures.push(format!("expected lint {code} did not fire"));
        }
    }
    if deny_warnings {
        let denied = report
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .filter(|d| !expected.iter().any(|c| c == d.lint.code()))
            .count();
        if denied > 0 {
            failures.push(format!("{denied} warning(s) denied"));
        }
    }
    if failures.is_empty() {
        Ok(rendered)
    } else {
        let mut message = rendered;
        if !message.ends_with('\n') {
            message.push('\n');
        }
        write!(message, "check failed: {}", failures.join("; ")).expect("write to string");
        Err(CliError::Command(message))
    }
}

/// The pre-flight block `run` and `query` print before evaluating: every
/// warning- or error-severity diagnostic, one line each (errors here are
/// advisory — evaluation performs its own validation and fails on its own
/// terms).
fn preflight_warnings(program: &Program, options: &CheckOptions) -> String {
    let report = check_program(program, options);
    let mut block = String::new();
    for d in &report.diagnostics {
        if d.severity >= Severity::Warning {
            writeln!(block, "{d}").expect("write to string");
        }
    }
    block
}

/// Print the pre-flight block to stderr, so stdout carries the answer alone.
fn print_preflight_warnings(program: &Program, options: &CheckOptions) {
    let block = preflight_warnings(program, options);
    // The block is advisory: a stderr that cannot take it fails nothing.
    let _ = std::io::stderr().write_all(block.as_bytes());
}

/// Reject instances that populate (or redeclare at another arity) a relation
/// the given *pre-optimization* program defines as IDB.  The evaluator runs
/// the same check, but against the program it is handed — after `strip_dead`
/// a relation whose rules were all removed is no longer IDB there, so without
/// this pre-check the optimized and unoptimized runs would diverge (silent
/// acceptance vs error) on the same invalid input.
fn check_idb_schema(program: &Program, instance: &Instance) -> Result<(), seqdl_engine::EvalError> {
    // An inconsistent-arity program fails through evaluation on its own terms.
    let Ok(arities) = program.relation_arities() else {
        return Ok(());
    };
    seqdl_engine::check_idb_input(&program.idb_relations(), &arities, instance)
}

/// Run the body of `run` or `query`, from load to rendered report.  The
/// `--trace-out` session opens first, because opening one waits for any
/// other session, whose thread may be interning.  Then, when `--threads`
/// resolves to one compute thread, the body runs as the one owner of the
/// path and name tables ([`seqdl_core::exclusive`]): nothing else computes,
/// so no lookup needs a lock or a per-thread copy.
fn with_tables(
    flags: &Flags,
    body: impl FnOnce(Option<TraceCapture>) -> Result<String, CliError>,
) -> Result<String, CliError> {
    let trace = start_trace(flags);
    // A malformed count is reported by the body, which parses it again.
    let threads = flags.get_usize("threads").ok().flatten().unwrap_or(1);
    if Executor::new().with_threads(threads).effective_threads() == 1 {
        seqdl_core::exclusive(|| body(trace))
    } else {
        body(trace)
    }
}

fn cmd_run(flags: &Flags) -> Result<String, CliError> {
    with_tables(flags, |trace| run_report(flags, trace))
}

fn run_report(flags: &Flags, trace: Option<TraceCapture>) -> Result<String, CliError> {
    let program = load_program_flag(flags)?;
    let instance = load_instance_flag(flags)?;
    let output = output_relation(flags, &program)?;
    let executor = executor_from_flags(flags)?;
    let format = stats_format(flags)?;
    check_idb_schema(&program, &instance).map_err(|e| eval_error_report(&executor, &e, format))?;
    let options = check_options([output], Some(&instance));
    print_preflight_warnings(&program, &options);
    // Prune rules that cannot contribute to the requested output before
    // lowering to RAM.  `--save` materialises the full result, so it keeps
    // every rule; `--no-strip-dead` disables the rewrite explicitly.
    let stripped = (!flags.has("no-strip-dead") && flags.get("save").is_none()).then(|| {
        seqdl_rewrite::strip_dead_with_edb(
            &program,
            &options.outputs,
            options.nonempty_edb.as_ref(),
        )
    });
    let eval_program = stripped.as_ref().map_or(&program, |s| &s.program);
    let run = executor.run_with_stats(eval_program, &instance);
    let trace_note = trace.map(TraceCapture::write).transpose()?;
    let (result, stats) = run.map_err(|e| eval_error_report(&executor, &e, format))?;

    let mut report = String::new();
    let relation = result.relation(output);
    match relation {
        None => {
            // `(not derived)` is reserved for relation names the program or
            // instance actually knows (an EDB relation absent from the input,
            // say); a name known to neither is a user error worth a hint.
            let known = known_relations(&program, &instance);
            if !known.contains(&output) {
                return Err(unknown_relation_error(output, &known));
            }
            writeln!(report, "{output}: (not derived)").expect("write to string");
        }
        Some(relation) if relation.arity() == 0 => {
            writeln!(report, "{output} = {}", result.nullary_true(output))
                .expect("write to string");
        }
        Some(relation) => {
            writeln!(report, "{output}: {} fact(s)", relation.len()).expect("write to string");
            Renderer::new().write_sorted_rows(&mut report, output, relation.iter());
        }
    }
    let preamble: Vec<String> = stripped
        .iter()
        .map(|strip| {
            format!(
                "strip-dead: {} of {} rule(s) removed before lowering",
                strip.removed.len(),
                program.rule_count()
            )
        })
        .collect();
    write_run_tail(
        &mut report,
        flags,
        format,
        &executor,
        &stats,
        &preamble,
        trace_note,
    );
    if let Some(path) = flags.get("save") {
        seqdl_io::save_instance(path, &result).map_err(command_error)?;
        writeln!(report, "full result saved to {path}").expect("write to string");
    }
    Ok(report)
}

/// `seqdl query`: demand-driven evaluation of one goal atom.  The goal is
/// adorned, the program rewritten by the magic-set transformation
/// (`seqdl_rewrite::magic`), the goal's bound first values injected as seed
/// facts, and the rewritten program evaluated through the ordinary SCC
/// schedule — so only rules relevant to the goal fire.
fn cmd_query(flags: &Flags) -> Result<String, CliError> {
    with_tables(flags, |trace| query_report(flags, trace))
}

fn query_report(flags: &Flags, trace: Option<TraceCapture>) -> Result<String, CliError> {
    let program = load_program_flag(flags)?;
    let instance = load_instance_flag(flags)?;
    let goal = parse_goal(flags.require("goal")?).map_err(command_error)?;
    let executor = executor_from_flags(flags)?;
    let format = stats_format(flags)?;
    // Checked against the whole program, so whichever goal is asked (an EDB
    // goal, or one whose magic rewrite drops the offending rules) rejects
    // the same inputs as `run`.
    check_idb_schema(&program, &instance).map_err(|e| eval_error_report(&executor, &e, format))?;

    let mut report = String::new();
    // The tuples of `relation` the goal matches, printed sorted under the
    // goal's relation name.
    let print_answers = |report: &mut String, relation: Option<&Relation>| {
        let answers: Vec<&[Path]> = relation
            .into_iter()
            .flat_map(Relation::iter)
            .filter(|row| goal_matches(&goal, row))
            .collect();
        writeln!(report, "{}: {} answer(s)", goal, answers.len()).expect("write to string");
        Renderer::new().write_sorted_rows(report, goal.relation, answers);
    };

    if !program.idb_relations().contains(&goal.relation) {
        // An EDB goal needs no evaluation at all: filter the input facts.
        let known = known_relations(&program, &instance);
        if !known.contains(&goal.relation) {
            return Err(unknown_relation_error(goal.relation, &known));
        }
        // A goal of the wrong arity would silently match nothing; reject it
        // the same way `magic` rejects IDB goals of the wrong arity.
        let expected = instance
            .relation(goal.relation)
            .map(Relation::arity)
            .or_else(|| {
                program
                    .relation_arities()
                    .ok()
                    .and_then(|a| a.get(&goal.relation).copied())
            });
        if let Some(expected) = expected {
            if expected != goal.arity() {
                return Err(CliError::Command(format!(
                    "goal {} has arity {} but relation {} has arity {expected}",
                    goal,
                    goal.arity(),
                    goal.relation
                )));
            }
        }
        print_answers(&mut report, instance.relation(goal.relation));
        return Ok(report);
    }

    let mp = magic(&program, &goal).map_err(command_error)?;
    print_preflight_warnings(&program, &check_options([goal.relation], Some(&instance)));
    check_idb_schema(&mp.program, &instance)
        .map_err(|e| eval_error_report(&executor, &e, format))?;
    // Prune magic rules that cannot reach the answer relation before
    // lowering.  The seeds make relations nonempty that neither the raw
    // instance nor the program's rules know anything about — the goal's
    // magic relation may have only statically-false demand rules and still
    // hold its seed facts at runtime — so the emptiness analysis must treat
    // every seeded relation as never-empty (and no EDB emptiness is assumed
    // at all).
    let stripped = (!flags.has("no-strip-dead")).then(|| {
        let seeded: std::collections::BTreeSet<RelName> =
            mp.seeds.iter().map(|f| f.relation).collect();
        seqdl_rewrite::strip_dead_seeded(
            &mp.program,
            &std::collections::BTreeSet::from([mp.answer]),
            &seeded,
        )
    });
    let eval_program = stripped.as_ref().map_or(&mp.program, |s| &s.program);
    let run = executor.run_with_stats_seeded(eval_program, &instance, &mp.seeds);
    let trace_note = trace.map(TraceCapture::write).transpose()?;
    let (result, stats) = run.map_err(|e| eval_error_report(&executor, &e, format))?;
    print_answers(&mut report, result.relation(mp.answer));
    if flags.has("show-rewrite") {
        writeln!(report, "% magic rewrite (answers read from {}):", mp.answer)
            .expect("write to string");
        writeln!(report, "{}", mp.program).expect("write to string");
        for seed in &mp.seeds {
            writeln!(report, "% seed: {seed}").expect("write to string");
        }
    }
    let mut preamble = vec![format!(
        "magic rewrite: {} rule(s) (from {}), {} seed fact(s), answers in {}",
        mp.program.rule_count(),
        program.rule_count(),
        mp.seeds.len(),
        mp.answer
    )];
    preamble.extend(stripped.iter().map(|strip| {
        format!(
            "strip-dead: {} of {} magic rule(s) removed before lowering",
            strip.removed.len(),
            mp.program.rule_count()
        )
    }));
    write_run_tail(
        &mut report,
        flags,
        format,
        &executor,
        &stats,
        &preamble,
        trace_note,
    );
    Ok(report)
}

fn cmd_analyze(flags: &Flags) -> Result<String, CliError> {
    let program = load_program_flag(flags)?;
    // One shared analysis entry point: features, fragment, safety,
    // stratification, arity, and termination all come from the same
    // `check_program` report that `seqdl check` renders.  No outputs are
    // declared here, so reachability lints stay quiet.
    let check = check_program(&program, &CheckOptions::default());
    let features = &check.features;
    let fragment = &check.fragment;
    let mut report = String::new();
    writeln!(report, "rules: {}", program.rule_count()).expect("write to string");
    writeln!(report, "strata: {}", program.stratum_count()).expect("write to string");
    for (i, stratum) in program.strata.iter().enumerate() {
        let condensation = PrecedenceGraph::of_rules(stratum.rules.iter()).condensation();
        let members: Vec<String> = condensation
            .components
            .iter()
            .map(|c| {
                let names: Vec<String> = c.members.iter().map(ToString::to_string).collect();
                format!(
                    "{{{}}}{}",
                    names.join(", "),
                    if c.recursive { "*" } else { "" }
                )
            })
            .collect();
        writeln!(
            report,
            "schedule stratum {i}: {} SCC(s) over {} level(s), {} recursive: {}",
            condensation.components.len(),
            condensation.level_count(),
            condensation
                .components
                .iter()
                .filter(|c| c.recursive)
                .count(),
            members.join(" -> ")
        )
        .expect("write to string");
    }
    writeln!(
        report,
        "cancel checkpoints: every stratum boundary ({} here), every fixpoint round, \
         and every {} interpreter instructions (amortised); `--timeout`, \
         `--max-store-bytes`, and Ctrl-C take effect there",
        program.stratum_count(),
        seqdl_engine::GOVERNOR_CHECK_INTERVAL
    )
    .expect("write to string");
    if flags.has("show-ram") {
        match seqdl_engine::ram::lower(&program) {
            Ok(lowered) => {
                writeln!(report, "RAM program:").expect("write to string");
                write!(report, "{lowered}").expect("write to string");
            }
            Err(e) => writeln!(report, "RAM program: {e}").expect("write to string"),
        }
    }
    writeln!(report, "features: {}", features.letters()).expect("write to string");
    writeln!(report, "fragment: {fragment}").expect("write to string");
    writeln!(report, "fragment modulo A, P: {}", fragment.hat()).expect("write to string");

    let edb: Vec<String> = program
        .edb_relations()
        .iter()
        .map(ToString::to_string)
        .collect();
    let idb: Vec<String> = program
        .idb_relations()
        .iter()
        .map(ToString::to_string)
        .collect();
    writeln!(report, "EDB relations: {}", edb.join(", ")).expect("write to string");
    writeln!(report, "IDB relations: {}", idb.join(", ")).expect("write to string");

    use seqdl_analysis::Lint;
    let first_message = |codes: &[Lint]| {
        check
            .diagnostics
            .iter()
            .find(|d| codes.contains(&d.lint))
            .map(|d| d.message.clone())
    };
    match first_message(&[
        Lint::UnsafeRule,
        Lint::HeadOnlyVariable,
        Lint::NegationShadowedVariable,
    ]) {
        None => writeln!(report, "safety: all rules are safe").expect("write to string"),
        Some(m) => writeln!(report, "safety: {m}").expect("write to string"),
    }
    match first_message(&[Lint::NotStratified]) {
        None => writeln!(report, "stratification: valid").expect("write to string"),
        Some(m) => writeln!(report, "stratification: {m}").expect("write to string"),
    }
    if let Some(m) = first_message(&[Lint::InconsistentArity]) {
        writeln!(report, "analysis: {m}").expect("write to string");
    }
    writeln!(report, "{}", check.summary()).expect("write to string");
    write!(report, "termination: {}", check.termination).expect("write to string");
    Ok(report)
}

fn cmd_termination(flags: &Flags) -> Result<String, CliError> {
    let program = load_program_flag(flags)?;
    // Shares the `check_program` entry point with `check` and `analyze`
    // instead of re-deriving the program structure on its own.
    let check = check_program(&program, &CheckOptions::default());
    Ok(check.termination.to_string())
}

fn cmd_rewrite(flags: &Flags) -> Result<String, CliError> {
    let program = load_program_flag(flags)?;
    let which = flags.require("eliminate")?;
    let rewritten = match which {
        "arity" => eliminate_arity(&program).map_err(command_error)?,
        "equations" => eliminate_equations(&program).map_err(command_error)?,
        "packing" => {
            let output = output_relation(flags, &program)?;
            eliminate_packing_nonrecursive(&program, output).map_err(command_error)?
        }
        "intermediate" => {
            let output = output_relation(flags, &program)?;
            fold_intermediate_predicates(&program, output).map_err(command_error)?
        }
        other => {
            return Err(CliError::Command(format!(
                "unknown feature `{other}` (expected arity, equations, packing, or intermediate)"
            )))
        }
    };
    Ok(format!(
        "% fragment: {} -> {}\n{rewritten}",
        Fragment::of_program(&program),
        Fragment::of_program(&rewritten)
    ))
}

fn cmd_normalize(flags: &Flags) -> Result<String, CliError> {
    let program = load_program_flag(flags)?;
    let normal = to_normal_form(&program).map_err(command_error)?;
    Ok(normal.to_string())
}

fn cmd_algebra(flags: &Flags) -> Result<String, CliError> {
    let program = load_program_flag(flags)?;
    let output = output_relation(flags, &program)?;
    let expr = datalog_to_algebra(&program, output).map_err(command_error)?;
    Ok(format!("{expr}"))
}

fn cmd_fragment(flags: &Flags) -> Result<String, CliError> {
    let program = load_program_flag(flags)?;
    let output = output_relation(flags, &program)?;
    let letters = flags.require("target")?;
    let mut target = Fragment::empty();
    for c in letters.chars() {
        if c == '{' || c == '}' || c == ',' || c.is_whitespace() {
            continue;
        }
        let feature = Feature::from_letter(c)
            .ok_or_else(|| CliError::Command(format!("unknown feature letter `{c}`")))?;
        target = target.with(feature);
    }
    let source = Fragment::of_program(&program);
    let rewritten = rewrite_into(&program, output, target)
        .map_err(|e| CliError::Command(format!("cannot rewrite {source} into {target}: {e}")))?;
    Ok(format!(
        "% fragment: {source} -> {} (target {target})\n{rewritten}",
        Fragment::of_program(&rewritten)
    ))
}

fn cmd_hasse(flags: &Flags) -> Result<String, CliError> {
    let fragments = if flags.has("all") {
        Fragment::all()
    } else {
        Fragment::all_over_einr()
    };
    let diagram = HasseDiagram::build(&fragments);
    if flags.has("dot") {
        return Ok(diagram.to_dot());
    }
    Ok(format!(
        "{} fragments fall into {} equivalence classes (Figure 1 of the paper):\n{}",
        fragments.len(),
        diagram.classes.len(),
        diagram.render_text()
    ))
}

fn cmd_unify(flags: &Flags) -> Result<String, CliError> {
    let text = flags.require("equation")?;
    let (lhs, rhs) = text
        .split_once('=')
        .ok_or_else(|| CliError::Command("the --equation value must contain `=`".into()))?;
    let lhs = parse_expr(lhs.trim()).map_err(command_error)?;
    let rhs = parse_expr(rhs.trim()).map_err(command_error)?;
    let equation = Equation::new(lhs, rhs);

    let mut report = String::new();
    writeln!(
        report,
        "equation: {equation}\none-sided nonlinear: {}",
        is_one_sided_nonlinear(&equation)
    )
    .expect("write to string");

    if flags.has("allow-empty") {
        let solutions =
            solve_allowing_empty(&equation, &SolveOptions::default()).map_err(command_error)?;
        writeln!(
            report,
            "{} symbolic solution(s) (empty words allowed):",
            solutions.len()
        )
        .expect("write to string");
        for s in &solutions {
            writeln!(report, "  {s}").expect("write to string");
        }
    } else {
        let result = solve(&equation, &SolveOptions::default()).map_err(command_error)?;
        writeln!(
            report,
            "{} symbolic solution(s), search tree with {} node(s):",
            result.solutions.len(),
            result.tree.len()
        )
        .expect("write to string");
        for s in &result.solutions {
            writeln!(report, "  {s}").expect("write to string");
        }
        if flags.has("dot") {
            writeln!(report, "{}", result.tree.to_dot()).expect("write to string");
        }
    }
    Ok(report)
}

fn cmd_regex(flags: &Flags) -> Result<String, CliError> {
    let pattern = flags.require("pattern")?;
    let regex = parse_regex(pattern).map_err(command_error)?;
    let mut options = CompileOptions::default();
    if let Some(input) = flags.get("input") {
        options.input = RelName::new(input);
    }
    if let Some(output) = flags.get("output") {
        options.output = RelName::new(output);
    }
    if let Some(prefix) = flags.get("state-prefix") {
        options.state_prefix = prefix.to_string();
    }
    let compiled = if flags.has("contains") {
        compile_contains(&regex, &options)
    } else {
        compile_match(&regex, &options)
    };

    let mut report = format!(
        "% regex: {regex}\n% reads {} and writes {}\n{}",
        compiled.input, compiled.output, compiled.program
    );
    if flags.get("instance").is_some() {
        let instance = load_instance_flag(flags)?;
        let result = executor_from_flags(flags)?
            .run(&compiled.program, &instance)
            .map_err(command_error)?;
        let matches = result.unary_paths(compiled.output);
        writeln!(report, "\n{} matching string(s):", matches.len()).expect("write to string");
        for path in matches {
            writeln!(report, "  {path}").expect("write to string");
        }
    }
    Ok(report)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::args::parse_flags;
    use seqdl_core::{path_of, rel};

    fn flags(parts: &[&str]) -> Flags {
        parse_flags(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!("seqdl-cli-test-{}-{name}", std::process::id()));
        dir
    }

    fn write_program(name: &str, source: &str) -> String {
        let path = temp_path(name);
        std::fs::write(&path, source).unwrap();
        path.display().to_string()
    }

    fn write_instance_file(name: &str, instance: &Instance) -> String {
        let path = temp_path(name);
        seqdl_io::save_instance(&path, instance).unwrap();
        path.display().to_string()
    }

    #[test]
    fn run_executes_a_program_on_an_instance() {
        let program = write_program("run.sdl", "S($x) <- R($x), a·$x = $x·a.");
        let instance = write_instance_file(
            "run.sdi",
            &Instance::unary(rel("R"), [path_of(&["a", "a"]), path_of(&["a", "b"])]),
        );
        let output = cmd_run(&flags(&[
            "--program",
            &program,
            "--instance",
            &instance,
            "--output",
            "S",
            "--stats",
        ]))
        .unwrap();
        assert!(output.contains("S: 1 fact(s)"), "{output}");
        assert!(output.contains("S(a·a)"), "{output}");
        assert!(output.contains("iterations:"), "{output}");
    }

    #[test]
    fn run_orders_atoms_by_first_interning_not_by_name() {
        // Atoms compare by interner index, so sorted output follows the order
        // in which the input first names them.  That order is fixed by the
        // input, so the output is the same at every thread count.
        let program = write_program("order.sdl", "S($x) <- R($x).");
        let instance = write_program(
            "order.sdi",
            "R(order_pin_zeta).\nR(order_pin_alpha).\nR(order_pin_mid).\n",
        );
        for threads in ["1", "4"] {
            let output = cmd_run(&flags(&[
                "--program",
                &program,
                "--instance",
                &instance,
                "--output",
                "S",
                "--threads",
                threads,
            ]))
            .unwrap();
            assert_eq!(
                output,
                "S: 3 fact(s)\n  S(order_pin_zeta)\n  S(order_pin_alpha)\n  S(order_pin_mid)\n"
            );
        }
    }

    #[test]
    fn thread_counts_above_the_bound_are_rejected_before_any_thread_starts() {
        let program = write_program("threads-bound.sdl", "S($x) <- R($x).");
        let instance = write_program("threads-bound.sdi", "R(a).\n");
        let run = |threads: usize| {
            let threads = threads.to_string();
            cmd_run(&flags(&[
                "--program",
                &program,
                "--instance",
                &instance,
                "--threads",
                &threads,
            ]))
        };
        // Just above the bound: a missing check would start only 256
        // workers for a one-fact program.
        match run(MAX_THREADS + 1) {
            Err(CliError::Command(message)) => {
                assert!(message.contains("--threads"), "{message}");
                assert!(message.contains(&MAX_THREADS.to_string()), "{message}");
            }
            other => panic!("expected a --threads error, got {other:?}"),
        }
        assert!(run(2).unwrap().contains("S(a)"));
        assert!(help_text().contains(&format!("at most {MAX_THREADS}")));
    }

    #[test]
    fn run_defaults_the_output_relation_to_the_last_rule_head() {
        let program = write_program(
            "run-default.sdl",
            "T(a·$x, $x) <- R($x).\nS($x) <- T($x·a, $x).",
        );
        let instance = write_instance_file(
            "run-default.sdi",
            &Instance::unary(rel("R"), [path_of(&["a", "a", "a"])]),
        );
        let output = cmd_run(&flags(&["--program", &program, "--instance", &instance])).unwrap();
        assert!(output.contains("S: 1 fact(s)"), "{output}");
    }

    #[test]
    fn run_evaluates_in_parallel_with_per_stratum_stats() {
        let program = write_program(
            "run-par.sdl",
            "T(@x·@y) <- R(@x·@y).\nT(@x·@z) <- T(@x·@y), R(@y·@z).\nS($p) <- T($p).",
        );
        let mut graph = Instance::new();
        for (x, y) in [("a", "b"), ("b", "c"), ("c", "d")] {
            graph
                .insert_fact(seqdl_core::Fact::new(rel("R"), vec![path_of(&[x, y])]))
                .unwrap();
        }
        let instance = write_instance_file("run-par.sdi", &graph);
        let sequential = cmd_run(&flags(&[
            "--program",
            &program,
            "--instance",
            &instance,
            "--output",
            "S",
        ]))
        .unwrap();
        let parallel = cmd_run(&flags(&[
            "--program",
            &program,
            "--instance",
            &instance,
            "--output",
            "S",
            "--threads",
            "4",
            "--stats",
        ]))
        .unwrap();
        assert!(parallel.starts_with(&sequential), "{parallel}");
        assert!(parallel.contains("threads: 4"), "{parallel}");
        assert!(parallel.contains("stratum 0: 3 rule(s)"), "{parallel}");
        // The recursive rule probes R by the bound @y prefix: the stats must
        // attribute index probes (and report the scan fallbacks) so wins are
        // explainable.
        assert!(parallel.contains("index probes: "), "{parallel}");
        assert!(parallel.contains("relation scans: "), "{parallel}");
        let probes: usize = parallel
            .split("index probes: ")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|n| n.trim().parse().ok())
            .expect("parse probe count");
        assert!(probes > 0, "expected index probes on the reachability join");
    }

    /// The §5.1.1 reachability workload used by the observability tests: a
    /// transitive-closure program and a small chain digraph.
    fn reachability_files(tag: &str) -> (String, String) {
        let program = write_program(
            &format!("reach-{tag}.sdl"),
            "T(@x·@y) <- R(@x·@y).\nT(@x·@z) <- T(@x·@y), R(@y·@z).",
        );
        let mut graph = Instance::new();
        for (x, y) in [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")] {
            graph
                .insert_fact(seqdl_core::Fact::new(rel("R"), vec![path_of(&[x, y])]))
                .unwrap();
        }
        let instance = write_instance_file(&format!("reach-{tag}.sdi"), &graph);
        (program, instance)
    }

    #[test]
    fn profile_firings_sum_to_the_total_rule_firings() {
        let (program, instance) = reachability_files("profile");
        let output = cmd_run(&flags(&[
            "--program",
            &program,
            "--instance",
            &instance,
            "--output",
            "T",
            "--stats",
            "--profile",
        ]))
        .unwrap();
        assert!(
            output.contains("per-rule profile (hottest first):"),
            "{output}"
        );
        assert!(output.contains("stratum 0 rollup:"), "{output}");
        let total: usize = output
            .split("rule firings: ")
            .nth(1)
            .and_then(|rest| rest.lines().next())
            .and_then(|n| n.trim().parse().ok())
            .expect("parse total rule firings");
        let profiled: usize = output
            .lines()
            .filter(|l| {
                l.starts_with("  s") && !l.starts_with("  stratum") && l.contains(" firing(s), ")
            })
            .map(|l| {
                l.split(": ")
                    .nth(1)
                    .and_then(|rest| rest.split(" firing(s)").next())
                    .and_then(|n| n.trim().parse::<usize>().ok())
                    .expect("parse per-rule firings")
            })
            .sum();
        assert!(total > 0, "{output}");
        assert_eq!(profiled, total, "{output}");
        // Per-rule facts are the rows each rule added at the merge, so they
        // sum to the run's derived facts.
        let derived: usize = output
            .split("derived facts: ")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|n| n.trim().parse().ok())
            .expect("parse total derived facts");
        let profiled_facts: usize = output
            .lines()
            .filter(|l| l.starts_with("  s") && !l.starts_with("  stratum"))
            .map(|l| {
                l.split(" firing(s), ")
                    .nth(1)
                    .and_then(|rest| rest.split(" fact(s)").next())
                    .and_then(|n| n.trim().parse::<usize>().ok())
                    .expect("parse per-rule facts")
            })
            .sum();
        assert!(derived > 0, "{output}");
        assert_eq!(profiled_facts, derived, "{output}");
        // Both rules of the recursive component are attributed by name.
        assert!(output.contains("T(@x·@y) <- R(@x·@y)."), "{output}");
        assert!(
            output.contains("T(@x·@z) <- T(@x·@y), R(@y·@z)."),
            "{output}"
        );
    }

    #[test]
    fn trace_out_writes_chrome_trace_json_with_worker_threads() {
        let (program, instance) = reachability_files("trace");
        let trace_file = temp_path("trace.json");
        let output = cmd_run(&flags(&[
            "--program",
            &program,
            "--instance",
            &instance,
            "--output",
            "T",
            "--threads",
            "4",
            "--shard-size",
            "1",
            "--trace-out",
            trace_file.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(output.contains("event(s) written to"), "{output}");
        let json = std::fs::read_to_string(&trace_file).unwrap();
        assert!(json.trim_start().starts_with('['), "{json}");
        assert!(json.trim_end().ends_with(']'), "{json}");
        assert!(json.contains("\"ph\":\"B\""), "{json}");
        assert!(json.contains("\"ph\":\"E\""), "{json}");
        assert!(json.contains("\"name\":\"run\""), "{json}");
        // One delta tuple per shard gives a round several jobs, and every job
        // but the first runs on a pool worker while the driver holds the
        // round span, so the run records at least two distinct thread ids.
        let tids: std::collections::BTreeSet<u32> = json
            .split("\"tid\":")
            .skip(1)
            .map(|part| {
                part.split(|c: char| !c.is_ascii_digit())
                    .next()
                    .and_then(|n| n.parse().ok())
                    .expect("parse tid")
            })
            .collect();
        assert!(tids.len() >= 2, "expected >=2 tids, got {tids:?}");
        std::fs::remove_file(&trace_file).ok();
    }

    #[test]
    fn stats_format_json_emits_the_versioned_document() {
        let (program, instance) = reachability_files("json");
        let output = cmd_run(&flags(&[
            "--program",
            &program,
            "--instance",
            &instance,
            "--output",
            "T",
            "--stats-format",
            "json",
        ]))
        .unwrap();
        for key in [
            "\"version\": 1",
            "{\"status\":\"ok\"}",
            "\"totals\": {",
            "\"strata\": [",
            "\"rules\": [",
            "\"store\": {",
            "\"wall_pct\":",
        ] {
            assert!(output.contains(key), "missing {key} in:\n{output}");
        }
        let bad = cmd_run(&flags(&[
            "--program",
            &program,
            "--instance",
            &instance,
            "--stats-format",
            "yaml",
        ]));
        assert!(bad.is_err());
    }

    #[test]
    fn run_stats_show_single_pass_strata_for_nonrecursive_programs() {
        let program = write_program(
            "run-sp.sdl",
            "T($x) <- R($x).\n---\nS($x) <- T($x), !B($x).",
        );
        let instance =
            write_instance_file("run-sp.sdi", &Instance::unary(rel("R"), [path_of(&["a"])]));
        let output = cmd_run(&flags(&[
            "--program",
            &program,
            "--instance",
            &instance,
            "--output",
            "S",
            "--stats",
        ]))
        .unwrap();
        assert!(
            output.contains("stratum 0: 1 rule(s), 1 iteration(s)"),
            "{output}"
        );
        assert!(
            output.contains("stratum 1: 1 rule(s), 1 iteration(s)"),
            "{output}"
        );
    }

    #[test]
    fn timeout_and_byte_values_parse_with_suffixes() {
        assert_eq!(parse_timeout("500").unwrap().as_millis(), 500);
        assert_eq!(parse_timeout("50ms").unwrap().as_millis(), 50);
        assert_eq!(parse_timeout("2s").unwrap().as_millis(), 2_000);
        assert_eq!(parse_timeout("1m").unwrap().as_millis(), 60_000);
        assert!(parse_timeout("soon").is_err());
        assert_eq!(parse_bytes("1024").unwrap(), 1024);
        assert_eq!(parse_bytes("64k").unwrap(), 64 << 10);
        assert_eq!(parse_bytes("4MB").unwrap(), 4 << 20);
        assert_eq!(parse_bytes("1g").unwrap(), 1 << 30);
        assert!(parse_bytes("lots").is_err());
    }

    #[test]
    fn timeout_overflow_is_a_parse_error() {
        let err = parse_timeout("576460752303423488m").unwrap_err();
        assert!(err.to_string().contains("expects a duration"), "{err}");
        assert!(parse_timeout("18446744073709551615s").is_err());
        assert_eq!(
            parse_timeout("18446744073709551615ms").unwrap().as_millis(),
            u128::from(u64::MAX)
        );
    }

    #[test]
    fn run_with_timeout_cancels_and_reports_partial_stats() {
        // Non-terminating without the deadline: path-doubling recursion with
        // limits far beyond what 50ms can evaluate.
        let program = write_program("timeout.sdl", "T(a).\nT(a·$x) <- T($x).");
        let instance = write_instance_file("timeout.sdi", &Instance::new());
        let started = std::time::Instant::now();
        let err = cmd_run(&flags(&[
            "--program",
            &program,
            "--instance",
            &instance,
            "--output",
            "T",
            "--timeout",
            "50ms",
            "--max-iterations",
            "100000000",
            "--max-facts",
            "100000000",
            "--max-path-len",
            "100000000",
        ]))
        .unwrap_err();
        let elapsed = started.elapsed();
        let message = err.to_string();
        assert!(message.contains("cancelled"), "{message}");
        assert!(message.contains("deadline"), "{message}");
        assert!(
            message.contains("partial progress at cancellation:"),
            "{message}"
        );
        assert!(message.contains("iterations:"), "{message}");
        // The deadline is enforced at governor checkpoints, so termination is
        // prompt — well within the acceptance bound of 2× the deadline (with
        // slack for debug-build scheduling noise).
        assert!(
            elapsed < std::time::Duration::from_millis(1_000),
            "cancelled run took {elapsed:?}"
        );
    }

    #[test]
    fn run_reports_store_budget_violations() {
        let program = write_program("store-budget.sdl", "T(a).\nT(a·$x) <- T($x).");
        let instance = write_instance_file("store-budget.sdi", &Instance::new());
        let err = cmd_run(&flags(&[
            "--program",
            &program,
            "--instance",
            &instance,
            "--output",
            "T",
            "--max-store-bytes",
            "4k",
            "--max-iterations",
            "100000000",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("path-store bytes"), "{err}");
    }

    #[test]
    fn run_reports_limit_violations() {
        let program = write_program("diverge.sdl", "T(a).\nT(a·$x) <- T($x).");
        let instance = write_instance_file("empty.sdi", &Instance::new());
        let err = cmd_run(&flags(&[
            "--program",
            &program,
            "--instance",
            &instance,
            "--output",
            "T",
            "--max-iterations",
            "10",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("limit"), "{err}");
    }

    #[test]
    fn run_rejects_unknown_output_relations_with_a_suggestion() {
        let program = write_program("unknown-out.sdl", "S($x) <- R($x).");
        let instance = write_instance_file(
            "unknown-out.sdi",
            &Instance::unary(rel("R"), [path_of(&["a"])]),
        );
        let err = cmd_run(&flags(&[
            "--program",
            &program,
            "--instance",
            &instance,
            "--output",
            "Q",
        ]))
        .unwrap_err();
        let message = err.to_string();
        assert!(message.contains("unknown relation `Q`"), "{message}");
        // A near-miss gets a did-you-mean hint.
        let err = cmd_run(&flags(&[
            "--program",
            &program,
            "--instance",
            &instance,
            "--output",
            "s",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("did you mean `S`"), "{err}");
    }

    #[test]
    fn run_still_reports_known_but_absent_relations_as_not_derived() {
        // B is negated in the program but absent from the instance: a known
        // name, so no error — the old `(not derived)` notice remains.
        let program = write_program("absent.sdl", "S($x) <- R($x), !B($x).");
        let instance =
            write_instance_file("absent.sdi", &Instance::unary(rel("R"), [path_of(&["a"])]));
        let output = cmd_run(&flags(&[
            "--program",
            &program,
            "--instance",
            &instance,
            "--output",
            "B",
        ]))
        .unwrap();
        assert!(output.contains("B: (not derived)"), "{output}");
    }

    #[test]
    fn query_answers_goals_demand_driven() {
        let program = write_program(
            "query.sdl",
            "T(@x·@y) <- R(@x·@y).\nT(@x·@z) <- T(@x·@y), R(@y·@z).",
        );
        let mut graph = Instance::new();
        for (x, y) in [("a", "b"), ("b", "c"), ("x", "y")] {
            graph
                .insert_fact(seqdl_core::Fact::new(rel("R"), vec![path_of(&[x, y])]))
                .unwrap();
        }
        let instance = write_instance_file("query.sdi", &graph);
        let output = cmd_query(&flags(&[
            "--program",
            &program,
            "--instance",
            &instance,
            "--goal",
            "T(a·$y)?",
            "--stats",
            "--show-rewrite",
        ]))
        .unwrap();
        assert!(output.contains("T(a·$y): 2 answer(s)"), "{output}");
        assert!(output.contains("T(a·b)"), "{output}");
        assert!(output.contains("T(a·c)"), "{output}");
        assert!(!output.contains("T(x·y)"), "{output}");
        assert!(output.contains("magic rewrite:"), "{output}");
        assert!(output.contains("magic_T_b"), "{output}");
    }

    #[test]
    fn query_strip_dead_keeps_seeded_demand_relations_live() {
        // The recursive rule's demand prefix reads P, whose only rule is
        // statically false — every demand rule of the seeded magic relation
        // is always false, but the goal's seed facts still make it nonempty
        // at runtime.  The default (stripped) query must agree with
        // --no-strip-dead instead of silently returning no answers.
        let program = write_program(
            "query-seed.sdl",
            "T(@x·@y) <- R(@x·@y).\n\
             T(@x·@z) <- P(@x), T(@x·@y), R(@y·@z).\n\
             P(@x) <- N(@x), a·@x = b·@x.",
        );
        let mut graph = Instance::new();
        for (x, y) in [("a", "b"), ("b", "c")] {
            graph
                .insert_fact(seqdl_core::Fact::new(rel("R"), vec![path_of(&[x, y])]))
                .unwrap();
        }
        graph
            .insert_fact(seqdl_core::Fact::new(rel("N"), vec![path_of(&["a"])]))
            .unwrap();
        let instance = write_instance_file("query-seed.sdi", &graph);
        let base = [
            "--program",
            &program,
            "--instance",
            &instance,
            "--goal",
            "T(a·$y)?",
        ];
        let stripped = cmd_query(&flags(&base)).unwrap();
        let mut unstripped_args = base.to_vec();
        unstripped_args.push("--no-strip-dead");
        let unstripped = cmd_query(&flags(&unstripped_args)).unwrap();
        assert!(stripped.contains("T(a·$y): 1 answer(s)"), "{stripped}");
        assert!(stripped.contains("T(a·b)"), "{stripped}");
        assert_eq!(stripped, unstripped);
    }

    #[test]
    fn run_rejects_idb_facts_in_input_regardless_of_stripping() {
        // Dead's rules are unreachable from S and stripped by default; the
        // IDB-collision check must still run against the original program so
        // the optimized and unoptimized runs fail identically.
        let program = write_program("run-idb.sdl", "S($x) <- R($x).\nDead($x) <- Z($x).");
        let mut input = Instance::unary(rel("R"), [path_of(&["a"])]);
        input
            .insert_fact(seqdl_core::Fact::new(rel("Dead"), vec![path_of(&["b"])]))
            .unwrap();
        let instance = write_instance_file("run-idb.sdi", &input);
        let base = [
            "--program",
            &program,
            "--instance",
            &instance,
            "--output",
            "S",
        ];
        let stripped = cmd_run(&flags(&base)).unwrap_err();
        let mut unstripped_args = base.to_vec();
        unstripped_args.push("--no-strip-dead");
        let unstripped = cmd_run(&flags(&unstripped_args)).unwrap_err();
        assert!(stripped.to_string().contains("Dead"), "{stripped}");
        assert_eq!(stripped.to_string(), unstripped.to_string());
    }

    #[test]
    fn query_filters_edb_goals_without_evaluation() {
        let program = write_program("query-edb.sdl", "S($x) <- R($x).");
        let instance = write_instance_file(
            "query-edb.sdi",
            &Instance::unary(rel("R"), [path_of(&["a", "b"]), path_of(&["b", "a"])]),
        );
        let output = cmd_query(&flags(&[
            "--program",
            &program,
            "--instance",
            &instance,
            "--goal",
            "R(a·$y)",
        ]))
        .unwrap();
        assert!(output.contains("1 answer(s)"), "{output}");
        assert!(output.contains("R(a·b)"), "{output}");
    }

    #[test]
    fn query_rejects_edb_goals_of_the_wrong_arity() {
        let program = write_program("query-arity.sdl", "S($x) <- R($x).");
        let instance = write_instance_file(
            "query-arity.sdi",
            &Instance::unary(rel("R"), [path_of(&["a"])]),
        );
        let err = cmd_query(&flags(&[
            "--program",
            &program,
            "--instance",
            &instance,
            "--goal",
            "R(a, $y)",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("arity"), "{err}");
    }

    #[test]
    fn query_rejects_unknown_goal_relations() {
        let program = write_program("query-bad.sdl", "S($x) <- R($x).");
        let instance = write_instance_file(
            "query-bad.sdi",
            &Instance::unary(rel("R"), [path_of(&["a"])]),
        );
        let err = cmd_query(&flags(&[
            "--program",
            &program,
            "--instance",
            &instance,
            "--goal",
            "Z($x)",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("unknown relation `Z`"), "{err}");
    }

    #[test]
    fn analyze_reports_features_and_termination() {
        let program = write_program(
            "analyze.sdl",
            "T(eps, $x, $x) <- R($x).\nT($y·$x, $x, $z) <- T($y, $x, a·$z).\nS($y) <- T($y, $x, eps).",
        );
        let output = cmd_analyze(&flags(&["--program", &program])).unwrap();
        assert!(output.contains("fragment: {A, I, R}"), "{output}");
        assert!(output.contains("EDB relations: R"), "{output}");
        assert!(output.contains("guaranteed to terminate"), "{output}");
        assert!(
            output.contains("schedule stratum 0: 2 SCC(s) over 2 level(s), 1 recursive"),
            "{output}"
        );
        assert!(output.contains("{T}* -> {S}"), "{output}");
    }

    #[test]
    fn analyze_show_ram_pins_the_reachability_listing_shape() {
        // The §5.1.1 reachability program: base rule hoisted into the merge
        // section (probe+emit, one instruction), recursive rule in the {T}
        // loop with its delta-tagged T probe and a fused terminal R probe,
        // and the fully-bound boolean goal reduced to a filter.
        let program = write_program(
            "show-ram.sdl",
            "T(@x·@y) <- R(@x·@y).\nT(@x·@z) <- T(@x·@y), R(@y·@z).\nS <- T(a·b).",
        );
        let output = cmd_analyze(&flags(&["--program", &program, "--show-ram"])).unwrap();
        assert!(output.contains("RAM program:"), "{output}");
        assert!(output.contains("merge (once):"), "{output}");
        assert!(output.contains("loop {T}:"), "{output}");
        assert!(
            output.contains("probe+emit R(@x·@y) -> T(@x·@y)"),
            "{output}"
        );
        assert!(output.contains("probe   T(@x·@y)"), "{output}");
        // The delta-tagged T probe binds both variables in one deterministic
        // pass; the fused R probe finishes bucket-side.
        assert!(
            output.contains("probe   T(@x·@y), det  [delta]"),
            "{output}"
        );
        assert!(output.contains("; via col0[1], bucket"), "{output}");
        assert!(!output.contains(", flat"), "{output}");
        assert!(output.contains("[delta]"), "{output}");
        assert!(
            output.contains("probe+emit R(@y·@z) -> T(@x·@z)"),
            "{output}"
        );
        assert!(
            output.contains("filter  T(a·b)  ; fused probe (fully bound)"),
            "{output}"
        );
        assert!(output.contains("purge delta {T}"), "{output}");
        assert!(output.contains("exit when delta {T} is empty"), "{output}");
        // Without the flag the listing is absent.
        let plain = cmd_analyze(&flags(&["--program", &program])).unwrap();
        assert!(!plain.contains("RAM program:"), "{plain}");
    }

    #[test]
    fn analyze_show_ram_tags_only_prefixed_unary_probes_bucket() {
        // Bucket-side matching walks a first-value bucket, so it needs a resolved
        // prefix value and one trailing variable to bind: `S(@x)` and the
        // delta `M(@x)` have no prefix, and the delta `M(@y)` is fully bound.
        // All three are det; only `E(@x·@y)` with `@x` bound is bucket-side.
        let program = write_program(
            "show-ram-bucket.sdl",
            "M(@x) <- S(@x).\nM(@y) <- M(@x), E(@x·@y), M(@y).",
        );
        let output = cmd_analyze(&flags(&["--program", &program, "--show-ram"])).unwrap();
        for line in [
            "      00  probe+emit S(@x) -> M(@x), det\n",
            "      00  probe   M(@x), det  [delta]\n",
            "      01  probe   E(@x·@y)  ; via col0[1], bucket\n",
            "      02  probe+emit M(@y) -> M(@y)  ; via col0[1], det, once  [delta]\n",
        ] {
            assert!(output.contains(line), "missing {line:?} in:\n{output}");
        }
        assert_eq!(output.matches(", bucket").count(), 1, "{output}");
        // A column known only to be `ε`, or only to start with some packed
        // value, has no first value to probe with and is not listed.
        let program = write_program(
            "show-ram-no-first-value.sdl",
            "Z($w) <- E($w, eps).\nY($x) <- S($x), Q(<$y>·$x).",
        );
        let output = cmd_analyze(&flags(&["--program", &program, "--show-ram"])).unwrap();
        for line in [
            "      00  probe+emit E($w, eps) -> Z($w), det\n",
            "      01  probe+emit Q(<$y>·$x) -> Y($x), det, once\n",
        ] {
            assert!(output.contains(line), "missing {line:?} in:\n{output}");
        }
        assert!(!output.contains("; via"), "{output}");
    }

    #[test]
    fn analyze_show_ram_pins_the_existential_cuts_of_the_log_policy() {
        // HasPay's `pay` split binds only dead variables and feeds the emit
        // directly, so it stops at its first extension and the emit cuts back
        // to the `order` split; Viol's head is bound by the Log probe, so its
        // emit cuts straight back there; Compliant has nothing to cut.
        let program = write_program(
            "show-ram-cut.sdl",
            include_str!("../../../examples/programs/order_then_pay.sdl"),
        );
        let output = cmd_analyze(&flags(&["--program", &program, "--show-ram"])).unwrap();
        for line in [
            "      00  probe   Log($t), det\n",
            "      01  solve   $t = $p·order·$s\n",
            "      02  solve   $s = $u·pay·$v, once\n",
            "      03  emit    HasPay($s)  ; cut to 01\n",
            "      02  filter  !HasPay($s)\n",
            "      03  emit    Viol($t)  ; cut to 00\n",
            "      02  emit    Compliant($t)\n",
        ] {
            assert!(output.contains(line), "missing {line:?} in:\n{output}");
        }
        assert_eq!(output.matches(", once").count(), 1, "{output}");
        assert_eq!(output.matches("; cut to").count(), 2, "{output}");
    }

    #[test]
    fn run_stats_surface_instruction_counters() {
        let program = write_program("ram-stats.sdl", "S($x) <- R($x).");
        let instance = write_instance_file(
            "ram-stats.sdi",
            &Instance::unary(rel("R"), [path_of(&["a"]), path_of(&["b"])]),
        );
        let output = cmd_run(&flags(&[
            "--program",
            &program,
            "--instance",
            &instance,
            "--stats",
        ]))
        .unwrap();
        assert!(output.contains("instructions executed: "), "{output}");
        assert!(output.contains("fused probes: "), "{output}");
        assert!(output.contains("delta shard(s)"), "{output}");
        let instructions: usize = output
            .split("instructions executed: ")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|n| n.trim().parse().ok())
            .expect("parse instruction count");
        assert!(instructions > 0, "{output}");
    }

    #[test]
    fn check_passes_clean_programs_and_reports_the_fragment() {
        let program = write_program("check-clean.sdl", "T($x) <- R($x).\nS($x) <- T($x).");
        let output = cmd_check(&flags(&["--program", &program])).unwrap();
        assert!(output.contains("SD-I401"), "{output}");
        assert!(
            output.contains("check: 0 error(s), 0 warning(s)"),
            "{output}"
        );
        // Clean even under --deny warnings.
        cmd_check(&flags(&["--program", &program, "--deny", "warnings"])).unwrap();
    }

    #[test]
    fn check_flags_dead_rules_and_denies_warnings() {
        let program = write_program(
            "check-dead.sdl",
            "U($x) <- R($x).\nS($x) <- R($x).", // U is dead relative to output S
        );
        let output = cmd_check(&flags(&["--program", &program])).unwrap();
        assert!(output.contains("SD-W101"), "{output}");
        assert!(output.contains("SD-W102"), "{output}");
        let err = cmd_check(&flags(&["--program", &program, "--deny", "warnings"])).unwrap_err();
        let message = err.to_string();
        assert!(message.contains("check failed:"), "{message}");
        assert!(message.contains("warning(s) denied"), "{message}");
    }

    #[test]
    fn check_errors_on_unsafe_programs() {
        // $y occurs only in the head: SD-E004, error severity.
        let program = write_program("check-unsafe.sdl", "S($x, $y) <- R($x).");
        let err = cmd_check(&flags(&["--program", &program])).unwrap_err();
        let message = err.to_string();
        assert!(message.contains("SD-E004"), "{message}");
        assert!(message.contains("check failed:"), "{message}");
    }

    #[test]
    fn check_expect_annotations_suppress_deny_and_must_fire() {
        // The dead rule is declared intentional: --deny warnings passes.
        let program = write_program(
            "check-expect.sdl",
            "% expect: SD-W101, SD-W102\nU($x) <- R($x).\nS($x) <- R($x).",
        );
        let output = cmd_check(&flags(&["--program", &program, "--deny", "warnings"])).unwrap();
        assert!(output.contains("SD-W101"), "{output}");
        // An expected code that does not fire is itself a failure.
        let stale = write_program(
            "check-expect-stale.sdl",
            "% expect: SD-W105\nS($x) <- R($x).",
        );
        let err = cmd_check(&flags(&["--program", &stale])).unwrap_err();
        assert!(
            err.to_string()
                .contains("expected lint SD-W105 did not fire"),
            "{err}"
        );
    }

    #[test]
    fn check_format_json_emits_the_versioned_document() {
        let program = write_program("check-json.sdl", "U($x) <- R($x).\nS($x) <- R($x).");
        let output = cmd_check(&flags(&["--program", &program, "--format", "json"])).unwrap();
        assert!(output.contains("\"version\": 1"), "{output}");
        assert!(output.contains("\"diagnostics\": ["), "{output}");
        assert!(output.contains("\"code\": \"SD-W101\""), "{output}");
        assert!(cmd_check(&flags(&["--program", &program, "--format", "yaml"])).is_err());
    }

    #[test]
    fn run_preflights_warnings_and_strips_dead_rules() {
        let program = write_program(
            "run-strip.sdl",
            "U($x) <- R($x).\nS($x) <- R($x).", // U cannot contribute to S
        );
        let instance = write_instance_file(
            "run-strip.sdi",
            &Instance::unary(rel("R"), [path_of(&["a"])]),
        );
        let output = cmd_run(&flags(&[
            "--program",
            &program,
            "--instance",
            &instance,
            "--output",
            "S",
            "--stats",
        ]))
        .unwrap();
        // The dead rule's warning goes to stderr; stdout keeps the answer.
        assert!(!output.contains("warning["), "{output}");
        let options = check_options([rel("S")], Some(&load_instance(&instance).unwrap()));
        let preflight = preflight_warnings(&load_program(&program).unwrap(), &options);
        assert!(preflight.contains("warning[SD-W101]"), "{preflight}");
        assert!(
            output.contains("strip-dead: 1 of 2 rule(s) removed before lowering"),
            "{output}"
        );
        assert!(output.contains("S: 1 fact(s)"), "{output}");
        // The rewrite is observable in the instruction counter: stripping the
        // dead rule executes strictly fewer RAM instructions.
        let instructions = |report: &str| -> usize {
            report
                .split("instructions executed: ")
                .nth(1)
                .and_then(|rest| rest.split(',').next())
                .and_then(|n| n.trim().parse().ok())
                .expect("parse instruction count")
        };
        let unstripped = cmd_run(&flags(&[
            "--program",
            &program,
            "--instance",
            &instance,
            "--output",
            "S",
            "--stats",
            "--no-strip-dead",
        ]))
        .unwrap();
        assert!(!unstripped.contains("strip-dead:"), "{unstripped}");
        assert!(
            instructions(&output) < instructions(&unstripped),
            "stripped {} vs unstripped {}",
            instructions(&output),
            instructions(&unstripped)
        );
        // Answers (the header and the one row) are identical either way.
        assert_eq!(
            output.lines().take(2).collect::<Vec<_>>(),
            unstripped.lines().take(2).collect::<Vec<_>>()
        );
    }

    #[test]
    fn analyze_prints_the_check_summary_line() {
        let program = write_program("analyze-check.sdl", "S($x) <- R($x).");
        let output = cmd_analyze(&flags(&["--program", &program])).unwrap();
        assert!(output.contains("check: 0 error(s)"), "{output}");
    }

    #[test]
    fn rewrite_eliminates_the_requested_feature() {
        let program = write_program("rewrite.sdl", "S($x) <- R($x), a·$x = $x·a.");
        let output =
            cmd_rewrite(&flags(&["--program", &program, "--eliminate", "equations"])).unwrap();
        assert!(!output.contains(" = "), "no equations left:\n{output}");
        let err =
            cmd_rewrite(&flags(&["--program", &program, "--eliminate", "negation"])).unwrap_err();
        assert!(err.to_string().contains("unknown feature"));
    }

    #[test]
    fn normalize_and_algebra_translate_nonrecursive_programs() {
        let program = write_program("norm.sdl", "T(a·$x, $x) <- R($x).\nS($x) <- T($x·a, $x).");
        let normal = cmd_normalize(&flags(&["--program", &program])).unwrap();
        assert!(normal.contains("<-"));
        let algebra = cmd_algebra(&flags(&["--program", &program, "--output", "S"])).unwrap();
        assert!(!algebra.is_empty());
    }

    #[test]
    fn fragment_rewrites_into_a_target_fragment() {
        let program = write_program("frag.sdl", "S($x) <- R($x), a·$x = $x·a.");
        let output = cmd_fragment(&flags(&[
            "--program",
            &program,
            "--target",
            "I",
            "--output",
            "S",
        ]))
        .unwrap();
        assert!(output.contains("target {I}"), "{output}");
        let err = cmd_fragment(&flags(&[
            "--program",
            &program,
            "--target",
            "X",
            "--output",
            "S",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("unknown feature letter"));
    }

    #[test]
    fn hasse_counts_eleven_classes_for_both_fragment_sets() {
        let einr = cmd_hasse(&flags(&[])).unwrap();
        assert!(einr.contains("16 fragments fall into 11"), "{einr}");
        let all = cmd_hasse(&flags(&["--all"])).unwrap();
        assert!(all.contains("64 fragments fall into 11"), "{all}");
    }

    #[test]
    fn unify_lists_solutions_and_rejects_malformed_equations() {
        let output = cmd_unify(&flags(&["--equation", "$x·$y = a·b"])).unwrap();
        assert!(output.contains("1 symbolic solution"), "{output}");
        let with_empty =
            cmd_unify(&flags(&["--equation", "$x·$y = a·b", "--allow-empty"])).unwrap();
        assert!(with_empty.contains("3 symbolic solution"), "{with_empty}");
        assert!(cmd_unify(&flags(&["--equation", "no equals sign"])).is_err());
    }

    #[test]
    fn regex_compiles_and_optionally_runs() {
        let printed = cmd_regex(&flags(&["--pattern", "a (b|c)*"])).unwrap();
        assert!(printed.contains("Match($x)"), "{printed}");

        let instance = write_instance_file(
            "regex.sdi",
            &Instance::unary(
                rel("R"),
                [
                    path_of(&["a", "b", "b"]),
                    path_of(&["b", "a"]),
                    path_of(&["a"]),
                ],
            ),
        );
        let ran = cmd_regex(&flags(&["--pattern", "a (b|c)*", "--instance", &instance])).unwrap();
        assert!(ran.contains("2 matching string(s)"), "{ran}");
        assert!(cmd_regex(&flags(&["--pattern", "(((", "--instance", &instance])).is_err());
    }
}
