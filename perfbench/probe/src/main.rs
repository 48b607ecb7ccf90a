//! Helper binary of the end-to-end benchmark (`perfbench/run.py`).
//!
//! ```text
//! seqdl-perfbench gen digraph   --seed N --nodes N --edges N --out FILE
//! seqdl-perfbench gen event-log --seed N --traces N --max-len N --out FILE
//! seqdl-perfbench trace layers --spans FILE -- <seqdl run|query args>
//! seqdl-perfbench trace cli    --spans FILE -- <seqdl run|query args>
//! seqdl-perfbench serve
//! seqdl-perfbench calibrate
//! ```
//!
//! `gen` writes a `seqdl-wgen` instance as an `.sdi` file.  `trace layers`
//! replays one `seqdl run`/`query` op by calling each crate's public entry
//! point in the order the CLI calls them, keeping one span per call in memory
//! together with the counters those calls return; `trace cli` times the
//! whole in-process `seqdl_cli::run_cli` and prints its report as the `seqdl`
//! binary would.  Both write their spans and counts as one JSON object to
//! `--spans` when the op ends.  Nothing inside the program is instrumented.
//! `serve` starts the ops' processes for `run.py` (see [`launch`]);
//! `calibrate` runs a fixed reference workload (see [`calibrate`]).

mod calibrate;
mod launch;

use seqdl_analysis::{check_program, CheckOptions};
use seqdl_cli::{parse_flags, Flags};
use seqdl_core::{store_stats, RelName};
use seqdl_engine::EvalStats;
use seqdl_exec::Executor;
use seqdl_io::{load_instance, load_program, save_instance};
use seqdl_rewrite::{
    magic, nonempty_relations, parse_goal, strip_dead_seeded, strip_dead_with_edb,
};
use seqdl_wgen::Workloads;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Instant;

type Fallible<T> = Result<T, String>;

fn text(error: impl std::fmt::Display) -> String {
    error.to_string()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(message) = dispatch(&args) {
        eprintln!("seqdl-perfbench: {message}");
        std::process::exit(1);
    }
}

fn dispatch(args: &[String]) -> Fallible<()> {
    match args {
        [cmd] if cmd == "serve" => launch::serve(),
        [cmd] if cmd == "calibrate" => {
            println!("{}", calibrate::calibrate());
            Ok(())
        }
        [cmd, kind, rest @ ..] if cmd == "gen" => generate(kind, &Options::parse(rest)?),
        [cmd, mode, rest @ ..] if cmd == "trace" => {
            let split = rest
                .iter()
                .position(|a| a == "--")
                .ok_or("trace needs `--`")?;
            let own = Options::parse(&rest[..split])?;
            let spans_path = own.get("spans")?;
            let op_args = &rest[split + 1..];
            let mut recorder = Recorder::new();
            let counts = match mode.as_str() {
                "layers" => replay_layers(&mut recorder, op_args)?,
                "cli" => replay_cli(&mut recorder, op_args)?,
                other => return Err(format!("unknown trace mode `{other}`")),
            };
            std::fs::write(spans_path, recorder.json(mode, &counts))
                .map_err(|e| format!("cannot write {spans_path}: {e}"))
        }
        _ => Err(
            "usage: seqdl-perfbench gen <digraph|event-log> … | trace <layers|cli> … | serve | calibrate"
                .into(),
        ),
    }
}

/// The `seqdl` CLI's flags, for the op being replayed.
fn flags(args: &[String]) -> Fallible<Flags> {
    parse_flags(args).map_err(text)
}

/// This binary's own `--name value` options.
struct Options(Vec<(String, String)>);

impl Options {
    fn parse(args: &[String]) -> Fallible<Options> {
        let mut pairs = Vec::new();
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected `{arg}`"))?;
            let value = rest
                .next()
                .ok_or_else(|| format!("--{name} expects a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Options(pairs))
    }

    fn get(&self, name: &str) -> Fallible<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| format!("missing --{name}"))
    }

    fn number(&self, name: &str) -> Fallible<usize> {
        let value = self.get(name)?;
        value
            .parse()
            .map_err(|_| format!("--{name} expects a number, got `{value}`"))
    }
}

fn generate(kind: &str, options: &Options) -> Fallible<()> {
    let workloads = Workloads::new(options.number("seed")? as u64);
    let instance = match kind {
        "digraph" => workloads.digraph_instance(options.number("nodes")?, options.number("edges")?),
        "event-log" => workloads.event_log(options.number("traces")?, options.number("max-len")?),
        other => return Err(format!("unknown generator `{other}`")),
    };
    save_instance(options.get("out")?, &instance).map_err(text)
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// CPU time consumed by the calling thread.  At `--threads 1` every layer
/// runs on the main thread, so a span's CPU time is the layer's own work,
/// without the time the host took the CPU away.
fn thread_cpu_ns() -> u128 {
    let mut time = Timespec::default();
    // SAFETY: `time` is valid for writes and has the layout of `struct
    // timespec`; the clock id is a constant the kernel always supports.
    unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut time) };
    time.sec as u128 * 1_000_000_000 + time.nsec as u128
}

/// A span's wall-clock interval (from the op's start) and CPU time.
struct Span {
    name: &'static str,
    start_ns: u128,
    end_ns: u128,
    cpu_ns: u128,
}

/// Spans of one op, kept in memory until the op ends.  Every span is a child
/// of the op's root span `op`.
struct Recorder {
    origin: Instant,
    origin_cpu_ns: u128,
    spans: Vec<Span>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            origin_cpu_ns: thread_cpu_ns(),
            spans: Vec::new(),
        }
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (start_ns, start_cpu) = (self.origin.elapsed().as_nanos(), thread_cpu_ns());
        let value = f();
        let cpu_ns = thread_cpu_ns() - start_cpu;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: self.origin.elapsed().as_nanos(),
            cpu_ns,
        });
        value
    }

    fn json(&self, mode: &str, counts: &[(&str, usize)]) -> String {
        let root = Span {
            name: "op",
            start_ns: 0,
            end_ns: self.origin.elapsed().as_nanos(),
            cpu_ns: thread_cpu_ns() - self.origin_cpu_ns,
        };
        let mut out = format!("{{\"mode\": \"{mode}\", \"spans\": [");
        for (i, span) in std::iter::once(&root).chain(&self.spans).enumerate() {
            let (sep, parent) = if i == 0 {
                ("", "null")
            } else {
                (", ", "\"op\"")
            };
            write!(
                out,
                "{sep}{{\"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"cpu_ns\": {}}}",
                span.name, span.start_ns, span.end_ns, span.cpu_ns
            )
            .expect("write to string");
        }
        out.push_str("], \"counts\": {");
        for (i, (name, value)) in counts.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(out, "{sep}\"{name}\": {value}").expect("write to string");
        }
        out.push_str("}}\n");
        out
    }
}

/// One `seqdl run`/`query` op as the CLI performs it, one span per layer call.
/// Prints the answer count; returns the counters the calls report.
fn replay_layers(rec: &mut Recorder, op_args: &[String]) -> Fallible<Vec<(&'static str, usize)>> {
    let (command, rest) = op_args.split_first().ok_or("no seqdl command")?;
    let op = flags(rest)?;
    let threads = op.get_usize("threads").map_err(text)?.unwrap_or(1);
    let executor = Executor::new().with_threads(threads);
    let program_path = op.require("program").map_err(text)?;
    let instance_path = op.require("instance").map_err(text)?;
    let program = rec.span("io.load_program", || load_program(program_path));
    let program = program.map_err(text)?;
    let instance = rec.span("io.load_instance", || load_instance(instance_path));
    let instance = instance.map_err(text)?;

    let (answers, stats, diagnostics, removed) = match command.as_str() {
        "run" => {
            let output = RelName::new(op.require("output").map_err(text)?);
            let (options, report) = rec.span("analysis.check", || {
                let mut options = CheckOptions::for_outputs([output]);
                options.nonempty_edb = Some(nonempty_relations(&instance));
                let report = check_program(&program, &options);
                (options, report)
            });
            let stripped = rec.span("rewrite.strip_dead", || {
                strip_dead_with_edb(&program, &options.outputs, options.nonempty_edb.as_ref())
            });
            rec.span("engine.lower", || {
                seqdl_engine::ram::lower(&stripped.program)
            })
            .map_err(text)?;
            let (result, stats) = rec
                .span("exec.run", || {
                    executor.run_with_stats(&stripped.program, &instance)
                })
                .map_err(text)?;
            let answers = result.relation(output).map_or(0, |r| r.len());
            (
                answers,
                stats,
                report.diagnostics.len(),
                stripped.removed.len(),
            )
        }
        "query" => {
            let goal = parse_goal(op.require("goal").map_err(text)?).map_err(text)?;
            let mp = rec
                .span("rewrite.magic", || magic(&program, &goal))
                .map_err(text)?;
            let report = rec.span("analysis.check", || {
                let mut options = CheckOptions::for_outputs([goal.relation]);
                options.nonempty_edb = Some(nonempty_relations(&instance));
                check_program(&program, &options)
            });
            let stripped = rec.span("rewrite.strip_dead", || {
                let seeded: BTreeSet<RelName> = mp.seeds.iter().map(|f| f.relation).collect();
                strip_dead_seeded(&mp.program, &BTreeSet::from([mp.answer]), &seeded)
            });
            rec.span("engine.lower", || {
                seqdl_engine::ram::lower(&stripped.program)
            })
            .map_err(text)?;
            let (result, stats) = rec
                .span("exec.run", || {
                    executor.run_with_stats_seeded(&stripped.program, &instance, &mp.seeds)
                })
                .map_err(text)?;
            (
                mp.answers(&result).len(),
                stats,
                report.diagnostics.len(),
                stripped.removed.len(),
            )
        }
        other => return Err(format!("cannot replay `seqdl {other}`")),
    };
    println!("answers: {answers}");
    let store = store_stats();
    let EvalStats {
        iterations,
        derived_facts,
        rule_firings,
        index_probes,
        scans,
        instructions_executed,
        emit_memo_hits,
        ..
    } = stats;
    Ok(vec![
        ("answers", answers),
        ("facts_loaded", instance.fact_count()),
        ("diagnostics", diagnostics),
        ("rules_removed", removed),
        ("iterations", iterations),
        ("derived_facts", derived_facts),
        ("rule_firings", rule_firings),
        ("index_probes", index_probes),
        ("scans", scans),
        ("instructions_executed", instructions_executed),
        ("emit_memo_hits", emit_memo_hits),
        ("distinct_paths", store.distinct_paths),
        ("store_bytes", store.total_bytes()),
    ])
}

/// One op through the in-process CLI entry point, printing its report exactly
/// as the `seqdl` binary does.
fn replay_cli(rec: &mut Recorder, op_args: &[String]) -> Fallible<Vec<(&'static str, usize)>> {
    let report = rec.span("cli.run_cli", || seqdl_cli::run_cli(op_args));
    let report = report.map_err(text)?;
    if !report.is_empty() {
        println!("{report}");
    }
    Ok(Vec::new())
}
