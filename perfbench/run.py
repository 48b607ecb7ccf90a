#!/usr/bin/env python3
"""End-to-end benchmark of `seqdl run` / `seqdl query`, from file load to printed answer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the release `seqdl` binary and the
helper `seqdl-perfbench` (perfbench/probe) into $CARGO_TARGET_DIR (default
`.bench_build`), generates the workload's input with `seqdl-wgen` from the
seed, and runs a closed loop with one client: each op is one fresh
`seqdl ... --threads 1` process, started when the previous one has ended.
Every op's output is checked against an answer computed here without the
engine.  The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.

Times are CPU time (user + system) of the op's process, which leaves out the
time a shared host takes the CPU away, normalized for the host's speed: a
fixed reference workload (`seqdl-perfbench calibrate`, none of the
repository's code) runs before and after every op, and the op's CPU time is
divided by the mean of the two and scaled by CALIBRATION_REF_MS.  Raw CPU and
wall-clock figures are reported by the traced run.

--trace 0 reports the end-to-end metrics.  --trace 1 cycles three kinds of op
per input (an untraced op, a `trace layers` replay with a span around each
crate's entry point, a `trace cli` replay timing the in-process `run_cli`),
each round after one calibration, and reports the per-layer metrics;
counters that differ between two traced ops of the same input count as
failures.  See perfbench/README.md.
"""

import argparse
import collections
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

REACHABILITY = "examples/programs/reachability.sdl"
LOG_POLICY = "perfbench/programs/log_policy.sdl"

SETUP_REPEATS = 7
# The calibration's output, which never changes, and the CPU ms it is scaled
# to: about its median on the 2-vCPU shared VM the bounds were set on, so a
# normalized time there reads close to the raw one.
CALIBRATION_OUTPUT = b"closure: 97655 e4dc8521cf4e67a4\n"
CALIBRATION_REF_MS = 65.0
OP_TIMEOUT_MS = 30_000
WORK_DIR = ".bench_work"
DOT = "·"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(target_dir):
    if not os.path.isfile("Cargo.toml") or not os.path.isdir("crates"):
        fail("run from the root of a sequence-datalog checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    release = ["cargo", "build", "--release", "--offline", "-q"]
    for cmd in (release + ["-p", "seqdl-cli", "--bin", "seqdl"],
                release + ["--manifest-path", "perfbench/probe/Cargo.toml"]):
        done = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        if done.returncode != 0:
            sys.stderr.write(done.stderr.decode(errors="replace"))
            fail(f"build failed: {' '.join(cmd)}")
    out = os.path.join(target_dir, "release")
    return os.path.join(out, "seqdl"), os.path.join(out, "seqdl-perfbench")


# ---------------------------------------------------------------- references
# Independent of the engine: graph search and a per-trace scan over the
# generated `.sdi` text.


def unary_facts(path, relation):
    prefix = relation + "("
    with open(path, encoding="utf-8") as f:
        return [line[len(prefix):-2].split(DOT) for line in map(str.strip, f)
                if line.startswith(prefix)]


def successors(path):
    succ = {}
    for x, y in unary_facts(path, "R"):
        succ.setdefault(x, set()).add(y)
    return succ


def reachable(succ, source):
    """Nodes reachable from `source` by one or more edges."""
    seen = set(succ.get(source, ()))
    frontier = list(seen)
    while frontier:
        x = frontier.pop()
        for y in succ.get(x, ()):
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def closure(path):
    succ = successors(path)
    return {x + DOT + y for x in succ for y in reachable(succ, x)}


def compliant(path):
    """Traces in which no `order` comes after the last `pay`."""
    traces = set()
    for events in unary_facts(path, "Log"):
        last_pay = max((i for i, e in enumerate(events) if e == "pay"), default=-1)
        if "order" not in events[last_pay + 1:]:
            traces.add(DOT.join(events))
    return traces


def demand_sources(path, seed, count):
    """`count` seeded query sources, each reaching at least half as many nodes
    as the best of 64 seeded candidates, so every source does comparable
    work.  Returns (source, answers) pairs."""
    succ = successors(path)
    candidates = random.Random(seed).sample(sorted(succ), min(len(succ), 64))
    reach = {s: reachable(succ, s) for s in candidates}
    best = max(len(r) for r in reach.values())
    chosen = [s for s in candidates if 2 * len(reach[s]) >= best][:count]
    return [(s, {s + DOT + y for y in reach[s]}) for s in chosen]


# Sized so one op takes >= ~100 ms and a run holds >= 100 ops (p90 then has at
# least ten samples above it).  `warmup` ops per set-up are checked and
# discarded.
WORKLOADS = {
    "reach_full": {
        "gen": ["digraph", "--nodes", "160", "--edges", "640"],
        "program": REACHABILITY,
        "command": "run",
        "output": "T",
        "reference": closure,
        "warmup": 4,
    },
    "reach_demand": {
        "gen": ["digraph", "--nodes", "12000", "--edges", "18000"],
        "program": REACHABILITY,
        "command": "query",
        "output": "T",
        "sources": 8,
        "warmup": 2,
    },
    "log_policy": {
        "gen": ["event-log", "--traces", "3000", "--max-len", "40"],
        "program": LOG_POLICY,
        "command": "run",
        "output": "Compliant",
        "reference": compliant,
        "warmup": 4,
    },
}


# ---------------------------------------------------------------- ops


# An argv, the input it reads (its key), and a check of its stdout.
Op = collections.namedtuple("Op", "key argv check")


def report_check(header, row_prefix, expected):
    """A `seqdl run`/`query` report is correct if its header line announces
    len(expected) rows and its rows are exactly `expected`."""
    header = f"{header}: {len(expected)} "

    def check(out):
        lines = out.decode("utf-8", errors="replace").splitlines()
        rows = [line[len(row_prefix):-1] for line in lines if line.startswith(row_prefix)]
        return (any(line.startswith(header) for line in lines)
                and len(rows) == len(expected) and set(rows) == expected)

    return check


def op_cycle(spec, instance, seed):
    """The workload's inputs in cycle order: (key, seqdl args, expected answer
    count, check of the seqdl report)."""
    out = spec["output"]
    base = ["--program", spec["program"], "--instance", instance, "--threads", "1"]
    if spec["command"] == "run":
        expected = spec["reference"](instance)
        return [(out, ["run", *base, "--output", out], len(expected),
                 report_check(out, f"  {out}(", expected))]
    cycle = []
    for source, expected in demand_sources(instance, seed, spec["sources"]):
        goal = f"{out}({source}{DOT}$y)"
        cycle.append((source, ["query", *base, "--goal", goal], len(expected),
                      report_check(goal, f"  {out}(", expected)))
    return cycle


Result = collections.namedtuple("Result", "ok wall_ms cpu_ms rss_mib")


class Runner:
    """Starts ops through one `seqdl-perfbench serve` launcher, which times
    each child and reads its peak RSS, and checks every output.  An output
    equal to one already checked for the same argv is accepted as is."""

    def __init__(self, helper, work):
        self.out_path = os.path.join(work, "op.out")
        self.launcher = subprocess.Popen([helper, "serve"], stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, text=True)
        self.verified = {}
        self.calibration = Op("calibrate", [helper, "calibrate"],
                              lambda out: out == CALIBRATION_OUTPUT)

    def close(self):
        try:
            self.launcher.stdin.close()
        except OSError:
            pass  # the launcher already exited
        self.launcher.wait()

    def run(self, op):
        self.launcher.stdin.write("\t".join([self.out_path, str(OP_TIMEOUT_MS), *op.argv]) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline().split()
        if len(reply) != 4:
            fail(f"launcher failed on: {' '.join(op.argv)}")
        code, wall_ns, rss_kib, cpu_ns = map(int, reply)
        with open(self.out_path, "rb") as f:
            out = f.read()
        key = tuple(op.argv)
        ok = code == 0 and (self.verified.get(key) == out or op.check(out))
        if ok:
            self.verified[key] = out
        return Result(ok, wall_ns / 1e6, cpu_ns / 1e6, rss_kib / 1024.0)

    def calibrate(self):
        """CPU ms of one run of the reference workload."""
        result = self.run(self.calibration)
        if not result.ok:
            fail("the calibration workload printed an unexpected result")
        return result.cpu_ms


def speed(before_ms, after_ms):
    """The factor that scales CPU time measured between two calibrations to
    the reference host speed."""
    return CALIBRATION_REF_MS * 2 / (before_ms + after_ms)


def generate(runner, helper, spec, seed, path):
    """Write the workload's input; returns (CPU ms taken, digest of the file)."""
    argv = [helper, "gen", spec["gen"][0], "--seed", str(seed), "--out", path, *spec["gen"][1:]]
    result = runner.run(Op("gen", argv, lambda out: out == b""))
    if not result.ok:
        fail(f"input generation failed: {' '.join(argv)}")
    with open(path, "rb") as f:
        return result.cpu_ms, hashlib.sha256(f.read()).hexdigest()


def set_up(runner, helper, spec, seed, instance, digest, ops):
    """Regenerate the input, which must come out byte-identical, and run the
    discarded warm-up ops.  Returns the CPU seconds taken, normalized by the
    calibrations before and after."""
    before = runner.calibrate()
    cpu_ms, again = generate(runner, helper, spec, seed, instance)
    if again != digest:
        fail("input generation is not deterministic")
    for i in range(spec["warmup"]):
        result = runner.run(ops[i % len(ops)])
        if not result.ok:
            fail(f"warm-up op failed: {' '.join(ops[i % len(ops)].argv)}")
        cpu_ms += result.cpu_ms
    return cpu_ms / 1e3 * speed(before, runner.calibrate())


# ---------------------------------------------------------------- metrics


def metric(value, unit):
    return {"value": value, "unit": unit}


def percentile(ordered, q):
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(runner, ops, seconds, setup_s):
    """The closed loop: ops in cycle order, each followed by a calibration,
    until `seconds` have passed."""
    results, cpu = [], []
    before = runner.calibrate()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        result = runner.run(ops[len(results) % len(ops)])
        after = runner.calibrate()
        results.append(result)
        if result.ok:
            cpu.append(result.cpu_ms * speed(before, after))
        before = after
    good = [r for r in results if r.ok]
    if not good:
        fail("every op failed")
    if len(good) < 100:
        print(f"perfbench: {len(good)} ops; p90 has fewer than ten samples above it",
              file=sys.stderr)
    cpu.sort()
    return len(results), len(results) - len(good), {
        "norm_cpu_ms.p50": metric(statistics.median(cpu), "ms"),
        "norm_cpu_ms.p90": metric(percentile(cpu, 0.9), "ms"),
        "ops_per_norm_cpu_s": metric(len(cpu) * 1e3 / sum(cpu), "1/s"),
        "peak_rss_mib": metric(statistics.median(r.rss_mib for r in good), "MiB"),
        "setup_s": metric(setup_s, "s"),
    }


# Spans on the CLI's own path; `engine.lower` is an extra call (the executor
# lowers again inside `exec.run`), so it is left out of `cli.self_ms`.
CLI_PATH_SPANS = ["io.load_program", "io.load_instance", "rewrite.magic",
                  "analysis.check", "rewrite.strip_dead", "exec.run"]

# Counters that must repeat exactly between traced ops of the same input.
STABLE_COUNTS = ["answers", "facts_loaded", "diagnostics", "rules_removed", "iterations",
                 "derived_facts", "rule_firings", "index_probes", "scans",
                 "instructions_executed", "emit_memo_hits", "distinct_paths"]


def read_trace(path):
    """The replay's spans file as ({span: CPU ms}, counts), or None."""
    try:
        with open(path, encoding="utf-8") as f:
            trace = json.load(f)
        os.remove(path)
    except (OSError, ValueError):
        return None
    return {s["name"]: s["cpu_ns"] / 1e6 for s in trace["spans"]}, trace["counts"]


def per_layer(runner, binary, helper, cycle, seconds, work):
    spans = os.path.join(work, "spans.json")

    def replay(mode, args):
        return [helper, "trace", mode, "--spans", spans, "--", *args]

    rounds = [[("plain", Op(key, [binary, *args], check)),
               ("layers", Op(key, replay("layers", args),
                             lambda out, n=count: out == f"answers: {n}\n".encode())),
               ("cli", Op(key, replay("cli", args), check))]
              for key, args, count, check in cycle]
    processes = {"plain": [], "cli": []}
    layer_ops, run_cli_ms, calibrations = [], [], []
    counts = {}
    attempted = failed = 0
    start = time.perf_counter()
    done = 0
    # Every input is traced at least twice, so its counters are compared.
    while time.perf_counter() - start < seconds or done < 2 * len(rounds):
        calibrations.append(runner.calibrate())
        for kind, op in rounds[done % len(rounds)]:
            attempted += 1
            result = runner.run(op)
            trace = read_trace(spans) if kind != "plain" else None
            if not result.ok or (kind != "plain" and trace is None):
                failed += 1
            elif kind == "layers":
                first = counts.setdefault(op.key, trace[1])
                changed = [c for c in STABLE_COUNTS if first[c] != trace[1][c]]
                if changed:
                    print(f"perfbench: counters {changed} differ between traced ops of "
                          f"{op.key}", file=sys.stderr)
                    failed += 1
                else:
                    layer_ops.append(trace)
            else:
                processes[kind].append(result)
                if kind == "cli":
                    run_cli_ms.append(trace[0]["cli.run_cli"])
        done += 1
    if not (layer_ops and run_cli_ms and processes["plain"]):
        fail("no traced op succeeded")

    def span(name):
        return statistics.median(ms.get(name, 0.0) for ms, _ in layer_ops)

    def per_op(f):
        return statistics.median(f(ms, c) for ms, c in layer_ops)

    def count(name):
        """Mean over the workload's inputs; exact, since each repeats."""
        return statistics.mean(c[name] for c in counts.values())

    plain = processes["plain"]
    walls = sorted(r.wall_ms for r in plain)
    run_cli = statistics.median(run_cli_ms)
    cli_path = per_op(lambda ms, c: sum(ms.get(s, 0.0) for s in CLI_PATH_SPANS))
    return attempted, failed, {
        "io.load_program_ms": metric(span("io.load_program"), "ms"),
        "io.load_instance_ms": metric(span("io.load_instance"), "ms"),
        "io.facts_loaded": metric(count("facts_loaded"), "count"),
        "io.us_per_fact": metric(
            per_op(lambda ms, c: ms["io.load_instance"] * 1e3 / max(1, c["facts_loaded"])), "us"),
        "analysis.check_ms": metric(span("analysis.check"), "ms"),
        "analysis.diagnostics": metric(count("diagnostics"), "count"),
        "rewrite.ms": metric(
            per_op(lambda ms, c: ms.get("rewrite.magic", 0.0) + ms["rewrite.strip_dead"]), "ms"),
        "rewrite.strip_dead_ms": metric(span("rewrite.strip_dead"), "ms"),
        "rewrite.rules_removed": metric(count("rules_removed"), "count"),
        "engine.lower_ms": metric(span("engine.lower"), "ms"),
        "engine.instructions_executed": metric(count("instructions_executed"), "count"),
        "engine.index_probes": metric(count("index_probes"), "count"),
        "engine.scans": metric(count("scans"), "count"),
        "engine.rule_firings": metric(count("rule_firings"), "count"),
        "engine.emit_memo_hits": metric(count("emit_memo_hits"), "count"),
        "engine.derived_per_firing": metric(
            count("derived_facts") / max(1, count("rule_firings")), "ratio"),
        "engine.ns_per_instruction": metric(
            per_op(lambda ms, c: ms["exec.run"] * 1e6 / max(1, c["instructions_executed"])), "ns"),
        "exec.run_ms": metric(span("exec.run"), "ms"),
        "exec.iterations": metric(count("iterations"), "count"),
        "exec.derived_facts": metric(count("derived_facts"), "count"),
        "core.distinct_paths": metric(count("distinct_paths"), "count"),
        "core.store_kib": metric(count("store_bytes") / 1024.0, "KiB"),
        "cli.run_cli_ms": metric(run_cli, "ms"),
        "cli.self_ms": metric(run_cli - cli_path, "ms"),
        "trace.overhead_ratio": metric(
            statistics.median(r.cpu_ms for r in processes["cli"])
            / statistics.median(r.cpu_ms for r in plain), "ratio"),
        "trace.ops": metric(len(layer_ops) + len(run_cli_ms), "count"),
        "host.cpu_ms.p50": metric(statistics.median(r.cpu_ms for r in plain), "ms"),
        "host.calibration_ms": metric(statistics.median(calibrations), "ms"),
        "host.wall_ms.p50": metric(statistics.median(walls), "ms"),
        "host.wall_ms.p90": metric(percentile(walls, 0.9), "ms"),
        "host.wait_share": metric(
            statistics.median(1 - r.cpu_ms / r.wall_ms for r in plain), "ratio"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    binary, helper = build(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    spec = WORKLOADS[args.workload]
    work = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    runner = Runner(helper, work)
    try:
        instance = os.path.join(work, "input.sdi")
        _, digest = generate(runner, helper, spec, args.seed, instance)
        cycle = op_cycle(spec, instance, args.seed)
        ops = [Op(key, [binary, *argv], check) for key, argv, _, check in cycle]
        setups = [set_up(runner, helper, spec, args.seed, instance, digest, ops)
                  for _ in range(1 if args.trace else SETUP_REPEATS)]
        if args.trace:
            attempted, failed, metrics = per_layer(runner, binary, helper, cycle,
                                                   args.seconds, work)
        else:
            attempted, failed, metrics = end_to_end(runner, ops, args.seconds,
                                                    statistics.median(setups))
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(WORK_DIR) and not os.listdir(WORK_DIR):
            os.rmdir(WORK_DIR)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
