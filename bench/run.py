"""Benchmark of the `netsec` command line, end to end and layer by layer.

Usage, from the repository root:

    python3 bench/run.py --workload star-sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seconds 25

Each command of a workload runs in a fresh interpreter, as a CLI user's
does, so caches inside the program start cold.  A pass runs the workload's
commands once; passes repeat until `--seconds` have elapsed and every
metric is the median over passes.  Times are reported at a fixed machine
speed, measured by reference work that each child times right after its
command (see reference.py).  Every output is checked (see
workloads.py), and each pass must reproduce the first pass's bytes.

With `--trace 0` the last stdout line reports the end-to-end metrics.  With
`--trace 1` untraced and traced passes alternate, and the line reports the
per-layer metrics of the traced passes (see tracer.py) plus the tracing
overhead.  Count metrics must repeat exactly between traced passes.  The
metric names and units are those listed in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import STDOUT, WORKLOADS, Command

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).with_name("child.py")
# Every child has ended by then; a run must finish within 180 s.
RUN_LIMIT_S = 165.0
MIN_TRACED_PASSES = 2
SETUP_SAMPLES = 6  # set-up-only children per run, besides one per command
# Per-layer counts that do not depend on timing and must repeat exactly.
COUNT_METRICS = (
    "dissemination.closed.calls",
    "attack.solve.calls",
    "attack.stolen.calls",
    "game.brd.calls",
    "game.brd.solves_per_call",
    "game.opt.calls",
    "game.opt.solves_per_call",
    "game.nonconverged",
)


# A child that imports netsec and exits without running a command.
SETUP_ONLY = Command(None)


class Invocation:
    """One command run in its own process."""

    def __init__(self, record=None, outputs=None, problem=None):
        self.record = record
        self.outputs = outputs
        self.problem = problem


def child_env():
    env = dict(os.environ)
    # The thread-count knob of the program must not leak in from the caller.
    env.pop("NETSEC_THREADS", None)
    return env


def invoke(command, trace, reference, workdir, hard_deadline, env):
    for name in command.files:
        (workdir / name).unlink(missing_ok=True)
    result = workdir / "child-result.json"
    result.unlink(missing_ok=True)
    spec = workdir / "child-spec.json"
    spec.write_text(json.dumps({"src": str(SRC), "argv": command.argv, "trace": trace,
                                "reference": reference, "result": str(result)}))
    timeout = hard_deadline - time.perf_counter()
    if timeout <= 0:
        return Invocation(problem="no time left in the run")
    spawn = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(spec), repr(spawn)],
            cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            timeout=timeout, check=False,
        )
    except subprocess.TimeoutExpired:
        return Invocation(problem=f"timed out after {timeout:.0f} s")
    if proc.returncode != 0 or not result.exists():
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
        return Invocation(problem=f"exit code {proc.returncode}: {' | '.join(tail)}")
    record = json.loads(result.read_text())
    if not Path(record["module"]).resolve().is_relative_to(SRC):
        return Invocation(problem=f"imported netsec from {record['module']}, not {SRC}")
    outputs = {STDOUT: proc.stdout}
    for name in command.files:
        path = workdir / name
        if not path.exists():
            return Invocation(record, problem=f"did not write {name}")
        outputs[name] = path.read_bytes()
    return Invocation(record, outputs)


def merge_trace(invocations):
    """Sum the span totals of one pass over its commands."""
    merged = {}
    for inv in invocations:
        for span, stats in inv.record["trace"].items():
            into = merged.setdefault(span, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0,
                                            "solves": 0, "nonconverged": 0, "durations": []})
            for key in ("calls", "s", "self_s", "work", "solves", "nonconverged"):
                into[key] += stats[key]
            into["durations"] += stats["durations"] or []
    return merged


def layer_metrics(invocations):
    """Per-layer metrics of one traced pass."""
    t = merge_trace(invocations)
    m = {
        "cli.self_s": t["cli.main"]["self_s"],
        "graph.build_s": t["graph.build"]["s"],
    }
    for route, rate in (("exact", "masks_per_s"), ("mc", "source_samples_per_s")):
        span = t[f"dissemination.{route}"]
        m[f"dissemination.{route}.s"] = span["s"]
        m[f"dissemination.{route}.{rate}"] = span["work"] / span["s"] if span["s"] else 0.0
    closed, solve, stolen = t["dissemination.closed"], t["attack.solve"], t["attack.stolen"]
    m["dissemination.closed.calls"] = closed["calls"]
    m["dissemination.closed.s"] = closed["s"]
    m["attack.solve.calls"] = solve["calls"]
    m["attack.solve.s"] = solve["s"]
    m["attack.solve.us_per_call"] = 1e6 * solve["s"] / solve["calls"] if solve["calls"] else 0.0
    m["attack.stolen.calls"] = stolen["calls"]
    m["attack.stolen.s"] = stolen["s"]
    for solver in ("brd", "opt"):
        span = t[f"game.{solver}"]
        calls, durations = span["calls"], span["durations"]
        m[f"game.{solver}.calls"] = calls
        m[f"game.{solver}.s"] = span["s"]
        m[f"game.{solver}.self_s"] = span["self_s"]
        m[f"game.{solver}.p50_s"] = statistics.median(durations) if durations else 0.0
        m[f"game.{solver}.max_s"] = max(durations, default=0.0)
        m[f"game.{solver}.solves_per_call"] = span["solves"] / calls if calls else 0.0
    m["game.nonconverged"] = sum(span["nonconverged"] for span in t.values())
    return m


def scaled_median(passes, key):
    """Median over passes of a time summed over each pass's commands, each
    at the speed at which the reference work takes its nominal time."""
    return statistics.median(sum(inv.record["speed"][key] * inv.record[key] for inv in p)
                             for p in passes)


def end_to_end_metrics(passes, setups, attempted, failed):
    """End-to-end metrics of untraced passes and the set-up-only children."""
    records = [[inv.record for inv in p] for p in passes]
    setups = setups + [r["setup_s"] for p in records for r in p]
    return {
        "wall_s": scaled_median(passes, "wall_s"),
        "setup_s": statistics.median(setups),
        "cpu_s": scaled_median(passes, "cpu_s"),
        "peak_rss_mb": statistics.median(max(r["peak_rss_mb"] for r in p) for p in records),
        "ok_frac": (attempted - failed) / attempted,
    }


def check_pass(workload, invocations, expected):
    """Record output problems on a pass's invocations; return the expected
    outputs.

    The outputs of the first pass that passes the workload's check are
    expected from every later pass, byte for byte.
    """
    outputs = [inv.outputs for inv in invocations]
    if any(o is None for o in outputs) or outputs == expected:
        return expected
    for idx, problem in workload.check(outputs).items():
        invocations[idx].problem = problem
    if expected is None:
        return outputs if all(inv.problem is None for inv in invocations) else None
    for inv, out, first in zip(invocations, outputs, expected):
        if out != first and inv.problem is None:
            inv.problem = "output differs from the first pass"
    return expected


def measure(name, seed, seconds, trace, declared):
    """Run one workload; return its result, printable lines and numpy version."""
    workload = WORKLOADS[name](seed)
    env = child_env()
    start = time.perf_counter()
    deadline, hard_deadline = start + seconds, start + RUN_LIMIT_S
    problems = []
    attempted = failed = 0
    timed = {False: [], True: []}  # passes where every command succeeded
    expected = None
    numpy_version = None
    setups = []
    workdir = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT))
    try:
        for file_name, text in workload.inputs.items():
            (workdir / file_name).write_text(text)
        # Children that only set up: the first untimed, so no timed child pays
        # for cold file caches or, where the environment lets Python write it,
        # bytecode compilation; the rest so that set-up time has enough
        # samples on workloads with few, long passes.
        for i in range(SETUP_SAMPLES + 1):
            inv = invoke(SETUP_ONLY, False, None, workdir, hard_deadline, env)
            if inv.problem:
                problems.append(f"{name}: set-up only: {inv.problem}")
            elif i:
                setups.append(inv.record["setup_s"])
        traced = False
        durations = []
        pass_start = time.perf_counter()
        while True:
            invocations = [invoke(c, traced, workload.reference, workdir, hard_deadline, env)
                           for c in workload.commands]
            attempted += len(invocations)
            expected = check_pass(workload, invocations, expected)
            bad = [inv for inv in invocations if inv.problem]
            failed += len(bad)
            problems += [f"{name}: {' '.join(c.argv)}: {inv.problem}"
                         for c, inv in zip(workload.commands, invocations) if inv.problem]
            if not bad:
                timed[traced].append(invocations)
                numpy_version = invocations[0].record["numpy"]
            now = time.perf_counter()
            durations.append(now - pass_start)
            pass_start = now
            enough = timed[False] and (not trace or len(timed[True]) >= MIN_TRACED_PASSES)
            # Stop once less than half a typical pass is left before the deadline.
            if deadline - now < statistics.median(durations) / 2 and (enough or bad):
                break
            if now >= hard_deadline:
                break
            traced = trace and not traced
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not timed[False] or (trace and not timed[True]):
        problems.append(f"{name}: no pass completed without failure")
        metrics = {m: 0.0 for m in declared}
    elif trace:
        per_pass = [layer_metrics(p) for p in timed[True]]
        metrics = {m: statistics.median(p[m] for p in per_pass) for m in per_pass[0]}
        for count in COUNT_METRICS:
            values = sorted({p[count] for p in per_pass})
            if len(values) > 1:
                problems.append(f"{name}: {count} drifted between traced passes: {values}")
        for count in workload.nonzero_counts:
            if metrics[count] == 0:
                problems.append(f"{name}: {count} is 0; the tracer missed the calls")
        metrics["trace.overhead_s"] = (scaled_median(timed[True], "wall_s")
                                       - scaled_median(timed[False], "wall_s"))
    else:
        metrics = end_to_end_metrics(timed[False], setups, attempted, failed)
    if set(metrics) != set(declared):
        raise SystemExit(f"bench: metrics {sorted(set(metrics) ^ set(declared))} "
                         "do not match BENCHMARK.json")

    summary = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": declared[m]} for m in declared},
    }
    lines = [f"{name}: {m} = {metrics[m]:.6g} {declared[m]}" for m in declared]
    lines.append(f"{name}: fail_frac = {failed / attempted:.6g} ratio "
                 f"({failed} of {attempted} invocations, {len(timed[False])} untraced "
                 f"and {len(timed[True])} traced passes)")
    if timed[False]:
        raw = [[inv.record for inv in p] for p in timed[False]]
        lines.append(f"{name}: unscaled wall_s = "
                     f"{statistics.median(sum(r['wall_s'] for r in p) for p in raw):.6g} s, "
                     f"cpu_s = {statistics.median(sum(r['cpu_s'] for r in p) for p in raw):.6g} s, "
                     f"setup_s = {statistics.median(setups + [r['setup_s'] for p in raw for r in p]):.6g} s; "
                     f"{workload.reference} speed factor = "
                     f"{statistics.median(r['speed']['wall_s'] for p in raw for r in p):.6g} (wall), "
                     f"{statistics.median(r['speed']['cpu_s'] for p in raw for r in p):.6g} (CPU)")
    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)
    return summary, lines, numpy_version


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Unwind on SIGTERM, so the running child is killed and the work
    # directory removed as on any other exit.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    config_path = ROOT / "BENCHMARK.json"
    if not (SRC / "netsec" / "cli.py").is_file() or not config_path.is_file():
        print(f"bench: {SRC / 'netsec'} or {config_path} is missing; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    config = json.loads(config_path.read_text())
    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in config[section]}

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        summary, lines, numpy_version = measure(name, args.seed, args.seconds,
                                                bool(args.trace), declared)
        results[name] = summary
        print("\n".join(lines), flush=True)
    print(f"machine: nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
          f"numpy={numpy_version} platform={platform.platform()}")
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{m}": v for name, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
