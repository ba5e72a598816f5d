"""gtlab benchmark: one workload, single client, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every pass runs in a fresh interpreter
(``child.py``), one after another: a pass starts only when the previous one
has finished. With ``--trace 0`` the benchmark times passes for about SECONDS
(at least MIN_PASSES of them) and reports the end-to-end metrics
named in BENCHMARK.json: median pass wall time, defective sets checked per
second, median import time of gtlab, and median peak resident memory. Times
are scaled to a reference machine speed measured during each step (see
``calibrate.py``); the table also prints the unscaled wall time. With
``--trace 1`` it runs one untraced pass and two traced passes and reports the
per-layer metrics; exact counters must agree between the two traced passes.
Every pass's output is checked against the pinned reference; a pass that
raised or differed counts as failed. The last line of stdout is the result
JSON; the lines before it are a stamp and a readable table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
SPANS_DIR = os.path.join(ROOT, ".perfbench")

MIN_PASSES = 2
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170.0
EXACT_COUNTERS = ("core.queries_per_run.", "core.recorded_runs", "analysis.violations",
                  "cli.report_bytes")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


class Runner:
    def __init__(self, deadline: float) -> None:
        self.deadline = deadline

    def child(self, *argv: str) -> dict:
        """Runs one child step to completion and returns its JSON line."""
        remaining = self.deadline - perf_counter()
        if remaining <= 0:
            raise BenchError("time limit reached before the run finished")
        proc = subprocess.Popen(
            [sys.executable, CHILD, *argv], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"child {' '.join(argv)} exceeded the time limit")
        finally:
            # Reap any worker processes left in the child's session.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.returncode != 0 or not out.strip():
            raise BenchError(f"child {' '.join(argv)} exited {proc.returncode}: {err.strip()}")
        return json.loads(out.strip().splitlines()[-1])


def _stamp(seed: int, backend: str) -> dict:
    rev = "unknown"
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or rev
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "backend": backend,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_rev": rev,
        "seed": seed,
    }


def _scaled(step: dict) -> float:
    return step["wall_s"] * step["speed"]


def _scaled_setup(step: dict) -> float:
    return step["setup_s"] * step["setup_speed"]


def measure(runner: Runner, workload: str, seed: int, seconds: float) -> tuple:
    """Times at least MIN_PASSES passes, and more while at least half of
    the next one would fit in SECONDS."""
    runner.child("setup")  # compiles bytecode; not timed
    setups = [_scaled_setup(runner.child("setup")) for _ in range(SETUP_SAMPLES)]
    passes = []
    start = perf_counter()
    last = 0.0
    while len(passes) < MIN_PASSES or perf_counter() - start + last / 2 <= seconds:
        begun = perf_counter()
        passes.append(runner.child("pass", workload, str(seed)))
        last = perf_counter() - begun
        setups.append(_scaled_setup(passes[-1]))
    wall = statistics.median(_scaled(p) for p in passes)
    metrics = {
        "wall_s": wall,
        "sets_per_s": passes[0]["sets"] / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["rss_kb"] for p in passes) / 1024,
    }
    extra = {
        "wall_s_unscaled": statistics.median(p["wall_s"] for p in passes),
        "setup_s_unscaled": statistics.median(p["setup_s"] for p in passes),
        "speed": statistics.median(p["speed"] for p in passes),
    }
    return metrics, passes, extra


def measure_traced(runner: Runner, workload: str, seed: int) -> tuple:
    """One untraced serial pass, then two traced ones."""
    os.makedirs(SPANS_DIR, exist_ok=True)
    runner.child("setup")
    parallel = workload == "verify-w2"
    base = runner.child("pass", workload, str(seed), "--serial")
    passes = [base]
    traced = []
    for k in (1, 2):
        argv = ["pass", workload, str(seed), "--serial", "--trace",
                os.path.join(SPANS_DIR, f"{workload}-seed{seed}-{k}.json")]
        if not parallel:
            argv.append("--probe-parallel")
        traced.append(runner.child(*argv))
    passes += traced
    metrics = {}
    for name in traced[0]["metrics"]:
        values = [t["metrics"][name] for t in traced]
        metrics[name] = statistics.median(values)
        if name.startswith(EXACT_COUNTERS) and values[0] != values[1]:
            traced[1]["problems"].append(f"exact counter {name} differs: {values}")
    metrics["trace.overhead_frac"] = (
        statistics.median(_scaled(t) for t in traced) / _scaled(base) - 1
    )
    if parallel:
        two = runner.child("pass", workload, str(seed))
        passes.append(two)
        metrics["harness.parallel_efficiency"] = _scaled(base) / (2 * _scaled(two))
    return metrics, passes, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "gtlab", "__init__.py")):
        print("no gtlab sources under src/gtlab; run from a gtlab checkout", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    runner = Runner(perf_counter() + RUN_LIMIT_S)
    try:
        if args.trace:
            metrics, passes, extra = measure_traced(runner, args.workload, args.seed)
        else:
            metrics, passes, extra = measure(runner, args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"benchmark failed: no value for {missing}", file=sys.stderr)
        return 1

    failed = sum(1 for p in passes if p["problems"])
    for p in passes:
        for problem in p["problems"]:
            print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"stamp": _stamp(args.seed, passes[0]["backend"])}))
    for m in declared:
        print(f"{args.workload:14} {m['name']:44} {metrics[m['name']]:>16.6f} {m['unit']}")
    for name, value in extra.items():
        print(f"{args.workload:14} {name:44} {value:>16.6f}")
    print(f"{args.workload:14} {'failed_frac':44} {failed / len(passes):>16.6f} "
          f"({failed} of {len(passes)} passes)")
    result = {
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
