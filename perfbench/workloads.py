"""The four benchmark workloads: one pass of each, and its output check.

A pass calls gtlab only through module attributes (``harness.verify_grid``,
``cli.main``, ...), so the same code runs untraced and, with the tracer
installed, traced. ``sets`` is the number of defective sets one pass checks,
fixed by the workload definition. Checks compare a pass's output with the
reference pinned in ``reference.json`` (written by ``pin.py``); they return a
list of problems, empty when the output is right.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from typing import Dict, List, Tuple

from gtlab import bounds, cli, harness, kernels

ALGORITHMS = kernels.ALGORITHMS


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def tuple_bound_rows(report_text: str) -> Tuple[int, str]:
    """Count and digest of the grid's ``tuple-bound`` violation rows."""
    rows = [v for v in json.loads(report_text)["violations"] if v["check"] == "tuple-bound"]
    return len(rows), sha256(json.dumps(rows, sort_keys=True))


def _check_report(text: str, ref: dict) -> List[str]:
    problems = []
    if sha256(text) != ref["report_sha256"]:
        problems.append("grid report differs from the pinned reference")
    rows, digest = tuple_bound_rows(text)
    if (rows, digest) != (ref["tuple_bound_rows"], ref["tuple_bound_sha256"]):
        problems.append(f"tuple-bound rows ({rows}) differ from the pinned reference")
    return problems


class GridSweep:
    """Every algorithm over n <= 14 with the bound checks, serially."""

    name = "grid-sweep"
    n_max = 14
    checks = ("bounds", "competitive", "count")
    sets = len(ALGORITHMS) * ((1 << (n_max + 1)) - 2)

    def run(self, seed: int, serial: bool = False) -> str:
        report = harness.verify_grid(
            self.n_max, algorithms=ALGORITHMS, checks=self.checks, workers=1
        )
        return harness.report_to_json(report)

    def check(self, out: str, ref: dict, seed: int) -> List[str]:
        return _check_report(out, ref)


class GridAnalysis(GridSweep):
    """The upward strategy over n <= 13 with transcript analysis, serially."""

    name = "grid-analysis"
    n_max = 13
    checks = ("analysis",)
    sets = (1 << (n_max + 1)) - 2

    def run(self, seed: int, serial: bool = False) -> str:
        report = harness.verify_grid(
            self.n_max, algorithms=("zu",), checks=self.checks, workers=1
        )
        return harness.report_to_json(report)


def minimax_cells() -> List[Tuple[int, int]]:
    """Every (n, d), n >= 1, that the default MinimaxLimits admit."""
    limits = harness.MinimaxLimits()
    return [
        (n, d)
        for n in range(1, limits.max_n + 1)
        for d in range(n + 1)
        if math.comb(n, d) <= limits.max_candidates
    ]


class ExactCells:
    """Exact minimax values, exhaustive worst cases at n=20 and seeded
    sampled worst cases at n=48; the only workload that uses the seed."""

    name = "exact-cells"
    exhaustive_n, exhaustive_ds = 20, (1, 2, 3, 4)
    sampled_n, sampled_ds, samples = 48, (3, 10), 1000
    strategies = ("zd", "zu", "zc")

    @property
    def sets(self) -> int:
        return (
            sum(math.comb(n, d) for n, d in minimax_cells())
            + len(self.strategies)
            * sum(math.comb(self.exhaustive_n, d) for d in self.exhaustive_ds)
            + len(self.strategies) * len(self.sampled_ds) * self.samples
        )

    def run(self, seed: int, serial: bool = False) -> Dict[str, dict]:
        minimax = {f"{n}_{d}": harness.minimax_m(n, d) for n, d in minimax_cells()}
        exhaustive, sampled = {}, {}
        for alg in self.strategies:
            for d in self.exhaustive_ds:
                cell = harness.worst_case(alg, self.exhaustive_n, d)
                exhaustive[f"{alg}_{d}"] = [cell.worst_tests, cell.argmax_mask]
            for d in self.sampled_ds:
                cell = harness.worst_case(
                    alg, self.sampled_n, d, mode="sampled", samples=self.samples, seed=seed
                )
                sampled[f"{alg}_{d}"] = [cell.worst_tests, cell.argmax_mask]
        return {"minimax": minimax, "exhaustive": exhaustive, "sampled": sampled}

    def check(self, out: Dict[str, dict], ref: dict, seed: int) -> List[str]:
        problems = []
        for part in ("minimax", "exhaustive"):
            if out[part] != ref[part]:
                problems.append(f"{part} values differ from the pinned reference")
        # Sampled cells depend on the seed, so they are recounted here: the
        # same draws, each counted by the sweep kernel instead of a recorded
        # run, and the maximum checked against the closed-form upper bound.
        n = self.sampled_n
        caps = {
            "zd": lambda d: bounds.zd_upper(n, d).value,
            "zu": lambda d: bounds.zu_upper_n(n).value,
            "zc": lambda d: bounds.zc_upper_n(n).value,
        }
        for alg in self.strategies:
            for d in self.sampled_ds:
                rng = random.Random(seed)
                best, argmax = -1, 0
                for _ in range(self.samples):
                    mask = sum(1 << i for i in rng.sample(range(n), d))
                    tests = kernels.count_run(alg, n, mask)[0]
                    if tests > best:
                        best, argmax = tests, mask
                if out["sampled"][f"{alg}_{d}"] != [best, argmax]:
                    problems.append(f"sampled {alg} d={d} differs from its recount")
                if best > caps[alg](d) + 1e-9:
                    problems.append(f"sampled {alg} d={d} exceeds its upper bound")
        return problems


class VerifyW2:
    """The user's ``gtlab verify --n-max 13`` with two workers."""

    name = "verify-w2"
    n_max = 13
    workers = 2
    sets = len(ALGORITHMS) * ((1 << (n_max + 1)) - 2)

    def run(self, seed: int, serial: bool = False) -> Tuple[int, str]:
        workers = 1 if serial else self.workers
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", "--n-max", str(self.n_max), "--workers", str(workers)])
        return code, out.getvalue()

    def check(self, out: Tuple[int, str], ref: dict, seed: int) -> List[str]:
        code, text = out
        problems = _check_report(text, ref)
        if code != ref["exit_code"]:
            problems.append(f"exit code {code}, expected {ref['exit_code']}")
        return problems


WORKLOADS = {w.name: w for w in (GridSweep(), GridAnalysis(), ExactCells(), VerifyW2())}


# Layers a workload's own pass may not call are measured by these fixed
# steps instead, so every traced run reports every per-layer metric. Each
# step lists the metric prefixes it fills; a step runs only when one of them
# is still missing after the pass.
def _probe_sweeps() -> None:
    for alg in ALGORITHMS:
        kernels.sweep(alg, 10)


def _probe_runs() -> None:
    for alg in ("zd", "zu", "zc"):
        harness.worst_case(alg, 12, 3)


def _probe_sampled() -> None:
    for alg in ("zd", "zu", "zc"):
        harness.worst_case(alg, 48, 3, mode="sampled", samples=200, seed=0)


def _probe_grid() -> None:
    harness.report_to_json(harness.verify_grid(9, workers=1))


def _probe_minimax() -> None:
    for n, d in minimax_cells():
        harness.minimax_m(n, d)


PROBE_STEPS = (
    (("kernels.", "core.queries_per_run.", "core.query_us"), _probe_sweeps),
    (("core.finalize_us", "core.recorded_runs", "zigzag.", "competitive.",
      "harness.worst_case_us_per_mask"), _probe_runs),
    (("harness.worst_case_sampled_us_per_sample",), _probe_sampled),
    (("analysis.", "bounds.", "cli.", "harness.largest_cell_share"), _probe_grid),
    (("harness.minimax_s.",), _probe_minimax),
)

# The grid the probe times serially and with two workers when the workload
# itself gives no parallel efficiency.
PROBE_PARALLEL_N = 10
