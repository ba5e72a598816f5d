"""Worst-case search, exact minimax values, and the bound-verification grid."""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import random
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from gtlab import bounds, kernels
from gtlab.analysis import StructureError, analyze, counterexample_json
from gtlab.competitive import run_individual, run_zc
from gtlab.core import Instance, PoolOracle, RunResult, finalize, instance_from_mask
from gtlab.zigzag import run_zd, run_zu

ALGORITHMS = kernels.ALGORITHMS

RUNNERS = {
    "individual": run_individual,
    "zd": run_zd,
    "zu": run_zu,
    "zc": run_zc,
}

SCHEMA_VERSION = 1

CSV_COLUMNS = ("algorithm", "n", "d", "worst_tests", "bound_name", "bound_value", "pass")

DEFAULT_CHECKS = ("bounds", "competitive", "count", "analysis")

# Largest n the verify grid sweeps.
MAX_GRID_N = 20


@dataclass(frozen=True)
class WorstCaseCell:
    algorithm: str
    n: int
    d: int
    worst_tests: int
    argmax_mask: int
    exact: bool
    bound_values: List[Tuple[str, float, bool]] = field(default_factory=list)

    @property
    def argmax_defectives(self) -> List[int]:
        return [i for i in range(self.n) if self.argmax_mask >> i & 1]


def _run_checked(algorithm: str, instance: Instance) -> RunResult:
    result = RUNNERS[algorithm](PoolOracle(instance))
    verdict = finalize(result, instance)
    if not verdict.ok:
        dump = counterexample_json(
            result, instance, "finalize", {"problems": verdict.problems}
        )
        raise AssertionError(
            f"{algorithm} failed correctness at n={instance.n}: "
            f"{json.dumps(dump, sort_keys=True)}"
        )
    return result


def worst_case(
    algorithm: str,
    n: int,
    d: int,
    mode: str = "exhaustive",
    samples: int = 1000,
    seed: int = 0,
    cap: int = 10**7,
) -> WorstCaseCell:
    """Maximizes tests over defective sets of size d. Exhaustive mode walks
    every set in ascending mask order; sampled mode is a lower estimate over
    samples >= 1 seeded draws.
    Every run is finalized; a correctness failure aborts with the mask.
    """
    if algorithm not in RUNNERS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if not 0 <= d <= n:
        raise ValueError("need 0 <= d <= n")
    if mode == "exhaustive":
        count = math.comb(n, d)
        if count > cap:
            raise ValueError(
                f"exhaustive search over C({n},{d})={count} masks exceeds cap {cap}"
            )
        masks: Iterable[int] = sorted(
            sum(1 << i for i in combo)
            for combo in itertools.combinations(range(n), d)
        )
        exact = True
    elif mode == "sampled":
        if samples < 1:
            raise ValueError(f"need samples >= 1, got {samples}")
        rng = random.Random(seed)
        masks = (
            sum(1 << i for i in rng.sample(range(n), d)) for _ in range(samples)
        )
        exact = False
    else:
        raise ValueError(f"unknown mode {mode!r}")
    worst = -1
    argmax = 0
    for mask in masks:
        result = _run_checked(algorithm, instance_from_mask(n, mask))
        if result.tests_used > worst:
            worst = result.tests_used
            argmax = mask
    return WorstCaseCell(algorithm, n, d, worst, argmax, exact)


@dataclass(frozen=True)
class MinimaxLimits:
    max_n: int = 8
    max_candidates: int = 70


class _MinimaxSolver:
    """Budget-bounded adaptive search over candidate defective sets.

    A state is the family of masks still consistent with all answers.
    solvable(family, t) asks whether some strategy always isolates the truth
    within t more pools. Memo entries hold [largest failing t, smallest
    succeeding t] per canonical family key.

    The key drops items every candidate contains or none does, colours the
    rest by iterated incidence refinement, and takes the least sorted tuple
    of relabeled rows over every ordering of each colour group. Each group
    ordering is turned into a per-row table once, so a relabeled row costs
    one addition per group. Past 1000 orderings the key keeps one labeled
    ordering, which costs duplicate search but never a wrong value.
    """

    def __init__(self, n: int):
        self.n = n
        self.memo: Dict[tuple, List[int]] = {}

    def solvable(self, family: Tuple[int, ...], t: int) -> bool:
        if len(family) <= 1:
            return True
        if (len(family) - 1).bit_length() > t:
            return False
        key = self._canonical_key(family)
        entry = self.memo.get(key)
        if entry is None:
            entry = [-1, 1 << 30]
            self.memo[key] = entry
        if t <= entry[0]:
            return False
        if t >= entry[1]:
            return True
        ok = self._search(family, t)
        if ok:
            entry[1] = min(entry[1], t)
        else:
            entry[0] = max(entry[0], t)
        return ok

    def _search(self, family: Tuple[int, ...], t: int) -> bool:
        splits = []
        for pool in self._pools(family):
            pure = tuple(m for m in family if not m & pool)
            if not pure or len(pure) == len(family):
                continue
            hit = tuple(m for m in family if m & pool)
            splits.append((abs(len(pure) - len(hit)), pure, hit))
        splits.sort(key=lambda s: s[0])
        for _, pure, hit in splits:
            small, big = (pure, hit) if len(pure) <= len(hit) else (hit, pure)
            if self.solvable(small, t - 1) and self.solvable(big, t - 1):
                return True
        return False

    def _pools(self, family: Tuple[int, ...]) -> Iterable[int]:
        # Items with identical incidence across the family are interchangeable,
        # so pools are enumerated by how many of each class they take.
        full = (1 << len(family)) - 1
        classes: Dict[int, List[int]] = defaultdict(list)
        for item in range(self.n):
            sig = 0
            for r, mask in enumerate(family):
                if mask >> item & 1:
                    sig |= 1 << r
            if sig not in (0, full):
                classes[sig].append(item)
        groups = [classes[sig] for sig in sorted(classes)]
        ranges = [range(len(g) + 1) for g in groups]
        for counts in itertools.product(*ranges):
            if not any(counts):
                continue
            pool = 0
            for group, take in zip(groups, counts):
                for item in group[:take]:
                    pool |= 1 << item
            yield pool

    def _canonical_key(self, family: Tuple[int, ...]) -> tuple:
        m = len(family)
        active = []
        col_rows: Dict[int, List[int]] = {}
        for j in range(self.n):
            rows = [r for r in range(m) if family[r] >> j & 1]
            if 0 < len(rows) < m:
                active.append(j)
                col_rows[j] = rows
        row_cols = [
            [j for j in active if family[r] >> j & 1] for r in range(m)
        ]
        row_color = [len(row_cols[r]) for r in range(m)]
        col_color = {j: len(col_rows[j]) for j in active}
        while True:
            row_sig = [
                (row_color[r], tuple(sorted(col_color[j] for j in row_cols[r])))
                for r in range(m)
            ]
            col_sig = {
                j: (col_color[j], tuple(sorted(row_color[r] for r in col_rows[j])))
                for j in active
            }
            new_row = _dense(row_sig)
            new_col_vals = _dense([col_sig[j] for j in active])
            new_col = dict(zip(active, new_col_vals))
            if len(set(new_row)) == len(set(row_color)) and len(
                set(new_col.values())
            ) == len(set(col_color.values())):
                row_color, col_color = new_row, new_col
                break
            row_color, col_color = new_row, new_col
        by_color: Dict[int, List[int]] = defaultdict(list)
        for j in active:
            by_color[col_color[j]].append(j)
        groups = [by_color[c] for c in sorted(by_color)]
        if _perm_budget(groups) <= 1000:
            orders = [itertools.permutations(g) for g in groups]
        else:
            # Too symmetric to canonicalize cheaply; a labeled key only costs
            # duplicate work, never a wrong answer.
            orders = [[tuple(g)] for g in groups]
        # Columns are relabeled group by group, so group g owns the bit
        # positions offset .. offset+len(g)-1. Each ordering of a group gives
        # one table of every row's bits at those positions; a relabeled row
        # is the sum of one table entry per group (zero when no item is
        # informative).
        tables = []
        offset = 0
        for g, group_orders in zip(groups, orders):
            bits = [1 << p for p in range(offset, offset + len(g))]
            per_order = []
            for order in group_orders:
                table = [0] * m
                for bit, j in zip(bits, order):
                    for r in col_rows[j]:
                        table[r] += bit
                per_order.append(table)
            tables.append(per_order)
            offset += len(g)
        zeros = [0] * m
        best = min(
            tuple(sorted(map(sum, zip(zeros, *choice))))
            for choice in itertools.product(*tables)
        )
        return (m,) + best


def _dense(sigs: list) -> list:
    table = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
    return [table[sig] for sig in sigs]


def _perm_budget(groups: List[List[int]]) -> int:
    total = 1
    for g in groups:
        total *= math.factorial(len(g))
        if total > 1000:
            break
    return total


def minimax_m(n: int, d: int, limits: Optional[MinimaxLimits] = None) -> int:
    """Exact optimal worst-case pool count when the defective count is known.

    Refuses instances beyond the limits with an explanation instead of
    running an open-ended search.
    """
    limits = limits or MinimaxLimits()
    if not 0 <= d <= n:
        raise ValueError("need 0 <= d <= n")
    if n > limits.max_n:
        raise ValueError(
            f"refused: n={n} exceeds the exact-search limit {limits.max_n}"
        )
    count = math.comb(n, d)
    if count > limits.max_candidates:
        raise ValueError(
            f"refused: C({n},{d})={count} candidate sets exceed the limit "
            f"{limits.max_candidates}"
        )
    family = tuple(
        sorted(
            sum(1 << i for i in combo)
            for combo in itertools.combinations(range(n), d)
        )
    )
    solver = _MinimaxSolver(n)
    floor = int(bounds.info_lower_bound(n, d).value)
    for t in range(floor, n + 1):
        if solver.solvable(family, t):
            return t
    raise AssertionError("exact search exceeded n pools")


def _cell_bound_rows(
    algorithm: str, n: int, d: int, worst: int, checks: Sequence[str]
) -> List[Tuple[str, float, bool]]:
    rows: List[Tuple[str, float, bool]] = []
    slack = 1e-9
    if algorithm == "zd" and "bounds" in checks:
        if d >= 1:
            b = bounds.zd_upper(n, d)
            rows.append((b.bound_name, b.value, worst <= b.value + slack))
    elif algorithm == "zu" and "bounds" in checks:
        # 5*worst <= 7*n is the exact integer form of worst <= 1.4n.
        rows.append(("zu-upper-n", 1.4 * n, 5 * worst <= 7 * n))
        if 3 <= d <= n:
            b = bounds.zu_upper_d(n, d)
            rows.append((b.bound_name, b.value, worst <= b.value + slack))
    elif algorithm == "zc":
        if "bounds" in checks:
            b = bounds.zc_upper_n(n)
            rows.append((b.bound_name, b.value, worst <= b.value + slack))
            if d >= 1:
                b = bounds.zc_upper_d(n, d)
                rows.append((b.bound_name, b.value, worst <= b.value + slack))
        if "competitive" in checks:
            verdict = bounds.competitive_check(n, d, worst)
            if verdict.applicable:
                rows.append(
                    ("competitive-" + verdict.branch, verdict.limit, verdict.ok)
                )
    elif algorithm == "individual" and "count" in checks:
        rows.append(("individual-count", float(n), worst == n))
    return rows


def _analyze_upward_runs(n: int) -> List[dict]:
    violations: List[dict] = []
    for mask in range(1 << n):
        instance = instance_from_mask(n, mask)
        result = _run_checked("zu", instance)
        d = mask.bit_count()
        try:
            report = analyze(result)
        except StructureError as exc:
            violations.append(
                {
                    "algorithm": "zu",
                    "n": n,
                    "d": d,
                    "check": "structure",
                    "counterexample": counterexample_json(
                        result, instance, "structure", {"error": str(exc)}
                    ),
                }
            )
            continue
        for name, values in report.failures:
            violations.append(
                {
                    "algorithm": "zu",
                    "n": n,
                    "d": d,
                    "check": name,
                    "counterexample": counterexample_json(
                        result, instance, name, values
                    ),
                }
            )
    return violations


def _grid_task(args: Tuple[str, int, Sequence[str], Optional[str]]) -> dict:
    algorithm, n, checks, backend = args
    cells = []
    per_d = kernels.sweep(algorithm, n, backend=backend)
    for d, (worst, argmax) in enumerate(per_d):
        rows = _cell_bound_rows(algorithm, n, d, worst, checks)
        cells.append(
            {
                "algorithm": algorithm,
                "n": n,
                "d": d,
                "worst_tests": worst,
                "argmax_mask": argmax,
                "bound_values": [list(row) for row in rows],
            }
        )
    violations = []
    for cell in cells:
        for name, value, ok in cell["bound_values"]:
            if not ok and name != "competitive-sparse-proxy":
                violations.append(
                    {
                        "algorithm": algorithm,
                        "n": n,
                        "d": cell["d"],
                        "check": name,
                        "worst_tests": cell["worst_tests"],
                        "bound_value": value,
                        "argmax_mask": cell["argmax_mask"],
                    }
                )
    if algorithm == "zu" and "analysis" in checks:
        violations.extend(_analyze_upward_runs(n))
    return {"cells": cells, "violations": violations}


def verify_grid(
    n_max: int,
    algorithms: Optional[Sequence[str]] = None,
    checks: Optional[Sequence[str]] = None,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
) -> dict:
    """Sweeps every algorithm over 1..n_max and evaluates every applicable
    bound per cell. Violations are enumerated, never short-circuited.
    Unknown algorithms or check families, an empty check list and a
    negative worker count are rejected; checks None runs every family,
    workers 0 or 1 run serially, and None reads GTLAB_WORKERS.
    """
    if not 1 <= n_max <= MAX_GRID_N:
        raise ValueError(f"need 1 <= n_max <= {MAX_GRID_N}")
    algorithms = tuple(algorithms or ALGORITHMS)
    for algorithm in algorithms:
        if algorithm not in RUNNERS:
            raise ValueError(f"unknown algorithm {algorithm!r}")
    checks = tuple(checks if checks is not None else DEFAULT_CHECKS)
    if not checks:
        raise ValueError(
            f"need at least one check family; known: {', '.join(DEFAULT_CHECKS)}"
        )
    for check in checks:
        if check not in DEFAULT_CHECKS:
            raise ValueError(
                f"unknown check family {check!r}; known: {', '.join(DEFAULT_CHECKS)}"
            )
    if workers is None:
        env = os.environ.get("GTLAB_WORKERS")
        try:
            workers = int(env) if env else 0
        except ValueError:
            raise ValueError(f"GTLAB_WORKERS must be an integer, got {env!r}") from None
    if workers < 0:
        raise ValueError(f"need workers >= 0 (--workers or GTLAB_WORKERS), got {workers}")
    tasks = [
        (algorithm, n, checks, backend)
        for algorithm in algorithms
        for n in range(1, n_max + 1)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outputs = list(pool.map(_grid_task, tasks))
    else:
        outputs = [_grid_task(task) for task in tasks]
    cells = [cell for out in outputs for cell in out["cells"]]
    violations = [v for out in outputs for v in out["violations"]]
    return {
        "schema_version": SCHEMA_VERSION,
        "n_max": n_max,
        "algorithms": list(algorithms),
        "checks": list(checks),
        "cells": cells,
        "violations": violations,
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def write_csv(report: dict, path: str) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for cell in report["cells"]:
            for name, value, ok in cell["bound_values"]:
                writer.writerow(
                    [
                        cell["algorithm"],
                        cell["n"],
                        cell["d"],
                        cell["worst_tests"],
                        name,
                        repr(value),
                        ok,
                    ]
                )
