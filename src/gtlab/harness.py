"""Worst-case search, exact minimax values, and the bound-verification grid."""

from __future__ import annotations

import csv
import itertools
import json
import math
import random
from bisect import bisect_left
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from gtlab import bounds, kernels
from gtlab.analysis import (
    FOLD_START,
    StructureError,
    analyze,
    counterexample_json,
    fold_passes,
    fold_records,
)
from gtlab.core import (
    CHECK_START,
    Instance,
    PoolOracle,
    RunResult,
    Session,
    check_passes,
    check_records,
    finalize,
    instance_from_mask,
)
from gtlab.tree import walk

ALGORITHMS = kernels.ALGORITHMS

# The recorded runner of each algorithm. Recorded runs look it up here, so
# perfbench's tracer can time them by patching one key.
RUNNERS = {name: s.run for name, s in kernels.STRATEGIES.items()}

SCHEMA_VERSION = 1

CSV_COLUMNS = ("algorithm", "n", "d", "worst_tests", "bound_name", "bound_value", "pass")

# The upper bounds each algorithm's cells are checked against, in report
# order. Each is looked up in bounds when called, so an evaluator patched
# there (as perfbench's tracer does) is the one the grid uses.
_UPPER_BOUNDS = {
    "zd": (lambda n, d: bounds.zd_upper(n, d),),
    "zu": (lambda n, d: bounds.zu_upper_n(n), lambda n, d: bounds.zu_upper_d(n, d)),
    "zc": (lambda n, d: bounds.zc_upper_n(n), lambda n, d: bounds.zc_upper_d(n, d)),
}

# Each check family and the algorithms it evaluates.
CHECK_ALGORITHMS = {
    "bounds": tuple(_UPPER_BOUNDS),
    "competitive": ("zc",),
    "count": ("individual",),
    "analysis": ("zu",),
}

DEFAULT_CHECKS = tuple(CHECK_ALGORITHMS)

# Largest n the verify grid sweeps.
MAX_GRID_N = 20

# Most masks an exhaustive worst_case walks before it refuses.
_EXHAUSTIVE_CAP = 10**7


@dataclass(frozen=True)
class WorstCaseCell:
    algorithm: str
    n: int
    d: int
    worst_tests: int
    argmax_mask: int
    exact: bool

    @property
    def argmax_defectives(self) -> List[int]:
        return [i for i in range(self.n) if self.argmax_mask >> i & 1]


def _run_checked(algorithm: str, instance: Instance) -> RunResult:
    return _finalized(RUNNERS[algorithm](PoolOracle(instance)), instance)


def _finalized(result: RunResult, instance: Instance) -> RunResult:
    """result, once finalize passes it against instance; otherwise an
    AssertionError carrying the ground-truth counterexample dump."""
    verdict = finalize(result, instance)
    if not verdict.ok:
        dump = counterexample_json(
            result, instance, "finalize", {"problems": verdict.problems}
        )
        raise AssertionError(
            f"{result.algorithm} failed correctness at n={instance.n}: "
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
) -> WorstCaseCell:
    """Maximizes tests over defective sets of size d, returning the most
    tests and a mask that spends them.

    Both modes walk the algorithm's decision tree (_walked_runs), whose
    check fold checks each record once, by the step that made it, with
    finalize on any leaf the fold cannot certify. Exhaustive mode walks
    every set, in ascending blocks of kernels.BLOCK masks made as they are
    walked, refuses more than _EXHAUSTIVE_CAP masks and returns the
    smallest mask that spends the most tests. Sampled mode is a lower
    estimate over samples >= 1 seeded draws: one walk over their distinct
    masks, and the first draw, in draw order, that spends the most tests.
    A correctness failure aborts with the dump of the recorded run on the
    first failing mask: the first in ascending order in exhaustive mode,
    the first in draw order in sampled mode.

    Every cell then replays its witness, the returned mask, as a recorded
    run with finalize (_witnessed): its test count must be the walk's.
    """
    kernels._check_algorithm(algorithm)
    if not 0 <= d <= n:
        raise ValueError("need 0 <= d <= n")
    if mode == "exhaustive":
        count = math.comb(n, d)
        if count > _EXHAUSTIVE_CAP:
            raise ValueError(
                f"exhaustive search over C({n},{d})={count} masks exceeds cap "
                f"{_EXHAUSTIVE_CAP}"
            )
        family = _masks_of_weight(n, d)
        worst = -1
        argmax = 0
        while block := list(itertools.islice(family, kernels.BLOCK)):
            with _recorded_on_failure(algorithm, n, block):
                for i, session, _ in _walked_runs(algorithm, n, block):
                    tests, mask = session.tests, block[i]
                    if tests > worst or (tests == worst and mask < argmax):
                        worst = tests
                        argmax = mask
        return _witnessed(WorstCaseCell(algorithm, n, d, worst, argmax, True))
    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    rng = random.Random(seed)
    draws = [sum(1 << i for i in rng.sample(range(n), d)) for _ in range(samples)]
    masks = sorted(set(draws))
    tests_of = {}
    with _recorded_on_failure(algorithm, n, draws):
        for i, session, _ in _walked_runs(algorithm, n, masks):
            tests_of[masks[i]] = session.tests
    worst = max(tests_of.values())
    argmax = next(mask for mask in draws if tests_of[mask] == worst)
    return _witnessed(WorstCaseCell(algorithm, n, d, worst, argmax, False))


def _witnessed(cell: WorstCaseCell) -> WorstCaseCell:
    """cell, once the recorded run on its argmax mask passes finalize and
    spends the walked worst_tests; otherwise an AssertionError."""
    algorithm, n, mask = cell.algorithm, cell.n, cell.argmax_mask
    tests = _run_checked(algorithm, instance_from_mask(n, mask)).tests_used
    if tests != cell.worst_tests:
        raise AssertionError(
            f"{algorithm} witness at n={n}, mask {mask:#x}: the recorded run "
            f"spent {tests} tests, the walk {cell.worst_tests}"
        )
    return cell


@contextmanager
def _recorded_on_failure(algorithm: str, n: int, masks: Sequence[int]) -> Iterator[None]:
    """Turns a failed walk over masks into the failure of the recorded run
    on the first of them, in their order, that fails, as one run per mask
    would raise it. A failed leaf only knows the set it labelled defective,
    which need not be one of the masks; the recorded run names the ground
    truth. When every recorded run passes, the walk's own error stands."""
    try:
        yield
    except Exception:
        for mask in masks:
            _run_checked(algorithm, instance_from_mask(n, mask))
        raise


def _walked_runs(
    algorithm: str, n: int, masks: Sequence[int], analysed: bool = False
) -> Iterator[Tuple[int, Session, object]]:
    """Yields (index in masks, session, analysis fold state) for every leaf
    of one walk of the algorithm's decision tree over masks, which ascend,
    in no particular order. The session holds the leaf's run until the walk
    resumes: session.tests is its test count, and session.result(algorithm)
    builds its RunResult for a caller that needs one. The walk carries
    analysis.fold_records when analysed is set; otherwise the fold state is
    None.

    Each leaf is checked against the mask of the items it identified as
    defective, so its run is the one the recorded run on that mask makes.
    The walk carries core's check fold (check_records), so each record is
    checked once, by the step that made it; only a leaf the fold cannot
    certify (check_passes) gets a RunResult and finalize, and a failure
    raises the finalize dump. The walk fails on a leaf outside masks, on a
    mask reached twice and on a mask never reached.
    """
    strategy = _folding(kernels.STRATEGIES[algorithm], analysed)
    plan_of = strategy.plan_of
    reached = bytearray(len(masks))
    for session, state in walk(strategy.step, strategy.start, n, masks):
        mask = session.defective_mask
        if not check_passes(state[1], session, n):
            result = session.result(algorithm, plan_of(state) if plan_of else None)
            _finalized(result, instance_from_mask(n, mask))
        i = bisect_left(masks, mask)
        if i == len(masks) or masks[i] != mask:
            raise AssertionError(
                f"{algorithm} walk at n={n} reached mask {mask:#x}, "
                f"not one of its {len(masks)} masks"
            )
        if reached[i]:
            raise AssertionError(f"{algorithm} reached mask {mask:#x} twice at n={n}")
        reached[i] = 1
        yield i, session, state[2]
    if not all(reached):
        raise AssertionError(
            f"{algorithm} walk at n={n} reached {sum(reached)} leaves, "
            f"not each of the {len(masks)} masks once"
        )


def _folding(strategy: kernels.Strategy, analysed: bool = False) -> kernels.Strategy:
    """strategy with core's check fold of its run carried along, and with
    analysed also the analysis fold: the state is (strategy's state, check
    fold state, analysis fold state), the last None unless analysed. Each
    step folds the records and identifications it made into each fold,
    check_records and analysis.fold_records, until that fold defers (None).
    Runs that share steps share their folded prefix."""
    step = strategy.step
    plan_of = strategy.plan_of

    def folded_step(
        session: Session, remaining: List[int], state: Tuple[object, object, object]
    ) -> Tuple[List[int], Tuple[object, object, object]]:
        inner, checked, folded = state
        tests = session.tests
        idents = len(session.identifications)
        remaining, inner = step(session, remaining, inner)
        records = session.records[tests:]
        made = session.identifications[idents:]
        if checked is not None:
            checked = check_records(checked, records, made)
        if folded is not None:
            folded = fold_records(folded, records, made)
        return remaining, (inner, checked, folded)

    return strategy._replace(
        step=folded_step,
        start=(strategy.start, CHECK_START, FOLD_START if analysed else None),
        plan_of=plan_of and (lambda state: plan_of(state[0])),
    )


def _masks_of_weight(n: int, d: int) -> Iterator[int]:
    """Every n-bit mask with d set bits, in ascending order, one at a time
    (Gosper's hack: the next larger mask with the same popcount)."""
    if d == 0:
        yield 0
        return
    mask = (1 << d) - 1
    end = 1 << n
    while mask < end:
        yield mask
        low = mask & -mask
        ripple = mask + low
        mask = ripple | ((mask ^ ripple) >> 2) // low


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

    Two kinds of family are answered without a key. With t >= m - 1 pools
    for m candidates, any one-item pool on an item two candidates disagree
    on splits them. With t at least the number of informative items (in
    some candidates but not all), testing each of them alone decides the
    family. Both tests give the same answer on every isomorphic family, so
    no memo entry another family would read is lost.

    The key drops the items every candidate contains or none does, sorts
    the rest by colour (how many candidates hold the item, and the sorted
    informative sizes of those candidates), breaking ties by label, and
    takes the sorted tuple of rows relabeled in that order. Being a
    relabeling, equal keys mean isomorphic families. Some isomorphic
    families get different keys, which costs duplicate search but never a
    wrong value.
    """

    def __init__(self, n: int):
        self.n = n
        self.memo: Dict[tuple, List[int]] = {}

    def solvable(self, family: Tuple[int, ...], t: int) -> bool:
        m = len(family)
        if m <= 1:
            return True
        if (m - 1).bit_length() > t:
            return False
        if t >= m - 1 or t >= _informative(family).bit_count():
            return True
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
        active = _informative(family)
        rows = [mask & active for mask in family]
        sizes = [row.bit_count() for row in rows]
        colours = []
        for j in range(self.n):
            bit = 1 << j
            if active & bit:
                held = sorted([s for row, s in zip(rows, sizes) if row & bit])
                colours.append((len(held), held, j))
        colours.sort()
        relabeled = [0] * len(rows)
        for p, (_, _, j) in enumerate(colours):
            bit, new = 1 << j, 1 << p
            for r, row in enumerate(rows):
                if row & bit:
                    relabeled[r] |= new
        return (len(family),) + tuple(sorted(relabeled))


def _informative(family: Tuple[int, ...]) -> int:
    """Mask of the items some candidates contain and others do not."""
    shared = seen = family[0]
    for mask in family:
        shared &= mask
        seen |= mask
    return seen & ~shared


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
    family = tuple(_masks_of_weight(n, d))
    solver = _MinimaxSolver(n)
    floor = int(bounds.info_lower_bound(n, d).value)
    for t in range(floor, n + 1):
        if solver.solvable(family, t):
            return t
    raise AssertionError("exact search exceeded n pools")


def _cell_bound_rows(
    algorithm: str, n: int, d: int, worst: int, checks: Sequence[str]
) -> List[Tuple[str, float, bool]]:
    """(name, value, pass) for each check of one cell: every upper bound
    that applies at (n, d), then the competitive or count verdict."""
    rows: List[Tuple[str, float, bool]] = []
    if "bounds" in checks:
        for evaluate in _UPPER_BOUNDS.get(algorithm, ()):
            b = evaluate(n, d)
            if b.applicable:
                rows.append((b.bound_name, b.value, b.admits(worst)))
    if algorithm == "zc" and "competitive" in checks:
        verdict = bounds.competitive_check(n, d, worst)
        if verdict.applicable:
            rows.append(("competitive-" + verdict.branch, verdict.limit, verdict.ok))
    elif algorithm == "individual" and "count" in checks:
        rows.append(("individual-count", float(n), worst == n))
    return rows


def _walk_upward_runs(
    n: int, lo: int, hi: int
) -> Tuple[List[Tuple[int, int]], List[dict]]:
    """Per-d (most tests, smallest mask spending them) over the zu runs on
    masks lo..hi-1, (-1, 0) for a d none of them has, and their analysis
    violations in mask order.

    The runs come from one walk of zu's decision tree (_walked_runs), not
    one run per mask: each leaf's transcript is the one core.drive makes
    looping zigzag.zu_step on that mask, and its test count is the one
    kernels.sweep counts. The walk carries the analysis fold
    (analysis.fold_records) with the check fold, in one step wrapper, so
    runs that share steps share both folded prefixes, and only the leaves
    the analysis fold cannot certify (fold_passes) get a RunResult for
    analyze, which writes every violation row. A failure raises as the
    recorded run on the first failing mask does.
    """
    masks = range(lo, hi)
    worst = [-1] * (n + 1)
    argmax = [0] * (n + 1)
    rows: Dict[int, List[dict]] = {}
    with _recorded_on_failure("zu", n, masks):
        for i, session, fold in _walked_runs("zu", n, masks, analysed=True):
            mask = lo + i
            tests = session.tests
            d = mask.bit_count()
            if tests > worst[d] or (tests == worst[d] and mask < argmax[d]):
                worst[d] = tests
                argmax[d] = mask
            if not fold_passes(fold):
                rows[i] = _analysis_violations(
                    session.result("zu"), instance_from_mask(n, mask)
                )
    return list(zip(worst, argmax)), [v for i in sorted(rows) for v in rows[i]]


def _analysis_violations(result: RunResult, instance: Instance) -> List[dict]:
    """The analysis violation rows of one finalized zu run, in check order."""
    n, d = instance.n, instance.d
    try:
        report = analyze(result)
    except StructureError as exc:
        failures = [("structure", {"error": str(exc)})]
    else:
        failures = report.failures
    return [
        {
            "algorithm": "zu",
            "n": n,
            "d": d,
            "check": name,
            "counterexample": counterexample_json(result, instance, name, values),
        }
        for name, values in failures
    ]


def _cells(
    algorithm: str, n: int, per_d: Sequence[Tuple[int, int]], checks: Sequence[str]
) -> Tuple[List[dict], List[dict]]:
    """The cells of one (algorithm, n) from its per-d (worst_tests,
    argmax_mask), and their bound violation rows."""
    cells = []
    violations = []
    for d, (worst, argmax) in enumerate(per_d):
        rows = _cell_bound_rows(algorithm, n, d, worst, checks)
        cell = {
            "algorithm": algorithm,
            "n": n,
            "d": d,
            "worst_tests": worst,
            "argmax_mask": argmax,
        }
        # A violation row is its cell, before the rows join it, plus the row.
        violations.extend(
            {**cell, "check": name, "bound_value": value}
            for name, value, ok in rows
            if not ok
        )
        cell["bound_values"] = [list(row) for row in rows]
        cells.append(cell)
    return cells, violations


def _sweep_task(
    algorithm: str, n: int, checks: Sequence[str]
) -> Tuple[List[dict], List[dict]]:
    return _cells(algorithm, n, kernels.sweep(algorithm, n), checks)


def _upward_task(n: int, checks: Sequence[str], block: int) -> Tuple[List[dict], List[dict]]:
    """zu's cells at n, their bound violations and then its analysis
    violations, from one walk of its decision tree in consecutive blocks of
    block masks (_walk_upward_runs). The blocks ascend, so a later block
    takes a d's cell only with strictly more tests: the smallest mask wins
    ties, as in kernels.sweep."""
    per_d = [(-1, 0)] * (n + 1)
    rows = []
    end = 1 << n
    for lo in range(0, end, block):
        block_per_d, block_rows = _walk_upward_runs(n, lo, min(lo + block, end))
        per_d = [new if new[0] > old[0] else old for old, new in zip(per_d, block_per_d)]
        rows += block_rows
    cells, violations = _cells("zu", n, per_d, checks)
    return cells, violations + rows


def _grid_tasks(
    algorithms: Sequence[str], n_max: int, checks: Sequence[str]
) -> List[partial]:
    """One task per (algorithm, n), in order, so joining the outputs in list
    order gives the report. With the analysis family selected, zu's task is
    one walk of its decision tree that both fills the cells and analyzes
    the runs (_upward_task), in blocks of kernels.BLOCK masks, so each n up
    to 16 is one block; every other task counts its cells with
    kernels.sweep (_sweep_task)."""
    tasks = []
    for algorithm in algorithms:
        for n in range(1, n_max + 1):
            if algorithm == "zu" and "analysis" in checks:
                tasks.append(partial(_upward_task, n, checks, kernels.BLOCK))
            else:
                tasks.append(partial(_sweep_task, algorithm, n, checks))
    return tasks


def _run_task(task: partial) -> Tuple[List[dict], List[dict]]:
    return task()


def _reject_repeats(kind: str, names: Sequence[str]) -> None:
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"repeated {kind} {', '.join(map(repr, repeated))}")


def verify_grid(
    n_max: int,
    algorithms: Optional[Sequence[str]] = None,
    checks: Optional[Sequence[str]] = None,
    workers: Optional[int] = None,
) -> dict:
    """Sweeps every algorithm over 1..n_max and evaluates every applicable
    bound per cell. Violations are enumerated, never short-circuited.

    algorithms and checks None select every algorithm and every check
    family. Unknown, repeated or empty selections are rejected, and so is
    one in which no check family applies to any selected algorithm
    (CHECK_ALGORITHMS).

    The grid is one task list (_grid_tasks), one task per (algorithm, n):
    kernels.sweep counts the cells, except that with the analysis family
    selected zu's cells come from the one walk of its decision tree that
    also analyzes its transcripts, in blocks of kernels.BLOCK masks. Both
    give the same cells. workers None, 0 or 1 run it serially in list
    order, more hand it to a process pool largest n first, and a negative
    count is rejected. Outputs are joined in list order, so the report is
    the same for every worker count.
    """
    if not 1 <= n_max <= MAX_GRID_N:
        raise ValueError(f"need 1 <= n_max <= {MAX_GRID_N}")
    algorithms = tuple(algorithms if algorithms is not None else ALGORITHMS)
    if not algorithms:
        raise ValueError(f"need at least one algorithm; known: {', '.join(ALGORITHMS)}")
    for algorithm in algorithms:
        kernels._check_algorithm(algorithm)
    _reject_repeats("algorithm", algorithms)
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
    _reject_repeats("check family", checks)
    if not any(a in CHECK_ALGORITHMS[c] for c in checks for a in algorithms):
        pairs = "; ".join(f"{c}: {'/'.join(a)}" for c, a in CHECK_ALGORITHMS.items())
        raise ValueError(
            f"no check in {', '.join(checks)} applies to {', '.join(algorithms)}; "
            f"applicable pairs are {pairs}"
        )
    workers = workers or 0
    if workers < 0:
        raise ValueError(f"need workers >= 0, got {workers}")
    tasks = _grid_tasks(algorithms, n_max, checks)
    if workers > 1:
        # Imported here, not at the top: concurrent.futures and
        # multiprocessing add about a third to gtlab's import time, and only
        # a pool needs them.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            # Reversed, so each algorithm's largest n, the longest tasks,
            # start early rather than last.
            outputs = list(pool.map(_run_task, tasks[::-1]))[::-1]
    else:
        outputs = [_run_task(task) for task in tasks]
    cells = [cell for out_cells, _ in outputs for cell in out_cells]
    violations = [v for _, out_violations in outputs for v in out_violations]
    return {
        "schema_version": SCHEMA_VERSION,
        "n_max": n_max,
        "algorithms": list(algorithms),
        "checks": list(checks),
        "cells": cells,
        "violations": violations,
    }


def report_to_json(report: dict) -> str:
    """The text json.dumps(report, indent=2, sort_keys=True) writes, byte
    for byte, and the same TypeError for a value it cannot encode.

    It is written by hand because json's C encoder cannot indent: with
    indent set, json falls back to its pure-Python encoder, which holds
    every chunk of the text in one list before joining it. Here each
    container joins its encoded children and frees them, which takes about
    60% of the time and a third of the peak memory on a grid report.

    The recursion goes through _encode, never through this name: callers
    may wrap report_to_json (perfbench's tracer does) to time one encoding."""
    return _encode(report, "")


def _encode(o: object, ind: str) -> str:
    # Exact types only: subclasses, nan and infinities, non-str keys and
    # unsupported types go to json.dumps, re-indented to this depth. That
    # is exact because encoded JSON never holds a raw newline.
    t = type(o)
    if t is str:
        return _encode_str(o)
    if t is int:
        return int.__repr__(o)
    if t is float and math.isfinite(o):
        return float.__repr__(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    inner = ind + "  "
    if t is dict and all(type(key) is str for key in o):
        items = sorted(o.items())
        parts = [_encode_str(k) + ": " + _encode(v, inner) for k, v in items]
        return _join(parts, "{", "}", ind, inner)
    if t is list or t is tuple:
        return _join([_encode(v, inner) for v in o], "[", "]", ind, inner)
    return json.dumps(o, indent=2, sort_keys=True).replace("\n", "\n" + ind)


def _join(parts: List[str], opener: str, closer: str, ind: str, inner: str) -> str:
    if not parts:
        return opener + closer
    # The brackets go into the end parts, so the one join is the only copy
    # of the container's text made while its parts are held: the peak is
    # twice the text, where wrapping the joined text would make it three.
    parts[0] = opener + "\n" + inner + parts[0]
    parts[-1] += "\n" + ind + closer
    return (",\n" + inner).join(parts)


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
