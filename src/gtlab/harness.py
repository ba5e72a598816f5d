"""Worst-case search, exact minimax values, and the bound-verification grid."""

from __future__ import annotations

import csv
import itertools
import json
import math
import random
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

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

# Largest n the verify grid covers.
MAX_GRID_N = 20

# Largest n the grid runs zu's analysis family at: each of its rows carries
# a transcript, and at n = 20 the report would be 163,780 rows, over 1 GB.
MAX_ANALYSIS_N = 15

# Most masks a worst_case walks before it refuses: C(n, d) in exhaustive
# mode, the draws in sampled mode.
_WALK_CAP = 10**7


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

    Exhaustive and exact mode return the smallest mask that spends the
    most tests: exact mode reads it from the step-driven DP (exact.worst),
    which covers zd, zu and zc; exhaustive mode walks the algorithm's
    decision tree over every set, made as it is walked, in ascending blocks
    of kernels.BLOCK masks (_walk_cells). Sampled mode is a lower estimate
    over samples seeded draws: a walk over their distinct masks, whose
    tests are recorded as the leaves go by, and the first draw, in draw
    order, that spends the most tests. Either walk refuses to walk more
    than _WALK_CAP masks, C(n, d) or samples, before it makes one.
    A correctness failure aborts with the dump of the recorded run on the
    first failing mask: the first in ascending order in exhaustive mode,
    the first in draw order in sampled mode.

    Every cell then replays its witness, the returned mask, as a recorded
    run with finalize (_witnessed): its test count must be the cell's.
    """
    kernels._check_algorithm(algorithm)
    if not 0 <= d <= n:
        raise ValueError("need 0 <= d <= n")
    if mode == "exhaustive":
        count = math.comb(n, d)
        if count > _WALK_CAP:
            raise ValueError(
                f"exhaustive search over C({n},{d})={count} masks exceeds cap {_WALK_CAP}"
            )
        worst, argmax = _walk_cells(algorithm, n, _masks_of_weight(n, d), kernels.BLOCK)[d]
        return _witnessed(WorstCaseCell(algorithm, n, d, worst, argmax, True))
    if mode == "exact":
        return _exact_cell(algorithm, n, d)
    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    if samples > _WALK_CAP:
        raise ValueError(f"{samples} samples exceed cap {_WALK_CAP}")
    rng = random.Random(seed)
    draws = [sum(1 << i for i in rng.sample(range(n), d)) for _ in range(samples)]
    tests_of = {}

    def visit(session: Session, fold: object) -> None:
        tests_of[session.defective_mask] = session.tests

    with _recorded_on_failure(algorithm, n, draws):
        cells = _walk_cells(algorithm, n, sorted(set(draws)), kernels.BLOCK, visit)
    worst = cells[d][0]
    argmax = next(mask for mask in draws if tests_of[mask] == worst)
    return _witnessed(WorstCaseCell(algorithm, n, d, worst, argmax, False))


def _exact_cell(algorithm: str, n: int, d: int) -> WorstCaseCell:
    """The cell exact.worst gives, once its witness replays (_witnessed)."""
    # Imported here, as the process pool is: only exact cells need it.
    from gtlab import exact

    worst, argmax = exact.worst(algorithm, n, d)
    return _witnessed(WorstCaseCell(algorithm, n, d, worst, argmax, True))


def _witnessed(cell: WorstCaseCell) -> WorstCaseCell:
    """cell, once the recorded run on its argmax mask passes finalize and
    spends the cell's worst_tests; otherwise an AssertionError."""
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


def _walk_cells(
    algorithm: str,
    n: int,
    masks: Iterable[int],
    block: int,
    visit: Optional[Callable[[Session, object], None]] = None,
    analysed: bool = False,
) -> List[Tuple[int, int]]:
    """Per-d (most tests, smallest mask spending them) over the runs of
    algorithm on masks, which ascend, (-1, 0) for a d none of them has.
    This is the one walk of a decision tree in harness.

    The masks are walked (tree.walk) in consecutive blocks of block masks,
    each taken from masks as it is walked. The walk carries core's check
    fold (check_records), so each record is checked once, by the step that
    made it, against the walk oracle's log of the query that made it; only
    a leaf the fold cannot certify (check_passes) gets a RunResult and
    finalize. visit(session, analysis fold state) then reads each leaf,
    whose session holds its run only until the walk resumes; with analysed
    the walk carries analysis.fold_records too, and otherwise that state is
    None. Each block's leaves go to kernels.add_leaves, which checks that
    they are the block's masks, each once, and keeps the cells as
    kernels.sweep does. A failure in a block, a leaf add_leaves rejects
    included, raises as the recorded run on its first failing mask does
    (_recorded_on_failure).
    """
    strategy = _folding(kernels.STRATEGIES[algorithm], analysed)

    def leaves(block_masks: List[int]) -> Iterator[kernels.Leaf]:
        for session, (_, checked, folded) in walk(strategy.step, strategy.start, n, block_masks):
            if not check_passes(checked, session, n):
                mask = session.defective_mask
                _finalized(session.result(algorithm), instance_from_mask(n, mask))
            if visit is not None:
                visit(session, folded)
            yield session.oracle.masks, session.tests, session.good_mask, session.defective_mask

    cells = [(-1, 0)] * (n + 1)
    masks = iter(masks)
    while block_masks := list(itertools.islice(masks, block)):
        with _recorded_on_failure(algorithm, n, block_masks):
            kernels.add_leaves(cells, algorithm, n, block_masks, leaves(block_masks))
    return cells


def _folding(strategy: kernels.Strategy, analysed: bool = False) -> kernels.Strategy:
    """strategy with core's check fold of its run carried along, and with
    analysed also the analysis fold: the state is (strategy's state, check
    fold state, analysis fold state), the last None unless analysed. Each
    step folds the records and identifications it made into each fold,
    check_records, with the walk oracle's log of the step's queries, and
    analysis.fold_records, until that fold defers (None). The step must run
    under tree.walk, whose oracle keeps that log. Runs that share steps
    share their folded prefix."""
    step = strategy.step

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
            checked = check_records(checked, records, made, session.oracle.log)
        if folded is not None:
            folded = fold_records(folded, records, made)
        return remaining, (inner, checked, folded)

    return strategy._replace(
        step=folded_step,
        start=(strategy.start, CHECK_START, FOLD_START if analysed else None),
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


def _analysis_violations(result: RunResult, instance: Instance) -> List[dict]:
    """The analysis violation rows of one finalized run, in check order."""
    n, d = instance.n, instance.d
    try:
        report = analyze(result)
    except StructureError as exc:
        failures = [("structure", {"error": str(exc)})]
    else:
        failures = report.failures
    return [
        {
            "algorithm": result.algorithm,
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
    """The cells of one (algorithm, n) and their bound violations, from
    kernels.sweep for individual and from _exact_cell otherwise."""
    if algorithm == "individual":
        per_d = kernels.sweep(algorithm, n)
    else:
        cells = [_exact_cell(algorithm, n, d) for d in range(n + 1)]
        per_d = [(cell.worst_tests, cell.argmax_mask) for cell in cells]
    return _cells(algorithm, n, per_d, checks)


def _upward_task(n: int, checks: Sequence[str], block: int) -> Tuple[List[dict], List[dict]]:
    """zu's cells at n, their bound violations and then its analysis
    violations in mask order, from one walk of its decision tree over every
    mask in consecutive blocks of block masks (_walk_cells). The walk
    carries the analysis fold, and only the leaves it cannot certify
    (fold_passes) get a RunResult for analyze, which writes every
    violation row."""
    found: Dict[int, List[dict]] = {}

    def visit(session: Session, fold: object) -> None:
        if not fold_passes(fold):
            mask = session.defective_mask
            found[mask] = _analysis_violations(session.result("zu"), instance_from_mask(n, mask))

    per_d = _walk_cells("zu", n, range(1 << n), block, visit, analysed=True)
    cells, violations = _cells("zu", n, per_d, checks)
    return cells, violations + [row for mask in sorted(found) for row in found[mask]]


def _grid_tasks(
    algorithms: Sequence[str], n_max: int, checks: Sequence[str]
) -> List[partial]:
    """One task per (algorithm, n), in order, so joining the outputs in list
    order gives the report. With the analysis family selected, zu's task is
    one walk of its decision tree that both fills the cells and analyzes
    the runs (_upward_task, through _walk_cells, as worst_case walks), in
    blocks of kernels.BLOCK masks, so each n up to 16 is one block; each
    task carries the block size read here, so pooled workers walk the same
    blocks. Every other task is _sweep_task: individual's cells from
    kernels.sweep, zd's, zu's and zc's from the step-driven DP."""
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
    zd, zu and zc cells come from the step-driven DP, each replaying its
    witness (_exact_cell), and kernels.sweep counts individual's, except
    that with the analysis family selected, which is refused past
    MAX_ANALYSIS_N, zu's cells come from the one walk of its decision tree
    that also analyzes its transcripts (_walk_cells). All give the same
    cells. workers None, 0 or 1 run it serially in list order, more hand it
    to a process pool largest n first, and a negative count is rejected.
    Outputs are joined in list order, so the report is the same for every
    worker count.
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
    if "analysis" in checks and "zu" in algorithms and n_max > MAX_ANALYSIS_N:
        raise ValueError(
            f"the analysis family checks zu only up to n_max {MAX_ANALYSIS_N}, since each "
            f"of its rows carries a whole transcript; for n_max {n_max} use "
            "--checks bounds,competitive,count"
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

        # Loaded before the pool starts, so that forked workers share the
        # engine's module rather than each compiling and loading it.
        from gtlab import exact  # noqa: F401

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
