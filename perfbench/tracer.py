"""In-memory spans around calls into gtlab's public functions.

The tracer never edits the program. It replaces a public function by a
timing wrapper in the module namespace the program looks it up from (for
example ``harness.finalize`` or ``analysis.classify``), records one span per
call, and puts every original back on ``remove()``. Oracle queries are too
frequent for one span each, so the oracle wrapper keeps a count and a total
time per algorithm instead.

A span is ``[name, start, end, parent_index, attrs]`` with times from
``time.perf_counter``; ``parent_index`` is -1 for a root span.
"""

from __future__ import annotations

import math
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

from gtlab import analysis, bounds, cli, harness, kernels
from gtlab.core import PoolOracle

ALGORITHMS = kernels.ALGORITHMS

RUNNER_SPANS = {
    "individual": "competitive.run_individual",
    "zd": "zigzag.run_zd",
    "zu": "zigzag.run_zu",
    "zc": "competitive.run_zc",
}

ANALYSIS_STEPS = (
    "upward_subtranscript",
    "segment_phases",
    "classify",
    "verify_observations",
    "check_class_bounds",
)

BOUND_CHECKS = ("bounds", "competitive", "count")
BOUND_FUNCTIONS = ("zd_upper", "zu_upper_d", "zc_upper_n", "zc_upper_d", "competitive_check")

# The slowest exact minimax cells; every admitted cell also feeds ``all``.
MINIMAX_CELLS = tuple((n, d) for n in (7, 8) for d in range(1, n))


def _arg(args: tuple, kwargs: dict, pos: int, key: str, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._undo: List[tuple] = []
        self.alg: Optional[str] = None
        self.runs: Dict[Optional[str], int] = defaultdict(int)
        self.queries: Dict[Optional[str], int] = defaultdict(int)
        self.query_seconds = 0.0

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, attrs: dict):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            attrs["raised"] = type(exc).__name__
            raise
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def _patch(self, owner, key, replacement, is_dict: bool = False) -> None:
        original = owner[key] if is_dict else getattr(owner, key)
        self._undo.append((owner, key, original, is_dict))
        if is_dict:
            owner[key] = replacement
        else:
            setattr(owner, key, replacement)

    def wrap(
        self,
        module,
        attr: str,
        name: str,
        attrs_of: Optional[Callable] = None,
        after: Optional[Callable] = None,
        alg_of: Optional[Callable] = None,
    ) -> None:
        original = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            attrs = attrs_of(args, kwargs) if attrs_of else {}
            saved = tracer.alg
            if alg_of is not None:
                tracer.alg = alg_of(args, kwargs)
            try:
                result = tracer.call(name, original, args, kwargs, attrs)
            finally:
                tracer.alg = saved
            if after is not None:
                after(result, attrs)
            return result

        self._patch(module, attr, wrapper)

    def install(self) -> "Tracer":
        tracer = self

        class TimedOracle(PoolOracle):
            def contaminated(self, pool):
                start = perf_counter()
                hit = PoolOracle.contaminated(self, pool)
                tracer.query_seconds += perf_counter() - start
                tracer.queries[tracer.alg] += 1
                return hit

        self._patch(harness, "PoolOracle", TimedOracle)
        self._patch(kernels, "PoolOracle", TimedOracle)

        def sweep_attrs(args, kwargs):
            # A sweep of n items is 2^n runs of its algorithm.
            alg, n = _arg(args, kwargs, 0, "algorithm"), _arg(args, kwargs, 1, "n")
            self.runs[alg] += 1 << n
            return {"alg": alg, "n": n}

        self.wrap(kernels, "sweep", "kernels.sweep", sweep_attrs,
                  alg_of=lambda a, k: _arg(a, k, 0, "algorithm"))
        for alg, span_name in RUNNER_SPANS.items():
            self._patch(harness.RUNNERS, alg, self._runner(alg, span_name), is_dict=True)
        self.wrap(harness, "finalize", "core.finalize")

        def analyze_after(report, attrs):
            attrs["failures"] = len(report.failures)

        self.wrap(harness, "analyze", "analysis.analyze", after=analyze_after)
        for step in ANALYSIS_STEPS:
            self.wrap(analysis, step, "analysis." + step)
        self.wrap(harness, "counterexample_json", "analysis.counterexample_json")
        for fn in BOUND_FUNCTIONS:
            self.wrap(bounds, fn, "bounds." + fn)

        def grid_after(report, attrs):
            attrs["cells"] = len(report["cells"])

        self.wrap(
            harness, "verify_grid", "harness.verify_grid",
            lambda a, k: {"workers": _arg(a, k, 3, "workers"),
                          "checks": _arg(a, k, 2, "checks")},
            after=grid_after,
        )
        self.wrap(
            harness, "worst_case", "harness.worst_case",
            lambda a, k: {
                "alg": a[0], "n": a[1], "d": a[2],
                "mode": _arg(a, k, 3, "mode", "exhaustive"),
                "samples": _arg(a, k, 4, "samples", 1000),
            },
        )
        self.wrap(harness, "minimax_m", "harness.minimax_m",
                  lambda a, k: {"n": a[0], "d": a[1]})

        def json_after(text, attrs):
            attrs["bytes"] = len(text.encode())

        self.wrap(harness, "report_to_json", "harness.report_to_json", after=json_after)
        self.wrap(cli, "main", "cli.main")
        return self

    def _runner(self, alg: str, span_name: str) -> Callable:
        original = harness.RUNNERS[alg]

        def runner(*args, **kwargs):
            saved, self.alg = self.alg, alg
            self.runs[alg] += 1
            try:
                return self.call(span_name, original, args, kwargs, {})
            finally:
                self.alg = saved

        return runner

    def remove(self) -> None:
        while self._undo:
            owner, key, original, is_dict = self._undo.pop()
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)


def _dur(span: list) -> float:
    return span[2] - span[1]


def _task_seconds(spans: List[list]) -> List[float]:
    """Per-(algorithm, n) task times of each serial grid run: a task starts
    with its kernels.sweep call and lasts until the next one starts."""
    out: List[float] = []
    for grid in spans:
        if grid[0] != "harness.verify_grid" or (grid[4]["workers"] or 0) > 1:
            continue
        starts = [s[1] for s in spans if s[0] == "kernels.sweep" and grid[1] <= s[1] <= grid[2]]
        edges = starts + [grid[2]]
        out.extend(b - a for a, b in zip(edges, edges[1:]))
    return out


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Every per-layer metric the recorded spans support."""
    by: Dict[str, List[list]] = defaultdict(list)
    for span in tracer.spans:
        by[span[0]].append(span)
    m: Dict[str, float] = {}

    def per_call_us(metric: str, name: str) -> None:
        spans = by.get(name)
        if spans:
            m[metric] = sum(map(_dur, spans)) / len(spans) * 1e6

    for alg in ALGORITHMS:
        sweeps = [s for s in by["kernels.sweep"] if s[4]["alg"] == alg]
        if sweeps:
            masks = sum(1 << s[4]["n"] for s in sweeps)
            m[f"kernels.sweep_us_per_mask.{alg}"] = sum(map(_dur, sweeps)) / masks * 1e6
        if tracer.runs[alg]:
            m[f"core.queries_per_run.{alg}"] = tracer.queries[alg] / tracer.runs[alg]
    total_queries = sum(tracer.queries.values())
    if total_queries:
        m["core.query_us"] = tracer.query_seconds / total_queries * 1e6
    recorded = sum(len(by[name]) for name in RUNNER_SPANS.values())
    if recorded:
        m["core.recorded_runs"] = recorded
    per_call_us("core.finalize_us", "core.finalize")
    per_call_us("zigzag.run_zd_us", "zigzag.run_zd")
    per_call_us("zigzag.run_zu_us", "zigzag.run_zu")
    per_call_us("competitive.run_zc_us", "competitive.run_zc")
    for step in ANALYSIS_STEPS + ("analyze", "counterexample_json"):
        per_call_us(f"analysis.{step}_us", "analysis." + step)
    if by["analysis.analyze"]:
        m["analysis.violations"] = sum(
            s[4].get("failures", 1 if "raised" in s[4] else 0) for s in by["analysis.analyze"]
        )
    cells = sum(
        s[4].get("cells", 0)
        for s in by["harness.verify_grid"]
        if s[4]["checks"] is None or set(s[4]["checks"]) & set(BOUND_CHECKS)
    )
    if cells:
        bound_s = sum(_dur(s) for fn in BOUND_FUNCTIONS for s in by["bounds." + fn])
        m["bounds.cell_us"] = bound_s / cells * 1e6
    minimax = by["harness.minimax_m"]
    if minimax:
        m["harness.minimax_s.all"] = sum(map(_dur, minimax))
        for s in minimax:
            if (s[4]["n"], s[4]["d"]) in MINIMAX_CELLS:
                m[f"harness.minimax_s.{s[4]['n']}_{s[4]['d']}"] = _dur(s)
    exhaustive = [s for s in by["harness.worst_case"] if s[4]["mode"] == "exhaustive"]
    if exhaustive:
        masks = sum(math.comb(s[4]["n"], s[4]["d"]) for s in exhaustive)
        m["harness.worst_case_us_per_mask"] = sum(map(_dur, exhaustive)) / masks * 1e6
    sampled = [s for s in by["harness.worst_case"] if s[4]["mode"] == "sampled"]
    if sampled:
        samples = sum(s[4]["samples"] for s in sampled)
        m["harness.worst_case_sampled_us_per_sample"] = sum(map(_dur, sampled)) / samples * 1e6
    tasks = _task_seconds(tracer.spans)
    if tasks:
        m["harness.largest_cell_share"] = max(tasks) / sum(tasks)
    reports = by["harness.report_to_json"]
    if reports:
        m["cli.report_json_s"] = sum(map(_dur, reports))
        m["cli.report_bytes"] = sum(s[4]["bytes"] for s in reports)
    return m
