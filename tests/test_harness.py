import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import OrderedDict

import pytest
from hypothesis import example, given, settings, strategies as st

from gtlab import bounds, exact, harness, kernels, zigzag
from gtlab.analysis import analyze, transcript_json
from gtlab.core import (
    DRIVER,
    GOOD,
    PURE,
    PoolOracle,
    TestRecord,
    finalize,
    instance_from_mask,
)
from gtlab.harness import MinimaxLimits, minimax_m, verify_grid, worst_case
from test_analysis import GRID_10_ANALYSIS_SHA256
from test_tree import (
    _analysed_zu,
    _assert_names_the_first_failing_mask,
    _broken_quarter_split,
    _draws,
)

# SHA-256 over every recorded run of every algorithm for n <= 9: the test
# count and the full transcript JSON of each (algorithm, n, mask).
RECORDED_RUNS_SHA256 = "1a99141e1015a5e63a72e09ce97cc567f6f914f4a45f357f7fb1c3f403a13585"

# SHA-256 of the JSON report of verify_grid(14) under the bounds, competitive
# and count checks: every bound row and verdict of every cell for n <= 14.
GRID_14_BOUNDS_SHA256 = "a8c66fb382a6134d9a29fdbc7763abeec9ec511cb5939977d0783af089c758b4"


def test_recorded_transcripts_are_pinned():
    digest = hashlib.sha256()
    runs = 0
    for algorithm, runner in harness.RUNNERS.items():
        for n in range(10):
            for mask in range(1 << n):
                result = runner(PoolOracle(instance_from_mask(n, mask)))
                row = [algorithm, n, mask, result.tests_used, transcript_json(result.transcript)]
                digest.update(json.dumps(row, sort_keys=True).encode())
                runs += 1
    assert runs == 4 * ((1 << 10) - 1)
    assert digest.hexdigest() == RECORDED_RUNS_SHA256


def test_minimax_pinned_cells():
    assert minimax_m(2, 1) == 1
    assert minimax_m(8, 1) == 3
    assert minimax_m(4, 2) == 3


def test_minimax_matches_log_ceiling_for_one_defective():
    for n in range(1, 8):
        assert minimax_m(n, 1) == math.ceil(math.log2(n))


def test_minimax_degenerate_counts():
    assert minimax_m(5, 0) == 0
    assert minimax_m(5, 5) == 0


def test_minimax_dense_cells_cost_n_minus_one():
    for n in range(2, 9):
        for d in range(1, n):
            if 8 * n <= 21 * d and math.comb(n, d) <= 70:
                assert minimax_m(n, d) == n - 1, (n, d)


def test_minimax_within_information_and_halving_limits():
    for n in range(1, 8):
        for d in range(0, n + 1):
            value = minimax_m(n, d)
            assert value >= bounds.info_lower_bound(n, d).value
            if 1 <= d:
                assert value <= bounds.hwang_upper(n, d).value


def test_minimax_refuses_beyond_limits():
    with pytest.raises(ValueError, match="refused"):
        minimax_m(9, 1)
    with pytest.raises(ValueError, match="refused"):
        minimax_m(8, 4, MinimaxLimits(max_candidates=69))
    assert minimax_m(8, 4) == 7  # C(8,4)=70 sits exactly at the default cap


def test_minimax_is_label_invariant():
    # A family and its relabeling need the same number of pools; t = 3 is
    # below m - 1 and the six informative items, so the memo is consulted.
    family = (0b000011, 0b001100, 0b010110, 0b101001, 0b110000)
    relabeled = _relabel(family, [3, 0, 5, 1, 4, 2])
    solver = harness._MinimaxSolver
    for t in range(4):
        assert solver(6).solvable(family, t) == solver(6).solvable(relabeled, t), t


# minimax_m(n, d) for every cell the default MinimaxLimits admit, row n
# listing d = 0..n.
MINIMAX_TABLE = {
    1: [0, 0],
    2: [0, 1, 0],
    3: [0, 2, 2, 0],
    4: [0, 2, 3, 3, 0],
    5: [0, 3, 4, 4, 4, 0],
    6: [0, 3, 5, 5, 5, 5, 0],
    7: [0, 3, 5, 6, 6, 6, 6, 0],
    8: [0, 3, 6, 7, 7, 7, 7, 7, 0],
}


def test_minimax_table_is_pinned():
    limits = MinimaxLimits()
    admitted = [
        (n, d)
        for n in range(1, limits.max_n + 1)
        for d in range(n + 1)
        if math.comb(n, d) <= limits.max_candidates
    ]
    pinned = [(n, d) for n, row in MINIMAX_TABLE.items() for d in range(len(row))]
    assert admitted == pinned
    for n, d in admitted:
        assert minimax_m(n, d) == MINIMAX_TABLE[n][d], (n, d)


def test_lower_bounds_never_exceed_the_exact_minimax():
    # competitive_check scales a lower bound on M(n, d); one above M would
    # silently loosen it.
    limits = MinimaxLimits()
    cells = [
        (n, d)
        for n in range(1, limits.max_n + 1)
        for d in range(n + 1)
        if math.comb(n, d) <= limits.max_candidates
    ]
    assert len(cells) == 44
    for n, d in cells:
        exact = minimax_m(n, d)
        for report in (
            bounds.info_lower_bound(n, d),
            bounds.stirling_lower_bound(n, d),
            bounds.entropy_lower_bound(n, d),
            bounds.dense_exact(n, d),
        ):
            if report.applicable:
                assert report.value <= exact, (report.bound_name, n, d, report.value)
        if d < n:
            assert bounds.best_lower_bound(n, d) <= exact, (n, d)


def _relabel(family, perm):
    # Item i of the family becomes item perm[i].
    return tuple(
        sorted(sum(1 << perm[i] for i in range(len(perm)) if mask >> i & 1) for mask in family)
    )


def _informative_part(family):
    # Items that every candidate contains, or none does, say nothing about
    # which candidate is the truth; the canonical key leaves them out.
    shared = -1
    seen = 0
    for mask in family:
        shared &= mask
        seen |= mask
    active = seen & ~shared
    return {mask & active for mask in family}


def _isomorphic(a, b, n):
    core_a, core_b = _informative_part(a), _informative_part(b)
    return len(core_a) == len(core_b) and any(
        set(_relabel(core_a, perm)) == core_b
        for perm in itertools.permutations(range(n))
    )


def _families(n):
    return st.lists(
        st.integers(0, (1 << n) - 1), min_size=1, max_size=min(1 << n, 10), unique=True
    ).map(lambda masks: tuple(sorted(masks)))


def _permuting(n, group, order):
    # The item permutation that sends group[k] to order[k] and fixes the rest.
    perm = list(range(n))
    for src, dst in zip(group, order):
        perm[src] = dst
    return perm


@st.composite
def _block_symmetric_families(draw, n):
    # Families closed under every permutation of one block of items, so many
    # items share a colour and the key's ties are broken by label.
    block = draw(st.lists(st.integers(0, n - 1), min_size=2, unique=True))
    seeds = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=3))
    family = set()
    for order in itertools.permutations(block):
        family.update(_relabel(seeds, _permuting(n, block, order)))
    return tuple(sorted(family))


def _check_key_soundness(families, n, data):
    # The key is a relabeling of the informative items, so equal keys must
    # mean the families are the same up to relabeling; isomorphic families
    # may still get different keys. The second family is either drawn
    # afresh or a relabeled copy of the first with at most one bit flipped,
    # which keeps near misses common.
    a = data.draw(families(n))
    b = _relabel(a, data.draw(st.permutations(range(n))))
    if data.draw(st.booleans()):
        b = data.draw(families(n))
    elif data.draw(st.booleans()):
        row = data.draw(st.integers(0, len(b) - 1))
        flipped = b[row] ^ (1 << data.draw(st.integers(0, n - 1)))
        if flipped not in b:
            b = tuple(sorted(b[:row] + (flipped,) + b[row + 1 :]))
    solver = harness._MinimaxSolver(n)
    if solver._canonical_key(a) == solver._canonical_key(b):
        assert _isomorphic(a, b, n), (a, b)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.data())
def test_canonical_key_merges_only_isomorphic_families(n, data):
    _check_key_soundness(_families, n, data)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 5), st.data())
def test_canonical_key_merges_only_isomorphic_block_symmetric_families(n, data):
    # Many items share a colour here, so ties broken by label matter most.
    _check_key_soundness(_block_symmetric_families, n, data)


def test_solvable_answers_trivial_families_without_a_key(monkeypatch):
    def no_key(self, family):
        raise AssertionError("computed a key")

    monkeypatch.setattr(harness._MinimaxSolver, "_canonical_key", no_key)
    solver = harness._MinimaxSolver(6)
    # Three candidates over six informative items: t >= m - 1.
    assert solver.solvable((0b000011, 0b001100, 0b110000), 2)
    # Every candidate contains item 5, and items 0..2 take all eight
    # patterns: three informative items and t = 3 < m - 1.
    assert solver.solvable(tuple(0b100000 | mask for mask in range(8)), 3)
    # Five singletons: past the information bound (t >= 3) but below
    # m - 1 = 4 and the five informative items, so the key is needed.
    singles = (1, 2, 4, 8, 16)
    assert solver.solvable(singles, 4)
    with pytest.raises(AssertionError, match="computed a key"):
        solver.solvable(singles, 3)


# minimax_m past the default limits, under raised limits.
@pytest.mark.parametrize(
    "n, d, value",
    [(9, 2, 6), (9, 7, 8), (10, 2, 6), (9, 3, 8), (10, 3, 8), (10, 4, 9), (11, 3, 9)],
)
def test_minimax_past_the_default_limits(n, d, value):
    assert minimax_m(n, d, MinimaxLimits(max_n=11, max_candidates=210)) == value


def test_masks_of_weight_ascend_like_sorted_combinations():
    for n in range(11):
        for d in range(n + 1):
            expected = sorted(
                sum(1 << i for i in combo) for combo in itertools.combinations(range(n), d)
            )
            assert list(harness._masks_of_weight(n, d)) == expected, (n, d)


def test_worst_case_exhaustive_is_deterministic():
    a = worst_case("zu", 9, 2)
    b = worst_case("zu", 9, 2)
    assert a == b
    assert a.exact
    assert a.worst_tests >= 1
    # first attaining mask in ascending order
    assert a.argmax_mask.bit_count() == 2


def test_worst_case_agrees_with_kernel_sweep():
    # The decision-tree walk against the independent bitmask counter, and
    # for zd, zu and zc against the step-driven DP.
    for algorithm in kernels.ALGORITHMS:
        for n in range(13):
            per_d = kernels.sweep(algorithm, n)
            for d, (worst, argmax) in enumerate(per_d):
                cell = worst_case(algorithm, n, d)
                assert cell.worst_tests == worst, (algorithm, n, d)
                assert cell.argmax_mask == argmax, (algorithm, n, d)
                if algorithm in exact.ALGORITHMS:
                    assert exact.worst(algorithm, n, d) == (worst, argmax), (algorithm, n, d)


def test_worst_case_sampled_is_a_lower_estimate():
    exact = worst_case("zc", 10, 3)
    sampled = worst_case("zc", 10, 3, mode="sampled", samples=60, seed=1)
    assert not sampled.exact
    assert sampled.worst_tests <= exact.worst_tests
    again = worst_case("zc", 10, 3, mode="sampled", samples=60, seed=1)
    assert again.worst_tests == sampled.worst_tests


@pytest.mark.parametrize("samples", [0, -5])
def test_worst_case_sampled_needs_a_sample(samples):
    with pytest.raises(ValueError, match=f"need samples >= 1, got {samples}"):
        worst_case("zu", 10, 3, mode="sampled", samples=samples)


def test_worst_case_refuses_oversized_enumeration():
    with pytest.raises(ValueError, match="cap"):
        worst_case("zd", 40, 20)


def test_worst_case_rejects_unknown_inputs():
    with pytest.raises(ValueError):
        worst_case("nope", 5, 1)
    with pytest.raises(ValueError):
        worst_case("zd", 5, 6)
    with pytest.raises(ValueError):
        worst_case("zd", 5, 1, mode="guess")


def test_verify_grid_clean_through_eight():
    report = verify_grid(8)
    assert report["violations"] == []
    assert report["schema_version"] == harness.SCHEMA_VERSION
    cells = {(c["algorithm"], c["n"], c["d"]) for c in report["cells"]}
    assert ("zu", 8, 3) in cells
    assert len(cells) == len(report["cells"])


def test_verify_grid_reports_are_byte_identical():
    a = harness.report_to_json(verify_grid(7))
    b = harness.report_to_json(verify_grid(7))
    assert a == b


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats()
    | st.sampled_from([-0.0, 1e300, math.inf, -math.inf, math.nan])
    | st.text()
    | st.sampled_from(
        ['say "hi"', "back\\slash", "\x00\t\n\x1f\x7f", "zu \u00e9 \u2603 \U0001d11e"]
    )
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(st.text(), children)
    | st.dictionaries(st.text(), children).map(OrderedDict),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
@example({"a": [(), {}, []], "b": [OrderedDict([("z", [-0.0, math.nan]), ("y", {})])]})
def test_report_to_json_matches_json_dumps(value):
    expected = json.dumps(value, indent=2, sort_keys=True)
    assert harness.report_to_json(value) == expected


@pytest.mark.parametrize("bad", [{1, 2}, b"bytes"], ids=["set", "bytes"])
def test_report_to_json_rejects_what_json_dumps_rejects(bad):
    value = {"cells": [{"n": 3, "x": bad}]}
    with pytest.raises(TypeError) as ours:
        harness.report_to_json(value)
    with pytest.raises(TypeError) as theirs:
        json.dumps(value, indent=2, sort_keys=True)
    assert str(ours.value) == str(theirs.value)


def test_report_to_json_peak_memory_is_at_most_three_times_the_text():
    # json.dumps with indent holds every chunk of the text at once: about
    # six times its length at the peak.
    report = verify_grid(10, algorithms=["zu"], checks=["analysis"])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        text = harness.report_to_json(report)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(text)


def test_verify_grid_bound_rows_are_pinned():
    report = verify_grid(14, checks=["bounds", "competitive", "count"])
    digest = hashlib.sha256(harness.report_to_json(report).encode()).hexdigest()
    assert digest == GRID_14_BOUNDS_SHA256


def test_verify_grid_workers_match_serial(monkeypatch):
    serial = verify_grid(6)
    parallel = verify_grid(6, workers=3)
    assert harness.report_to_json(serial) == harness.report_to_json(parallel)
    # The smallest n whose zu walk spans two blocks. Tasks carry their
    # block size, so the workers need no patch.
    monkeypatch.setattr(kernels, "BLOCK", 1 << 8)
    n = kernels.BLOCK.bit_length()
    checks = ["bounds", "analysis"]
    serial = verify_grid(n, algorithms=["zu"], checks=checks, workers=1)
    parallel = verify_grid(n, algorithms=["zu"], checks=checks, workers=2)
    assert serial["violations"]
    assert harness.report_to_json(serial) == harness.report_to_json(parallel)


def test_analysis_shards_join_to_the_full_range():
    full_cells, full_rows = _analysed_zu(10, range(1 << 10))
    # The grid's analysis task writes the same rows after its cells' own.
    assert harness._upward_task(10, ["analysis"], kernels.BLOCK)[1] == full_rows
    parts = [_analysed_zu(10, range(lo, hi)) for lo, hi in [(0, 1), (1, 300), (300, 1 << 10)]]
    assert sum(1 for _, rows in parts if rows) == 2
    assert [v for _, rows in parts for v in rows] == full_rows
    # Each d's cell is the first shard's with the most tests, the smallest
    # mask spending them; a d no mask of a shard has reads (-1, 0).
    assert parts[0][0][1:] == [(-1, 0)] * 10
    assert [max(shard, key=lambda cell: cell[0]) for shard in zip(*(c for c, _ in parts))] == (
        full_cells
    )
    assert full_cells == kernels.sweep("zu", 10)
    # Walked in blocks of 37 masks, the cells and rows are the same.
    assert _analysed_zu(10, range(1 << 10), 37) == (full_cells, full_rows)


def test_analysis_grid_analyzes_only_the_leaves_the_fold_defers(monkeypatch):
    # One analyze call per red row for n <= 10 (4 at n = 9, 16 at n = 10),
    # where analyzing every zu run would make 2^11 - 2 calls.
    calls = []

    def counted(run):
        calls.append(run)
        return analyze(run)

    monkeypatch.setattr(harness, "analyze", counted)
    report = verify_grid(10, algorithms=["zu"], checks=["analysis"])
    assert len(calls) == len(report["violations"]) == 20
    digest = hashlib.sha256(harness.report_to_json(report).encode()).hexdigest()
    assert digest == GRID_10_ANALYSIS_SHA256


def test_verify_grid_report_does_not_depend_on_the_shard_size(monkeypatch):
    checks = ["bounds", "analysis"]
    # Each n is one task, one walk of zu's tree in blocks of kernels.BLOCK
    # masks, which the task carries.
    tasks = harness._grid_tasks(["zu"], 10, checks)
    assert [task.args for task in tasks] == [(n, checks, kernels.BLOCK) for n in range(1, 11)]
    serial = harness.report_to_json(verify_grid(10, algorithms=["zu"], checks=checks))
    pooled = harness.report_to_json(
        verify_grid(10, algorithms=["zu"], checks=checks, workers=2)
    )
    monkeypatch.setattr(kernels, "BLOCK", 1 << 5)
    tasks = harness._grid_tasks(["zu"], 10, checks)
    assert [task.args for task in tasks] == [(n, checks, 32) for n in range(1, 11)]
    small = harness.report_to_json(
        verify_grid(10, algorithms=["zu"], checks=checks, workers=2)
    )
    assert serial == pooled == small


def test_zu_cells_from_the_analysis_walk_are_the_sweeps(monkeypatch):
    # With the analysis family the walk that analyzes zu's runs also fills
    # its cells; without it, the step-driven DP does (exact.cells). Neither
    # runs kernels.sweep, which counts only individual's cells in a grid.
    # Walked, DP and swept cells are the same.
    calls = []
    sweep = kernels.sweep

    def counted(algorithm, n):
        calls.append((algorithm, n))
        return sweep(algorithm, n)

    monkeypatch.setattr(kernels, "sweep", counted)
    walked = verify_grid(12, algorithms=["zu"], checks=["bounds", "analysis"])
    assert calls == []
    from_engine = verify_grid(12, algorithms=["zu"], checks=["bounds"])
    assert calls == []
    swept = [
        cell
        for n in range(1, 13)
        for cell in harness._cells("zu", n, sweep("zu", n), ["bounds"])[0]
    ]
    assert walked["cells"] == from_engine["cells"] == swept
    calls.clear()
    verify_grid(4)
    assert calls == [("individual", n) for n in range(1, 5)]


def test_verify_grid_analysis_surfaces_known_offenders():
    report = verify_grid(9, algorithms=["zu"], checks=["bounds", "analysis"])
    found = {
        tuple(v["counterexample"]["instance"]["defectives"])
        for v in report["violations"]
    }
    assert found == {(1, 6, 7), (2, 6, 7), (1, 6, 7, 8), (2, 6, 7, 8)}
    assert all(v["check"] == "tuple-bound" for v in report["violations"])


def test_verify_grid_individual_count_check():
    report = verify_grid(6, algorithms=["individual"])
    for cell in report["cells"]:
        assert cell["worst_tests"] == cell["n"]
        rows = cell["bound_values"]
        assert rows == [["individual-count", float(cell["n"]), True]]


def test_verify_grid_csv_layout(tmp_path):
    report = verify_grid(4)
    path = tmp_path / "grid.csv"
    harness.write_csv(report, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "algorithm,n,d,worst_tests,bound_name,bound_value,pass"
    assert all(len(line.split(",")) == 7 for line in lines[1:])


def test_verify_grid_writes_a_violation_row_per_failed_bound(monkeypatch, tmp_path):
    # A zu-upper-n of 0 fails on every cell. The grid looks the evaluator up
    # in bounds when it runs, so the patched one is the one it checks.
    monkeypatch.setattr(
        bounds,
        "zu_upper_n",
        lambda n: bounds.BoundReport(n, None, "zu-upper-n", 0.0, True, bounds.UPPER),
    )
    report = verify_grid(4, algorithms=["zu"], checks=["bounds"])
    cells = [  # (n, d, worst_tests, argmax_mask)
        (1, 0, 1, 0), (1, 1, 1, 1),
        (2, 0, 2, 0), (2, 1, 2, 1), (2, 2, 2, 3),
        (3, 0, 2, 0), (3, 1, 4, 2), (3, 2, 4, 6), (3, 3, 3, 7),
        (4, 0, 3, 0), (4, 1, 5, 2), (4, 2, 5, 5), (4, 3, 5, 13), (4, 4, 4, 15),
    ]
    assert report["violations"] == [
        {
            "algorithm": "zu",
            "n": n,
            "d": d,
            "check": "zu-upper-n",
            "worst_tests": worst,
            "bound_value": 0.0,
            "argmax_mask": argmax,
        }
        for n, d, worst, argmax in cells
    ]
    cell = report["cells"][-1]
    assert (cell["n"], cell["d"]) == (4, 4)
    assert cell["bound_values"] == [
        ["zu-upper-n", 0.0, False],
        ["zu-upper-d", bounds.zu_upper_d(4, 4).value, True],
    ]
    path = tmp_path / "grid.csv"
    harness.write_csv(report, str(path))
    lines = path.read_text().splitlines()
    assert lines[-2:] == ["zu,4,4,4,zu-upper-n,0.0,False", "zu,4,4,4,zu-upper-d,29.4349208,True"]


def test_verify_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        verify_grid(0)
    with pytest.raises(ValueError, match=str(harness.MAX_GRID_N)):
        verify_grid(harness.MAX_GRID_N + 1)
    with pytest.raises(ValueError):
        verify_grid(5, algorithms=["zz"])


def test_verify_grid_refuses_zu_analysis_past_its_limit_before_a_walk(monkeypatch):
    def no_walk(*args, **kwargs):
        raise AssertionError("walked")

    monkeypatch.setattr(harness, "_walk_cells", no_walk)
    monkeypatch.setattr(exact, "worst", no_walk)
    monkeypatch.setattr(exact, "cells", no_walk)
    for n_max in (harness.MAX_ANALYSIS_N + 1, harness.MAX_GRID_N):
        for algorithms, checks in [(None, None), (["zu"], ["analysis"])]:
            with pytest.raises(ValueError, match="--checks bounds,competitive,count$"):
                verify_grid(n_max, algorithms=algorithms, checks=checks)
    # The limit is zu's analysis: individual's count at the same n still runs.
    report = verify_grid(16, algorithms=["individual"], checks=["count", "analysis"])
    assert len(report["cells"]) == sum(n + 1 for n in range(1, 17))


def test_verify_grid_rejects_unknown_check_families():
    with pytest.raises(ValueError, match="unknown check family 'bogus'"):
        verify_grid(3, checks=["bogus"])
    with pytest.raises(ValueError, match="'analyses'"):
        verify_grid(3, algorithms=["zu"], checks=["bounds", "analyses"])


def test_verify_grid_rejects_an_empty_check_list():
    with pytest.raises(ValueError, match="at least one check family"):
        verify_grid(3, checks=[])
    with pytest.raises(ValueError, match="at least one check family"):
        verify_grid(3, checks=())


@pytest.mark.parametrize(
    "algorithms, checks, message",
    [
        (["zu", "zu"], ["bounds"], "repeated algorithm 'zu'"),
        (["zc", "zd", "zc"], ["bounds"], "repeated algorithm 'zc'"),
        (["zu"], ["bounds", "analysis", "bounds"], "repeated check family 'bounds'"),
    ],
)
def test_verify_grid_rejects_repeated_names(algorithms, checks, message):
    with pytest.raises(ValueError, match=message):
        verify_grid(2, algorithms=algorithms, checks=checks)


def test_verify_grid_rejects_an_empty_algorithm_list():
    with pytest.raises(ValueError, match="at least one algorithm"):
        verify_grid(3, algorithms=[])
    with pytest.raises(ValueError, match="at least one algorithm"):
        verify_grid(3, algorithms=())


@pytest.mark.parametrize(
    "algorithms, checks",
    [
        (["individual"], ["analysis"]),
        (["zd", "zu"], ["competitive", "count"]),
        (["individual", "zc"], ["analysis"]),
        (["zu"], ["count"]),
    ],
)
def test_verify_grid_rejects_a_selection_no_check_applies_to(algorithms, checks):
    with pytest.raises(ValueError, match="applies to"):
        verify_grid(3, algorithms=algorithms, checks=checks)


@pytest.mark.parametrize("check", ["bounds", "competitive", "count"])
def test_check_algorithms_names_where_each_bound_family_writes_rows(check):
    report = verify_grid(8, checks=[check])
    with_rows = {c["algorithm"] for c in report["cells"] if c["bound_values"]}
    assert with_rows == set(harness.CHECK_ALGORITHMS[check])


# Run in a fresh interpreter, since pytest and hypothesis may import the
# pool modules themselves.
_POOL_IMPORT_SCRIPT = """
import sys
import gtlab
from gtlab import analysis, bounds, cli, harness, kernels
loaded = [m for m in ("concurrent.futures", "multiprocessing") if m in sys.modules]
assert not loaded, "imported without a pool: %s" % loaded
assert harness.verify_grid(6, workers=2) == harness.verify_grid(6)
"""


def test_only_a_pooled_grid_imports_the_process_pool():
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _POOL_IMPORT_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_verify_grid_rejects_negative_workers():
    with pytest.raises(ValueError, match="workers >= 0"):
        verify_grid(3, workers=-1)


def test_grid_catches_a_broken_pool_schedule(monkeypatch):
    # Doubling schedule instead of the staged one: either the sweep's
    # correctness cross-check or a budget row must trip.
    monkeypatch.setattr(zigzag, "pool_size", lambda i: 1 << i)
    try:
        report = verify_grid(8, algorithms=["zu"])
    except (AssertionError, ValueError):
        return
    assert report["violations"]


def test_json_report_has_no_unserializable_values():
    report = verify_grid(9, algorithms=["zu"], checks=["bounds", "analysis"])
    json.loads(harness.report_to_json(report))


def test_finalize_failure_dumps_the_ground_truth_instance(monkeypatch):
    # A broken step fails on the walk, and the dump is the recorded run on
    # the first failing draw in draw order: at (8, 2, seed 1) neither the
    # first draw nor the smallest failing one.
    draws = _draws(8, 2, 10, 1)
    with monkeypatch.context() as broken:
        broken.setattr(zigzag, "quarter_split", _broken_quarter_split)
        with pytest.raises(AssertionError, match=r"^zu failed correctness at n=8: ") as info:
            worst_case("zu", 8, 2, mode="sampled", samples=10, seed=1)
        dump = json.loads(str(info.value).split(": ", 1)[1])
        _assert_names_the_first_failing_mask(dump, "zu", 8, draws)
        failing = sum(1 << i for i in dump["instance"]["defectives"])
        rejected = [
            mask
            for mask in draws
            if not finalize(
                harness.RUNNERS["zu"](PoolOracle(instance_from_mask(8, mask))),
                instance_from_mask(8, mask),
            ).ok
        ]
        assert failing not in (draws[0], min(rejected))

    # A broken runner only the witness replay reaches: the dump names the
    # witness's ground-truth instance, not the one item the run labelled.
    honest = harness.RUNNERS["zd"]

    def labels_one_item(oracle):
        run = honest(oracle)
        run.transcript.identifications = run.transcript.identifications[:1]
        return run

    witness = worst_case("zd", 5, 2, mode="sampled", samples=10, seed=3)
    monkeypatch.setitem(harness.RUNNERS, "zd", labels_one_item)
    with pytest.raises(AssertionError, match=r"^zd failed correctness at n=5: ") as info:
        worst_case("zd", 5, 2, mode="sampled", samples=10, seed=3)
    dump = json.loads(str(info.value).split(": ", 1)[1])
    assert dump["failed_check"] == "finalize"
    assert dump["instance"] == {"n": 5, "defectives": witness.argmax_defectives}


def _reference_sampled_cell(algorithm, n, d, samples, seed):
    # One recorded run plus finalize per draw; the first draw to reach the
    # most tests.
    worst, argmax = -1, 0
    for mask in _draws(n, d, samples, seed):
        instance = instance_from_mask(n, mask)
        run = harness.RUNNERS[algorithm](PoolOracle(instance))
        assert finalize(run, instance).ok, (algorithm, n, mask)
        if run.tests_used > worst:
            worst, argmax = run.tests_used, mask
    return worst, argmax


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("algorithm", kernels.ALGORITHMS)
def test_walked_sampled_cells_are_the_recorded_runs(algorithm, seed):
    # (6, 2) with 60 draws out of 15 sets repeats draws.
    for n, d, samples in [(6, 2, 60), (12, 3, 100), (20, 5, 100)]:
        cell = worst_case(algorithm, n, d, mode="sampled", samples=samples, seed=seed)
        reference = _reference_sampled_cell(algorithm, n, d, samples, seed)
        assert (cell.worst_tests, cell.argmax_mask) == reference, (n, d)


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
@pytest.mark.parametrize("algorithm", kernels.ALGORITHMS)
def test_a_witness_that_spends_other_tests_is_rejected(monkeypatch, algorithm, mode):
    # The runner passes finalize but makes one more honest query, a pure
    # test of an item it labelled good, which the walk never makes.
    honest = harness.RUNNERS[algorithm]

    def one_more_query(oracle):
        run = honest(oracle)
        good = min(item for item, label in run.transcript.classified().items() if label == GOOD)
        assert not oracle.contaminated([good])
        seq = run.tests_used + 1
        run.transcript.records.append(TestRecord(seq, (good,), PURE, DRIVER, status=PURE))
        assert finalize(run, oracle.instance).ok
        return run

    cell = worst_case(algorithm, 8, 3, mode=mode, samples=20)
    monkeypatch.setitem(harness.RUNNERS, algorithm, one_more_query)
    message = (
        f"^{algorithm} witness at n=8, mask {cell.argmax_mask:#x}: the recorded run "
        f"spent {cell.worst_tests + 1} tests, the walk {cell.worst_tests}$"
    )
    with pytest.raises(AssertionError, match=message):
        worst_case(algorithm, 8, 3, mode=mode, samples=20)
