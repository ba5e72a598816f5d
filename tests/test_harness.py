import itertools
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from gtlab import bounds, harness, kernels
from gtlab.harness import MinimaxLimits, minimax_m, verify_grid, worst_case


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
    # Same family up to relabeling must reuse memo entries and agree.
    solver = harness._MinimaxSolver(6)
    fam_a = tuple(sorted([0b000011, 0b001100, 0b110000]))
    fam_b = tuple(sorted([0b110000, 0b000011, 0b001100]))
    assert solver._canonical_key(fam_a) == solver._canonical_key(fam_b)
    relabeled = tuple(sorted([0b000101, 0b011000, 0b100010]))
    assert solver._canonical_key(fam_a) == solver._canonical_key(relabeled)


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


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.data())
def test_canonical_key_ignores_item_labels(n, data):
    family = data.draw(_families(n))
    perm = data.draw(st.permutations(range(n)))
    solver = harness._MinimaxSolver(n)
    assert solver._canonical_key(family) == solver._canonical_key(_relabel(family, perm))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.data())
def test_canonical_key_merges_only_isomorphic_families(n, data):
    # For n <= 5 every colour group has at most 5! = 120 orderings, so the
    # key never takes the labeled fallback and equal keys must mean the
    # families are the same up to relabeling (and conversely). The second
    # family is either drawn afresh or a relabeled copy of the first with
    # at most one bit flipped, which keeps near misses common.
    a = data.draw(_families(n))
    b = _relabel(a, data.draw(st.permutations(range(n))))
    if data.draw(st.booleans()):
        b = data.draw(_families(n))
    elif data.draw(st.booleans()):
        row = data.draw(st.integers(0, len(b) - 1))
        flipped = b[row] ^ (1 << data.draw(st.integers(0, n - 1)))
        if flipped not in b:
            b = tuple(sorted(b[:row] + (flipped,) + b[row + 1 :]))
    solver = harness._MinimaxSolver(n)
    same_key = solver._canonical_key(a) == solver._canonical_key(b)
    assert same_key == _isomorphic(a, b, n), (a, b)


def test_worst_case_exhaustive_is_deterministic():
    a = worst_case("zu", 9, 2)
    b = worst_case("zu", 9, 2)
    assert a == b
    assert a.exact
    assert a.worst_tests >= 1
    # first attaining mask in ascending order
    assert a.argmax_mask.bit_count() == 2


def test_worst_case_agrees_with_kernel_sweep():
    for algorithm in kernels.ALGORITHMS:
        per_d = kernels.sweep(algorithm, 8)
        for d, (worst, argmax) in enumerate(per_d):
            cell = worst_case(algorithm, 8, d)
            assert cell.worst_tests == worst, (algorithm, d)
            assert cell.argmax_mask == argmax, (algorithm, d)


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
        worst_case("zd", 40, 20, cap=10**6)


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


def test_verify_grid_workers_match_serial(tmp_path):
    serial = verify_grid(6)
    parallel = verify_grid(6, workers=3)
    assert harness.report_to_json(serial) == harness.report_to_json(parallel)


def test_verify_grid_env_workers(monkeypatch):
    monkeypatch.setenv("GTLAB_WORKERS", "2")
    report = verify_grid(5)
    assert report["violations"] == []


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


def test_verify_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        verify_grid(0)
    with pytest.raises(ValueError, match=str(harness.MAX_GRID_N)):
        verify_grid(harness.MAX_GRID_N + 1)
    with pytest.raises(ValueError):
        verify_grid(5, algorithms=["zz"])


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


def test_verify_grid_rejects_negative_workers(monkeypatch):
    with pytest.raises(ValueError, match="workers >= 0"):
        verify_grid(3, workers=-1)
    monkeypatch.setenv("GTLAB_WORKERS", "-2")
    with pytest.raises(ValueError, match="workers >= 0"):
        verify_grid(3)


def test_verify_grid_env_workers_must_be_an_integer(monkeypatch):
    monkeypatch.setenv("GTLAB_WORKERS", "two")
    with pytest.raises(ValueError, match="GTLAB_WORKERS must be an integer, got 'two'"):
        verify_grid(3)


def test_grid_catches_a_broken_pool_schedule(monkeypatch):
    # Doubling schedule instead of the staged one: either the sweep's
    # correctness cross-check or a budget row must trip.
    import gtlab.zigzag as zigzag

    monkeypatch.setattr(zigzag, "pool_size", lambda i: 1 << i)
    try:
        report = verify_grid(8, algorithms=["zu"], backend="pure")
    except (AssertionError, ValueError):
        return
    assert report["violations"]


def test_json_report_has_no_unserializable_values():
    report = verify_grid(9, algorithms=["zu"], checks=["bounds", "analysis"])
    json.loads(harness.report_to_json(report))


def test_finalize_failure_dumps_the_ground_truth_instance(monkeypatch):
    honest = harness.RUNNERS["zd"]

    def labels_one_item(oracle):
        run = honest(oracle)
        run.transcript.identifications = run.transcript.identifications[:1]
        run.classified = run.transcript.classified()
        return run

    monkeypatch.setitem(harness.RUNNERS, "zd", labels_one_item)
    with pytest.raises(AssertionError) as info:
        worst_case("zd", 5, 2)
    dump = json.loads(str(info.value).split(": ", 1)[1])
    assert dump["failed_check"] == "finalize"
    assert dump["instance"] == {"n": 5, "defectives": [0, 1]}
