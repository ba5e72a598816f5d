import hashlib
import json
import os
import sys

import pytest

from gtlab import exact, harness, kernels
from gtlab.competitive import ZcPlan, run_zc
from gtlab.core import DEFECTIVE, DRIVER, GOOD, PoolOracle, instance_from_mask
from gtlab.zigzag import ZD_START, ZU_START, zd_step, zu_step

REFERENCE = os.path.join(os.path.dirname(__file__), "..", "perfbench", "reference.json")

# The pinned cells: (worst, argmax) of every d for zd with n <= 64, zu with
# n <= 100, past n = 97 where its additional test first fires, and zc with
# n <= 40, from the step-driven DP. Regenerate only with a CHANGES.md note
# that names each moved cell.
PIN_RANGES = {"zd": 64, "zu": 100, "zc": 40}
EXACT_CELLS_SHA256 = "4b58f5052e6688af75416e25eac804d783940040b6b127787118bb7c859976f5"


def _fresh(algorithm):
    """A cold engine of algorithm's step, sharing no tree with the
    process's."""
    return exact._engine.__wrapped__(algorithm, kernels.STRATEGIES[algorithm].step)


@pytest.mark.parametrize("algorithm", exact.ALGORITHMS)
def test_the_engine_is_the_sweep(algorithm):
    for n in range(15):
        cells = [exact.worst(algorithm, n, d) for d in range(n + 1)]
        assert cells == kernels.sweep(algorithm, n), n


def test_the_engine_is_the_pinned_exhaustive_cells_at_n_20():
    with open(REFERENCE) as handle:
        pinned = json.load(handle)["exact-cells"]["exhaustive"]
    assert len(pinned) == 12
    for name, cell in pinned.items():
        algorithm, d = name.split("_")
        assert list(exact.worst(algorithm, 20, int(d))) == cell, name


def test_exact_cells_are_pinned():
    cells = {
        algorithm: [[list(cell) for cell in exact.cells(algorithm, n)] for n in range(1, top + 1)]
        for algorithm, top in PIN_RANGES.items()
    }
    text = json.dumps(cells, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == EXACT_CELLS_SHA256
    most = {
        algorithm: {n: max(worst for worst, _ in row) for n, row in enumerate(rows, 1)}
        for algorithm, rows in cells.items()
    }
    # zu meets 7n/5 at every n divisible by 5 and never exceeds it.
    assert all(5 * worst <= 7 * n for n, worst in most["zu"].items())
    fives = range(5, PIN_RANGES["zu"] + 1, 5)
    assert [most["zu"][n] for n in fives] == [7 * n // 5 for n in fives]
    assert (most["zd"][20], most["zd"][48]) == (38, 84)
    assert most["zc"][20] == 32


@pytest.mark.parametrize("algorithm", exact.ALGORITHMS)
def test_a_row_is_its_single_cells(algorithm):
    # Fresh engines for single cells and for rows, and one shared engine
    # asked single -> row -> single, every odd d first, so a row fills
    # around cells it already holds.
    start = kernels.STRATEGIES[algorithm].start
    single, batch, shared = _fresh(algorithm), _fresh(algorithm), _fresh(algorithm)
    for n in range(21):
        cells = [single.best(n, d, start) for d in range(n + 1)]
        assert batch.row(n, start) == cells, n
        assert [shared.best(n, d, start) for d in range(1, n + 1, 2)] == cells[1::2], n
        assert shared.row(n, start) == cells, n
        assert [shared.best(n, d, start) for d in range(n + 1)] == cells, n
        assert exact.cells(algorithm, n) == [exact.worst(algorithm, n, d) for d in range(n + 1)]


def test_a_single_cell_explores_only_the_trees_it_needs():
    # A tree asks each sub-tree only for the e its own e implies, so a cold
    # single cell explores as few trees as a memo of one cell per
    # (r, e, state, owed) did, and reads the cell from those trees alone.
    for algorithm, d, tests, trees in [("zu", 3, 23, 499), ("zc", 10, 50, 1129)]:
        engine = _fresh(algorithm)
        assert engine.best(48, d, kernels.STRATEGIES[algorithm].start)[0] == tests, algorithm
        assert len(engine.trees) == trees, algorithm


def test_exact_mode_refuses_n_past_its_cap_before_the_dp(monkeypatch):
    def no_dp(*args):
        raise AssertionError("explored")

    monkeypatch.setattr(exact.Engine, "_explore", no_dp)
    # The cap covers zu's pinned cells, past the additional test's n = 97.
    cap = harness.MAX_EXACT_N
    assert cap >= max(PIN_RANGES.values())
    for algorithm in exact.ALGORITHMS:
        message = f"^exact search for {algorithm} at n={cap + 1} exceeds cap {cap}$"
        with pytest.raises(ValueError, match=message):
            harness.worst_case(algorithm, cap + 1, 1, mode="exact")


def test_worst_case_exact_mode_replays_its_witness(monkeypatch):
    # The witness replay is a recorded run, so a zc cell's run carries the
    # plan the recorded runner reports.
    replays = []
    run_checked = harness._run_checked

    def recorded(algorithm, instance):
        run = run_checked(algorithm, instance)
        replays.append((instance.mask, run))
        return run

    monkeypatch.setattr(harness, "_run_checked", recorded)
    cell = harness.worst_case("zc", 20, 4, mode="exact")
    assert (cell.worst_tests, cell.argmax_mask, cell.exact) == (23, 34850, True)
    [(mask, run)] = replays
    assert mask == cell.argmax_mask
    assert run.tests_used == cell.worst_tests
    plan = run_zc(PoolOracle(instance_from_mask(20, mask))).plan
    assert isinstance(run.plan, ZcPlan) and run.plan == plan


def test_worst_case_exact_mode_at_n_48():
    cells = {
        (alg, d): harness.worst_case(alg, 48, d, mode="exact").worst_tests
        for alg in exact.ALGORITHMS
        for d in (3, 10)
    }
    assert cells == {
        ("zd", 3): 21, ("zd", 10): 51,
        ("zu", 3): 23, ("zu", 10): 46,
        ("zc", 3): 25, ("zc", 10): 50,
    }


def test_exact_mode_refuses_individual_and_bad_sizes():
    with pytest.raises(ValueError, match="individual's cells are n by construction"):
        harness.worst_case("individual", 5, 2, mode="exact")
    with pytest.raises(ValueError, match="unknown algorithm"):
        harness.worst_case("zz", 5, 2, mode="exact")
    with pytest.raises(ValueError, match="0 <= d <= n"):
        exact.worst("zd", 5, 6)
    with pytest.raises(ValueError, match="n >= 0"):
        exact.cells("zd", -1)
    # No set of 1 defective meets two disjoint owed intervals.
    assert exact.engine("zu").best(4, 1, ZU_START, (0b0011, 0b1100)) is None


def test_the_dp_needs_no_recursion_depth():
    # zu on n items that are all defective takes n steps, one state each,
    # more than Python's recursion limit allows frames.
    n = sys.getrecursionlimit() + 100
    assert exact.worst("zu", n, n) == (n, (1 << n) - 1)


def _engine(step):
    return exact.Engine("tampered", step, lambda state: state)


def _raises(step, message, r=6, e=2, start=ZD_START):
    with pytest.raises(AssertionError, match=message):
        _engine(step).best(r, e, start)


def test_a_step_whose_records_miss_a_query_is_rejected():
    # The peeking zu: it asks the oracle about its first item and never
    # records the query. Its records are an honest run's.
    def peeking(session, remaining, state):
        session.oracle.contaminated([remaining[0]])
        return zu_step(session, remaining, state)

    _raises(peeking, "^tampered step's records do not match its oracle's log$", start=ZU_START)


def test_a_step_that_drops_an_item_is_rejected():
    def drops(session, remaining, state):
        left, state = zd_step(session, remaining, state)
        return left[1:], state

    _raises(drops, "labels are not exactly the items it resolved")


def test_a_step_that_labels_an_untested_item_good_is_rejected():
    def guesses_good(session, remaining, state):
        left, state = zd_step(session, remaining, state)
        if left:
            session.identify(left[0], GOOD, None, False)
        return left[1:], state

    _raises(guesses_good, "labelled good an item no pure pool holds")


def test_a_step_that_leaves_a_cleared_item_is_rejected():
    def keeps_a_pure_item(session, remaining, state):
        if session.query(remaining[:1], DRIVER):
            session.identify(remaining[0], DEFECTIVE, session.tests, True)
            return remaining[1:], state
        return remaining, state

    _raises(keeps_a_pure_item, "left an item a pure pool holds")


def test_a_step_that_guesses_a_defective_is_rejected():
    def guesses_defective(session, remaining, state):
        pool = remaining[:2]
        if session.query(pool, DRIVER):
            session.identify(pool[0], DEFECTIVE, session.tests, False)
            return remaining[1:], state
        session.identify_all(pool, GOOD, session.tests)
        return remaining[2:], state

    _raises(guesses_defective, "found a defective no answer forces")


def test_a_step_that_splits_what_it_owes_is_rejected():
    def splits(session, remaining, state):
        if session.query(remaining[:2], DRIVER):
            return [remaining[0], *remaining[2:3], remaining[1], *remaining[3:]], state
        session.identify_all(remaining[:2], GOOD, session.tests)
        return remaining[2:], state

    _raises(splits, "owes a pool that is not an interval of the items left")


def test_a_step_that_reorders_its_items_is_rejected():
    def reverses(session, remaining, state):
        return remaining[::-1], state

    _raises(reverses, "left its items out of order")


def test_a_step_that_makes_no_progress_is_rejected():
    def stays(session, remaining, state):
        return remaining, state

    _raises(stays, "returned to the state")


def test_a_replay_that_asks_another_pool_is_rejected():
    calls = []

    def wanders(session, remaining, state):
        calls.append(1)
        return zd_step(session, remaining[len(calls) % 2:] + remaining[:len(calls) % 2], state)

    _raises(
        wanders,
        r"^replayed query 1 asked pool \(0, 1, 2, 3, 4, 5\), "
        r"where the explorer logged \(1, 2, 3, 4, 5, 0\)$",
    )


@pytest.mark.parametrize(
    "pool, message",
    [([], "empty pool"), ([6], r"pool index 6 outside \[0, 6\)"), ([-1], "pool index -1")],
)
def test_a_bad_pool_raises_pool_items_error(pool, message):
    def asks(session, remaining, state):
        session.query(pool, DRIVER)
        return [], state

    with pytest.raises(ValueError, match=message):
        _engine(asks).best(6, 0, None)
