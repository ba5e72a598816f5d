import pytest
from hypothesis import given, strategies as st

from gtlab.core import (
    CONTAMINATED,
    DEFECTIVE,
    DRIVER,
    GOOD,
    INCURRED,
    PURE,
    Instance,
    PoolOracle,
    RunResult,
    Session,
    finalize,
    instance_from_mask,
)


def test_instance_basics():
    inst = Instance(5, frozenset({1, 3}))
    assert inst.d == 2
    assert inst.mask == 0b01010
    assert instance_from_mask(5, 0b01010) == inst


def test_instance_rejects_out_of_range():
    with pytest.raises(ValueError):
        Instance(3, frozenset({3}))
    with pytest.raises(ValueError):
        Instance(-1, frozenset())


def test_oracle_intersection_and_count():
    oracle = PoolOracle(Instance(6, frozenset({2, 5})))
    assert oracle.contaminated([2]) is True
    assert oracle.contaminated([0, 1, 3]) is False
    assert oracle.contaminated([4, 5]) is True
    assert oracle.query_count == 3


def test_oracle_rejects_bad_pools():
    oracle = PoolOracle(Instance(4, frozenset({0})))
    with pytest.raises(ValueError, match="^empty pool$"):
        oracle.contaminated([])
    with pytest.raises(ValueError, match="^empty pool$"):
        oracle.contaminated(iter(()))
    with pytest.raises(ValueError):
        oracle.contaminated([4])


@pytest.mark.parametrize(
    "pool, offender",
    [
        ([-1], -1),
        ([0, 2, -3], -3),
        ([4], 4),
        ([1, 4, 2], 4),
        ([3, 0, 9, 5], 9),
        # The first offender in pool order is named.
        ([1, 7, -2], 7),
        ([1, -2, 7], -2),
    ],
)
def test_oracle_names_the_out_of_range_item(pool, offender):
    oracle = PoolOracle(Instance(4, frozenset({0})))
    with pytest.raises(ValueError) as info:
        oracle.contaminated(pool)
    assert str(info.value) == "pool index %r outside [0, 4)" % offender


def test_rejected_queries_are_not_counted():
    oracle = PoolOracle(Instance(4, frozenset({2})))
    assert oracle.contaminated([2, 3]) is True
    for bad in ([], [-1], [4], [0, 1, 4]):
        with pytest.raises(ValueError):
            oracle.contaminated(bad)
    assert oracle.query_count == 1
    assert oracle.contaminated([0, 1]) is False
    assert oracle.query_count == 2


def test_session_records_in_sequence():
    session = Session(PoolOracle(Instance(4, frozenset({1}))))
    assert session.query([0], DRIVER, rank=0) is False
    assert session.query([1, 2], DRIVER, rank=1) is True
    session.query([1], INCURRED, parent=2)
    recs = session.transcript().records
    assert [r.seq for r in recs] == [1, 2, 3]
    assert recs[0].raw_outcome == PURE
    assert recs[1].raw_outcome == CONTAMINATED
    assert recs[1].rank == 1
    assert recs[2].parent == 2
    assert session.tests == 3


def test_mark_status_keeps_raw_outcome():
    session = Session(PoolOracle(Instance(2, frozenset({0}))))
    session.query([0, 1], DRIVER, rank=1)
    session.mark_status(1, PURE)
    rec = session.transcript().records[0]
    assert rec.raw_outcome == CONTAMINATED
    assert rec.status == PURE


def test_double_identification_is_an_error():
    session = Session(PoolOracle(Instance(3, frozenset({0}))))
    session.identify(1, GOOD, None, True)
    with pytest.raises(AssertionError):
        session.identify(1, DEFECTIVE, None, True)


def test_unrecorded_session_tracks_masks_only():
    session = Session(PoolOracle(Instance(4, frozenset({2}))), record=False)
    session.query([0, 1], DRIVER)
    session.identify_all([0, 1], GOOD, 1)
    session.identify(2, DEFECTIVE, None, True)
    assert session.good_mask == 0b0011
    assert session.defective_mask == 0b0100
    assert session.tests == 1
    assert session.transcript().records == []
    assert session.classified() == {}
    assert session.unresolved(range(4)) == [3]


def _honest_run(instance: Instance) -> RunResult:
    session = Session(PoolOracle(instance))
    for item in range(instance.n):
        hit = session.query([item], DRIVER)
        session.identify(item, DEFECTIVE if hit else GOOD, session.tests, True)
    return RunResult("individual", session.tests, session.transcript(), session.classified())


def test_finalize_accepts_honest_run():
    inst = Instance(5, frozenset({0, 4}))
    verdict = finalize(_honest_run(inst), inst)
    assert verdict.ok, verdict.problems


def test_finalize_flags_wrong_label():
    inst = Instance(3, frozenset({1}))
    run = _honest_run(Instance(3, frozenset({2})))
    verdict = finalize(run, inst)
    assert not verdict.ok
    assert verdict.problems


def test_finalize_flags_missing_item():
    inst = Instance(3, frozenset({1}))
    session = Session(PoolOracle(inst))
    session.query([1], DRIVER)
    session.identify(1, DEFECTIVE, 1, True)
    run = RunResult("partial", session.tests, session.transcript(), session.classified())
    verdict = finalize(run, inst)
    assert not verdict.ok


def test_finalize_flags_an_outcome_that_contradicts_ground_truth():
    inst = Instance(4, frozenset({3}))
    run = _honest_run(inst)
    assert finalize(run, inst).ok
    # Record 2 tested item 1, which is good; claim it came back contaminated.
    run.transcript.records[1].raw_outcome = CONTAMINATED
    verdict = finalize(run, inst)
    assert verdict.problems == ["record 2 outcome does not match ground truth"]
    # And a contaminated answer turned pure on the defective item.
    run = _honest_run(inst)
    run.transcript.records[3].raw_outcome = PURE
    assert finalize(run, inst).problems == [
        "record 4 outcome does not match ground truth"
    ]


def test_finalize_flags_test_count_mismatch():
    inst = Instance(2, frozenset())
    run = _honest_run(inst)
    forged = RunResult(run.algorithm, run.tests_used + 1, run.transcript, run.classified)
    assert not finalize(forged, inst).ok


@given(st.integers(0, 10), st.data())
def test_oracle_matches_set_intersection(n, data):
    mask = data.draw(st.integers(0, (1 << n) - 1 if n else 0))
    inst = instance_from_mask(n, mask)
    oracle = PoolOracle(inst)
    if n == 0:
        return
    pool = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    assert oracle.contaminated(pool) == bool(set(pool) & inst.defectives)
