import pytest
from hypothesis import given, strategies as st

from gtlab.core import (
    ADDITIONAL,
    CONTAMINATED,
    DEFECTIVE,
    DRIVER,
    GOOD,
    INCURRED,
    PURE,
    Identification,
    Instance,
    PoolOracle,
    RunResult,
    Session,
    TestRecord,
    Transcript,
    finalize,
    instance_from_mask,
)
from gtlab.zigzag import run_zu


def test_instance_basics():
    inst = Instance(5, frozenset({1, 3}))
    assert inst.d == 2
    assert inst.mask == 0b01010
    assert instance_from_mask(5, 0b01010) == inst


@pytest.mark.parametrize(
    "n, mask, shown",
    [(3, 0b1000, "0x8"), (3, 0b1111, "0xf"), (0, 1, "0x1"), (3, -1, "-0x1"), (5, -6, "-0x6")],
)
def test_instance_from_mask_rejects_bits_outside_the_items(n, mask, shown):
    with pytest.raises(ValueError) as info:
        instance_from_mask(n, mask)
    assert str(info.value) == "defective mask %s outside %d items" % (shown, n)


def test_instance_from_mask_decodes_every_mask():
    for n in range(7):
        for mask in range(1 << n):
            inst = instance_from_mask(n, mask)
            assert inst.n == n
            assert inst.defectives == {i for i in range(n) if mask >> i & 1}
            assert inst.mask == mask


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


def test_identify_all_names_an_item_repeated_within_the_batch():
    session = Session(PoolOracle(Instance(5, frozenset({3}))))
    with pytest.raises(AssertionError, match="^item 1 identified twice$"):
        session.identify_all([0, 1, 2, 1, 4], GOOD, 1)
    # The items before the repeat stay identified, as one by one.
    assert session.good_mask == 0b00111
    assert session.defective_mask == 0
    expected = [Identification(i, GOOD, 1, True) for i in (0, 1, 2)]
    assert session.identifications == expected


def test_identify_all_names_an_item_an_earlier_call_identified():
    session = Session(PoolOracle(Instance(5, frozenset({2}))))
    session.identify(2, DEFECTIVE, None, True)
    with pytest.raises(AssertionError, match="^item 2 identified twice$"):
        session.identify_all([0, 1, 2, 3], GOOD, 4)
    assert session.good_mask == 0b00011
    assert session.defective_mask == 0b00100
    expected = [Identification(2, DEFECTIVE, None, True)] + [
        Identification(i, GOOD, 4, True) for i in (0, 1)
    ]
    assert session.identifications == expected


def test_identify_all_matches_identify_item_by_item():
    inst = Instance(6, frozenset({5}))
    batch, single = Session(PoolOracle(inst)), Session(PoolOracle(inst))
    batch.identify_all([4, 0, 2], GOOD, 3)
    batch.identify_all([5], DEFECTIVE, None)
    batch.identify_all([], GOOD, 1)
    for item in (4, 0, 2):
        single.identify(item, GOOD, 3, True)
    single.identify(5, DEFECTIVE, None, True)
    assert batch.identifications == single.identifications
    assert (batch.good_mask, batch.defective_mask) == (single.good_mask, single.defective_mask)
    assert batch.unresolved(range(6)) == [1, 3]


def test_session_restore_drops_what_came_after_the_snapshot():
    session = Session(PoolOracle(Instance(6, frozenset({4}))))
    session.query([0, 1], DRIVER, rank=1)
    session.identify_all([0, 1], GOOD, 1)
    snap = session.snapshot()
    kept = (list(session.records), list(session.identifications))
    session.query([2, 3, 4], DRIVER, rank=2)
    session.query([4], INCURRED, parent=2)
    session.identify(4, DEFECTIVE, 2, True)
    session.identify(2, GOOD, 2, True)
    session.restore(snap)
    assert (session.records, session.identifications) == kept
    assert (session.tests, session.good_mask, session.defective_mask) == (1, 0b11, 0)
    # The session goes on from the snapshot as if nothing had followed it.
    session.query([2], DRIVER, rank=0)
    assert [r.seq for r in session.records] == [1, 2]


def _honest_run(instance: Instance) -> RunResult:
    session = Session(PoolOracle(instance))
    for item in range(instance.n):
        hit = session.query([item], DRIVER)
        session.identify(item, DEFECTIVE if hit else GOOD, session.tests, True)
    return RunResult("individual", session.transcript())


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
    run = RunResult("partial", session.transcript())
    verdict = finalize(run, inst)
    assert not verdict.ok


def test_finalize_flags_an_item_outside_the_instance():
    inst = Instance(6, frozenset({2}))
    run = run_zu(PoolOracle(inst))
    assert finalize(run, inst).ok
    idents = run.transcript.identifications
    honest = list(idents)
    far = Identification(40, GOOD, None, False)
    negative = Identification(-3, GOOD, None, False)
    idents += [far, negative]
    assert finalize(run, inst).problems == ["item 40 outside [0, 6)"]
    # An item missing as well: both are named, the missing one first.
    idents[:] = [i for i in honest if i.item != 0] + [negative]
    assert finalize(run, inst).problems == [
        "item 0 never identified",
        "item -3 outside [0, 6)",
    ]


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


@given(st.integers(0, 10), st.data())
def test_oracle_matches_set_intersection(n, data):
    mask = data.draw(st.integers(0, (1 << n) - 1 if n else 0))
    inst = instance_from_mask(n, mask)
    oracle = PoolOracle(inst)
    if n == 0:
        return
    pool = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    assert oracle.contaminated(pool) == bool(set(pool) & inst.defectives)


def _record(seq, pool, hit, kind, rank=None, parent=None):
    outcome = CONTAMINATED if hit else PURE
    return TestRecord(
        seq=seq, pool=tuple(pool), raw_outcome=outcome, kind=kind,
        rank=rank, parent=parent, status=outcome,
    )


def _forged(records, identifications) -> RunResult:
    transcript = Transcript(list(records), [Identification(*i) for i in identifications])
    return RunResult("forged", transcript)


def _labels(instance, order=None):
    items = range(instance.n) if order is None else order
    return [
        (i, DEFECTIVE if i in instance.defectives else GOOD, None, False) for i in items
    ]


_INST = Instance(4, frozenset({2}))


@pytest.mark.parametrize(
    "run, problems",
    [
        (_forged([], _labels(_INST)), []),
        (
            _forged([], _labels(_INST, [0, 1, 2, 3, 1, 0])),
            ["item 1 identified twice", "item 0 identified twice"],
        ),
        # Only the first missing item is named.
        (_forged([], _labels(_INST, [0, 3])), ["item 1 never identified"]),
        # Only the first wrong label, in first-identification order, is named.
        (
            _forged([], [(3, DEFECTIVE, None, False), (0, GOOD, None, False),
                         (2, GOOD, None, False), (1, GOOD, None, False)]),
            ["item 3 classified defective, truth good"],
        ),
        # A relabel is judged by the transcript's last label for the item.
        (
            _forged([], _labels(_INST) + [(2, GOOD, None, False)]),
            ["item 2 identified twice", "item 2 classified good, truth defective"],
        ),
        # Records of every kind, each true to ground truth and well parented.
        (
            _forged([_record(1, [0, 1], False, DRIVER, rank=0),
                     _record(2, [2, 3], True, DRIVER, rank=1),
                     _record(3, [2], True, INCURRED, parent=2),
                     _record(4, [0, 1, 2, 3], True, ADDITIONAL)], _labels(_INST)),
            [],
        ),
        # A seq break stops the record walk: record 3's wrong outcome is not named.
        (
            _forged([_record(1, [0], False, DRIVER), _record(5, [1], False, DRIVER),
                     _record(3, [2], False, DRIVER)], _labels(_INST)),
            ["record 2 has seq 5"],
        ),
        # A ranked additional record is named each time, and the walk goes on.
        (
            _forged([_record(1, [0, 1, 3], False, ADDITIONAL, rank=2),
                     _record(2, [2], True, DRIVER, rank=0),
                     _record(3, [0, 1, 2, 3], True, ADDITIONAL, rank=0),
                     _record(4, [1], True, DRIVER)], _labels(_INST)),
            ["additional record 1 carries a rank", "additional record 3 carries a rank",
             "record 4 outcome does not match ground truth"],
        ),
        (
            _forged([_record(1, [2, 3], True, DRIVER, rank=1),
                     _record(2, [2], True, INCURRED, parent=1),
                     _record(3, [3], False, INCURRED, parent=2),
                     _record(4, [0], True, DRIVER)], _labels(_INST)),
            ["incurred record 3 parented by a non-driver"],
        ),
        (
            _forged([_record(1, [0, 1, 2, 3], True, ADDITIONAL),
                     _record(2, [2], True, INCURRED, parent=1)], _labels(_INST)),
            ["incurred record 2 parented by a non-driver"],
        ),
        (
            _forged([_record(1, [0], False, DRIVER),
                     _record(2, [2], True, INCURRED, parent=0)], _labels(_INST)),
            ["incurred record 2 parented by a non-driver"],
        ),
        (
            _forged([_record(1, [0], False, DRIVER),
                     _record(2, [2], True, INCURRED, parent=-1)], _labels(_INST)),
            ["incurred record 2 parented by a non-driver"],
        ),
        (
            _forged([_record(1, [0], False, DRIVER),
                     _record(2, [2], True, INCURRED),
                     _record(3, [1], True, DRIVER)], _labels(_INST)),
            ["incurred record 2 lacks an earlier parent"],
        ),
        (
            _forged([_record(1, [0], False, DRIVER),
                     _record(2, [2], True, INCURRED, parent=2)], _labels(_INST)),
            ["incurred record 2 lacks an earlier parent"],
        ),
        (
            _forged([_record(1, [0], False, DRIVER),
                     _record(2, [2], True, INCURRED, parent=3)], _labels(_INST)),
            ["incurred record 2 lacks an earlier parent"],
        ),
        # An item outside the instance is named once, not judged as a label.
        (
            _forged([], _labels(_INST) + [(9, DEFECTIVE, None, False)]),
            ["item 9 outside [0, 4)"],
        ),
    ],
)
def test_finalize_names_each_problem(run, problems):
    verdict = finalize(run, _INST)
    assert verdict.problems == problems
    assert verdict.ok == (not problems)


def test_finalize_lists_every_problem_in_check_order():
    # Item 0 is labelled good, then defective: the label check reads its
    # last label but keeps its first position.
    run = _forged(
        [_record(1, [0, 1], False, DRIVER, rank=1),
         _record(2, [3], False, ADDITIONAL, rank=0),
         _record(3, [2], False, DRIVER, rank=0),
         _record(4, [0, 1, 2, 3], True, ADDITIONAL, rank=3)],
        [(0, GOOD, 1, True), (3, GOOD, 2, True), (0, DEFECTIVE, 1, True),
         (3, DEFECTIVE, 2, True), (2, GOOD, 3, True)],
    )
    assert finalize(run, _INST).problems == [
        "item 0 identified twice",
        "item 3 identified twice",
        "item 1 never identified",
        "item 0 classified defective, truth good",
        "additional record 2 carries a rank",
        "record 3 outcome does not match ground truth",
    ]
