import pytest
from hypothesis import given, settings, strategies as st

from gtlab import bounds
from gtlab.core import (
    ADDITIONAL,
    CONTAMINATED,
    DEFECTIVE,
    DRIVER,
    GOOD,
    PURE,
    Instance,
    PoolOracle,
    Session,
    finalize,
    instance_from_mask,
)
from gtlab.zigzag import initial_rank, resolve_pair, resolve_triple, run_zd, run_zu


def _run(runner, n, defectives):
    inst = Instance(n, frozenset(defectives))
    result = runner(PoolOracle(inst))
    verdict = finalize(result, inst)
    assert verdict.ok, verdict.problems
    return result


@pytest.mark.parametrize(
    "n,rank", [(1, 1), (2, 2), (3, 2), (4, 3), (5, 3), (8, 4), (16, 5), (100, 8)]
)
def test_initial_rank(n, rank):
    assert initial_rank(n) == rank


def test_zd_one_test_when_nothing_is_defective():
    result = _run(run_zd, 5, set())
    assert result.tests_used == 1
    rec = result.transcript.records[0]
    assert rec.pool == (0, 1, 2, 3, 4)
    assert rec.rank == initial_rank(5)


def test_zd_two_items_single_defective():
    result = _run(run_zd, 2, {0})
    assert result.tests_used == 3
    kinds = [(r.kind, r.pool, r.raw_outcome) for r in result.transcript.records]
    assert kinds == [
        (DRIVER, (0, 1), CONTAMINATED),
        ("incurred", (0,), CONTAMINATED),
        (DRIVER, (1,), PURE),
    ]


def test_zd_rank_moves_down_after_hit_and_up_after_pure():
    result = _run(run_zd, 100, {99})
    ranks = [r.rank for r in result.transcript.records if r.kind == DRIVER]
    assert ranks == sorted(ranks)
    assert ranks[0] == initial_rank(100)
    assert result.tests_used == 7


@pytest.mark.parametrize(
    "n,defectives,tests",
    [(1, set(), 1), (6, {1, 4}, 7), (10, {0, 9}, 8), (100, {99}, 7)],
)
def test_zd_pinned_totals(n, defectives, tests):
    assert _run(run_zd, n, defectives).tests_used == tests


@pytest.mark.parametrize(
    "n,defectives,tests",
    [(1, set(), 1), (5, set(), 3), (6, {1, 4}, 8), (10, {0, 9}, 7), (100, {99}, 11)],
)
def test_zu_pinned_totals(n, defectives, tests):
    assert _run(run_zu, n, defectives).tests_used == tests


def test_zu_additional_test_closes_a_clean_run():
    # Six straight pure drivers cover 48 items; with more than the next pool
    # left, one extra test on everything remaining finishes the run.
    result = _run(run_zu, 100, set())
    assert result.tests_used == 7
    last = result.transcript.records[-1]
    assert last.kind == ADDITIONAL
    assert last.rank is None
    assert len(last.pool) == 52


def test_zu_contaminated_additional_is_only_recorded():
    result = _run(run_zu, 100, {99})
    records = result.transcript.records
    assert records[6].kind == ADDITIONAL
    assert records[6].raw_outcome == CONTAMINATED
    # the very next test is the regular rank-6 driver
    assert records[7].kind == DRIVER
    assert records[7].rank == 6
    assert len(records[7].pool) == 48


def test_zu_no_additional_when_next_pool_covers_remainder():
    result = _run(run_zu, 75, {74})
    assert all(r.kind != ADDITIONAL for r in result.transcript.records)


def test_mixed_pair_flips_driver_status_and_forces_triple():
    result = _run(run_zu, 6, {1, 4})
    records = result.transcript.records
    # pair driver: raw contaminated, relabeled pure after the mixed outcome
    assert records[1].rank == 1
    assert records[1].raw_outcome == CONTAMINATED
    assert records[1].status == PURE
    # both pair members tested individually
    assert records[2].pool == (1,) and records[3].pool == (2,)
    # next driver is the rank-2 triple, resolved item by item
    assert records[4].rank == 2
    assert len(records[4].pool) == 3
    tail = records[5:]
    assert [len(r.pool) for r in tail] == [1, 1, 1]


def test_resolve_pair_outcomes():
    session = Session(PoolOracle(Instance(2, frozenset({0}))))
    seq_hit = session.query([0, 1], DRIVER, rank=1)
    assert seq_hit
    assert resolve_pair(session, [0, 1], session.tests) == "mixed"
    assert session.classified() == {0: DEFECTIVE, 1: GOOD}

    session = Session(PoolOracle(Instance(2, frozenset({0, 1}))))
    session.query([0, 1], DRIVER, rank=1)
    assert resolve_pair(session, [0, 1], session.tests) == "both"
    assert session.classified() == {0: DEFECTIVE, 1: DEFECTIVE}


def test_resolve_pair_singleton_needs_no_test():
    session = Session(PoolOracle(Instance(3, frozenset({2}))))
    session.query([2], DRIVER, rank=1)
    before = session.tests
    assert resolve_pair(session, [2], session.tests) == "both"
    assert session.tests == before
    assert session.classified() == {2: DEFECTIVE}


def test_resolve_triple_tests_every_item():
    session = Session(PoolOracle(Instance(3, frozenset({0, 2}))))
    session.query([0, 1, 2], DRIVER, rank=2)
    seq = session.tests
    resolve_triple(session, [0, 1, 2], seq)
    assert session.tests == seq + 3
    assert session.classified() == {0: DEFECTIVE, 1: GOOD, 2: DEFECTIVE}


def test_exhaustive_small_instances_classify_correctly():
    for n in range(1, 11):
        for mask in range(1 << n):
            inst = instance_from_mask(n, mask)
            for runner in (run_zd, run_zu):
                result = runner(PoolOracle(inst))
                verdict = finalize(result, inst)
                assert verdict.ok, (runner.__name__, n, mask, verdict.problems)


def test_zu_worst_case_stays_under_seven_fifths_n():
    for n in range(1, 13):
        worst = max(
            run_zu(PoolOracle(instance_from_mask(n, mask))).tests_used
            for mask in range(1 << n)
        )
        assert worst <= bounds.zu_upper_n(n).value + 1e-9, (n, worst)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 200), st.data())
def test_random_instances_finalize(n, data):
    mask = data.draw(st.integers(0, (1 << n) - 1))
    inst = instance_from_mask(n, mask)
    for runner in (run_zd, run_zu):
        result = runner(PoolOracle(inst))
        assert finalize(result, inst).ok


def test_driver_pools_are_prefixes_of_the_unresolved_order():
    result = _run(run_zd, 24, {7, 19})
    resolved = set()
    order = list(range(24))
    for rec in result.transcript.records:
        if rec.kind != DRIVER:
            resolved.update(
                i.item
                for i in result.transcript.identifications
                if i.attributed_to == rec.seq
            )
            continue
        pending = [x for x in order if x not in resolved]
        assert list(rec.pool) == pending[: len(rec.pool)]
        resolved.update(
            i.item
            for i in result.transcript.identifications
            if i.attributed_to == rec.seq
        )
