import math
import random

import pytest
from hypothesis import given, strategies as st

from gtlab.core import (
    CONTAMINATED,
    DEFECTIVE,
    GOOD,
    Instance,
    PoolOracle,
    Session,
    instance_from_mask,
)
from gtlab.splitting import (
    binary_split,
    dig,
    pool_size,
    quarter_plan,
    quarter_split,
)

POOL_SIZES = [1, 2, 3, 6, 12, 24, 48, 96]


def test_pool_size_schedule():
    assert [pool_size(i) for i in range(8)] == POOL_SIZES
    with pytest.raises(ValueError):
        pool_size(-1)


def test_pool_size_doubles_from_rank_two():
    for i in range(2, 20):
        assert pool_size(i + 1) == 2 * pool_size(i)


def _session(n, defectives):
    return Session(PoolOracle(Instance(n, frozenset(defectives))))


def test_binary_split_narrows_to_single_defective():
    session = _session(8, {5})
    assert binary_split(session, list(range(8)), parent=None) is None
    assert session.defective_mask == 1 << 5
    assert session.tests == 3


def test_binary_split_singleton_spends_nothing():
    session = _session(4, {2})
    binary_split(session, [2], parent=None)
    assert session.defective_mask == 1 << 2
    assert session.tests == 0


def test_binary_split_via_test_flag():
    # Ending on a contaminated singleton query marks the defective as
    # directly tested; ending by elimination does not.
    session = _session(2, {0})
    binary_split(session, [0, 1], parent=None)
    ident = {i.item: i for i in session.transcript().identifications}
    assert ident[0].via_test is True

    session = _session(2, {1})
    binary_split(session, [0, 1], parent=None)
    ident = {i.item: i for i in session.transcript().identifications}
    assert ident[1].via_test is False
    assert ident[0].via_test is True


def test_binary_split_rejects_empty():
    with pytest.raises(ValueError):
        binary_split(_session(2, {0}), [], parent=None)


def test_dig_meets_log_budget_everywhere():
    # All window sizes up to 64, every defective position: at most
    # ceil(log2 m) tests, with equality attained at every size.
    for m in range(1, 65):
        budget = math.ceil(math.log2(m)) if m > 1 else 0
        attained = 0
        for pos in range(m):
            oracle = PoolOracle(Instance(m, frozenset({pos})))
            out = dig(oracle, list(range(m)))
            assert out.defective_found == pos
            assert out.tests_spent <= budget
            attained = max(attained, out.tests_spent)
        assert attained == budget


def test_dig_finds_the_leftmost_defective_of_every_set():
    # Every nonempty defective set over m <= 10 items: the lowest index,
    # within ceil(log2 m) tests.
    for m in range(1, 11):
        budget = (m - 1).bit_length()
        for mask in range(1, 1 << m):
            out = dig(PoolOracle(instance_from_mask(m, mask)), list(range(m)))
            assert out.defective_found == (mask & -mask).bit_length() - 1, (m, mask)
            assert out.tests_spent <= budget, (m, mask)


def test_quarter_split_singleton():
    session = _session(3, {1})
    assert quarter_split(session, [1], k=5, parent=None) is None
    assert session.defective_mask == 1 << 1
    assert session.tests == 0


@pytest.mark.parametrize("defectives,expected_tests", [({0}, 1), ({1}, 2), ({2}, 2)])
def test_quarter_split_scans_small_inputs(defectives, expected_tests):
    session = _session(3, defectives)
    quarter_split(session, [0, 1, 2], k=2, parent=None)
    assert session.defective_mask == 1 << min(defectives)
    assert session.tests == expected_tests


def test_quarter_split_last_item_inferred_without_test():
    session = _session(3, {2})
    quarter_split(session, [0, 1, 2], k=2, parent=None)
    ident = {i.item: i for i in session.transcript().identifications}
    assert ident[2].label == DEFECTIVE
    assert ident[2].via_test is False


def test_quarter_split_subset_sizes_at_rank_five():
    # Rank 5 pool of 24: subsets 8, 8, 4, 4. A defective in the third
    # subset costs two group tests plus a 4-item narrowing.
    session = _session(24, {17})
    quarter_split(session, list(range(24)), k=5, parent=None)
    assert session.defective_mask == 1 << 17
    pools = [r.pool for r in session.transcript().records]
    assert pools[0] == tuple(range(8))
    assert pools[1] == tuple(range(8, 16))
    assert pools[2] == tuple(range(16, 20))
    assert session.tests == 3 + 2


def test_quarter_split_last_subset_skips_group_test():
    # Defective in the fourth subset: three pure group tests, then straight
    # to narrowing without testing the fourth subset as a group.
    session = _session(24, {21})
    quarter_split(session, list(range(24)), k=5, parent=None)
    assert session.defective_mask == 1 << 21
    pools = [r.pool for r in session.transcript().records]
    assert len(pools[0]) == 8 and len(pools[1]) == 8 and len(pools[2]) == 4
    assert len(pools[3]) <= 2
    assert session.tests == 3 + 2


def test_quarter_split_truncated_input():
    # 13 items at rank 5: subsets 8, 5 and nothing further.
    session = _session(13, {9})
    quarter_split(session, list(range(13)), k=5, parent=None)
    assert session.defective_mask == 1 << 9
    first = session.transcript().records[0]
    assert first.pool == tuple(range(8))


def test_quarter_split_input_validation():
    with pytest.raises(ValueError):
        quarter_split(_session(2, {0}), [], k=3, parent=None)
    with pytest.raises(ValueError):
        quarter_split(_session(8, {0}), list(range(7)), k=3, parent=None)
    with pytest.raises(ValueError):
        quarter_split(_session(8, {0}), list(range(4)), k=2, parent=None)


def test_quarter_split_never_queries_untouched_tail():
    # Defective in the first subset: later subsets are never pooled.
    session = _session(24, {3})
    quarter_split(session, list(range(24)), k=5, parent=None)
    queried = set()
    for rec in session.transcript().records:
        queried.update(rec.pool)
    assert queried <= set(range(8))


@given(st.integers(1, 7), st.data())
def test_quarter_split_budget_and_correctness(k, data):
    m = data.draw(st.integers(1, pool_size(k)))
    if m >= 4 and k <= 2:
        return
    pos = data.draw(st.integers(0, m - 1))
    session = _session(m, {pos})
    quarter_split(session, list(range(m)), k=k, parent=None)
    assert session.defective_mask == 1 << pos
    # k+1 pools always suffice: at most 3 group tests plus the narrowing.
    assert session.tests <= k + 1


@given(st.integers(1, 64), st.data())
def test_binary_split_identifies_goods_consistently(m, data):
    mask = data.draw(st.integers(1, (1 << m) - 1))
    inst = instance_from_mask(m, mask)
    session = Session(PoolOracle(inst))
    binary_split(session, list(range(m)), parent=None)
    assert session.defective_mask.bit_count() == 1
    assert session.defective_mask & mask
    assert not session.good_mask & mask


def _extraction_cases():
    # Every (m, k) quarter_split accepts up to rank 6, each with its defective
    # sets: all of them for m <= 12, else every single-defective pool plus
    # seeded random sets.
    rng = random.Random(20)
    for k in range(7):
        for m in range(1, pool_size(k) + 1):
            if m >= 4 and k <= 2:
                continue
            if m <= 12:
                masks = range(1, 1 << m)
            else:
                masks = [1 << p for p in range(m)]
                masks += [rng.randrange(1, 1 << m) for _ in range(40)]
            yield m, k, masks


def test_quarter_split_resolves_exactly_its_leftmost_defective_as_planned():
    # The precondition the bitmask counter and the transcript analysis rely
    # on: the extraction depends only on the leftmost defective's offset p.
    for m, k, masks in _extraction_cases():
        plan = quarter_plan(m, k)
        assert len(plan) == m
        for mask in masks:
            p = (mask & -mask).bit_length() - 1
            session = Session(PoolOracle(instance_from_mask(m, mask)))
            quarter_split(session, list(range(m)), k, parent=None)
            assert session.good_mask == (1 << p) - 1, (m, k, mask)
            assert session.defective_mask == 1 << p, (m, k, mask)
            queries = tuple(
                (r.pool, r.raw_outcome == CONTAMINATED) for r in session.records
            )
            assert (session.tests, queries) == plan[p], (m, k, mask)


def test_quarter_plan_rejects_what_quarter_split_rejects():
    for m, k in [(0, 3), (7, 3), (4, 2), (25, 5)]:
        with pytest.raises(ValueError):
            quarter_plan(m, k)
