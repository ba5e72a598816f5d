"""Pool-size schedule, binary narrowing, and four-way defective extraction.

These are the building blocks the pool strategies share. All of them work on
ordered item sequences and always test prefixes, which keeps transcripts
deterministic. quarter_plan tabulates the four-way extraction per offset of
the leftmost defective, for the bitmask counter and the transcript analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, NamedTuple, Optional, Sequence, Tuple

from gtlab.core import (
    CONTAMINATED,
    DEFECTIVE,
    GOOD,
    INCURRED,
    Instance,
    PoolOracle,
    Session,
)


def pool_size(i: int) -> int:
    """Pool size at rank i: 1, 2, 3, 6, 12, 24, ... (3*2^(i-2) rounded up)."""
    if i < 0:
        raise ValueError("rank must be nonnegative")
    if i == 0:
        return 1
    if i == 1:
        return 2
    return 3 * (1 << (i - 2))


@dataclass
class SplitOutcome:
    defective_found: Optional[int]
    goods_identified: List[int]
    tests_spent: int


def binary_split(
    session: Session,
    items: Sequence[int],
    parent: Optional[int],
) -> SplitOutcome:
    """Narrows a contaminated ordered set down to one defective item.

    Repeatedly tests the first half (rounded up) of the current window: a
    contaminated half becomes the window, a pure half is identified good and
    dropped. The final single item is the defective. Items outside the final
    window that were never in a pure half stay unidentified. Spends at most
    ceil(log2 |items|) tests. The caller guarantees the input is contaminated;
    a pure input silently yields a wrong defective, which finalize catches.
    """

    work = list(items)
    if not work:
        raise ValueError("empty input")
    goods: List[int] = []
    spent = 0
    narrowed_by_query = False
    while len(work) > 1:
        half = work[: (len(work) + 1) // 2]
        hit = session.query(half, INCURRED, parent=parent)
        spent += 1
        if hit:
            work = half
            narrowed_by_query = len(half) == 1
        else:
            goods.extend(half)
            session.identify_all(half, GOOD, parent)
            work = work[len(half):]
            narrowed_by_query = False
    found = work[0]
    session.identify(found, DEFECTIVE, parent, narrowed_by_query)
    return SplitOutcome(found, goods, spent)


def dig(oracle: PoolOracle, items: Sequence[int]) -> SplitOutcome:
    """Standalone binary narrowing against a bare oracle (counts only)."""
    session = Session(oracle, record=False)
    return binary_split(session, items, parent=None)


def _scan_individuals(
    session: Session, items: Sequence[int], parent: Optional[int]
) -> SplitOutcome:
    # Size 2..3: test one by one until the first defective; if every earlier
    # item tested pure the last one is inferred defective without a test.
    goods: List[int] = []
    spent = 0
    last = len(items) - 1
    for pos, item in enumerate(items):
        if pos == last:
            session.identify(item, DEFECTIVE, parent, False)
            return SplitOutcome(item, goods, spent)
        hit = session.query([item], INCURRED, parent=parent)
        spent += 1
        if hit:
            session.identify(item, DEFECTIVE, parent, True)
            return SplitOutcome(item, goods, spent)
        goods.append(item)
        session.identify(item, GOOD, parent, True)
    raise AssertionError("unreachable")


def quarter_run_sizes(k: int) -> Tuple[int, int, int, int]:
    """The four runs a pool of rank k >= 3 is cut into, in test order."""
    big = 1 << (k - 2)
    return big, big, big >> 1, big >> 1


def quarter_split(
    session: Session,
    items: Sequence[int],
    k: int,
    parent: Optional[int],
) -> SplitOutcome:
    """Extracts one defective from a contaminated set of size at most pool_size(k).

    Size 1 needs no test. Sizes 2..3 scan individually with the last item
    inferred. Larger sets are cut, in order, into four consecutive runs of
    sizes 2^(k-2), 2^(k-2), 2^(k-3), 2^(k-3) (truncated to what remains);
    the runs are group-tested in order until one is contaminated, except that
    the last nonempty run is inferred contaminated without a test when all
    earlier runs tested pure. The contaminated run is then binary-narrowed.
    Items in runs after the contaminated one, and items the narrowing skipped,
    stay unidentified.
    """

    X = list(items)
    m = len(X)
    if m == 0:
        raise ValueError("empty input")
    limit = pool_size(k)
    if m > limit:
        raise ValueError("input of size %d exceeds pool_size(%d)=%d" % (m, k, limit))
    if m == 1:
        session.identify(X[0], DEFECTIVE, parent, True)
        return SplitOutcome(X[0], [], 0)
    if m <= 3:
        return _scan_individuals(session, X, parent)
    if k <= 2:
        raise ValueError("size %d needs k >= 3, got k=%d" % (m, k))

    goods: List[int] = []
    spent = 0
    start = 0
    for size in quarter_run_sizes(k):
        subset = X[start : start + size]
        start += size
        if start >= m:
            # The last nonempty run: every earlier run tested pure, so this
            # one must hold the defective; no group test needed.
            hit = True
        else:
            hit = session.query(subset, INCURRED, parent=parent)
            spent += 1
        if hit:
            inner = binary_split(session, subset, parent)
            return SplitOutcome(
                inner.defective_found, goods + inner.goods_identified, spent + inner.tests_spent
            )
        goods.extend(subset)
        session.identify_all(subset, GOOD, parent)
    raise AssertionError("unreachable")


class Extraction(NamedTuple):
    """quarter_split on a pool whose leftmost defective sits at one offset:
    the tests it spends and its queries, each as (pool offsets, hit)."""

    tests: int
    queries: Tuple[Tuple[Tuple[int, ...], bool], ...]


@lru_cache(maxsize=None)
def quarter_plan(m: int, k: int) -> Tuple[Extraction, ...]:
    """The extraction of an m-item pool at rank k, for each offset p of its
    leftmost defective.

    quarter_split depends only on p: every pool it queries either holds p
    or lies wholly before it, so it resolves exactly offsets 0..p (those
    before p good, p defective) and leaves the rest unresolved. Running it
    once on a pool whose only defective is p therefore gives the extraction
    of every pool with that leftmost defective.
    """
    if m < 1:
        raise ValueError("empty input")
    plan = []
    for p in range(m):
        session = Session(PoolOracle(Instance(m, frozenset({p}))))
        quarter_split(session, range(m), k, None)
        plan.append(
            Extraction(
                session.tests,
                tuple((r.pool, r.raw_outcome == CONTAMINATED) for r in session.records),
            )
        )
    return tuple(plan)
