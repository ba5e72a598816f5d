"""Pool-size schedule, binary narrowing, and four-way defective extraction.

These are the building blocks the pool strategies share. All of them work on
ordered item sequences and always test prefixes, which keeps transcripts
deterministic. quarter_plan tabulates the four-way extraction per offset of
the leftmost defective, for the bitmask counter and the transcript analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence, Tuple

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
    """What dig found: the defective and the tests spent finding it."""

    defective_found: int
    tests_spent: int


def binary_split(
    session: Session,
    items: Sequence[int],
    parent: Optional[int],
) -> None:
    """Narrows a contaminated ordered set down to one defective item.

    Repeatedly tests the first half (rounded up) of the current window: a
    contaminated half becomes the window, a pure half is identified good and
    dropped. The final single item is the defective. Items outside the final
    window that were never in a pure half stay unidentified. Spends at most
    ceil(log2 |items|) tests. Everything it learns goes into the session.
    The caller guarantees the input is contaminated; a pure input silently
    yields a wrong defective, which finalize catches.
    """

    work = list(items)
    if not work:
        raise ValueError("empty input")
    narrowed_by_query = False
    while len(work) > 1:
        half = work[: (len(work) + 1) // 2]
        if session.query(half, INCURRED, parent=parent):
            work = half
            narrowed_by_query = len(half) == 1
        else:
            session.identify_all(half, GOOD, parent)
            work = work[len(half):]
            narrowed_by_query = False
    session.identify(work[0], DEFECTIVE, parent, narrowed_by_query)


def dig(oracle: PoolOracle, items: Sequence[int]) -> SplitOutcome:
    """Standalone binary narrowing against a bare oracle. binary_split finds
    the first defective of the contaminated ordered items; its one
    identified defective and its test count are read from the session."""
    session = Session(oracle)
    binary_split(session, items, parent=None)
    return SplitOutcome(session.defective_mask.bit_length() - 1, session.tests)


def _scan_individuals(
    session: Session, items: Sequence[int], parent: Optional[int]
) -> None:
    # Size 2..3: test one by one until the first defective; if every earlier
    # item tested pure the last one is inferred defective without a test.
    for item in items[:-1]:
        if session.query([item], INCURRED, parent=parent):
            session.identify(item, DEFECTIVE, parent, True)
            return
        session.identify(item, GOOD, parent, True)
    session.identify(items[-1], DEFECTIVE, parent, False)


def quarter_run_sizes(k: int) -> Tuple[int, int, int, int]:
    """The four runs a pool of rank k >= 3 is cut into, in test order."""
    big = 1 << (k - 2)
    return big, big, big >> 1, big >> 1


def quarter_split(
    session: Session,
    items: Sequence[int],
    k: int,
    parent: Optional[int],
) -> None:
    """Extracts one defective from a contaminated set of size at most pool_size(k).

    Size 1 needs no test. Sizes 2..3 scan individually with the last item
    inferred. Larger sets are cut, in order, into four consecutive runs of
    sizes 2^(k-2), 2^(k-2), 2^(k-3), 2^(k-3) (truncated to what remains);
    the runs are group-tested in order until one is contaminated, except that
    the last nonempty run is inferred contaminated without a test when all
    earlier runs tested pure. The contaminated run is then binary-narrowed.
    Items in runs after the contaminated one, and items the narrowing skipped,
    stay unidentified. Everything it learns goes into the session.
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
        return
    if m <= 3:
        _scan_individuals(session, X, parent)
        return

    # m >= 4 > pool_size(2) here, so k >= 3 and the four runs are defined.
    start = 0
    for size in quarter_run_sizes(k):
        subset = X[start : start + size]
        start += size
        # The last nonempty run holds the defective once every earlier run
        # tested pure, so it is narrowed without a group test.
        if start >= m or session.query(subset, INCURRED, parent=parent):
            binary_split(session, subset, parent)
            return
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
