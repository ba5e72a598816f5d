"""The two rank-scheduled pool strategies.

Both walk an ordered remaining sequence, always testing the first
min(pool_size(k), remaining) items. The downward variant starts with k large
enough to cover everything and extracts a defective whenever a pool is
contaminated. The upward variant starts at k=0, grows the pool on pure
results, and resolves contaminated pools with the pair/triple individual
scans, the four-way extraction, or (after six pure results in a row) a single
whole-remaining-set test.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from gtlab.core import (
    ADDITIONAL,
    DEFECTIVE,
    DRIVER,
    GOOD,
    INCURRED,
    PURE,
    PoolOracle,
    RunResult,
    Session,
    drive,
)
from gtlab.splitting import pool_size, quarter_split


def initial_rank(n: int) -> int:
    """Smallest k with 3*2^k >= 4n, so pool_size(k) >= n."""
    if n < 1:
        raise ValueError("need at least one item")
    k = 0
    while 3 * (1 << k) < 4 * n:
        k += 1
    return k


# zd's state before its first step: no rank yet. The first step sets the
# rank from the number of items it is given.
ZD_START = None


def zd_step(
    session: Session, remaining: List[int], k: Optional[int]
) -> Tuple[List[int], int]:
    """One step of the downward strategy: one driver test at rank k, and
    the four-way extraction when it is contaminated.

    Returns the items still unresolved, in order, and the next rank.
    """
    if k is None:
        k = initial_rank(len(remaining))
    pool = remaining[: pool_size(k)]
    hit = session.query(pool, DRIVER, rank=k)
    seq = session.tests
    if not hit:
        session.identify_all(pool, GOOD, seq)
        return remaining[len(pool):], k + 1
    quarter_split(session, pool, k, seq)
    # Only the tested pool can have been resolved.
    return session.unresolved(pool) + remaining[len(pool):], max(k - 1, 0)


def resolve_pair(session: Session, pair: Sequence[int], driver_seq: int) -> str:
    """Individually resolves a rank-1 pool that group-tested contaminated.

    Both items are tested (2 tests) and identified. Returns "mixed" when one
    is good and one defective, "both" when both are defective.
    """
    items = list(pair)
    if len(items) != 2:
        raise ValueError("pair resolution takes exactly 2 items")
    hits = []
    for item in items:
        hit = session.query([item], INCURRED, parent=driver_seq)
        hits.append(hit)
        session.identify(item, DEFECTIVE if hit else GOOD, driver_seq, True)
    return "both" if all(hits) else "mixed"


def resolve_triple(session: Session, items: Sequence[int], driver_seq: int) -> None:
    """Individually resolves a rank-2 pool flagged by an earlier mixed pair.

    Every item is tested, with no early stop, so the pool is fully identified.
    """
    pool = list(items)
    if len(pool) > 3:
        raise ValueError("triple resolution takes at most 3 items")
    for item in pool:
        hit = session.query([item], INCURRED, parent=driver_seq)
        session.identify(item, DEFECTIVE if hit else GOOD, driver_seq, True)


# zu's state before its first step: rank k, pure_streak, mixed_pair_flag.
ZU_START = (0, 0, False)


def zu_step(
    session: Session, remaining: List[int], state: Tuple[int, int, bool]
) -> Tuple[List[int], Tuple[int, int, bool]]:
    """One step of the upward strategy: the additional test when it is due,
    one driver test, and the driver's resolution when it is contaminated.

    state is (k, pure_streak, mixed_pair_flag): k is the current rank,
    pure_streak counts pure-status driver tests since the last
    contaminated-status one, and mixed_pair_flag remembers a mixed pair
    until the streak resets. After six straight pure results, if more items
    remain than the next pool would cover, one additional test on the entire
    remaining set either finishes the run (pure) or is simply recorded
    (contaminated) before the normal pool test proceeds.

    Any contaminated driver clears mixed_pair_flag, so a rank-2 pool that
    tests contaminated after an intervening contaminated test (a rank-3 one
    that steps k back to 2, say) is scanned by quarter_split, not resolved by
    resolve_triple. When that scan hits its first item, the analysis pairs
    the 2-test scan with the earlier 3-test mixed pair as one tuple: 5 tests
    on 2 defectives over 3 items, over the tuple-bound budget. This is the
    known tuple-bound red the README describes.

    remaining is never changed. Returns the items still unresolved, in
    order, and the next state.
    """
    k, pure_streak, mixed_pair_flag = state
    if pure_streak == 6 and len(remaining) > pool_size(k):
        hit = session.query(remaining, ADDITIONAL)
        if not hit:
            session.identify_all(remaining, GOOD, session.tests)
            return [], state
    pool = remaining[: pool_size(k)]
    hit = session.query(pool, DRIVER, rank=k)
    seq = session.tests
    if not hit:
        session.identify_all(pool, GOOD, seq)
        return remaining[len(pool):], (k + 1, pure_streak + 1, mixed_pair_flag)
    if len(pool) == 1:
        session.identify(pool[0], DEFECTIVE, seq, True)
        state = (max(k - 1, 0), 0, False)
    elif k == 1:
        if resolve_pair(session, pool, seq) == "mixed":
            session.mark_status(seq, PURE)
            state = (2, pure_streak + 1, True)
        else:
            state = (0, 0, False)
    elif mixed_pair_flag and k == 2:
        resolve_triple(session, pool, seq)
        state = (1, 0, False)
    else:
        quarter_split(session, pool, k, seq)
        state = (k - 1, 0, False)
    # Only the tested pool can have been resolved.
    return session.unresolved(pool) + remaining[len(pool):], state


def run_zd(oracle: PoolOracle) -> RunResult:
    session = Session(oracle)
    drive(zd_step, ZD_START, session, range(oracle.n))
    return session.result("zd")


def run_zu(oracle: PoolOracle) -> RunResult:
    session = Session(oracle)
    drive(zu_step, ZU_START, session, range(oracle.n))
    return session.result("zu")
