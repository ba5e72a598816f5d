"""Quarter-round strategy and the individual-testing baseline.

The quarter-round strategy spends a first round of four group tests on equal
quarters of the input (after clearing a short tail individually) and picks a
follow-up based on how many quarters are contaminated: one contaminated
quarter goes to the downward strategy, three or more go to the upward one,
and exactly two trigger a second, identical round over the two merged
quarters before the same dispatch. Round tests identify nothing on their own
when contaminated; only pure ones clear their items.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from gtlab.core import (
    DEFECTIVE,
    DRIVER,
    GOOD,
    PoolOracle,
    RunResult,
    Session,
)
from gtlab.zigzag import drive_zd, drive_zu


@dataclass(frozen=True)
class ZcPlan:
    """Shape of a quarter-round run: first-round split and, when the run
    reaches it, the second-round split over the two merged quarters."""

    n1: int
    nR1: int
    alpha1: Optional[int] = None
    n2: Optional[int] = None
    nR2: Optional[int] = None
    alpha2: Optional[int] = None


def _scan_tail(session: Session, tail: Sequence[int]) -> None:
    for item in tail:
        hit = session.query([item], DRIVER)
        session.identify(item, DEFECTIVE if hit else GOOD, session.tests, True)


def _round(session: Session, groups: Sequence[Sequence[int]]) -> List[int]:
    """Tests each group; returns indices of the contaminated ones. Pure
    groups are cleared, contaminated ones stay entirely unresolved."""
    contaminated = []
    for idx, group in enumerate(groups):
        hit = session.query(list(group), DRIVER)
        if hit:
            contaminated.append(idx)
        else:
            session.identify_all(group, GOOD, session.tests)
    return contaminated


def drive_zc(session: Session, items: Sequence[int]) -> ZcPlan:
    order = list(items)
    n = len(order)
    n1 = n // 4
    nR1 = n - 4 * n1
    _scan_tail(session, order[4 * n1:])
    if n1 == 0:
        return ZcPlan(n1=n1, nR1=nR1)
    quarters = [order[i * n1: (i + 1) * n1] for i in range(4)]
    round_goods = 0
    bad = _round(session, quarters)
    alpha1 = len(bad)
    round_goods += (4 - alpha1) * n1
    if alpha1 == 0:
        return ZcPlan(n1=n1, nR1=nR1, alpha1=alpha1)
    if alpha1 == 1:
        target = quarters[bad[0]]
        assert round_goods >= 3 * len(target)
        drive_zd(session, target)
        return ZcPlan(n1=n1, nR1=nR1, alpha1=alpha1)
    if alpha1 >= 3:
        merged = [item for idx in bad for item in quarters[idx]]
        drive_zu(session, merged)
        return ZcPlan(n1=n1, nR1=nR1, alpha1=alpha1)
    merged = quarters[bad[0]] + quarters[bad[1]]
    n2 = len(merged) // 4
    nR2 = len(merged) - 4 * n2
    _scan_tail(session, merged[4 * n2:])
    if n2 == 0:
        return ZcPlan(n1=n1, nR1=nR1, alpha1=alpha1, n2=n2, nR2=nR2)
    slices = [merged[i * n2: (i + 1) * n2] for i in range(4)]
    bad2 = _round(session, slices)
    alpha2 = len(bad2)
    round_goods += (4 - alpha2) * n2
    # The first merged quarter holds a defective and lies inside the slices.
    assert alpha2 > 0
    target = [item for idx in bad2 for item in slices[idx]]
    if alpha2 <= 2:
        assert round_goods >= 3 * len(target)
        drive_zd(session, target)
    else:
        drive_zu(session, target)
    return ZcPlan(n1=n1, nR1=nR1, alpha1=alpha1, n2=n2, nR2=nR2, alpha2=alpha2)


def run_zc(oracle: PoolOracle) -> RunResult:
    session = Session(oracle)
    return session.result("zc", drive_zc(session, range(oracle.n)))


def run_individual(oracle: PoolOracle) -> RunResult:
    session = Session(oracle)
    _scan_tail(session, range(oracle.n))
    return session.result("individual")
