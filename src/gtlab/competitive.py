"""Quarter-round strategy and the individual-testing baseline.

The quarter-round strategy clears a short tail individually, one item per
step, until the items left are a multiple of four, then spends a first
round of four group tests on equal quarters of them, all in one step. It
picks a follow-up based on how many quarters are contaminated: one
contaminated quarter goes to the downward strategy, three or more go to the
upward one, and exactly two trigger a second, identical round (tail scan,
then four quarters) over the two merged quarters before the same dispatch.
Round tests identify nothing on their own when contaminated; only pure ones
clear their items.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from gtlab.core import (
    DEFECTIVE,
    DRIVER,
    GOOD,
    PoolOracle,
    RunResult,
    Session,
    drive,
)
from gtlab.zigzag import ZD_START, ZU_START, zd_step, zu_step


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


def individual_step(
    session: Session, remaining: List[int], state: object
) -> Tuple[List[int], object]:
    """Individual testing in one step: every remaining item, in order,
    tested on its own and identified by the answer. state is passed
    through."""
    for item in remaining:
        hit = session.query([item], DRIVER)
        session.identify(item, DEFECTIVE if hit else GOOD, session.tests, True)
    return [], state


def _quarters(session: Session, order: List[int], size: int) -> List[List[int]]:
    """Tests each of the four equal quarters, size items each, of order,
    whose length is 4 * size. Pure quarters are cleared, contaminated ones
    stay entirely unresolved. Returns the contaminated quarters in order."""
    contaminated = []
    for i in range(0, 4 * size, size):
        group = order[i: i + size]
        if session.query(group, DRIVER):
            contaminated.append(group)
        else:
            session.identify_all(group, GOOD, session.tests)
    return contaminated


# zc's state: (plan, sub). plan is the ZcPlan so far, that of an empty input
# before the first step; sub is None until a round hands the run off, then
# the (step, state) of the zd or zu run on what the rounds left.
ZC_START = (ZcPlan(n1=0, nR1=0), None)


def zc_step(
    session: Session, remaining: List[int], state: Tuple[ZcPlan, object]
) -> Tuple[List[int], Tuple[ZcPlan, object]]:
    """One step of the quarter-round strategy: while the items left are not
    a multiple of four, one item of the tail scan, the first past the last
    multiple, tested alone and counted in the round's plan; otherwise the
    first round; then, after exactly two contaminated quarters, the tail
    scan and the second round over the two merged quarters; then one step
    of the zd or zu run on the contaminated quarters of the last round.

    Returns the items still unresolved, in order, and the next state.
    """
    plan, sub = state
    if sub is not None:
        step, sub_state = sub
        remaining, sub_state = step(session, remaining, sub_state)
        return remaining, (plan, (step, sub_state))
    size, tail = divmod(len(remaining), 4)
    if tail:
        at = 4 * size
        individual_step(session, remaining[at: at + 1], None)
        if plan.alpha1 is None:
            plan = ZcPlan(n1=size, nR1=plan.nR1 + 1)
        else:
            nR2 = (plan.nR2 or 0) + 1
            plan = ZcPlan(plan.n1, plan.nR1, plan.alpha1, n2=size, nR2=nR2)
        return remaining[:at] + remaining[at + 1:], (plan, None)
    bad = _quarters(session, remaining, size)
    alpha = len(bad)
    target = [item for group in bad for item in group]
    if plan.alpha1 is None:
        plan = ZcPlan(n1=size, nR1=plan.nR1, alpha1=alpha)
        if alpha == 2:
            return target, (plan, None)
        if alpha == 1:
            assert (4 - alpha) * size >= 3 * len(target)
            return target, (plan, (zd_step, ZD_START))
        return target, (plan, (zu_step, ZU_START))
    n1, nR1, alpha1 = plan.n1, plan.nR1, plan.alpha1
    plan = ZcPlan(n1, nR1, alpha1, n2=size, nR2=plan.nR2 or 0, alpha2=alpha)
    # The first merged quarter holds a defective and lies inside the slices.
    assert alpha > 0
    if alpha <= 2:
        assert (4 - alpha1) * n1 + (4 - alpha) * size >= 3 * len(target)
        return target, (plan, (zd_step, ZD_START))
    return target, (plan, (zu_step, ZU_START))


def run_zc(oracle: PoolOracle) -> RunResult:
    session = Session(oracle)
    plan, _ = drive(zc_step, ZC_START, session, range(oracle.n))
    return session.result("zc", plan)


def run_individual(oracle: PoolOracle) -> RunResult:
    session = Session(oracle)
    drive(individual_step, None, session, range(oracle.n))
    return session.result("individual")
