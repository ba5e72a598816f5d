"""Depth-first walks of a strategy's decision tree over a list of masks.

A strategy written as a step function, step(session, remaining, state) ->
(remaining, state), makes the same queries on every defective set until an
answer differs. So instead of one recorded run per mask, walk() runs each
step once per node of the decision tree: a ListOracle keeps the masks that
agree with every answer so far, answers each query pure when one of them
misses the pool, and the masks that meet it are explored later from a
snapshot of the step's start. A leaf is a finished run. It is the run on
the mask of the items it identified as defective, provided every answer
matches that mask, which the caller checks with finalize. Each mask of the
list takes exactly one path, so the caller also checks that the leaves are
the list's masks, each once.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

from gtlab.core import Session, Step, pool_items


class ListOracle:
    """Answers queries for a list of masks at once.

    masks holds the masks that agree with every answer so far. The answers
    of the current step first replay `script`; after it, a pool is answered
    pure whenever one of the masks misses it, and the masks that meet it
    are recorded with the answer's position in `forks` when there are any.
    Otherwise the pool is answered contaminated.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.masks: Sequence[int] = []
        self.script: Sequence[bool] = ()
        self.answers: List[bool] = []
        self.forks: List[Tuple[int, List[int]]] = []

    def start(self, masks: Sequence[int], script: Sequence[bool]) -> None:
        """Starts a step that replays script, then answers for masks, which
        must already agree with every answer of the script."""
        self.masks = masks
        self.script = script
        self.answers = []
        self.forks = []

    def contaminated(self, pool: Sequence[int]) -> bool:
        # Checked on replays too, so a step cannot replay a bad pool.
        items = pool_items(pool, self.n)
        pos = len(self.answers)
        if pos < len(self.script):
            hit = self.script[pos]
        else:
            q = 0
            for item in items:
                q |= 1 << item
            masks = self.masks
            miss = [m for m in masks if not m & q]
            hit = not miss
            if miss and len(miss) < len(masks):
                self.forks.append((pos, [m for m in masks if m & q]))
                self.masks = miss
        self.answers.append(hit)
        return hit


def walk(
    step: Step, start: object, n: int, masks: Sequence[int]
) -> Iterator[Tuple[Session, object]]:
    """Yields the session and the final state of every leaf of step's
    decision tree over masks, in no particular order, each run driving
    range(n) from state start. An empty list has no leaves.

    The session is rewound once the caller resumes the walk, so a leaf's
    records, identifications and any RunResult built from them are valid
    only until then.
    """
    if not masks:
        return
    oracle = ListOracle(n)
    session = Session(oracle)
    stack = [(list(range(n)), start, session.snapshot(), (), masks)]
    while stack:
        remaining, state, snap, script, consistent = stack.pop()
        session.restore(snap)
        oracle.start(consistent, script)
        while remaining:
            after, next_state = step(session, remaining, state)
            answers = oracle.answers
            for pos, meet in oracle.forks:
                stack.append((remaining, state, snap, answers[:pos] + [True], meet))
            remaining, state = after, next_state
            if remaining:
                snap = session.snapshot()
                oracle.start(oracle.masks, ())
        yield session, state
