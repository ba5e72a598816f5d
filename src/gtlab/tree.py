"""Depth-first walks of a strategy's decision tree over a list of masks.

A strategy written as a step function, step(session, remaining, state) ->
(remaining, state), makes the same queries on every defective set until an
answer differs. So instead of one recorded run per mask, walk() runs each
step once per node of the decision tree: a ListOracle keeps the masks that
agree with every answer so far, answers each query pure when one of them
misses the pool, and logs the step's pools and answers. The masks that
meet the pool are explored later from a snapshot of the step's start,
replaying the log up to that query, answered contaminated; a replay must
ask the logged pools. A leaf is a finished run, and the oracle is where
its answers met ground truth: harness carries core's check fold along the
walk, which checks each record once, by the step that made it, against
the log, and certifies a leaf only when the oracle has exactly the mask
of the items it identified as defective left; any other leaf is
finalized. Each mask of the list takes exactly one path, so harness also
checks that the leaves are the list's masks, each once (kernels.add_leaves).
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

from gtlab.core import Session, Step, pool_items

# One logged query: the pool as a tuple, and True for contaminated.
Entry = Tuple[Tuple[int, ...], bool]


class ListOracle:
    """Answers queries for a list of masks at once.

    masks holds the masks that agree with every answer so far, and log the
    current step's (pool, answer) pairs. The step's queries first replay
    `script`, a log: each must ask the logged pool, or the oracle raises an
    AssertionError naming both. After it, the pool's bitmask is built once,
    which validates it as core.pool_items does, with the same ValueError.
    A pool is answered pure whenever one of the masks misses it, and the
    masks that meet it are recorded with the query's position in `forks`
    when there are any. Otherwise it is answered contaminated.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.masks: Sequence[int] = []
        self.script: Sequence[Entry] = ()
        self.log: List[Entry] = []
        self.forks: List[Tuple[int, List[int]]] = []

    def start(self, masks: Sequence[int], script: Sequence[Entry]) -> None:
        """Starts a step that replays script, then answers for masks, which
        must already agree with every answer of the script."""
        self.masks = masks
        self.script = script
        self.log = []
        self.forks = []

    def contaminated(self, pool: Sequence[int]) -> bool:
        pool = tuple(pool)
        log = self.log
        pos = len(log)
        if pos < len(self.script):
            logged, hit = self.script[pos]
            if pool != logged:
                pool_items(pool, self.n)
                raise AssertionError(
                    f"replayed query {pos + 1} asked pool {pool}, "
                    f"where the walk logged {logged}"
                )
        else:
            q = 0
            try:
                for item in pool:
                    q |= 1 << item
            except Exception:
                pool_items(pool, self.n)
                raise
            if not q or q >> self.n:
                pool_items(pool, self.n)  # raises: empty, or an item >= n
            masks = self.masks
            miss = [m for m in masks if not m & q]
            hit = not miss
            if miss and len(miss) < len(masks):
                self.forks.append((pos, [m for m in masks if m & q]))
                self.masks = miss
        log.append((pool, hit))
        return hit


def walk(
    step: Step, start: object, n: int, masks: Sequence[int]
) -> Iterator[Tuple[Session, object]]:
    """Yields the session and the final state of every leaf of step's
    decision tree over masks, in no particular order, each run driving
    range(n) from state start. An empty list has no leaves.

    The session is rewound once the caller resumes the walk, so a leaf's
    records, identifications and any RunResult built from them are valid
    only until then; session.oracle.masks holds the masks that agree with
    every answer of the leaf's run.
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
            log = oracle.log
            for pos, meet in oracle.forks:
                script = log[:pos] + [(log[pos][0], True)]
                stack.append((remaining, state, snap, script, meet))
            remaining, state = after, next_state
            if remaining:
                snap = session.snapshot()
                oracle.start(oracle.masks, ())
        yield session, state
