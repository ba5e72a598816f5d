"""Depth-first walks of a strategy's decision tree over a range of masks.

A strategy written as a step function, step(session, remaining, state) ->
(remaining, state), makes the same queries on every defective set until an
answer differs. So instead of one recorded run per mask, walk() runs each
step once per node of the decision tree: a BranchingOracle answers every
query with an answer that some mask of the range still allows, and each
other allowed answer is explored later from a snapshot of the step's start.
A leaf is a finished run. It is the run on the mask of the items it
identified as defective, provided every answer matches that mask, which the
caller checks with finalize. Each mask of the range takes exactly one path,
so the caller also checks that the leaves are the range's masks, each once.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Sequence, Tuple

from gtlab.core import Session, pool_items

Step = Callable[[Session, List[int], object], Tuple[List[int], object]]


def aligned_blocks(lo: int, hi: int) -> Iterator[Tuple[int, int]]:
    """Cuts the masks lo..hi-1 into blocks (base, bits), in order: the masks
    base..base + 2^bits - 1, which agree on every bit at or above bits."""
    while lo < hi:
        bits = (lo & -lo).bit_length() - 1 if lo else hi.bit_length()
        while lo + (1 << bits) > hi:
            bits -= 1
        yield lo, bits
        lo += 1 << bits


class BranchingOracle:
    """Answers queries for a whole block of masks at once.

    The items at and above bit `bits` are fixed by base; the lower items are
    free. A block mask is consistent with the answers so far when it misses
    every pure pool and meets every contaminated one. The answers of the
    current step first replay `script`; after it, a pool is answered pure
    whenever a consistent mask misses it, and the position is recorded in
    `forks` when another consistent mask meets it.
    """

    def __init__(self, n: int, base: int, bits: int) -> None:
        free = (1 << bits) - 1
        self.n = n
        self.fixed_defective = base & ~free
        self.fixed_good = ((1 << n) - 1) & ~free & ~base
        self.pure_union = 0
        # Contaminated pools with no fixed-defective item: only they can
        # stop a pure answer.
        self.hits: List[int] = []
        self.script: Sequence[bool] = ()
        self.answers: List[bool] = []
        self.forks: List[int] = []

    def snapshot(self) -> Tuple[int, int]:
        return self.pure_union, len(self.hits)

    def restore(self, snapshot: Tuple[int, int], script: Sequence[bool]) -> None:
        """Returns to snapshot() and starts a step that replays script."""
        self.pure_union, hits = snapshot
        del self.hits[hits:]
        self.script = script
        self.answers = []
        self.forks = []

    def contaminated(self, pool: Sequence[int]) -> bool:
        q = 0
        for item in pool_items(pool, self.n):
            q |= 1 << item
        pos = len(self.answers)
        if pos < len(self.script):
            hit = self.script[pos]
        else:
            # Pure needs a consistent mask missing q: with q joined to the
            # pure pools and fixed-good items, no fixed defective may be in
            # q and every contaminated pool must keep an item outside them.
            # Contaminated needs q to hold an item outside them now.
            forbidden = self.pure_union | self.fixed_good
            out = ~(forbidden | q)
            if not q & self.fixed_defective and all(c & out for c in self.hits):
                if q & ~forbidden:
                    self.forks.append(pos)
                hit = False
            else:
                hit = True
        self.answers.append(hit)
        if not hit:
            self.pure_union |= q
        elif not q & self.fixed_defective:
            self.hits.append(q)
        return hit


def walk(step: Step, start: object, n: int, lo: int, hi: int) -> Iterator[Session]:
    """Yields the session of every leaf of step's decision tree over the
    masks lo..hi-1 (block by block, in no particular order within a block),
    each run driving range(n) from state start.

    The session is rewound once the caller resumes the walk, so a leaf's
    records, identifications and any RunResult built from them are valid
    only until then.
    """
    for base, bits in aligned_blocks(lo, hi):
        oracle = BranchingOracle(n, base, bits)
        session = Session(oracle)
        stack = [(list(range(n)), start, session.snapshot(), oracle.snapshot(), ())]
        while stack:
            remaining, state, snap, osnap, script = stack.pop()
            session.restore(snap)
            oracle.restore(osnap, script)
            while remaining:
                after, next_state = step(session, remaining, state)
                answers = oracle.answers
                for pos in oracle.forks:
                    stack.append(
                        (remaining, state, snap, osnap, answers[:pos] + [True])
                    )
                remaining, state = after, next_state
                if remaining:
                    snap, osnap = session.snapshot(), oracle.snapshot()
                    oracle.restore(osnap, ())
            yield session
