"""Exact worst cases read from the real steps: a one-step explorer and a
DP over the states it leaves, one vector of cells per explored tree.

zd, zu and zc leave, after each step, an ordered list of unresolved items
and a step state. Relabel the list as range(r). What the answers so far
still say about those items is how many defectives they hold, e, and a set
of owed intervals: each pool that tested contaminated, and each interval
an earlier step owed, that no found defective explains, cut down to the
items left. zc's contaminated quarters owe a defective this way, and so
does zu's contaminated additional test. So (r, e, state, owed) is a state
of the whole run, and every set of e defectives in range(r) that meets
every owed interval is consistent with it.

The explorer runs one real step (zigzag.zd_step, zigzag.zu_step,
competitive.zc_step) on range(r) under _ScriptOracle, once per answer
sequence that some set meeting the owed intervals still allows: a fresh
query forks only when both answers stay consistent, and otherwise takes
the one that does. A fork is explored later by running the step again,
replaying the answers up to the forked query, whose answer becomes
contaminated, as tree.walk does. Each finished step is a leaf, checked
before the DP reads it (Engine._leaf). The sets of e defectives that
follow a leaf are those whose e lies between its found defectives plus
the fewest items that meet the intervals it leaves owed, and its found
defectives plus the items it leaves; so one exploration per
(r, state, owed), a tree, serves every e. Each consistent set follows
exactly one leaf, so

    best(r, e, state, owed) = max over the leaves that e allows of
                              tests + best(the state the leaf leaves)

with the smallest mask on ties. The DP keeps one list of cells per tree,
keyed by (r, state key, owed) and indexed by e, so a tree's vector is

    cells[e] = max over its leaves and j in [fewest, left] with
               count + j = e of tests + sub[j]

sub being the vector of the tree the leaf leaves, and a leaf's mask its
found defectives plus sub[j]'s mask, lifted from range(left) to its items
left. Requests are demand-driven: best and worst ask for one e, cells for
every d of a row, and a tree asks each sub-tree only for the j its missing
e imply, then fills those e in one pass over its leaves, so it never
recomputes an e it holds. The DP is iterative, so no recursion limit
applies, and its trees and vectors live for the process, one set per step
function, as splitting.quarter_plan's lru_cache does: cells of every n
share them. Like quarter_plan's, it assumes the steps do not change within
a process.

Limits. The explorer assumes a step depends on the order of its items, not
on their ids; the three steps only slice lists, and tier-1's comparisons
with kernels.sweep and exhaustive worst_case check it. What a leaf leaves
owed must be intervals of its items left, which makes the fewest items
meeting them one greedy scan, and the items left must ascend, so that the
smallest mask of a leaf's state is also the smallest once lifted; _leaf
checks both. competitive.individual_step tests every item left in one
step, so its one-step tree has 2^r leaves; its cells are n by
construction, and its walk stays.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, Hashable, List, NamedTuple, Optional, Sequence, Tuple

from gtlab import kernels
from gtlab.core import CHECK_START, Session, Step, check_records, pool_items
from gtlab.tree import Entry, pool_mask

# The algorithms the engine serves.
ALGORITHMS = ("zd", "zu", "zc")

# (most tests, smallest mask spending them).
Cell = Tuple[int, int]
# A tree's key: (r, state key, owed intervals as masks).
TreeKey = Tuple[int, Hashable, Tuple[int, ...]]


def _zc_key(state: tuple) -> Hashable:
    # Once zc hands its run off, its plan changes no test. Before that a
    # later test reads only the round and, in round 2, n1 and alpha1 (its
    # assert): the tail counts and the round's size, r // 4, change none, so
    # the trees of every n that reaches a round at r are one. A tag leads
    # the key, where a handed-off one has a step.
    plan, sub = state
    if sub is not None:
        return sub
    if plan.alpha1 is None:
        return ("round", 1)
    return ("round", 2, plan.n1, plan.alpha1)


# The key of a step state in a tree key, where it is not the state itself.
_STATE_KEYS: Dict[str, Callable[[object], Hashable]] = {"zc": _zc_key}


def _fewest(owed: Sequence[int]) -> int:
    """The fewest items that meet every owed interval: the greedy scan by
    right end, which is exact for intervals."""
    chosen = 0
    count = 0
    for need in sorted(owed, key=int.bit_length):
        if not need & chosen:
            chosen |= 1 << (need.bit_length() - 1)
            count += 1
    return count


class _ScriptOracle:
    """Answers one step's queries over range(r) for every set of
    defectives that meets each owed interval.

    The step's queries first replay `script`, a log: each must ask the
    logged pool, or the oracle raises an AssertionError naming both, as
    tree.ListOracle does. Every pool's bitmask is built once (pool_mask),
    which validates it as core.pool_items does, with the same ValueError. A
    fresh query is answered pure when some set stays consistent with that
    answer and every answer so far: one that meets every owed interval and
    contaminated pool outside the pure pools. Otherwise it is answered
    contaminated, which some set allows as long as the pool holds an item
    no pure pool does; when both answers do, its position goes to `forks`.
    `pure` is the union of the pools answered pure, `required` the owed
    intervals and the pools answered contaminated, and `log` the step's
    (pool, answer) pairs.
    """

    def __init__(self, r: int, owed: Sequence[int], script: Sequence[Entry]) -> None:
        self.n = r
        self.script = script
        self.pure = 0
        self.required: List[int] = list(owed)
        self.log: List[Entry] = []
        self.forks: List[int] = []

    def contaminated(self, pool: Sequence[int]) -> bool:
        pool = tuple(pool)
        log = self.log
        pos = len(log)
        replay = pos < len(self.script)
        if replay and pool != self.script[pos][0]:
            pool_items(pool, self.n)
            raise AssertionError(
                f"replayed query {pos + 1} asked pool {pool}, "
                f"where the explorer logged {self.script[pos][0]}"
            )
        q = pool_mask(pool, self.n)
        if replay:
            hit = self.script[pos][1]
        else:
            pure = self.pure | q
            hit = not all(need & ~pure for need in self.required)
            if not hit and q & ~self.pure:
                self.forks.append(pos)
            elif hit and not q & ~self.pure:
                raise AssertionError(f"no answer to pool {pool} is consistent")
        if hit:
            self.required.append(q)
        else:
            self.pure |= q
        log.append((pool, hit))
        return hit


class _Leaf(NamedTuple):
    """One finished step: the tests it spent; the defectives it found, as a
    mask and a count; how many items it left, and where they lie, as
    (position, width, first item) runs of consecutive items; the state it
    leaves; and the key of the tree it leaves, (left, state key, owed
    intervals over range(left)). It holds for every e with
    fewest <= e - count <= left, fewest being the fewest items that meet
    its owed intervals. _fill_one and _fill_span unpack it in field
    order."""

    tests: int
    found: int
    count: int
    left: int
    runs: Tuple[Tuple[int, int, int], ...]
    state: object
    key: TreeKey
    fewest: int


class Engine:
    """The explorer and the DP of one strategy's step: trees holds each
    (r, state key, owed)'s leaves, vectors each such tree's list of cells
    by e, None where not yet asked for. Both live for the process, and most
    leaves repeat another's runs or sub-tree key, so leaves share one copy
    of each equal tuple (parts) and one state per state key (states)."""

    def __init__(self, name: str, step: Step, state_key: Callable[[object], Hashable]) -> None:
        self.name = name
        self.step = step
        self.state_key = state_key
        self.trees: Dict[TreeKey, List[_Leaf]] = {}
        self.vectors: Dict[TreeKey, List[Optional[Cell]]] = {}
        self.parts: Dict[tuple, tuple] = {}
        self.states: Dict[Hashable, object] = {}

    def best(
        self, r: int, e: int, state: object, owed: Tuple[int, ...] = ()
    ) -> Optional[Cell]:
        """The most tests a run from state spends on range(r) over every set
        of e defectives that meets each owed interval (masks, each an
        interval of range(r)), with the smallest such set as a mask; None
        when there is no such set."""
        owed = tuple(owed)
        if not _fewest(owed) <= e <= r:
            return None
        return self._fill((r, self.state_key(state), owed), state, e, e)[e]

    def row(self, r: int, state: object) -> List[Cell]:
        """best(r, e, state) for every e in 0..r, from one pass over each
        tree's leaves."""
        return self._fill((r, self.state_key(state), ()), state, 0, r)[:]

    def _fill(self, root: TreeKey, state: object, lo: int, hi: int) -> List[Optional[Cell]]:
        """root's vector, once every e in lo..hi is filled; each e must allow
        some set.

        An iterative post-order over the DAG of trees: a request (tree, lo,
        hi) narrows to the e the tree misses, asks each leaf's sub-tree for
        the j those e imply (_fill_one, _fill_span), and once they are
        filled is filled in one pass over the leaves. An e between two
        missing ones is filled again, to the same cell."""
        trees, vectors = self.trees, self.vectors
        todo = [(root, state, lo, hi)]
        active = set()
        while todo:
            key, state, lo, hi = todo[-1]
            vector = vectors.get(key)
            if vector is None:
                r = key[0]
                if r:
                    trees[key] = self._explore(r, state, key[2])
                vector = vectors[key] = [None] * (r + 1)
            while lo <= hi and vector[lo] is not None:
                lo += 1
            while lo <= hi and vector[hi] is not None:
                hi -= 1
            if lo > hi:
                todo.pop()
                continue
            missing: List[tuple] = []
            if not key[0]:
                vector[0] = (0, 0)
            elif lo == hi:
                _fill_one(trees[key], vectors, lo, vector, missing)
            else:
                _fill_span(trees[key], vectors, lo, hi, vector, missing)
            if missing:
                # A tree asked for again while it waits on its sub-trees is
                # one of its own sub-trees.
                if key in active:
                    raise AssertionError(f"{self.name} step returned to the state {key}")
                active.add(key)
                todo.extend(missing)
                continue
            active.discard(key)
            todo.pop()
        return vectors[root]

    def _explore(self, r: int, state: object, owed: Tuple[int, ...]) -> List[_Leaf]:
        """The leaves of one step from state over range(r) with owed
        intervals."""
        leaves = []
        scripts: List[List[Entry]] = [[]]
        while scripts:
            oracle = _ScriptOracle(r, owed, scripts.pop())
            session = Session(oracle)
            left, after = self.step(session, list(range(r)), state)
            log = oracle.log
            for pos in oracle.forks:
                scripts.append(log[:pos] + [(log[pos][0], True)])
            leaves.append(self._leaf(session, oracle, left, after))
        return leaves

    def _leaf(
        self, session: Session, oracle: _ScriptOracle, left: List[int], after: object
    ) -> _Leaf:
        """The leaf of one explored step, once it passes these checks, each
        an AssertionError naming the step:
        - its records match its oracle's log one to one (core.check_records);
        - its labels cover exactly the items it did not leave;
        - every good item lies in a pure pool;
        - no item left lies in a pure pool;
        - every found defective is the only item outside the pure pools of
          some contaminated pool or owed interval;
        - every owed interval and contaminated pool no found defective
          meets is an interval of the items left;
        - the items left ascend.
        """
        name = self.name
        r = oracle.n
        if check_records(CHECK_START, session.records, session.identifications, oracle.log) is None:
            raise AssertionError(f"{name} step's records do not match its oracle's log")
        good, found, pure = session.good_mask, session.defective_mask, oracle.pure
        left_mask = 0
        for item in left:
            left_mask |= 1 << item
        resolved = good | found
        if (
            len(left) != left_mask.bit_count()
            or left_mask & resolved
            or left_mask | resolved != (1 << r) - 1
        ):
            raise AssertionError(f"{name} step's labels are not exactly the items it resolved")
        if good & ~pure:
            raise AssertionError(f"{name} step labelled good an item no pure pool holds")
        if left_mask & pure:
            raise AssertionError(f"{name} step left an item a pure pool holds")
        forced = 0
        for need in oracle.required:
            need &= ~pure
            if not need & (need - 1):
                forced |= need
        if found & ~forced:
            raise AssertionError(f"{name} step found a defective no answer forces")
        position = {item: i for i, item in enumerate(left)}
        owed = set()
        for need in oracle.required:
            if need & found:
                continue
            need &= left_mask
            low = position[(need & -need).bit_length() - 1]
            high = position[need.bit_length() - 1]
            if high - low + 1 != need.bit_count():
                raise AssertionError(
                    f"{name} step owes a pool that is not an interval of the items left"
                )
            owed.add(((1 << (high - low + 1)) - 1) << low)
        if left != sorted(left):
            raise AssertionError(f"{name} step left its items out of order")
        # An interval that holds another owed one is met whenever that one is.
        owed_left = tuple(sorted(
            need for need in owed if not any(o != need and o & need == o for o in owed)
        ))
        runs = []
        for pos, item in enumerate(left):
            if runs and runs[-1][2] + runs[-1][1] == item:
                runs[-1][1] += 1
            else:
                runs.append([pos, 1, item])
        share = self.parts.setdefault
        runs = tuple(map(tuple, runs))
        state_key = self.state_key(after)
        key = (len(left), state_key, owed_left)
        return _Leaf(
            len(session.records), found, found.bit_count(), len(left),
            share(runs, runs), self.states.setdefault(state_key, after),
            share(key, key), _fewest(owed_left),
        )


def _fill_one(
    leaves: List[_Leaf],
    vectors: Dict[TreeKey, List[Optional[Cell]]],
    e: int,
    vector: List[Optional[Cell]],
    missing: List[tuple],
) -> None:
    """Fills vector[e] from the leaves that e allows, each adding its tests
    to its sub-tree's cell at j = e - count, lifted through its runs, with
    the smallest mask on ties; or, where a sub-tree's cell is not filled
    yet, appends its request (key, state, j, j) to missing and fills
    nothing. Single cells ask for one e at a time, so this pass both finds
    the missing sub-trees and, while there are none, combines. _fill_span
    gives the same cells, but its slices, lists and second loop cost a
    one-e request more: with the trees explored, a per-d loop's fill ran
    from 8% faster (zc) to 19% slower (zd) through it than the per-cell
    memo this DP replaced, and 13% to 49% faster through this pass
    (README, "Counting and benchmarking")."""
    worst, argmax = -1, 0
    for tests, found, count, left, runs, state, key, fewest in leaves:
        j = e - count
        if not fewest <= j <= left:
            continue
        sub = vectors.get(key)
        if sub is None or sub[j] is None:
            missing.append((key, state, j, j))
        elif not missing:
            spent, sub_mask = sub[j]
            spent += tests
            if spent >= worst:
                mask = found
                for pos, width, item in runs:
                    mask |= (sub_mask >> pos & ((1 << width) - 1)) << item
                if spent > worst or mask < argmax:
                    worst, argmax = spent, mask
    if not missing:
        vector[e] = (worst, argmax)


def _fill_span(
    leaves: List[_Leaf],
    vectors: Dict[TreeKey, List[Optional[Cell]]],
    lo: int,
    hi: int,
    vector: List[Optional[Cell]],
    missing: List[tuple],
) -> None:
    """_fill_one for every e in lo..hi: a leaf serves each j in
    [max(fewest, lo - count), min(left, hi - count)], and asks its sub-tree
    for that interval when any cell of it is missing. The sub-trees are
    checked first, so that no cell is combined until none is missing."""
    fits = []
    for tests, found, count, left, runs, state, key, fewest in leaves:
        low = lo - count
        if low < fewest:
            low = fewest
        high = hi - count
        if high > left:
            high = left
        if low > high:
            continue
        sub = vectors.get(key)
        if sub is None or None in sub[low:high + 1]:
            missing.append((key, state, low, high))
        elif not missing:
            fits.append((tests, found, count - lo, runs, sub, low, high))
    if missing:
        return
    worst = [-1] * (hi - lo + 1)
    argmax = [0] * (hi - lo + 1)
    for spent, found, at, runs, sub, low, high in fits:
        for j in range(low, high + 1):
            tests, sub_mask = sub[j]
            tests += spent
            i = at + j
            if tests < worst[i]:
                continue
            mask = found
            for pos, width, item in runs:
                mask |= (sub_mask >> pos & ((1 << width) - 1)) << item
            if tests > worst[i] or mask < argmax[i]:
                worst[i], argmax[i] = tests, mask
    vector[lo:hi + 1] = zip(worst, argmax)


def engine(algorithm: str) -> Engine:
    """The engine of algorithm's step in kernels.STRATEGIES; one per step
    function, so a step patched there gets trees and cells of its own."""
    if algorithm not in ALGORITHMS:
        kernels._check_algorithm(algorithm)
        raise ValueError(
            f"exact mode covers {', '.join(ALGORITHMS)}; {algorithm}'s cells are "
            "n by construction, and its one step has 2^n leaves"
        )
    return _engine(algorithm, kernels.STRATEGIES[algorithm].step)


@lru_cache(maxsize=None)
def _engine(algorithm: str, step: Step) -> Engine:
    return Engine(algorithm, step, _STATE_KEYS.get(algorithm, _same))


def _same(state: object) -> Hashable:
    return state


def worst(algorithm: str, n: int, d: int) -> Cell:
    """(most tests, smallest mask spending them) of algorithm over every
    set of d defectives among n items."""
    if not 0 <= d <= n:
        raise ValueError("need 0 <= d <= n")
    return engine(algorithm).best(n, d, kernels.STRATEGIES[algorithm].start)


def cells(algorithm: str, n: int) -> List[Cell]:
    """worst(algorithm, n, d) for every d in 0..n, filled in one pass per
    tree."""
    if n < 0:
        raise ValueError("need n >= 0")
    return engine(algorithm).row(n, kernels.STRATEGIES[algorithm].start)
