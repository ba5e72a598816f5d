"""Exact worst cases read from the real steps: a one-step explorer and a
memoised DP over the states it leaves.

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
(r, state, owed) serves every e. Each consistent set follows exactly one
leaf, so

    best(r, e, state, owed) = max over the leaves that e allows of
                              tests + best(the state the leaf leaves)

with the smallest mask on ties. The DP is iterative, so no recursion
limit applies, and its memo lives for the process, one per step function,
as splitting.quarter_plan's lru_cache does: cells of every n share it.
Like quarter_plan's, it assumes the steps do not change within a process.

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
# A DP state's memo key: (r, e, state key, owed intervals as masks).
Key = Tuple[int, int, Hashable, Tuple[int, ...]]


def _zc_key(state: tuple) -> Hashable:
    # Once zc hands its run off, its plan changes no test.
    plan, sub = state
    return state if sub is None else sub


# The memo key of a step state, where it is not the state itself.
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
    (position, width, first item) runs of consecutive items; and the state
    it leaves, with its memo key and owed intervals over range(left). It
    holds for every e with fewest <= e - count <= left, fewest being the
    fewest items that meet its owed intervals."""

    tests: int
    found: int
    count: int
    left: int
    runs: Tuple[Tuple[int, int, int], ...]
    state: object
    state_key: Hashable
    owed: Tuple[int, ...]
    fewest: int


class Engine:
    """The explorer and the DP of one strategy's step: memo holds each
    state's cell, trees each (r, state key, owed)'s leaves. Both live for
    the process, and most leaves repeat another's runs, owed intervals or
    state, so leaves share one copy of each equal runs or owed tuple
    (parts) and one state per state key (states)."""

    def __init__(self, name: str, step: Step, state_key: Callable[[object], Hashable]) -> None:
        self.name = name
        self.step = step
        self.state_key = state_key
        self.memo: Dict[Key, Cell] = {}
        self.trees: Dict[Tuple[int, Hashable, Tuple[int, ...]], List[_Leaf]] = {}
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
        memo = self.memo
        root = (r, e, self.state_key(state), owed)
        # An iterative post-order over the DAG of states: a state is
        # combined once every state its leaves leave for it is in memo.
        todo = [(root, state)]
        opened = set()
        while todo:
            key, st = todo[-1]
            if key in memo:
                todo.pop()
                continue
            r, e, state_key, owed = key
            if not r:
                memo[key] = (0, 0)
                todo.pop()
                continue
            leaves = self.trees.get((r, state_key, owed))
            if leaves is None:
                leaves = self.trees[r, state_key, owed] = self._explore(r, st, owed)
            fits = [
                ((leaf.left, e - leaf.count, leaf.state_key, leaf.owed), leaf)
                for leaf in leaves
                if leaf.fewest <= e - leaf.count <= leaf.left
            ]
            missing = [(sub, leaf.state) for sub, leaf in fits if sub not in memo]
            if missing:
                if key in opened:
                    raise AssertionError(f"{self.name} step returned to the state {key}")
                opened.add(key)
                todo.extend(missing)
                continue
            memo[key] = _combine(fits, memo)
            todo.pop()
        return memo[root]

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
        return _Leaf(
            len(session.records), found, found.bit_count(), len(left),
            share(runs, runs), self.states.setdefault(state_key, after), state_key,
            share(owed_left, owed_left), _fewest(owed_left),
        )


def _combine(fits: List[Tuple[Key, _Leaf]], memo: Dict[Key, Cell]) -> Cell:
    """The most tests over the leaves, each with the state it leaves, with
    the smallest mask on ties; a leaf's mask is its found defectives plus
    its state's mask, lifted from range(left) to its items left run by
    run."""
    worst, argmax = -1, 0
    for sub_key, leaf in fits:
        tests, sub = memo[sub_key]
        tests += leaf.tests
        if tests < worst:
            continue
        mask = leaf.found
        for pos, width, item in leaf.runs:
            mask |= (sub >> pos & ((1 << width) - 1)) << item
        if tests > worst or mask < argmax:
            worst, argmax = tests, mask
    return worst, argmax


def engine(algorithm: str) -> Engine:
    """The engine of algorithm's step in kernels.STRATEGIES; one per step
    function, so a step patched there gets a memo of its own."""
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
