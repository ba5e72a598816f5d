"""The strategy table, and the bitmask counter behind the exhaustive sweeps.

STRATEGIES names every algorithm once, with its recorded runner, its step
function and its counter; harness, the CLI and the sweeps all read it.

count_run answers (tests, good_mask, defective_mask) for one run of a
strategy on one defective mask, and sweep() validates every such answer
against ground truth. No transcript is built; recorded runs go through
core.Session and PoolOracle as usual.

The counter replays the strategy rules of zigzag and competitive on Python
ints: the remaining set and every pool are bitmasks, and whole-pool steps
(pure pools, pair and triple resolution, individual scans) are single mask
operations. The four-way extraction is not replayed: its test count is read
from splitting.quarter_plan at the offset of the pool's lowest defective.
That is exact because every ordered item sequence on the counting path is
an ascending subsequence of range(n): the whole range, the remaining suffix
of a zd or zu run, zc's quarters and its merged halves. So "the first s
items" of a sequence is always the lowest s set bits of its mask, and an
item's offset in a pool is the number of pool bits below it.

Each counter walks the strategy's decision tree over a list of defective
masks at once, the way tree.ListOracle does for recorded runs: at a pool,
the masks that miss it take the pure branch and the masks that meet it
fork by what the strategy learns next (the lowest defective of a four-way
extraction, the items of a pair or triple, the clean or dirty remainder of
zu's additional test, zc's tail items and contaminated quarters). A leaf is
a finished run, yielded as (masks, tests, good_mask, defective_mask); it is
right when its masks are exactly [defective_mask]. Steps shared by the masks
of a branch are taken once, so sweep() walks range(2^n) in blocks of BLOCK
masks, and count_run() is the same walk over one mask.
"""

from __future__ import annotations

from collections import defaultdict
from functools import reduce
from itertools import groupby
from operator import itemgetter, or_
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from gtlab.competitive import ZC_START, individual_step, run_individual, run_zc, zc_step
# PoolOracle is re-exported: perfbench's tracer patches kernels.PoolOracle.
from gtlab.core import PoolOracle, RunResult, Step
from gtlab.splitting import pool_size, quarter_plan
from gtlab.zigzag import ZD_START, ZU_START, initial_rank, run_zd, run_zu, zd_step, zu_step

# Read by perfbench's run stamp; the bitmask counter is the only one.
BACKEND = "pure"

# Largest n a sweep (2^n runs) accepts.
MAX_SWEEP_N = 24
# Largest n count_run accepts, a fixed part of its interface. The counters
# themselves take masks of any width (tests pin zd, zu and zc up to n = 200).
MAX_COUNT_N = 62

# Masks a walk takes at a time: sweep walks range(2^n), harness.worst_case
# its weight-d family and the grid's zu analysis walk range(2^n), in
# consecutive blocks this size.
BLOCK = 1 << 16

Count = Tuple[int, int, int]
Masks = Sequence[int]
# One leaf of a walk: the masks that reach it, and the run's (tests,
# good_mask, defective_mask) on them.
Leaf = Tuple[Masks, int, int, int]


def _prefix(items: int, s: int) -> int:
    """The lowest s set bits of items (all of them when it has fewer)."""
    limit = (items & -items) << s
    while True:
        head = items & (limit - 1)
        short = s - head.bit_count()
        if short <= 0 or head == items:
            return head
        limit <<= short


def _extractions(pool: int, k: int, masks: Masks) -> Iterator[Leaf]:
    """splitting.quarter_split on a contaminated pool of at most pool_size(k),
    for masks that all meet it.

    The extraction finds the pool's lowest defective and resolves exactly
    the items before it (good) and the defective itself (low), spending
    what quarter_plan lists for that offset. Yields (masks, tests, good,
    low) for each lowest defective the masks have in the pool.
    """
    plan = quarter_plan(pool.bit_count(), k)
    lows: Dict[int, List[int]] = defaultdict(list)
    for mask in masks:
        hit = mask & pool
        lows[hit & -hit].append(mask)
    for low, part in lows.items():
        good = pool & (low - 1)
        yield part, plan[good.bit_count()].tests, good, low


def _individual(items: int, masks: Masks) -> Iterator[Leaf]:
    """Tests every item on its own: one leaf per set of items held.

    When no mask has a bit outside items, as in the individual sweep, each
    mask is its own leaf. Otherwise the masks are sorted by the items they
    hold and cut into groups one at a time, so a block of singleton groups
    is never held at once.
    """
    tests = items.bit_count()
    if not reduce(or_, masks, 0) & ~items:
        for bad in masks:
            yield [bad], tests, items ^ bad, bad
        return
    held = items.__and__
    for bad, group in groupby(sorted(masks, key=held), held):
        yield list(group), tests, items ^ bad, bad


def _zd(items: int, masks: Masks) -> Iterator[Leaf]:
    """zigzag.zd_step, looped by core.drive, over the ascending sequence
    of items."""
    if not items:
        yield masks, 0, 0, 0
        return
    stack = [(items, initial_rank(items.bit_count()), 0, 0, 0, masks)]
    while stack:
        items, k, tests, good, bad, masks = stack.pop()
        while items:
            pool = _prefix(items, pool_size(k))
            tests += 1
            hit = [m for m in masks if m & pool]
            if not hit:
                good |= pool
                items ^= pool
                k += 1
                continue
            if len(hit) < len(masks):
                miss = [m for m in masks if not m & pool]
                stack.append((items ^ pool, k + 1, tests, good | pool, bad, miss))
            after = k - 1 if k else 0
            for part, spent, g, b in _extractions(pool, k, hit):
                stack.append(
                    (items & ~(g | b), after, tests + spent, good | g, bad | b, part)
                )
            break
        else:
            yield masks, tests, good, bad


def _zu(items: int, masks: Masks) -> Iterator[Leaf]:
    """zigzag.zu_step, looped by core.drive, over the ascending sequence
    of items."""
    stack = [(items, 0, 0, False, 0, 0, 0, masks)]
    while stack:
        items, k, streak, mixed_pair, tests, good, bad, masks = stack.pop()
        while items:
            size = pool_size(k)
            if streak == 6 and items.bit_count() > size:
                tests += 1
                dirty = [m for m in masks if m & items]
                if len(dirty) < len(masks):
                    yield [m for m in masks if not m & items], tests, good | items, bad
                if not dirty:
                    break
                masks = dirty
            pool = _prefix(items, size)
            tests += 1
            hit = [m for m in masks if m & pool]
            if not hit:
                good |= pool
                items ^= pool
                k += 1
                streak += 1
                continue
            if len(hit) < len(masks):
                miss = [m for m in masks if not m & pool]
                stack.append(
                    (items ^ pool, k + 1, streak + 1, mixed_pair,
                     tests, good | pool, bad, miss)
                )
            masks = hit
            if not pool & (pool - 1):
                bad |= pool
                items ^= pool
                k = max(k - 1, 0)
                streak = 0
                mixed_pair = False
                continue
            if k == 1 or (mixed_pair and k == 2):
                # Pair or triple resolution: every item tested on its own.
                for part, spent, g, b in _individual(pool, hit):
                    if k == 1 and b != pool:
                        state = (2, streak + 1, True)
                    else:
                        state = (k - 1, 0, False)
                    stack.append(
                        (items ^ pool, *state, tests + spent, good | g, bad | b, part)
                    )
            else:
                for part, spent, g, b in _extractions(pool, k, hit):
                    stack.append(
                        (items & ~(g | b), k - 1, 0, False,
                         tests + spent, good | g, bad | b, part)
                    )
            break
        else:
            yield masks, tests, good, bad


def _split4(items: int, size: int) -> List[int]:
    groups = []
    for _ in range(4):
        group = _prefix(items, size)
        items ^= group
        groups.append(group)
    return groups


def _round(masks: Masks, pools: List[int]) -> List[Tuple[int, Masks]]:
    """masks split by one round of disjoint pools: (union of the pools met,
    the masks that meet exactly those) for each nonempty part."""
    parts = [(0, masks)]
    for pool in pools:
        split = []
        for union, part in parts:
            hit = [m for m in part if m & pool]
            if len(hit) < len(part):
                split.append((union, [m for m in part if not m & pool]))
            if hit:
                split.append((union | pool, hit))
        parts = split
    return parts


def _tail_and_round(
    items: int, size: int, masks: Masks
) -> Iterator[Tuple[Masks, int, int, int, int]]:
    """competitive's tail scan and round over items: the items past the
    first 4*size tested one by one, then, when size > 0, four pools of size
    items each. Yields (masks, tests, good, bad, hit) per outcome, hit being
    the union of the contaminated pools."""
    head = _prefix(items, 4 * size)
    quarters = _split4(head, size) if size else []
    for part, tests, good, bad in _individual(items ^ head, masks):
        for hit, group in _round(part, quarters):
            yield group, tests + len(quarters), good | head ^ hit, bad, hit


def _zc(items: int, masks: Masks) -> Iterator[Leaf]:
    """competitive.zc_step, looped by core.drive, over the ascending
    sequence of items."""
    n1 = items.bit_count() // 4
    for part, tests, good, bad, hit in _tail_and_round(items, n1, masks):
        # hit is the union of the contaminated quarters, n1 items each. One
        # goes to zd and three or more to zu; exactly two get a second round
        # over them, merged, after which zd takes at most two quarters.
        if n1 and hit.bit_count() == 2 * n1:
            n2 = n1 // 2
            subs = [
                (p, tests + t, good | g, bad | b, h, 2 * n2)
                for p, t, g, b, h in _tail_and_round(hit, n2, part)
            ]
        else:
            subs = [(part, tests, good, bad, hit, n1)]
        for part, tests, good, bad, hit, zd_limit in subs:
            sub = _zd(hit, part) if hit.bit_count() <= zd_limit else _zu(hit, part)
            for leaf, spent, g, b in sub:
                yield leaf, tests + spent, good | g, bad | b


class Strategy(NamedTuple):
    """One algorithm, written once: its recorded runner; its step and start
    state, which core.drive loops and tree.walk walks; its bitmask counter;
    and the function that reads a finished run's plan from its final state
    (None when the run records no plan)."""

    run: Callable[[PoolOracle], RunResult]
    step: Step
    start: object
    count: Callable[[int, Masks], Iterator[Leaf]]
    plan_of: Optional[Callable[[object], object]] = None


# Every algorithm, in ALGORITHMS order. zc's final state is (plan, sub).
STRATEGIES = {
    "individual": Strategy(run_individual, individual_step, None, _individual),
    "zd": Strategy(run_zd, zd_step, ZD_START, _zd),
    "zu": Strategy(run_zu, zu_step, ZU_START, _zu),
    "zc": Strategy(run_zc, zc_step, ZC_START, _zc, itemgetter(0)),
}

ALGORITHMS = tuple(STRATEGIES)


def _check_algorithm(algorithm: str) -> None:
    if algorithm not in STRATEGIES:
        raise ValueError(f"unknown algorithm {algorithm!r}")


def count_run(algorithm: str, n: int, defective_mask: int) -> Count:
    _check_algorithm(algorithm)
    if not 0 <= n <= MAX_COUNT_N:
        raise ValueError(f"count_run handles 0 <= n <= {MAX_COUNT_N}")
    if defective_mask < 0 or defective_mask >> n:
        raise ValueError(f"defective mask {defective_mask:#x} outside {n} items")
    [(_, tests, good, bad)] = STRATEGIES[algorithm].count((1 << n) - 1, [defective_mask])
    return tests, good, bad


def sweep(algorithm: str, n: int) -> List[Tuple[int, int]]:
    """Runs every defective mask of n items; returns per-d (worst_tests,
    first mask attaining it). Raises AssertionError on any misclassification
    and on a walk that misses a mask or reaches one twice.
    """
    _check_algorithm(algorithm)
    if not 0 <= n <= MAX_SWEEP_N:
        raise ValueError(f"sweep handles 0 <= n <= {MAX_SWEEP_N}")
    walk = STRATEGIES[algorithm].count
    full = (1 << n) - 1
    worst = [-1] * (n + 1)
    argmax = [0] * (n + 1)
    for lo in range(0, full + 1, BLOCK):
        hi = min(lo + BLOCK, full + 1)
        reached = bytearray(hi - lo)
        for masks, tests, good, bad in walk(full, range(lo, hi)):
            if len(masks) != 1 or masks[0] != bad or good != full ^ bad:
                what = f"mask {masks[0]:#x}" if len(masks) == 1 else f"{len(masks)} masks"
                raise AssertionError(f"{algorithm} misclassified {what} at n={n}")
            if not lo <= bad < hi:
                raise AssertionError(
                    f"{algorithm} reached mask {bad:#x} outside its block at n={n}"
                )
            if reached[bad - lo]:
                raise AssertionError(f"{algorithm} reached mask {bad:#x} twice at n={n}")
            reached[bad - lo] = 1
            d = bad.bit_count()
            if tests > worst[d] or (tests == worst[d] and bad < argmax[d]):
                worst[d] = tests
                argmax[d] = bad
        if 0 in reached:
            raise AssertionError(
                f"{algorithm} never reached mask {lo + reached.index(0):#x} at n={n}"
            )
    return list(zip(worst, argmax))
