"""The bitmask counter behind the exhaustive sweeps.

count_run answers (tests, good_mask, defective_mask) for one run of a
strategy on one defective mask, and sweep() validates every such answer
against ground truth. No transcript is built; recorded runs go through
core.Session and PoolOracle as usual.

The counter replays the strategy rules of zigzag and competitive on Python
ints: the defective set, the remaining set and every pool are bitmasks, a
query is one ``pool & defect``, and whole-pool steps (pure pools, pair and
triple resolution, individual scans) are single mask operations. The
four-way extraction is not replayed: its test count is read from
splitting.quarter_plan at the offset of the pool's lowest defective. That
is exact because every ordered item sequence on the counting path is an
ascending subsequence of range(n): the whole range, the remaining suffix of
a zd or zu run, zc's quarters and its merged halves. So "the first s items"
of a sequence is always the lowest s set bits of its mask, and an item's
offset in a pool is the number of pool bits below it.
"""

from __future__ import annotations

from typing import List, Tuple

# Re-exported: perfbench's tracer patches kernels.PoolOracle.
from gtlab.core import PoolOracle  # noqa: F401
from gtlab.splitting import pool_size, quarter_plan
from gtlab.zigzag import initial_rank

# Read by perfbench's run stamp; the bitmask counter is the only one.
BACKEND = "pure"

# Largest n a sweep (2^n runs) accepts.
MAX_SWEEP_N = 24
# Largest n count_run accepts, a fixed part of its interface. The counters
# themselves take masks of any width (tests pin zd, zu and zc up to n = 200).
MAX_COUNT_N = 62

Count = Tuple[int, int, int]


def _prefix(items: int, s: int) -> int:
    """The lowest s set bits of items (all of them when it has fewer)."""
    limit = (items & -items) << s
    while True:
        head = items & (limit - 1)
        short = s - head.bit_count()
        if short <= 0 or head == items:
            return head
        limit <<= short


def _individual(items: int, defect: int) -> Count:
    """Tests every item on its own."""
    bad = items & defect
    return items.bit_count(), items ^ bad, bad


def _quarter(pool: int, k: int, defect: int) -> Count:
    """splitting.quarter_split on a contaminated pool of at most pool_size(k).

    The extraction finds the pool's lowest defective and resolves exactly
    the items before it (good) and the defective itself, spending what
    quarter_plan lists for that offset.
    """
    low = pool & defect
    low &= -low
    good = pool & (low - 1)
    return quarter_plan(pool.bit_count(), k)[good.bit_count()].tests, good, low


def _zd(items: int, defect: int) -> Count:
    """zigzag.drive_zd over the ascending sequence of items."""
    tests = good = bad = 0
    if not items:
        return 0, 0, 0
    k = initial_rank(items.bit_count())
    while items:
        pool = _prefix(items, pool_size(k))
        tests += 1
        if pool & defect:
            spent, g, b = _quarter(pool, k, defect)
            tests += spent
            good |= g
            bad |= b
            items &= ~(g | b)
            if k > 0:
                k -= 1
        else:
            good |= pool
            items ^= pool
            k += 1
    return tests, good, bad


def _zu(items: int, defect: int) -> Count:
    """zigzag.drive_zu over the ascending sequence of items."""
    tests = good = bad = 0
    k = streak = 0
    mixed_pair = False
    while items:
        size = pool_size(k)
        if streak == 6 and items.bit_count() > size:
            tests += 1
            if not items & defect:
                return tests, good | items, bad
        pool = _prefix(items, size)
        tests += 1
        hit = pool & defect
        if not hit:
            good |= pool
            items ^= pool
            k += 1
            streak += 1
            continue
        if not pool & (pool - 1):
            bad |= pool
            items ^= pool
            k = max(k - 1, 0)
            streak = 0
            mixed_pair = False
        elif k == 1 or (mixed_pair and k == 2):
            # Pair or triple resolution: every item tested on its own.
            tests += pool.bit_count()
            good |= pool ^ hit
            bad |= hit
            items ^= pool
            if k == 1 and hit != pool:
                k = 2
                streak += 1
                mixed_pair = True
            else:
                k -= 1
                streak = 0
                mixed_pair = False
        else:
            spent, g, b = _quarter(pool, k, defect)
            tests += spent
            good |= g
            bad |= b
            items &= ~(g | b)
            k -= 1
            streak = 0
            mixed_pair = False
    return tests, good, bad


def _round(groups: List[int], defect: int) -> Tuple[int, List[int]]:
    """One zc round: the union of the pure groups and the contaminated ones."""
    good = 0
    hit = []
    for group in groups:
        if group & defect:
            hit.append(group)
        else:
            good |= group
    return good, hit


def _split4(items: int, size: int) -> List[int]:
    groups = []
    for _ in range(4):
        group = _prefix(items, size)
        items ^= group
        groups.append(group)
    return groups


def _zc(items: int, defect: int) -> Count:
    """competitive.drive_zc over the ascending sequence of items."""
    n1 = items.bit_count() // 4
    head = _prefix(items, 4 * n1)
    tests, good, bad = _individual(items ^ head, defect)
    if not n1:
        return tests, good, bad
    round_good, hit = _round(_split4(head, n1), defect)
    tests += 4
    good |= round_good
    if not hit:
        return tests, good, bad
    # The groups are disjoint, so sum(hit) is their union.
    if len(hit) == 1:
        sub = _zd(hit[0], defect)
    elif len(hit) >= 3:
        sub = _zu(sum(hit), defect)
    else:
        merged = hit[0] | hit[1]
        n2 = n1 // 2
        head = _prefix(merged, 4 * n2)
        spent, g, b = _individual(merged ^ head, defect)
        tests += spent
        good |= g
        bad |= b
        if not n2:
            return tests, good, bad
        round_good, hit = _round(_split4(head, n2), defect)
        tests += 4
        good |= round_good
        target = sum(hit)
        sub = _zd(target, defect) if len(hit) <= 2 else _zu(target, defect)
    return tests + sub[0], good | sub[1], bad | sub[2]


# One pure counter per strategy, in ALGORITHMS order.
_PURE_COUNTERS = {
    "individual": _individual,
    "zd": _zd,
    "zu": _zu,
    "zc": _zc,
}

ALGORITHMS = tuple(_PURE_COUNTERS)


def _check_algorithm(algorithm: str) -> None:
    if algorithm not in _PURE_COUNTERS:
        raise ValueError(f"unknown algorithm {algorithm!r}")


def count_run(algorithm: str, n: int, defective_mask: int) -> Count:
    _check_algorithm(algorithm)
    if not 0 <= n <= MAX_COUNT_N:
        raise ValueError(f"count_run handles 0 <= n <= {MAX_COUNT_N}")
    if defective_mask < 0 or defective_mask >> n:
        raise ValueError(f"defective mask {defective_mask:#x} outside {n} items")
    return _PURE_COUNTERS[algorithm]((1 << n) - 1, defective_mask)


def sweep(algorithm: str, n: int) -> List[Tuple[int, int]]:
    """Runs every defective mask of n items; returns per-d (worst_tests,
    first mask attaining it). Raises AssertionError on any misclassification.
    """
    _check_algorithm(algorithm)
    if not 0 <= n <= MAX_SWEEP_N:
        raise ValueError(f"sweep handles 0 <= n <= {MAX_SWEEP_N}")
    count = _PURE_COUNTERS[algorithm]
    full = (1 << n) - 1
    worst = [-1] * (n + 1)
    argmax = [0] * (n + 1)
    for mask in range(full + 1):
        tests, good, bad = count(full, mask)
        if bad != mask or good != full ^ mask:
            raise AssertionError(
                f"{algorithm} misclassified mask {mask:#x} at n={n}"
            )
        d = mask.bit_count()
        if tests > worst[d]:
            worst[d] = tests
            argmax[d] = mask
    return list(zip(worst, argmax))
