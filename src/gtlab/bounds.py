"""Closed-form test-count bounds and the checks built from them.

Every evaluator returns a BoundReport; callers read .value only when
.applicable is set. Conventions: d*log2(n/d) is 0 at d=0, while any bare
log2(d) term makes a bound inapplicable at d=0.

A test count is held to a rational bound in integers (BoundReport.admits,
competitive_check's d0 and dense branches), so a float value that rounds
below the bound, as 1.4 * 45 does, decides nothing. Logarithmic bounds
are compared in floats within a slack of 1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

_LN2 = math.log(2)
_LOG2_5 = math.log2(5)
_LOG2_5_3 = math.log2(5 / 3)

# The paper's competitive rate and the shift of its d*log2(n/d) budget.
RATE = 1.431
SHIFT = 1.1242
# RATE in thousandths, for exact comparisons.
_RATE_MILLI = 1431

LOWER = "lower"
UPPER = "upper"


@dataclass(frozen=True)
class BoundReport:
    n: int
    d: Optional[int]
    bound_name: str
    value: float
    applicable: bool
    direction: str
    # A rational bound's exact value as (numerator, denominator > 0); None
    # for a bound only value holds.
    exact: Optional[Tuple[int, int]] = None

    def admits(self, tests: int) -> bool:
        """True when tests is at most this upper bound: exactly when it is
        rational, otherwise within a slack of 1e-9."""
        if self.exact is None:
            return tests <= self.value + 1e-9
        num, den = self.exact
        return tests * den <= num


@lru_cache(maxsize=None)
def budget(d: int, n: int) -> float:
    """The paper's test budget for d defectives among n items,
    RATE * d * (log2(n/d) + SHIFT). Memoized: the analysis asks for the
    same few pairs on every run."""
    return RATE * d * (math.log2(n / d) + SHIFT)


def _na(n: int, d: Optional[int], name: str, direction: str) -> BoundReport:
    return BoundReport(n, d, name, math.nan, False, direction)


def _log2_comb(n: int, d: int) -> float:
    return (math.lgamma(n + 1) - math.lgamma(d + 1) - math.lgamma(n - d + 1)) / _LN2


def info_lower_bound(n: int, d: int) -> BoundReport:
    """Ceiling of log2 of the number of candidate defective sets: exact
    when min(d, n - d) <= 64, so for every n <= 128 and, by Sylvester-Schur,
    whenever C(n, d) is a power of two; from lgamma beyond that."""
    if not 0 <= d <= n:
        raise ValueError("need 0 <= d <= n")
    if min(d, n - d) <= 64:
        value = (math.comb(n, d) - 1).bit_length()
    else:
        # lgamma is within 1e-9 relative error here; guard the ceiling.
        approx = _log2_comb(n, d)
        nearest = round(approx)
        value = nearest if abs(approx - nearest) <= 1e-9 else math.ceil(approx)
    return BoundReport(n, d, "info", float(value), True, LOWER)


def stirling_lower_bound(n: int, d: int, rho: float = 0.5) -> BoundReport:
    name = "stirling"
    if not (0 < rho < 1 and 0 < d < rho * n):
        return _na(n, d, name, LOWER)
    value = (
        d * (math.log2(n / d) + math.log2(math.e * math.sqrt(1 - rho)))
        - 0.5 * math.log2(d)
        - 0.5 * math.log2(1 - rho)
        - 1.567
    )
    return BoundReport(n, d, name, value, True, LOWER)


def entropy_lower_bound(n: int, d: int) -> BoundReport:
    name = "entropy"
    if not 0 < 2 * d <= n:
        return _na(n, d, name, LOWER)
    r = n / d
    value = d * (math.log2(r) + (r - 1) * math.log2(r / (r - 1))) - 0.5 * math.log2(d) - 1.5
    return BoundReport(n, d, name, value, True, LOWER)


def dense_exact(n: int, d: int) -> BoundReport:
    """Exact optimum n-1 when defectives are at least 8/21 of the items."""
    name = "dense-exact"
    if 8 * n <= 21 * d and d < n:
        return BoundReport(n, d, name, float(n - 1), True, LOWER)
    return _na(n, d, name, LOWER)


def lower_bounds(n: int, d: int, rho: float) -> List[BoundReport]:
    """Every lower-bound report at (n, d): info, stirling, entropy and
    dense-exact, in that order. Raises unless 0 <= d <= n."""
    return [
        info_lower_bound(n, d),
        stirling_lower_bound(n, d, rho),
        entropy_lower_bound(n, d),
        dense_exact(n, d),
    ]


def best_lower_bound(n: int, d: int, rho: float = 0.5) -> float:
    if not 0 <= d < n:
        raise ValueError("need 0 <= d < n")
    return max(r.value for r in lower_bounds(n, d, rho) if r.applicable)


def zd_upper(n: int, d: int) -> BoundReport:
    name = "zd-upper"
    if not 1 <= d <= n:
        return _na(n, d, name, UPPER)
    logd = math.log2(d)
    value = (
        d * math.log2(n / d)
        + (5 - _LOG2_5) * d
        + 0.5 * logd * logd
        + (_LOG2_5_3 + 1.5) * logd
        + 4
    )
    return BoundReport(n, d, name, value, True, UPPER)


def zu_upper_d(n: int, d: int) -> BoundReport:
    name = "zu-upper-d"
    if not 3 <= d <= n:
        return _na(n, d, name, UPPER)
    value = budget(d, n) + 23
    return BoundReport(n, d, name, value, True, UPPER)


def zu_upper_n(n: int) -> BoundReport:
    name = "zu-upper-n"
    if n < 1:
        return _na(n, None, name, UPPER)
    return BoundReport(n, None, name, 1.4 * n, True, UPPER, (7 * n, 5))


def zc_upper_d(n: int, d: int, constant: int = 32) -> BoundReport:
    if constant not in (23, 32):
        raise ValueError("constant must be 23 or 32")
    name = f"zc-upper-d{constant}"
    if not 1 <= d <= n:
        return _na(n, d, name, UPPER)
    value = budget(d, n) + constant
    return BoundReport(n, d, name, value, True, UPPER)


def zc_upper_n(n: int) -> BoundReport:
    name = "zc-upper-n"
    if n < 1:
        return _na(n, None, name, UPPER)
    return BoundReport(n, None, name, 1.4 * n + 13, True, UPPER, (7 * n + 65, 5))


def hwang_upper(n: int, d: int) -> BoundReport:
    name = "hwang"
    if not 1 <= d <= n:
        return _na(n, d, name, UPPER)
    value = info_lower_bound(n, d).value + d - 1
    return BoundReport(n, d, name, value, True, UPPER)


def zd_pretest_upper(n: int, d: int) -> BoundReport:
    name = "zd-pretest"
    if not 0 <= d <= n or n < 1:
        return _na(n, d, name, UPPER)
    term = 0.0 if d == 0 else RATE * d * (math.log2(n / d) + 1)
    return BoundReport(n, d, name, term + 4, True, UPPER)


def zd_pretest_upper_n(n: int) -> BoundReport:
    name = "zd-pretest-n"
    if n < 1:
        return _na(n, None, name, UPPER)
    return BoundReport(n, None, name, 1.07325 * n + 4, True, UPPER)


@dataclass(frozen=True)
class CompetitiveVerdict:
    applicable: bool
    branch: str
    limit: float
    ok: bool


def competitive_check(n: int, d: int, tests: int) -> CompetitiveVerdict:
    """Checks a run's test count against the budget of its regime.

    The d0 branch allows 7 tests, the dense branch (8n <= 21d) RATE*(n-1)
    + 15, and the sparse branch RATE times the entropy lower bound plus 39.
    Sparse means 1 <= d and 21d < 8n, so 2d < 16n/21 < n and the entropy
    bound always applies. d >= n is excluded. The d0 and dense budgets are
    rational and decided in integers; limit is their float.
    """
    if not 0 <= d < n:
        return CompetitiveVerdict(False, "excluded", math.nan, True)
    if d == 0:
        return CompetitiveVerdict(True, "d0", 7.0, tests <= 7)
    if 8 * n <= 21 * d:
        limit = RATE * (n - 1) + 15
        ok = 1000 * tests <= _RATE_MILLI * (n - 1) + 15000
        return CompetitiveVerdict(True, "dense", limit, ok)
    limit = RATE * entropy_lower_bound(n, d).value + 39
    return CompetitiveVerdict(True, "sparse", limit, tests <= limit + 1e-9)


def merge_bound_check(n1: int, d1: int, n2: int, d2: int) -> bool:
    if n1 <= 0 or n2 <= 0 or d1 < 0 or d2 < 0:
        raise ValueError("need positive sizes and nonnegative counts")
    if d1 > n1 or d2 > n2:
        raise ValueError(f"need d <= n on each side, got d1={d1}, n1={n1}, d2={d2}, n2={n2}")

    def side(n: int, d: int) -> float:
        return 0.0 if d == 0 else d * math.log2(n / d)

    lhs = side(n1, d1) + side(n2, d2)
    rhs = side(n1 + n2, d1 + d2)
    # Exact in reals; the slack only absorbs float rounding.
    return lhs <= rhs + 1e-9
