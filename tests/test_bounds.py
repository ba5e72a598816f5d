import math

import pytest
from hypothesis import given, settings, strategies as st

from gtlab import bounds

# Values pinned from the closed-form expressions, evaluated independently.
STIRLING_1024_1 = 9.875695040888964
ENTROPY_100_10 = 43.73859531148444
ZD_UPPER_1024_1 = 16.67807190511264


def test_info_lower_bound_small_exact():
    assert bounds.info_lower_bound(4, 2).value == 3.0
    assert bounds.info_lower_bound(8, 1).value == 3.0
    assert bounds.info_lower_bound(8, 0).value == 0.0
    assert bounds.info_lower_bound(8, 8).value == 0.0


def test_info_lower_bound_rejects_bad_d():
    with pytest.raises(ValueError):
        bounds.info_lower_bound(4, 5)
    with pytest.raises(ValueError):
        bounds.info_lower_bound(4, -1)


def test_info_lower_bound_large_matches_exact_ceiling():
    # The lgamma path beyond n=64 must agree with exact arithmetic.
    for n, d in [(65, 3), (100, 10), (200, 7), (500, 250)]:
        exact = (math.comb(n, d) - 1).bit_length()
        assert bounds.info_lower_bound(n, d).value == float(exact), (n, d)


def test_stirling_pinned_value():
    rep = bounds.stirling_lower_bound(1024, 1)
    assert rep.applicable
    assert rep.value == pytest.approx(STIRLING_1024_1, abs=1e-12)
    assert rep.direction == "lower"


def test_stirling_domain():
    assert not bounds.stirling_lower_bound(10, 0).applicable
    assert not bounds.stirling_lower_bound(10, 5, rho=0.5).applicable  # d = rho*n
    assert not bounds.stirling_lower_bound(10, 3, rho=1.0).applicable
    assert bounds.stirling_lower_bound(10, 3, rho=0.5).applicable


def test_entropy_pinned_values():
    assert bounds.entropy_lower_bound(100, 10).value == pytest.approx(
        ENTROPY_100_10, abs=1e-12
    )
    assert bounds.entropy_lower_bound(2, 1).value == pytest.approx(0.5, abs=1e-12)


def test_entropy_domain():
    assert not bounds.entropy_lower_bound(10, 0).applicable
    assert not bounds.entropy_lower_bound(10, 6).applicable  # 2d > n
    assert bounds.entropy_lower_bound(10, 5).applicable


def test_lower_bounds_never_exceed_information_content():
    for n in range(1, 21):
        for d in range(0, n + 1):
            log_states = math.log2(math.comb(n, d)) if math.comb(n, d) > 1 else 0.0
            for rep in (
                bounds.stirling_lower_bound(n, d),
                bounds.entropy_lower_bound(n, d),
            ):
                if rep.applicable:
                    assert rep.value <= log_states + 1e-9, (n, d, rep)


def test_dense_exact_threshold():
    assert bounds.dense_exact(21, 8).applicable
    assert not bounds.dense_exact(22, 8).applicable
    assert bounds.dense_exact(21, 8).value == 20.0
    assert not bounds.dense_exact(4, 4).applicable  # d = n excluded
    assert bounds.dense_exact(4, 3).value == 3.0


def test_best_lower_bound_picks_the_max():
    assert bounds.best_lower_bound(100, 10) == 44.0  # info ceiling wins there
    assert bounds.best_lower_bound(4, 3) == 3.0  # dense-exact wins there
    with pytest.raises(ValueError):
        bounds.best_lower_bound(4, 4)


def test_best_lower_bound_stays_below_hwang():
    for n in range(2, 21):
        for d in range(1, n):
            assert (
                bounds.best_lower_bound(n, d)
                <= bounds.hwang_upper(n, d).value + 1e-9
            ), (n, d)


def test_zd_upper_pinned_value():
    rep = bounds.zd_upper(1024, 1)
    assert rep.value == pytest.approx(ZD_UPPER_1024_1, abs=1e-12)
    assert rep.direction == "upper"
    assert not bounds.zd_upper(10, 0).applicable


def test_zu_upper_variants():
    assert bounds.zu_upper_n(10).value == 14.0
    assert not bounds.zu_upper_d(10, 2).applicable
    assert bounds.zu_upper_d(10, 3).applicable
    # the d-form is the n-form's summand plus a larger constant
    rep = bounds.zu_upper_d(100, 10)
    assert rep.value == pytest.approx(
        1.431 * 10 * (math.log2(10) + 1.1242) + 23, abs=1e-9
    )


def test_zc_upper_constants():
    a = bounds.zc_upper_d(100, 10)
    b = bounds.zc_upper_d(100, 10, constant=23)
    assert a.bound_name == "zc-upper-d32"
    assert b.bound_name == "zc-upper-d23"
    assert a.value - b.value == pytest.approx(9.0, abs=1e-12)
    with pytest.raises(ValueError):
        bounds.zc_upper_d(100, 10, constant=30)
    assert bounds.zc_upper_n(100).value == 153.0


def test_hwang_pinned_value():
    assert bounds.hwang_upper(8, 2).value == 6.0
    assert not bounds.hwang_upper(8, 0).applicable


def test_pretest_forms():
    assert bounds.zd_pretest_upper(100, 0).value == 4.0
    assert bounds.zd_pretest_upper_n(100).value == pytest.approx(111.325, abs=1e-12)


def test_competitive_check_branches():
    dense = bounds.competitive_check(8, 4, 25)
    assert dense.branch == "dense" and dense.ok
    assert dense.limit == pytest.approx(1.431 * 7 + 15, abs=1e-9)
    assert not bounds.competitive_check(8, 4, 26).ok

    d0 = bounds.competitive_check(8, 0, 7)
    assert d0.branch == "d0" and d0.ok
    assert not bounds.competitive_check(8, 0, 8).ok

    sparse = bounds.competitive_check(100, 10, 40)
    assert sparse.branch == "sparse"

    excluded = bounds.competitive_check(8, 8, 12)
    assert not excluded.applicable


def test_competitive_proxy_branch_never_fires_in_range():
    # The sparse regime is 1 <= d and 21d < 8n, so 2d < 16n/21 < n and the
    # entropy lower bound always applies: d0, dense and sparse are the only
    # branches below d = n.
    for n in range(2, 61):
        for d in range(0, n):
            verdict = bounds.competitive_check(n, d, 1)
            assert verdict.branch in ("d0", "dense", "sparse"), (n, d, verdict)


def test_merge_bound_pinned_and_random():
    assert bounds.merge_bound_check(8, 2, 8, 2)
    with pytest.raises(ValueError):
        bounds.merge_bound_check(0, 0, 8, 2)


@pytest.mark.parametrize("n1, d1, n2, d2", [(2, 5, 8, 2), (8, 2, 2, 5), (1, 2, 1, 0)])
def test_merge_bound_rejects_more_defectives_than_items(n1, d1, n2, d2):
    with pytest.raises(ValueError, match="need d <= n on each side"):
        bounds.merge_bound_check(n1, d1, n2, d2)
    # d = n is still a valid side.
    assert bounds.merge_bound_check(n1, min(d1, n1), n2, min(d2, n2))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 10**6),
    st.integers(1, 10**6),
    st.data(),
)
def test_merge_bound_holds_everywhere(n1, n2, data):
    d1 = data.draw(st.integers(1, n1))
    d2 = data.draw(st.integers(1, n2))
    assert bounds.merge_bound_check(n1, d1, n2, d2)


@given(st.integers(1, 64), st.integers(0, 64))
def test_info_bound_is_the_exact_bit_length(n, d):
    if d > n:
        return
    rep = bounds.info_lower_bound(n, d)
    assert rep.value == float((math.comb(n, d) - 1).bit_length())
