from hypothesis import given, settings, strategies as st

from gtlab.competitive import run_individual, run_zc
from gtlab.core import Instance, PoolOracle, finalize, instance_from_mask


def _run(n, defectives):
    inst = Instance(n, frozenset(defectives))
    result = run_zc(PoolOracle(inst))
    verdict = finalize(result, inst)
    assert verdict.ok, verdict.problems
    return result


def test_individual_testing_spends_exactly_n():
    for n in range(1, 9):
        for mask in range(1 << n):
            inst = instance_from_mask(n, mask)
            result = run_individual(PoolOracle(inst))
            assert result.tests_used == n
            assert finalize(result, inst).ok


def test_small_input_is_scanned_without_quarters():
    result = _run(3, {1})
    assert result.tests_used == 3
    assert result.plan.n1 == 0
    assert result.plan.nR1 == 3
    assert result.plan.alpha1 is None


def test_tail_is_tested_before_the_quarters():
    result = _run(11, {3, 7})
    pools = [r.pool for r in result.transcript.records]
    # 11 = 4*2 + 3: items 8, 9, 10 go one by one first
    assert pools[0] == (8,)
    assert pools[1] == (9,)
    assert pools[2] == (10,)
    assert len(pools[3]) == 2


def test_clean_run_stops_after_four_quarters():
    result = _run(8, set())
    assert result.tests_used == 4
    assert result.plan.alpha1 == 0
    assert result.plan.n2 is None


def test_one_contaminated_quarter_hands_off_downward():
    result = _run(8, {0})
    plan = result.plan
    assert plan.alpha1 == 1
    assert plan.n2 is None
    assert result.tests_used == 7


def test_two_contaminated_quarters_run_a_second_round():
    result = _run(11, {3, 7})
    plan = result.plan
    assert (plan.n1, plan.nR1, plan.alpha1) == (2, 3, 2)
    assert (plan.n2, plan.nR2, plan.alpha2) == (1, 0, 2)
    assert result.tests_used == 14


def test_three_or_more_contaminated_quarters_hand_off_upward():
    result = _run(16, {0, 4, 8, 12})
    assert result.plan.alpha1 == 4
    assert result.plan.n2 is None
    assert result.tests_used == 19


def test_all_defective_four_items():
    result = _run(4, {0, 1, 2, 3})
    assert result.tests_used == 8
    assert result.plan.alpha1 == 4


def test_contaminated_quarter_identifies_nothing_at_round_time():
    # Only pure quarters classify their items during the round itself.
    result = _run(12, {5})
    records = result.transcript.records
    quarter_seqs = [r.seq for r in records[:4]]
    idents = result.transcript.identifications
    for ident in idents:
        if ident.attributed_to in quarter_seqs:
            assert ident.label == "good"


def test_exhaustive_small_instances_classify_correctly():
    for n in range(1, 11):
        for mask in range(1 << n):
            inst = instance_from_mask(n, mask)
            result = run_zc(PoolOracle(inst))
            verdict = finalize(result, inst)
            assert verdict.ok, (n, mask, verdict.problems)


def test_plan_shape_matches_division():
    for n in range(1, 40):
        result = _run(n, {n - 1})
        plan = result.plan
        assert plan.n1 == n // 4
        assert plan.nR1 == n - 4 * plan.n1


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 150), st.data())
def test_random_instances_finalize(n, data):
    mask = data.draw(st.integers(0, (1 << n) - 1))
    inst = instance_from_mask(n, mask)
    result = run_zc(PoolOracle(inst))
    assert finalize(result, inst).ok
    assert result.plan.n1 == n // 4
