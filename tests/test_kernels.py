import pytest
from hypothesis import given, settings, strategies as st

from gtlab import kernels
from gtlab.core import DEFECTIVE, GOOD, PoolOracle, instance_from_mask
from gtlab.harness import RUNNERS


def test_backend_is_declared():
    assert kernels.BACKEND == "pure"
    assert kernels.ALGORITHMS == ("individual", "zd", "zu", "zc")


def test_pure_count_matches_recorded_runs():
    for algorithm in kernels.ALGORITHMS:
        for n in range(0, 9):
            for mask in range(1 << n):
                tests, good, bad = kernels.count_run(algorithm, n, mask)
                inst = instance_from_mask(n, mask)
                result = RUNNERS[algorithm](PoolOracle(inst))
                assert tests == result.tests_used, (algorithm, n, mask)
                assert bad == mask
                assert good == ((1 << n) - 1) & ~mask


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(kernels.ALGORITHMS), st.integers(9, kernels.MAX_COUNT_N), st.data())
def test_pure_count_matches_recorded_runs_at_larger_n(algorithm, n, data):
    # Sparse masks reach the long pure streaks that dense ones rarely do.
    sparse = st.sets(st.integers(0, n - 1), max_size=4).map(
        lambda items: sum(1 << i for i in items)
    )
    mask = data.draw(st.one_of(st.integers(0, (1 << n) - 1), sparse))
    tests, good, bad = kernels.count_run(algorithm, n, mask)
    result = RUNNERS[algorithm](PoolOracle(instance_from_mask(n, mask)))
    labels = result.transcript.classified().items()
    recorded_bad = sum(1 << i for i, lab in labels if lab == DEFECTIVE)
    recorded_good = sum(1 << i for i, lab in labels if lab == GOOD)
    assert tests == result.tests_used
    assert (good, bad) == (recorded_good, recorded_bad)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(["zd", "zu", "zc"]), st.integers(97, 200), st.data())
def test_pure_counter_matches_recorded_runs_past_count_run_range(algorithm, n, data):
    # zu's whole-remaining test after six pure results first fires at n=97,
    # and zd starts at rank 8 or 9 (the largest extraction plans) for these
    # n, both beyond count_run's range, so the counter itself is pinned here.
    defectives = data.draw(st.sets(st.integers(0, n - 1), max_size=3))
    mask = sum(1 << i for i in defectives)
    [(masks, *counted)] = kernels.STRATEGIES[algorithm].count((1 << n) - 1, [mask])
    result = RUNNERS[algorithm](PoolOracle(instance_from_mask(n, mask)))
    assert masks == [mask]
    assert counted == [result.tests_used, ((1 << n) - 1) ^ mask, mask]


def _tampered(monkeypatch, algorithm, tamper):
    """Replaces algorithm's counter with one whose leaves pass through
    tamper(leaf), which yields what the sweep then sees in its place."""
    honest = kernels.STRATEGIES[algorithm]

    def counter(items, masks):
        for leaf in honest.count(items, masks):
            yield from tamper(leaf)

    monkeypatch.setitem(kernels.STRATEGIES, algorithm, honest._replace(count=counter))


def test_sweep_ground_truth_check_fires(monkeypatch):
    def drops_a_defective(leaf):
        masks, tests, good, bad = leaf
        yield masks, tests, good, bad & (bad - 1)

    _tampered(monkeypatch, "zd", drops_a_defective)
    with pytest.raises(AssertionError, match="misclassified"):
        kernels.sweep("zd", 5)


def test_sweep_rejects_a_leaf_of_two_masks(monkeypatch):
    pending = []

    def merges_two_leaves(leaf):
        pending.append(leaf)
        if len(pending) == 2:
            (a, tests, good, bad), (b, _, _, _) = pending
            yield [*a, *b], tests, good, bad

    _tampered(monkeypatch, "zu", merges_two_leaves)
    with pytest.raises(AssertionError, match="misclassified 2 masks"):
        kernels.sweep("zu", 4)


# With 2^3-mask blocks, mask 0x2c lies in the sixth block of n = 7.
@pytest.mark.parametrize("block", [kernels.BLOCK, 1 << 3])
@pytest.mark.parametrize("algorithm", kernels.ALGORITHMS)
def test_sweep_rejects_a_counter_that_drops_a_mask(monkeypatch, algorithm, block):
    def drops_mask_0x2c(leaf):
        if leaf[0] != [0x2C]:
            yield leaf

    monkeypatch.setattr(kernels, "BLOCK", block)
    _tampered(monkeypatch, algorithm, drops_mask_0x2c)
    with pytest.raises(AssertionError, match=f"{algorithm} never reached mask 0x2c at n=7"):
        kernels.sweep(algorithm, 7)


@pytest.mark.parametrize("algorithm", kernels.ALGORITHMS)
def test_sweep_rejects_a_counter_that_reaches_a_mask_twice(monkeypatch, algorithm):
    def repeats_mask_5(leaf):
        yield leaf
        if leaf[0] == [5]:
            yield leaf

    _tampered(monkeypatch, algorithm, repeats_mask_5)
    with pytest.raises(AssertionError, match=f"{algorithm} reached mask 0x5 twice at n=6"):
        kernels.sweep(algorithm, 6)


@pytest.mark.parametrize("algorithm", kernels.ALGORITHMS)
def test_sweep_rejects_a_counter_that_leaves_its_block(monkeypatch, algorithm):
    # With 2^3-mask blocks, mask 0x15 lies in the third block of n = 5; the
    # tampered leaf names it, correctly classified, in the first.
    def moves_mask_5_to_0x15(leaf):
        masks, tests, good, bad = leaf
        if masks == [5]:
            masks, good, bad = [0x15], 0x1F ^ 0x15, 0x15
        yield masks, tests, good, bad

    monkeypatch.setattr(kernels, "BLOCK", 1 << 3)
    _tampered(monkeypatch, algorithm, moves_mask_5_to_0x15)
    with pytest.raises(
        AssertionError, match=f"^{algorithm} reached mask 0x15 outside its block at n=5$"
    ):
        kernels.sweep(algorithm, 5)


def test_sweep_is_the_same_in_small_blocks(monkeypatch):
    default = {
        (algorithm, n): kernels.sweep(algorithm, n)
        for algorithm in kernels.ALGORITHMS
        for n in range(11)
    }
    monkeypatch.setattr(kernels, "BLOCK", 1 << 3)
    for (algorithm, n), per_d in default.items():
        assert kernels.sweep(algorithm, n) == per_d, (algorithm, n)


def test_count_run_rejects_masks_outside_n():
    for n, mask in [(4, 1 << 10), (4, 1 << 4), (0, 1), (8, -1)]:
        with pytest.raises(ValueError):
            kernels.count_run("zd", n, mask)
    assert kernels.count_run("zd", 4, 0b1000)[2] == 0b1000


def test_count_run_rejects_unsupported_sizes_and_algorithms():
    with pytest.raises(ValueError):
        kernels.count_run("zd", -1, 0)
    with pytest.raises(ValueError):
        kernels.count_run("zd", kernels.MAX_COUNT_N + 1, 0)
    with pytest.raises(ValueError):
        kernels.count_run("sorting", 4, 0)


def test_sweep_rejects_sizes_outside_its_limit():
    assert kernels.MAX_SWEEP_N == 24
    with pytest.raises(ValueError):
        kernels.sweep("zd", kernels.MAX_SWEEP_N + 1)
    with pytest.raises(ValueError):
        kernels.sweep("zd", -1)


def test_sweep_orders_results_by_defective_count():
    per_d = kernels.sweep("zd", 7)
    assert len(per_d) == 8
    assert per_d[0][0] == 1  # single pure pool test
    for d, (worst, argmax) in enumerate(per_d):
        assert argmax.bit_count() == d
        assert worst >= 1


def test_sweep_argmax_is_first_attaining():
    per_d = kernels.sweep("zu", 8)
    for d, (worst, argmax) in enumerate(per_d):
        for mask in range(argmax):
            if mask.bit_count() == d:
                tests, _, _ = kernels.count_run("zu", 8, mask)
                assert tests < worst


def test_rejects_unknown_algorithm_and_bad_sizes():
    with pytest.raises(ValueError):
        kernels.sweep("sorting", 4)
    with pytest.raises(ValueError):
        kernels.sweep("zd", 63)
