import json
import random
from functools import partial

import pytest

from gtlab import harness, kernels, zigzag
from gtlab.analysis import transcript_json
from gtlab.competitive import ZcPlan
from gtlab.core import DEFECTIVE, GOOD, INCURRED, PoolOracle, finalize, instance_from_mask
from gtlab.tree import ListOracle, walk


def _leaf_masks(n, masks, algorithm="zu"):
    strategy = kernels.STRATEGIES[algorithm]
    leaves = walk(strategy.step, strategy.start, n, masks)
    return sorted(session.defective_mask for session, _ in leaves)


def _walked(algorithm, n, masks):
    """(tests, transcript, plan) of every leaf of a walk over masks, by the
    mask of the items it identified as defective; a mask reached twice fails."""
    strategy = kernels.STRATEGIES[algorithm]
    plan_of = strategy.plan_of
    leaves = {}
    for session, state in walk(strategy.step, strategy.start, n, masks):
        result = session.result(algorithm, plan_of(state) if plan_of else None)
        mask = session.defective_mask
        assert mask not in leaves, (algorithm, n, mask)
        leaves[mask] = (result.tests_used, transcript_json(result.transcript), result.plan)
    return leaves


def test_walk_leaves_are_the_recorded_runs():
    # For every strategy, every leaf's test count, transcript and plan equal
    # the recorded run on its mask: walked over all masks for n <= 10, and
    # over the masks of each weight d for n <= 12.
    for algorithm, runner in harness.RUNNERS.items():
        for n in range(13):
            recorded = {}
            for mask in range(1 << n):
                run = runner(PoolOracle(instance_from_mask(n, mask)))
                recorded[mask] = (run.tests_used, transcript_json(run.transcript), run.plan)
            if n <= 10:
                assert _walked(algorithm, n, range(1 << n)) == recorded, (algorithm, n)
            for d in range(n + 1):
                family = list(harness._masks_of_weight(n, d))
                by_weight = _walked(algorithm, n, family)
                assert by_weight == {m: recorded[m] for m in family}, (algorithm, n, d)
    assert _walked("zc", 0, [0])[0][2] == ZcPlan(0, 0)


@pytest.mark.parametrize("lo, hi", [(0, 1), (1, 300), (300, 1 << 10), (513, 514)])
def test_walk_over_a_range_reaches_exactly_its_masks(lo, hi):
    assert _leaf_masks(10, range(lo, hi)) == list(range(lo, hi))


def test_walk_over_37_mask_shards_reaches_exactly_their_masks():
    n = 10
    for lo in range(0, 1 << n, 37):
        hi = min(lo + 37, 1 << n)
        assert _leaf_masks(n, range(lo, hi)) == list(range(lo, hi)), lo


def test_walk_over_an_empty_range_has_no_leaves():
    assert _leaf_masks(6, range(5, 5)) == []


@pytest.mark.parametrize("algorithm", kernels.ALGORITHMS)
def test_walk_over_a_list_reaches_exactly_its_masks(algorithm):
    n = 11
    rng = random.Random(algorithm)
    subset = sorted(rng.sample(range(1 << n), 300))
    lists = [
        list(harness._masks_of_weight(n, 3)),
        [0b10010000101],
        [],
        subset,
        subset[::-1],
    ]
    for masks in lists:
        assert _leaf_masks(n, masks, algorithm) == sorted(masks), masks[:3]


def test_list_oracle_rejects_bad_pools_like_the_pool_oracle():
    oracle = ListOracle(4)
    oracle.start(range(16), ())
    with pytest.raises(ValueError, match="^empty pool$"):
        oracle.contaminated([])
    with pytest.raises(ValueError, match=r"^pool index 4 outside \[0, 4\)$"):
        oracle.contaminated([1, 4, -2])
    assert oracle.answers == []


def test_list_oracle_answers_what_the_masks_force():
    # Masks 0b1000..0b1011 of 4 items: item 3 defective, item 2 good.
    oracle = ListOracle(4)
    oracle.start(range(0b1000, 0b1100), ())
    assert oracle.contaminated([3]) is True
    assert oracle.contaminated([2]) is False
    assert oracle.forks == []
    # Items 0 and 1 are free: pure first, with the masks meeting them left
    # to explore.
    assert oracle.contaminated([0, 1]) is False
    assert oracle.forks == [(2, [0b1001, 0b1010, 0b1011])]
    assert oracle.masks == [0b1000]
    assert oracle.answers == [True, False, False]


def test_list_oracle_forks_only_when_both_answers_are_allowed():
    oracle = ListOracle(3)
    oracle.start([0b011, 0b101], ())
    # Every mask meets item 0: contaminated, no fork.
    assert oracle.contaminated([0]) is True
    # Item 1 splits the masks: pure for 0b101, 0b011 left to explore.
    assert oracle.contaminated([1]) is False
    # Only 0b101 is left, and it meets item 2.
    assert oracle.contaminated([2]) is True
    assert oracle.forks == [(1, [0b011])]
    assert oracle.masks == [0b101]


def test_list_oracle_replays_its_script_before_answering():
    oracle = ListOracle(3)
    oracle.start([0b011], [False, True])
    # The script is replayed whatever the masks say, and forks nothing.
    assert oracle.contaminated([0]) is False
    assert oracle.contaminated([2]) is True
    assert oracle.contaminated([1]) is True
    assert oracle.contaminated([2]) is False
    assert oracle.forks == []
    assert oracle.answers == [False, True, True, False]


def _broken_quarter_split(session, items, k, parent):
    # Tests only the pool's last item and labels it the opposite of the
    # answer.
    last = items[-1]
    hit = session.query([last], INCURRED, parent=parent)
    session.identify(last, GOOD if hit else DEFECTIVE, parent, True)


def _dump(exc_info):
    message = str(exc_info.value)
    return json.loads(message.split(": ", 1)[1])


def _draws(n, d, samples, seed):
    # The masks sampled worst_case draws, in draw order.
    rng = random.Random(seed)
    return [sum(1 << i for i in rng.sample(range(n), d)) for _ in range(samples)]


def _assert_names_the_first_failing_mask(dump, algorithm, n, masks):
    # The dump is the recorded run's on the first of the masks, in their
    # order, on which that run fails finalize: one of the masks, the ground
    # truth.
    assert dump["failed_check"] == "finalize"
    assert dump["instance"]["n"] == n
    failing = sum(1 << i for i in dump["instance"]["defectives"])
    assert failing in masks
    for mask in masks:
        instance = instance_from_mask(n, mask)
        run = harness.RUNNERS[algorithm](PoolOracle(instance))
        if mask == failing:
            assert not finalize(run, instance).ok
            assert dump["transcript"] == transcript_json(run.transcript)
            return
        assert finalize(run, instance).ok, (algorithm, n, mask)


def test_a_broken_zu_fails_finalize_on_the_walk_as_on_recorded_runs(monkeypatch):
    monkeypatch.setattr(zigzag, "quarter_split", _broken_quarter_split)
    n = 8
    with pytest.raises(AssertionError, match=r"^zu failed correctness at n=8: ") as walked:
        harness._walk_upward_runs(n, 0, 1 << n)
    _assert_names_the_first_failing_mask(_dump(walked), "zu", n, range(1 << n))
    # Exhaustive worst cases walk the tree too.
    for algorithm in ["zu", "zd", "zc"]:
        match = rf"^{algorithm} failed correctness at n=8: "
        with pytest.raises(AssertionError, match=match) as exhaustive:
            harness.worst_case(algorithm, n, 2)
        family = list(harness._masks_of_weight(n, 2))
        _assert_names_the_first_failing_mask(_dump(exhaustive), algorithm, n, family)
    # So do sampled ones, over their distinct draws; the dump is the first
    # failing draw's, in draw order.
    with pytest.raises(AssertionError, match=r"^zu failed correctness at n=8: ") as sampled:
        harness.worst_case("zu", n, 2, mode="sampled", samples=50, seed=1)
    _assert_names_the_first_failing_mask(_dump(sampled), "zu", n, _draws(n, 2, 50, 1))


def test_exhaustive_worst_case_is_the_same_in_small_blocks(monkeypatch):
    cells = [(alg, n, d) for alg in kernels.ALGORITHMS for n in (7, 10) for d in (0, 1, 3)]
    default = [harness.worst_case(*cell) for cell in cells]
    monkeypatch.setattr(kernels, "BLOCK", 1 << 2)
    assert [harness.worst_case(*cell) for cell in cells] == default


@pytest.mark.parametrize("algorithm, n, d", [("zu", 8, 2), ("zc", 10, 3)])
def test_a_failure_in_a_later_block_names_the_first_failing_mask(
    monkeypatch, algorithm, n, d
):
    monkeypatch.setattr(zigzag, "quarter_split", _broken_quarter_split)
    monkeypatch.setattr(kernels, "BLOCK", 1 << 2)
    match = rf"^{algorithm} failed correctness at n={n}: "
    with pytest.raises(AssertionError, match=match) as exc:
        harness.worst_case(algorithm, n, d)
    dump = _dump(exc)
    family = list(harness._masks_of_weight(n, d))
    _assert_names_the_first_failing_mask(dump, algorithm, n, family)
    # The first failing mask is past the first block: the blocks before it
    # passed, and their masks' recorded runs pass too.
    failing = sum(1 << i for i in dump["instance"]["defectives"])
    assert family.index(failing) >= kernels.BLOCK


def _tampered(tamper):
    def tampered_walk(*args):
        # A leaf is valid until the walk resumes, so the first one can be
        # yielded twice before asking for the next.
        leaves = walk(*args)
        first = next(leaves)
        if tamper == "repeated":
            yield first
            yield first
        yield from leaves

    return tampered_walk


# Both consumers of harness._walked_runs, each with the size of its family.
@pytest.mark.parametrize("tamper", ["missing", "repeated"])
@pytest.mark.parametrize(
    "consume, count",
    [
        *(
            pytest.param(partial(harness.worst_case, alg, 8, 3), 56, id=f"worst_case-{alg}")
            for alg in kernels.ALGORITHMS
        ),
        pytest.param(partial(harness._walk_upward_runs, 6, 0, 1 << 6), 64, id="analysis"),
    ],
)
def test_a_walk_that_misses_or_repeats_a_mask_is_rejected(monkeypatch, consume, count, tamper):
    message = {"missing": f"not each of the {count} masks once", "repeated": "twice"}
    monkeypatch.setattr(harness, "walk", _tampered(tamper))
    with pytest.raises(AssertionError, match=message[tamper]):
        consume()


@pytest.mark.parametrize(
    "consume, algorithm, n, count",
    [
        pytest.param(partial(harness.worst_case, "zd", 8, 3), "zd", 8, 56, id="worst_case"),
        pytest.param(partial(harness._walk_upward_runs, 6, 0, 32), "zu", 6, 32, id="analysis"),
    ],
)
def test_a_walk_that_reaches_a_mask_outside_its_list_is_rejected(
    monkeypatch, consume, algorithm, n, count
):
    # The tampered walk also walks the all-defective mask, which is in
    # neither family; every recorded run passes, so the walk's error stands.
    def wider_walk(step, start, n, masks):
        return walk(step, start, n, [*masks, (1 << n) - 1])

    monkeypatch.setattr(harness, "walk", wider_walk)
    full = (1 << n) - 1
    message = f"^{algorithm} walk at n={n} reached mask {full:#x}, not one of its {count} masks$"
    with pytest.raises(AssertionError, match=message):
        consume()
