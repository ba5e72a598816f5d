import json

import pytest

from gtlab import harness, zigzag
from gtlab.analysis import transcript_json
from gtlab.core import DEFECTIVE, INCURRED, PoolOracle, Session, instance_from_mask
from gtlab.tree import BranchingOracle, aligned_blocks, walk
from gtlab.zigzag import ZU_START, run_zu, zu_step


def _leaf_masks(n, lo, hi):
    return sorted(session.defective_mask for session in walk(zu_step, ZU_START, n, lo, hi))


def test_walk_leaves_are_the_recorded_runs():
    # Every mask for n <= 12, walked in the grid's shards: each leaf's test
    # count and transcript equal the recorded run on that mask.
    for n in range(1, 13):
        leaves = {}
        for lo in range(0, 1 << n, harness._ANALYSIS_SHARD):
            hi = min(lo + harness._ANALYSIS_SHARD, 1 << n)
            for session in walk(zu_step, ZU_START, n, lo, hi):
                result = session.result("zu")
                mask = session.defective_mask
                assert mask not in leaves, (n, mask)
                leaves[mask] = (result.tests_used, transcript_json(result.transcript))
        assert sorted(leaves) == list(range(1 << n)), n
        for mask, leaf in leaves.items():
            run = run_zu(PoolOracle(instance_from_mask(n, mask)))
            assert leaf == (run.tests_used, transcript_json(run.transcript)), (n, mask)


@pytest.mark.parametrize("lo, hi", [(0, 1), (1, 300), (300, 1 << 10), (513, 514)])
def test_walk_over_a_range_reaches_exactly_its_masks(lo, hi):
    assert _leaf_masks(10, lo, hi) == list(range(lo, hi))


def test_walk_over_37_mask_shards_reaches_exactly_their_masks():
    n = 10
    for lo in range(0, 1 << n, 37):
        hi = min(lo + 37, 1 << n)
        assert _leaf_masks(n, lo, hi) == list(range(lo, hi)), lo


def test_walk_over_an_empty_range_has_no_leaves():
    assert _leaf_masks(6, 5, 5) == []


def test_aligned_blocks_tile_the_range_in_order():
    for lo, hi in [(0, 1), (1, 300), (37, 74), (0, 1 << 12), (300, 1 << 10)]:
        covered = []
        for base, bits in aligned_blocks(lo, hi):
            assert base % (1 << bits) == 0
            covered.extend(range(base, base + (1 << bits)))
        assert covered == list(range(lo, hi))


def test_branching_oracle_rejects_bad_pools_like_the_pool_oracle():
    oracle = BranchingOracle(4, 0, 4)
    with pytest.raises(ValueError, match="^empty pool$"):
        oracle.contaminated([])
    with pytest.raises(ValueError, match=r"^pool index 4 outside \[0, 4\)$"):
        oracle.contaminated([1, 4, -2])
    assert oracle.answers == []


def test_branching_oracle_answers_what_the_fixed_items_force():
    # Masks 0b1000..0b1011 of 4 items: item 3 defective, item 2 good.
    oracle = BranchingOracle(4, 0b1000, 2)
    assert oracle.contaminated([3]) is True
    assert oracle.contaminated([2]) is False
    # Items 0 and 1 are free: pure first, with contaminated left to explore.
    assert oracle.contaminated([0, 1]) is False
    assert oracle.forks == [2]
    assert oracle.answers == [True, False, False]


def test_branching_oracle_keeps_every_contaminated_pool_satisfiable():
    oracle = BranchingOracle(3, 0, 3)
    oracle.restore(oracle.snapshot(), [True])
    assert oracle.contaminated([0, 1]) is True
    # Pure on item 0 leaves item 1 to meet the contaminated pool.
    assert oracle.contaminated([0]) is False
    # Item 1 must now be defective.
    assert oracle.contaminated([1, 2]) is True
    assert oracle.forks == [1]


def _broken_quarter_split(session, items, k, parent):
    # Tests only the pool's last item and calls it defective whatever the
    # answer.
    last = items[-1]
    session.query([last], INCURRED, parent=parent)
    session.identify(last, DEFECTIVE, parent, True)


def _dump(exc_info):
    message = str(exc_info.value)
    return json.loads(message.split(": ", 1)[1])


def test_a_broken_zu_fails_finalize_on_the_walk_as_on_recorded_runs(monkeypatch):
    monkeypatch.setattr(zigzag, "quarter_split", _broken_quarter_split)
    n = 8
    with pytest.raises(AssertionError, match=r"^zu failed correctness at n=8: ") as walked:
        harness._analyze_upward_runs(n, 0, 1 << n)
    dump = _dump(walked)
    assert dump["failed_check"] == "finalize"
    # The dump names the ground truth the leaf was finalized against: the
    # items the run labelled defective, one of which a record says is pure.
    labelled = sorted(
        i["item"] for i in dump["transcript"]["identifications"] if i["label"] == DEFECTIVE
    )
    assert dump["instance"] == {"n": n, "defectives": labelled}
    (problem,) = dump["values"]["problems"]
    assert problem.endswith("outcome does not match ground truth")
    with pytest.raises(AssertionError, match=r"^zu failed correctness at n=8: ") as recorded:
        harness.worst_case("zu", n, 2)
    assert _dump(recorded)["failed_check"] == "finalize"


def _recorded_session(n, mask):
    session = Session(PoolOracle(instance_from_mask(n, mask)))
    zigzag.drive_zu(session, range(n))
    return session


@pytest.mark.parametrize(
    "tamper, message",
    [
        (lambda leaves: leaves[1:], "not each of those masks once"),
        (lambda leaves: leaves[:1] + leaves, "twice"),
    ],
    ids=["missing", "repeated"],
)
def test_analysis_rejects_a_walk_that_misses_or_repeats_a_mask(monkeypatch, tamper, message):
    def tampered_walk(*args):
        # Each leaf is rewound once the walk resumes, so it is replayed from
        # a recorded run on the same mask.
        leaves = [session.defective_mask for session in walk(*args)]
        for mask in tamper(leaves):
            yield _recorded_session(6, mask)

    monkeypatch.setattr(harness, "walk", tampered_walk)
    with pytest.raises(AssertionError, match=message):
        harness._analyze_upward_runs(6, 0, 1 << 6)

