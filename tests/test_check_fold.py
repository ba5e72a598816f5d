"""The check fold against finalize, its reference.

The fold may defer any leaf to finalize, but must never certify one that
finalize fails; on the honest walks it certifies every leaf, so the walks
call finalize on none of them (a worst_case cell finalizes only the
recorded run that replays its witness).
"""

import pytest

from gtlab import harness, kernels
from gtlab.core import (
    ADDITIONAL,
    CHECK_START,
    CONTAMINATED,
    DEFECTIVE,
    DRIVER,
    GOOD,
    INCURRED,
    PURE,
    Session,
    check_passes,
    check_records,
    drive,
    finalize,
    instance_from_mask,
)
from gtlab.tree import walk


def _checked_leaves(algorithm, n, masks):
    """(fold passes, finalize verdict) of every leaf of a walk over masks,
    each leaf finalized against the mask it identified as defective."""
    strategy = harness._folding(kernels.STRATEGIES[algorithm])
    for session, (_, state, _) in walk(strategy.step, strategy.start, n, masks):
        instance = instance_from_mask(n, session.defective_mask)
        yield check_passes(state, session, n), finalize(session.result(algorithm), instance)


def test_the_fold_certifies_every_leaf_of_the_honest_walks():
    # Every algorithm walked over all masks for n <= 10, and zd, zu and zc
    # over the masks of each weight d for n <= 12, as worst_case walks them.
    for algorithm in kernels.ALGORITHMS:
        for n in range(13):
            families = [range(1 << n)] if n <= 10 else []
            if algorithm != "individual":
                families += [list(harness._masks_of_weight(n, d)) for d in range(n + 1)]
            for masks in families:
                for passes, verdict in _checked_leaves(algorithm, n, masks):
                    assert passes and verdict.ok, (algorithm, n, verdict.problems)


def test_the_passing_walks_call_finalize_never(monkeypatch):
    # The one run a worst_case cell finalizes is its witness replay, on the
    # cell's mask; any walked leaf finalized would be a second call.
    calls = []

    def counted(result, instance):
        calls.append(instance)
        return finalize(result, instance)

    monkeypatch.setattr(harness, "finalize", counted)
    for algorithm in kernels.ALGORITHMS:
        for d in range(11):
            cell = harness.worst_case(algorithm, 10, d)
            assert calls == [instance_from_mask(10, cell.argmax_mask)], (algorithm, d)
            calls.clear()
    assert harness._walk_upward_runs(10, 0, 1 << 10)[1]
    assert calls == []


# Each tamper wraps a Session method, so the walk and the recorded runs
# make the same tampered records; each is one check of finalize.
def _wrong_outcome(query):
    def tampered(self, pool, kind, rank=None, parent=None):
        hit = query(self, pool, kind, rank, parent)
        if self.tests == 3:
            self.records[-1].raw_outcome = PURE if hit else CONTAMINATED
        return hit

    return "query", tampered


def _incurred_under_a_non_driver(query):
    def tampered(self, pool, kind, rank=None, parent=None):
        if kind == INCURRED and self.records and self.records[-1].kind == INCURRED:
            parent = self.tests
        return query(self, pool, kind, rank, parent)

    return "query", tampered


def _additional_with_a_rank(query):
    def tampered(self, pool, kind, rank=None, parent=None):
        hit = query(self, pool, kind, rank, parent)
        # A pure driver parents no incurred test, so only its kind is wrong.
        if kind == DRIVER and rank is not None and not hit:
            self.records[-1].kind = ADDITIONAL
        return hit

    return "query", tampered


def _foreign_label(identify):
    def tampered(self, item, label, attributed_to, via_test):
        label = "positive" if label == DEFECTIVE else label
        identify(self, item, label, attributed_to, via_test)

    return "identify", tampered


def _item_left_unidentified(identify):
    def tampered(self, item, label, attributed_to, via_test):
        if item or label != GOOD:
            identify(self, item, label, attributed_to, via_test)

    return "identify", tampered


def _outside_item(identify):
    def tampered(self, item, label, attributed_to, via_test):
        # Item 0, left unresolved, may come up again: it is then dropped.
        if not item and label == GOOD:
            item = self.oracle.n
            if self.good_mask >> item & 1:
                return
        identify(self, item, label, attributed_to, via_test)

    return "identify", tampered


def _repeated_identification(identify):
    # Appends past Session.identify, which would refuse the repeat.
    def tampered(self, item, label, attributed_to, via_test):
        identify(self, item, label, attributed_to, via_test)
        if not item:
            self.identifications.append(self.identifications[-1])

    return "identify", tampered


TAMPERS = {
    "wrong-outcome": (_wrong_outcome, "query", "outcome does not match ground truth"),
    "non-driver-parent": (_incurred_under_a_non_driver, "query", "parented by a non-driver"),
    "additional-rank": (_additional_with_a_rank, "query", "carries a rank"),
    "foreign-label": (_foreign_label, "identify", "classified positive"),
    "unidentified": (_item_left_unidentified, "identify", "item 0 never identified"),
    "outside-item": (_outside_item, "identify", "outside [0, "),
    "repeated": (_repeated_identification, "identify", "item 0 identified twice"),
}


def _tamper(monkeypatch, name):
    make, method, problem = TAMPERS[name]
    attr, tampered = make(getattr(Session, method))
    monkeypatch.setattr(Session, attr, tampered)
    return problem


def _first_recorded_failure(algorithm, n, masks):
    """The error the recorded run on the first failing mask raises."""
    for mask in masks:
        try:
            harness._run_checked(algorithm, instance_from_mask(n, mask))
        except AssertionError as exc:
            return str(exc)
    raise AssertionError("no recorded run fails")


@pytest.mark.parametrize("tamper", TAMPERS)
@pytest.mark.parametrize("algorithm", ["zd", "zu", "zc"])
def test_the_fold_defers_every_tampered_leaf(monkeypatch, algorithm, tamper):
    problem = _tamper(monkeypatch, tamper)
    n, d = 8, 2
    failing = 0
    for masks in (range(1 << n), list(harness._masks_of_weight(n, d))):
        for passes, verdict in _checked_leaves(algorithm, n, masks):
            assert not (passes and not verdict.ok), (algorithm, verdict.problems)
            failing += any(problem in p for p in verdict.problems)
    assert failing, "the tamper never bit"


@pytest.mark.parametrize("tamper", TAMPERS)
@pytest.mark.parametrize("algorithm", ["zd", "zu", "zc"])
def test_a_tampered_walk_raises_the_recorded_dump(monkeypatch, algorithm, tamper):
    _tamper(monkeypatch, tamper)
    n, d = 10, 3
    family = list(harness._masks_of_weight(n, d))
    expected = _first_recorded_failure(algorithm, n, family)
    assert '"failed_check": "finalize"' in expected
    with pytest.raises(AssertionError) as walked:
        harness.worst_case(algorithm, n, d)
    assert str(walked.value) == expected
    if algorithm == "zu":
        with pytest.raises(AssertionError) as analysed:
            harness._walk_upward_runs(n, 0, 1 << n)
        assert str(analysed.value) == _first_recorded_failure("zu", n, range(1 << n))


def _honest_zu(n, mask):
    session = Session(harness.PoolOracle(instance_from_mask(n, mask)))
    drive(kernels.STRATEGIES["zu"].step, kernels.STRATEGIES["zu"].start, session, range(n))
    return session


def test_the_fold_defers_a_foreign_label_and_a_record_it_never_saw():
    session = _honest_zu(6, 0b100)
    records, idents = session.records, session.identifications
    state = check_records(CHECK_START, records, idents)
    assert check_passes(state, session, 6)
    labels = [ident._replace(label="positive") for ident in idents]
    assert check_records(CHECK_START, records, labels) is None
    # Folded without its last record, the run has a record the fold missed.
    assert not check_passes(check_records(CHECK_START, records[:-1], idents), session, 6)


def test_the_fold_defers_a_record_it_does_not_follow():
    # Records only a tampered step could make: a seq out of order, a pool
    # item that is no bit index, an incurred record without a parent.
    records = _honest_zu(6, 0b100).records
    rec = next(r for r in records if r.kind == INCURRED)
    for field, value in [("seq", 9), ("pool", (-1,)), ("pool", ("a",)), ("parent", None)]:
        saved = getattr(rec, field)
        setattr(rec, field, value)
        try:
            assert check_records(CHECK_START, records, []) is None, (field, value)
        finally:
            setattr(rec, field, saved)
