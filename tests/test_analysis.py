import hashlib
import json
from collections import Counter

import pytest

from gtlab import analysis
from gtlab.analysis import (
    StructureError,
    analyze,
    classify,
    counterexample_json,
    segment_phases,
    transcript_json,
    upward_subtranscript,
)
from gtlab.competitive import run_zc
from gtlab.harness import report_to_json, verify_grid
from gtlab.core import (
    ADDITIONAL,
    CONTAMINATED,
    DEFECTIVE,
    DRIVER,
    GOOD,
    INCURRED,
    PURE,
    Identification,
    Instance,
    PoolOracle,
    TestRecord,
    Transcript,
    instance_from_mask,
)
from gtlab.zigzag import run_zd, run_zu

# The four instances whose middle tuple overshoots its per-tuple budget:
# five incurred tests against a ceiling of about 4.89.
KNOWN_OFFENDERS = {
    (9, (1, 6, 7)),
    (9, (2, 6, 7)),
    (9, (1, 6, 7, 8)),
    (9, (2, 6, 7, 8)),
}


# Output pins, captured before `analyze` parsed each transcript only once:
# the SHA-256 of the n <= 10 upward-strategy analysis grid report, and a
# digest of the analysis failures of every quarter-round run with an upward
# portion for n <= 10 (1608 runs).
GRID_10_ANALYSIS_SHA256 = (
    "e0b10fe861fc87a13541dab0f61fa76f756ce7690e07824c4aca1ed302f2937f"
)
ZC_UPWARD_FAILURES_SHA256 = (
    "e931ffa4f2c7552dd93c78ad122227bf01cb6edbf33e9ef7aa2a347ab13dee8a"
)


def _zu(n, defectives):
    return run_zu(PoolOracle(Instance(n, frozenset(defectives))))


def test_clean_run_splits_into_phases():
    report = analyze(_zu(12, {6}))
    assert [p.closed for p in report.phases] == [True, False]
    assert report.verdict.ok


def test_triple_resolution_forms_a_rank_two_tuple():
    report = analyze(_zu(6, {1, 4}))
    assert report.verdict.ok
    (t,) = report.classification.tuples
    assert t.tuple_type == "r2-triple"
    assert (t.pure_test, t.cont_test) == (2, 5)
    assert t.incurred == 7
    assert t.identified == 5
    assert t.defectives == 2


def test_contaminated_additional_joins_the_tuple():
    report = analyze(_zu(100, {99}))
    assert report.verdict.ok
    (t,) = report.classification.tuples
    assert t.extra == 7
    assert t.rank == 7
    assert t.tuple_type == "deep-q1"
    assert t.incurred == 5
    assert t.identified == 52
    assert sorted(report.classification.c4) == [1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize(
    "defective,tuple_type,identified",
    [(6, "deep-q1", 4), (8, "deep-q2", 6), (10, "deep-q3", 8), (11, "deep-q4", 9)],
)
def test_quarter_position_determines_deep_type(defective, tuple_type, identified):
    report = analyze(_zu(12, {defective}))
    assert report.verdict.ok
    (t,) = report.classification.tuples
    assert t.rank == 3
    assert t.tuple_type == tuple_type
    assert t.identified == identified


def test_cross_phase_partner_is_found_globally():
    report = analyze(_zu(9, {1, 6, 7}))
    pairs = {(t.pure_test, t.cont_test) for t in report.classification.tuples}
    # the rank-2 ender late in the run pairs with the relabeled pair driver
    assert (2, 8) in pairs


def test_known_offender_is_flagged_not_raised():
    report = analyze(_zu(9, {1, 6, 7}))
    assert not report.verdict.ok
    (check, values) = report.failures[0]
    assert check == "tuple-bound"
    assert values["lhs"] == 5
    assert values["rhs"] == pytest.approx(4.891623077063949, abs=1e-12)
    assert values["tuple_type"] == "r2-scan"


def test_exhaustive_small_runs_flag_exactly_the_known_offenders():
    flagged = set()
    for n in range(1, 10):
        for mask in range(1 << n):
            report = analyze(run_zu(PoolOracle(instance_from_mask(n, mask))))
            if not report.verdict.ok:
                defectives = tuple(i for i in range(n) if mask >> i & 1)
                flagged.add((n, defectives))
                assert all(c == "tuple-bound" for c, _ in report.failures)
    assert flagged == KNOWN_OFFENDERS


def test_test_accounting_recomposes_exactly():
    for n, defectives in [(6, {1, 4}), (12, {8}), (100, {99}), (9, {1, 6, 7})]:
        run = _zu(n, defectives)
        report = analyze(run)
        cls = report.classification
        seen = set(cls.c1) | set(cls.c2) | set(cls.c3) | set(cls.c4)
        for rec in run.transcript.records:
            if rec.kind != INCURRED:
                assert rec.seq in seen
        failures = dict(report.failures)
        assert "test-recomposition" not in failures


def test_upward_subtranscript_for_the_upward_run_is_whole():
    run = _zu(10, {3})
    sub = upward_subtranscript(run)
    assert len(sub.records) == len(run.transcript.records)


def test_upward_subtranscript_filters_the_mixed_strategy():
    run = run_zc(PoolOracle(Instance(16, frozenset({0, 4, 8, 12}))))
    assert run.plan.alpha1 == 4
    sub = upward_subtranscript(run)
    # the four round tests are not part of the handed-off portion
    assert len(sub.records) == len(run.transcript.records) - 4
    assert all(r.rank is not None or r.kind != DRIVER for r in sub.records)
    assert len(sub.identifications) == 16


def test_upward_subtranscript_rejects_downward_runs():
    with pytest.raises(ValueError):
        upward_subtranscript(run_zd(PoolOracle(Instance(8, frozenset({2})))))
    with pytest.raises(ValueError):
        upward_subtranscript(run_zc(PoolOracle(Instance(8, frozenset({0})))))


def _rec(seq, pool, outcome, kind, rank=None, parent=None, status=None):
    return TestRecord(
        seq=seq,
        pool=tuple(pool),
        raw_outcome=outcome,
        kind=kind,
        rank=rank,
        parent=parent,
        status=status if status is not None else outcome,
    )


def test_phase_grammar_rejects_double_additional():
    records = [
        _rec(s, [s], PURE, DRIVER, rank=0) for s in range(1, 7)
    ]
    records.append(_rec(7, [7], CONTAMINATED, ADDITIONAL))
    records.append(_rec(8, [8], CONTAMINATED, ADDITIONAL))
    records.append(_rec(9, [9], CONTAMINATED, DRIVER, rank=6))
    with pytest.raises(StructureError, match="more than one additional"):
        segment_phases(Transcript(records, []))


def test_phase_grammar_rejects_early_additional():
    records = [
        _rec(1, [1], PURE, DRIVER, rank=0),
        _rec(2, [2], CONTAMINATED, ADDITIONAL),
        _rec(3, [3], CONTAMINATED, DRIVER, rank=1),
    ]
    with pytest.raises(StructureError, match="position 7"):
        segment_phases(Transcript(records, []))


def test_phase_grammar_rejects_pure_additional_in_closed_phase():
    records = [_rec(s, [s], PURE, DRIVER, rank=0) for s in range(1, 7)]
    records.append(_rec(7, [7], PURE, ADDITIONAL))
    records.append(_rec(8, [8], CONTAMINATED, DRIVER, rank=6))
    with pytest.raises(StructureError, match="pure additional"):
        segment_phases(Transcript(records, []))


def test_phase_grammar_rejects_trailing_contaminated_additional():
    records = [_rec(s, [s], PURE, DRIVER, rank=0) for s in range(1, 7)]
    records.append(_rec(7, [7], CONTAMINATED, ADDITIONAL))
    with pytest.raises(StructureError, match="final phase"):
        segment_phases(Transcript(records, []))


def test_phase_grammar_rejects_tests_after_pure_additional():
    records = [_rec(s, [s], PURE, DRIVER, rank=0) for s in range(1, 7)]
    records.append(_rec(7, [7], PURE, ADDITIONAL))
    records.append(_rec(8, [8], PURE, DRIVER, rank=6))
    with pytest.raises(StructureError, match="after a pure additional"):
        segment_phases(Transcript(records, []))


def test_classify_requires_a_partner():
    records = [
        _rec(1, [0, 1, 2], CONTAMINATED, DRIVER, rank=2),
        _rec(2, [0], CONTAMINATED, INCURRED, parent=1),
    ]
    idents = [
        Identification(0, DEFECTIVE, 1, True),
    ]
    with pytest.raises(StructureError):
        classify(Transcript(records, idents))


def _tampered(run, seq, **changes):
    # The run's transcript with record seq rebuilt from changes (or, for a
    # seq past the end, appended).
    records = list(run.transcript.records)
    if seq <= len(records):
        old = records[seq - 1]
        fields = dict(
            pool=old.pool,
            outcome=old.raw_outcome,
            kind=old.kind,
            rank=old.rank,
            parent=old.parent,
        )
        fields.update(changes)
        records[seq - 1] = _rec(seq, **fields)
    else:
        records.append(_rec(seq, **changes))
    return Transcript(records, list(run.transcript.identifications))


def test_classify_rejects_a_tampered_quarter_extraction():
    # zu on 12 items with defective 8: driver 4 tests (6..11) at rank 3, and
    # its extraction queries (6, 7) pure, (8, 9) contaminated, then (8,).
    # Tampers: a changed halving pool, an item outside the driver's pool, an
    # extra trailing incurred test, and a driver pool too large for its rank.
    run = _zu(12, {8})
    assert classify(run.transcript).tuples[0].tuple_type == "deep-q2"
    assert [r.pool for r in run.transcript.records[4:7]] == [(6, 7), (8, 9), (8,)]
    tampers = [
        _tampered(run, 7, pool=(9,)),
        _tampered(run, 5, pool=(5, 6)),
        _tampered(run, 9, pool=(8,), outcome=CONTAMINATED, kind=INCURRED, parent=4),
        _tampered(run, 4, rank=2),
    ]
    for transcript in tampers:
        with pytest.raises(StructureError):
            classify(transcript)


def test_classify_requires_a_defective_per_tuple():
    records = [
        _rec(1, [0], PURE, DRIVER, rank=0),
        _rec(2, [1, 2], CONTAMINATED, DRIVER, rank=1),
        _rec(3, [1], CONTAMINATED, INCURRED, parent=2),
        _rec(4, [2], CONTAMINATED, INCURRED, parent=2),
    ]
    idents = [Identification(0, GOOD, 1, True)]
    with pytest.raises(StructureError, match="defective"):
        classify(Transcript(records, idents))


def test_transcript_json_round_trips_through_json():
    run = _zu(9, {1, 6, 7})
    payload = transcript_json(run.transcript)
    text = json.dumps(payload, sort_keys=True)
    back = json.loads(text)
    assert len(back["records"]) == run.tests_used
    assert back["records"][0]["outcome"] in (PURE, CONTAMINATED)
    assert len(back["identifications"]) == 9


def test_counterexample_dump_names_the_instance():
    inst = Instance(9, frozenset({2, 6, 7}))
    run = run_zu(PoolOracle(inst))
    report = analyze(run)
    check, values = report.failures[0]
    dump = counterexample_json(run, inst, check, values)
    assert dump["instance"] == {"n": 9, "defectives": [2, 6, 7]}
    assert dump["failed_check"] == "tuple-bound"
    json.dumps(dump, sort_keys=True)


def test_counterexample_dump_ignores_the_runs_own_labels():
    # A run that labels only one item, and labels it wrongly, must still dump
    # the ground-truth instance.
    inst = Instance(6, frozenset({1, 4}))
    run = run_zu(PoolOracle(inst))
    run.classified = {0: DEFECTIVE}
    dump = counterexample_json(run, inst, "finalize", {"problems": ["wrong"]})
    assert dump["instance"] == {"n": 6, "defectives": [1, 4]}


def test_phase_count_never_exceeds_defectives_plus_one():
    for n in range(1, 9):
        for mask in range(1 << n):
            run = run_zu(PoolOracle(instance_from_mask(n, mask)))
            phases = segment_phases(run.transcript)
            assert len(phases) <= mask.bit_count() + 1, (n, mask)


def test_analysis_grid_report_is_pinned():
    report = verify_grid(10, algorithms=["zu"], checks=["analysis"])
    digest = hashlib.sha256(report_to_json(report).encode()).hexdigest()
    assert digest == GRID_10_ANALYSIS_SHA256


def test_upward_portions_of_quarter_round_runs_are_pinned():
    digest = hashlib.sha256()
    portions = 0
    for n in range(1, 11):
        for mask in range(1 << n):
            run = run_zc(PoolOracle(instance_from_mask(n, mask)))
            try:
                upward_subtranscript(run)
            except ValueError:
                continue
            portions += 1
            failures = analyze(run).failures
            digest.update(json.dumps([n, mask, failures], sort_keys=True).encode())
    assert portions == 1608
    assert digest.hexdigest() == ZC_UPWARD_FAILURES_SHA256


PARSE_STEPS = (
    "_views",
    "segment_phases",
    "upward_subtranscript",
    "classify",
    "verify_observations",
    "check_class_bounds",
)


@pytest.mark.parametrize(
    "run",
    [
        _zu(9, {1, 6, 7}),
        _zu(100, {99}),
        run_zc(PoolOracle(Instance(16, frozenset({0, 4, 8, 12})))),
    ],
    ids=["zu-known-red", "zu-additional", "zc-upward"],
)
def test_analyze_parses_each_transcript_once(monkeypatch, run):
    calls = Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in PARSE_STEPS:
        monkeypatch.setattr(analysis, name, counted(name, getattr(analysis, name)))
    report = analyze(run)
    assert calls == {name: 1 for name in PARSE_STEPS}
    assert report.phases == list(report.classification.phases)
