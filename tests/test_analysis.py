import dataclasses
import hashlib
import json
from collections import Counter

import pytest

from gtlab import analysis, harness
from gtlab.bounds import budget
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
    RunResult,
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

# A digest of the whole analysis of every zu run for n <= 11 and of every
# quarter-round run's upward portion for n <= 10: the classes, tuples, phases
# and defective count as well as the failures, so a passing run whose
# classes or tuples move changes it too.
ANALYSIS_OUTPUT_SHA256 = (
    "e0d9354c3e80c8958e31b09a0aa32d6fb50cfb1dc9e889580885895c1a4e8b90"
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


def _clean_zu_12():
    # zu on 12 items with defectives 4, 8 and 11: 11 tests, no failure.
    instance = instance_from_mask(12, 0b100100010000)
    run = _zu(12, instance.defectives)
    assert analyze(run).failures == []
    return run, instance


@pytest.mark.parametrize("rank", [-1, "2", True])
def test_analyze_rejects_a_driver_rank_that_is_not_a_nonnegative_int(rank):
    # Test 2 of the clean run is a full pure driver of rank 1.
    run, _ = _clean_zu_12()
    tampered = _tampered(run, 2, rank=rank)
    with pytest.raises(StructureError, match=r"^driver 2 has rank "):
        analyze(dataclasses.replace(run, transcript=tampered))


def test_analysis_violations_report_a_structure_error_as_one_row():
    run, instance = _clean_zu_12()
    tampered = _tampered(run, 2, kind=ADDITIONAL, rank=None)
    rows = harness._analysis_violations(
        dataclasses.replace(run, transcript=tampered), instance
    )
    (row,) = rows
    assert (row["algorithm"], row["n"], row["d"], row["check"]) == ("zu", 12, 3, "structure")
    dump = row["counterexample"]
    assert dump["failed_check"] == "structure"
    assert dump["values"] == {"error": "additional test not at phase position 7"}
    assert dump["instance"] == {"n": 12, "defectives": [4, 8, 11]}


def test_analyze_reports_an_unattributed_test_as_a_recomposition_failure():
    run, _ = _clean_zu_12()
    seq = len(run.transcript.records) + 1
    tampered = _tampered(
        run, seq, pool=(0,), outcome=CONTAMINATED, kind=INCURRED, parent=999
    )
    report = analyze(dataclasses.replace(run, transcript=tampered))
    assert report.failures == [("test-recomposition", {"lhs": 11, "rhs": 12})]


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


def _failures(transcript):
    # The failure rows analyze gives a zu run with this transcript.
    return analyze(RunResult("zu", transcript)).failures


def _reattributed(run, **owners):
    # The run's transcript with item i's identification attributed to test
    # owners[f"item{i}"], or relabelled when the value is a label.
    idents = []
    for ident in run.transcript.identifications:
        new = owners.get(f"item{ident.item}")
        if new in (GOOD, DEFECTIVE):
            ident = ident._replace(label=new)
        elif new is not None:
            ident = ident._replace(attributed_to=new)
        idents.append(ident)
    return Transcript(list(run.transcript.records), idents)


def _idents(*triples):
    return [Identification(item, label, owner, True) for item, label, owner in triples]


def test_unmatched_pure_driver_out_of_rank_order_fails_c4_consecutive_ranks():
    # zu on 100 items with defective 99 leaves its rank-0..5 drivers in c4;
    # test 1 relabelled to rank 1 breaks the run of ranks.
    transcript = _tampered(_zu(100, {99}), 1, rank=1)
    assert _failures(transcript) == [
        ("c4-consecutive-ranks", {"ranks": [1, 1, 2, 3, 4, 5]})
    ]


def test_c4_reaching_the_top_tuple_rank_fails_the_rank_gap():
    # Two rank-0 pure drivers and a resolved rank-1 pair: the pair partners
    # test 1, so test 2 stays in c4 at rank 0, one below the tuple's rank.
    records = [
        _rec(1, [0], PURE, DRIVER, rank=0),
        _rec(2, [1], PURE, DRIVER, rank=0),
        _rec(3, [2, 3], CONTAMINATED, DRIVER, rank=1),
        _rec(4, [2], CONTAMINATED, INCURRED, parent=3),
        _rec(5, [3], CONTAMINATED, INCURRED, parent=3),
    ]
    idents = _idents((0, GOOD, 1), (1, GOOD, 2), (2, DEFECTIVE, 3), (3, DEFECTIVE, 3))
    assert _failures(Transcript(records, idents)) == [
        ("c4-rank-gap", {"c4_max": 0, "contaminated_max": 1})
    ]


def test_more_phases_than_defectives_allow_fails_phase_count():
    # Two rank-0 enders, the second labelling its item good, then an open
    # phase: three phases for one defective.
    records = [
        _rec(1, [0], CONTAMINATED, DRIVER, rank=0),
        _rec(2, [1], CONTAMINATED, DRIVER, rank=0),
        _rec(3, [2], PURE, DRIVER, rank=0),
    ]
    idents = _idents((0, DEFECTIVE, 1), (1, GOOD, 2), (2, GOOD, 3))
    assert _failures(Transcript(records, idents)) == [
        ("phase-count", {"phases": 3, "defectives": 1})
    ]


def test_eight_pure_tests_in_the_final_phase_fail_its_budget():
    records = [_rec(s, [s - 1], PURE, DRIVER, rank=s - 1) for s in range(1, 9)]
    assert _failures(Transcript(records, [])) == [
        ("final-phase-budget", {"lhs": 8, "rhs": 7})
    ]


def test_rank0_test_with_an_incurred_test_fails_its_bound():
    # zu on 3 items with defective 0: test 1 is a rank-0 ender. A second
    # test charged to it takes it, and the paired classes, over budget(1, 1).
    transcript = _tampered(
        _zu(3, {0}), 4, pool=(0,), outcome=CONTAMINATED, kind=INCURRED, parent=1
    )
    rhs = budget(1, 1)
    assert rhs == pytest.approx(1.6087302, abs=1e-12)
    assert _failures(transcript) == [
        ("rank0-test-bound", {"test": 1, "lhs": 2, "rhs": rhs}),
        ("paired-classes-bound", {"lhs": 2, "rhs": rhs}),
    ]


def test_paired_classes_without_a_defective_fail_with_no_budget():
    # The same run with its one defective relabelled good: the rank-0 ender
    # carries no defective, and two phases exceed zero defectives plus one.
    transcript = _reattributed(_zu(3, {0}), item0=GOOD)
    assert _failures(transcript) == [
        ("phase-count", {"phases": 2, "defectives": 0}),
        ("paired-classes-bound", {"lhs": 1, "rhs": None}),
    ]


def test_paired_classes_over_budget_with_every_tuple_within_it():
    # zu on 6 items with defectives 1 and 4 ends on a triple tuple of 7
    # tests against budget(2, 5) = 7.0008. An appended rank-0 ender that
    # identifies nothing adds one test to the paired sum and nothing else.
    transcript = _tampered(
        _zu(6, {1, 4}), 9, pool=(5,), outcome=CONTAMINATED, kind=DRIVER, rank=0
    )
    assert _failures(transcript) == [
        ("paired-classes-bound", {"lhs": 8, "rhs": 7.000818607567632})
    ]


def test_incurred_tests_charged_to_c4_fail_the_all_classes_bound():
    # The clean 12-item run with 19 more incurred tests charged to test 1,
    # a pure rank-0 driver in c4: 30 tests against budget(3, 12) + 16.
    run, _ = _clean_zu_12()
    records = list(run.transcript.records) + [
        _rec(seq, [0], PURE, INCURRED, parent=1) for seq in range(12, 31)
    ]
    transcript = Transcript(records, list(run.transcript.identifications))
    assert _failures(transcript) == [
        ("all-classes-bound", {"lhs": 30, "rhs": 29.412190600000002})
    ]


def test_deep_tuple_short_of_its_identifications_fails_type_bound():
    # zu on 12 items with defective 11 ends on a deep-q4 tuple identifying
    # exactly its floor of 9 items; item 6 moved to test 1 leaves 8.
    transcript = _reattributed(_zu(12, {11}), item6=1)
    assert _failures(transcript) == [
        (
            "type-bound",
            {
                "cont_test": 4,
                "tuple_type": "deep-q4",
                "identified": 8,
                "floor": 9,
                "incurred": 5,
                "cap": 6,
            },
        )
    ]


def test_every_budget_row_fires_when_the_budget_is_negative(monkeypatch):
    # zu on 12 items with defectives 0, 4, 8 and 11: a rank-0 ender, three
    # tuples and four defectives, so every check that reads budget applies.
    monkeypatch.setattr(analysis, "budget", lambda d, n: -100.0)
    tuple_rows = [
        (3, 4, "r2-scan", 3),
        (6, 7, "r2-scan", 4),
        (10, 11, "r2-solo", 2),
    ]
    assert analyze(_zu(12, {0, 4, 8, 11})).failures == [
        ("rank0-test-bound", {"test": 1, "lhs": 1, "rhs": -100.0}),
        *(
            (
                "tuple-bound",
                {
                    "pure_test": pure,
                    "cont_test": cont,
                    "rank": 2,
                    "tuple_type": tuple_type,
                    "lhs": lhs,
                    "rhs": -100.0,
                },
            )
            for pure, cont, tuple_type, lhs in tuple_rows
        ),
        ("paired-classes-bound", {"lhs": 10, "rhs": -100.0}),
        ("all-classes-bound", {"lhs": 11, "rhs": -84.0}),
    ]


# tuple-count and c4-pure fire only on a transcript that reuses a seq. With
# distinct seqs, c3 is the disjoint union of the tuples' tests, and every
# top-level test that is not pure is a phase's ender or its additional test.
def test_a_test_that_both_ends_and_partners_a_tuple_fails_tuple_count():
    # Seq 2 is a resolved rank-1 pair and, again later, a pure rank-1
    # driver: its last view partners the rank-2 triple after ending the pair.
    records = [
        _rec(1, [0], PURE, DRIVER, rank=0),
        _rec(2, [1, 2], CONTAMINATED, DRIVER, rank=1),
        _rec(3, [1], CONTAMINATED, INCURRED, parent=2),
        _rec(4, [2], CONTAMINATED, INCURRED, parent=2),
        _rec(2, [1, 2], PURE, DRIVER, rank=1),
        _rec(6, [3, 4, 5], CONTAMINATED, DRIVER, rank=2),
        _rec(7, [3], PURE, INCURRED, parent=6),
        _rec(8, [4], CONTAMINATED, INCURRED, parent=6),
        _rec(9, [5], PURE, INCURRED, parent=6),
    ]
    idents = _idents(
        (0, GOOD, 1), (1, DEFECTIVE, 2), (2, DEFECTIVE, 2),
        (3, GOOD, 6), (4, DEFECTIVE, 6), (5, GOOD, 6),
    )
    assert _failures(Transcript(records, idents)) == [
        ("tuple-count", {"tuples": 2, "expected": 1.5, "c3": [1, 2, 6]}),
        ("test-recomposition", {"lhs": 8, "rhs": 9}),
    ]


def test_a_contaminated_additional_left_out_of_its_tuple_fails_c4_pure():
    # Seq 3 is a pure driver and, again in the final phase, a pure
    # additional test: as the first additional of the closed phase it
    # becomes the tuple's extra, and the contaminated additional 7 is left
    # in c4.
    records = [_rec(s, [s - 1], PURE, DRIVER, rank=0) for s in range(1, 7)]
    records += [
        _rec(7, [6, 7, 8, 9], CONTAMINATED, ADDITIONAL),
        _rec(8, [6, 7], CONTAMINATED, DRIVER, rank=1),
        _rec(9, [6], CONTAMINATED, INCURRED, parent=8),
        _rec(10, [7], CONTAMINATED, INCURRED, parent=8),
    ]
    records += [_rec(s, [s - 3], PURE, DRIVER, rank=0) for s in range(11, 17)]
    records.append(_rec(3, [14], PURE, ADDITIONAL))
    idents = _idents(*[(i, GOOD, i + 1) for i in range(6)])
    idents += _idents((6, DEFECTIVE, 8), (7, DEFECTIVE, 8))
    idents += _idents(*[(i, GOOD, i + 3) for i in range(8, 14)], (14, GOOD, 3))
    assert _failures(Transcript(records, idents)) == [
        ("c4-pure", {"c4": [2, 4, 5, 6, 7]}),
        ("c4-consecutive-ranks", {"ranks": [0, 0, 0, 0, 0]}),
        ("c4-rank-gap", {"c4_max": 0, "contaminated_max": 1}),
        (
            "tuple-bound",
            {
                "pure_test": 1,
                "cont_test": 8,
                "rank": 1,
                "tuple_type": "r1-pair",
                "lhs": 5,
                "rhs": 4.891623077063949,
            },
        ),
        ("test-recomposition", {"lhs": 16, "rhs": 17}),
    ]


# A record kind none of the strategies write.
_FOREIGN = "foreign"


def test_phase_grammar_rejects_an_additional_after_a_foreign_test():
    records = [_rec(s, [s], PURE, DRIVER, rank=0) for s in range(1, 6)]
    records.append(_rec(6, [6], PURE, _FOREIGN))
    records.append(_rec(7, [7], CONTAMINATED, ADDITIONAL))
    records.append(_rec(8, [8], CONTAMINATED, DRIVER, rank=6))
    with pytest.raises(StructureError, match="^additional test not preceded by 6 pure tests$"):
        segment_phases(Transcript(records, []))


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "final"])
def test_phase_grammar_rejects_a_contaminated_test_inside_a_phase(closed):
    # The final phase has no closing test, so any contaminated test in it
    # fails the same check.
    records = [
        _rec(1, [1], PURE, DRIVER, rank=0),
        _rec(2, [2], CONTAMINATED, _FOREIGN),
    ]
    if closed:
        records.append(_rec(3, [3], CONTAMINATED, DRIVER, rank=1))
    with pytest.raises(StructureError, match="^contaminated driver does not close its phase$"):
        segment_phases(Transcript(records, []))


def test_classify_rejects_incurred_tests_under_a_single_item_driver():
    # The clean 12-item run ends on test 11, a one-item rank-2 ender.
    run, _ = _clean_zu_12()
    transcript = _tampered(
        run, 12, pool=(11,), outcome=CONTAMINATED, kind=INCURRED, parent=11
    )
    with pytest.raises(StructureError, match="^single-item driver with incurred tests$"):
        classify(transcript)


def test_classify_rejects_a_rank1_ender_that_is_not_a_resolved_pair():
    # zu on 3 items with defectives 1 and 2 resolves the pair (1, 2) with
    # two contaminated single tests; the first turned pure is no pair.
    transcript = _tampered(_zu(3, {1, 2}), 3, outcome=PURE)
    with pytest.raises(
        StructureError, match="^rank-1 contaminated driver is not a resolved pair$"
    ):
        classify(transcript)


def test_classify_rejects_an_additional_test_in_a_rank0_phase():
    records = [_rec(s, [s], PURE, DRIVER, rank=0) for s in range(1, 7)]
    records.append(_rec(7, [7], CONTAMINATED, ADDITIONAL))
    records.append(_rec(8, [8], CONTAMINATED, DRIVER, rank=0))
    with pytest.raises(StructureError, match="^additional test in a rank-0 phase$"):
        classify(Transcript(records, []))


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
    run.transcript.identifications = [Identification(0, DEFECTIVE, 1, True)]
    dump = counterexample_json(run, inst, "finalize", {"problems": ["wrong"]})
    assert dump["instance"] == {"n": 6, "defectives": [1, 4]}
    assert [i["item"] for i in dump["transcript"]["identifications"]] == [0]


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


def _analysis_output(n, mask, report):
    cls = report.classification
    return [
        n,
        mask,
        [sorted(c) for c in (cls.c1, cls.c2, cls.c3, cls.c4, cls.additional)],
        cls.tuples,
        cls.phases,
        cls.defectives,
        report.failures,
    ]


def test_whole_analysis_of_small_runs_is_pinned():
    digest = hashlib.sha256()
    rows = 0
    for run_algorithm, n_max in ((run_zu, 11), (run_zc, 10)):
        for n in range(1, n_max + 1):
            for mask in range(1 << n):
                run = run_algorithm(PoolOracle(instance_from_mask(n, mask)))
                try:
                    upward_subtranscript(run)
                except ValueError:
                    continue
                row = _analysis_output(n, mask, analyze(run))
                digest.update(json.dumps(row, sort_keys=True).encode())
                rows += 1
    assert rows == 4094 + 1608
    assert digest.hexdigest() == ANALYSIS_OUTPUT_SHA256


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


def _final_phase(records):
    """(mixed pairs, records) of a zu run's final phase: the top-level
    tests after its last contaminated driver, with their incurred tests. A
    mixed pair is a rank-1 driver that tested contaminated and was
    relabelled pure."""
    start = 0
    for i, rec in enumerate(records):
        if rec.kind == DRIVER and rec.status == CONTAMINATED:
            start = i + 1
    while start < len(records) and records[start].kind == INCURRED:
        start += 1
    tail = records[start:]
    mixed = sum(
        r.kind == DRIVER and r.rank == 1 and r.raw_outcome == CONTAMINATED and r.status == PURE
        for r in tail
    )
    return mixed, len(tail)


def test_final_phase_budget_red_past_the_grid_is_pinned():
    # The second known red (README, "A known red"): from n = 25 a zu run
    # whose final phase holds a mixed pair spends 8 tests in it, against 7.
    # Over every zu run with 25 <= n <= 40 and d <= 2, each such run is
    # flagged with one final-phase-budget row, and no run has another row.
    rows = Counter()
    flagged_at_25 = []
    off_family = []
    for n in range(25, 41):
        for d in range(3):
            masks = list(harness._masks_of_weight(n, d))
            for i, session, _ in harness._walked_runs("zu", n, masks):
                result = session.result("zu")
                failures = analyze(result).failures
                mixed, lhs = _final_phase(result.transcript.records)
                if mixed and lhs > 7:
                    rows[n, d] += 1
                    flagged_at_25 += [masks[i]] if n == 25 else []
                    ok = mixed == 1 and lhs in (8, 9) and failures == [
                        ("final-phase-budget", {"lhs": lhs, "rhs": 7})
                    ]
                else:
                    ok = failures == []
                if not ok:
                    off_family.append((n, masks[i], mixed, lhs, failures))
    assert off_family == []
    assert rows == Counter({(25, 1): 2, **{(n, d): 2 for n in range(26, 41) for d in (1, 2)}})
    assert sorted(flagged_at_25) == [1 << 1, 1 << 2]
