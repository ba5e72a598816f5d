"""The analysis fold against analyze, its reference.

The fold may defer any run to analyze, but must never certify one that
analyze fails or raises on; on the zu runs the grid walks it defers exactly
the failing ones.
"""

import dataclasses
import inspect
import itertools

import test_analysis
from test_analysis import _idents, _rec

from gtlab import harness
from gtlab.analysis import (
    FOLD_START,
    StructureError,
    analyze,
    fold_passes,
    fold_records,
)
from gtlab.core import (
    ADDITIONAL,
    CONTAMINATED,
    DEFECTIVE,
    DRIVER,
    GOOD,
    INCURRED,
    PURE,
    PoolOracle,
    RunResult,
    Transcript,
    instance_from_mask,
)
from gtlab.zigzag import run_zu


def test_the_fold_defers_exactly_the_zu_leaves_analyze_fails():
    failing = 0
    for n in range(1, 13):
        for session, fold in harness._walked_runs("zu", n, range(1 << n), analysed=True):
            result = session.result("zu")
            try:
                report = analyze(result)
            except StructureError:
                report = None
            passes = report is not None and not report.failures
            assert fold_passes(fold) == passes, (n, result.transcript.classified())
            if passes:
                assert fold.tuples == report.classification.tuples
            failing += not passes
    # The known tuple-bound red, one row per failing leaf, for n = 9..12.
    assert failing == 4 + 16 + 44 + 112


def _param_sets(test):
    """The keyword arguments of each call pytest makes of test."""
    grids = []
    for mark in getattr(test, "pytestmark", []):
        if mark.name == "parametrize":
            names = [name.strip() for name in mark.args[0].split(",")]
            grids.append(
                [dict(zip(names, v if len(names) > 1 else (v,))) for v in mark.args[1]]
            )
    for combo in itertools.product(*grids):
        yield {k: v for part in combo for k, v in part.items()}


# The calls test_analysis.py builds a forged or tampered transcript with.
_BUILDERS = ("Transcript(", "_tampered(", "_reattributed(")


def _forged_transcripts(monkeypatch):
    """Every transcript the tests of test_analysis.py build by hand, caught
    by running each test that builds one with Transcript recorded."""
    built = []

    def recorded(*args, **kwargs):
        transcript = Transcript(*args, **kwargs)
        built.append(transcript)
        return transcript

    monkeypatch.setattr(test_analysis, "Transcript", recorded)
    for name, test in vars(test_analysis).items():
        if name.startswith("test_") and any(
            call in inspect.getsource(test) for call in _BUILDERS
        ):
            for kwargs in _param_sets(test):
                test(**kwargs)
    monkeypatch.undo()
    return built


def test_the_fold_never_certifies_a_forged_transcript_analyze_rejects(monkeypatch):
    # No finalize has run on these: seqs repeat, kinds are foreign, parents
    # and attributions point anywhere.
    verdicts = set()
    for transcript in _forged_transcripts(monkeypatch):
        run = RunResult("zu", transcript)
        try:
            failures = analyze(run).failures
        except StructureError as exc:
            verdicts.add(str(exc))
            failures = None
        else:
            verdicts.update(name for name, _ in failures)
        fold = fold_records(FOLD_START, transcript.records, transcript.identifications)
        if failures != []:
            assert not fold_passes(fold), failures
    # Among them are the rows and errors no finalized run can reach.
    assert {
        "tuple-count",
        "c4-pure",
        "additional test not preceded by 6 pure tests",
        "contaminated driver does not close its phase",
    } <= verdicts


# Every value a tamper may give each field of one record.
def _field_values(rec, top):
    return {
        "seq": range(0, top + 1),
        "kind": (DRIVER, ADDITIONAL, INCURRED, "foreign"),
        "rank": (None, *range(0, 8)),
        "parent": (None, *range(0, top + 1)),
        "status": (PURE, CONTAMINATED, ""),
        "pool": (rec.pool[1:] or rec.pool + (0,), rec.pool + (max(rec.pool) + 1,)),
    }


def _tampers(run):
    """Every transcript one change away from run's: one field of one record,
    one record dropped or repeated, two neighbouring records swapped, or one
    identification given another owner or label, dropped or repeated."""
    records = run.transcript.records
    idents = run.transcript.identifications
    top = len(records) + 1
    for i, rec in enumerate(records):
        for field, values in _field_values(rec, top).items():
            for value in values:
                if value != getattr(rec, field):
                    changed = list(records)
                    changed[i] = dataclasses.replace(rec, **{field: value})
                    yield changed, idents
        yield records[:i] + records[i + 1 :], idents
        yield records[: i + 1] + records[i:], idents
        yield records[:i] + records[i + 1 : i + 2] + records[i : i + 1] + records[i + 2 :], idents
    for i, ident in enumerate(idents):
        for owner in (None, *range(0, top + 1)):
            if owner != ident.attributed_to:
                yield records, idents[:i] + [ident._replace(attributed_to=owner)] + idents[i + 1 :]
        label = DEFECTIVE if ident.label == GOOD else GOOD
        yield records, idents[:i] + [ident._replace(label=label)] + idents[i + 1 :]
        yield records, idents[:i] + idents[i + 1 :]
        yield records, idents[: i + 1] + idents[i:]


def _zu_runs():
    for n in range(1, 7):
        for mask in range(1 << n):
            yield run_zu(PoolOracle(instance_from_mask(n, mask)))
    # A deep tuple, the known red, and a contaminated additional test.
    for n, mask in ((12, 1 << 8), (9, 0b11000010), (100, 1 << 99)):
        yield run_zu(PoolOracle(instance_from_mask(n, mask)))


def test_the_fold_never_certifies_a_tampered_zu_run():
    certified = 0
    for run in _zu_runs():
        for records, idents in _tampers(run):
            if fold_passes(fold_records(FOLD_START, records, idents)):
                tampered = RunResult("zu", Transcript(records, idents))
                assert analyze(tampered).failures == [], (records, idents)
                certified += 1
    # Some tampers change what analyze never reads, such as the parent of a
    # top-level record, and the fold certifies those runs.
    assert certified


def _verdicts(records, idents):
    # (analyze's failure rows, the fold's certificate) of a forged zu run.
    transcript = Transcript(records, idents)
    failures = analyze(RunResult("zu", transcript)).failures
    return failures, fold_passes(fold_records(FOLD_START, records, idents))


def _two_pairs_after(*outcomes):
    # Three rank-0 drivers on items 0..2 with these outcomes, then two
    # rank-1 pairs, tests 4 and 7, each of which a pure rank-0 driver can
    # partner.
    return [
        *(_rec(s, [s - 1], outcome, DRIVER, rank=0) for s, outcome in enumerate(outcomes, 1)),
        _rec(4, [3, 4], CONTAMINATED, DRIVER, rank=1),
        _rec(5, [3], CONTAMINATED, INCURRED, parent=4),
        _rec(6, [4], CONTAMINATED, INCURRED, parent=4),
        _rec(7, [5, 6], CONTAMINATED, DRIVER, rank=1),
        _rec(8, [5], CONTAMINATED, INCURRED, parent=7),
        _rec(9, [6], CONTAMINATED, INCURRED, parent=7),
    ]


def test_the_fold_takes_a_partner_inside_the_phase_first():
    # Test 2 ends the first phase. Item 2 is charged to test 1, and item 7
    # to the last pair. Test 3 then partners the first pair on 2
    # identifications, over budget(2, 2); the earliest partner, test 1,
    # would have left both tuples within budget.
    idents = _idents(
        (0, GOOD, 1), (2, GOOD, 1), (1, DEFECTIVE, 2), (3, DEFECTIVE, 4),
        (4, DEFECTIVE, 4), (5, DEFECTIVE, 7), (6, DEFECTIVE, 7), (7, GOOD, 7),
    )
    failures, certified = _verdicts(_two_pairs_after(PURE, CONTAMINATED, PURE), idents)
    assert [(name, values["pure_test"]) for name, values in failures] == [
        ("tuple-bound", 3)
    ]
    assert not certified


def test_the_fold_takes_the_earliest_partner_outside_the_phase():
    # Test 1 partners the first pair, which no test of its own phase can,
    # on 2 identifications, over budget(2, 2); test 2, which holds item 0,
    # would have left both tuples within budget.
    idents = _idents(
        (0, GOOD, 2), (1, GOOD, 2), (2, DEFECTIVE, 3), (3, DEFECTIVE, 4),
        (4, DEFECTIVE, 4), (5, DEFECTIVE, 7), (6, DEFECTIVE, 7), (7, GOOD, 7),
    )
    failures, certified = _verdicts(_two_pairs_after(PURE, PURE, CONTAMINATED), idents)
    assert [(name, values["pure_test"]) for name, values in failures] == [
        ("tuple-bound", 1)
    ]
    assert not certified


def test_the_fold_checks_the_all_classes_budget():
    # Test 1, left in c4, has 28 incurred tests of its own, so the closed
    # phases hold 32 tests: over budget(3, 6) + 16 once three of the six
    # identified items are defective.
    records = [_rec(1, [0], PURE, DRIVER, rank=0)]
    records += [_rec(s, [0], PURE, INCURRED, parent=1) for s in range(2, 30)]
    records += [
        _rec(30, [1, 2], PURE, DRIVER, rank=1),
        _rec(31, [3, 4, 5], CONTAMINATED, DRIVER, rank=2),
        _rec(32, [3], CONTAMINATED, INCURRED, parent=31),
        _rec(33, [6, 7], PURE, DRIVER, rank=1),
    ]
    owners = [(0, GOOD, 1), (1, GOOD, 30), (2, GOOD, 30), (3, DEFECTIVE, 31)]
    failures, certified = _verdicts(
        records, _idents(*owners, (6, DEFECTIVE, 33), (7, DEFECTIVE, 33))
    )
    assert [name for name, _ in failures] == ["all-classes-bound"]
    assert not certified
    # With the two late defectives charged to no test, the fold cannot
    # count them and defers; analyze still counts them in the run.
    failures, certified = _verdicts(
        records, _idents(*owners, (6, DEFECTIVE, None), (7, DEFECTIVE, None))
    )
    assert [name for name, _ in failures] == ["all-classes-bound"]
    assert not certified


def test_the_fold_counts_the_additional_test_in_the_paired_budget():
    # zu on 100 items with defective 99 ends on a tuple with contaminated
    # additional 7. Five incurred tests charged to it, right after it, take
    # the paired classes to 10 tests against budget(1, 52); the tuple counts
    # the additional as one test and stays within its own budget.
    run = run_zu(PoolOracle(instance_from_mask(100, 1 << 99)))

    def shifted(seq):
        return seq + 5 if seq is not None and seq > 7 else seq

    records = []
    for rec in run.transcript.records:
        records.append(dataclasses.replace(rec, seq=shifted(rec.seq), parent=shifted(rec.parent)))
        if rec.seq == 7:
            records += [_rec(s, [0], PURE, INCURRED, parent=7) for s in range(8, 13)]
    idents = [
        ident._replace(attributed_to=shifted(ident.attributed_to))
        for ident in run.transcript.identifications
    ]
    failures, certified = _verdicts(records, idents)
    assert [(name, values["lhs"]) for name, values in failures] == [
        ("paired-classes-bound", 10)
    ]
    assert not certified


def test_the_fold_defers_a_phase_whose_partner_comes_later():
    # The rank-1 pair closes the first phase before any rank-0 pure driver;
    # classify partners it with test 4, from the next phase. analyze passes
    # the run, and the fold, which matches partners as phases close, defers.
    records = [
        _rec(1, [0, 1], CONTAMINATED, DRIVER, rank=1),
        _rec(2, [0], CONTAMINATED, INCURRED, parent=1),
        _rec(3, [1], CONTAMINATED, INCURRED, parent=1),
        _rec(4, [2], PURE, DRIVER, rank=0),
        _rec(5, [3], CONTAMINATED, DRIVER, rank=0),
    ]
    idents = _idents((0, DEFECTIVE, 1), (1, DEFECTIVE, 1), (2, GOOD, 4), (3, DEFECTIVE, 5))
    assert _verdicts(records, idents) == ([], False)
