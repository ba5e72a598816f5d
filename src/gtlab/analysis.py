"""Structural analysis of upward-strategy transcripts.

Reconstructs phases, the four test classes, and the pure/contaminated test
pairs from a finished run, then checks the per-class and per-pair budgets.
Identification counts are attributed to top-level tests: |I(T)| is the test
plus its incurred individual/group tests, n(T) the items whose labels were
attributed to it. Shape problems raise StructureError; budget violations are
reported in the verdict so callers can collect counterexamples.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import accumulate
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from gtlab.bounds import budget
from gtlab.core import (
    ADDITIONAL,
    CONTAMINATED,
    DEFECTIVE,
    DRIVER,
    INCURRED,
    PURE,
    Identification,
    Instance,
    RunResult,
    TestRecord,
    Transcript,
    Verdict,
)
from gtlab.splitting import pool_size, quarter_plan, quarter_run_sizes

_SLACK = 1e-9


def _hit(rec: TestRecord) -> bool:
    return rec.raw_outcome == CONTAMINATED


class StructureError(Exception):
    """Transcript shape contradicts the upward strategy's grammar."""


class TestView(NamedTuple):
    seq: int
    kind: str
    rank: Optional[int]
    status: str
    pool: Tuple[int, ...]
    incurred: int
    identified: int
    defectives: int


class Phase(NamedTuple):
    index: int
    tests: Tuple[int, ...]
    closed: bool


class ZigZagTuple(NamedTuple):
    pure_test: int
    cont_test: int
    extra: Optional[int]
    rank: int
    incurred: int
    identified: int
    defectives: int
    tuple_type: str


@dataclass(frozen=True)
class Classification:
    """The test classes and tuples of one transcript, plus the parse they
    were read from (per-test views, phases and the run's defective count),
    which the budget checks reuse instead of parsing the transcript again."""

    c1: frozenset
    c2: frozenset
    c3: frozenset
    c4: frozenset
    additional: frozenset
    tuples: Tuple[ZigZagTuple, ...]
    views: Dict[int, TestView] = field(compare=False, repr=False)
    phases: Tuple[Phase, ...] = field(compare=False, repr=False)
    defectives: int = field(compare=False, repr=False)


@dataclass
class AnalysisReport:
    """The classification of one transcript and its failed checks, in check
    order; the phases and the verdict are read from these."""

    classification: Classification
    failures: List[Failure]

    @property
    def phases(self) -> List[Phase]:
        return list(self.classification.phases)

    @property
    def verdict(self) -> Verdict:
        return Verdict(
            ok=not self.failures,
            problems=[f"{name}: {vals}" for name, vals in self.failures],
        )


def _views(
    transcript: Transcript,
) -> Tuple[Dict[int, TestView], Dict[int, List[TestRecord]], int]:
    """The view of every top-level test by seq, the incurred records of
    each parent in test order, and the run's defective identifications."""
    by_parent: Dict[int, List[TestRecord]] = defaultdict(list)
    for rec in transcript.records:
        if rec.kind == INCURRED:
            by_parent[rec.parent].append(rec)
    idents: Counter = Counter()
    defect: Counter = Counter()
    for ident in transcript.identifications:
        idents[ident.attributed_to] += 1
        if ident.label == DEFECTIVE:
            defect[ident.attributed_to] += 1
    views = {
        rec.seq: TestView(
            seq=rec.seq,
            kind=rec.kind,
            rank=rec.rank,
            status=rec.status,
            pool=tuple(rec.pool),
            incurred=1 + len(by_parent[rec.seq]),
            identified=idents[rec.seq],
            defectives=defect[rec.seq],
        )
        for rec in transcript.records
        if rec.kind != INCURRED
    }
    return views, by_parent, sum(defect.values())


def _check_phase(tests: Sequence[TestRecord], closed: bool) -> None:
    extras = [pos for pos, rec in enumerate(tests) if rec.kind == ADDITIONAL]
    if len(extras) > 1:
        raise StructureError("more than one additional test in a phase")
    for pos, rec in enumerate(tests):
        if rec.kind == ADDITIONAL:
            if pos != 6:
                raise StructureError("additional test not at phase position 7")
            head = tests[:6]
            if any(r.kind != DRIVER or r.status != PURE for r in head):
                raise StructureError("additional test not preceded by 6 pure tests")
            if closed and rec.status == PURE:
                raise StructureError("pure additional inside a closed phase")
            if not closed:
                if rec.status != PURE:
                    raise StructureError("contaminated additional in the final phase")
                if pos != len(tests) - 1:
                    raise StructureError("tests after a pure additional")
        else:
            last = closed and pos == len(tests) - 1
            if not last and rec.status != PURE:
                raise StructureError("contaminated driver does not close its phase")


def segment_phases(transcript: Transcript) -> List[Phase]:
    """The top-level tests cut after each contaminated driver, every phase
    checked against the grammar in order (the open final phase last)."""
    phases: List[Phase] = []
    group: List[TestRecord] = []
    for rec in transcript.records:
        if rec.kind == INCURRED:
            continue
        group.append(rec)
        if rec.kind == DRIVER and rec.status == CONTAMINATED:
            _check_phase(group, closed=True)
            phases.append(Phase(len(phases) + 1, tuple(r.seq for r in group), True))
            group = []
    if group:
        _check_phase(group, closed=False)
        phases.append(Phase(len(phases) + 1, tuple(r.seq for r in group), False))
    return phases


@lru_cache(maxsize=None)
def _offsets_by_queries(m: int, rank: int) -> Dict[tuple, int]:
    """The leftmost-defective offset of each extraction in quarter_plan."""
    return {e.queries: p for p, e in enumerate(quarter_plan(m, rank))}


def _extracted_offset(
    pool: Sequence[int], rank: int, recs: Sequence[TestRecord]
) -> int:
    """The offset in pool of the defective a recorded four-way extraction
    found; raises StructureError unless the extraction is one the plan lists."""
    if not 0 < len(pool) <= pool_size(rank):
        raise StructureError("driver pool does not fit its rank")
    offset = dict(zip(pool, range(len(pool)))).__getitem__
    try:
        queries = tuple(
            [(tuple(map(offset, rec.pool)), _hit(rec)) for rec in recs]
        )
    except KeyError:
        raise StructureError("incurred test outside its driver's pool") from None
    p = _offsets_by_queries(len(pool), rank).get(queries)
    if p is None:
        raise StructureError("incurred tests do not follow the four-way extraction")
    return p


_SOLO_TYPES = {1: "r1-solo", 2: "r2-solo"}


def _tuple_type(rank: int, pool: Tuple[int, ...], recs: Sequence[TestRecord]) -> str:
    """The type of the tuple a contaminated driver of rank >= 1 on pool
    ends, read from its incurred records recs."""
    if len(pool) == 1:
        if recs:
            raise StructureError("single-item driver with incurred tests")
        return _SOLO_TYPES.get(rank, "deep-solo")
    if rank == 1:
        if (
            len(pool) != 2
            or len(recs) != 2
            or tuple(recs[0].pool) != pool[:1]
            or tuple(recs[1].pool) != pool[1:]
            or not (_hit(recs[0]) and _hit(recs[1]))
        ):
            raise StructureError("rank-1 contaminated driver is not a resolved pair")
        return "r1-pair"
    if rank == 2 and len(recs) == len(pool) and all(
        list(r.pool) == [item] for r, item in zip(recs, pool)
    ):
        return "r2-triple"
    p = _extracted_offset(pool, rank, recs)
    if rank == 2:
        return "r2-scan"
    if len(pool) <= 3:
        return "deep-scan"
    ends = list(accumulate(quarter_run_sizes(rank)))
    return f"deep-q{bisect_right(ends, p) + 1}"


@lru_cache(maxsize=None)
def _type_floor(tuple_type: str, rank: int) -> Tuple[int, int]:
    """Minimum identifications and maximum incurred surplus for a deep
    tuple: (n(P) floor beyond the pure partner's pool, incurred cap term)."""
    if tuple_type == "deep-q1":
        return 3 * (1 << (rank - 3)) + 1, rank + 1
    if tuple_type == "deep-q2":
        return 5 * (1 << (rank - 3)) + 1, rank + 2
    if tuple_type == "deep-q3":
        return 7 * (1 << (rank - 3)) + 1, rank + 2
    if tuple_type == "deep-q4":
        return 8 * (1 << (rank - 3)) + 1, rank + 2
    return pool_size(rank - 1) + 1, rank + 2


def classify(transcript: Transcript) -> Classification:
    views, recs_by_parent, d_run = _views(transcript)
    phases = tuple(segment_phases(transcript))
    trailing = phases[-1] if phases and not phases[-1].closed else None
    c1 = frozenset(trailing.tests) if trailing else frozenset()
    # Pure drivers with a full pool, by rank, in test order: the only tests
    # that can partner a contaminated driver one rank up. A partner leaves
    # its list once matched.
    partners: Dict[int, List[int]] = defaultdict(list)
    additional: Set[int] = set()
    for seq in sorted(views):
        view = views[seq]
        rank = view.rank
        if view.kind == ADDITIONAL:
            additional.add(seq)
        elif view.kind != DRIVER or rank is None:
            continue
        elif type(rank) is not int or rank < 0:
            raise StructureError(f"driver {seq} has rank {rank!r}")
        elif view.status == PURE and len(view.pool) == pool_size(rank) and seq not in c1:
            partners[rank].append(seq)
    c2: Set[int] = set()
    c3: Set[int] = set()
    tuples: List[ZigZagTuple] = []
    for phase in phases:
        if not phase.closed:
            continue
        ender = views[phase.tests[-1]]
        extra = next((s for s in phase.tests if s in additional), None)
        if ender.rank == 0:
            if extra is not None:
                raise StructureError("additional test in a rank-0 phase")
            c2.add(ender.seq)
            continue
        rank = ender.rank or 0
        eligible = partners[rank - 1]
        if not eligible:
            raise StructureError(
                f"no pure partner of rank {rank - 1} for test {ender.seq}"
            )
        # A partner inside the phase wins; otherwise the earliest in the run.
        # The ender is never eligible: it sits in the list of its own rank.
        partner = next((s for s in phase.tests if s in eligible), eligible[0])
        eligible.remove(partner)
        ttype = _tuple_type(rank, ender.pool, recs_by_parent[ender.seq])
        pure = views[partner]
        defectives = pure.defectives + ender.defectives
        if defectives < 1:
            raise StructureError("tuple without a defective identification")
        tuples.append(
            ZigZagTuple(
                pure_test=partner,
                cont_test=ender.seq,
                extra=extra,
                rank=rank,
                incurred=pure.incurred + ender.incurred + (extra is not None),
                identified=pure.identified + ender.identified,
                defectives=defectives,
                tuple_type=ttype,
            )
        )
        c3.update((partner, ender.seq))
        if extra is not None:
            c3.add(extra)
    return Classification(
        c1=c1,
        c2=frozenset(c2),
        c3=frozenset(c3),
        c4=frozenset(views) - c1 - c2 - c3,
        additional=frozenset(additional),
        tuples=tuple(tuples),
        views=views,
        phases=phases,
        defectives=d_run,
    )


# Each count and budget check, written once: the failure row it reports,
# or None when it passes. verify_observations and check_class_bounds
# report the rows; the fold (fold_records) defers a run on any of them.
Failure = Tuple[str, Dict[str, object]]


def _c4_rank_rows(ranks: List[int], tuples: Sequence[ZigZagTuple]) -> List[Failure]:
    """The sorted ranks of a nonempty c4 must be 0, 1, 2, ..., the highest
    at least two below the highest tuple's."""
    rows: List[Failure] = []
    if ranks != list(range(len(ranks))):
        rows.append(("c4-consecutive-ranks", {"ranks": ranks}))
    if tuples:
        top_c4, top_cont = ranks[-1], max(t.rank for t in tuples)
        if top_c4 + 2 > top_cont:
            rows.append(
                ("c4-rank-gap", {"c4_max": top_c4, "contaminated_max": top_cont})
            )
    return rows


def _phase_count_row(phases: int, defectives: int) -> Optional[Failure]:
    if phases > defectives + 1:
        return ("phase-count", {"phases": phases, "defectives": defectives})
    return None


def _final_phase_row(lhs: int) -> Optional[Failure]:
    if lhs > 7:
        return ("final-phase-budget", {"lhs": lhs, "rhs": 7})
    return None


def _rank0_row(seq: int, incurred: int, identified: int) -> Optional[Failure]:
    rhs = budget(1, max(identified, 1))
    if not incurred < rhs:
        return ("rank0-test-bound", {"test": seq, "lhs": incurred, "rhs": rhs})
    return None


def _tuple_row(t: ZigZagTuple) -> Optional[Failure]:
    pure_test, cont_test, _, rank, incurred, identified, defectives, tuple_type = t
    rhs = budget(defectives, identified)
    if incurred > rhs + _SLACK:
        return (
            "tuple-bound",
            {
                "pure_test": pure_test,
                "cont_test": cont_test,
                "rank": rank,
                "tuple_type": tuple_type,
                "lhs": incurred,
                "rhs": rhs,
            },
        )
    return None


def _type_row(t: ZigZagTuple, pure_incurred: int) -> Optional[Failure]:
    """The deep-tuple floor and cap; pure_incurred is the partner's |I(T)|."""
    if t.rank < 3:
        return None
    floor, surplus = _type_floor(t.tuple_type, t.rank)
    cap = pure_incurred + surplus
    if t.identified < floor or t.incurred > cap:
        return (
            "type-bound",
            {
                "cont_test": t.cont_test,
                "tuple_type": t.tuple_type,
                "identified": t.identified,
                "floor": floor,
                "incurred": t.incurred,
                "cap": cap,
            },
        )
    return None


def _paired_row(defectives: int, identified: int, lhs: int) -> Optional[Failure]:
    """The summed budget of c2 and c3, which must hold a defective."""
    if defectives < 1:
        return ("paired-classes-bound", {"lhs": lhs, "rhs": None})
    rhs = budget(defectives, max(identified, defectives))
    if lhs > rhs + _SLACK:
        return ("paired-classes-bound", {"lhs": lhs, "rhs": rhs})
    return None


def _all_classes_row(defectives: int, identified: int, lhs: int) -> Optional[Failure]:
    """The budget of every test in a class, checked from 3 defectives on."""
    if defectives < 3:
        return None
    rhs = budget(defectives, identified) + 16
    if lhs > rhs + _SLACK:
        return ("all-classes-bound", {"lhs": lhs, "rhs": rhs})
    return None


def verify_observations(classification: Classification) -> List[Failure]:
    cls = classification
    failures: List[Failure] = []
    in_tuples: List[int] = []
    for t in cls.tuples:
        in_tuples.extend([t.pure_test, t.cont_test])
        if t.extra is not None:
            in_tuples.append(t.extra)
    expected = (len(cls.c3) - len(cls.additional & cls.c3)) / 2
    if len(cls.tuples) != expected or sorted(in_tuples) != sorted(cls.c3):
        failures.append(
            (
                "tuple-count",
                {"tuples": len(cls.tuples), "expected": expected, "c3": sorted(cls.c3)},
            )
        )
    c4_views = [cls.views[s] for s in sorted(cls.c4)]
    if any(view.status != PURE for view in c4_views):
        failures.append(("c4-pure", {"c4": sorted(cls.c4)}))
    if c4_views:
        ranks = sorted(view.rank or 0 for view in c4_views)
        failures += _c4_rank_rows(ranks, cls.tuples)
    row = _phase_count_row(len(cls.phases), cls.defectives)
    if row:
        failures.append(row)
    return failures


def check_class_bounds(
    classification: Classification, transcript: Transcript
) -> List[Failure]:
    cls = classification
    views = cls.views
    rows: List[Optional[Failure]] = []

    rows.append(_final_phase_row(sum(views[s].incurred for s in cls.c1)))

    for seq in sorted(cls.c2):
        rows.append(_rank0_row(seq, views[seq].incurred, views[seq].identified))

    for t in cls.tuples:
        rows.append(_tuple_row(t))
        rows.append(_type_row(t, views[t.pure_test].incurred))

    paired = cls.c2 | cls.c3
    if paired:
        d_pair = sum(views[s].defectives for s in paired)
        n_pair = sum(views[s].identified for s in paired)
        lhs = sum(views[s].incurred for s in paired)
        rows.append(_paired_row(d_pair, n_pair, lhs))

    lhs_all = sum(views[s].incurred for s in paired | cls.c4)
    rows.append(
        _all_classes_row(cls.defectives, len(transcript.identifications), lhs_all)
    )
    failures = [row for row in rows if row]

    total = sum(view.incurred for view in views.values())
    n_records = len(transcript.records)
    if total != n_records:
        failures.append(("test-recomposition", {"lhs": total, "rhs": n_records}))

    return failures


def upward_subtranscript(run: RunResult) -> Transcript:
    """The upward-strategy portion of a run, for analysis.

    A plain upward run is returned whole. A quarter-round run that dispatched
    to the upward strategy has its round and tail tests (which carry no rank)
    stripped. Anything else has no upward portion.
    """
    if run.algorithm == "zu":
        return run.transcript
    plan = run.plan
    dispatched_up = plan is not None and (
        (plan.alpha1 or 0) >= 3 or (plan.alpha2 or 0) >= 3
    )
    if run.algorithm != "zc" or not dispatched_up:
        raise ValueError("run has no upward-strategy portion")
    keep: Set[int] = set()
    records = []
    for rec in run.transcript.records:
        if rec.kind == INCURRED:
            if rec.parent in keep:
                records.append(rec)
                keep.add(rec.seq)
        elif rec.rank is not None or rec.kind == ADDITIONAL:
            records.append(rec)
            keep.add(rec.seq)
    idents = [
        i for i in run.transcript.identifications if i.attributed_to in keep
    ]
    return Transcript(records=records, identifications=idents)


def analyze(run: RunResult) -> AnalysisReport:
    transcript = upward_subtranscript(run)
    classification = classify(transcript)
    failures = verify_observations(classification)
    failures += check_class_bounds(classification, transcript)
    return AnalysisReport(classification=classification, failures=failures)


# The fold: the same checks as analyze, carried along a run one top-level
# test at a time, so that a walk of zu's decision tree shares the analysis
# of each run's prefix with every run that shares the prefix.
#
# The state is an immutable tuple (FoldState), or None once the fold has
# deferred. It holds the open phase's grammar, the unmatched pure drivers,
# the closed tuples, running sums and the record count. A phase's partner
# is matched when its ender closes it, among the full pure drivers seen so
# far: one inside the phase first, otherwise the earliest. classify matches
# among every closed phase's drivers, so the two agree whenever the fold
# finds a partner; the fold defers a closed phase with none yet. It also
# defers every failed check and anything analyze would raise on or that it
# does not follow: a seq out of order, an unknown kind or driver status, an
# incurred test away from its parent or an identification away from its
# test. fold_passes then certifies only a run on which analyze reports no
# failure, and analyze, the reference, is left to report everything else.
class FoldState(NamedTuple):
    seq: int  # records so far; the next top-level test has seq + 1
    phase_len: int  # top-level tests in the open phase
    phase_incurred: int  # their |I(T)|, so its records are the last ones
    # The open phase's additional test: (seq, incurred, identified,
    # defectives, status), or None.
    extra: Optional[tuple]
    # Every pure driver not yet a partner, in seq order: (rank, seq,
    # incurred, identified, defectives, full pool). Those in closed phases
    # are c4.
    pure: tuple
    tuples: Tuple[ZigZagTuple, ...]  # the closed phases' tuples, in order
    phases: int  # closed phases
    d_pair: int  # defectives, identifications and |I(T)| of c2 and c3
    n_pair: int
    lhs_pair: int
    defectives: int  # of the run so far
    identified: int


# Each builds its tuple from one tuple of fields, without the Python-level
# __new__ of the class call: the fold builds them on every walked step.
_fold_state = partial(tuple.__new__, FoldState)
_zigzag_tuple = partial(tuple.__new__, ZigZagTuple)

FOLD_START = _fold_state((0, 0, 0, None, (), (), 0, 0, 0, 0, 0, 0))


def _fold_test(
    state: FoldState,
    rec: TestRecord,
    kids: Sequence[TestRecord],
    identified: int,
    defectives: int,
) -> Optional[FoldState]:
    """state after the top-level test rec, with its incurred records kids
    and identified items, defectives of them."""
    (seq, phase_len, phase_incurred, extra, pure, tuples, phases,
     d_pair, n_pair, lhs_pair, d_run, idents) = state
    if extra is not None and extra[4] == PURE:
        return None  # a test after a pure additional
    test = rec.seq
    incurred = 1 + len(kids)
    last = seq + incurred
    d_run += defectives
    idents += identified
    kind = rec.kind
    status = rec.status
    if kind == ADDITIONAL:
        # The only one of its phase, since it leaves the phase 7 tests long.
        if phase_len != 6:
            return None
        extra = (test, incurred, identified, defectives, status)
        return _fold_state((
            last, 7, phase_incurred + incurred, extra, pure, tuples, phases,
            d_pair, n_pair, lhs_pair, d_run, idents,
        ))
    rank = rec.rank
    if kind != DRIVER or type(rank) is not int or rank < 0:
        return None
    if status == PURE:
        full = len(rec.pool) == pool_size(rank)
        pure += ((rank, test, incurred, identified, defectives, full),)
        return _fold_state((
            last, phase_len + 1, phase_incurred + incurred, extra, pure, tuples,
            phases, d_pair, n_pair, lhs_pair, d_run, idents,
        ))
    if status != CONTAMINATED:
        return None
    # A contaminated driver closes the phase (c2 at rank 0, else a tuple).
    if rank == 0:
        if extra is not None or _rank0_row(test, incurred, identified):
            return None
        d_pair += defectives
        n_pair += identified
        lhs_pair += incurred
    else:
        eligible = [i for i, e in enumerate(pure) if e[0] == rank - 1 and e[5]]
        if not eligible:
            return None
        start = seq - phase_incurred + 1  # the open phase's first seq
        pick = ([i for i in eligible if pure[i][1] >= start] or eligible)[0]
        partner = pure[pick]
        try:
            tuple_type = _tuple_type(rank, tuple(rec.pool), kids)
        except StructureError:
            return None
        t = _zigzag_tuple((
            partner[1],
            test,
            extra[0] if extra is not None else None,
            rank,
            partner[2] + incurred + (extra is not None),
            partner[3] + identified,
            partner[4] + defectives,
            tuple_type,
        ))
        if t[6] < 1 or _tuple_row(t) or _type_row(t, partner[2]):
            return None
        pure = pure[:pick] + pure[pick + 1 :]
        d_pair += partner[4] + defectives
        n_pair += partner[3] + identified
        lhs_pair += partner[2] + incurred
        if extra is not None:
            d_pair += extra[3]
            n_pair += extra[2]
            lhs_pair += extra[1]
        tuples += (t,)
    return _fold_state((
        last, 0, 0, None, pure, tuples, phases + 1,
        d_pair, n_pair, lhs_pair, d_run, idents,
    ))


def fold_records(
    state: Optional[FoldState],
    records: Sequence[TestRecord],
    identifications: Sequence[Identification],
) -> Optional[FoldState]:
    """state after a run's next records, in order, and the identifications
    made with them; None once the fold defers.

    Each top-level record is folded with the incurred records after it and
    the identifications, in order, attributed to it. Any record or
    identification that does not fit that shape defers.
    """
    end = len(records)
    n_idents = len(identifications)
    i = j = 0
    while i < end and state is not None:
        rec = records[i]
        test = rec.seq
        if test != state[0] + 1:
            return None
        k = i + 1
        while k < end and records[k].kind == INCURRED:
            if records[k].parent != test:
                return None
            k += 1
        identified = defectives = 0
        while j < n_idents and identifications[j][2] == test:
            identified += 1
            if identifications[j][1] == DEFECTIVE:
                defectives += 1
            j += 1
        state = _fold_test(state, rec, records[i + 1 : k], identified, defectives)
        i = k
    return state if j == n_idents else None


def fold_passes(state: Optional[FoldState]) -> bool:
    """True when the folded run certainly passes analyze with no failure;
    False defers the run to analyze."""
    if state is None:
        return False
    (seq, phase_len, phase_incurred, extra, pure, tuples, phases,
     d_pair, n_pair, lhs_pair, d_run, idents) = state
    if extra is not None and extra[4] != PURE:
        return False  # a contaminated additional in the final phase
    start = seq - phase_incurred + 1
    ranks = sorted([entry[0] for entry in pure if entry[1] < start])
    closed_incurred = seq - phase_incurred
    return not (
        _final_phase_row(phase_incurred)
        or _phase_count_row(phases + (phase_len > 0), d_run)
        or (ranks and _c4_rank_rows(ranks, tuples))
        or (phases and _paired_row(d_pair, n_pair, lhs_pair))
        or _all_classes_row(d_run, idents, closed_incurred)
    )


def transcript_json(transcript: Transcript) -> Dict[str, object]:
    return {
        "records": [
            {
                "seq": r.seq,
                "pool": list(r.pool),
                "outcome": r.raw_outcome,
                "kind": r.kind,
                "rank": r.rank,
                "parent": r.parent,
                "status": r.status,
            }
            for r in transcript.records
        ],
        "identifications": [
            {
                "item": i.item,
                "label": i.label,
                "attributed_to": i.attributed_to,
                "via_test": i.via_test,
            }
            for i in transcript.identifications
        ],
    }


def counterexample_json(
    run: RunResult, instance: Instance, failed_check: str, values: Dict[str, object]
) -> Dict[str, object]:
    """A self-contained failure dump: the ground-truth instance (never the
    run's own labels, which a failed run may have wrong), the transcript,
    the failed check and its values."""
    return {
        "instance": {"n": instance.n, "defectives": sorted(instance.defectives)},
        "transcript": transcript_json(run.transcript),
        "failed_check": failed_check,
        "values": values,
    }
