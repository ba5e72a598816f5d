"""Ground-truth instances, the counting pool oracle, and transcript recording.

Every strategy in this package runs against a PoolOracle and writes its tests
and identifications through a Session. A pool answers "contaminated" when it
contains at least one defective item, "pure" otherwise. Transcripts are fully
deterministic: re-running the same strategy on the same instance reproduces
the same records byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Tuple

PURE = "pure"
CONTAMINATED = "contaminated"

GOOD = "good"
DEFECTIVE = "defective"

DRIVER = "driver"
ADDITIONAL = "additional"
INCURRED = "incurred"


@dataclass(frozen=True)
class Instance:
    """An item count plus the hidden set of defective indices."""

    n: int
    defectives: FrozenSet[int]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("item count must be nonnegative")
        object.__setattr__(self, "defectives", frozenset(self.defectives))
        for item in self.defectives:
            if not 0 <= item < self.n:
                raise ValueError("defective index %r outside [0, %d)" % (item, self.n))

    @property
    def d(self) -> int:
        return len(self.defectives)

    @property
    def mask(self) -> int:
        m = 0
        for item in self.defectives:
            m |= 1 << item
        return m


def instance_from_mask(n: int, mask: int) -> Instance:
    return Instance(n, frozenset(i for i in range(n) if (mask >> i) & 1))


class PoolOracle:
    """Answers pool queries against one instance and counts every query."""

    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        self.query_count = 0

    def contaminated(self, pool: Iterable[int]) -> bool:
        items = tuple(pool)
        if not items:
            raise ValueError("empty pool")
        n = self.instance.n
        if min(items) < 0 or max(items) >= n:
            for item in items:
                if not 0 <= item < n:
                    raise ValueError("pool index %r outside [0, %d)" % (item, n))
        self.query_count += 1
        return not self.instance.defectives.isdisjoint(items)


@dataclass
class TestRecord:
    """One oracle query.

    kind is "driver" for a strategy's own pool tests (rank present when the
    strategy runs the rank schedule), "additional" for the whole-remaining-set
    test fired after six pure tests, and "incurred" for the individual or
    narrowing sub-tests a driver triggers. status starts equal to raw_outcome
    and is flipped to pure for a rank-1 driver whose pair resolved as one
    good, one defective.
    """

    __test__ = False  # keeps pytest from collecting the class

    seq: int
    pool: Tuple[int, ...]
    raw_outcome: str
    kind: str
    rank: Optional[int] = None
    parent: Optional[int] = None
    status: str = ""


class Identification(NamedTuple):
    item: int
    label: str
    attributed_to: Optional[int]
    via_test: bool


@dataclass
class Transcript:
    records: List[TestRecord] = field(default_factory=list)
    identifications: List[Identification] = field(default_factory=list)

    def classified(self) -> Dict[int, str]:
        return {ident.item: ident.label for ident in self.identifications}


@dataclass
class RunResult:
    algorithm: str
    tests_used: int
    transcript: Transcript
    classified: Dict[int, str]
    plan: object = None


class Session:
    """Per-run query funnel.

    With record=True it builds the full transcript; with record=False it only
    keeps the test count and the good/defective bitmasks, which is what the
    exhaustive sweeps need.
    """

    def __init__(self, oracle: PoolOracle, record: bool = True) -> None:
        self.oracle = oracle
        self.record = record
        self.tests = 0
        self.good_mask = 0
        self.defective_mask = 0
        self.records: List[TestRecord] = []
        self.identifications: List[Identification] = []

    def query(
        self,
        pool: Iterable[int],
        kind: str,
        rank: Optional[int] = None,
        parent: Optional[int] = None,
    ) -> bool:
        items = tuple(pool)
        hit = self.oracle.contaminated(items)
        self.tests += 1
        if self.record:
            outcome = CONTAMINATED if hit else PURE
            self.records.append(
                TestRecord(
                    seq=self.tests,
                    pool=items,
                    raw_outcome=outcome,
                    kind=kind,
                    rank=rank,
                    parent=parent,
                    status=outcome,
                )
            )
        return hit

    def mark_status(self, seq: int, status: str) -> None:
        if self.record:
            self.records[seq - 1].status = status

    def identify(
        self, item: int, label: str, attributed_to: Optional[int], via_test: bool
    ) -> None:
        bit = 1 << item
        if (self.good_mask | self.defective_mask) & bit:
            raise AssertionError("item %d identified twice" % item)
        if label == GOOD:
            self.good_mask |= bit
        else:
            self.defective_mask |= bit
        if self.record:
            self.identifications.append(Identification(item, label, attributed_to, via_test))

    def identify_all(
        self, items: Iterable[int], label: str, attributed_to: Optional[int]
    ) -> None:
        for item in items:
            self.identify(item, label, attributed_to, True)

    def is_identified(self, item: int) -> bool:
        return bool((self.good_mask | self.defective_mask) >> item & 1)

    def unresolved(self, items: Iterable[int]) -> List[int]:
        done = self.good_mask | self.defective_mask
        return [x for x in items if not (done >> x) & 1]

    def transcript(self) -> Transcript:
        return Transcript(self.records, self.identifications)

    def classified(self) -> Dict[int, str]:
        return {ident.item: ident.label for ident in self.identifications}


@dataclass
class Verdict:
    ok: bool
    problems: List[str] = field(default_factory=list)


def finalize(run: RunResult, instance: Instance) -> Verdict:
    """Checks a finished run against ground truth and the accounting rules."""

    problems: List[str] = []
    transcript = run.transcript

    if run.tests_used != len(transcript.records):
        problems.append(
            "tests_used=%d but %d records" % (run.tests_used, len(transcript.records))
        )

    seen: Dict[int, str] = {}
    for ident in transcript.identifications:
        if ident.item in seen:
            problems.append("item %d identified twice" % ident.item)
        seen[ident.item] = ident.label

    for item in range(instance.n):
        if item not in seen:
            problems.append("item %d never identified" % item)
            break

    for item, label in seen.items():
        truth = DEFECTIVE if item in instance.defectives else GOOD
        if label != truth:
            problems.append("item %d classified %s, truth %s" % (item, label, truth))
            break

    if run.classified != seen:
        problems.append("classified map disagrees with identifications")

    kinds_by_seq = {}
    for i, rec in enumerate(transcript.records):
        if rec.seq != i + 1:
            problems.append("record %d has seq %d" % (i + 1, rec.seq))
            break
        kinds_by_seq[rec.seq] = rec.kind
        truth_hit = not instance.defectives.isdisjoint(rec.pool)
        if (rec.raw_outcome == CONTAMINATED) != truth_hit:
            problems.append("record %d outcome does not match ground truth" % rec.seq)
            break
        if rec.kind == ADDITIONAL and rec.rank is not None:
            problems.append("additional record %d carries a rank" % rec.seq)
        if rec.kind == INCURRED:
            if rec.parent is None or rec.parent >= rec.seq:
                problems.append("incurred record %d lacks an earlier parent" % rec.seq)
                break
            if kinds_by_seq.get(rec.parent) != DRIVER:
                problems.append("incurred record %d parented by a non-driver" % rec.seq)
                break

    return Verdict(ok=not problems, problems=problems)
