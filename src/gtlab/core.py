"""Ground-truth instances, the counting pool oracle, and transcript recording.

Every strategy in this package runs against a PoolOracle and writes its tests
and identifications through a Session. A pool answers "contaminated" when it
contains at least one defective item, "pure" otherwise. Transcripts are fully
deterministic: re-running the same strategy on the same instance reproduces
the same records byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import filterfalse
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

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
    """The instance whose defectives are the set bits of mask; bits at or
    above n, and negative masks, are rejected rather than dropped."""
    if mask < 0 or (n >= 0 and mask >> n):
        raise ValueError(f"defective mask {mask:#x} outside {n} items")
    items = []
    while mask:
        low = mask & -mask
        items.append(low.bit_length() - 1)
        mask ^= low
    return Instance(n, frozenset(items))


def pool_items(pool: Iterable[int], n: int) -> Tuple[int, ...]:
    """The pool as a tuple; an empty pool, or one naming an item outside
    [0, n), is rejected, the first offender in pool order named."""
    items = tuple(pool)
    if not items:
        raise ValueError("empty pool")
    if min(items) < 0 or max(items) >= n:
        for item in items:
            if not 0 <= item < n:
                raise ValueError("pool index %r outside [0, %d)" % (item, n))
    return items


class PoolOracle:
    """Answers pool queries against one instance and counts every query."""

    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        self.n = instance.n
        self.defectives = instance.defectives
        self.query_count = 0

    def contaminated(self, pool: Iterable[int]) -> bool:
        items = pool_items(pool, self.n)
        self.query_count += 1
        return not self.defectives.isdisjoint(items)


@dataclass(slots=True)
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


# (item, label) of an Identification, as Transcript.classified maps it.
_ITEM_LABEL = itemgetter(0, 1)

# Identification from one (item, label, attributed_to, via_test) tuple:
# the same object the class call builds, without its Python-level __new__.
_identification = partial(tuple.__new__, Identification)


@dataclass
class Transcript:
    records: List[TestRecord] = field(default_factory=list)
    identifications: List[Identification] = field(default_factory=list)

    def classified(self) -> Dict[int, str]:
        """Each identified item's label; a repeated item keeps its last."""
        return dict(map(_ITEM_LABEL, self.identifications))


@dataclass
class RunResult:
    """A finished run: its transcript is the one record of its tests and
    labels."""

    algorithm: str
    transcript: Transcript
    plan: object = None

    @property
    def tests_used(self) -> int:
        return len(self.transcript.records)


class Session:
    """Per-run query funnel: the one record of a run's state.

    It keeps the test count, the good/defective bitmasks and the full
    transcript. The exhaustive sweeps use the kernels counters instead.
    """

    def __init__(self, oracle: PoolOracle) -> None:
        self.oracle = oracle
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
        outcome = CONTAMINATED if hit else PURE
        self.records.append(
            TestRecord(self.tests, items, outcome, kind, rank, parent, outcome)
        )
        return hit

    def mark_status(self, seq: int, status: str) -> None:
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
        self.identifications.append(
            _identification((item, label, attributed_to, via_test))
        )

    def identify_all(
        self, items: Iterable[int], label: str, attributed_to: Optional[int]
    ) -> None:
        """identify(item, label, attributed_to, True) for each item in order."""
        for item in items:
            self.identify(item, label, attributed_to, True)

    def unresolved(self, items: Iterable[int]) -> List[int]:
        done = self.good_mask | self.defective_mask
        return [x for x in items if not (done >> x) & 1]

    def snapshot(self) -> Tuple[int, int, int, int]:
        """The state restore() returns to: the test count, both masks and
        the identification count."""
        return self.tests, self.good_mask, self.defective_mask, len(self.identifications)

    def restore(self, snapshot: Tuple[int, int, int, int]) -> None:
        """Drops every record and identification made since snapshot().

        Records kept must be unchanged since then, which holds when the
        snapshot is taken between driver steps: mark_status only touches the
        current step's driver.
        """
        self.tests, self.good_mask, self.defective_mask, idents = snapshot
        del self.records[self.tests :]
        del self.identifications[idents:]

    def transcript(self) -> Transcript:
        return Transcript(self.records, self.identifications)

    def result(self, algorithm: str, plan: object = None) -> RunResult:
        """The finished run of algorithm, as the runners return it."""
        return RunResult(algorithm, self.transcript(), plan)


# One step of a strategy: step(session, remaining, state) -> (remaining,
# state) makes the step's queries and identifications and returns the items
# still unresolved, in order, and the next state.
Step = Callable[[Session, List[int], object], Tuple[List[int], object]]


def drive(step: Step, state: object, session: Session, items: Iterable[int]) -> object:
    """Runs step from state over the ordered items until none remains
    unresolved; returns the final state."""
    remaining = list(items)
    while remaining:
        remaining, state = step(session, remaining, state)
    return state


@dataclass
class Verdict:
    ok: bool
    problems: List[str] = field(default_factory=list)


def finalize(run: RunResult, instance: Instance) -> Verdict:
    """Checks a finished run against ground truth and the accounting rules.

    Problems come in check order: every repeated identification, the first
    item never identified, the first item outside the instance, the first
    wrong label of an item inside it, then the records in sequence.
    """

    problems: List[str] = []
    records = run.transcript.records
    identifications = run.transcript.identifications
    defectives = instance.defectives

    seen = run.transcript.classified()
    if len(seen) != len(identifications):
        named = set()
        for ident in identifications:
            if ident.item in named:
                problems.append("item %d identified twice" % ident.item)
            named.add(ident.item)

    missing = next(filterfalse(seen.__contains__, range(instance.n)), None)
    if missing is not None:
        problems.append("item %d never identified" % missing)
    # With every item identified, n labels leave no room for one outside.
    if missing is not None or len(seen) != instance.n:
        outside = next((item for item in seen if not 0 <= item < instance.n), None)
        if outside is not None:
            problems.append("item %d outside [0, %d)" % (outside, instance.n))

    for item, label in seen.items():
        truth = DEFECTIVE if item in defectives else GOOD
        # An item outside the instance has no truth to judge; it is named above.
        if label != truth and 0 <= item < instance.n:
            problems.append("item %d classified %s, truth %s" % (item, label, truth))
            break

    kinds: List[str] = []
    for seq, rec in enumerate(records, 1):
        if rec.seq != seq:
            problems.append("record %d has seq %d" % (seq, rec.seq))
            break
        kind = rec.kind
        kinds.append(kind)
        # A contaminated answer is wrong exactly when the pool misses every
        # defective, and a pure one exactly when it does not.
        if (rec.raw_outcome == CONTAMINATED) == defectives.isdisjoint(rec.pool):
            problems.append("record %d outcome does not match ground truth" % seq)
            break
        if kind == ADDITIONAL:
            if rec.rank is not None:
                problems.append("additional record %d carries a rank" % seq)
        elif kind == INCURRED:
            parent = rec.parent
            if parent is None or parent >= seq:
                problems.append("incurred record %d lacks an earlier parent" % seq)
                break
            if parent < 1 or kinds[parent - 1] != DRIVER:
                problems.append("incurred record %d parented by a non-driver" % seq)
                break

    return Verdict(ok=not problems, problems=problems)
