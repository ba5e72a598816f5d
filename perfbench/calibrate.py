"""Measures how fast the CPU under a pass is while the pass runs.

On a shared machine the speed a CPU gives one process drifts by tens of
percent within seconds, and differs between CPUs at the same moment. Sampler
threads therefore run in the pass's own process, one kept to each CPU the
pass may use: every PERIOD_S each takes the interpreter lock and times a
fixed chunk of pure-Python work by its thread CPU time. The chunk is shaped
like a strategy run but does not use gtlab, so its time follows the machine
and never a change to gtlab. ``speed()`` is REFERENCE_CHUNK_S over the mean
chunk time: multiplying a time measured in the pass by it gives the time at
reference speed. The sampler costs a pass about 2% of its wall time.
"""

from __future__ import annotations

import gc
import os
import threading
from collections import namedtuple
from time import thread_time
from typing import List

# About the fastest chunk CPU time seen on a 2-core Xeon (Sapphire Rapids,
# KVM guest) under Python 3.11. It fixes the unit of the scaled times and
# nothing else.
REFERENCE_CHUNK_S = 0.0005

PERIOD_S = 0.05

Record = namedtuple("Record", "seq pool hit kind")

_ITEMS = 96
_POOL = 16
_DEFECTIVES = 4
_WARM_RUNS = 4
_RUNS = 12


def _find(defective: frozenset) -> list:
    items = list(range(_ITEMS))
    records = []
    found = []
    while items:
        pool = tuple(items[:_POOL])
        hit = any(x in defective for x in pool)
        records.append(Record(len(records) + 1, pool, hit, "driver"))
        if not hit:
            items = items[_POOL:]
            continue
        work = list(pool)
        while len(work) > 1:
            half = work[: (len(work) + 1) // 2]
            half_hit = any(x in defective for x in half)
            records.append(Record(len(records) + 1, tuple(half), half_hit, "incurred"))
            work = half if half_hit else work[len(half):]
        found.append(work[0])
        items.remove(work[0])
    if sorted(found) != sorted(defective):
        raise AssertionError("calibration search lost a defective")
    return records


def _work(runs: int) -> None:
    state = 12345
    kept = []
    for _ in range(runs):
        defective = set()
        while len(defective) < _DEFECTIVES:
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            defective.add(state % _ITEMS)
        kept.append(_find(frozenset(defective)))


def chunk() -> float:
    """Thread CPU seconds taken by the fixed chunk of work.

    The chunk first warms the caches with a few untimed runs, and the cyclic
    garbage collector is off while it runs, so that neither the pass's
    working set nor the size of its heap reaches the timed part.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        _work(_WARM_RUNS)
        start = thread_time()
        _work(_RUNS)
        return thread_time() - start
    finally:
        if collecting:
            gc.enable()


def pin_to_one_cpu() -> None:
    """Keeps this process, and the threads it starts, on one CPU so the
    sampler measures the CPU the pass runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Sampler:
    """``with Sampler() as s: ...`` samples the chunk time until the block
    ends, with one thread kept to each CPU this process may use; then
    ``s.speed()`` is the mean speed relative to the reference."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._run, args=(cpu,), daemon=True)
            for cpu in sorted(os.sched_getaffinity(0))
        ]

    def _run(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # this thread only
        while not self._stop.wait(PERIOD_S):
            self.samples.append(chunk())

    def __enter__(self) -> "Sampler":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def speed(self) -> float:
        return speed(self.samples)


def speed(samples: List[float] = ()) -> float:
    """Speed relative to the reference from chunk times; with none given,
    from five chunks timed now."""
    samples = list(samples) or [chunk() for _ in range(5)]
    return REFERENCE_CHUNK_S / (sum(samples) / len(samples))
