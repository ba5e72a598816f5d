"""One benchmark step in a fresh interpreter; prints one JSON line.

    python3 perfbench/child.py setup
    python3 perfbench/child.py pass WORKLOAD SEED [--serial] [--trace SPANS_FILE]
        [--probe-parallel]

``setup`` times importing gtlab and resolving ``kernels.BACKEND``. ``pass``
does the same, then runs and times one pass of WORKLOAD under the speed
sampler (``calibrate.py``), reads the peak resident memory of this process
and of its worker processes, and checks the output against
``reference.json``. A serial step keeps to one CPU; a two-worker pass may use
every CPU. With ``--trace`` the pass runs under the tracer, the per-layer
metrics are derived from its spans (filled by the probe steps where the pass
did not reach a layer), and the spans are written to SPANS_FILE. Every
reported time comes with ``speed``, the factor that scales it to the
reference speed. Exit code 3 means gtlab could not be imported from ``src/``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import traceback
from time import perf_counter

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
ALL_CPUS = os.sched_getaffinity(0)
SETUP_CHUNKS = 3


def _import_gtlab() -> dict:
    start = perf_counter()
    sys.path.insert(0, SRC)
    import gtlab
    from gtlab import analysis, bounds, cli, harness, kernels  # noqa: F401

    backend = kernels.BACKEND
    setup_s = perf_counter() - start
    if not os.path.abspath(gtlab.__file__).startswith(SRC + os.sep):
        raise ImportError(f"gtlab imported from {gtlab.__file__}, not from src/")
    return {"setup_s": setup_s, "backend": backend}


def _peak_rss_kb() -> int:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own + workers


def _parallel_efficiency(n: int) -> float:
    """Serial over twice the two-worker time of the same untraced grid,
    both scaled by the sampler's speed."""
    from gtlab import harness

    os.sched_setaffinity(0, ALL_CPUS)
    times = []
    reports = []
    for workers in (1, 2):
        with calibrate.Sampler() as sampler:
            start = perf_counter()
            reports.append(harness.report_to_json(harness.verify_grid(n, workers=workers)))
            times.append((perf_counter() - start) * sampler.speed())
    if reports[0] != reports[1]:
        raise AssertionError("two-worker grid differs from the serial grid")
    return times[0] / (2 * times[1])


def _traced_metrics(tracer, names, probe_parallel: bool):
    from tracer import Tracer, layer_metrics
    from workloads import PROBE_PARALLEL_N, PROBE_STEPS

    metrics = layer_metrics(tracer)
    probe = Tracer()
    missing = [name for name in names if name not in metrics]
    for prefixes, step in PROBE_STEPS:
        if any(name.startswith(prefixes) for name in missing):
            probe.install()
            try:
                step()
            finally:
                probe.remove()
    for name, value in layer_metrics(probe).items():
        metrics.setdefault(name, value)
    if probe_parallel:
        metrics["harness.parallel_efficiency"] = _parallel_efficiency(PROBE_PARALLEL_N)
    return metrics, probe.spans


def run_pass(argv: list, stamp: dict) -> dict:
    from tracer import Tracer
    from workloads import WORKLOADS

    name, seed = argv[0], int(argv[1])
    serial = "--serial" in argv
    spans_file = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    workload = WORKLOADS[name]
    with open(os.path.join(HERE, "reference.json")) as handle:
        reference = json.load(handle)[name]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        layer_names = [m["name"] for m in json.load(handle)["per_layer"]]

    tracer = Tracer().install() if spans_file else None
    problems = []
    out = None
    with calibrate.Sampler() as sampler:
        start = perf_counter()
        try:
            out = workload.run(seed, serial=serial)
        except Exception:
            problems.append("pass raised: " + traceback.format_exc(limit=3))
        wall_s = perf_counter() - start
    rss_kb = _peak_rss_kb()
    if tracer is not None:
        tracer.remove()
    if out is not None:
        try:
            problems.extend(workload.check(out, reference, seed))
        except Exception:
            problems.append("check raised: " + traceback.format_exc(limit=3))
    result = dict(stamp, wall_s=wall_s, speed=sampler.speed(), rss_kb=rss_kb,
                  sets=workload.sets, problems=problems)
    if tracer is not None:
        metrics, probe_spans = _traced_metrics(
            tracer, layer_names, "--probe-parallel" in argv
        )
        result["metrics"] = metrics
        with open(spans_file, "w") as handle:
            json.dump({"stamp": stamp, "workload": name, "seed": seed,
                       "pass": tracer.spans, "probe": probe_spans}, handle)
    return result


def main(argv: list) -> int:
    parallel_pass = argv[0] == "pass" and argv[1] == "verify-w2" and "--serial" not in argv
    if not parallel_pass:
        calibrate.pin_to_one_cpu()
    before = [calibrate.chunk() for _ in range(SETUP_CHUNKS)]
    try:
        stamp = _import_gtlab()
    except ImportError as exc:
        print(f"cannot import gtlab: {exc}", file=sys.stderr)
        return 3
    after = [calibrate.chunk() for _ in range(SETUP_CHUNKS)]
    stamp["setup_speed"] = calibrate.speed(before + after)
    if argv[0] == "setup":
        result = stamp
    elif argv[0] == "pass":
        result = run_pass(argv[1:], stamp)
    else:
        print(f"unknown step {argv[0]!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
