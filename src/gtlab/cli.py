"""Command-line front end: single runs, worst-case cells, the verify grid,
exact minimax values, and bound evaluation. JSON goes to stdout; --out adds
a CSV copy of the verify grid. Exit codes: 0 clean, 1 violation, 2 usage,
141 stdout closed by its reader (128 + SIGPIPE, as a shell reports a
process that SIGPIPE ends).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import random
import sys
from typing import List, Optional

from gtlab import bounds, harness
from gtlab.analysis import transcript_json
from gtlab.core import Instance, PoolOracle, finalize
from gtlab.harness import ALGORITHMS, RUNNERS


def _parse_defectives(raw: str, n: int) -> List[int]:
    if not raw.strip():
        return []
    items = []
    for tok in raw.split(","):
        try:
            items.append(int(tok))
        except ValueError:
            raise ValueError(f"bad defective index {tok!r}") from None
    for item in items:
        if not 0 <= item < n:
            raise ValueError(f"defective index {item} outside 0..{n - 1}")
    if len(set(items)) != len(items):
        raise ValueError("duplicate defective index")
    return sorted(items)


def _cmd_run(args: argparse.Namespace) -> int:
    if (args.defectives is None) == (args.d_random is None):
        raise ValueError("give exactly one of --defectives or --d-random")
    if args.defectives is not None:
        if args.seed is not None:
            raise ValueError("give --seed only with --d-random")
        defectives = _parse_defectives(args.defectives, args.n)
    else:
        if not 0 <= args.d_random <= args.n:
            raise ValueError("need 0 <= --d-random <= --n")
        rng = random.Random(args.seed or 0)
        defectives = sorted(rng.sample(range(args.n), args.d_random))
    instance = Instance(args.n, frozenset(defectives))
    result = RUNNERS[args.alg](PoolOracle(instance))
    verdict = finalize(result, instance)
    payload = {
        "algorithm": result.algorithm,
        "n": args.n,
        "defectives": defectives,
        "tests_used": result.tests_used,
        "ok": verdict.ok,
        "problems": verdict.problems,
    }
    if result.plan is not None:
        payload["plan"] = dataclasses.asdict(result.plan)
    if args.emit_transcript:
        payload["transcript"] = transcript_json(result.transcript)
    print(harness.report_to_json(payload))
    return 0 if verdict.ok else 1


def _cmd_worstcase(args: argparse.Namespace) -> int:
    # Only the options given reach worst_case, which holds their defaults.
    sampled = {
        key: value
        for key, value in (("samples", args.samples), ("seed", args.seed))
        if value is not None
    }
    if sampled and args.mode != "sampled":
        given = " and ".join("--" + key for key in sampled)
        raise ValueError(f"give {given} only with --mode sampled")
    cell = harness.worst_case(args.alg, args.n, args.d, mode=args.mode, **sampled)
    payload = {
        "algorithm": cell.algorithm,
        "n": cell.n,
        "d": cell.d,
        "worst_tests": cell.worst_tests,
        "argmax_defectives": cell.argmax_defectives,
        "exact": cell.exact,
    }
    print(harness.report_to_json(payload))
    return 0


def _check_writable(path: str) -> None:
    # Checked before the sweep, so a bad path costs no grid.
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ValueError(f"cannot write {path}: no directory {parent}")
    if os.path.isdir(path):
        raise ValueError(f"cannot write {path}: it is a directory")
    if not os.access(path if os.path.exists(path) else parent, os.W_OK):
        raise ValueError(f"cannot write {path}: permission denied")


def _cmd_verify(args: argparse.Namespace) -> int:
    algorithms = None
    if args.algs is not None:
        algorithms = [tok for tok in args.algs.split(",") if tok]
    checks = None
    if args.checks is not None:
        checks = [tok for tok in args.checks.split(",") if tok]
    if args.out:
        _check_writable(args.out)
    report = harness.verify_grid(
        args.n_max, algorithms=algorithms, checks=checks, workers=args.workers
    )
    print(harness.report_to_json(report))
    if args.out:
        harness.write_csv(report, args.out)
    return 1 if report["violations"] else 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    print(harness.minimax_m(args.n, args.d))
    return 0


def _bound_row(report: bounds.BoundReport) -> dict:
    return {
        "bound_name": report.bound_name,
        "value": report.value if report.applicable else None,
        "applicable": report.applicable,
        "direction": report.direction,
    }


def _cmd_bounds(args: argparse.Namespace) -> int:
    n, d = args.n, args.d
    # Also rejects nan, which json.dumps would print as the invalid NaN.
    if not 0 < args.rho < 1:
        raise ValueError(f"need 0 < --rho < 1, got {args.rho}")
    reports = bounds.lower_bounds(n, d, args.rho) + [
        bounds.zd_upper(n, d),
        bounds.zd_pretest_upper(n, d),
        bounds.zu_upper_d(n, d),
        bounds.zu_upper_n(n),
        bounds.zc_upper_d(n, d),
        bounds.zc_upper_d(n, d, constant=23),
        bounds.zc_upper_n(n),
        bounds.hwang_upper(n, d),
        bounds.zd_pretest_upper_n(n),
    ]
    payload = {
        "n": n,
        "d": d,
        "rho": args.rho,
        "bounds": [_bound_row(report) for report in reports],
        "best_lower_bound": bounds.best_lower_bound(n, d, args.rho) if d < n else None,
    }
    print(harness.report_to_json(payload))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtlab",
        description="Adaptive group-testing strategies, bounds, and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one strategy on one instance")
    p_run.add_argument("--alg", required=True, choices=ALGORITHMS)
    p_run.add_argument("--n", type=int, required=True)
    p_run.add_argument("--defectives", help="comma-separated item indices")
    p_run.add_argument(
        "--d-random", type=int, dest="d_random", help="sample this many defectives"
    )
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--emit-transcript", action="store_true")
    p_run.set_defaults(func=_cmd_run)

    p_wc = sub.add_parser("worstcase", help="maximize tests over defective sets")
    p_wc.add_argument("--alg", required=True, choices=ALGORITHMS)
    p_wc.add_argument("--n", type=int, required=True)
    p_wc.add_argument("--d", type=int, required=True)
    p_wc.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p_wc.add_argument("--samples", type=int)
    p_wc.add_argument("--seed", type=int)
    p_wc.set_defaults(func=_cmd_worstcase)

    p_vf = sub.add_parser("verify", help="sweep the grid and check every bound")
    p_vf.add_argument("--n-max", type=int, dest="n_max", required=True)
    p_vf.add_argument("--algs", help="comma-separated algorithm subset")
    p_vf.add_argument("--checks", help="comma-separated check families")
    p_vf.add_argument(
        "--workers",
        type=int,
        help="worker processes (default serial); there is one task per "
        "(algorithm, n), a sweep or, with the analysis family, the one zu "
        "walk that fills the cells and analyzes the runs, and the report "
        "does not depend on the count",
    )
    p_vf.add_argument("--out", help="also write the grid as CSV here")
    p_vf.set_defaults(func=_cmd_verify)

    p_or = sub.add_parser("oracle", help="exact minimax pool count")
    p_or.add_argument("--n", type=int, required=True)
    p_or.add_argument("--d", type=int, required=True)
    p_or.set_defaults(func=_cmd_oracle)

    p_bd = sub.add_parser("bounds", help="evaluate every bound at (n, d)")
    p_bd.add_argument("--n", type=int, required=True)
    p_bd.add_argument("--d", type=int, required=True)
    p_bd.add_argument("--rho", type=float, default=0.5)
    p_bd.set_defaults(func=_cmd_bounds)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader has gone; devnull takes what the exit flush would write.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
