"""Writes reference.json: the outputs every benchmark pass is checked against.

    python3 perfbench/pin.py

Run it only when a change is meant to alter gtlab's output, and say so in
the change. The verify-w2 reference is taken from a serial run, so a
two-worker pass must reproduce the serial report byte for byte. Sampled
worst cases depend on the seed and are recounted at check time instead.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import WORKLOADS, sha256, tuple_bound_rows  # noqa: E402


def _grid_reference(text: str) -> dict:
    rows, digest = tuple_bound_rows(text)
    return {"report_sha256": sha256(text), "tuple_bound_rows": rows,
            "tuple_bound_sha256": digest}


def main() -> int:
    reference = {
        "grid-sweep": _grid_reference(WORKLOADS["grid-sweep"].run(0)),
        "grid-analysis": _grid_reference(WORKLOADS["grid-analysis"].run(0)),
    }
    exact = WORKLOADS["exact-cells"].run(0)
    reference["exact-cells"] = {"minimax": exact["minimax"], "exhaustive": exact["exhaustive"]}
    code, text = WORKLOADS["verify-w2"].run(0, serial=True)
    reference["verify-w2"] = dict(_grid_reference(text), exit_code=code)
    with open(os.path.join(HERE, "reference.json"), "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
