#!/usr/bin/env python3
"""Record the reference outputs the benchmark compares against at its
reference seed.

    python3 perfbench/record_reference.py

Writes ``perfbench/reference.json``: each inference workload's per-input
scores and the training workload's loss trajectory.  Re-record only in a
change that is meant to alter outputs (inputs, initial weights or metrics),
and say so in that change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run  # pins the BLAS thread count and puts the checkout on the import path

from perfbench.workloads import WORKLOADS, Setup  # noqa: E402

SEED = 0
REQUESTS = {"infer-change-64": 48, "infer-density-256": 4, "train-change-64": 160}


def main() -> int:
    recorded = {}
    for name, n in REQUESTS.items():
        run.WORK_DIR.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
            setup = Setup(WORKLOADS[name], SEED, Path(tmp))
            for _ in range(n):
                setup.request()
            failed, problems = setup.verify(None)
        if failed or problems:
            print(f"{name}: outputs fail their checks, nothing recorded", file=sys.stderr)
            for line in problems[:10]:
                print(f"  {line}", file=sys.stderr)
            return 1
        recorded[name] = setup.summary()
        print(f"{name}: recorded {n} requests")
    rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in recorded.items())
    run.REFERENCE.write_text(f'{{"seed": {SEED}, "workloads": {{\n{rows}\n}}}}\n')
    return 0


if __name__ == "__main__":
    sys.exit(main())
