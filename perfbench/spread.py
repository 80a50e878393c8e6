#!/usr/bin/env python3
"""Run the workloads with several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 0                      # every workload once
    python3 perfbench/spread.py --workload infer-change-64 --seeds 1-10

Runs ``perfbench/run.py`` once per workload and seed, one run at a time, and
echoes each run's metric lines (value, unit, sample count, error rate).  Then,
per workload, prints every metric's median and spread: the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median, the figure that must stay within the metric's bound in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser()
    p.add_argument("--workload", default="all", help="a name, a comma list, or 'all'")
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else args.workload.split(",")
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for name in names:
        if run_workload(name, args, bounds):
            return 1
    return 0


def run_workload(name: str, args, bounds: dict) -> int:
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in args.seeds:
        cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        print(f"{name} seed {seed}: wall {wall:.1f} s, correct={result['correct']}, "
              f"failed {result['failed']}/{result['attempted']}")
        for line in lines[:-1]:
            if line.startswith("  "):
                print(line)
        sys.stdout.flush()
        for metric, m in result["metrics"].items():
            values.setdefault(metric, []).append(m["value"])
            units[metric] = m["unit"]

    print(f"{name}: {'metric':34s} {'median':>12s} {'unit':6s} {'spread':>8s} {'bound':>6s}")
    for metric, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"{(q3 - q1) / abs(med):8.4f}"
        else:
            spread = f"{'-':>8s}"
        bound = bounds.get(metric)
        print(f"{name}: {metric:34s} {med:12.6g} {units[metric]:6s} {spread} "
              f"{bound if bound is not None else '':>6}")
    print(f"{name}: values " + json.dumps(values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
