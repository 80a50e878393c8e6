#!/usr/bin/env python3
"""Run one workload of the bisource benchmark and print its metrics.

    python3 perfbench/run.py --workload infer-change-64 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Human-readable lines (environment, each metric with its
unit and sample count, check results) come first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  End-to-end times are scaled to the reference host speed of
``speed.py`` (the metric lines also give them as measured).
``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run, whose spans are written to
``.perfbench_out/trace-<workload>.npz``.
"""

from __future__ import annotations

import os

# Pin the BLAS thread count before numpy loads instead of inheriting
# OpenBLAS's default: with one thread per process the first calls are not
# slowed by thread start-up and timings settle from the second request.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

SETUP_REPS = 5
TAIL_PCT = 90
MAX_TIMED_S = 120.0  # the timed phase may run past --seconds only to meet the tail rule
WORK_DIR = ROOT / ".perfbench_work"
TRACE_DIR = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).with_name("reference.json")
BENCHMARK = ROOT / "BENCHMARK.json"


@dataclass
class Phase:
    latencies: list[float]
    pairs_per_request: int

    @property
    def elapsed(self) -> float:
        """Seconds spent in requests (speed probes between them left out)."""
        return sum(self.latencies)

    @property
    def pairs_per_s(self) -> float:
        return len(self.latencies) * self.pairs_per_request / self.elapsed


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_runtime": _openblas_threads(np),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _openblas_threads(np) -> int | None:
    """Thread count the loaded OpenBLAS reports, where its symbol is found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def warm_up(setup) -> list[float]:
    """Make the workload's warm-up requests; returns their latencies in ms."""
    lat = []
    for _ in range(setup.wl.warmup):
        t0 = time.perf_counter()
        setup.request()
        lat.append((time.perf_counter() - t0) * 1e3)
    return lat


def timed(setup, seconds: float, min_requests: int = 1, tracer=None, speed=None) -> Phase:
    """Closed loop with one client: each request starts when the last returns.

    With ``speed`` given, the host-speed probe runs between requests.
    """
    lat: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if tracer is None:
            setup.request()
        else:
            tracer.current_request = setup.count
            with tracer.span("bench.request", "bench"):
                setup.request()
        t1 = time.perf_counter()
        lat.append(t1 - t0)
        if speed is not None:
            speed.maybe_probe()
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(lat) >= min_requests or elapsed >= MAX_TIMED_S:
            return Phase(lat, setup.wl.pairs_per_request)


def _as_report(values: dict[str, float], kind: str) -> dict[str, dict]:
    """Values with their units, in the order BENCHMARK.json lists the metrics.

    The run fails if it measured a different set of metrics than the file lists.
    """
    spec = json.loads(BENCHMARK.read_text())[kind]
    names = [m["name"] for m in spec]
    if sorted(names) != sorted(values):
        raise RuntimeError(f"measured {sorted(values)} but {BENCHMARK.name} lists {sorted(names)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def reference_for(name: str, seed: int):
    ref = json.loads(REFERENCE.read_text())
    if seed != ref["seed"]:
        return None
    return ref["workloads"].get(name)


def run(args) -> int:
    from bisource.tensor import alloc_stats

    from perfbench import layers, stats
    from perfbench.speed import SETUP_PROBES, Speed
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS, Setup

    if args.workload not in WORKLOADS:
        print(f"perfbench: error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    trace = bool(args.trace)
    tracer = Tracer()
    if trace:
        layers.instrument(tracer)
    tracing = tracer.active if trace else nullcontext
    work = WORK_DIR / f"{wl.name}-{os.getpid()}"
    env = environment()
    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    setup = None
    Speed().probe()  # the first probe pays one-off costs
    try:
        setup_times = []
        setup_slowdowns = []
        for rep in range(SETUP_REPS):
            if setup is not None:
                setup.close()
                setup = None
                gc.collect()
            setup_speed = Speed()
            setup_speed.probe(SETUP_PROBES)
            setup_slowdowns.append(setup_speed.slowdown)
            t0 = time.perf_counter()
            with tracing():
                setup = Setup(wl, args.seed, work / f"setup{rep}")
                warm_ms = warm_up(setup)
            setup_times.append(time.perf_counter() - t0)
        warm_requests = setup.count

        if trace:
            plain = timed(setup, args.seconds / 2)
            tracer.counts.clear()
            alloc_stats.reset_peak()
            with tracer.active():
                traced = timed(setup, args.seconds / 2, tracer=tracer)
            peak_live = alloc_stats.peak_elements
            phases = [plain, traced]
        else:
            speed = Speed()
            phase = timed(setup, args.seconds, min_requests=stats.min_samples(TAIL_PCT),
                          speed=speed)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            phases = [phase]

        failed_idx, problems = setup.verify(reference_for(wl.name, args.seed))
    finally:
        if setup is not None:
            setup.close()
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(p.latencies) for p in phases)
    failed = sum(1 for i in failed_idx if i >= warm_requests)
    correct = not failed_idx and not problems
    for line in problems[:20]:
        print(f"check failed: {line}")
    print("warm-up latencies of the last set-up (ms): " + ", ".join(f"{x:.1f}" for x in warm_ms))
    print(f"checks: {'all passed' if correct else f'{len(problems)} failed'} "
          f"({attempted} timed and {warm_requests} warm-up requests checked)")
    print(f"  {'error_rate':16s} {failed / attempted:12.4f} {'':4s} "
          f"{failed} of {attempted} requests failed")

    if trace:
        metrics = layers.per_layer_metrics(
            tracer,
            pairs=len(traced.latencies) * wl.pairs_per_request,
            steps=len(traced.latencies) if wl.train else 0,
            setups=SETUP_REPS,
            peak_live_elements=peak_live,
        )
        metrics["trace.untraced_pairs_per_s"] = plain.pairs_per_s
        metrics["trace.traced_pairs_per_s"] = traced.pairs_per_s
        metrics["trace.overhead_pct"] = 100.0 * (1.0 - traced.pairs_per_s / plain.pairs_per_s)
        report = _as_report(metrics, "per_layer")
        print(f"traced {len(traced.latencies)} requests, untraced {len(plain.latencies)}")
        for k, v in report.items():
            print(f"  {k:34s} {v['value']:14.6g} {v['unit']}")
        path = TRACE_DIR / f"trace-{wl.name}.npz"
        tracer.write(path)
        print(f"spans written to {path.relative_to(ROOT)} ({len(tracer.start)} spans)")
    else:
        # Times are scaled to the probe's reference speed; the notes give them as measured.
        slow = speed.slowdown
        lat_ms = [x * 1e3 for x in phase.latencies]
        p90, n_beyond, tail_ok = stats.tail(lat_ms, TAIL_PCT)
        p50 = stats.block_median(lat_ms)
        setup_s = [t / f for t, f in zip(setup_times, setup_slowdowns)]
        n = len(lat_ms)
        report = _as_report({
            "setup_s": statistics.median(setup_s),
            "pairs_per_s": phase.pairs_per_s * slow,
            "latency_p50_ms": p50 / slow,
            "latency_p90_ms": p90 / slow,
            "peak_rss_mb": peak_rss_mb,
        }, "end_to_end")
        notes = {
            "setup_s": f"median of {SETUP_REPS} set-ups, measured "
                       + ", ".join(f"{t:.3f}" for t in setup_times),
            "pairs_per_s": f"{n * wl.pairs_per_request} pairs in {phase.elapsed:.2f} s, "
                           f"measured {phase.pairs_per_s:.4f}",
            "latency_p50_ms": f"n={n} requests, median of each {stats.BLOCK} averaged, "
                              f"measured {p50:.4f} (plain median {statistics.median(lat_ms):.4f})",
            "latency_p90_ms": f"n={n} requests, {n_beyond} beyond"
                              + ("" if tail_ok else f" (fewer than {stats.MIN_BEYOND})")
                              + f", measured {p90:.4f}",
            "peak_rss_mb": "process high-water mark at the end of the timed phase",
        }
        print(f"host slowdown {slow:.4f} (median of {len(speed.times)} probes in the timed "
              f"phase; set-ups: " + ", ".join(f"{f:.3f}" for f in setup_slowdowns) + ")")
        for k, v in report.items():
            print(f"  {k:16s} {v['value']:12.4f} {v['unit']:4s} {notes[k]}")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": report}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    expected = (ROOT / "src" / "bisource").resolve()
    try:
        import bisource
    except ImportError as exc:
        print(f"perfbench: error: cannot import bisource from {expected}: {exc}", file=sys.stderr)
        return 2
    if Path(bisource.__file__).resolve().parent != expected:
        print(f"perfbench: error: bisource imported from {bisource.__file__}, not {expected}",
              file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
