"""Time untaped ``attention_rows`` at the model's shapes, on one thread and on two.

Each call is a float32 self-attention of b = 2 samples, as the encoder makes
them: 4096, 1024, 256 and 64 tokens of width 16, 32, 64 and 128 at 256 px,
and 256, 64, 16 and 4 tokens at 64 px.  The script prints, for each shape and
setting, the median over ``--rounds`` rounds of the mean time of a call in
a batch of calls, and the minor page faults a call.  Settings are timed alternately
within each round, so a change of host speed hits them alike.  pytest does
not collect this file; run it from the repository root with one BLAS thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/attention_timing.py
    # ATTN_ROW_BLOCK: the stage-1 call at several block sizes
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/attention_timing.py --blocks 32,64,128,256
    # ATTN_HELPER_SCORES: two threads against one around the threshold
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/attention_timing.py --helper
    # A/B against another tree's tensor module, say a checkout of the parent
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/attention_timing.py --against ../parent/src
    # 256 px density predictions: time, page faults and peak RSS a request
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/attention_timing.py --requests 20 --blocks 64

``_CPUS`` is set to 1 or 2 to choose the threads; the helper thread runs only
where the call has more than one block and more than ATTN_HELPER_SCORES
scores.  ``--requests`` runs one setting (``--blocks`` and ``--cpus``) a
process, because malloc's state, and so the page faults, carries over from
one call to the next.
"""

from __future__ import annotations

import argparse
import importlib.util
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from bisource import tensor as T
from bisource.model import BiSourceModel, ModelConfig

# (b, tokens, width) of the encoder's attention_rows calls
MODEL_SHAPES = [(2, 4096, 16), (2, 1024, 32), (2, 256, 64), (2, 64, 128),
                (2, 256, 16), (2, 64, 32), (2, 16, 64), (2, 4, 128)]
# b x M x N scores from 2**17 to 2**25, around ATTN_HELPER_SCORES
HELPER_SHAPES = [(2, 256, 16), (4, 256, 16), (2, 512, 16), (8, 256, 16), (1, 1024, 16),
                 (4, 512, 16), (1, 1024, 32), (2, 1024, 16), (2, 1024, 32), (1, 2048, 16),
                 (2, 4096, 16)]


def _load_tensor(src: str):
    """Another tree's ``bisource/tensor.py`` as a module of its own."""
    spec = importlib.util.spec_from_file_location("other_tensor", Path(src) / "bisource" / "tensor.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _inputs(mod, b: int, tokens: int, width: int):
    rng = np.random.default_rng(tokens * width + b)
    return [mod.Tensor(rng.standard_normal((b * tokens, width), dtype=np.float32)) for _ in range(3)]


def _timed(mod, args, b: int, calls: int) -> tuple[float, float]:
    """Mean seconds and minor page faults of one call."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    for _ in range(calls):
        mod.attention_rows(*args, 1.0 / np.sqrt(args[0].shape[1]), b)
    seconds = (time.perf_counter() - start) / calls
    return seconds, (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults) / calls


def compare(settings: dict, shapes, rounds: int, work: float) -> None:
    """Print each setting's median ms and faults a call, for each shape."""
    print(f"{'b x tokens x width':>20} " + " ".join(f"{name:>22}" for name in settings))
    for b, tokens, width in shapes:
        calls = max(1, min(500, int(work / (b * tokens * tokens * width))))
        inputs = {name: _inputs(mod, b, tokens, width) for name, (mod, _) in settings.items()}
        times = {name: [] for name in settings}
        faults = {name: [] for name in settings}
        for r in range(rounds + 1):  # round 0 warms caches and the heap
            order = list(settings) if r % 2 else list(settings)[::-1]
            for name in order:
                mod, values = settings[name]
                saved = {key: getattr(mod, key) for key in values}
                for key, value in values.items():
                    setattr(mod, key, value)
                try:
                    seconds, fault = _timed(mod, inputs[name], b, calls)
                finally:
                    for key, value in saved.items():
                        setattr(mod, key, value)
                if r:
                    times[name].append(seconds)
                    faults[name].append(fault)
        cells = [f"{statistics.median(times[n]) * 1e3:9.3f} ms {statistics.median(faults[n]):6.1f} flt"
                 for n in settings]
        print(f"{f'{b} x {tokens} x {width}':>20} " + " ".join(f"{c:>22}" for c in cells))


def requests(count: int) -> None:
    """Print the median time, minor page faults and system time of a 256 px
    density prediction, after two warm-up predictions, and the peak RSS."""
    config = ModelConfig(in_channels=1, base_channels=16, num_prototypes=4, head="density",
                         input_hw=(256, 256))
    model = BiSourceModel(config, seed=0)
    rng = np.random.default_rng(0)
    pairs = [rng.random((2, 256, 256), dtype=np.float32) for _ in range(4)]
    times, faults, system = [], [], []
    for i in range(count + 2):
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        model.predict(*pairs[i % len(pairs)])
        seconds = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        if i >= 2:
            times.append(seconds)
            faults.append(after.ru_minflt - before.ru_minflt)
            system.append(after.ru_stime - before.ru_stime)
    print(f"ATTN_ROW_BLOCK {T.ATTN_ROW_BLOCK}, _CPUS {T._CPUS}: {count} requests, "
          f"median {statistics.median(times) * 1e3:.1f} ms, {statistics.median(faults):.0f} minor faults, "
          f"{statistics.median(system) * 1e3:.2f} ms system; "
          f"peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--blocks", help="comma-separated ATTN_ROW_BLOCK values for the stage-1 call; "
                    "one value with --requests")
    ap.add_argument("--helper", action="store_true", help="two threads against one near the threshold")
    ap.add_argument("--against", help="another tree's src directory, timed alternately with this one")
    ap.add_argument("--requests", type=int, help="time this many 256 px density predictions")
    ap.add_argument("--cpus", type=int, help="_CPUS for --requests")
    ap.add_argument("--rounds", type=int, default=7)
    ap.add_argument("--work", type=float, default=2e9, help="multiply-adds of q k^T a timed batch of at most 500 calls")
    o = ap.parse_args(argv)
    cpus = {"1 thread": 1, "2 threads": 2}
    if o.requests:
        if o.blocks:
            T.ATTN_ROW_BLOCK = int(o.blocks)
        if o.cpus:
            T._CPUS = o.cpus
        requests(o.requests)
        return 0
    if o.blocks:
        settings = {f"{rows} rows, {t}": (T, {"ATTN_ROW_BLOCK": int(rows), "_CPUS": c})
                    for rows in o.blocks.split(",") for t, c in cpus.items()}
        shapes = MODEL_SHAPES[:1]
    elif o.helper:
        # above the threshold for both settings, so "2 threads" runs the helper wherever it can
        settings = {t: (T, {"_CPUS": c, "ATTN_HELPER_SCORES": 0}) for t, c in cpus.items()}
        shapes = HELPER_SHAPES
    else:
        trees = {"this": T}
        if o.against:
            trees["against"] = _load_tensor(o.against)
        settings = {f"{tree}, {t}": (mod, {"_CPUS": c}) for tree, mod in trees.items() for t, c in cpus.items()}
        shapes = MODEL_SHAPES
    compare(settings, shapes, o.rounds, o.work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
