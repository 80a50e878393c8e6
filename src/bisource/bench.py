"""Scaling benchmark: analytic FLOPs, parameter counts, wall time and peak
live tensor elements for prototype attention (several K), its one-prototype-
per-token variant, and dense attention, across token counts.  Fits log-log
slopes to verify linear-vs-quadratic scaling.
"""

from __future__ import annotations

import csv
import gc
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tensor as T
from .ada import (
    AdaConfig,
    INF_PROTOTYPES,
    SourcePair,
    build_std,
    build_unit,
    flops_of,
    params_of,
)
from .tensor import Rng, Tensor, alloc_stats

CSV_SCHEMA_COMMENT = "# bisource-bench schema v1"
CSV_COLUMNS = [
    "variant", "K", "L", "C", "D", "flops", "params",
    "wall_time_s", "peak_elements", "skipped", "skip_reason",
]

# skip a variant when its dominant single buffer would exceed this many
# elements (dense attention and the per-token-prototype variant are
# quadratic in token count and quickly become infeasible)
DEFAULT_MEMORY_CAP_ELEMENTS = 400_000_000

# No point is timed before the sweep has run SETTLE_S: with OpenBLAS's default
# two threads a fresh process ran its first ~1 s of calls up to 6x slower
# (46 ms a call, then 7 ms, on a 2-vCPU VM), at a steady pace throughout.
SETTLE_S = 2.0
# After that, warm-up ends once a point's timings stop falling: a call that
# takes at least STEADY_RATIO of the one before (or MAX_WARMUP_CALLS calls).
STEADY_RATIO = 0.9
MAX_WARMUP_CALLS = 50


@dataclass
class SweepConfig:
    token_counts: tuple[int, ...] = (256, 1024, 4096, 16384, 65536)
    variants: tuple[str, ...] = ("ada:4", "ada:inf", "std")
    feat_dim: int = 32
    proto_dim: int = 32
    trials: int = 3
    warmup: int = 1  # minimum warm-up calls per point; more run until steady
    seed: int = 0
    memory_cap_elements: int = DEFAULT_MEMORY_CAP_ELEMENTS

    def __post_init__(self) -> None:
        if list(self.token_counts) != sorted(set(self.token_counts)):
            raise ValueError("token_counts must be strictly increasing")
        if self.trials < 3:
            raise ValueError("trials must be >= 3")
        for L in self.token_counts:
            if int(math.isqrt(L)) ** 2 != L:
                raise ValueError(f"token count {L} is not a perfect square")
        self.token_counts = tuple(self.token_counts)
        self.variants = tuple(self.variants)


@dataclass
class BenchRow:
    variant: str
    K: str
    L: int
    C: int
    D: int
    flops: float
    params: int
    wall_time_s: float
    peak_elements: int
    skipped: bool = False
    skip_reason: str = ""

    def as_record(self) -> dict:
        return {c: getattr(self, {"K": "K"}.get(c, c)) for c in CSV_COLUMNS}


def parse_variant(tag: str) -> tuple[str, float | None]:
    """'ada:4' -> ('ada', 4); 'ada:inf' -> ('ada', inf); 'std' -> ('std', None)."""
    if tag == "std":
        return "std", None
    if tag.startswith("ada:"):
        k = tag.split(":", 1)[1]
        return "ada", INF_PROTOTYPES if k == "inf" else float(int(k))
    raise ValueError(f"unknown variant tag {tag!r}")


def dominant_buffer_elements(kind: str, k: float | None, L: int, C: int, D: int) -> int:
    """Largest single allocation the forward pass will make."""
    linear = max(L * 3 * C, L * 2 * D)  # pooled stack / projected embeddings
    if kind == "std":
        return max(linear, L * L)  # dense score matrix (slot length == L here)
    kk = L if k == INF_PROTOTYPES else int(k)  # type: ignore[arg-type]
    return max(linear, kk * L, max(kk, L) * D)


def _run_once(kind: str, unit, pair: SourcePair, slot: Tensor) -> float:
    t0 = time.perf_counter()
    out = unit.forward(pair, slot)
    dt = time.perf_counter() - t0
    del out
    return dt


def _warm_up(kind: str, unit, pair: SourcePair, slot: Tensor, min_calls: int,
             settle_until: float) -> None:
    """Call until the sweep has settled and this point's timings are steady."""
    prev = _run_once(kind, unit, pair, slot)
    calls = 1
    while True:
        t = _run_once(kind, unit, pair, slot)
        calls += 1
        steady = t >= STEADY_RATIO * prev or calls >= MAX_WARMUP_CALLS
        if steady and calls >= min_calls and time.perf_counter() >= settle_until:
            return
        prev = t


def run_sweep(cfg: SweepConfig, progress=None) -> list[BenchRow]:
    rows: list[BenchRow] = []
    settle_until = time.perf_counter() + SETTLE_S
    for tag in cfg.variants:
        kind, k = parse_variant(tag)
        for L in cfg.token_counts:
            C, D = cfg.feat_dim, cfg.proto_dim
            side = math.isqrt(L)
            k_label = "" if kind == "std" else ("inf" if k == INF_PROTOTYPES else str(int(k)))
            need = dominant_buffer_elements(kind, k, L, C, D)
            if need > cfg.memory_cap_elements:
                rows.append(
                    BenchRow(
                        variant=kind, K=k_label, L=L, C=C, D=D, flops=0.0, params=0,
                        wall_time_s=0.0, peak_elements=0, skipped=True,
                        skip_reason=f"dominant buffer {need} elements exceeds cap {cfg.memory_cap_elements}",
                    )
                )
                if progress:
                    progress(f"{tag} L={L}: skipped (memory cap)")
                continue

            rng = Rng(cfg.seed)
            ada_cfg = AdaConfig(
                num_prototypes=k if k is not None else 4,
                proto_dim=D,
                feat_dim=C,
                comp_op="consistency",
            )
            if kind == "std":
                unit = build_std(ada_cfg, rng)
                kk = None
            else:
                unit = build_unit(ada_cfg, rng, num_source_tokens=L)
                kk = unit.k
            f1 = Tensor(rng.normal((L, C), std=1.0))
            f2 = Tensor(rng.normal((L, C), std=1.0))
            pair = SourcePair(f1, f2, side, side)
            slot = f1

            _warm_up(kind, unit, pair, slot, cfg.warmup, settle_until)
            gc.collect()
            alloc_stats.reset_peak()
            times = [_run_once(kind, unit, pair, slot) for _ in range(cfg.trials)]
            peak = alloc_stats.peak_elements

            flops = flops_of(kind, L, L, D, C, K=kk)["total"]
            rows.append(
                BenchRow(
                    variant=kind, K=k_label, L=L, C=C, D=D, flops=flops,
                    params=params_of(unit),
                    wall_time_s=float(np.median(times)),
                    peak_elements=int(peak),
                )
            )
            if progress:
                progress(
                    f"{tag} L={L}: {rows[-1].wall_time_s * 1e3:.2f} ms, "
                    f"peak {peak} elements"
                )
            del unit, pair, f1, f2, slot
            gc.collect()
    return rows


def write_csv(path: str | Path, rows: list[BenchRow]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(CSV_SCHEMA_COMMENT + "\n")
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for r in rows:
            writer.writerow(r.as_record())


def fit_loglog_slope(rows: list[BenchRow], metric: str) -> tuple[float, float]:
    """Least-squares slope (with stderr) of log(metric) against log(L)."""
    pts = [(r.L, getattr(r, metric)) for r in rows if not r.skipped]
    if len(pts) < 4:
        raise ValueError(f"need >= 4 points, got {len(pts)}")
    xs = np.log([p[0] for p in pts])
    ys = [p[1] for p in pts]
    if min(ys) <= 0:
        raise ValueError("metric values must be positive for a log-log fit")
    ys = np.log(ys)
    n = len(xs)
    x_mean = xs.mean()
    sxx = ((xs - x_mean) ** 2).sum()
    slope = ((xs - x_mean) * (ys - ys.mean())).sum() / sxx
    intercept = ys.mean() - slope * x_mean
    resid = ys - (slope * xs + intercept)
    stderr = math.sqrt((resid**2).sum() / max(n - 2, 1) / sxx)
    return float(slope), float(stderr)


def slope_summary(rows: list[BenchRow]) -> dict[str, dict[str, tuple[float, float]]]:
    out: dict[str, dict[str, tuple[float, float]]] = {}
    variants = sorted({(r.variant, r.K) for r in rows})
    for kind, k in variants:
        sub = [r for r in rows if (r.variant, r.K) == (kind, k) and not r.skipped]
        label = kind if not k else f"{kind}:{k}"
        out[label] = {}
        for metric in ("wall_time_s", "flops", "peak_elements"):
            try:
                out[label][metric] = fit_loglog_slope(sub, metric)
            except ValueError:
                continue
    return out
