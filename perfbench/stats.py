"""Order statistics for the benchmark's latency samples.

Percentiles use the nearest-rank definition on integer arithmetic, so the
number of samples lying beyond a percentile is exact and the tail rule
("at least ``MIN_BEYOND`` samples beyond the reported percentile") can be
checked and planned for before a run ends.
"""

from __future__ import annotations

MIN_BEYOND = 10
BLOCK = 10


def rank(n: int, pct: int) -> int:
    """1-based nearest rank of the ``pct``-th percentile among ``n`` samples."""
    if n < 1:
        raise ValueError("need at least one sample")
    if not 0 < pct < 100:
        raise ValueError("pct must lie strictly between 0 and 100")
    return max(1, (n * pct + 99) // 100)


def beyond(n: int, pct: int) -> int:
    """Samples strictly after the ``pct``-th percentile's rank."""
    return n - rank(n, pct)


def min_samples(pct: int, min_beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count with at least ``min_beyond`` samples beyond ``pct``."""
    n = 1
    while beyond(n, pct) < min_beyond:
        n += 1
    return n


def percentile(samples, pct: int) -> float:
    ordered = sorted(samples)
    return ordered[rank(len(ordered), pct) - 1]


def tail(samples, pct: int, min_beyond: int = MIN_BEYOND) -> tuple[float, int, bool]:
    """(value, samples beyond it, whether the tail rule holds) for ``pct``."""
    n_beyond = beyond(len(samples), pct)
    return percentile(samples, pct), n_beyond, n_beyond >= min_beyond



def block_median(samples, block: int = BLOCK) -> float:
    """Mean, over consecutive blocks of ``block`` samples, of each block's median.

    When the machine's speed shifts part-way through a run, the latencies form
    two populations and their overall median jumps to whichever held for more
    than half the run.  This figure moves with the time each held, as a mean
    does, while a lone outlier inside a block still leaves it unchanged.
    Samples after the last full block are left out; with fewer than one block
    it is the plain median.
    """
    if not samples:
        raise ValueError("need at least one sample")
    n = len(samples) // block
    if n == 0:
        return _median(samples)
    return sum(_median(samples[i * block:(i + 1) * block]) for i in range(n)) / n


def _median(samples) -> float:
    ordered = sorted(samples)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
