"""Compare ``bisource.tensor._erf`` with scipy's float32 erf on every float32.

Walks all 2^32 bit patterns in chunks and counts the results whose bits
differ; a NaN counts as equal to any NaN.  Prints the count, the first few
mismatches and the time taken, and exits 1 if any result differs.  pytest does
not collect this file (it takes minutes); run it from the repository root:

    PYTHONPATH=src python tests/erf_exhaustive.py
"""

from __future__ import annotations

import sys
import time

import numpy as np
from scipy.special import erf

from bisource.tensor import _erf

CHUNK = 1 << 22  # patterns per step: four float32 arrays of 16 MB
SHOWN = 10


def main() -> int:
    t0 = time.perf_counter()
    mismatches = 0
    first: list[tuple[int, float, float]] = []
    for start in range(0, 1 << 32, CHUNK):
        x = np.arange(start, start + CHUNK, dtype=np.uint64).astype(np.uint32).view(np.float32)
        with np.errstate(invalid="ignore"):  # widening signalling NaNs
            got, want = _erf(x), erf(x)
        bad = (got.view(np.uint32) != want.view(np.uint32)) & ~(np.isnan(got) & np.isnan(want))
        mismatches += int(np.count_nonzero(bad))
        for i in np.flatnonzero(bad)[: SHOWN - len(first)]:
            first.append((start + int(i), float(got[i]), float(want[i])))
    for pattern, g, w in first:
        print(f"0x{pattern:08x}: _erf {g!r}, scipy {w!r}")
    print(f"{mismatches} mismatches over 2^32 float32 patterns in {time.perf_counter() - t0:.0f} s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
