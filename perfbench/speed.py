"""Host-speed probe: a fixed piece of work timed between requests.

The benchmark runs on shared hosts where the speed one process gets shifts by
up to a third for seconds to minutes at a time, as other tenants load the
same cores and caches.  Runs made a few minutes apart then differ by more
than any change to the library would, whatever statistic a run reports.

So each run also times this probe every ``INTERVAL_S`` seconds and scales its
times to a reference speed: a time ``t`` is reported as
``t * REFERENCE_S / median(probe times)``, and a rate the other way round.
The probe is the benchmark's own code, so no change to the library moves it:
a Python loop (interpreter work, which bounds the 64 px workloads) and
``exp`` over 1 MB float32 arrays (vector work on cached data).  It allocates
nothing, so the program's heap does not change its time.  The loop alone does not follow the 256 px workload's
speed; the sum follows all three.  ``REFERENCE_S`` is about the probe's
median time between requests on a 2-vCPU Xeon VM with one BLAS thread, so
reported times read as times on that VM.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 2.5e-3
INTERVAL_S = 0.25
SETUP_PROBES = 5  # before each set-up
_LOOP = 12000
_EXPS = 4
_V = np.random.default_rng(0).standard_normal(1 << 18).astype(np.float32)
_W = np.empty_like(_V)


def probe() -> float:
    """Seconds the fixed probe work takes now."""
    t0 = time.perf_counter()
    t = 0
    for i in range(_LOOP):
        t += i * i % 7
    for _ in range(_EXPS):
        np.multiply(_V, np.float32(0.01), out=_W)
        np.exp(_W, out=_W)
    return time.perf_counter() - t0


class Speed:
    """Probe times taken during one phase of a run."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self._last = -float("inf")

    def probe(self, n: int = 1) -> None:
        self.times.extend(probe() for _ in range(n))
        self._last = time.perf_counter()

    def maybe_probe(self) -> None:
        """Probe if ``INTERVAL_S`` has passed since the last probe."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.probe()

    @property
    def slowdown(self) -> float:
        """Median probe time over the reference: above 1 on a slower host."""
        return statistics.median(self.times) / REFERENCE_S
