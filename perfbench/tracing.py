"""In-memory span recorder that wraps public functions and methods.

A ``Tracer`` replaces chosen attributes of modules and classes with wrappers
that record one span per call: name, start, end, parent span and request id.
Spans live in parallel arrays while the run is going and are written out once,
as a ``.npz`` archive, when it ends.  Counters (tape records, output
elements, analytic FLOPs) are recorded at the same call boundaries.

Self time of a span is its duration minus the part of that interval covered by
its child spans.  The benchmark runs on one thread, so spans nest properly and
the children of a span are disjoint: the covered part is the sum of their
durations.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

import numpy as np

NO_PARENT = -1
SETUP_REQUEST = -1


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per span, kept compact: a traced run records ~10^5-10^6
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.request = array("q")
        self._stack = [NO_PARENT]
        self.current_request = SETUP_REQUEST
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self._targets: list[tuple[object, str, Callable]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def wrap(self, fn: Callable, name: str, layer: str, after: Callable | None = None) -> Callable:
        """``fn`` with a span recorded around every call.

        ``after(args, result)`` runs inside the span and may update counters.
        """
        nid = self._name_id(name, layer)
        names, starts, ends = self.name, self.start, self.end
        parents, requests, stack = self.parent, self.request, self._stack
        errors, clock = self.errors, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            requests.append(self.current_request)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(args, out)
                return out
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def counting(self, fn: Callable, counter: str) -> Callable:
        """``fn`` with a call counter and no span (for very frequent calls)."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn  # type: ignore[attr-defined]
        return counted

    @contextmanager
    def span(self, name: str, layer: str):
        """Record a span around a block of the benchmark's own code."""
        nid = self._name_id(name, layer)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.request.append(self.current_request)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter_ns()
            self._stack.pop()

    # -- patching ----------------------------------------------------------

    def add_target(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Register ``owner.attr`` to be replaced by ``make(original)`` while active."""
        self._targets.append((owner, attr, make))

    @contextmanager
    def active(self):
        """Install every registered wrapper; restore the originals on exit.

        A module-level function is replaced in every loaded module of the same
        package that bound it by name (``from .x import f``), so calls made
        through either name are traced.
        """
        undo: list[tuple[object, str, object]] = []
        try:
            for owner, attr, make in self._targets:
                original = getattr(owner, attr)
                wrapped = make(original)
                for holder in _holders(owner, attr, original):
                    undo.append((holder, attr, original))
                    setattr(holder, attr, wrapped)
            yield self
        finally:
            for holder, attr, original in reversed(undo):
                setattr(holder, attr, original)

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names, dtype=str),
            "layers": np.array(self.layers, dtype=str),
            "name": np.array(self.name, dtype=np.int64),
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "request": np.array(self.request, dtype=np.int64),
        }

    def write(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, **self.arrays())


def _holders(owner, attr: str, original) -> list:
    if isinstance(owner, type):
        return [owner]
    package = owner.__name__.split(".")[0]
    holders = []
    for name, module in list(sys.modules.items()):
        if module is None or name.split(".")[0] != package:
            continue
        if getattr(module, attr, None) is original:
            holders.append(module)
    return holders


def self_times(start, end, parent, counts_as_child=None) -> np.ndarray:
    """Duration of each span minus the part covered by its child spans.

    ``counts_as_child`` is an optional boolean mask over spans; spans outside
    it are not subtracted from their parent (their time stays with it).
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = end - start
    child = parent != NO_PARENT
    if counts_as_child is not None:
        child &= np.asarray(counts_as_child, dtype=bool)
    covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    return dur - covered.astype(np.int64)
