"""Minimal dense-tensor engine with tape-based reverse-mode differentiation.

Tensors are immutable numpy-backed values (float32 or float64, rank 1-4,
row-major).  Every operation validates its output for NaN/Inf and, when a
Tape is active in the calling thread, records a backward closure.  The
validation probes the output's sum of squares, which is finite only if every
element is, and scans the elements only when the probe is not finite (a NaN
or Inf, or finite values whose squares overflow), so it is exact.
``backward`` releases each tape record, with the arrays its closure captured
and its output's gradient, as soon as the record has run.

A batch of b samples is carried as rows, each sample's rows after the
previous sample's, so elementwise and row-wise ops need no batch count.  The
ops that take ``b`` work sample by sample: ``attention_rows``,
``cosine_rows``, ``batch_matmul``, ``transpose``, ``slice_rows`` and
``sum_all`` mix rows only within a sample; ``matmul`` makes one product per
sample; and ``matmul``, ``add_bias``, ``layer_norm`` and ``scale_channels``
add the samples' shares of a weight's gradient last sample first.  The grid
ops take [H, W, C] or [B, H, W, C].  So a batched pass has, bit for bit, the
outputs and gradients of b one-sample passes recorded one after another.

Live-element accounting for peak-memory measurement is kept in a
process-global ``alloc_stats``: a Tensor adds its size when created and
subtracts it in ``__del__``.

Untaped ``attention_rows`` calls of more than one block of query rows and
more than ATTN_HELPER_SCORES scores (b x M x N) share the blocks between the
calling thread and one helper thread, which the call starts and joins before
it returns or raises, when the process may run on two or more CPUs.  So no
thread outlives a call, and a forked child inherits none.  The helper runs
numpy only: it creates no Tensor, calls no public op and records nothing, so
``alloc_stats``, the Tape and anything that wraps the public ops see the call
from the calling thread alone.  Blocks are the same with one CPU or two, so
the output bits are too.  The untaped path divides each block's product with
the values and a ones column instead of normalising the probabilities, and
skips the max shift for a sample whose scores are bounded by
ATTN_SHIFT_LIMIT; its output agrees with the taped path's to float rounding
(a few 1e-6 of the peak in float32), not bit for bit.

``gelu`` needs erf, which numpy lacks: taped and float64 calls take
``_erf``, W. J. Cody's rational forms as Cephes evaluates them, in float64
chunks whose |x| > 1 elements are finished within the chunk, and in work
buffers each thread keeps (``_erf_kept``), so what a call allocates does not
depend on its data.  Its float32 results have the bits of scipy's float32
erf; its float64 ones are within 2 ulp of scipy's.

Untaped float32 calls of ``gelu``, ``layer_norm`` and ``avg_pool_2d`` are
inference calls (``_inference``): no gradient and no float64 replay depends on
their bits, so they take forms that cost about their arithmetic.  ``gelu``
takes a clamped rational float32 erf, within 2.5e-7 |x| of the float64 GELU;
``avg_pool_2d`` adds shifted float32 slices, within window^2 float32 epsilons
of the window's mean |x|; ``layer_norm`` takes its row moments as einsum dot
products, within 8 float32 epsilons of the row's scale |gain| max|x| / sigma
+ |bias|.  Each gives a sample the bits it has alone.  Taped calls and float64
calls keep the exact forms, bit for bit.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextvars import ContextVar
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Parameter",
    "Tape",
    "Rng",
    "AllocStats",
    "alloc_stats",
    "NumericalError",
    "ShapeError",
    "tensor",
    "backward",
    "matmul",
    "batch_matmul",
    "transpose",
    "add",
    "sub",
    "mul",
    "absdiff",
    "add_bias",
    "scale_channels",
    "mul_scalar",
    "relu",
    "gelu",
    "softmax_rows",
    "attention_rows",
    "cosine_rows",
    "layer_norm",
    "avg_pool_2d",
    "bilinear_upsample_2x",
    "concat_rows",
    "concat_channels",
    "slice_rows",
    "slice_channels",
    "space_to_depth",
    "reshape",
    "sum_all",
    "mean_all",
    "abs_all",
    "bce_with_logits",
    "softmax_cross_entropy",
]

NORM_EPS = 1e-8
LN_EPS = 1e-5
# Query rows per score block in untaped attention_rows; with at most two
# blocks in flight, live scores stay within 256 x N.  On a 2-vCPU VM (float32,
# d = 16, one BLAS thread per thread) a 2 x 4096-token call took 86.7 / 85.3 /
# 82.2 / 87.8 ms on one thread at 64 / 128 / 256 / 512 rows and 42.8 / 41.5 /
# 43.0 / 43.9 ms shared with the helper (medians of 7 alternating rounds):
# the fastest on two threads, where such calls run, and half the live scores
# of 256.
ATTN_ROW_BLOCK = 128
# The helper thread takes part only in calls of more than this many scores
# (b x M x N).  Medians of 15 alternating one- and two-thread calls on the
# same VM, two threads against one: at or below it, b x 256 tokens 1.20
# (b = 2) and 1.13 (4), 1 x 384 1.00 and 1 x 512 0.96 of the time; above it,
# 8 x 256 1.02, 2 x 512 0.82, 1 x 1024 0.72 and 2 x 1024 (d = 32) 0.66.
ATTN_HELPER_SCORES = 2**18
# Untaped attention_rows takes exp of a sample's raw scores, without the max
# shift, when its bound on |score| (_attention_shifts) is at most this:
# exp(+-30) = 1.1e13 and 9.4e-14 leave room in float32, whose largest value
# is 3.4e38, for row sums over billions of keys.
ATTN_SHIFT_LIMIT = 30.0

try:
    _CPUS = len(os.sched_getaffinity(0))  # the CPUs this process may run on
except AttributeError:  # platforms without CPU affinity
    _CPUS = os.cpu_count() or 1


class NumericalError(ValueError):
    """A tensor operation produced a NaN or Inf."""


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class AllocStats:
    """Live tensor-element counter with a resettable high-water mark."""

    def __init__(self) -> None:
        self.current_elements = 0
        self.peak_elements = 0

    def add(self, n: int) -> None:
        self.current_elements += n
        if self.current_elements > self.peak_elements:
            self.peak_elements = self.current_elements

    def sub(self, n: int) -> None:
        self.current_elements -= n

    def reset_peak(self) -> None:
        self.peak_elements = self.current_elements


alloc_stats = AllocStats()


class Tensor:
    """Immutable dense array value.  ``grad`` is populated only by backward()."""

    __slots__ = ("data", "grad")

    def __init__(self, data: np.ndarray) -> None:
        if data.dtype not in (np.float32, np.float64):
            raise TypeError(f"unsupported dtype {data.dtype}; use float32 or float64")
        if not (1 <= data.ndim <= 4):
            raise ShapeError(f"rank must be 1-4, got {data.ndim}")
        self.data = np.ascontiguousarray(data)
        self.grad: np.ndarray | None = None
        alloc_stats.add(self.data.size)

    def __del__(self) -> None:
        try:
            n = self.data.size
        except AttributeError:  # __init__ raised before counting this tensor
            return
        alloc_stats.sub(n)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"


def tensor(values, dtype=np.float32) -> Tensor:
    return Tensor(np.asarray(values, dtype=dtype))


class Parameter:
    """Learnable tensor with a persistent gradient accumulator."""

    __slots__ = ("value", "name")

    def __init__(self, value: Tensor, name: str) -> None:
        value.grad = np.zeros_like(value.data)
        self.value = value
        self.name = name

    @property
    def grad(self) -> np.ndarray:
        assert self.value.grad is not None
        return self.value.grad

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def assign(self, data: np.ndarray) -> None:
        """In-place update of the underlying value (optimizer use only)."""
        self.value.data[...] = data

    def __repr__(self) -> str:
        return f"Parameter({self.name}, shape={self.value.shape})"


class Tape:
    """Ordered record of differentiable ops; replayed in reverse by backward().

    Single-writer: one live tape per thread, never shared.  The active tape is
    held in a context variable, so ops issued by other threads (each starts
    with an empty context) are neither recorded nor blocked by it.
    """

    def __init__(self) -> None:
        self._records: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self._token = None

    def __enter__(self) -> "Tape":
        if _active_tape.get() is not None:
            raise RuntimeError("a Tape is already active")
        self._token = _active_tape.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _active_tape.reset(self._token)
        self._token = None

    def record(self, out: Tensor, fn: Callable[[np.ndarray], None]) -> None:
        self._records.append((out, fn))

    def clear(self) -> None:
        self._records.clear()


_active_tape: ContextVar[Tape | None] = ContextVar("bisource_active_tape", default=None)


def backward(loss: Tensor, tape: Tape) -> None:
    """Accumulate d(loss)/d(input) into .grad of every tensor on the tape.

    Records run last first, and each leaves the tape as it runs: its closure,
    the arrays the closure captured and its output's gradient are released
    before the record made before it runs, so an intermediate gradient lives
    only until its inputs have taken it.  Parameters are never record outputs
    and keep their gradients (zeroed elsewhere).  The tape is empty after.
    """
    if loss.data.size != 1:
        raise ShapeError(f"loss must be scalar, got shape {loss.shape}")
    loss.grad = np.ones_like(loss.data)
    records = tape._records
    while records:
        out, fn = records.pop()  # rebinding releases the previous record
        if out.grad is None:
            continue
        fn(out.grad)
        out.grad = None


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = g.astype(t.data.dtype, copy=True)
    else:
        t.grad += g


def _non_finite(op: str, data: np.ndarray) -> NumericalError:
    return NumericalError(
        f"{op}: produced non-finite values (output shape {data.shape}, dtype {data.dtype})"
    )


def all_finite(data: np.ndarray) -> bool:
    """True when no element is NaN or Inf: the sum-of-squares probe, with an
    element scan only when the probe is not finite."""
    # np.vdot rather than np.dot: it ignores np.errstate, so a probe that
    # overflows or underflows on finite data neither warns nor raises
    return math.isfinite(np.vdot(data, data)) or bool(np.isfinite(data).all())


def _out(data: np.ndarray, fn: Callable[[np.ndarray], None] | None) -> Tensor:
    if not all_finite(data):
        raise _non_finite(sys._getframe(1).f_code.co_name, data)
    t = Tensor(data)
    tape = _active_tape.get()
    if tape is not None and fn is not None:
        tape.record(t, fn)
    return t


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


# ---------------------------------------------------------------------------
# seeded RNG
# ---------------------------------------------------------------------------


class Rng:
    """Deterministic counter-based RNG; identical seed -> identical draws."""

    def __init__(self, seed: int) -> None:
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def normal(self, shape, std=1.0, dtype=np.float32) -> np.ndarray:
        return (self._gen.standard_normal(shape) * std).astype(dtype)

    def trunc_normal(self, shape, std=0.02, dtype=np.float32) -> np.ndarray:
        # clipped at +-2 std; deterministic (no rejection loop)
        x = self._gen.standard_normal(shape) * std
        return np.clip(x, -2.0 * std, 2.0 * std).astype(dtype)

    def uniform(self, shape, low=0.0, high=1.0, dtype=np.float32) -> np.ndarray:
        return self._gen.uniform(low, high, shape).astype(dtype)

    def integers(self, low, high, size=None):
        return self._gen.integers(low, high, size=size)

    def random(self) -> float:
        return float(self._gen.random())

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def spawn(self, salt: int) -> "Rng":
        return Rng((self.seed * 0x9E3779B97F4A7C15 + salt) & 0xFFFFFFFFFFFFFFFF)


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------


def _groups(x: Tensor, b: int, op: str) -> np.ndarray:
    """A rank-2 [b*M, N] operand as b stacked [M, N] matrices (a view)."""
    if x.data.ndim != 2 or b < 1 or x.shape[0] % b:
        raise ShapeError(f"{op}: {x.shape} is not {b} groups of rows")
    return x.data.reshape(b, x.shape[0] // b, x.shape[1])


def _t(a: np.ndarray) -> np.ndarray:
    return a.transpose(0, 2, 1)


def _transposed_groups(x3: np.ndarray) -> np.ndarray:
    """x3's b matrices [b, P, Q] transposed and stacked, [b*Q, P], laid out as
    the transpose of one C-ordered [P, b*Q] array, as ``x.T`` is at b = 1.
    A gradient keeps its layout, and BLAS can round a product with an operand
    so laid out differently from the same product with a C-ordered copy."""
    b, p, q = x3.shape
    return x3.transpose(1, 0, 2).reshape(p, b * q).T


def _accum_per_sample(t: Tensor, parts: np.ndarray) -> None:
    """Add b samples' gradients [b, ...] to t's, last sample first: what the
    records of b samples made one after another would add, in their order."""
    for part in parts[::-1]:
        _accum(t, part)


def matmul(a: Tensor, w: Tensor, b: int = 1) -> Tensor:
    """a [b*M, K] x w [K, N] for b samples stacked in a's rows: one product
    per sample, so each sample's rows, and its share of w's gradient, have
    the bits of the product on that sample alone (``_accum_per_sample``)."""
    if a.data.ndim != 2 or w.data.ndim != 2 or a.shape[1] != w.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {w.shape}")
    a3 = _groups(a, b, "matmul")

    def fn(g: np.ndarray) -> None:
        g3 = g.reshape(b, -1, g.shape[1])
        _accum(a, np.matmul(g3, w.data.T).reshape(a.shape))
        _accum_per_sample(w, np.matmul(_t(a3), g3))

    return _out(np.matmul(a3, w.data).reshape(a.shape[0], w.shape[1]), fn)


def transpose(a: Tensor, b: int = 1) -> Tensor:
    """[b*M, N] -> [b*N, M]: each sample's [M, N] rows transposed in place."""
    a3 = _groups(a, b, "transpose")

    def fn(g: np.ndarray) -> None:
        _accum(a, _transposed_groups(g.reshape(b, a3.shape[2], a3.shape[1])))

    return _out(_t(a3).copy().reshape(-1, a3.shape[1]), fn)


def batch_matmul(a: Tensor, c: Tensor, b: int) -> Tensor:
    """[b*M, K] x [b*K, N] -> [b*M, N]: each sample's rows times its own matrix."""
    a3, c3 = _groups(a, b, "batch_matmul"), _groups(c, b, "batch_matmul")
    if a3.shape[2] != c3.shape[1]:
        raise ShapeError(f"batch_matmul: incompatible shapes {a.shape} x {c.shape} in {b} groups")

    def fn(g: np.ndarray) -> None:
        g3 = g.reshape(b, a3.shape[1], c3.shape[2])
        _accum(a, np.matmul(g3, _t(c3)).reshape(a.shape))
        _accum(c, np.matmul(_t(a3), g3).reshape(c.shape))

    return _out(np.matmul(a3, c3).reshape(-1, c3.shape[2]), fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")

    def fn(g: np.ndarray) -> None:
        _accum(a, g)
        _accum(b, g)

    return _out(a.data + b.data, fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")

    def fn(g: np.ndarray) -> None:
        _accum(a, g)
        _accum(b, -g)

    return _out(a.data - b.data, fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")

    def fn(g: np.ndarray) -> None:
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _out(a.data * b.data, fn)


def absdiff(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "absdiff")
    d = a.data - b.data

    def fn(g: np.ndarray) -> None:
        s = np.sign(d)
        _accum(a, g * s)
        _accum(b, -g * s)

    return _out(np.abs(d), fn)


def add_bias(x: Tensor, bias: Tensor, b: int = 1) -> Tensor:
    """x + bias over the last axis, for b samples stacked in x's rows."""
    if bias.data.ndim != 1 or x.shape[-1] != bias.shape[0] or x.shape[0] % b:
        raise ShapeError(f"add_bias: {x.shape} + bias {bias.shape} in {b} samples")

    def fn(g: np.ndarray) -> None:
        _accum(x, g)
        _accum_per_sample(bias, g.reshape(b, -1, bias.shape[0]).sum(axis=1))

    return _out(x.data + bias.data, fn)


def scale_channels(x: Tensor, g_vec: Tensor, b: int = 1) -> Tensor:
    """x * g_vec with g_vec broadcast over all leading axes (per-channel gate),
    for b samples stacked in x's rows."""
    if g_vec.data.ndim != 1 or x.shape[-1] != g_vec.shape[0] or x.shape[0] % b:
        raise ShapeError(f"scale_channels: {x.shape} * {g_vec.shape} in {b} samples")

    def fn(g: np.ndarray) -> None:
        _accum(x, g * g_vec.data)
        _accum_per_sample(g_vec, (g * x.data).reshape(b, -1, g_vec.shape[0]).sum(axis=1))

    return _out(x.data * g_vec.data, fn)


def mul_scalar(x: Tensor, s: float) -> Tensor:
    s = float(s)

    def fn(g: np.ndarray) -> None:
        _accum(x, g * s)

    return _out(x.data * s, fn)


def relu(x: Tensor) -> Tensor:
    def fn(g: np.ndarray) -> None:
        _accum(x, g * (x.data > 0))

    return _out(np.maximum(x.data, 0), fn)


_INV_SQRT2 = 0.7071067811865476
_INV_SQRT2PI = 0.3989422804014327
# erf by W. J. Cody's rational forms (Math. Comp. 23, 1969) with the
# coefficients and arrangement of Cephes's ndtr.c, highest power first (U and
# Q monic): x T(x^2) / U(x^2) for |x| <= 1, and 1 - exp(-x^2) P(|x|) / Q(|x|)
# with the sign of x for 1 < |x| < 8.  Past 8 Cephes's erfc is below 1.2e-29,
# so its erf is +-1 exactly; |x| clamped to 8 gives that too.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
# Elements per chunk of _erf: its work buffers (four float64 arrays of
# ERF_CHUNK, the chunk's flags and its tail's positions, about 0.7 MB) stay in
# a core's L2 cache.
ERF_CHUNK = 16384
# Each thread's _erf work buffers, made on its first call and kept for its
# next.  Buffers made afresh by every call, or sized by the data, left holes in
# the heap that later arrays filled differently from run to run, so a training
# process's peak RSS moved by several MB between runs.
_erf_kept = threading.local()


def _erf(x: np.ndarray) -> np.ndarray:
    """erf in float64, rounded once to x's dtype, ERF_CHUNK elements at a time.

    Each operation is Cephes's, so a float32 result has the bits of scipy's
    float32 erf (which rounds its float64 erf) and a float64 one is within 2
    ulp of scipy's; erf(+-0) = +-0, erf(+-inf) = +-1 and NaN stays NaN.
    Every element takes the |x| <= 1 form; a chunk's elements with |x| > 1
    are then gathered, take the tail form together and are written back
    before the next chunk.  Work happens in buffers the calling thread keeps
    (``_erf_kept``); besides the output, a call allocates only buffers whose
    sizes do not depend on how many elements have |x| > 1.
    """
    out = np.empty(x.shape, x.dtype)  # C order, so outs is a view of it
    xs, outs = x.reshape(-1), out.reshape(-1)
    bufs = getattr(_erf_kept, "bufs", None)
    if bufs is None:
        # four arrays, not rows of one, whose 128 KB stride slowed the passes
        bufs = _erf_kept.bufs = (*(np.empty(ERF_CHUNK) for _ in range(4)), np.empty(2 * ERF_CHUNK, bool))
    t, z, p, q, flags = bufs
    for start in range(0, x.size, ERF_CHUNK):
        xc, o = xs[start : start + ERF_CHUNK], outs[start : start + ERF_CHUNK]
        n = xc.size
        tc, zc, pc, qc = t[:n], z[:n], p[:n], q[:n]
        if x.dtype == np.float64:  # a square past 1e154 would overflow; erf is +-1 from 8
            np.clip(xc, -8.0, 8.0, out=tc)
        else:
            tc[...] = xc
        np.multiply(tc, tc, out=zc)
        k = 0
        if not zc.max() <= 1.0:  # |x| > 1 somewhere, or a NaN hides the max
            np.greater(zc, 1.0, out=flags[:n])
            k = int(np.count_nonzero(flags[:n]))
            np.minimum(zc, 1.0, out=zc)  # keeps x T(z) / U(z) finite there
        np.multiply(zc, _ERF_T[0], out=pc)
        for c in _ERF_T[1:-1]:
            pc += c
            pc *= zc
        pc += _ERF_T[-1]
        np.add(zc, _ERF_U[0], out=qc)
        for c in _ERF_U[1:]:
            qc *= zc
            qc += c
        pc *= tc
        np.divide(pc, qc, out=o)
        if not k:
            continue
        # n - k set flags after the chunk's k make flatnonzero return n
        # positions, the chunk's k first, however many k is
        flags[n : 2 * n - k] = True
        flags[2 * n - k : 2 * n] = False
        at = np.flatnonzero(flags[: 2 * n])[:k]
        # Cephes's 1 - erfc(|x|) with |x| clamped to 8: the tail's x goes to
        # the polynomial buffer the head form has finished with
        tx, a, e, w = p[:k], t[:k], z[:k], q[:k]
        np.take(tc, at, out=tx, mode="clip")
        np.abs(tx, out=a)
        np.minimum(a, 8.0, out=a)
        np.multiply(a, a, out=e)
        np.negative(e, out=e)
        np.exp(e, out=e)
        np.multiply(a, _ERFC_P[0], out=w)
        for c in _ERFC_P[1:-1]:
            w += c
            w *= a
        w += _ERFC_P[-1]
        e *= w
        np.add(a, _ERFC_Q[0], out=w)
        for c in _ERFC_Q[1:]:
            w *= a
            w += c
        e /= w
        np.subtract(1.0, e, out=e)
        np.copysign(e, tx, out=e)
        rounded = q.view(x.dtype)[:k]  # w's buffer, free once e is divided
        np.copyto(rounded, e)  # rounds once to x's dtype
        np.put(o, at, rounded, mode="clip")
        del at  # freed before the next chunk's positions are allocated
    return out


# Elements per chunk of the inference GELU: its three float32 work buffers
# and the output chunk (64 KB each) stay in cache, and no temporary is as
# large as x.
GELU_CHUNK = 16384
# erf(t) ~ t P(t^2) / Q(t^2) on t clamped to [-4, 4], where float32 erf is
# +-1: the float32 rational of Eigen's generic_fast_erf_float (also XLA's
# ErfImpl32), highest power first.  Q's coefficients are doubled, which is
# exact, so that P / Q is erf / 2.
_ERF_P = [np.float32(a) for a in (
    -2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
    -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
    -1.60960333262415e-02)]
_ERF_2Q = [np.float32(2 * b) for b in (
    -1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
    -7.37332916720468e-03, -1.42647390514189e-02)]


def _inference(x: Tensor) -> bool:
    """Whether a gelu, layer_norm or avg_pool_2d call on x takes its inference
    form: float32 with no Tape active, so no gradient and no float64 replay
    depends on its bits."""
    return x.data.dtype == np.float32 and _active_tape.get() is None


def _gelu_rational(x: np.ndarray) -> np.ndarray:
    """x Phi(x) in float32 with the rational erf, GELU_CHUNK elements at a time."""
    out = np.empty_like(x)
    xs, outs = x.reshape(-1), out.reshape(-1)
    t, t2, q = np.empty((3, min(GELU_CHUNK, x.size)), dtype=np.float32)
    for start in range(0, x.size, GELU_CHUNK):
        xc, o = xs[start : start + GELU_CHUNK], outs[start : start + GELU_CHUNK]
        n = xc.size
        tc, t2c, qc = t[:n], t2[:n], q[:n]
        np.multiply(xc, np.float32(_INV_SQRT2), out=tc)
        np.minimum(tc, np.float32(4), out=tc)  # a NaN stays NaN
        np.maximum(tc, np.float32(-4), out=tc)
        np.multiply(tc, tc, out=t2c)
        np.multiply(t2c, _ERF_P[0], out=o)
        for a in _ERF_P[1:-1]:
            o += a
            o *= t2c
        o += _ERF_P[-1]
        o *= tc
        np.multiply(t2c, _ERF_2Q[0], out=qc)
        for c in _ERF_2Q[1:-1]:
            qc += c
            qc *= t2c
        qc += _ERF_2Q[-1]
        o /= qc  # erf / 2; adding 1/2 gives the bits of (1 + erf) / 2
        o += np.float32(0.5)
        o *= xc
    return out


def gelu(x: Tensor) -> Tensor:
    """x Phi(x), Phi the normal CDF.

    Taped and float64 calls take erf in x's dtype from ``_erf``, Cephes's erf
    in numpy: a taped float32 call has the bits it has with scipy's float32
    erf, so training's bits are scipy's, and a float64 call's erf is within 2
    ulp of scipy's.  An inference call (``_inference``: float32, no Tape) takes the rational
    float32 erf of ``_gelu_rational`` instead: within 4.5e-7 of float64's
    erf, so the output is within 2.5e-7 |x| of the float64 GELU (measured
    2.2e-7 |x|).
    """
    if _inference(x):
        with np.errstate(invalid="ignore"):  # -inf gives NaN, which _out reports
            return _out(_gelu_rational(x.data), None)
    y = x.data * _INV_SQRT2  # erf's argument; the buffer then takes the output
    cdf = _erf(y)
    cdf += 1.0
    cdf *= 0.5
    np.multiply(x.data, cdf, out=y)

    def fn(g: np.ndarray) -> None:
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT2PI
        _accum(x, (g * (cdf + x.data * pdf)).astype(x.data.dtype, copy=False))

    return _out(y, fn)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax over the last axis, max-subtracted for stability."""
    if x.data.ndim != 2:
        raise ShapeError("softmax_rows: rank-2 only")
    z = x.data - x.data.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)

    def fn(g: np.ndarray) -> None:
        dot = (g * z).sum(axis=1, keepdims=True)
        _accum(x, z * (g - dot))

    return _out(z, fn)


def attention_rows(q: Tensor, k: Tensor, v: Tensor, scale: float, b: int = 1) -> Tensor:
    """softmax_rows(scale * q k^T) v for each of b samples: q [b*M, d],
    k [b*N, d], v [b*N, dv] -> [b*M, dv]; a sample's queries see only its keys.

    With a Tape active this is one record whose output and gradients are
    those of the chain transpose, matmul, mul_scalar, softmax_rows, matmul,
    bit for bit, with the b samples' products done by one batched matmul.
    Without one, ``scale`` is folded into q and each sample's scores are built
    ATTN_ROW_BLOCK query rows at a time, by this thread and, for calls of
    more than one block and more than ATTN_HELPER_SCORES scores on two or
    more CPUs, a helper thread that the call starts and joins.  Every block
    sees all of its sample's keys, and no more than 2 x ATTN_ROW_BLOCK x N
    scores are held at once.
    A block makes two elementwise passes over its scores when they need no
    shift: exp, and the product with the sample's values and a ones column,
    which gives each row's sum p v and sum p; the [rows, dv] quotient is the
    output.  The exp is of the raw scores when the sample's bound
    max_i |q_i| max_j |k_j| on them is at most ATTN_SHIFT_LIMIT and the
    value product cannot overflow; otherwise each row is first shifted by
    its max plus ln N.  The decision is the sample's own, so a batch's
    samples keep their one-sample bits.  The untaped output is not the
    taped one bit for bit: in float32 both lie within a few 1e-6 of the
    output's peak from a float64 replay, and no input for which the taped
    path is finite makes this path raise.
    """
    if (q.data.ndim != 2 or k.data.ndim != 2 or v.data.ndim != 2
            or q.shape[1] != k.shape[1] or k.shape[0] != v.shape[0]
            or b < 1 or q.shape[0] % b or k.shape[0] % b):
        raise ShapeError(f"attention_rows: q {q.shape}, k {k.shape}, v {v.shape}, b {b}")
    q3, k3, v3 = (x.data.reshape(b, -1, x.shape[1]) for x in (q, k, v))
    if _active_tape.get() is not None:
        return _attention_taped(q, k, v, q3, k3, v3, float(scale))
    qs = q.data * float(scale)
    kt = _t(k3)
    dtype = np.result_type(qs, kt, v.data)
    m, n, dv = q3.shape[1], k3.shape[1], v.shape[1]
    shift = _attention_shifts(qs.reshape(q3.shape), k3, v3)
    # each sample's values and a ones column: one product gives sum p v and sum p
    va = np.empty((b, n, dv + 1), dtype=dtype)
    va[:, :, :dv] = v3
    va[:, :, dv] = 1
    out = np.empty((q.shape[0], dv), dtype=dtype)
    n_blocks = b * -(-m // ATTN_ROW_BLOCK)
    threads = 2 if n_blocks > 1 and b * m * n > ATTN_HELPER_SCORES and _CPUS >= 2 else 1
    bufs = np.empty((threads, min(ATTN_ROW_BLOCK, m), n), dtype=np.result_type(qs, kt))
    # shared by both threads: each next() claims one block, atomically under the GIL
    blocks = iter(range(n_blocks))
    if threads == 1:
        _attention_blocks(qs, kt, va, shift, out, blocks, bufs[0])
    else:
        # leaving the block joins the helper, so nothing returns or raises
        # while it may still write `out`
        with ThreadPoolExecutor(1, thread_name_prefix="bisource-attn") as pool:
            helper = pool.submit(_attention_blocks, qs, kt, va, shift, out, blocks, bufs[1])
            _attention_blocks(qs, kt, va, shift, out, blocks, bufs[0])
            helper.result()
    return _out(out, None)


def _attention_shifts(qs3: np.ndarray, k3: np.ndarray, v3: np.ndarray) -> list[bool]:
    """Which of b samples' scores untaped attention shifts by the row max.

    A sample's scores obey |s_ij| <= bound = max_i |q_i| max_j |k_j|.  At
    bound <= ATTN_SHIFT_LIMIT every exp(s_ij) lies within exp(+-bound), so
    exp of the raw scores neither overflows nor underflows, and no row sum
    (at most N exp(bound)) does; the value product, at most
    N exp(bound) max|v|, must also fit.  A NaN or Inf in q, k or v fails the
    comparisons, so that sample is shifted and the row check reports it.
    """
    # einsum warns of no overflow; a square past the dtype's range is inf
    q2 = np.einsum("bmd,bmd->bm", qs3, qs3).max(axis=1, initial=0).tolist()
    k2 = np.einsum("bnd,bnd->bn", k3, k3).max(axis=1, initial=0).tolist()
    vmax = np.abs(v3).max(axis=(1, 2), initial=0).tolist()
    n, room = k3.shape[1], float(np.finfo(np.result_type(qs3, k3, v3)).max) / 4
    shifts = []
    for a, c, vm in zip(q2, k2, vmax):
        bound = math.sqrt(a * c)
        shifts.append(not (bound <= ATTN_SHIFT_LIMIT and n * math.exp(bound) * vm <= room))
    return shifts


def _attention_blocks(qs: np.ndarray, kt: np.ndarray, va: np.ndarray, shift: list[bool],
                      out: np.ndarray, blocks: Iterator[int], buf: np.ndarray) -> None:
    """Fill the blocks of ``out`` that this thread takes from ``blocks`` (numpy only).

    ``kt`` [b, d, N] and ``va`` [b, N, dv + 1] hold each sample's keys, and
    its values with a ones column; ``shift`` says which samples' scores
    are shifted (``_attention_shifts``).  ``qs`` and ``out`` hold the
    samples' query and output rows one after the other, and block i covers
    rows of sample i // (blocks per sample).
    """
    m = qs.shape[0] // kt.shape[0]
    per_sample = -(-m // ATTN_ROW_BLOCK)
    dv = out.shape[1]
    log_n = math.log(max(kt.shape[2], 1))
    pv = np.empty((buf.shape[0], dv + 1), dtype=out.dtype)
    # a NaN or Inf score is reported by the row check below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for i in blocks:
            sample, block = divmod(i, per_sample)
            start = sample * m + block * ATTN_ROW_BLOCK
            rows = qs[start : start + min(ATTN_ROW_BLOCK, m - block * ATTN_ROW_BLOCK)]
            z, o = buf[: rows.shape[0]], pv[: rows.shape[0]]
            np.matmul(rows, kt[sample], out=z)
            if shift[sample]:
                # each row's largest entry becomes exp(-ln N) = 1/N and none is
                # above it, so sum p v stays within max|v|, as the taped path's does
                z -= z.max(axis=1, keepdims=True) + log_n
            np.exp(z, out=z)
            np.matmul(z, va[sample], out=o)
            total = o[:, dv:]
            # no probability is negative, so a row's are all finite exactly
            # when their sum, the product with the ones column, is
            if not np.isfinite(total).all():
                for _ in blocks:  # take the rest, so that the other thread stops too
                    pass
                raise _non_finite("attention_rows", out)
            np.divide(o[:, :dv], total, out=out[start : start + rows.shape[0]])


def _attention_taped(q: Tensor, k: Tensor, v: Tensor, q3: np.ndarray, k3: np.ndarray,
                     v3: np.ndarray, scale: float) -> Tensor:
    """attention_rows under a Tape: the five-op chain's arithmetic in one record."""
    kt = _t(k3).copy()  # the chain's transpose is a contiguous copy
    z = np.matmul(q3, kt) * scale
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    out = np.matmul(z, v3)

    def fn(g: np.ndarray) -> None:
        g3 = g.reshape(out.shape)
        gz = np.matmul(g3, _t(v3))
        _accum(v, np.matmul(_t(z), g3).reshape(v.shape))
        gs = z * (gz - (gz * z).sum(axis=-1, keepdims=True)) * scale
        _accum(q, np.matmul(gs, _t(kt)).reshape(q.shape))
        _accum(k, _transposed_groups(np.matmul(_t(q3), gs)))

    return _out(out.reshape(q.shape[0], v.shape[1]), fn)


def cosine_rows(q: Tensor, k: Tensor, b: int = 1) -> Tensor:
    """Pairwise cosine similarity of q rows against k rows, norms clamped
    below, for each of b samples: q [b*M, d], k [b*N, d] -> [b*M, N]."""
    q3, k3 = _groups(q, b, "cosine_rows"), _groups(k, b, "cosine_rows")
    if q.shape[1] != k.shape[1]:
        raise ShapeError(f"cosine_rows: {q.shape} vs {k.shape}")
    nq = np.linalg.norm(q.data, axis=1, keepdims=True)
    nk = np.linalg.norm(k.data, axis=1, keepdims=True)
    mq = nq > NORM_EPS
    mk = nk > NORM_EPS
    nq = np.maximum(nq, NORM_EPS)
    nk = np.maximum(nk, NORM_EPS)
    qh = (q.data / nq).reshape(q3.shape)
    kh = (k.data / nk).reshape(k3.shape)
    out = np.matmul(qh, _t(kh))

    def fn(g: np.ndarray) -> None:
        # d out[i,j]/d q_i = (kh_j - out[i,j] * qh_i) / nq_i; the projection
        # term vanishes where the clamp is active (denominator constant there)
        g3 = g.reshape(out.shape)
        go = g3 * out
        row_dot = go.sum(axis=2, keepdims=True)
        col_dot = go.sum(axis=1)[:, :, None]
        gq = np.matmul(g3, kh) - mq.reshape(row_dot.shape) * row_dot * qh
        gk = np.matmul(_t(g3), qh) - mk.reshape(kh.shape[:2] + (1,)) * col_dot * kh
        _accum(q, gq.reshape(q.shape) / nq)
        _accum(k, gk.reshape(k.shape) / nk)

    return _out(out.reshape(q.shape[0], k3.shape[1]), fn)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, b: int = 1) -> Tensor:
    """Per-row zero mean / unit variance over the last axis, then affine, for
    b samples stacked in x's rows.

    Taped and float64 calls compute the row moments as np.mean and np.var
    do, bit for bit.  An inference call (``_inference``: float32, no Tape)
    takes them as einsum dot products with a 1/C vector
    (``_layer_norm_einsum``): within 8 float32 epsilons of the float64 form,
    relative to each row's scale |gain| max|x| / sigma + |bias| (measured
    2.0, as for the taped float32 form).
    """
    c = x.shape[-1]
    if gain.shape != (c,) or bias.shape != (c,) or x.shape[0] % b:
        raise ShapeError(f"layer_norm: gain/bias must be ({c},), rows {b} samples")
    if _inference(x):
        with np.errstate(invalid="ignore"):  # an Inf gives NaN, which _out reports
            return _out(_layer_norm_einsum(x.data, gain.data, bias.data), None)
    # the steps of np.mean and np.var, sharing the centred values: same bits
    d = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / c
    var = np.add.reduce(d * d, axis=-1, keepdims=True) / c
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = d * inv

    def fn(g: np.ndarray) -> None:
        per_g = g.reshape(b, -1, c)
        per_x = xhat.reshape(b, -1, c)
        _accum_per_sample(gain, (per_g * per_x).sum(axis=1))
        _accum_per_sample(bias, per_g.sum(axis=1))
        gx = g * gain.data
        m1 = gx.mean(axis=-1, keepdims=True)
        m2 = (gx * xhat).mean(axis=-1, keepdims=True)
        _accum(x, ((gx - m1 - xhat * m2) * inv).astype(x.data.dtype, copy=False))

    return _out((xhat * gain.data + bias.data).astype(x.data.dtype, copy=False), fn)


def _layer_norm_einsum(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """layer_norm's float32 inference form.  einsum reduces each row by
    itself, in the same order whatever the row count; a BLAS matrix-vector
    product (x @ w) can round a lone row differently from the same row in a
    batch, so a sample would not keep its bits."""
    w = np.full(x.shape[-1], 1.0 / max(x.shape[-1], 1), dtype=np.float32)
    d = x - np.einsum("...j,j->...", x, w)[..., None]
    out = np.multiply(d, d)
    inv = np.einsum("...j,j->...", out, w)[..., None]
    inv += np.float32(LN_EPS)
    np.sqrt(inv, out=inv)
    np.divide(np.float32(1), inv, out=inv)
    np.multiply(d, inv, out=out)
    out *= gain
    out += bias
    return out


def _box_sum(a: np.ndarray, window: int) -> np.ndarray:
    """Sum over a window x window neighborhood, clipped at the borders, of
    each [H, W, C] map of ``a`` ([H, W, C] or [B, H, W, C]).

    ``s`` is the integral image of ``a`` zero-padded by r + 1 rows/columns
    before and r after, so s[k] is the sum of a[:k - r] with k - r clipped to
    [0, h]: pixel i's window sum is s[i + 2r + 1] - s[i] on each axis.
    """
    h, w = a.shape[-3], a.shape[-2]
    r = window // 2
    s = np.zeros(a.shape[:-3] + (h + 2 * r + 1, w + 2 * r + 1, a.shape[-1]), dtype=np.float64)
    s[..., r + 1 : r + 1 + h, r + 1 : r + 1 + w, :] = a
    np.cumsum(s, axis=-3, out=s)
    np.cumsum(s, axis=-2, out=s)
    lo_i, hi_i = slice(0, h), slice(2 * r + 1, 2 * r + 1 + h)
    lo_j, hi_j = slice(0, w), slice(2 * r + 1, 2 * r + 1 + w)
    out = (s[..., hi_i, hi_j, :] - s[..., lo_i, hi_j, :]
           - s[..., hi_i, lo_j, :] + s[..., lo_i, lo_j, :])
    return out.astype(a.dtype)


def _box_sum_shifted(a: np.ndarray, window: int) -> np.ndarray:
    """_box_sum in a's own dtype: each axis's window sums as sums of shifted
    slices, the rows' first, clipped at the borders.  Each pixel adds its
    window's values in the same order whatever the batch size."""
    r = window // 2
    rows = a.copy()
    for s in range(1, r + 1):
        rows[..., s:, :, :] += a[..., :-s, :, :]
        rows[..., :-s, :, :] += a[..., s:, :, :]
    out = rows.copy()
    for s in range(1, r + 1):
        out[..., s:, :] += rows[..., :-s, :]
        out[..., :-s, :] += rows[..., s:, :]
    return out


@functools.cache
def _valid_counts(h: int, w: int, window: int, dtype) -> np.ndarray:
    """Read-only [h, w] count of the in-bounds pixels of each window."""
    r = window // 2
    i = np.arange(h)
    j = np.arange(w)
    ci = np.clip(i + r + 1, 0, h) - np.clip(i - r, 0, h)
    cj = np.clip(j + r + 1, 0, w) - np.clip(j - r, 0, w)
    counts = (ci[:, None] * cj[None, :]).astype(dtype)
    counts.flags.writeable = False
    return counts


def avg_pool_2d(x: Tensor, window: int) -> Tensor:
    """Shape-preserving average pooling (stride 1) with count-of-valid edges,
    of [H, W, C] or of each sample of [B, H, W, C].

    Taped and float64 calls take their window sums from a float64 integral
    image (``_box_sum``).  An inference call (``_inference``: float32, no
    Tape) adds shifted float32 slices instead (``_box_sum_shifted``): at
    most window^2 - 1 additions and one division, each rounding by half a
    float32 epsilon, so the output is within window^2 float32 epsilons of
    the window's mean |x| of the float64 average (measured 1.25).
    """
    if window % 2 == 0:
        raise ShapeError("avg_pool_2d: window must be odd")
    if x.data.ndim not in (3, 4):
        raise ShapeError("avg_pool_2d: expects [H, W, C] or [B, H, W, C]")
    if window == 1:
        def fn_id(g: np.ndarray) -> None:
            _accum(x, g)
        return _out(x.data.copy(), fn_id)
    h, w = x.shape[-3:-1]
    counts = _valid_counts(h, w, window, x.data.dtype)[:, :, None]
    if _inference(x):
        with np.errstate(over="ignore", invalid="ignore"):  # a NaN or Inf is reported by _out
            sums = _box_sum_shifted(x.data, window)
        sums /= counts
        return _out(sums, None)
    y = _box_sum(x.data, window) / counts

    def fn(g: np.ndarray) -> None:
        # adjoint of count-normalized box filtering is box-summing g / counts
        _accum(x, _box_sum((g / counts).astype(x.data.dtype), window))

    return _out(y, fn)


@functools.cache
def _interp_matrix(h: int, dtype) -> np.ndarray:
    """Read-only 2h x h bilinear interpolation weights (align_corners=False)."""
    m = np.zeros((2 * h, h), dtype=dtype)
    for i in range(2 * h):
        src = min(max((i + 0.5) / 2.0 - 0.5, 0.0), h - 1.0)
        i0 = int(np.floor(src))
        f = src - i0
        m[i, i0] += 1.0 - f
        if i0 + 1 < h:
            m[i, i0 + 1] += f
    m.flags.writeable = False
    return m


def bilinear_upsample_2x(x: Tensor) -> Tensor:
    """[H, W, C] -> [2H, 2W, C], or each sample of [B, H, W, C]."""
    if x.data.ndim not in (3, 4):
        raise ShapeError("bilinear_upsample_2x: expects [H, W, C] or [B, H, W, C]")
    h, w = x.shape[-3:-1]
    uh = _interp_matrix(h, x.data.dtype)
    uw = _interp_matrix(w, x.data.dtype)
    y = np.einsum("ph,...hwc->...pwc", uh, x.data)
    y = np.einsum("qw,...pwc->...pqc", uw, y)

    def fn(g: np.ndarray) -> None:
        gx = np.einsum("qw,...pqc->...pwc", uw, g)
        gx = np.einsum("ph,...pwc->...hwc", uh, gx)
        _accum(x, gx.astype(x.data.dtype))

    return _out(np.ascontiguousarray(y), fn)


def space_to_depth(x: Tensor, factor: int) -> Tensor:
    """[H, W, C] -> [H/f, W/f, f*f*C], stacking each f x f patch channelwise;
    or the same for each sample of [B, H, W, C]."""
    if x.data.ndim not in (3, 4):
        raise ShapeError("space_to_depth: expects [H, W, C] or [B, H, W, C]")
    h, w, c = x.shape[-3:]
    if h % factor or w % factor:
        raise ShapeError(f"space_to_depth: {h}x{w} not divisible by {factor}")
    hh, ww = h // factor, w // factor
    lead = x.shape[:-3]

    def fn(g: np.ndarray) -> None:
        ga = (
            g.reshape(-1, hh, ww, factor, factor, c)
            .transpose(0, 1, 3, 2, 4, 5)
            .reshape(x.shape)
        )
        _accum(x, ga)

    out = (
        x.data.reshape(-1, hh, factor, ww, factor, c)
        .transpose(0, 1, 3, 2, 4, 5)
        .reshape(lead + (hh, ww, factor * factor * c))
    )
    return _out(out, fn)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """The parts' rows, one part after another; one part is returned as it
    is, with no copy and no record."""
    if not parts:
        raise ShapeError("concat_rows: empty")
    if len(parts) == 1:
        return parts[0]
    sizes = [p.shape[0] for p in parts]

    def fn(g: np.ndarray) -> None:
        # last part first, as records made one after another would run, so
        # that a tensor given more than once adds its gradients in that order
        ofs = sum(sizes)
        for p, n in zip(reversed(parts), reversed(sizes)):
            ofs -= n
            _accum(p, g[ofs : ofs + n])

    return _out(np.concatenate([p.data for p in parts], axis=0), fn)


def concat_channels(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise ShapeError("concat_channels: empty")
    sizes = [p.shape[-1] for p in parts]

    def fn(g: np.ndarray) -> None:
        ofs = 0
        for p, n in zip(parts, sizes):
            _accum(p, g[..., ofs : ofs + n])
            ofs += n

    return _out(np.concatenate([p.data for p in parts], axis=-1), fn)


def slice_channels(x: Tensor, start: int, stop: int) -> Tensor:
    def fn(g: np.ndarray) -> None:
        full = np.zeros_like(x.data)
        full[..., start:stop] = g
        _accum(x, full)

    return _out(np.ascontiguousarray(x.data[..., start:stop]), fn)


def slice_rows(x: Tensor, start: int, stop: int, b: int = 1) -> Tensor:
    """Rows start:stop of each of b equal groups of x's rows, stacked."""
    if x.shape[0] % b:
        raise ShapeError(f"slice_rows: {x.shape[0]} rows are not {b} groups")
    groups = x.data.reshape((b, -1) + x.shape[1:])

    def fn(g: np.ndarray) -> None:
        full = np.zeros_like(groups)
        full[:, start:stop] = g.reshape((b, -1) + x.shape[1:])
        _accum(x, full.reshape(x.shape))

    return _out(np.array(groups[:, start:stop]).reshape((-1,) + x.shape[1:]), fn)


def reshape(x: Tensor, shape: Iterable[int]) -> Tensor:
    shape = tuple(shape)

    def fn(g: np.ndarray) -> None:
        _accum(x, g.reshape(x.shape))

    return _out(x.data.reshape(shape), fn)


def sum_all(x: Tensor, b: int = 1) -> Tensor:
    """[b]: the sum of each of b equal parts of x (of all of x when b = 1)."""
    if x.data.size % b:
        raise ShapeError(f"sum_all: {x.data.size} elements are not {b} parts")
    parts = x.data.reshape(b, -1)

    def fn(g: np.ndarray) -> None:
        _accum(x, np.broadcast_to(g[:, None], parts.shape).reshape(x.shape))

    return _out(parts.sum(axis=1), fn)


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size

    def fn(g: np.ndarray) -> None:
        _accum(x, np.full_like(x.data, g.reshape(-1)[0] / n))

    return _out(np.asarray([x.data.mean()], dtype=x.data.dtype), fn)


def abs_all(x: Tensor) -> Tensor:
    def fn(g: np.ndarray) -> None:
        _accum(x, g * np.sign(x.data))

    return _out(np.abs(x.data), fn)


def bce_with_logits(logits: Tensor, target: Tensor) -> Tensor:
    """Mean binary cross-entropy on raw logits (log-sum-exp stabilized)."""
    _same_shape(logits, target, "bce_with_logits")
    z = logits.data
    t = target.data
    # log(1 + e^z) - t*z computed stably
    loss = np.maximum(z, 0) - z * t + np.log1p(np.exp(-np.abs(z)))
    n = z.size

    def fn(g: np.ndarray) -> None:
        sig = 1.0 / (1.0 + np.exp(-z))
        _accum(logits, (g.reshape(-1)[0] / n) * (sig - t))

    return _out(np.asarray([loss.mean()], dtype=z.dtype), fn)


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of [N, n_cls] logits against integer labels."""
    if logits.data.ndim != 2:
        raise ShapeError("softmax_cross_entropy: expects [N, n_cls]")
    n, ncls = logits.shape
    labels = np.asarray(labels).reshape(-1)
    if labels.shape[0] != n:
        raise ShapeError("softmax_cross_entropy: label count mismatch")
    if labels.min() < 0 or labels.max() >= ncls:
        raise ValueError("softmax_cross_entropy: label index out of range")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    picked = z[np.arange(n), labels]
    loss = (lse - picked).mean()

    def fn(g: np.ndarray) -> None:
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(n), labels] -= 1.0
        _accum(logits, (g.reshape(-1)[0] / n) * p)

    return _out(np.asarray([loss], dtype=z.dtype), fn)
