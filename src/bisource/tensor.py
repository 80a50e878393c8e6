"""Minimal dense-tensor engine with tape-based reverse-mode differentiation.

Tensors are immutable numpy-backed values (float32 or float64, rank 1-4,
row-major).  Every operation validates its output for NaN/Inf and, when a
Tape is active in the calling thread, records a backward closure.  The
validation probes the output's sum of squares, which is finite only if every
element is, and scans the elements only when the probe is not finite (a NaN
or Inf, or finite values whose squares overflow), so it is exact.

A Tensor's gradient lives in its slot (``_Slot``), made the first time a
taped op records or reads the tensor; ``Tensor.grad`` and ``Parameter.grad``
read and write it.  A Parameter's gradient is made, as zeros, the first time
``Parameter.grad`` or ``zero_grad`` reads it, or when an optimizer takes the
parameters and binds each one's value and gradient to views of its flat
buffers (``Parameter.bind``), so a model that only predicts holds no gradient
arrays.  Under a Tape an op records its output's slot, not
the output, with a closure that holds the arrays its backward reads and the
slots of the inputs it adds into, never a Tensor.  So an output that no
backward reads, such as one that only ``add``, ``layer_norm``, ``reshape``, a
slice, a concatenation or ``avg_pool_2d`` takes, is freed as soon as the
forward drops it.  ``mlp`` keeps its normalised rows, their 1 / sigma and its
GELU's input and CDF, and rebuilds the two outputs its linears' weight
gradients read, the layer norm's and the GELU's, in its backward with the
forward's own operations, so they have the same bits.  A kernel's backward
returns a fresh array, which an empty slot keeps rather than copies.
Untaped calls make no slot, and untaped ``matmul`` and ``linear`` build no
backward.  ``backward`` releases each tape record, with the arrays its
closure captured and its output's gradient, as soon as the record has run.

A batch of b samples is carried as rows, each sample's rows after the
previous sample's, so elementwise and row-wise ops need no batch count.  The
ops that take ``b`` work sample by sample: ``attention_rows``,
``cosine_rows``, ``cosine_attention``, ``batch_matmul``, ``transpose``,
``slice_rows`` and ``sum_all`` mix rows only within a sample; ``matmul``,
``linear`` and ``mlp`` make one product per sample; and ``matmul``,
``linear``, ``layer_norm``, ``mlp`` and ``scale_channels`` add the
samples' shares of a weight's gradient last sample first.  The grid ops take
[H, W, C] or [B, H, W, C].  So a batched pass has, bit for bit, the outputs
and gradients of b one-sample passes recorded one after another.

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
the output bits are too.  The untaped path works in the shapes BLAS runs
fastest and in base 2: a block's scores are key-major, [N, rows], the keys
times the block's queries scaled by scale log2(e), and take exp2.  The
product of the sample's values, transposed with a ones row beneath them, and
those [N, rows] probabilities gives each query's sum p v and sum p, and the
output is their quotient, so the probabilities are never normalised.  A
sample whose scores are bounded by ATTN_SHIFT_LIMIT skips the max shift.  The
untaped output agrees with the taped path's to float rounding (a few 1e-6 of
the peak in float32), not bit for bit.

``gelu`` needs erf, which numpy lacks: taped and float64 calls take
``_erf``, W. J. Cody's rational forms as Cephes evaluates them, in float64
chunks whose |x| > 1 elements are finished within the chunk, and in work
buffers each thread keeps (``_erf_kept``), so what a call allocates does not
depend on its data.  Its float32 results have the bits of scipy's float32
erf; its float64 ones are within 2 ulp of scipy's.

Untaped float32 calls of ``gelu``, ``layer_norm``, ``avg_pool_2d`` and
``bilinear_upsample_2x`` are inference calls (``_inference``): no gradient
and no float64 replay depends on their bits, so they take forms that cost
about their arithmetic.  ``gelu`` takes a clamped rational float32 erf,
within 2.5e-7 |x| of the float64 GELU; ``avg_pool_2d`` adds shifted float32
slices, within window^2 float32 epsilons of the window's mean |x|;
``layer_norm`` takes its row moments as einsum dot products, within 8 float32
epsilons of the row's scale |gain| max|x| / sigma + |bias|;
``bilinear_upsample_2x`` takes two BLAS products, within 2 float32 epsilons
of max|x|.  Each gives a sample the bits it has alone.  Taped calls and float64
calls keep the exact forms, bit for bit.  For ``avg_pool_2d`` those are the
same shifted slices in float64, and, for a taped float32 call, the float64
integral image that perfbench's recorded training losses follow.

Each piece of math is written once, in a private kernel that takes arrays
and the op's weight Tensors and returns ``(output, back)``: ``back(g)`` adds
the gradients of the weight Tensors and returns the input's gradient
(``_cosine``, whose operands are both Tensors, adds both and returns none).
``_matmul``, ``_linear``, ``_layer_norm``, ``_gelu``, ``_softmax``,
``_attend`` and ``_cosine`` are the kernels; all but ``_softmax`` and
``_attend`` return no backward without a Tape.  ``_layer_norm`` and ``_gelu``
also return ``again``, which rebuilds their output, and ``_matmul`` and
``_linear`` can take such a function in place of keeping their input.  A
public op calls its kernel,
and no public op calls another.  ``linear`` (matmul, bias), ``mlp``
(layer_norm, linear, gelu, linear) and ``cosine_attention`` (cosine_rows,
softmax, value product) run their kernels in a row and check their output
once; under a Tape each makes one record, whose closure runs the kernels'
backs in reverse, so its gradients have the bits of the chain of public ops
recorded one after another.  ``linear`` and ``mlp`` have the chain's bits in
every mode, and a NaN or Inf anywhere in them is reported as the fused op's.
Untaped ``cosine_attention``, in either dtype, takes exp of each sample's
cosine scores, which lie in [-1, 1], with no shift, and divides their product
with the values by their product with a ones vector, the row sums.  It is
within 4 epsilons of the sample's max|v| of a float64 oracle (measured 0.96
in float32), not the taped bits.
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
    "linear",
    "scale_channels",
    "mul_scalar",
    "relu",
    "gelu",
    "softmax_rows",
    "attention_rows",
    "cosine_rows",
    "cosine_attention",
    "layer_norm",
    "mlp",
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
# blocks in flight, live scores stay within 256 x N.  tests/attention_timing.py
# on a 2-vCPU VM (float32, one BLAS thread per thread): the 2 x 4096-token,
# d = 16 call took 45.3 / 41.5 / 44.4 / 47.1 ms on one thread at 32 / 64 /
# 128 / 256 rows and 29.1 / 26.1 / 27.2 / 26.7 ms shared with the helper
# (medians of 7 alternating rounds).  64 rows make the fastest call alone, but
# a 256 px density prediction (--requests) took 1,264 minor page faults and
# 3.7 ms of system time at 64 rows against 6 and 0.0 ms at 128 on two CPUs,
# and 4,361 against 1,258 faults on one: at 64 rows the call's work
# allocation (see attention_rows) is 2.7 MB, too small for huge pages or to
# keep malloc from trimming the heap.  perfbench's density pairs/s read 9.60
# at 64 rows and 10.91 at 128 (medians of 6 alternated runs).
ATTN_ROW_BLOCK = 128
# The helper thread takes part only in calls of more than this many scores
# (b x M x N).  tests/attention_timing.py --helper, medians of 15 alternating
# rounds on the same VM, two threads against one: at or below it, b x 256
# tokens (d = 16) 1.87 (b = 2), 1.39 (4) and 1.21 (8), 2 x 512 1.29 and
# 1 x 1024 1.22 (1.15 at d = 32); above it, 2 x 1024 1.14 at d = 16 but 0.70
# at d = 32 (the model's shape), 1 x 2048 0.72 and 2 x 4096 0.54.
ATTN_HELPER_SCORES = 2**20
# Untaped attention_rows takes exp of a sample's raw scores, without the max
# shift, when its bound on |score| (_attention_shifts) is at most this:
# exp(+-30) = 1.1e13 and 9.4e-14 leave room in float32, whose largest value
# is 3.4e38, for row sums over billions of keys.
ATTN_SHIFT_LIMIT = 30.0
_LOG2E = math.log2(math.e)

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


class _Slot:
    """A tensor's gradient, held apart from its values.  Tape records hold the
    slot of their output and closures the slots of the inputs they add into,
    so an output whose values no backward reads is freed when the code that
    made it drops the Tensor."""

    __slots__ = ("grad", "dtype")

    def __init__(self, dtype) -> None:
        self.grad: np.ndarray | None = None
        self.dtype = dtype


def _slot(t: "Tensor") -> _Slot:
    """t's gradient slot, made on first use (only taped ops use one)."""
    s = t._slot
    if s is None:
        s = t._slot = _Slot(t.data.dtype)
    return s


class Tensor:
    """Immutable dense array value.  ``grad`` is populated only by backward()."""

    __slots__ = ("data", "_slot")

    def __init__(self, data: np.ndarray) -> None:
        if data.dtype not in (np.float32, np.float64):
            raise TypeError(f"unsupported dtype {data.dtype}; use float32 or float64")
        if not (1 <= data.ndim <= 4):
            raise ShapeError(f"rank must be 1-4, got {data.ndim}")
        self.data = np.ascontiguousarray(data)
        self._slot: _Slot | None = None
        alloc_stats.add(self.data.size)

    def __del__(self) -> None:
        try:
            n = self.data.size
        except AttributeError:  # __init__ raised before counting this tensor
            return
        alloc_stats.sub(n)

    @property
    def grad(self) -> np.ndarray | None:
        s = self._slot
        return None if s is None else s.grad

    @grad.setter
    def grad(self, g: np.ndarray | None) -> None:
        _slot(self).grad = g

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
    """Learnable tensor with a persistent gradient accumulator.

    The accumulator is made, as zeros, the first time ``grad`` or
    ``zero_grad`` reads it, or when an optimizer takes the parameter
    (``bind``), so a parameter that only predicts holds none.  Backward adds
    into it in place, so a bound gradient stays a view of the optimizer's
    buffer."""

    __slots__ = ("value", "name")

    def __init__(self, value: Tensor, name: str) -> None:
        self.value = value
        self.name = name

    @property
    def grad(self) -> np.ndarray:
        g = self.value.grad
        if g is None:
            g = self.value.grad = np.zeros_like(self.value.data)
        return g

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def assign(self, data: np.ndarray) -> None:
        """In-place update of the underlying value (optimizer use only)."""
        self.value.data[...] = data

    def bind(self, values: np.ndarray, grad: np.ndarray) -> None:
        """Move the value into ``values`` and the gradient into ``grad``,
        C-contiguous arrays of the value's shape and dtype (an optimizer's
        views of its flat buffers), and keep them as the parameter's own.  A
        gradient not made yet starts as zeros."""
        values[...] = self.value.data
        g = self.value.grad
        grad[...] = 0.0 if g is None else g
        self.value.data = values
        self.value.grad = grad

    def __repr__(self) -> str:
        return f"Parameter({self.name}, shape={self.value.shape})"


class Tape:
    """Ordered record of differentiable ops; replayed in reverse by backward().

    Single-writer: one live tape per thread, never shared.  The active tape is
    held in a context variable, so ops issued by other threads (each starts
    with an empty context) are neither recorded nor blocked by it.
    """

    def __init__(self) -> None:
        self._records: list[tuple[_Slot, Callable[[np.ndarray], None]]] = []
        self._token = None

    def __enter__(self) -> "Tape":
        if _active_tape.get() is not None:
            raise RuntimeError("a Tape is already active")
        self._token = _active_tape.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _active_tape.reset(self._token)
        self._token = None

    def record(self, out: _Slot, fn: Callable[[np.ndarray], None]) -> None:
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


def _accum(s: _Slot, g: np.ndarray) -> None:
    if s.grad is None:
        s.grad = g.astype(s.dtype, copy=True)
    else:
        s.grad += g


def _accum_own(s: _Slot, g: np.ndarray) -> None:
    """``_accum`` of an array that nothing else holds: an empty slot keeps it
    as it is when its dtype is the slot's, instead of a copy."""
    if s.grad is None and g.dtype == s.dtype:
        s.grad = g
    else:
        _accum(s, g)


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


def _out(data: np.ndarray, fn: Callable[..., None] | None, *inputs: Tensor) -> Tensor:
    """``data`` checked and wrapped.  Under a Tape, records ``fn`` with the
    output's slot: the record calls fn(g, *slots), the slots of ``inputs``
    in order, so ``fn`` itself captures only the arrays its backward reads."""
    if not all_finite(data):
        raise _non_finite(sys._getframe(1).f_code.co_name, data)
    t = Tensor(data)
    if fn is not None:
        tape = _active_tape.get()
        if tape is not None:
            slots = [_slot(x) for x in inputs]
            tape.record(_slot(t), lambda g: fn(g, *slots))
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


def _accum_per_sample(s: _Slot, parts: np.ndarray) -> None:
    """Add b samples' gradients [b, ...] to s's, last sample first: what the
    records of b samples made one after another would add, in their order."""
    for part in parts[::-1]:
        _accum(s, part)


def _into(back: Callable[[np.ndarray], np.ndarray] | None):
    """The backward of an op on one input whose kernel returned ``back``: it
    adds the fresh gradient array that ``back`` returns to the input's slot.
    None when ``back`` is."""
    return None if back is None else lambda g, s: _accum_own(s, back(g))


def _matmul(x: np.ndarray, w: Tensor, b: int, op: str, x_again: Callable[[], np.ndarray] | None = None):
    """x [b*M, K] x w [K, N] for b samples stacked in x's rows, one product
    per sample; back adds w's per-sample gradients.  No back without a Tape.
    ``x_again()`` rebuilds x for back, so that back need not keep x."""
    shape, wd = x.shape, w.data
    if x.ndim != 2 or wd.ndim != 2 or shape[1] != wd.shape[0] or b < 1 or shape[0] % b:
        raise ShapeError(f"{op}: incompatible shapes {shape} x {wd.shape} in {b} samples")
    y = np.matmul(x.reshape(b, -1, shape[1]), wd).reshape(shape[0], wd.shape[1])
    if _active_tape.get() is None:
        return y, None
    sw = _slot(w)
    if x_again is None:
        x_again = lambda: x

    def back(g: np.ndarray) -> np.ndarray:
        g3 = g.reshape(b, -1, g.shape[1])
        _accum_per_sample(sw, np.matmul(_t(x_again().reshape(b, -1, shape[1])), g3))
        return np.matmul(g3, wd.T).reshape(shape)

    return y, back


def matmul(a: Tensor, w: Tensor, b: int = 1) -> Tensor:
    """a [b*M, K] x w [K, N] for b samples stacked in a's rows: one product
    per sample, so each sample's rows, and its share of w's gradient, have
    the bits of the product on that sample alone (``_accum_per_sample``)."""
    with np.errstate(invalid="ignore"):  # an Inf gives NaN, which _out reports
        y, back = _matmul(a.data, w, b, "matmul")
    return _out(y, _into(back), a)


def transpose(a: Tensor, b: int = 1) -> Tensor:
    """[b*M, N] -> [b*N, M]: each sample's [M, N] rows transposed in place."""
    a3 = _groups(a, b, "transpose")
    _, m, n = a3.shape

    def fn(g: np.ndarray, sa: _Slot) -> None:
        _accum(sa, _transposed_groups(g.reshape(b, n, m)))

    return _out(_t(a3).copy().reshape(-1, m), fn, a)


def batch_matmul(a: Tensor, c: Tensor, b: int) -> Tensor:
    """[b*M, K] x [b*K, N] -> [b*M, N]: each sample's rows times its own matrix."""
    a3, c3 = _groups(a, b, "batch_matmul"), _groups(c, b, "batch_matmul")
    if a3.shape[2] != c3.shape[1]:
        raise ShapeError(f"batch_matmul: incompatible shapes {a.shape} x {c.shape} in {b} groups")

    def fn(g: np.ndarray, sa: _Slot, sc: _Slot) -> None:
        g3 = g.reshape(b, a3.shape[1], c3.shape[2])
        _accum_own(sa, np.matmul(g3, _t(c3)).reshape(-1, a3.shape[2]))
        _accum_own(sc, np.matmul(_t(a3), g3).reshape(-1, c3.shape[2]))

    return _out(np.matmul(a3, c3).reshape(-1, c3.shape[2]), fn, a, c)


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")

    def fn(g: np.ndarray, sa: _Slot, sb: _Slot) -> None:
        _accum(sa, g)
        _accum(sb, g)

    return _out(a.data + b.data, fn, a, b)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")

    def fn(g: np.ndarray, sa: _Slot, sb: _Slot) -> None:
        _accum(sa, g)
        _accum_own(sb, -g)

    return _out(a.data - b.data, fn, a, b)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    ad, bd = a.data, b.data

    def fn(g: np.ndarray, sa: _Slot, sb: _Slot) -> None:
        _accum_own(sa, g * bd)
        _accum_own(sb, g * ad)

    return _out(ad * bd, fn, a, b)


def absdiff(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "absdiff")
    d = a.data - b.data

    def fn(g: np.ndarray, sa: _Slot, sb: _Slot) -> None:
        s = np.sign(d)
        _accum_own(sa, g * s)
        _accum_own(sb, -g * s)

    return _out(np.abs(d), fn, a, b)


def _linear(x: np.ndarray, w: Tensor, bias: Tensor, b: int, op: str,
            x_again: Callable[[], np.ndarray] | None = None):
    """``_matmul``, then the bias added in place into the product; back adds
    the bias's per-sample gradients, then runs ``_matmul``'s back."""
    y, back_w = _matmul(x, w, b, op, x_again)
    bd, n = bias.data, y.shape[1]
    if bd.shape != (n,):
        raise ShapeError(f"{op}: {x.shape} x {w.shape} + bias {bd.shape}")
    y += bd
    if back_w is None:
        return y, None
    sb = _slot(bias)

    def back(g: np.ndarray) -> np.ndarray:
        _accum_per_sample(sb, g.reshape(b, -1, n).sum(axis=1))
        return back_w(g)

    return y, back


def linear(x: Tensor, w: Tensor, bias: Tensor, b: int = 1) -> Tensor:
    """x [b*M, K] x w [K, N] + bias [N] for b samples stacked in x's rows:
    one product per sample, the bias added in place, and one record."""
    with np.errstate(invalid="ignore"):  # an Inf gives NaN, which _out reports
        y, back = _linear(x.data, w, bias, b, "linear")
    return _out(y, _into(back), x)


def scale_channels(x: Tensor, g_vec: Tensor, b: int = 1) -> Tensor:
    """x * g_vec with g_vec broadcast over all leading axes (per-channel gate),
    for b samples stacked in x's rows."""
    if g_vec.data.ndim != 1 or x.shape[-1] != g_vec.shape[0] or x.shape[0] % b:
        raise ShapeError(f"scale_channels: {x.shape} * {g_vec.shape} in {b} samples")
    xd, gv = x.data, g_vec.data

    def fn(g: np.ndarray, sx: _Slot, sv: _Slot) -> None:
        _accum_own(sx, g * gv)
        _accum_per_sample(sv, (g * xd).reshape(b, -1, gv.shape[0]).sum(axis=1))

    return _out(xd * gv, fn, x, g_vec)


def mul_scalar(x: Tensor, s: float) -> Tensor:
    s = float(s)

    def fn(g: np.ndarray, sx: _Slot) -> None:
        _accum_own(sx, g * s)

    return _out(x.data * s, fn, x)


def relu(x: Tensor) -> Tensor:
    xd = x.data

    def fn(g: np.ndarray, sx: _Slot) -> None:
        _accum_own(sx, g * (xd > 0))

    return _out(np.maximum(xd, 0), fn, x)


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


def _inference(x: np.ndarray) -> bool:
    """Whether a kernel's call on x takes its inference form: float32 with no
    Tape active, so no gradient and no float64 replay depends on its bits."""
    return x.dtype == np.float32 and _active_tape.get() is None


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


def _gelu(x: np.ndarray):
    """gelu's kernel: erf from ``_erf``, or in an inference call from
    ``_gelu_rational``, with no backward.  There -inf gives NaN, so callers
    hold np.errstate(invalid="ignore") and let _out report it.  Returns
    (output, back, again); with no Tape, back and again are None, and
    ``again()`` rebuilds the output with the forward's own multiply."""
    if _inference(x):
        return _gelu_rational(x), None, None
    y = x * _INV_SQRT2  # erf's argument; the buffer then takes the output
    cdf = _erf(y)
    cdf += 1.0
    cdf *= 0.5

    def again(out: np.ndarray | None = None) -> np.ndarray:
        return np.multiply(x, cdf, out=out)

    y = again(y)
    if _active_tape.get() is None:
        return y, None, None

    def back(g: np.ndarray) -> np.ndarray:
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
        return (g * (cdf + x * pdf)).astype(x.dtype, copy=False)

    return y, back, again


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
    with np.errstate(invalid="ignore"):  # -inf gives NaN, which _out reports
        y, back, _ = _gelu(x.data)
    return _out(y, _into(back), x)


def _softmax(x: np.ndarray):
    """Softmax over x's last axis, max-subtracted for stability; back returns
    x's gradient."""
    z = x - x.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)

    def back(g: np.ndarray) -> np.ndarray:
        return z * (g - (g * z).sum(axis=-1, keepdims=True))

    return z, back


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax over the last axis, max-subtracted for stability."""
    if x.data.ndim != 2:
        raise ShapeError("softmax_rows: rank-2 only")
    z, back = _softmax(x.data)
    return _out(z, _into(back), x)


def _attend(s: np.ndarray, sv: _Slot, v3: np.ndarray):
    """``_softmax`` of scores s [b, M, N] times each sample's values v3
    [b, N, dv] (the data of the tensor whose slot is ``sv``); back adds the
    values' gradient and returns s's."""
    p, back_p = _softmax(s)
    out = np.matmul(p, v3)
    shape = out.shape

    def back(g: np.ndarray) -> np.ndarray:
        g3 = g.reshape(shape)
        _accum_own(sv, np.matmul(_t(p), g3).reshape(-1, v3.shape[2]))
        return back_p(np.matmul(g3, _t(v3)))

    return out, back


def attention_rows(q: Tensor, k: Tensor, v: Tensor, scale: float, b: int = 1) -> Tensor:
    """softmax_rows(scale * q k^T) v for each of b samples: q [b*M, d],
    k [b*N, d], v [b*N, dv] -> [b*M, dv]; a sample's queries see only its keys.

    With a Tape active this is one record whose output and gradients are
    those of the chain transpose, matmul, mul_scalar, softmax_rows, matmul,
    bit for bit, with the b samples' products done by one batched matmul.
    Without one, each sample's scores are built ATTN_ROW_BLOCK query rows at
    a time, by this thread and, for calls of more than one block and more
    than ATTN_HELPER_SCORES scores on two or more CPUs, a helper thread that
    the call starts and joins.  Every block sees all of its sample's keys,
    and no more than 2 x ATTN_ROW_BLOCK x N scores are held at once.
    A block's scores are key-major and in base 2: z [N, rows] is the
    sample's keys times the block's queries, scaled by scale log2(e),
    transposed, and exp2(z) = exp(scale q k^T).  The product of the sample's
    values, transposed, with a ones row beneath them, [dv + 1, N], and z
    gives each query's sum p v and sum p, and the first dv rows divided by
    the last are the block's output, written through a transposed view.  So
    a block makes two elementwise passes over its scores when they need no
    shift.  exp2 takes the raw scores when the sample's bound
    |scale| max_i |q_i| max_j |k_j| on them is at most ATTN_SHIFT_LIMIT (in
    natural units) and the value product cannot overflow; otherwise each
    query's scores are first shifted by their max plus log2 N.  The decision
    is the sample's own, so a batch's samples keep their one-sample bits.
    The untaped output is not the taped one bit for bit: in float32 both lie
    within a few 1e-6 of the output's peak from a float64 replay, and no
    input for which the taped path is finite makes this path raise.
    """
    if (q.data.ndim != 2 or k.data.ndim != 2 or v.data.ndim != 2
            or q.shape[1] != k.shape[1] or k.shape[0] != v.shape[0]
            or b < 1 or q.shape[0] % b or k.shape[0] % b):
        raise ShapeError(f"attention_rows: q {q.shape}, k {k.shape}, v {v.shape}, b {b}")
    q3, k3, v3 = (x.data.reshape(b, -1, x.shape[1]) for x in (q, k, v))
    scale = float(scale)
    if _active_tape.get() is not None:
        kt = _t(k3).copy()  # the chain's transpose is a contiguous copy
        out, back = _attend(np.matmul(q3, kt) * scale, _slot(v), v3)
        q_shape = q.shape

        def fn(g: np.ndarray, sq: _Slot, sk: _Slot) -> None:
            gs = back(g) * scale
            _accum_own(sq, np.matmul(gs, _t(kt)).reshape(q_shape))
            _accum(sk, _transposed_groups(np.matmul(_t(q3), gs)))

        return _out(out.reshape(q.shape[0], v.shape[1]), fn, q, k)
    dtype = np.result_type(q.data, k.data, v.data)
    m, n, d, dv = q3.shape[1], k3.shape[1], q.shape[1], v.shape[1]
    shift = _attention_shifts(q3, k3, v3, scale)
    n_blocks = b * -(-m // ATTN_ROW_BLOCK)
    threads = 2 if n_blocks > 1 and b * m * n > ATTN_HELPER_SCORES and _CPUS >= 2 else 1
    # One allocation holds the call's work arrays: each sample's values,
    # transposed, with a ones row, and each thread's scores and scaled query
    # rows.  At the 256 px stage-1 shape on two threads it is 4.8 MB, which
    # numpy asks the kernel to back with huge pages (from 4 MiB), and freed,
    # it raises glibc's mmap threshold, above which malloc maps blocks afresh,
    # and its heap trim threshold with it.  With these arrays made apart, a
    # 256 px density prediction faulted in about 1,500 pages on two CPUs and
    # 3,500 on one, in attention_rows, mlp and layer_norm alike; with one
    # allocation, 6 and 1,258 (tests/attention_timing.py --requests).
    per_thread, n_vt = min(ATTN_ROW_BLOCK, m) * (n + d), b * (dv + 1) * n
    work = np.empty(n_vt + threads * per_thread, dtype=dtype)
    vt, bufs = work[:n_vt].reshape(b, dv + 1, n), work[n_vt:].reshape(threads, per_thread)
    # one product with the ones row gives each query's sum p v and sum p
    vt[:, :dv] = _t(v3)
    vt[:, dv] = 1
    out = np.empty((q.shape[0], dv), dtype=dtype)
    # scores in base 2: exp2(log2(e) s) = exp(s)
    factor = scale * _LOG2E
    # shared by both threads: each next() claims one block, atomically under the GIL
    blocks = iter(range(n_blocks))
    if threads == 1:
        _attention_blocks(q.data, factor, k3, vt, shift, out, blocks, bufs[0])
    else:
        # leaving the block joins the helper, so nothing returns or raises
        # while it may still write `out`
        with ThreadPoolExecutor(1, thread_name_prefix="bisource-attn") as pool:
            helper = pool.submit(_attention_blocks, q.data, factor, k3, vt, shift, out, blocks, bufs[1])
            _attention_blocks(q.data, factor, k3, vt, shift, out, blocks, bufs[0])
            helper.result()
    return _out(out, None)


def _attention_shifts(q3: np.ndarray, k3: np.ndarray, v3: np.ndarray, scale: float) -> list[bool]:
    """Which of b samples' scores untaped attention shifts by the row max.

    A sample's scores obey |s_ij| <= bound = |scale| max_i |q_i| max_j |k_j|.
    At bound <= ATTN_SHIFT_LIMIT every exp(s_ij) lies within exp(+-bound), so
    exp of the raw scores neither overflows nor underflows, and no row sum
    (at most N exp(bound)) does; the value product, at most
    N exp(bound) max|v|, must also fit.  A NaN or Inf in q, k or v fails the
    comparisons, so that sample is shifted and the row check reports it.
    """
    # einsum warns of no overflow; a square past the dtype's range is inf
    q2 = np.einsum("bmd,bmd->bm", q3, q3).max(axis=1, initial=0).tolist()
    k2 = np.einsum("bnd,bnd->bn", k3, k3).max(axis=1, initial=0).tolist()
    vmax = np.abs(v3).max(axis=(1, 2), initial=0).tolist()
    n, room = k3.shape[1], float(np.finfo(np.result_type(q3, k3, v3)).max) / 4
    shifts = []
    for a, c, vm in zip(q2, k2, vmax):
        bound = abs(scale) * math.sqrt(a * c)
        shifts.append(not (bound <= ATTN_SHIFT_LIMIT and n * math.exp(bound) * vm <= room))
    return shifts


def _attention_blocks(q: np.ndarray, factor: float, k3: np.ndarray, vt: np.ndarray,
                      shift: list[bool], out: np.ndarray, blocks: Iterator[int],
                      buf: np.ndarray) -> None:
    """Fill the blocks of ``out`` that this thread takes from ``blocks`` (numpy only).

    ``k3`` [b, N, d] and ``vt`` [b, dv + 1, N] hold each sample's keys, and
    its values transposed with a ones row; ``shift`` says which samples'
    scores are shifted (``_attention_shifts``).  ``q`` and ``out`` hold the
    samples' query and output rows one after the other, and block i covers
    rows of sample i // (blocks per sample).  A block's scores are
    ``factor`` = scale log2(e) times its queries' products with the keys,
    key-major, [N, rows] in ``buf``, which also holds the scaled queries.
    """
    n, d = k3.shape[1:]
    m = q.shape[0] // k3.shape[0]
    per_sample = -(-m // ATTN_ROW_BLOCK)
    dv = out.shape[1]
    log2_n = math.log2(max(n, 1))
    rows = min(ATTN_ROW_BLOCK, m)
    scores, queries = buf[: n * rows], buf[n * rows :]
    pv = np.empty((dv + 1) * rows, dtype=out.dtype)
    # a NaN or Inf score is reported by the row check below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for i in blocks:
            sample, block = divmod(i, per_sample)
            start = sample * m + block * ATTN_ROW_BLOCK
            r = min(ATTN_ROW_BLOCK, m - block * ATTN_ROW_BLOCK)
            qb = queries[: r * d].reshape(r, d)
            np.multiply(q[start : start + r], factor, out=qb)
            # key-major: the N keys are the long side of both BLAS products
            z = scores[: n * r].reshape(n, r)
            np.matmul(k3[sample], qb.T, out=z)
            if shift[sample]:
                # each query's largest score becomes 2^-log2(N) = 1/N and none is
                # above it, so sum p v stays within max|v|, as the taped path's does
                z -= z.max(axis=0) + log2_n
            np.exp2(z, out=z)
            o = pv[: (dv + 1) * r].reshape(dv + 1, r)
            np.matmul(vt[sample], z, out=o)
            total = o[dv]
            # no probability is negative, so a query's are all finite exactly
            # when their sum, the product with the ones row, is
            if not np.isfinite(total).all():
                for _ in blocks:  # take the rest, so that the other thread stops too
                    pass
                raise _non_finite("attention_rows", out)
            np.divide(o[:dv], total, out=out[start : start + r].T)


def _cosine(q: Tensor, k: Tensor, b: int, op: str):
    """Cosine similarity [b, M, N] of q's rows against k's for each of b
    samples, norms clamped below at NORM_EPS; back adds q's and k's
    gradients itself and returns nothing.  No back without a Tape."""
    q3, k3 = _groups(q, b, op), _groups(k, b, op)
    if q.shape[1] != k.shape[1]:
        raise ShapeError(f"{op}: {q.shape} vs {k.shape}")
    nq = np.maximum(np.linalg.norm(q.data, axis=1, keepdims=True), NORM_EPS)
    nk = np.maximum(np.linalg.norm(k.data, axis=1, keepdims=True), NORM_EPS)
    qh = (q.data / nq).reshape(q3.shape)
    kh = (k.data / nk).reshape(k3.shape)
    out = np.matmul(qh, _t(kh))
    if _active_tape.get() is None:
        return out, None
    sq, sk, d = _slot(q), _slot(k), q.shape[1]

    def back(g: np.ndarray) -> None:
        # d out[i,j]/d q_i = (kh_j - out[i,j] * qh_i) / nq_i; the projection
        # term vanishes where the clamp is active (denominator constant there)
        g3 = g.reshape(out.shape)
        go = g3 * out
        row_dot = go.sum(axis=2, keepdims=True)
        col_dot = go.sum(axis=1)[:, :, None]
        gq = np.matmul(g3, kh) - (nq > NORM_EPS).reshape(row_dot.shape) * row_dot * qh
        gk = np.matmul(_t(g3), qh) - (nk > NORM_EPS).reshape(col_dot.shape) * col_dot * kh
        _accum_own(sq, gq.reshape(-1, d) / nq)
        _accum_own(sk, gk.reshape(-1, d) / nk)

    return out, back


def cosine_rows(q: Tensor, k: Tensor, b: int = 1) -> Tensor:
    """Pairwise cosine similarity of q rows against k rows, norms clamped
    below, for each of b samples: q [b*M, d], k [b*N, d] -> [b*M, N]."""
    out, back = _cosine(q, k, b, "cosine_rows")
    return _out(out.reshape(q.shape[0], out.shape[2]), back)


def cosine_attention(q: Tensor, k: Tensor, v: Tensor, b: int = 1) -> Tensor:
    """batch_matmul(softmax_rows(cosine_rows(q, k, b)), v, b) for each of b
    samples: q [b*M, d], k [b*N, d], v [b*N, dv] -> [b*M, dv].

    With a Tape active this is one record with the chain's bits: the value
    product's, the softmax's and the cosine's backward in the chain's order.
    Without one, q's and k's rows are normalised with cosine_rows' clamp, so
    each sample's scores lie in [-1, 1] and their exp needs no shift; the
    exps' product with the sample's values gives each row's sum p v, their
    product with a ones vector, one matrix-vector product a sample, each
    row's sum p, and the output is their quotient.  Only in
    a sample where that quotient is not finite, as when sum p v overflows,
    are the probabilities first divided by their row sums and the product
    taken again; a NaN or Inf in q, k or v still raises.  The output is not
    the chain's bit for bit: it lies within 4 epsilons of the sample's
    max|v| of a float64 oracle (in float32, measured 0.96 over 600 random
    shapes with b from 1 to 3; the chain's 1.00).
    """
    v3 = _groups(v, b, "cosine_attention")
    if k.shape[0] != v.shape[0]:
        raise ShapeError(f"cosine_attention: q {q.shape}, k {k.shape}, v {v.shape}, b {b}")
    dv = v.shape[1]
    # a NaN or Inf is reported by _out, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        s, back_s = _cosine(q, k, b, "cosine_attention")
        if back_s is not None:
            out, back = _attend(s, _slot(v), v3)
            return _out(out.reshape(q.shape[0], dv), lambda g: back_s(back(g)))
        np.exp(s, out=s)
        out = np.matmul(s, v3)
        # the row sums as one BLAS matrix-vector product a sample
        total = np.matmul(s, np.ones(s.shape[2], dtype=s.dtype))[:, :, None]
        out /= total
        if not all_finite(out):  # sum p v overflowed, or an input is not finite
            redo = ~np.isfinite(out).all(axis=(1, 2))  # samples alone, for their bits
            s[redo] /= total[redo]
            out[redo] = np.matmul(s[redo], v3[redo])
    return _out(out.reshape(q.shape[0], dv), None)


def _layer_norm(x: np.ndarray, gain: Tensor, bias: Tensor, b: int, op: str):
    """layer_norm's kernel, in an inference call ``_layer_norm_einsum`` with
    no backward; back adds gain's and bias's per-sample gradients.  An Inf
    gives NaN, so callers hold np.errstate(invalid="ignore") and let _out
    report it.  Returns (output, back, again) as ``_gelu`` does: ``again()``
    rebuilds the output from the normalised rows back keeps."""
    c = x.shape[-1]
    if gain.shape != (c,) or bias.shape != (c,) or x.shape[0] % b:
        raise ShapeError(f"{op}: gain/bias must be ({c},), rows {b} samples")
    if _inference(x):
        return _layer_norm_einsum(x, gain.data, bias.data), None, None
    # the steps of np.mean and np.var, sharing the centred values: same bits
    d = x - np.add.reduce(x, axis=-1, keepdims=True) / c
    var = np.add.reduce(d * d, axis=-1, keepdims=True) / c
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = d * inv
    gd, bd, dtype = gain.data, bias.data, x.dtype

    def again() -> np.ndarray:
        return (xhat * gd + bd).astype(dtype, copy=False)

    if _active_tape.get() is None:
        return again(), None, None
    sg, sb = _slot(gain), _slot(bias)

    def back(g: np.ndarray) -> np.ndarray:
        per_g = g.reshape(b, -1, c)
        per_x = xhat.reshape(b, -1, c)
        _accum_per_sample(sg, (per_g * per_x).sum(axis=1))
        _accum_per_sample(sb, per_g.sum(axis=1))
        gx = g * gd
        m1 = gx.mean(axis=-1, keepdims=True)
        m2 = (gx * xhat).mean(axis=-1, keepdims=True)
        return ((gx - m1 - xhat * m2) * inv).astype(dtype, copy=False)

    return again(), back, again


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
    with np.errstate(invalid="ignore"):  # an Inf gives NaN, which _out reports
        y, back, _ = _layer_norm(x.data, gain, bias, b, "layer_norm")
    return _out(y, _into(back), x)


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


def mlp(x: Tensor, ln_g: Tensor, ln_b: Tensor, w1: Tensor, b1: Tensor, w2: Tensor,
        b2: Tensor, b: int = 1) -> Tensor:
    """linear(gelu(linear(layer_norm(x, ln_g, ln_b, b), w1, b1, b)), w2, b2, b)
    for b samples stacked in x's rows.

    Runs the kernels of that chain, each in the form its op would take
    (``_inference``), and checks only its output: the chain's bits, with
    any NaN or Inf reported as this op's.  Under a Tape it is one record,
    whose closure runs the kernels' backs last first.  It keeps the
    normalised rows, the GELU's input and its CDF; the two linears' inputs,
    the layer norm's and the GELU's outputs, are rebuilt in the backward by
    the operations that made them, so they have the same bits.
    """
    with np.errstate(invalid="ignore"):  # an Inf gives NaN, which _out reports
        h, back_ln, norm_again = _layer_norm(x.data, ln_g, ln_b, b, "mlp")
        h, back_1 = _linear(h, w1, b1, b, "mlp", norm_again)
        h, back_gelu, gelu_again = _gelu(h)
        y, back_2 = _linear(h, w2, b2, b, "mlp", gelu_again)
    if back_2 is None:  # no Tape
        return _out(y, None)
    return _out(y, _into(lambda g: back_ln(back_1(back_gelu(back_2(g))))), x)


def _box_sum(a: np.ndarray, window: int) -> np.ndarray:
    """Sum over a window x window neighborhood, clipped at the borders, of
    each [H, W, C] map of ``a`` ([H, W, C] or [B, H, W, C]), for taped
    float32 calls of avg_pool_2d.

    ``s`` is the integral image of ``a`` zero-padded by r + 1 rows/columns
    before and r after, so s[k] is the sum of a[:k - r] with k - r clipped to
    [0, h]: pixel i's window sum is s[i + 2r + 1] - s[i] on each axis.
    """
    h, w = a.shape[-3], a.shape[-2]
    r = window // 2
    s = np.zeros(a.shape[:-3] + (h + 2 * r + 1, w + 2 * r + 1, a.shape[-1]), dtype=np.float64)
    s[..., r + 1 : r + 1 + h, r + 1 : r + 1 + w, :] = a
    # np.cumsum's additions in its order, a row and then a column at a time
    # (np.cumsum along these axes runs one lane at a time); the r + 1 leading
    # rows and columns are zeros, as their sums are
    for i in range(r + 1, s.shape[-3]):
        s[..., i, :, :] += s[..., i - 1, :, :]
    for j in range(r + 1, s.shape[-2]):
        s[..., j, :] += s[..., j - 1, :]
    lo_i, hi_i = slice(0, h), slice(2 * r + 1, 2 * r + 1 + h)
    lo_j, hi_j = slice(0, w), slice(2 * r + 1, 2 * r + 1 + w)
    out = (s[..., hi_i, hi_j, :] - s[..., lo_i, hi_j, :]
           - s[..., hi_i, lo_j, :] + s[..., lo_i, lo_j, :])
    return out.astype(a.dtype)


def _box_sum_shifted(a: np.ndarray, window: int) -> np.ndarray:
    """_box_sum in a's own dtype: each axis's window sums as sums of shifted
    slices, the rows' first, clipped at the borders.  Each pixel adds its
    window's values, and no others, in the same order whatever the batch
    size."""
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

    Window sums add shifted slices in x's dtype (``_box_sum_shifted``),
    forward and backward, so a sum reads its own window's values only: at
    most window^2 - 1 additions and one division, each rounding by half an
    epsilon, so the output is within window^2 epsilons of the window's mean
    |x| (measured 1.25 for an inference call: float32, no Tape).  A taped
    float32 call instead takes its sums from a float64 integral image
    (``_box_sum``), whose rounding perfbench's recorded training losses
    follow.  Its window sums are differences of sums over the map, each off
    by up to about 1e-16 of the map's sum of |x|, so a small window beside
    large values elsewhere loses its low bits or all of them: 1 and 2 beside
    a 1e30 sum to 0.
    """
    if window % 2 == 0:
        raise ShapeError("avg_pool_2d: window must be odd")
    if x.data.ndim not in (3, 4):
        raise ShapeError("avg_pool_2d: expects [H, W, C] or [B, H, W, C]")
    if window == 1:
        def fn_id(g: np.ndarray, sx: _Slot) -> None:
            _accum(sx, g)
        return _out(x.data.copy(), fn_id, x)
    h, w = x.shape[-3:-1]
    counts = _valid_counts(h, w, window, x.data.dtype)[:, :, None]
    taped32 = x.data.dtype == np.float32 and _active_tape.get() is not None
    box_sum = _box_sum if taped32 else _box_sum_shifted
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN or Inf is reported by _out
        y = box_sum(x.data, window) / counts

    def fn(g: np.ndarray, sx: _Slot) -> None:
        # adjoint of count-normalized box filtering is box-summing g / counts
        _accum_own(sx, box_sum(g / counts, window))

    return _out(y, fn, x)


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
    """[H, W, C] -> [2H, 2W, C], or each sample of [B, H, W, C].

    Each output is a convex combination of at most four inputs.  An
    inference call (``_inference``) takes two BLAS products with the
    interpolation matrices, first over H, then over W, instead of two
    einsums: within 2 float32 epsilons of max|x| of the float64 form
    (measured 0.7).  Taped and float64 calls keep the einsums' bits.
    """
    if x.data.ndim not in (3, 4):
        raise ShapeError("bilinear_upsample_2x: expects [H, W, C] or [B, H, W, C]")
    h, w, c = x.shape[-3:]
    uh = _interp_matrix(h, x.data.dtype)
    uw = _interp_matrix(w, x.data.dtype)
    if _inference(x.data):
        y = np.matmul(uh, x.data.reshape(-1, h, w * c))
        if c == 1:  # one product a sample, not one a row
            y = np.matmul(y, uw.T)
        else:
            y = np.matmul(uw, y.reshape(-1, w, c))
        return _out(y.reshape(x.shape[:-3] + (2 * h, 2 * w, c)), None)
    y = np.einsum("ph,...hwc->...pwc", uh, x.data)
    y = np.einsum("qw,...pwc->...pqc", uw, y)

    dtype = x.data.dtype

    def fn(g: np.ndarray, sx: _Slot) -> None:
        gx = np.einsum("qw,...pqc->...pwc", uw, g)
        gx = np.einsum("ph,...pwc->...hwc", uh, gx)
        _accum_own(sx, gx.astype(dtype, copy=False))

    return _out(np.ascontiguousarray(y), fn, x)


def space_to_depth(x: Tensor, factor: int) -> Tensor:
    """[H, W, C] -> [H/f, W/f, f*f*C], stacking each f x f patch channelwise;
    or the same for each sample of [B, H, W, C]."""
    if x.data.ndim not in (3, 4):
        raise ShapeError("space_to_depth: expects [H, W, C] or [B, H, W, C]")
    h, w, c = x.shape[-3:]
    if h % factor or w % factor:
        raise ShapeError(f"space_to_depth: {h}x{w} not divisible by {factor}")
    hh, ww = h // factor, w // factor
    lead, shape = x.shape[:-3], x.shape

    def fn(g: np.ndarray, sx: _Slot) -> None:
        ga = (
            g.reshape(-1, hh, ww, factor, factor, c)
            .transpose(0, 1, 3, 2, 4, 5)
            .reshape(shape)
        )
        _accum(sx, ga)

    out = (
        x.data.reshape(-1, hh, factor, ww, factor, c)
        .transpose(0, 1, 3, 2, 4, 5)
        .reshape(lead + (hh, ww, factor * factor * c))
    )
    return _out(out, fn, x)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """The parts' rows, one part after another; one part is returned as it
    is, with no copy and no record."""
    if not parts:
        raise ShapeError("concat_rows: empty")
    if len(parts) == 1:
        return parts[0]
    sizes = [p.shape[0] for p in parts]

    def fn(g: np.ndarray, *slots: _Slot) -> None:
        # last part first, as records made one after another would run, so
        # that a tensor given more than once adds its gradients in that order
        ofs = sum(sizes)
        for s, n in zip(reversed(slots), reversed(sizes)):
            ofs -= n
            _accum(s, g[ofs : ofs + n])

    return _out(np.concatenate([p.data for p in parts], axis=0), fn, *parts)


def concat_channels(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise ShapeError("concat_channels: empty")
    sizes = [p.shape[-1] for p in parts]

    def fn(g: np.ndarray, *slots: _Slot) -> None:
        ofs = 0
        for s, n in zip(slots, sizes):
            _accum(s, g[..., ofs : ofs + n])
            ofs += n

    return _out(np.concatenate([p.data for p in parts], axis=-1), fn, *parts)


def slice_channels(x: Tensor, start: int, stop: int) -> Tensor:
    shape, dtype = x.shape, x.data.dtype

    def fn(g: np.ndarray, sx: _Slot) -> None:
        full = np.zeros(shape, dtype)
        full[..., start:stop] = g
        _accum_own(sx, full)

    return _out(np.ascontiguousarray(x.data[..., start:stop]), fn, x)


def slice_rows(x: Tensor, start: int, stop: int, b: int = 1) -> Tensor:
    """Rows start:stop of each of b equal groups of x's rows, stacked."""
    if x.shape[0] % b:
        raise ShapeError(f"slice_rows: {x.shape[0]} rows are not {b} groups")
    groups = x.data.reshape((b, -1) + x.shape[1:])
    shape, dtype = x.shape, x.data.dtype

    def fn(g: np.ndarray, sx: _Slot) -> None:
        full = np.zeros((b, shape[0] // b) + shape[1:], dtype)
        full[:, start:stop] = g.reshape((b, -1) + shape[1:])
        _accum_own(sx, full.reshape(shape))

    return _out(np.array(groups[:, start:stop]).reshape((-1,) + shape[1:]), fn, x)


def reshape(x: Tensor, shape: Iterable[int]) -> Tensor:
    shape, x_shape = tuple(shape), x.shape

    def fn(g: np.ndarray, sx: _Slot) -> None:
        _accum(sx, g.reshape(x_shape))

    return _out(x.data.reshape(shape), fn, x)


def sum_all(x: Tensor, b: int = 1) -> Tensor:
    """[b]: the sum of each of b equal parts of x (of all of x when b = 1)."""
    if x.data.size % b:
        raise ShapeError(f"sum_all: {x.data.size} elements are not {b} parts")
    parts = x.data.reshape(b, -1)
    parts_shape, shape = parts.shape, x.shape

    def fn(g: np.ndarray, sx: _Slot) -> None:
        _accum(sx, np.broadcast_to(g[:, None], parts_shape).reshape(shape))

    return _out(parts.sum(axis=1), fn, x)


def mean_all(x: Tensor) -> Tensor:
    n, shape, dtype = x.data.size, x.shape, x.data.dtype

    def fn(g: np.ndarray, sx: _Slot) -> None:
        _accum_own(sx, np.full(shape, g.reshape(-1)[0] / n, dtype))

    return _out(np.asarray([x.data.mean()], dtype=dtype), fn, x)


def abs_all(x: Tensor) -> Tensor:
    xd = x.data

    def fn(g: np.ndarray, sx: _Slot) -> None:
        _accum_own(sx, g * np.sign(xd))

    return _out(np.abs(xd), fn, x)


def bce_with_logits(logits: Tensor, target: Tensor) -> Tensor:
    """Mean binary cross-entropy on raw logits (log-sum-exp stabilized)."""
    _same_shape(logits, target, "bce_with_logits")
    z = logits.data
    t = target.data
    # log(1 + e^z) - t*z computed stably
    loss = np.maximum(z, 0) - z * t + np.log1p(np.exp(-np.abs(z)))
    n = z.size

    def fn(g: np.ndarray, sz: _Slot) -> None:
        with np.errstate(over="ignore"):  # exp(-z) is inf below about -88: sigmoid 0
            sig = 1.0 / (1.0 + np.exp(-z))
        _accum_own(sz, (g.reshape(-1)[0] / n) * (sig - t))

    return _out(np.asarray([loss.mean()], dtype=z.dtype), fn, logits)


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

    def fn(g: np.ndarray, sz: _Slot) -> None:
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(n), labels] -= 1.0
        _accum_own(sz, (g.reshape(-1)[0] / n) * p)

    return _out(np.asarray([loss], dtype=z.dtype), fn, logits)
