"""Minimal dense-tensor engine with tape-based reverse-mode differentiation.

Tensors are immutable numpy-backed values (float32 or float64, rank 1-4,
row-major).  Every operation validates its output for NaN/Inf and, when a
Tape is active in the calling thread, records a backward closure.  The
validation probes the output's sum of squares, which is finite only if every
element is, and scans the elements only when the probe is not finite (a NaN
or Inf, or finite values whose squares overflow), so it is exact.

Live-element accounting for peak-memory measurement is kept in a
process-global ``alloc_stats``: a Tensor adds its size when created and
subtracts it in ``__del__``.
"""

from __future__ import annotations

import math
import sys
from contextvars import ContextVar
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf

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
# Query rows per score block in untaped attention_rows.  A 4096-token call at
# d = 16 (float32, one BLAS thread) took 66 ms at 128-256 rows, 76-82 ms at
# 64, 512 and 1024, 129 ms in one block and 190 ms as the five-op chain.
ATTN_ROW_BLOCK = 256


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
    """Accumulate d(loss)/d(input) into .grad of every tensor on the tape."""
    if loss.data.size != 1:
        raise ShapeError(f"loss must be scalar, got shape {loss.shape}")
    seeded: list[Tensor] = []
    loss.grad = np.ones_like(loss.data)
    for out, fn in reversed(tape._records):
        if out.grad is None:
            continue
        fn(out.grad)
        seeded.append(out)
    # intermediate grads are transient; parameters keep theirs (zeroed elsewhere)
    for t in seeded:
        t.grad = None
    tape.clear()


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = g.astype(t.data.dtype, copy=True)
    else:
        t.grad += g


def _non_finite(op: str, data: np.ndarray) -> NumericalError:
    return NumericalError(
        f"{op}: produced non-finite values (output shape {data.shape}, dtype {data.dtype})"
    )


def _out(data: np.ndarray, fn: Callable[[np.ndarray], None] | None) -> Tensor:
    # np.vdot rather than np.dot: it ignores np.errstate, so a probe that
    # overflows or underflows on finite data neither warns nor raises
    if not math.isfinite(np.vdot(data, data)) and not np.isfinite(data).all():
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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    c = a.data @ b.data

    def fn(g: np.ndarray) -> None:
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _out(c, fn)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError("transpose: rank-2 only")

    def fn(g: np.ndarray) -> None:
        _accum(a, g.T)

    return _out(a.data.T.copy(), fn)


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


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    if b.data.ndim != 1 or x.shape[-1] != b.shape[0]:
        raise ShapeError(f"add_bias: {x.shape} + bias {b.shape}")

    def fn(g: np.ndarray) -> None:
        _accum(x, g)
        _accum(b, g.reshape(-1, b.shape[0]).sum(axis=0))

    return _out(x.data + b.data, fn)


def scale_channels(x: Tensor, g_vec: Tensor) -> Tensor:
    """x * g_vec with g_vec broadcast over all leading axes (per-channel gate)."""
    if g_vec.data.ndim != 1 or x.shape[-1] != g_vec.shape[0]:
        raise ShapeError(f"scale_channels: {x.shape} * {g_vec.shape}")

    def fn(g: np.ndarray) -> None:
        _accum(x, g * g_vec.data)
        _accum(g_vec, (g * x.data).reshape(-1, g_vec.shape[0]).sum(axis=0))

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


def gelu(x: Tensor) -> Tensor:
    # exact erf form
    cdf = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))

    def fn(g: np.ndarray) -> None:
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT2PI
        _accum(x, (g * (cdf + x.data * pdf)).astype(x.data.dtype, copy=False))

    return _out((x.data * cdf).astype(x.data.dtype, copy=False), fn)


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


def attention_rows(q: Tensor, k: Tensor, v: Tensor, scale: float) -> Tensor:
    """softmax_rows(scale * q k^T) v for q [M, d], k [N, d], v [N, dv].

    With a Tape active this is the chain matmul, transpose, mul_scalar,
    softmax_rows, matmul, so outputs, gradients and tape records are those of
    the five ops.  Without one, ``scale`` is folded into q and the scores are
    built ATTN_ROW_BLOCK query rows at a time.  Every block sees every key, so
    each row's softmax is exact, and no more than ATTN_ROW_BLOCK x N scores
    are held at once.
    """
    if (q.data.ndim != 2 or k.data.ndim != 2 or v.data.ndim != 2
            or q.shape[1] != k.shape[1] or k.shape[0] != v.shape[0]):
        raise ShapeError(f"attention_rows: q {q.shape}, k {k.shape}, v {v.shape}")
    if _active_tape.get() is not None:
        return matmul(softmax_rows(mul_scalar(matmul(q, transpose(k)), scale)), v)
    qs = q.data * float(scale)
    kt = k.data.T
    out = np.empty((q.shape[0], v.shape[1]), dtype=np.result_type(qs, kt, v.data))
    for start in range(0, q.shape[0], ATTN_ROW_BLOCK):
        stop = start + ATTN_ROW_BLOCK
        z = qs[start:stop] @ kt
        z -= z.max(axis=1, keepdims=True)
        np.exp(z, out=z)
        total = z.sum(axis=1, keepdims=True)
        # after the max shift each row holds exp(0) = 1 and no entry above
        # it, so a row's probabilities are finite exactly when its sum is
        if not np.isfinite(total).all():
            raise _non_finite("attention_rows", out)
        z /= total
        np.matmul(z, v.data, out=out[start:stop])
    return _out(out, None)


def cosine_rows(q: Tensor, k: Tensor) -> Tensor:
    """Pairwise cosine similarity of q rows against k rows, norms clamped below."""
    if q.data.ndim != 2 or k.data.ndim != 2 or q.shape[1] != k.shape[1]:
        raise ShapeError(f"cosine_rows: {q.shape} vs {k.shape}")
    nq = np.linalg.norm(q.data, axis=1, keepdims=True)
    nk = np.linalg.norm(k.data, axis=1, keepdims=True)
    mq = nq > NORM_EPS
    mk = nk > NORM_EPS
    nq = np.maximum(nq, NORM_EPS)
    nk = np.maximum(nk, NORM_EPS)
    qh = q.data / nq
    kh = k.data / nk
    out = qh @ kh.T

    def fn(g: np.ndarray) -> None:
        # d out[i,j]/d q_i = (kh_j - out[i,j] * qh_i) / nq_i; the projection
        # term vanishes where the clamp is active (denominator constant there)
        gq = (g @ kh - mq * (g * out).sum(axis=1, keepdims=True) * qh) / nq
        gk = (g.T @ qh - mk * (g * out).sum(axis=0)[:, None] * kh) / nk
        _accum(q, gq)
        _accum(k, gk)

    return _out(out, fn)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row zero mean / unit variance over the last axis, then affine."""
    c = x.shape[-1]
    if gain.shape != (c,) or bias.shape != (c,):
        raise ShapeError(f"layer_norm: gain/bias must be ({c},)")
    # the steps of np.mean and np.var, sharing the centred values: same bits
    d = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / c
    var = np.add.reduce(d * d, axis=-1, keepdims=True) / c
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = d * inv

    def fn(g: np.ndarray) -> None:
        flat_g = g.reshape(-1, c)
        flat_x = xhat.reshape(-1, c)
        _accum(gain, (flat_g * flat_x).sum(axis=0))
        _accum(bias, flat_g.sum(axis=0))
        gx = g * gain.data
        m1 = gx.mean(axis=-1, keepdims=True)
        m2 = (gx * xhat).mean(axis=-1, keepdims=True)
        _accum(x, ((gx - m1 - xhat * m2) * inv).astype(x.data.dtype, copy=False))

    return _out((xhat * gain.data + bias.data).astype(x.data.dtype, copy=False), fn)


def _box_sum(a: np.ndarray, window: int) -> np.ndarray:
    """Sum over a window x window neighborhood, clipped at the borders (HWC).

    ``s`` is the integral image of ``a`` zero-padded by r + 1 rows/columns
    before and r after, so s[k] is the sum of a[:k - r] with k - r clipped to
    [0, h]: pixel i's window sum is s[i + 2r + 1] - s[i] on each axis.
    """
    h, w = a.shape[0], a.shape[1]
    r = window // 2
    s = np.zeros((h + 2 * r + 1, w + 2 * r + 1) + a.shape[2:], dtype=np.float64)
    s[r + 1 : r + 1 + h, r + 1 : r + 1 + w] = a
    np.cumsum(s, axis=0, out=s)
    np.cumsum(s, axis=1, out=s)
    lo_i, hi_i = slice(0, h), slice(2 * r + 1, 2 * r + 1 + h)
    lo_j, hi_j = slice(0, w), slice(2 * r + 1, 2 * r + 1 + w)
    out = s[hi_i, hi_j] - s[lo_i, hi_j] - s[hi_i, lo_j] + s[lo_i, lo_j]
    return out.astype(a.dtype)


_counts_cache: dict[tuple[int, int, int, str], np.ndarray] = {}


def _valid_counts(h: int, w: int, window: int, dtype) -> np.ndarray:
    """Read-only [h, w] count of the in-bounds pixels of each window."""
    key = (h, w, window, np.dtype(dtype).name)
    counts = _counts_cache.get(key)
    if counts is None:
        r = window // 2
        i = np.arange(h)
        j = np.arange(w)
        ci = np.clip(i + r + 1, 0, h) - np.clip(i - r, 0, h)
        cj = np.clip(j + r + 1, 0, w) - np.clip(j - r, 0, w)
        counts = (ci[:, None] * cj[None, :]).astype(dtype)
        counts.flags.writeable = False
        _counts_cache[key] = counts
    return counts


def avg_pool_2d(x: Tensor, window: int) -> Tensor:
    """Shape-preserving average pooling (stride 1) with count-of-valid edges."""
    if window % 2 == 0:
        raise ShapeError("avg_pool_2d: window must be odd")
    if x.data.ndim != 3:
        raise ShapeError("avg_pool_2d: expects [H, W, C]")
    if window == 1:
        def fn_id(g: np.ndarray) -> None:
            _accum(x, g)
        return _out(x.data.copy(), fn_id)
    h, w, _ = x.shape
    counts = _valid_counts(h, w, window, x.data.dtype)[:, :, None]
    y = _box_sum(x.data, window) / counts

    def fn(g: np.ndarray) -> None:
        # adjoint of count-normalized box filtering is box-summing g / counts
        _accum(x, _box_sum((g / counts).astype(x.data.dtype), window))

    return _out(y, fn)


_interp_cache: dict[tuple[int, str], np.ndarray] = {}


def _interp_matrix(h: int, dtype) -> np.ndarray:
    """2h x h bilinear interpolation weights (align_corners=False)."""
    key = (h, np.dtype(dtype).name)
    m = _interp_cache.get(key)
    if m is None:
        m = np.zeros((2 * h, h), dtype=dtype)
        for i in range(2 * h):
            src = min(max((i + 0.5) / 2.0 - 0.5, 0.0), h - 1.0)
            i0 = int(np.floor(src))
            f = src - i0
            m[i, i0] += 1.0 - f
            if i0 + 1 < h:
                m[i, i0 + 1] += f
        _interp_cache[key] = m
    return m


def bilinear_upsample_2x(x: Tensor) -> Tensor:
    if x.data.ndim != 3:
        raise ShapeError("bilinear_upsample_2x: expects [H, W, C]")
    h, w, c = x.shape
    uh = _interp_matrix(h, x.data.dtype)
    uw = _interp_matrix(w, x.data.dtype)
    y = np.einsum("ph,hwc->pwc", uh, x.data)
    y = np.einsum("qw,pwc->pqc", uw, y)

    def fn(g: np.ndarray) -> None:
        gx = np.einsum("qw,pqc->pwc", uw, g)
        gx = np.einsum("ph,pwc->hwc", uh, gx)
        _accum(x, gx.astype(x.data.dtype))

    return _out(np.ascontiguousarray(y), fn)


def space_to_depth(x: Tensor, factor: int) -> Tensor:
    """[H, W, C] -> [H/f, W/f, f*f*C], stacking each f x f patch channelwise."""
    if x.data.ndim != 3:
        raise ShapeError("space_to_depth: expects [H, W, C]")
    h, w, c = x.shape
    if h % factor or w % factor:
        raise ShapeError(f"space_to_depth: {h}x{w} not divisible by {factor}")
    hh, ww = h // factor, w // factor

    def _fwd(a: np.ndarray) -> np.ndarray:
        return (
            a.reshape(hh, factor, ww, factor, c)
            .transpose(0, 2, 1, 3, 4)
            .reshape(hh, ww, factor * factor * c)
        )

    def fn(g: np.ndarray) -> None:
        ga = (
            g.reshape(hh, ww, factor, factor, c)
            .transpose(0, 2, 1, 3, 4)
            .reshape(h, w, c)
        )
        _accum(x, np.ascontiguousarray(ga))

    return _out(np.ascontiguousarray(_fwd(x.data)), fn)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise ShapeError("concat_rows: empty")
    sizes = [p.shape[0] for p in parts]

    def fn(g: np.ndarray) -> None:
        ofs = 0
        for p, n in zip(parts, sizes):
            _accum(p, g[ofs : ofs + n])
            ofs += n

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


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    def fn(g: np.ndarray) -> None:
        full = np.zeros_like(x.data)
        full[start:stop] = g
        _accum(x, full)

    return _out(x.data[start:stop].copy(), fn)


def reshape(x: Tensor, shape: Iterable[int]) -> Tensor:
    shape = tuple(shape)

    def fn(g: np.ndarray) -> None:
        _accum(x, g.reshape(x.shape))

    return _out(x.data.reshape(shape), fn)


def sum_all(x: Tensor) -> Tensor:
    def fn(g: np.ndarray) -> None:
        _accum(x, np.full_like(x.data, g.reshape(-1)[0]))

    return _out(np.asarray([x.data.sum()], dtype=x.data.dtype), fn)


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
