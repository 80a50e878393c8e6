"""Tensor engine: forward examples, gradient checks, stability, file formats."""

import contextlib
import gc
import hashlib
import json
import math
import multiprocessing
import re
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bisource import io
from bisource import tensor as T
from bisource.gradcheck import grad_check
from bisource.io import load_cpt1, load_tensor_dir, read_pgm, save_cpt1, save_tensor_dir, write_pgm
from bisource.tensor import (
    NumericalError,
    Parameter,
    Rng,
    ShapeError,
    Tape,
    Tensor,
    alloc_stats,
    backward,
    tensor,
)

import oracles
from test_model import _in_threads


F64 = np.float64


def p64(rng: Rng, shape, name: str, offset: float = 0.0) -> Parameter:
    data = rng.normal(shape, std=1.0, dtype=F64)
    if offset:
        data = data + offset * np.sign(data) + np.where(data == 0, offset, 0.0)
    return Parameter(Tensor(data), name)


# ---------------------------------------------------------------------------
# forward examples
# ---------------------------------------------------------------------------


def test_matmul_identity():
    x = tensor(np.arange(9, dtype=np.float32).reshape(3, 3))
    eye = tensor(np.eye(3, dtype=np.float32))
    np.testing.assert_array_equal(T.matmul(eye, x).data, x.data)


def test_matmul_hand_case():
    a = tensor([[1, 2], [3, 4]])
    b = tensor([[1], [1]])
    np.testing.assert_array_equal(T.matmul(a, b).data, [[3], [7]])


def test_matmul_ones_row_sum():
    k = 7
    a = tensor(np.ones((1, k)))
    b = tensor(np.ones((k, 1)))
    assert T.matmul(a, b).data[0, 0] == k


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        T.matmul(tensor(np.ones((2, 3))), tensor(np.ones((2, 3))))


def test_softmax_uniform_row():
    out = T.softmax_rows(tensor([[2.0, 2.0, 2.0, 2.0]])).data
    np.testing.assert_allclose(out, 0.25)


def test_softmax_closed_form():
    out = T.softmax_rows(tensor([[0.0, np.log(3.0)]], dtype=F64)).data
    np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-12)


def test_softmax_rows_sum_to_one_with_huge_spread():
    rng = Rng(0)
    x = rng.normal((8, 16), std=1.0, dtype=F64)
    x[0, 0] = 3e4
    x[3, 5] = -3e4
    out = T.softmax_rows(Tensor(x)).data
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)
    assert (out >= 0).all()


def test_cosine_self_similarity_and_orthogonality():
    q = tensor([[1.0, 0.0], [0.0, 2.0]], dtype=F64)
    out = T.cosine_rows(q, q).data
    np.testing.assert_allclose(np.diag(out), 1.0, atol=1e-12)
    assert abs(out[0, 1]) < 1e-12


def test_cosine_hand_case():
    q = tensor([[1.0, 0.0]], dtype=F64)
    k = tensor([[1.0, 1.0]], dtype=F64)
    np.testing.assert_allclose(T.cosine_rows(q, k).data, 1.0 / np.sqrt(2.0))


def test_cosine_range_bounded():
    rng = Rng(3)
    for _ in range(20):
        out = T.cosine_rows(
            Tensor(rng.normal((6, 5), dtype=F64)), Tensor(rng.normal((7, 5), dtype=F64))
        ).data
        assert out.min() >= -1.0 - 1e-6 and out.max() <= 1.0 + 1e-6


def test_cosine_zero_norm_row_is_clamped_not_fatal():
    q = tensor([[0.0, 0.0]], dtype=F64)
    k = tensor([[1.0, 1.0]], dtype=F64)
    out = T.cosine_rows(q, k).data
    assert np.isfinite(out).all()


def test_layer_norm_constant_row_zeros():
    x = tensor([[5.0, 5.0, 5.0]], dtype=F64)
    g = tensor([1.0, 1.0, 1.0], dtype=F64)
    b = tensor([0.0, 0.0, 0.0], dtype=F64)
    np.testing.assert_allclose(T.layer_norm(x, g, b).data, 0.0, atol=1e-6)


def test_layer_norm_row_mean_zero_and_zero_gain():
    rng = Rng(1)
    x = Tensor(rng.normal((4, 8), dtype=F64))
    ones = tensor(np.ones(8), dtype=F64)
    zeros = tensor(np.zeros(8), dtype=F64)
    out = T.layer_norm(x, ones, zeros).data
    np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-5)
    bias = tensor(np.arange(8.0), dtype=F64)
    out2 = T.layer_norm(x, zeros, bias).data
    np.testing.assert_allclose(out2, np.broadcast_to(np.arange(8.0), (4, 8)))


def test_avg_pool_constant_map():
    x = tensor(np.full((5, 5, 2), 3.25))
    np.testing.assert_allclose(T.avg_pool_2d(x, 3).data, 3.25, rtol=1e-6)


def test_avg_pool_single_impulse_window3():
    x = np.zeros((5, 5, 1), dtype=F64)
    x[2, 2, 0] = 1.0
    out = T.avg_pool_2d(Tensor(x), 3).data
    np.testing.assert_allclose(out[1:4, 1:4, 0], 1.0 / 9.0)
    assert out[0, 0, 0] == 0.0


def test_avg_pool_window1_identity_and_even_window_error():
    x = Tensor(Rng(2).normal((4, 4, 3), dtype=F64))
    np.testing.assert_array_equal(T.avg_pool_2d(x, 1).data, x.data)
    with pytest.raises(ShapeError):
        T.avg_pool_2d(x, 4)


@pytest.mark.parametrize("window", [3, 5])
def test_avg_pool_matches_pixel_loop_oracle(window):
    rng = Rng(11 + window)
    x = rng.normal((6, 7, 3), dtype=F64)
    out = T.avg_pool_2d(Tensor(x), window).data
    np.testing.assert_allclose(out, oracles.avg_pool_loops(x, window), atol=1e-12)


BIT_GRIDS = [(1, 1, 1), (2, 2, 128), (3, 7, 2), (16, 16, 16), (64, 64, 16)]


def _assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _grid(shape, dtype) -> np.ndarray:
    x = Rng(int(np.prod(shape))).normal(shape, dtype=dtype)
    x.reshape(-1)[::7] = 0.0
    x.reshape(-1)[3::11] = -0.0
    return x


@pytest.mark.parametrize("dtype", [np.float32, F64])
@pytest.mark.parametrize("shape", BIT_GRIDS, ids=lambda s: "x".join(map(str, s)))
def test_box_sum_and_layer_norm_bits_match_their_references(shape, dtype):
    # float32 under a Tape, as training runs it; untaped float32 takes the
    # inference forms, whose accuracy the tests below bound
    x = _grid(shape, dtype)
    with Tape() if dtype == np.float32 else contextlib.nullcontext():
        for window in (3, 5):
            sums = oracles.box_sum_ix(x, window)
            _assert_same_bits(T._box_sum(x, window), sums)
            counts = T._valid_counts(*shape[:2], window, dtype)[:, :, None]
            _assert_same_bits(T.avg_pool_2d(Tensor(x), window).data, sums / counts)
        c = shape[-1]
        gain = Rng(1).normal((c,), dtype=dtype)
        bias = Rng(2).normal((c,), dtype=dtype)
        got = T.layer_norm(Tensor(x), Tensor(gain), Tensor(bias)).data
        _assert_same_bits(got, oracles.layer_norm_np_var(x, gain, bias))
        got = T.gelu(Tensor(x)).data
        if dtype == np.float32:
            _assert_same_bits(got, oracles.gelu_scipy_erf(x))
        else:  # erf within 2 ulp of scipy's (test_erf_float64_is_within_2_ulp_of_scipys)
            lo, hi = oracles.gelu_erf_band(x, 2)
            assert got.dtype == F64 and ((lo <= got) & (got <= hi)).all()


def _box_sum_cumsum(a: np.ndarray, window: int) -> np.ndarray:
    """``T._box_sum`` with its integral image made by two np.cumsum calls:
    the reference for the bits of its row and column adds."""
    h, w = a.shape[-3], a.shape[-2]
    r = window // 2
    s = np.zeros(a.shape[:-3] + (h + 2 * r + 1, w + 2 * r + 1, a.shape[-1]), dtype=F64)
    s[..., r + 1 : r + 1 + h, r + 1 : r + 1 + w, :] = a
    np.cumsum(s, axis=-3, out=s)
    np.cumsum(s, axis=-2, out=s)
    lo_i, hi_i = slice(0, h), slice(2 * r + 1, 2 * r + 1 + h)
    lo_j, hi_j = slice(0, w), slice(2 * r + 1, 2 * r + 1 + w)
    out = (s[..., hi_i, hi_j, :] - s[..., lo_i, hi_j, :]
           - s[..., hi_i, lo_j, :] + s[..., lo_i, lo_j, :])
    return out.astype(a.dtype)


@pytest.mark.parametrize("dtype", [np.float32, F64])
@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 1, 3), (7, 5, 2), (3, 1, 1, 4), (2, 9, 6, 3),
                                   (8, 16, 16, 16)], ids=lambda s: "x".join(map(str, s)))
def test_box_sum_has_the_bits_of_its_cumsum_form(shape, dtype):
    x = _grid(shape, dtype)
    # all -0.0: np.cumsum adds the +0.0 padding to the first row, which makes
    # every sum +0.0; a form that copied that row instead would keep -0.0
    for a in (x, np.full(shape, -0.0, dtype), -np.abs(x)):
        for window in (3, 5, 7):
            _assert_same_bits(T._box_sum(a, window), _box_sum_cumsum(a, window))


# The numpy erf of the taped and float64 gelu, against scipy's: every 4096th
# float32 bit pattern of both signs, and the edges of its forms.
ERF_GRID = np.arange(0, 2**32, 4096, dtype=np.uint64).astype(np.uint32).view(np.float32)


def _float32_erf_saturation() -> np.float32:
    """The least float32 whose float32 erf (scipy's) is 1."""
    lo, hi = int(np.float32(1).view(np.uint32)), int(np.float32(8).view(np.uint32))
    while hi - lo > 1:  # erf(lo) < 1 == erf(hi)
        mid = (lo + hi) // 2
        if oracles.erf(np.uint32(mid).view(np.float32)) == 1:
            hi = mid
        else:
            lo = mid
    return np.uint32(hi).view(np.float32)


def _erf_edges(dtype) -> np.ndarray:
    f = np.dtype(dtype).type
    points = [f(0), f(np.finfo(dtype).smallest_subnormal), f(np.inf)]
    for edge in (f(1), f(8)):  # the forms' branch points
        points += [np.nextafter(edge, f(0)), edge, np.nextafter(edge, f(np.inf))]
    if dtype == np.float32:
        sat = _float32_erf_saturation()
        points += [np.nextafter(sat, f(0)), sat]
    else:
        points += [f(1e154), f(1e300), np.finfo(dtype).max]  # squares overflow float64
    points = np.array(points, dtype=dtype)
    return np.concatenate([points, -points, [f(np.nan)]])


def test_erf_float32_has_scipys_bits():
    x = np.concatenate([ERF_GRID, _erf_edges(np.float32)])
    with np.errstate(invalid="ignore"):  # widening the grid's signalling NaNs
        got = T._erf(x)
    want = oracles.erf(x)
    assert got.dtype == np.float32
    nan = np.isnan(x)
    assert np.isnan(got[nan]).all()
    _assert_same_bits(got[~nan], want[~nan])
    _assert_same_bits(T._erf(x[~nan][-24:].reshape(6, 4).T), want[~nan][-24:].reshape(6, 4).T)
    assert T._erf(np.zeros(0, np.float32)).shape == (0,)
    # chunks all past 1, none past 1 and partly past 1: each writes its own tail back
    c = T.ERF_CHUNK
    y = np.random.default_rng(2).standard_normal(3 * c + 5).astype(np.float32)
    mixed = np.concatenate([np.copysign(1 + np.abs(y[:c]), y[:c]), np.clip(y[c : 2 * c], -1, 1), y[2 * c :] * 3])
    _assert_same_bits(T._erf(mixed), oracles.erf(mixed))


def test_erf_float64_is_within_2_ulp_of_scipys():
    finite32 = ERF_GRID[~np.isnan(ERF_GRID)]
    x = np.concatenate([finite32.astype(F64), _erf_edges(F64)[:-1]])
    got, want = T._erf(x), oracles.erf(x)
    assert got.dtype == F64
    assert (np.abs(got - want) <= 2 * np.spacing(np.abs(want))).all()
    assert (np.signbit(got) == np.signbit(x)).all()  # erf(-0) = -0
    assert np.isnan(T._erf(np.array([np.nan, -np.nan]))).all()


def test_erf_allocates_alike_whatever_its_data():
    # how many elements take the tail form (|x| > 1) must not change what a
    # call allocates: scratch sized by the data, or made afresh by each call,
    # moved training's peak RSS from one run to the next
    x = np.random.default_rng(0).standard_normal(3 * T.ERF_CHUNK).astype(np.float32)
    inputs = [x * 0.4, x * 3.0, x * 0.4]  # about 1% and 74% of each chunk past 1
    T._erf(inputs[0])  # this thread's scratch is made on its first call
    peaks = []
    for y in inputs:
        tracemalloc.start()
        got = T._erf(y)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        _assert_same_bits(got, oracles.erf(y))
    # besides its output, a call holds at most one chunk's positions at once,
    # and the same whatever the data, up to a few small Python objects
    assert max(peaks) <= x.nbytes + T.ERF_CHUNK * np.dtype(np.intp).itemsize + 4096
    assert max(peaks) - min(peaks) < 1024


def test_erf_threads_keep_their_own_scratch():
    rng = np.random.default_rng(1)
    xs = [(rng.standard_normal(2 * T.ERF_CHUNK + 7) * s).astype(np.float32) for s in (0.5, 3.0)]
    want = [oracles.erf(x) for x in xs]
    start = threading.Barrier(2)
    got: list[list[np.ndarray]] = [[], []]

    def run(i: int) -> None:
        start.wait()
        got[i] = [T._erf(xs[i]) for _ in range(20)]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for g, w in zip(got, want):
        assert len(g) == 20
        for out in g:
            _assert_same_bits(out, w)


# Untaped float32 gelu, layer_norm and avg_pool_2d take their inference forms;
# each is held to a bound against a float64 oracle, stated with the op.
EPS32 = float(np.finfo(np.float32).eps)
GELU_SIZES = [0, 1, T.GELU_CHUNK - 1, T.GELU_CHUNK, T.GELU_CHUNK + 1, 3 * T.GELU_CHUNK + 5]


@pytest.mark.parametrize("size", GELU_SIZES)
def test_inference_gelu_is_within_its_bound_of_float64(size):
    x = Rng(size).normal((size,), dtype=np.float32) * 4  # 16% past the erf clamp, |x| > 4 sqrt 2
    edges = np.float32([4, 5.65, 5.66, -5.66, 6, -6, 30, -30, 1e30, -1e30, 3e38, -3e38, 0, -0.0, 1e-30])
    x[: len(edges)] = edges[: size]
    got = T.gelu(Tensor(x)).data
    assert got.dtype == np.float32 and got.shape == (size,)
    x64 = x.astype(F64)
    # rational erf within 4.5e-7 of float64's; measured at most 2.22e-7 |x|
    bound = 2.5e-7 * np.abs(x64) + np.finfo(np.float32).tiny
    assert (np.abs(got - oracles.gelu(x64)) <= bound).all()
    assert (got[x64 > 5.66] == x[x64 > 5.66]).all()


@pytest.mark.parametrize("shape", [(1, 1), (7, 2), (64, 16), (256, 384), (4096, 48), (64, 1000),
                                   (3, 7, 2), (16, 16, 16), (2, 2, 128)],
                         ids=lambda s: "x".join(map(str, s)))
def test_inference_layer_norm_is_within_its_bound_of_float64(shape):
    x = Rng(sum(shape)).normal(shape, dtype=np.float32) * 3 + 1
    c = shape[-1]
    gain = Rng(1).normal((c,), dtype=np.float32)
    bias = Rng(2).normal((c,), dtype=np.float32)
    got = T.layer_norm(Tensor(x), Tensor(gain), Tensor(bias)).data
    assert got.dtype == np.float32 and got.shape == shape
    x64 = x.astype(F64)
    want = oracles.layer_norm(x64, gain.astype(F64), bias.astype(F64))
    # a row's scale: the rounding of x - mean counts relative to max|x| / sigma;
    # measured at most 2.0 EPS32 of it, as for the taped float32 form
    sigma = np.sqrt(x64.var(-1, keepdims=True) + oracles.LN_EPS)
    scale = np.abs(gain) * np.abs(x64).max(-1, keepdims=True) / sigma + np.abs(bias)
    assert (np.abs(got - want) <= 8 * EPS32 * scale).all()


@pytest.mark.parametrize("window", [3, 5])
@pytest.mark.parametrize("shape", [(1, 1, 3), (6, 7, 3), (2, 2, 128), (64, 64, 16),
                                   (3, 5, 9, 4), (8, 1, 1, 8), (2, 16, 16, 16)],
                         ids=lambda s: "x".join(map(str, s)))
def test_inference_avg_pool_is_within_its_bound_of_float64(shape, window):
    x = Rng(sum(shape) + window).normal(shape, dtype=np.float32)
    got = T.avg_pool_2d(Tensor(x), window).data
    assert got.dtype == np.float32 and got.shape == shape
    grids = x.astype(F64).reshape((-1,) + shape[-3:])
    want = np.stack([oracles.avg_pool_loops(g, window) for g in grids]).reshape(shape)
    mean_abs = np.stack([oracles.avg_pool_loops(np.abs(g), window) for g in grids]).reshape(shape)
    # at most window^2 - 1 float32 additions and one division, each rounding
    # by at most EPS32 / 2 of the window's sum of |x|; measured 1.25 EPS32
    assert (np.abs(got - want) <= window * window * EPS32 * mean_abs).all()


def _inference_ops(rng: Rng, c: int):
    gain, bias = (Tensor(rng.normal((c,), dtype=np.float32)) for _ in range(2))
    return {
        "gelu": T.gelu,
        "layer_norm": lambda x: T.layer_norm(x, gain, bias),
        "avg_pool_3": lambda x: T.avg_pool_2d(x, 3),
        "avg_pool_5": lambda x: T.avg_pool_2d(x, 5),
    }


@pytest.mark.parametrize("c", [1, 2, 16, 48, 128, 384])
def test_inference_forms_give_a_row_or_pixel_its_bits_alone_and_in_a_batch(c):
    # a BLAS matrix-vector product in layer_norm rounds a lone 1 x 128 row
    # differently from the same row inside a batch; einsum does not
    rng = Rng(c)
    ops = _inference_ops(rng, c)
    rows = Tensor(rng.normal((64, c), dtype=np.float32) * 3)
    for name in ("gelu", "layer_norm"):
        got = ops[name](rows).data
        for i in (0, 1, 31, 63):
            assert got[i].tobytes() == ops[name](Tensor(rows.data[i : i + 1])).data.tobytes(), name
    for hw in ((1, 1), (2, 3), (9, 9)):
        grids = Tensor(rng.normal((5,) + hw + (c,), dtype=np.float32))
        for name in ("gelu", "avg_pool_3", "avg_pool_5"):
            got = ops[name](grids).data
            for i in range(5):
                alone = ops[name](Tensor(grids.data[i])).data
                assert got[i].tobytes() == alone.tobytes(), name
                assert ops[name](Tensor(grids.data[i : i + 1])).data[0].tobytes() == alone.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_inference_forms_name_their_op_on_a_non_finite_input(bad):
    for name, op in _inference_ops(Rng(3), 4).items():
        for shape in ((1, 1, 4), (2, 5, 6, 4)):
            size = int(np.prod(shape))
            for pos in sorted({0, size // 2, size - 1}):
                x = np.ones(shape, dtype=np.float32)
                x.reshape(-1)[pos] = bad
                op_name = "avg_pool_2d" if name.startswith("avg_pool") else name
                with pytest.raises(NumericalError, match=f"^{op_name}: ") as info:
                    op(Tensor(x))
                assert f"shape {shape}" in str(info.value) and "float32" in str(info.value)


# ---------------------------------------------------------------------------
# fused ops: linear, mlp, cosine_attention
# ---------------------------------------------------------------------------


def _mlp_weights(rng: Rng, c: int, hidden: int, out: int, dtype) -> list[Tensor]:
    """ln_g, ln_b, w1, b1, w2, b2 with the spread of trained weights."""
    return [Tensor(rng.normal(shape, std=std, dtype=dtype) + mean)
            for shape, std, mean in (((c,), 0.2, 1.0), ((c,), 0.2, 0.0), ((c, hidden), 0.3, 0.0),
                                     ((hidden,), 0.2, 0.0), ((hidden, out), 0.3, 0.0), ((out,), 0.2, 0.0))]


def _add_bias(x: Tensor, bias: Tensor, b: int = 1) -> Tensor:
    """x + bias over the last axis, as a public op of its own: one record that
    passes the gradient to x and adds the bias's per-sample sums, last sample
    first.  The reference chain of ``linear``, which has no such op."""
    def fn(g):
        T._accum(x, g)
        for part in g.reshape(b, -1, bias.shape[0]).sum(axis=1)[::-1]:
            T._accum(bias, part)

    return T._out(x.data + bias.data, fn)


def _linear_chain(x: Tensor, w: Tensor, bias: Tensor, b: int) -> Tensor:
    return _add_bias(T.matmul(x, w, b), bias, b)


def _mlp_chain(x: Tensor, ws: list[Tensor], b: int) -> Tensor:
    g, s, w1, b1, w2, b2 = ws
    h = _linear_chain(T.layer_norm(x, g, s, b), w1, b1, b)
    return _linear_chain(T.gelu(h), w2, b2, b)


# rows per sample, input, hidden and output width; (4, 32) is a prototype
# bank's Mlp at 64 px, (4, 128) the deepest stage's
MLP_SHAPES = [(1, 1, 1, 1), (4, 32, 64, 32), (4, 128, 256, 128), (16, 16, 32, 16),
              (64, 48, 16, 16), (256, 16, 16, 1), (1024, 16, 32, 16)]


@pytest.mark.parametrize("b", [1, 2, 3])
@pytest.mark.parametrize("shape", MLP_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_untaped_mlp_and_linear_have_their_chains_bits(shape, b):
    rows, c, hidden, out = shape
    rng = Rng(rows + c + b)
    x = Tensor(rng.normal((b * rows, c), dtype=np.float32) * 3)
    ws = _mlp_weights(rng, c, hidden, out, np.float32)
    for dtype in (np.float32, F64):
        xd, *wd = (Tensor(t.data.astype(dtype)) for t in [x] + ws)
        _assert_same_bits(T.mlp(xd, *wd, b).data, _mlp_chain(xd, wd, b).data)
        _assert_same_bits(T.linear(xd, wd[2], wd[3], b).data, _linear_chain(xd, wd[2], wd[3], b).data)


# (queries, keys, width, value width) per sample: a prototype bank against
# tokens, tokens against a bank, and edge extents
COSINE_SHAPES = [(1, 1, 1, 1), (4, 256, 16, 16), (256, 4, 16, 16), (4, 4096, 16, 16),
                 (16, 64, 32, 32), (7, 300, 3, 5), (300, 7, 8, 3)]


@pytest.mark.parametrize("dtype", [np.float32, F64])
@pytest.mark.parametrize("b", [1, 2, 3])
@pytest.mark.parametrize("shape", COSINE_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_cosine_attention_is_within_4_epsilons_of_max_v_of_float64(shape, b, dtype):
    m, n, d, dv = shape
    rng = Rng(m * n + d + b)
    q = rng.normal((b * m, d), dtype=dtype) * 5
    k = rng.normal((b * n, d), dtype=dtype) * 0.01
    v = rng.normal((b * n, dv), dtype=dtype) * rng.uniform((b * n, 1), 0.1, 10, dtype=dtype)
    q[0] = 0.0  # zero-norm rows: the clamp leaves them at cosine 0
    k[-1] = 0.0
    q[-1] *= 1e-6  # a short row, normalised as it is
    k[0] *= 1e-7  # a row below the clamp, shortened by it
    got = T.cosine_attention(Tensor(q), Tensor(k), Tensor(v), b).data
    assert got.dtype == dtype and got.shape == (b * m, dv)
    eps = float(np.finfo(dtype).eps)
    for i in range(b):
        qi, ki, vi = (a.astype(F64).reshape(b, -1, a.shape[1])[i] for a in (q, k, v))
        want = oracles.softmax(oracles.cosine(qi, ki), axis=1) @ vi
        # measured at most 0.96 float32 epsilons of max|v| over 600 random shapes
        assert np.abs(got[i * m : (i + 1) * m] - want).max() <= 4 * eps * np.abs(vi).max()


def _fused_pairs(b: int, dtype):
    """(fused op, its chain) on b samples of each fused op's operands."""
    rng = Rng(b)
    x = Tensor(rng.normal((b * 6, 5), dtype=dtype))
    ws = _mlp_weights(rng, 5, 7, 3, dtype)
    q, k, v = (Tensor(rng.normal((b * n, w), dtype=dtype)) for n, w in ((6, 4), (9, 4), (9, 3)))
    return {
        "linear": (lambda: T.linear(x, ws[2], ws[3], b),
                   lambda: _linear_chain(x, ws[2], ws[3], b), [x, ws[2], ws[3]]),
        "mlp": (lambda: T.mlp(x, *ws, b), lambda: _mlp_chain(x, ws, b), [x] + ws),
        "cosine_attention": (lambda: T.cosine_attention(q, k, v, b),
                             lambda: T.batch_matmul(T.softmax_rows(T.cosine_rows(q, k, b)), v, b),
                             [q, k, v]),
    }


@pytest.mark.parametrize("dtype", [np.float32, F64])
@pytest.mark.parametrize("b", [1, 3])
def test_fused_ops_under_a_tape_are_their_chains(b, dtype):
    def run(fn, inputs):
        with Tape() as tape:
            out = fn()
            records = len(tape._records)
            backward(T.sum_all(T.mul(out, out)), tape)
        grads = [t.grad for t in inputs]
        for t in inputs:
            t.grad = None
        return out.data, records, grads

    for name, (fused, chain, inputs) in _fused_pairs(b, dtype).items():
        out, records, grads = run(fused, inputs)
        want_out, want_records, want_grads = run(chain, inputs)
        _assert_same_bits(out, want_out)
        assert (records, want_records) == (1, {"linear": 2, "mlp": 6, "cosine_attention": 3}[name])
        for g, w in zip(grads, want_grads):
            _assert_same_bits(g, w)


@pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_fused_ops_name_themselves_on_a_non_finite_input(bad, taped):
    for name, (fused, _, inputs) in _fused_pairs(2, np.float32).items():
        for t in inputs:
            saved = t.data.reshape(-1)[0]
            t.data.reshape(-1)[0] = bad
            with Tape() if taped else contextlib.nullcontext():
                with pytest.raises(NumericalError, match=f"^{name}: "):
                    fused()
            t.data.reshape(-1)[0] = saved


@pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
def test_cosine_attention_is_finite_where_its_weighted_sum_of_values_overflows(taped):
    # in sample 0 every cosine is 1, so each of the 4 probabilities is 1/4 and
    # the output is 1e38; the untaped sum of exp(1) v over its keys, 1.1e39,
    # is not finite.  Sample 1 is ordinary.
    rng = Rng(7)
    q = np.concatenate([np.ones((1, 3), np.float32), rng.normal((1, 3))])
    k = np.concatenate([np.ones((4, 3), np.float32), rng.normal((4, 3))])
    v = np.concatenate([np.full((4, 2), 1e38, np.float32), rng.normal((4, 2))])
    with Tape() if taped else contextlib.nullcontext():
        out = T.cosine_attention(Tensor(q), Tensor(k), Tensor(v), 2).data
        np.testing.assert_allclose(out[0], 1e38, rtol=1e-6)
        for i in range(2):  # each sample has the bits it has alone
            alone = T.cosine_attention(*(Tensor(a.reshape(2, -1, a.shape[1])[i]) for a in (q, k, v)))
            assert out[i].tobytes() == alone.data.tobytes()
        v[1, 0] = np.inf  # a value that is not finite still raises
        with pytest.raises(NumericalError, match="^cosine_attention: "):
            T.cosine_attention(Tensor(q), Tensor(k), Tensor(v), 2)


def test_valid_counts_are_cached_read_only():
    counts = T._valid_counts(4, 6, 3, np.float32)
    assert T._valid_counts(4, 6, 3, np.float32) is counts
    assert not counts.flags.writeable
    assert counts[0, 0] == 4 and counts[1, 1] == 9


def test_reshape_is_a_view():
    x = Tensor(Rng(3).normal((5, 6), dtype=F64))
    y = T.reshape(x, (6, 5))
    assert np.shares_memory(y.data, x.data)
    np.testing.assert_array_equal(y.data, x.data.reshape(6, 5))


def test_concat_rows_of_one_part_is_that_part_and_records_nothing():
    x = Tensor(Rng(4).normal((5, 6), dtype=F64))
    with Tape() as tape:
        assert T.concat_rows([x]) is x
        assert tape._records == []
    np.testing.assert_array_equal(T.concat_rows([x, x]).data, np.concatenate([x.data] * 2))


def test_elementwise_examples():
    x = tensor([[1.0, -2.0]], dtype=F64)
    np.testing.assert_array_equal(T.absdiff(x, x).data, 0.0)
    ones = tensor(np.ones((1, 2)), dtype=F64)
    np.testing.assert_array_equal(T.mul(x, ones).data, x.data)
    y = tensor([[3.0, 1.0]], dtype=F64)
    np.testing.assert_array_equal(T.absdiff(x, y).data, [[2.0, 3.0]])


def test_upsample_constant_and_single_pixel():
    c = tensor(np.full((3, 3, 2), 1.5))
    np.testing.assert_allclose(T.bilinear_upsample_2x(c).data, 1.5, rtol=1e-6)
    one = tensor(np.full((1, 1, 3), 7.0))
    out = T.bilinear_upsample_2x(one).data
    assert out.shape == (2, 2, 3)
    np.testing.assert_allclose(out, 7.0)


def test_upsample_column_midpoints():
    x = np.array([[[0.0]], [[1.0]]])  # 2x1 map
    out = T.bilinear_upsample_2x(Tensor(x)).data[:, 0, 0]
    np.testing.assert_allclose(out, [0.0, 0.25, 0.75, 1.0])


def test_upsample_matches_pixel_loop_oracle():
    x = Rng(5).normal((3, 4, 2), dtype=F64)
    out = T.bilinear_upsample_2x(Tensor(x)).data
    np.testing.assert_allclose(out, oracles.bilinear_up2_loops(x), atol=1e-12)


# ---------------------------------------------------------------------------
# backward / tape
# ---------------------------------------------------------------------------


def test_backward_linear():
    x = tensor([1.0, 2.0, 3.0], dtype=F64)
    w = Parameter(Tensor(np.asarray([4.0, 5.0, 6.0])), "w")
    with Tape() as tape:
        loss = T.sum_all(T.mul(w.value, x))
        backward(loss, tape)
    np.testing.assert_array_equal(w.grad, x.data)


def test_backward_quadratic():
    w = Parameter(Tensor(np.asarray([1.0, 2.0])), "w")
    with Tape() as tape:
        loss = T.sum_all(T.mul(w.value, w.value))
        backward(loss, tape)
    np.testing.assert_array_equal(w.grad, [2.0, 4.0])


def test_backward_detached_subgraph_zero_grad():
    used = Parameter(Tensor(np.asarray([2.0])), "used")
    unused = Parameter(Tensor(np.asarray([3.0])), "unused")
    with Tape() as tape:
        _ = T.mul(unused.value, unused.value)  # never reaches the loss
        loss = T.sum_all(T.mul(used.value, used.value))
        backward(loss, tape)
    np.testing.assert_array_equal(unused.grad, 0.0)
    np.testing.assert_array_equal(used.grad, [4.0])


def test_backward_releases_each_record_before_running_the_one_made_before_it():
    mid, loss = Tensor(np.ones(1)), Tensor(np.ones(1))
    held = np.ones(4)  # captured only by the later record's closure
    held_ref = weakref.ref(held)
    freed = []
    tape = Tape()
    tape.record(mid, lambda g: freed.append(held_ref() is None))
    tape.record(loss, lambda g, held=held: setattr(mid, "grad", g * held[:1]))
    del held
    backward(loss, tape)
    assert freed == [True]


@pytest.mark.parametrize("dtype", [np.float32, F64])
def test_a_taped_output_that_no_backward_reads_is_freed_when_dropped(dtype):
    rng = Rng(7)
    x, y, gain, bias = (Tensor(rng.normal(shape, dtype=dtype)) for shape in ((6, 5), (6, 5), (5,), (5,)))
    grads = []
    for keep in (True, False):
        for t in (x, y, gain, bias):
            t.grad = None
        with Tape() as tape:
            s = T.add(x, y)  # read only by add's and layer_norm's backward: neither keeps it
            n = T.layer_norm(s, gain, bias)
            z = T.add(n, x)
            freed = weakref.ref(s.data), weakref.ref(n.data)
            kept = [s, n] if keep else []
            del s, n
            assert [r() is None for r in freed] == [not keep] * 2
            backward(T.sum_all(T.mul(z, z)), tape)
        del kept
        grads.append([t.grad.tobytes() for t in (x, y, gain, bias)])
    assert grads[0] == grads[1]


@pytest.mark.parametrize("dtype", [np.float32, F64])
def test_a_taped_mlp_keeps_its_normalised_rows_its_gelus_input_and_cdf(dtype):
    b, rows, c, hidden = 8, 64, 16, 64
    rng = Rng(8)
    x = Tensor(rng.normal((b * rows, c), dtype=dtype))
    ws = _mlp_weights(rng, c, hidden, c, dtype)
    with Tape():  # makes the slots of x and the weights, and _erf's scratch
        T.mlp(x, *ws, b)
    with Tape() as tape:
        tracemalloc.start()
        try:
            y = T.mlp(x, *ws, b)
            kept = tracemalloc.get_traced_memory()[0] - y.data.nbytes
        finally:
            tracemalloc.stop()
        backward(T.sum_all(T.mul(y, y)), tape)
    n, itemsize = b * rows, np.dtype(dtype).itemsize
    # the normalised rows [n, c], the GELU's input and its CDF [n, hidden],
    # each row's 1 / sigma, and the closures and array headers (about 4.5 KB);
    # not the layer norm's output [n, c] or the GELU's [n, hidden] (32 KB and
    # more), which backward rebuilds
    assert (c + 2 * hidden) * n * itemsize <= kept <= (c + 2 * hidden + 1) * n * itemsize + 8192


def test_untaped_ops_make_no_slot_and_matmul_and_linear_no_backward():
    rng = Rng(9)
    x = Tensor(rng.normal((4, 5), dtype=F64))
    ws = _mlp_weights(rng, 5, 6, 3, F64)
    outs = [T.matmul(x, ws[2]), T.linear(x, ws[2], ws[3]), T.mlp(x, *ws), T.gelu(x),
            T.layer_norm(x, ws[0], ws[1]), T.add(x, x), T.cosine_attention(x, x, x)]
    assert all(t._slot is None for t in [x, *ws, *outs])
    assert T._matmul(x.data, ws[2], 1, "matmul")[1] is None
    assert T._linear(x.data, ws[2], ws[3], 1, "linear")[1] is None


def test_backward_rejects_nonscalar_loss():
    w = Parameter(Tensor(np.asarray([1.0, 2.0])), "w")
    with Tape() as tape:
        y = T.mul(w.value, w.value)
        with pytest.raises(ShapeError):
            backward(y, tape)


def test_gradcheck_polynomial_tight_tolerance():
    w = Parameter(Tensor(np.asarray([0.7, -1.3, 2.1])), "w")

    def f():
        cube = T.mul(T.mul(w.value, w.value), w.value)
        return T.sum_all(T.add(cube, T.mul_scalar(w.value, 2.0)))

    report = grad_check(f, [w], h=1e-5, tol=1e-6)
    assert report.passed, report.summary()


def test_gradcheck_detects_corrupted_backward_rule():
    w = Parameter(Tensor(np.asarray([1.5, -0.8])), "w")

    def square_with_wrong_gradient(x: Tensor) -> Tensor:
        def fn(g: np.ndarray) -> None:
            T._accum(x, g * x.data)  # wrong on purpose: true rule is 2*x

        return T._out(x.data**2, fn)

    def f():
        return T.sum_all(square_with_wrong_gradient(w.value))

    report = grad_check(f, [w], h=1e-5, tol=1e-4)
    assert not report.passed


# ---------------------------------------------------------------------------
# per-op gradient checks (5 seeds each)
# ---------------------------------------------------------------------------


def _op_builders(rng: Rng):
    a = p64(rng, (3, 4), "a")
    b = p64(rng, (4, 3), "b")
    sq = p64(rng, (3, 3), "sq")
    x = p64(rng, (5, 6), "x")
    y = p64(rng, (5, 6), "y")
    ysep = p64(rng, (5, 6), "ysep", offset=0.75)  # keep |x - ysep| off zero
    xoff = p64(rng, (5, 6), "xoff", offset=0.3)  # keep relu/abs kinks away
    bias = p64(rng, (6,), "bias")
    gvec = p64(rng, (6,), "gvec")
    grid = p64(rng, (4, 4, 2), "grid")
    logits = p64(rng, (8,), "logits")
    target = Tensor((rng.uniform((8,), dtype=F64) > 0.5).astype(F64))
    cls_logits = p64(rng, (6, 3), "cls_logits")
    labels = rng.integers(0, 3, size=6)
    keys = p64(rng, (5, 4), "keys")
    att_q = p64(rng, (5, 4), "att_q")
    att_k = p64(rng, (6, 4), "att_k")
    att_v = p64(rng, (6, 3), "att_v")
    # batched forms at b = 2, drawn after the rest so their draws stay put
    bq = p64(rng, (2 * 5, 4), "bq")
    bk = p64(rng, (2 * 6, 4), "bk")
    bv = p64(rng, (2 * 6, 3), "bv")
    bgrid = p64(rng, (2, 4, 4, 2), "bgrid")
    bvec = p64(rng, (3,), "bvec")
    bgain = p64(rng, (4,), "bgain")
    bshift = p64(rng, (4,), "bshift")
    # fused ops at b = 2, drawn last for the same reason
    fx = p64(rng, (2 * 4, 5), "fx")
    fg, fs = p64(rng, (5,), "fg"), p64(rng, (5,), "fs")
    fw1, fb1 = p64(rng, (5, 6), "fw1"), p64(rng, (6,), "fb1")
    fw2, fb2 = p64(rng, (6, 3), "fw2"), p64(rng, (3,), "fb2")
    # fused ops at b = 1, drawn after those
    lx = p64(rng, (4, 5), "lx")
    lg, ls = p64(rng, (5,), "lg"), p64(rng, (5,), "ls")
    lw1, lb1 = p64(rng, (5, 6), "lw1"), p64(rng, (6,), "lb1")
    lw2, lb2 = p64(rng, (6, 3), "lw2"), p64(rng, (3,), "lb2")
    return {
        "matmul": (lambda: T.matmul(a.value, b.value), [a, b]),
        "transpose": (lambda: T.transpose(a.value), [a]),
        "add": (lambda: T.add(x.value, y.value), [x, y]),
        "sub": (lambda: T.sub(x.value, y.value), [x, y]),
        "mul": (lambda: T.mul(x.value, y.value), [x, y]),
        "absdiff": (lambda: T.absdiff(x.value, ysep.value), [x, ysep]),
        "scale_channels": (lambda: T.scale_channels(x.value, gvec.value), [x, gvec]),
        "mul_scalar": (lambda: T.mul_scalar(x.value, -1.7), [x]),
        "relu": (lambda: T.relu(xoff.value), [xoff]),
        "gelu": (lambda: T.gelu(x.value), [x]),
        "softmax_rows": (lambda: T.softmax_rows(x.value), [x]),
        "cosine_rows": (lambda: T.cosine_rows(a.value, keys.value), [a, keys]),
        "attention_rows": (
            lambda: T.attention_rows(att_q.value, att_k.value, att_v.value, 0.7),
            [att_q, att_k, att_v],
        ),
        "layer_norm": (lambda: T.layer_norm(x.value, gvec.value, bias.value), [x, gvec, bias]),
        "avg_pool_3": (lambda: T.avg_pool_2d(grid.value, 3), [grid]),
        "avg_pool_5": (lambda: T.avg_pool_2d(grid.value, 5), [grid]),
        "bilinear_upsample_2x": (lambda: T.bilinear_upsample_2x(grid.value), [grid]),
        "space_to_depth": (lambda: T.space_to_depth(grid.value, 2), [grid]),
        "concat_rows": (lambda: T.concat_rows([x.value, y.value]), [x, y]),
        "concat_channels": (lambda: T.concat_channels([x.value, y.value]), [x, y]),
        "slice_rows": (lambda: T.slice_rows(x.value, 1, 4), [x]),
        "slice_channels": (lambda: T.slice_channels(x.value, 2, 5), [x]),
        "reshape": (lambda: T.reshape(x.value, (6, 5)), [x]),
        "sum_all": (lambda: T.sum_all(x.value), [x]),
        "mean_all": (lambda: T.mean_all(x.value), [x]),
        "abs_all": (lambda: T.abs_all(xoff.value), [xoff]),
        "bce_with_logits": (lambda: T.bce_with_logits(logits.value, target), [logits]),
        "softmax_cross_entropy": (lambda: T.softmax_cross_entropy(cls_logits.value, labels), [cls_logits]),
        "matmul_sq": (lambda: T.matmul(sq.value, sq.value), [sq]),
        "attention_rows_b2": (
            lambda: T.attention_rows(bq.value, bk.value, bv.value, 0.7, 2), [bq, bk, bv],
        ),
        "cosine_rows_b2": (lambda: T.cosine_rows(bq.value, bk.value, 2), [bq, bk]),
        "batch_matmul_b2": (
            lambda: T.batch_matmul(T.transpose(bk.value, 2), bv.value, 2), [bk, bv],
        ),
        "transpose_b2": (lambda: T.transpose(bv.value, 2), [bv]),
        "avg_pool_3_b2": (lambda: T.avg_pool_2d(bgrid.value, 3), [bgrid]),
        "avg_pool_5_b2": (lambda: T.avg_pool_2d(bgrid.value, 5), [bgrid]),
        "bilinear_upsample_2x_b2": (lambda: T.bilinear_upsample_2x(bgrid.value), [bgrid]),
        "space_to_depth_b2": (lambda: T.space_to_depth(bgrid.value, 2), [bgrid]),
        "slice_rows_b2": (lambda: T.slice_rows(bk.value, 1, 4, 2), [bk]),
        "sum_all_b2": (lambda: T.sum_all(bq.value, 2), [bq]),
        "matmul_b2": (lambda: T.matmul(bk.value, b.value, 2), [bk, b]),
        "scale_channels_b2": (lambda: T.scale_channels(bv.value, bvec.value, 2), [bv, bvec]),
        "layer_norm_b2": (lambda: T.layer_norm(bk.value, bgain.value, bshift.value, 2),
                          [bk, bgain, bshift]),
        "cosine_attention": (lambda: T.cosine_attention(att_q.value, att_k.value, att_v.value),
                             [att_q, att_k, att_v]),
        "cosine_attention_b2": (lambda: T.cosine_attention(bq.value, bk.value, bv.value, 2),
                                [bq, bk, bv]),
        "linear_b2": (lambda: T.linear(fx.value, fw1.value, fb1.value, 2), [fx, fw1, fb1]),
        "mlp_b2": (lambda: T.mlp(fx.value, fg.value, fs.value, fw1.value, fb1.value, fw2.value,
                                 fb2.value, 2), [fx, fg, fs, fw1, fb1, fw2, fb2]),
        "linear": (lambda: T.linear(lx.value, lw1.value, lb1.value), [lx, lw1, lb1]),
        "mlp": (lambda: T.mlp(lx.value, lg.value, ls.value, lw1.value, lb1.value, lw2.value,
                              lb2.value), [lx, lg, ls, lw1, lb1, lw2, lb2]),
    }


OP_NAMES = sorted(_op_builders(Rng(0)).keys())


@pytest.mark.parametrize("op_name", OP_NAMES)
def test_every_op_gradient_five_seeds(op_name):
    for seed in range(5):
        builders = _op_builders(Rng(100 + seed))
        op, params = builders[op_name]

        def f():
            out = op()
            return T.mean_all(T.mul(out, out)) if out.data.size > 1 else out

        report = grad_check(f, params, h=1e-5, tol=1e-4)
        assert report.passed, f"{op_name} seed {seed}: {report.summary()}"


# ---------------------------------------------------------------------------
# attention_rows: taped chain vs row-blocked inference path
# ---------------------------------------------------------------------------


ATTN_KEYS = 300  # key rows; the query row counts below cross block edges
ATTN_ROWS = [1, 255, 256, 257, 4096]


def _attention_chain(q, k, v, scale):
    return T.matmul(T.softmax_rows(T.mul_scalar(T.matmul(q, T.transpose(k)), scale)), v)


def _qkv(rows: int, dim: int, dtype):
    rng = Rng(rows)
    return (
        Tensor(rng.normal((rows, dim), dtype=dtype)),
        Tensor(rng.normal((ATTN_KEYS, dim), dtype=dtype)),
        Tensor(rng.normal((ATTN_KEYS, dim), dtype=dtype)),
    )


def _taped_attention(q, k, v, scale) -> np.ndarray:
    with Tape():
        return T.attention_rows(q, k, v, scale).data


def _peak_error(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.abs(got - want).max() / np.abs(want).max())


@pytest.mark.parametrize("dtype", [np.float32, F64])
def test_attention_rows_taped_is_the_five_op_chain(dtype):
    def run(fn):
        rng = Rng(21)
        q = Parameter(Tensor(rng.normal((9, 4), dtype=dtype)), "q")
        k = Parameter(Tensor(rng.normal((7, 4), dtype=dtype)), "k")
        v = Parameter(Tensor(rng.normal((7, 3), dtype=dtype)), "v")
        with Tape() as tape:
            out = fn(q.value, k.value, v.value, 0.3)
            records = len(tape._records)
            backward(T.sum_all(T.mul(out, out)), tape)
        return out.data, records, [p.grad for p in (q, k, v)]

    out, records, grads = run(T.attention_rows)
    want_out, want_records, want_grads = run(_attention_chain)
    np.testing.assert_array_equal(out, want_out)
    assert (records, want_records) == (1, 5)
    for g, w in zip(grads, want_grads):
        np.testing.assert_array_equal(g, w)


def _samples(b: int, rows: int, width: int, dtype) -> Tensor:
    return Tensor(Rng(rows * width + b).normal((b * rows, width), dtype=dtype))


def _rows_of(t: Tensor, b: int, i: int) -> bytes:
    return t.data.reshape((b, -1) + t.shape[1:])[i].tobytes()


def _row_op_pairs(b: int, dtype):
    """(batched call, call on sample i alone) for each op that takes b."""
    q, k, v = _samples(b, 9, 4, dtype), _samples(b, 7, 4, dtype), _samples(b, 7, 3, dtype)
    w = _samples(b, 4, 7, dtype)

    def alone(x: Tensor, i: int) -> Tensor:
        return Tensor(x.data.reshape((b, -1) + x.shape[1:])[i])

    lin = [Tensor(w.data[:4]), Tensor(w.data[4])]
    mlp_ws = [Tensor(k.data[0]), Tensor(k.data[1])] + lin + [Tensor(v.data[:7]), Tensor(v.data[7])]

    return {
        "attention_rows": (lambda: T.attention_rows(q, k, v, 0.3, b),
                           lambda i: T.attention_rows(alone(q, i), alone(k, i), alone(v, i), 0.3)),
        "cosine_rows": (lambda: T.cosine_rows(q, k, b),
                        lambda i: T.cosine_rows(alone(q, i), alone(k, i))),
        "batch_matmul": (lambda: T.batch_matmul(w, k, b),
                         lambda i: T.matmul(alone(w, i), alone(k, i))),
        "transpose": (lambda: T.transpose(q, b), lambda i: T.transpose(alone(q, i))),
        "matmul": (lambda: T.matmul(q, Tensor(w.data[:4]), b),
                   lambda i: T.matmul(alone(q, i), Tensor(w.data[:4]))),
        "slice_rows": (lambda: T.slice_rows(q, 2, 6, b), lambda i: T.slice_rows(alone(q, i), 2, 6)),
        "sum_all": (lambda: T.sum_all(q, b), lambda i: T.sum_all(alone(q, i))),
        "linear": (lambda: T.linear(q, *lin, b), lambda i: T.linear(alone(q, i), *lin)),
        "cosine_attention": (lambda: T.cosine_attention(q, k, v, b),
                             lambda i: T.cosine_attention(alone(q, i), alone(k, i), alone(v, i))),
        "mlp": (lambda: T.mlp(q, *mlp_ws, b), lambda i: T.mlp(alone(q, i), *mlp_ws)),
    }


@pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
@pytest.mark.parametrize("dtype", [np.float32, F64])
@pytest.mark.parametrize("b", [2, 5])
def test_ops_that_take_b_give_each_sample_its_result_alone(b, dtype, taped):
    for name, (batched, single) in _row_op_pairs(b, dtype).items():
        if taped:
            with Tape():
                got = batched()
                want = [single(i).data.tobytes() for i in range(b)]
        else:
            got = batched()
            want = [single(i).data.tobytes() for i in range(b)]
        assert [_rows_of(got, b, i) for i in range(b)] == want, name
    grid = Tensor(Rng(b).normal((b, 8, 8, 3), dtype=dtype))
    for op in (lambda x: T.avg_pool_2d(x, 3), lambda x: T.avg_pool_2d(x, 5),
               T.bilinear_upsample_2x, lambda x: T.space_to_depth(x, 2)):
        got = op(grid).data
        for i in range(b):
            assert got[i].tobytes() == op(Tensor(grid.data[i])).data.tobytes()


@pytest.mark.parametrize("op", ["matmul", "linear", "scale_channels", "layer_norm", "mlp"])
def test_weight_gradients_of_a_batch_are_those_of_one_record_per_sample(op):
    b = 3
    x = _samples(b, 5, 4, np.float32)
    calls = {
        "matmul": lambda x, p, *n: T.matmul(x, p[0], *n),
        "linear": lambda x, p, *n: T.linear(x, *p, *n),
        "scale_channels": lambda x, p, *n: T.scale_channels(x, p[0], *n),
        "layer_norm": lambda x, p, *n: T.layer_norm(x, p[0], p[1], *n),
        "mlp": lambda x, p, *n: T.mlp(x, *p, *n),
    }
    shapes = {"matmul": [(4, 6)], "linear": [(4, 6), (6,)], "layer_norm": [(4,), (4,)],
              "mlp": [(4,), (4,), (4, 8), (8,), (8, 3), (3,)]}.get(op, [(4,)])

    def grads(batched: bool) -> list[bytes]:
        params = [Parameter(Tensor(Rng(j).normal(sh, dtype=np.float32)), f"p{j}")
                  for j, sh in enumerate(shapes)]
        values = [p.value for p in params]
        with Tape() as tape:
            if batched:
                out = calls[op](x, values, b)
                loss = T.sum_all(T.mul(out, out))
            else:  # one sample after another, as separate records
                loss = None
                for i in range(b):
                    out = calls[op](Tensor(x.data[i * 5 : (i + 1) * 5]), values)
                    part = T.sum_all(T.mul(out, out))
                    loss = part if loss is None else T.add(loss, part)
            backward(loss, tape)
        return [p.grad.tobytes() for p in params]

    assert grads(True) == grads(False)


def test_attention_rows_untaped_samples_see_only_their_keys(two_cpus):
    # a batch large enough for the helper thread, with blocks crossing samples
    b, rows = 3, 300
    q, k, v = (_samples(b, rows, 16, np.float32) for _ in range(3))
    assert b * rows * rows > T.ATTN_HELPER_SCORES
    got = T.attention_rows(q, k, v, 0.3, b)
    for i in range(b):
        alone = [Tensor(x.data[i * rows : (i + 1) * rows]) for x in (q, k, v)]
        assert _rows_of(got, b, i) == T.attention_rows(*alone, 0.3).data.tobytes()


def test_ops_that_take_b_reject_rows_that_do_not_split():
    x = _samples(1, 7, 4, F64)
    for call in (lambda: T.attention_rows(x, x, x, 1.0, 2), lambda: T.cosine_rows(x, x, 2),
                 lambda: T.batch_matmul(x, T.transpose(x), 2), lambda: T.transpose(x, 2),
                 lambda: T.slice_rows(x, 0, 1, 2), lambda: T.sum_all(x, 3)):
        with pytest.raises(ShapeError):
            call()


@pytest.mark.parametrize("rows", ATTN_ROWS)
def test_attention_rows_untaped_float64_matches_taped(rows):
    for dim, scale in ((16, 0.25), (32, 1.0 / np.sqrt(32.0))):
        q, k, v = _qkv(rows, dim, F64)
        got = T.attention_rows(q, k, v, scale).data
        assert _peak_error(got, _taped_attention(q, k, v, scale)) <= 1e-12


def _float64_replay(q, k, v, scale) -> np.ndarray:
    return _taped_attention(*(Tensor(x.data.astype(F64)) for x in (q, k, v)), scale)


@pytest.mark.parametrize("rows", ATTN_ROWS)
def test_attention_rows_untaped_float32_matches_taped(rows):
    for dim, scale in ((16, 0.25), (32, 1.0 / np.sqrt(32.0))):
        q, k, v = _qkv(rows, dim, np.float32)
        got = T.attention_rows(q, k, v, scale).data
        assert got.dtype == np.float32
        assert _peak_error(got, _taped_attention(q, k, v, scale)) <= 1e-5
        # measured at most 1.3e-6 over these calls, the taped path's 8.2e-7
        assert _peak_error(got, _float64_replay(q, k, v, scale)) <= 4e-6


def _shifted(q, k, v, scale, b=1) -> list[bool]:
    """Which samples untaped attention_rows shifts by the row max."""
    q3, k3, v3 = (x.data.reshape(b, -1, x.shape[1]) for x in (q, k, v))
    return T._attention_shifts(q3 * scale, k3, v3)


def _edge_scale(q, k, factor: float) -> float:
    """The scale that puts q and k's score bound at factor x ATTN_SHIFT_LIMIT."""
    qn, kn = (np.sqrt(np.einsum("ij,ij->i", x.data, x.data, dtype=F64)).max() for x in (q, k))
    return factor * T.ATTN_SHIFT_LIMIT / (qn * kn)


@pytest.mark.parametrize("kind, value, shifted", [
    ("scale", 0.25, False), ("bound", 0.99, False), ("bound", 1.01, True), ("scale", 50.0, True),
], ids=["scale-0.25", "bound-just-below", "bound-just-above", "scale-50"])
def test_attention_rows_untaped_is_as_accurate_as_taped_either_side_of_the_limit(kind, value, shifted):
    errors = {"untaped": [], "taped": []}
    for rows in (1, 255, 257, 4096):
        q, k, v = _qkv(rows, 16, np.float32)
        scale = value if kind == "scale" else _edge_scale(q, k, value)
        assert _shifted(q, k, v, scale) == [shifted]
        want = _float64_replay(q, k, v, scale)
        errors["untaped"].append(_peak_error(T.attention_rows(q, k, v, scale).data, want))
        errors["taped"].append(_peak_error(_taped_attention(q, k, v, scale), want))
    # one call's error is a draw of its roundings; over the calls, the
    # untaped path's worst stays within twice the taped path's worst
    assert max(errors["untaped"]) <= 2 * max(errors["taped"]), errors


def test_attention_rows_batch_of_shifted_and_unshifted_samples_keeps_each_samples_bytes(two_cpus):
    b, rows = 2, 300
    q, k, v = (_samples(b, rows, 16, np.float32) for _ in range(3))
    q = Tensor(q.data * np.repeat([1.0, 20.0], rows)[:, None].astype(np.float32))
    assert _shifted(q, k, v, 0.3, b) == [False, True]
    got = T.attention_rows(q, k, v, 0.3, b)
    for i in range(b):
        alone = [Tensor(x.data[i * rows : (i + 1) * rows]) for x in (q, k, v)]
        assert _rows_of(got, b, i) == T.attention_rows(*alone, 0.3).data.tobytes()


def test_attention_rows_nan_in_q_raises_on_both_paths():
    q, k, v = _qkv(300, 8, np.float32)
    bad = q.data.copy()
    bad[270, 3] = np.nan  # third block, the last
    with pytest.raises(NumericalError):
        T.attention_rows(Tensor(bad), k, v, 0.25)
    with Tape(), pytest.raises(NumericalError):
        T.attention_rows(Tensor(bad), k, v, 0.25)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("operand", ["k", "v"])
def test_attention_rows_untaped_non_finite_k_or_v_raises(two_cpus, operand, bad):
    qkv = dict(zip("qkv", _qkv(4096, 8, np.float32)))
    data = qkv[operand].data.copy()
    data[170, 3] = bad
    qkv[operand] = Tensor(data)
    with pytest.raises(NumericalError, match="attention_rows"):
        T.attention_rows(qkv["q"], qkv["k"], qkv["v"], 0.25)


@pytest.mark.parametrize("big", [1e34, 3e37])
def test_attention_rows_untaped_large_values_are_finite_where_taped_are(big):
    # N exp(bound) max|v| overflows float32, so these samples are shifted; at
    # 3e37 even N max|v| does, which the ln N in the shift keeps in range
    q, k, v = _qkv(300, 16, np.float32)
    v = Tensor(v.data * np.float32(big))
    assert _shifted(q, k, v, 0.25) == [True]
    want = _taped_attention(q, k, v, 0.25)
    assert np.isfinite(want).all()
    got = T.attention_rows(q, k, v, 0.25).data
    assert _peak_error(got, _float64_replay(q, k, v, 0.25)) <= 4e-6
    assert _peak_error(got, want) <= 1e-5


def test_attention_rows_shape_errors():
    q, k, v = _qkv(4, 8, F64)
    with pytest.raises(ShapeError):
        T.attention_rows(q, T.slice_channels(k, 0, 4), v, 1.0)  # q/k widths
    with pytest.raises(ShapeError):
        T.attention_rows(q, k, T.slice_rows(v, 0, 10), 1.0)  # k/v rows
    with pytest.raises(ShapeError):
        T.attention_rows(T.reshape(q, (4, 2, 4)), k, v, 1.0)  # rank 3


# ---------------------------------------------------------------------------
# attention_rows: blocks shared with a helper thread that each call joins
# ---------------------------------------------------------------------------


PARALLEL_ROWS = [1, 127, 128, 129, 256, 257, 385, 1024, 4096]


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(T, "_CPUS", 2)


def _attention_bytes(rows: int, dtype) -> bytes:
    q, k, v = _qkv(rows, 16, dtype)
    return T.attention_rows(q, k, v, 0.3).data.tobytes()


def _assert_no_helper_alive() -> None:
    # each parallel call joins its helper before it returns or raises
    assert not [t for t in threading.enumerate() if t.name.startswith("bisource-attn")]


@pytest.mark.parametrize("dtype", [np.float32, F64])
@pytest.mark.parametrize("rows", PARALLEL_ROWS)
def test_attention_rows_same_bytes_on_one_cpu_or_two(monkeypatch, rows, dtype):
    monkeypatch.setattr(T, "_CPUS", 1)
    one = _attention_bytes(rows, dtype)
    monkeypatch.setattr(T, "_CPUS", 2)
    assert _attention_bytes(rows, dtype) == one


def test_attention_rows_threads_claim_every_block_once(monkeypatch, two_cpus):
    claimed: list[tuple[str, int]] = []
    run_blocks = T._attention_blocks

    def spy(*args):
        *head, blocks, buf = args

        def counted():
            for i in blocks:
                claimed.append((threading.current_thread().name, i))
                yield i

        run_blocks(*head, counted(), buf)

    monkeypatch.setattr(T, "_attention_blocks", spy)
    blocks = 4096 // T.ATTN_ROW_BLOCK
    helper_blocks = 0
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the two threads' claims finely
    try:
        for _ in range(5):
            claimed.clear()
            _attention_bytes(4096, np.float32)
            assert sorted(i for _, i in claimed) == list(range(blocks))
            names = {name for name, _ in claimed}
            assert names <= {threading.current_thread().name, "bisource-attn_0"}
            helper_blocks += sum(name == "bisource-attn_0" for name, _ in claimed)
    finally:
        sys.setswitchinterval(interval)
    assert helper_blocks > 0


def _attention_call(b: int, rows: int, keys: int) -> None:
    rng = Rng(rows)
    q = Tensor(rng.normal((b * rows, 16), dtype=np.float32))
    kv = Tensor(rng.normal((b * keys, 16), dtype=np.float32))
    T.attention_rows(q, kv, kv, 0.3, b)


def _threads_running_blocks(monkeypatch, call) -> set[str]:
    names: set[str] = set()
    run_blocks = T._attention_blocks

    def spy(*args):
        names.add(threading.current_thread().name)
        run_blocks(*args)

    monkeypatch.setattr(T, "_attention_blocks", spy)
    call()
    monkeypatch.setattr(T, "_attention_blocks", run_blocks)
    return names


def test_attention_rows_helper_starts_only_beyond_the_score_threshold_on_two_cpus(monkeypatch):
    caller = {threading.current_thread().name}
    monkeypatch.setattr(T, "_CPUS", 1)
    assert _threads_running_blocks(monkeypatch, lambda: _attention_call(1, 4096, 300)) == caller
    monkeypatch.setattr(T, "_CPUS", 2)
    assert 4 * 256 * 256 == T.ATTN_HELPER_SCORES
    for at_or_below in [lambda: _attention_call(4, 256, 256),  # at the threshold
                        lambda: _attention_call(1, T.ATTN_ROW_BLOCK, 4096)]:  # one block
        assert _threads_running_blocks(monkeypatch, at_or_below) == caller
    above = _threads_running_blocks(monkeypatch, lambda: _attention_call(1, 1025, 256))
    assert above == caller | {"bisource-attn_0"}
    _assert_no_helper_alive()


@pytest.mark.parametrize("row", [0, 4095])  # first and last block
def test_attention_rows_nan_in_a_parallel_call_reaches_the_caller(two_cpus, row):
    q, k, v = _qkv(4096, 16, np.float32)
    bad = q.data.copy()
    bad[row, 5] = np.nan
    with pytest.raises(NumericalError, match="attention_rows"):
        T.attention_rows(Tensor(bad), k, v, 0.3)
    _assert_no_helper_alive()
    want = T.attention_rows(q, k, v, 0.3).data
    _assert_no_helper_alive()
    np.testing.assert_array_equal(T.attention_rows(q, k, v, 0.3).data, want)


def test_attention_rows_concurrent_callers_each_join_their_helper(two_cpus):
    serial = _attention_bytes(4096, np.float32)
    jobs = [lambda: _attention_bytes(4096, np.float32)] * 3
    assert _in_threads(*jobs) == [serial] * 3
    _assert_no_helper_alive()


def _fork_child(conn) -> None:
    conn.send(_attention_bytes(4096, np.float32))
    conn.close()


def test_attention_rows_in_a_forked_child_after_the_helper_started(two_cpus):
    want = _attention_bytes(4096, np.float32)  # starts and joins a helper
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_fork_child, args=(send,))
    child.start()
    send.close()
    try:
        assert recv.poll(timeout=120), "the child sent nothing"
        got = recv.recv()
    finally:
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
    assert not child.is_alive() and child.exitcode == 0
    assert got == want


def test_attention_rows_parallel_call_counts_only_its_output(two_cpus):
    q, k, v = _qkv(4096, 16, np.float32)
    gc.collect()
    base = alloc_stats.current_elements
    out = T.attention_rows(q, k, v, 0.3)
    assert alloc_stats.current_elements == base + out.data.size
    del out
    gc.collect()
    assert alloc_stats.current_elements == base


# ---------------------------------------------------------------------------
# error surfacing, determinism, allocation accounting
# ---------------------------------------------------------------------------


def test_overflow_surfaces_as_error():
    big = tensor(np.full((2, 2), 1e30, dtype=np.float32))
    with np.errstate(over="ignore"), pytest.raises(NumericalError):
        T.mul(big, big)


PROBE_SHAPES = [(1,), (64, 16), (4096, 16)]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("dtype", [np.float32, F64])
def test_non_finite_output_raises_wherever_it_sits(dtype, bad):
    for shape in PROBE_SHAPES:
        n = int(np.prod(shape))
        for pos in sorted({0, n // 2, n - 1}):
            x = np.ones(shape, dtype=dtype)
            x.reshape(-1)[pos] = bad
            with pytest.raises(NumericalError, match="mul_scalar") as info:
                T.mul_scalar(Tensor(x), 1.0)
            assert f"shape {shape}" in str(info.value)
            assert np.dtype(dtype).name in str(info.value)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dtype, big, tiny", [(np.float32, 1e20, 1e-30), (F64, 1e200, 1e-200)])
def test_finite_values_that_overflow_or_underflow_the_probe_pass(dtype, big, tiny):
    for shape in PROBE_SHAPES:
        for value in (big, tiny):
            x = np.full(shape, value, dtype=dtype)
            x.reshape(-1)[0] = -value
            with np.errstate(all="raise"):  # the op itself is exact
                out = T.mul_scalar(Tensor(x), 1.0).data
            np.testing.assert_array_equal(out, x)


def test_rng_determinism_across_instances():
    a = Rng(123)
    b = Rng(123)
    np.testing.assert_array_equal(a.normal((4, 4)), b.normal((4, 4)))
    np.testing.assert_array_equal(a.uniform((3,)), b.uniform((3,)))
    assert Rng(1).spawn(5).seed == Rng(1).spawn(5).seed


def test_op_determinism_bitwise():
    x = Rng(9).normal((16, 16), dtype=F64)
    r1 = T.matmul(T.softmax_rows(Tensor(x)), Tensor(x)).data
    r2 = T.matmul(T.softmax_rows(Tensor(x)), Tensor(x)).data
    np.testing.assert_array_equal(r1, r2)


def test_alloc_stats_tracks_and_resets_peak():
    gc.collect()
    alloc_stats.reset_peak()
    base = alloc_stats.peak_elements
    keep = Tensor(np.zeros((100, 100), dtype=np.float32))
    assert alloc_stats.peak_elements >= base + 10_000
    assert alloc_stats.peak_elements >= alloc_stats.current_elements
    del keep
    gc.collect()
    alloc_stats.reset_peak()
    assert alloc_stats.peak_elements <= base


@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
def test_tensor_rank_and_dtype_validation():
    # the half-built tensor's __del__ runs here and must not raise
    with pytest.raises(TypeError):
        Tensor(np.zeros((2, 2), dtype=np.int64))
    gc.collect()
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 2, 2, 2, 2), dtype=np.float32))


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(7,), (3, 5), (2, 3, 4), (2, 2, 2, 3)])
def test_cpt1_round_trip_bit_exact(tmp_path, dtype, shape):
    arr = Rng(42).normal(shape, dtype=dtype)
    path = tmp_path / "t.cpt1"
    save_cpt1(path, arr)
    back = load_cpt1(path)
    assert back.dtype == dtype and back.shape == shape
    np.testing.assert_array_equal(back, arr)
    assert path.read_bytes()[:4] == b"CPT1"


def test_pgm_round_trip_bit_exact(tmp_path):
    img = (Rng(7).uniform((32, 48)) * 255).astype(np.uint8)
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    np.testing.assert_array_equal(read_pgm(path), img)


def _cpt1_header(code: int, shape) -> bytes:
    return b"CPT1" + bytes([code, len(shape)]) + b"".join(
        int(e).to_bytes(8, "little") for e in shape
    )


def _assert_one_value_error_naming(path):
    with pytest.raises(ValueError) as info:
        load_cpt1(path)
    assert str(path) in str(info.value)


def test_cpt1_truncated_file_is_rejected(tmp_path):
    path = tmp_path / "t.cpt1"
    save_cpt1(path, np.arange(12, dtype=np.float32).reshape(3, 4))
    raw = path.read_bytes()
    for cut in (len(raw) - 1, 6 + 8 * 2 + 3, 6 + 5, 5):
        path.write_bytes(raw[:cut])
        _assert_one_value_error_naming(path)


def test_cpt1_oversized_extent_is_rejected_before_reading(tmp_path):
    path = tmp_path / "t.cpt1"
    path.write_bytes(_cpt1_header(0, (2**40, 2**20)) + b"\0" * 16)
    _assert_one_value_error_naming(path)
    path.write_bytes(_cpt1_header(1, (2**63, 4)) + b"\0" * 16)
    _assert_one_value_error_naming(path)


@pytest.mark.parametrize("rank", [0, 5])
def test_cpt1_rank_outside_one_to_four_is_rejected(tmp_path, rank):
    path = tmp_path / "t.cpt1"
    path.write_bytes(_cpt1_header(0, (1,) * rank) + b"\0" * 4)
    _assert_one_value_error_naming(path)


@pytest.mark.parametrize("header,fault", [
    (b"P5\n64", "truncated"),
    (b"P5\n64 64\n", "truncated"),
    (b"P5\n# c\n", "truncated"),
    (b"P5\n64 x4 255\n", "non-numeric"),
    (b"P5\n64 -4 255\n", "non-numeric"),
])
def test_pgm_bad_header_names_the_file_and_the_fault(tmp_path, header, fault):
    path = tmp_path / "bad.pgm"
    path.write_bytes(header)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {fault} PGM header$"):
        read_pgm(path)


# -- one-file checkpoints --------------------------------------------------------

CKPT_SHAPES = {"a": (np.float32, (3, 4)), "b.w": (np.float64, (5,)), "c": (np.float32, (2, 1, 3))}


def _ckpt_tensors() -> dict[str, np.ndarray]:
    return {name: Rng(i).normal(shape, dtype=dt) for i, (name, (dt, shape)) in enumerate(CKPT_SHAPES.items())}


def _ckpt_parts(dirpath) -> tuple[bytes, dict, bytes]:
    """A saved checkpoint's bytes, its parsed header and its buffer."""
    save_tensor_dir(dirpath, _ckpt_tensors(), {"seed": 1})
    raw = (dirpath / io.CHECKPOINT).read_bytes()
    n = int.from_bytes(raw[8:16], "little")
    return raw, json.loads(raw[16 : 16 + n]), raw[16 + n : -32]


def _write_checkpoint(path, header_text: str, buffer: bytes) -> None:
    """A checkpoint with the given header, digested so it passes the digest check."""
    head = header_text.encode()
    body = io.CHECKPOINT_MAGIC + len(head).to_bytes(8, "little") + head + buffer
    path.write_bytes(body + hashlib.sha256(body).digest())


def _assert_checkpoint_error_naming(path):
    with pytest.raises(ValueError) as info:
        load_tensor_dir(path.parent)
    assert type(info.value) is ValueError
    assert str(info.value).startswith(f"{path}: ")


def test_checkpoint_round_trip_is_one_file_of_views(tmp_path):
    raw, header, buffer = _ckpt_parts(tmp_path)
    arrays, header2 = load_tensor_dir(tmp_path)
    assert [f.name for f in tmp_path.iterdir()] == [io.CHECKPOINT]
    assert header2 == header and header["seed"] == 1
    assert (16 + int.from_bytes(raw[8:16], "little")) % 64 == 0
    for name, want in _ckpt_tensors().items():
        assert arrays[name].dtype == want.dtype and not arrays[name].flags.writeable
        np.testing.assert_array_equal(arrays[name], want)
    # the same header re-digested by the helper loads: the lying-header test below is not vacuous
    _write_checkpoint(tmp_path / io.CHECKPOINT, json.dumps(header), buffer)
    np.testing.assert_array_equal(load_tensor_dir(tmp_path)[0]["b.w"], _ckpt_tensors()["b.w"])


def test_checkpoint_save_that_fails_keeps_the_previous_file(tmp_path, monkeypatch):
    raw = _ckpt_parts(tmp_path)[0]

    def crash(src, dst):
        raise OSError("crash mid-save")

    monkeypatch.setattr(io.os, "replace", crash)
    with pytest.raises(OSError):
        save_tensor_dir(tmp_path, {"a": np.zeros(3, dtype=np.float32)})
    assert (tmp_path / io.CHECKPOINT).read_bytes() == raw


@pytest.mark.parametrize("fault,corrupt", [
    ("bad magic", lambda raw: b"CPT1" + raw[4:]),
    ("header length", lambda raw: raw[:8] + len(raw).to_bytes(8, "little") + raw[16:]),
    ("digest mismatch", lambda raw: raw[:-1] + bytes([raw[-1] ^ 1])),
])
def test_checkpoint_error_names_the_fault(tmp_path, fault, corrupt):
    path = tmp_path / io.CHECKPOINT
    path.write_bytes(corrupt(_ckpt_parts(tmp_path)[0]))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {fault}"):
        load_tensor_dir(tmp_path)


def test_old_checkpoint_directory_gets_one_error_naming_the_format(tmp_path):
    (tmp_path / "manifest.json").write_text('{"tensors": {}}')
    with pytest.raises(ValueError, match="old checkpoint format"):
        load_tensor_dir(tmp_path)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_checkpoint_truncated_at_any_length_is_rejected(tmp_path, data):
    raw = _ckpt_parts(tmp_path)[0]
    path = tmp_path / io.CHECKPOINT
    path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1))])
    _assert_checkpoint_error_naming(path)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), flip=st.integers(1, 255))
def test_checkpoint_with_a_flipped_byte_is_rejected(tmp_path, data, flip):
    raw = bytearray(_ckpt_parts(tmp_path)[0])
    raw[data.draw(st.integers(0, len(raw) - 1))] ^= flip
    path = tmp_path / io.CHECKPOINT
    path.write_bytes(bytes(raw))
    _assert_checkpoint_error_naming(path)


NOT_INTS = st.sampled_from([None, "0", [0], 1.5, True])
LIES = {
    "offset": lambda e: st.one_of(st.integers().filter(lambda v: v != e["offset"]), NOT_INTS),
    "shape": lambda e: st.one_of(
        st.lists(st.integers(0, 50), min_size=1, max_size=4).filter(
            lambda s: math.prod(s) != math.prod(e["shape"])),
        st.lists(st.integers(1, 3), min_size=5, max_size=6),  # rank above 4
        st.just([]),
        st.lists(st.one_of(st.integers(max_value=-1), NOT_INTS), min_size=1, max_size=4),
    ),
    "dtype": lambda e: st.one_of(
        st.sampled_from(["<f2", "<i4", ">f4", ">f8", "float32", "f32", "<c8"]), NOT_INTS,
        st.just("<f8" if e["dtype"] == "<f4" else "<f4"),  # a valid dtype of the wrong width
    ),
}


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), name=st.sampled_from(sorted(CKPT_SHAPES)),
       lie=st.sampled_from([*LIES, "duplicate", "extra key", "unknown name", "trailing bytes"]))
def test_checkpoint_header_that_lies_is_rejected(tmp_path, data, name, lie):
    _, header, buffer = _ckpt_parts(tmp_path)
    entry = header["tensors"][name]
    if lie in LIES:
        entry[lie] = data.draw(LIES[lie](entry))
        text = json.dumps(header)
    elif lie == "duplicate":
        text = json.dumps(header).replace('"tensors": {', f'"tensors": {{"{name}": {json.dumps(entry)}, ', 1)
    elif lie == "extra key":
        entry["file"] = "t0000.cpt1"
        text = json.dumps(header)
    elif lie == "unknown name":
        header["tensors"]["z"] = {"dtype": "<f4", "shape": [1], "offset": len(buffer)}
        text = json.dumps(header)
    else:
        text = json.dumps(header)
        buffer += bytes(data.draw(st.integers(1, 64)))
    path = tmp_path / io.CHECKPOINT
    _write_checkpoint(path, text, buffer)
    _assert_checkpoint_error_naming(path)
