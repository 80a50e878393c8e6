"""Tensor engine: forward examples, gradient checks, stability, file formats."""

import gc

import numpy as np
import pytest

from bisource import tensor as T
from bisource.gradcheck import grad_check
from bisource.io import load_cpt1, read_pgm, save_cpt1, write_pgm
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
    x = _grid(shape, dtype)
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
    return {
        "matmul": (lambda: T.matmul(a.value, b.value), [a, b]),
        "transpose": (lambda: T.transpose(a.value), [a]),
        "add": (lambda: T.add(x.value, y.value), [x, y]),
        "sub": (lambda: T.sub(x.value, y.value), [x, y]),
        "mul": (lambda: T.mul(x.value, y.value), [x, y]),
        "absdiff": (lambda: T.absdiff(x.value, ysep.value), [x, ysep]),
        "add_bias": (lambda: T.add_bias(x.value, bias.value), [x, bias]),
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
    assert records == want_records == 5
    for g, w in zip(grads, want_grads):
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("rows", ATTN_ROWS)
def test_attention_rows_untaped_float64_matches_taped(rows):
    for dim, scale in ((16, 0.25), (32, 1.0 / np.sqrt(32.0))):
        q, k, v = _qkv(rows, dim, F64)
        got = T.attention_rows(q, k, v, scale).data
        assert _peak_error(got, _taped_attention(q, k, v, scale)) <= 1e-12


@pytest.mark.parametrize("rows", ATTN_ROWS)
def test_attention_rows_untaped_float32_matches_taped(rows):
    for dim, scale in ((16, 0.25), (32, 1.0 / np.sqrt(32.0))):
        q, k, v = _qkv(rows, dim, np.float32)
        got = T.attention_rows(q, k, v, scale).data
        want = _taped_attention(q, k, v, scale)
        assert got.dtype == np.float32
        assert _peak_error(got, want) <= 1e-5
        # folding an exact power-of-two scale into q changes no rounding; a
        # lone tail row (257) goes through a different BLAS kernel
        if scale == 0.25 and rows % T.ATTN_ROW_BLOCK != 1:
            np.testing.assert_array_equal(got, want)


def test_attention_rows_nan_in_q_raises_on_both_paths():
    q, k, v = _qkv(300, 8, np.float32)
    bad = q.data.copy()
    bad[270, 3] = np.nan  # second block
    with pytest.raises(NumericalError):
        T.attention_rows(Tensor(bad), k, v, 0.25)
    with Tape(), pytest.raises(NumericalError):
        T.attention_rows(Tensor(bad), k, v, 0.25)


def test_attention_rows_shape_errors():
    q, k, v = _qkv(4, 8, F64)
    with pytest.raises(ShapeError):
        T.attention_rows(q, T.slice_channels(k, 0, 4), v, 1.0)  # q/k widths
    with pytest.raises(ShapeError):
        T.attention_rows(q, k, T.slice_rows(v, 0, 10), 1.0)  # k/v rows
    with pytest.raises(ShapeError):
        T.attention_rows(T.reshape(q, (4, 2, 4)), k, v, 1.0)  # rank 3


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
