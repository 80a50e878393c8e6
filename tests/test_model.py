"""End-to-end model tests: shapes, symmetry, losses, training, checkpoints."""

import gc
import hashlib
import math
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bisource import (
    AdamW,
    BiSourceModel,
    ModelConfig,
    Tensor,
    ablation_variant,
    train_step,
)
from bisource.ada import INF_PROTOTYPES, AdaConfig, ParamRegistry, make_attention
from bisource.model import cosine_lr
from bisource import data
from bisource import tensor as T
from bisource.tensor import NumericalError, Rng, ShapeError, Tape, alloc_stats, backward
from bisource.cli import _save_checkpoint, load_checkpoint
from bisource.io import save_tensor_dir, load_tensor_dir

import oracles


def small_config(**kw):
    base = dict(
        in_channels=1,
        base_channels=4,
        num_prototypes=2,
        head="binary",
        input_hw=(32, 32),
    )
    base.update(kw)
    return ModelConfig(**base)


def rand_pair(rng, hw=(32, 32)):
    h, w = hw
    return (
        rng.uniform((h, w), 0.0, 1.0).astype(np.float32),
        rng.uniform((h, w), 0.0, 1.0).astype(np.float32),
    )


# -- encoder stage geometry ---------------------------------------------------


def test_encoder_stage_shapes_64():
    cfg = ModelConfig(base_channels=4, num_prototypes=2, input_hw=(64, 64))
    m = BiSourceModel(cfg, seed=0)
    rng = Rng(3)
    i1 = m._as_input(rng.uniform((64, 64), 0.0, 1.0).astype(np.float32))
    i2 = m._as_input(rng.uniform((64, 64), 0.0, 1.0).astype(np.float32))
    pairs = m.encode(i1, i2)
    grids = [(p.h, p.w) for p in pairs]
    assert grids == [(16, 16), (8, 8), (4, 4), (2, 2)]
    dims = [p.f1.shape[-1] for p in pairs]
    assert dims == [4, 8, 16, 32]
    for p in pairs:
        assert p.f1.shape == (p.h * p.w, p.f1.shape[-1])
        assert p.f2.shape == p.f1.shape


def test_identical_inputs_give_identical_streams():
    m = BiSourceModel(small_config(), seed=1)
    img = Rng(5).uniform((32, 32), 0.0, 1.0).astype(np.float32)
    pairs = m.encode(m._as_input(img), m._as_input(img))
    for p in pairs:
        np.testing.assert_array_equal(p.f1.data, p.f2.data)


# -- head output contracts ----------------------------------------------------


def test_binary_head_output_shape():
    m = BiSourceModel(small_config(), seed=0)
    rng = Rng(7)
    i1, i2 = rand_pair(rng)
    out = m.forward(m._as_input(i1), m._as_input(i2))
    assert out.shape == (32, 32, 1)
    mask = m.predict(i1, i2)
    assert mask.shape == (32, 32)
    assert mask.dtype == np.uint8
    assert set(np.unique(mask)) <= {0, 1}
    scores = m.predict_scores(i1, i2)
    assert scores.shape == (32, 32)
    assert np.all((scores >= 0.0) & (scores <= 1.0))


def test_multiclass_head_output_shape():
    m = BiSourceModel(small_config(head="multiclass", n_classes=5), seed=0)
    rng = Rng(8)
    i1, i2 = rand_pair(rng)
    out = m.forward(m._as_input(i1), m._as_input(i2))
    assert out.shape == (32, 32, 5)
    cls = m.predict(i1, i2)
    assert cls.shape == (32, 32)
    assert cls.min() >= 0 and cls.max() < 5


def test_density_head_nonnegative():
    m = BiSourceModel(small_config(head="density"), seed=0)
    rng = Rng(9)
    i1, i2 = rand_pair(rng)
    out = m.forward(m._as_input(i1), m._as_input(i2))
    assert out.shape == (32, 32, 1)
    assert np.all(out.data >= 0.0)
    dmap = m.predict(i1, i2)
    assert dmap.shape == (32, 32)


# -- loss closed forms ----------------------------------------------------------


def test_binary_loss_zero_logits_is_ln2():
    m = BiSourceModel(small_config(), seed=0)
    pred = Tensor(np.zeros((32, 32, 1), dtype=np.float32))
    target = Rng(1).integers(0, 2, (32, 32)).astype(np.float32)
    loss = m.loss(pred, target)
    assert abs(loss.item() - math.log(2.0)) < 1e-6


def test_binary_loss_confident_correct_is_tiny():
    m = BiSourceModel(small_config(), seed=0)
    target = Rng(2).integers(0, 2, (32, 32)).astype(np.float32)
    logits = np.where(target > 0.5, 20.0, -20.0).astype(np.float32)
    loss = m.loss(Tensor(np.ascontiguousarray(logits[..., None])), target)
    assert loss.item() < 1e-8


def test_density_loss_zero_when_exact():
    m = BiSourceModel(small_config(head="density"), seed=0)
    target = Rng(3).uniform((32, 32), 0.0, 1.0).astype(np.float32)
    loss = m.loss(Tensor(np.ascontiguousarray(target[..., None])), target)
    assert loss.item() == 0.0


def test_multiclass_loss_uniform_logits_is_ln_k():
    m = BiSourceModel(small_config(head="multiclass", n_classes=5), seed=0)
    pred = Tensor(np.zeros((32, 32, 5), dtype=np.float32))
    target = Rng(4).integers(0, 5, (32, 32))
    loss = m.loss(pred, target)
    assert abs(loss.item() - math.log(5.0)) < 1e-6


def test_multiclass_invalid_label_raises():
    m = BiSourceModel(small_config(head="multiclass", n_classes=5), seed=0)
    pred = Tensor(np.zeros((32, 32, 5), dtype=np.float32))
    target = np.full((32, 32), 7, dtype=np.int64)
    with pytest.raises(ValueError):
        m.loss(pred, target)


# -- training dynamics ----------------------------------------------------------


def test_zero_lr_step_is_noop():
    m = BiSourceModel(small_config(), seed=0)
    before = m.state_arrays()
    opt = AdamW(m.parameters(), lr=0.0, weight_decay=0.01)
    rng = Rng(11)
    i1, i2 = rand_pair(rng)
    target = rng.integers(0, 2, (32, 32)).astype(np.float32)
    train_step(m, [(i1, i2, target)], opt)
    after = m.state_arrays()
    for name in before:
        np.testing.assert_array_equal(before[name], after[name])


def test_loss_decreases_over_steps():
    m = BiSourceModel(small_config(), seed=0)
    opt = AdamW(m.parameters(), lr=1e-3, weight_decay=0.0)
    rng = Rng(12)
    i1, i2 = rand_pair(rng)
    target = (rng.uniform((32, 32), 0.0, 1.0) > 0.5).astype(np.float32)
    first = train_step(m, [(i1, i2, target)], opt)
    last = first
    for _ in range(49):
        last = train_step(m, [(i1, i2, target)], opt)
    assert last < first


def test_single_sample_overfit():
    m = BiSourceModel(small_config(), seed=0)
    opt = AdamW(m.parameters(), lr=5e-3, weight_decay=0.0)
    rng = Rng(13)
    i1, i2 = rand_pair(rng)
    target = np.zeros((32, 32), dtype=np.float32)
    target[8:24, 8:24] = 1.0
    loss = None
    for _ in range(400):
        loss = train_step(m, [(i1, i2, target)], opt)
        if loss < 0.05:
            break
    assert loss is not None and loss < 0.05


def test_cosine_lr_schedule():
    assert cosine_lr(1.0, 0, 100) == 1.0
    assert abs(cosine_lr(1.0, 99, 100)) < 1e-12
    mid = cosine_lr(1.0, 50, 101)
    assert abs(mid - 0.5) < 1e-12
    assert cosine_lr(0.3, 0, 1) == 0.3


# -- ablations ------------------------------------------------------------------


def test_ablation_empty_returns_same_object():
    m = BiSourceModel(small_config(), seed=0)
    assert ablation_variant(m, set()) is m


def test_ablation_unknown_raises():
    m = BiSourceModel(small_config(), seed=0)
    with pytest.raises(ValueError):
        ablation_variant(m, {"nonsense"})


@pytest.mark.parametrize("drop", [{"ceb"}, {"dab"}, {"compops"}, {"ceb", "dab"}])
def test_ablation_variants_run_and_train(drop):
    m = BiSourceModel(small_config(), seed=0)
    v = ablation_variant(m, drop)
    assert set(v.config.ablate) == drop
    if "ceb" in drop:
        assert all(c is None for c in v.cebs)
    if "dab" in drop:
        assert all(d.attn is None for d in v.dabs)
    rng = Rng(14)
    i1, i2 = rand_pair(rng)
    target = (rng.uniform((32, 32), 0.0, 1.0) > 0.5).astype(np.float32)
    opt = AdamW(v.parameters(), lr=1e-3)
    val = train_step(v, [(i1, i2, target)], opt)
    assert np.isfinite(val)


def test_ablation_drops_parameters():
    full = BiSourceModel(small_config(), seed=0)
    for drop in ({"ceb"}, {"dab"}):
        v = ablation_variant(full, drop)
        assert v.num_parameters() < full.num_parameters()


# -- prototype count properties ---------------------------------------------------


def test_param_count_k4_vs_inf_differs_only_in_banks():
    # 64x64 keeps every grid's token count >= 4, so the adaptive banks are
    # never smaller than the fixed K=4 ones
    cfg4 = small_config(num_prototypes=4, input_hw=(64, 64))
    cfg_inf = small_config(num_prototypes=INF_PROTOTYPES, input_hw=(64, 64))
    m4 = BiSourceModel(cfg4, seed=0)
    mi = BiSourceModel(cfg_inf, seed=0)
    n4 = {p.name: p.value.data.size for p in m4.parameters()}
    ni = {p.name: p.value.data.size for p in mi.parameters()}
    assert set(n4) == set(ni)
    for name in n4:
        if name.endswith(".prototypes"):
            # the bank adapts to the token count, which can equal 4 at the
            # coarsest 2x2 grid
            assert ni[name] >= n4[name]
        else:
            assert ni[name] == n4[name]
    assert mi.num_parameters() > m4.num_parameters()


def test_inf_prototype_banks_match_token_counts():
    m = BiSourceModel(small_config(num_prototypes=INF_PROTOTYPES), seed=0)
    # CEB i operates at the stage-i grid; 32x32 input -> 8x8, 4x4, 2x2, 1x1.
    expected_ceb = {"ceb1": 64, "ceb2": 16, "ceb3": 4, "ceb4": 1}
    for p in m.parameters():
        if p.name.endswith(".prototypes"):
            block = p.name.split(".")[0]
            if block in expected_ceb:
                assert p.value.shape[0] == expected_ceb[block]


# -- zero-gate prototype independence at init --------------------------------------


def test_model_output_independent_of_prototypes_at_init():
    m = BiSourceModel(small_config(), seed=0)
    rng = Rng(21)
    i1, i2 = rand_pair(rng)
    base = m.forward(m._as_input(i1), m._as_input(i2)).data.copy()
    noise_rng = Rng(99)
    for p in m.parameters():
        if p.name.endswith(".prototypes"):
            p.assign(noise_rng.normal(p.value.shape, 1.0, p.value.data.dtype).data)
    again = m.forward(m._as_input(i1), m._as_input(i2)).data
    np.testing.assert_array_equal(base, again)


# -- checkpoints / config serialization --------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    m = BiSourceModel(small_config(), seed=0)
    opt = AdamW(m.parameters(), lr=1e-3)
    rng = Rng(17)
    i1, i2 = rand_pair(rng)
    target = (rng.uniform((32, 32), 0.0, 1.0) > 0.5).astype(np.float32)
    for _ in range(3):
        train_step(m, [(i1, i2, target)], opt)
    save_tensor_dir(tmp_path / "ckpt", m.state_arrays(), {"model_config": m.config.to_json()})
    arrays, manifest = load_tensor_dir(tmp_path / "ckpt")
    m2 = BiSourceModel(ModelConfig.from_json(manifest["model_config"]), seed=0)
    m2.load_state(arrays)
    np.testing.assert_array_equal(m.predict(i1, i2), m2.predict(i1, i2))


def test_float64_checkpoint_loads_as_float64(tmp_path):
    m = BiSourceModel(small_config(), seed=0, dtype=np.float64)
    _save_checkpoint(tmp_path / "ckpt", m)
    m2 = load_checkpoint(tmp_path / "ckpt")
    assert {p.value.data.dtype for p in m2.parameters()} == {np.dtype(np.float64)}
    i1, i2 = rand_pair(Rng(18))
    assert m.predict_scores(i1, i2).tobytes() == m2.predict_scores(i1, i2).tobytes()
    assert m.predict(i1, i2).tobytes() == m2.predict(i1, i2).tobytes()


def test_load_state_missing_param_raises():
    m = BiSourceModel(small_config(), seed=0)
    state = m.state_arrays()
    state.pop(next(iter(state)))
    with pytest.raises(ValueError):
        m.load_state(state)


def test_load_state_unknown_param_raises():
    m = BiSourceModel(small_config(), seed=0)
    state = m.state_arrays()
    state["enc1.stale"] = np.zeros(3, dtype=np.float32)
    with pytest.raises(ValueError, match="enc1.stale"):
        m.load_state(state)


def test_load_state_shape_mismatch_raises():
    m = BiSourceModel(small_config(), seed=0)
    state = m.state_arrays()
    name = next(iter(state))
    state[name] = np.zeros(np.asarray(state[name]).shape + (1,), dtype=np.float32)
    with pytest.raises(ValueError):
        m.load_state(state)


# Digests of every parameter's name, shape, dtype and bytes, in registry order,
# recorded before the attention units and MLPs were folded into shared classes:
# a refactor must keep parameter names, creation order and seeded draws.
def _seeded_model(dtype=np.float32, **kw) -> ParamRegistry:
    return BiSourceModel(ModelConfig(base_channels=8, **kw), seed=3, dtype=dtype).registry


def _seeded_std_unit() -> ParamRegistry:
    reg = ParamRegistry(Rng(3), np.float32)
    make_attention("std", AdaConfig(), reg)
    return reg


# label: (registry builder, parameter count, digest of names, shapes, dtypes and bytes)
SEEDED_PARAM_DIGESTS = {
    "binary": (_seeded_model, 260, "0ba4d9a4d4122a7df6733c5d9a1bad6d"),
    "std": (partial(_seeded_model, attention_form="std"), 183, "9adacda12a50e39c2d364f013671719a"),
    "multiclass": (partial(_seeded_model, head="multiclass", n_classes=3), 260,
                   "0edd4e02811b2d051d3b460eb3f93c5a"),
    "density": (partial(_seeded_model, head="density"), 260, "0ba4d9a4d4122a7df6733c5d9a1bad6d"),
    "ablate_all": (partial(_seeded_model, ablate=("ceb", "dab", "compops")), 92,
                   "539eee47efc1bac595022cbae5b549f2"),
    "k_inf_32": (partial(_seeded_model, num_prototypes=INF_PROTOTYPES, input_hw=(32, 32)), 260,
                 "3ef54e1a63cf9642799c2643531840e9"),
    "float64": (partial(_seeded_model, np.float64), 260, "b00322b7f9e9ee8ae8707d643e34657f"),
    "std_unit": (_seeded_std_unit, 13, "b9ec74d3a3d530b3a358716dc7ebd66c"),
}


@pytest.mark.parametrize("label", sorted(SEEDED_PARAM_DIGESTS))
def test_seeded_parameters_are_pinned(label):
    build, count, digest = SEEDED_PARAM_DIGESTS[label]
    params = build().all()
    h = hashlib.blake2b(digest_size=16)
    for p in params:
        a = p.value.data
        h.update(p.name.encode())
        h.update(str(a.shape).encode())
        h.update(str(a.dtype).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    assert len(params) == count
    assert h.hexdigest() == digest


def test_model_config_json_round_trip():
    for k in (4, INF_PROTOTYPES):
        cfg = small_config(num_prototypes=k, ablate=("dab",))
        back = ModelConfig.from_json(cfg.to_json())
        assert back == cfg


def test_model_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(head="nope")
    with pytest.raises(ValueError):
        ModelConfig(input_hw=(60, 64))
    with pytest.raises(ValueError):
        ModelConfig(ablate=("bogus",))
    with pytest.raises(ValueError):
        ModelConfig(attention_form="weird")


def test_same_seed_same_init():
    a = BiSourceModel(small_config(), seed=5)
    b = BiSourceModel(small_config(), seed=5)
    sa, sb = a.state_arrays(), b.state_arrays()
    assert set(sa) == set(sb)
    for name in sa:
        np.testing.assert_array_equal(sa[name], sb[name])


# -- one live tape per thread -------------------------------------------------------


def _train_run(steps=4):
    m = BiSourceModel(small_config(), seed=0)
    opt = AdamW(m.parameters(), lr=1e-3)
    rng = Rng(31)
    i1, i2 = rand_pair(rng)
    target = (rng.uniform((32, 32), 0.0, 1.0) > 0.5).astype(np.float32)
    losses = [train_step(m, [(i1, i2, target)], opt) for _ in range(steps)]
    return losses, m.state_arrays()


def _predict_run(count=12):
    # stage 2 (dim 8) scales by an inexact 1/sqrt(8), so a prediction that
    # took the taped attention path would differ in its last bits
    m = BiSourceModel(small_config(), seed=1)
    rng = Rng(32)
    return [m.predict_scores(*rand_pair(rng)) for _ in range(count)]


def _assert_same_training(got, want):
    assert got[0] == want[0]
    for name in want[1]:
        np.testing.assert_array_equal(got[1][name], want[1][name])


def _assert_same_predictions(got, want):
    for g, w in zip(got, want, strict=True):
        np.testing.assert_array_equal(g, w)


def _in_threads(*jobs):
    barrier = threading.Barrier(len(jobs))

    def start(job):
        barrier.wait(timeout=60)
        return job()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads' ops finely
    try:
        with ThreadPoolExecutor(len(jobs)) as pool:
            futures = [pool.submit(start, job) for job in jobs]
            return [f.result(timeout=300) for f in futures]
    finally:
        sys.setswitchinterval(interval)


def test_trainer_and_predictor_threads_match_serial():
    # two trainers, each with its own tape, and a predictor with none
    serial_train, serial_pred = _train_run(), _predict_run()
    train_a, pred, train_b = _in_threads(_train_run, _predict_run, _train_run)
    _assert_same_training(train_a, serial_train)
    _assert_same_training(train_b, serial_train)
    _assert_same_predictions(pred, serial_pred)


def test_tape_held_by_another_thread_neither_blocks_nor_records():
    serial_train, serial_pred = _train_run(2), _predict_run(2)
    entered, release = threading.Event(), threading.Event()

    def hold() -> int:
        with Tape() as tape:
            entered.set()
            release.wait(timeout=60)
            return len(tape._records)

    with ThreadPoolExecutor(1) as pool:
        held = pool.submit(hold)
        assert entered.wait(timeout=60)
        try:
            train, pred = _train_run(2), _predict_run(2)
        finally:
            release.set()
        assert held.result() == 0
    _assert_same_training(train, serial_train)
    _assert_same_predictions(pred, serial_pred)


# -- live-element accounting and error context --------------------------------------


def _live_elements_after(job) -> int:
    gc.collect()
    base = alloc_stats.current_elements
    job()
    gc.collect()
    return alloc_stats.current_elements - base


def _density_predict_256():
    # stage 1 attends over 64 x 64 = 4096 tokens: blocks shared with the helper
    m = BiSourceModel(small_config(head="density", input_hw=(256, 256)), seed=2)
    return m.predict(*rand_pair(Rng(33), (256, 256)))


def test_live_elements_return_to_baseline(monkeypatch):
    monkeypatch.setattr(T, "_CPUS", 2)
    assert _live_elements_after(lambda: _predict_run(2)) == 0
    assert _live_elements_after(lambda: _train_run(2)) == 0
    assert _live_elements_after(lambda: _in_threads(_predict_run, _predict_run, _predict_run)) == 0
    assert _live_elements_after(_density_predict_256) == 0


def test_nan_in_a_layer_norm_gain_names_the_op():
    m = BiSourceModel(small_config(), seed=0)
    gain = next(p for p in m.parameters() if p.name.endswith("ln_g"))
    bad = gain.value.data.copy()
    bad[0] = np.nan
    gain.assign(bad)
    with pytest.raises(NumericalError, match="layer_norm"):
        m.predict(*rand_pair(Rng(5)))


def test_nan_in_an_mlp_weight_is_reported_by_mlp():
    m = BiSourceModel(small_config(), seed=0)
    w1 = m.registry.named()["enc1.ffn.w1"]
    bad = w1.value.data.copy()
    bad[0, 0] = np.nan
    w1.assign(bad)
    with pytest.raises(NumericalError, match="^mlp: "):
        m.predict(*rand_pair(Rng(5)))


def test_nan_in_an_mlp_weight_during_training_is_reported_by_mlp_and_the_step():
    m = BiSourceModel(small_config(), seed=0)
    opt = AdamW(m.parameters(), lr=1e-3)
    train_step(m, _batch(Rng(48), 2), opt)
    w1 = m.registry.named()["enc1.ffn.w1"]
    bad = w1.value.data.copy()
    bad[0, 0] = np.nan
    w1.assign(bad)
    with pytest.raises(NumericalError, match=r"^non-finite loss during train step 2: mlp: "):
        train_step(m, _batch(Rng(49), 2), opt)


def test_sigmoid_of_a_large_negative_logit_is_zero_without_a_warning():
    m = BiSourceModel(small_config(), seed=0)
    b2 = m.registry.named()["head.b2"]
    b2.assign(np.full(b2.value.shape, -120.0, dtype=np.float32))
    logits = Tensor(np.float32([-100.0, 0.5, 100.0]))
    target = Tensor(np.float32([1.0, 0.0, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scores = m.predict_scores(*rand_pair(Rng(5)))
        with Tape() as tape:
            loss = T.bce_with_logits(logits, target)
            backward(loss, tape)
    assert scores.dtype == np.float32 and (scores == 0).all()
    # d/dz of the mean loss is (sigmoid(z) - t) / n, and sigmoid(-100) is 0
    np.testing.assert_allclose(logits.grad, np.float32([-1.0, 0.6224593, -0.0]) / 3, rtol=1e-6)


# -- entry-point input checks -------------------------------------------------------


ENTRY_MODEL = BiSourceModel(small_config(), seed=0)  # 32 x 32, one channel
GOOD = np.zeros((32, 32), dtype=np.float32)


def _entry_points(m):
    target = np.zeros((32, 32), dtype=np.float32)
    return {
        "predict": m.predict,
        "predict_scores": m.predict_scores,
        "sample_loss": lambda a, b: m.sample_loss(a, b, target),
    }


@settings(max_examples=60, deadline=None)
@given(
    shape=st.lists(st.sampled_from([0, 1, 2, 8, 31, 32, 33, 64]), min_size=1, max_size=4),
    which=st.sampled_from(["img1", "img2"]),
    entry=st.sampled_from(["predict", "predict_scores", "sample_loss"]),
)
def test_bad_shape_raises_one_shape_error_naming_the_image(shape, which, entry):
    shape = tuple(shape)
    assume(shape not in ((32, 32), (32, 32, 1)))  # the same input as GOOD
    bad = np.zeros(shape, dtype=np.float32)
    pair = (bad, GOOD) if which == "img1" else (GOOD, bad)
    with pytest.raises(ShapeError) as exc:
        _entry_points(ENTRY_MODEL)[entry](*pair)
    assert which in str(exc.value) and str(shape) in str(exc.value)


@pytest.mark.parametrize("entry", ["predict", "predict_scores", "sample_loss"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39])  # 1e39 overflows float32
@pytest.mark.parametrize("which", ["img1", "img2"])
def test_non_finite_image_raises_one_value_error_naming_it(entry, value, which):
    bad = GOOD.astype(np.float64)
    bad[7, 19] = value
    pair = (bad, GOOD) if which == "img1" else (GOOD, bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the error alone reports the value
        with pytest.raises(ValueError) as exc:
            _entry_points(ENTRY_MODEL)[entry](*pair)
    assert type(exc.value) is ValueError
    assert str(exc.value).startswith(f"{which}: ")


def test_rank_two_and_single_channel_images_are_the_same_input():
    rng = Rng(34)
    i1, i2 = rand_pair(rng)
    want = ENTRY_MODEL.predict_scores(i1, i2)
    np.testing.assert_array_equal(ENTRY_MODEL.predict_scores(i1[:, :, None], i2), want)


# -- the batch axis -----------------------------------------------------------------


def _gated_model(seed=0, dtype=np.float32, **kw):
    m = BiSourceModel(small_config(**kw), seed=seed, dtype=dtype)
    rng = Rng(seed + 100)
    for name, p in m.registry.named().items():
        if name.endswith("gate"):
            p.assign(rng.uniform(p.value.shape, -0.5, 0.5, dtype))
    return m


def _batch(rng, b, head="binary", n_classes=2, hw=(32, 32)):
    samples = []
    for _ in range(b):
        i1, i2 = rand_pair(rng, hw)
        if head == "multiclass":
            target = rng.integers(0, n_classes, hw)
        elif head == "density":
            target = rng.uniform(hw, 0.0, 0.01).astype(np.float32)
        else:
            target = (rng.uniform(hw, 0.0, 1.0) > 0.5).astype(np.float32)
        samples.append((i1, i2, target))
    return samples


HEADS = {"binary": {}, "multiclass": {"head": "multiclass", "n_classes": 3}, "density": {"head": "density"}}


@pytest.mark.parametrize("head", sorted(HEADS))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_each_sample_of_a_batch_gets_its_output_alone(head, dtype):
    m = _gated_model(dtype=dtype, **HEADS[head])  # 32 px: one-row products at 1 x 1
    samples = _batch(Rng(40), 8, **HEADS[head])
    alone = [m.forward(m._as_input(i1), m._as_input(i2)).data.tobytes() for i1, i2, _ in samples]
    for b in (1, 2, 8):
        img1, img2, _ = m.stack_batch(samples[:b])
        out = m.forward(img1, img2).data
        assert out.shape[0] == b
        assert [out[i].tobytes() for i in range(b)] == alone[:b]


def _tape_records_per_step(monkeypatch, b: int) -> int:
    m = _gated_model()
    opt = AdamW(m.parameters(), lr=1e-3)
    counted = []
    record = Tape.record
    monkeypatch.setattr(Tape, "record", lambda tape, out, fn: counted.append(1) or record(tape, out, fn))
    train_step(m, _batch(Rng(41), b), opt)
    monkeypatch.setattr(Tape, "record", record)
    return len(counted)


def test_tape_records_per_train_step_do_not_grow_with_the_batch(monkeypatch):
    # one sample takes each prototype bank as it is; more take one copy a sample
    one, two = (_tape_records_per_step(monkeypatch, b) for b in (1, 2))
    assert one < two == _tape_records_per_step(monkeypatch, 8)
    assert two < 600


def test_batch_loss_is_the_mean_of_the_samples_losses():
    for head in sorted(HEADS):
        m = _gated_model(dtype=np.float64, **HEADS[head])
        samples = _batch(Rng(42), 3, **HEADS[head])
        img1, img2, target = m.stack_batch(samples)
        batched = m.loss(m.forward(img1, img2), target).item()
        each = [m.sample_loss(*s).item() for s in samples]
        assert batched == pytest.approx(sum(each) / 3, rel=1e-12, abs=0), head


def _per_sample_step_grads(m, samples):
    """Gradients of the mean of per-sample losses, each sample recorded after
    the previous one on one tape: a step of B forward passes of one pair."""
    for p in m.parameters():
        p.zero_grad()
    with Tape() as tape:
        total = m.sample_loss(*samples[0])
        for s in samples[1:]:
            total = T.add(total, m.sample_loss(*s))
        T.backward(T.mul_scalar(total, 1.0 / len(samples)), tape)
    return {p.name: p.grad.tobytes() for p in m.parameters()}


@pytest.mark.parametrize("head, b", [("binary", 8), ("binary", 3), ("density", 4), ("multiclass", 2)])
def test_a_batched_step_has_the_gradients_of_per_sample_steps(head, b):
    # each sample's products are its own, and the weight gradients add the
    # samples last first, as the records of per-sample passes run
    m = _gated_model(input_hw=(64, 64), **HEADS[head])
    samples = _batch(Rng(46), b, hw=(64, 64), **HEADS[head])
    want = _per_sample_step_grads(m, samples)
    train_step(m, samples, AdamW(m.parameters(), lr=0.0))
    assert {p.name: p.grad.tobytes() for p in m.parameters()} == want


def _backward_keeping_every_grad(loss, tape):
    # intermediate gradients freed only once the whole pass is done
    loss.grad = np.ones_like(loss.data)
    seeded = []
    for out, fn in reversed(tape._records):
        if out.grad is None:
            continue
        fn(out.grad)
        seeded.append(out)
    for t in seeded:
        t.grad = None
    tape.clear()


def test_backward_frees_each_gradient_once_its_closure_has_run():
    samples = _batch(Rng(43), 2)
    grads = []
    for run_backward in (_backward_keeping_every_grad, T.backward):
        m = _gated_model()
        for p in m.parameters():
            p.zero_grad()
        img1, img2, target = m.stack_batch(samples)
        with Tape() as tape:
            loss = m.loss(m.forward(img1, img2), target)
            records = tape._records
            outs = [out for out, _ in records]
            late = []

            def checked(i, fn):
                def run(g):
                    late.append(any(t.grad is not None for t in outs[i + 1:]))
                    fn(g)
                return run

            if run_backward is T.backward:
                records[:] = [(out, checked(i, fn)) for i, (out, fn) in enumerate(records)]
            run_backward(loss, tape)
        if run_backward is T.backward:
            assert late and not any(late)
            assert all(t.grad is None for t in outs)
        grads.append({p.name: p.grad.tobytes() for p in m.parameters()})
    assert grads[0] == grads[1]


def _held_by(fn) -> list:
    """Everything a closure holds, through the closures, lists and tuples it holds."""
    held, stack, seen = [], [fn], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        held.append(obj)
        if isinstance(obj, (list, tuple)):
            stack.extend(obj)
        for cell in getattr(obj, "__closure__", None) or ():
            try:
                stack.append(cell.cell_contents)
            except ValueError:  # a cell not yet bound
                pass
    return held


@pytest.mark.parametrize("head", sorted(HEADS))
def test_tape_records_hold_arrays_and_slots_not_tensors(head):
    # a record that held a Tensor would keep that Tensor's values until
    # backward reached it, whether or not its backward reads them
    m = _gated_model(input_hw=(64, 64), **HEADS[head])
    img1, img2, target = m.stack_batch(_batch(Rng(48), 2, hw=(64, 64), **HEADS[head]))
    with Tape() as tape:
        loss = m.loss(m.forward(img1, img2), target)
        held = [obj for _, fn in tape._records for obj in _held_by(fn)]
        assert len(tape._records) > 100
        assert not [obj for obj in held if isinstance(obj, T.Tensor)]
        assert any(isinstance(obj, np.ndarray) for obj in held)
        tape.clear()
    del loss


def _copying_concat_rows(concat_rows):
    """concat_rows as it was before one part was returned as it is: a copy
    of the part, recorded with a backward that passes the gradient on."""
    def concat(parts):
        if len(parts) > 1:
            return concat_rows(parts)
        (x,) = parts
        return T._out(x.data.copy(), lambda g: T._accum(x, g))
    return concat


@pytest.mark.parametrize("head", ["binary", "density"])
def test_a_single_sample_step_has_the_gradients_of_a_copied_prototype_bank(monkeypatch, head):
    m = _gated_model(input_hw=(64, 64), **HEADS[head])
    sample = _batch(Rng(47), 1, hw=(64, 64), **HEADS[head])[0]

    def grads():
        for p in m.parameters():
            p.zero_grad()
        with Tape() as tape:
            T.backward(m.sample_loss(*sample), tape)
        return {p.name: p.grad.tobytes() for p in m.parameters()}

    got = grads()
    assert any(np.any(p.grad) for p in m.parameters() if p.name.endswith("prototypes"))
    monkeypatch.setattr(T, "concat_rows", _copying_concat_rows(T.concat_rows))
    assert grads() == got


def test_train_step_checks_the_batch_before_the_tape_opens():
    m = _gated_model()
    opt = AdamW(m.parameters(), lr=1e-3)
    good = _batch(Rng(44), 3)
    small = _batch(Rng(45), 1, hw=(64, 64))[0]
    nan = good[1][0].copy()
    nan[3, 4] = np.nan
    cases = [
        ([], ValueError, "^train_step: empty batch$"),
        (good[:2] + [small], ShapeError, "sample 2: image shape"),
        ([good[0], (good[1][0], good[1][1], good[1][2][:16])], ShapeError, "sample 1: target shape"),
        ([good[0], (nan, good[1][1], good[1][2])], ValueError, "sample 1: img1: NaN"),
        ([good[0], good[1], (good[2][0], good[2][1][:, :8], good[2][2])], ShapeError, "sample 2: img2"),
    ]
    with Tape():  # a second Tape would raise RuntimeError if train_step reached it
        for batch, kind, message in cases:
            with pytest.raises(kind, match=message) as exc:
                train_step(m, batch, opt)
            assert type(exc.value) is kind
    assert opt.t == 0


def _checkpoint_with(tmp_path, header=None, arrays=None):
    m = BiSourceModel(small_config(), seed=0)
    path = tmp_path / "ckpt"
    save_tensor_dir(path, m.state_arrays() if arrays is None else arrays(m.state_arrays()),
                    {"model_config": m.config.to_json(), "seed": 0} if header is None else header)
    return path


@pytest.mark.parametrize("header, key", [
    ({}, "model_config"),
    ({"model_config": [1, 2]}, "model_config"),
    ({"model_config": {"head": "nope"}}, "model_config"),
    ({"model_config": {"bogus": 1}}, "model_config"),
    ({"model_config": small_config().to_json(), "seed": "x"}, "seed"),
])
def test_checkpoint_header_error_names_the_file_and_the_key(tmp_path, header, key):
    path = _checkpoint_with(tmp_path, header=header)
    with pytest.raises(ValueError) as exc:
        load_checkpoint(path)
    assert type(exc.value) is ValueError
    assert str(exc.value).startswith(str(path)) and key in str(exc.value)


def _drop_first(a):
    a.pop(next(iter(a)))
    return a


def _widen_first(a):
    name = next(iter(a))
    a[name] = np.zeros(a[name].shape + (1,), dtype=np.float32)
    return a


@pytest.mark.parametrize("arrays, fault", [
    (_drop_first, "missing"),
    (lambda a: {**a, "enc1.stale": np.zeros(3, dtype=np.float32)}, "unknown"),
    (_widen_first, "shape"),
])
def test_checkpoint_state_error_names_the_file(tmp_path, arrays, fault):
    path = _checkpoint_with(tmp_path, arrays=arrays)
    with pytest.raises(ValueError, match=fault) as exc:
        load_checkpoint(path)
    assert str(exc.value).startswith(str(path))


# -- accuracy at the benchmark's shapes ----------------------------------------------


OUTPUT_RTOL = 2e-5  # of the float64 replay's peak, as perfbench checks outputs


def _oracle_attention(q, k, v, scale, b=1):
    parts = zip(*(x.data.reshape(b, -1, x.shape[1]) for x in (q, k, v)))
    return Tensor(np.concatenate([oracles.attention(*part, scale) for part in parts]))


def _benchmark_model(head: str, size: int):
    """perfbench's model (base 16, K = 4, gates drawn from +-0.5) and its
    float64 replay with the same weights, whose attention is the oracle's."""
    m = _gated_model(base_channels=16, num_prototypes=4, head=head, input_hw=(size, size))
    replay = BiSourceModel(m.config, seed=m.seed, dtype=np.float64)
    replay.load_state(m.state_arrays())

    def replayed(run):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(T, "attention_rows", _oracle_attention)
            return run(replay)

    return m, replayed


def test_density_predict_at_256_px_matches_its_float64_replay():
    m, replayed = _benchmark_model("density", 256)
    for i, illumination in enumerate(("bright", "dark")):
        spec = data.DensitySceneSpec(256, 256, n_people=9, illumination=illumination, seed=i)
        img1, img2, _ = data.gen_density_pair(spec)
        got = m.predict(img1, img2).astype(np.float64)
        want = replayed(lambda r: r.predict(img1, img2))
        assert np.abs(got - want).max() <= OUTPUT_RTOL * np.abs(want).max(), illumination


def test_change_mask_at_64_px_matches_its_float64_replay_where_confident():
    m, replayed = _benchmark_model("binary", 64)
    for seed in range(4):
        img1, img2, _ = data.gen_change_pair(data.ChangeSceneSpec(seed=seed))
        mask = m.predict(img1, img2)
        logits = replayed(lambda r: r.forward(r._as_input(img1), r._as_input(img2))).data[..., 0]
        sure = np.abs(logits) > OUTPUT_RTOL * np.abs(logits).max()
        assert sure.mean() > 0.99
        np.testing.assert_array_equal(mask[sure] != 0, logits[sure] > 0)
