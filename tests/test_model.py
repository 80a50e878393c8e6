"""End-to-end model tests: shapes, symmetry, losses, training, checkpoints."""

import gc
import hashlib
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from bisource import (
    AdamW,
    BiSourceModel,
    ModelConfig,
    Tensor,
    ablation_variant,
    train_step,
)
from bisource.ada import INF_PROTOTYPES
from bisource.model import cosine_lr
from bisource.tensor import NumericalError, Rng, Tape, alloc_stats
from bisource.io import save_tensor_dir, load_tensor_dir


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
SEEDED_PARAM_DIGESTS = {
    "binary": ({}, 260, "0ba4d9a4d4122a7df6733c5d9a1bad6d"),
    "std": ({"attention_form": "std"}, 183, "9adacda12a50e39c2d364f013671719a"),
    "multiclass": ({"head": "multiclass", "n_classes": 3}, 260, "0edd4e02811b2d051d3b460eb3f93c5a"),
    "density": ({"head": "density"}, 260, "0ba4d9a4d4122a7df6733c5d9a1bad6d"),
    "ablate_all": ({"ablate": ("ceb", "dab", "compops")}, 92, "539eee47efc1bac595022cbae5b549f2"),
    "k_inf_32": ({"num_prototypes": INF_PROTOTYPES, "input_hw": (32, 32)}, 260,
                 "3ef54e1a63cf9642799c2643531840e9"),
}


@pytest.mark.parametrize("label", sorted(SEEDED_PARAM_DIGESTS))
def test_seeded_parameters_are_pinned(label):
    kw, count, digest = SEEDED_PARAM_DIGESTS[label]
    m = BiSourceModel(ModelConfig(base_channels=8, **kw), seed=3)
    h = hashlib.blake2b(digest_size=16)
    for p in m.parameters():
        a = p.value.data
        h.update(p.name.encode())
        h.update(str(a.shape).encode())
        h.update(str(a.dtype).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    assert len(m.parameters()) == count
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


def test_live_elements_return_to_baseline():
    assert _live_elements_after(lambda: _predict_run(2)) == 0
    assert _live_elements_after(lambda: _train_run(2)) == 0
    assert _live_elements_after(lambda: _in_threads(_predict_run, _predict_run, _predict_run)) == 0


def test_nan_in_a_layer_norm_gain_names_the_op():
    m = BiSourceModel(small_config(), seed=0)
    gain = next(p for p in m.parameters() if p.name.endswith("ln_g"))
    bad = gain.value.data.copy()
    bad[0] = np.nan
    gain.assign(bad)
    with pytest.raises(NumericalError, match="layer_norm"):
        m.predict(*rand_pair(Rng(5)))
