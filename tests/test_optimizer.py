"""AdamW over flat buffers: the per-parameter update's bits, where the
parameters' values and gradients live, and the errors of a bad set-up."""

import math

import numpy as np
import pytest

from bisource import AdamW, BiSourceModel, ModelConfig, train_step
from bisource.model import ADAMW_CHUNK, cosine_lr
from bisource.tensor import Rng

import oracles

STEPS = 5


def small_model(dtype=np.float32) -> BiSourceModel:
    config = ModelConfig(in_channels=1, base_channels=4, num_prototypes=2, input_hw=(32, 32))
    return BiSourceModel(config, seed=0, dtype=dtype)


def batches(n: int) -> list[list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """n batches of 2 random 32 px pairs with binary targets."""
    rng = Rng(31)
    return [[(rng.uniform((32, 32), 0.0, 1.0), rng.uniform((32, 32), 0.0, 1.0),
              (rng.uniform((32, 32), 0.0, 1.0) > 0.5).astype(np.float32)) for _ in range(2)]
            for _ in range(n)]


def flat(arrays) -> bytes:
    return b"".join(a.tobytes() for a in arrays)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_flat_adamw_has_the_bits_of_the_per_parameter_loop(dtype):
    model, twin = small_model(dtype), small_model(dtype)
    opt = AdamW(model.parameters(), lr=3e-3, weight_decay=0.01)
    ref = oracles.AdamWPerParameter(twin.parameters(), lr=3e-3, weight_decay=0.01)
    # more than one chunk, the last one short
    assert opt.values.size > ADAMW_CHUNK and opt.values.size % ADAMW_CHUNK
    names = [p.name for p in twin.parameters()]
    for step, batch in enumerate(batches(STEPS)):
        opt.lr = ref.lr = cosine_lr(3e-3, step, STEPS)
        assert train_step(model, batch, opt) == train_step(twin, batch, ref)
        for got, want in ((opt.values, [p.value.data for p in twin.parameters()]),
                          (opt.grads, [p.grad for p in twin.parameters()]),
                          (opt.m, [ref.m[n] for n in names]),
                          (opt.v, [ref.v[n] for n in names])):
            assert got.tobytes() == flat(want), f"step {step}"
    assert opt.t == ref.t == STEPS - 1  # the schedule's last lr is 0: a step that skips


def test_every_value_and_gradient_is_a_view_of_one_buffer_in_parameter_order():
    model = small_model()
    params = model.parameters()
    params[1].grad[...] = 2.0  # a gradient made before the optimizer is kept
    before = [p.value.data.copy() for p in params]
    opt = AdamW(params, lr=1e-3)
    for buffer, arrays in ((opt.values, [p.value.data for p in params]),
                           (opt.grads, [p.value.grad for p in params])):
        assert buffer.flags.c_contiguous and buffer.dtype == np.float32
        start = buffer.__array_interface__["data"][0]
        offset = 0
        for p, a in zip(params, arrays):
            assert a.flags.c_contiguous and a.base is buffer, p.name
            assert a.__array_interface__["data"][0] == start + offset * buffer.itemsize, p.name
            offset += a.size
        assert offset == buffer.size == model.num_parameters()
    assert all(np.array_equal(p.value.data, b) for p, b in zip(params, before))
    assert np.all(params[1].grad == 2.0)
    assert not np.any(params[0].grad) and not np.any(opt.m) and not np.any(opt.v)
    opt.zero_grad()
    assert not np.any(opt.grads) and params[1].value.grad.base is opt.grads


def test_a_step_whose_parameters_a_later_adamw_took_raises_naming_the_first():
    model = small_model()
    params = model.parameters()
    first = AdamW(params, lr=1e-3)
    second = AdamW(params[3:], lr=1e-3)
    before = model.state_arrays()
    train_step(model, batches(1)[0], second)
    after = model.state_arrays()
    assert any(not np.array_equal(before[n], after[n]) for n in before)
    with pytest.raises(ValueError) as exc:
        first.step()
    assert str(exc.value) == (
        f"AdamW.step: parameter {params[3].name} no longer holds this optimizer's "
        "buffers (taken by a later optimizer or rebound)")
    assert first.t == 0
    assert all(np.array_equal(after[n], a) for n, a in model.state_arrays().items())


def test_a_parameter_list_with_mixed_dtypes_raises():
    params = small_model().parameters()[:2] + small_model(np.float64).parameters()[2:4]
    with pytest.raises(ValueError, match=rf"parameter {params[2].name} is float64, "
                                         rf"but {params[0].name} is float32"):
        AdamW(params, lr=1e-3)


@pytest.mark.parametrize("kwargs,message", [
    ({"params": []}, "AdamW: params is empty"),
    ({"lr": math.nan}, "AdamW: lr must be finite and at least 0, found nan"),
    ({"lr": math.inf}, "AdamW: lr must be finite and at least 0, found inf"),
    ({"lr": -1e-3}, "AdamW: lr must be finite and at least 0, found -0.001"),
    ({"weight_decay": math.nan}, "AdamW: weight_decay must be finite and at least 0, found nan"),
    ({"weight_decay": math.inf}, "AdamW: weight_decay must be finite and at least 0, found inf"),
    ({"weight_decay": -0.01}, "AdamW: weight_decay must be finite and at least 0, found -0.01"),
    ({"betas": (1.0, 0.999)}, r"AdamW: betas must lie in [0, 1), found (1.0, 0.999)"),
    ({"betas": (0.9, -0.1)}, r"AdamW: betas must lie in [0, 1), found (0.9, -0.1)"),
    ({"betas": (math.nan, 0.999)}, r"AdamW: betas must lie in [0, 1), found (nan, 0.999)"),
    ({"eps": 0.0}, "AdamW: eps must be positive, found 0.0"),
    ({"eps": -1e-8}, "AdamW: eps must be positive, found -1e-08"),
    ({"eps": math.nan}, "AdamW: eps must be positive, found nan"),
], ids=lambda v: ",".join(f"{k}={a!r}" for k, a in v.items()) if isinstance(v, dict) else None)
def test_a_bad_argument_raises_one_error_naming_it(kwargs, message):
    model = small_model()
    args = {"params": model.parameters(), "lr": 1e-3} | kwargs
    before = [p.value.data for p in model.parameters()]
    with pytest.raises(ValueError) as exc:
        AdamW(**args)
    assert str(exc.value) == message
    # a rejected optimizer takes nothing
    assert all(p.value.data is b and p.value.grad is None for p, b in zip(model.parameters(), before))
