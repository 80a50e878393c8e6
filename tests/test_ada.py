"""Prototype attention: oracle equivalence, symmetries, gate behavior, cost model."""

import numpy as np
import pytest

from bisource import tensor as T
from bisource.ada import (
    INF_PROTOTYPES,
    AdaConfig,
    ParamRegistry,
    SourcePair,
    flops_of,
    make_attention,
)
from bisource.gradcheck import grad_check
from bisource.tensor import Rng, Tensor

import oracles

F64 = np.float64


def build(cfg, rng, L=None, form="ada", dtype=F64):
    """A standalone unit and the registry that holds its parameters."""
    reg = ParamRegistry(rng, dtype)
    return make_attention(form, cfg, reg, L), reg


def make_unit(seed, k=2, d=3, c=3, comp_op="consistency", L=4):
    cfg = AdaConfig(num_prototypes=k, proto_dim=d, feat_dim=c, comp_op=comp_op)
    return build(cfg, Rng(seed), L)


def make_pair(rng, L=4, c=3, h=2, w=2):
    return SourcePair(
        Tensor(rng.normal((L, c), dtype=F64)), Tensor(rng.normal((L, c), dtype=F64)), h, w
    )


def randomize_gates(reg, rng):
    for name, p in reg.named().items():
        if name.endswith("gate"):
            p.assign(rng.uniform(p.value.shape, -0.5, 0.5, F64))


# ---------------------------------------------------------------------------
# straight-line oracle equivalence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("comp_op", ["consistency", "difference", "identity"])
def test_forward_matches_straight_line_oracle_20_seeds(comp_op):
    for seed in range(20):
        rng = Rng(2000 + seed)
        unit, reg = make_unit(seed, comp_op=comp_op)
        randomize_gates(reg, rng)
        pair = make_pair(rng)
        slot = Tensor(rng.normal((4, 3), dtype=F64))
        got = unit.forward(pair, slot).data
        want = oracles.proto_forward(
            oracles.params_dict(reg), "ada", comp_op,
            pair.f1.data, pair.f2.data, 2, 2, slot.data,
        )
        np.testing.assert_allclose(got, want, atol=1e-10, rtol=0)


def test_std_attention_matches_oracle():
    for seed in range(10):
        rng = Rng(3000 + seed)
        cfg = AdaConfig(num_prototypes=1, proto_dim=3, feat_dim=3, comp_op="consistency")
        unit, reg = build(cfg, Rng(seed), form="std")
        randomize_gates(reg, rng)
        pair = make_pair(rng, L=9, h=3, w=3)
        slot = Tensor(rng.normal((9, 3), dtype=F64))
        got = unit.forward(pair, slot).data
        want = oracles.std_forward(
            oracles.params_dict(reg), "std", "consistency",
            pair.f1.data, pair.f2.data, 3, 3, slot.data,
        )
        np.testing.assert_allclose(got, want, atol=1e-10, rtol=0)


def test_std_attention_single_source_token():
    # with one key/value token the softmax weight is exactly 1
    rng = Rng(4)
    cfg = AdaConfig(num_prototypes=1, proto_dim=3, feat_dim=3, comp_op="identity")
    unit, reg = build(cfg, Rng(1), form="std")
    randomize_gates(reg, rng)
    pair = make_pair(rng, L=1, h=1, w=1)
    slot = Tensor(rng.normal((2, 3), dtype=F64))
    got = unit.forward(pair, slot).data
    p = oracles.params_dict(reg)
    z = np.broadcast_to(pair.f1.data[0] @ p["std.w_o"], (2, 3))
    gated = slot.data + p["std.gate"] * z
    want = slot.data + oracles.ffn(gated, p, "std.ffn")
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_aggregate_uniform_similarities_give_token_mean():
    # all source embeddings equal -> cosine row is constant -> uniform softmax
    unit, reg = make_unit(0, comp_op="identity")
    rng = Rng(88)
    row = rng.normal((3,), dtype=F64)
    k_fw = Tensor(np.tile(row, (4, 1)))
    v_fw = Tensor(rng.normal((4, 3), dtype=F64))
    got = unit.aggregate(k_fw, v_fw).data
    p = oracles.params_dict(reg)
    mix = np.tile(v_fw.data.mean(axis=0), (2, 1))  # uniform 1/L mixture
    want = oracles.ffn(mix @ p["ada.w_o_fw"], p, "ada.ffn_fw")
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_diffuse_single_prototype_softmax_is_one():
    out = T.softmax_rows(Tensor(np.asarray([[0.37], [-4.2]]))).data
    np.testing.assert_array_equal(out, 1.0)


# ---------------------------------------------------------------------------
# symmetries
# ---------------------------------------------------------------------------


def test_aggregation_permutation_invariance():
    unit, _ = make_unit(1)
    rng = Rng(10)
    k_fw = Tensor(rng.normal((6, 3), dtype=F64))
    v_fw = Tensor(rng.normal((6, 3), dtype=F64))
    base = unit.aggregate(k_fw, v_fw).data
    perm = Rng(11).permutation(6)
    permuted = unit.aggregate(Tensor(k_fw.data[perm]), Tensor(v_fw.data[perm])).data
    np.testing.assert_allclose(permuted, base, atol=1e-6)


def test_diffusion_row_equivariance():
    unit, reg = make_unit(2)
    rng = Rng(12)
    randomize_gates(reg, rng)
    p_tilde = Tensor(rng.normal((2, 3), dtype=F64))
    slot = Tensor(rng.normal((5, 3), dtype=F64))
    base = unit.diffuse(p_tilde, slot).data
    perm = Rng(13).permutation(5)
    permuted = unit.diffuse(p_tilde, Tensor(slot.data[perm])).data
    np.testing.assert_allclose(permuted, base[perm], atol=1e-12)


@pytest.mark.parametrize("comp_op", ["consistency", "difference"])
def test_comp_embed_source_swap_invariance(comp_op):
    unit, _ = make_unit(3, comp_op=comp_op)
    pair = make_pair(Rng(14))
    k1, v1 = unit.comp_embed(pair)
    k2, v2 = unit.comp_embed(pair.swapped())
    np.testing.assert_array_equal(k1.data, k2.data)
    np.testing.assert_array_equal(v1.data, v2.data)


def test_consistency_with_ones_is_first_stream_passthrough():
    # multiplying by an all-ones second stream leaves the base map equal to f1
    rng = Rng(15)
    f1 = Tensor(rng.normal((4, 3), dtype=F64))
    ones = Tensor(np.ones((4, 3), dtype=F64))
    unit, reg = make_unit(4, comp_op="consistency")
    k_a, v_a = unit.comp_embed(SourcePair(f1, ones, 2, 2))
    p = oracles.params_dict(reg)
    k_o, v_o = oracles.comp_embed(p, "ada.comp", f1.data, 2, 2)
    np.testing.assert_allclose(k_a.data, k_o, atol=1e-12)
    np.testing.assert_allclose(v_a.data, v_o, atol=1e-12)


def test_difference_identical_streams_projects_zeros():
    rng = Rng(16)
    f = Tensor(rng.normal((4, 3), dtype=F64))
    unit, reg = make_unit(5, comp_op="difference")
    k, v = unit.comp_embed(SourcePair(f, f, 2, 2))
    p = oracles.params_dict(reg)
    k_o, v_o = oracles.comp_embed(p, "ada.comp", np.zeros((4, 3)), 2, 2)
    np.testing.assert_allclose(k.data, k_o, atol=1e-12)
    np.testing.assert_allclose(v.data, v_o, atol=1e-12)


def test_comp_pooling_pyramid_matches_pixel_loop_oracle():
    rng = Rng(17)
    pair = make_pair(rng, L=16, h=4, w=4)
    unit, reg = make_unit(6, comp_op="consistency", L=16)
    k, v = unit.comp_embed(pair)
    p = oracles.params_dict(reg)
    k_o, v_o = oracles.comp_embed(p, "ada.comp", pair.f1.data * pair.f2.data, 4, 4)
    np.testing.assert_allclose(k.data, k_o, atol=1e-12)
    np.testing.assert_allclose(v.data, v_o, atol=1e-12)


# ---------------------------------------------------------------------------
# zero gate at construction
# ---------------------------------------------------------------------------


def test_zero_gate_output_independent_of_prototype_bank():
    unit, _ = make_unit(7)
    rng = Rng(18)
    pair = make_pair(rng)
    slot = Tensor(rng.normal((4, 3), dtype=F64))
    first = unit.forward(pair, slot).data.copy()
    unit.prototypes.assign(Rng(99).normal((2, 3), std=5.0, dtype=F64))
    second = unit.forward(pair, slot).data
    np.testing.assert_array_equal(first, second)


def test_zero_gate_identity_comp_gives_slot_plus_ffn():
    unit, reg = make_unit(8, comp_op="identity")
    rng = Rng(19)
    pair = make_pair(rng)
    slot = Tensor(rng.normal((4, 3), dtype=F64))
    got = unit.forward(pair, slot).data
    p = oracles.params_dict(reg)
    want = slot.data + oracles.ffn(slot.data, p, "ada.ffn_bw")
    np.testing.assert_allclose(got, want, atol=1e-12)


# ---------------------------------------------------------------------------
# configuration / sentinel behavior
# ---------------------------------------------------------------------------


def test_inf_sentinel_materializes_one_prototype_per_token():
    cfg = AdaConfig(num_prototypes=INF_PROTOTYPES, proto_dim=3, feat_dim=3)
    unit, _ = build(cfg, Rng(0), L=9)
    assert unit.k == 9
    assert unit.prototypes.value.shape == (9, 3)


def test_identity_comp_requires_matching_dims():
    # one check, shared by both attention forms
    cfg = AdaConfig(num_prototypes=2, proto_dim=4, feat_dim=3, comp_op="identity")
    for form in ("ada", "std"):
        with pytest.raises(ValueError, match="proto_dim == feat_dim"):
            build(cfg, Rng(0), L=4, form=form)


def test_config_validation():
    with pytest.raises(ValueError):
        AdaConfig(num_prototypes=0)
    with pytest.raises(ValueError):
        AdaConfig(comp_op="nope")


def test_default_smoke_on_8x8_grid():
    cfg = AdaConfig(num_prototypes=4, proto_dim=8, feat_dim=8)
    unit, _ = build(cfg, Rng(0), dtype=np.float32)
    rng = Rng(1)
    pair = SourcePair(
        Tensor(rng.normal((64, 8))), Tensor(rng.normal((64, 8))), 8, 8
    )
    out = unit.forward(pair, pair.f1)
    assert out.shape == (64, 8)
    assert np.isfinite(out.data).all()


# ---------------------------------------------------------------------------
# gradient checks on the full unit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 4])
def test_full_unit_gradient_check(k):
    rng = Rng(20 + k)
    cfg = AdaConfig(num_prototypes=k, proto_dim=8, feat_dim=8, comp_op="consistency")
    unit, reg = build(cfg, rng, L=16)
    randomize_gates(reg, rng)
    pair = make_pair(rng, L=16, c=8, h=4, w=4)
    slot = Tensor(rng.normal((16, 8), dtype=F64))

    def f():
        return T.sum_all(unit.forward(pair, slot))

    report = grad_check(f, reg.all(), h=1e-5, tol=1e-4,
                        max_elements_per_param=6)
    assert report.passed, report.summary()


# ---------------------------------------------------------------------------
# analytic cost model
# ---------------------------------------------------------------------------


def test_flops_affine_in_token_count():
    t = lambda L: flops_of("ada", L, L, 16, 16, K=4)["total"]
    assert t(2048) - t(1024) == t(3072) - t(2048)


def test_flops_token_part_doubles_exactly():
    f1 = flops_of("ada", 1000, 1000, 16, 16, K=4)
    f2 = flops_of("ada", 2000, 2000, 16, 16, K=4)
    assert f2["token_part"] == 2 * f1["token_part"]
    assert f2["proto_part"] == f1["proto_part"]
    assert f1["token_part"] + f1["proto_part"] == f1["total"]


def test_std_flops_superlinear():
    t = lambda L: flops_of("std", L, L, 16, 16)["total"]
    assert t(2048) > 2 * t(1024)
    # the quadratic term: second difference of a quadratic is a positive constant
    d2 = (t(3072) - t(2048)) - (t(2048) - t(1024))
    assert d2 > 0
    assert (t(4096) - t(3072)) - (t(3072) - t(2048)) == d2

