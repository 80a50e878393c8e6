"""Consistency and difference blocks: slot construction, symmetries, gradients."""

import numpy as np
import pytest

from bisource import tensor as T
from bisource.ada import AdaConfig, ParamRegistry, SourcePair
from bisource.blocks import ConsistencyBlock, DifferenceBlock
from bisource.gradcheck import grad_check
from bisource.tensor import Rng, ShapeError, Tensor

import oracles

F64 = np.float64


def make_pair(rng, L=16, c=4, h=4, w=4):
    return SourcePair(
        Tensor(rng.normal((L, c), dtype=F64)), Tensor(rng.normal((L, c), dtype=F64)), h, w
    )


def build_ceb(seed, c=4, k=2, L=16, attention_form="ada"):
    cfg = AdaConfig(num_prototypes=k, proto_dim=c, feat_dim=c, comp_op="consistency")
    reg = ParamRegistry(Rng(seed), F64)
    blk = ConsistencyBlock(cfg, reg, num_source_tokens=L, attention_form=attention_form)
    return blk, reg


def build_dab(seed, c=4, k=2, L=16, deeper_dim=6, mixer_only=False, attention_form="ada"):
    cfg = AdaConfig(num_prototypes=k, proto_dim=c, feat_dim=c, comp_op="difference")
    reg = ParamRegistry(Rng(seed), F64)
    blk = DifferenceBlock(cfg, reg, deeper_dim=deeper_dim, num_source_tokens=L,
                          mixer_only=mixer_only, attention_form=attention_form)
    return blk, reg


def ceb_streams(blk, pair):
    """The consistency block's two enhanced streams for one sample's pair."""
    out = blk.forward(pair, T.concat_rows([pair.f1, pair.f2]))
    n = pair.length
    return T.slice_rows(out, 0, n), T.slice_rows(out, n, 2 * n)


def randomize_gates(reg, rng):
    for name, p in reg.named().items():
        if name.endswith("gate"):
            p.assign(rng.uniform(p.value.shape, -0.5, 0.5, F64))


# ---------------------------------------------------------------------------
# consistency block
# ---------------------------------------------------------------------------


def test_ceb_swap_equivariance_exact():
    blk, reg = build_ceb(0)
    randomize_gates(reg, Rng(1))
    pair = make_pair(Rng(2))
    a1, a2 = ceb_streams(blk, pair)
    b1, b2 = ceb_streams(blk, pair.swapped())
    np.testing.assert_array_equal(a1.data, b2.data)
    np.testing.assert_array_equal(a2.data, b1.data)


def test_ceb_zero_gate_streams_do_not_mix():
    blk, _ = build_ceb(3)  # gate stays zero as constructed
    rng = Rng(4)
    f1 = Tensor(rng.normal((16, 4), dtype=F64))
    f2a = Tensor(rng.normal((16, 4), dtype=F64))
    f2b = Tensor(rng.normal((16, 4), dtype=F64))
    out_a1, _ = ceb_streams(blk, SourcePair(f1, f2a, 4, 4))
    out_b1, _ = ceb_streams(blk, SourcePair(f1, f2b, 4, 4))
    np.testing.assert_array_equal(out_a1.data, out_b1.data)


def test_ceb_zero_gate_is_per_row_residual_ffn():
    blk, reg = build_ceb(5)
    pair = make_pair(Rng(6))
    out1, out2 = ceb_streams(blk, pair)
    p = oracles.params_dict(reg)
    np.testing.assert_allclose(
        out1.data, pair.f1.data + oracles.ffn(pair.f1.data, p, "ceb.ffn_bw"),
        atol=1e-12,
    )
    np.testing.assert_allclose(
        out2.data, pair.f2.data + oracles.ffn(pair.f2.data, p, "ceb.ffn_bw"),
        atol=1e-12,
    )


def test_ceb_matches_composed_stage_oracle():
    blk, reg = build_ceb(7, c=8, L=16)
    randomize_gates(reg, Rng(8))
    pair = make_pair(Rng(9), c=8)
    out1, out2 = ceb_streams(blk, pair)
    p = oracles.params_dict(reg)
    slot = np.concatenate([pair.f1.data, pair.f2.data], axis=0)
    want = oracles.proto_forward(
        p, "ceb", "consistency", pair.f1.data, pair.f2.data, 4, 4, slot
    )
    np.testing.assert_allclose(out1.data, want[:16], atol=1e-10, rtol=0)
    np.testing.assert_allclose(out2.data, want[16:], atol=1e-10, rtol=0)


# ---------------------------------------------------------------------------
# difference block
# ---------------------------------------------------------------------------


def test_dab_prototype_path_swap_invariant():
    blk, reg = build_dab(10)
    pair = make_pair(Rng(11))
    k1, v1 = blk.attn.comp_embed(pair)
    ks, vs = blk.attn.comp_embed(pair.swapped())
    np.testing.assert_array_equal(k1.data, ks.data)
    np.testing.assert_array_equal(v1.data, vs.data)
    p1 = blk.attn.aggregate(k1, v1).data
    p2 = blk.attn.aggregate(ks, vs).data
    np.testing.assert_array_equal(p1, p2)


def test_dab_zero_gate_independent_of_difference_branch():
    blk, reg = build_dab(12)  # zero gate
    rng = Rng(13)
    pair = make_pair(rng)
    deeper = Tensor(rng.normal((4, 6), dtype=F64))
    first = blk.forward(pair, deeper, 2, 2).data.copy()
    blk.attn.prototypes.assign(Rng(77).normal((2, 4), std=3.0, dtype=F64))
    second = blk.forward(pair, deeper, 2, 2).data
    np.testing.assert_array_equal(first, second)


def test_dab_identical_streams_still_well_defined():
    blk, reg = build_dab(14)
    randomize_gates(reg, Rng(15))
    rng = Rng(16)
    f = Tensor(rng.normal((16, 4), dtype=F64))
    deeper = Tensor(rng.normal((4, 6), dtype=F64))
    out = blk.forward(SourcePair(f, f, 4, 4), deeper, 2, 2)
    assert out.shape == (16, 4)
    assert np.isfinite(out.data).all()


def test_dab_matches_composed_oracle():
    blk, reg = build_dab(17)
    randomize_gates(reg, Rng(18))
    rng = Rng(19)
    pair = make_pair(rng)
    deeper = Tensor(rng.normal((4, 6), dtype=F64))
    got = blk.forward(pair, deeper, 2, 2).data
    p = oracles.params_dict(reg)
    up = oracles.bilinear_up2_loops(deeper.data.reshape(2, 2, 6)).reshape(16, 6)
    mixer_in = np.concatenate([pair.f1.data, pair.f2.data, up], axis=-1)
    h = oracles.layer_norm(mixer_in, p["dab.mixer.ln_g"], p["dab.mixer.ln_b"])
    h = oracles.gelu(h @ p["dab.mixer.w1"] + p["dab.mixer.b1"])
    slot = h @ p["dab.mixer.w2"] + p["dab.mixer.b2"]
    want = oracles.proto_forward(
        p, "dab", "difference", pair.f1.data, pair.f2.data, 4, 4, slot
    )
    np.testing.assert_allclose(got, want, atol=1e-10, rtol=0)


def test_dab_mixer_only_variant_skips_attention():
    blk, reg = build_dab(20, mixer_only=True)
    rng = Rng(21)
    pair = make_pair(rng)
    deeper = Tensor(rng.normal((4, 6), dtype=F64))
    got = blk.forward(pair, deeper, 2, 2).data
    want = blk.build_slot(pair, deeper, 2, 2).data
    np.testing.assert_array_equal(got, want)
    assert blk.attn is None


def test_dab_spatial_mismatch_raises():
    blk, _ = build_dab(22)
    rng = Rng(23)
    pair = make_pair(rng)
    deeper = Tensor(rng.normal((9, 6), dtype=F64))
    with pytest.raises(ShapeError):
        blk.forward(pair, deeper, 3, 3)


# ---------------------------------------------------------------------------
# gradient checks (4x4 spatial inputs)
# ---------------------------------------------------------------------------


def test_ceb_gradient_check():
    blk, reg = build_ceb(24)
    rng = Rng(25)
    randomize_gates(reg, rng)
    pair = make_pair(rng)

    def f():
        o1, o2 = ceb_streams(blk, pair)
        return T.sum_all(T.add(o1, o2))

    report = grad_check(f, reg.all(), h=1e-5, tol=1e-4, max_elements_per_param=6)
    assert report.passed, report.summary()


def test_dab_gradient_check():
    blk, reg = build_dab(26)
    rng = Rng(27)
    randomize_gates(reg, rng)
    pair = make_pair(rng)
    deeper = Tensor(rng.normal((4, 6), dtype=F64))

    def f():
        return T.sum_all(blk.forward(pair, deeper, 2, 2))

    report = grad_check(f, reg.all(), h=1e-5, tol=1e-4, max_elements_per_param=6)
    assert report.passed, report.summary()


def test_std_attention_block_variants_run():
    blk, reg = build_ceb(28, attention_form="std")
    pair = make_pair(Rng(29))
    o1, o2 = ceb_streams(blk, pair)
    assert o1.shape == o2.shape == (16, 4)
    dblk, dreg = build_dab(30, attention_form="std")
    rng = Rng(31)
    deeper = Tensor(rng.normal((4, 6), dtype=F64))
    out = dblk.forward(make_pair(rng), deeper, 2, 2)
    assert out.shape == (16, 4)
