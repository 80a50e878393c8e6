"""Prototype-bridged attention: aggregation into a small learnable prototype
bank followed by diffusion back into a slot sequence, with the two
complementarity front-ends (elementwise product / absolute difference,
pooled at three granularities).  A dense softmax-attention baseline with the
same front-end and residual wrapper is provided for scaling comparisons.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Parameter, Rng, Tensor

INF_PROTOTYPES = math.inf

COMP_OPS = ("consistency", "difference", "identity")


def prototype_count(value) -> float:
    """A prototype count as a float: a positive integer, an integral float, a
    digit string, or "inf" (INF_PROTOTYPES, one prototype per source token)."""
    if isinstance(value, str):
        if value.lower() == "inf":
            return INF_PROTOTYPES
        if value.isascii() and value.isdigit() and int(value) >= 1:
            return float(value)
    elif isinstance(value, numbers.Real) and not isinstance(value, bool):
        if value == INF_PROTOTYPES or (value >= 1 and float(value).is_integer()):
            return float(value)
    raise ValueError(f"prototype count must be a positive integer or 'inf', got {value!r}")


@dataclass
class AdaConfig:
    num_prototypes: float = 4  # math.inf = one prototype per source token
    proto_dim: int = 16
    feat_dim: int = 16
    ffn_expansion: int = 2
    comp_op: str = "consistency"

    def __post_init__(self) -> None:
        if self.comp_op not in COMP_OPS:
            raise ValueError(f"comp_op must be one of {COMP_OPS}")
        self.num_prototypes = prototype_count(self.num_prototypes)
        if self.proto_dim < 1 or self.feat_dim < 1:
            raise ValueError("dims must be >= 1")

    def resolve_k(self, num_source_tokens: int) -> int:
        if self.num_prototypes == INF_PROTOTYPES:
            return num_source_tokens
        return int(self.num_prototypes)


@dataclass
class SourcePair:
    """Two aligned token maps [b*L, C] of b samples, each sample's L = h*w
    tokens one after the other, with their spatial layout."""

    f1: Tensor
    f2: Tensor
    h: int
    w: int
    b: int = 1

    def __post_init__(self) -> None:
        if self.f1.shape != self.f2.shape:
            raise T.ShapeError(f"source shapes differ: {self.f1.shape} vs {self.f2.shape}")
        if self.f1.shape[0] != self.b * self.h * self.w:
            raise T.ShapeError(
                f"token count {self.f1.shape[0]} != {self.b}x{self.h}x{self.w}"
            )

    @property
    def length(self) -> int:
        return self.f1.shape[0]

    def swapped(self) -> "SourcePair":
        return SourcePair(self.f2, self.f1, self.h, self.w, self.b)


class ParamRegistry:
    """Ordered name -> Parameter map shared by all weight containers.

    It makes every parameter: initial values are drawn from ``rng`` in
    ``dtype``, in the order the containers ask for them.
    """

    def __init__(self, rng: Rng, dtype) -> None:
        self.rng = rng
        self.dtype = dtype
        self._params: dict[str, Parameter] = {}

    def make(self, name: str, shape, init: str) -> Parameter:
        if name in self._params:
            raise ValueError(f"duplicate parameter {name}")
        if init == "trunc_normal":
            data = self.rng.trunc_normal(shape, std=0.02, dtype=self.dtype)
        elif init == "zeros":
            data = np.zeros(shape, dtype=self.dtype)
        elif init == "ones":
            data = np.ones(shape, dtype=self.dtype)
        else:
            raise ValueError(init)
        p = Parameter(Tensor(data), name)
        self._params[name] = p
        return p

    def all(self) -> list[Parameter]:
        return list(self._params.values())

    def named(self) -> dict[str, Parameter]:
        return dict(self._params)


class Mlp:
    """norm -> linear(in -> hidden) -> GELU -> linear(hidden -> out)."""

    def __init__(self, reg: ParamRegistry, in_dim: int, hidden: int, out_dim: int, name: str) -> None:
        self.ln_g = reg.make(f"{name}.ln_g", (in_dim,), "ones")
        self.ln_b = reg.make(f"{name}.ln_b", (in_dim,), "zeros")
        self.w1 = reg.make(f"{name}.w1", (in_dim, hidden), "trunc_normal")
        self.b1 = reg.make(f"{name}.b1", (hidden,), "zeros")
        self.w2 = reg.make(f"{name}.w2", (hidden, out_dim), "trunc_normal")
        self.b2 = reg.make(f"{name}.b2", (out_dim,), "zeros")

    def __call__(self, x: Tensor, b: int) -> Tensor:
        """x holds b samples' rows, one sample after another."""
        return T.mlp(x, self.ln_g.value, self.ln_b.value, self.w1.value, self.b1.value,
                     self.w2.value, self.b2.value, b)


class CompWeights:
    """Complementarity front-end: combine the two streams (elementwise product
    for "consistency", absolute difference for "difference"), pool the result
    at windows {1, 3, 5}, normalize, project and split into (key, value)."""

    def __init__(self, reg: ParamRegistry, comp_op: str, feat_dim: int, proto_dim: int, name: str) -> None:
        self.product = comp_op == "consistency"  # else "difference"
        cin = 3 * feat_dim
        self.ln_g = reg.make(f"{name}.ln_g", (cin,), "ones")
        self.ln_b = reg.make(f"{name}.ln_b", (cin,), "zeros")
        self.proj = reg.make(f"{name}.proj", (cin, 2 * proto_dim), "trunc_normal")
        self.bias = reg.make(f"{name}.bias", (2 * proto_dim,), "zeros")
        self.proto_dim = proto_dim

    def __call__(self, s: SourcePair) -> tuple[Tensor, Tensor]:
        base = T.mul(s.f1, s.f2) if self.product else T.absdiff(s.f1, s.f2)
        c = base.shape[-1]
        grid = T.reshape(base, (s.b, s.h, s.w, c))
        p1 = T.avg_pool_2d(grid, 3)
        p2 = T.avg_pool_2d(grid, 5)
        stack = T.concat_channels([grid, p1, p2])
        flat = T.reshape(stack, (s.length, 3 * c))
        flat = T.layer_norm(flat, self.ln_g.value, self.ln_b.value, s.b)
        flat = T.linear(flat, self.proj.value, self.bias.value, s.b)
        d = self.proto_dim
        return T.slice_channels(flat, 0, d), T.slice_channels(flat, d, 2 * d)


class GatedAttention:
    """What both attention forms share: the complementarity front-end and the
    gated residual slot + FFN(slot + gate * z).

    A subclass creates its own weights in ``_make_weights``; the gate, the FFN
    and the comp weights follow, in that order.  The gate is zero at
    construction, so the unit is exactly slot + FFN(slot) until it trains.
    """

    ffn_name = "ffn"

    def __init__(self, cfg: AdaConfig, reg: ParamRegistry, name: str) -> None:
        d, c, r = cfg.proto_dim, cfg.feat_dim, cfg.ffn_expansion
        if cfg.comp_op == "identity" and d != c:
            raise ValueError("identity comp_op requires proto_dim == feat_dim")
        self.cfg = cfg
        self._make_weights(reg, name)
        self.gate = reg.make(f"{name}.gate", (c,), "zeros")
        self.ffn = Mlp(reg, c, r * c, c, f"{name}.{self.ffn_name}")
        self.comp = (
            None if cfg.comp_op == "identity"
            else CompWeights(reg, cfg.comp_op, c, d, f"{name}.comp")
        )

    def comp_embed(self, s: SourcePair) -> tuple[Tensor, Tensor]:
        if self.comp is None:
            return s.f1, s.f1  # identity: raw first-stream rows as key and value
        return self.comp(s)

    def gated_residual(self, slot: Tensor, z: Tensor, b: int) -> Tensor:
        gated = T.add(slot, T.scale_channels(z, self.gate.value, b))
        return T.add(slot, self.ffn(gated, b))


class ProtoAttention(GatedAttention):
    """One aggregation-diffusion unit; all learnable state lives here."""

    ffn_name = "ffn_bw"

    def __init__(
        self,
        cfg: AdaConfig,
        reg: ParamRegistry,
        num_source_tokens: int | None = None,
        name: str = "ada",
    ) -> None:
        self.k = cfg.resolve_k(num_source_tokens or 0)
        if self.k < 1:
            raise ValueError("resolved prototype count must be >= 1 (pass num_source_tokens for inf)")
        super().__init__(cfg, reg, name)

    def _make_weights(self, reg: ParamRegistry, name: str) -> None:
        k, d, c, r = self.k, self.cfg.proto_dim, self.cfg.feat_dim, self.cfg.ffn_expansion
        self.prototypes = reg.make(f"{name}.prototypes", (k, d), "trunc_normal")
        self.w_q_fw = reg.make(f"{name}.w_q_fw", (d, d), "trunc_normal")
        self.w_o_fw = reg.make(f"{name}.w_o_fw", (d, d), "trunc_normal")
        self.ffn_fw = Mlp(reg, d, r * d, d, f"{name}.ffn_fw")
        self.w_q_bw = reg.make(f"{name}.w_q_bw", (c, d), "trunc_normal")
        self.w_k_bw = reg.make(f"{name}.w_k_bw", (d, d), "trunc_normal")
        self.w_v_bw = reg.make(f"{name}.w_v_bw", (d, d), "trunc_normal")
        self.w_o_bw = reg.make(f"{name}.w_o_bw", (d, c), "trunc_normal")

    # -- stages ------------------------------------------------------------

    def aggregate(self, k_fw: Tensor, v_fw: Tensor, b: int = 1) -> Tensor:
        """Absorb each sample's source tokens into its own copy of the
        prototype bank (the bank itself at b = 1), as convex token
        mixtures: [b*L, D] -> [b*K, D]."""
        bank = T.concat_rows([self.prototypes.value] * b)
        q_fw = T.matmul(bank, self.w_q_fw.value, b)
        # softmax over each sample's tokens, per prototype
        agg = T.matmul(T.cosine_attention(q_fw, k_fw, v_fw, b), self.w_o_fw.value, b)
        return self.ffn_fw(agg, b)

    def diffuse(self, p_tilde: Tensor, slot: Tensor, b: int = 1) -> Tensor:
        """Reconstruct each sample's slot tokens as gated mixtures of its
        updated prototypes: p_tilde [b*K, D], slot [b*L', C]."""
        q_bw = T.matmul(slot, self.w_q_bw.value, b)
        k_bw = T.matmul(p_tilde, self.w_k_bw.value, b)
        v_bw = T.matmul(p_tilde, self.w_v_bw.value, b)
        # softmax over each sample's prototypes, per slot token
        z = T.matmul(T.cosine_attention(q_bw, k_bw, v_bw, b), self.w_o_bw.value, b)
        return self.gated_residual(slot, z, b)

    def forward(self, s: SourcePair, slot: Tensor) -> Tensor:
        k_fw, v_fw = self.comp_embed(s)
        p_tilde = self.aggregate(k_fw, v_fw, s.b)
        return self.diffuse(p_tilde, slot, s.b)


class StdAttention(GatedAttention):
    """Dense single-head scaled-dot-product baseline with the same
    complementarity front-end and residual + FFN wrapper."""

    def _make_weights(self, reg: ParamRegistry, name: str) -> None:
        d, c = self.cfg.proto_dim, self.cfg.feat_dim
        self.w_q = reg.make(f"{name}.w_q", (c, d), "trunc_normal")
        self.w_o = reg.make(f"{name}.w_o", (d, c), "trunc_normal")

    def forward(self, s: SourcePair, slot: Tensor) -> Tensor:
        keys, values = self.comp_embed(s)
        q = T.matmul(slot, self.w_q.value, s.b)
        scores = T.batch_matmul(q, T.transpose(keys, s.b), s.b)
        scores = T.mul_scalar(scores, 1.0 / math.sqrt(self.cfg.proto_dim))
        del q
        att = T.softmax_rows(scores)  # [b*L', L]
        del scores
        z = T.batch_matmul(att, values, s.b)
        del att, values
        return self.gated_residual(slot, T.matmul(z, self.w_o.value, s.b), s.b)


def make_attention(form: str, cfg: AdaConfig, reg: ParamRegistry, num_source_tokens: int | None = None,
                   name: str | None = None) -> GatedAttention:
    """Prototype ("ada") or dense ("std") attention, named ``form`` by default."""
    name = form if name is None else name
    if form == "ada":
        return ProtoAttention(cfg, reg, num_source_tokens, name)
    if form == "std":
        return StdAttention(cfg, reg, name)
    raise ValueError(f"attention form must be 'ada' or 'std', got {form!r}")


# ---------------------------------------------------------------------------
# analytic cost model (multiply-add counts, documented term by term)
# ---------------------------------------------------------------------------


def _ffn_flops(n: int, dim: int, r: int) -> int:
    # norm ~5 ops/elem, two projections, ~8 ops/elem for the activation
    hid = r * dim
    return n * (5 * dim + dim * hid + 8 * hid + hid * dim)


def _comp_flops(L: int, C: int, D: int) -> int:
    # product/diff, two pooled maps (integral-image adds ~4/elem each),
    # norm over 3C, projection 3C -> 2D
    return L * C + 2 * (4 * L * C) + 5 * L * 3 * C + L * 3 * C * 2 * D + L * 2 * D


def flops_of(
    variant: str,
    L: int,
    L_slot: int,
    D: int,
    C: int,
    K: int | None = None,
    expansion: int = 2,
    comp: bool = True,
) -> dict[str, float]:
    """Closed-form multiply-add counts per stage.

    Returns a breakdown with ``token_part`` (proportional to L / L_slot at
    fixed K, D, C) and ``proto_part`` (independent of token count).  For the
    "ada" variant token_part + proto_part == total; for "std" the remainder
    of ``total`` is the quadratic score/mixing term.
    """
    if min(L, L_slot, D, C) < 1:
        raise ValueError("extents must be positive")
    comp_ops = _comp_flops(L, C, D) if comp else 0
    if variant == "ada":
        if K is None or K < 1:
            raise ValueError("ada variant needs K >= 1")
        agg_tokens = L * D + 2 * K * L * D + 3 * K * L  # norms, cosine, softmax, mix
        agg_proto = 2 * K * D * D + K * D + _ffn_flops(K, D, expansion)
        diff_tokens = (
            L_slot * C * D  # slot query projection
            + L_slot * D  # query norms
            + L_slot * K * D  # cosine
            + 3 * L_slot * K  # softmax
            + L_slot * K * D  # prototype mixing
            + L_slot * D * C  # output projection
            + 4 * L_slot * C  # gate + residuals
            + _ffn_flops(L_slot, C, expansion)
        )
        diff_proto = 2 * K * D * D + K * D
        token_part = comp_ops + agg_tokens + diff_tokens
        proto_part = agg_proto + diff_proto
        return {
            "comp_ops": float(comp_ops),
            "aggregation": float(agg_tokens + agg_proto),
            "diffusion": float(diff_tokens + diff_proto),
            "token_part": float(token_part),
            "proto_part": float(proto_part),
            "total": float(token_part + proto_part),
        }
    if variant == "std":
        attention = (
            L_slot * C * D  # query projection
            + L_slot * L * D  # scores
            + 3 * L_slot * L  # softmax
            + L_slot * L * D  # value mixing
            + L_slot * D * C  # output projection
        )
        wrapper = 4 * L_slot * C + _ffn_flops(L_slot, C, expansion)
        total = comp_ops + attention + wrapper
        return {
            "comp_ops": float(comp_ops),
            "attention": float(attention),
            "wrapper": float(wrapper),
            "token_part": float(comp_ops + wrapper + 2 * L_slot * C * D),
            "proto_part": 0.0,
            "total": float(total),
        }
    raise ValueError(f"unknown variant {variant!r}")

