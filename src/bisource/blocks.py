"""Encoder-side consistency block and decoder-side difference block.

The consistency block runs prototype attention over both streams stacked
along the token axis (slot length 2*H*W) and splits the result back into the
two enhanced streams.  The difference block builds its slot by mixing the
two streams with the upsampled deeper decoder feature, then diffuses
absolute-difference information into it (slot length H*W).
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .ada import AdaConfig, Mlp, ParamRegistry, SourcePair, make_attention
from .tensor import Rng, Tensor


class ConsistencyBlock:
    def __init__(
        self,
        cfg: AdaConfig,
        reg: ParamRegistry,
        rng: Rng,
        num_source_tokens: int | None = None,
        name: str = "ceb",
        attention_form: str = "ada",
        dtype=np.float32,
    ) -> None:
        if cfg.comp_op not in ("consistency", "identity"):
            raise ValueError("consistency block requires consistency (or identity) comp_op")
        self.attn = make_attention(attention_form, cfg, reg, rng, num_source_tokens, name, dtype)

    def forward(self, s: SourcePair) -> tuple[Tensor, Tensor]:
        L = s.length
        slot = T.concat_rows([s.f1, s.f2])
        out = self.attn.forward(s, slot)
        return T.slice_rows(out, 0, L), T.slice_rows(out, L, 2 * L)


class DifferenceBlock:
    def __init__(
        self,
        cfg: AdaConfig,
        reg: ParamRegistry,
        rng: Rng,
        deeper_dim: int,
        num_source_tokens: int | None = None,
        name: str = "dab",
        mixer_only: bool = False,
        attention_form: str = "ada",
        dtype=np.float32,
    ) -> None:
        if cfg.comp_op not in ("difference", "identity"):
            raise ValueError("difference block requires difference (or identity) comp_op")
        c = cfg.feat_dim
        self.mixer = Mlp(reg, rng, 2 * c + deeper_dim, c, c, f"{name}.mixer", dtype)
        self.attn = None if mixer_only else make_attention(
            attention_form, cfg, reg, rng, num_source_tokens, name, dtype
        )

    def build_slot(self, s: SourcePair, deeper: Tensor, deeper_h: int, deeper_w: int) -> Tensor:
        if (deeper_h * 2, deeper_w * 2) != (s.h, s.w):
            raise T.ShapeError(
                f"deeper map {deeper_h}x{deeper_w} does not upsample to {s.h}x{s.w}"
            )
        cd = deeper.shape[-1]
        grid = T.reshape(deeper, (deeper_h, deeper_w, cd))
        up = T.bilinear_upsample_2x(grid)
        up = T.reshape(up, (s.h * s.w, cd))
        return self.mixer(T.concat_channels([s.f1, s.f2, up]))

    def forward(self, s: SourcePair, deeper: Tensor, deeper_h: int, deeper_w: int) -> Tensor:
        slot = self.build_slot(s, deeper, deeper_h, deeper_w)
        if self.attn is None:
            return slot
        return self.attn.forward(s, slot)
