"""Encoder-side consistency block and decoder-side difference block.

The consistency block runs prototype attention over both streams stacked
along the token axis: each sample's slot is its source-1 tokens, then its
source-2 tokens (2*H*W rows), the layout the encoder already holds.  The
difference block builds its slot by mixing the two streams with the
upsampled deeper decoder feature, then diffuses absolute-difference
information into it (slot length H*W).  Both take b samples at once.
"""

from __future__ import annotations

from . import tensor as T
from .ada import AdaConfig, Mlp, ParamRegistry, SourcePair, make_attention
from .tensor import Tensor


class ConsistencyBlock:
    def __init__(
        self,
        cfg: AdaConfig,
        reg: ParamRegistry,
        num_source_tokens: int | None = None,
        name: str = "ceb",
        attention_form: str = "ada",
    ) -> None:
        if cfg.comp_op not in ("consistency", "identity"):
            raise ValueError("consistency block requires consistency (or identity) comp_op")
        self.attn = make_attention(attention_form, cfg, reg, num_source_tokens, name)

    def forward(self, s: SourcePair, slot: Tensor) -> Tensor:
        """Both streams enhanced, in the layout of ``slot``: for each of the
        s.b samples, its s.f1 rows, then its s.f2 rows."""
        return self.attn.forward(s, slot)


class DifferenceBlock:
    def __init__(
        self,
        cfg: AdaConfig,
        reg: ParamRegistry,
        deeper_dim: int,
        num_source_tokens: int | None = None,
        name: str = "dab",
        mixer_only: bool = False,
        attention_form: str = "ada",
    ) -> None:
        if cfg.comp_op not in ("difference", "identity"):
            raise ValueError("difference block requires difference (or identity) comp_op")
        c = cfg.feat_dim
        self.mixer = Mlp(reg, 2 * c + deeper_dim, c, c, f"{name}.mixer")
        self.attn = None if mixer_only else make_attention(
            attention_form, cfg, reg, num_source_tokens, name
        )

    def build_slot(self, s: SourcePair, deeper: Tensor, deeper_h: int, deeper_w: int) -> Tensor:
        if (deeper_h * 2, deeper_w * 2) != (s.h, s.w):
            raise T.ShapeError(
                f"deeper map {deeper_h}x{deeper_w} does not upsample to {s.h}x{s.w}"
            )
        cd = deeper.shape[-1]
        grid = T.reshape(deeper, (s.b, deeper_h, deeper_w, cd))
        up = T.bilinear_upsample_2x(grid)
        up = T.reshape(up, (s.length, cd))
        return self.mixer(T.concat_channels([s.f1, s.f2, up]), s.b)

    def forward(self, s: SourcePair, deeper: Tensor, deeper_h: int, deeper_w: int) -> Tensor:
        slot = self.build_slot(s, deeper, deeper_h, deeper_w)
        if self.attn is None:
            return slot
        return self.attn.forward(s, slot)
