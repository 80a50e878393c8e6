"""Toy-scale bi-source model: siamese 4-stage encoder with consistency
blocks, linear deepest fusion, a cascade of difference blocks, and a light
task head.  Trains with AdamW on binary/multiclass cross-entropy or a
density regression loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import tensor as T
from .ada import AdaConfig, Ffn, INF_PROTOTYPES, ParamRegistry, SourcePair
from .blocks import ConsistencyBlock, DifferenceBlock
from .tensor import NumericalError, Parameter, Rng, Tape, Tensor, backward

PATCH = 4
NUM_STAGES = 4
DIVISOR = 32  # patch stride 4 x three 2x merges

HEAD_KINDS = ("binary", "multiclass", "density")
ABLATIONS = ("ceb", "dab", "compops")


@dataclass
class ModelConfig:
    in_channels: int = 1
    base_channels: int = 16
    num_prototypes: float = 4  # inf allowed; "std" attention via attention_form
    attention_form: str = "ada"  # "ada" | "std"
    ffn_expansion: int = 2
    head: str = "binary"
    n_classes: int = 2
    input_hw: tuple[int, int] = (64, 64)
    ablate: tuple[str, ...] = ()
    count_loss_weight: float = 0.1

    def __post_init__(self) -> None:
        if self.head not in HEAD_KINDS:
            raise ValueError(f"head must be one of {HEAD_KINDS}")
        for a in self.ablate:
            if a not in ABLATIONS:
                raise ValueError(f"unknown ablation {a!r}")
        if self.attention_form not in ("ada", "std"):
            raise ValueError("attention_form must be 'ada' or 'std'")
        h, w = self.input_hw
        if h % DIVISOR or w % DIVISOR:
            raise ValueError(
                f"input extents must be divisible by {DIVISOR}, got {h}x{w}"
            )
        self.ablate = tuple(self.ablate)
        self.input_hw = tuple(self.input_hw)

    def to_json(self) -> dict:
        d = asdict(self)
        if math.isinf(d["num_prototypes"]):
            d["num_prototypes"] = "inf"
        d["ablate"] = list(self.ablate)
        d["input_hw"] = list(self.input_hw)
        return d

    @classmethod
    def from_json(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        if d.get("num_prototypes") == "inf":
            d["num_prototypes"] = INF_PROTOTYPES
        d["ablate"] = tuple(d.get("ablate", ()))
        d["input_hw"] = tuple(d.get("input_hw", (64, 64)))
        return cls(**d)


class SelfAttention:
    """Pre-norm single-head self-attention used inside encoder stages.

    Dense over all tokens.  At inference (no Tape active) the scores are built
    in blocks of query rows, so a 4096-token stage never holds the full
    4096 x 4096 score matrix; training keeps the taped op chain.
    """

    def __init__(self, reg: ParamRegistry, rng: Rng, dim: int, name: str, dtype) -> None:
        self.dim = dim
        self.ln_g = reg.make(rng, f"{name}.ln_g", (dim,), "ones", dtype)
        self.ln_b = reg.make(rng, f"{name}.ln_b", (dim,), "zeros", dtype)
        self.w_q = reg.make(rng, f"{name}.w_q", (dim, dim), "trunc_normal", dtype)
        self.w_k = reg.make(rng, f"{name}.w_k", (dim, dim), "trunc_normal", dtype)
        self.w_v = reg.make(rng, f"{name}.w_v", (dim, dim), "trunc_normal", dtype)
        self.w_o = reg.make(rng, f"{name}.w_o", (dim, dim), "trunc_normal", dtype)

    def __call__(self, x: Tensor) -> Tensor:
        h = T.layer_norm(x, self.ln_g.value, self.ln_b.value)
        q = T.matmul(h, self.w_q.value)
        k = T.matmul(h, self.w_k.value)
        v = T.matmul(h, self.w_v.value)
        att = T.attention_rows(q, k, v, 1.0 / math.sqrt(self.dim))
        return T.matmul(att, self.w_o.value)


class EncoderStage:
    """Patch embed (stage 1) or 2x patch merge, then one pre-norm block."""

    def __init__(self, reg: ParamRegistry, rng: Rng, in_dim: int, out_dim: int, merge_factor: int, name: str, dtype) -> None:
        self.merge_factor = merge_factor
        merged = merge_factor * merge_factor * in_dim
        self.merge_ln_g = reg.make(rng, f"{name}.merge_ln_g", (merged,), "ones", dtype)
        self.merge_ln_b = reg.make(rng, f"{name}.merge_ln_b", (merged,), "zeros", dtype)
        self.merge_w = reg.make(rng, f"{name}.merge_w", (merged, out_dim), "trunc_normal", dtype)
        self.merge_b = reg.make(rng, f"{name}.merge_b", (out_dim,), "zeros", dtype)
        self.attn = SelfAttention(reg, rng, out_dim, f"{name}.attn", dtype)
        self.ffn = Ffn(reg, rng, out_dim, 2, f"{name}.ffn", dtype)
        self.out_dim = out_dim

    def __call__(self, x: Tensor, h: int, w: int) -> tuple[Tensor, int, int]:
        grid = T.reshape(x, (h, w, x.shape[-1]))
        grid = T.space_to_depth(grid, self.merge_factor)
        hh, ww = h // self.merge_factor, w // self.merge_factor
        flat = T.reshape(grid, (hh * ww, grid.shape[-1]))
        flat = T.layer_norm(flat, self.merge_ln_g.value, self.merge_ln_b.value)
        flat = T.add_bias(T.matmul(flat, self.merge_w.value), self.merge_b.value)
        flat = T.add(flat, self.attn(flat))
        flat = T.add(flat, self.ffn(flat))
        return flat, hh, ww


class TaskHead:
    """norm -> linear -> GELU -> linear, then bilinear upsampling to input."""

    def __init__(self, reg: ParamRegistry, rng: Rng, dim: int, kind: str, n_classes: int, name: str, dtype) -> None:
        self.kind = kind
        out_dim = {"binary": 1, "density": 1, "multiclass": n_classes}[kind]
        self.ln_g = reg.make(rng, f"{name}.ln_g", (dim,), "ones", dtype)
        self.ln_b = reg.make(rng, f"{name}.ln_b", (dim,), "zeros", dtype)
        self.w1 = reg.make(rng, f"{name}.w1", (dim, dim), "trunc_normal", dtype)
        self.b1 = reg.make(rng, f"{name}.b1", (dim,), "zeros", dtype)
        self.w2 = reg.make(rng, f"{name}.w2", (dim, out_dim), "trunc_normal", dtype)
        self.b2 = reg.make(rng, f"{name}.b2", (out_dim,), "zeros", dtype)
        self.out_dim = out_dim

    def __call__(self, x: Tensor, h: int, w: int) -> Tensor:
        y = T.layer_norm(x, self.ln_g.value, self.ln_b.value)
        y = T.gelu(T.add_bias(T.matmul(y, self.w1.value), self.b1.value))
        y = T.add_bias(T.matmul(y, self.w2.value), self.b2.value)
        grid = T.reshape(y, (h, w, self.out_dim))
        grid = T.bilinear_upsample_2x(grid)
        grid = T.bilinear_upsample_2x(grid)
        if self.kind == "density":
            grid = T.relu(grid)
        return grid  # [4h, 4w, out_dim]


class BiSourceModel:
    def __init__(self, config: ModelConfig, seed: int = 0, dtype=np.float32) -> None:
        self.config = config
        self.seed = seed
        self.dtype = dtype
        reg = ParamRegistry()
        rng = Rng(seed)
        c = config.base_channels
        in_h, in_w = config.input_hw
        comp_con = "identity" if "compops" in config.ablate else "consistency"
        comp_diff = "identity" if "compops" in config.ablate else "difference"

        self.stage_dims = [c, 2 * c, 4 * c, 8 * c]
        self.stages: list[EncoderStage] = []
        self.cebs: list[ConsistencyBlock | None] = []
        prev = config.in_channels
        h, w = in_h, in_w
        for i, dim in enumerate(self.stage_dims):
            factor = PATCH if i == 0 else 2
            self.stages.append(
                EncoderStage(reg, rng, prev, dim, factor, f"enc{i + 1}", dtype)
            )
            h, w = h // factor, w // factor
            if "ceb" in config.ablate:
                self.cebs.append(None)
            else:
                cfg = AdaConfig(
                    num_prototypes=config.num_prototypes,
                    proto_dim=dim,
                    feat_dim=dim,
                    ffn_expansion=config.ffn_expansion,
                    comp_op=comp_con,
                )
                self.cebs.append(
                    ConsistencyBlock(
                        cfg, reg, rng, num_source_tokens=h * w, name=f"ceb{i + 1}",
                        attention_form=config.attention_form, dtype=dtype,
                    )
                )
            prev = dim

        deep = self.stage_dims[-1]
        self.fuse_ln_g = reg.make(rng, "fuse.ln_g", (2 * deep,), "ones", dtype)
        self.fuse_ln_b = reg.make(rng, "fuse.ln_b", (2 * deep,), "zeros", dtype)
        self.fuse_w = reg.make(rng, "fuse.w", (2 * deep, deep), "trunc_normal", dtype)
        self.fuse_b = reg.make(rng, "fuse.b", (deep,), "zeros", dtype)

        self.dabs: list[DifferenceBlock] = []
        hw = (in_h // DIVISOR, in_w // DIVISOR)
        for level in (2, 1, 0):  # decoder levels 3, 2, 1 (0-based stage index)
            dim = self.stage_dims[level]
            cfg = AdaConfig(
                num_prototypes=config.num_prototypes,
                proto_dim=dim,
                feat_dim=dim,
                ffn_expansion=config.ffn_expansion,
                comp_op=comp_diff,
            )
            lvl_tokens = (in_h // (PATCH * 2**level)) * (in_w // (PATCH * 2**level))
            self.dabs.append(
                DifferenceBlock(
                    cfg,
                    reg,
                    rng,
                    deeper_dim=self.stage_dims[level + 1],
                    num_source_tokens=lvl_tokens,
                    name=f"dab{level + 1}",
                    mixer_only="dab" in config.ablate,
                    attention_form=config.attention_form,
                    dtype=dtype,
                )
            )

        self.head = TaskHead(
            reg, rng, self.stage_dims[0], config.head, config.n_classes, "head", dtype
        )
        self.registry = reg

    # -- forward ------------------------------------------------------------

    def encode(self, img1: Tensor, img2: Tensor) -> list[SourcePair]:
        h, w, _ = img1.shape
        if h % DIVISOR or w % DIVISOR:
            raise T.ShapeError(f"input extents must be divisible by {DIVISOR}, got {h}x{w}")
        x1 = T.reshape(img1, (h * w, img1.shape[-1]))
        x2 = T.reshape(img2, (h * w, img2.shape[-1]))
        pairs: list[SourcePair] = []
        for stage, ceb in zip(self.stages, self.cebs):
            x1, hh, ww = stage(x1, h, w)
            x2, _, _ = stage(x2, h, w)
            h, w = hh, ww
            pair = SourcePair(x1, x2, h, w)
            if ceb is not None:
                x1, x2 = ceb.forward(pair)
                pair = SourcePair(x1, x2, h, w)
            pairs.append(pair)
        return pairs

    def decode(self, pairs: list[SourcePair]) -> Tensor:
        deepest = pairs[-1]
        fused = T.concat_channels([deepest.f1, deepest.f2])
        fused = T.layer_norm(fused, self.fuse_ln_g.value, self.fuse_ln_b.value)
        fused = T.add_bias(T.matmul(fused, self.fuse_w.value), self.fuse_b.value)
        x, xh, xw = fused, deepest.h, deepest.w
        for dab, level in zip(self.dabs, (2, 1, 0)):
            pair = pairs[level]
            x = dab.forward(pair, x, xh, xw)
            xh, xw = pair.h, pair.w
        return self.head(x, xh, xw)

    def forward(self, img1: Tensor, img2: Tensor) -> Tensor:
        return self.decode(self.encode(img1, img2))

    def predict(self, img1: np.ndarray, img2: np.ndarray) -> np.ndarray:
        """Inference: binary -> {0,1} mask, multiclass -> class map, density -> map."""
        out = self.forward(self._as_input(img1), self._as_input(img2)).data
        if self.config.head == "binary":
            return (out[..., 0] > 0.0).astype(np.uint8)
        if self.config.head == "multiclass":
            return out.argmax(axis=-1).astype(np.int64)
        return out[..., 0]

    def predict_scores(self, img1: np.ndarray, img2: np.ndarray) -> np.ndarray:
        out = self.forward(self._as_input(img1), self._as_input(img2)).data
        if self.config.head == "binary":
            return 1.0 / (1.0 + np.exp(-out[..., 0]))
        return out

    def _as_input(self, img: np.ndarray) -> Tensor:
        if img.ndim == 2:
            img = img[:, :, None]
        return Tensor(np.ascontiguousarray(img, dtype=self.dtype))

    # -- loss / training ------------------------------------------------------

    def loss(self, pred: Tensor, target: np.ndarray) -> Tensor:
        kind = self.config.head
        if kind == "binary":
            t = Tensor(np.ascontiguousarray(target, dtype=self.dtype).reshape(-1))
            return T.bce_with_logits(T.reshape(pred, (t.shape[0],)), t)
        if kind == "multiclass":
            n_cls = self.config.n_classes
            logits = T.reshape(pred, (pred.shape[0] * pred.shape[1], n_cls))
            return T.softmax_cross_entropy(logits, np.asarray(target).reshape(-1))
        # density: pixel mse plus weighted absolute count error
        t = Tensor(np.ascontiguousarray(target, dtype=self.dtype))
        p = T.reshape(pred, t.shape)
        err = T.sub(p, t)
        mse = T.mean_all(T.mul(err, err))
        count_err = T.abs_all(T.sub(T.sum_all(p), T.sum_all(t)))
        return T.add(mse, T.mul_scalar(count_err, self.config.count_loss_weight))

    def sample_loss(self, img1: np.ndarray, img2: np.ndarray, target: np.ndarray) -> Tensor:
        return self.loss(self.forward(self._as_input(img1), self._as_input(img2)), target)

    def parameters(self) -> list[Parameter]:
        return self.registry.all()

    def num_parameters(self) -> int:
        return sum(p.value.data.size for p in self.parameters())

    # -- checkpoints ----------------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {p.name: p.value.data.copy() for p in self.parameters()}

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        named = self.registry.named()
        missing = set(named) - set(arrays)
        if missing:
            raise ValueError(f"checkpoint missing parameters: {sorted(missing)[:5]}...")
        for name, p in named.items():
            a = arrays[name]
            if tuple(a.shape) != p.value.shape:
                raise ValueError(f"{name}: checkpoint shape {a.shape} != model {p.value.shape}")
            p.assign(a.astype(p.value.data.dtype))


def ablation_variant(model: BiSourceModel, drop: set[str]) -> BiSourceModel:
    """Fresh model with the given components removed (same seed and config)."""
    drop = {d.lower() for d in drop}
    bad = drop - set(ABLATIONS)
    if bad:
        raise ValueError(f"unknown ablations: {sorted(bad)}")
    if not drop:
        return model
    cfg_json = model.config.to_json()
    cfg_json["ablate"] = sorted(set(model.config.ablate) | drop)
    return BiSourceModel(ModelConfig.from_json(cfg_json), seed=model.seed, dtype=model.dtype)


class AdamW:
    """Decoupled-weight-decay adaptive-moment optimizer."""

    def __init__(self, params: list[Parameter], lr: float, weight_decay: float = 0.0,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8) -> None:
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = {p.name: np.zeros_like(p.value.data) for p in params}
        self.v = {p.name: np.zeros_like(p.value.data) for p in params}

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        if self.lr == 0.0:
            return
        self.t += 1
        bc1 = 1.0 - self.b1**self.t
        bc2 = 1.0 - self.b2**self.t
        for p in self.params:
            g = p.grad
            m = self.m[p.name]
            v = self.v[p.name]
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            data = p.value.data
            data -= self.lr * self.weight_decay * data
            data -= self.lr * update.astype(data.dtype)

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {}
        for name in self.m:
            out[f"adamw.m.{name}"] = self.m[name]
            out[f"adamw.v.{name}"] = self.v[name]
        return out


def train_step(model: BiSourceModel, batch: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
               optimizer: AdamW) -> float:
    """One forward/backward/update over a batch of (img1, img2, target)."""
    optimizer.zero_grad()
    try:
        with Tape() as tape:
            losses = [model.sample_loss(i1, i2, t) for i1, i2, t in batch]
            total = losses[0]
            for extra in losses[1:]:
                total = T.add(total, extra)
            total = T.mul_scalar(total, 1.0 / len(batch))
            value = total.item()
            backward(total, tape)
    except NumericalError as exc:
        raise NumericalError(
            f"non-finite loss during train step {optimizer.t + 1}: {exc}"
        ) from exc
    optimizer.step()
    return value


def cosine_lr(base_lr: float, step: int, total_steps: int) -> float:
    if total_steps <= 1:
        return base_lr
    frac = min(max(step / (total_steps - 1), 0.0), 1.0)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * frac))
