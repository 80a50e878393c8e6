"""Toy-scale bi-source model: siamese 4-stage encoder with consistency
blocks, linear deepest fusion, a cascade of difference blocks, and a light
task head.  Trains with AdamW on binary/multiclass cross-entropy or a
density regression loss.

The model runs a batch of B image pairs at once.  Activations are rows
[B*L, C], each sample's L tokens one after the other.  The ops that mix
tokens or apply weights take the batch count and work sample by sample, so
a batch has the outputs and gradients of one-pair passes bit for bit.  The
shared-weight encoder runs both sources as one batch of 2B images: for each
sample, its img1 tokens, then its img2 tokens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict, replace

import numpy as np

from . import tensor as T
from .ada import AdaConfig, Mlp, ParamRegistry, SourcePair, prototype_count
from .blocks import ConsistencyBlock, DifferenceBlock
from .tensor import NumericalError, Parameter, Rng, Tape, Tensor, backward

PATCH = 4
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
        for field in ("in_channels", "base_channels", "ffn_expansion"):
            if not getattr(self, field) >= 1:
                raise ValueError(f"{field} must be at least 1, found {getattr(self, field)!r}")
        if self.head == "multiclass" and not self.n_classes >= 2:
            raise ValueError(
                f"n_classes must be at least 2 for a multiclass head, found {self.n_classes!r}")
        weight = self.count_loss_weight
        if not (math.isfinite(weight) and weight >= 0):
            raise ValueError(f"count_loss_weight must be finite and at least 0, found {weight!r}")
        self.num_prototypes = prototype_count(self.num_prototypes)
        for a in self.ablate:
            if a not in ABLATIONS:
                raise ValueError(f"unknown ablation {a!r}; choose from {ABLATIONS}")
        if self.attention_form not in ("ada", "std"):
            raise ValueError("attention_form must be 'ada' or 'std'")
        h, w = self.input_hw
        if not (h >= DIVISOR and w >= DIVISOR) or h % DIVISOR or w % DIVISOR:
            raise ValueError(
                f"input extents must be positive multiples of {DIVISOR}, got {h}x{w}"
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
        return cls(**d)


class SelfAttention:
    """Pre-norm single-head self-attention used inside encoder stages.

    Dense over all tokens, through ``T.attention_rows``: at inference (no Tape
    active) the scores are built in blocks of query rows, so a 4096-token
    stage never holds the full 4096 x 4096 score matrix; under a Tape the
    attention is one tape record.
    """

    def __init__(self, reg: ParamRegistry, dim: int, name: str) -> None:
        self.dim = dim
        self.ln_g = reg.make(f"{name}.ln_g", (dim,), "ones")
        self.ln_b = reg.make(f"{name}.ln_b", (dim,), "zeros")
        self.w_q = reg.make(f"{name}.w_q", (dim, dim), "trunc_normal")
        self.w_k = reg.make(f"{name}.w_k", (dim, dim), "trunc_normal")
        self.w_v = reg.make(f"{name}.w_v", (dim, dim), "trunc_normal")
        self.w_o = reg.make(f"{name}.w_o", (dim, dim), "trunc_normal")

    def __call__(self, x: Tensor, b: int) -> Tensor:
        h = T.layer_norm(x, self.ln_g.value, self.ln_b.value, b)
        q = T.matmul(h, self.w_q.value, b)
        k = T.matmul(h, self.w_k.value, b)
        v = T.matmul(h, self.w_v.value, b)
        att = T.attention_rows(q, k, v, 1.0 / math.sqrt(self.dim), b)
        return T.matmul(att, self.w_o.value, b)


class EncoderStage:
    """Patch embed (stage 1) or 2x patch merge, then one pre-norm block."""

    def __init__(self, reg: ParamRegistry, in_dim: int, out_dim: int, merge_factor: int, name: str) -> None:
        self.merge_factor = merge_factor
        merged = merge_factor * merge_factor * in_dim
        self.merge_ln_g = reg.make(f"{name}.merge_ln_g", (merged,), "ones")
        self.merge_ln_b = reg.make(f"{name}.merge_ln_b", (merged,), "zeros")
        self.merge_w = reg.make(f"{name}.merge_w", (merged, out_dim), "trunc_normal")
        self.merge_b = reg.make(f"{name}.merge_b", (out_dim,), "zeros")
        self.attn = SelfAttention(reg, out_dim, f"{name}.attn")
        self.ffn = Mlp(reg, out_dim, 2 * out_dim, out_dim, f"{name}.ffn")

    def __call__(self, x: Tensor, h: int, w: int, b: int) -> tuple[Tensor, int, int]:
        grid = T.reshape(x, (b, h, w, x.shape[-1]))
        grid = T.space_to_depth(grid, self.merge_factor)
        hh, ww = h // self.merge_factor, w // self.merge_factor
        flat = T.reshape(grid, (b * hh * ww, grid.shape[-1]))
        flat = T.layer_norm(flat, self.merge_ln_g.value, self.merge_ln_b.value, b)
        flat = T.linear(flat, self.merge_w.value, self.merge_b.value, b)
        flat = T.add(flat, self.attn(flat, b))
        flat = T.add(flat, self.ffn(flat, b))
        return flat, hh, ww


class TaskHead:
    """Mlp (norm -> linear -> GELU -> linear), then bilinear upsampling to input."""

    def __init__(self, reg: ParamRegistry, dim: int, kind: str, n_classes: int, name: str) -> None:
        self.kind = kind
        self.out_dim = {"binary": 1, "density": 1, "multiclass": n_classes}[kind]
        self.mlp = Mlp(reg, dim, dim, self.out_dim, name)

    def __call__(self, x: Tensor, h: int, w: int, b: int) -> Tensor:
        grid = T.reshape(self.mlp(x, b), (b, h, w, self.out_dim))
        grid = T.bilinear_upsample_2x(grid)
        grid = T.bilinear_upsample_2x(grid)
        if self.kind == "density":
            grid = T.relu(grid)
        return grid  # [b, 4h, 4w, out_dim]


class BiSourceModel:
    def __init__(self, config: ModelConfig, seed: int = 0, dtype=np.float32) -> None:
        """Parameters drawn from ``Rng(seed)`` in ``dtype``."""
        self._build(config, seed, dtype, Rng(seed))

    @classmethod
    def from_state(cls, config: ModelConfig, arrays: dict[str, np.ndarray], seed: int = 0,
                   dtype=np.float32) -> "BiSourceModel":
        """The model ``BiSourceModel(config, seed, dtype)`` becomes after
        ``load_state(arrays)``, built without drawing an init to overwrite."""
        model = cls.__new__(cls)
        model._build(config, seed, dtype, None)
        model.load_state(arrays)
        return model

    def _build(self, config: ModelConfig, seed: int, dtype, rng: Rng | None) -> None:
        self.config = config
        self.seed = seed
        self.dtype = dtype
        self.registry = reg = ParamRegistry(rng, dtype)
        c = config.base_channels
        in_h, in_w = config.input_hw

        def ada_config(dim: int, comp_op: str) -> AdaConfig:
            return AdaConfig(
                num_prototypes=config.num_prototypes,
                proto_dim=dim,
                feat_dim=dim,
                ffn_expansion=config.ffn_expansion,
                comp_op="identity" if "compops" in config.ablate else comp_op,
            )

        self.stage_dims = [c, 2 * c, 4 * c, 8 * c]
        self.stages: list[EncoderStage] = []
        self.cebs: list[ConsistencyBlock | None] = []
        prev = config.in_channels
        h, w = in_h, in_w
        for i, dim in enumerate(self.stage_dims):
            factor = PATCH if i == 0 else 2
            self.stages.append(EncoderStage(reg, prev, dim, factor, f"enc{i + 1}"))
            h, w = h // factor, w // factor
            self.cebs.append(
                None if "ceb" in config.ablate
                else ConsistencyBlock(
                    ada_config(dim, "consistency"), reg, num_source_tokens=h * w,
                    name=f"ceb{i + 1}", attention_form=config.attention_form,
                )
            )
            prev = dim

        deep = self.stage_dims[-1]
        self.fuse_ln_g = reg.make("fuse.ln_g", (2 * deep,), "ones")
        self.fuse_ln_b = reg.make("fuse.ln_b", (2 * deep,), "zeros")
        self.fuse_w = reg.make("fuse.w", (2 * deep, deep), "trunc_normal")
        self.fuse_b = reg.make("fuse.b", (deep,), "zeros")

        self.dabs: list[DifferenceBlock] = []
        for level in (2, 1, 0):  # decoder levels 3, 2, 1 (0-based stage index)
            dim = self.stage_dims[level]
            lvl_tokens = (in_h // (PATCH * 2**level)) * (in_w // (PATCH * 2**level))
            self.dabs.append(
                DifferenceBlock(
                    ada_config(dim, "difference"),
                    reg,
                    deeper_dim=self.stage_dims[level + 1],
                    num_source_tokens=lvl_tokens,
                    name=f"dab{level + 1}",
                    mixer_only="dab" in config.ablate,
                    attention_form=config.attention_form,
                )
            )

        self.head = TaskHead(reg, self.stage_dims[0], config.head, config.n_classes, "head")

    # -- forward ------------------------------------------------------------

    def encode(self, img1: Tensor, img2: Tensor) -> list[SourcePair]:
        """Both sources' token maps after each stage, for [H, W, C] or
        [B, H, W, C] images.  Each stage runs the 2B images as one batch."""
        if img1.shape != img2.shape:
            raise T.ShapeError(f"img2: shape {img2.shape} differs from img1's {img1.shape}")
        h, w, c = img1.shape[-3:]
        if h % DIVISOR or w % DIVISOR:
            raise T.ShapeError(f"input extents must be divisible by {DIVISOR}, got {h}x{w}")
        b = math.prod(img1.shape[:-3])
        x = Tensor(np.stack([img1.data.reshape(b, h * w, c), img2.data.reshape(b, h * w, c)],
                            axis=1).reshape(2 * b * h * w, c))
        pairs: list[SourcePair] = []
        for stage, ceb in zip(self.stages, self.cebs):
            x, h, w = stage(x, h, w, 2 * b)
            if ceb is not None:
                x = ceb.forward(_split(x, h, w, b), x)
            pairs.append(_split(x, h, w, b))
        return pairs

    def decode(self, pairs: list[SourcePair]) -> Tensor:
        deepest = pairs[-1]
        fused = T.concat_channels([deepest.f1, deepest.f2])
        b = deepest.b
        fused = T.layer_norm(fused, self.fuse_ln_g.value, self.fuse_ln_b.value, b)
        fused = T.linear(fused, self.fuse_w.value, self.fuse_b.value, b)
        x, xh, xw = fused, deepest.h, deepest.w
        for dab, level in zip(self.dabs, (2, 1, 0)):
            pair = pairs[level]
            x = dab.forward(pair, x, xh, xw)
            xh, xw = pair.h, pair.w
        return self.head(x, xh, xw, b)

    def forward(self, img1: Tensor, img2: Tensor) -> Tensor:
        """[B, H, W, out] for [B, H, W, C] images; [H, W, out] for [H, W, C]."""
        out = self.decode(self.encode(img1, img2))
        return out if img1.data.ndim == 4 else T.reshape(out, out.shape[1:])

    def predict(self, img1: np.ndarray, img2: np.ndarray) -> np.ndarray:
        """Inference: binary -> {0,1} mask, multiclass -> class map, density -> map."""
        out = self.forward(*self._checked_inputs(img1, img2)).data[0]
        if self.config.head == "binary":
            return (out[..., 0] > 0.0).astype(np.uint8)
        if self.config.head == "multiclass":
            return out.argmax(axis=-1).astype(np.int64)
        return out[..., 0]

    def predict_scores(self, img1: np.ndarray, img2: np.ndarray) -> np.ndarray:
        out = self.forward(*self._checked_inputs(img1, img2)).data[0]
        if self.config.head == "binary":
            with np.errstate(over="ignore"):  # exp(-z) is inf below about -88: score 0
                return 1.0 / (1.0 + np.exp(-out[..., 0]))
        return out

    def _as_input(self, img: np.ndarray) -> Tensor:
        if img.ndim == 2:
            img = img[:, :, None]
        return Tensor(np.ascontiguousarray(img, dtype=self.dtype))

    def _checked_inputs(self, img1: np.ndarray, img2: np.ndarray) -> tuple[Tensor, Tensor]:
        """The pair as a batch of one, [1, H, W, C] each, or one error that
        names the bad image.

        Each image is [H, W] or [H, W, in_channels] with H and W positive
        multiples of DIVISOR, both have the same extents, and every value is
        finite in the model's dtype.
        """
        names = ("img1", "img2")
        imgs = (np.asarray(img1), np.asarray(img2))
        c = self.config.in_channels
        for name, img in zip(names, imgs):
            hw, channels = img.shape[:2], img.shape[2:] or (1,)
            if (img.ndim not in (2, 3) or channels != (c,)
                    or not all(n > 0 and n % DIVISOR == 0 for n in hw)):
                raise T.ShapeError(
                    f"{name}: shape {img.shape}; expected [H, W] or [H, W, {c}] "
                    f"with H and W positive multiples of {DIVISOR}"
                )
        if imgs[0].shape[:2] != imgs[1].shape[:2]:
            raise T.ShapeError(f"img2: shape {imgs[1].shape} differs from img1's {imgs[0].shape}")
        with np.errstate(over="ignore"):  # a value cast to Inf is reported below
            inputs = tuple(Tensor(self._as_input(img).data[None]) for img in imgs)
        for name, x in zip(names, inputs):
            if not T.all_finite(x.data):
                raise ValueError(f"{name}: NaN or Inf in the image (as {x.dtype})")
        return inputs

    def stack_batch(self, batch: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
                    ) -> tuple[Tensor, Tensor, np.ndarray]:
        """A list of (img1, img2, target) as [B, H, W, C] inputs and [B, H, W]
        targets, or one error that names the sample and what is wrong."""
        ins1, ins2, targets = [], [], []
        for i, (img1, img2, target) in enumerate(batch):
            try:
                x1, x2 = self._checked_inputs(img1, img2)
            except ValueError as exc:  # ShapeError included
                raise type(exc)(f"sample {i}: {exc}") from None
            target = np.asarray(target)
            if target.shape != x1.shape[1:3]:
                raise T.ShapeError(f"sample {i}: target shape {target.shape} "
                                   f"!= image extents {x1.shape[1:3]}")
            if i and x1.shape != ins1[0].shape:
                raise T.ShapeError(f"sample {i}: image shape {x1.shape[1:]} differs from sample 0's "
                                   f"{ins1[0].shape[1:]}")
            ins1.append(x1.data)
            ins2.append(x2.data)
            targets.append(target)
        return Tensor(np.concatenate(ins1)), Tensor(np.concatenate(ins2)), np.stack(targets)

    # -- loss / training ------------------------------------------------------

    def loss(self, pred: Tensor, target: np.ndarray) -> Tensor:
        """Mean loss of [B, H, W, out] predictions (or one [H, W, out]) against
        [B, H, W] targets: over every pixel, and for density the count error
        of each sample, averaged over the samples."""
        kind = self.config.head
        if kind == "binary":
            t = Tensor(np.ascontiguousarray(target, dtype=self.dtype).reshape(-1))
            return T.bce_with_logits(T.reshape(pred, (t.shape[0],)), t)
        if kind == "multiclass":
            n_cls = self.config.n_classes
            logits = T.reshape(pred, (pred.data.size // n_cls, n_cls))
            return T.softmax_cross_entropy(logits, np.asarray(target).reshape(-1))
        # density: pixel mse plus weighted absolute count error
        b = math.prod(pred.shape[:-3])
        t = Tensor(np.ascontiguousarray(target, dtype=self.dtype))
        p = T.reshape(pred, t.shape)
        err = T.sub(p, t)
        mse = T.mean_all(T.mul(err, err))
        count_err = T.mean_all(T.abs_all(T.sub(T.sum_all(p, b), T.sum_all(t, b))))
        return T.add(mse, T.mul_scalar(count_err, self.config.count_loss_weight))

    def sample_loss(self, img1: np.ndarray, img2: np.ndarray, target: np.ndarray) -> Tensor:
        return self.loss(self.forward(*self._checked_inputs(img1, img2)), np.asarray(target)[None])

    def parameters(self) -> list[Parameter]:
        return self.registry.all()

    def num_parameters(self) -> int:
        return sum(p.value.data.size for p in self.parameters())

    # -- checkpoints ----------------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {p.name: p.value.data.copy() for p in self.parameters()}

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Set every parameter from ``arrays``, or raise and change none.

        Arrays already in the model's dtype are checked as they are, not
        copied, so each parameter's ``assign`` is the one copy."""
        named = self.registry.named()
        for problem, names in (("missing", set(named) - set(arrays)),
                               ("has unknown", set(arrays) - set(named))):
            if names:
                raise ValueError(f"checkpoint {problem} parameters: {sorted(names)[:5]}...")
        values = {}
        for name, p in named.items():
            a = arrays[name]
            if tuple(a.shape) != p.value.shape:
                raise ValueError(f"{name}: checkpoint shape {a.shape} != model {p.value.shape}")
            values[name] = a.astype(p.value.data.dtype, copy=False)
            if not T.all_finite(values[name]):
                raise ValueError(f"{name}: NaN or Inf in the checkpoint's values")
        for name, p in named.items():
            p.assign(values[name])


def _split(x: Tensor, h: int, w: int, b: int) -> SourcePair:
    """The two sources of stacked rows: each sample's img1 tokens, then its img2 tokens."""
    n = h * w
    return SourcePair(T.slice_rows(x, 0, n, b), T.slice_rows(x, n, 2 * n, b), h, w, b)


def ablation_variant(model: BiSourceModel, drop: set[str]) -> BiSourceModel:
    """Fresh model with the given components removed (same seed and config)."""
    if not drop:
        return model
    config = replace(model.config, ablate=tuple(sorted(set(model.config.ablate) | drop)))
    return BiSourceModel(config, seed=model.seed, dtype=model.dtype)


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


def train_step(model: BiSourceModel, batch: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
               optimizer: AdamW) -> float:
    """One forward, one backward and one update over a batch of (img1, img2,
    target), all of the same extents; returns the batch's mean loss."""
    if not batch:
        raise ValueError("train_step: empty batch")
    try:
        img1, img2, target = model.stack_batch(batch)
    except ValueError as exc:
        raise type(exc)(f"train_step: {exc}") from None
    optimizer.zero_grad()
    try:
        with Tape() as tape:
            total = model.loss(model.forward(img1, img2), target)
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
