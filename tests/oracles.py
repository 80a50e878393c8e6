"""Independent straight-line numpy reference implementations used as test
oracles.  Everything here is written directly from the mathematical
definitions with plain numpy loops/arrays and never calls into the package's
operator implementations.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

LN_EPS = 1e-5
COS_EPS = 1e-8


# ---------------------------------------------------------------------------
# elementary pieces
# ---------------------------------------------------------------------------


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    z = x - x.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, scale: float,
              rows: int = 256) -> np.ndarray:
    """softmax(scale q k^T) v, ``rows`` query rows at a time."""
    return np.concatenate([softmax(scale * (q[i : i + rows] @ k.T)) @ v
                           for i in range(0, q.shape[0], rows)])


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * gain + bias


def layer_norm_np_var(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """The tensor engine's layer_norm forward as written with np.mean/np.var;
    its rewrite must reproduce these bits exactly."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    xhat = (x - mu) * (1.0 / np.sqrt(var + LN_EPS))
    return (xhat * gain + bias).astype(x.dtype)


def box_sum_ix(a: np.ndarray, window: int) -> np.ndarray:
    """Window sums clipped at the borders (HWC), read from an unpadded float64
    integral image at clipped corner indices with np.ix_; the tensor engine's
    box sum must reproduce these bits exactly."""
    h, w = a.shape[0], a.shape[1]
    r = window // 2
    s = np.zeros((h + 1, w + 1) + a.shape[2:], dtype=np.float64)
    np.cumsum(a, axis=0, out=s[1:, 1:])
    np.cumsum(s[1:, 1:], axis=1, out=s[1:, 1:])
    i = np.arange(h)
    j = np.arange(w)
    i0 = np.clip(i - r, 0, h)
    i1 = np.clip(i + r + 1, 0, h)
    j0 = np.clip(j - r, 0, w)
    j1 = np.clip(j + r + 1, 0, w)
    out = s[np.ix_(i1, j1)] - s[np.ix_(i0, j1)] - s[np.ix_(i1, j0)] + s[np.ix_(i0, j0)]
    return out.astype(a.dtype)


def gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def gelu_scipy_erf(x: np.ndarray) -> np.ndarray:
    """The tensor engine's exact gelu forward, with scipy's erf in x's dtype;
    its taped float32 calls must reproduce these bits exactly."""
    return (x * (0.5 * (1.0 + erf(x * 0.7071067811865476)))).astype(x.dtype)


def gelu_erf_band(x: np.ndarray, ulps: int) -> tuple[np.ndarray, np.ndarray]:
    """The least and greatest values of gelu_scipy_erf's formula in float64
    when scipy's erf may be off by up to ``ulps`` ulp.  Each rounded step of
    the formula is monotone in erf, so these are its values at the band's two
    ends."""
    e = erf(x * 0.7071067811865476)
    lo, hi = e, e
    for _ in range(ulps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
    ends = [x * (0.5 * (1.0 + v)) for v in (lo, hi)]
    return np.minimum(*ends), np.maximum(*ends)


def cosine(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    nq = np.maximum(np.linalg.norm(q, axis=1, keepdims=True), COS_EPS)
    nk = np.maximum(np.linalg.norm(k, axis=1, keepdims=True), COS_EPS)
    return (q / nq) @ (k / nk).T


def avg_pool_loops(x: np.ndarray, window: int) -> np.ndarray:
    """Count-of-valid average pooling by explicit per-pixel loops."""
    h, w, c = x.shape
    r = window // 2
    out = np.zeros_like(x)
    for i in range(h):
        for j in range(w):
            i0, i1 = max(i - r, 0), min(i + r + 1, h)
            j0, j1 = max(j - r, 0), min(j + r + 1, w)
            out[i, j] = x[i0:i1, j0:j1].mean(axis=(0, 1))
    return out


def bilinear_up2_loops(x: np.ndarray) -> np.ndarray:
    """2x bilinear upsampling (half-pixel centers) by explicit loops."""
    h, w, c = x.shape
    out = np.zeros((2 * h, 2 * w, c), dtype=x.dtype)
    for i in range(2 * h):
        for j in range(2 * w):
            si = min(max((i + 0.5) / 2.0 - 0.5, 0.0), h - 1.0)
            sj = min(max((j + 0.5) / 2.0 - 0.5, 0.0), w - 1.0)
            i0, j0 = int(np.floor(si)), int(np.floor(sj))
            i1, j1 = min(i0 + 1, h - 1), min(j0 + 1, w - 1)
            fi, fj = si - i0, sj - j0
            out[i, j] = (
                x[i0, j0] * (1 - fi) * (1 - fj)
                + x[i1, j0] * fi * (1 - fj)
                + x[i0, j1] * (1 - fi) * fj
                + x[i1, j1] * fi * fj
            )
    return out


# ---------------------------------------------------------------------------
# attention-unit re-derivation
# ---------------------------------------------------------------------------


def params_dict(registry) -> dict[str, np.ndarray]:
    return {name: p.value.data for name, p in registry.named().items()}


def ffn(x: np.ndarray, p: dict[str, np.ndarray], prefix: str) -> np.ndarray:
    h = layer_norm(x, p[f"{prefix}.ln_g"], p[f"{prefix}.ln_b"])
    h = gelu(h @ p[f"{prefix}.w1"] + p[f"{prefix}.b1"])
    return h @ p[f"{prefix}.w2"] + p[f"{prefix}.b2"]


def comp_embed(p: dict[str, np.ndarray], prefix: str, base: np.ndarray,
               h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    c = base.shape[-1]
    grid = base.reshape(h, w, c)
    stack = np.concatenate(
        [grid, avg_pool_loops(grid, 3), avg_pool_loops(grid, 5)], axis=-1
    ).reshape(h * w, 3 * c)
    flat = layer_norm(stack, p[f"{prefix}.ln_g"], p[f"{prefix}.ln_b"])
    flat = flat @ p[f"{prefix}.proj"] + p[f"{prefix}.bias"]
    d = flat.shape[-1] // 2
    return flat[:, :d], flat[:, d:]


def proto_aggregate(p: dict[str, np.ndarray], name: str,
                    k_fw: np.ndarray, v_fw: np.ndarray) -> np.ndarray:
    q = p[f"{name}.prototypes"] @ p[f"{name}.w_q_fw"]
    att = softmax(cosine(q, k_fw), axis=1)
    return ffn((att @ v_fw) @ p[f"{name}.w_o_fw"], p, f"{name}.ffn_fw")


def proto_diffuse(p: dict[str, np.ndarray], name: str,
                  p_tilde: np.ndarray, slot: np.ndarray) -> np.ndarray:
    q = slot @ p[f"{name}.w_q_bw"]
    k = p_tilde @ p[f"{name}.w_k_bw"]
    att = softmax(cosine(q, k), axis=1)
    z = (att @ (p_tilde @ p[f"{name}.w_v_bw"])) @ p[f"{name}.w_o_bw"]
    gated = slot + p[f"{name}.gate"] * z
    return slot + ffn(gated, p, f"{name}.ffn_bw")


def proto_forward(p: dict[str, np.ndarray], name: str, comp_op: str,
                  f1: np.ndarray, f2: np.ndarray, h: int, w: int,
                  slot: np.ndarray) -> np.ndarray:
    if comp_op == "consistency":
        k_fw, v_fw = comp_embed(p, f"{name}.comp", f1 * f2, h, w)
    elif comp_op == "difference":
        k_fw, v_fw = comp_embed(p, f"{name}.comp", np.abs(f1 - f2), h, w)
    else:
        k_fw, v_fw = f1, f1
    return proto_diffuse(p, name, proto_aggregate(p, name, k_fw, v_fw), slot)


def std_forward(p: dict[str, np.ndarray], name: str, comp_op: str,
                f1: np.ndarray, f2: np.ndarray, h: int, w: int,
                slot: np.ndarray) -> np.ndarray:
    if comp_op == "consistency":
        keys, values = comp_embed(p, f"{name}.comp", f1 * f2, h, w)
    elif comp_op == "difference":
        keys, values = comp_embed(p, f"{name}.comp", np.abs(f1 - f2), h, w)
    else:
        keys, values = f1, f1
    d = keys.shape[-1]
    att = softmax((slot @ p[f"{name}.w_q"]) @ keys.T / np.sqrt(d), axis=1)
    z = (att @ values) @ p[f"{name}.w_o"]
    gated = slot + p[f"{name}.gate"] * z
    return slot + ffn(gated, p, f"{name}.ffn")


# ---------------------------------------------------------------------------
# metric oracles (pixel loops)
# ---------------------------------------------------------------------------


def confusion_counts_loops(pred: np.ndarray, gt: np.ndarray) -> dict[str, int]:
    tp = tn = fp = fn = 0
    for pv, gv in zip(pred.reshape(-1), gt.reshape(-1)):
        if pv and gv:
            tp += 1
        elif pv and not gv:
            fp += 1
        elif not pv and gv:
            fn += 1
        else:
            tn += 1
    return {"tp": tp, "tn": tn, "fp": fp, "fn": fn}


def binary_metrics_loops(pred: np.ndarray, gt: np.ndarray) -> dict[str, float]:
    tp, tn, fp, fn = confusion_counts_loops(pred, gt).values()
    div = lambda a, b: a / b if b else 0.0
    return {
        "Pre": div(tp, tp + fp),
        "Rec": div(tp, tp + fn),
        "F1": div(2 * tp, 2 * tp + fp + fn),
        "IOU": div(tp, tp + fp + fn),
        "OA": div(tp + tn, tp + tn + fp + fn),
    }


def fraction_correct_loops(pred: np.ndarray, gt: np.ndarray) -> float:
    correct = 0
    flat_p, flat_g = pred.reshape(-1), gt.reshape(-1)
    for pv, gv in zip(flat_p, flat_g):
        correct += int(pv == gv)
    return correct / flat_p.size


def segmentation_metrics_loops(pred: np.ndarray, gt: np.ndarray, n_cls: int) -> dict[str, float]:
    m = np.zeros((n_cls, n_cls), dtype=np.int64)
    for pv, gv in zip(pred.reshape(-1), gt.reshape(-1)):
        m[gv, pv] += 1
    pixel_acc = np.trace(m) / m.sum()
    accs, ious = [], []
    for i in range(n_cls):
        gt_i, pred_i = m[i].sum(), m[:, i].sum()
        if gt_i > 0:
            accs.append(m[i, i] / gt_i)
        if gt_i + pred_i > 0:
            ious.append(m[i, i] / (gt_i + pred_i - m[i, i]))
    return {
        "PixelAcc": float(pixel_acc),
        "MeanAcc": float(np.mean(accs)) if accs else 0.0,
        "MeanIOU": float(np.mean(ious)) if ious else 0.0,
    }


def grid_error_divisible(pred: np.ndarray, gt: np.ndarray, cells: int) -> float:
    """Brute-force per-cell count error; extents must divide evenly."""
    h, w = pred.shape
    assert h % cells == 0 and w % cells == 0
    ch, cw = h // cells, w // cells
    total = 0.0
    for i in range(cells):
        for j in range(cells):
            ps = pred[i * ch : (i + 1) * ch, j * cw : (j + 1) * cw].sum()
            gs = gt[i * ch : (i + 1) * ch, j * cw : (j + 1) * cw].sum()
            total += abs(float(ps) - float(gs))
    return total


def fbeta_sweep_loops(pred: np.ndarray, gt: np.ndarray, beta2: float = 0.3,
                      n_thresholds: int = 256) -> np.ndarray:
    out = np.zeros(n_thresholds)
    g = gt.astype(bool)
    for idx, th in enumerate(np.linspace(0.0, 1.0, n_thresholds)):
        b = pred >= th
        tp = float((b & g).sum())
        fp = float((b & ~g).sum())
        fn = float((~b & g).sum())
        pre = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        if pre + rec:
            out[idx] = (1 + beta2) * pre * rec / (beta2 * pre + rec)
    return out


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


class AdamWPerParameter:
    """AdamW as one update per parameter array, with m and v kept per
    parameter name: the loop ``bisource.model.AdamW`` ran before it took flat
    buffers, copied unchanged.  The flat optimizer must keep its bits."""

    def __init__(self, params, lr: float, weight_decay: float = 0.0,
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
