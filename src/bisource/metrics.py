"""Evaluation metrics: binary map similarity (precision/recall/F1/IOU/
overall accuracy), grid-partitioned count error and count RMSE, confusion-
matrix segmentation scores, and gray-map saliency scores (structure measure,
max F-measure, enhanced-alignment measure, MAE).

All functions are pure numpy; zero-denominator rates return 0 together with
an ``undefined`` flag so aggregate means stay well-defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

EPS = 1e-12
SM_ALPHA = 0.5  # object/region mix of the structure measure
FB_BETA2 = 0.3  # precision emphasis of the F-measure
N_THRESHOLDS = 256


@dataclass
class ConfusionCounts:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    def add(self, other: "ConfusionCounts") -> None:
        self.tp += other.tp
        self.tn += other.tn
        self.fp += other.fp
        self.fn += other.fn


@dataclass
class MetricReport:
    values: dict[str, float]
    counts: dict[str, float] = field(default_factory=dict)
    undefined: tuple[str, ...] = ()


def confusion_binary(pred: np.ndarray, gt: np.ndarray) -> ConfusionCounts:
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {gt.shape}")
    for name, a in (("pred", pred), ("gt", gt)):
        if not ((a == 0) | (a == 1)).all():
            raise ValueError(f"{name} is not binary (values {np.unique(a)[:5]})")
    # one count per (pred, gt) cell: 0 tn, 1 fn, 2 fp, 3 tp
    tn, fn, fp, tp = np.bincount((2 * pred.astype(np.intp) + gt.astype(np.intp)).ravel(),
                                 minlength=4).tolist()
    return ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)


def binary_metrics_from_counts(c: ConfusionCounts) -> MetricReport:
    values: dict[str, float] = {}
    undefined: list[str] = []

    def rate(name: str, num: int, den: int) -> None:
        if den == 0:
            values[name] = 0.0
            undefined.append(name)
        else:
            values[name] = num / den

    rate("Pre", c.tp, c.tp + c.fp)
    rate("Rec", c.tp, c.tp + c.fn)
    rate("F1", 2 * c.tp, 2 * c.tp + c.fn + c.fp)
    rate("IOU", c.tp, c.tp + c.fp + c.fn)
    rate("OA", c.tp + c.tn, c.total)
    return MetricReport(
        values=values,
        counts={"tp": c.tp, "tn": c.tn, "fp": c.fp, "fn": c.fn},
        undefined=tuple(undefined),
    )


def binary_metrics(pred: np.ndarray, gt: np.ndarray) -> MetricReport:
    return binary_metrics_from_counts(confusion_binary(pred, gt))


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------


def _grid_bounds(extent: int, cells: int) -> np.ndarray:
    # floor-based near-equal split; nested across doubling cell counts
    return np.array([(extent * j) // cells for j in range(cells + 1)], dtype=np.int64)


def grid_count_error(pred: np.ndarray, gt: np.ndarray, level: int) -> float:
    """Sum of per-cell absolute count errors on the 2^level x 2^level grid."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {gt.shape}")
    if (pred < 0).any() or (gt < 0).any():
        raise ValueError("densities must be nonnegative")
    if level not in (0, 1, 2, 3):
        raise ValueError("level must be in {0, 1, 2, 3}")
    cells = 2**level
    h, w = pred.shape
    rb = _grid_bounds(h, cells)
    cb = _grid_bounds(w, cells)
    total = 0.0
    for i in range(cells):
        for j in range(cells):
            ps = pred[rb[i] : rb[i + 1], cb[j] : cb[j + 1]].sum()
            gs = gt[rb[i] : rb[i + 1], cb[j] : cb[j + 1]].sum()
            total += abs(ps - gs)
    return total


def game(preds: list[np.ndarray], gts: list[np.ndarray], level: int) -> float:
    """Mean over images of the summed per-cell count errors."""
    if len(preds) != len(gts) or not preds:
        raise ValueError("need equal, nonempty prediction/gt lists")
    return float(np.mean([grid_count_error(p, g, level) for p, g in zip(preds, gts)]))


def rmse_counts(pred_counts, gt_counts) -> float:
    p = np.asarray(pred_counts, dtype=np.float64)
    g = np.asarray(gt_counts, dtype=np.float64)
    if p.shape != g.shape or p.size == 0:
        raise ValueError("need equal-length nonempty count lists")
    return float(np.sqrt(np.mean((p - g) ** 2)))


# ---------------------------------------------------------------------------
# semantic segmentation
# ---------------------------------------------------------------------------


@dataclass
class ClassConfusion:
    n_cls: int
    matrix: np.ndarray  # matrix[i, j] = pixels of class i predicted as class j

    @classmethod
    def empty(cls, n_cls: int) -> "ClassConfusion":
        return cls(n_cls, np.zeros((n_cls, n_cls), dtype=np.int64))

    def update(self, pred: np.ndarray, gt: np.ndarray) -> None:
        pred = np.asarray(pred).reshape(-1)
        gt = np.asarray(gt).reshape(-1)
        if pred.shape != gt.shape:
            raise ValueError("shape mismatch")
        if pred.min() < 0 or pred.max() >= self.n_cls or gt.min() < 0 or gt.max() >= self.n_cls:
            raise ValueError("class index out of range")
        idx = gt * self.n_cls + pred
        self.matrix += np.bincount(idx, minlength=self.n_cls * self.n_cls).reshape(
            self.n_cls, self.n_cls
        )


def segmentation_metrics(cc: ClassConfusion) -> MetricReport:
    m = cc.matrix.astype(np.float64)
    total = m.sum()
    diag = np.diag(m)
    gt_per_class = m.sum(axis=1)
    pred_per_class = m.sum(axis=0)
    # classes absent from both prediction and ground truth drop out of means
    present = (gt_per_class + pred_per_class) > 0
    acc_present = gt_per_class > 0

    pixel_acc = diag.sum() / total if total > 0 else 0.0
    if acc_present.any():
        mean_acc = float(np.mean(diag[acc_present] / gt_per_class[acc_present]))
    else:
        mean_acc = 0.0
    if present.any():
        union = gt_per_class + pred_per_class - diag
        mean_iou = float(np.mean(diag[present] / union[present]))
    else:
        mean_iou = 0.0
    return MetricReport(
        values={"PixelAcc": float(pixel_acc), "MeanAcc": mean_acc, "MeanIOU": mean_iou},
        counts={"total_pixels": float(total)},
    )


# ---------------------------------------------------------------------------
# saliency (gray prediction vs binary ground truth)
# ---------------------------------------------------------------------------


def mae(pred: np.ndarray, gt: np.ndarray) -> float:
    return float(np.mean(np.abs(np.asarray(pred, np.float64) - np.asarray(gt, np.float64))))


def _s_object(x: np.ndarray, region: np.ndarray) -> float:
    if not region.any():
        return 0.0
    vals = x[region]
    m = vals.mean()
    s = vals.std()
    return 2.0 * m / (m * m + 1.0 + s + EPS)


def _ssim_region(pred: np.ndarray, gt: np.ndarray) -> float:
    n = pred.size
    if n <= 1:
        return 1.0 if pred.size and abs(float(pred.reshape(-1)[0]) - float(gt.reshape(-1)[0])) < EPS else 0.0
    x = pred.mean()
    y = gt.mean()
    sx = ((pred - x) ** 2).sum() / (n - 1)
    sy = ((gt - y) ** 2).sum() / (n - 1)
    sxy = ((pred - x) * (gt - y)).sum() / (n - 1)
    alpha = 4.0 * x * y * sxy
    beta = (x * x + y * y) * (sx + sy)
    if alpha != 0.0:
        return float(alpha / (beta + EPS))
    return 1.0 if beta == 0.0 else 0.0


def _centroid(gt: np.ndarray) -> tuple[int, int]:
    h, w = gt.shape
    if gt.sum() == 0:
        return h // 2, w // 2
    rows, cols = np.nonzero(gt)
    return int(round(rows.mean())) + 1, int(round(cols.mean())) + 1


def _s_region(pred: np.ndarray, gt: np.ndarray) -> float:
    h, w = gt.shape
    cy, cx = _centroid(gt)
    area = h * w
    score = 0.0
    for rs, re, cs, ce in (
        (0, cy, 0, cx),
        (0, cy, cx, w),
        (cy, h, 0, cx),
        (cy, h, cx, w),
    ):
        g = gt[rs:re, cs:ce]
        p = pred[rs:re, cs:ce]
        if g.size == 0:
            continue
        weight = g.size / area
        # weight by each quadrant's share of the foreground, as in the
        # standard structure-measure construction
        fg = gt.sum()
        wq = (g.sum() / fg) if fg > 0 else weight
        score += wq * _ssim_region(p, g.astype(np.float64))
    return score


def s_measure(pred: np.ndarray, gt: np.ndarray) -> float:
    """Structure measure: alpha-blend of object- and region-level similarity."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt).astype(bool)
    y = gt.mean()
    if y == 0.0:
        return 1.0 - pred.mean()
    if y == 1.0:
        return float(pred.mean())
    s_o = y * _s_object(pred, gt) + (1.0 - y) * _s_object(1.0 - pred, ~gt)
    s_r = _s_region(pred, gt.astype(np.float64))
    return float(max(SM_ALPHA * s_o + (1.0 - SM_ALPHA) * s_r, 0.0))


def _e_measure_binary(pred_bin: np.ndarray, gt: np.ndarray) -> float:
    """Enhanced alignment of a binarized prediction against binary gt."""
    fm = pred_bin.astype(np.float64)
    g = gt.astype(np.float64)
    n = g.size
    if g.sum() == 0:
        enhanced = 1.0 - fm
    elif g.sum() == n:
        enhanced = fm
    else:
        d_fm = fm - fm.mean()
        d_gt = g - g.mean()
        align = 2.0 * d_gt * d_fm / (d_gt**2 + d_fm**2 + EPS)
        enhanced = (align + 1.0) ** 2 / 4.0
    return float(enhanced.sum() / n)


def thresholded_fbeta(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """F-beta at 256 evenly spaced thresholds in [0, 1]."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt).astype(bool)
    out = np.zeros(N_THRESHOLDS)
    npos = gt.sum()
    for i, t in enumerate(np.linspace(0.0, 1.0, N_THRESHOLDS)):
        b = pred >= t
        tp = float((b & gt).sum())
        npred = float(b.sum())
        if npred == 0 or npos == 0 or tp == 0:
            continue
        prec = tp / npred
        rec = tp / npos
        out[i] = (1.0 + FB_BETA2) * prec * rec / (FB_BETA2 * prec + rec)
    return out


def saliency_metrics(pred: np.ndarray, gt: np.ndarray) -> MetricReport:
    pred = np.asarray(pred, dtype=np.float64)
    gt01 = np.asarray(gt)
    if pred.min() < -EPS or pred.max() > 1.0 + EPS:
        raise ValueError("prediction must lie in [0, 1]")
    gt_b = gt01.astype(bool)
    max_f = float(thresholded_fbeta(pred, gt_b).max())
    e_vals = [
        _e_measure_binary(pred >= t, gt_b) for t in np.linspace(0.0, 1.0, N_THRESHOLDS)
    ]
    return MetricReport(
        values={
            "S_m": s_measure(pred, gt_b),
            "maxF_beta": max_f,
            "E_m": float(max(e_vals)),
            "MAE": mae(pred, gt_b.astype(np.float64)),
        }
    )
