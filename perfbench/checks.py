"""Output checks: float64 replays, score oracles and recorded references.

Tolerances (measured with ``base_channels=16``, K=4 and randomized gates):
a float32 forward pass differs from a float64 replay of the same weights by at
most 2e-6 of the output's largest magnitude, while the prototype-attention
path alone moves the output by 3e-4 (256 px) to 4e-3 (64 px) of it.
``OUTPUT_RTOL`` sits between, so float32 reassociation passes and a wrong
kernel anywhere in the model fails.  Float32 and float64 training losses
agreed to 2e-7 (relative) over 32 AdamW steps.
"""

from __future__ import annotations

import math

import numpy as np

OUTPUT_RTOL = 2e-5
LOSS_RTOL = 1e-5
REFERENCE_RTOL = 1e-4
SCORE_RTOL = 1e-6  # the count error is reported from float32 sums of the map
LOSS_RANGE = (0.0, 10.0)
GAME_LEVELS = (0, 1, 2, 3)


def confident(logits64: np.ndarray, rtol: float = OUTPUT_RTOL) -> np.ndarray:
    """Pixels whose float64 logit is clear of the decision threshold."""
    scale = float(np.abs(logits64).max())
    return np.abs(logits64) > rtol * scale


def mask_matches(mask: np.ndarray, logits64: np.ndarray, rtol: float = OUTPUT_RTOL) -> bool:
    """A {0,1} mask agrees with float64 logits wherever they are confident."""
    if mask.shape != logits64.shape:
        return False
    sure = confident(logits64, rtol)
    return bool(np.array_equal(mask[sure] != 0, logits64[sure] > 0))


def map_matches(pred: np.ndarray, ref64: np.ndarray, rtol: float = OUTPUT_RTOL) -> bool:
    """A map agrees with its float64 replay to ``rtol`` of the replay's peak."""
    if pred.shape != ref64.shape or not np.isfinite(pred).all():
        return False
    err = np.abs(pred.astype(np.float64) - ref64).max()
    return bool(err <= rtol * float(np.abs(ref64).max()))


def loss_ok(loss: float) -> bool:
    lo, hi = LOSS_RANGE
    return math.isfinite(loss) and lo < loss < hi


def first_mismatch(values, expected, rtol: float) -> int | None:
    """Index of the first value not within ``rtol`` of its expectation."""
    for i, (v, e) in enumerate(zip(values, expected)):
        if not abs(v - e) <= rtol * max(abs(e), 1e-12):
            return i
    return None


# ---------------------------------------------------------------------------
# score oracles (straight-line re-computations of what each request reports)
# ---------------------------------------------------------------------------


def change_scores(mask: np.ndarray, gt: np.ndarray) -> tuple[float, ...]:
    """(tp, fp, fn, tn, F1) of a {0,1} mask against a {0,1} target."""
    p = mask.astype(bool)
    g = gt.astype(bool)
    tp = int(np.count_nonzero(p & g))
    fp = int(np.count_nonzero(p & ~g))
    fn = int(np.count_nonzero(~p & g))
    tn = int(np.count_nonzero(~p & ~g))
    den = 2 * tp + fp + fn
    return tp, fp, fn, tn, (2 * tp / den if den else 0.0)


def density_scores(pred: np.ndarray, gt: np.ndarray) -> tuple[float, ...]:
    """(GAME level 0..3, absolute count error) of a density map."""
    diff = pred.astype(np.float64) - gt.astype(np.float64)
    h, w = diff.shape
    table = np.zeros((h + 1, w + 1))  # summed-area table; empty cells sum to 0
    table[1:, 1:] = diff.cumsum(axis=0).cumsum(axis=1)
    out = []
    for level in GAME_LEVELS:
        cells = 2**level
        r = np.array([(h * j) // cells for j in range(cells + 1)])
        c = np.array([(w * j) // cells for j in range(cells + 1)])
        cell = (table[np.ix_(r[1:], c[1:])] - table[np.ix_(r[:-1], c[1:])]
                - table[np.ix_(r[1:], c[:-1])] + table[np.ix_(r[:-1], c[:-1])])
        out.append(float(np.abs(cell).sum()))
    out.append(abs(float(pred.sum()) - float(gt.sum())))
    return tuple(out)


def scores_match(got, expected, rtol: float = SCORE_RTOL) -> bool:
    return len(got) == len(expected) and all(
        abs(a - b) <= rtol * max(abs(b), 1.0) for a, b in zip(got, expected)
    )
