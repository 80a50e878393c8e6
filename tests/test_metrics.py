"""Metric correctness: hand cases, independent pixel-loop oracles, invariants."""

import math

import numpy as np
import pytest

from bisource.metrics import (
    ClassConfusion,
    binary_metrics,
    binary_metrics_from_counts,
    confusion_binary,
    game,
    grid_count_error,
    mae,
    rmse_counts,
    s_measure,
    saliency_metrics,
    segmentation_metrics,
    thresholded_fbeta,
)

from oracles import (
    binary_metrics_loops,
    confusion_counts_loops,
    fbeta_sweep_loops,
    fraction_correct_loops,
    grid_error_divisible,
    segmentation_metrics_loops,
)


def rng(seed):
    return np.random.default_rng(seed)


# -- binary confusion metrics ---------------------------------------------------


def test_binary_hand_case():
    # tp=3 fp=1 fn=1 tn=5 on a 10-pixel map
    gt = np.array([[1, 1, 1, 1, 0], [0, 0, 0, 0, 0]], dtype=np.uint8)
    pred = np.array([[1, 1, 1, 0, 1], [0, 0, 0, 0, 0]], dtype=np.uint8)
    m = binary_metrics(pred, gt)
    assert abs(m.values["Pre"] - 0.75) < 1e-12
    assert abs(m.values["Rec"] - 0.75) < 1e-12
    assert abs(m.values["F1"] - 0.75) < 1e-12
    assert abs(m.values["IOU"] - 0.6) < 1e-12
    assert abs(m.values["OA"] - 0.8) < 1e-12


def test_binary_perfect_and_inverted():
    gt = (rng(0).random((16, 16)) > 0.5).astype(np.uint8)
    perfect = binary_metrics(gt, gt)
    for k in ("Pre", "Rec", "F1", "IOU", "OA"):
        assert perfect.values[k] == 1.0
    flipped = binary_metrics(1 - gt, gt)
    assert flipped.values["F1"] == 0.0
    assert flipped.values["OA"] == 0.0


def test_binary_matches_pixel_loop_oracle():
    r = rng(1)
    for _ in range(200):
        gt = (r.random((16, 16)) > r.random()).astype(np.uint8)
        pred = (r.random((16, 16)) > r.random()).astype(np.uint8)
        ours = binary_metrics(pred, gt)
        ref = binary_metrics_loops(pred, gt)
        for k in ref:
            assert ours.values[k] == ref[k]
        assert ours.values["OA"] == fraction_correct_loops(pred, gt)


def test_f1_harmonic_identity_and_iou_bound():
    r = rng(2)
    for _ in range(1000):
        gt = (r.random((8, 8)) > r.random()).astype(np.uint8)
        pred = (r.random((8, 8)) > r.random()).astype(np.uint8)
        m = binary_metrics(pred, gt)
        if m.values["Pre"] + m.values["Rec"] > 0:
            h = 2 * m.values["Pre"] * m.values["Rec"] / (m.values["Pre"] + m.values["Rec"])
            assert abs(m.values["F1"] - h) < 1e-12
        assert m.values["IOU"] <= m.values["F1"] + 1e-12


def test_zero_denominator_flagged():
    counts = confusion_binary(
        np.zeros((4, 4), dtype=np.uint8), np.zeros((4, 4), dtype=np.uint8)
    )
    m = binary_metrics_from_counts(counts)
    assert m.values["Pre"] == 0.0 and m.values["Rec"] == 0.0 and m.values["F1"] == 0.0
    assert "Pre" in m.undefined and "Rec" in m.undefined
    assert m.values["OA"] == 1.0


def test_confusion_rejects_nonbinary():
    with pytest.raises(ValueError):
        confusion_binary(np.full((2, 2), 2, np.uint8), np.zeros((2, 2), np.uint8))
    with pytest.raises(ValueError, match=r"^gt is not binary \(values \[.*nan\]\)$"):
        confusion_binary(np.zeros(3, np.uint8), np.array([0.0, 1.0, np.nan]))


@pytest.mark.parametrize("dtype", [np.uint8, bool])
@pytest.mark.parametrize("kind", ["random", "zeros", "ones", "mixed"])
def test_confusion_counts_match_a_pixel_loop(kind, dtype):
    r = rng(5)
    random = lambda: r.random((64, 64)) > 0.5
    pred, gt = {
        "random": (random(), random()),
        "zeros": (np.zeros((64, 64)), np.zeros((64, 64))),
        "ones": (np.ones((64, 64)), np.ones((64, 64))),
        "mixed": (np.zeros((64, 64)), np.ones((64, 64))),
    }[kind]
    pred, gt = pred.astype(dtype), gt.astype(dtype)
    c = confusion_binary(pred, gt)
    assert {"tp": c.tp, "tn": c.tn, "fp": c.fp, "fn": c.fn} == confusion_counts_loops(pred, gt)
    assert all(type(v) is int for v in (c.tp, c.tn, c.fp, c.fn))


def test_binary_permutation_invariance():
    r = rng(3)
    gt = (r.random((12, 12)) > 0.5).astype(np.uint8)
    pred = (r.random((12, 12)) > 0.5).astype(np.uint8)
    perm = r.permutation(144)
    m1 = binary_metrics(pred, gt)
    m2 = binary_metrics(
        pred.reshape(-1)[perm].reshape(12, 12), gt.reshape(-1)[perm].reshape(12, 12)
    )
    for k in ("Pre", "Rec", "F1", "IOU", "OA"):
        assert m1.values[k] == m2.values[k]


# -- grid count errors ------------------------------------------------------------


def test_game_zero_when_equal():
    d = rng(4).random((32, 32))
    for level in range(4):
        assert grid_count_error(d, d, level) == 0.0
        assert game([d], [d], level) == 0.0


def test_game_quadrant_hand_case():
    # pred puts 10 extra in one quadrant and 10 missing in another: global
    # sums match (level 0 error 0) but level 1 sees 20 absolute error.
    gt = np.zeros((8, 8))
    pred = np.zeros((8, 8))
    pred[:4, :4] += 10.0 / 16
    gt[4:, 4:] += 10.0 / 16
    assert abs(grid_count_error(pred, gt, 0)) < 1e-9
    assert abs(grid_count_error(pred, gt, 1) - 20.0) < 1e-9


def test_game_matches_bruteforce_oracle():
    r = rng(5)
    for _ in range(50):
        pred = r.random((16, 16)) * 3
        gt = r.random((16, 16)) * 3
        for level in range(4):
            assert (
                abs(grid_count_error(pred, gt, level) - grid_error_divisible(pred, gt, 2**level))
                < 1e-9
            )


def test_game_monotone_in_level():
    r = rng(6)
    for _ in range(100):
        pred = r.random((32, 32))
        gt = r.random((32, 32))
        errs = [grid_count_error(pred, gt, lv) for lv in range(4)]
        for a, b in zip(errs, errs[1:]):
            assert b >= a - 1e-9


def test_rmse_counts_examples():
    # counts off by (1, 2) over two images -> sqrt((1+4)/2)
    assert abs(rmse_counts([2.0, 5.0], [1.0, 3.0]) - math.sqrt(2.5)) < 1e-12
    # single count off by a constant c -> rmse == c
    c = 3.7
    assert abs(rmse_counts([c], [0.0]) - c) < 1e-12
    with pytest.raises(ValueError):
        rmse_counts([], [])


# -- multi-class segmentation ------------------------------------------------------


def test_segmentation_hand_case():
    # confusion [[3,1],[1,3]]: per-class acc 0.75, per-class iou 0.6
    gt = np.array([0, 0, 0, 0, 1, 1, 1, 1]).reshape(2, 4)
    pred = np.array([0, 0, 0, 1, 1, 1, 1, 0]).reshape(2, 4)
    cc = ClassConfusion.empty(2)
    cc.update(pred, gt)
    m = segmentation_metrics(cc)
    assert abs(m.values["PixelAcc"] - 0.75) < 1e-12
    assert abs(m.values["MeanAcc"] - 0.75) < 1e-12
    assert abs(m.values["MeanIOU"] - 0.6) < 1e-12


def test_segmentation_perfect_diagonal():
    gt = rng(7).integers(0, 4, (16, 16))
    cc = ClassConfusion.empty(4)
    cc.update(gt, gt)
    m = segmentation_metrics(cc)
    assert m.values["PixelAcc"] == 1.0 and m.values["MeanAcc"] == 1.0 and m.values["MeanIOU"] == 1.0


def test_segmentation_absent_class_excluded():
    # class 2 never appears in gt or pred: means ignore it
    gt = np.array([[0, 0], [1, 1]])
    pred = np.array([[0, 1], [1, 1]])
    cc = ClassConfusion.empty(3)
    cc.update(pred, gt)
    m = segmentation_metrics(cc)
    ref = segmentation_metrics_loops(pred, gt, 3)
    for k in ref:
        assert abs(m.values[k] - ref[k]) < 1e-12


def test_segmentation_matches_loop_oracle():
    r = rng(8)
    for _ in range(200):
        n_cls = int(r.integers(2, 6))
        gt = r.integers(0, n_cls, (16, 16))
        pred = r.integers(0, n_cls, (16, 16))
        cc = ClassConfusion.empty(n_cls)
        cc.update(pred, gt)
        m = segmentation_metrics(cc)
        ref = segmentation_metrics_loops(pred, gt, n_cls)
        for k in ref:
            assert abs(m.values[k] - ref[k]) < 1e-12


# -- saliency-style continuous metrics ----------------------------------------------


def test_saliency_perfect_prediction():
    gt = (rng(9).random((24, 24)) > 0.5).astype(np.uint8)
    m = saliency_metrics(gt.astype(np.float64), gt)
    assert m.values["MAE"] == 0.0
    assert abs(m.values["S_m"] - 1.0) < 1e-9
    assert abs(m.values["maxF_beta"] - 1.0) < 1e-12
    assert abs(m.values["E_m"] - 1.0) < 1e-9


def test_saliency_inverted_prediction_mae():
    gt = (rng(10).random((24, 24)) > 0.5).astype(np.uint8)
    m = saliency_metrics(1.0 - gt.astype(np.float64), gt)
    assert m.values["MAE"] == 1.0


def test_mae_simple():
    assert mae(np.full((4, 4), 0.25), np.zeros((4, 4), dtype=np.uint8)) == 0.25


def test_max_fbeta_matches_sweep_oracle():
    r = rng(11)
    for _ in range(25):
        pred = r.random((12, 12))
        gt = (r.random((12, 12)) > 0.5).astype(np.uint8)
        assert abs(thresholded_fbeta(pred, gt).max() - fbeta_sweep_loops(pred, gt).max()) < 1e-12


def test_s_measure_degenerate_gt():
    pred = rng(12).random((10, 10))
    all0 = np.zeros((10, 10), dtype=np.uint8)
    all1 = np.ones((10, 10), dtype=np.uint8)
    assert abs(s_measure(pred, all0) - (1.0 - pred.mean())) < 1e-12
    assert abs(s_measure(pred, all1) - pred.mean()) < 1e-12


def test_saliency_permutation_invariance_mae():
    r = rng(13)
    pred = r.random((10, 10))
    gt = (r.random((10, 10)) > 0.5).astype(np.uint8)
    perm = r.permutation(100)
    a = saliency_metrics(pred, gt)
    b = saliency_metrics(
        pred.reshape(-1)[perm].reshape(10, 10), gt.reshape(-1)[perm].reshape(10, 10)
    )
    assert a.values["MAE"] == b.values["MAE"]
    assert abs(a.values["maxF_beta"] - b.values["maxF_beta"]) < 1e-12


def test_saliency_rejects_out_of_range():
    gt = np.zeros((4, 4), dtype=np.uint8)
    with pytest.raises(ValueError):
        saliency_metrics(np.full((4, 4), 1.5), gt)
