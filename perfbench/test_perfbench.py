"""Tests of the benchmark's own arithmetic and checks."""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, layers, speed, stats
from perfbench.tracing import Tracer, self_times
from perfbench.workloads import WORKLOADS, Setup

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


# -- tail percentile ------------------------------------------------------------


def test_tail_rule_needs_ten_samples_beyond_p90():
    assert stats.min_samples(90) == 100
    assert stats.beyond(100, 90) == 10
    assert stats.beyond(99, 90) == 9
    value, n_beyond, ok = stats.tail(list(range(100)), 90)
    assert (value, n_beyond, ok) == (89, 10, True)
    assert sum(x > value for x in range(100)) == n_beyond
    assert stats.tail(list(range(99)), 90)[2] is False


def test_percentile_is_nearest_rank_and_order_free():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(samples, 50) == 3.0
    assert stats.percentile(samples, 90) == 5.0
    assert stats.rank(1, 90) == 1
    with pytest.raises(ValueError):
        stats.rank(0, 90)


def test_block_median_follows_the_share_of_each_speed():
    fast, slow = [10.0] * 40, [20.0] * 60
    assert stats.percentile(fast + slow, 50) == 20.0  # the overall median picks one speed
    assert stats.block_median(fast + slow) == 16.0  # blocks: 4 at 10, 6 at 20
    outlier = [10.0] * 9 + [500.0]
    assert stats.block_median(outlier * 3) == 10.0
    assert stats.block_median([3.0, 1.0, 2.0, 4.0]) == 2.5  # under one block: plain median
    assert stats.block_median([1.0] * 10 + [9.0] * 5) == 1.0  # the partial block is left out


def test_slowdown_is_the_median_probe_over_the_reference():
    sp = speed.Speed()
    sp.times = [speed.REFERENCE_S * f for f in (2.0, 1.0, 1.5)]
    assert sp.slowdown == pytest.approx(1.5)
    sp.maybe_probe()  # the first call always probes
    sp.maybe_probe()  # then not again within INTERVAL_S
    assert len(sp.times) == 4 and sp.times[-1] > 0


# -- self time ------------------------------------------------------------------


def test_self_time_subtracts_covered_child_intervals():
    # root [0,100] > a [10,40] > a1 [20,30];  root > b [50,90]
    start = [0, 10, 20, 50]
    end = [100, 40, 30, 90]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent).tolist() == [30, 20, 10, 40]
    keep_b = [True, True, True, False]  # b's time stays with the root
    assert self_times(start, end, parent, keep_b).tolist() == [70, 20, 10, 40]


def test_traced_calls_nest_and_self_times_sum_to_the_root():
    class Box:
        def outer(self):
            return self.inner() + self.inner()

        def inner(self):
            return sum(range(1000))

    tracer = Tracer()
    tracer.add_target(Box, "outer", lambda fn: tracer.wrap(fn, "box.outer", "box"))
    tracer.add_target(Box, "inner", lambda fn: tracer.wrap(fn, "box.inner", "box"))
    with tracer.active():
        tracer.current_request = 7
        assert Box().outer() == 2 * sum(range(1000))
    assert Box.outer.__name__ == "outer"  # originals restored
    a = tracer.arrays()
    assert a["parent"].tolist() == [-1, 0, 0]
    assert a["request"].tolist() == [7, 7, 7]
    own = self_times(a["start_ns"], a["end_ns"], a["parent"])
    assert (own >= 0).all()
    assert own.sum() == a["end_ns"][0] - a["start_ns"][0]


def test_traced_errors_are_counted_and_reraised():
    def boom():
        raise ValueError("x")

    tracer = Tracer()
    wrapped = tracer.wrap(boom, "t.boom", "t")
    with pytest.raises(ValueError):
        wrapped()
    assert tracer.errors["t"] == 1
    assert tracer.end[0] >= tracer.start[0]


# -- output checks --------------------------------------------------------------


def test_mask_check_rejects_a_flipped_confident_pixel():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(16, 16))
    mask = (logits > 0).astype(np.uint8)
    assert checks.mask_matches(mask, logits)
    i = np.unravel_index(np.argmax(np.abs(logits)), logits.shape)
    bad = mask.copy()
    bad[i] ^= 1
    assert not checks.mask_matches(bad, logits)
    assert not checks.mask_matches(mask[:8], logits)


def test_mask_check_allows_flips_at_the_threshold():
    logits = np.array([[1.0, -1.0], [1e-9, -2.0]])
    mask = np.array([[1, 0], [0, 0]], dtype=np.uint8)  # 1e-9 sits inside the tolerance
    assert checks.mask_matches(mask, logits)


def test_map_check_passes_float32_rounding_and_rejects_perturbation():
    rng = np.random.default_rng(1)
    ref = rng.uniform(0.0, 1e-3, size=(32, 32))
    assert checks.map_matches(ref.astype(np.float32), ref)
    bad = ref.astype(np.float32)
    bad[3, 4] += np.float32(1e-3 * ref.max())
    assert not checks.map_matches(bad, ref)
    bad = ref.astype(np.float32)
    bad[0, 0] = np.nan
    assert not checks.map_matches(bad, ref)


def test_loss_checks():
    assert checks.first_mismatch([0.5, 0.4], [0.5, 0.4 * (1 + 1e-7)], checks.LOSS_RTOL) is None
    assert checks.first_mismatch([0.5, 0.41], [0.5, 0.4], checks.LOSS_RTOL) == 1
    assert not checks.loss_ok(float("nan"))
    assert checks.loss_ok(0.69)


def test_score_oracles_match_hand_counts():
    mask = np.array([[1, 1], [0, 0]])
    gt = np.array([[1, 0], [1, 0]])
    assert checks.change_scores(mask, gt) == (1, 1, 1, 1, 0.5)
    pred = np.zeros((4, 4))
    pred[0, 0] = 2.0
    gt = np.zeros((4, 4))
    gt[3, 3] = 1.0
    # one cell: |2-1|; 2x2 and finer: the mass sits in different cells
    assert checks.density_scores(pred, gt) == (1.0, 3.0, 3.0, 3.0, 1.0)


def test_setup_rejects_a_perturbed_inference_output(tmp_path):
    setup = Setup(WORKLOADS["infer-change-64"], 3, tmp_path / "s")
    for _ in range(3):
        setup.request()
    assert setup.verify(None) == (set(), [])
    key = setup.keys[1]
    out = setup.outputs[key]
    out[0, 0] ^= 1
    out[-1, -1] ^= 1
    failed, problems = setup.verify(None)
    assert failed == {1} and problems
    setup.close()


def test_setup_rejects_a_perturbed_training_loss(tmp_path):
    setup = Setup(WORKLOADS["train-change-64"], 3, tmp_path / "s")
    for _ in range(3):
        setup.request()
    assert setup.verify(None) == (set(), [])
    setup.losses[1] *= 1.001
    failed, _ = setup.verify(None)
    assert failed == {1, 2}
    setup.close()


# -- metric names -----------------------------------------------------------------


def test_every_metric_name_is_well_formed_and_measured():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in spec[kind]]
    names += [w["name"] for w in spec["workloads"]]
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    measured = layers.per_layer_metrics(Tracer(), pairs=1, steps=0, setups=1, peak_live_elements=0)
    measured.update(dict.fromkeys(("trace.untraced_pairs_per_s", "trace.traced_pairs_per_s",
                                   "trace.overhead_pct")))
    assert set(measured) == {m["name"] for m in spec["per_layer"]}
