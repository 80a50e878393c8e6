"""Scaling benchmark harness: CSV schema, slope fits, skip logic."""

import csv
import io as stdio
import math
import time

import pytest

from bisource import bench
from bisource.ada import INF_PROTOTYPES, flops_of
from bisource.bench import (
    BenchRow,
    CSV_COLUMNS,
    SweepConfig,
    dominant_buffer_elements,
    fit_loglog_slope,
    parse_variant,
    run_sweep,
    slope_summary,
    write_csv,
)


def synthetic_rows(exponent, tokens=(64, 256, 1024, 4096)):
    return [
        BenchRow(
            variant="ada", K="4", L=L, C=8, D=8, flops=float(L), params=1,
            wall_time_s=float(L) ** exponent, peak_elements=max(int(L**exponent), 1),
        )
        for L in tokens
    ]


def test_fit_recovers_synthetic_power_law():
    slope, stderr = fit_loglog_slope(synthetic_rows(1.5), "wall_time_s")
    assert abs(slope - 1.5) < 1e-9
    assert stderr < 1e-9


def test_fit_requires_four_points():
    with pytest.raises(ValueError):
        fit_loglog_slope(synthetic_rows(1.0, tokens=(64, 256, 1024)), "wall_time_s")


def test_fit_rejects_nonpositive_metric():
    rows = synthetic_rows(1.0)
    rows[0].wall_time_s = 0.0
    with pytest.raises(ValueError):
        fit_loglog_slope(rows, "wall_time_s")


def test_fit_ignores_skipped_rows():
    rows = synthetic_rows(2.0, tokens=(64, 256, 1024, 4096, 16384))
    rows[-1].skipped = True
    rows[-1].wall_time_s = 0.0
    slope, _ = fit_loglog_slope(rows, "wall_time_s")
    assert abs(slope - 2.0) < 1e-9


def test_parse_variant():
    assert parse_variant("std") == ("std", None)
    assert parse_variant("ada:4") == ("ada", 4.0)
    kind, k = parse_variant("ada:inf")
    assert kind == "ada" and math.isinf(k)
    with pytest.raises(ValueError):
        parse_variant("foo:4")


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(token_counts=(256, 256))
    with pytest.raises(ValueError):
        SweepConfig(token_counts=(1024, 256))
    with pytest.raises(ValueError):
        SweepConfig(trials=2)
    with pytest.raises(ValueError):
        SweepConfig(token_counts=(200,))  # not a perfect square


def test_dominant_buffer_quadratic_for_dense_variants():
    big_L = 65536
    assert dominant_buffer_elements("std", None, big_L, 32, 32) >= big_L * big_L
    assert dominant_buffer_elements("ada", INF_PROTOTYPES, big_L, 32, 32) >= big_L * big_L
    # fixed prototype count stays linear in tokens
    assert dominant_buffer_elements("ada", 4.0, big_L, 32, 32) < big_L * 128


def test_small_sweep_rows_and_flops(monkeypatch):
    monkeypatch.setattr(bench, "SETTLE_S", 0.0)
    cfg = SweepConfig(
        token_counts=(16, 64, 256), variants=("ada:4", "std"),
        feat_dim=8, proto_dim=8, trials=3, warmup=0,
    )
    rows = run_sweep(cfg)
    assert len(rows) == 6
    for r in rows:
        assert not r.skipped
        assert r.wall_time_s > 0
        assert r.peak_elements > 0
        assert r.params > 0
        k = None if r.variant == "std" else (INF_PROTOTYPES if r.K == "inf" else float(r.K))
        expect = flops_of(r.variant, r.L, r.L, r.D, r.C, K=k)
        assert r.flops == expect["total"]


def _scripted_calls(monkeypatch, times_ms):
    """Make each forward call report the next scripted time; returns the call log."""
    log = []

    def fake_run_once(kind, unit, pair, slot):
        log.append(kind)
        return times_ms[min(len(log), len(times_ms)) - 1] / 1e3

    monkeypatch.setattr(bench, "_run_once", fake_run_once)
    return log


def test_warm_up_runs_until_timings_stop_falling(monkeypatch):
    # warm-up stops at the first call that is no longer faster than
    # STEADY_RATIO x the call before it
    log = _scripted_calls(monkeypatch, [40, 20, 10, 5, 4.9, 5])
    bench._warm_up("ada", None, None, None, min_calls=1, settle_until=0.0)
    assert len(log) == 5
    log = _scripted_calls(monkeypatch, [5, 5, 5, 5, 5, 5, 5])
    bench._warm_up("ada", None, None, None, min_calls=4, settle_until=0.0)
    assert len(log) == 4


def test_warm_up_waits_for_the_sweep_to_settle(monkeypatch):
    log = _scripted_calls(monkeypatch, [5])
    t0 = time.perf_counter()
    bench._warm_up("ada", None, None, None, min_calls=1, settle_until=t0 + 0.05)
    assert time.perf_counter() - t0 >= 0.05
    assert len(log) >= 2


def test_sweep_skips_over_memory_cap(monkeypatch):
    monkeypatch.setattr(bench, "SETTLE_S", 0.0)
    cfg = SweepConfig(
        token_counts=(16, 64, 256), variants=("std",),
        feat_dim=8, proto_dim=8, trials=3, warmup=0,
        memory_cap_elements=1000,
    )
    rows = run_sweep(cfg)
    skipped = [r for r in rows if r.skipped]
    assert skipped
    for r in skipped:
        assert r.skip_reason
        assert r.wall_time_s == 0.0
    # rows below the cap still run
    assert any(not r.skipped for r in rows if r.L == 16)


def test_write_csv_schema(tmp_path):
    rows = synthetic_rows(1.0)
    path = tmp_path / "bench.csv"
    write_csv(path, rows)
    text = path.read_text()
    assert text.startswith("#")  # versioned schema comment
    body = "\n".join(l for l in text.splitlines() if not l.startswith("#"))
    reader = csv.DictReader(stdio.StringIO(body))
    assert reader.fieldnames == list(CSV_COLUMNS)
    parsed = list(reader)
    assert len(parsed) == len(rows)
    assert parsed[0]["variant"] == "ada"
    assert parsed[0]["K"] == "4"
    assert int(parsed[0]["L"]) == 64


def test_slope_summary_shape():
    rows = synthetic_rows(1.5)
    out = slope_summary(rows)
    assert "ada:4" in out
    assert abs(out["ada:4"]["wall_time_s"][0] - 1.5) < 1e-9
    assert abs(out["ada:4"]["flops"][0] - 1.0) < 1e-9
    assert abs(out["ada:4"]["peak_elements"][0] - 1.5) < 2e-2  # int rounding
