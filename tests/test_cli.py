"""Command-line interface: subcommands, config merge, exit codes, outputs."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bisource import bench
from bisource.cli import main
from bisource.io import load_json, load_tensor_dir
from bisource.model import BiSourceModel, ModelConfig


def run_cli(*argv):
    return main(list(argv))


def gen(tmp_path, task="change", count=4, size=64, seed=1, name="data"):
    out = tmp_path / name
    rc = run_cli("gen-data", "--task", task, "--out", str(out),
                 "--count", str(count), "--size", str(size), "--seed", str(seed))
    assert rc == 0
    return out


# -- gen-data ------------------------------------------------------------------


def test_gen_data_deterministic(tmp_path, capsys):
    a = gen(tmp_path, name="a", seed=9)
    b = gen(tmp_path, name="b", seed=9)
    ma = (a / "manifest.json").read_bytes()
    mb = (b / "manifest.json").read_bytes()
    # manifests identical apart from nothing: byte-for-byte reproducible
    assert ma == mb


def test_gen_data_count_zero(tmp_path):
    out = tmp_path / "empty"
    rc = run_cli("gen-data", "--task", "density", "--out", str(out), "--count", "0")
    assert rc == 0
    assert load_json(out / "manifest.json")["samples"] == []


def test_gen_data_bad_task(tmp_path):
    # rejected at the parser level with a nonzero exit status
    with pytest.raises(SystemExit) as exc:
        run_cli("gen-data", "--task", "pose", "--out", str(tmp_path / "x"))
    assert exc.value.code != 0


def test_runtime_error_is_single_line(tmp_path, capsys):
    rc = run_cli("eval", "--task", "change", "--ckpt", str(tmp_path / "missing"),
                 "--data", str(tmp_path / "also-missing"), "--out", str(tmp_path / "m.csv"))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("bisource: error:")
    assert err.count("\n") == 1  # single line


# -- train ----------------------------------------------------------------------


def test_train_epochs_zero_checkpoint_equals_init(tmp_path):
    data = gen(tmp_path, count=2)
    ckpt = tmp_path / "ckpt"
    rc = run_cli("train", "--task", "change", "--data", str(data),
                 "--out", str(ckpt), "--epochs", "0", "--channels", "4",
                 "--k", "2", "--seed", "3")
    assert rc == 0
    arrays, manifest = load_tensor_dir(ckpt)
    fresh = BiSourceModel(ModelConfig.from_json(manifest["model_config"]), seed=3)
    init = fresh.state_arrays()
    assert set(arrays) == set(init)
    for name in init:
        np.testing.assert_array_equal(arrays[name], init[name])


def test_train_writes_loss_log_and_is_deterministic(tmp_path):
    data = gen(tmp_path, count=2)
    outs = []
    for name in ("c1", "c2"):
        ckpt = tmp_path / name
        rc = run_cli("train", "--task", "change", "--data", str(data),
                     "--out", str(ckpt), "--epochs", "1", "--channels", "4",
                     "--k", "2", "--batch-size", "2", "--seed", "3")
        assert rc == 0
        assert sorted(f.name for f in ckpt.iterdir()) == ["checkpoint.bin", "loss.csv"]
        arrays, _ = load_tensor_dir(ckpt)
        outs.append(arrays)
    for name in outs[0]:
        np.testing.assert_array_equal(outs[0][name], outs[1][name])


def test_train_missing_data_errors(tmp_path, capsys):
    rc = run_cli("train", "--task", "change", "--data", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "ckpt"))
    assert rc == 1
    assert capsys.readouterr().err.startswith("bisource: error:")


def test_train_config_file_merge(tmp_path):
    data = gen(tmp_path, count=2)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 0, "channels": 4, "k": "2"}))
    ckpt = tmp_path / "ckpt"
    rc = run_cli("train", "--task", "change", "--data", str(data),
                 "--out", str(ckpt), "--config", str(cfg), "--seed", "3")
    assert rc == 0
    _, manifest = load_tensor_dir(ckpt)
    assert manifest["model_config"]["base_channels"] == 4
    # explicit flag wins over the config file
    ckpt2 = tmp_path / "ckpt2"
    rc = run_cli("train", "--task", "change", "--data", str(data),
                 "--out", str(ckpt2), "--config", str(cfg),
                 "--channels", "8", "--seed", "3")
    assert rc == 0
    _, manifest2 = load_tensor_dir(ckpt2)
    assert manifest2["model_config"]["base_channels"] == 8


# -- eval -----------------------------------------------------------------------


@pytest.mark.parametrize("task", ["change", "density"])
def test_train_then_eval_round_trip(tmp_path, capsys, task):
    data = gen(tmp_path, task=task, count=2)
    ckpt = tmp_path / "ckpt"
    rc = run_cli("train", "--task", task, "--data", str(data),
                 "--out", str(ckpt), "--epochs", "1", "--channels", "4",
                 "--k", "2", "--batch-size", "2", "--seed", "3")
    assert rc == 0
    out_csv = tmp_path / "metrics.csv"
    rc = run_cli("eval", "--task", task, "--ckpt", str(ckpt),
                 "--data", str(data), "--out", str(out_csv))
    assert rc == 0
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3  # 2 images + aggregate
    assert rows[-1]["image"] == "aggregate"
    if task == "change":
        assert 0.0 <= float(rows[-1]["F1"]) <= 1.0
    else:
        assert float(rows[-1]["rmse"]) >= 0.0
        # each aggregate GAME_l is the mean of its per-image column, within
        # the CSV's rounding of both to 6 decimals
        for lv in range(4):
            col = [float(r[f"game_{lv}"]) for r in rows[:-1]]
            assert float(rows[-1][f"game_{lv}"]) == pytest.approx(np.mean(col), abs=1e-6 + 1e-12)


def test_eval_is_deterministic(tmp_path):
    data = gen(tmp_path, count=2)
    ckpt = tmp_path / "ckpt"
    run_cli("train", "--task", "change", "--data", str(data), "--out", str(ckpt),
            "--epochs", "0", "--channels", "4", "--k", "2", "--seed", "3")
    c1, c2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    for out in (c1, c2):
        rc = run_cli("eval", "--task", "change", "--ckpt", str(ckpt),
                     "--data", str(data), "--out", str(out))
        assert rc == 0
    assert c1.read_bytes() == c2.read_bytes()


# -- gradcheck ------------------------------------------------------------------


def test_gradcheck_op_scope_passes(capsys):
    assert run_cli("gradcheck", "--scope", "op", "--seed", "0") == 0
    assert "PASS" in capsys.readouterr().out


def test_gradcheck_batch_scope_passes(capsys):
    assert run_cli("gradcheck", "--scope", "batch", "--seed", "0") == 0
    assert capsys.readouterr().out.startswith("batch: PASS")


def test_gradcheck_impossible_tolerance_fails(capsys):
    assert run_cli("gradcheck", "--scope", "op", "--tol", "0") == 1


def test_gradcheck_unknown_scope_errors():
    with pytest.raises(SystemExit) as exc:
        run_cli("gradcheck", "--scope", "everything")
    assert exc.value.code != 0


# -- bench ----------------------------------------------------------------------


def test_bench_small_sweep_writes_csv(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "SETTLE_S", 0.0)
    out = tmp_path / "bench.csv"
    rc = run_cli("bench", "--tokens", "16,64,256", "--variants", "ada:4",
                 "--out", str(out), "--seed", "0")
    assert rc == 0
    text = out.read_text()
    assert text.startswith("#")
    body = [l for l in text.splitlines() if not l.startswith("#")]
    rows = list(csv.DictReader(body))
    assert len(rows) == 3
    assert all(r["variant"] == "ada" for r in rows)


def test_bench_bad_variant_exits_before_timing_anything(tmp_path, monkeypatch, capsys):
    timed = []
    monkeypatch.setattr(bench, "_run_once", lambda *a: timed.append(a) or 1e-3)
    out = tmp_path / "bench.csv"
    rc = run_cli("bench", "--tokens", "16,64,256", "--variants", "ada:4,bogus",
                 "--out", str(out))
    assert rc == 1
    assert "'bogus'" in capsys.readouterr().err
    assert timed == [] and not out.exists()


# -- parser-level behavior ---------------------------------------------------------


def test_unknown_subcommand_exits_nonzero():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "bisource", "--help"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: bisource")
