"""Top-level acceptance checks.  Each test prints a single pass/fail line for
its criterion.  Shared toy datasets are generated once per session.
"""

import csv
import time
import warnings

import numpy as np
import pytest

from bisource import (
    AdamW,
    BiSourceModel,
    ModelConfig,
    Rng,
    Tensor,
    grad_check,
    train_step,
)
from bisource.ada import AdaConfig, ParamRegistry, SourcePair, make_attention
from bisource.bench import SweepConfig, fit_loglog_slope, run_sweep
from bisource.cli import GRADCHECK_SCOPES, change_scores, load_checkpoint, main
from bisource.data import generate_dataset, load_dataset
from bisource.io import load_cpt1, read_pgm, save_cpt1, write_pgm
from bisource.metrics import (
    binary_metrics,
    grid_count_error,
    saliency_metrics,
    segmentation_metrics,
    thresholded_fbeta,
    ClassConfusion,
)

from oracles import (
    binary_metrics_loops,
    fbeta_sweep_loops,
    grid_error_divisible,
    proto_forward,
    params_dict,
    segmentation_metrics_loops,
)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nCRITERION {num} [{name}]: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


@pytest.fixture(scope="session")
def toy_change(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy-change")
    generate_dataset("change", root / "train", count=512, size=64, seed=0)
    generate_dataset("change", root / "test", count=128, size=64, seed=1)
    return root


@pytest.fixture(scope="session")
def small_change(tmp_path_factory):
    root = tmp_path_factory.mktemp("small-change")
    generate_dataset("change", root / "train", count=256, size=32, seed=10)
    generate_dataset("change", root / "test", count=32, size=32, seed=11)
    return root


# -- 1: gradient correctness -------------------------------------------------------


def test_criterion_1_gradients():
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    for seed in range(5):
        for salt, (scope, build) in enumerate(GRADCHECK_SCOPES.items()):
            f, params = build(Rng(seed).spawn(salt))
            whole_model = scope in ("model", "batch")
            tol = 1e-3 if whole_model else 1e-4
            cap = 1 if whole_model else 2
            rep = grad_check(f, params, h=1e-5, tol=tol,
                             max_elements_per_param=cap, seed=seed)
            worst = max(worst, rep.worst.rel_error)
            ok &= rep.passed
    elapsed = time.perf_counter() - t0
    report(1, "gradient correctness", ok and elapsed < 120.0,
           f"worst rel err {worst:.2e}, {elapsed:.0f}s")


# -- 2: attention unit matches an independent re-derivation ---------------------------


def test_criterion_2_unit_oracle():
    worst = 0.0
    for seed in range(20):
        rng = Rng(seed)
        cfg = AdaConfig(num_prototypes=2, proto_dim=3, feat_dim=3, comp_op="consistency")
        reg = ParamRegistry(rng, np.float64)
        unit = make_attention("ada", cfg, reg, num_source_tokens=4)
        for name, p in reg.named().items():
            if name.endswith("gate"):
                p.assign(rng.uniform(p.value.shape, -0.5, 0.5, np.float64))
        f1 = Tensor(rng.normal((4, 3), dtype=np.float64))
        f2 = Tensor(rng.normal((4, 3), dtype=np.float64))
        slot = Tensor(rng.normal((4, 3), dtype=np.float64))
        got = unit.forward(SourcePair(f1, f2, 2, 2), slot).data
        want = proto_forward(
            params_dict(reg), "ada", "consistency",
            f1.data, f2.data, 2, 2, slot.data,
        )
        worst = max(worst, float(np.abs(got - want).max()))
    report(2, "unit oracle equivalence", worst < 1e-10, f"max |diff| {worst:.2e}")


# -- 3: zero-gate means prototype banks cannot influence the initial output -----------


def test_criterion_3_zero_gate_bank_independence():
    cfg = ModelConfig(base_channels=4, num_prototypes=4, input_hw=(64, 64))
    model = BiSourceModel(cfg, seed=0)
    rng = Rng(123)
    img1 = rng.uniform((64, 64), 0.0, 1.0).astype(np.float32)
    img2 = rng.uniform((64, 64), 0.0, 1.0).astype(np.float32)
    base = model.forward(model._as_input(img1), model._as_input(img2)).data.copy()
    noise = Rng(999)
    for p in model.parameters():
        if p.name.endswith(".prototypes"):
            p.assign(noise.normal(p.value.shape, 1.0, p.value.data.dtype).data)
    again = model.forward(model._as_input(img1), model._as_input(img2)).data
    identical = np.array_equal(base, again)
    report(3, "zero-gate bank independence", identical, "bit-identical output")


# -- 4: linear-vs-quadratic scaling -------------------------------------------------


def test_criterion_4_scaling():
    t0 = time.perf_counter()
    rows = run_sweep(SweepConfig())  # default sweep up to 65536 tokens
    by = lambda v, k: [r for r in rows if (r.variant, r.K) == (v, k)]
    ada4, ada_inf, std = by("ada", "4"), by("ada", "inf"), by("std", "")

    wall_ada, _ = fit_loglog_slope(ada4, "wall_time_s")
    wall_std, _ = fit_loglog_slope(std, "wall_time_s")
    peak_ada, _ = fit_loglog_slope(ada4, "peak_elements")
    peak_std, _ = fit_loglog_slope(std, "peak_elements")

    biggest = max(r.L for r in rows)
    runs_big = any(r.L == biggest and not r.skipped for r in ada4)
    skips_big = all(r.skipped for r in std + ada_inf if r.L == biggest)
    elapsed = time.perf_counter() - t0

    ok = (
        0.8 <= wall_ada <= 1.3
        and 1.6 <= wall_std <= 2.3
        and peak_ada <= 1.2
        and peak_std >= 1.7
        and runs_big
        and skips_big
        and elapsed < 300.0
    )
    report(4, "linear scaling", ok,
           f"wall slopes ada {wall_ada:.2f} / std {wall_std:.2f}, "
           f"peak slopes ada {peak_ada:.2f} / std {peak_std:.2f}, {elapsed:.0f}s")


# -- 5: metric oracles -----------------------------------------------------------


def test_criterion_5_metric_oracles():
    r = np.random.default_rng(0)
    ok = True
    for _ in range(200):
        gt = (r.random((16, 16)) > r.random()).astype(np.uint8)
        pred = (r.random((16, 16)) > r.random()).astype(np.uint8)
        ours = binary_metrics(pred, gt).values
        ref = binary_metrics_loops(pred, gt)
        ok &= all(ours[k] == ref[k] for k in ref)
        n_cls = int(r.integers(2, 5))
        sg = r.integers(0, n_cls, (16, 16))
        sp = r.integers(0, n_cls, (16, 16))
        cc = ClassConfusion.empty(n_cls)
        cc.update(sp, sg)
        seg = segmentation_metrics(cc).values
        seg_ref = segmentation_metrics_loops(sp, sg, n_cls)
        ok &= all(abs(seg[k] - seg_ref[k]) < 1e-12 for k in seg_ref)
        gray = r.random((16, 16))
        ok &= abs(thresholded_fbeta(gray, gt).max() - fbeta_sweep_loops(gray, gt).max()) < 1e-12
        sal = saliency_metrics(gray, gt).values
        ok &= 0.0 <= sal["MAE"] <= 1.0

    for _ in range(100):
        dp = r.random((32, 32))
        dg = r.random((32, 32))
        errs = [grid_count_error(dp, dg, lv) for lv in range(4)]
        ok &= all(b >= a - 1e-9 for a, b in zip(errs, errs[1:]))
        ok &= all(
            abs(errs[lv] - grid_error_divisible(dp, dg, 2**lv)) < 1e-9
            for lv in range(4)
        )

    hand_gt = np.array([[1, 1, 1, 1, 0], [0, 0, 0, 0, 0]], dtype=np.uint8)
    hand_pred = np.array([[1, 1, 1, 0, 1], [0, 0, 0, 0, 0]], dtype=np.uint8)
    hand = binary_metrics(hand_pred, hand_gt).values
    ok &= abs(hand["F1"] - 0.75) < 1e-12 and abs(hand["IOU"] - 0.6) < 1e-12
    report(5, "metric oracle equivalence", ok)


# -- 6: toy end-to-end training ----------------------------------------------------


@pytest.mark.slow
def test_criterion_6_toy_training(toy_change, tmp_path):
    t0 = time.perf_counter()
    ckpt = tmp_path / "ckpt"
    rc = main([
        "train", "--task", "change",
        "--data", str(toy_change / "train"),
        "--out", str(ckpt),
        "--epochs", "20", "--channels", "16", "--k", "4",
        "--batch-size", "8", "--seed", "0",
        "--eval-data", str(toy_change / "test"), "--stop-f1", "0.80",
    ])
    elapsed = time.perf_counter() - t0
    model = load_checkpoint(ckpt)
    _, test_samples = load_dataset(toy_change / "test")
    f1 = change_scores(model, test_samples)[1]["F1"]
    ok = rc == 0 and f1 >= 0.80 and elapsed < 900.0
    report(6, "toy end-to-end", ok, f"test F1 {f1:.3f}, {elapsed:.0f}s")


# -- 7: ablation direction (soft: warning only) --------------------------------------


@pytest.mark.slow
def test_criterion_7_ablation_direction(small_change):
    _, train_samples = load_dataset(small_change / "train")
    _, test_samples = load_dataset(small_change / "test")

    def run(drop, seed):
        cfg = ModelConfig(base_channels=16, num_prototypes=4, input_hw=(32, 32),
                          ablate=tuple(sorted(drop)))
        model = BiSourceModel(cfg, seed=seed)
        opt = AdamW(model.parameters(), lr=3e-3, weight_decay=0.01)
        rng = Rng(seed)
        for epoch in range(6):
            order = rng.spawn(epoch).permutation(len(train_samples))
            for start in range(0, len(order), 8):
                batch = [train_samples[i] for i in order[start : start + 8]]
                train_step(model, batch, opt)
        return change_scores(model, test_samples)[1]["F1"]

    means = {}
    for label, drop in (("full", set()), ("-dab", {"dab"}), ("-both", {"ceb", "dab"})):
        means[label] = float(np.mean([run(drop, s) for s in range(3)]))
    detail = ", ".join(f"{k} F1 {v:.3f}" for k, v in means.items())
    soft_ok = means["full"] >= means["-dab"] and means["full"] >= means["-both"]
    if not soft_ok:
        warnings.warn(f"ablation ordering violated at toy scale: {detail}")
    report(7, "ablation direction (soft)", True, detail + ("" if soft_ok else "; WARNED"))


# -- 8: prototype-count sweep runs end to end -----------------------------------------


def test_criterion_8_k_sweep(tmp_path):
    data = tmp_path / "data"
    assert main(["gen-data", "--task", "change", "--out", str(data),
                 "--count", "4", "--size", "64", "--seed", "2"]) == 0
    ok = True
    for tag in ("1", "2", "4", "8", "16", "inf", "std"):
        ckpt = tmp_path / f"ckpt-{tag}"
        args = ["train", "--task", "change", "--data", str(data),
                "--out", str(ckpt), "--epochs", "1", "--channels", "4",
                "--batch-size", "4", "--seed", "0"]
        args += ["--attention", "std"] if tag == "std" else ["--k", tag]
        ok &= main(args) == 0
        out_csv = tmp_path / f"metrics-{tag}.csv"
        ok &= main(["eval", "--task", "change", "--ckpt", str(ckpt),
                    "--data", str(data), "--out", str(out_csv)]) == 0
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        ok &= rows[-1]["image"] == "aggregate"
    report(8, "prototype-count sweep", ok)


# -- 9: determinism and formats -------------------------------------------------------


def test_criterion_9_determinism_and_formats(tmp_path):
    data = tmp_path / "data"
    main(["gen-data", "--task", "change", "--out", str(data),
          "--count", "3", "--size", "64", "--seed", "4"])
    ckpts, csvs = [], []
    for name in ("r1", "r2"):
        ckpt = tmp_path / name
        main(["train", "--task", "change", "--data", str(data), "--out", str(ckpt),
              "--epochs", "1", "--channels", "4", "--k", "2",
              "--batch-size", "2", "--seed", "5"])
        out_csv = tmp_path / f"{name}.csv"
        main(["eval", "--task", "change", "--ckpt", str(ckpt),
              "--data", str(data), "--out", str(out_csv)])
        ckpts.append(ckpt)
        csvs.append(out_csv.read_bytes())

    files = [c / "checkpoint.bin" for c in ckpts]
    assert all(f.exists() for f in files)
    same_ckpt = files[0].read_bytes() == files[1].read_bytes()
    same_csv = csvs[0] == csvs[1]

    rng = Rng(77)
    arr = rng.normal((3, 4, 5), dtype=np.float64).data
    save_cpt1(tmp_path / "x.cpt1", arr)
    cpt_ok = np.array_equal(load_cpt1(tmp_path / "x.cpt1"), arr)
    img = rng.integers(0, 256, (16, 16)).astype(np.uint8)
    write_pgm(tmp_path / "x.pgm", img)
    pgm_ok = np.array_equal(read_pgm(tmp_path / "x.pgm"), img)

    ok = same_ckpt and same_csv and cpt_ok and pgm_ok
    report(9, "determinism and formats", ok,
           f"ckpt={same_ckpt} csv={same_csv} cpt1={cpt_ok} pgm={pgm_ok}")
