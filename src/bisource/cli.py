"""Command-line entry point.

Subcommands: gen-data (synthetic datasets), train, eval, gradcheck, bench.
Every subcommand accepts --config pointing at a JSON file whose keys mirror
the flag names (underscored); explicit flags win over config values.  All
randomness is derived from --seed.  Exit status is 0 on success; failures
print a single machine-parseable line ``bisource: error: <Type>: <message>``
to stderr and exit 1.

Eval CSV column order:
  change task:  image,Pre,Rec,F1,IOU,OA
  density task: image,count_pred,count_gt,game_0,game_1,game_2,game_3,rmse
The final row has image="aggregate" (pooled confusion counts for the change
task; dataset-level GAME/RMSE for the density task).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import tensor as T
from .ada import INF_PROTOTYPES, AdaConfig, ParamRegistry, SourcePair, make_attention
from .blocks import ConsistencyBlock, DifferenceBlock
from .data import generate_dataset, load_dataset
from .gradcheck import grad_check
from .io import load_json, load_tensor_dir, save_tensor_dir
from .metrics import (
    ConfusionCounts,
    binary_metrics_from_counts,
    confusion_binary,
    grid_count_error,
    rmse_counts,
)
from .model import (
    ABLATIONS,
    AdamW,
    BiSourceModel,
    ModelConfig,
    cosine_lr,
    train_step,
)
from .tensor import NumericalError, Parameter, Rng, Tensor

GRADCHECK_SCOPES = ("op", "ada", "ceb", "dab", "model", "batch")


# ---------------------------------------------------------------------------
# flag / config plumbing
# ---------------------------------------------------------------------------


def _add(sub: argparse.ArgumentParser, defaults: dict, *flags: str, **kw) -> None:
    """Register a flag whose absence is detectable (for JSON config merge)."""
    default = kw.pop("default", None)
    dest = kw.get("dest") or flags[0].lstrip("-").replace("-", "_")
    defaults[dest] = default
    kw["default"] = argparse.SUPPRESS
    sub.add_argument(*flags, **kw)


def _resolve(ns: argparse.Namespace, defaults: dict) -> dict:
    explicit = {k: v for k, v in vars(ns).items() if k not in ("func", "defaults")}
    merged = dict(defaults)
    cfg_path = explicit.pop("config", None) or defaults.get("config")
    if cfg_path:
        cfg = load_json(cfg_path)
        unknown = set(cfg) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        merged.update(cfg)
    merged.update(explicit)
    merged.pop("config", None)
    return merged


def _parse_k(value) -> float:
    if value in ("inf", "Inf", "INF", math.inf):
        return INF_PROTOTYPES
    return float(int(value))


def _parse_ablate(value) -> tuple[str, ...]:
    if not value:
        return ()
    if isinstance(value, (list, tuple)):
        items = [str(v) for v in value]
    else:
        items = [s for s in str(value).split(",") if s]
    bad = set(items) - set(ABLATIONS)
    if bad:
        raise ValueError(f"unknown ablations {sorted(bad)}; choose from {ABLATIONS}")
    return tuple(items)


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------


def cmd_gen_data(o: dict) -> int:
    manifest = generate_dataset(o["task"], o["out"], int(o["count"]), int(o["size"]), int(o["seed"]))
    print(f"wrote {manifest['count']} {o['task']} pairs to {o['out']}")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _model_config_from_opts(o: dict, input_hw: tuple[int, int]) -> ModelConfig:
    head = {"change": "binary", "density": "density"}[o["task"]]
    return ModelConfig(
        in_channels=1,
        base_channels=int(o["channels"]),
        num_prototypes=_parse_k(o["k"]),
        attention_form=o["attention"],
        head=head,
        input_hw=input_hw,
        ablate=_parse_ablate(o["ablate"]),
    )


def _save_checkpoint(path: Path, model: BiSourceModel) -> None:
    save_tensor_dir(
        path,
        model.state_arrays(),
        extra={"model_config": model.config.to_json(), "seed": model.seed},
    )


def load_checkpoint(path: str | Path) -> BiSourceModel:
    """Rebuild the model a checkpoint holds, in the dtype of its parameters.

    Every error is one ValueError that starts with the checkpoint's path.
    """
    arrays, header = load_tensor_dir(path)
    dtypes = {a.dtype for a in arrays.values()}
    if len(dtypes) != 1:
        raise ValueError(f"{path}: checkpoint parameters need one dtype, found {sorted(map(str, dtypes))}")
    if "model_config" not in header:
        raise ValueError(f"{path}: checkpoint header has no 'model_config'")
    try:
        model = BiSourceModel(ModelConfig.from_json(header["model_config"]),
                              seed=int(header.get("seed", 0)), dtype=dtypes.pop().type)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: checkpoint header 'model_config' or 'seed' is malformed: "
                         f"{type(exc).__name__}: {exc}") from None
    try:
        model.load_state(arrays)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return model


def _eval_f1(model: BiSourceModel, samples) -> float:
    pooled = ConfusionCounts()
    for img1, img2, target in samples:
        pred = model.predict(img1, img2)
        pooled.add(confusion_binary(pred, (target > 0.5).astype(np.uint8)))
    return binary_metrics_from_counts(pooled).values["F1"]


def cmd_train(o: dict) -> int:
    manifest, samples = load_dataset(o["data"])
    if manifest["task"] != o["task"]:
        raise ValueError(f"dataset task {manifest['task']!r} != requested {o['task']!r}")
    if not samples:
        raise ValueError("dataset is empty")
    size = int(manifest["size"])
    model = BiSourceModel(_model_config_from_opts(o, (size, size)), seed=int(o["seed"]))
    out_dir = Path(o["out"])
    epochs = int(o["epochs"])
    batch_size = max(1, int(o["batch_size"]))
    base_lr = float(o["lr"])
    optimizer = AdamW(model.parameters(), lr=base_lr, weight_decay=float(o["weight_decay"]))
    rng = Rng(int(o["seed"])).spawn(7)

    eval_samples = None
    if o["eval_data"]:
        _, eval_samples = load_dataset(o["eval_data"])

    _save_checkpoint(out_dir, model)  # init / last-good
    log_path = out_dir / "loss.csv"
    steps_per_epoch = max(1, math.ceil(len(samples) / batch_size))
    total_steps = max(1, epochs * steps_per_epoch)
    step = 0
    with open(log_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["epoch", "loss"] + (["val_f1"] if eval_samples else [])
        writer.writerow(header)
        for epoch in range(epochs):
            order = rng.spawn(epoch).permutation(len(samples))
            losses = []
            t0 = time.perf_counter()
            for start in range(0, len(order), batch_size):
                batch = [samples[i] for i in order[start : start + batch_size]]
                optimizer.lr = cosine_lr(base_lr, step, total_steps)
                try:
                    losses.append(train_step(model, batch, optimizer))
                except NumericalError as exc:
                    print(f"aborting: {exc}; last-good checkpoint kept at {out_dir}",
                          file=sys.stderr)
                    return 1
                step += 1
            mean_loss = float(np.mean(losses))
            row = [epoch, f"{mean_loss:.6f}"]
            msg = f"epoch {epoch}: loss {mean_loss:.4f} ({time.perf_counter() - t0:.1f}s)"
            val_f1 = None
            if eval_samples:
                val_f1 = _eval_f1(model, eval_samples)
                row.append(f"{val_f1:.6f}")
                msg += f" val F1 {val_f1:.4f}"
            writer.writerow(row)
            fh.flush()
            print(msg)
            _save_checkpoint(out_dir, model)
            if val_f1 is not None and o["stop_f1"] and val_f1 >= float(o["stop_f1"]):
                print(f"early stop: val F1 {val_f1:.4f} >= {o['stop_f1']}")
                break
    print(f"checkpoint written to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def cmd_eval(o: dict) -> int:
    model = load_checkpoint(o["ckpt"])
    manifest, samples = load_dataset(o["data"])
    if manifest["task"] != o["task"]:
        raise ValueError(f"dataset task {manifest['task']!r} != requested {o['task']!r}")
    expect_head = {"change": "binary", "density": "density"}[o["task"]]
    if model.config.head != expect_head:
        raise ValueError(f"checkpoint head {model.config.head!r} unsuitable for task {o['task']!r}")

    rows: list[list] = []
    if o["task"] == "change":
        header = ["image", "Pre", "Rec", "F1", "IOU", "OA"]
        pooled = ConfusionCounts()
        for idx, (img1, img2, target) in enumerate(samples):
            c = confusion_binary(model.predict(img1, img2), (target > 0.5).astype(np.uint8))
            pooled.add(c)
            vals = binary_metrics_from_counts(c).values
            rows.append([f"{idx:05d}"] + [f"{vals[k]:.6f}" for k in header[1:]])
        agg = binary_metrics_from_counts(pooled).values
        rows.append(["aggregate"] + [f"{agg[k]:.6f}" for k in header[1:]])
        summary = "  ".join(f"{k}={agg[k]:.4f}" for k in header[1:])
    else:
        header = ["image", "count_pred", "count_gt",
                  "game_0", "game_1", "game_2", "game_3", "rmse"]
        pred_counts, gt_counts, per_image_games = [], [], []
        for idx, (img1, img2, target) in enumerate(samples):
            pred = model.predict(img1, img2)
            count_pred, count_gt = pred.sum(), target.sum()
            pred_counts.append(count_pred)
            gt_counts.append(count_gt)
            games = [grid_count_error(pred, target, lv) for lv in range(4)]
            per_image_games.append(games)
            err = abs(float(count_pred) - float(count_gt))
            rows.append(
                [f"{idx:05d}", f"{count_pred:.4f}", f"{count_gt:.4f}"]
                + [f"{g:.6f}" for g in games] + [f"{err:.6f}"]
            )
        # GAME_l: the mean over images of the per-image errors above
        agg_games = [float(np.mean(level)) for level in zip(*per_image_games)]
        rmse = rmse_counts(pred_counts, gt_counts)
        rows.append(
            ["aggregate",
             f"{float(np.sum(pred_counts)):.4f}",
             f"{float(np.sum(gt_counts)):.4f}"]
            + [f"{g:.6f}" for g in agg_games] + [f"{rmse:.6f}"]
        )
        summary = "  ".join(
            f"GAME_{lv}={agg_games[lv]:.4f}" for lv in range(4)
        ) + f"  RMSE={rmse:.4f}"

    with open(o["out"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    print(summary)
    return 0


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------


def _randomize_gates(registry, rng: Rng) -> None:
    """Gates start at zero, which silences the prototype path; perturb them so
    the finite-difference check exercises every parameter."""
    for name, p in registry.named().items():
        if name.endswith("gate"):
            p.assign(rng.uniform(p.value.shape, -0.5, 0.5, np.float64))


def _scope_op(rng: Rng):
    a = Parameter(Tensor(rng.normal((4, 4), dtype=np.float64)), "a")
    b = Parameter(Tensor(rng.normal((4, 4), dtype=np.float64)), "b")
    g = Parameter(Tensor(np.ones(4, dtype=np.float64)), "ln_g")
    bt = Parameter(Tensor(rng.normal((4,), dtype=np.float64)), "ln_b")

    def f() -> Tensor:
        h = T.matmul(a.value, b.value)
        h = T.layer_norm(h, g.value, bt.value)
        h = T.gelu(h)
        s = T.softmax_rows(h)
        c = T.cosine_rows(h, s)
        grid = T.reshape(T.matmul(a.value, b.value), (2, 2, 4))
        pooled = T.avg_pool_2d(grid, 3)
        return T.add(T.mean_all(c), T.abs_all(T.mean_all(pooled)))

    return f, [a, b, g, bt]


def _scope_ada(rng: Rng):
    cfg = AdaConfig(num_prototypes=2, proto_dim=3, feat_dim=3, comp_op="consistency")
    reg = ParamRegistry(rng, np.float64)
    unit = make_attention("ada", cfg, reg, num_source_tokens=4)
    _randomize_gates(reg, rng)
    f1 = Tensor(rng.normal((4, 3), dtype=np.float64))
    f2 = Tensor(rng.normal((4, 3), dtype=np.float64))
    pair = SourcePair(f1, f2, 2, 2)
    slot = Tensor(rng.normal((4, 3), dtype=np.float64))
    return (lambda: T.sum_all(unit.forward(pair, slot))), reg.all()


def _scope_ceb(rng: Rng):
    cfg = AdaConfig(num_prototypes=2, proto_dim=3, feat_dim=3, comp_op="consistency")
    reg = ParamRegistry(rng, np.float64)
    blk = ConsistencyBlock(cfg, reg, num_source_tokens=8)
    _randomize_gates(reg, rng)
    f1 = Tensor(rng.normal((4, 3), dtype=np.float64))
    f2 = Tensor(rng.normal((4, 3), dtype=np.float64))
    pair = SourcePair(f1, f2, 2, 2)
    slot = Tensor(np.concatenate([f1.data, f2.data]))  # the pair stacked, as the encoder holds it
    return (lambda: T.sum_all(blk.forward(pair, slot))), reg.all()


def _scope_dab(rng: Rng):
    cfg = AdaConfig(num_prototypes=2, proto_dim=3, feat_dim=3, comp_op="difference")
    reg = ParamRegistry(rng, np.float64)
    blk = DifferenceBlock(cfg, reg, deeper_dim=5, num_source_tokens=4)
    _randomize_gates(reg, rng)
    f1 = Tensor(rng.normal((4, 3), dtype=np.float64))
    f2 = Tensor(rng.normal((4, 3), dtype=np.float64))
    deeper = Tensor(rng.normal((1, 5), dtype=np.float64))
    pair = SourcePair(f1, f2, 2, 2)
    return (lambda: T.sum_all(blk.forward(pair, deeper, 1, 1))), reg.all()


def _scope_model(rng: Rng):
    cfg = ModelConfig(base_channels=2, num_prototypes=2, input_hw=(32, 32), head="binary")
    model = BiSourceModel(cfg, seed=rng.seed, dtype=np.float64)
    _randomize_gates(model.registry, rng)
    img1 = rng.uniform((32, 32), dtype=np.float64)
    img2 = rng.uniform((32, 32), dtype=np.float64)
    target = (rng.uniform((32, 32), dtype=np.float64) > 0.5).astype(np.float64)
    return (lambda: model.sample_loss(img1, img2, target)), model.parameters()


def _scope_batch(rng: Rng):
    cfg = ModelConfig(base_channels=2, num_prototypes=2, input_hw=(32, 32), head="binary")
    model = BiSourceModel(cfg, seed=rng.seed, dtype=np.float64)
    _randomize_gates(model.registry, rng)
    batch = [
        (rng.uniform((32, 32), dtype=np.float64), rng.uniform((32, 32), dtype=np.float64),
         (rng.uniform((32, 32), dtype=np.float64) > 0.5).astype(np.float64))
        for _ in range(2)
    ]
    img1, img2, target = model.stack_batch(batch)
    return (lambda: model.loss(model.forward(img1, img2), target)), model.parameters()


def cmd_gradcheck(o: dict) -> int:
    scopes = GRADCHECK_SCOPES if o["scope"] == "all" else (o["scope"],)
    failed = False
    for scope in scopes:
        rng = Rng(int(o["seed"])).spawn(GRADCHECK_SCOPES.index(scope))
        builders = {
            "op": _scope_op, "ada": _scope_ada, "ceb": _scope_ceb,
            "dab": _scope_dab, "model": _scope_model, "batch": _scope_batch,
        }
        f, params = builders[scope](rng)
        whole_model = scope in ("model", "batch")
        tol = float(o["tol"]) if o["tol"] is not None else (1e-3 if whole_model else 1e-4)
        cap = 2 if whole_model else None
        # a step well below the default keeps curvature (truncation) error far
        # under the tolerance while float64 roundoff stays negligible
        report = grad_check(f, params, h=1e-5, tol=tol, max_elements_per_param=cap,
                            seed=int(o["seed"]))
        print(f"{scope}: {report.summary()}")
        failed |= not report.passed
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def cmd_bench(o: dict) -> int:
    kw: dict = {}
    if o["sweep"]:
        kw.update(load_json(o["sweep"]))
    if o["tokens"]:
        kw["token_counts"] = [int(t) for t in str(o["tokens"]).split(",")]
    if o["variants"]:
        kw["variants"] = str(o["variants"]).split(",")
    kw.setdefault("trials", int(o["trials"]))
    kw.setdefault("seed", int(o["seed"]))
    cfg = bench_mod.SweepConfig(**kw)
    rows = bench_mod.run_sweep(cfg, progress=print)
    bench_mod.write_csv(o["out"], rows)
    for label, metrics in bench_mod.slope_summary(rows).items():
        parts = [f"{m}: {s:.3f} +- {e:.3f}" for m, (s, e) in metrics.items()]
        print(f"{label} log-log slopes | " + " | ".join(parts))
    print(f"results written to {o['out']}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bisource",
        description="Two-source change/density models with prototype attention.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def new_sub(name: str, help_: str, func) -> tuple[argparse.ArgumentParser, dict]:
        sub = subs.add_parser(name, help=help_, description=help_)
        defaults: dict = {}
        sub.set_defaults(func=func, defaults=defaults)
        _add(sub, defaults, "--config", help="JSON config file; explicit flags win")
        _add(sub, defaults, "--seed", type=int, default=0, help="master seed (default 0)")
        return sub, defaults

    sub, d = new_sub("gen-data", "generate a synthetic dataset", cmd_gen_data)
    _add(sub, d, "--task", choices=("change", "density"), default="change")
    _add(sub, d, "--out", required=True, help="output directory")
    _add(sub, d, "--count", type=int, default=16, help="number of sample pairs")
    _add(sub, d, "--size", type=int, default=64, help="square image extent")

    sub, d = new_sub("train", "train a model on a generated dataset", cmd_train)
    _add(sub, d, "--task", choices=("change", "density"), default="change")
    _add(sub, d, "--data", required=True, help="dataset directory")
    _add(sub, d, "--out", required=True, help="checkpoint directory")
    _add(sub, d, "--epochs", type=int, default=20)
    _add(sub, d, "--k", default="4", help="prototype count, an integer or 'inf'")
    _add(sub, d, "--ablate", default="", help="comma list from: " + ",".join(ABLATIONS))
    _add(sub, d, "--attention", choices=("ada", "std"), default="ada")
    _add(sub, d, "--channels", type=int, default=16, help="base channel width")
    _add(sub, d, "--lr", type=float, default=3e-3)
    _add(sub, d, "--weight-decay", type=float, default=0.01)
    _add(sub, d, "--batch-size", type=int, default=8)
    _add(sub, d, "--eval-data", default="", help="held-out set scored each epoch")
    _add(sub, d, "--stop-f1", type=float, default=0.0,
         help="stop early once held-out F1 reaches this value")

    sub, d = new_sub("eval", "score a checkpoint on a dataset (CSV out)", cmd_eval)
    _add(sub, d, "--task", choices=("change", "density"), default="change")
    _add(sub, d, "--ckpt", required=True, help="checkpoint directory")
    _add(sub, d, "--data", required=True, help="dataset directory")
    _add(sub, d, "--out", required=True, help="output CSV path")

    sub, d = new_sub("gradcheck", "finite-difference gradient validation", cmd_gradcheck)
    _add(sub, d, "--scope", choices=GRADCHECK_SCOPES + ("all",), default="all")
    _add(sub, d, "--tol", type=float, default=None,
         help="relative-error tolerance (default 1e-4; 1e-3 for the model and batch scopes)")

    sub, d = new_sub("bench", "scaling sweep over token counts", cmd_bench)
    _add(sub, d, "--sweep", default="", help="JSON file with sweep settings")
    _add(sub, d, "--out", required=True, help="output CSV path")
    _add(sub, d, "--tokens", default="", help="comma list of token counts")
    _add(sub, d, "--variants", default="", help="comma list, e.g. ada:4,ada:inf,std")
    _add(sub, d, "--trials", type=int, default=3)

    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        opts = _resolve(ns, ns.defaults)
        return ns.func(opts)
    except (ValueError, TypeError, OSError, KeyError, T.ShapeError, NumericalError) as exc:
        msg = " ".join(str(exc).split())
        print(f"bisource: error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
