"""Command-line entry point.

Subcommands: gen-data (synthetic datasets), train, eval, gradcheck, bench.
Every subcommand accepts --config pointing at a JSON object whose keys are
the subcommand's flag names (underscored).  Its values become the flags'
defaults: a string value is converted as its flag converts one, a number
must be of its flag's type, and explicit flags win; the file may give a
required flag; an error in the file names the file and the key.  All
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
from .ada import AdaConfig, ParamRegistry, SourcePair, make_attention
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

# the head each task's model is built with
TASK_HEADS = {"change": "binary", "density": "density"}

CHANGE_COLUMNS = ("Pre", "Rec", "F1", "IOU", "OA")


def _comma_list(value: str) -> list[str]:
    return [s for s in value.split(",") if s]


def _require(ok: bool, rule: str, value) -> None:
    if not ok:
        raise ValueError(f"{rule}, found {value!r}")


def _task_dataset(path, task: str) -> tuple[dict, list]:
    """The manifest and samples of the dataset at ``path``, which must hold ``task``."""
    manifest, samples = load_dataset(path)
    if manifest["task"] != task:
        raise ValueError(f"dataset task {manifest['task']!r} != requested {task!r}")
    return manifest, samples


def change_scores(model: BiSourceModel, samples) -> tuple[list[dict], dict]:
    """Pre/Rec/F1/IOU/OA of each sample's change mask, and of their pooled
    confusion counts."""
    pooled = ConfusionCounts()
    per_sample = []
    for img1, img2, target in samples:
        c = confusion_binary(model.predict(img1, img2), (target > 0.5).astype(np.uint8))
        pooled.add(c)
        per_sample.append(binary_metrics_from_counts(c).values)
    return per_sample, binary_metrics_from_counts(pooled).values


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------


def cmd_gen_data(o: argparse.Namespace) -> int:
    _require(o.count >= 0, "--count must be at least 0", o.count)
    manifest = generate_dataset(o.task, o.out, o.count, o.size, o.seed)
    print(f"wrote {manifest['count']} {o.task} pairs to {o.out}")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _save_checkpoint(path: Path, model: BiSourceModel) -> None:
    save_tensor_dir(
        path,
        model.state_arrays(),
        extra={"model_config": model.config.to_json(), "seed": model.seed},
    )


def load_checkpoint(path: str | Path) -> BiSourceModel:
    """Rebuild the model a checkpoint holds, in the dtype of its parameters.

    The model is built with no initial draw and filled from the checkpoint
    (``BiSourceModel.from_state``), so a load holds the file's arrays and the
    parameters, and no gradients.  Every error is one ValueError that starts
    with the checkpoint's path.
    """
    arrays, header = load_tensor_dir(path)
    dtypes = {a.dtype for a in arrays.values()}
    if len(dtypes) != 1:
        raise ValueError(f"{path}: checkpoint parameters need one dtype, found {sorted(map(str, dtypes))}")
    if "model_config" not in header:
        raise ValueError(f"{path}: checkpoint header has no 'model_config'")
    try:
        config = ModelConfig.from_json(header["model_config"])
        seed = int(header.get("seed", 0))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: checkpoint header 'model_config' or 'seed' is malformed: "
                         f"{type(exc).__name__}: {exc}") from None
    try:
        return BiSourceModel.from_state(config, arrays, seed=seed, dtype=dtypes.pop().type)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _check_train_flags(o: argparse.Namespace) -> None:
    _require(o.epochs >= 0, "--epochs must be at least 0", o.epochs)
    _require(o.batch_size >= 1, "--batch-size must be at least 1", o.batch_size)
    _require(math.isfinite(o.lr), "--lr must be finite", o.lr)
    _require(o.lr >= 0, "--lr must be at least 0", o.lr)
    _require(math.isfinite(o.weight_decay), "--weight-decay must be finite", o.weight_decay)
    _require(o.weight_decay >= 0, "--weight-decay must be at least 0", o.weight_decay)
    # the per-epoch validation scores change masks
    _require(not o.eval_data or o.task == "change",
             "--eval-data needs --task change", o.task)
    _require(0 <= o.stop_f1 <= 1, "--stop-f1 must be in [0, 1]", o.stop_f1)  # a NaN fails it too
    _require(not o.stop_f1 or o.eval_data, "--stop-f1 needs --eval-data", o.stop_f1)


def _abort(reason, out_dir: Path) -> int:
    print(f"aborting: {reason}; last-good checkpoint kept at {out_dir}", file=sys.stderr)
    return 1


def cmd_train(o: argparse.Namespace) -> int:
    _check_train_flags(o)
    manifest, samples = _task_dataset(o.data, o.task)
    if not samples:
        raise ValueError("dataset is empty")
    size = manifest["size"]
    config = ModelConfig(in_channels=1, base_channels=o.channels, num_prototypes=o.k,
                         attention_form=o.attention, head=TASK_HEADS[o.task],
                         input_hw=(size, size), ablate=o.ablate)
    model = BiSourceModel(config, seed=o.seed)
    out_dir = Path(o.out)
    optimizer = AdamW(model.parameters(), lr=o.lr, weight_decay=o.weight_decay)
    rng = Rng(o.seed).spawn(7)
    eval_samples = _task_dataset(o.eval_data, o.task)[1] if o.eval_data else None

    _save_checkpoint(out_dir, model)  # init / last-good
    log_path = out_dir / "loss.csv"
    steps_per_epoch = max(1, math.ceil(len(samples) / o.batch_size))
    total_steps = max(1, o.epochs * steps_per_epoch)
    step = 0
    with open(log_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["epoch", "loss"] + (["val_f1"] if eval_samples else [])
        writer.writerow(header)
        for epoch in range(o.epochs):
            order = rng.spawn(epoch).permutation(len(samples))
            losses = []
            t0 = time.perf_counter()
            for start in range(0, len(order), o.batch_size):
                batch = [samples[i] for i in order[start : start + o.batch_size]]
                optimizer.lr = cosine_lr(o.lr, step, total_steps)
                try:
                    losses.append(train_step(model, batch, optimizer))
                except NumericalError as exc:
                    return _abort(exc, out_dir)
                step += 1
            # a finite loss can still leave a parameter non-finite after the update
            bad = next((p.name for p in model.parameters() if not T.all_finite(p.value.data)), None)
            if bad is not None:
                return _abort(f"parameter {bad} holds NaN or Inf after step {step}", out_dir)
            mean_loss = float(np.mean(losses))
            row = [epoch, f"{mean_loss:.6f}"]
            msg = f"epoch {epoch}: loss {mean_loss:.4f} ({time.perf_counter() - t0:.1f}s)"
            val_f1 = None
            if eval_samples:
                val_f1 = change_scores(model, eval_samples)[1]["F1"]
                row.append(f"{val_f1:.6f}")
                msg += f" val F1 {val_f1:.4f}"
            writer.writerow(row)
            fh.flush()
            print(msg)
            _save_checkpoint(out_dir, model)
            if val_f1 is not None and o.stop_f1 and val_f1 >= o.stop_f1:
                print(f"early stop: val F1 {val_f1:.4f} >= {o.stop_f1}")
                break
    print(f"checkpoint written to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def cmd_eval(o: argparse.Namespace) -> int:
    model = load_checkpoint(o.ckpt)
    _, samples = _task_dataset(o.data, o.task)
    if model.config.head != TASK_HEADS[o.task]:
        raise ValueError(f"checkpoint head {model.config.head!r} unsuitable for task {o.task!r}")

    if o.task == "change":
        header = ["image", *CHANGE_COLUMNS]
        per_sample, agg = change_scores(model, samples)
        rows = [[f"{idx:05d}"] + [f"{vals[k]:.6f}" for k in CHANGE_COLUMNS]
                for idx, vals in enumerate(per_sample)]
        rows.append(["aggregate"] + [f"{agg[k]:.6f}" for k in CHANGE_COLUMNS])
        summary = "  ".join(f"{k}={agg[k]:.4f}" for k in CHANGE_COLUMNS)
    else:
        header = ["image", "count_pred", "count_gt",
                  "game_0", "game_1", "game_2", "game_3", "rmse"]
        rows = []
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

    with open(o.out, "w", newline="") as fh:
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


# scope name -> builder; a scope's index here is the salt of its random stream
GRADCHECK_SCOPES = {
    "op": _scope_op, "ada": _scope_ada, "ceb": _scope_ceb,
    "dab": _scope_dab, "model": _scope_model, "batch": _scope_batch,
}


def cmd_gradcheck(o: argparse.Namespace) -> int:
    failed = False
    for salt, (scope, build) in enumerate(GRADCHECK_SCOPES.items()):
        if o.scope not in (scope, "all"):
            continue
        f, params = build(Rng(o.seed).spawn(salt))
        whole_model = scope in ("model", "batch")
        tol = o.tol if o.tol is not None else (1e-3 if whole_model else 1e-4)
        cap = 2 if whole_model else None
        # a step well below the default keeps curvature (truncation) error far
        # under the tolerance while float64 roundoff stays negligible
        report = grad_check(f, params, h=1e-5, tol=tol, max_elements_per_param=cap, seed=o.seed)
        print(f"{scope}: {report.summary()}")
        failed |= not report.passed
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def cmd_bench(o: argparse.Namespace) -> int:
    kw: dict = {}
    if o.sweep:
        kw.update(load_json(o.sweep))
    if o.tokens:
        kw["token_counts"] = [int(t) for t in o.tokens]
    if o.variants:
        kw["variants"] = o.variants
    kw.setdefault("trials", o.trials)
    kw.setdefault("seed", o.seed)
    cfg = bench_mod.SweepConfig(**kw)
    rows = bench_mod.run_sweep(cfg, progress=print)
    bench_mod.write_csv(o.out, rows)
    for label, metrics in bench_mod.slope_summary(rows).items():
        parts = [f"{m}: {s:.3f} +- {e:.3f}" for m, (s, e) in metrics.items()]
        print(f"{label} log-log slopes | " + " | ".join(parts))
    print(f"results written to {o.out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="bisource",
        description="Two-source change/density models with prototype attention.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def new_sub(name: str, help_: str, func) -> argparse.ArgumentParser:
        sub = subs.add_parser(name, help=help_, description=help_)
        sub.set_defaults(func=func)
        sub.add_argument("--config", help="JSON config file; explicit flags win")
        sub.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
        return sub

    sub = new_sub("gen-data", "generate a synthetic dataset", cmd_gen_data)
    sub.add_argument("--task", choices=tuple(TASK_HEADS), default="change")
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument("--count", type=int, default=16, help="number of sample pairs")
    sub.add_argument("--size", type=int, default=64, help="square image extent")

    sub = new_sub("train", "train a model on a generated dataset", cmd_train)
    sub.add_argument("--task", choices=tuple(TASK_HEADS), default="change")
    sub.add_argument("--data", required=True, help="dataset directory")
    sub.add_argument("--out", required=True, help="checkpoint directory")
    sub.add_argument("--epochs", type=int, default=20)
    sub.add_argument("--k", default="4", help="prototype count, an integer or 'inf'")
    sub.add_argument("--ablate", type=_comma_list, default="",
                     help="comma list from: " + ",".join(ABLATIONS))
    sub.add_argument("--attention", choices=("ada", "std"), default="ada")
    sub.add_argument("--channels", type=int, default=16, help="base channel width")
    sub.add_argument("--lr", type=float, default=3e-3)
    sub.add_argument("--weight-decay", type=float, default=0.01)
    sub.add_argument("--batch-size", type=int, default=8)
    sub.add_argument("--eval-data", default="", help="held-out set scored each epoch")
    sub.add_argument("--stop-f1", type=float, default=0.0,
                     help="stop early once held-out F1 reaches this value")

    sub = new_sub("eval", "score a checkpoint on a dataset (CSV out)", cmd_eval)
    sub.add_argument("--task", choices=tuple(TASK_HEADS), default="change")
    sub.add_argument("--ckpt", required=True, help="checkpoint directory")
    sub.add_argument("--data", required=True, help="dataset directory")
    sub.add_argument("--out", required=True, help="output CSV path")

    sub = new_sub("gradcheck", "finite-difference gradient validation", cmd_gradcheck)
    sub.add_argument("--scope", choices=(*GRADCHECK_SCOPES, "all"), default="all")
    sub.add_argument("--tol", type=float, default=None,
                     help="relative-error tolerance (default 1e-4; 1e-3 for the model and batch scopes)")

    sub = new_sub("bench", "scaling sweep over token counts", cmd_bench)
    sub.add_argument("--sweep", default="", help="JSON file with sweep settings")
    sub.add_argument("--out", required=True, help="output CSV path")
    sub.add_argument("--tokens", type=_comma_list, default="", help="comma list of token counts")
    sub.add_argument("--variants", type=_comma_list, default="",
                     help="comma list, e.g. ada:4,ada:inf,std")
    sub.add_argument("--trials", type=int, default=3)

    return parser, subs.choices


def _config_defaults(path: str, sub: argparse.ArgumentParser) -> dict:
    """The --config file at ``path`` as defaults of ``sub``'s flags.

    A string value is converted as the flag converts its value; a JSON number
    must already be the flag's type (an integer flag takes no 2.5).  Every
    error starts with the file's path and names the key.
    """
    cfg = load_json(path)
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config must be a JSON object, found {type(cfg).__name__}")
    actions = {a.dest: a for a in sub._actions if a.dest != "help"}
    unknown = set(cfg) - set(actions)
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    return {key: _config_value(path, key, value, actions[key]) for key, value in cfg.items()}


def _config_value(path: str, key: str, value, action: argparse.Action):
    kind = action.type
    if isinstance(value, str) and kind is not None:
        try:
            value = kind(value)
        except ValueError:
            raise ValueError(f"{path}: config key {key!r}: invalid {kind.__name__} value {value!r}") from None
    elif kind is int and type(value) is not int:  # bool is no integer here
        raise ValueError(f"{path}: config key {key!r} must be an integer, found {value!r}")
    elif kind is float:
        if type(value) not in (int, float):
            raise ValueError(f"{path}: config key {key!r} must be a number, found {value!r}")
        value = float(value)
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"{path}: config key {key!r} must be one of {list(action.choices)}, found {value!r}")
    return value


def main(argv=None) -> int:
    parser, subcommands = build_parser()
    # the first parse finds the subcommand and --config, which may give a
    # required flag; the second checks every flag
    required = [a for sub in subcommands.values() for a in sub._actions if a.required]
    for action in required:
        action.required = False
    ns = parser.parse_args(argv)
    try:
        defaults = {}
        if ns.config:
            sub = subcommands[ns.command]
            defaults = _config_defaults(ns.config, sub)
            sub.set_defaults(**defaults)
        for action in required:
            action.required = defaults.get(action.dest) is None  # a null gives no value
        ns = parser.parse_args(argv)
        return ns.func(ns)
    except (ValueError, TypeError, OSError, KeyError, T.ShapeError, NumericalError) as exc:
        msg = " ".join(str(exc).split())
        print(f"bisource: error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
