"""The benchmark's workloads: set-up, one request at a time, output checks.

Each workload drives the public API the way ``bisource eval`` and
``bisource train`` do: a synthetic dataset is generated to disk and read back
through ``bisource.data``, a model checkpoint is written and re-loaded through
``bisource.io``, and each request either predicts and scores one image pair or
runs one ``train_step`` over a batch.  Everything is derived from the seed.
"""

from __future__ import annotations

import hashlib
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bisource import cli, data, io, metrics
from bisource import model as model_mod
from bisource.model import AdamW, BiSourceModel, ModelConfig
from bisource.tensor import Rng, Tensor

from . import checks

CHANNELS = 16
PROTOTYPES = 4
BATCH = 8
LR = 3e-3  # the ``bisource train`` default, held constant (no fixed step count)
WEIGHT_DECAY = 0.01
# Gates start at zero, which hides the prototype path from every output; the
# benchmark draws them at random so the output checks see that path.
GATE_RANGE = 0.5
GATE_SALT = 0x6A7E
ORDER_SALT = 7  # batch-order stream, as in ``bisource train``
REPLAY_STEPS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    task: str  # "change" or "density"
    size: int
    distinct: int  # image pairs generated per set-up; requests cycle over them
    warmup: int  # requests made during set-up; one BLAS thread is steady from the second
    train: bool = False

    @property
    def head(self) -> str:
        return {"change": "binary", "density": "density"}[self.task]

    @property
    def pairs_per_request(self) -> int:
        return BATCH if self.train else 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("infer-change-64", "change", 64, distinct=48, warmup=3),
        Workload("infer-density-256", "density", 256, distinct=4, warmup=2),
        Workload("train-change-64", "change", 64, distinct=64, warmup=2, train=True),
    )
}


def _digest(a: np.ndarray) -> bytes:
    return hashlib.blake2b(a.tobytes(), digest_size=16).digest()


def _as_input64(img: np.ndarray) -> Tensor:
    return Tensor(np.ascontiguousarray(img[:, :, None], dtype=np.float64))


class Setup:
    """One set-up of a workload and the requests made against it."""

    def __init__(self, wl: Workload, seed: int, work_dir: Path) -> None:
        self.wl = wl
        self.work_dir = work_dir
        ckpt_dir, data_dir = work_dir / "ckpt", work_dir / "data"
        config = ModelConfig(
            in_channels=1, base_channels=CHANNELS, num_prototypes=PROTOTYPES,
            head=wl.head, input_hw=(wl.size, wl.size),
        )
        built = BiSourceModel(config, seed=seed)
        gate_rng = Rng(seed).spawn(GATE_SALT)
        for name, p in built.registry.named().items():
            if name.endswith("gate"):
                p.assign(gate_rng.uniform(p.value.shape, -GATE_RANGE, GATE_RANGE))
        io.save_tensor_dir(ckpt_dir, built.state_arrays(),
                           extra={"model_config": config.to_json(), "seed": seed})
        del built
        data.generate_dataset(wl.task, data_dir, wl.distinct, wl.size, seed)
        self.model = cli.load_checkpoint(ckpt_dir)
        _, self.samples = data.load_dataset(data_dir)

        self.count = 0  # requests made
        self.raised: dict[int, str] = {}
        if wl.train:
            self.initial = self.model.state_arrays()
            self.optimizer = AdamW(self.model.parameters(), lr=LR, weight_decay=WEIGHT_DECAY)
            self.order_rng = Rng(seed).spawn(ORDER_SALT)
            self.epochs = 0
            self.batches: list[list[int]] = []
            self.losses: list[float] = []
        else:
            self.outputs: dict[tuple[int, bytes], np.ndarray] = {}
            self.keys: dict[int, tuple[int, bytes]] = {}
            self.scores: dict[int, tuple[float, ...]] = {}

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)

    # -- requests -------------------------------------------------------------

    def request(self) -> None:
        """Make the next request; an exception it raises is recorded as a failure."""
        i = self.count
        self.count += 1
        try:
            if self.wl.train:
                self._train_step(i)
            else:
                self._infer(i)
        except Exception as exc:  # a failed request is counted, the run goes on
            self.raised[i] = f"{type(exc).__name__}: {exc}"

    def _infer(self, i: int) -> None:
        idx = i % len(self.samples)
        img1, img2, target = self.samples[idx]
        pred = self.model.predict(img1, img2)
        if self.wl.task == "change":
            c = metrics.confusion_binary(pred, (target > 0.5).astype(np.uint8))
            f1 = metrics.binary_metrics_from_counts(c).values["F1"]
            score = (c.tp, c.fp, c.fn, c.tn, f1)
        else:
            games = [metrics.grid_count_error(pred, target, lv) for lv in checks.GAME_LEVELS]
            score = (*games, metrics.rmse_counts([pred.sum()], [target.sum()]))
        key = (idx, _digest(pred))
        self.outputs.setdefault(key, pred)
        self.keys[i] = key
        self.scores[i] = score

    def _batch(self, step: int) -> list[int]:
        while len(self.batches) <= step:
            order = self.order_rng.spawn(self.epochs).permutation(len(self.samples))
            self.epochs += 1
            self.batches.extend(
                [int(j) for j in order[s : s + BATCH]] for s in range(0, len(order), BATCH)
            )
        return self.batches[step]

    def _train_step(self, i: int) -> None:
        batch = [self.samples[j] for j in self._batch(i)]
        try:
            loss = model_mod.train_step(self.model, batch, self.optimizer)
        except Exception:
            self.losses.append(math.nan)
            raise
        self.losses.append(loss)
        if not checks.loss_ok(loss):
            raise ValueError(f"loss {loss!r} outside {checks.LOSS_RANGE}")

    # -- checks ---------------------------------------------------------------

    def summary(self) -> list:
        """Per-input scores of each input's first output (None if unused), or
        the loss trajectory when training: the form of the recorded reference."""
        if self.wl.train:
            return list(self.losses)
        first: dict[int, tuple[float, ...]] = {}
        for i in sorted(self.keys):
            first.setdefault(self.keys[i][0], self.scores[i])
        n = 4 if self.wl.task == "change" else 5
        return [
            list(first[idx][:n]) if idx in first else None
            for idx in range(len(self.samples))
        ]

    def verify(self, reference: list | None) -> tuple[set[int], list[str]]:
        """Indices of requests whose output failed a check, and what failed.

        Every inference output is compared with a float64 replay of the same
        weights on the same input, and every reported score with an oracle.
        Training losses are replayed in float64 for the first steps.  When a
        reference recorded for this seed is given, it is compared as well.
        """
        failed = set(self.raised)
        problems = [f"request {i}: {msg}" for i, msg in sorted(self.raised.items())]
        if self.wl.train:
            bad = self._verify_training(reference, problems)
            if bad is not None:
                failed.update(range(bad, self.count))
            return failed, problems
        replay = BiSourceModel(self.model.config, seed=self.model.seed, dtype=np.float64)
        replay.load_state(self.model.state_arrays())
        expected: dict[int, np.ndarray] = {}
        flips: dict[int, int] = {}
        for idx in sorted({k[0] for k in self.outputs}):
            img1, img2, _ = self.samples[idx]
            if self.wl.task == "change":
                logits = replay.forward(_as_input64(img1), _as_input64(img2)).data[..., 0]
                expected[idx] = logits
                flips[idx] = int((~checks.confident(logits)).sum())
            else:
                expected[idx] = replay.predict(img1, img2)
        bad_keys = set()
        oracle: dict[tuple[int, bytes], tuple[float, ...]] = {}
        for key, out in self.outputs.items():
            idx = key[0]
            target = self.samples[idx][2]
            if self.wl.task == "change":
                ok = checks.mask_matches(out, expected[idx])
                oracle[key] = checks.change_scores(out, target > 0.5)
            else:
                ok = checks.map_matches(out, expected[idx])
                oracle[key] = checks.density_scores(out, target)
            if not ok:
                bad_keys.add(key)
                problems.append(f"input {idx}: output differs from its float64 replay")
        for i, key in self.keys.items():
            if key in bad_keys:
                failed.add(i)
            elif not checks.scores_match(self.scores[i], oracle[key]):
                failed.add(i)
                problems.append(f"request {i}: scores {self.scores[i]} != oracle {oracle[key]}")
        if reference is not None:
            for idx, (got, ref) in enumerate(zip(self.summary(), reference)):
                if got is None:
                    continue
                if self.wl.task == "change":
                    ok = sum(abs(a - b) for a, b in zip(got, ref)) <= 2 * flips.get(idx, 0)
                else:
                    ok = checks.first_mismatch(got, ref, checks.REFERENCE_RTOL) is None
                if not ok:
                    problems.append(f"input {idx}: scores {got} != recorded reference {ref}")
                    failed.update(i for i, k in self.keys.items() if k[0] == idx)
        return failed, problems

    def _verify_training(self, reference: list | None, problems: list[str]) -> int | None:
        """First step whose loss fails a check (later steps inherit its state)."""
        replay = BiSourceModel(self.model.config, seed=self.model.seed, dtype=np.float64)
        replay.load_state(self.initial)
        optimizer = AdamW(replay.parameters(), lr=LR, weight_decay=WEIGHT_DECAY)
        n = min(REPLAY_STEPS, len(self.losses))
        replayed = [
            model_mod.train_step(replay, [self.samples[j] for j in self.batches[s]], optimizer)
            for s in range(n)
        ]
        bad = checks.first_mismatch(self.losses, replayed, checks.LOSS_RTOL)
        if bad is not None:
            problems.append(f"step {bad}: loss {self.losses[bad]} != float64 replay {replayed[bad]}")
        if reference is not None:
            ref_bad = checks.first_mismatch(self.losses, reference, checks.REFERENCE_RTOL)
            if ref_bad is not None:
                problems.append(
                    f"step {ref_bad}: loss {self.losses[ref_bad]} != recorded {reference[ref_bad]}"
                )
                bad = ref_bad if bad is None else min(bad, ref_bad)
        return bad
