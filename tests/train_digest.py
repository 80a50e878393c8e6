"""Print two SHA-256 digests over a few training steps of each head, per dtype.

Builds binary (64 px), density (64 px) and 3-class (32 px) models in float32
and float64 and runs 3 AdamW steps (``--steps``) of a batch of 8 random pairs
on each.  For each dtype, the first digest hashes every step's loss and every
parameter's gradient and value after the step; the second hashes each trained
model's ``predict_scores`` on a held-out pair.  Two trees whose training arithmetic
has the same bits print the same first digests; run it on both sides of a
change that claims so.  A change to float64 rounding alone keeps the
float32 digests and moves the float64 ones.  The second digest also moves
when an inference kernel's bits do, so a change to inference alone keeps
the first and moves only the second.  The batch is perfbench's training
batch: at 2 pairs the digest missed a change to the order in which
per-sample gradients are added, which perfbench's reference losses caught.
Its default 3 steps miss a float32 rounding change whose first effect on the
parameters comes later: forward box sums that differed in 5 of 4.8 million
elements over 20 steps first moved a parameter at step 44 and broke the
reference losses at step 82; ``--steps 100`` runs past it.
pytest does not collect this file; run it from the repository root:

    PYTHONPATH=src python tests/train_digest.py [--steps N]
"""

from __future__ import annotations

import argparse
import hashlib
import sys

import numpy as np

from bisource import AdamW, BiSourceModel, ModelConfig, train_step
from bisource.tensor import Rng

STEPS = 3
BATCH = 8
HEADS = (("binary", {}, 64), ("density", {}, 64), ("multiclass", {"n_classes": 3}, 32))


def _pair(rng: Rng, hw: int) -> tuple[np.ndarray, np.ndarray]:
    return tuple(rng.uniform((hw, hw), 0.0, 1.0) for _ in range(2))


def _target(rng: Rng, head: str, hw: int, n_classes: int = 2) -> np.ndarray:
    if head == "multiclass":
        return rng.integers(0, n_classes, (hw, hw))
    if head == "density":
        return rng.uniform((hw, hw), 0.0, 0.01)
    return (rng.uniform((hw, hw), 0.0, 1.0) > 0.5).astype(np.float32)


def digest_run(train, scores, head: str, extra: dict, hw: int, dtype, steps: int) -> None:
    """Feed one model's ``steps`` training steps to hash ``train`` and its
    final scores to hash ``scores``."""
    config = ModelConfig(base_channels=16, num_prototypes=4, head=head, input_hw=(hw, hw), **extra)
    model = BiSourceModel(config, seed=3, dtype=dtype)
    optimizer = AdamW(model.parameters(), lr=1e-3, weight_decay=0.01)
    rng = Rng(11)
    for _ in range(steps):
        batch = [(*_pair(rng, hw), _target(rng, head, hw, **extra)) for _ in range(BATCH)]
        train.update(np.float64(train_step(model, batch, optimizer)).tobytes())
        for p in model.parameters():
            train.update(p.name.encode())
            train.update(p.grad.tobytes())
            train.update(p.value.data.tobytes())
    scores.update(model.predict_scores(*_pair(rng, hw)).tobytes())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--steps", type=int, default=STEPS, help="training steps per model")
    steps = parser.parse_args().steps
    if steps < 1:
        parser.error(f"--steps must be at least 1, found {steps}")
    for dtype in (np.float32, np.float64):
        train, scores = hashlib.sha256(), hashlib.sha256()
        for head, extra, hw in HEADS:
            digest_run(train, scores, head, extra, hw, dtype, steps)
        name = np.dtype(dtype).name
        print(f"training steps  {name}  {train.hexdigest()}")
        print(f"trained scores  {name}  {scores.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
