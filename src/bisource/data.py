"""Deterministic synthetic generators for the two toy bi-source tasks:
rectangle change detection (bi-temporal pair + binary change mask) and
bi-modal crowd density (contrast/thermal pair + Gaussian density map).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .io import load_cpt1, load_json, read_pgm, save_cpt1, save_json, write_pgm
from .tensor import Rng

# rectangle intensity band kept disjoint from the background noise band so the
# task is learnable; rectangles may still overlap and occlude each other
NOISE_LO, NOISE_HI = 0.0, 0.35
RECT_LO, RECT_HI = 0.55, 0.95
DARK_CONTRAST = 0.15


@dataclass
class ChangeSceneSpec:
    height: int = 64
    width: int = 64
    n_rects: int = 5
    change_prob: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.height < 8 or self.width < 8:
            raise ValueError("scene too small")


@dataclass
class DensitySceneSpec:
    height: int = 64
    width: int = 64
    n_people: int = 12
    gaussian_sigma: float = 2.0
    illumination: str = "bright"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.illumination not in ("bright", "dark"):
            raise ValueError("illumination must be 'bright' or 'dark'")


def _paint_rect(img: np.ndarray, rect: tuple[int, int, int, int], value: float) -> None:
    r, c, rh, rw = rect
    img[r : r + rh, c : c + rw] = value


def _footprint(shape, rect) -> np.ndarray:
    m = np.zeros(shape, dtype=bool)
    r, c, rh, rw = rect
    m[r : r + rh, c : c + rw] = True
    return m


def gen_change_pair(spec: ChangeSceneSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (img1, img2, mask); mask marks pixels whose rectangle coverage
    differs between the two frames (symmetric-difference footprints)."""
    rng = Rng(spec.seed)
    h, w = spec.height, spec.width
    noise = rng.uniform((h, w), NOISE_LO, NOISE_HI, dtype=np.float32)
    img1 = noise.copy()
    img2 = noise.copy()
    cov1 = np.zeros((h, w), dtype=bool)
    cov2 = np.zeros((h, w), dtype=bool)

    def draw_rect() -> tuple[int, int, int, int]:
        rh = int(rng.integers(h // 8, h // 3 + 1))
        rw = int(rng.integers(w // 8, w // 3 + 1))
        r = int(rng.integers(0, h - rh + 1))
        c = int(rng.integers(0, w - rw + 1))
        return r, c, rh, rw

    for _ in range(spec.n_rects):
        rect = draw_rect()
        value = float(rng.uniform((), RECT_LO, RECT_HI, dtype=np.float64))
        changed = rng.random() < spec.change_prob
        if not changed:
            _paint_rect(img1, rect, value)
            _paint_rect(img2, rect, value)
            cov1 |= _footprint((h, w), rect)
            cov2 |= _footprint((h, w), rect)
            continue
        event = ("removed", "added", "moved")[int(rng.integers(0, 3))]
        if event == "removed":
            _paint_rect(img1, rect, value)
            cov1 |= _footprint((h, w), rect)
        elif event == "added":
            _paint_rect(img2, rect, value)
            cov2 |= _footprint((h, w), rect)
        else:  # moved
            rect2 = draw_rect()
            _paint_rect(img1, rect, value)
            _paint_rect(img2, rect2, value)
            cov1 |= _footprint((h, w), rect)
            cov2 |= _footprint((h, w), rect2)
    mask = (cov1 ^ cov2).astype(np.float32)
    return img1, img2, mask


def gen_density_pair(spec: DensitySceneSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (img1, img2, density); each person contributes unit mass to the
    density map (Gaussian renormalized after border clipping)."""
    rng = Rng(spec.seed)
    h, w = spec.height, spec.width
    density = np.zeros((h, w), dtype=np.float64)
    blobs = np.zeros((h, w), dtype=np.float64)
    sigma = spec.gaussian_sigma
    rad = max(int(np.ceil(4 * sigma)), 1)
    for _ in range(spec.n_people):
        py = float(rng.uniform((), 0, h - 1, dtype=np.float64))
        px = float(rng.uniform((), 0, w - 1, dtype=np.float64))
        y0, y1 = max(0, int(py) - rad), min(h, int(py) + rad + 1)
        x0, x1 = max(0, int(px) - rad), min(w, int(px) + rad + 1)
        yy, xx = np.mgrid[y0:y1, x0:x1]
        kern = np.exp(-((yy - py) ** 2 + (xx - px) ** 2) / (2 * sigma * sigma))
        density[y0:y1, x0:x1] += kern / kern.sum()
        blobs[y0:y1, x0:x1] = np.maximum(blobs[y0:y1, x0:x1], kern)
    noise1 = rng.uniform((h, w), 0.0, 0.2, dtype=np.float64)
    noise2 = rng.uniform((h, w), 0.0, 0.05, dtype=np.float64)
    contrast = DARK_CONTRAST if spec.illumination == "dark" else 1.0
    img1 = np.clip(contrast * blobs + noise1, 0.0, 1.0).astype(np.float32)
    img2 = np.clip(blobs + noise2, 0.0, 1.0).astype(np.float32)  # thermal stream
    return img1, img2, density.astype(np.float32)


# ---------------------------------------------------------------------------
# dataset on disk: PGM image pairs, CPT1 targets, JSON manifest
# ---------------------------------------------------------------------------


def generate_dataset(task: str, out_dir: str | Path, count: int, size: int, seed: int) -> dict:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    samples = []
    for i in range(count):
        sample_seed = seed * 1_000_003 + i
        if task == "change":
            img1, img2, target = gen_change_pair(
                ChangeSceneSpec(height=size, width=size, seed=sample_seed)
            )
        elif task == "density":
            illum = "dark" if i % 2 else "bright"
            n_people = 4 + (sample_seed % 13)
            img1, img2, target = gen_density_pair(
                DensitySceneSpec(
                    height=size, width=size, n_people=n_people,
                    illumination=illum, seed=sample_seed,
                )
            )
        else:
            raise ValueError(f"unknown task {task!r}")
        stem = f"{i:05d}"
        write_pgm(out_dir / f"{stem}_a.pgm", img1)
        write_pgm(out_dir / f"{stem}_b.pgm", img2)
        save_cpt1(out_dir / f"{stem}_target.cpt1", target)
        samples.append(
            {
                "img1": f"{stem}_a.pgm",
                "img2": f"{stem}_b.pgm",
                "target": f"{stem}_target.cpt1",
                "seed": sample_seed,
            }
        )
    manifest = {"task": task, "size": size, "seed": seed, "count": count, "samples": samples}
    save_json(out_dir / "manifest.json", manifest)
    return manifest


def load_dataset(data_dir: str | Path) -> tuple[dict, list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """The manifest of the dataset at ``data_dir`` and its (img1, img2, target)
    samples, the images scaled to [0, 1].

    The manifest's task, size and samples, each entry's three file names, each
    file's size x size shape and the targets' finiteness are checked as they
    are read; a fault is one ValueError that names the manifest and the entry,
    or the file.
    """
    data_dir = Path(data_dir)
    path = data_dir / "manifest.json"
    manifest = load_json(path)
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: manifest must be a JSON object, found {type(manifest).__name__}")
    task, size, entries = manifest.get("task"), manifest.get("size"), manifest.get("samples")
    if task not in ("change", "density"):
        raise ValueError(f"{path}: 'task' must be 'change' or 'density', found {task!r}")
    if type(size) is not int or size < 1:
        raise ValueError(f"{path}: 'size' must be a positive integer, found {size!r}")
    if not isinstance(entries, list):
        raise ValueError(f"{path}: 'samples' must be a list, found {entries!r}")
    samples = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: sample {i} must be a JSON object, found {entry!r}")
        for key in ("img1", "img2", "target"):
            if not isinstance(entry.get(key), str):
                raise ValueError(f"{path}: sample {i} needs a file name at {key!r}, found {entry.get(key)!r}")
        f1, f2, ft = (data_dir / entry[key] for key in ("img1", "img2", "target"))
        img1, img2, target = read_pgm(f1), read_pgm(f2), load_cpt1(ft)
        for f, arr in ((f1, img1), (f2, img2), (ft, target)):
            if arr.shape != (size, size):
                raise ValueError(f"{f}: shape {arr.shape} != the manifest's size ({size}, {size})")
        if not np.isfinite(target).all():
            raise ValueError(f"{ft}: target holds NaN or Inf")
        samples.append((img1.astype(np.float32) / 255.0, img2.astype(np.float32) / 255.0, target))
    return manifest, samples
