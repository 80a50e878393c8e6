"""File formats: CPT1 binary tensors, 8-bit P5 PGM images, JSON manifests.

CPT1 layout: magic ``CPT1``, 1-byte dtype code (0=f32, 1=f64), 1-byte rank,
rank x 8-byte little-endian unsigned extents, row-major little-endian payload.
Round-trips are bit-exact.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"CPT1"
_DTYPE_CODE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def save_cpt1(path: str | Path, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr)
    code = _DTYPE_CODE.get(arr.dtype)
    if code is None:
        raise TypeError(f"CPT1 stores float32/float64 only, got {arr.dtype}")
    if not (1 <= arr.ndim <= 4):
        raise ValueError(f"CPT1 stores rank 1-4, got {arr.ndim}")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<BB", code, arr.ndim))
        for ext in arr.shape:
            fh.write(struct.pack("<Q", ext))
        fh.write(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())


def load_cpt1(path: str | Path) -> np.ndarray:
    """Read a CPT1 file; the header is checked against the file's size
    before any payload is read."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(6)
        if head[:4] != MAGIC:
            raise ValueError(f"{path}: bad magic {head[:4]!r}")
        if len(head) < 6:
            raise ValueError(f"{path}: truncated header")
        code, rank = head[4], head[5]
        if code not in _CODE_DTYPE:
            raise ValueError(f"{path}: unknown dtype code {code}")
        if not 1 <= rank <= 4:
            raise ValueError(f"{path}: rank must be 1-4, got {rank}")
        extents = fh.read(8 * rank)
        if len(extents) != 8 * rank:
            raise ValueError(f"{path}: truncated header")
        shape = struct.unpack(f"<{rank}Q", extents)
        dtype = _CODE_DTYPE[code]
        want = math.prod(shape) * dtype.itemsize
        have = size - 6 - 8 * rank
        if want != have:
            raise ValueError(
                f"{path}: header {shape} implies {want} payload bytes, file holds {have}"
            )
        data = np.frombuffer(fh.read(want), dtype=dtype)
    return data.reshape(shape).astype(dtype.newbyteorder("="))


def write_pgm(path: str | Path, img: np.ndarray) -> None:
    """8-bit binary (P5) PGM; img is float in [0, 1] or uint8."""
    if img.ndim != 2:
        raise ValueError("PGM expects a 2-D map")
    if img.dtype != np.uint8:
        img = np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8)
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(img.tobytes())


def read_pgm(path: str | Path) -> np.ndarray:
    """Returns the raw uint8 map."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P5"):
        raise ValueError(f"{path}: not a binary PGM")
    # header: magic, width, height, maxval, separated by whitespace/comments
    tokens: list[int] = []
    pos = 2
    while len(tokens) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        tokens.append(int(data[start:pos]))
    pos += 1  # single whitespace after maxval
    w, h, maxval = tokens
    if maxval != 255:
        raise ValueError(f"{path}: only 8-bit PGM supported")
    img = np.frombuffer(data[pos : pos + w * h], dtype=np.uint8)
    if img.size != w * h:
        raise ValueError(f"{path}: truncated payload")
    return img.reshape(h, w).copy()


def save_json(path: str | Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path: str | Path):
    with open(path) as fh:
        return json.load(fh)


def save_tensor_dir(dirpath: str | Path, tensors: dict[str, np.ndarray], extra: dict | None = None) -> None:
    """Directory of CPT1 files plus a manifest mapping name -> file/shape/dtype."""
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    entries = {}
    for idx, (name, arr) in enumerate(sorted(tensors.items())):
        fname = f"t{idx:04d}.cpt1"
        save_cpt1(dirpath / fname, arr)
        entries[name] = {
            "file": fname,
            "shape": list(arr.shape),
            "dtype": "f32" if arr.dtype == np.float32 else "f64",
        }
    manifest = {"tensors": entries}
    if extra:
        manifest.update(extra)
    save_json(dirpath / "manifest.json", manifest)


def load_tensor_dir(dirpath: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    dirpath = Path(dirpath)
    manifest = load_json(dirpath / "manifest.json")
    tensors = {
        name: load_cpt1(dirpath / entry["file"])
        for name, entry in manifest["tensors"].items()
    }
    return tensors, manifest
