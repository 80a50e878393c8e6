"""File formats: CPT1 binary tensors, 8-bit P5 PGM images, JSON manifests,
one-file checkpoints.

CPT1 layout: magic ``CPT1``, 1-byte dtype code (0=f32, 1=f64), 1-byte rank,
rank x 8-byte little-endian unsigned extents, row-major little-endian payload.
Round-trips are bit-exact.

Checkpoint layout (``checkpoint.bin``, after the safetensors layout): magic
``BSCKPT01``; the header's length as a little-endian u64; the JSON header,
space-padded so the buffer starts on a 64-byte boundary, which maps
``tensors`` to each name's ``dtype`` (``<f4``/``<f8``), ``shape`` (rank 1-4)
and byte ``offset``, beside the caller's extra keys; one buffer holding every
tensor's CPT1-style payload in name order, without gaps; the SHA-256 digest of
everything before it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"CPT1"
_DTYPE_CODE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}

CHECKPOINT = "checkpoint.bin"
CHECKPOINT_MAGIC = b"BSCKPT01"
_PREFIX = len(CHECKPOINT_MAGIC) + 8
_DIGEST = hashlib.sha256().digest_size
_CHUNK = 1 << 16


def _storable(arr: np.ndarray) -> np.ndarray:
    """``arr`` as the contiguous little-endian array CPT1 and checkpoints store."""
    arr = np.ascontiguousarray(arr)
    if arr.dtype not in _DTYPE_CODE:
        raise TypeError(f"CPT1 stores float32/float64 only, got {arr.dtype}")
    if not (1 <= arr.ndim <= 4):
        raise ValueError(f"CPT1 stores rank 1-4, got {arr.ndim}")
    return arr.astype(arr.dtype.newbyteorder("<"), copy=False)


def save_cpt1(path: str | Path, arr: np.ndarray) -> None:
    arr = _storable(arr)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<BB", _DTYPE_CODE[arr.dtype], arr.ndim))
        for ext in arr.shape:
            fh.write(struct.pack("<Q", ext))
        fh.write(arr.tobytes())


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
        if start == pos:
            raise ValueError(f"{path}: truncated PGM header")
        if not data[start:pos].isdigit():
            raise ValueError(f"{path}: non-numeric PGM header")
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
    """The JSON value in the file at ``path``; a file that is not JSON raises
    a ValueError that starts with the path."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None


def save_tensor_dir(dirpath: str | Path, tensors: dict[str, np.ndarray], extra: dict | None = None) -> None:
    """Write ``dirpath/checkpoint.bin`` holding ``tensors`` and the keys of
    ``extra``.  The file is written beside it and renamed into place, so a
    crash mid-save leaves the previous checkpoint whole."""
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    arrays = {name: _storable(arr) for name, arr in sorted(tensors.items())}
    entries, offset = {}, 0
    for name, arr in arrays.items():
        entries[name] = {"dtype": arr.dtype.str, "shape": list(arr.shape), "offset": offset}
        offset += arr.nbytes
    header = json.dumps({**(extra or {}), "tensors": entries}, sort_keys=True).encode()
    header += b" " * (-(_PREFIX + len(header)) % 64)
    tmp = dirpath / (CHECKPOINT + ".tmp")
    digest = hashlib.sha256()
    with open(tmp, "wb") as fh:
        for chunk in (CHECKPOINT_MAGIC, struct.pack("<Q", len(header)), header, *arrays.values()):
            digest.update(chunk)
            fh.write(chunk)
        fh.write(digest.digest())
    os.replace(tmp, dirpath / CHECKPOINT)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    out = dict(pairs)
    if len(out) != len(pairs):
        raise ValueError("a JSON object repeats a key")
    return out


def load_tensor_dir(dirpath: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Read ``dirpath/checkpoint.bin``: the tensors, as read-only
    ``np.frombuffer`` arrays, and the JSON header.  Checks the magic, the
    header length, the digest, then each entry; any failure raises one
    ``ValueError`` naming the file.  The digest is checked in 64 KiB chunks
    before the tensors are read one by one, so the file is never held whole.
    """
    dirpath = Path(dirpath)
    path = dirpath / CHECKPOINT
    if not path.exists() and (dirpath / "manifest.json").exists():
        raise ValueError(f"{dirpath}: old checkpoint format (manifest.json and one CPT1 file "
                         f"per tensor) is not read; save the model again")

    def bad(problem: str) -> ValueError:
        return ValueError(f"{path}: {problem}")

    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(_PREFIX)
        if prefix[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
            raise bad("bad magic: not a checkpoint file")
        n = int.from_bytes(prefix[len(CHECKPOINT_MAGIC) :], "little")
        if n > size - _PREFIX - _DIGEST:
            raise bad(f"header length {n} does not fit in a {size}-byte file")
        digest = hashlib.sha256(prefix)
        for start in range(_PREFIX, size - _DIGEST, _CHUNK):
            digest.update(fh.read(min(_CHUNK, size - _DIGEST - start)))
        if digest.digest() != fh.read(_DIGEST):
            raise bad("digest mismatch: the file is corrupt")
        fh.seek(_PREFIX)
        try:
            header = json.loads(fh.read(n), object_pairs_hook=_unique_keys)
        except ValueError as exc:
            raise bad(f"unreadable header: {exc}") from None
        table = header.get("tensors") if isinstance(header, dict) else None
        if not isinstance(table, dict):
            raise bad("header holds no tensor table")

        buffer_size = size - _PREFIX - n - _DIGEST
        tensors, covered = {}, 0
        for name in sorted(table):
            entry = table[name]
            if not (isinstance(entry, dict) and set(entry) == {"dtype", "shape", "offset"}):
                raise bad(f"tensor {name!r}: entry {entry!r} is not {{dtype, shape, offset}}")
            dtype, shape = entry["dtype"], entry["shape"]
            if dtype not in ("<f4", "<f8"):
                raise bad(f"tensor {name!r}: dtype {dtype!r} is not <f4 or <f8")
            if not (isinstance(shape, list) and 1 <= len(shape) <= 4
                    and all(type(x) is int and x >= 0 for x in shape)):
                raise bad(f"tensor {name!r}: shape {shape!r} is not 1-4 non-negative extents")
            if entry["offset"] != covered:
                raise bad(f"tensor {name!r}: offset {entry['offset']!r} is not {covered}, "
                          f"where the tensor before it in name order ends")
            nbytes = math.prod(shape) * np.dtype(dtype).itemsize
            if covered + nbytes > buffer_size:
                raise bad(f"tensor {name!r}: ends at byte {covered + nbytes} of a {buffer_size}-byte buffer")
            tensors[name] = np.frombuffer(fh.read(nbytes), dtype=dtype).reshape(shape)
            covered += nbytes
    if covered != buffer_size:
        raise bad(f"tensors cover {covered} of the buffer's {buffer_size} bytes")
    return tensors, header
