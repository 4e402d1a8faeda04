"""Single-file binary checkpoints: named float64 arrays plus JSON metadata.

Layout (all integers little-endian unsigned 32-bit):

    bytes 0..3   magic ``HCL1``
    u32          number of arrays N
    N records:   u32 name length, name bytes (utf-8),
                 u32 ndim, ndim * u32 dims,
                 raw float64 little-endian C-order data
    u32          metadata length, metadata bytes (utf-8 JSON)

Arrays are written sorted by name, so identical state produces an
identical file byte for byte.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"HCL1"


def _pack_u32(value: int) -> bytes:
    if not 0 <= value < 2 ** 32:
        raise ValueError(f"value out of u32 range: {value}")
    return struct.pack("<I", value)


def save_checkpoint(path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    """Write named arrays and a JSON-serializable metadata dict to ``path``."""
    path = Path(path)
    chunks = [MAGIC, _pack_u32(len(arrays))]
    for name in sorted(arrays):
        arr = np.ascontiguousarray(np.asarray(arrays[name], dtype=np.float64))
        name_b = name.encode("utf-8")
        chunks.append(_pack_u32(len(name_b)))
        chunks.append(name_b)
        chunks.append(_pack_u32(arr.ndim))
        for dim in arr.shape:
            chunks.append(_pack_u32(dim))
        chunks.append(arr.astype("<f8", copy=False).tobytes())
    meta_b = json.dumps(meta, sort_keys=True).encode("utf-8")
    chunks.append(_pack_u32(len(meta_b)))
    chunks.append(meta_b)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(b"".join(chunks))
    tmp.replace(path)


class _Reader:
    def __init__(self, blob: bytes, path: Path):
        self.blob = blob
        self.off = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if n < 0 or self.off + n > len(self.blob):
            raise ValueError(f"{self.path}: truncated checkpoint")
        out = self.blob[self.off:self.off + n]
        self.off += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def text(self, n: int, what: str) -> str:
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{self.path}: {what} is not UTF-8 ({exc})") from None


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint written by :func:`save_checkpoint`."""
    path = Path(path)
    r = _Reader(path.read_bytes(), path)
    if r.take(4) != MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic)")
    arrays: dict[str, np.ndarray] = {}
    for _ in range(r.u32()):
        name = r.text(r.u32(), "array name")
        if name in arrays:
            raise ValueError(f"{path}: array {name!r} appears twice")
        ndim = r.u32()
        shape = tuple(r.u32() for _ in range(ndim))
        count = math.prod(shape)  # a Python int: no overflow
        data = np.frombuffer(r.take(count * 8), dtype="<f8").astype(np.float64)
        arrays[name] = data.reshape(shape)
    try:
        meta = json.loads(r.text(r.u32(), "metadata"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: metadata is not JSON ({exc})") from None
    if r.off != len(r.blob):
        raise ValueError(f"{path}: trailing bytes after checkpoint payload")
    return arrays, meta


def load_named(targets: dict[str, np.ndarray], arrays: dict[str, np.ndarray],
               what: str) -> None:
    """Copy ``arrays[name]`` into each target array in place.

    Every name is checked first, so a missing array (KeyError) or one of
    the wrong shape (ValueError) leaves all targets untouched.
    """
    for name, dst in targets.items():
        if name not in arrays:
            raise KeyError(f"checkpoint is missing {what} {name}")
        if arrays[name].shape != dst.shape:
            raise ValueError(f"checkpoint {what} {name} has wrong shape")
    for name, dst in targets.items():
        dst[...] = arrays[name]
