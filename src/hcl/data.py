"""Dataset I/O in the CIFAR-10 binary layout, plus a synthetic generator.

Records are 3073 bytes: one label byte followed by 3072 pixel bytes
(1024 R, 1024 G, 1024 B, each a row-major 32x32 plane).  The synthetic
generator emits the same layout so everything downstream is agnostic to
where the file came from.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .rng import substream

RECORD_BYTES = 3073
IMAGE_SIDE = 32
NUM_LABELS = 10


@dataclass
class Image:
    """Raw uint8 pixels, row-major HWC, 3 channels."""

    pixels: np.ndarray  # (h, w, 3) uint8

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.ndim != 3 or px.shape[2] != 3 or px.dtype != np.uint8:
            raise ValueError(f"Image: expected (h, w, 3) uint8 pixels, got {px.shape} {px.dtype}")
        if px.shape[0] < 4 or px.shape[1] < 4:
            raise ValueError(f"Image: extents must be >= 4 pixels, got {px.shape[:2]}")
        self.pixels = np.ascontiguousarray(px)

    @property
    def h(self) -> int:
        return self.pixels.shape[0]

    @property
    def w(self) -> int:
        return self.pixels.shape[1]


@dataclass
class DatasetRecord:
    label: int
    image: Image


def load_cifar_batch(path: str | os.PathLike) -> list[DatasetRecord]:
    """Parse a CIFAR-10 binary batch file into records."""
    raw = np.fromfile(os.fspath(path), dtype=np.uint8)
    if raw.size == 0 or raw.size % RECORD_BYTES != 0:
        raise ValueError(
            f"{path}: size {raw.size} is not a positive multiple of {RECORD_BYTES} bytes"
        )
    records = []
    for chunk in raw.reshape(-1, RECORD_BYTES):
        label = int(chunk[0])
        if label >= NUM_LABELS:
            raise ValueError(f"{path}: label {label} out of range [0, {NUM_LABELS})")
        planes = chunk[1:].reshape(3, IMAGE_SIDE, IMAGE_SIDE)
        records.append(DatasetRecord(label, Image(planes.transpose(1, 2, 0).copy())))
    return records


def save_cifar_batch(records: list[DatasetRecord], path: str | os.PathLike) -> None:
    """Write records in the CIFAR-10 binary layout."""
    out = np.empty((len(records), RECORD_BYTES), dtype=np.uint8)
    for i, rec in enumerate(records):
        if rec.image.pixels.shape != (IMAGE_SIDE, IMAGE_SIDE, 3):
            raise ValueError(
                f"save_cifar_batch: record {i} is {rec.image.pixels.shape[:2]}, need 32x32"
            )
        if not 0 <= rec.label < NUM_LABELS:
            raise ValueError(f"save_cifar_batch: record {i} label {rec.label} out of range")
        out[i, 0] = rec.label
        out[i, 1:] = rec.image.pixels.transpose(2, 0, 1).reshape(-1)
    out.tofile(os.fspath(path))


def hsv_to_rgb(hue, s, v) -> np.ndarray:
    """HSV to float RGB, elementwise over broadcastable arrays or scalars;
    the channel axis is appended last."""
    h6 = (hue % 1.0) * 6.0
    sector = np.floor(h6)
    i = sector.astype(np.int64) % 6
    f = h6 - sector
    p = v * (1 - s)
    q = v * (1 - s * f)
    t = v * (1 - s * (1 - f))
    return np.stack([np.choose(i, (v, q, p, p, t, v)),
                     np.choose(i, (t, v, v, q, p, p)),
                     np.choose(i, (p, p, t, v, v, q))], axis=-1)


def make_synthetic_records(classes: int, per_class: int, seed: int) -> list[DatasetRecord]:
    """Class-coded colored patterns, linearly separable in pixel space.

    Each class gets a distinct base hue filling the image plus a
    complementary-colored blob at a class-specific position; mild
    additive noise keeps the problem nontrivial without breaking
    separability.
    """
    if not 1 <= classes <= NUM_LABELS:
        raise ValueError(f"make_synthetic_records: classes must be in [1, {NUM_LABELS}]")
    if per_class < 1:
        raise ValueError("make_synthetic_records: per_class must be >= 1")

    side = IMAGE_SIDE
    yy, xx = np.mgrid[0:side, 0:side].astype(np.float64)
    records = []
    for c in range(classes):
        base = hsv_to_rgb(c / classes, 0.75, 0.8) * 255.0
        blob = hsv_to_rgb(c / classes + 0.5, 0.9, 1.0) * 255.0
        angle = 2.0 * np.pi * c / classes
        cy = side / 2 + 8.0 * np.sin(angle)
        cx = side / 2 + 8.0 * np.cos(angle)
        mask = ((yy - cy) ** 2 + (xx - cx) ** 2 <= 6.0**2)[:, :, None]
        canvas = np.where(mask, blob, base)
        for i in range(per_class):
            rng = substream(seed, "synthetic", c, i)
            noisy = canvas + rng.normal(0.0, 8.0, canvas.shape)
            pixels = np.clip(np.rint(noisy), 0, 255).astype(np.uint8)
            records.append(DatasetRecord(c, Image(pixels)))
    return records


def generate_synthetic(path: str | os.PathLike, classes: int, per_class: int, seed: int) -> int:
    """Write a synthetic dataset file; returns the number of records."""
    records = make_synthetic_records(classes, per_class, seed)
    save_cifar_batch(records, path)
    return len(records)
