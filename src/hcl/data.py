"""Dataset I/O in the CIFAR-10 binary layout, plus a synthetic generator.

Records are 3073 bytes: one label byte followed by 3072 pixel bytes
(1024 R, 1024 G, 1024 B, each a row-major 32x32 plane).  In memory a
dataset is one 1-D numpy array of dtype `RECORD`: a uint8 ``label`` and
a uint8 ``image`` of shape (32, 32, 3), row-major HWC.  The synthetic
generator emits the same layout so everything downstream is agnostic to
where the file came from.
"""

from __future__ import annotations

import os

import numpy as np

from .rng import substream

RECORD_BYTES = 3073
IMAGE_SIDE = 32
NUM_LABELS = 10
RECORD = np.dtype([("label", np.uint8), ("image", np.uint8, (IMAGE_SIDE, IMAGE_SIDE, 3))])


def _check_labels(labels: np.ndarray, where) -> None:
    bad = np.flatnonzero(labels >= NUM_LABELS)
    if bad.size:
        raise ValueError(f"{where}: record {bad[0]} label {labels[bad[0]]} "
                         f"out of range [0, {NUM_LABELS})")


def load_cifar_batch(path: str | os.PathLike) -> np.ndarray:
    """Parse a CIFAR-10 binary batch file into a `RECORD` array."""
    raw = np.fromfile(os.fspath(path), dtype=np.uint8)
    if raw.size == 0 or raw.size % RECORD_BYTES != 0:
        raise ValueError(
            f"{path}: size {raw.size} is not a positive multiple of {RECORD_BYTES} bytes"
        )
    raw = raw.reshape(-1, RECORD_BYTES)
    _check_labels(raw[:, 0], path)
    records = np.empty(len(raw), dtype=RECORD)
    records["label"] = raw[:, 0]
    records["image"] = raw[:, 1:].reshape(-1, 3, IMAGE_SIDE, IMAGE_SIDE).transpose(0, 2, 3, 1)
    return records


def save_cifar_batch(records: np.ndarray, path: str | os.PathLike) -> None:
    """Write a `RECORD` array in the CIFAR-10 binary layout."""
    if records.dtype != RECORD:
        raise ValueError(f"save_cifar_batch: records must have dtype RECORD, labels with "
                         f"32x32x3 uint8 images; got {records.dtype}")
    _check_labels(records["label"], "save_cifar_batch")
    out = np.empty((len(records), RECORD_BYTES), dtype=np.uint8)
    out[:, 0] = records["label"]
    out[:, 1:] = records["image"].transpose(0, 3, 1, 2).reshape(len(records), -1)
    out.tofile(os.fspath(path))


# Per hue sector k = floor(6 h), the source of r, g and b: v, p = v (1 - s)
# or the middle value m, which is t = v (1 - s (1 - f)) in even sectors and
# q = v (1 - s f) in odd ones.  Sector 6 is reached where h % 1 rounds up
# to 1.0; there f = 0 and it acts as sector 0.
#                k:  0123456
_SECTOR_SOURCES = ("vmppmvv",  # r
                   "mvvmppm",  # g
                   "ppmvvmp")  # b


def wrap_unit(x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """x <- x % 1.0 in place, computed as x - floor(x); ``scratch`` (the
    shape of x) is overwritten.  Returns x.

    The two agree bit for bit on every finite double.  For x >= 0 both
    are the exact fraction.  For x < 0 numpy's ``%`` is fmod(x, 1) + 1,
    and fmod(x, 1) = x - trunc(x) = x - floor(x) - 1 exactly, so both
    round the same real number once; a tiny negative x rounds up to 1.0
    in both.  Where the fraction is zero both give +0.0, -0.0 included.
    """
    np.floor(x, out=scratch)
    x -= scratch
    return x


def hsv_to_rgb(hue, s, v, out: np.ndarray | None = None) -> np.ndarray:
    """HSV to float RGB, elementwise over broadcastable arrays or scalars;
    the channel axis is appended last.  With ``out`` (..., 3), which may
    be a channel-last view of (3, ...) planes, the result is written there.

    Per element it is the textbook sector formula: h6 = (hue % 1) * 6,
    f = h6 - floor(h6), then v, p, q or t per channel by sector.  ``% 1``
    is computed as x - floor(x) (`wrap_unit`), which is exact.  Only the
    middle value the sector needs is computed, with the same operations
    as q or t: its factor 1 - f (even sectors) or f (odd) is |parity - f|,
    exact because 0 <= f < 1.  Each channel then takes v, p or the middle
    value by masked copies per `_SECTOR_SOURCES`; the blue plane holds p
    until red and green have read it.
    """
    if out is None:
        shape = np.broadcast_shapes(np.shape(hue), np.shape(s), np.shape(v))
        out = np.empty(shape + (3,))
    r, g, b = (out[..., c] for c in range(3))
    m = np.empty(b.shape)
    np.copyto(m, hue)
    wrap_unit(m, b)
    m *= 6.0  # h6
    np.floor(m, out=b)
    sector = b.astype(np.uint8)
    m -= b  # f
    np.subtract((sector & 1) ^ 1, m, out=m)
    np.abs(m, out=m)  # 1 - f or f
    np.multiply(s, m, out=m)
    np.subtract(1, m, out=m)
    np.multiply(v, m, out=m)
    np.subtract(1, s, out=b)
    np.multiply(v, b, out=b)  # p
    onehot = np.left_shift(np.uint8(1), sector)  # sector is scratch from here on
    mask = np.empty(sector.shape, dtype=bool)

    def select(plane, channel, source, values):
        sectors = sum(1 << k for k, c in enumerate(_SECTOR_SOURCES[channel]) if c == source)
        np.bitwise_and(onehot, sectors, out=sector)
        np.copyto(plane, values, where=np.not_equal(sector, 0, out=mask))

    for channel, plane in enumerate((r, g)):
        np.copyto(plane, v)
        select(plane, channel, "m", m)
        select(plane, channel, "p", b)
    select(b, 2, "m", m)
    select(b, 2, "v", v)
    return out


def make_synthetic_records(classes: int, per_class: int, seed: int) -> np.ndarray:
    """A `RECORD` array of class-coded colored patterns, linearly separable
    in pixel space, ordered by class.

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
    records = np.empty(classes * per_class, dtype=RECORD)
    records["label"] = np.repeat(np.arange(classes), per_class)
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
            records["image"][c * per_class + i] = np.clip(np.rint(noisy), 0, 255)
    return records


def generate_synthetic(path: str | os.PathLike, classes: int, per_class: int, seed: int) -> int:
    """Write a synthetic dataset file; returns the number of records."""
    records = make_synthetic_records(classes, per_class, seed)
    save_cifar_batch(records, path)
    return len(records)
