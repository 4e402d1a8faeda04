"""Two-view augmentation with center-suppressed cropping.

View 1 is cropped from a centered sub-image (side ratio p of the
original) so the two views always share central content and cannot form
a false positive; view 2 is cropped from the full image.  Crop centers
are placed via Beta(alpha, alpha) draws with alpha < 1, a U-shaped
distribution that favors off-center placements and so increases the
variation between views.  Both views then pass through the usual
photometric transform set (color jitter, random grayscale, Gaussian
blur, horizontal flip).

All geometry is integer-exact and documented so tests can be bit-exact:
crop extents use floor, centered placement uses floor((h - crop_h) / 2),
and resizing is bilinear with half-pixel center alignment.

Views are made in two phases.  The draw phase runs per sample and takes
every random number from that sample's generator, in a fixed order:
crop of view 1, crop of view 2, transforms of view 1, transforms of
view 2.  No draw depends on pixel values, so the draws alone fix the
views.  `augment_batch` reads each generator in blocks of doubles
(`_BlockDraws`) and makes the draws from them in Python float
arithmetic, with the bits of one generator call per draw; the
generators passed in are spent, left past doubles no draw used.  The
draws come out as two arrays: a (V, 5) box array, one row
(image, top, left, crop_h, crop_w) per view, and a (V, 7) draw array,
one row (fb, fc, fs, fh, gray, sigma, flip) per view.  The pixel phase
then runs over the batch in equal chunks of pairs (`_pairs_per_chunk`),
one more than the whole `_VIEW_CHUNK_BYTES` (1 MiB) its float64 views
fill, so a desk batch (64 pairs, 32 px, 3 MiB) runs as 4 chunks of 16
and a quickstart batch (32 pairs, 16 px) as one.  The chunk size
follows from the view size and the batch size alone.  Each chunk scales
only its own images to unit floats, resamples, rounds, runs the
photometric steps and rounds again into its rows of one preallocated
uint8 batch, so the whole batch's float views never coexist.  Crops and
evaluation resizes share one bilinear resampler, `_resample`, which
gathers each tap of every view in one call and combines each row of
taps as soon as it is gathered; each photometric step is a broadcast
over views (or over the masked views it applies to), and blur runs once
per kernel radius.  The hue shift's HSV round trip runs planar: one
contiguous (3, V, h, w) copy of its views, so every step works on
stride-1 planes, with buffers reused and selections made by masked
writes rather than `np.where`/`np.choose`.
Its ``% 1.0`` is computed as x - floor(x), which is bit-identical on
every finite double (`hcl.data.wrap_unit`) and ~8x cheaper than numpy's
float ``%``.  Per element the pixel phase does the same arithmetic in
the same order as a view-by-view pipeline, so a view's bytes do not
depend on the batch it was made in, nor on the chunk: chunking cannot
move a byte.

A batch is one (B, h, w, 3) uint8 array, such as a slice of a dataset's
``image`` column, so all its images share one size; a single image is an
(h, w, 3) uint8 array.  `augment_pair`, `center_suppressed_crop` and
`apply_transforms` are batches of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .data import hsv_to_rgb, wrap_unit

GRAY_WEIGHTS = np.array([0.299, 0.587, 0.114])
# Bounds of the log-uniform crop aspect ratio (width / height), 3/4 to
# 4/3, as their logs: the bounds of the uniform draw.
LOG_ASPECT_RANGE = (float(np.log(3.0 / 4.0)), float(np.log(4.0 / 3.0)))
# Doubles `augment_batch` reads from a sample's generator at a time.  A
# sample at the default config uses ~31 (p99 40), so few read a second
# block.
_DRAW_BLOCK = 40
# Bytes of float64 views (V, S, S, 3) that `augment_batch`'s pixel phase
# works on at a time (see `_pairs_per_chunk`).
_VIEW_CHUNK_BYTES = 1024 * 1024


class CropRegion(NamedTuple):
    """Axis-aligned rectangle fully inside its source image."""

    top: int
    left: int
    crop_h: int
    crop_w: int

    def center(self) -> tuple[float, float]:
        return (self.top + (self.crop_h - 1) / 2.0, self.left + (self.crop_w - 1) / 2.0)


@dataclass
class AugmentConfig:
    """The ``augment`` section of an experiment config."""

    p: float = 0.5  # center-crop side ratio for view 1
    alpha: float = 0.6  # Beta(alpha, alpha) shape for crop-center placement
    out_size: int = 32
    scale_min: float = 0.2  # crop area fraction bounds
    scale_max: float = 1.0
    jitter_strength: float = 0.4
    grayscale_prob: float = 0.2
    flip_prob: float = 0.5
    blur_prob: float = 0.5
    center_crop_both: bool = False  # apply the center crop to view 2 as well

    def validate(self) -> None:
        if not 0.0 < self.p <= 1.0:
            raise ValueError("augment.p must be in (0, 1]")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("augment.alpha must be in (0, 1)")
        if self.out_size < 4:
            raise ValueError("augment.out_size must be >= 4")
        if not 0.0 < self.scale_min <= self.scale_max <= 1.0:
            raise ValueError("augment.scale_min/scale_max must satisfy 0 < min <= max <= 1")
        for key in ("jitter_strength", "grayscale_prob", "flip_prob", "blur_prob"):
            if not 0.0 <= getattr(self, key) <= 1.0:
                raise ValueError(f"augment.{key} must be in [0, 1]")


def center_crop(img: np.ndarray, p: float) -> np.ndarray:
    """Centered crop of an (h, w, 3) image with side ratio p; extents
    floor(p*h) x floor(p*w).

    The crop center coincides with the image center (up to the fixed
    floor rule); pixels are copied without interpolation.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"center_crop: p must be in (0,1], got {p}")
    r = center_crop_region(img.shape[0], img.shape[1], p)
    return img[r.top : r.top + r.crop_h, r.left : r.left + r.crop_w].copy()


def center_crop_region(h: int, w: int, p: float) -> CropRegion:
    """The region that center_crop extracts, without copying pixels."""
    ch, cw = int(np.floor(p * h)), int(np.floor(p * w))
    if ch < 1 or cw < 1:
        raise ValueError(f"center_crop: p={p} yields empty crop for {h}x{w} image")
    return CropRegion((h - ch) // 2, (w - cw) // 2, ch, cw)


def sample_beta(alpha: float, rng: np.random.Generator) -> float:
    """One draw from Beta(alpha, alpha) via Johnk's rejection algorithm.

    Needs no special functions and is valid for the alpha < 1 regime
    used here, where the density is U-shaped.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"sample_beta: alpha must be in (0,1), got {alpha}")
    while True:
        u, v = rng.random(), rng.random()
        x = u ** (1.0 / alpha)
        y = v ** (1.0 / alpha)
        if 0.0 < x + y <= 1.0:
            return x / (x + y)
        if x + y == 0.0 < u * v:
            # Both powers underflowed (alpha below ~0.05), so x + y <= 1
            # holds: take x / (x + y) = 1 / (1 + (v / u) ** (1 / alpha)) in logs.
            return 0.5 - 0.5 * math.tanh((math.log(v) - math.log(u)) / (2.0 * alpha))


# ---- draw phase ------------------------------------------------------------


def _draw_crop(h: int, w: int, cfg: AugmentConfig, rng: np.random.Generator) -> CropRegion:
    """Random crop of an h x w source with a Beta-placed center.

    Crop area fraction is uniform over [scale_min, scale_max] with
    log-uniform aspect ratio in LOG_ASPECT_RANGE; after 10 rejected size
    attempts the crop falls back to the largest centered square.  The crop
    center is placed at Beta(alpha, alpha) draws mapped over the feasible
    center range of each axis.  Like `sample_beta` and `_draw_transforms`
    it calls only ``rng.random()`` and ``rng.uniform()``, so ``rng`` may
    also be a `_BlockDraws`.
    """
    area = float(h * w)
    ch = cw = 0
    for _ in range(10):
        target = area * rng.uniform(cfg.scale_min, cfg.scale_max)
        ratio = float(np.exp(rng.uniform(*LOG_ASPECT_RANGE)))
        tw = round(math.sqrt(target * ratio))
        th = round(math.sqrt(target / ratio))
        if 1 <= tw <= w and 1 <= th <= h:
            ch, cw = th, tw
            break
    if ch == 0:
        side = min(h, w)
        return CropRegion((h - side) // 2, (w - side) // 2, side, side)
    u = sample_beta(cfg.alpha, rng)
    v = sample_beta(cfg.alpha, rng)
    return CropRegion(round(u * (h - ch)), round(v * (w - cw)), ch, cw)


def _draw_transforms(cfg: AugmentConfig, rng: np.random.Generator) -> tuple:
    """One view's draw row (fb, fc, fs, fh, gray, sigma, flip): jitter
    scales, then the grayscale, blur (plus sigma) and flip coins.

    Brightness/contrast/saturation scales are uniform in [1-s, 1+s] and
    the hue shift in [-0.1s, 0.1s].  They are drawn even when s == 0, so
    the stream layout does not depend on the strength.  A drawn blur
    sigma lies in [0.1, 2); sigma 0.0 means no blur.
    """
    s = cfg.jitter_strength
    fb = rng.uniform(1.0 - s, 1.0 + s)
    fc = rng.uniform(1.0 - s, 1.0 + s)
    fs = rng.uniform(1.0 - s, 1.0 + s)
    fh = rng.uniform(-0.1 * s, 0.1 * s)
    gray = rng.random() < cfg.grayscale_prob
    sigma = rng.uniform(0.1, 2.0) if rng.random() < cfg.blur_prob else 0.0
    flip = rng.random() < cfg.flip_prob
    return fb, fc, fs, fh, gray, sigma, flip


class _BlockDraws:
    """The ``random()`` and ``uniform(lo, hi)`` draws of a generator, read
    from it `_DRAW_BLOCK` doubles at a time as a Python list.

    ``rng.random(n)`` gives the doubles of n ``rng.random()`` calls, and
    ``Generator.uniform`` computes lo + (hi - lo) * random(), so every
    draw has the generator's own bits.  The generator is left past the
    last block read, which may hold doubles no draw used.
    """

    __slots__ = ("_rng", "_block")

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._block = iter(())

    def random(self) -> float:
        u = next(self._block, None)
        if u is None:
            self._block = iter(self._rng.random(_DRAW_BLOCK).tolist())
            u = next(self._block)
        return u

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()


# ---- pixel phase -----------------------------------------------------------


def _bilinear_taps(n: np.ndarray, out: int):
    """Source taps (i0, i1, frac), each (V, out), for resizing sizes n (V,) to out."""
    n = n[:, None]
    pos = np.clip((np.arange(out) + 0.5) * (n / out) - 0.5, 0.0, n - 1.0)
    i0 = np.floor(pos).astype(np.int64)
    return i0, np.minimum(i0 + 1, n - 1), pos - i0


def _pairs_per_chunk(pairs: int, out_size: int) -> int:
    """Pairs per chunk of `augment_batch`'s pixel phase: the batch's
    float64 views split into 1 + (their bytes // `_VIEW_CHUNK_BYTES`)
    equal chunks, at most one per pair; the last may be smaller.  An
    empty batch gets 1, so the chunk loop runs no chunk."""
    if not pairs:
        return 1
    view_bytes = out_size * out_size * 3 * 8
    chunks = min(pairs, 1 + 2 * pairs * view_bytes // _VIEW_CHUNK_BYTES)
    return -(-pairs // chunks)


def _to_uint8(x: np.ndarray) -> np.ndarray:
    """Unit floats to rounded bytes; overwrites ``x``."""
    x *= 255.0
    np.rint(x, out=x)
    np.clip(x, 0, 255, out=x)
    return x.astype(np.uint8)


def _resample(pixels: np.ndarray, boxes: np.ndarray, out_size: int) -> np.ndarray:
    """Float views (V, S, S, 3), S = out_size: view v is the box
    (image, top, left, crop_h, crop_w) = boxes[v] of the float (N, h, w, 3)
    ``pixels``, bilinear-resized with half-pixel center alignment.

    Each tap of every view is one gather from the pixels as (N*h*w, 3)
    rows.  A row of taps is combined in place as soon as it is gathered,
    (p00 (1-fx) + p01 fx) (1-fy) + (p10 (1-fx) + p11 fx) fy, so at most
    three tap-sized arrays are alive.
    """
    h, w = pixels.shape[1:3]
    flat = pixels.reshape(-1, 3)
    image, top, left, ch, cw = boxes.T
    y0, y1, fy = _bilinear_taps(ch, out_size)
    x0, x1, fx = _bilinear_taps(cw, out_size)
    # Weights repeated over channels keep the innermost loops long.
    fx = np.repeat(fx[:, None, :, None], 3, axis=3)
    gx = 1 - fx
    fy = fy[:, :, None, None]
    first_row = (image * h + top)[:, None]
    c0, c1 = ((left[:, None] + x)[:, None, :] for x in (x0, x1))

    def tap_row(y):
        r = ((first_row + y) * w)[:, :, None]
        p = np.take(flat, r + c0, axis=0)
        p *= gx
        q = np.take(flat, r + c1, axis=0)
        q *= fx
        p += q
        return p

    out = tap_row(y0)
    out *= 1 - fy
    bottom = tap_row(y1)
    bottom *= fy
    out += bottom
    return out


def _rgb_to_hsv(rgb: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hue, saturation and value planes of contiguous RGB planes (3, ...).

    ``rgb`` is overwritten: its planes end as scratch.  Hue follows the
    first of r, g, b that equals the max.  Divisions by zero are never
    evaluated: s is 0 where the max is 0, and the span divides as 1 where
    it is 0.  There all three channels equal the max, so rc = gc = bc =
    +0.0 and the hue comes out +0.0 with no masked write.
    """
    r, g, b = rgb
    val = np.maximum(r, g)
    np.maximum(val, b, out=val)
    span = np.minimum(r, g)
    np.minimum(span, b, out=span)
    np.subtract(val, span, out=span)
    sat = np.zeros_like(val)
    np.divide(span, val, out=sat, where=val > 0)
    span[span == 0.0] = 1.0
    max_r, max_g = val == r, val == g
    for c in rgb:  # r, g, b become rc, gc, bc
        np.subtract(val, c, out=c)
        c /= span
    rc, gc, bc = rgb
    hue = np.add(gc, 4.0, out=span)
    hue -= rc
    np.add(rc, 2.0, out=rc, where=max_g)
    np.subtract(rc, bc, out=hue, where=max_g)
    np.subtract(bc, gc, out=hue, where=max_r)
    hue /= 6.0
    return wrap_unit(hue, rc), sat, val


def _grayscale(x: np.ndarray) -> np.ndarray:
    """Luma of (..., 3) pixels as a (..., 1) column, broadcastable
    against them."""
    return (x @ GRAY_WEIGHTS)[..., None]


def _blur_axis(x: np.ndarray, k: np.ndarray, axis: int) -> np.ndarray:
    """Reflect-padded correlation of (V, h, w, 3) along ``axis`` with
    per-view kernels k (V, K), summed tap by tap from the first."""
    radius = (k.shape[1] - 1) // 2
    n = x.shape[axis]
    pad = [(0, 0)] * 4
    pad[axis] = (radius, radius)
    padded = np.pad(x, pad, mode="reflect")
    lead = (slice(None),) * axis

    def shifted(j):
        return padded[lead + (slice(j, j + n),)] * k[:, j, None, None, None]

    out = shifted(0)
    for j in range(1, k.shape[1]):
        out += shifted(j)
    return out


def _gaussian_blur(x: np.ndarray, sigma: np.ndarray, radius: int) -> np.ndarray:
    """Separable blur of (V, h, w, 3) views, one sigma (V,) per view, all
    with the same kernel radius."""
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (t / sigma[:, None]) ** 2)
    k /= k.sum(axis=1, keepdims=True)
    return _blur_axis(_blur_axis(x, k, 1), k, 2)


def _scale_about(x: np.ndarray, mid, factor) -> None:
    """x <- clip((x - mid) * factor + mid, 0, 1), in place."""
    x -= mid
    x *= factor
    x += mid
    np.clip(x, 0.0, 1.0, out=x)


def _shift_hue(views: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """HSV round trip of unit-float views (V, h, w, 3) with the hue moved
    by shift (V, 1, 1), clipped to [0, 1]; returned channel-last.

    The round trip runs on one contiguous (3, V, h, w) copy, so every
    step works on stride-1 planes, and the result is written into that
    copy.
    """
    rgb = np.moveaxis(views, -1, 0).copy()
    hue, sat, val = _rgb_to_hsv(rgb)
    hue += shift
    wrap_unit(hue, rgb[0])
    out = np.moveaxis(rgb, 0, -1)
    hsv_to_rgb(hue, sat, val, out=out)
    return np.clip(out, 0.0, 1.0, out=out)


def _apply_where(x: np.ndarray, mask: np.ndarray, fn) -> None:
    """x[rows] = fn(x[rows], rows) for the views where ``mask`` holds."""
    if mask.any():
        rows = slice(None) if mask.all() else np.flatnonzero(mask)
        x[rows] = fn(x[rows], rows)


def _photometric(views: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Color jitter -> grayscale -> Gaussian blur -> flip on uint8 views
    (V, h, w, 3), view v with the draw row draws[v] (see
    `_draw_transforms`); returns unit floats of that shape.

    Jitter scales brightness, contrast and saturation in that order,
    then shifts hue where the draw is nonzero.
    """
    fb, fc, fs, fh, gray, sigma, flip = draws.T
    x = views.astype(np.float64)
    x /= 255.0
    x *= fb[:, None, None, None]
    np.clip(x, 0.0, 1.0, out=x)
    # The mean runs over the luma repeated per channel, as a (V, h, w, 3)
    # gray image; its pairwise sum differs from the (V, h, w) column's.
    mean = np.repeat(_grayscale(x), 3, axis=-1).reshape(len(x), -1).mean(axis=1)
    _scale_about(x, mean[:, None, None, None], fc[:, None, None, None])
    _scale_about(x, _grayscale(x), fs[:, None, None, None])
    _apply_where(x, fh != 0.0, lambda v, rows: _shift_hue(v, fh[rows, None, None]))
    _apply_where(x, gray != 0.0, lambda v, rows: _grayscale(v))
    # Blur runs once per kernel radius ceil(2 sigma), which is 0 exactly
    # where sigma is 0: no blur.
    radius = np.ceil(2.0 * sigma).astype(np.int64)
    for r in np.unique(radius[radius > 0]):
        _apply_where(x, radius == r,
                     lambda v, rows: _gaussian_blur(v, sigma[rows], int(r)))
    _apply_where(x, flip != 0.0, lambda v, rows: v[:, :, ::-1])
    return x


# ---- public entry points ---------------------------------------------------


def augment_batch(images: np.ndarray, cfg: AugmentConfig,
                  rngs: Sequence[np.random.Generator]) -> tuple[np.ndarray, np.ndarray]:
    """Two uint8 view batches (B, S, S, 3), S = out_size, one pair per
    image of the (B, h, w, 3) uint8 batch ``images``.

    Sample i takes all its draws from rngs[i], so its views depend only
    on (images[i], rngs[i]): view 1 from the centered sub-image, view 2
    from the full image (or from the sub-image too when
    center_crop_both is set).  The draws are read from each generator in
    blocks (`_BlockDraws`), so a generator passed in is spent: it may be
    left past doubles that no draw used.  The pixel phase then runs one
    chunk of pairs at a time (`_pairs_per_chunk`), each chunk's images
    divided by 255 alone and its boxes' image column re-based to them,
    into one preallocated (2B, S, S, 3) uint8 array whose even rows are
    the first views and odd rows the second.
    """
    cfg.validate()
    if images.ndim != 4 or images.shape[3] != 3 or images.dtype != np.uint8:
        raise ValueError(f"augment_batch: expected (B, h, w, 3) uint8 images, "
                         f"got {images.shape} {images.dtype}")
    if len(images) != len(rngs):
        raise ValueError(f"augment_batch: {len(images)} images but {len(rngs)} generators")
    h, w = images.shape[1:3]
    inner = center_crop_region(h, w, cfg.p)
    outer = inner if cfg.center_crop_both else CropRegion(0, 0, h, w)
    boxes, draws = [], []
    for i, rng in enumerate(rngs):
        draw = _BlockDraws(rng)
        for src in (inner, outer):
            top, left, ch, cw = _draw_crop(src.crop_h, src.crop_w, cfg, draw)
            boxes.append((i, src.top + top, src.left + left, ch, cw))
        draws += [_draw_transforms(cfg, draw), _draw_transforms(cfg, draw)]
    boxes, draws = np.array(boxes), np.array(draws)
    pairs, size = len(images), cfg.out_size
    views = np.empty((2 * pairs, size, size, 3), dtype=np.uint8)
    step = _pairs_per_chunk(pairs, size)
    for lo in range(0, pairs, step):
        hi = min(lo + step, pairs)
        rows = slice(2 * lo, 2 * hi)
        cropped = _to_uint8(_resample(images[lo:hi] / 255.0, boxes[rows] - (lo, 0, 0, 0, 0),
                                      size))
        views[rows] = _to_uint8(_photometric(cropped, draws[rows]))
    return views[0::2], views[1::2]


def center_suppressed_crop(
    img: np.ndarray, cfg: AugmentConfig, rng: np.random.Generator
) -> tuple[CropRegion, np.ndarray]:
    """Random crop of an (h, w, 3) image with Beta-placed center (see
    `_draw_crop`), resized to out_size x out_size."""
    region = _draw_crop(img.shape[0], img.shape[1], cfg, rng)
    return region, _to_uint8(_resample(img[None] / 255.0, np.array([(0, *region)]),
                                       cfg.out_size))[0]


def apply_transforms(img: np.ndarray, cfg: AugmentConfig,
                     rng: np.random.Generator) -> np.ndarray:
    """Color jitter -> random grayscale -> Gaussian blur -> horizontal flip
    of an (h, w, 3) uint8 image."""
    return _to_uint8(_photometric(img[None], np.array([_draw_transforms(cfg, rng)])))[0]


def augment_pair(img: np.ndarray, cfg: AugmentConfig,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Two views of one (h, w, 3) image: `augment_batch` with a batch of
    one.  All random draws come from `rng`, so equal (seed, image) gives
    equal views.
    """
    v1, v2 = augment_batch(img[None], cfg, [rng])
    return v1[0], v2[0]


def to_unit_float_batch(views: np.ndarray) -> np.ndarray:
    """Views (V, h, w, 3), uint8 or the unrounded 0..255 floats of
    `eval_view`'s resize, to contiguous (V, 3, h, w) float64 scaled by
    1/255: the encoder's input.  The transposed view is copied once, into
    the float64 result, which is then scaled in place."""
    x = views.transpose(0, 3, 1, 2).astype(np.float64, order="C")
    x /= 255.0
    return x


def eval_view(images: np.ndarray, out_size: int) -> np.ndarray:
    """Deterministic evaluation inputs (B, 3, S, S), S = out_size, of a
    (B, h, w, 3) uint8 batch, no randomness: each full image is one box
    of the crop resampler, `_resample`, on its unscaled pixels."""
    b, h, w = images.shape[:3]
    if (h, w) != (out_size, out_size):
        boxes = np.array([(i, 0, 0, h, w) for i in range(b)])
        images = _resample(images.astype(np.float64), boxes, out_size)
    return to_unit_float_batch(images)
