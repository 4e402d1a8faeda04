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
views.  The pixel phase then works on all views of a batch at once:
crop plus resize gathers each bilinear tap of every view in one call,
each photometric step is a broadcast over views (or over the masked
views it applies to), and blur runs once per kernel radius.  Per
element it does the same arithmetic in the same order as a
view-by-view pipeline, so a view's bytes do not depend on the batch it
was made in.  `augment_pair`, `center_suppressed_crop` and
`apply_transforms` are batches of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Image, hsv_to_rgb

GRAY_WEIGHTS = np.array([0.299, 0.587, 0.114])
# Bounds of the log-uniform crop aspect ratio (width / height).
ASPECT_RANGE = (3.0 / 4.0, 4.0 / 3.0)


@dataclass
class CropRegion:
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


@dataclass(frozen=True)
class TransformDraws:
    """The random choices of one view's photometric transforms."""

    fb: float  # brightness scale
    fc: float  # contrast scale
    fs: float  # saturation scale
    fh: float  # hue shift; 0 skips the HSV round trip
    gray: bool
    sigma: float | None  # blur sigma; None means no blur
    flip: bool


def center_crop(img: Image, p: float) -> Image:
    """Centered crop with side ratio p; extents floor(p*h) x floor(p*w).

    The crop center coincides with the image center (up to the fixed
    floor rule); pixels are copied without interpolation.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"center_crop: p must be in (0,1], got {p}")
    r = center_crop_region(img.h, img.w, p)
    return Image(img.pixels[r.top : r.top + r.crop_h, r.left : r.left + r.crop_w].copy())


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


# ---- draw phase ------------------------------------------------------------


def _draw_crop(h: int, w: int, cfg: AugmentConfig, rng: np.random.Generator) -> CropRegion:
    """Random crop of an h x w source with a Beta-placed center.

    Crop area fraction is uniform over [scale_min, scale_max] with
    log-uniform aspect ratio in ASPECT_RANGE; after 10 rejected size
    attempts the crop falls back to the largest centered square.  The crop
    center is placed at Beta(alpha, alpha) draws mapped over the feasible
    center range of each axis.
    """
    area = float(h * w)
    ch = cw = 0
    for _ in range(10):
        target = area * rng.uniform(cfg.scale_min, cfg.scale_max)
        log_lo, log_hi = np.log(ASPECT_RANGE[0]), np.log(ASPECT_RANGE[1])
        ratio = float(np.exp(rng.uniform(log_lo, log_hi)))
        tw = int(round(np.sqrt(target * ratio)))
        th = int(round(np.sqrt(target / ratio)))
        if 1 <= tw <= w and 1 <= th <= h:
            ch, cw = th, tw
            break
    if ch == 0:
        side = min(h, w)
        return CropRegion((h - side) // 2, (w - side) // 2, side, side)
    u = sample_beta(cfg.alpha, rng)
    v = sample_beta(cfg.alpha, rng)
    return CropRegion(int(round(u * (h - ch))), int(round(v * (w - cw))), ch, cw)


def _draw_transforms(cfg: AugmentConfig, rng: np.random.Generator) -> TransformDraws:
    """Jitter scales, then the grayscale, blur (plus sigma) and flip coins.

    Brightness/contrast/saturation scales are uniform in [1-s, 1+s] and
    the hue shift in [-0.1s, 0.1s].  They are drawn even when s == 0, so
    the stream layout does not depend on the strength.
    """
    s = cfg.jitter_strength
    fb = rng.uniform(1.0 - s, 1.0 + s)
    fc = rng.uniform(1.0 - s, 1.0 + s)
    fs = rng.uniform(1.0 - s, 1.0 + s)
    fh = rng.uniform(-0.1 * s, 0.1 * s)
    gray = rng.random() < cfg.grayscale_prob
    sigma = None
    if rng.random() < cfg.blur_prob:
        sigma = rng.uniform(0.1, 2.0)
    flip = rng.random() < cfg.flip_prob
    return TransformDraws(fb, fc, fs, fh, gray, sigma, flip)


# ---- pixel phase -----------------------------------------------------------


def _bilinear_taps(n: np.ndarray, out: int):
    """Source taps (i0, i1, frac), each (V, out), for resizing sizes n (V,) to out."""
    n = np.asarray(n, dtype=np.int64)[:, None]
    pos = np.clip((np.arange(out) + 0.5) * (n / out) - 0.5, 0.0, n - 1.0)
    i0 = np.floor(pos).astype(np.int64)
    return i0, np.minimum(i0 + 1, n - 1), pos - i0


def _bilerp(p00, p01, p10, p11, fy, fx):
    """(p00 (1-fx) + p01 fx) (1-fy) + (p10 (1-fx) + p11 fx) fy, computed in
    place: the four tap arrays are overwritten and p00 is returned."""
    gx = 1 - fx
    p00 *= gx
    p01 *= fx
    p00 += p01
    p10 *= gx
    p11 *= fx
    p10 += p11
    p00 *= 1 - fy
    p10 *= fy
    p00 += p10
    return p00


def resize_bilinear(pixels: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize with half-pixel center alignment, float64 in/out."""
    src = np.asarray(pixels, dtype=np.float64)
    y0, y1, fy = (a[0] for a in _bilinear_taps([src.shape[0]], out_h))
    x0, x1, fx = (a[0] for a in _bilinear_taps([src.shape[1]], out_w))
    return _bilerp(src[y0][:, x0], src[y0][:, x1], src[y1][:, x0], src[y1][:, x1],
                   fy[:, None, None], fx[None, :, None])


def _to_uint8(x: np.ndarray) -> np.ndarray:
    """Unit floats to rounded bytes; overwrites ``x``."""
    x *= 255.0
    np.rint(x, out=x)
    np.clip(x, 0, 255, out=x)
    return x.astype(np.uint8)


def _crop_resize(images: Sequence[np.ndarray], which: Sequence[int],
                 regions: Sequence[CropRegion], out_size: int) -> np.ndarray:
    """uint8 views (V, S, S, 3): view v is regions[v] of images[which[v]],
    bilinear-resized to S = out_size.

    Images are (h, w, 3) uint8 and may differ in size.  Each bilinear tap
    of every view is one gather from the concatenated pixels.
    """
    unit = np.concatenate([im.reshape(-1, 3) for im in images]).astype(np.float64)
    unit /= 255.0
    which = np.asarray(which, dtype=np.int64)
    starts = np.cumsum([0] + [im.shape[0] * im.shape[1] for im in images])[which]
    width = np.array([im.shape[1] for im in images], dtype=np.int64)[which]
    top, left, ch, cw = (np.array(col, dtype=np.int64) for col in
                         zip(*[(r.top, r.left, r.crop_h, r.crop_w) for r in regions]))
    y0, y1, fy = _bilinear_taps(ch, out_size)
    x0, x1, fx = _bilinear_taps(cw, out_size)
    rows = [(starts[:, None] + (top[:, None] + y) * width[:, None])[:, :, None]
            for y in (y0, y1)]
    cols = [(left[:, None] + x)[:, None, :] for x in (x0, x1)]
    taps = [np.take(unit, r + c, axis=0) for r in rows for c in cols]
    # Weights repeated over channels keep the innermost loops long.
    fx = np.repeat(fx[:, None, :, None], 3, axis=3)
    return _to_uint8(_bilerp(*taps, fy[:, :, None, None], fx))


def _rgb_to_hsv(rgb: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    maxc = np.maximum(np.maximum(r, g), b)
    minc = np.minimum(np.minimum(r, g), b)
    span = maxc - minc
    lit = maxc > 0
    s = np.where(lit, span / np.where(lit, maxc, 1.0), 0.0)
    chroma = span > 0
    safe = np.where(chroma, span, 1.0)
    rc = (maxc - r) / safe
    gc = (maxc - g) / safe
    bc = (maxc - b) / safe
    hue = np.where(maxc == r, bc - gc, np.where(maxc == g, 2.0 + rc - bc, 4.0 + gc - rc))
    hue = np.where(chroma, (hue / 6.0) % 1.0, 0.0)
    return hue, s, maxc


def _grayscale(x: np.ndarray) -> np.ndarray:
    g = x @ GRAY_WEIGHTS
    return np.repeat(g[..., None], 3, axis=-1)


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


def _shift_hue(rgb: np.ndarray, shift: np.ndarray) -> np.ndarray:
    hue, sat, val = _rgb_to_hsv(rgb)
    hue += shift
    hue %= 1.0
    return np.clip(hsv_to_rgb(hue, sat, val), 0.0, 1.0)


def _apply_where(x: np.ndarray, mask: np.ndarray, fn) -> None:
    """x[rows] = fn(x[rows], rows) for the views where ``mask`` holds."""
    if mask.any():
        rows = slice(None) if mask.all() else np.flatnonzero(mask)
        x[rows] = fn(x[rows], rows)


def _photometric(views: np.ndarray, draws: Sequence[TransformDraws]) -> np.ndarray:
    """Color jitter -> grayscale -> Gaussian blur -> flip on uint8 views
    (V, h, w, 3), view v with draws[v]; returns unit floats of that shape.

    Jitter scales brightness, contrast and saturation in that order,
    then shifts hue where the draw is nonzero.
    """
    n = len(draws)
    fb, fc, fs, fh = (np.array([getattr(d, k) for d in draws])[:, None, None, None]
                      for k in ("fb", "fc", "fs", "fh"))
    x = views.astype(np.float64)
    x /= 255.0
    x *= fb
    np.clip(x, 0.0, 1.0, out=x)
    _scale_about(x, _grayscale(x).reshape(n, -1).mean(axis=1)[:, None, None, None], fc)
    _scale_about(x, _grayscale(x), fs)
    _apply_where(x, fh[:, 0, 0, 0] != 0.0, lambda v, rows: _shift_hue(v, fh[rows, :, :, 0]))
    _apply_where(x, np.array([d.gray for d in draws]), lambda v, rows: _grayscale(v))
    # Blur runs once per kernel radius max(1, ceil(2 sigma)); 0 means no blur.
    sigma = np.array([0.0 if d.sigma is None else d.sigma for d in draws])
    radius = np.array([0 if d.sigma is None else max(1, int(np.ceil(2.0 * d.sigma)))
                       for d in draws])
    for r in np.unique(radius[radius > 0]):
        _apply_where(x, radius == r,
                     lambda v, rows: _gaussian_blur(v, sigma[rows], int(r)))
    _apply_where(x, np.array([d.flip for d in draws]), lambda v, rows: v[:, :, ::-1])
    return x


# ---- public entry points ---------------------------------------------------


def augment_batch(images: Sequence[Image], cfg: AugmentConfig,
                  rngs: Sequence[np.random.Generator]) -> tuple[np.ndarray, np.ndarray]:
    """Two uint8 view batches (B, S, S, 3), S = out_size, one pair per image.

    Sample i takes all its draws from rngs[i], so its views depend only
    on (images[i], rngs[i]): view 1 from the centered sub-image, view 2
    from the full image (or from the sub-image too when
    center_crop_both is set).
    """
    cfg.validate()
    if len(images) != len(rngs):
        raise ValueError(f"augment_batch: {len(images)} images but {len(rngs)} generators")
    regions, draws = [], []
    for img, rng in zip(images, rngs):
        inner = center_crop_region(img.h, img.w, cfg.p)
        outer = inner if cfg.center_crop_both else CropRegion(0, 0, img.h, img.w)
        for src in (inner, outer):
            r = _draw_crop(src.crop_h, src.crop_w, cfg, rng)
            regions.append(CropRegion(src.top + r.top, src.left + r.left, r.crop_h, r.crop_w))
        draws += [_draw_transforms(cfg, rng), _draw_transforms(cfg, rng)]
    b = len(images)
    cropped = _crop_resize([img.pixels for img in images], np.repeat(np.arange(b), 2),
                          regions, cfg.out_size)
    views = _to_uint8(_photometric(cropped, draws))
    return views[0::2], views[1::2]


def center_suppressed_crop(
    img: Image, cfg: AugmentConfig, rng: np.random.Generator
) -> tuple[CropRegion, Image]:
    """Random crop with Beta-placed center (see `_draw_crop`), resized to
    out_size x out_size."""
    region = _draw_crop(img.h, img.w, cfg, rng)
    return region, Image(_crop_resize([img.pixels], [0], [region], cfg.out_size)[0])


def apply_transforms(img: Image, cfg: AugmentConfig, rng: np.random.Generator) -> Image:
    """Color jitter -> random grayscale -> Gaussian blur -> horizontal flip."""
    return Image(_to_uint8(_photometric(img.pixels[None], [_draw_transforms(cfg, rng)]))[0])


def augment_pair(img: Image, cfg: AugmentConfig, rng: np.random.Generator) -> tuple[Image, Image]:
    """Two views of one image: `augment_batch` with a batch of one.
    All random draws come from `rng`, so equal (seed, image) gives equal
    views.
    """
    v1, v2 = augment_batch([img], cfg, [rng])
    return Image(v1[0]), Image(v2[0])


def to_unit_float_batch(views: np.ndarray) -> np.ndarray:
    """uint8 views (V, h, w, 3) to contiguous (V, 3, h, w) float64 in [0, 1]."""
    x = np.ascontiguousarray(views.transpose(0, 3, 1, 2)).astype(np.float64)
    x /= 255.0
    return x


def to_unit_float(img: Image) -> np.ndarray:
    """Image to CHW float64 in [0, 1], the encoder's input layout."""
    return to_unit_float_batch(img.pixels[None])[0]


def eval_view(img: Image, out_size: int) -> np.ndarray:
    """Deterministic evaluation input: full image resized, no randomness."""
    if img.h == out_size and img.w == out_size:
        return to_unit_float(img)
    resized = resize_bilinear(img.pixels.astype(np.float64), out_size, out_size)
    return resized.transpose(2, 0, 1) / 255.0
