"""Crop geometry, Beta crop-center sampling, and the two-view pipeline."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hcl.augment
from hcl.augment import (
    AugmentConfig,
    _draw_crop,
    _draw_transforms,
    _photometric,
    _resample,
    _shift_hue,
    CropRegion,
    apply_transforms,
    augment_batch,
    augment_pair,
    center_crop,
    center_crop_region,
    center_suppressed_crop,
    eval_view,
    sample_beta,
    to_unit_float_batch,
)
from hcl.data import make_synthetic_records
from hcl.rng import substream

# Two-sided tail mass P(X<0.1 or X>0.9) of Beta(0.6, 0.6); quadrature of
# the density after the substitution x = t^(1/alpha), cross-checked
# against an independent statistics library.
BETA06_TAIL_01 = 0.3520945086920757


def _rand_image(rng, h=32, w=32):
    return rng.integers(0, 256, (h, w, 3), dtype=np.uint8)


@pytest.fixture
def square_crops(monkeypatch):
    """Pin the crop aspect ratio to 1."""
    monkeypatch.setattr(hcl.augment, "LOG_ASPECT_RANGE", (0.0, 0.0))


class TestCenterCrop:
    def test_half_crop_of_32_is_rows_8_to_23(self):
        rng = np.random.default_rng(0)
        img = _rand_image(rng)
        out = center_crop(img, 0.5)
        assert out.shape == (16, 16, 3)
        assert np.array_equal(out, img[8:24, 8:24])

    def test_p_one_is_identity(self):
        rng = np.random.default_rng(1)
        img = _rand_image(rng)
        out = center_crop(img, 1.0)
        assert np.array_equal(out, img)

    def test_center_preserved_within_one_pixel(self):
        for h, w in ((32, 32), (31, 17), (9, 40)):
            for p in (0.3, 0.5, 0.77, 0.99):
                reg = center_crop_region(h, w, p)
                cy, cx = reg.center()
                assert abs(cy - (h - 1) / 2) <= 1.0, (h, w, p)
                assert abs(cx - (w - 1) / 2) <= 1.0, (h, w, p)

    def test_rejects_bad_ratio(self):
        img = _rand_image(np.random.default_rng(2))
        with pytest.raises(ValueError, match="p must be"):
            center_crop(img, 0.0)
        with pytest.raises(ValueError, match="p must be"):
            center_crop(img, 1.5)

    def test_rejects_empty_result(self):
        img = _rand_image(np.random.default_rng(3), h=4, w=4)
        with pytest.raises(ValueError, match="empty"):
            center_crop(img, 0.1)


class TestSampleBeta:
    def test_mean_is_half(self):
        rng = np.random.default_rng(7)
        draws = np.array([sample_beta(0.6, rng) for _ in range(100_000)])
        assert abs(draws.mean() - 0.5) < 0.01

    def test_tail_mass_matches_oracle(self):
        rng = np.random.default_rng(8)
        draws = np.array([sample_beta(0.6, rng) for _ in range(100_000)])
        tail = float(np.mean((draws < 0.1) | (draws > 0.9)))
        assert abs(tail - BETA06_TAIL_01) < 0.01

    def test_variance_exceeds_uniform(self):
        # Var Beta(a,a) = 1/(4(2a+1)) > 1/12 for a < 1.
        rng = np.random.default_rng(9)
        draws = np.array([sample_beta(0.6, rng) for _ in range(10_000)])
        uniform = rng.random(10_000)
        assert draws.var() > uniform.var()
        assert abs(draws.var() - 1 / 8.8) < 0.01

    @pytest.mark.parametrize("alpha", [1e-7, 1e-12, 1e-300, 5e-324])
    def test_tiny_alpha_draws_terminate_near_zero_or_one(self, alpha):
        # u ** (1 / alpha) underflows to 0 for every u < 1 here; Beta(a, a)
        # tends to a fair coin on {0, 1} as a -> 0.
        rng = np.random.default_rng(11)
        draws = np.array([sample_beta(alpha, rng) for _ in range(2000)])
        assert ((draws >= 0.0) & (draws <= 1.0)).all()
        assert np.mean((draws < 1e-3) | (draws > 1 - 1e-3)) > 0.99
        assert abs(np.mean(draws > 0.5) - 0.5) < 0.05

    def test_rejects_alpha_outside_open_interval(self):
        rng = np.random.default_rng(10)
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError, match="alpha"):
                sample_beta(bad, rng)


def _whole(images):
    """`_resample` boxes that cover every image of a batch."""
    return np.array([(i, 0, 0, *images.shape[1:3]) for i in range(len(images))])


class TestResizeBilinear:
    def test_same_size_is_identity(self):
        rng = np.random.default_rng(11)
        src = rng.random((2, 5, 7, 3))
        assert np.array_equal(_resample(src, _whole(src[:, :, :5]), 5), src[:, :, :5])
        # A same-size box anywhere in a non-square source copies its pixels.
        box = np.array([(1, 0, 2, 5, 5)])
        assert np.array_equal(_resample(src, box, 5)[0], src[1, :, 2:7])

    def test_half_pixel_upscale_values(self):
        src = np.repeat(np.array([[0.0, 1.0], [2.0, 3.0]])[None, :, :, None], 3, axis=3)
        out = _resample(src, _whole(src), 4)[0]
        r0 = np.array([0.0, 0.25, 0.75, 1.0])
        expected = np.stack([r0, r0 + 0.5, r0 + 1.5, r0 + 2.0])
        for c in range(3):
            np.testing.assert_allclose(out[:, :, c], expected, atol=1e-12)
        assert np.array_equal(out, _ref_resize_bilinear(src[0], 4, 4))


class TestCenterSuppressedCrop:
    def test_degenerate_scale_covers_whole_image(self, square_crops):
        cfg = AugmentConfig(scale_min=1.0, scale_max=1.0, out_size=16)
        img = _rand_image(np.random.default_rng(12))
        for seed in range(5):
            region, out = center_suppressed_crop(img, cfg, np.random.default_rng(seed))
            assert (region.top, region.left, region.crop_h, region.crop_w) == (0, 0, 32, 32)
            assert out.shape == (16, 16, 3)

    def test_region_always_inside_image(self):
        cfg = AugmentConfig(out_size=8)
        img = _rand_image(np.random.default_rng(13), h=24, w=40)
        rng = np.random.default_rng(14)
        for _ in range(300):
            region, out = center_suppressed_crop(img, cfg, rng)
            assert 0 <= region.top and region.top + region.crop_h <= 24
            assert 0 <= region.left and region.left + region.crop_w <= 40
            assert region.crop_h >= 1 and region.crop_w >= 1
            assert out.shape == (8, 8, 3)

    def test_beta_centers_sit_farther_out_than_uniform(self, square_crops):
        # Monte-Carlo comparison against a uniform-placement oracle at
        # fixed crop size (scale 0.25 of a 32x32 image).
        cfg = AugmentConfig(alpha=0.6, scale_min=0.25, scale_max=0.25, out_size=8)
        img = _rand_image(np.random.default_rng(15))
        mid = (32 - 1) / 2.0
        rng = np.random.default_rng(16)
        beta_d = []
        for _ in range(10_000):
            region, _ = center_suppressed_crop(img, cfg, rng)
            cy, cx = region.center()
            beta_d.append(np.hypot(cy - mid, cx - mid))
        uni = np.random.default_rng(17)
        uni_d = []
        for _ in range(10_000):
            ch = cw = 16
            top = int(round(uni.random() * (32 - ch)))
            left = int(round(uni.random() * (32 - cw)))
            cy, cx = CropRegion(top, left, ch, cw).center()
            uni_d.append(np.hypot(cy - mid, cx - mid))
        assert np.mean(beta_d) > np.mean(uni_d)


class TestAugmentPair:
    def test_all_randomness_off_reproduces_input(self, square_crops):
        cfg = AugmentConfig(
            p=1.0,
            scale_min=1.0,
            scale_max=1.0,
            out_size=32,
            jitter_strength=0.0,
            grayscale_prob=0.0,
            flip_prob=0.0,
            blur_prob=0.0,
        )
        img = _rand_image(np.random.default_rng(18))
        x1, x2 = augment_pair(img, cfg, np.random.default_rng(19))
        assert np.array_equal(x1, img)
        assert np.array_equal(x2, img)

    def test_same_seed_same_views(self):
        cfg = AugmentConfig(out_size=16)
        img = _rand_image(np.random.default_rng(20))
        a1, a2 = augment_pair(img, cfg, np.random.default_rng(99))
        b1, b2 = augment_pair(img, cfg, np.random.default_rng(99))
        assert np.array_equal(a1, b1)
        assert np.array_equal(a2, b2)

    def test_view1_source_confined_to_central_half(self):
        # With p=0.5 the view-1 source is rows/cols 8..23 of the
        # original; any sub-crop of it stays inside that square.
        cfg = AugmentConfig(p=0.5, out_size=8)
        img = _rand_image(np.random.default_rng(21))
        inner = center_crop(img, 0.5)
        rng = np.random.default_rng(22)
        for _ in range(200):
            region, _ = center_suppressed_crop(inner, cfg, rng)
            top_global = 8 + region.top
            left_global = 8 + region.left
            assert 8 <= top_global and top_global + region.crop_h <= 24
            assert 8 <= left_global and left_global + region.crop_w <= 24

    def test_output_size_postcondition(self):
        cfg = AugmentConfig(out_size=20)
        img = _rand_image(np.random.default_rng(23))
        x1, x2 = augment_pair(img, cfg, np.random.default_rng(24))
        assert x1.shape == (20, 20, 3)
        assert x2.shape == (20, 20, 3)

    def test_config_validation_messages(self):
        with pytest.raises(ValueError, match="alpha"):
            AugmentConfig(alpha=1.0).validate()
        with pytest.raises(ValueError, match="augment.scale_min"):
            AugmentConfig(scale_min=0.0).validate()
        with pytest.raises(ValueError, match="augment.scale_min/scale_max"):
            AugmentConfig(scale_min=0.5, scale_max=0.4).validate()
        with pytest.raises(ValueError, match=r"augment.out_size must be >= 4"):
            AugmentConfig(out_size=3).validate()
        with pytest.raises(ValueError, match="flip_prob"):
            AugmentConfig(flip_prob=1.5).validate()


class TestPhotometric:
    def test_forced_grayscale_equalizes_channels(self):
        cfg = AugmentConfig(
            jitter_strength=0.0, grayscale_prob=1.0, flip_prob=0.0, blur_prob=0.0
        )
        img = _rand_image(np.random.default_rng(25))
        out = apply_transforms(img, cfg, np.random.default_rng(26))
        px = out.astype(np.int64)
        assert np.abs(px[:, :, 0] - px[:, :, 1]).max() <= 1
        assert np.abs(px[:, :, 1] - px[:, :, 2]).max() <= 1

    def test_forced_flip_mirrors(self):
        cfg = AugmentConfig(
            jitter_strength=0.0, grayscale_prob=0.0, flip_prob=1.0, blur_prob=0.0
        )
        img = _rand_image(np.random.default_rng(27))
        out = apply_transforms(img, cfg, np.random.default_rng(28))
        assert np.array_equal(out, img[:, ::-1])

    def test_forced_blur_reduces_variance(self):
        cfg = AugmentConfig(
            jitter_strength=0.0, grayscale_prob=0.0, flip_prob=0.0, blur_prob=1.0
        )
        img = _rand_image(np.random.default_rng(29))
        out = apply_transforms(img, cfg, np.random.default_rng(30))
        assert out.astype(float).var() < img.astype(float).var()


class TestEncoderViews:
    def test_to_unit_float_layout(self):
        img = _rand_image(np.random.default_rng(31), h=8, w=6)
        x = to_unit_float_batch(img[None])[0]
        assert x.shape == (3, 8, 6)
        assert x.min() >= 0.0 and x.max() <= 1.0
        np.testing.assert_allclose(x[1, 2, 3], img[2, 3, 1] / 255.0)

    def test_eval_view_passthrough_and_resize(self):
        rng = np.random.default_rng(32)
        images = np.stack([_rand_image(rng, h=16, w=16) for _ in range(3)])
        same = eval_view(images, 16)
        np.testing.assert_array_equal(same, to_unit_float_batch(images))
        smaller = eval_view(images, 8)
        assert smaller.shape == (3, 3, 8, 8)
        for view, img in zip(smaller, images):
            ref = _ref_resize_bilinear(img, 8, 8).transpose(2, 0, 1) / 255.0
            assert np.array_equal(view, ref)


# ---- the per-image pipeline that the batched one replaced, as an oracle ----

_GRAY_WEIGHTS = np.array([0.299, 0.587, 0.114])


def _ref_center_crop(img, p):
    h, w = img.shape[:2]
    ch, cw = int(np.floor(p * h)), int(np.floor(p * w))
    top, left = (h - ch) // 2, (w - cw) // 2
    return img[top : top + ch, left : left + cw].copy()


def _ref_resize_bilinear(pixels, out_h, out_w):
    src = np.asarray(pixels, dtype=np.float64)
    h, w = src.shape[:2]
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    ys = np.clip(ys, 0.0, h - 1.0)
    xs = np.clip(xs, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[:, None, None]
    fx = (xs - x0)[None, :, None]
    top = src[y0][:, x0] * (1 - fx) + src[y0][:, x1] * fx
    bot = src[y1][:, x0] * (1 - fx) + src[y1][:, x1] * fx
    return top * (1 - fy) + bot * fy


def _ref_center_suppressed_crop(img, cfg, rng):
    h, w = img.shape[:2]
    area = float(h * w)
    ch = cw = 0
    for _ in range(10):
        target = area * rng.uniform(cfg.scale_min, cfg.scale_max)
        log_lo, log_hi = hcl.augment.LOG_ASPECT_RANGE
        ratio = float(np.exp(rng.uniform(log_lo, log_hi)))
        tw = int(round(np.sqrt(target * ratio)))
        th = int(round(np.sqrt(target / ratio)))
        if 1 <= tw <= w and 1 <= th <= h:
            ch, cw = th, tw
            break
    if ch == 0:
        side = min(h, w)
        region = CropRegion((h - side) // 2, (w - side) // 2, side, side)
    else:
        u = sample_beta(cfg.alpha, rng)
        v = sample_beta(cfg.alpha, rng)
        top = int(round(u * (h - ch)))
        left = int(round(v * (w - cw)))
        region = CropRegion(top, left, ch, cw)

    patch = img[
        region.top : region.top + region.crop_h, region.left : region.left + region.crop_w
    ]
    resized = _ref_resize_bilinear(patch.astype(np.float64) / 255.0, cfg.out_size, cfg.out_size)
    out = np.clip(np.rint(resized * 255.0), 0, 255).astype(np.uint8)
    return region, out


def _ref_rgb_to_hsv(rgb):
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    maxc = rgb.max(axis=-1)
    minc = rgb.min(axis=-1)
    v = maxc
    span = maxc - minc
    s = np.where(maxc > 0, span / np.where(maxc > 0, maxc, 1.0), 0.0)
    safe = np.where(span > 0, span, 1.0)
    rc = (maxc - r) / safe
    gc = (maxc - g) / safe
    bc = (maxc - b) / safe
    hue = np.where(maxc == r, bc - gc, np.where(maxc == g, 2.0 + rc - bc, 4.0 + gc - rc))
    hue = np.where(span > 0, (hue / 6.0) % 1.0, 0.0)
    return np.stack([hue, s, v], axis=-1)


def _ref_hsv_to_rgb(hsv):
    hue, s, v = hsv[..., 0], hsv[..., 1], hsv[..., 2]
    h6 = (hue % 1.0) * 6.0
    i = np.floor(h6).astype(np.int64) % 6
    f = h6 - np.floor(h6)
    p = v * (1 - s)
    q = v * (1 - s * f)
    t = v * (1 - s * (1 - f))
    choices = np.stack(
        [
            np.stack([v, t, p], axis=-1),
            np.stack([q, v, p], axis=-1),
            np.stack([p, v, t], axis=-1),
            np.stack([p, q, v], axis=-1),
            np.stack([t, p, v], axis=-1),
            np.stack([v, p, q], axis=-1),
        ],
        axis=0,
    )
    return np.take_along_axis(choices, i[None, ..., None], axis=0)[0]


def _ref_grayscale(x):
    g = x @ _GRAY_WEIGHTS
    return np.repeat(g[..., None], 3, axis=-1)


def _ref_gaussian_blur(x, sigma):
    radius = max(1, int(np.ceil(2.0 * sigma)))
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (t / sigma) ** 2)
    k /= k.sum()
    padded = np.pad(x, ((radius, radius), (0, 0), (0, 0)), mode="reflect")
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * radius + 1, axis=0)
    x = np.einsum("hwck,k->hwc", windows, k)
    padded = np.pad(x, ((0, 0), (radius, radius), (0, 0)), mode="reflect")
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * radius + 1, axis=1)
    return np.einsum("hwck,k->hwc", windows, k)


def _ref_color_jitter(x, s, rng):
    fb = rng.uniform(1.0 - s, 1.0 + s)
    fc = rng.uniform(1.0 - s, 1.0 + s)
    fs = rng.uniform(1.0 - s, 1.0 + s)
    fh = rng.uniform(-0.1 * s, 0.1 * s)
    x = np.clip(x * fb, 0.0, 1.0)
    m = _ref_grayscale(x).mean()
    x = np.clip((x - m) * fc + m, 0.0, 1.0)
    g = _ref_grayscale(x)
    x = np.clip((x - g) * fs + g, 0.0, 1.0)
    if fh != 0.0:
        hsv = _ref_rgb_to_hsv(x)
        hsv[..., 0] = (hsv[..., 0] + fh) % 1.0
        x = np.clip(_ref_hsv_to_rgb(hsv), 0.0, 1.0)
    return x


def _ref_transform_floats(img, cfg, rng):
    x = img.astype(np.float64) / 255.0
    x = _ref_color_jitter(x, cfg.jitter_strength, rng)
    if rng.random() < cfg.grayscale_prob:
        x = _ref_grayscale(x)
    if rng.random() < cfg.blur_prob:
        x = _ref_gaussian_blur(x, rng.uniform(0.1, 2.0))
    if rng.random() < cfg.flip_prob:
        x = x[:, ::-1]
    return x


def _ref_apply_transforms(img, cfg, rng):
    x = _ref_transform_floats(img, cfg, rng)
    return np.clip(np.rint(x * 255.0), 0, 255).astype(np.uint8)


def _ref_augment_pair(img, cfg, rng):
    src1 = _ref_center_crop(img, cfg.p)
    src2 = _ref_center_crop(img, cfg.p) if cfg.center_crop_both else img
    _, v1 = _ref_center_suppressed_crop(src1, cfg, rng)
    _, v2 = _ref_center_suppressed_crop(src2, cfg, rng)
    return _ref_apply_transforms(v1, cfg, rng), _ref_apply_transforms(v2, cfg, rng)


def _assert_batch_matches_reference(images, cfg, seed):
    rngs = [substream(seed, "augment", 0, i) for i in range(len(images))]
    v1, v2 = augment_batch(images, cfg, rngs)
    assert v1.shape == v2.shape == (len(images), cfg.out_size, cfg.out_size, 3)
    for i, img in enumerate(images):
        r1, r2 = _ref_augment_pair(img, cfg, substream(seed, "augment", 0, i))
        assert np.array_equal(v1[i], r1), (seed, i, "view 1")
        assert np.array_equal(v2[i], r2), (seed, i, "view 2")


class TestBatchedPipelineOracle:
    """Batched views against the per-image pipeline, byte for byte."""

    @pytest.mark.parametrize("out_size", [8, 16, 32])
    @pytest.mark.parametrize("center_crop_both", [False, True])
    @pytest.mark.parametrize("batch", [1, 5, 64])
    def test_default_config(self, out_size, center_crop_both, batch):
        cfg = AugmentConfig(out_size=out_size, center_crop_both=center_crop_both)
        for seed in range(3 if batch < 64 else 1):
            rng = np.random.default_rng(1000 * batch + out_size + seed)
            images = np.stack([_rand_image(rng) for _ in range(batch)])
            _assert_batch_matches_reference(images, cfg, seed + 100 * out_size)

    @pytest.mark.parametrize("overrides", [
        {"grayscale_prob": 1.0},
        {"blur_prob": 1.0},
        {"flip_prob": 1.0},
        {"jitter_strength": 0.0},  # fh == 0: the hue step is skipped
        # every size attempt fails: fallback crop
        {"LOG_ASPECT_RANGE": (np.log(10.0), np.log(20.0))},
        {"grayscale_prob": 1.0, "blur_prob": 1.0, "flip_prob": 1.0, "p": 1.0},
    ])
    def test_forced_branches(self, overrides, monkeypatch):
        overrides = dict(overrides)
        if "LOG_ASPECT_RANGE" in overrides:
            monkeypatch.setattr(hcl.augment, "LOG_ASPECT_RANGE", overrides.pop("LOG_ASPECT_RANGE"))
        cfg = AugmentConfig(out_size=16, **overrides)
        for seed in range(6):
            rng = np.random.default_rng(seed)
            images = np.stack([_rand_image(rng) for _ in range(5)])
            _assert_batch_matches_reference(images, cfg, seed)

    @pytest.mark.parametrize("h, w", [(24, 40), (9, 17), (40, 12)])
    def test_non_square_images(self, h, w):
        cfg = AugmentConfig(out_size=8, blur_prob=1.0)
        rng = np.random.default_rng(40)
        images = np.stack([_rand_image(rng, h, w) for _ in range(4)])
        for seed in range(4):
            _assert_batch_matches_reference(images, cfg, seed)

    @pytest.mark.parametrize("overrides", [
        {}, {"blur_prob": 1.0, "grayscale_prob": 0.0}, {"jitter_strength": 1.0},
    ])
    def test_photometric_floats_match_before_rounding(self, overrides):
        # uint8 rounding hides last-bit differences; the unit floats do not.
        cfg = AugmentConfig(**overrides)
        rng = np.random.default_rng(44)
        images = np.stack([_rand_image(rng, 16, 16) for _ in range(24)])
        draws = np.array([_draw_transforms(cfg, substream(7, "t", i)) for i in range(24)])
        assert draws.shape == (24, 7)
        got = _photometric(images, draws)
        for i, img in enumerate(images):
            ref = _ref_transform_floats(img, cfg, substream(7, "t", i))
            assert np.array_equal(got[i], ref), i

    def test_resize_floats_match(self):
        rng = np.random.default_rng(45)
        for h, w, size in ((32, 32, 16), (7, 19, 32), (24, 40, 8), (5, 5, 5)):
            src = rng.random((3, h, w, 3))
            got = _resample(src, _whole(src), size)
            for view, img in zip(got, src):
                assert np.array_equal(view, _ref_resize_bilinear(img, size, size)), (h, w)
            # Crops of several sizes and places from one batch, in one call.
            boxes = np.array([(2, 1, 3, h - 1, w - 3), (0, 0, 0, 1, 1),
                              (1, h // 2, w // 3, h - h // 2, w // 3)])
            got = _resample(src, boxes, size)
            for view, (i, top, left, ch, cw) in zip(got, boxes):
                patch = src[i, top : top + ch, left : left + cw]
                assert np.array_equal(view, _ref_resize_bilinear(patch, size, size)), (h, w)
            # Evaluation resizes take the unscaled pixels of uint8 images.
            images = np.stack([_rand_image(rng, h, w) for _ in range(2)])
            for view, img in zip(eval_view(images, size), images):
                ref = _ref_resize_bilinear(img, size, size).transpose(2, 0, 1) / 255.0
                assert np.array_equal(view, ref), (h, w)

    def test_fallback_crop_is_centered_square(self, monkeypatch):
        monkeypatch.setattr(hcl.augment, "LOG_ASPECT_RANGE", (np.log(10.0), np.log(20.0)))
        cfg = AugmentConfig(out_size=8)
        img = _rand_image(np.random.default_rng(41), h=24, w=40)
        region, _ = center_suppressed_crop(img, cfg, np.random.default_rng(42))
        assert (region.top, region.left, region.crop_h, region.crop_w) == (0, 8, 24, 24)

    def test_rejects_generator_count_mismatch(self):
        img = _rand_image(np.random.default_rng(43))
        with pytest.raises(ValueError, match="generators"):
            augment_batch(np.stack([img, img]), AugmentConfig(), [np.random.default_rng(0)])

    @pytest.mark.parametrize("images", [
        np.zeros((2, 8, 8, 3), dtype=np.float64),
        np.zeros((8, 8, 3), dtype=np.uint8),
        np.zeros((2, 8, 8, 4), dtype=np.uint8),
    ], ids=["float", "unbatched", "four-channel"])
    def test_rejects_malformed_images(self, images):
        rngs = [np.random.default_rng(i) for i in range(len(images))]
        with pytest.raises(ValueError, match=r"expected \(B, h, w, 3\) uint8"):
            augment_batch(images, AugmentConfig(), rngs)


class TestBlockDraws:
    """`augment_batch` reads each generator in blocks of doubles; the
    views are those of one generator call per draw, whatever the block."""

    def test_refilled_blocks_match_reference(self, monkeypatch):
        # Every crop attempt rejects: 2 x 10 x 2 crop doubles and at least
        # 2 x 7 transform doubles per sample, so each reads a second block.
        monkeypatch.setattr(hcl.augment, "LOG_ASPECT_RANGE", (np.log(10.0), np.log(20.0)))
        assert 2 * 10 * 2 + 2 * 7 > hcl.augment._DRAW_BLOCK
        cfg = AugmentConfig(out_size=16, scale_min=1.0, scale_max=1.0)
        for seed in range(3):
            rng = np.random.default_rng(50 + seed)
            images = np.stack([_rand_image(rng) for _ in range(8)])
            _assert_batch_matches_reference(images, cfg, seed)

    @pytest.mark.parametrize("block", [1, 7])
    def test_views_do_not_depend_on_block_size(self, block, monkeypatch):
        cfg = AugmentConfig()
        rng = np.random.default_rng(51)
        images = np.stack([_rand_image(rng) for _ in range(64)])

        def views():
            return augment_batch(images, cfg, [substream(3, "augment", 0, i) for i in range(64)])

        want = views()
        monkeypatch.setattr(hcl.augment, "_DRAW_BLOCK", block)
        for a, e in zip(views(), want):
            assert np.array_equal(a, e)


class TestPixelChunks:
    """The pixel phase runs in chunks of pairs whose size follows from
    the views' bytes; whatever the chunks, the views keep their bytes."""

    @staticmethod
    def _views(pairs, out_size):
        images = make_synthetic_records(10, 7, 0)["image"][:pairs]
        if out_size != 32:
            images = images[:, :out_size, :out_size]
        cfg = AugmentConfig(out_size=out_size)
        return augment_batch(images, cfg, [substream(4, "chunks", i) for i in range(pairs)])

    @pytest.mark.parametrize("pairs, out_size", [(64, 32), (32, 16)])
    @pytest.mark.parametrize("chunk", ["one pair", "seven, uneven last", "single"])
    def test_chunks_keep_the_unchunked_bytes(self, pairs, out_size, chunk, monkeypatch):
        monkeypatch.setattr(hcl.augment, "_VIEW_CHUNK_BYTES", 2**62)
        assert hcl.augment._pairs_per_chunk(pairs, out_size) == pairs
        want = self._views(pairs, out_size)
        total = 2 * pairs * out_size * out_size * 3 * 8  # the batch's float64 views
        # 1 + total // budget chunks: ceil(pairs / 7) of them hold 7 pairs
        # and leave a smaller last one; a budget the views fit under is one
        budget, step = {"one pair": (1, 1),
                        "seven, uneven last": (total // (-(-pairs // 7) - 1), 7),
                        "single": (total + 1, pairs)}[chunk]
        monkeypatch.setattr(hcl.augment, "_VIEW_CHUNK_BYTES", budget)
        assert hcl.augment._pairs_per_chunk(pairs, out_size) == step
        assert step != 7 or pairs % step  # a smaller last chunk
        for got, exp in zip(self._views(pairs, out_size), want):
            assert np.array_equal(got, exp)

    @pytest.mark.parametrize("out_size", [16, 32])
    def test_empty_batch_gives_empty_views(self, out_size):
        views = augment_batch(np.zeros((0, 32, 32, 3), np.uint8),
                              AugmentConfig(out_size=out_size), [])
        assert len(views) == 2
        for v in views:
            assert v.shape == (0, out_size, out_size, 3) and v.dtype == np.uint8

    @pytest.mark.parametrize("pairs, out_size, calls", [(32, 16, 1), (64, 32, 4)])
    def test_chunk_count_follows_the_view_bytes(self, pairs, out_size, calls, monkeypatch):
        # quickstart's batch (32 pairs, 16 px) stays one chunk; a desk or
        # eval batch (64 pairs, 32 px) runs as 4 chunks of 16
        sizes = []
        resample = hcl.augment._resample

        def counted(pixels, boxes, size):
            sizes.append(len(pixels))
            return resample(pixels, boxes, size)

        monkeypatch.setattr(hcl.augment, "_resample", counted)
        self._views(pairs, out_size)
        assert sizes == [pairs // calls] * calls


class TestAugmentMemory:
    def test_desk_batch_peak_stays_under_one_and_a_half_taps(self):
        # The pixel phase holds one chunk of 16 pairs (a quarter of the
        # batch's taps) at a time, beside the uint8 views it fills; a whole
        # batch at once peaks near 4 taps.
        tap = 128 * 32 * 32 * 3 * 8
        images = make_synthetic_records(10, 7, 0)["image"][:64]
        cfg = AugmentConfig()
        augment_batch(images, cfg, [substream(0, "peak", i) for i in range(64)])
        tracemalloc.start()
        try:
            augment_batch(images, cfg, [substream(0, "peak", i) for i in range(64)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * tap, peak / tap

    def test_desk_batch_peak_stays_under_four_and_a_half_taps(self):
        # One tap array is one bilinear corner of every view as float64:
        # (128, 32, 32, 3) at the desk shape, ~3.1 MB.  The resampler keeps
        # at most three alive, next to the float source batch (half a tap)
        # and one tap row's gather indices; gathering all four corners
        # before combining them reads ~5 taps.
        tap = 128 * 32 * 32 * 3 * 8
        images = make_synthetic_records(10, 7, 0)["image"][:64]
        cfg = AugmentConfig()
        augment_batch(images, cfg, [substream(0, "peak", i) for i in range(64)])
        tracemalloc.start()
        try:
            augment_batch(images, cfg, [substream(0, "peak", i) for i in range(64)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * tap, peak / tap

    def test_to_unit_float_batch_copies_a_float_batch_once(self):
        # The unrounded floats of `eval_view`'s resize are transposed and
        # scaled with one copy, the result; copying the transposed view
        # before the cast holds two.
        views = np.random.default_rng(0).uniform(0.0, 255.0, (128, 32, 32, 3))
        tracemalloc.start()
        try:
            out = to_unit_float_batch(views)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * out.nbytes, peak / out.nbytes


# ---- the hue round trip on pixels the synthetic data rarely holds ----------

# Channel levels: black, white, a byte level, and unit floats.
_LEVELS = st.one_of(st.sampled_from([0.0, 1.0, 128 / 255]), st.floats(0.0, 1.0))


@st.composite
def _adversarial_pixel(draw):
    """An RGB pixel that ties the channel max (r = g, g = b, r = b,
    r = g = b), has span 0, is black or white, sits just either side of
    hue 0, or is arbitrary."""
    a, b, c = draw(_LEVELS), draw(_LEVELS), draw(_LEVELS)
    hi, lo = max(a, b), min(a, b)
    return draw(st.sampled_from([
        (hi, hi, lo), (lo, hi, hi), (hi, lo, hi), (a, a, a), (0.0, 0.0, 0.0),
        (1.0, 1.0, 1.0), (1.0, 0.0, lo / 64), (1.0, lo / 64, 0.0), (a, b, c),
    ]))


# Shifts that carry hues near 0 across 0 and 1, land on sector edges, or
# leave a tiny negative hue that wraps to 1.0.
_SHIFTS = st.one_of(st.sampled_from([0.04, -0.04, 0.5, -0.5, 1 / 6, -1 / 6,
                                     1 - 2.0**-53, -(2.0**-60), -1e-300]),
                    st.floats(-0.1, 0.1))


class TestShiftHueAdversarial:
    @settings(max_examples=300, deadline=None, database=None)
    @given(views=st.lists(st.lists(_adversarial_pixel(), min_size=6, max_size=6),
                          min_size=1, max_size=4),
           shifts=st.lists(_SHIFTS, min_size=4, max_size=4))
    def test_matches_reference_round_trip_bits(self, views, shifts):
        x = np.array(views).reshape(len(views), 2, 3, 3)
        shift = np.array(shifts[: len(views)])
        # The reference divides only by nonzero spans and maxima; so must
        # the batched round trip.
        with np.errstate(divide="raise", invalid="raise"):
            got = _shift_hue(x, shift[:, None, None])
            for view, fh, out in zip(x, shift, got):
                hsv = _ref_rgb_to_hsv(view)
                hsv[..., 0] = (hsv[..., 0] + fh) % 1.0
                want = np.clip(_ref_hsv_to_rgb(hsv), 0.0, 1.0)
                assert out.tobytes() == want.tobytes(), (view, fh)


# ---- crop geometry as properties -------------------------------------------


@st.composite
def _crop_setting(draw):
    scale_min = draw(st.floats(0.0, 1.0, exclude_min=True))
    return {
        "h": draw(st.integers(1, 64)),
        "w": draw(st.integers(1, 64)),
        "cfg": AugmentConfig(
            p=draw(st.floats(0.0, 1.0, exclude_min=True)),
            alpha=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
            scale_min=scale_min,
            scale_max=draw(st.floats(scale_min, 1.0)),
        ),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _inside(r, h, w):
    return (r.crop_h >= 1 and r.crop_w >= 1 and 0 <= r.top and 0 <= r.left
            and r.top + r.crop_h <= h and r.left + r.crop_w <= w)


class TestCropGeometryProperties:
    @settings(max_examples=300, deadline=None, database=None)
    @given(setting=_crop_setting())
    def test_drawn_crop_is_inside_with_area_in_scale_range(self, setting):
        h, w, cfg = setting["h"], setting["w"], setting["cfg"]
        cfg.validate()
        rng = np.random.default_rng(setting["seed"])
        side = min(h, w)
        fallback = CropRegion((h - side) // 2, (w - side) // 2, side, side)
        for _ in range(5):
            r = _draw_crop(h, w, cfg, rng)
            assert _inside(r, h, w), r
            # |round(a) * round(b) - a * b| <= (round(a) + round(b)) / 2 + 0.75
            slack = (r.crop_h + r.crop_w) / 2 + 0.75
            area = r.crop_h * r.crop_w
            in_range = (cfg.scale_min * h * w - slack <= area
                        <= cfg.scale_max * h * w + slack)
            assert in_range or r == fallback, (r, h, w)

    @settings(max_examples=300, deadline=None, database=None)
    @given(setting=_crop_setting())
    def test_view1_crop_stays_inside_the_centre_region(self, setting):
        h, w, cfg = setting["h"], setting["w"], setting["cfg"]
        if int(np.floor(cfg.p * h)) < 1 or int(np.floor(cfg.p * w)) < 1:
            with pytest.raises(ValueError, match="empty"):
                center_crop_region(h, w, cfg.p)
            return
        inner = center_crop_region(h, w, cfg.p)
        assert _inside(inner, h, w)
        rng = np.random.default_rng(setting["seed"])
        for _ in range(5):
            r = _draw_crop(inner.crop_h, inner.crop_w, cfg, rng)
            top, left = inner.top + r.top, inner.left + r.left
            assert inner.top <= top and top + r.crop_h <= inner.top + inner.crop_h
            assert inner.left <= left and left + r.crop_w <= inner.left + inner.crop_w
