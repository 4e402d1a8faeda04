"""Dataset I/O layout, synthetic generator, and separability oracle."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcl.data import (
    IMAGE_SIDE,
    NUM_LABELS,
    RECORD,
    RECORD_BYTES,
    generate_synthetic,
    hsv_to_rgb,
    load_cifar_batch,
    make_synthetic_records,
    save_cifar_batch,
    wrap_unit,
)


def _write_record(path, label, planes):
    buf = np.empty(RECORD_BYTES, dtype=np.uint8)
    buf[0] = label
    buf[1:] = np.asarray(planes, dtype=np.uint8).reshape(-1)
    buf.tofile(path)


def _scalar_hue_to_rgb(hue, sat, val):
    """The per-triple HSV->RGB the synthetic generator once had, as oracle."""
    h6 = (hue % 1.0) * 6.0
    i = int(h6) % 6
    f = h6 - int(h6)
    p, q, t = val * (1 - sat), val * (1 - sat * f), val * (1 - sat * (1 - f))
    table = [(val, t, p), (q, val, p), (p, val, t), (p, q, val), (t, p, val), (val, p, q)]
    return np.array(table[i])


class TestHsvToRgb:
    def test_synthetic_class_hues_match_scalar_oracle(self):
        for classes in range(1, NUM_LABELS + 1):
            for c in range(classes):
                for hue, sat, val in ((c / classes, 0.75, 0.8), (c / classes + 0.5, 0.9, 1.0)):
                    assert np.array_equal(hsv_to_rgb(hue, sat, val),
                                          _scalar_hue_to_rgb(hue, sat, val))

    def test_vectorized_matches_scalar_oracle(self):
        hsv = np.random.default_rng(3).random((2000, 3)) * [3.0, 1.0, 1.0]
        got = hsv_to_rgb(hsv[:, 0], hsv[:, 1], hsv[:, 2])
        assert got.shape == (2000, 3)
        for row, (hue, sat, val) in zip(got, hsv):
            assert np.array_equal(row, _scalar_hue_to_rgb(hue, sat, val))


def _choose_hsv_to_rgb(hue, s, v):
    """`hsv_to_rgb` as once written, with float `%`, int `% 6` and
    `np.choose`, as oracle."""
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


# Hues that sit on an edge: every sector boundary k/6 in [-3, 3], signed
# zero, the largest double below 1 (whose 6 h rounds to 6), and negatives
# so small that h % 1 rounds up to 1.0.
_EDGE_HUES = ([k / 6 for k in range(-18, 19)]
              + [-0.0, 1 - 2.0**-53, -(2.0**-60), -1e-300, -5e-324, 2.0**-53, 1 / 6 - 2.0**-55])
_HUES = st.one_of(st.sampled_from(_EDGE_HUES), st.floats(-3.0, 3.0))
_UNIT = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def _hsv_arguments(draw):
    """hue, s, v as Python floats, as equal-length arrays, or as arrays
    that broadcast: hue (n,), s a scalar, v (k, 1)."""
    form = draw(st.sampled_from(["scalar", "same", "broadcast"]))
    if form == "scalar":
        return draw(_HUES), draw(_UNIT), draw(_UNIT)
    n = draw(st.integers(1, 12))
    hue = np.array(draw(st.lists(_HUES, min_size=n, max_size=n)))
    if form == "same":
        return (hue, np.array(draw(st.lists(_UNIT, min_size=n, max_size=n))),
                np.array(draw(st.lists(_UNIT, min_size=n, max_size=n))))
    k = draw(st.integers(1, 4))
    return hue, draw(_UNIT), np.array(draw(st.lists(_UNIT, min_size=k, max_size=k)))[:, None]


class TestHsvToRgbProperties:
    @settings(max_examples=400, deadline=None, database=None)
    @given(args=_hsv_arguments(),
           doubles=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
    def test_matches_choose_oracle_bytes_and_wrap_is_mod_one(self, args, doubles):
        got, want = hsv_to_rgb(*args), _choose_hsv_to_rgb(*args)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), args
        # x - floor(x) is x % 1.0 on any finite double, signed zeros included.
        x = np.array(doubles + [-0.0, 5e-324, -5e-324, -1e-300, 1e300, -1e300, -3.0])
        assert wrap_unit(x.copy(), np.empty_like(x)).tobytes() == (x % 1.0).tobytes()


class TestCifarLayout:
    def test_single_record_label_seven(self, tmp_path):
        p = tmp_path / "one.bin"
        _write_record(p, 7, np.zeros((3, IMAGE_SIDE, IMAGE_SIDE)))
        recs = load_cifar_batch(p)
        assert recs.dtype == RECORD
        assert len(recs) == 1
        assert recs["label"][0] == 7

    def test_plane_order_is_rgb(self, tmp_path):
        planes = np.empty((3, IMAGE_SIDE, IMAGE_SIDE), dtype=np.uint8)
        planes[0], planes[1], planes[2] = 10, 20, 30
        p = tmp_path / "rgb.bin"
        _write_record(p, 0, planes)
        img = load_cifar_batch(p)["image"][0]
        assert img.shape == (IMAGE_SIDE, IMAGE_SIDE, 3)
        assert (img[5, 9] == np.array([10, 20, 30])).all()

    def test_two_records(self, tmp_path):
        buf = np.zeros(2 * RECORD_BYTES, dtype=np.uint8)
        buf[0] = 1
        buf[RECORD_BYTES] = 2
        p = tmp_path / "two.bin"
        buf.tofile(p)
        recs = load_cifar_batch(p)
        assert recs["label"].tolist() == [1, 2]

    def test_truncated_file_errors(self, tmp_path):
        p = tmp_path / "trunc.bin"
        np.zeros(RECORD_BYTES - 1, dtype=np.uint8).tofile(p)
        with pytest.raises(ValueError, match="3073"):
            load_cifar_batch(p)

    def test_label_out_of_range_errors(self, tmp_path):
        p = tmp_path / "bad.bin"
        _write_record(p, NUM_LABELS, np.zeros((3, IMAGE_SIDE, IMAGE_SIDE)))
        with pytest.raises(ValueError, match="label"):
            load_cifar_batch(p)

    def test_save_rejects_label_out_of_range(self, tmp_path):
        recs = np.zeros(3, dtype=RECORD)
        recs["label"][2] = NUM_LABELS
        with pytest.raises(ValueError, match="record 2 label 10 out of range"):
            save_cifar_batch(recs, tmp_path / "x.bin")

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        recs = np.empty(5, dtype=RECORD)
        recs["label"] = rng.integers(NUM_LABELS, size=5)
        recs["image"] = rng.integers(0, 256, (5, IMAGE_SIDE, IMAGE_SIDE, 3))
        p = tmp_path / "rt.bin"
        save_cifar_batch(recs, p)
        back = load_cifar_batch(p)
        assert np.array_equal(back, recs)

    def test_save_rejects_non_32x32(self, tmp_path):
        small = np.zeros(1, dtype=[("label", np.uint8), ("image", np.uint8, (16, 16, 3))])
        with pytest.raises(ValueError, match="32x32"):
            save_cifar_batch(small, tmp_path / "x.bin")


class TestSyntheticGenerator:
    def test_file_size_arithmetic(self, tmp_path):
        p = tmp_path / "synth.bin"
        n = generate_synthetic(p, classes=4, per_class=100, seed=0)
        assert n == 400
        assert p.stat().st_size == 400 * RECORD_BYTES

    def test_same_seed_bitwise_identical(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        generate_synthetic(a, classes=3, per_class=10, seed=5)
        generate_synthetic(b, classes=3, per_class=10, seed=5)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        generate_synthetic(a, classes=3, per_class=10, seed=5)
        generate_synthetic(b, classes=3, per_class=10, seed=6)
        assert a.read_bytes() != b.read_bytes()

    def test_round_trips_through_loader(self, tmp_path):
        p = tmp_path / "synth.bin"
        generate_synthetic(p, classes=4, per_class=3, seed=1)
        recs = load_cifar_batch(p)
        assert recs["label"].tolist() == [0] * 3 + [1] * 3 + [2] * 3 + [3] * 3

    def test_rejects_too_many_classes(self):
        with pytest.raises(ValueError, match="classes"):
            make_synthetic_records(11, 1, seed=0)

    def test_pixel_space_linear_separability(self):
        # Least-squares one-hot regression as the linear-classifier oracle.
        recs = make_synthetic_records(4, 100, seed=0)
        x = recs["image"].reshape(len(recs), -1) / 255.0
        x = np.concatenate([x, np.ones((len(x), 1))], axis=1)
        y = recs["label"]
        onehot = np.eye(4)[y]
        w, *_ = np.linalg.lstsq(x, onehot, rcond=None)
        acc = float(np.mean((x @ w).argmax(axis=1) == y))
        assert acc >= 0.95


class TestSyntheticBytes:
    """The data files every frozen run and benchmark workload trains on.

    No BLAS call makes them, so the digests hold at any thread count.
    """

    @pytest.mark.parametrize("classes, per_class, digest", [
        (10, 20, "215a4a60a7807a5e4bcfd619d96fbf96db59299e3151287fa82212d9a75377e3"),
        (4, 80, "a238638a72d1f24801482001b2972deaaee8aa9f68e1a0ac55373ad13e8f2500"),
    ])
    def test_file_digest_and_round_trip(self, tmp_path, classes, per_class, digest):
        p, q = tmp_path / "synth.bin", tmp_path / "copy.bin"
        generate_synthetic(p, classes, per_class, 1)
        assert hashlib.sha256(p.read_bytes()).hexdigest() == digest
        save_cifar_batch(load_cifar_batch(p), q)
        assert q.read_bytes() == p.read_bytes()
