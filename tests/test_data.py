"""Dataset I/O layout, synthetic generator, and separability oracle."""

import numpy as np
import pytest

from hcl.data import (
    IMAGE_SIDE,
    NUM_LABELS,
    RECORD_BYTES,
    DatasetRecord,
    Image,
    generate_synthetic,
    hsv_to_rgb,
    load_cifar_batch,
    make_synthetic_records,
    save_cifar_batch,
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


class TestImage:
    def test_accepts_hwc_uint8(self):
        img = Image(np.zeros((8, 6, 3), dtype=np.uint8))
        assert (img.h, img.w) == (8, 6)

    def test_rejects_wrong_dtype(self):
        with pytest.raises(ValueError, match="uint8"):
            Image(np.zeros((8, 8, 3), dtype=np.float64))

    def test_rejects_tiny_extent(self):
        with pytest.raises(ValueError, match=">= 4"):
            Image(np.zeros((3, 8, 3), dtype=np.uint8))


class TestCifarLayout:
    def test_single_record_label_seven(self, tmp_path):
        p = tmp_path / "one.bin"
        _write_record(p, 7, np.zeros((3, IMAGE_SIDE, IMAGE_SIDE)))
        recs = load_cifar_batch(p)
        assert len(recs) == 1
        assert recs[0].label == 7

    def test_plane_order_is_rgb(self, tmp_path):
        planes = np.empty((3, IMAGE_SIDE, IMAGE_SIDE), dtype=np.uint8)
        planes[0], planes[1], planes[2] = 10, 20, 30
        p = tmp_path / "rgb.bin"
        _write_record(p, 0, planes)
        img = load_cifar_batch(p)[0].image
        assert img.pixels.shape == (IMAGE_SIDE, IMAGE_SIDE, 3)
        assert (img.pixels[5, 9] == np.array([10, 20, 30])).all()

    def test_two_records(self, tmp_path):
        buf = np.zeros(2 * RECORD_BYTES, dtype=np.uint8)
        buf[0] = 1
        buf[RECORD_BYTES] = 2
        p = tmp_path / "two.bin"
        buf.tofile(p)
        recs = load_cifar_batch(p)
        assert [r.label for r in recs] == [1, 2]

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

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        recs = [
            DatasetRecord(
                int(rng.integers(NUM_LABELS)),
                Image(rng.integers(0, 256, (IMAGE_SIDE, IMAGE_SIDE, 3), dtype=np.uint8)),
            )
            for _ in range(5)
        ]
        p = tmp_path / "rt.bin"
        save_cifar_batch(recs, p)
        back = load_cifar_batch(p)
        assert len(back) == 5
        for a, b in zip(recs, back):
            assert a.label == b.label
            assert np.array_equal(a.image.pixels, b.image.pixels)

    def test_save_rejects_non_32x32(self, tmp_path):
        rec = DatasetRecord(0, Image(np.zeros((16, 16, 3), dtype=np.uint8)))
        with pytest.raises(ValueError, match="32x32"):
            save_cifar_batch([rec], tmp_path / "x.bin")


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
        assert [r.label for r in recs] == [0] * 3 + [1] * 3 + [2] * 3 + [3] * 3

    def test_rejects_too_many_classes(self):
        with pytest.raises(ValueError, match="classes"):
            make_synthetic_records(11, 1, seed=0)

    def test_pixel_space_linear_separability(self):
        # Least-squares one-hot regression as the linear-classifier oracle.
        recs = make_synthetic_records(4, 100, seed=0)
        x = np.stack([r.image.pixels.reshape(-1) / 255.0 for r in recs])
        x = np.concatenate([x, np.ones((len(x), 1))], axis=1)
        y = np.array([r.label for r in recs])
        onehot = np.eye(4)[y]
        w, *_ = np.linalg.lstsq(x, onehot, rcond=None)
        acc = float(np.mean((x @ w).argmax(axis=1) == y))
        assert acc >= 0.95
