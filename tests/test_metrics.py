"""Similarity, uniformity, projection, and linear-probe diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import hcl.metrics
import hcl.train
from hcl.metrics import (
    ProbeResult,
    UniformityReport,
    linear_probe,
    project_2d,
    uniformity,
    uniformity_positive,
    write_report,
)
from hcl.rng import substream
from hcl.tensor import Parameter, Tensor, add, matmul, softmax_cross_entropy

# Population value of the Gaussian potential at t=2 for points uniform
# on the unit circle: e^{-4} I0(4), via the modified Bessel function.
CIRCLE_G2 = 0.20700192122398670


def _circle(n):
    theta = 2.0 * np.pi * np.arange(n) / n
    return np.stack([np.cos(theta), np.sin(theta)], axis=1)


def _brute_force_g(features, t):
    u = features / np.linalg.norm(features, axis=1, keepdims=True)
    n = len(u)
    vals = []
    for i in range(n):
        for j in range(i + 1, n):
            d2 = float(np.sum((u[i] - u[j]) ** 2))
            vals.append(np.exp(-t * d2))
    return float(np.mean(vals))


def _uniformity_out_of_place(features, t, block):
    """`uniformity`'s value with each block's potential made out of place,
    exp(-t * clip(2 - 2 u.v, 0)), as a fresh array per step."""
    u = features / np.linalg.norm(features, axis=1, keepdims=True)
    n = len(u)
    total = 0.0
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        g = np.exp(-t * np.clip(2.0 - 2.0 * (u[lo:hi] @ u.T), 0.0, None))
        rows = np.arange(lo, hi)
        g[rows - lo, rows] = 0.0
        total += float(g.sum())
    return total / (2.0 * (n * (n - 1) // 2))


@st.composite
def _features_with_duplicates(draw):
    """(n, d) features with no zero row, some rows repeated exactly."""
    n, d = draw(st.integers(2, 24)), draw(st.integers(1, 6))
    # grid values repeat directions and land exactly on u.v = 1
    elements = st.one_of(st.integers(-8, 8).map(lambda k: k / 4),
                         st.floats(1e-3, 4.0), st.floats(-4.0, -1e-3))
    x = draw(hnp.arrays(np.float64, (n, d), elements=elements))
    x[:, 0] = np.where(np.abs(x).sum(axis=1) == 0.0, 1.0, x[:, 0])
    copies = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    for src, dst in copies:
        x[dst] = x[src]
    return x


class TestUniformity:
    @settings(max_examples=100, deadline=None)
    @given(_features_with_duplicates(), st.sampled_from([0.5, 2.0, 7.3]), st.integers(1, 30))
    def test_in_place_blocks_equal_the_out_of_place_formula(self, features, t, block):
        got = uniformity(features, t=t, block=block).value
        assert got == _uniformity_out_of_place(features, t, block)

    def test_zero_vector_error(self):
        with pytest.raises(ValueError, match="zero vector"):
            uniformity(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))

    def test_identical_points_give_one(self):
        feats = np.tile([0.6, 0.8], (5, 1))
        rep = uniformity(feats, t=2.0)
        assert rep.value == 1.0
        assert rep.mode == "all"
        assert rep.n_pairs == 10

    def test_two_antipodal_points(self):
        feats = np.array([[1.0, 0.0], [-1.0, 0.0]])
        rep = uniformity(feats, t=2.0)
        assert abs(rep.value - np.exp(-8.0)) < 1e-15

    def test_circle_matches_bessel_oracle(self):
        rep = uniformity(_circle(10_000), t=2.0)
        assert abs(rep.value - CIRCLE_G2) < 0.002

    @pytest.mark.parametrize("n", [2, 7, 50, 200])
    def test_matches_brute_force(self, n):
        rng = np.random.default_rng(n)
        feats = rng.standard_normal((n, 5))
        rep = uniformity(feats, t=2.0)
        assert abs(rep.value - _brute_force_g(feats, 2.0)) < 1e-12

    def test_blocked_equals_unblocked(self):
        rng = np.random.default_rng(1)
        feats = rng.standard_normal((300, 8))
        a = uniformity(feats, t=2.0, block=64)
        b = uniformity(feats, t=2.0, block=1024)
        assert abs(a.value - b.value) < 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        feats = rng.standard_normal((64, 4))
        base = uniformity(feats, t=2.0).value
        perm = rng.permutation(64)
        assert abs(uniformity(feats[perm], t=2.0).value - base) < 1e-12

    def test_rotation_invariance(self):
        rng = np.random.default_rng(3)
        feats = rng.standard_normal((64, 4))
        base = uniformity(feats, t=2.0).value
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        assert abs(uniformity(feats @ q.T, t=2.0).value - base) < 1e-10

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="at least 2"):
            uniformity(np.ones((1, 3)))

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError, match="t must be"):
            uniformity(np.eye(3), t=0.0)


class TestUniformityPositive:
    def test_paired_mode_matches_manual(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((10, 6))
        b = rng.standard_normal((10, 6))
        rep = uniformity_positive(a, b, t=2.0)
        ua = a / np.linalg.norm(a, axis=1, keepdims=True)
        ub = b / np.linalg.norm(b, axis=1, keepdims=True)
        manual = float(np.mean(np.exp(-2.0 * np.sum((ua - ub) ** 2, axis=1))))
        assert abs(rep.value - manual) < 1e-15
        assert rep.mode == "positive"

    def test_identical_views_give_one(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 3))
        assert uniformity_positive(a, a.copy()).value == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            uniformity_positive(np.ones((3, 2)), np.ones((4, 2)))


class TestProject2d:
    def test_d2_input_is_normalized_passthrough(self):
        rng = np.random.default_rng(6)
        feats = rng.standard_normal((8, 2))
        out = project_2d(feats, seed=0)
        expected = feats / np.linalg.norm(feats, axis=1, keepdims=True)
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_outputs_unit_norm(self):
        rng = np.random.default_rng(7)
        out = project_2d(rng.standard_normal((50, 16)), seed=3)
        assert out.shape == (50, 2)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)

    def test_seed_deterministic(self):
        rng = np.random.default_rng(8)
        feats = rng.standard_normal((20, 10))
        a = project_2d(feats, seed=5)
        b = project_2d(feats, seed=5)
        c = project_2d(feats, seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestLinearProbe:
    def test_one_hot_features_perfect(self):
        y = np.repeat(np.arange(4), 25)
        x = np.eye(4)[y]
        res = linear_probe(x, y, seed=0, epochs=10)
        assert res.top1 == 1.0
        assert np.all(res.per_class == 1.0)

    def test_shuffled_labels_chance_level(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((800, 16))
        y = rng.integers(0, 4, 800)
        res = linear_probe(x, y, seed=1, epochs=10)
        assert abs(res.top1 - 0.25) < 0.05

    def test_count_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            linear_probe(np.ones((5, 2)), np.zeros(4, dtype=int), seed=0)

    def test_features_never_mutated(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((60, 8))
        before = x.copy()
        linear_probe(x, rng.integers(0, 3, 60), seed=2, epochs=4)
        assert np.array_equal(x, before)

    def test_lr_drops_at_60_and_80_percent(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((50, 4))
        y = rng.integers(0, 2, 50)
        res = linear_probe(x, y, seed=3, epochs=20, lr=0.3)
        assert abs(res.final_lr - 0.003) < 1e-12

    def test_split_is_seeded(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((100, 6))
        y = rng.integers(0, 3, 100)
        a = linear_probe(x, y, seed=4, epochs=5)
        b = linear_probe(x, y, seed=4, epochs=5)
        assert a.top1 == b.top1
        assert a.n_train == 80 and a.n_val == 20


def _inline_momentum_probe(features, labels, seed, epochs=20, lr=0.3, momentum=0.9,
                           weight_decay=0.0, batch_size=64, val_fraction=0.2):
    """The probe as it was written before it used train.SGD: its own
    velocity buffers and update loop.  Returns (result, w, b)."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    n, d = x.shape
    classes = int(y.max()) + 1
    perm = substream(seed, "probe-split").permutation(n)
    n_val = max(1, int(round(n * val_fraction)))
    n_train = n - n_val
    train_idx, val_idx = perm[:n_train], perm[n_train:]
    w = Parameter(np.zeros((d, classes)), "probe.w")
    b = Parameter(np.zeros(classes), "probe.b")
    velocity = {p.name: np.zeros_like(p.data) for p in (w, b)}
    milestones = {int(np.floor(epochs * 0.6)), int(np.floor(epochs * 0.8))}
    current_lr = lr
    last_loss = float("nan")
    for epoch in range(epochs):
        if epoch in milestones:
            current_lr *= 0.1
        order = substream(seed, "probe-shuffle", epoch).permutation(n_train)
        for lo in range(0, n_train, batch_size):
            sel = train_idx[order[lo:lo + batch_size]]
            loss = softmax_cross_entropy(add(matmul(Tensor(x[sel]), w), b), y[sel])
            for p in (w, b):
                p.zero_grad()
            loss.backward()
            for p in (w, b):
                g = p.grad
                if weight_decay:
                    g = g + weight_decay * p.data
                v = velocity[p.name]
                v *= momentum
                v += g
                p.data -= current_lr * v
            last_loss = float(loss.data)
    pred = (x[val_idx] @ w.data + b.data).argmax(axis=1)
    truth = y[val_idx]
    per_class = np.zeros(classes)
    for c in range(classes):
        mask = truth == c
        per_class[c] = float(np.mean(pred[mask] == c)) if mask.any() else float("nan")
    res = ProbeResult(float(np.mean(pred == truth)), per_class, n_train, len(val_idx),
                      current_lr, last_loss)
    return res, w.data, b.data


class TestProbeMatchesInlineMomentum:
    @pytest.mark.parametrize("weight_decay", [0.0, 5e-3])
    def test_weights_and_result_bitwise(self, monkeypatch, weight_decay):
        optimizers = []

        class RecordingSGD(hcl.train.SGD):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                optimizers.append(self)

        monkeypatch.setattr(hcl.metrics, "SGD", RecordingSGD)
        rng = np.random.default_rng(21)
        x = rng.standard_normal((90, 6))
        y = rng.integers(0, 3, 90)
        kwargs = dict(seed=5, epochs=7, lr=0.2, momentum=0.8,
                      weight_decay=weight_decay, batch_size=16)
        got = linear_probe(x, y, **kwargs)
        ref, w_ref, b_ref = _inline_momentum_probe(x, y, **kwargs)
        w, b = (p.data for p in optimizers[0].params)
        assert np.array_equal(w, w_ref) and np.array_equal(b, b_ref)
        assert (got.top1, got.n_train, got.n_val, got.final_lr, got.train_loss) == (
            ref.top1, ref.n_train, ref.n_val, ref.final_lr, ref.train_loss)
        assert np.array_equal(got.per_class, ref.per_class, equal_nan=True)


class TestWriteReport:
    def test_csv_layout(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report(path, [("uniformity_all", 0.207, 2.0, 100),
                            ("cosine_positive_mean", 0.9, None, 100)])
        lines = path.read_text().splitlines()
        assert lines[0] == "metric,value,t,n_samples"
        assert lines[1].startswith("uniformity_all,0.207,2.0,100")
        assert ",,100" in lines[2]
