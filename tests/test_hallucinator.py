"""Extrapolation algebra and the learnable hallucination head."""

import numpy as np
import pytest

from hcl.gradcheck import check_parameter_gradients, finite_difference_check
from hcl.hallucinator import (
    RANGE_PRESETS,
    ExtrapolationConfig,
    HallucinatorParams,
    extrapolate,
    hallucinate,
    init_hallucinator,
    sample_lambda,
)
from hcl.rng import substream
from hcl.tensor import Parameter, ShapeMismatchError, Tensor, mean, multiply


class TestExtrapolationConfig:
    def test_defaults(self):
        cfg = ExtrapolationConfig()
        assert (cfg.beta1, cfg.beta2) == (0.0, 1.0)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError, match="beta1 must be <= beta2"):
            ExtrapolationConfig(0.5, 0.1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            ExtrapolationConfig(0.0, np.inf)

    def test_presets(self):
        assert RANGE_PRESETS["wide"] == (0.0, 1.0)
        assert RANGE_PRESETS["narrow"] == (0.0, 0.1)
        cfg = ExtrapolationConfig.preset("narrow")
        assert (cfg.beta1, cfg.beta2) == (0.0, 0.1)
        with pytest.raises(ValueError, match="unknown range preset"):
            ExtrapolationConfig.preset("huge")


class TestSampleLambda:
    def test_degenerate_interval_always_zero(self):
        cfg = ExtrapolationConfig(0.0, 0.0)
        rng = np.random.default_rng(0)
        assert all(sample_lambda(cfg, rng) == 0.0 for _ in range(100))

    def test_uniform_moments_and_bounds(self):
        cfg = ExtrapolationConfig(0.0, 1.0)
        rng = np.random.default_rng(1)
        draws = sample_lambda(cfg, rng, size=100_000)
        assert abs(draws.mean() - 0.5) < 0.01
        assert draws.min() >= 0.0
        assert draws.max() <= 1.0

    def test_batch_shape(self):
        cfg = ExtrapolationConfig(0.2, 0.3)
        draws = sample_lambda(cfg, np.random.default_rng(2), size=7)
        assert draws.shape == (7,)
        assert np.all((draws >= 0.2) & (draws <= 0.3))


class TestExtrapolate:
    def test_lambda_zero_is_identity(self):
        q = Tensor(np.array([0.3, -1.2, 2.0]))
        k = Tensor(np.array([1.0, 1.0, 1.0]))
        out = extrapolate(q, k, 0.0)
        np.testing.assert_array_equal(out.data, q.data)

    def test_hand_value(self):
        q = Tensor(np.array([1.0, 0.0]))
        k = Tensor(np.array([0.0, 1.0]))
        out = extrapolate(q, k, 0.5)
        np.testing.assert_allclose(out.data, [1.5, -0.5], atol=1e-15)

    def test_lambda_minus_one_gives_k(self):
        rng = np.random.default_rng(3)
        q = Tensor(rng.standard_normal(5))
        k = Tensor(rng.standard_normal(5))
        out = extrapolate(q, k, -1.0)
        np.testing.assert_allclose(out.data, k.data, atol=1e-15)

    def test_equal_inputs_fixed_point(self):
        rng = np.random.default_rng(4)
        q = Tensor(rng.standard_normal((3, 4)))
        for lam in (-2.0, 0.0, 0.7, 5.0):
            out = extrapolate(q, q, lam)
            np.testing.assert_allclose(out.data, q.data, atol=1e-12)

    def test_linear_in_q_and_k(self):
        rng = np.random.default_rng(5)
        q1, q2 = rng.standard_normal(4), rng.standard_normal(4)
        k1, k2 = rng.standard_normal(4), rng.standard_normal(4)
        lam, a = 0.4, 1.7
        left = extrapolate(Tensor(a * q1 + q2), Tensor(a * k1 + k2), lam).data
        right = a * extrapolate(Tensor(q1), Tensor(k1), lam).data + extrapolate(
            Tensor(q2), Tensor(k2), lam
        ).data
        np.testing.assert_allclose(left, right, atol=1e-12)

    def test_positive_lambda_reduces_cosine_to_k(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            q = rng.standard_normal(8)
            k = rng.standard_normal(8)
            q /= np.linalg.norm(q)
            k /= np.linalg.norm(k)
            qp = extrapolate(Tensor(q), Tensor(k), 0.5).data
            qp /= np.linalg.norm(qp)
            assert float(qp @ k) < float(q @ k)

    def test_batched_lambda_per_row(self):
        q = Tensor(np.ones((2, 3)))
        k = Tensor(np.zeros((2, 3)))
        out = extrapolate(q, k, np.array([0.0, 1.0]))
        np.testing.assert_allclose(out.data, [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            extrapolate(Tensor(np.zeros(3)), Tensor(np.zeros(4)), 0.5)
        with pytest.raises(ShapeMismatchError):
            extrapolate(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))), np.zeros(5))

    def test_non_finite_lambda(self):
        with pytest.raises(ValueError, match="finite"):
            extrapolate(Tensor(np.zeros(2)), Tensor(np.zeros(2)), np.nan)

    def test_gradient_flows_to_live_inputs(self):
        q = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        k = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        mean(extrapolate(q, k, 0.5)).backward()
        np.testing.assert_allclose(q.grad, [0.75, 0.75])
        np.testing.assert_allclose(k.grad, [-0.25, -0.25])


class TestInitHallucinator:
    def test_zero_layers_empty(self):
        params = init_hallucinator(8, 0, np.random.default_rng(0))
        assert params.n == 0
        assert params.parameters() == []

    def test_three_layer_widths_for_d64(self):
        params = init_hallucinator(64, 3, np.random.default_rng(1))
        shapes = [w.shape for w, _ in params.layers]
        assert shapes == [(128, 128), (128, 128), (128, 64)]
        assert all(b.shape == (w.shape[1],) for w, b in params.layers)

    def test_biases_zero_weights_bounded(self):
        params = init_hallucinator(16, 2, np.random.default_rng(2))
        for w, b in params.layers:
            assert np.all(b.data == 0.0)
            fan_in, fan_out = w.shape
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.abs(w.data).max() <= bound

    def test_rejects_bad_arguments(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            init_hallucinator(0, 3, rng)
        with pytest.raises(ValueError):
            init_hallucinator(8, -1, rng)

    def test_seeded_construction_deterministic(self):
        a = init_hallucinator(8, 2, substream(11, "hallucinator"))
        b = init_hallucinator(8, 2, substream(11, "hallucinator"))
        for (wa, ba), (wb, bb) in zip(a.layers, b.layers):
            assert np.array_equal(wa.data, wb.data)
            assert np.array_equal(ba.data, bb.data)


class TestHallucinate:
    def test_n0_passes_extrapolation_through(self):
        params = init_hallucinator(4, 0, np.random.default_rng(0))
        q = Tensor(np.ones(4))
        qp = Tensor(np.arange(4.0))
        out = hallucinate(q, qp, params)
        assert out is qp

    def test_n1_identity_on_first_half(self):
        d = 5
        w = Parameter(np.vstack([np.eye(d), np.zeros((d, d))]), name="w")
        b = Parameter(np.zeros(d), name="b")
        params = HallucinatorParams(d, [(w, b)])
        rng = np.random.default_rng(1)
        q = Tensor(rng.standard_normal(d))
        qp = Tensor(rng.standard_normal(d))
        out = hallucinate(q, qp, params)
        np.testing.assert_allclose(out.data, q.data, atol=1e-15)

    def test_batched_output_width(self):
        params = init_hallucinator(6, 3, np.random.default_rng(2))
        rng = np.random.default_rng(3)
        out = hallucinate(
            Tensor(rng.standard_normal((7, 6))), Tensor(rng.standard_normal((7, 6))), params
        )
        assert out.shape == (7, 6)

    def test_width_mismatch(self):
        params = init_hallucinator(4, 1, np.random.default_rng(4))
        with pytest.raises(ShapeMismatchError):
            hallucinate(Tensor(np.zeros(4)), Tensor(np.zeros(5)), params)

    def test_not_affine_for_two_layers(self):
        # Additivity fails under random probes once a ReLU sits between
        # layers.
        params = init_hallucinator(4, 2, np.random.default_rng(5))
        rng = np.random.default_rng(6)

        def f(q, qp):
            return hallucinate(Tensor(q), Tensor(qp), params).data

        violated = False
        for _ in range(10):
            q1, q2 = rng.standard_normal(4), rng.standard_normal(4)
            p1, p2 = rng.standard_normal(4), rng.standard_normal(4)
            lhs = f(q1 + q2, p1 + p2) + f(np.zeros(4), np.zeros(4))
            rhs = f(q1, p1) + f(q2, p2)
            if not np.allclose(lhs, rhs, atol=1e-8):
                violated = True
                break
        assert violated

    def test_gradients_match_finite_differences(self):
        d, n = 6, 3
        params = init_hallucinator(d, n, np.random.default_rng(7))
        rng = np.random.default_rng(8)
        q0 = rng.standard_normal(d)
        p0 = rng.standard_normal(d)

        def loss_of_q(t):
            out = hallucinate(t, Tensor(p0), params)
            return mean(multiply(out, out))

        def loss_of_qp(t):
            out = hallucinate(Tensor(q0), t, params)
            return mean(multiply(out, out))

        assert finite_difference_check(loss_of_q, Tensor(q0)) < 1e-4
        assert finite_difference_check(loss_of_qp, Tensor(p0)) < 1e-4

        def theta_loss():
            out = hallucinate(Tensor(q0), Tensor(p0), params)
            return mean(multiply(out, out))

        assert check_parameter_gradients(theta_loss, params.parameters()) < 1e-4

    def test_parameters_update_under_sgd(self):
        from hcl.train import SGD

        params = init_hallucinator(4, 2, np.random.default_rng(9))
        before = [w.data.copy() for w, _ in params.layers]
        rng = np.random.default_rng(10)
        q = Tensor(rng.standard_normal((3, 4)))
        qp = Tensor(rng.standard_normal((3, 4)))
        opt = SGD(params.parameters(), momentum=0.0, weight_decay=0.0)
        opt.zero_grad()
        out = hallucinate(q, qp, params)
        mean(multiply(out, out)).backward()
        opt.step(lr=0.1)
        assert any(
            not np.array_equal(w.data, prev) for (w, _), prev in zip(params.layers, before)
        )
