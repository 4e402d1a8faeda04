"""Finite-difference oracle behavior and the per-op gradient sweep."""

import numpy as np
import pytest

import hcl.cli
import hcl.tensor

from hcl.gradcheck import (
    DEFAULT_STEP,
    TOLERANCE,
    finite_difference_check,
    check_parameter_gradients,
    op_gradcheck_suite,
)
from hcl.tensor import (
    NonFiniteError,
    Parameter,
    Tensor,
    add,
    exp,
    matmul,
    mean,
    multiply,
    relu,
    scalar_multiply,
    sum_,
)


class TestFiniteDifferenceCheck:
    def test_sum_of_squares(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]))
        err = finite_difference_check(lambda t: sum_(multiply(t, t)), x)
        assert err < 1e-6

    def test_constant_function_zero_error(self):
        x = Tensor(np.array([0.3, -0.7]))
        err = finite_difference_check(lambda t: Tensor(np.float64(5.0)), x)
        assert err == 0.0

    def test_rejects_nonpositive_step(self):
        x = Tensor(np.array([1.0]))
        with pytest.raises(ValueError, match="step"):
            finite_difference_check(lambda t: mean(t), x, step=0.0)

    def test_rejects_nonscalar_function(self):
        x = Tensor(np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="scalar"):
            finite_difference_check(lambda t: relu(t), x)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_nonfinite_neighborhood_raises(self):
        # log is not an op here; exp overflows instead near 1000.
        x = Tensor(np.array([710.0]))
        with pytest.raises(NonFiniteError):
            finite_difference_check(lambda t: mean(exp(t)), x)

    def test_matches_known_analytic_gradient(self):
        # f(x) = mean(relu(x)) at a kink-free point.
        x = Tensor(np.array([-1.0, 2.0]))
        err = finite_difference_check(lambda t: mean(relu(t)), x)
        assert err < 1e-8


class TestParameterGradients:
    def test_linear_model(self):
        rng = np.random.default_rng(0)
        w = Parameter(rng.standard_normal((3, 2)), name="w")
        x = Tensor(rng.standard_normal((4, 3)))
        err = check_parameter_gradients(lambda: mean(matmul(x, w)), [w])
        assert err < 1e-8

    def test_two_parameters(self):
        rng = np.random.default_rng(1)
        w = Parameter(rng.standard_normal((3, 3)), name="w")
        b = Parameter(rng.standard_normal(3), name="b")
        x = Tensor(rng.standard_normal((2, 3)))

        def loss():
            return mean(multiply(add(matmul(x, w), b), add(matmul(x, w), b)))

        err = check_parameter_gradients(loss, [w, b])
        assert err < 1e-6

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_analytic_gradient_fails_the_gate(self, bad):
        # mean's forward with a backward that writes NaN or Inf
        w = Parameter(np.array([0.5, -1.5]), name="w")

        def loss():
            return hcl.tensor._make(np.mean(w.data), (w,),
                                    lambda g: w._accumulate(np.full(2, bad)), "bad")

        err = check_parameter_gradients(loss, [w])
        assert not err < TOLERANCE
        assert err == np.inf

    def test_rejects_nonpositive_step(self):
        w = Parameter(np.ones(2), name="w")
        with pytest.raises(ValueError, match="step"):
            check_parameter_gradients(lambda: mean(w), [w], step=-1e-4)


class TestBackwardLinearity:
    def test_grad_of_linear_combination(self):
        rng = np.random.default_rng(2)
        base = rng.standard_normal(6)
        alpha = 0.37

        def grad_of(fn):
            t = Tensor(base.copy(), requires_grad=True)
            fn(t).backward()
            return t.grad.copy()

        l1 = lambda t: mean(multiply(t, t))
        l2 = lambda t: sum_(exp(scalar_multiply(t, 0.1)))
        combo = lambda t: add(scalar_multiply(l1(t), alpha), l2(t))

        g = grad_of(combo)
        expected = alpha * grad_of(l1) + grad_of(l2)
        np.testing.assert_allclose(g, expected, rtol=0, atol=1e-12)


class TestOpSuite:
    def test_every_op_under_tolerance(self):
        results = op_gradcheck_suite()
        assert results, "suite returned no results"
        for name, err in sorted(results.items()):
            assert err < TOLERANCE, f"{name}: {err:.3e}"

    def test_expected_ops_present(self):
        results = op_gradcheck_suite()
        for op in ("matmul", "add", "scalar_multiply", "multiply", "relu",
                   "concat", "l2_normalize", "mean", "exp",
                   "softmax_cross_entropy", "avg_pool2d"):
            assert any(op in key for key in results), op
        assert any("conv2d" in key for key in results)

    def test_deterministic(self):
        a = op_gradcheck_suite(seed=0)
        b = op_gradcheck_suite(seed=0)
        assert a == b


class TestGradcheckCommand:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 2 * TOLERANCE])
    def test_any_entry_not_under_tolerance_fails(self, monkeypatch, capsys, bad):
        monkeypatch.setattr(hcl.cli, "op_gradcheck_suite",
                            lambda seed: {"add": 1e-9, "broken": bad})
        monkeypatch.setattr(hcl.cli, "framework_gradcheck_suite",
                            lambda: {"moco_hall_on": 1e-9})
        assert hcl.cli.main(["gradcheck"]) == 1
        out, err = capsys.readouterr()
        assert "gradcheck passed" not in out
        assert "gradcheck FAILED: broken" in err

    def test_all_under_tolerance_passes(self, monkeypatch, capsys):
        monkeypatch.setattr(hcl.cli, "op_gradcheck_suite", lambda seed: {"add": 1e-9})
        monkeypatch.setattr(hcl.cli, "framework_gradcheck_suite",
                            lambda: {"moco_hall_on": 1e-9})
        assert hcl.cli.main(["gradcheck"]) == 0
        assert "gradcheck passed" in capsys.readouterr().out
