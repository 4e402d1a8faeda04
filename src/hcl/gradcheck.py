"""Finite-difference gradient oracle.

Central differences with a fixed step, compared coordinate-wise against
the analytic gradients from the tape.  The relative-error measure is

    |analytic - numeric| / max(1, |analytic|, |numeric|)

maximized over coordinates.  Anything above 1e-4 in double precision
indicates a backward-pass bug rather than truncation error; a NaN or Inf
anywhere in either gradient reads as an infinite error.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import NonFiniteError, Parameter, Tensor, conv2d, no_tape

DEFAULT_STEP = 1e-4
TOLERANCE = 1e-4


def _rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst coordinate's relative error; ``inf`` when either gradient holds
    a NaN or Inf, so that a non-finite gradient fails a ``< TOLERANCE`` gate."""
    if not (np.isfinite(analytic).all() and np.isfinite(numeric).all()):
        return np.inf
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    err = np.abs(analytic - numeric) / denom
    return float(err.max()) if err.size else 0.0


def finite_difference_check(f: Callable[[Tensor], Tensor], x: Tensor, step: float = DEFAULT_STEP) -> float:
    """Max relative error between f's analytic and numeric gradient at x.

    f must be scalar-valued; it is evaluated at a copy of x perturbed in place.
    Raises NonFiniteError if f blows up anywhere in the probed
    neighborhood.
    """
    probe = Parameter(x.data.copy(), "x")
    return check_parameter_gradients(lambda: f(probe), [probe], step)


def check_parameter_gradients(
    loss_fn: Callable[[], Tensor],
    params: Sequence[Parameter],
    step: float = DEFAULT_STEP,
) -> float:
    """Max relative FD error over every coordinate of every parameter.

    loss_fn must be a pure, scalar-valued function of the current
    parameter values (it is re-evaluated with in-place perturbations).
    Analytic gradients come from one backward pass, skipped when the loss
    is not on a tape: a constant has zero gradient.  The perturbed
    evaluations run under `no_tape()`, since only their value is read.
    """
    if step <= 0:
        raise ValueError("check_parameter_gradients: step must be positive")
    for p in params:
        p.zero_grad()
    loss = loss_fn()
    if loss.size != 1:
        raise ValueError(f"check_parameter_gradients: loss must be scalar, got shape {loss.shape}")
    if loss.requires_grad and loss._parents:
        loss.backward()

    worst = 0.0
    for p in params:
        analytic = p.grad.copy()
        numeric = np.zeros_like(p.data)
        flat_num = numeric.reshape(-1)
        flat_data = p.data.reshape(-1)
        for i in range(flat_data.size):
            orig = flat_data[i]
            with no_tape():
                flat_data[i] = orig + step
                hi = float(loss_fn().data)
                flat_data[i] = orig - step
                lo = float(loss_fn().data)
            flat_data[i] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise NonFiniteError("check_parameter_gradients", "probed neighborhood")
            flat_num[i] = (hi - lo) / (2.0 * step)
        worst = max(worst, _rel_error(analytic, numeric))
    return worst


def _away_from_kinks(x: np.ndarray, margin: float = 0.05) -> np.ndarray:
    """Push values out of the [-margin, margin] band around relu's corner."""
    out = x.copy()
    small = np.abs(out) < margin
    out[small] = np.where(out[small] >= 0, out[small] + margin, out[small] - margin)
    return out


def _stage_clear_of_kinks(rng: np.random.Generator, margin: float = 0.05):
    """(x, w, b) for a padded 3x3 conv stage whose every pre-activation lies
    at least `margin` from relu's corner, drawn by rejection."""
    while True:
        x, w, b = rng.normal(size=(2, 3, 4, 4)), rng.normal(size=(2, 3, 3, 3)), rng.normal(size=2)
        if np.abs(conv2d(Tensor(x), Tensor(w), Tensor(b), padding=1).data).min() >= margin:
            return x, w, b


def op_gradcheck_suite(seed: int = 0, step: float = DEFAULT_STEP) -> dict[str, float]:
    """Finite-difference check of every differentiable operation.

    Returns {op name: max relative error}.  Inputs are seeded and kept
    clear of relu corners so central differences see a smooth function.
    """
    from . import tensor as T

    rng = np.random.default_rng(seed)

    def r(*shape):
        return rng.normal(size=shape)

    a34 = Tensor(r(3, 4))
    b34 = Tensor(r(3, 4))
    w42 = Tensor(r(4, 2))
    c34 = Tensor(r(3, 4))
    m38 = Tensor(r(3, 8))
    m43 = Tensor(r(4, 3))
    m55 = Tensor(r(5, 5))
    m31 = Tensor(r(3, 1))
    m2322 = Tensor(r(2, 3, 2, 2))
    wconv = Tensor(r(2, 3, 3, 3))
    bconv = Tensor(r(2))
    x_im = Tensor(r(2, 3, 5, 5))
    labels5 = np.array([0, 2, 1, 2, 0], dtype=np.int64)

    cases: dict[str, tuple] = {
        "add": (lambda x: T.mean(T.multiply(T.add(x, b34), a34)), Tensor(r(3, 4))),
        "add_broadcast": (lambda x: T.mean(T.multiply(T.add(a34, x), b34)), Tensor(r(4))),
        "multiply": (lambda x: T.mean(T.multiply(x, b34)), Tensor(r(3, 4))),
        "scalar_multiply": (lambda x: T.mean(T.scalar_multiply(x, -1.7)), Tensor(r(3, 4))),
        "matmul": (lambda x: T.mean(T.matmul(x, w42)), Tensor(r(3, 4))),
        "relu": (lambda x: T.mean(T.multiply(T.relu(x), m55)),
                 Tensor(_away_from_kinks(r(5, 5)))),
        "exp": (lambda x: T.mean(T.exp(x)), Tensor(r(3, 3))),
        "mean": (lambda x: T.mean(x), Tensor(r(6,))),
        "sum": (lambda x: T.mean(T.multiply(T.sum_(x, axis=1, keepdims=True), m31)),
                Tensor(r(3, 4))),
        "concat": (lambda x: T.mean(T.multiply(T.concat([x, c34], axis=1), m38)),
                   Tensor(r(3, 4))),
        "l2_normalize": (lambda x: T.mean(T.multiply(T.l2_normalize(x), a34)),
                         Tensor(r(3, 4) + np.sign(r(3, 4)) * 0.5)),
        "reshape": (lambda x: T.mean(T.multiply(T.reshape(x, (4, 3)), m43)),
                    Tensor(r(3, 4))),
        "transpose": (lambda x: T.mean(T.multiply(T.transpose(x), m43)),
                      Tensor(r(3, 4))),
        "conv2d_input": (lambda x: T.mean(T.conv2d(x, wconv, bconv, padding=1)),
                         Tensor(r(2, 3, 5, 5))),
        "conv2d_weight": (lambda w: T.mean(T.conv2d(x_im, w, None, padding=1)),
                          Tensor(r(2, 3, 3, 3))),
        "conv2d_bias": (lambda b: T.mean(T.conv2d(x_im, wconv, b, padding=1)),
                        Tensor(r(2))),
        "avg_pool2d": (lambda x: T.mean(T.multiply(T.avg_pool2d(x), m2322)),
                       Tensor(r(2, 3, 4, 4))),
        "softmax_cross_entropy": (lambda x: T.softmax_cross_entropy(x, labels5),
                                  Tensor(r(5, 3))),
    }
    # drawn after every input above, which therefore keeps its values
    xs, ws, bs = (Tensor(a) for a in _stage_clear_of_kinks(rng))
    m2222 = Tensor(r(2, 2, 2, 2))
    cases |= {
        "conv_relu_pool_input": (lambda x: T.mean(T.multiply(T.conv_relu_pool(x, ws, bs, padding=1), m2222)),
                                 Tensor(xs.data)),
        "conv_relu_pool_weight": (lambda w: T.mean(T.multiply(T.conv_relu_pool(xs, w, bs, padding=1), m2222)),
                                  Tensor(ws.data)),
        "conv_relu_pool_bias": (lambda b: T.mean(T.multiply(T.conv_relu_pool(xs, ws, b, padding=1), m2222)),
                                Tensor(bs.data)),
    }

    errors: dict[str, float] = {}
    for name, (fn, x) in cases.items():
        errors[name] = finite_difference_check(fn, x, step=step)
    return errors


def framework_gradcheck_suite(data_seed: int = 1, fw_seed: int = 2,
                              step: float = DEFAULT_STEP,
                              batch: int = 4, dim: int = 8) -> dict[str, float]:
    """FD check of every framework loss, extrapolation branch on and off.

    Uses a small encoder (one conv stage, feature_dim=8) and batch 4.
    Each framework's ``loss_closure`` is differenced, so the stop-gradient
    framework's targets stay frozen, as its analytic gradient assumes.
    """
    from .encoder import EncoderConfig
    from .frameworks import FRAMEWORK_NAMES, FrameworkConfig, build_framework
    from .hallucinator import ExtrapolationConfig

    enc_cfg = EncoderConfig(channels=(4,), kernel=3, hidden_dim=16, feature_dim=dim)
    rng = np.random.default_rng(data_seed)
    x1 = rng.random((batch, 3, 8, 8))
    x2 = rng.random((batch, 3, 8, 8))

    errors: dict[str, float] = {}
    for name in FRAMEWORK_NAMES:
        for hall in (False, True):
            cfg = FrameworkConfig(
                hallucinator=hall, hallucinator_layers=2,
                extrapolation=ExtrapolationConfig(0.0, 1.0), queue_size=16,
            )
            fw = build_framework(name, enc_cfg, 8, cfg, seed=fw_seed)
            fw.prime(x2)
            lam = None
            if hall:
                shape = fw.lambda_shape(batch)
                lam = np.linspace(0.1, 0.9, int(np.prod(shape))).reshape(shape)
            key = f"{name}_hall_{'on' if hall else 'off'}"
            errors[key] = check_parameter_gradients(
                fw.loss_closure(x1, x2, lam), fw.trainable_parameters(), step=step
            )
    return errors
