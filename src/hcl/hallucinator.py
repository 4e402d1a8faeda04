"""Hallucinator: extra hard positives synthesized in feature space.

Stage 1, asymmetric extrapolation: on one branch only, the query feature
is pushed away from its positive partner along their difference,

    q' = (1 + lambda) * q - lambda * k,    lambda ~ U(beta1, beta2).

Stage 2, hallucination: a learnable non-linear head maps the
concatenated pair (q, q') back to feature width, with a ReLU between
successive linear layers (none after the last).  With n = 0 layers the
head is parameter-free and passes the extrapolated vector through
unchanged, so the module degenerates to pure extrapolation.

The head is a list of (weight, bias) layers built by
`encoder.dense_layers` and applied by `encoder.dense`, the same code as
the encoder's projector and SimSiam's predictor: ordinary tape machinery
whose parameters receive gradients from the contrastive loss like any
encoder weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import dense, dense_layers
from .tensor import Parameter, ShapeMismatchError, Tensor, add, concat, multiply

# Named lambda-range presets: "wide" won the range ablation and is the
# default; "narrow" is the conservative small-perturbation setting.
RANGE_PRESETS: dict[str, tuple[float, float]] = {
    "wide": (0.0, 1.0),
    "narrow": (0.0, 0.1),
}


@dataclass
class ExtrapolationConfig:
    """Bounds of the uniform distribution the extrapolation weight is drawn
    from; a named ``range`` replaces them once they have been validated."""

    beta1: float = 0.0
    beta2: float = 1.0
    range: str | None = None

    def __post_init__(self):
        self.validate()
        if self.range is not None:
            self.beta1, self.beta2 = RANGE_PRESETS[self.range]

    def validate(self) -> None:
        if self.range is not None and self.range not in RANGE_PRESETS:
            raise ValueError(f"hallucinator.range must be one of {sorted(RANGE_PRESETS)}")
        if not (np.isfinite(self.beta1) and np.isfinite(self.beta2)):
            raise ValueError("hallucinator.beta1 and beta2 must be finite")
        if self.beta2 < self.beta1:
            raise ValueError(
                f"hallucinator.beta1 must be <= beta2, got ({self.beta1}, {self.beta2})"
            )


def sample_lambda(cfg: ExtrapolationConfig, rng: np.random.Generator,
                  size: tuple[int, ...]) -> np.ndarray:
    """Uniform draws from [beta1, beta2]; one fresh draw per positive pair."""
    return rng.uniform(cfg.beta1, cfg.beta2, size)


def extrapolate(q: Tensor, k: Tensor, lam) -> Tensor:
    """(1 + lambda) * q - lambda * k, computed literally in that form.

    `lam` may be a scalar or a per-row array matching a (B, d) batch.
    Gradient flows into q, and into k exactly if k is live (the caller
    decides whether k is a constant leaf; no stop-gradient is added here).
    """
    if q.shape != k.shape:
        raise ShapeMismatchError("extrapolate", q.shape, k.shape)
    lam_arr = np.asarray(lam, dtype=np.float64)
    if not np.all(np.isfinite(lam_arr)):
        raise ValueError("extrapolate: lambda must be finite")
    if lam_arr.ndim == 0:
        one_plus = Tensor(np.asarray(1.0 + lam_arr))
        neg = Tensor(np.asarray(-lam_arr))
    else:
        if q.data.ndim != 2 or lam_arr.shape not in ((q.shape[0],), (q.shape[0], 1)):
            raise ShapeMismatchError("extrapolate lambda", q.shape, lam_arr.shape)
        col = lam_arr.reshape(-1, 1)
        one_plus = Tensor(1.0 + col)
        neg = Tensor(-col)
    return add(multiply(q, one_plus), multiply(k, neg))


def init_hallucinator(d: int, n: int, rng: np.random.Generator) -> list[tuple[Parameter, Parameter]]:
    """The head's n layers, widths 2d -> 2d -> ... -> 2d -> d (hidden width
    2d is a documented choice): Xavier-uniform weights, zero biases, and
    no layers at all for n = 0."""
    if d < 1 or n < 0:
        raise ValueError(f"init_hallucinator: need d >= 1 and n >= 0, got d={d} n={n}")
    return dense_layers([2 * d] * n + [d], [f"hall.layer{i}" for i in range(n)], rng)


def hallucinate(q: Tensor, q_prime: Tensor, layers: list[tuple[Parameter, Parameter]]) -> Tensor:
    """Map (q, q') rows to hallucinated rows; (B, d) in, (B, d) out.

    No layers returns q' unchanged (pure extrapolation); otherwise the
    linear/ReLU stack runs on concat(q, q'), whose width the first layer
    must take.  Output is unnormalized; the framework normalizes before
    any loss.
    """
    if q.shape != q_prime.shape or q.data.ndim != 2:
        raise ShapeMismatchError("hallucinate", q.shape, q_prime.shape)
    if not layers:
        return q_prime
    return dense(concat([q, q_prime], axis=-1), layers)
