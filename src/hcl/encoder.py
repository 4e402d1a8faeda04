"""Small convolutional encoder: conv/ReLU/avg-pool stack plus MLP projector.

Stands in for the usual large backbone at desk scale.  Every conv is
3x3 with same-padding, which keeps the side, followed by 2x2 average
pooling, so an input side must be divisible by 2**len(channels).  Each
stage, conv -> ReLU -> pool, is one `conv_relu_pool` op, bitwise equal
to the three ops composed but without their full-size intermediates.
The projector is a two-layer MLP onto the feature width d.

Every dense head (the projector, SimSiam's predictor `MLP` and the
hallucinator's head) is built by `dense_layers` and applied by `dense`:
Xavier-uniform weights drawn layer by layer, constant biases, and a ReLU
between successive linear layers, none after the last.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import Parameter, Tensor, add, conv_relu_pool, matmul, relu
from .tensor import conv2d  # noqa: F401  perfbench/tests patches it here as an import site


@dataclass
class EncoderConfig:
    """The ``encoder`` section of an experiment config."""

    channels: list[int] = field(default_factory=lambda: [16, 32, 64])
    kernel: int = 3
    hidden_dim: int = 128
    feature_dim: int = 64

    def validate(self) -> None:
        if not self.channels or any(c < 1 for c in self.channels):
            raise ValueError("encoder.channels must be a non-empty list of ints >= 1")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ValueError("encoder.kernel must be an odd int >= 1")
        if self.hidden_dim < 1:
            raise ValueError("encoder.hidden_dim must be >= 1")
        if self.feature_dim < 2:
            raise ValueError("encoder.feature_dim must be >= 2")

    def to_encoder_config(self) -> "EncoderConfig":
        # Kept for perfbench/worker.py, which builds a framework through it.
        return self


def _xavier_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, shape)


def dense_layers(widths: list[int], names: list[str], rng: np.random.Generator,
                 bias: float = 0.0) -> list[tuple[Parameter, Parameter]]:
    """Linear layers `widths[i] -> widths[i+1]`, each weight drawn from `rng`
    in turn (Xavier uniform) and each bias filled with `bias`; layer i's
    parameters are named `{names[i]}.w` and `{names[i]}.b`."""
    return [(Parameter(_xavier_uniform(rng, (i, o), i, o), f"{name}.w"),
             Parameter(np.full(o, bias), f"{name}.b"))
            for i, o, name in zip(widths[:-1], widths[1:], names, strict=True)]


def dense(x: Tensor, layers: list[tuple[Parameter, Parameter]]) -> Tensor:
    """`layers` applied to x, with a ReLU before every layer but the first."""
    h = x
    for i, (w, b) in enumerate(layers):
        h = add(matmul(relu(h) if i else h, w), b)
    return h


class ConvEncoder:
    """Backbone + projector; emits a (B, d) feature batch, unnormalized."""

    def __init__(self, cfg: EncoderConfig, in_size: int, rng: np.random.Generator, prefix: str = "enc"):
        cfg.validate()
        if in_size % (2 ** len(cfg.channels)) != 0:
            raise ValueError(
                f"input side {in_size} must divide by 2**{len(cfg.channels)} for the pooling stack"
            )
        self.cfg = cfg
        self.in_size = in_size
        k = cfg.kernel
        self.convs: list[tuple[Parameter, Parameter]] = []
        c_in = 3
        for i, c_out in enumerate(cfg.channels):
            fan_in, fan_out = c_in * k * k, c_out * k * k
            w = Parameter(_xavier_uniform(rng, (c_out, c_in, k, k), fan_in, fan_out), f"{prefix}.conv{i}.w")
            b = Parameter(np.zeros(c_out), f"{prefix}.conv{i}.b")
            self.convs.append((w, b))
            c_in = c_out
        side = in_size // (2 ** len(cfg.channels))
        self.flat_dim = c_in * side * side
        self.projector = dense_layers([self.flat_dim, cfg.hidden_dim, cfg.feature_dim],
                                      [f"{prefix}.fc1", f"{prefix}.fc2"], rng)

    def parameters(self) -> list[Parameter]:
        return [p for layer in self.convs + self.projector for p in layer]

    def forward(self, x: Tensor) -> Tensor:
        """x: (B, 3, S, S) in [0, 1] -> (B, d) features."""
        pad = self.cfg.kernel // 2
        h = x
        for w, b in self.convs:
            h = conv_relu_pool(h, w, b, padding=pad)
        return dense(h.reshape((h.shape[0], self.flat_dim)), self.projector)


class MLP:
    """Two-layer ReLU MLP, used for the prediction head.

    Biases start at 0.1, which keeps the output away from the exact zero
    vector when every hidden unit is inactive for some row; downstream
    cosine losses reject zero vectors rather than dividing by zero.
    """

    def __init__(self, d_in: int, d_hidden: int, d_out: int, rng: np.random.Generator, prefix: str):
        self.layers = dense_layers([d_in, d_hidden, d_out], [f"{prefix}.fc1", f"{prefix}.fc2"],
                                   rng, bias=0.1)

    def parameters(self) -> list[Parameter]:
        return [p for layer in self.layers for p in layer]

    def forward(self, x: Tensor) -> Tensor:
        return dense(x, self.layers)
