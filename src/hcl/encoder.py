"""Small convolutional encoder: conv/ReLU/avg-pool stack plus MLP projector.

Stands in for the usual large backbone at desk scale.  Every conv is
3x3 with same-padding, which keeps the side, followed by 2x2 average
pooling, so an input side must be divisible by 2**len(channels).  Each
stage, conv -> ReLU -> pool, is one `conv_relu_pool` op, bitwise equal
to the three ops composed but without their full-size intermediates.
The projector is a two-layer MLP onto the feature width d.
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
        self.fc1_w = Parameter(
            _xavier_uniform(rng, (self.flat_dim, cfg.hidden_dim), self.flat_dim, cfg.hidden_dim),
            f"{prefix}.fc1.w",
        )
        self.fc1_b = Parameter(np.zeros(cfg.hidden_dim), f"{prefix}.fc1.b")
        self.fc2_w = Parameter(
            _xavier_uniform(rng, (cfg.hidden_dim, cfg.feature_dim), cfg.hidden_dim, cfg.feature_dim),
            f"{prefix}.fc2.w",
        )
        self.fc2_b = Parameter(np.zeros(cfg.feature_dim), f"{prefix}.fc2.b")

    def parameters(self) -> list[Parameter]:
        out = []
        for w, b in self.convs:
            out.extend([w, b])
        out.extend([self.fc1_w, self.fc1_b, self.fc2_w, self.fc2_b])
        return out

    def forward(self, x: Tensor) -> Tensor:
        """x: (B, 3, S, S) in [0, 1] -> (B, d) features."""
        pad = self.cfg.kernel // 2
        h = x
        for w, b in self.convs:
            h = conv_relu_pool(h, w, b, padding=pad)
        h = h.reshape((h.shape[0], self.flat_dim))
        h = relu(add(matmul(h, self.fc1_w), self.fc1_b))
        return add(matmul(h, self.fc2_w), self.fc2_b)

    def copy_from(self, other: "ConvEncoder") -> None:
        """Overwrite this encoder's values with another's (shapes must match)."""
        for mine, theirs in zip(self.parameters(), other.parameters()):
            if mine.shape != theirs.shape:
                raise ValueError(f"copy_from: shape mismatch on {mine.name}")
            mine.data[...] = theirs.data


class MLP:
    """Two-layer ReLU MLP, used for the prediction head.

    Biases start at 0.1, which keeps the output away from the exact zero
    vector when every hidden unit is inactive for some row; downstream
    cosine losses reject zero vectors rather than dividing by zero.
    """

    def __init__(self, d_in: int, d_hidden: int, d_out: int, rng: np.random.Generator, prefix: str):
        self.w1 = Parameter(_xavier_uniform(rng, (d_in, d_hidden), d_in, d_hidden), f"{prefix}.fc1.w")
        self.b1 = Parameter(np.full(d_hidden, 0.1), f"{prefix}.fc1.b")
        self.w2 = Parameter(_xavier_uniform(rng, (d_hidden, d_out), d_hidden, d_out), f"{prefix}.fc2.w")
        self.b2 = Parameter(np.full(d_out, 0.1), f"{prefix}.fc2.b")

    def parameters(self) -> list[Parameter]:
        return [self.w1, self.b1, self.w2, self.b2]

    def forward(self, x: Tensor) -> Tensor:
        h = relu(add(matmul(x, self.w1), self.b1))
        return add(matmul(h, self.w2), self.b2)
