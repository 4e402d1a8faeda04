"""Contrastive pretext frameworks: momentum-queue, in-batch, and stop-gradient.

Each framework wraps one or two encoders plus an optional feature
extrapolation branch and exposes the same interface:

  forward_loss(x1, x2, lambdas) -> (loss, diagnostics, aux)
      Pure function of the current weights.  Builds the autodiff graph and
      returns the scalar loss tensor, a dict of float diagnostics, and an
      ``aux`` dict consumed by ``after_update``.  No internal state changes.

  after_update(aux)
      Applied once per step after the optimizer has written new weights.
      The momentum framework updates its key encoder and queue here; the
      others are no-ops.

Keeping ``forward_loss`` pure lets the finite-difference gradient checker
call it repeatedly without touching queues or momentum copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .encoder import MLP, ConvEncoder, EncoderConfig
from .hallucinator import (
    ExtrapolationConfig,
    HallucinatorParams,
    extrapolate,
    hallucinate,
    init_hallucinator,
    sample_lambda,
)
from .rng import substream
from .tensor import (
    Parameter,
    ShapeMismatchError,
    Tensor,
    add,
    concat,
    l2_normalize,
    matmul,
    mean,
    multiply,
    no_tape,
    scalar_multiply,
    softmax_cross_entropy,
    sum_,
    transpose,
)

FRAMEWORK_NAMES = ("moco", "simclr", "simsiam")


class QueueEmptyError(RuntimeError):
    """Raised when a loss needs negatives but the queue holds none."""


class FeatureQueue:
    """Fixed-capacity FIFO ring of detached feature rows.

    Rows are stored oldest-first from the reader's point of view: pushing
    into a full queue drops the oldest rows.  ``entries()`` always returns
    rows in insertion order regardless of where the ring pointer sits.
    """

    def __init__(self, capacity: int, dim: int):
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        if dim < 1:
            raise ValueError("queue dim must be >= 1")
        self.capacity = int(capacity)
        self.dim = int(dim)
        self._buf = np.zeros((self.capacity, self.dim), dtype=np.float64)
        self._ptr = 0
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def full(self) -> bool:
        return self._count == self.capacity

    def push(self, rows: np.ndarray) -> None:
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.dim:
            raise ShapeMismatchError("queue push", (-1, self.dim), rows.shape)
        if rows.shape[0] > self.capacity:
            # only the newest `capacity` rows can survive
            rows = rows[-self.capacity:]
        n = rows.shape[0]
        first = min(n, self.capacity - self._ptr)
        self._buf[self._ptr:self._ptr + first] = rows[:first]
        rest = n - first
        if rest:
            self._buf[:rest] = rows[first:]
        self._ptr = (self._ptr + n) % self.capacity
        self._count = min(self._count + n, self.capacity)

    def entries(self) -> np.ndarray:
        """Stored rows, oldest first.  Returns a copy."""
        if self._count < self.capacity:
            return self._buf[:self._count].copy()
        return np.concatenate([self._buf[self._ptr:], self._buf[:self._ptr]], axis=0)

    def state(self) -> dict:
        return {"entries": self.entries(), "capacity": self.capacity}

    def load_state(self, state: dict) -> None:
        entries = np.asarray(state["entries"], dtype=np.float64)
        if int(state["capacity"]) != self.capacity:
            raise ValueError(
                f"queue capacity mismatch: checkpoint {state['capacity']}, "
                f"config {self.capacity}"
            )
        if entries.shape[0] > self.capacity or (
            entries.size and entries.shape[1] != self.dim
        ):
            raise ShapeMismatchError("queue state", (-1, self.dim), entries.shape)
        self._buf[:] = 0.0
        n = entries.shape[0]
        if n:
            self._buf[:n] = entries
        self._count = n
        self._ptr = n % self.capacity


def infonce_loss(q: Tensor, k: Tensor, negatives: np.ndarray, tau: float) -> Tensor:
    """Softmax contrast of each query against its key and a bank of negatives.

    q, k: (B, d) L2-normalized rows; k carries no gradient.
    negatives: (K, d) constant bank, K >= 1.
    Row i sees logits [q_i.k_i, q_i.n_1, ..., q_i.n_K] / tau with label 0.
    """
    negatives = np.asarray(negatives, dtype=np.float64)
    if negatives.ndim != 2 or negatives.shape[0] < 1:
        raise QueueEmptyError("negative bank is empty; prime the queue first")
    if negatives.shape[1] != q.shape[1]:
        raise ShapeMismatchError("infonce negatives", (-1, q.shape[1]), negatives.shape)
    if tau <= 0:
        raise ValueError("tau must be > 0")
    l_pos = sum_(multiply(q, k), axis=1, keepdims=True)
    l_neg = matmul(q, Tensor(np.ascontiguousarray(negatives.T)))
    logits = scalar_multiply(concat([l_pos, l_neg], axis=1), 1.0 / tau)
    labels = np.zeros(q.shape[0], dtype=np.int64)
    return softmax_cross_entropy(logits, labels)


def ntxent_direction(
    anchors: Tensor, positives: Tensor, bank: Tensor, tau: float
) -> Tensor:
    """One direction of the in-batch contrastive loss.

    anchors, positives: (B, d) normalized rows, paired by index.
    bank: (2B, d) normalized rows laid out [view1; view2]; for anchor row i
    the bank columns i and B+i (its own two views) are masked out so the
    positive is counted exactly once and an anchor never contrasts with a
    feature derived from its own image.
    """
    b = anchors.shape[0]
    if bank.shape[0] != 2 * b:
        raise ShapeMismatchError("ntxent bank", (2 * b, anchors.shape[1]), bank.shape)
    if tau <= 0:
        raise ValueError("tau must be > 0")
    pos = sum_(multiply(anchors, positives), axis=1, keepdims=True)
    sims = matmul(anchors, transpose(bank))
    logits = scalar_multiply(concat([pos, sims], axis=1), 1.0 / tau)
    mask = np.zeros((b, 2 * b + 1), dtype=np.float64)
    idx = np.arange(b)
    mask[idx, 1 + idx] = -1e9
    mask[idx, 1 + b + idx] = -1e9
    logits = add(logits, Tensor(mask))
    return softmax_cross_entropy(logits, np.zeros(b, dtype=np.int64))


def ntxent_loss(a: Tensor, b: Tensor, bank: Tensor, tau: float) -> Tensor:
    """Symmetrized in-batch loss: a against b plus b against a, halved."""
    fwd = ntxent_direction(a, b, bank, tau)
    bwd = ntxent_direction(b, a, bank, tau)
    return scalar_multiply(add(fwd, bwd), 0.5)


def negative_cosine(p: Tensor, target: Tensor) -> Tensor:
    """Mean negative cosine similarity between paired rows.

    Both inputs are L2-normalized internally, so the value only depends on
    directions.  The caller detaches ``target`` when a stop-gradient is
    intended; this helper does not detach anything itself.
    """
    pn = l2_normalize(p, axis=-1)
    tn = l2_normalize(target, axis=-1)
    return scalar_multiply(mean(sum_(multiply(pn, tn), axis=1)), -1.0)


@dataclass
class FrameworkConfig:
    """Knobs shared by all frameworks; irrelevant fields are ignored."""

    temperature: float = 0.2
    momentum: float = 0.99
    queue_size: int = 1024
    hallucinator: bool = True
    hallucinator_layers: int = 3
    extrapolation: ExtrapolationConfig = field(default_factory=ExtrapolationConfig)
    pair_weight: float = 0.5
    predictor_hidden_divisor: int = 4
    hallucinate_after_predictor: bool = False

    def validate(self) -> None:
        if not self.temperature > 0:
            raise ValueError("temperature must be > 0")
        if not 0.0 <= self.momentum <= 1.0:
            raise ValueError("momentum must be in [0, 1]")
        if self.queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        if self.hallucinator_layers < 0:
            raise ValueError("hallucinator_layers must be >= 0")
        if not 0.0 <= self.pair_weight <= 1.0:
            raise ValueError("pair_weight must be in [0, 1]")
        if self.predictor_hidden_divisor < 1:
            raise ValueError("predictor_hidden_divisor must be >= 1")
        self.extrapolation.validate()


def _row_cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Mean cosine between paired rows of two already-normalized arrays."""
    return float(np.mean(np.sum(a * b, axis=1)))


class _FrameworkBase:
    name = "base"

    def __init__(self, enc_cfg: EncoderConfig, in_size: int,
                 cfg: FrameworkConfig, seed: int):
        enc_cfg.validate()
        cfg.validate()
        self.enc_cfg = enc_cfg
        self.cfg = cfg
        self.seed = int(seed)
        self.in_size = int(in_size)
        d = enc_cfg.feature_dim
        self.hall: HallucinatorParams | None = None
        if cfg.hallucinator:
            self.hall = init_hallucinator(
                d, cfg.hallucinator_layers, substream(seed, "hallucinator")
            )

    # -- shared hooks -------------------------------------------------

    def lambda_shape(self, batch_size: int) -> tuple[int, ...]:
        """Shape of the extrapolation draw consumed by one step."""
        return (batch_size,)

    def draw_lambdas(self, rng: np.random.Generator, batch_size: int):
        if not self.cfg.hallucinator:
            return None
        return sample_lambda(
            self.cfg.extrapolation, rng, size=self.lambda_shape(batch_size)
        )

    def after_update(self, aux: dict) -> None:
        return None

    def trainable_parameters(self) -> list[Parameter]:
        raise NotImplementedError

    def named_tensors(self) -> dict[str, np.ndarray]:
        """Every persistent array, keyed by a unique name (for checkpoints)."""
        raise NotImplementedError

    def forward_loss(self, x1, x2, lambdas):
        raise NotImplementedError

    # -- helpers ------------------------------------------------------

    def _hall_params(self) -> list[Parameter]:
        return self.hall.parameters() if self.hall is not None else []

    def _mix(self, plain: Tensor, extra: Tensor) -> Tensor:
        w = self.cfg.pair_weight
        return add(scalar_multiply(plain, 1.0 - w), scalar_multiply(extra, w))


class MoCoFramework(_FrameworkBase):
    """Momentum key encoder plus a FIFO queue of past key features.

    The key encoder starts as an exact copy of the query encoder and is
    never touched by the optimizer; ``after_update`` blends it toward the
    freshly updated query weights and enqueues the step's key features.
    """

    name = "moco"

    def __init__(self, enc_cfg: EncoderConfig, in_size: int,
                 cfg: FrameworkConfig, seed: int):
        super().__init__(enc_cfg, in_size, cfg, seed)
        self.query = ConvEncoder(enc_cfg, in_size, substream(seed, "encoder"),
                                 prefix="query")
        self.key = ConvEncoder(enc_cfg, in_size, substream(seed, "encoder"),
                               prefix="key")
        self.key.copy_from(self.query)
        self.queue = FeatureQueue(cfg.queue_size, enc_cfg.feature_dim)

    def trainable_parameters(self) -> list[Parameter]:
        return self.query.parameters() + self._hall_params()

    def named_tensors(self) -> dict[str, np.ndarray]:
        out = {p.name: p.data for p in self.query.parameters()}
        out.update({p.name: p.data for p in self.key.parameters()})
        out.update({p.name: p.data for p in self._hall_params()})
        return out

    def encode_keys(self, x: np.ndarray) -> np.ndarray:
        """Normalized key features of ``x``, computed without a tape.

        Training primes the empty queue with ``encode_keys(x2)`` of the
        first batch, i.e. with that batch's own keys, so at step 0 every
        positive key also sits among the negatives.
        """
        with no_tape():
            k = l2_normalize(self.key.forward(Tensor(np.asarray(x, dtype=np.float64))))
        return k.data.copy()

    def forward_loss(self, x1, x2, lambdas):
        q = l2_normalize(self.query.forward(Tensor(np.asarray(x1, dtype=np.float64))))
        # The key encoder is never trained by gradients: no tape to build.
        with no_tape():
            k = l2_normalize(self.key.forward(Tensor(np.asarray(x2, dtype=np.float64))))
        negatives = self.queue.entries()
        if negatives.shape[0] == 0:
            raise QueueEmptyError(
                "queue is empty; prime it with key features before the first step"
            )
        tau = self.cfg.temperature
        plain = infonce_loss(q, k, negatives, tau)
        diag = {
            "sim_qk": _row_cosine(q.data, k.data),
            "sim_qhat_k": _row_cosine(q.data, k.data),
            "lambda_mean": 0.0,
        }
        loss = plain
        if self.cfg.hallucinator:
            q_prime = extrapolate(q, k, lambdas)
            q_hat = l2_normalize(hallucinate(q, q_prime, self.hall))
            extra = infonce_loss(q_hat, k, negatives, tau)
            loss = self._mix(plain, extra)
            diag["sim_qhat_k"] = _row_cosine(q_hat.data, k.data)
            diag["lambda_mean"] = float(np.mean(lambdas))
        aux = {"keys": k.data.copy()}
        return loss, diag, aux

    def after_update(self, aux: dict) -> None:
        m = self.cfg.momentum
        if m == 0.0:
            for pk, pq in zip(self.key.parameters(), self.query.parameters()):
                pk.data[...] = pq.data
        elif m != 1.0:
            for pk, pq in zip(self.key.parameters(), self.query.parameters()):
                pk.data[...] = m * pk.data + (1.0 - m) * pq.data
        self.queue.push(aux["keys"])


class SimCLRFramework(_FrameworkBase):
    """Single encoder, in-batch negatives, symmetrized contrast."""

    name = "simclr"

    def __init__(self, enc_cfg: EncoderConfig, in_size: int,
                 cfg: FrameworkConfig, seed: int):
        super().__init__(enc_cfg, in_size, cfg, seed)
        self.encoder = ConvEncoder(enc_cfg, in_size, substream(seed, "encoder"),
                                   prefix="enc")

    def trainable_parameters(self) -> list[Parameter]:
        return self.encoder.parameters() + self._hall_params()

    def named_tensors(self) -> dict[str, np.ndarray]:
        out = {p.name: p.data for p in self.encoder.parameters()}
        out.update({p.name: p.data for p in self._hall_params()})
        return out

    def forward_loss(self, x1, x2, lambdas):
        b = np.asarray(x1).shape[0]
        if b < 2:
            raise ValueError("in-batch contrast needs batch size >= 2")
        z1 = l2_normalize(self.encoder.forward(Tensor(np.asarray(x1, dtype=np.float64))))
        z2 = l2_normalize(self.encoder.forward(Tensor(np.asarray(x2, dtype=np.float64))))
        bank = concat([z1, z2], axis=0)
        tau = self.cfg.temperature
        plain = ntxent_loss(z1, z2, bank, tau)
        diag = {
            "sim_qk": _row_cosine(z1.data, z2.data),
            "sim_qhat_k": _row_cosine(z1.data, z2.data),
            "lambda_mean": 0.0,
        }
        loss = plain
        if self.cfg.hallucinator:
            # z2 stays live here: gradients flow through both views.  The
            # synthesized anchor only ever plays the anchor/positive role;
            # the negative bank holds the two real views alone.
            q_prime = extrapolate(z1, z2, lambdas)
            q_hat = l2_normalize(hallucinate(z1, q_prime, self.hall))
            extra = ntxent_loss(q_hat, z2, bank, tau)
            loss = self._mix(plain, extra)
            diag["sim_qhat_k"] = _row_cosine(q_hat.data, z2.data)
            diag["lambda_mean"] = float(np.mean(lambdas))
        return loss, diag, {}


class SimSiamFramework(_FrameworkBase):
    """Single encoder with a predictor head and stop-gradient targets."""

    name = "simsiam"

    def __init__(self, enc_cfg: EncoderConfig, in_size: int,
                 cfg: FrameworkConfig, seed: int):
        super().__init__(enc_cfg, in_size, cfg, seed)
        self.encoder = ConvEncoder(enc_cfg, in_size, substream(seed, "encoder"),
                                   prefix="enc")
        d = enc_cfg.feature_dim
        hidden = max(1, d // cfg.predictor_hidden_divisor)
        self.predictor = MLP(d, hidden, d, substream(seed, "predictor"),
                             prefix="pred", bias_init=0.1)

    def lambda_shape(self, batch_size: int) -> tuple[int, ...]:
        # one draw per row per symmetrized direction
        return (2, batch_size)

    def trainable_parameters(self) -> list[Parameter]:
        return (self.encoder.parameters() + self.predictor.parameters()
                + self._hall_params())

    def named_tensors(self) -> dict[str, np.ndarray]:
        out = {p.name: p.data for p in self.encoder.parameters()}
        out.update({p.name: p.data for p in self.predictor.parameters()})
        out.update({p.name: p.data for p in self._hall_params()})
        return out

    def target_features(self, x1, x2) -> tuple[np.ndarray, np.ndarray]:
        """Stop-gradient targets for each direction, as plain arrays.

        Finite-difference checks must hold these fixed while weights are
        perturbed; the analytic gradient already treats them as constants,
        so differencing the raw loss would measure a different function.
        """
        with no_tape():
            z1 = self.encoder.forward(Tensor(np.asarray(x1, dtype=np.float64)))
            z2 = self.encoder.forward(Tensor(np.asarray(x2, dtype=np.float64)))
        return z2.data.copy(), z1.data.copy()

    def _direction(self, za: Tensor, target: Tensor, lams):
        p = self.predictor.forward(za)
        plain = negative_cosine(p, target)
        if not self.cfg.hallucinator:
            return plain, None
        if self.cfg.hallucinate_after_predictor:
            q_prime = extrapolate(p, target, lams)
            q_hat = hallucinate(p, q_prime, self.hall)
            extra = negative_cosine(q_hat, target)
        else:
            q_prime = extrapolate(za, target, lams)
            q_hat = hallucinate(za, q_prime, self.hall)
            extra = negative_cosine(self.predictor.forward(q_hat), target)
        qh = q_hat.data / np.linalg.norm(q_hat.data, axis=1, keepdims=True)
        tn = target.data / np.linalg.norm(target.data, axis=1, keepdims=True)
        return self._mix(plain, extra), _row_cosine(qh, tn)

    def forward_loss(self, x1, x2, lambdas, frozen_targets=None):
        z1 = self.encoder.forward(Tensor(np.asarray(x1, dtype=np.float64)))
        z2 = self.encoder.forward(Tensor(np.asarray(x2, dtype=np.float64)))
        if frozen_targets is None:
            t1, t2 = z2.detach(), z1.detach()
        else:
            t1, t2 = Tensor(frozen_targets[0]), Tensor(frozen_targets[1])
        if self.cfg.hallucinator:
            lams_a, lams_b = lambdas[0], lambdas[1]
        else:
            lams_a = lams_b = None
        fwd, sim_a = self._direction(z1, t1, lams_a)
        bwd, sim_b = self._direction(z2, t2, lams_b)
        loss = scalar_multiply(add(fwd, bwd), 0.5)
        z1n = z1.data / np.linalg.norm(z1.data, axis=1, keepdims=True)
        z2n = z2.data / np.linalg.norm(z2.data, axis=1, keepdims=True)
        sim_qk = _row_cosine(z1n, z2n)
        diag = {
            "sim_qk": sim_qk,
            "sim_qhat_k": (0.5 * (sim_a + sim_b) if sim_a is not None else sim_qk),
            "lambda_mean": float(np.mean(lambdas)) if self.cfg.hallucinator else 0.0,
        }
        return loss, diag, {}


def build_framework(name: str, enc_cfg: EncoderConfig, in_size: int,
                    cfg: FrameworkConfig, seed: int) -> _FrameworkBase:
    table = {
        "moco": MoCoFramework,
        "simclr": SimCLRFramework,
        "simsiam": SimSiamFramework,
    }
    if name not in table:
        raise ValueError(
            f"unknown framework '{name}'; expected one of {sorted(table)}"
        )
    return table[name](enc_cfg, in_size, cfg, seed)
