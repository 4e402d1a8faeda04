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

  prime(x)
      Called once before step 0 with the first batch's second views.  The
      momentum framework fills its empty queue with their keys; the others
      are no-ops.

  state_arrays() / load_state_arrays(arrays)
      Every persistent array by unique name (``named_tensors()`` plus the
      momentum framework's ``queue.entries``), and the one restore path
      that checks every array, the queue too, before writing any.

  feature_encoder
      The encoder whose features downstream evaluation uses.

  loss_closure(x1, x2, lambdas)
      The loss as a function of the weights alone, for finite differences;
      the stop-gradient framework holds its targets fixed in it.

Keeping ``forward_loss`` pure lets the finite-difference gradient checker
call it repeatedly without touching queues or momentum copies.  A new
recipe is one subclass (its encoders, ``trainable_parameters`` and
``forward_loss``) plus its entry in ``FRAMEWORKS``; a contrastive one
supplies its normalized features and its loss head to ``_contrast``,
which adds the hallucinated positive.  SimSiam keeps its own branch.

MoCo's negatives sit in a ``FeatureQueue``: one read-only array of past
keys, oldest first, replaced on each push and shape-checked by ``load``.
``embed`` is the one no-tape path to unit-norm features.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .checkpoint import load_named
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

# SimSiam's predictor bottleneck: hidden width feature_dim // 4.
PREDICTOR_HIDDEN_DIVISOR = 4


class QueueEmptyError(RuntimeError):
    """Raised when a loss needs negatives but the queue holds none."""


class FeatureQueue:
    """Fixed-capacity FIFO of detached feature rows.

    The rows are one read-only ``(n, dim)`` array, oldest row first, with
    ``n <= capacity``.  A push builds a new array and keeps its newest
    ``capacity`` rows; nothing is written in place, so an array that
    ``entries()`` returned never changes under its holder.
    """

    def __init__(self, capacity: int, dim: int):
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        if dim < 1:
            raise ValueError("queue dim must be >= 1")
        self.capacity = int(capacity)
        self.dim = int(dim)
        self.load(np.zeros((0, self.dim)))

    def __len__(self) -> int:
        return self._rows.shape[0]

    def load(self, rows: np.ndarray) -> None:
        """Replace the contents with a copy of ``rows``, oldest first,
        after checking it is 2-D with ``dim`` columns and at most
        ``capacity`` rows."""
        rows = np.array(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.dim or rows.shape[0] > self.capacity:
            raise ShapeMismatchError(f"queue of capacity {self.capacity}",
                                     (-1, self.dim), rows.shape)
        rows.flags.writeable = False
        self._rows = rows

    def push(self, rows: np.ndarray) -> None:
        """Append ``(k, dim)`` rows; past capacity the oldest rows drop out."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.dim:
            raise ShapeMismatchError("queue push", (-1, self.dim), rows.shape)
        self.load(np.concatenate([self._rows, rows])[-self.capacity:])

    def entries(self) -> np.ndarray:
        """Stored rows, oldest first, as the queue's own read-only array."""
        return self._rows


def embed(encoder: ConvEncoder, x) -> np.ndarray:
    """Unit-norm features of the images ``x``, computed without a tape."""
    with no_tape():
        return l2_normalize(encoder.forward(Tensor(x))).data


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
    directions.  For a stop-gradient the caller passes ``target`` as a
    leaf on its values, ``Tensor(z.data)``; this helper adds none itself.
    """
    pn = l2_normalize(p, axis=-1)
    tn = l2_normalize(target, axis=-1)
    return scalar_multiply(mean(sum_(multiply(pn, tn), axis=1)), -1.0)


@dataclass
class FrameworkConfig:
    """The config's ``contrast`` and ``hallucinator`` sections, whose keys
    ``hcl.config`` maps to these fields; irrelevant fields are ignored."""

    temperature: float = 0.2
    momentum: float = 0.99
    queue_size: int = 1024
    hallucinator: bool = True
    hallucinator_layers: int = 3
    extrapolation: ExtrapolationConfig = field(default_factory=ExtrapolationConfig)
    pair_weight: float = 0.5
    hallucinate_after_predictor: bool = False

    def validate(self) -> None:
        if not self.temperature > 0:
            raise ValueError("contrast.temperature must be > 0")
        if not 0.0 <= self.momentum <= 1.0:
            raise ValueError("contrast.momentum must be in [0, 1]")
        if self.queue_size < 1:
            raise ValueError("contrast.queue_size must be >= 1")
        if self.hallucinator_layers < 0:
            raise ValueError("hallucinator.layers must be >= 0")
        if not 0.0 <= self.pair_weight <= 1.0:
            raise ValueError("hallucinator.pair_weight must be in [0, 1]")
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
        self.cfg = cfg
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

    def prime(self, x) -> None:
        return None

    @property
    def feature_encoder(self) -> ConvEncoder:
        return self.encoder

    def trainable_parameters(self) -> list[Parameter]:
        raise NotImplementedError

    def named_tensors(self) -> dict[str, np.ndarray]:
        """Every weight array, keyed by its unique parameter name."""
        return {p.name: p.data for p in self.trainable_parameters()}

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Every persistent array, keyed by a unique name (for checkpoints)."""
        return self.named_tensors()

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy saved arrays into the weights, after checking that each
        one is present with the right shape."""
        load_named(self.named_tensors(), arrays, "tensor")

    def forward_loss(self, x1, x2, lambdas):
        raise NotImplementedError

    def loss_closure(self, x1, x2, lambdas):
        """The scalar loss as a function of the current weights alone, the
        function its analytic gradient differentiates (for finite
        differences)."""
        return lambda: self.forward_loss(x1, x2, lambdas)[0]

    # -- helpers ------------------------------------------------------

    def _hall_params(self) -> list[Parameter]:
        return self.hall.parameters() if self.hall is not None else []

    def _mix(self, plain: Tensor, extra: Tensor) -> Tensor:
        w = self.cfg.pair_weight
        return add(scalar_multiply(plain, 1.0 - w), scalar_multiply(extra, w))

    def _contrast(self, q: Tensor, k: Tensor, lambdas, head):
        """(loss, diagnostics): ``head(q)``, mixed with ``head(q_hat)`` when
        the hallucinator is on; q_hat is the normalized hallucination of q
        pushed away from its positive k, and only ever replaces q."""
        plain = head(q)
        sim_qk = _row_cosine(q.data, k.data)
        diag = {"sim_qk": sim_qk, "sim_qhat_k": sim_qk, "lambda_mean": 0.0}
        if not self.cfg.hallucinator:
            return plain, diag
        q_hat = l2_normalize(hallucinate(q, extrapolate(q, k, lambdas), self.hall))
        diag["sim_qhat_k"] = _row_cosine(q_hat.data, k.data)
        diag["lambda_mean"] = float(np.mean(lambdas))
        return self._mix(plain, head(q_hat)), diag


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

    @property
    def feature_encoder(self) -> ConvEncoder:
        return self.query

    def prime(self, x) -> None:
        self.queue.push(self.encode_keys(x))

    def trainable_parameters(self) -> list[Parameter]:
        return self.query.parameters() + self._hall_params()

    def named_tensors(self) -> dict[str, np.ndarray]:
        out = super().named_tensors()
        out.update({p.name: p.data for p in self.key.parameters()})
        return out

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {**self.named_tensors(), "queue.entries": self.queue.entries()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """The queue and the weights, each checked before either is written."""
        if "queue.entries" not in arrays:
            raise KeyError("checkpoint is missing queue.entries")
        queue = FeatureQueue(self.queue.capacity, self.queue.dim)
        queue.load(arrays["queue.entries"])
        super().load_state_arrays(arrays)
        self.queue = queue

    def encode_keys(self, x: np.ndarray) -> np.ndarray:
        """Normalized key features of ``x``, computed without a tape; the
        one path to keys, for ``forward_loss`` and ``prime``.

        Training calls ``prime(x2)`` on the first batch, which fills the
        empty queue with that batch's own keys, so at step 0 every
        positive key also sits among the negatives.
        """
        return embed(self.key, x)

    def forward_loss(self, x1, x2, lambdas):
        q = l2_normalize(self.query.forward(Tensor(x1)))
        # The key encoder is never trained by gradients: no tape to build.
        k = Tensor(self.encode_keys(x2))
        negatives = self.queue.entries()
        tau = self.cfg.temperature
        loss, diag = self._contrast(q, k, lambdas,
                                    lambda a: infonce_loss(a, k, negatives, tau))
        return loss, diag, {"keys": k.data}

    def after_update(self, aux: dict) -> None:
        m = self.cfg.momentum
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

    def forward_loss(self, x1, x2, lambdas):
        b = np.asarray(x1).shape[0]
        if b < 2:
            raise ValueError("in-batch contrast needs batch size >= 2")
        z1 = l2_normalize(self.encoder.forward(Tensor(x1)))
        z2 = l2_normalize(self.encoder.forward(Tensor(x2)))
        bank = concat([z1, z2], axis=0)
        tau = self.cfg.temperature
        # z2 stays live, also in the extrapolation; the negative bank holds
        # the two real views alone.
        loss, diag = self._contrast(z1, z2, lambdas,
                                    lambda a: ntxent_loss(a, z2, bank, tau))
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
        hidden = max(1, d // PREDICTOR_HIDDEN_DIVISOR)
        self.predictor = MLP(d, hidden, d, substream(seed, "predictor"), prefix="pred")

    def lambda_shape(self, batch_size: int) -> tuple[int, ...]:
        # one draw per row per symmetrized direction
        return (2, batch_size)

    def trainable_parameters(self) -> list[Parameter]:
        return (self.encoder.parameters() + self.predictor.parameters()
                + self._hall_params())

    def target_features(self, x1, x2) -> tuple[np.ndarray, np.ndarray]:
        """Stop-gradient targets for each direction, as plain arrays.

        Finite-difference checks must hold these fixed while weights are
        perturbed; the analytic gradient already treats them as constants,
        so differencing the raw loss would measure a different function.
        """
        with no_tape():
            z1 = self.encoder.forward(Tensor(x1))
            z2 = self.encoder.forward(Tensor(x2))
        return z2.data.copy(), z1.data.copy()

    def loss_closure(self, x1, x2, lambdas):
        frozen = self.target_features(x1, x2)
        return lambda: self.forward_loss(x1, x2, lambdas, frozen_targets=frozen)[0]

    def _direction(self, za: Tensor, target: Tensor, lams):
        p = self.predictor.forward(za)
        plain = negative_cosine(p, target)
        if not self.cfg.hallucinator:
            return plain, None
        after = self.cfg.hallucinate_after_predictor
        q = p if after else za
        q_hat = hallucinate(q, extrapolate(q, target, lams), self.hall)
        extra = negative_cosine(q_hat if after else self.predictor.forward(q_hat), target)
        qh = q_hat.data / np.linalg.norm(q_hat.data, axis=1, keepdims=True)
        tn = target.data / np.linalg.norm(target.data, axis=1, keepdims=True)
        return self._mix(plain, extra), _row_cosine(qh, tn)

    def forward_loss(self, x1, x2, lambdas, frozen_targets=None):
        z1 = self.encoder.forward(Tensor(x1))
        z2 = self.encoder.forward(Tensor(x2))
        if frozen_targets is None:
            t1, t2 = Tensor(z2.data), Tensor(z1.data)
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


FRAMEWORKS = {cls.name: cls for cls in (MoCoFramework, SimCLRFramework, SimSiamFramework)}
FRAMEWORK_NAMES = tuple(FRAMEWORKS)


def build_framework(name: str, enc_cfg: EncoderConfig, in_size: int,
                    cfg: FrameworkConfig, seed: int) -> _FrameworkBase:
    if name not in FRAMEWORKS:
        raise ValueError(
            f"unknown framework '{name}'; expected one of {sorted(FRAMEWORKS)}"
        )
    return FRAMEWORKS[name](enc_cfg, in_size, cfg, seed)
