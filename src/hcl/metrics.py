"""Representation diagnostics: cosine alignment, uniformity, 2-D maps, probe.

The uniformity score is the mean Gaussian potential exp(-t * ||u - v||^2)
over pairs of L2-normalized features.  Lower means more uniformly spread;
points drawn uniformly on the unit circle approach exp(-2t) * I0(2t),
about 0.207 at t = 2.  Pairs can be all distinct feature pairs (spread of
the whole embedding) or aligned view pairs (tightness of positives).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import substream
from .tensor import Parameter, Tensor, add, matmul, softmax_cross_entropy
from .train import SGD


def _normalize_rows(x: np.ndarray, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"{what} must be 2-D (n, d), got shape {x.shape}")
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError(f"{what} contains a zero vector; cannot normalize")
    return x / norms


@dataclass(frozen=True)
class UniformityReport:
    value: float
    t: float
    n_samples: int
    n_pairs: int
    mode: str


def uniformity(features: np.ndarray, t: float = 2.0,
               block: int = 512) -> UniformityReport:
    """Mean exp(-t ||u_i - u_j||^2) over all distinct unordered row pairs.

    Rows are normalized internally.  Work proceeds in blocks so memory
    stays O(block * n) regardless of n.
    """
    if t <= 0:
        raise ValueError("t must be > 0")
    u = _normalize_rows(features, "features")
    n = u.shape[0]
    if n < 2:
        raise ValueError("uniformity needs at least 2 samples")
    total = 0.0
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        # squared distance via the normalized-feature identity 2 - 2 u.v
        sims = u[lo:hi] @ u.T
        g = np.exp(-t * np.clip(2.0 - 2.0 * sims, 0.0, None))
        rows = np.arange(lo, hi)
        g[rows - lo, rows] = 0.0  # drop self pairs
        total += float(g.sum())
    n_pairs = n * (n - 1) // 2
    value = total / (2.0 * n_pairs)
    return UniformityReport(value, float(t), n, n_pairs, "all")


def uniformity_positive(features_a: np.ndarray, features_b: np.ndarray,
                        t: float = 2.0) -> UniformityReport:
    """Mean exp(-t ||u_i - v_i||^2) over aligned row pairs (two views)."""
    if t <= 0:
        raise ValueError("t must be > 0")
    ua = _normalize_rows(features_a, "features_a")
    ub = _normalize_rows(features_b, "features_b")
    if ua.shape != ub.shape:
        raise ValueError(f"paired inputs differ in shape: {ua.shape} vs {ub.shape}")
    d2 = np.sum((ua - ub) ** 2, axis=1)
    value = float(np.mean(np.exp(-t * d2)))
    return UniformityReport(value, float(t), ua.shape[0], ua.shape[0], "positive")


def project_2d(features: np.ndarray, seed: int) -> np.ndarray:
    """Deterministic 2-D unit-norm view of features for plotting.

    Features already in 2-D are only normalized; otherwise rows are
    projected onto a seeded random orthonormal pair of directions first.
    Rows that land on the origin are an error, as everywhere else.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"features must be 2-D (n, d), got shape {x.shape}")
    if x.shape[1] < 2:
        raise ValueError("features must have at least 2 dimensions")
    if x.shape[1] > 2:
        rng = substream(seed, "project2d")
        basis = rng.normal(size=(x.shape[1], 2))
        q, r = np.linalg.qr(basis)
        q = q * np.sign(np.diag(r))  # fix QR sign ambiguity
        x = x @ q
    return _normalize_rows(x, "projected features")


@dataclass(frozen=True)
class ProbeResult:
    top1: float
    per_class: np.ndarray
    n_train: int
    n_val: int
    final_lr: float
    train_loss: float


def linear_probe(features: np.ndarray, labels: np.ndarray, seed: int,
                 epochs: int = 20, lr: float = 0.3, momentum: float = 0.9,
                 weight_decay: float = 0.0, batch_size: int = 64,
                 val_fraction: float = 0.2) -> ProbeResult:
    """Fit a linear classifier on frozen features; report validation Top-1.

    The learning rate drops by 10x at 60% and 80% of the epoch budget.
    Features are treated as read-only; the split and all shuffles are
    seeded, so results are reproducible.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ValueError(f"features (n, d) and labels (n,) required, "
                         f"got {x.shape} and {y.shape}")
    if not 0.0 < val_fraction < 1.0:
        raise ValueError("val_fraction must be in (0, 1)")
    n, d = x.shape
    classes = int(y.max()) + 1
    if y.min() < 0:
        raise ValueError("labels must be non-negative")
    perm = substream(seed, "probe-split").permutation(n)
    n_val = max(1, int(round(n * val_fraction)))
    n_train = n - n_val
    if n_train < 1:
        raise ValueError("probe split leaves no training samples")
    train_idx, val_idx = perm[:n_train], perm[n_train:]

    w = Parameter(np.zeros((d, classes)), "probe.w")
    b = Parameter(np.zeros(classes), "probe.b")
    opt = SGD([w, b], momentum=momentum, weight_decay=weight_decay)
    milestones = {int(np.floor(epochs * 0.6)), int(np.floor(epochs * 0.8))}
    current_lr = lr
    last_loss = float("nan")
    for epoch in range(epochs):
        if epoch in milestones:
            current_lr *= 0.1
        order = substream(seed, "probe-shuffle", epoch).permutation(n_train)
        for lo in range(0, n_train, batch_size):
            sel = train_idx[order[lo:lo + batch_size]]
            logits = add(matmul(Tensor(x[sel]), w), b)
            loss = softmax_cross_entropy(logits, y[sel])
            opt.zero_grad()
            loss.backward()
            opt.step(current_lr)
            last_loss = float(loss.data)

    logits_val = x[val_idx] @ w.data + b.data
    pred = logits_val.argmax(axis=1)
    truth = y[val_idx]
    top1 = float(np.mean(pred == truth))
    per_class = np.zeros(classes)
    for c in range(classes):
        mask = truth == c
        per_class[c] = float(np.mean(pred[mask] == c)) if mask.any() else float("nan")
    return ProbeResult(top1, per_class, n_train, len(val_idx), current_lr, last_loss)


def write_report(path, entries: list[tuple[str, float, float | None, int]]) -> None:
    """CSV of (metric, value, t, n_samples) rows; t is blank when unused."""
    path = Path(path)
    lines = ["metric,value,t,n_samples"]
    for metric, value, t, n_samples in entries:
        t_txt = repr(float(t)) if t is not None else ""
        lines.append(f"{metric},{repr(float(value))},{t_txt},{n_samples}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
