"""Pretraining loop: seeded batches, SGD with cosine schedule, CSV metrics.

Every random draw comes from a counter-based substream keyed by what the
draw is for (shuffle of epoch e, augmentation of sample i in epoch e,
extrapolation weights of step s), never from a shared sequential stream.
Consequently runs are bitwise reproducible, a sample's views do not
depend on the batch it lands in, and resuming from a checkpoint continues
the exact run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .augment import AugmentConfig, augment_batch, eval_view, to_unit_float_batch
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ExperimentConfig
from .data import DatasetRecord
from .frameworks import MoCoFramework, build_framework, _FrameworkBase
from .rng import substream
from .tensor import NonFiniteError, Parameter

METRICS_HEADER = "step,epoch,loss,sim_qk,sim_qhat_k,lambda_mean,lr"


class SGD:
    """Momentum SGD with decoupled-from-nothing classic weight decay.

    update per parameter:  v <- mu * v + (grad + wd * theta)
                           theta <- theta - lr * v
    Velocity buffers are keyed by parameter name so they can be saved
    and restored exactly.
    """

    def __init__(self, params: list[Parameter], momentum: float = 0.9,
                 weight_decay: float = 0.0):
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if weight_decay < 0.0:
            raise ValueError("weight_decay must be >= 0")
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")
        self.params = list(params)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.velocity = {p.name: np.zeros_like(p.data) for p in self.params}

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self, lr: float) -> None:
        for p in self.params:
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            v = self.velocity[p.name]
            v *= self.momentum
            v += g
            p.data -= lr * v

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {f"opt.v.{name}": buf for name, buf in self.velocity.items()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        for name, buf in self.velocity.items():
            key = f"opt.v.{name}"
            if key not in arrays:
                raise KeyError(f"checkpoint is missing optimizer state {key}")
            if arrays[key].shape != buf.shape:
                raise ValueError(f"optimizer state {key} has wrong shape")
            buf[...] = arrays[key]


def cosine_lr(base_lr: float, step: int, total_steps: int) -> float:
    """Half-cosine decay from base_lr at step 0 toward 0 at total_steps."""
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    return base_lr * 0.5 * (1.0 + float(np.cos(np.pi * step / total_steps)))


def build_batch(records: list[DatasetRecord], indices: np.ndarray,
                aug_cfg: AugmentConfig, seed: int,
                epoch: int) -> tuple[np.ndarray, np.ndarray]:
    """Augmented view batches (B, 3, S, S) for the given dataset indices.

    Each sample's randomness is keyed by (seed, epoch, dataset index), so
    a sample's views do not depend on the batch or its position in it.
    """
    rngs = [substream(seed, "augment", epoch, int(i)) for i in indices]
    v1, v2 = augment_batch([records[i].image for i in indices], aug_cfg, rngs)
    return to_unit_float_batch(v1), to_unit_float_batch(v2)


def metrics_row(step: int, epoch: int, loss: float, diag: dict, lr: float) -> str:
    """One CSV row; floats keep full precision so files compare bitwise."""
    return ",".join([
        str(step),
        str(epoch),
        repr(float(loss)),
        repr(float(diag["sim_qk"])),
        repr(float(diag["sim_qhat_k"])),
        repr(float(diag["lambda_mean"])),
        repr(float(lr)),
    ])


@dataclass
class TrainResult:
    framework: _FrameworkBase
    rows: list[str]
    global_step: int
    checkpoint_path: Path | None
    metrics_path: Path | None


def _framework_state(fw: _FrameworkBase, opt: SGD) -> dict[str, np.ndarray]:
    arrays = dict(fw.named_tensors())
    arrays.update(opt.state_arrays())
    if isinstance(fw, MoCoFramework):
        arrays["queue.entries"] = fw.queue.entries()
    return arrays


def _restore_framework(fw: _FrameworkBase, opt: SGD,
                       arrays: dict[str, np.ndarray], meta: dict) -> None:
    tensors = fw.named_tensors()
    for name, arr in tensors.items():
        if name not in arrays:
            raise KeyError(f"checkpoint is missing tensor {name}")
        if arrays[name].shape != arr.shape:
            raise ValueError(f"checkpoint tensor {name} has wrong shape")
        arr[...] = arrays[name]
    opt.load_state_arrays(arrays)
    if isinstance(fw, MoCoFramework):
        fw.queue.load_state({
            "entries": arrays.get("queue.entries",
                                  np.zeros((0, fw.enc_cfg.feature_dim))),
            "capacity": fw.queue.capacity,
        })


def save_training_checkpoint(path, fw: _FrameworkBase, opt: SGD,
                             cfg: ExperimentConfig, global_step: int,
                             next_epoch: int) -> None:
    meta = {
        "format": 1,
        "framework": fw.name,
        "seed": cfg.seed,
        "global_step": global_step,
        "next_epoch": next_epoch,
        "config": cfg.resolved_dict(),
    }
    save_checkpoint(path, _framework_state(fw, opt), meta)


def _flatten(tree: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in tree.items():
        if isinstance(value, dict):
            out.update(_flatten(value, f"{prefix}{key}."))
        else:
            out[f"{prefix}{key}"] = value
    return out


def _check_resume_config(meta: dict, cfg: ExperimentConfig) -> None:
    """Reject a resume whose configuration differs from the checkpoint's.

    Only ``train.epochs`` may change, so that a finished run can be
    extended; any other difference would continue a different run.  The
    error names every differing key in dotted form, e.g. ``train.lr``.
    """
    if "config" not in meta:
        raise ValueError("checkpoint has no embedded config to resume from")
    saved = _flatten(meta["config"])
    # a JSON round trip gives both sides the checkpoint's types
    current = _flatten(json.loads(json.dumps(cfg.resolved_dict())))
    missing = object()
    drift = [f"{key}: checkpoint {saved.get(key)!r}, configured {current.get(key)!r}"
             for key in sorted(saved.keys() | current.keys())
             if key != "train.epochs"
             and saved.get(key, missing) != current.get(key, missing)]
    if drift:
        raise ValueError("resume config does not match checkpoint: " + "; ".join(drift))


def _truncate_metrics(path: Path, global_step: int) -> None:
    """Keep the header and the rows of steps before ``global_step``.

    Resuming re-runs every step from the checkpoint on, so rows that an
    earlier run wrote past the checkpoint would otherwise appear twice.
    A last line cut short by a crash is dropped with them.
    """
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    rows = [ln for ln in lines[1:]
            if ln.endswith("\n") and int(ln.split(",", 1)[0]) < global_step]
    path.write_text("".join(lines[:1] + rows), encoding="utf-8")


def pretrain(cfg: ExperimentConfig, records: list[DatasetRecord],
             out_dir, resume=None, log=None) -> TrainResult:
    """Run the configured pretraining and return the trained framework.

    Writes ``metrics.csv`` (header plus one row per executed step) and a
    final ``checkpoint.hcl`` under ``out_dir``.  ``resume`` names an
    earlier checkpoint; training continues from its epoch boundary and
    produces rows identical to the uninterrupted run.  An existing
    ``metrics.csv`` is first cut back to the rows before the checkpoint.
    The configuration must equal the checkpoint's except ``train.epochs``.

    MoCo's queue starts empty and is primed before step 0 with the first
    batch's own keys, ``encode_keys(x2)``, so every positive key also sits
    among the step-0 negatives.
    """
    cfg.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = cfg.seed
    tc = cfg.train
    aug_cfg = cfg.augment.to_augment_config()
    fw = build_framework(cfg.framework, cfg.encoder.to_encoder_config(),
                         cfg.augment.out_size, cfg.framework_config(), seed)
    opt = SGD(fw.trainable_parameters(), momentum=tc.sgd_momentum,
              weight_decay=tc.weight_decay)

    batch = tc.batch_size
    if len(records) < batch:
        raise ValueError(
            f"dataset has {len(records)} records, fewer than batch_size {batch}"
        )
    steps_per_epoch = len(records) // batch
    total_steps = tc.epochs * steps_per_epoch

    global_step = 0
    start_epoch = 0
    if resume is not None:
        arrays, meta = load_checkpoint(resume)
        _check_resume_config(meta, cfg)
        _restore_framework(fw, opt, arrays, meta)
        global_step = int(meta["global_step"])
        start_epoch = int(meta["next_epoch"])

    rows: list[str] = []
    metrics_path = out_dir / tc.metrics_path
    mode = "a" if resume is not None and metrics_path.exists() else "w"
    if mode == "a":
        _truncate_metrics(metrics_path, global_step)
    ckpt_path = out_dir / "checkpoint.hcl"
    with open(metrics_path, mode, encoding="utf-8") as mf:
        if mode == "w":
            mf.write(METRICS_HEADER + "\n")
        for epoch in range(start_epoch, tc.epochs):
            perm = substream(seed, "shuffle", epoch).permutation(len(records))
            for step in range(steps_per_epoch):
                idx = perm[step * batch:(step + 1) * batch]
                x1, x2 = build_batch(records, idx, aug_cfg, seed, epoch)
                if isinstance(fw, MoCoFramework) and global_step == 0:
                    fw.queue.push(fw.encode_keys(x2))
                lam_rng = substream(seed, "lambda", epoch, step)
                lambdas = fw.draw_lambdas(lam_rng, batch)
                lr = cosine_lr(tc.lr, global_step, total_steps)
                try:
                    loss, diag, aux = fw.forward_loss(x1, x2, lambdas)
                except NonFiniteError as exc:
                    raise NonFiniteError(
                        f"step {global_step}: {exc}", "loss"
                    ) from exc
                loss_val = float(loss.data)
                if not np.isfinite(loss_val):
                    raise NonFiniteError(f"step {global_step} loss", "loss")
                opt.zero_grad()
                loss.backward()
                opt.step(lr)
                fw.after_update(aux)
                # Free this step's tape before the next batch is built.
                del loss, aux
                row = metrics_row(global_step, epoch, loss_val, diag, lr)
                rows.append(row)
                mf.write(row + "\n")
                global_step += 1
            if log is not None:
                log(f"epoch {epoch}: loss {loss_val:.6f} "
                    f"sim_qk {diag['sim_qk']:.4f} lr {lr:.5f}")
            done = epoch + 1
            if tc.checkpoint_every and done % tc.checkpoint_every == 0:
                mf.flush()  # rows before a checkpoint survive a crash after it
                save_training_checkpoint(
                    out_dir / f"checkpoint_ep{done}.hcl", fw, opt, cfg,
                    global_step, done)
        mf.flush()
    save_training_checkpoint(ckpt_path, fw, opt, cfg, global_step, tc.epochs)
    return TrainResult(fw, rows, global_step, ckpt_path, metrics_path)


def load_pretrained(ckpt_path) -> tuple[_FrameworkBase, ExperimentConfig]:
    """Rebuild a framework from a checkpoint's embedded config and weights.

    The architecture always matches the stored tensors because it comes
    from the same file; the optimizer state is ignored.
    """
    from .config import config_from_dict

    arrays, meta = load_checkpoint(ckpt_path)
    if "config" not in meta:
        raise ValueError(f"{ckpt_path}: checkpoint has no embedded config")
    cfg = config_from_dict(meta["config"])
    fw = build_framework(cfg.framework, cfg.encoder.to_encoder_config(),
                         cfg.augment.out_size, cfg.framework_config(), cfg.seed)
    for name, arr in fw.named_tensors().items():
        if name not in arrays:
            raise KeyError(f"checkpoint is missing tensor {name}")
        if arrays[name].shape != arr.shape:
            raise ValueError(f"checkpoint tensor {name} has wrong shape")
        arr[...] = arrays[name]
    if isinstance(fw, MoCoFramework) and "queue.entries" in arrays:
        fw.queue.load_state({"entries": arrays["queue.entries"],
                             "capacity": fw.queue.capacity})
    return fw, cfg


def encoder_of(fw: _FrameworkBase):
    """The encoder whose features downstream evaluation uses."""
    return fw.query if isinstance(fw, MoCoFramework) else fw.encoder


def extract_features(fw: _FrameworkBase, records: list[DatasetRecord],
                     out_size: int, batch: int = 64,
                     normalize: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic features and labels for probing and diagnostics.

    Images are resized (never randomly cropped), encoded, and optionally
    L2-normalized.  Weights are read, not written.
    """
    from .tensor import Tensor, l2_normalize, no_tape

    enc = encoder_of(fw)
    feats = []
    labels = np.array([r.label for r in records], dtype=np.int64)
    for lo in range(0, len(records), batch):
        chunk = records[lo:lo + batch]
        x = np.stack([eval_view(r.image, out_size) for r in chunk])
        with no_tape():
            z = enc.forward(Tensor(x))
            if normalize:
                z = l2_normalize(z)
        feats.append(z.data.copy())
    return np.concatenate(feats, axis=0), labels
