"""Command-line entry points.

Subcommands: gen-data, pretrain, probe, metrics, gradcheck.  Every
command that produces outputs also writes ``resolved_config.json`` (the
fully expanded configuration) beside them; re-running from that echo
reproduces the run byte for byte.  Seed precedence is CLI flag over
config file over the built-in default.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .augment import augment_batch, to_unit_float_batch
from .config import ConfigError, ExperimentConfig, load_config
from .data import generate_synthetic, load_cifar_batch
from .gradcheck import TOLERANCE, framework_gradcheck_suite, op_gradcheck_suite
from .metrics import (linear_probe, project_2d, uniformity,
                      uniformity_positive, write_report)
from .rng import substream
from .tensor import NonFiniteError, Tensor, l2_normalize, no_tape
from .train import (encoder_of, extract_features, load_pretrained, pretrain)


def _write_echo(out_dir: Path, cfg: ExperimentConfig) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "resolved_config.json").write_text(cfg.resolved_json(),
                                                  encoding="utf-8")


def _load_cfg(args) -> ExperimentConfig:
    cfg = load_config(args.config, seed_override=args.seed)
    hall = getattr(args, "hallucinator", None)
    if hall is not None:
        cfg.hallucinator.enabled = (hall == "on")
    return cfg


def _load_records(cfg: ExperimentConfig, override: str | None):
    path = Path(override) if override else Path(cfg.data.path)
    if not path.exists():
        raise FileNotFoundError(
            f"dataset {path} not found; run `hcl gen-data` first or pass --data"
        )
    return load_cifar_batch(path)


def _cmd_gen_data(args) -> int:
    cfg = _load_cfg(args)
    out = Path(args.out) if args.out else Path(cfg.data.path)
    out.parent.mkdir(parents=True, exist_ok=True)
    n = generate_synthetic(out, cfg.data.classes, cfg.data.per_class, cfg.seed)
    _write_echo(out.parent, cfg)
    print(f"wrote {n} records ({cfg.data.classes} classes) to {out}")
    return 0


def _cmd_pretrain(args) -> int:
    cfg = _load_cfg(args)
    records = _load_records(cfg, args.data)
    out_dir = Path(args.out)
    _write_echo(out_dir, cfg)
    result = pretrain(cfg, records, out_dir, resume=args.resume, log=print)
    print(f"finished {result.global_step} steps; "
          f"checkpoint {result.checkpoint_path}; metrics {result.metrics_path}")
    return 0


def _cmd_probe(args) -> int:
    cfg = _load_cfg(args)
    fw, ck_cfg = load_pretrained(args.checkpoint)
    records = _load_records(cfg, args.data)
    feats, labels = extract_features(fw, records, ck_cfg.augment.out_size)
    pr = cfg.probe
    res = linear_probe(feats, labels, seed=cfg.seed, epochs=pr.epochs,
                       lr=pr.lr, momentum=pr.sgd_momentum,
                       weight_decay=pr.weight_decay, batch_size=pr.batch_size,
                       val_fraction=pr.val_fraction)
    print(f"probe top-1: {res.top1:.4f} "
          f"(train {res.n_train}, val {res.n_val})")
    for c, acc in enumerate(res.per_class):
        print(f"  class {c}: {acc:.4f}")
    out_dir = Path(args.out)
    _write_echo(out_dir, cfg)
    entries = [("probe_top1", res.top1, None, res.n_val)]
    entries += [(f"probe_class_{c}_top1", float(acc), None, res.n_val)
                for c, acc in enumerate(res.per_class)]
    write_report(out_dir / "probe_report.csv", entries)
    print(f"report written to {out_dir / 'probe_report.csv'}")
    return 0


def _encode_view_pairs(fw, records, cfg: ExperimentConfig, batch: int = 64):
    """Features of two augmented views per record, for positive-pair stats."""
    aug_cfg = cfg.augment.to_augment_config()
    enc = encoder_of(fw)
    fa, fb = [], []
    for lo in range(0, len(records), batch):
        chunk = records[lo:lo + batch]
        rngs = [substream(cfg.seed, "metrics-views", lo + i) for i in range(len(chunk))]
        va, vb = augment_batch([r.image for r in chunk], aug_cfg, rngs)
        xa, xb = to_unit_float_batch(va), to_unit_float_batch(vb)
        with no_tape():
            fa.append(l2_normalize(enc.forward(Tensor(xa))).data.copy())
            fb.append(l2_normalize(enc.forward(Tensor(xb))).data.copy())
    return np.concatenate(fa), np.concatenate(fb)


def _cmd_metrics(args) -> int:
    cfg = _load_cfg(args)
    fw, ck_cfg = load_pretrained(args.checkpoint)
    records = _load_records(cfg, args.data)
    t = cfg.metrics.t
    feats, _ = extract_features(fw, records, ck_cfg.augment.out_size)
    fa, fb = _encode_view_pairs(fw, records, cfg)
    cos_mean = float(np.mean(np.sum(fa * fb, axis=1)))
    if cfg.metrics.pairs == "positive":
        rep = uniformity_positive(fa, fb, t=t)
    else:
        rep = uniformity(feats, t=t)
    rep2d = uniformity(project_2d(feats, cfg.seed), t=t)
    print(f"cosine_positive_mean: {cos_mean:.6f} over {fa.shape[0]} pairs")
    print(f"uniformity[{rep.mode}] (t={rep.t:g}): {rep.value:.6f} "
          f"over {rep.n_pairs} pairs")
    print(f"uniformity[2d] (t={rep2d.t:g}): {rep2d.value:.6f} "
          f"over {rep2d.n_pairs} pairs")
    out_dir = Path(args.out)
    _write_echo(out_dir, cfg)
    write_report(out_dir / "metrics_report.csv", [
        ("cosine_positive_mean", cos_mean, None, fa.shape[0]),
        (f"uniformity_{rep.mode}", rep.value, rep.t, rep.n_samples),
        ("uniformity_2d", rep2d.value, rep2d.t, rep2d.n_samples),
    ])
    print(f"report written to {out_dir / 'metrics_report.csv'}")
    return 0


def _cmd_gradcheck(args) -> int:
    ops = op_gradcheck_suite(seed=args.seed if args.seed is not None else 0)
    fws = framework_gradcheck_suite()
    worst = 0.0
    for name, err in [*sorted(ops.items()), *sorted(fws.items())]:
        print(f"{name:28s} {err:.3e}")
        worst = max(worst, err)
    print(f"max relative error: {worst:.3e} (tolerance {TOLERANCE:g})")
    if worst >= TOLERANCE:
        print("gradcheck FAILED", file=sys.stderr)
        return 1
    print("gradcheck passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hcl",
        description="Contrastive pretraining with feature-space hallucination",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None,
                       help="overrides the config seed")

    p = sub.add_parser("gen-data", help="write a synthetic labeled dataset")
    common(p)
    p.add_argument("--out", default=None, help="output file (default data.path)")
    p.set_defaults(fn=_cmd_gen_data)

    p = sub.add_parser("pretrain", help="run contrastive pretraining")
    common(p)
    p.add_argument("--data", default=None, help="dataset file (default data.path)")
    p.add_argument("--out", default="runs/pretrain", help="output directory")
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.add_argument("--hallucinator", choices=("on", "off"), default=None,
                   help="overrides hallucinator.enabled")
    p.set_defaults(fn=_cmd_pretrain)

    p = sub.add_parser("probe", help="linear classification on frozen features")
    common(p)
    p.add_argument("--checkpoint", required=True, help="pretrained checkpoint")
    p.add_argument("--data", default=None, help="dataset file (default data.path)")
    p.add_argument("--out", default="runs/probe", help="output directory")
    p.set_defaults(fn=_cmd_probe)

    p = sub.add_parser("metrics", help="similarity and uniformity reports")
    common(p)
    p.add_argument("--checkpoint", required=True, help="pretrained checkpoint")
    p.add_argument("--data", default=None, help="dataset file (default data.path)")
    p.add_argument("--out", default="runs/metrics", help="output directory")
    p.set_defaults(fn=_cmd_metrics)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    common(p, config=False)
    p.set_defaults(fn=_cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, FileNotFoundError, NonFiniteError, KeyError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
