"""One benchmark process: prepare inputs, time set-up, or run a workload.

``run.py`` starts this file as a fresh process for each role, so that
set-up time starts at process spawn and peak RSS belongs to one run:

    prep     write the seeded data file(s) and configs; on ``quickstart`` also
             a single-threaded reference pretrain, on ``eval`` the checkpoint
    setup    imports, config, dataset read, framework build (checkpoint load
             on ``eval``), then exit; ``run.py`` times spawn to ready
    measure  set-up, then whole rounds of the workload for ``--seconds``;
             ``--trace 1`` records spans around every public hcl call

The result of each role is one JSON file named by ``--out``.
"""

from __future__ import annotations

import argparse
import copy
import ctypes
import hashlib
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Closed loop, one process: the next unit of work starts when the last returns.
WORKLOADS = {
    # Conv forward/backward dominate the default desk step; all six recipes.
    "desk": {"threads": 1, "step": "train", "tail_pct": 80},
    # Augmentation dominates; the only user of the thread pool and of
    # per-epoch checkpoints.
    "quickstart": {"threads": 2, "step": "train", "tail_pct": 95},
    # Forward-only encoding, probe and uniformity on a frozen checkpoint.
    "eval": {"threads": 1, "step": "encoder", "tail_pct": 90},
}

DESK = {
    "data": {"classes": 10, "per_class": 20},
    "train": {"preset": "desk", "epochs": 1},
}
QUICKSTART = {
    "data": {"classes": 4, "per_class": 80},
    "encoder": {"channels": [8, 16], "hidden_dim": 64, "feature_dim": 32},
    "augment": {"out_size": 16},
    "contrast": {"queue_size": 64},
    "train": {"batch_size": 32, "epochs": 2, "lr": 0.03, "checkpoint_every": 1},
}
EVAL_DATA = {"classes": 8, "per_class": 64}
PROBE_TOP1_MIN = 0.9


def recipes(workload: str) -> list[tuple[str, str, bool]]:
    """(label, framework, hallucinator) per unit of one round, in fixed order."""
    if workload == "desk":
        return [(f"{fw}.hall-{'on' if hall else 'off'}", fw, hall)
                for fw in ("moco", "simclr", "simsiam") for hall in (True, False)]
    return [("moco.hall-on", "moco", True)]


def config_dict(base: dict, seed: int, framework: str, hallucinator: bool) -> dict:
    raw = copy.deepcopy(base)
    raw.update(seed=seed, framework=framework)
    raw.setdefault("hallucinator", {})["enabled"] = hallucinator
    return raw


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---- units of work ------------------------------------------------------------


def pretrain_unit(label: str, cfg, records, out_dir: Path) -> dict:
    """One ``pretrain`` call, timed, then its outputs checked."""
    import hcl.train

    t0 = time.perf_counter()
    result = hcl.train.pretrain(cfg, records, out_dir)
    wall = time.perf_counter() - t0
    metrics_csv, ckpt = out_dir / cfg.train.metrics_path, out_dir / "checkpoint.hcl"
    lines = metrics_csv.read_text(encoding="utf-8").splitlines()
    expected = cfg.train.epochs * (len(records) // cfg.train.batch_size)
    errors = []
    if len(lines) != expected + 1:
        errors.append(f"{label}: metrics.csv has {len(lines) - 1} rows, expected {expected}")
    bad = [ln for ln in lines[1:] if not math.isfinite(float(ln.split(",")[2]))]
    if bad:
        errors.append(f"{label}: {len(bad)} non-finite losses")
    return {"label": label, "wall": wall,
            "items": result.global_step * cfg.train.batch_size, "errors": errors,
            "digests": {"metrics.csv": sha256_file(metrics_csv),
                        "checkpoint.hcl": sha256_file(ckpt)}}


def eval_unit(ctx: dict) -> dict:
    """One probe + metrics pass over the eval set, as ``hcl probe`` and
    ``hcl metrics`` do it, with the features extracted once."""
    import numpy as np
    import hcl.cli
    import hcl.metrics
    import hcl.train

    fw, ck_cfg, cfg, records = ctx["fw"], ctx["ck_cfg"], ctx["cfg"], ctx["records"]
    out = ctx["work"] / "reports"
    t0 = time.perf_counter()
    feats, labels = hcl.train.extract_features(fw, records, ck_cfg.augment.out_size)
    pr = cfg.probe
    res = hcl.metrics.linear_probe(feats, labels, seed=cfg.seed, epochs=pr.epochs,
                                   lr=pr.lr, momentum=pr.sgd_momentum,
                                   weight_decay=pr.weight_decay,
                                   batch_size=pr.batch_size,
                                   val_fraction=pr.val_fraction)
    hcl.metrics.write_report(out / "probe_report.csv", [
        ("probe_top1", res.top1, None, res.n_val),
        *[(f"probe_class_{c}_top1", float(a), None, res.n_val)
          for c, a in enumerate(res.per_class)]])
    fa, fb = hcl.cli._encode_view_pairs(fw, records, cfg)
    cos_mean = float(np.mean(np.sum(fa * fb, axis=1)))
    t = cfg.metrics.t
    rep = hcl.metrics.uniformity(feats, t=t)
    rep2d = hcl.metrics.uniformity(hcl.metrics.project_2d(feats, cfg.seed), t=t)
    hcl.metrics.write_report(out / "metrics_report.csv", [
        ("cosine_positive_mean", cos_mean, None, fa.shape[0]),
        (f"uniformity_{rep.mode}", rep.value, rep.t, rep.n_samples),
        ("uniformity_2d", rep2d.value, rep2d.t, rep2d.n_samples)])
    wall = time.perf_counter() - t0
    errors = []
    if not res.top1 >= PROBE_TOP1_MIN:
        errors.append(f"eval: probe top-1 {res.top1} below {PROBE_TOP1_MIN}")
    values = (res.train_loss, cos_mean, rep.value, rep2d.value)
    if not all(math.isfinite(v) for v in values):
        errors.append(f"eval: non-finite loss or metric in {values}")
    return {"label": "eval-pass", "wall": wall, "items": len(records), "errors": errors,
            "digests": {"features": hashlib.sha256(feats.tobytes()).hexdigest(),
                        "probe_report.csv": sha256_file(out / "probe_report.csv"),
                        "metrics_report.csv": sha256_file(out / "metrics_report.csv")}}


# ---- roles --------------------------------------------------------------------


def prep(workload: str, seed: int, work: Path) -> dict:
    import hcl.config
    import hcl.data

    configs, units = work / "configs", []
    configs.mkdir(parents=True)
    if workload == "eval":
        hcl.data.generate_synthetic(work / "data.bin", DESK["data"]["classes"],
                                    DESK["data"]["per_class"], seed)
        hcl.data.generate_synthetic(work / "eval.bin", EVAL_DATA["classes"],
                                    EVAL_DATA["per_class"], seed)
        ckpt_cfg = config_dict(DESK, seed, "moco", True)
        (configs / "checkpoint.json").write_text(json.dumps(ckpt_cfg), encoding="utf-8")
        (configs / "eval.json").write_text(
            json.dumps({"seed": seed, "data": EVAL_DATA}), encoding="utf-8")
        records = hcl.data.load_cifar_batch(work / "data.bin")
        cfg = hcl.config.load_config(configs / "checkpoint.json")
        units.append(pretrain_unit("checkpoint", cfg, records, work / "ckpt"))
        return {"units": units}

    base = DESK if workload == "desk" else QUICKSTART
    hcl.data.generate_synthetic(work / "data.bin", base["data"]["classes"],
                                base["data"]["per_class"], seed)
    for label, fw, hall in recipes(workload):
        (configs / f"{label}.json").write_text(
            json.dumps(config_dict(base, seed, fw, hall)), encoding="utf-8")
    if workload == "quickstart":
        # Serial reference: the threaded runs must reproduce its bytes.
        os.environ["HCL_THREADS"] = "1"
        label = recipes(workload)[0][0]
        records = hcl.data.load_cifar_batch(work / "data.bin")
        cfg = hcl.config.load_config(configs / f"{label}.json")
        units.append(pretrain_unit(label, cfg, records, work / "serial"))
    return {"units": units}


def setup(workload: str, work: Path) -> dict:
    """Everything before the first timed unit; the same for every role."""
    import hcl.config
    import hcl.data
    import hcl.frameworks
    import hcl.train

    if workload == "eval":
        cfg = hcl.config.load_config(work / "configs" / "eval.json")
        records = hcl.data.load_cifar_batch(work / "eval.bin")
        fw, ck_cfg = hcl.train.load_pretrained(work / "ckpt" / "checkpoint.hcl")
        (work / "reports").mkdir(exist_ok=True)
        return {"work": work, "cfg": cfg, "records": records, "fw": fw, "ck_cfg": ck_cfg}
    cfgs = {label: hcl.config.load_config(work / "configs" / f"{label}.json")
            for label, _, _ in recipes(workload)}
    records = hcl.data.load_cifar_batch(work / "data.bin")
    first = next(iter(cfgs.values()))
    hcl.frameworks.build_framework(first.framework, first.encoder.to_encoder_config(),
                                   first.augment.out_size, first.framework_config(),
                                   first.seed)
    return {"work": work, "cfgs": cfgs, "records": records}


def blas_info() -> dict:
    """BLAS library name and the thread count it actually runs with."""
    import numpy as np

    try:
        name = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        name = None
    threads = None
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"blas": name, "blas_threads": threads, "numpy": np.__version__}


def measure(workload: str, seconds: float, trace: bool, work: Path) -> dict:
    import tracer as tracing

    spec = WORKLOADS[workload]
    tracer = tracing.Tracer()
    tracer.install(tracing.all_hooks() if trace else tracing.step_hooks(spec["step"]))
    ctx = setup(workload, work)
    ready = time.monotonic()

    if workload == "eval":
        plan = [("eval-pass", lambda: eval_unit(ctx))]
    else:
        plan = [(label, (lambda label=label: pretrain_unit(
                    label, ctx["cfgs"][label], ctx["records"], work / "runs" / label)))
                for label, _, _ in recipes(workload)]
    tracer.phase = "run"
    units, rounds = [], []
    start = time.perf_counter()
    while True:
        walls, items = [], 0
        for label, fn in plan:
            tracer.context = label
            try:
                unit = tracer.call("bench.unit", fn)
            except Exception as exc:  # a failed unit is counted, the run goes on
                unit = {"label": label, "wall": None, "items": 0,
                        "errors": [f"{label}: {type(exc).__name__}: {exc}"], "digests": {}}
            units.append(unit)
            if unit["wall"] is not None:
                walls.append(unit["wall"])
                items += unit["items"]
        rounds.append({"walls": walls, "items": items})
        elapsed = time.perf_counter() - start
        # Stop within half a round of --seconds, so the round count stays put
        # when the machine's speed drifts a little.
        if elapsed + 0.5 * elapsed / len(rounds) >= seconds:
            break
    tracer.phase = "done"

    result = {
        "ready": ready,
        "units": units,
        "rounds": rounds,
        "steps_ms": tracing.step_durations_ms(tracer.spans, spec["step"]),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {**blas_info(), "python": sys.version.split()[0],
                "HCL_THREADS": os.environ.get("HCL_THREADS")},
    }
    if trace:
        metrics, absent, report = tracing.layer_metrics(tracer, spec["step"],
                                                        spec["threads"])
        tracer.dump(work / "spans.csv")
        result.update(per_layer=metrics, absent=absent, report=report)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--role", choices=("prep", "setup", "measure"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import hcl

    if Path(hcl.__file__).resolve().parent != SRC / "hcl":
        raise SystemExit(f"hcl imported from {hcl.__file__}, not from {SRC}")
    if args.role == "prep":
        out = prep(args.workload, args.seed, args.work)
    elif args.role == "setup":
        setup(args.workload, args.work)
        out = {"ready": time.monotonic()}
    else:
        out = measure(args.workload, args.seconds, bool(args.trace), args.work)
    args.out.write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
