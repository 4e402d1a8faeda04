"""hcl benchmark: one seeded workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics plus a self-time report and the tracing overhead.  Either way the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record the
environment and name every metric.  Every run checks the program's outputs
(finite losses, metrics.csv row counts, probe accuracy, and identical output
digests across repeats, thread counts and runs of the same seed).

Work files go under ``.perfbench_work/`` in the checkout.  The program is
imported from ``src/``; without it the run exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import ROOT, SRC, WORKLOADS

HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 15
RUN_LIMIT_S = 170
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# What each generic metric name means on each workload (printed, and in README).
MEANING = {
    "setup_s": "spawn to first timed unit: imports, config, data read, framework"
               " build (checkpoint load on eval); median of {probes} processes",
    "throughput_per_s": {"train": "train_pairs_per_s: augmented pairs trained per second",
                         "encoder": "eval_images_per_s: images per second of eval pass"},
    "unit_wall_s": {"train": "pretrain_wall_s: one pretrain() call incl. CSV and "
                             "checkpoint writes",
                    "encoder": "eval_wall_s: one probe + metrics pass"},
    "step_ms_p50": {"train": "median training step",
                    "encoder": "median encoder forward of one 64-image batch"},
    "step_ms_tail": {"train": "p{pct} training step ({n} steps, {beyond} beyond)",
                     "encoder": "p{pct} encoder forward ({n} batches, {beyond} beyond)"},
    "peak_rss_mb": "ru_maxrss of the measuring process",
}


def source_digest() -> str:
    """Identifies the program and benchmark code; keys the stored digests."""
    h = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + [HERE / "worker.py"]
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one; never searches upward."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Runner:
    """Starts worker processes with pinned thread counts, within the run limit."""

    def __init__(self, args, work: Path):
        self.args, self.work = args, work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.calls = 0
        self.env = dict(os.environ)
        self.env.update({var: "1" for var in BLAS_THREAD_VARS})
        self.env["HCL_THREADS"] = str(WORKLOADS[args.workload]["threads"])

    def __call__(self, role: str, trace: int = 0) -> tuple[dict, float]:
        self.calls += 1
        out = self.work / f"{role}-{self.calls}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--role", role,
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--seconds", str(self.args.seconds), "--trace", str(trace),
               "--work", str(self.work), "--out", str(out)]
        spawned = time.monotonic()
        subprocess.run(cmd, env=self.env, cwd=ROOT, stdout=sys.stderr, check=True,
                       timeout=max(1.0, self.deadline - time.monotonic()))
        return json.loads(out.read_text(encoding="utf-8")), spawned


def end_to_end(m: dict, spec: dict) -> dict[str, tuple[float, str]]:
    """Medians over rounds (one round = each recipe once, or one eval pass),
    so that a burst of load from outside touches one round, not the result."""
    steps = m["steps_ms"]
    rounds = [r for r in m["rounds"] if r["walls"]]
    return {
        "throughput_per_s": (statistics.median(r["items"] / sum(r["walls"])
                                               for r in rounds), "1/s"),
        "unit_wall_s": (statistics.median(statistics.fmean(r["walls"]) for r in rounds), "s"),
        "step_ms_p50": (statistics.median(steps), "ms"),
        "step_ms_tail": (percentile(steps, spec["tail_pct"]), "ms"),
        "peak_rss_mb": (m["rss_mb"], "MB"),
    }


def check_digests(units: list[dict], key: str) -> int:
    """Count failed units; a unit fails on its own errors or when its output
    digests differ from the first ones seen for its label under ``key``
    (same workload, seed and code), in this run or any earlier one."""
    store_path = WORK / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.is_file() else {}
    known = store.setdefault(key, {})
    failed = 0
    for u in units:
        if not u["errors"]:
            ref = known.setdefault(u["label"], u["digests"])
            if ref != u["digests"]:
                u["errors"].append(f"{u['label']}: output digests differ from the "
                                   f"first run of this workload, seed and code")
        failed += bool(u["errors"])
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    tmp.replace(store_path)
    return failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not (SRC / "hcl" / "__init__.py").is_file():
        print(f"error: no program at {SRC / 'hcl'}", file=sys.stderr)
        return 2

    spec = WORKLOADS[args.workload]
    work = WORK / args.workload / f"seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Runner(args, work)
    try:
        prep, _ = run("prep")
        if args.trace:
            plain, _ = run("measure", trace=0)
            m, _ = run("measure", trace=1)
            measured = [plain, m]
        else:
            samples = []
            for _ in range(SETUP_PROBES - 1):
                probe, spawned = run("setup")
                samples.append(probe["ready"] - spawned)
            m, spawned = run("measure")
            samples.append(m["ready"] - spawned)
            measured = [m]
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: benchmark process failed: {exc}", file=sys.stderr)
        return 1

    units = prep["units"] + [u for r in measured for u in r["units"]]
    key = f"{args.workload}/seed{args.seed}/{source_digest()}"
    failed = check_digests(units, key)
    for u in units:
        for err in u["errors"]:
            print(f"check failed: {err}", file=sys.stderr)

    n_steps = len(m["steps_ms"])
    beyond = sum(v > percentile(m["steps_ms"], spec["tail_pct"]) for v in m["steps_ms"])
    env = {**m["env"], "nproc": os.cpu_count(),
           "pinned": {var: run.env[var] for var in BLAS_THREAD_VARS},
           "commit": git_commit(), "source": key.rsplit("/", 1)[1],
           "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace}
    print(json.dumps({"environment": env, "failed_share": failed / len(units),
                      "setup_samples_s": samples if not args.trace else None,
                      "step_ms_tail_percentile": spec["tail_pct"], "steps": n_steps,
                      "steps_beyond_tail": beyond}))

    if args.trace:
        overhead = [f"tracing overhead (traced - untraced, {args.workload}):"]
        base, traced = end_to_end(plain, spec), end_to_end(m, spec)
        for name, (value, unit) in base.items():
            diff = traced[name][0] - value
            overhead.append(f"  {name:18s} {value:12.4f} -> {traced[name][0]:12.4f} {unit}"
                            f"  ({diff:+.4f}, {100 * diff / value:+.1f}%)")
        report = "\n".join([m["report"], *overhead])
        (work / "trace_report.txt").write_text(report + "\n", encoding="utf-8")
        print(report)
        if m["absent"]:
            print("absent (hook target gone): " + ", ".join(m["absent"]))
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in m["per_layer"].items()}
    else:
        values = {"setup_s": (statistics.median(samples), "s"), **end_to_end(m, spec)}
        for name, (v, u) in values.items():
            meaning = MEANING[name]
            if isinstance(meaning, dict):
                meaning = meaning[spec["step"]]
            meaning = meaning.format(probes=SETUP_PROBES, pct=spec["tail_pct"],
                                     n=n_steps, beyond=beyond)
            print(f"{name:18s} {v:14.4f} {u:4s}  {meaning}")
        print(f"{'failed_share':18s} {failed / len(units):14.4f}       "
              f"{failed} of {len(units)} checked operations failed")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}

    print(json.dumps({"correct": failed == 0, "attempted": len(units), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
