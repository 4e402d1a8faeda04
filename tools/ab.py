"""Paired A/B runs of the benchmark on two revisions, summarised as JSON.

    python3 tools/ab.py --parent REV --workloads eval,desk,quickstart \\
        --pairs 10 --seeds 4301 --out BENCH_N.json [--aa]

The parent side is `git archive REV src perfbench BENCHMARK.json`,
unpacked into a temporary directory; the change side is a copy of the
same three paths from the worktree (with ``--aa``, a second archive of
REV, so that the file measures the noise floor).  Each side runs its own
`perfbench/run.py --workload W --seed S --seconds T --trace 0`, one
process at a time, with T the ``run_seconds`` of BENCHMARK.json.  Pair i
takes seed S + i, S = ``--seeds``, on every workload, and runs the
parent first when i is even and the change first when it is odd.  Seeds are fixed
before the first run: a run that reads ``correct: false`` or fails is
recorded as it is, never replaced.

The output holds both revisions, the OpenBLAS kernel the runs get
(``blas_kernel``, read as `tools/digests.py` reads it), every run (its
environment line, its correctness counts and raw metrics) and, per
workload and end-to-end metric of BENCHMARK.json, the per-pair values,
each side's median, quartiles and range, the change's wins and one
verdict:

- ``improved``: every change run beats every parent run;
- ``regressed``: the change's median is worse than the parent's by more
  than the metric's ``bound`` (a fraction of the parent's median);
- ``within bound`` otherwise.

``spread_exceeds_bound`` marks a metric whose runs on either side spread
wider than its bound, so that "within bound" there means unresolved, not
unchanged.  A short table goes to standard output.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PATHS = ("src", "perfbench", "BENCHMARK.json")
RUN_TIMEOUT_S = 900


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def archive(rev: str, dest: Path) -> None:
    """Unpack `git archive REV` of the benchmarked paths into ``dest``."""
    data = subprocess.run(["git", "archive", "--format=tar", rev, *PATHS], cwd=ROOT,
                          check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(data)) as f:
        f.extractall(dest, filter="data")


def copy_worktree(dest: Path) -> None:
    """Copy the worktree's benchmarked paths into ``dest``, without caches
    or benchmark work files."""
    dest.mkdir(parents=True)
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench_work", ".pytest_cache")
    for name in PATHS:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def blas_kernel() -> str:
    """The OpenBLAS kernel numpy loads under this environment, named by
    `tools/digests.py`'s `_blas_kernel` in a subprocess, so that the
    thread pinning that tool does on import stays out of this process and
    of the runs it starts."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = ("import importlib.util as u; s = u.spec_from_file_location('d', %r); "
            "m = u.module_from_spec(s); s.loader.exec_module(m); print(m._blas_kernel())"
            % str(ROOT / "tools" / "digests.py"))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def parse_output(stdout: str) -> tuple[dict | None, dict | None]:
    """(environment line, result line) of one `run.py` output; a missing
    one is None."""
    env = result = None
    for line in stdout.splitlines():
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "environment" in obj and env is None:
            env = obj
        elif "metrics" in obj:
            result = obj
    return env, result


def run_side(side_dir: Path, workload: str, seed: int, seconds: int) -> dict:
    """One `run.py --trace 0` process in ``side_dir``, as a run record."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=side_dir, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:
        code, stdout, stderr = None, exc.stdout or "", f"timed out after {RUN_TIMEOUT_S} s"
        stdout = stdout.decode() if isinstance(stdout, bytes) else stdout
    environment, result = parse_output(stdout)
    record = {"returncode": code, "environment": environment,
              "correct": None, "attempted": None, "failed": None, "metrics": {}}
    if result is not None:
        record.update(correct=result["correct"], attempted=result["attempted"],
                      failed=result["failed"],
                      metrics={k: v["value"] for k, v in result["metrics"].items()})
    else:
        record["stderr_tail"] = stderr[-2000:]
    return record


def _stats(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else (values[0],) * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1,
            "min": min(values), "max": max(values)}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """``improved`` when every change run beats every parent run,
    ``regressed`` when the change's median is worse than the parent's by
    more than ``bound`` times the parent's median, else ``within bound``."""
    if better == "lower":
        improved = max(change) < min(parent)
    else:
        improved = min(change) > max(parent)
    if improved:
        return "improved"
    p, c = statistics.median(parent), statistics.median(change)
    worse_by = c - p if better == "lower" else p - c
    return "regressed" if worse_by > bound * abs(p) else "within bound"


def summarise(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload: per metric, the pairs in which both sides report it,
    each side's statistics, the change's wins and the verdict; and every
    run that did not read ``correct: true``."""
    sides = {}
    for r in runs:
        sides.setdefault(r["workload"], {}).setdefault(r["pair"], {})[r["side"]] = r
    summary = {}
    for workload, pairs in sides.items():
        out = {}
        for spec in metrics:
            name, better, bound = spec["name"], spec["better"], spec["bound"]
            rows = [{"pair": i, "seed": p["parent"]["seed"],
                     "parent": p["parent"]["metrics"][name],
                     "change": p["change"]["metrics"][name]}
                    for i, p in sorted(pairs.items())
                    if {"parent", "change"} <= p.keys()
                    and all(name in p[s]["metrics"] for s in ("parent", "change"))]
            if not rows:
                continue
            par = [r["parent"] for r in rows]
            chg = [r["change"] for r in rows]
            sign = 1.0 if better == "lower" else -1.0
            ps, cs = _stats(par), _stats(chg)
            wide = any((s["max"] - s["min"]) > bound * abs(s["median"]) for s in (ps, cs))
            out[name] = {
                "better": better, "bound": bound, "n": len(rows), "pairs": rows,
                "parent": ps, "change": cs,
                "change_pct": (100.0 * (cs["median"] - ps["median"]) / ps["median"]
                               if ps["median"] else None),
                "wins": sum(sign * (r["change"] - r["parent"]) < 0 for r in rows),
                "verdict": verdict(par, chg, better, bound),
                "spread_exceeds_bound": wide,
            }
        incorrect = [
            {key: r[key] for key in ("pair", "seed", "side", "correct", "returncode")}
            for by_side in pairs.values() for r in by_side.values() if r["correct"] is not True]
        summary[workload] = {"metrics": out, "incorrect_runs": incorrect}
    return summary


def table(summary: dict) -> str:
    lines = []
    for workload, entry in summary.items():
        for name, s in entry["metrics"].items():
            p, c = s["parent"], s["change"]
            pct = "" if s["change_pct"] is None else f"{s['change_pct']:+.1f}%"
            lines.append(
                f"{workload:10s} {name:16s} {p['median']:10.4f} [{p['min']:.4f}-{p['max']:.4f}]"
                f" -> {c['median']:10.4f} [{c['min']:.4f}-{c['max']:.4f}] {pct:>7s}"
                f" {s['wins']:2d}/{s['n']:<2d} {s['verdict']}"
                + (" (spread > bound)" if s["spread_exceeds_bound"] else ""))
        for r in entry["incorrect_runs"]:
            lines.append(f"{workload:10s} pair {r['pair']} seed {r['seed']} {r['side']}: "
                         f"correct={r['correct']} returncode={r['returncode']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--workloads", required=True, help="comma list, e.g. eval,desk")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seeds", type=int, required=True, help="seed of the first pair")
    ap.add_argument("--aa", action="store_true", help="run the parent against itself")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads.split(",")
    unknown = set(workloads) - {w["name"] for w in bench["workloads"]}
    if args.pairs < 1 or unknown:
        ap.error(f"--pairs must be >= 1 and workloads known (unknown: {sorted(unknown)})")
    seeds = list(range(args.seeds, args.seeds + args.pairs))
    seconds = bench["run_seconds"]
    parent_commit = _git("rev-parse", args.parent)
    if args.aa:
        change = {"rev": args.parent, "commit": parent_commit}
    else:
        dirty = bool(_git("status", "--porcelain", "--", *PATHS))
        change = {"rev": "worktree", "commit": _git("rev-parse", "HEAD"), "dirty": dirty}

    kernel = blas_kernel()
    runs = []
    with tempfile.TemporaryDirectory(prefix="hcl-ab-") as tmp:
        dirs = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        archive(parent_commit, dirs["parent"])
        if args.aa:
            archive(parent_commit, dirs["change"])
        else:
            copy_worktree(dirs["change"])
        for pair, seed in enumerate(seeds):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for position, side in enumerate(order):
                    record = run_side(dirs[side], workload, seed, seconds)
                    record.update(workload=workload, pair=pair, seed=seed, side=side,
                                  position=position)
                    runs.append(record)
                    print(f"pair {pair} seed {seed} {workload:10s} {side:6s} "
                          f"correct={record['correct']} "
                          f"peak_rss_mb={record['metrics'].get('peak_rss_mb')}",
                          file=sys.stderr, flush=True)

    summary = summarise(runs, bench["end_to_end"])
    out = {"parent": {"rev": args.parent, "commit": parent_commit}, "change": change,
           "aa": args.aa, "blas_kernel": kernel, "seconds": seconds, "seeds": seeds,
           "workloads": workloads,
           "rule": "improved: every change run beats every parent run; regressed: the "
                   "change median is worse than the parent median by more than bound x "
                   "parent median; otherwise within bound",
           "summary": summary, "runs": runs}
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"BLAS kernel {kernel}")
    print(table(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
