"""Tests of the benchmark itself, at a short run length.

Each end-to-end test copies ``src/``, ``perfbench/`` and ``BENCHMARK.json``
into a temporary checkout, so its work files and stored digests never mix
with those of real runs.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def checkout(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("checkout")
    shutil.copytree(ROOT / "src", root / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "perfbench", root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    return root


def bench(root: Path, workload: str, trace: int, seed: int = 5) -> tuple[dict, dict]:
    """(first line, last line) of one short run."""
    out = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", workload,
                          "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
                         cwd=root, capture_output=True, text=True, timeout=180)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[0]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted_with_its_unit(checkout, workload, trace):
    _, result = bench(checkout, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)


def test_every_name_is_well_formed():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)


def test_tampered_digest_is_counted_as_failed(checkout):
    info, first = bench(checkout, "quickstart", 0, seed=6)
    assert first["failed"] == 0
    store_path = checkout / ".perfbench_work" / "digests.json"
    store = json.loads(store_path.read_text())
    key = f"quickstart/seed6/{info['environment']['source']}"
    for digests in store[key].values():
        digests["checkpoint.hcl"] = "0" * 64
    store_path.write_text(json.dumps(store))

    info, second = bench(checkout, "quickstart", 0, seed=6)
    assert not second["correct"]
    assert second["failed"] == second["attempted"]
    assert info["failed_share"] == 1.0


def test_no_program_means_no_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "desk",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""


def test_missing_hook_target_makes_its_metrics_absent():
    t = tracer.Tracer()
    t.install([tracer.Hook("hcl.augment:no_such_function", "augment.transforms"),
               tracer.Hook("hcl.tensor:no_such_op", "tensor.op")])
    assert [h.target for h in t.missing] == ["hcl.augment:no_such_function",
                                             "hcl.tensor:no_such_op"]
    t.missing = [tracer.Hook("hcl.augment:apply_transforms", "augment.transforms"),
                 tracer.Hook("hcl.tensor:conv2d", "tensor.op")]
    metrics, absent, _ = tracer.layer_metrics(t, "train", 1)
    gone = {"augment.transforms_ms", "tensor.conv2d.fwd_ms", "tensor.conv2d.bwd_ms",
            "tensor.conv2d.calls", "tensor.conv2d.cols_mb", "tensor.tape_nodes"}
    assert gone == set(absent)
    assert gone.isdisjoint(metrics)
    assert metrics["augment.crop_ms"] == (0.0, "ms")


def test_install_wraps_every_import_site_and_uninstall_restores():
    sys.path.insert(0, str(ROOT / "src"))
    import hcl.encoder
    import hcl.tensor

    original = hcl.tensor.conv2d
    t = tracer.Tracer()
    t.install([tracer.Hook("hcl.tensor:conv2d", "tensor.op", after=tracer._op_after)])
    try:
        assert hcl.tensor.conv2d is not original
        assert hcl.encoder.conv2d is hcl.tensor.conv2d
        x = hcl.tensor.Tensor([[[[1.0, 2.0], [3.0, 4.0]]]])
        w = hcl.tensor.Parameter([[[[0.5]]]])
        out = hcl.encoder.conv2d(x, w)
        out.reshape(4).sum().backward()
    finally:
        t.uninstall()
    assert hcl.tensor.conv2d is original and hcl.encoder.conv2d is original
    assert w.grad.tolist() == [[[[10.0]]]]
    names = [s[1] for s in t.spans]
    assert names == ["tensor.conv2d.fwd", "tensor.conv2d.bwd"]
    assert t.counters[("tensor.conv2d.cols_bytes", "setup")] == 4 * 8
