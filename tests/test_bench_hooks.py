"""The benchmark's probes in `perfbench/tracer.py` still find their targets.

A renamed or deleted function that the tracer hooks makes a traced
benchmark run drop the per-layer metrics that depend on it; this catches
that in the unit suite.  `perfbench/` is read, never edited.
"""

from pathlib import Path

import hcl.train

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_benchmark_hook_has_a_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    original = hcl.train.build_batch
    probe = tracer.Tracer()
    try:
        probe.install(tracer.all_hooks() + tracer.step_hooks("train") + tracer.step_hooks("encoder"))
        assert probe.missing == []
        assert hcl.train.build_batch is not original
    finally:
        probe.uninstall()
    assert hcl.train.build_batch is original
