"""The benchmark still finds what it calls in `hcl`.

A renamed or deleted function that the tracer hooks makes a traced
benchmark run drop the per-layer metrics that depend on it, and a removed
entry point or a config format change that the benchmark's own configs
trip on makes its worker fail; both are caught here in the unit suite.
`perfbench/` is read, never edited.
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


def test_benchmark_import_site_still_imports_conv2d():
    """`perfbench/tests` checks that a hook reaches every module that
    imported its target by name, with `hcl.encoder.conv2d` as that module."""
    import hcl.encoder
    import hcl.tensor

    assert hcl.encoder.conv2d is hcl.tensor.conv2d


def test_benchmark_setup_path_runs(monkeypatch, tmp_path):
    """The worker's `prep` and `setup` roles, in-process, on `desk`: its
    configs load, and a framework builds through `framework_config()` and
    `to_encoder_config()`."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import worker

    worker.prep("desk", 1, tmp_path)
    ctx = worker.setup("desk", tmp_path)
    assert len(ctx["cfgs"]) == 6
    assert len(ctx["records"]) == 200


def test_benchmark_eval_unit_runs(monkeypatch, tmp_path):
    """The worker's `eval` workload, in-process: a moco checkpoint restores
    through `load_pretrained`, and two passes of probe and metrics over
    `extract_features` and `_encode_view_pairs` give the same digests."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import worker

    worker.prep("eval", 1, tmp_path)
    ctx = worker.setup("eval", tmp_path)
    first, second = worker.eval_unit(ctx), worker.eval_unit(ctx)
    assert first["errors"] == [] and second["errors"] == []
    assert first["digests"] == second["digests"]


def test_benchmark_quickstart_unit_reproduces_its_reference(monkeypatch, tmp_path):
    """The worker's `quickstart` workload, in-process: `prep` writes its
    serial reference unit, and one `pretrain_unit` after `setup`, per-epoch
    checkpoints on, gives that unit's `metrics.csv` and checkpoint digests."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setenv("HCL_THREADS", "")  # `prep` sets it; restored on exit
    import worker

    reference, = worker.prep("quickstart", 1, tmp_path)["units"]
    ctx = worker.setup("quickstart", tmp_path)
    label = reference["label"]
    unit = worker.pretrain_unit(label, ctx["cfgs"][label], ctx["records"], tmp_path / "run")
    assert reference["errors"] == [] and unit["errors"] == []
    assert unit["digests"] == reference["digests"]
