"""End-to-end command-line behavior: exit codes, outputs, reproducibility."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hcl.cli
from hcl.cli import main

TINY = {
    "seed": 3,
    "framework": "moco",
    "data": {"classes": 2, "per_class": 8},
    "encoder": {"channels": [2], "hidden_dim": 8, "feature_dim": 4},
    "augment": {"out_size": 8},
    "hallucinator": {"layers": 2},
    "contrast": {"queue_size": 16},
    "train": {"batch_size": 8, "epochs": 2, "lr": 0.05},
    "probe": {"epochs": 5},
}


def _cfg_file(tmp_path, overrides=None, name="cfg.json"):
    obj = json.loads(json.dumps(TINY))
    for section, vals in (overrides or {}).items():
        if isinstance(vals, dict):
            obj.setdefault(section, {}).update(vals)
        else:
            obj[section] = vals
    p = tmp_path / name
    p.write_text(json.dumps(obj), encoding="utf-8")
    return p


def _gen(tmp_path, cfg):
    data = tmp_path / "data.bin"
    assert main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
    return data


def _pretrain(tmp_path, cfg, data, out_name, extra=()):
    out = tmp_path / out_name
    rc = main(["pretrain", "--config", str(cfg), "--data", str(data),
               "--out", str(out), *extra])
    assert rc == 0
    return out


class TestGenData:
    def test_writes_dataset_and_echo(self, tmp_path, capsys):
        cfg = _cfg_file(tmp_path)
        data = _gen(tmp_path, cfg)
        assert data.stat().st_size == 16 * 3073
        echo = json.loads((tmp_path / "resolved_config.json").read_text())
        assert echo["seed"] == 3
        assert "wrote 16 records" in capsys.readouterr().out

    def test_seed_precedence_cli_over_config(self, tmp_path):
        cfg = _cfg_file(tmp_path)
        data = tmp_path / "d.bin"
        assert main(["gen-data", "--config", str(cfg), "--out", str(data),
                     "--seed", "9"]) == 0
        echo = json.loads((tmp_path / "resolved_config.json").read_text())
        assert echo["seed"] == 9

    def test_seed_default_when_config_silent(self, tmp_path):
        obj = json.loads(json.dumps(TINY))
        del obj["seed"]
        cfg = tmp_path / "noseed.json"
        cfg.write_text(json.dumps(obj), encoding="utf-8")
        data = tmp_path / "d.bin"
        assert main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
        echo = json.loads((tmp_path / "resolved_config.json").read_text())
        assert echo["seed"] == 42


class TestPretrain:
    def test_outputs_exist(self, tmp_path):
        cfg = _cfg_file(tmp_path)
        data = _gen(tmp_path, cfg)
        out = _pretrain(tmp_path, cfg, data, "run")
        assert (out / "metrics.csv").exists()
        assert (out / "checkpoint.hcl").exists()
        assert (out / "resolved_config.json").exists()
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "step,epoch,loss,sim_qk,sim_qhat_k,lambda_mean,lr"
        assert len(lines) == 1 + 2 * 2  # header + epochs * steps_per_epoch

    def test_rerun_is_bitwise_identical(self, tmp_path):
        cfg = _cfg_file(tmp_path)
        data = _gen(tmp_path, cfg)
        a = _pretrain(tmp_path, cfg, data, "a")
        b = _pretrain(tmp_path, cfg, data, "b")
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        assert (a / "checkpoint.hcl").read_bytes() == (b / "checkpoint.hcl").read_bytes()

    def test_echo_config_reproduces_run(self, tmp_path):
        cfg = _cfg_file(tmp_path)
        data = _gen(tmp_path, cfg)
        a = _pretrain(tmp_path, cfg, data, "a", extra=("--seed", "8"))
        echo = a / "resolved_config.json"
        assert json.loads(echo.read_text())["seed"] == 8
        b = _pretrain(tmp_path, echo, data, "b")
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        assert (a / "checkpoint.hcl").read_bytes() == (b / "checkpoint.hcl").read_bytes()

    def test_hallucinator_flag_matches_config_key(self, tmp_path):
        data = _gen(tmp_path, _cfg_file(tmp_path))
        cfg_on = _cfg_file(tmp_path, name="on.json")
        cfg_off = _cfg_file(tmp_path, {"hallucinator": {"enabled": False}},
                            name="off.json")
        a = _pretrain(tmp_path, cfg_on, data, "flag", extra=("--hallucinator", "off"))
        b = _pretrain(tmp_path, cfg_off, data, "key")
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        ea = json.loads((a / "resolved_config.json").read_text())
        assert ea["hallucinator"]["enabled"] is False

    def test_missing_dataset_message(self, tmp_path, capsys):
        cfg = _cfg_file(tmp_path)
        rc = main(["pretrain", "--config", str(cfg),
                   "--data", str(tmp_path / "ghost.bin"),
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli-run")
    cfg = _cfg_file(tmp_path)
    data = _gen(tmp_path, cfg)
    out = _pretrain(tmp_path, cfg, data, "run")
    return tmp_path, cfg, data, out


class TestProbeAndMetrics:
    def test_probe_report(self, run, capsys):
        tmp_path, cfg, data, out = run
        probe_dir = tmp_path / "probe"
        rc = main(["probe", "--config", str(cfg), "--data", str(data),
                   "--checkpoint", str(out / "checkpoint.hcl"),
                   "--out", str(probe_dir)])
        assert rc == 0
        text = (probe_dir / "probe_report.csv").read_text()
        assert text.startswith("metric,value,t,n_samples")
        assert "probe_top1," in text
        assert "probe top-1:" in capsys.readouterr().out

    def test_metrics_report(self, run, capsys):
        tmp_path, cfg, data, out = run
        met_dir = tmp_path / "metrics"
        rc = main(["metrics", "--config", str(cfg), "--data", str(data),
                   "--checkpoint", str(out / "checkpoint.hcl"),
                   "--out", str(met_dir)])
        assert rc == 0
        text = (met_dir / "metrics_report.csv").read_text()
        assert "cosine_positive_mean," in text
        assert "uniformity_all," in text
        assert "uniformity_2d," in text
        printed = capsys.readouterr().out
        assert "uniformity[all]" in printed

    def test_positive_pair_mode(self, run):
        tmp_path, _, data, out = run
        cfg = _cfg_file(tmp_path, {"metrics": {"pairs": "positive"}},
                        name="pos.json")
        met_dir = tmp_path / "metrics-pos"
        rc = main(["metrics", "--config", str(cfg), "--data", str(data),
                   "--checkpoint", str(out / "checkpoint.hcl"),
                   "--out", str(met_dir)])
        assert rc == 0
        assert "uniformity_positive," in (met_dir / "metrics_report.csv").read_text()

    def test_metrics_views_take_checkpoint_out_size(self, run):
        """A config whose `augment.out_size` (default 32) differs from the
        checkpoint's (8) gives the report of the checkpoint's own config."""
        tmp_path, cfg, data, out = run
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps({"seed": TINY["seed"]}), encoding="utf-8")
        reports = []
        for name, config in (("own", cfg), ("bare", bare)):
            rc = main(["metrics", "--config", str(config), "--data", str(data),
                       "--checkpoint", str(out / "checkpoint.hcl"),
                       "--out", str(tmp_path / f"metrics-{name}")])
            assert rc == 0
            reports.append((tmp_path / f"metrics-{name}" / "metrics_report.csv").read_bytes())
        assert reports[0] == reports[1]


class TestErrors:
    def test_unknown_subcommand_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["discombobulate", "--config", "x.json"])
        assert e.value.code == 2

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["gen-data", "--config", str(tmp_path / "absent.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_config_value(self, tmp_path, capsys):
        cfg = _cfg_file(tmp_path, {"augment": {"alpha": 2.0}}, name="bad.json")
        rc = main(["gen-data", "--config", str(cfg),
                   "--out", str(tmp_path / "d.bin")])
        assert rc == 1
        assert "alpha" in capsys.readouterr().err

    def test_non_finite_value_rejected_before_the_echo(self, tmp_path, capsys):
        data = _gen(tmp_path, _cfg_file(tmp_path))
        capsys.readouterr()
        cfg = _cfg_file(tmp_path, {"hallucinator": {"beta2": float("nan")}}, name="nan.json")
        out = tmp_path / "run"
        rc = main(["pretrain", "--config", str(cfg), "--data", str(data), "--out", str(out)])
        assert rc == 1
        assert "hallucinator.beta2 must be a finite number" in capsys.readouterr().err
        assert not (out / "resolved_config.json").exists()

    def test_rejected_resume_keeps_the_echo(self, tmp_path, capsys):
        cfg = _cfg_file(tmp_path)
        data = _gen(tmp_path, cfg)
        out = _pretrain(tmp_path, cfg, data, "run")
        echo = (out / "resolved_config.json").read_bytes()
        capsys.readouterr()
        drifted = _cfg_file(tmp_path, {"train": {"lr": 0.03}}, name="drift.json")
        rc = main(["pretrain", "--config", str(drifted), "--data", str(data), "--out", str(out),
                   "--resume", str(out / "checkpoint.hcl")])
        assert rc == 1
        assert "train.lr: checkpoint 0.05, configured 0.03" in capsys.readouterr().err
        assert (out / "resolved_config.json").read_bytes() == echo


# Above OpenBLAS's single-thread cutoff, so that GEMMs really split across
# two threads.
THREADED = {
    "seed": 5,
    "data": {"classes": 4, "per_class": 16},
    "encoder": {"channels": [8, 16], "hidden_dim": 64, "feature_dim": 32},
    "augment": {"out_size": 16},
    "contrast": {"queue_size": 64},
    "train": {"batch_size": 32, "epochs": 1, "lr": 0.03},
}


@pytest.mark.parametrize("framework", ["moco", "simclr"])
def test_same_bytes_whatever_the_blas_thread_count(tmp_path, framework):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**THREADED, "framework": framework}), encoding="utf-8")
    data = _gen(tmp_path, cfg)
    src = str(Path(hcl.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-m", "hcl.cli", "pretrain", "--config", str(cfg),
                        "--data", str(data), "--out", str(out), "--hallucinator", "on"],
                       env=env, capture_output=True, check=True)
        digests.append([hashlib.sha256((out / name).read_bytes()).hexdigest()
                        for name in ("metrics.csv", "checkpoint.hcl")])
    assert digests[0] == digests[1]
