"""Optimizer semantics, schedules, and end-to-end training determinism."""

import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import hcl.frameworks
import hcl.train
from hcl.checkpoint import load_checkpoint, save_checkpoint
from hcl.config import config_from_dict
from hcl.data import make_synthetic_records
from hcl.frameworks import build_framework
from hcl.tensor import NonFiniteError, Parameter, Tensor, mean, multiply
from hcl.train import (
    METRICS_HEADER,
    SGD,
    build_batch,
    cosine_lr,
    encoder_of,
    extract_features,
    load_pretrained,
    metrics_row,
    pretrain,
)

TINY = {
    "seed": 11,
    "framework": "moco",
    "data": {"classes": 2, "per_class": 8},
    "encoder": {"channels": [2], "hidden_dim": 8, "feature_dim": 4},
    "augment": {"out_size": 8},
    "hallucinator": {"enabled": True, "layers": 2},
    "contrast": {"queue_size": 16},
    "train": {"batch_size": 8, "epochs": 4, "lr": 0.05},
}


def _tiny_cfg(**overrides):
    d = {**TINY}
    for key, val in overrides.items():
        if isinstance(val, dict) and isinstance(d.get(key), dict):
            d[key] = {**d[key], **val}
        else:
            d[key] = val
    return config_from_dict(d)


def _tiny_records(cfg):
    return make_synthetic_records(cfg.data.classes, cfg.data.per_class, seed=cfg.seed)


class TestSGD:
    def test_two_steps_hand_computed(self):
        p = Parameter(np.array([1.0, -2.0]), name="p")
        opt = SGD([p], momentum=0.5, weight_decay=0.1)
        p.grad = np.array([0.2, 0.4])
        opt.step(lr=0.1)
        # v1 = g + wd*theta = (0.3, 0.2); theta = theta - 0.1*v1
        np.testing.assert_allclose(p.data, [1.0 - 0.03, -2.0 - 0.02], atol=1e-15)
        p.grad = np.array([0.0, 0.0])
        opt.step(lr=0.1)
        # v2 = 0.5*v1 + wd*theta
        v2 = 0.5 * np.array([0.3, 0.2]) + 0.1 * np.array([0.97, -2.02])
        np.testing.assert_allclose(p.data, np.array([0.97, -2.02]) - 0.1 * v2, atol=1e-15)

    def test_zero_grad(self):
        p = Parameter(np.ones(3), name="p")
        p.grad = np.ones(3)
        SGD([p]).zero_grad()
        assert not p.grad.any()

    def test_duplicate_names_rejected(self):
        a = Parameter(np.ones(2), name="same")
        b = Parameter(np.ones(2), name="same")
        with pytest.raises(ValueError, match="duplicate"):
            SGD([a, b])

    def test_validation(self):
        p = Parameter(np.ones(1), name="p")
        with pytest.raises(ValueError, match="momentum"):
            SGD([p], momentum=1.0)
        with pytest.raises(ValueError, match="weight_decay"):
            SGD([p], weight_decay=-0.1)

    def test_velocity_state_round_trip(self):
        p = Parameter(np.array([1.0]), name="p")
        opt = SGD([p], momentum=0.9)
        p.grad = np.array([0.5])
        opt.step(lr=0.1)
        saved = opt.state_arrays()
        assert set(saved) == {"opt.v.p"}

        q = Parameter(np.array([1.0]), name="p")
        opt2 = SGD([q], momentum=0.9)
        opt2.load_state_arrays(saved)
        np.testing.assert_array_equal(opt2.velocity["p"], opt.velocity["p"])
        with pytest.raises(KeyError, match="opt.v.p"):
            opt2.load_state_arrays({})

    def test_reaches_quadratic_minimum(self):
        p = Parameter(np.array([5.0]), name="p")
        opt = SGD([p], momentum=0.9)
        for _ in range(200):
            opt.zero_grad()
            loss = mean(multiply(p, p))
            loss.backward()
            opt.step(lr=0.05)
        assert abs(float(p.data[0])) < 1e-3


class TestCosineSchedule:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0.6, 0, 100) == 0.6
        assert abs(cosine_lr(0.6, 50, 100) - 0.3) < 1e-15
        assert abs(cosine_lr(0.6, 100, 100)) < 1e-16

    def test_monotone_decreasing(self):
        vals = [cosine_lr(1.0, s, 40) for s in range(41)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_rejects_zero_total(self):
        with pytest.raises(ValueError, match="total_steps"):
            cosine_lr(0.1, 0, 0)


class TestBuildBatch:
    def test_independent_of_position_in_batch(self):
        cfg = _tiny_cfg()
        records = _tiny_records(cfg)
        aug = cfg.augment.to_augment_config()
        x1a, _ = build_batch(records, np.array([3, 5]), aug, cfg.seed, 0)
        x1b, _ = build_batch(records, np.array([5, 3]), aug, cfg.seed, 0)
        assert np.array_equal(x1a[0], x1b[1])
        assert np.array_equal(x1a[1], x1b[0])


class TestMetricsRow:
    def test_full_precision_round_trip(self):
        diag = {"sim_qk": 1 / 3, "sim_qhat_k": 2 / 7, "lambda_mean": 0.1}
        row = metrics_row(5, 1, 0.123456789123456789, diag, 0.06)
        parts = row.split(",")
        assert parts[0] == "5" and parts[1] == "1"
        assert float(parts[3]) == 1 / 3
        assert len(row.split(",")) == len(METRICS_HEADER.split(","))


class TestPretrain:
    def test_zero_epochs_checkpoint_equals_init(self, tmp_path):
        cfg = _tiny_cfg(train={"epochs": 0})
        records = _tiny_records(cfg)
        res = pretrain(cfg, records, tmp_path)
        assert res.rows == []
        assert res.metrics_path.read_text() == METRICS_HEADER + "\n"
        arrays, meta = load_checkpoint(res.checkpoint_path)
        fw = build_framework(cfg.framework, cfg.encoder.to_encoder_config(),
                             cfg.augment.out_size, cfg.framework_config(), cfg.seed)
        for name, tensor in fw.named_tensors().items():
            assert np.array_equal(arrays[name], tensor)
        assert meta["global_step"] == 0

    def test_same_seed_bitwise_identical_csv(self, tmp_path):
        cfg = _tiny_cfg()
        records = _tiny_records(cfg)
        a = pretrain(cfg, records, tmp_path / "a")
        b = pretrain(cfg, records, tmp_path / "b")
        assert a.metrics_path.read_bytes() == b.metrics_path.read_bytes()
        assert a.rows and a.rows == b.rows

    @pytest.mark.parametrize("framework", ["MoCo", "SimCLR", "SimSiam"])
    def test_step_tape_freed_before_next_batch(self, tmp_path, monkeypatch, framework):
        # A Tensor has no __weakref__ slot, so watch the loss's 0-d array:
        # the tape's last reference to it goes when the step's loss does.
        cls = getattr(hcl.frameworks, f"{framework}Framework")
        losses, alive_at_batch = [], []
        forward_loss, build = cls.forward_loss, hcl.train.build_batch

        def watched_forward_loss(self, *args, **kwargs):
            out = forward_loss(self, *args, **kwargs)
            losses.append(weakref.ref(out[0].data))
            return out

        def watched_build(*args, **kwargs):
            alive_at_batch.append(sum(ref() is not None for ref in losses))
            return build(*args, **kwargs)

        monkeypatch.setattr(cls, "forward_loss", watched_forward_loss)
        monkeypatch.setattr(hcl.train, "build_batch", watched_build)
        cfg = _tiny_cfg(framework=framework.lower(), train={"epochs": 2})
        logged = []
        pretrain(cfg, _tiny_records(cfg), tmp_path, log=logged.append)
        assert len(losses) == 4 and alive_at_batch == [0, 0, 0, 0]
        assert len(logged) == 2 and logged[0].startswith("epoch 0: loss ")

    def test_resume_is_bitwise_continuation(self, tmp_path):
        cfg = _tiny_cfg(train={"epochs": 4, "checkpoint_every": 2})
        records = _tiny_records(cfg)
        full = pretrain(cfg, records, tmp_path / "full")

        mid = tmp_path / "full" / "checkpoint_ep2.hcl"
        assert mid.exists()
        resumed = pretrain(cfg, records, tmp_path / "resumed", resume=mid)
        steps_per_epoch = len(records) // cfg.train.batch_size
        assert resumed.rows == full.rows[2 * steps_per_epoch:]
        assert (
            (tmp_path / "resumed" / "checkpoint.hcl").read_bytes()
            == (tmp_path / "full" / "checkpoint.hcl").read_bytes()
        )

    def test_in_place_resume_leaves_uninterrupted_metrics(self, tmp_path):
        cfg = _tiny_cfg(train={"epochs": 2, "checkpoint_every": 1})
        records = _tiny_records(cfg)
        full = pretrain(cfg, records, tmp_path)
        expected = full.metrics_path.read_bytes()
        with open(full.metrics_path, "a", encoding="utf-8") as mf:
            mf.write("1")  # a row cut short by a crash
        pretrain(cfg, records, tmp_path, resume=tmp_path / "checkpoint_ep1.hcl")
        assert full.metrics_path.read_bytes() == expected

    def test_resume_rejects_framework_mismatch(self, tmp_path):
        cfg = _tiny_cfg(train={"epochs": 1})
        records = _tiny_records(cfg)
        res = pretrain(cfg, records, tmp_path / "a")
        other = _tiny_cfg(framework="simclr", train={"epochs": 1})
        with pytest.raises(ValueError, match="framework"):
            pretrain(other, records, tmp_path / "b", resume=res.checkpoint_path)

    def test_resume_rejects_seed_mismatch(self, tmp_path):
        cfg = _tiny_cfg(train={"epochs": 1})
        records = _tiny_records(cfg)
        res = pretrain(cfg, records, tmp_path / "a")
        other = _tiny_cfg(seed=99, train={"epochs": 1})
        with pytest.raises(ValueError, match="seed"):
            pretrain(other, records, tmp_path / "b", resume=res.checkpoint_path)

    def test_resume_rejects_config_drift_by_dotted_key(self, tmp_path):
        cfg = _tiny_cfg(train={"epochs": 1})
        records = _tiny_records(cfg)
        res = pretrain(cfg, records, tmp_path / "a")
        other = _tiny_cfg(train={"epochs": 2, "lr": 0.1})
        with pytest.raises(ValueError, match=r"train\.lr") as err:
            pretrain(other, records, tmp_path / "b", resume=res.checkpoint_path)
        assert "train.epochs" not in str(err.value)

    def test_resume_may_extend_epochs(self, tmp_path):
        cfg = _tiny_cfg(train={"epochs": 1})
        records = _tiny_records(cfg)
        res = pretrain(cfg, records, tmp_path)
        longer = _tiny_cfg(train={"epochs": 3})
        more = pretrain(longer, records, tmp_path, resume=res.checkpoint_path)
        steps_per_epoch = len(records) // cfg.train.batch_size
        assert more.global_step == 3 * steps_per_epoch
        assert [int(r.split(",")[1]) for r in more.rows] == [1, 1, 2, 2]
        assert len(more.metrics_path.read_text().splitlines()) == 1 + 3 * steps_per_epoch

    def test_moco_queue_primed_with_first_batch_keys(self, tmp_path, monkeypatch):
        forward_loss = hcl.frameworks.MoCoFramework.forward_loss
        first = []

        def watched(self, x1, x2, lambdas):
            if not first:
                first.append((self.queue.entries(), self.encode_keys(x2)))
            return forward_loss(self, x1, x2, lambdas)

        monkeypatch.setattr(hcl.frameworks.MoCoFramework, "forward_loss", watched)
        cfg = _tiny_cfg(train={"epochs": 1})
        pretrain(cfg, _tiny_records(cfg), tmp_path)
        entries, keys = first[0]
        assert entries.shape == (cfg.train.batch_size, cfg.encoder.feature_dim)
        assert np.array_equal(entries, keys)

    def test_dataset_smaller_than_batch_rejected(self, tmp_path):
        cfg = _tiny_cfg(train={"batch_size": 64})
        records = _tiny_records(cfg)
        with pytest.raises(ValueError, match="fewer than batch_size"):
            pretrain(cfg, records, tmp_path)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_nonfinite_loss_aborts_with_step_index(self, tmp_path):
        # Normalization makes the loss scale-free, so only an overflow to
        # inf inside a forward op can trip the abort; an absurd learning
        # rate forces one within a couple of steps.
        cfg = _tiny_cfg(train={"lr": 1e200, "epochs": 4})
        records = _tiny_records(cfg)
        with pytest.raises(NonFiniteError, match=r"step \d+"):
            pretrain(cfg, records, tmp_path)

    def test_metrics_csv_layout(self, tmp_path):
        cfg = _tiny_cfg(train={"epochs": 1})
        records = _tiny_records(cfg)
        res = pretrain(cfg, records, tmp_path)
        lines = res.metrics_path.read_text().splitlines()
        assert lines[0] == "step,epoch,loss,sim_qk,sim_qhat_k,lambda_mean,lr"
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert np.isfinite([float(v) for v in first[2:]]).all()


class TestCheckpointRoundTrip:
    def test_load_pretrained_restores_weights_and_queue(self, tmp_path):
        cfg = _tiny_cfg()
        records = _tiny_records(cfg)
        res = pretrain(cfg, records, tmp_path)
        fw, ck_cfg = load_pretrained(res.checkpoint_path)
        assert ck_cfg.seed == cfg.seed
        live = res.framework.named_tensors()
        for name, arr in fw.named_tensors().items():
            assert np.array_equal(arr, live[name]), name
        np.testing.assert_array_equal(
            fw.queue.entries(), res.framework.queue.entries()
        )

    def test_load_pretrained_requires_embedded_config(self, tmp_path):
        path = tmp_path / "bare.hcl"
        save_checkpoint(path, {"w": np.ones(2)}, {"format": 1})
        with pytest.raises(ValueError, match="no embedded config"):
            load_pretrained(path)


class TestFeatureExtraction:
    def test_deterministic_normalized_features(self, tmp_path):
        cfg = _tiny_cfg(train={"epochs": 1})
        records = _tiny_records(cfg)
        res = pretrain(cfg, records, tmp_path)
        f1, y1 = extract_features(res.framework, records, cfg.augment.out_size)
        f2, y2 = extract_features(res.framework, records, cfg.augment.out_size)
        assert np.array_equal(f1, f2)
        assert np.array_equal(y1, [r.label for r in records])
        np.testing.assert_allclose(np.linalg.norm(f1, axis=1), 1.0, atol=1e-10)

    def test_encoder_of_moco_is_query_encoder(self, tmp_path):
        cfg = _tiny_cfg(train={"epochs": 1})
        records = _tiny_records(cfg)
        res = pretrain(cfg, records, tmp_path)
        assert encoder_of(res.framework) is res.framework.query


def _on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


# Run in a fresh process: heap thresholds are process-wide and glibc's
# defaults adapt to whatever earlier tests allocated.
_REPEAT_STEP_FAULTS = """
import resource
import numpy as np
from hcl.encoder import ConvEncoder, EncoderConfig
from hcl.tensor import Tensor, mean

enc = ConvEncoder(EncoderConfig(), 32, np.random.default_rng(0))
x = np.random.default_rng(1).random((16, 3, 32, 32))

def step():
    for p in enc.parameters():
        p.zero_grad()
    mean(enc.forward(Tensor(x))).backward()

step()  # warm-up: the heap grows to one step's peak
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
step()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _on_glibc(), reason="the retained heap is set up on glibc only")
def test_repeat_step_reuses_freed_memory():
    src = str(Path(hcl.train.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", _REPEAT_STEP_FAULTS], env=env,
                         capture_output=True, text=True, check=True)
    # Unmapping and re-faulting every freed multi-MB array costs thousands.
    assert int(out.stdout) < 100
