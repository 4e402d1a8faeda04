"""Configuration parsing, defaults, presets, and validation messages."""

import json

import numpy as np
import pytest

from hcl.config import (
    DEFAULT_SEED,
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    load_config,
)


def _write(tmp_path, obj, name="c.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj), encoding="utf-8")
    return p


class TestDefaults:
    def test_empty_object_gives_full_defaults(self):
        cfg = config_from_dict({})
        assert cfg.seed == DEFAULT_SEED == 42
        assert cfg.framework == "moco"
        assert cfg.augment.p == 0.5
        assert cfg.augment.alpha == 0.6
        assert cfg.hallucinator.enabled is True
        assert cfg.hallucinator.layers == 3
        assert cfg.hallucinator.resolved_betas() == (0.0, 1.0)
        assert cfg.contrast.temperature == 0.2
        assert cfg.contrast.momentum == 0.99
        assert cfg.contrast.queue_size == 1024
        assert cfg.train.batch_size == 64
        assert cfg.train.epochs == 5
        assert cfg.encoder.channels == [16, 32, 64]
        assert cfg.encoder.feature_dim == 64

    def test_framework_config_mapping(self):
        cfg = config_from_dict(
            {"hallucinator": {"layers": 2, "beta1": 0.1, "beta2": 0.4},
             "contrast": {"temperature": 0.5, "queue_size": 7}}
        )
        fc = cfg.framework_config()
        assert fc.temperature == 0.5
        assert fc.queue_size == 7
        assert fc.hallucinator_layers == 2
        assert (fc.extrapolation.beta1, fc.extrapolation.beta2) == (0.1, 0.4)


class TestValidation:
    def test_alpha_out_of_range_message(self):
        with pytest.raises(ConfigError, match=r"alpha must be in \(0, 1\)"):
            config_from_dict({"augment": {"alpha": 1.5}})

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown top-level key.*'banana'"):
            config_from_dict({"banana": {}})

    def test_unknown_section_key(self):
        with pytest.raises(ConfigError, match="unknown key in train: 'lrate'"):
            config_from_dict({"train": {"lrate": 0.1}})

    def test_framework_name_checked(self):
        with pytest.raises(ConfigError, match="framework"):
            config_from_dict({"framework": "byol"})

    def test_epochs_zero_allowed_negative_rejected(self):
        assert config_from_dict({"train": {"epochs": 0}}).train.epochs == 0
        with pytest.raises(ConfigError, match="train.epochs"):
            config_from_dict({"train": {"epochs": -1}})

    def test_momentum_range(self):
        with pytest.raises(ConfigError, match=r"momentum must be in \[0, 1\]"):
            config_from_dict({"contrast": {"momentum": 1.01}})

    def test_metrics_pairs_enum(self):
        with pytest.raises(ConfigError, match="'all' or 'positive'"):
            config_from_dict({"metrics": {"pairs": "some"}})

    def test_encoder_channels_type(self):
        with pytest.raises(ConfigError, match="list of ints"):
            config_from_dict({"encoder": {"channels": "wide"}})

    def test_boolean_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict({"seed": True})

    def test_encoder_rules(self):
        with pytest.raises(ConfigError, match="encoder.kernel must be an odd int >= 1"):
            config_from_dict({"encoder": {"kernel": 4}})
        with pytest.raises(ConfigError, match="encoder.feature_dim must be >= 2"):
            config_from_dict({"encoder": {"feature_dim": 1}})
        with pytest.raises(ConfigError, match="encoder.channels must be a non-empty"):
            config_from_dict({"encoder": {"channels": []}})

    def test_augment_rules(self):
        with pytest.raises(ConfigError, match="augment.out_size must be >= 4"):
            config_from_dict({"augment": {"out_size": 3}})
        with pytest.raises(ConfigError, match="augment.scale_min/scale_max"):
            config_from_dict({"augment": {"scale_min": 0.6, "scale_max": 0.5}})
        with pytest.raises(ConfigError, match="unknown key in augment: 'aspect_range'"):
            config_from_dict({"augment": {"aspect_range": [1, 2]}})

    def test_inverted_betas(self):
        with pytest.raises(ConfigError, match="beta1 must be <="):
            config_from_dict({"hallucinator": {"beta1": 0.9, "beta2": 0.1}})


class TestPresets:
    def test_train_desk_preset(self):
        cfg = config_from_dict({"train": {"preset": "desk"}})
        assert (cfg.train.batch_size, cfg.train.epochs, cfg.train.lr) == (64, 5, 0.06)

    def test_train_large_preset(self):
        cfg = config_from_dict({"train": {"preset": "large"}})
        assert (cfg.train.batch_size, cfg.train.epochs, cfg.train.lr) == (512, 500, 0.5)

    def test_explicit_key_overrides_preset(self):
        cfg = config_from_dict({"train": {"preset": "large", "epochs": 3}})
        assert cfg.train.batch_size == 512
        assert cfg.train.epochs == 3

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="train.preset"):
            config_from_dict({"train": {"preset": "galactic"}})

    def test_hallucinator_range_preset_wins_over_betas(self):
        cfg = config_from_dict(
            {"hallucinator": {"range": "narrow", "beta1": 0.3, "beta2": 0.9}}
        )
        assert cfg.hallucinator.resolved_betas() == (0.0, 0.1)

    def test_unknown_range_preset(self):
        with pytest.raises(ConfigError, match="hallucinator.range"):
            config_from_dict({"hallucinator": {"range": "huge"}})


class TestRoundTrip:
    def test_resolved_json_reparses_to_same_config(self):
        cfg = config_from_dict(
            {
                "seed": 7,
                "framework": "simclr",
                "train": {"preset": "desk", "epochs": 2},
                "hallucinator": {"range": "wide"},
                "augment": {"out_size": 16},
            }
        )
        again = config_from_dict(json.loads(cfg.resolved_json()))
        assert again.resolved_dict() == cfg.resolved_dict()

    def test_encoder_channels_stay_a_list(self):
        cfg = config_from_dict({"encoder": {"channels": [4, 8]}})
        assert cfg.encoder.channels == [4, 8]
        assert json.loads(cfg.resolved_json())["encoder"]["channels"] == [4, 8]

    def test_resolved_section_keys(self):
        resolved = ExperimentConfig().resolved_dict()
        assert list(resolved["augment"]) == [
            "p", "alpha", "out_size", "scale_min", "scale_max", "jitter_strength",
            "grayscale_prob", "flip_prob", "blur_prob", "center_crop_both"]
        assert list(resolved["encoder"]) == ["channels", "kernel", "hidden_dim",
                                             "feature_dim"]

    def test_default_round_trip(self):
        cfg = ExperimentConfig()
        again = config_from_dict(json.loads(cfg.resolved_json()))
        assert again.resolved_dict() == cfg.resolved_dict()


class TestLoadConfig:
    def test_file_seed_beats_default(self, tmp_path):
        p = _write(tmp_path, {"seed": 5})
        assert load_config(p).seed == 5

    def test_cli_override_beats_file(self, tmp_path):
        p = _write(tmp_path, {"seed": 5})
        assert load_config(p, seed_override=9).seed == 9

    def test_default_when_absent(self, tmp_path):
        p = _write(tmp_path, {})
        assert load_config(p).seed == 42

    def test_parse_error_reports_line_and_column(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{\n  "seed": ,\n}', encoding="utf-8")
        with pytest.raises(ConfigError, match=r"line 2 column \d+"):
            load_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "nope.json")

    def test_non_object_top_level(self, tmp_path):
        p = tmp_path / "arr.json"
        p.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(p)
