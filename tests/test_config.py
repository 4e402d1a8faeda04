"""Configuration parsing, defaults, presets, and validation messages."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcl.config import (
    DEFAULT_SEED,
    TRAIN_PRESETS,
    ConfigError,
    ExperimentConfig,
    _check_section,
    config_from_dict,
    load_config,
)
from hcl.frameworks import FRAMEWORK_NAMES, FrameworkConfig
from hcl.hallucinator import RANGE_PRESETS, ExtrapolationConfig


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
        fc = cfg.framework_config()
        assert fc.hallucinator is True
        assert fc.hallucinator_layers == 3
        assert (fc.extrapolation.beta1, fc.extrapolation.beta2) == (0.0, 1.0)
        assert fc.temperature == 0.2
        assert fc.momentum == 0.99
        assert fc.queue_size == 1024
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


# Every ``contrast`` and ``hallucinator`` key, with a range preset that
# overrides conflicting integer betas.
EVERY_FRAMEWORK_KEY = {
    "contrast": {"temperature": 0.3, "momentum": 0.9, "queue_size": 96},
    "hallucinator": {"enabled": False, "layers": 2, "range": "narrow", "beta1": 0,
                     "beta2": 1, "pair_weight": 0.25, "after_predictor": True},
}

# ``resolved_json()`` text pinned byte for byte: a run's
# ``resolved_config.json`` and a checkpoint's embedded config are this echo.
DEFAULT_ECHO = """\
{
  "augment": {
    "alpha": 0.6,
    "blur_prob": 0.5,
    "center_crop_both": false,
    "flip_prob": 0.5,
    "grayscale_prob": 0.2,
    "jitter_strength": 0.4,
    "out_size": 32,
    "p": 0.5,
    "scale_max": 1.0,
    "scale_min": 0.2
  },
  "contrast": {
    "momentum": 0.99,
    "queue_size": 1024,
    "temperature": 0.2
  },
  "data": {
    "classes": 10,
    "path": "data/synthetic.bin",
    "per_class": 100
  },
  "encoder": {
    "channels": [
      16,
      32,
      64
    ],
    "feature_dim": 64,
    "hidden_dim": 128,
    "kernel": 3
  },
  "framework": "moco",
  "hallucinator": {
    "after_predictor": false,
    "beta1": 0.0,
    "beta2": 1.0,
    "enabled": true,
    "layers": 3,
    "pair_weight": 0.5,
    "range": null
  },
  "metrics": {
    "pairs": "all",
    "t": 2.0
  },
  "probe": {
    "batch_size": 64,
    "epochs": 20,
    "lr": 0.3,
    "sgd_momentum": 0.9,
    "val_fraction": 0.2,
    "weight_decay": 0.0
  },
  "seed": 42,
  "train": {
    "batch_size": 64,
    "checkpoint_every": 0,
    "epochs": 5,
    "lr": 0.06,
    "metrics_path": "metrics.csv",
    "preset": null,
    "sgd_momentum": 0.9,
    "weight_decay": 0.0005
  }
}
"""

EVERY_FRAMEWORK_KEY_ECHO = """\
{
  "augment": {
    "alpha": 0.6,
    "blur_prob": 0.5,
    "center_crop_both": false,
    "flip_prob": 0.5,
    "grayscale_prob": 0.2,
    "jitter_strength": 0.4,
    "out_size": 32,
    "p": 0.5,
    "scale_max": 1.0,
    "scale_min": 0.2
  },
  "contrast": {
    "momentum": 0.9,
    "queue_size": 96,
    "temperature": 0.3
  },
  "data": {
    "classes": 10,
    "path": "data/synthetic.bin",
    "per_class": 100
  },
  "encoder": {
    "channels": [
      16,
      32,
      64
    ],
    "feature_dim": 64,
    "hidden_dim": 128,
    "kernel": 3
  },
  "framework": "moco",
  "hallucinator": {
    "after_predictor": true,
    "beta1": 0.0,
    "beta2": 0.1,
    "enabled": false,
    "layers": 2,
    "pair_weight": 0.25,
    "range": "narrow"
  },
  "metrics": {
    "pairs": "all",
    "t": 2.0
  },
  "probe": {
    "batch_size": 64,
    "epochs": 20,
    "lr": 0.3,
    "sgd_momentum": 0.9,
    "val_fraction": 0.2,
    "weight_decay": 0.0
  },
  "seed": 42,
  "train": {
    "batch_size": 64,
    "checkpoint_every": 0,
    "epochs": 5,
    "lr": 0.06,
    "metrics_path": "metrics.csv",
    "preset": null,
    "sgd_momentum": 0.9,
    "weight_decay": 0.0005
  }
}
"""


class TestEcho:
    def test_default_echo_text(self):
        assert ExperimentConfig().resolved_json() == DEFAULT_ECHO
        assert config_from_dict({}).resolved_json() == DEFAULT_ECHO

    def test_every_framework_key_echo_text(self):
        assert config_from_dict(EVERY_FRAMEWORK_KEY).resolved_json() == EVERY_FRAMEWORK_KEY_ECHO

    def test_integer_betas_echo_as_given(self):
        text = config_from_dict({"hallucinator": {"beta1": 0, "beta2": 1}}).resolved_json()
        assert '"beta1": 0,\n' in text
        assert '"beta2": 1,\n' in text

    def test_echo_reparses_to_the_same_text(self):
        text = config_from_dict(EVERY_FRAMEWORK_KEY).resolved_json()
        assert config_from_dict(json.loads(text)).resolved_json() == text


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

    def test_inverted_betas_rejected_under_a_range(self):
        with pytest.raises(ConfigError, match="beta1 must be <="):
            config_from_dict({"hallucinator": {"range": "wide", "beta1": 0.9, "beta2": 0.1}})

    @pytest.mark.parametrize("bad, message", [
        (FrameworkConfig(temperature=0.0), "contrast.temperature must be > 0"),
        (FrameworkConfig(momentum=1.5), r"contrast.momentum must be in \[0, 1\]"),
        (FrameworkConfig(queue_size=0), "contrast.queue_size must be >= 1"),
        (FrameworkConfig(hallucinator_layers=-1), "hallucinator.layers must be >= 0"),
        (FrameworkConfig(pair_weight=1.5), r"hallucinator.pair_weight must be in \[0, 1\]"),
    ])
    def test_framework_messages_name_the_json_key(self, bad, message):
        with pytest.raises(ValueError, match=message):
            bad.validate()
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(knobs=bad).validate()

    @pytest.mark.parametrize("kwargs, message", [
        ({"beta1": 0.5, "beta2": 0.1}, "hallucinator.beta1 must be <= beta2"),
        ({"beta1": 0.0, "beta2": np.inf}, "hallucinator.beta1 and beta2 must be finite"),
        ({"range": "huge"}, "hallucinator.range must be one of"),
    ])
    def test_extrapolation_messages_name_the_json_key(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ExtrapolationConfig(**kwargs)


class TestValueTypes:
    """Each key takes only what its field's annotation allows: an int key
    an integer, a float key a finite number, neither a bool."""

    @pytest.mark.parametrize("section, key, value, message", [
        # trained with a queue of capacity 7 while the echo said 7.5
        ("contrast", "queue_size", 7.5, "contrast.queue_size must be an integer"),
        # an uncaught TypeError when the hallucinator was built
        ("hallucinator", "layers", 1.5, "hallucinator.layers must be an integer"),
        # the echo was written holding NaN before the run failed
        ("hallucinator", "beta2", float("nan"), "hallucinator.beta2 must be a finite number"),
        # step 0 trained, step 1 failed with non-finite conv2d input
        ("train", "weight_decay", float("nan"), "train.weight_decay must be a finite number"),
        ("train", "lr", float("inf"), "train.lr must be a finite number"),
        ("train", "epochs", True, "train.epochs must be an integer"),
        ("contrast", "temperature", True, "contrast.temperature must be a finite number"),
        ("augment", "out_size", 16.0, "augment.out_size must be an integer"),
        ("encoder", "feature_dim", "64", "encoder.feature_dim must be an integer"),
        ("metrics", "t", "2", "metrics.t must be a finite number"),
        ("data", "classes", False, "data.classes must be an integer"),
        # the hallucinator ran while the echo said "no"
        ("hallucinator", "enabled", "no", "hallucinator.enabled must be true or false"),
        ("augment", "center_crop_both", 1, "augment.center_crop_both must be true or false"),
        ("encoder", "channels", [8, True], "encoder.channels must be a list of ints"),
        # an uncaught TypeError: unhashable type: 'list'
        ("hallucinator", "range", ["wide"], "hallucinator.range must be a string or null"),
        ("train", "preset", 1, "train.preset must be a string or null"),
        ("data", "path", 5, "data.path must be a string"),
    ])
    def test_rejected_at_load(self, section, key, value, message):
        with pytest.raises(ConfigError, match=message):
            config_from_dict({section: {key: value}})

    def test_nan_in_a_json_file(self, tmp_path):
        p = tmp_path / "nan.json"
        p.write_text('{"hallucinator": {"beta2": NaN}}', encoding="utf-8")
        with pytest.raises(ConfigError, match="hallucinator.beta2 must be a finite number"):
            load_config(p)

    def test_integers_stay_valid_for_float_keys(self):
        cfg = config_from_dict({"train": {"lr": 1, "weight_decay": 0},
                                "contrast": {"temperature": 1}})
        echo = json.loads(cfg.resolved_json())
        assert echo["train"]["lr"] == 1 and isinstance(echo["train"]["lr"], int)
        assert cfg.framework_config().temperature == 1

    def test_every_declared_key_has_a_type_rule(self):
        # loading the full echo type-checks every key of every section
        resolved = ExperimentConfig().resolved_dict()
        assert config_from_dict(resolved).resolved_dict() == resolved

    @pytest.mark.parametrize("annotation", ["float | None", "tuple[float, float]", float])
    def test_an_annotation_without_a_rule_fails_loudly(self, annotation):
        with pytest.raises(TypeError, match="no JSON type rule for s.k"):
            _check_section("s", {"k": 1.0}, {"k": annotation})


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

    @pytest.mark.parametrize("train", [{"preset": "galactic"},
                                       {"preset": "galactic", "batch_size": 8}])
    def test_unknown_preset_names_the_choices(self, train):
        with pytest.raises(ConfigError, match=r"train.preset must be one of \['desk', 'large'\]"):
            config_from_dict({"train": train})

    def test_hallucinator_range_preset_wins_over_betas(self):
        cfg = config_from_dict(
            {"hallucinator": {"range": "narrow", "beta1": 0.3, "beta2": 0.9}}
        )
        ext = cfg.framework_config().extrapolation
        assert (ext.range, ext.beta1, ext.beta2) == ("narrow", 0.0, 0.1)

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


def _section(**keys):
    """A config section holding any subset of ``keys``."""
    return st.fixed_dictionaries({}, optional=keys)


def _floats(lo=None, hi=None, *, open_lo=False, open_hi=False):
    return st.floats(lo, hi, exclude_min=open_lo, exclude_max=open_hi,
                     allow_nan=False, allow_infinity=False)


_COUNT = st.integers(1, 2**31)
_POSITIVE = _floats(0.0, open_lo=True)
_UNIT = _floats(0.0, 1.0)
_MOMENTUM = _floats(0.0, 1.0, open_hi=True)

# Valid configs over every section and key.  Each bound of a pair is in order
# with the other, whether that one is drawn or left at its default:
# scale_min <= 0.2 <= scale_max, beta1 <= 0.0 and beta2 >= 1.0.
_VALID_CONFIG = st.fixed_dictionaries({}, optional={
    "seed": st.integers(0, 2**63 - 1),
    "framework": st.sampled_from(FRAMEWORK_NAMES),
    "data": _section(path=st.text(), classes=st.integers(2, 2**31), per_class=_COUNT),
    "augment": _section(
        p=_floats(0.0, 1.0, open_lo=True), alpha=_floats(0.0, 1.0, open_lo=True, open_hi=True),
        out_size=st.integers(4, 2**31), scale_min=_floats(0.0, 0.2, open_lo=True),
        scale_max=_floats(0.2, 1.0), jitter_strength=_UNIT, grayscale_prob=_UNIT,
        flip_prob=_UNIT, blur_prob=_UNIT, center_crop_both=st.booleans()),
    "encoder": _section(channels=st.lists(_COUNT, min_size=1, max_size=4),
                        kernel=st.integers(0, 5).map(lambda k: 2 * k + 1),
                        hidden_dim=_COUNT, feature_dim=st.integers(2, 2**31)),
    "train": _section(preset=st.sampled_from([None, *TRAIN_PRESETS]), batch_size=_COUNT,
                      epochs=st.integers(0, 2**31), lr=_POSITIVE, sgd_momentum=_MOMENTUM,
                      weight_decay=_floats(0.0), checkpoint_every=st.integers(0, 2**31),
                      metrics_path=st.text()),
    "probe": _section(epochs=_COUNT, lr=_POSITIVE, sgd_momentum=_MOMENTUM,
                      weight_decay=_floats(0.0), batch_size=_COUNT,
                      val_fraction=_floats(0.0, 1.0, open_lo=True, open_hi=True)),
    "metrics": _section(t=_POSITIVE, pairs=st.sampled_from(["all", "positive"])),
    "contrast": _section(temperature=_POSITIVE, momentum=_UNIT, queue_size=_COUNT),
    "hallucinator": _section(
        enabled=st.booleans(), layers=st.integers(0, 2**31),
        range=st.sampled_from([None, *RANGE_PRESETS]), beta1=_floats(hi=0.0),
        beta2=_floats(1.0), pair_weight=_UNIT, after_predictor=st.booleans()),
})


@settings(max_examples=200, deadline=None, database=None)
@given(raw=_VALID_CONFIG)
def test_resolved_json_round_trips(raw):
    cfg = config_from_dict(raw)
    text = cfg.resolved_json()
    assert config_from_dict(json.loads(text)).resolved_json() == text


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
