"""Experiment configuration: JSON in, validated dataclasses out.

Each section is declared once, by the dataclass that runs it: ``augment``
is ``AugmentConfig``, ``encoder`` is ``EncoderConfig``, and ``contrast``
with ``hallucinator`` is ``FrameworkConfig``, whose fields the key table
``FRAMEWORK_KEYS`` names; coercion, unknown-key rejection and
``resolved_dict`` all read that table.  A key takes only the JSON values
its field's annotation allows (``_ACCEPTS``): no bool for a number, only
finite floats.  Every failure names the dotted key.  ``resolved_dict``
emits the full effective configuration with defaults and presets
expanded; feeding that JSON back in reproduces the run bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .augment import AugmentConfig
from .encoder import EncoderConfig
from .frameworks import FRAMEWORK_NAMES, FrameworkConfig
from .hallucinator import ExtrapolationConfig
from .rng import DEFAULT_SEED

# JSON key -> FrameworkConfig field; the EXTRAPOLATION_KEYS name fields of
# its nested ExtrapolationConfig instead.
FRAMEWORK_KEYS = {
    "hallucinator": {"enabled": "hallucinator", "layers": "hallucinator_layers",
                     "range": "range", "beta1": "beta1", "beta2": "beta2",
                     "pair_weight": "pair_weight",
                     "after_predictor": "hallucinate_after_predictor"},
    "contrast": {"temperature": "temperature", "momentum": "momentum",
                 "queue_size": "queue_size"},
}
EXTRAPOLATION_KEYS = ("range", "beta1", "beta2")

TRAIN_PRESETS = {
    "desk": {"batch_size": 64, "epochs": 5, "lr": 0.06},
    "large": {"batch_size": 512, "epochs": 500, "lr": 0.5},
}


class ConfigError(ValueError):
    """Configuration file is malformed or fails validation."""


@dataclass
class DataSection:
    path: str = "data/synthetic.bin"
    classes: int = 10
    per_class: int = 100

    def validate(self) -> None:
        if self.classes < 2:
            raise ConfigError("data.classes must be >= 2")
        if self.per_class < 1:
            raise ConfigError("data.per_class must be >= 1")


@dataclass
class TrainSection:
    preset: str | None = None
    batch_size: int = 64
    epochs: int = 5
    lr: float = 0.06
    sgd_momentum: float = 0.9
    weight_decay: float = 5e-4
    checkpoint_every: int = 0
    metrics_path: str = "metrics.csv"

    def validate(self) -> None:
        if self.preset is not None and self.preset not in TRAIN_PRESETS:
            raise ConfigError(f"train.preset must be one of {sorted(TRAIN_PRESETS)}")
        if self.batch_size < 1:
            raise ConfigError("train.batch_size must be >= 1")
        if self.epochs < 0:
            raise ConfigError("train.epochs must be >= 0")
        if not self.lr > 0:
            raise ConfigError("train.lr must be > 0")
        if not 0.0 <= self.sgd_momentum < 1.0:
            raise ConfigError("train.sgd_momentum must be in [0, 1)")
        if self.weight_decay < 0:
            raise ConfigError("train.weight_decay must be >= 0")
        if self.checkpoint_every < 0:
            raise ConfigError("train.checkpoint_every must be >= 0")


@dataclass
class ProbeSection:
    epochs: int = 20
    lr: float = 0.3
    sgd_momentum: float = 0.9
    weight_decay: float = 0.0
    batch_size: int = 64
    val_fraction: float = 0.2

    def validate(self) -> None:
        if self.epochs < 1:
            raise ConfigError("probe.epochs must be >= 1")
        if not self.lr > 0:
            raise ConfigError("probe.lr must be > 0")
        if not 0.0 <= self.sgd_momentum < 1.0:
            raise ConfigError("probe.sgd_momentum must be in [0, 1)")
        if self.weight_decay < 0:
            raise ConfigError("probe.weight_decay must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("probe.batch_size must be >= 1")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError("probe.val_fraction must be in (0, 1)")


@dataclass
class MetricsSection:
    t: float = 2.0
    pairs: str = "all"

    def validate(self) -> None:
        if not self.t > 0:
            raise ConfigError("metrics.t must be > 0")
        if self.pairs not in ("all", "positive"):
            raise ConfigError("metrics.pairs must be 'all' or 'positive'")


_SECTIONS = {
    "data": DataSection,
    "augment": AugmentConfig,
    "encoder": EncoderConfig,
    "train": TrainSection,
    "probe": ProbeSection,
    "metrics": MetricsSection,
}


@dataclass
class ExperimentConfig:
    seed: int = DEFAULT_SEED
    framework: str = "moco"
    data: DataSection = field(default_factory=DataSection)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    knobs: FrameworkConfig = field(default_factory=FrameworkConfig)
    train: TrainSection = field(default_factory=TrainSection)
    probe: ProbeSection = field(default_factory=ProbeSection)
    metrics: MetricsSection = field(default_factory=MetricsSection)

    def validate(self) -> None:
        if self.framework not in FRAMEWORK_NAMES:
            raise ConfigError(
                f"framework must be one of {sorted(FRAMEWORK_NAMES)}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigError("seed must be an integer")
        try:
            for name in _SECTIONS:
                getattr(self, name).validate()
            self.knobs.validate()
        except ValueError as exc:
            # the augment, encoder and framework sections are the runtime
            # configs, which raise plain ValueError
            raise ConfigError(str(exc)) from None

    def framework_config(self) -> FrameworkConfig:
        """The ``contrast`` and ``hallucinator`` sections, as frameworks take them.

        This is the config's own ``knobs`` object, not a copy: a framework
        built from it shares it with the config echo and the resume check.
        """
        return self.knobs

    def resolved_dict(self) -> dict:
        """Full effective configuration with presets expanded."""
        out: dict = {"seed": self.seed, "framework": self.framework}
        for name in _SECTIONS:
            section = getattr(self, name)
            out[name] = {f.name: getattr(section, f.name) for f in fields(section)}
        for name, keys in FRAMEWORK_KEYS.items():
            out[name] = {key: getattr(self.knobs.extrapolation if f in EXTRAPOLATION_KEYS
                                      else self.knobs, f) for key, f in keys.items()}
        return out

    def resolved_json(self) -> str:
        return json.dumps(self.resolved_dict(), indent=2, sort_keys=True) + "\n"


# The JSON values each field annotation accepts, as a message names them;
# keyed by the annotation's text, since every hcl module postpones the
# evaluation of annotations.  A bool is never an int or a float here, and a
# float must be finite.
_ACCEPTS = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a finite number"),
    "bool": ((bool,), "true or false"),
    "str": ((str,), "a string"),
    "str | None": ((str, type(None)), "a string or null"),
}


def _check_section(name: str, raw, kinds: dict[str, str]) -> None:
    """Reject a non-object, unknown keys, and values of the wrong type."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be a JSON object")
    unknown = sorted(set(raw) - set(kinds))
    if unknown:
        raise ConfigError(
            f"unknown key{'s' if len(unknown) > 1 else ''} in {name}: "
            + ", ".join(repr(k) for k in unknown)
        )
    for key, value in raw.items():
        if kinds[key] == "list[int]":  # encoder.channels, checked by _coerce_section
            continue
        if kinds[key] not in _ACCEPTS:
            raise TypeError(f"no JSON type rule for {name}.{key}: {kinds[key]!r}")
        types, noun = _ACCEPTS[kinds[key]]
        if (not isinstance(value, types) or isinstance(value, bool) and bool not in types
                or isinstance(value, float) and not math.isfinite(value)):
            raise ConfigError(f"{name}.{key} must be {noun}, got {value!r}")


def _coerce_framework(raw: dict) -> FrameworkConfig:
    kinds = {f.name: f.type for f in fields(FrameworkConfig) + fields(ExtrapolationConfig)}
    kwargs: dict = {}
    for name, keys in FRAMEWORK_KEYS.items():
        section = raw.get(name, {})
        _check_section(name, section, {key: kinds[f] for key, f in keys.items()})
        kwargs |= {f: section[key] for key, f in keys.items() if key in section}
    bounds = {k: kwargs.pop(k) for k in EXTRAPOLATION_KEYS if k in kwargs}
    try:
        return FrameworkConfig(extrapolation=ExtrapolationConfig(**bounds), **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _coerce_section(cls, name: str, raw: dict):
    _check_section(name, raw, {f.name: f.type for f in fields(cls)})
    kwargs = dict(raw)
    if cls is TrainSection and kwargs.get("preset") is not None:
        preset = kwargs["preset"]
        if preset not in TRAIN_PRESETS:
            raise ConfigError(f"train.preset must be one of {sorted(TRAIN_PRESETS)}")
        merged = dict(TRAIN_PRESETS[preset])
        merged.update({k: v for k, v in kwargs.items() if k != "preset"})
        kwargs = {"preset": preset, **merged}
    if cls is EncoderConfig and "channels" in kwargs:
        ch = kwargs["channels"]
        if not isinstance(ch, list) or not all(type(c) is int for c in ch):
            raise ConfigError("encoder.channels must be a list of ints")
    return cls(**kwargs)


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a JSON object")
    known = set(_SECTIONS) | set(FRAMEWORK_KEYS) | {"seed", "framework"}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(
            f"unknown top-level key{'s' if len(unknown) > 1 else ''}: "
            + ", ".join(repr(k) for k in unknown)
        )
    kwargs: dict = {key: raw[key] for key in ("seed", "framework") if key in raw}
    for name, cls in _SECTIONS.items():
        if name in raw:
            kwargs[name] = _coerce_section(cls, name, raw[name])
    kwargs["knobs"] = _coerce_framework(raw)
    cfg = ExperimentConfig(**kwargs)
    cfg.validate()
    return cfg


def load_config(path, seed_override: int | None = None) -> ExperimentConfig:
    """Parse and validate a JSON config file.

    ``seed_override`` (from the command line) wins over the file's seed,
    which wins over the built-in default.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    cfg = config_from_dict(raw)
    if seed_override is not None:
        cfg.seed = int(seed_override)
        cfg.validate()
    return cfg
