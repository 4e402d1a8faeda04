"""Experiment configuration: JSON in, validated dataclasses out.

Unknown keys are rejected (typos should fail loudly, not silently train
the wrong model).  Every validation failure names the offending key and
its constraint.  ``resolved_dict`` emits the full effective configuration
with all defaults and presets expanded; feeding that JSON back in
reproduces the run bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from .augment import AugmentConfig
from .encoder import EncoderConfig
from .frameworks import FRAMEWORK_NAMES, FrameworkConfig
from .hallucinator import RANGE_PRESETS, ExtrapolationConfig
from .rng import DEFAULT_SEED

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
class HallucinatorSection:
    enabled: bool = True
    layers: int = 3
    range: str | None = None
    beta1: float = 0.0
    beta2: float = 1.0
    pair_weight: float = 0.5
    after_predictor: bool = False

    def validate(self) -> None:
        if self.layers < 0:
            raise ConfigError("hallucinator.layers must be >= 0")
        if self.range is not None and self.range not in RANGE_PRESETS:
            raise ConfigError(
                f"hallucinator.range must be one of {sorted(RANGE_PRESETS)}"
            )
        if self.beta2 < self.beta1:
            raise ConfigError("hallucinator.beta1 must be <= hallucinator.beta2")
        if not 0.0 <= self.pair_weight <= 1.0:
            raise ConfigError("hallucinator.pair_weight must be in [0, 1]")

    def resolved_betas(self) -> tuple[float, float]:
        if self.range is not None:
            return RANGE_PRESETS[self.range]
        return (self.beta1, self.beta2)


@dataclass
class ContrastSection:
    temperature: float = 0.2
    momentum: float = 0.99
    queue_size: int = 1024

    def validate(self) -> None:
        if not self.temperature > 0:
            raise ConfigError("contrast.temperature must be > 0")
        if not 0.0 <= self.momentum <= 1.0:
            raise ConfigError("contrast.momentum must be in [0, 1]")
        if self.queue_size < 1:
            raise ConfigError("contrast.queue_size must be >= 1")


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
    "hallucinator": HallucinatorSection,
    "contrast": ContrastSection,
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
    hallucinator: HallucinatorSection = field(default_factory=HallucinatorSection)
    contrast: ContrastSection = field(default_factory=ContrastSection)
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
        except ValueError as exc:
            # the augment and encoder sections are the runtime configs,
            # which raise plain ValueError
            raise ConfigError(str(exc)) from None

    def framework_config(self) -> FrameworkConfig:
        b1, b2 = self.hallucinator.resolved_betas()
        return FrameworkConfig(
            temperature=self.contrast.temperature,
            momentum=self.contrast.momentum,
            queue_size=self.contrast.queue_size,
            hallucinator=self.hallucinator.enabled,
            hallucinator_layers=self.hallucinator.layers,
            extrapolation=ExtrapolationConfig(b1, b2),
            pair_weight=self.hallucinator.pair_weight,
            hallucinate_after_predictor=self.hallucinator.after_predictor,
        )

    def resolved_dict(self) -> dict:
        """Full effective configuration with presets expanded."""
        out: dict = {"seed": self.seed, "framework": self.framework}
        for name in _SECTIONS:
            section = getattr(self, name)
            entry = {f.name: getattr(section, f.name) for f in fields(section)}
            out[name] = entry
        b1, b2 = self.hallucinator.resolved_betas()
        out["hallucinator"]["beta1"] = b1
        out["hallucinator"]["beta2"] = b2
        return out

    def resolved_json(self) -> str:
        return json.dumps(self.resolved_dict(), indent=2, sort_keys=True) + "\n"


def _coerce_section(cls, name: str, raw: dict):
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be a JSON object")
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(
            f"unknown key{'s' if len(unknown) > 1 else ''} in {name}: "
            + ", ".join(repr(k) for k in unknown)
        )
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
        if not isinstance(ch, list) or not all(isinstance(c, int) for c in ch):
            raise ConfigError("encoder.channels must be a list of ints")
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a JSON object")
    known = set(_SECTIONS) | {"seed", "framework"}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(
            f"unknown top-level key{'s' if len(unknown) > 1 else ''}: "
            + ", ".join(repr(k) for k in unknown)
        )
    kwargs: dict = {}
    if "seed" in raw:
        kwargs["seed"] = raw["seed"]
    if "framework" in raw:
        kwargs["framework"] = raw["framework"]
    for name, cls in _SECTIONS.items():
        if name in raw:
            kwargs[name] = _coerce_section(cls, name, raw[name])
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
