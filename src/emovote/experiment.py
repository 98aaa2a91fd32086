"""Experiment configuration: which models to train, on which data, where.

The shipped default is a 7-model ensemble over three audio feature sources:

    tag     loss   gamma  weights  audio source
    model1  focal  2.0    prior    whisper
    model2  focal  2.5    prior    whisper
    model3  ce     -      prior    whisper
    model4  focal  2.0    uniform  whisper
    model5  ce     -      uniform  whisper
    model6  focal  2.0    prior    wavlm
    model7  focal  3.0    prior    hubert

Audio source tags map to distinct synthetic feature spaces (generator
variant + dim) so that ensemble diversity is exercised without any real
feature extractors.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field, fields
from pathlib import Path

from .data import (
    SyntheticSpec,
    count_labels,
    load_manifest,
    load_utterances,
)
from .losses import LossConfig, prior_weights, uniform_weights
# load_checkpoint and evaluate are unused here; perfbench's tracer patches them by name
from .model import FUSION_KINDS, Model, ModelConfig, load_checkpoint
from .training import SchedulerConfig, TrainConfig, train, evaluate
from .ensemble import write_records

# audio feature source tag -> synthetic stand-in (generator variant, feature dim)
AUDIO_SOURCES = {
    "whisper": {"variant": 0, "dim": 32},
    "wavlm": {"variant": 1, "dim": 28},
    "hubert": {"variant": 2, "dim": 36},
}


# config-file key -> ModelSpec field
_SPEC_KEYS = {"tag": "tag", "loss": "loss_kind", "gamma": "gamma", "weights": "weight_scheme",
              "audio": "audio_source", "fusion": "fusion"}


@dataclass(frozen=True)
class ModelSpec:
    """One ensemble member: loss configuration plus audio feature source."""

    tag: str
    loss_kind: str = "ce"        # "ce" | "focal"
    gamma: float = 0.0
    weight_scheme: str = "uniform"  # "uniform" | "prior"
    audio_source: str = "whisper"
    fusion: str = "early"

    def __post_init__(self):
        if self.loss_kind not in ("ce", "focal"):
            raise ValueError(f"{self.tag}: unknown loss kind {self.loss_kind!r}")
        if self.weight_scheme not in ("uniform", "prior"):
            raise ValueError(f"{self.tag}: unknown weight scheme {self.weight_scheme!r}")
        if self.audio_source not in AUDIO_SOURCES:
            raise ValueError(f"{self.tag}: unknown audio source {self.audio_source!r} "
                             f"(known: {sorted(AUDIO_SOURCES)})")
        if self.fusion not in FUSION_KINDS:
            raise ValueError(f"{self.tag}: unknown fusion {self.fusion!r}")
        if self.gamma < 0:
            raise ValueError(f"{self.tag}: gamma must be >= 0")

    def to_dict(self) -> dict:
        return {key: getattr(self, name) for key, name in _SPEC_KEYS.items()}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        if not isinstance(d, dict) or "tag" not in d:
            raise ValueError(f"model spec needs a 'tag' key: {d!r}")
        unknown = set(d) - set(_SPEC_KEYS)
        if unknown:
            raise ValueError(f"{d['tag']}: unknown model-spec keys {sorted(unknown)} "
                             f"(known: {list(_SPEC_KEYS)})")
        kwargs = {_SPEC_KEYS[key]: value for key, value in d.items()}
        if "gamma" in kwargs:
            kwargs["gamma"] = float(kwargs["gamma"])
        return cls(**kwargs)


def default_models() -> tuple[ModelSpec, ...]:
    return (
        ModelSpec("model1", "focal", 2.0, "prior", "whisper"),
        ModelSpec("model2", "focal", 2.5, "prior", "whisper"),
        ModelSpec("model3", "ce", 0.0, "prior", "whisper"),
        ModelSpec("model4", "focal", 2.0, "uniform", "whisper"),
        ModelSpec("model5", "ce", 0.0, "uniform", "whisper"),
        ModelSpec("model6", "focal", 2.0, "prior", "wavlm"),
        ModelSpec("model7", "focal", 3.0, "prior", "hubert"),
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment run needs, 1:1 with the config file."""

    models: tuple[ModelSpec, ...] = field(default_factory=default_models)
    data_dir: str = "data"
    out_dir: str = "runs"
    hidden: int = 512
    n_transformer_layers: int = 2
    n_classes: int = 8
    lmf_rank: int = 4
    batch_size: int = 128
    initial_lr: float = 1e-4
    max_epochs: int = 20
    scheduler_factor: float = 0.5
    scheduler_patience: int = 1
    seed: int = 0

    def __post_init__(self):
        tags = [m.tag for m in self.models]
        if len(tags) != len(set(tags)):
            dupes = sorted({t for t in tags if tags.count(t) > 1})
            raise ValueError(f"model tags must be unique; duplicated: {dupes}")
        if not self.models:
            raise ValueError("experiment needs >= 1 model spec")
        # checked by the configs they are forwarded to (dims, fusion, seed: placeholders)
        self.model_config(audio_dim=1, text_dim=1, fusion="early", seed=0)
        self.train_config(LossConfig(), seed=0)

    def model_config(self, audio_dim: int, text_dim: int, fusion: str,
                     seed: int) -> ModelConfig:
        return ModelConfig(audio_dim=audio_dim, text_dim=text_dim, hidden=self.hidden,
                           n_transformer_layers=self.n_transformer_layers,
                           n_classes=self.n_classes, fusion=fusion, lmf_rank=self.lmf_rank,
                           seed=seed)

    def train_config(self, loss: LossConfig, seed: int) -> TrainConfig:
        return TrainConfig(batch_size=self.batch_size, initial_lr=self.initial_lr,
                           max_epochs=self.max_epochs,
                           scheduler=SchedulerConfig(factor=self.scheduler_factor,
                                                     patience=self.scheduler_patience),
                           loss=loss, seed=seed)

    def spec_for(self, tag: str) -> ModelSpec:
        for m in self.models:
            if m.tag == tag:
                return m
        raise KeyError(f"no model spec tagged {tag!r} "
                       f"(available: {[m.tag for m in self.models]})")

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "models"}
        d["models"] = [m.to_dict() for m in self.models]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown experiment-config fields: {sorted(unknown)}")
        kwargs = dict(d)
        if "models" in kwargs:
            kwargs["models"] = tuple(ModelSpec.from_dict(m) for m in kwargs["models"])
        for f in ("initial_lr", "scheduler_factor"):
            if f in kwargs:
                kwargs[f] = float(kwargs[f])
        return cls(**kwargs)


def _read_mapping(path, what: str) -> dict:
    """Read a YAML or JSON file whose root must be a mapping; ``what`` names it in errors."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"{what} file not found: {path}")
    text = path.read_text()
    import yaml
    try:
        raw = json.loads(text) if path.suffix == ".json" else yaml.safe_load(text)
    except (json.JSONDecodeError, yaml.YAMLError) as e:
        kind = "JSON" if path.suffix == ".json" else "YAML"
        raise ValueError(f"{path}: not valid {kind}: {e}") from e
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: {what} root must be a mapping")
    return raw


def _load(path, what: str, from_dict):
    """Build a config from a YAML or JSON file; a bad value's error names the file."""
    raw = _read_mapping(path, what)
    try:
        return from_dict(raw)
    except (TypeError, ValueError, KeyError) as e:
        raise ValueError(f"{path}: bad {what}: {e}") from e


def load_experiment_config(path) -> ExperimentConfig:
    """Read a YAML or JSON experiment config file."""
    return _load(path, "config", ExperimentConfig.from_dict)


def load_synthetic_spec(path) -> SyntheticSpec:
    """Read a YAML or JSON synthetic-spec file."""
    return _load(path, "synthetic spec", SyntheticSpec.from_dict)


def model_seed(base_seed: int, tag: str) -> int:
    """Distinct, stable per-model seed."""
    return (base_seed * 1000003 + zlib.crc32(tag.encode())) % (2 ** 31)


@dataclass(frozen=True)
class RunResult:
    tag: str
    checkpoint_path: Path
    report_path: Path
    predictions_path: Path
    dev_macro_f1: float
    dev_wa: float
    dev_ua: float


def run_model(cfg: ExperimentConfig, spec: ModelSpec, data_dir=None, out_dir=None,
              seed: int | None = None) -> RunResult:
    """Train one ensemble member end to end and persist its artifacts.

    Writes <out>/<tag>/checkpoint.bin, report.json, log.jsonl and
    predictions.jsonl (dev-set records of the best epoch, made during training).
    """
    data_dir = Path(data_dir if data_dir is not None else cfg.data_dir)
    out_dir = Path(out_dir if out_dir is not None else cfg.out_dir)
    base_seed = cfg.seed if seed is None else seed
    source_dir = data_dir / spec.audio_source
    train_entries = load_manifest(source_dir / "train.tsv")
    dev_entries = load_manifest(source_dir / "dev.tsv")
    train_set = load_utterances(train_entries)
    dev_set = load_utterances(dev_entries)

    if spec.weight_scheme == "prior":
        weights = prior_weights(count_labels(train_entries, cfg.n_classes))
    else:
        weights = uniform_weights(cfg.n_classes)
    loss = LossConfig(kind=spec.loss_kind, gamma=spec.gamma, class_weights=weights)

    mseed = model_seed(base_seed, spec.tag)
    model_cfg = cfg.model_config(audio_dim=train_set[0].audio.shape[1],
                                 text_dim=train_set[0].text.shape[1], fusion=spec.fusion,
                                 seed=mseed)
    train_cfg = cfg.train_config(loss, seed=mseed)

    tag_dir = out_dir / spec.tag
    tag_dir.mkdir(parents=True, exist_ok=True)
    ckpt = tag_dir / "checkpoint.bin"
    report = train(Model(model_cfg), train_set, dev_set, train_cfg, ckpt,
                   log_path=tag_dir / "log.jsonl", model_tag=spec.tag)
    report.save(tag_dir / "report.json")
    write_records(tag_dir / "predictions.jsonl", report.best_records)
    best = report.best_epoch
    return RunResult(tag=spec.tag, checkpoint_path=ckpt,
                     report_path=tag_dir / "report.json",
                     predictions_path=tag_dir / "predictions.jsonl",
                     dev_macro_f1=report.dev_macro_f1[best], dev_wa=report.dev_wa[best],
                     dev_ua=report.dev_ua[best])
