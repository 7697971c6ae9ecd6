"""Versioned JSON run configuration covering every subcommand.

One document carries the model, adapter, LoRA, loss, data, training, and
test-time-adaptation sections; each consumer reads only the sections it
needs.  Parsing is strict: an unknown key or a bad version is an error, and
absent keys fall back to the section defaults.

Every section checks its own rules in ``__post_init__``, so a config that
exists is valid however it was made -- parsed, constructed, or derived with
``dataclasses.replace`` -- and no stage checks it again.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

from .adapter import METHODS, AdapterConfig, LoraConfig
from .data import DomainConfig, SplitSizes, default_source_domain, default_target_domain
from .data import read_json_object, write_json
from .errors import ValidationError
from .losses import LossConfig
from .model import ModelConfig
from .params import check_int, check_number

CONFIG_VERSION = 1

# Desk-scale adapter dims; AdapterConfig's own defaults carry the published
# dims, which would dwarf the toy decoder.
TOY_ADAPTER = AdapterConfig(num_prompts=2, prompt_dim=128, key_dim=64, value_dim=64)


@dataclass(frozen=True)
class TrainSettings:
    method: str = "sam_da_dec"
    lr: float = 1e-3
    epochs: int = 3
    batch_size: int = 4
    seed: int = 0
    weight_decay: float = 0.0
    init_from: str | None = None
    # Cap on training samples, taken in stored (volume-contiguous) order.
    # Models the scarce-annotation regime where parameter-efficient methods
    # hold their largest edge; None trains on the whole split.
    max_train_samples: int | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValidationError(f"method {self.method!r} not one of {METHODS}")
        check_number(self.lr, "lr", 0.0, above=True)
        check_int(self.epochs, "epochs", 1)
        check_int(self.batch_size, "batch_size", 1)
        check_int(self.seed, "train seed", 0)
        check_number(self.weight_decay, "weight_decay", 0.0)
        if self.max_train_samples is not None:
            check_int(self.max_train_samples, "max_train_samples", 1)


@dataclass(frozen=True)
class TTDASettings:
    iterations: int = 5
    # Calibrated on the target validation split; larger steps let the
    # proximity term push confident-pixel entropy back up mid-adaptation.
    lr: float = 1e-3
    lambda_entropy: float = 1.0
    lambda_proximity: float = 1.0
    lambda_contrastive: float = 0.1
    positive_offset: int = 1
    negative_min_offset: int = 5
    seed: int = 0
    split: str = "target_test"

    def __post_init__(self):
        check_int(self.iterations, "iterations", 1)
        check_number(self.lr, "ttda lr", 0.0, above=True)
        check_int(self.seed, "ttda seed", 0)
        for name in ("lambda_entropy", "lambda_proximity", "lambda_contrastive"):
            check_number(getattr(self, name), name, 0.0)
        check_int(self.positive_offset, "positive_offset", 1)
        check_int(self.negative_min_offset, "negative_min_offset", 1)
        if not self.positive_offset < self.negative_min_offset:
            raise ValidationError(
                f"offsets must satisfy 0 < positive ({self.positive_offset}) "
                f"< negative_min ({self.negative_min_offset})"
            )


@dataclass(frozen=True)
class DataSettings:
    source: DomainConfig = default_source_domain()
    target: DomainConfig = default_target_domain()
    sizes: SplitSizes = SplitSizes()


@dataclass(frozen=True)
class RunConfig:
    version: int = CONFIG_VERSION
    model: ModelConfig = ModelConfig()
    adapter: AdapterConfig = TOY_ADAPTER
    lora: LoraConfig = LoraConfig()
    loss: LossConfig = LossConfig()
    data: DataSettings = DataSettings()
    train: TrainSettings = TrainSettings()
    ttda: TTDASettings = TTDASettings()

    def __post_init__(self):
        if self.version != CONFIG_VERSION:
            raise ValidationError(
                f"unsupported config version {self.version!r}; expected {CONFIG_VERSION}"
            )

    def validate(self) -> "RunConfig":
        """Kept for callers that chain it; every section checked itself when built."""
        return self


def default_config() -> RunConfig:
    return RunConfig()


def _matches(value, hint) -> bool:
    """Whether a JSON value fits a field's type hint; bools are not numbers."""
    origin = get_origin(hint)
    if origin in (Union, UnionType):
        return any(_matches(value, arg) for arg in get_args(hint))
    if origin is tuple:
        args = get_args(hint)
        if not isinstance(value, (list, tuple)):
            return False
        if len(args) == 2 and args[1] is Ellipsis:
            args = (args[0],) * len(value)
        return len(value) == len(args) and all(map(_matches, value, args))
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float)) and math.isfinite(value)
    return isinstance(value, hint)


def overlay(default, payload: dict):
    """Strict overlay of a JSON object onto a frozen dataclass instance.

    Keys must name fields and values must fit the field types; JSON lists
    become tuples.
    """
    cls = type(default)
    if not isinstance(payload, dict):
        raise ValidationError(f"{cls.__name__} section must be an object, got {type(payload).__name__}")
    hints = get_type_hints(cls)
    unknown = sorted(set(payload) - {f.name for f in fields(cls)})
    if unknown:
        raise ValidationError(f"unknown {cls.__name__} keys: {', '.join(unknown)}")
    updates = {}
    for key, value in payload.items():
        hint = hints[key]
        if not _matches(value, hint):
            expected = hint if get_origin(hint) else hint.__name__
            raise ValidationError(f"{cls.__name__}.{key} must be {expected}, got {value!r}")
        updates[key] = tuple(value) if isinstance(value, list) else value
    return replace(default, **updates)


_SECTIONS = ("model", "adapter", "lora", "loss", "train", "ttda")


def config_from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ValidationError("config document must be a JSON object")
    base = default_config()
    known = {"version", "data", *_SECTIONS}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ValidationError(f"unknown config sections: {', '.join(unknown)}")
    sections = {name: overlay(getattr(base, name), doc.get(name, {})) for name in _SECTIONS}
    data_doc = doc.get("data", {})
    if not isinstance(data_doc, dict):
        raise ValidationError("data section must be an object")
    unknown = sorted(set(data_doc) - {"source", "target", "sizes"})
    if unknown:
        raise ValidationError(f"unknown data keys: {', '.join(unknown)}")
    data = DataSettings(
        source=overlay(base.data.source, data_doc.get("source", {})),
        target=overlay(base.data.target, data_doc.get("target", {})),
        sizes=overlay(base.data.sizes, data_doc.get("sizes", {})),
    )
    return RunConfig(version=doc.get("version", CONFIG_VERSION), data=data, **sections)


def config_to_dict(cfg: RunConfig) -> dict:
    # Callers may hand us Path objects for fields typed as str (init_from,
    # data roots); JSON round-tripping must not care.
    def scrub(value):
        if isinstance(value, Path):
            return str(value)
        if isinstance(value, dict):
            return {key: scrub(inner) for key, inner in value.items()}
        if isinstance(value, list):
            return [scrub(inner) for inner in value]
        return value

    return scrub(asdict(cfg))


def load_config(path: str | Path) -> RunConfig:
    return config_from_dict(read_json_object(path, "config"))


def save_config(path: str | Path, cfg: RunConfig) -> None:
    write_json(path, config_to_dict(cfg))
