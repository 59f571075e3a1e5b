"""Run configuration: one JSON file, dataclass-backed, with strict keys
(unknown keys are errors) and one-to-one command-line overrides."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from .evaluation import BalanceConfig
from .nnet import ModelConfig
from .smellscan import RuleThresholds


class ConfigError(ValueError):
    pass


# fields that are not settings: the model's vocabulary size is its dictionary's
_DERIVED = frozenset({"model.vocab_size"})


@dataclass
class PathsConfig:
    issues: str | None = None
    commits: str | None = None
    changes: str | None = None
    links: str | None = None
    repo: str | None = None
    smell_vectors: str | None = None
    pmd_report: str | None = None
    dataset: str | None = None
    model: str | None = None
    dictionary: str | None = None
    out_dir: str = "out"


@dataclass
class TextPrepConfig:
    max_vocab: int | None = None


@dataclass
class EvalConfig:
    folds: int = 5


@dataclass
class RunConfig:
    paths: PathsConfig = field(default_factory=PathsConfig)
    smell: RuleThresholds = field(default_factory=RuleThresholds)
    textprep: TextPrepConfig = field(default_factory=TextPrepConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    balance: BalanceConfig = field(default_factory=BalanceConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    project: str = "project"
    source_extensions: str = ".java"
    seed: int = 0
    verbose: bool = False

    def extensions_tuple(self) -> tuple[str, ...]:
        return tuple(e.strip() for e in self.source_extensions.split(",") if e.strip())


def _build(cls, data: dict, prefix: str):
    known = {f.name: f for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in known or f"{prefix}{key}" in _DERIVED:
            raise ConfigError(f"unknown config key {prefix}{key}")
        sub = _resolve(cls, key)
        if sub is not None:
            if not isinstance(value, dict):
                raise ConfigError(f"{prefix}{key} must be an object")
            kwargs[key] = _build(sub, value, f"{prefix}{key}.")
        else:
            if key == "allowed_package_prefixes" and isinstance(value, list):
                value = tuple(value)
            kwargs[key] = value
    return cls(**kwargs)


def _resolve(cls, key):
    """The dataclass type of a nested config section, else None."""
    for f in fields(cls):
        if f.name == key and dataclasses.is_dataclass(f.default_factory):
            return f.default_factory
    return None


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> RunConfig:
    data: dict = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed config {path}: {exc}") from exc
    cfg = _build(RunConfig, data, "")
    for dotted, raw in (overrides or {}).items():
        apply_override(cfg, dotted, raw)
    return cfg


def flat_keys(cls=RunConfig, prefix: str = "") -> list[tuple[str, type]]:
    """Dotted leaf keys of the config tree, for generating CLI flags."""
    out = []
    for f in fields(cls):
        sub = _resolve(cls, f.name)
        if sub is not None:
            out.extend(flat_keys(sub, f"{prefix}{f.name}."))
        elif f"{prefix}{f.name}" not in _DERIVED:
            out.append((f"{prefix}{f.name}", f.type))
    return out


def apply_override(cfg: RunConfig, dotted: str, raw: str) -> None:
    if dotted not in {key for key, _ in flat_keys()}:
        raise ConfigError(f"unknown config key {dotted}")
    *sections, leaf = dotted.split(".")
    obj = cfg
    for section in sections:
        obj = getattr(obj, section)
    setattr(obj, leaf, _coerce(raw, getattr(obj, leaf), dotted))


def _coerce(raw: str, current, dotted: str):
    if isinstance(current, bool):
        if str(raw).lower() in ("1", "true", "yes", "on"):
            return True
        if str(raw).lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{dotted}: expected a boolean, got {raw!r}")
    if isinstance(current, int) and not isinstance(current, bool):
        return int(raw)
    if isinstance(current, float):
        return float(raw)
    if isinstance(current, tuple):
        return tuple(s.strip() for s in str(raw).split(",") if s.strip())
    if current is None:
        if dotted.startswith("paths."):
            return raw
        # untyped optional leaf: keep ints as ints when they parse
        try:
            return int(raw)
        except (TypeError, ValueError):
            return raw
    return raw
