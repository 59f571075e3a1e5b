"""Run configuration: every setting's dataclass, which the stages import from
here, one JSON file with strict keys and one-to-one command-line overrides. A
file's value and a flag's string go through one coercion, keyed on its type."""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Literal


class ConfigError(ValueError):
    pass


# fields that are not settings: the model's vocabulary size is its dictionary's
_DERIVED = frozenset({"model.vocab_size"})


@dataclass
class PathsConfig:
    issues: str | None = None
    commits: str | None = None
    links: str | None = None
    repo: str | None = None
    smell_vectors: str | None = None
    dataset: str | None = None
    model: str | None = None
    dictionary: str | None = None
    out_dir: str = "out"


@dataclass
class RuleThresholds:
    """Per-rule numeric thresholds. Each comparison is strict greater-than,
    except DataClass's: an accessor ratio >= `dataclass_accessor_ratio`."""

    cyclo_npath_threshold: int = 40
    coupling_threshold: int = 20
    class_length_threshold: int = 1000
    import_threshold: int = 30
    method_length_threshold: int = 100
    parameter_threshold: int = 10
    public_count_threshold: int = 45
    godclass_wmc_threshold: int = 47
    godclass_member_threshold: int = 20
    dataclass_accessor_ratio: float = 0.8
    ncss_method_threshold: int = 60
    ncss_class_threshold: int = 1500
    switch_density_threshold: float = 10.0
    field_threshold: int = 15
    method_threshold: int = 10
    # LoosePackageCoupling is inert unless prefixes are configured
    allowed_package_prefixes: tuple[str, ...] = ()


@dataclass
class TextPrepConfig:
    max_vocab: int | None = None


@dataclass
class ModelConfig:
    vocab_size: int = 2
    seq_len: int = 200          # padded input length
    embed_dim: int = 128        # embedding dimension
    conv1_filters: int = 64
    conv1_width: int = 5
    conv2_filters: int = 32
    conv2_width: int = 5
    pool_size: int = 8
    dropout_rate: float = 0.5
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 20
    dtype: Literal["float32", "float64"] = "float32"  # float64: gradient checks; float16 NaNs

    def stage_lengths(self) -> tuple[int, int, int, int, int]:
        """(conv1_out, pool1_out, conv2_out, pool2_out, flatten) lengths.
        Raises ConfigError naming the first stage that fails to compose."""
        if self.pool_size < 1:
            raise ConfigError(f"pool: size {self.pool_size} must be at least 1")
        t1 = self.seq_len - self.conv1_width + 1
        if t1 < 1:
            raise ConfigError(f"conv1: width {self.conv1_width} exceeds input length {self.seq_len}")
        p1 = t1 // self.pool_size
        if p1 < 1:
            raise ConfigError(f"pool1: pool size {self.pool_size} exceeds conv1 output length {t1}")
        t2 = p1 - self.conv2_width + 1
        if t2 < 1:
            raise ConfigError(f"conv2: width {self.conv2_width} exceeds pool1 output length {p1}")
        p2 = t2 // self.pool_size
        if p2 < 1:
            raise ConfigError(f"pool2: pool size {self.pool_size} exceeds conv2 output length {t2}")
        return t1, p1, t2, p2, p2 * self.conv2_filters


@dataclass
class BalanceConfig:
    k: int = 5
    scope: Literal["train", "all", "both"] = "train"  # "train" is leak-free
    enabled: bool = True


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
    source_extensions: tuple[str, ...] = (".java",)
    seed: int = 0


def _leaf_types(cls, prefix: str = "") -> dict[str, object]:
    """Dotted key -> declared type of every setting under `cls`."""
    out = {}
    for name, hint in typing.get_type_hints(cls).items():
        if dataclasses.is_dataclass(hint):
            out.update(_leaf_types(hint, f"{prefix}{name}."))
        elif f"{prefix}{name}" not in _DERIVED:
            out[f"{prefix}{name}"] = hint
    return out


_TYPES = _leaf_types(RunConfig)
_SECTIONS = frozenset(key.rsplit(".", 1)[0] for key in _TYPES if "." in key)


def flat_keys() -> list[tuple[str, object]]:
    """Dotted leaf keys of the config tree and their declared types."""
    return list(_TYPES.items())


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> RunConfig:
    """Defaults, then the JSON file at `path`, then `overrides` (key -> flag string)."""
    cfg = RunConfig()
    if path is not None:
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except (ValueError, RecursionError) as exc:  # bad JSON, nested too deep, or bad UTF-8
            raise ConfigError(f"malformed config {path}: {exc}") from exc
        _load_object(cfg, data, f"config {path}", "")
    for dotted, raw in (overrides or {}).items():
        apply_override(cfg, dotted, raw)
    if cfg.seed < 0:  # numpy's generators take no negative seed
        raise ConfigError(f"seed: expected an integer >= 0, got {cfg.seed}")
    if cfg.textprep.max_vocab is not None and cfg.textprep.max_vocab < 3:
        # indices 0 and 1 are reserved, so a smaller limit keeps no word
        raise ConfigError("textprep.max_vocab: expected an integer >= 3 or null, "
                          f"got {cfg.textprep.max_vocab}")
    return cfg


def _load_object(obj, data, name: str, prefix: str) -> None:
    """Set the settings of `obj` that the JSON object `data` names."""
    if not isinstance(data, dict):
        raise ConfigError(f"{name}: expected an object, got {json.dumps(data)}")
    for key, value in data.items():
        dotted = f"{prefix}{key}"
        if "." in key or (dotted not in _TYPES and dotted not in _SECTIONS):
            # a JSON key may hold any character: escape it to keep the message one line
            raise ConfigError(f"unknown config key {json.dumps(dotted, ensure_ascii=False)[1:-1]}")
        if dotted in _SECTIONS:
            _load_object(getattr(obj, key), value, dotted, f"{dotted}.")
        else:
            setattr(obj, key, _coerce(dotted, _TYPES[dotted], value, flag=False))


def apply_override(cfg: RunConfig, dotted: str, raw: str) -> None:
    """Set `dotted` from a command-line flag's string."""
    if dotted not in _TYPES:
        raise ConfigError(f"unknown config key {dotted}")
    *sections, leaf = dotted.split(".")
    obj = cfg
    for section in sections:
        obj = getattr(obj, section)
    setattr(obj, leaf, _coerce(dotted, _TYPES[dotted], raw, flag=True))


_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}
# scalar type -> (the JSON types that give it, the parser of a flag's string, its name)
_SCALARS = {bool: ((bool,), lambda s: _BOOL_WORDS[s.lower()], "a boolean"),
            int: ((int,), int, "an integer"),
            float: ((int, float), float, "a number"),
            str: ((str,), str, "a string")}


def _coerce(key: str, hint, value, flag: bool):
    """`value`, a JSON value or a flag's string, as type `hint`. A flag's string
    is parsed by the type; a JSON value must have it, or be a comma string for
    a tuple."""
    optional = typing.get_origin(hint) is types.UnionType  # X | None
    if value is None and optional:
        return None
    base = next(t for t in typing.get_args(hint) if t is not type(None)) if optional else hint
    origin, choices = typing.get_origin(base), typing.get_args(base)
    if origin is Literal:
        expected = "one of " + ", ".join(json.dumps(choice) for choice in choices)
    elif origin is tuple:
        expected = "a list of strings or a comma-separated string"
    else:
        kinds, parse, expected = _SCALARS[base]
    try:
        if origin is Literal:
            if value in choices:
                return value
        elif origin is tuple:
            parts = value.split(",") if isinstance(value, str) else value
            if isinstance(parts, list) and all(isinstance(p, str) for p in parts):
                return tuple(p.strip() for p in parts if p.strip())
        elif flag:
            return parse(value)
        elif type(value) in kinds:
            return base(value)  # a JSON integer is a valid number
    except (KeyError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{key}: expected {expected}{' or null' if optional else ''}, "
                      f"got {json.dumps(value)}")
