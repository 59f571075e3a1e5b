import json
import re
import types
import typing
from pathlib import Path
from typing import Literal

import pytest
from hypothesis import given, settings, strategies as st

from conftest import modules_after
from smelltriage.config import (
    ConfigError, RunConfig, apply_override, flat_keys, load_config,
)


def test_defaults():
    cfg = load_config(None)
    assert cfg.model.seq_len == 200
    assert cfg.model.embed_dim == 128
    assert cfg.eval.folds == 5
    assert cfg.balance.scope == "train"
    assert cfg.source_extensions == (".java",)


def test_load_from_file(tmp_path):
    p = tmp_path / "run.json"
    p.write_text(json.dumps({
        "project": "infinispan",
        "model": {"seq_len": 100},
        "smell": {"import_threshold": 25},
        "textprep": {"max_vocab": None},
    }))
    cfg = load_config(p)
    assert cfg.project == "infinispan"
    assert cfg.model.seq_len == 100
    assert cfg.smell.import_threshold == 25
    assert cfg.textprep.max_vocab is None
    assert cfg.model.epochs == 20  # untouched defaults survive


def test_unknown_key_rejected(tmp_path):
    p = tmp_path / "run.json"
    p.write_text(json.dumps({"textprep": {"seqlen": 100}}))
    with pytest.raises(ConfigError, match="unknown config key textprep.seqlen"):
        load_config(p)


@pytest.mark.parametrize("section,key", [("textprep", "seq_len"), ("model", "vocab_size")])
def test_input_length_and_vocabulary_size_are_not_settings(section, key, tmp_path):
    """model.seq_len is the one input length; the vocabulary size is the dictionary's."""
    p = tmp_path / "run.json"
    p.write_text(json.dumps({section: {key: 100}}))
    with pytest.raises(ConfigError, match=f"unknown config key {section}.{key}"):
        load_config(p)
    with pytest.raises(ConfigError, match=f"unknown config key {section}.{key}"):
        apply_override(RunConfig(), f"{section}.{key}", "100")
    assert f"{section}.{key}" not in {k for k, _ in flat_keys()}


def test_malformed_json_rejected(tmp_path):
    p = tmp_path / "run.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="malformed"):
        load_config(p)


def test_config_that_is_not_utf8_is_malformed(tmp_path):
    p = tmp_path / "run.json"
    p.write_bytes(b'{"project": "caf\xe9"}')
    with pytest.raises(ConfigError, match="malformed"):
        load_config(p)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.json")


def test_overrides_coerce_types():
    cfg = RunConfig()
    apply_override(cfg, "model.epochs", "7")
    apply_override(cfg, "model.learning_rate", "0.01")
    apply_override(cfg, "balance.enabled", "false")
    apply_override(cfg, "smell.allowed_package_prefixes", "com.a, com.b")
    assert cfg.model.epochs == 7
    assert cfg.model.learning_rate == 0.01
    assert cfg.balance.enabled is False
    assert cfg.smell.allowed_package_prefixes == ("com.a", "com.b")


def test_override_bad_boolean_rejected():
    with pytest.raises(ConfigError, match="boolean"):
        apply_override(RunConfig(), "balance.enabled", "maybe")


def test_override_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        apply_override(RunConfig(), "model.no_such_knob", "1")


def test_flat_keys_cover_nested_tree():
    keys = {k for k, _ in flat_keys()}
    assert "model.learning_rate" in keys
    assert "smell.cyclo_npath_threshold" in keys
    assert "paths.issues" in keys
    assert "project" in keys
    assert len(keys) == 45


def test_config_imports_no_stage_and_no_numpy():
    """Every setting is declared here, so reading a config loads no stage."""
    loaded = modules_after("import smelltriage.config")
    assert {m for m in loaded if m.startswith("smelltriage")} == {"smelltriage",
                                                                  "smelltriage.config"}
    assert "numpy" not in loaded


def test_readme_names_every_setting():
    """README names each key in full, or by its last part in backticks in the
    table of its section."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    assert [key for key, _ in flat_keys()
            if key not in readme and f"`{key.rpartition('.')[2]}`" not in readme] == []


def _config_file(path, key, value):
    """Write a config file that sets the dotted `key` to the JSON `value`."""
    section, _, leaf = key.rpartition(".")
    path.write_text(json.dumps({section: {leaf: value}} if section else {leaf: value}))
    return path


def _get(cfg, key):
    section, _, leaf = key.rpartition(".")
    return getattr(getattr(cfg, section) if section else cfg, leaf)


_COERCE_CASES = [
    ("model.epochs", 7, "7", 7),
    ("model.learning_rate", 1, "1", 1.0),
    ("balance.enabled", False, "Off", False),
    ("textprep.max_vocab", 500, "500", 500),
    ("balance.scope", "both", "both", "both"),
    ("source_extensions", [".java", " .scala"], ".java, .scala,", (".java", ".scala")),
    ("smell.allowed_package_prefixes", "com.a, ,com.b", "com.a,com.b", ("com.a", "com.b")),
]


@pytest.mark.parametrize("key,json_value,flag,expected", _COERCE_CASES,
                         ids=[case[0] for case in _COERCE_CASES])
def test_file_value_and_flag_string_coerce_alike(key, json_value, flag, expected, tmp_path):
    """A JSON value and a flag string go through one coercion, keyed on the
    declared type; string lists come as JSON lists or comma strings."""
    from_file = load_config(_config_file(tmp_path / "run.json", key, json_value))
    assert from_file == load_config(None, {key: flag})
    got = _get(from_file, key)
    assert got == expected and type(got) is type(expected)


@pytest.mark.parametrize("doc,message", [
    ([1, 2], "expected an object, got [1, 2]"),
    ({"model": 3}, "model: expected an object, got 3"),
    ({"model": {"epochs": "2"}}, 'model.epochs: expected an integer, got "2"'),
    ({"model": {"epochs": True}}, "model.epochs: expected an integer, got true"),
    ({"model.epochs": 2}, "unknown config key model.epochs"),
    ({"balance": {"scope": "bogus"}}, 'balance.scope: expected one of "train", "all", "both"'),
    ({"model": {"dtype": "float16"}}, 'model.dtype: expected one of "float32", "float64"'),
    ({"source_extensions": [".java", 1]}, "source_extensions: expected a list of strings"),
])
def test_mistyped_file_value_is_a_config_error(doc, message, tmp_path):
    p = tmp_path / "run.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(p)


_BOOL_WORDS = {"1": True, "TRUE": True, "yes": True, "On": True,
               "0": False, "false": False, "NO": False, "off": False}


def _inner(hint):
    """X of `X | None`, else `hint`."""
    if typing.get_origin(hint) is types.UnionType:
        return next(arg for arg in typing.get_args(hint) if arg is not type(None))
    return hint


def _well_typed(hint):
    """(JSON value, flag string, setting) triples that mean the same setting."""
    hint = _inner(hint)
    if hint is bool:
        return st.sampled_from(sorted(_BOOL_WORDS.items())).map(lambda w: (w[1], w[0], w[1]))
    if hint is int:
        return st.integers().map(lambda i: (i, str(i), i))
    if hint is float:
        numbers = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-2**53, 2**53)
        return numbers.map(lambda x: (x, repr(x), float(x)))
    if hint is str:
        return st.text().map(lambda s: (s, s, s))
    if typing.get_origin(hint) is Literal:
        return st.sampled_from(typing.get_args(hint)).map(lambda s: (s, s, s))
    assert typing.get_origin(hint) is tuple
    parts = st.lists(st.text(st.characters(exclude_characters=",")), max_size=4)
    return parts.map(lambda p: (p, ",".join(p), tuple(s.strip() for s in p if s.strip())))


# Each example writes a fresh file: truncating an existing one costs tens of
# milliseconds on some filesystems.
@settings(max_examples=60)
@given(data=st.data())
def test_every_setting_means_the_same_from_a_file_and_from_a_flag(data, tmp_path_factory):
    doc, flags, expected = {}, {}, {}
    for key, hint in flat_keys():
        values = _well_typed(hint)
        if key == "seed":  # the one setting whose range the config checks
            values = values.filter(lambda v: v[2] >= 0)
        json_value, flags[key], expected[key] = data.draw(values, label=key)
        section, _, leaf = key.rpartition(".")
        (doc.setdefault(section, {}) if section else doc)[leaf] = json_value
    p = tmp_path_factory.mktemp("cfg") / "run.json"
    p.write_text(json.dumps(doc))
    from_file, from_flags = load_config(p), load_config(None, flags)
    assert from_file == from_flags
    assert {key: _get(from_file, key) for key in expected} == expected


def _file_may_give(hint, value) -> bool:
    """Whether a config file may give the JSON `value` for a `hint` setting."""
    if value is None:
        return typing.get_origin(hint) is types.UnionType
    hint = _inner(hint)
    if typing.get_origin(hint) is Literal:
        return value in typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        return type(value) is str or (type(value) is list
                                      and all(type(v) is str for v in value))
    return type(value) in {bool: (bool,), int: (int,), float: (int, float), str: (str,)}[hint]


def _flag_may_give(hint, text: str) -> bool:
    """Whether a flag may give the string `text` for a `hint` setting."""
    hint = _inner(hint)
    if hint is bool:
        return text.lower() in {w.lower() for w in _BOOL_WORDS}
    if typing.get_origin(hint) is Literal:
        return text in typing.get_args(hint)
    if hint in (int, float):
        try:
            hint(text)
        except ValueError:
            return False
    return True


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=300)
@given(key_hint=st.sampled_from(flat_keys()), value=_JSON,
       text=st.text() | st.sampled_from(["1", "-3", "0.5", "1e3", "nan", "true", "off", "all"]))
def test_a_mistyped_setting_raises_config_error_and_nothing_else(key_hint, value, text,
                                                                  tmp_path_factory):
    key, hint = key_hint
    p = _config_file(tmp_path_factory.mktemp("cfg") / "run.json", key, value)
    for load, fits, given in ((lambda: load_config(p), _file_may_give(hint, value), value),
                              (lambda: load_config(None, {key: text}),
                               _flag_may_give(hint, text), text)):
        if fits and key == "seed":
            fits = int(given) >= 0  # a negative seed is refused too
        if fits:
            load()
        else:
            with pytest.raises(ConfigError, match=f"^{re.escape(key)}: expected "):
                load()


@settings(max_examples=200)
@given(doc=_JSON | st.dictionaries(st.sampled_from(["model", "smell", "paths", "seed"]), _JSON))
def test_any_json_document_loads_or_raises_config_error(doc, tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "run.json"
    p.write_text(json.dumps(doc))
    try:
        load_config(p)
    except ConfigError as exc:
        assert "\n" not in str(exc)
    else:
        assert isinstance(doc, dict)
