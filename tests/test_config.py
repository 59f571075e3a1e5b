import json

import pytest

from smelltriage.config import (
    ConfigError, RunConfig, apply_override, flat_keys, load_config,
)


def test_defaults():
    cfg = load_config(None)
    assert cfg.model.seq_len == 200
    assert cfg.model.embed_dim == 128
    assert cfg.eval.folds == 5
    assert cfg.balance.scope == "train"
    assert cfg.source_extensions == ".java"


def test_load_from_file(tmp_path):
    p = tmp_path / "run.json"
    p.write_text(json.dumps({
        "project": "infinispan",
        "model": {"seq_len": 100},
        "smell": {"import_threshold": 25},
    }))
    cfg = load_config(p)
    assert cfg.project == "infinispan"
    assert cfg.model.seq_len == 100
    assert cfg.smell.import_threshold == 25
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
    assert len(keys) == 48


def test_extensions_tuple_splits_and_strips():
    cfg = RunConfig(source_extensions=".java, .scala")
    assert cfg.extensions_tuple() == (".java", ".scala")
