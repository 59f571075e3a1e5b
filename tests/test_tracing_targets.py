"""The benchmark's tracer wraps program functions by name, so a renamed or
deleted function must fail here and not only when the benchmark runs."""

import importlib.util
import sys
from pathlib import Path

import smelltriage.cli  # noqa: F401  (imports every module the tracer wraps)
from smelltriage import textprep

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Identity of every attribute of every smelltriage module and class."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "smelltriage" or name.startswith("smelltriage."):
            for key, value in vars(module).items():
                out[(name, key)] = id(value)
                if isinstance(value, type) and value.__module__ == name:
                    out.update({(name, key, k): id(v) for k, v in vars(value).items()})
    return out


def test_tracer_installs_every_target_and_uninstalls_cleanly():
    tracing = _load_tracing()
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for mod_name, attr in tracing.TARGETS:
            owner_name, _, leaf = attr.rpartition(".")
            owner = sys.modules[f"smelltriage.{mod_name}"]
            if owner_name:
                owner = getattr(owner, owner_name)
            target = owner.__dict__[leaf] if owner_name else getattr(owner, leaf)
            target = getattr(target, "__func__", target)  # a wrapped classmethod
            assert hasattr(target, "__wrapped__"), f"{mod_name}.{attr} is not traced"
        # featurize reaches the traced textprep boundaries, once per call
        textprep.featurize([textprep.report_text("Crash on load", "null pointer"), "x y"], 5)
        assert {n: tracer.calls(f"textprep.{n}", "none")
                for n in ("preprocess", "tokenize", "build_vocabulary", "doc2indices")} == {
            "preprocess": 2, "tokenize": 4, "build_vocabulary": 1, "doc2indices": 2}
    finally:
        tracer.uninstall()
    assert _bindings() == before
