"""The benchmark's tracer wraps program functions by name, so a renamed or
deleted function must fail here and not only when the benchmark runs."""

import importlib.util
import sys
from pathlib import Path

from smelltriage import corpus, evaluation, labeler, smellscan  # noqa: F401  (the tracer wraps them)
from smelltriage import cli, nnet, textprep
from smelltriage.labeler import GitScanSource, build_labeled_dataset
from test_labeler import _history_store

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


def test_predict_on_matching_files_loads_each_once_and_re_exports_nothing(tmp_path, capsys):
    """The per-call work the predict benchmark times: one model read, and for
    the dictionary `train` wrote neither a full parse nor a re-export. A CRLF
    copy of it is parsed once and re-exported once to check the pair."""
    dictionary = textprep.Dictionary({"crash": 2, "parser": 3})
    cfg = nnet.ModelConfig(vocab_size=dictionary.vocab_size, seq_len=12, embed_dim=4,
                           conv1_filters=2, conv1_width=3, conv2_filters=2, conv2_width=2,
                           pool_size=2)
    nnet.save_model(nnet.init_model(cfg, 0, dict_hash=dictionary.content_hash()),
                    tmp_path / "model.bin")
    dictionary.save(tmp_path / "dictionary.tsv")
    crlf = tmp_path / "crlf.tsv"
    crlf.write_bytes((tmp_path / "dictionary.tsv").read_bytes().replace(b"\n", b"\r\n"))
    counts, lines = [], []
    for dict_path in (tmp_path / "dictionary.tsv", crlf):
        tracer = _load_tracing().Tracer()
        tracer.install()
        try:
            assert cli.main(["--paths.model", str(tmp_path / "model.bin"),
                             "--paths.dictionary", str(dict_path),
                             "predict", "--summary", "crash in parser"]) == cli.EXIT_OK
        finally:
            tracer.uninstall()
        lines.append(capsys.readouterr().out)
        counts.append([tracer.calls(n, "none") for n in (
            "textprep.Dictionary.load", "nnet.load_model", "textprep.Dictionary.content_hash")])
    assert lines[0].startswith("label=") and lines[1] == lines[0]
    assert counts == [[0, 1, 0], [1, 1, 1]]


def test_stemming_and_scanning_reach_their_traced_boundaries_once_per_item(tmp_path):
    """`stemmer.calls` counts the tokens of the reports, and the scanner's
    per-stage times cover each scanned blob once."""
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        summary, description = "Crash on load", "null pointer in the parser2, again"
        textprep.report_text(summary, description)
        assert tracer.calls("stemmer.stem", "none") == len(
            textprep.tokenize(summary) + textprep.tokenize(description)) == 9
        store, _ = _history_store(tmp_path, [f"class Legacy {{ int v{i}; }}\n".encode()
                                             for i in range(4)])
        dataset = build_labeled_dataset(store, GitScanSource(store=store))
    finally:
        tracer.uninstall()
    assert len(dataset.samples) == 3
    blobs = len(tracer.seen_blobs)
    assert blobs == 4 and {n: tracer.calls(f"smellscan.{n}", "none") for n in (
        "scan_source", "strip_comments_and_strings", "scan_metrics")} == {
        "scan_source": blobs, "strip_comments_and_strings": blobs, "scan_metrics": blobs}
