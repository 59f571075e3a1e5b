import dataclasses
import hashlib
import json
import logging
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import SMELL_FIXTURE_DIR, _git, child_env, modules_after
from test_textprep import _edit, _inserts, _lf, _lines_of, _write
from smelltriage import cli, datafiles, evaluation, nnet, synthetic, textprep
from smelltriage.cli import EXIT_DIAGNOSTICS, EXIT_FATAL, EXIT_OK


def _base_args(bug_repo, out_dir):
    p = bug_repo["record_paths"]
    return [
        "--paths.issues", str(p["issues"]),
        "--paths.commits", str(p["commits"]),
        "--paths.links", str(p["links"]),
        "--paths.repo", str(bug_repo["repo"]),
        "--out", str(out_dir),
    ]


def test_build_dataset_end_to_end(bug_repo, tmp_path):
    rc = cli.main(_base_args(bug_repo, tmp_path) + ["build-dataset"])
    # the feature issue is skipped, so the run reports diagnostics
    assert rc == EXIT_DIAGNOSTICS
    header, records = datafiles.read_jsonl(tmp_path / "dataset.jsonl")
    assert header == {"kind": "labeled-dataset", "seed": 0}
    labels = {r["issue_id"]: r["label"] for r in records}
    assert labels == bug_repo["expected_labels"]
    _, stats = datafiles.read_jsonl(tmp_path / "statistics.jsonl")
    assert stats[0]["total"] == 3 and stats[0]["class1"] == 1
    _, skipped = datafiles.read_jsonl(tmp_path / "skipped.jsonl")
    assert any("FEAT-1" in r["reason"] for r in skipped)
    # a rerun into the same directory that skips nothing leaves no stale reasons behind
    _, issues = datafiles.read_jsonl(bug_repo["record_paths"]["issues"])
    datafiles.write_jsonl(tmp_path / "bugs.jsonl", [i for i in issues if i["Issue_type"] == "Bug"])
    args = _base_args(bug_repo, tmp_path)
    args[args.index("--paths.issues") + 1] = str(tmp_path / "bugs.jsonl")
    assert cli.main(args + ["build-dataset"]) == EXIT_OK
    assert datafiles.read_jsonl(tmp_path / "skipped.jsonl") == (
        {"kind": "skip-report", "seed": 0}, [])


def test_build_dataset_missing_input_is_fatal(bug_repo, tmp_path):
    args = _base_args(bug_repo, tmp_path)
    args[args.index("--paths.issues") + 1] = str(tmp_path / "absent.jsonl")
    assert cli.main(args + ["build-dataset"]) == EXIT_FATAL


def test_scan_smells_emits_commit_and_parent_rows(bug_repo, tmp_path):
    rc = cli.main(_base_args(bug_repo, tmp_path) + ["scan-smells"])
    assert rc == EXIT_OK
    _, records = datafiles.read_jsonl(tmp_path / "smell_vectors.jsonl")
    hashes = bug_repo["hashes"]
    # one record per fix commit of a Bug issue, in issue-id order
    assert [r["Commit_Hash"] for r in records] == [hashes[1], hashes[2], hashes[4]]
    kitchen, service = records[0]["Files"]
    assert kitchen["File_path"] == "Kitchen.java"
    assert kitchen["GodClass"] == 1
    assert kitchen["Previous"] is None  # created at the fix commit
    assert service["File_path"] == "Service.java"
    assert service["GodClass"] == 0
    assert service["Previous"]["GodClass"] == 0


@pytest.mark.parametrize("command", ["build-dataset", "scan-smells"])
@pytest.mark.parametrize("repo", ["absent", "plain"])
def test_a_repo_that_is_not_a_git_checkout_is_a_one_line_error(command, repo, bug_repo,
                                                               tmp_path, caplog):
    """Each fix commit's git call used to fail on its own: 3,090 skips or 90
    warnings and exit 2 on the benchmark's label history."""
    path = tmp_path / repo
    if repo == "plain":
        path.mkdir()
    args = _base_args(bug_repo, tmp_path / "out")
    args[args.index("--paths.repo") + 1] = str(path)
    assert cli.main(args + [command]) == EXIT_FATAL
    assert _errors(caplog) == [f"paths.repo: {path} is not a git repository"]


def test_label_from_precomputed_vectors(bug_repo, tmp_path):
    scan_dir = tmp_path / "scan"
    assert cli.main(_base_args(bug_repo, scan_dir) + ["scan-smells"]) == EXIT_OK
    rc = cli.main(_base_args(bug_repo, tmp_path) + [
        "--paths.smell_vectors", str(scan_dir / "smell_vectors.jsonl"), "label"])
    assert rc == EXIT_DIAGNOSTICS
    _, records = datafiles.read_jsonl(tmp_path / "dataset.jsonl")
    labels = {r["issue_id"]: r["label"] for r in records}
    assert labels == bug_repo["expected_labels"]


def test_label_requires_vectors_path(bug_repo, tmp_path):
    assert cli.main(_base_args(bug_repo, tmp_path) + ["label"]) == EXIT_FATAL


def test_label_rejects_old_format_vectors_in_one_line(bug_repo, tmp_path, caplog):
    old = tmp_path / "smell_vectors.jsonl"
    datafiles.write_jsonl(old, [{"Commit_Hash": bug_repo["hashes"][1],
                                 "File_path": "Kitchen.java", "GodClass": 1,
                                 "Parent_Hash": bug_repo["hashes"][0]}])
    rc = cli.main(_base_args(bug_repo, tmp_path) + [
        "--paths.smell_vectors", str(old), "label"])
    assert rc == EXIT_FATAL
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert errors == [f"{old} record 1: missing or malformed field 'Files'; "
                      "rewrite the file with scan-smells"]


def _record_args(root, issues, commits, links, repo):
    args = []
    for name, records in [("issues", issues), ("commits", commits), ("links", links)]:
        path = root / f"{name}.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        args += [f"--paths.{name}", str(path)]
    return args + ["--paths.repo", str(repo)]


def _issue(issue_id, kind="Bug"):
    return {"Issue_id": issue_id, "Issue_type": kind, "Create_date": "2020-01-01T00:00:00Z",
            "Summary_raw": f"report {issue_id} fails", "Description_raw": "wrong total"}


@pytest.fixture(scope="module")
def consecutive_fixes(tmp_path_factory):
    """Two consecutive fixes that touch different files: FIX-1 edits the
    clean Service.java, FIX-2 edits Kitchen.java, a God Class since the
    baseline. Neither adds a smell, so both label 0."""
    root = tmp_path_factory.mktemp("consecutive")
    repo = root / "repo"
    repo.mkdir()
    _git(repo, "init", "-q", "-b", "main")
    kitchen = (SMELL_FIXTURE_DIR / "Kitchen.java").read_text(encoding="utf-8")
    steps = [("baseline", {"Kitchen.java": kitchen, "Service.java": "class Service {}\n"}),
             ("fix 1", {"Service.java": "class Service { int total; }\n"}),
             ("fix 2", {"Kitchen.java": kitchen + "// touched\n"})]
    commits = []
    for day, (message, files) in enumerate(steps, start=1):
        for name, text in files.items():
            (repo / name).write_text(text, encoding="utf-8")
        date = f"2020-01-0{day}T12:00:00Z"
        _git(repo, "add", "."), _git(repo, "commit", "-q", "-m", message, date=date)
        commits.append({"Commit_Hash": _git(repo, "rev-parse", "HEAD"), "Committed_Date": date})
    return {"root": root, "repo": repo, "commits": commits,
            "issues": [_issue("FIX-1"), _issue("FIX-2")],
            "links": [{"Issue_id": "FIX-1", "Commit_Hash": commits[1]["Commit_Hash"]},
                      {"Issue_id": "FIX-2", "Commit_Hash": commits[2]["Commit_Hash"]}]}


def _both_paths(args, out):
    """Exit codes of build-dataset, scan-smells and label, in that order."""
    vectors = str(out / "scan" / "smell_vectors.jsonl")
    return (cli.main(args + ["--out", str(out / "build"), "build-dataset"]),
            cli.main(args + ["--out", str(out / "scan"), "scan-smells"]),
            cli.main(args + ["--out", str(out / "label"), "--paths.smell_vectors", vectors,
                             "label"]))


def test_two_step_labels_consecutive_fixes_like_build_dataset(consecutive_fixes, tmp_path):
    f = consecutive_fixes
    args = _record_args(tmp_path, f["issues"], f["commits"], f["links"], f["repo"])
    assert _both_paths(args, tmp_path) == (EXIT_OK, EXIT_OK, EXIT_OK)
    for name in ("dataset.jsonl", "statistics.jsonl"):
        assert (tmp_path / "label" / name).read_bytes() == \
            (tmp_path / "build" / name).read_bytes()
    _, records = datafiles.read_jsonl(tmp_path / "label" / "dataset.jsonl")
    assert {r["issue_id"]: r["label"] for r in records} == {"FIX-1": 0, "FIX-2": 0}


def test_bug_linked_to_absent_commit_is_skipped_on_both_paths(consecutive_fixes, tmp_path):
    f = consecutive_fixes
    absent = {"Commit_Hash": "e" * 40, "Committed_Date": "2020-01-09T00:00:00Z"}
    args = _record_args(tmp_path, f["issues"] + [_issue("FIX-3")], f["commits"] + [absent],
                        f["links"] + [{"Issue_id": "FIX-3", "Commit_Hash": "e" * 40}],
                        f["repo"])
    assert _both_paths(args, tmp_path) == (EXIT_DIAGNOSTICS,) * 3
    for step in ("build", "label"):
        _, records = datafiles.read_jsonl(tmp_path / step / "dataset.jsonl")
        assert [r["issue_id"] for r in records] == ["FIX-1", "FIX-2"]
        _, skipped = datafiles.read_jsonl(tmp_path / step / "skipped.jsonl")
        assert [r["reason"].split(":")[0] for r in skipped] == ["FIX-3"]


@pytest.mark.parametrize("kind,rev", [("blob", "HEAD:Service.java"), ("tree", "HEAD^{tree}")])
def test_bug_linked_to_a_blob_or_tree_is_skipped_on_both_paths(consecutive_fixes, tmp_path,
                                                               caplog, kind, rev):
    """Such a link was read as a fix that changed no source file, labelled 0."""
    f = consecutive_fixes
    sha = _git(f["repo"], "rev-parse", rev)
    args = _record_args(tmp_path, f["issues"] + [_issue("FIX-3")],
                        f["commits"] + [{"Commit_Hash": sha,
                                         "Committed_Date": "2020-01-09T00:00:00Z"}],
                        f["links"] + [{"Issue_id": "FIX-3", "Commit_Hash": sha}], f["repo"])
    assert _both_paths(args, tmp_path) == (EXIT_DIAGNOSTICS,) * 3
    reason = f"FIX-3: {sha} is a {kind}, not a commit"
    assert reason in [r.getMessage() for r in caplog.records]  # scan-smells reports it
    _, skipped = datafiles.read_jsonl(tmp_path / "build" / "skipped.jsonl")
    assert [r["reason"] for r in skipped] == [reason]
    for step in ("build", "label"):
        _, records = datafiles.read_jsonl(tmp_path / step / "dataset.jsonl")
        assert [r["issue_id"] for r in records] == ["FIX-1", "FIX-2"]


def test_scan_smells_ignores_non_bug_link_to_absent_commit(consecutive_fixes, tmp_path):
    f = consecutive_fixes
    args = _record_args(tmp_path, f["issues"] + [_issue("FEAT-1", "New Feature")],
                        f["commits"],
                        f["links"] + [{"Issue_id": "FEAT-1", "Commit_Hash": "f" * 40}],
                        f["repo"])
    assert cli.main(args + ["--out", str(tmp_path), "scan-smells"]) == EXIT_OK


def test_build_dataset_logs_its_diagnostics(bug_repo, tmp_path, caplog):
    issues = tmp_path / "issues.jsonl"
    lines = bug_repo["record_paths"]["issues"].read_text(encoding="utf-8").splitlines()
    issues.write_text("\n".join(lines + [lines[0]]) + "\n", encoding="utf-8")
    args = _base_args(bug_repo, tmp_path)
    args[args.index("--paths.issues") + 1] = str(issues)
    assert cli.main(args + ["build-dataset"]) == EXIT_DIAGNOSTICS
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warnings == [f"issues.jsonl:{len(lines) + 1}: duplicate key, first occurrence wins"]


@pytest.mark.parametrize("command", ["scan-smells", "label"])
def test_missing_input_file_is_a_one_line_error(command, bug_repo, tmp_path, caplog):
    missing = tmp_path / "absent"
    args = _base_args(bug_repo, tmp_path)
    if command == "scan-smells":
        args[args.index("--paths.issues") + 1] = str(missing)
    else:
        args += ["--paths.smell_vectors", str(missing)]
    assert cli.main(args + [command]) == EXIT_FATAL
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and str(missing) in errors[0]


@pytest.mark.parametrize("argv,flag", [
    (["--nope", "1", "train"], "--nope"), (["--verbose", "train"], "--verbose"),
    (["--paths.pmd_report", "x", "scan-smells"], "--paths.pmd_report"),
    (["--paths.changes", "x", "build-dataset"], "--paths.changes"),
    (["--seed=3", "--nope=1", "train"], "--nope"),
    # a prefix of a known flag is not that flag
    (["--paths.mod", "m", "predict"], "--paths.mod"), (["--conf", "x", "train"], "--conf"),
    (["predict", "--sum", "x"], "--sum"),
])
def test_usage_error_exits_fatal_in_one_line(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == EXIT_FATAL
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert f"unrecognized arguments: {flag}" in err
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == EXIT_OK


def _tiny_dataset(path, n=30, seed=0):
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(30)]
    records = []
    for i in range(n):
        label = i % 2
        toks = list(rng.choice(words, size=8, replace=False))
        if label:
            toks.append("designflaw")
        records.append({"issue_id": f"T-{i}", "commit_hash": "", "label": label,
                        "text": " ".join(toks), "total_added_smells": label})
    datafiles.write_jsonl(path, records)
    return path


_TINY_MODEL_FLAGS = [
    "--model.seq_len", "12", "--model.embed_dim", "4",
    "--model.conv1_filters", "2", "--model.conv1_width", "3",
    "--model.conv2_filters", "2", "--model.conv2_width", "2",
    "--model.pool_size", "2", "--model.epochs", "2", "--model.batch_size", "8",
]


def test_train_then_predict(tmp_path):
    ds = _tiny_dataset(tmp_path / "dataset.jsonl")
    rc = cli.main(["--paths.dataset", str(ds), "--out", str(tmp_path)]
                  + _TINY_MODEL_FLAGS + ["train"])
    assert rc == EXIT_OK
    assert (tmp_path / "model.bin").exists()
    assert (tmp_path / "dictionary.tsv").exists()
    _, history = datafiles.read_jsonl(tmp_path / "history.jsonl")
    assert len(history) == 2

    rc = cli.main(["--paths.model", str(tmp_path / "model.bin"),
                   "--paths.dictionary", str(tmp_path / "dictionary.tsv"),
                   "predict", "--summary", "crash with designflaw in parser"])
    assert rc == EXIT_OK


def test_predict_output_format(tmp_path, capsys):
    ds = _tiny_dataset(tmp_path / "dataset.jsonl")
    cli.main(["--paths.dataset", str(ds), "--out", str(tmp_path)]
             + _TINY_MODEL_FLAGS + ["train"])
    capsys.readouterr()
    cli.main(["--paths.model", str(tmp_path / "model.bin"),
              "--paths.dictionary", str(tmp_path / "dictionary.tsv"),
              "predict", "--summary", "ordinary crash"])
    out = capsys.readouterr().out
    assert out.startswith("label=")
    assert "probability=" in out
    assert ("refer to designer" in out) or ("assign to programmer" in out)


def test_model_seq_len_sets_the_input_length(tmp_path):
    ds = _tiny_dataset(tmp_path / "dataset.jsonl")
    assert cli.main(["--paths.dataset", str(ds), "--out", str(tmp_path)]
                    + _TINY_MODEL_FLAGS + ["train"]) == EXIT_OK
    model = nnet.load_model(tmp_path / "model.bin")
    assert model.cfg.seq_len == 12
    assert model.cfg.vocab_size == textprep.Dictionary.load(tmp_path / "dictionary.tsv").vocab_size


def _predict(model_dir, summary, description, capsys):
    """Exit code and printed probability of one predict call."""
    capsys.readouterr()
    rc = cli.main(["--paths.model", str(model_dir / "model.bin"),
                   "--paths.dictionary", str(model_dir / "dictionary.tsv"),
                   "predict", "--summary", summary, "--description", description])
    out = capsys.readouterr().out
    return rc, float(out.split("probability=")[1].split()[0]) if rc == EXIT_OK else None


def test_predict_scores_a_report_as_its_training_row(bug_repo, tmp_path, capsys):
    """Tracker-stemmed fields differ from the built-in stems; the dataset and
    predict both use the built-in ones, so predict scores each report exactly
    as the model scores its training row."""
    p = bug_repo["record_paths"]
    _, issues = datafiles.read_jsonl(p["issues"])
    for n, issue in enumerate(issues):
        issue["Summary_stemmed"] = f"trackerstem{n} summari"
        issue["Description_stemmed"] = f"trackerstem{n} descript"
    datafiles.write_jsonl(tmp_path / "issues.jsonl", issues)
    args = _base_args(bug_repo, tmp_path)
    args[args.index("--paths.issues") + 1] = str(tmp_path / "issues.jsonl")
    assert cli.main(args + ["build-dataset"]) == EXIT_DIAGNOSTICS  # FEAT-1 is skipped
    assert cli.main(["--paths.dataset", str(tmp_path / "dataset.jsonl"), "--out", str(tmp_path),
                     "--balance.scope", "none"] + _TINY_MODEL_FLAGS + ["train"]) == EXIT_OK
    _, samples = datafiles.read_jsonl(tmp_path / "dataset.jsonl")
    dictionary = textprep.Dictionary.load(tmp_path / "dictionary.tsv")
    model = nnet.load_model(tmp_path / "model.bin")
    X, _ = textprep.featurize([s["text"] for s in samples], model.cfg.seq_len, dictionary)
    _, expected = nnet.predict_batch(model, X)
    by_id = {issue["Issue_id"]: issue for issue in issues}
    for sample, prob in zip(samples, expected):
        issue = by_id[sample["issue_id"]]
        assert "trackerstem" not in sample["text"]
        rc, got = _predict(tmp_path, issue["Summary_raw"], issue["Description_raw"], capsys)
        assert rc == EXIT_OK and abs(got - float(prob)) <= 1e-6


def test_predict_refuses_a_dictionary_the_model_was_not_trained_with(tmp_path, capsys, caplog):
    ds = _tiny_dataset(tmp_path / "dataset.jsonl")
    assert cli.main(["--paths.dataset", str(ds), "--out", str(tmp_path)]
                    + _TINY_MODEL_FLAGS + ["train"]) == EXIT_OK
    trained = textprep.Dictionary.load(tmp_path / "dictionary.tsv").word_to_index
    a, b = sorted(trained)[:2]
    swapped = dict(trained, **{a: trained[b], b: trained[a]})
    textprep.Dictionary(swapped).save(tmp_path / "dictionary.tsv")
    rc, _ = _predict(tmp_path, "crash in parser", "", capsys)
    assert rc == EXIT_FATAL
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and "trained with dictionary" in errors[0]


def test_predict_checks_the_dictionary_by_the_hash_of_its_bytes(trained, tmp_path, capsys,
                                                               caplog, monkeypatch):
    """The dictionary `train` wrote, and its CRLF and CR copies, match by the
    hash of their bytes and print the same line, with neither a parse nor a
    re-export. A respelled copy and another dictionary are refused, naming
    both files."""
    model_path, dict_path = trained / "model.bin", trained / "dictionary.tsv"
    words = textprep.Dictionary.load(dict_path).word_to_index
    model = nnet.load_model(model_path)
    X, _ = textprep.featurize([textprep.report_text("crash in parser", "")],
                              model.cfg.seq_len, textprep.Dictionary(words))
    [label], [prob] = nnet.predict_batch(model, X)
    expected = [f"label={label} probability={prob:.6f}",
                "refer to designer" if label == 1 else "assign to programmer"]
    saved = dict_path.read_bytes()
    first, rest = saved.split(b"\n", 1)
    copies = {name: tmp_path / f"{name}.tsv" for name in (
        "crlf", "cr", "blank-line", "signed-index", "reordered", "other")}
    for name, data in (("crlf", saved.replace(b"\n", b"\r\n")),
                       ("cr", saved.replace(b"\n", b"\r")), ("blank-line", saved + b"\n"),
                       ("signed-index", first.replace(b"\t", b"\t+") + b"\n" + rest),
                       ("reordered", rest + first + b"\n")):
        copies[name].write_bytes(data)
    textprep.Dictionary({**words, "unseen": max(words.values()) + 1}).save(copies["other"])
    calls = []
    monkeypatch.setattr(textprep.Dictionary, "content_hash", lambda self: calls.append("export"))
    monkeypatch.setattr(textprep.Dictionary, "load", lambda path: calls.append("parse"))

    def predict(dictionary):
        capsys.readouterr()
        caplog.clear()
        rc = cli.main(["--paths.model", str(model_path), "--paths.dictionary", str(dictionary),
                       "predict", "--summary", "crash in parser"])
        return rc, capsys.readouterr().out.splitlines(), _errors(caplog)

    for dictionary in (dict_path, copies["crlf"], copies["cr"]):
        assert predict(dictionary) == (EXIT_OK, expected, [])
    for name in ("blank-line", "signed-index", "reordered", "other"):
        assert predict(copies[name]) == (EXIT_FATAL, [], [
            f"{model_path}: trained with dictionary {model.dict_hash!r}, not with {copies[name]}"])
    assert calls == []


def test_predict_refuses_saved_words_that_read_back_as_other_words(tmp_path, caplog):
    """The lines of {"": 0, "\\r": 0, "1": 0}, which `save` refuses to write,
    hash to the model's `dict_hash`, but their `\\r` reads as a line end, so the
    file does not fit."""
    saved = _lines_of({"": 0, "\r": 0, "1": 0}).encode()
    (tmp_path / "dictionary.tsv").write_bytes(saved)
    digest = hashlib.sha256(saved).hexdigest()
    cfg = nnet.ModelConfig(vocab_size=4, seq_len=8, embed_dim=4, conv1_filters=2,
                           conv1_width=3, conv2_filters=2, conv2_width=2, pool_size=2)
    nnet.save_model(nnet.init_model(cfg, 0, dict_hash=digest), tmp_path / "model.bin")
    rc = cli.main(["--paths.model", str(tmp_path / "model.bin"), "--paths.dictionary",
                   str(tmp_path / "dictionary.tsv"), "predict", "--summary", "1"])
    assert rc == EXIT_FATAL
    assert _errors(caplog) == [f"{tmp_path / 'model.bin'}: trained with dictionary "
                               f"{digest!r}, not with {tmp_path / 'dictionary.tsv'}"]


# dictionary words of the bytes of `tokenize`'s words, the empty one included,
# and in some dictionaries one word with a tab, a CR, a U+2028 or a non-ASCII
# letter between two such words. No word holds an LF, as no word of `tokenize`
# does: the lookup would read it as two lines.
_saved_words = st.text(alphabet="ab1-", max_size=2)
_odd_words = st.tuples(_saved_words, st.sampled_from(["\t", "\r", "\u2028", "\u00e9"]),
                       _saved_words).map("".join)
_saved_dicts = st.builds(lambda words, odd: {**words, **odd},
                         st.dictionaries(_saved_words, st.integers(-2, 20), max_size=8),
                         st.dictionaries(_odd_words, st.integers(-2, 20), max_size=1))


@st.composite
def _predict_dictionary_files(draw):
    """Some words, and the bytes of a file for them: their lines, which `save`
    writes unless a word holds a CR, with LF, CRLF or CR line ends, and at
    times an edit of that."""
    words = draw(_saved_dicts)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    data = _lines_of(words).replace("\n", end).encode("utf-8")
    if draw(st.booleans()):
        data = _edit(data, draw(st.tuples(st.integers(0, 9), st.integers(0, 9))),
                     draw(st.integers(0, 99)), draw(st.integers(0, 3)), draw(_inserts))
    return words, data


def _expected_predict(model, model_words, model_path, data, dict_path, summary):
    """Exit code and output or error line of `predict` by the rule: a file fits
    the model when its text, CRLF and CR read as LF, is the lines of the
    model's words, and then the report is scored on the row they give it."""
    if _lf(data) != _lines_of(model_words).encode("utf-8"):
        return EXIT_FATAL, (f"{model_path}: trained with dictionary {model.dict_hash!r}, "
                            f"not with {dict_path}")
    row = textprep.doc2indices(textprep.TokenDocument("", textprep.preprocess(summary)),
                               textprep.Dictionary(model_words), model.cfg.seq_len)
    try:
        [label], [prob] = nnet.predict_batch(model, np.array([row]))
    except ValueError as exc:  # an index outside the model's vocabulary
        return EXIT_FATAL, str(exc)
    return EXIT_OK, f"label={label} probability={prob:.6f}"


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
# "b" is the second distinct word but the tenth token
@example(file=({"a": 2, "b": 3}, b"a\t2\nb\t3\n"), trained_with_file=True, other={},
         report=["a"] * 9 + ["b"])
# a word with a tab starts with a report word and a tab
@example(file=({"a\tb": 2}, b"a\tb\t2\n"), trained_with_file=True, other={}, report=["a", "b"])
# the bytes `save` wrote, but "\r" breaks a line
@example(file=({"": 0, "\r": 0, "1": 0}, b"\t0\n\r\t0\n1\t0\n"), trained_with_file=True,
         other={}, report=["1"] * 4)
# the same words, respelled
@example(file=({"a": 2}, b"a\t+2\n"), trained_with_file=True, other={}, report=["a"] * 4)
@example(file=({"a": 2}, b"\na\t2\n"), trained_with_file=True, other={}, report=["a"] * 4)
# an index outside the model is refused before any embedding row is read
@example(file=({"1": -1}, b"1\t-1\n"), trained_with_file=True, other={}, report=["1"] * 4)
@example(file=({"1": 16}, b"1\t16\n"), trained_with_file=True, other={}, report=["1"] * 4)
@given(file=_predict_dictionary_files(), trained_with_file=st.booleans(), other=_saved_dicts,
       report=st.lists(st.text(alphabet="ab1", min_size=1, max_size=2), min_size=4,
                       max_size=24))
def test_predict_scores_the_report_on_a_file_that_fits_and_refuses_any_other(
        file, trained_with_file, other, report, tmp_path, capsys, caplog):
    """`predict`'s exit code, output and errors are those of the one rule, for
    a model trained with the file's words or with other words. Report words of
    at most two letters are their own stems, and they repeat, so a report
    often has fewer distinct words than seq_len."""
    words, data = file
    path = _write(tmp_path, data)
    model_words = words if trained_with_file else other
    digest = hashlib.sha256(_lines_of(model_words).encode("utf-8")).hexdigest()
    cfg = nnet.ModelConfig(vocab_size=16, seq_len=8, embed_dim=4, conv1_filters=2,
                           conv1_width=3, conv2_filters=2, conv2_width=2, pool_size=2)
    model = nnet.init_model(cfg, 0, dict_hash=digest)
    model_path = tmp_path / f"{digest}.bin"
    if not model_path.exists():
        nnet.save_model(model, model_path)
    summary = " ".join(report)
    capsys.readouterr()
    caplog.clear()
    rc = cli.main(["--paths.model", str(model_path), "--paths.dictionary", str(path),
                   "predict", "--summary", summary])
    got = capsys.readouterr().out.splitlines()[:1] if rc == EXIT_OK else _errors(caplog)
    expected_rc, line = _expected_predict(model, model_words, model_path, data, path, summary)
    assert (rc, got) == (expected_rc, [line])


def _imbalanced_dataset(path):
    """12 reports, 3 of them positive: SMOTE's k=5 must shrink to 2."""
    records = [{"issue_id": f"T-{i}", "commit_hash": "", "label": int(i < 3),
                "text": f"w{i} w{i + 1} {'designflaw' if i < 3 else 'crash'}"}
               for i in range(12)]
    datafiles.write_jsonl(path, records)
    return path


def test_train_exits_with_diagnostics_when_smote_shrinks_k(tmp_path, caplog):
    ds = _imbalanced_dataset(tmp_path / "dataset.jsonl")
    rc = cli.main(["--paths.dataset", str(ds), "--out", str(tmp_path)]
                  + _TINY_MODEL_FLAGS + ["train"])
    assert rc == EXIT_DIAGNOSTICS
    assert (tmp_path / "model.bin").exists()
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warnings == ["k shrunk from 5 to 2: minority count 3"]


def test_evaluate_exits_with_diagnostics_when_smote_shrinks_k(tmp_path, caplog):
    ds = _imbalanced_dataset(tmp_path / "dataset.jsonl")
    rc = cli.main(["--paths.dataset", str(ds), "--out", str(tmp_path), "--eval.folds", "3",
                   "--balance.scope", "all"] + _TINY_MODEL_FLAGS + ["evaluate"])
    assert rc == EXIT_DIAGNOSTICS
    assert (tmp_path / "report.jsonl").exists()
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warnings == ["scope=all: k shrunk from 5 to 2: minority count 3"]


def test_train_refuses_single_class_dataset(tmp_path):
    records = [{"issue_id": f"T-{i}", "commit_hash": "", "label": 0,
                "text": f"w{i} w{i + 1}", "total_added_smells": 0} for i in range(6)]
    ds = tmp_path / "dataset.jsonl"
    datafiles.write_jsonl(ds, records)
    rc = cli.main(["--paths.dataset", str(ds), "--out", str(tmp_path)]
                  + _TINY_MODEL_FLAGS + ["train"])
    assert rc == EXIT_FATAL


def test_train_is_byte_deterministic(tmp_path):
    ds = _tiny_dataset(tmp_path / "dataset.jsonl")
    for sub in ("a", "b"):
        rc = cli.main(["--paths.dataset", str(ds), "--out", str(tmp_path / sub),
                       "--seed", "5"] + _TINY_MODEL_FLAGS + ["train"])
        assert rc == EXIT_OK
    assert (tmp_path / "a" / "model.bin").read_bytes() == \
        (tmp_path / "b" / "model.bin").read_bytes()
    assert (tmp_path / "a" / "dictionary.tsv").read_bytes() == \
        (tmp_path / "b" / "dictionary.tsv").read_bytes()


def test_train_writes_the_same_files_at_one_and_two_blas_threads(tmp_path):
    """`train` trained in the calling process, at its BLAS thread count, and
    wrote another model.bin at 2 threads than at 1 for this dataset."""
    ds = tmp_path / "dataset.jsonl"
    samples = synthetic.generate_reports(synthetic.SyntheticConfig(n_samples=120), seed=0)
    datafiles.write_jsonl(ds, [s.to_record() for s in samples])
    written = []
    for threads in ("1", "2"):
        argv = ["--paths.dataset", str(ds), "--out", str(tmp_path / threads),
                "--model.epochs", "1", "train"]
        subprocess.run([sys.executable, "-c",
                        f"from smelltriage import cli\nraise SystemExit(cli.main({argv!r}))"],
                       env=child_env(OPENBLAS_NUM_THREADS=threads), check=True,
                       capture_output=True)
        written.append([(tmp_path / threads / name).read_bytes()
                        for name in ("model.bin", "dictionary.tsv", "history.jsonl")])
    assert written[0] == written[1]


def test_a_worker_killed_during_train_is_a_one_line_error_and_the_next_train_starts_afresh(
        tmp_path, caplog):
    """The worker is killed as soon as it starts, before it replies. `train`
    exits 1 with one line that names the training job, writes no model and
    leaves no worker; the next `train` starts a new one."""
    ds = _tiny_dataset(tmp_path / "dataset.jsonl")
    argv = ["--paths.dataset", str(ds), "--out", str(tmp_path)] + _TINY_MODEL_FLAGS + ["train"]
    evaluation._stop_workers()
    returned = threading.Event()

    def kill_the_worker_once_it_starts():
        while not (evaluation._workers or returned.is_set()):
            time.sleep(0.001)
        if evaluation._workers:
            evaluation._workers[0].kill()

    killer = threading.Thread(target=kill_the_worker_once_it_starts)
    killer.start()
    rc = cli.main(argv)
    returned.set()
    killer.join(timeout=10)
    assert not killer.is_alive() and rc == EXIT_FATAL
    assert _errors(caplog) == ["training: its worker process ended with exit code -9"]
    assert evaluation._workers == [] and not (tmp_path / "model.bin").exists()
    assert cli.main(argv) == EXIT_OK
    assert len(evaluation._workers) == 1 and (tmp_path / "model.bin").exists()


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_train_and_evaluate_start_their_workers_before_they_read_the_dataset(
        command, tmp_path, monkeypatch):
    from smelltriage import labeler
    ds = _tiny_dataset(tmp_path / "dataset.jsonl", n=40)
    read, running = labeler.load_dataset, []

    def load_dataset(path):
        running.append(len(evaluation._workers))
        return read(path)

    monkeypatch.setattr(labeler, "load_dataset", load_dataset)
    evaluation._stop_workers()
    assert cli.main(["--paths.dataset", str(ds), "--out", str(tmp_path), "--eval.folds", "3"]
                    + _TINY_MODEL_FLAGS + [command]) == EXIT_OK
    assert running == [len(evaluation.start_workers(1 if command == "train" else 3))]


def test_evaluate_writes_reports_for_both_scopes(tmp_path):
    ds = _tiny_dataset(tmp_path / "dataset.jsonl", n=40)
    rc = cli.main(["--paths.dataset", str(ds), "--out", str(tmp_path),
                   "--eval.folds", "3", "--balance.scope", "both", "--seed", "2"]
                  + _TINY_MODEL_FLAGS + ["evaluate"])
    assert rc == EXIT_OK
    for scope in ("train", "all"):
        tsv = (tmp_path / f"report_{scope}.tsv").read_text()
        assert tsv.startswith("# seed=2\n")
        assert "Alg.\tProject" in tsv
        _, rows = datafiles.read_jsonl(tmp_path / f"report_{scope}.jsonl")
        assert len(rows) == 4  # 3 folds + mean


def test_evaluate_with_one_fold_is_a_one_line_error(tmp_path, capsys):
    """It used to log `k must be >= 2, got 1`, which names no setting."""
    ds = _tiny_dataset(tmp_path / "dataset.jsonl", n=40)
    rc = cli.main(["--paths.dataset", str(ds), "--out", str(tmp_path),
                   "--eval.folds", "1"] + _TINY_MODEL_FLAGS + ["evaluate"])
    assert rc == EXIT_FATAL
    assert capsys.readouterr().err.splitlines() == [
        "error: eval.folds: expected an integer >= 2, got 1"]


@pytest.mark.parametrize("folds,message", [
    ("5", "class 1 has 2 samples, fewer than k=5"),
    ("2", "fold 0: minority class has <= 1 sample, cannot oversample"),
], ids=["a-class-smaller-than-the-folds", "a-training-fold-with-one-minority-sample"])
def test_evaluate_names_the_dataset_and_the_folds_when_they_do_not_fit(folds, message,
                                                                       tmp_path, caplog):
    """Both messages used to name neither the file nor the setting."""
    ds = tmp_path / "dataset.jsonl"
    datafiles.write_jsonl(ds, [{"issue_id": f"T-{i}", "label": int(i < 2), "text": f"w{i} crash"}
                               for i in range(12)])
    rc = cli.main(["--paths.dataset", str(ds), "--out", str(tmp_path), "--eval.folds", folds]
                  + _TINY_MODEL_FLAGS + ["evaluate"])
    assert rc == EXIT_FATAL
    assert _errors(caplog) == [f"{ds}: too few samples for eval.folds={folds}: {message}"]


@pytest.mark.parametrize("command,flags,setting", [
    ("train", [], "balance.scope=train"),
    ("evaluate", ["--balance.scope", "all"], "balance.scope=all"),
])
def test_one_positive_sample_names_the_dataset_and_the_balance_setting(command, flags, setting,
                                                                        tmp_path, caplog):
    """SMOTE of the whole dataset used to fail naming neither."""
    ds = tmp_path / "dataset.jsonl"
    datafiles.write_jsonl(ds, [{"issue_id": f"T-{i}", "label": int(i < 1), "text": f"w{i} crash"}
                               for i in range(12)])
    rc = cli.main(["--paths.dataset", str(ds), "--out", str(tmp_path)] + flags
                  + _TINY_MODEL_FLAGS + [command])
    assert rc == EXIT_FATAL
    assert _errors(caplog) == [f"{ds}: too few samples for {setting}: "
                               "minority class has <= 1 sample, cannot oversample"]


def test_evaluate_single_scope_default_filename(tmp_path, monkeypatch):
    """One experiment, one `report.*`. `none` runs it without SMOTE."""
    ds = _tiny_dataset(tmp_path / "dataset.jsonl", n=40)
    experiments, run = [], evaluation.run_kfold_experiment
    monkeypatch.setattr(evaluation, "run_kfold_experiment",
                        lambda *a, **kw: experiments.append(a) or run(*a, **kw))
    for flags, sampling in (([], "SMOTE/train"), (["--balance.scope", "none"], "none")):
        out = tmp_path / (flags[-1] if flags else "default")
        experiments.clear()
        rc = cli.main(["--paths.dataset", str(ds), "--out", str(out),
                       "--eval.folds", "3"] + flags + _TINY_MODEL_FLAGS + ["evaluate"])
        assert rc == EXIT_OK and len(experiments) == 1
        assert sorted(f.name for f in out.glob("report*")) == ["report.jsonl", "report.tsv"]
        _, rows = datafiles.read_jsonl(out / "report.jsonl")
        assert {r["sampling"] for r in rows} == {sampling}
        rows = [line.split("\t") for line in (out / "report.tsv").read_text().splitlines()]
        assert {row[5] for row in rows if row[0] == "CNN"} == {sampling}


def test_config_file_plus_flag_override(bug_repo, tmp_path):
    cfg_file = tmp_path / "run.json"
    p = bug_repo["record_paths"]
    cfg_file.write_text(json.dumps({
        "paths": {"issues": str(p["issues"]), "commits": str(p["commits"]),
                  "links": str(p["links"]),
                  "repo": str(bug_repo["repo"]), "out_dir": str(tmp_path)},
        "project": "demo",
    }))
    rc = cli.main(["--config", str(cfg_file), "build-dataset"])
    assert rc == EXIT_DIAGNOSTICS
    _, stats = datafiles.read_jsonl(tmp_path / "statistics.jsonl")
    assert stats[0]["project"] == "demo"


def test_unknown_config_key_is_fatal(tmp_path):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"modle": {}}))
    assert cli.main(["--config", str(cfg_file), "train"]) == EXIT_FATAL


@pytest.mark.parametrize("dotted", ["balance.enabled", "balance.rounding",
                                    "textprep.remove_stopwords", "textprep.seq_len",
                                    "model.vocab_size", "paths.pmd_report", "paths.changes",
                                    "verbose"])
def test_removed_config_key_is_a_one_line_error(dotted, tmp_path, capsys):
    section, _, key = dotted.rpartition(".")
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({section: {key: False}} if section else {key: True}))
    assert cli.main(["--config", str(cfg_file), "train"]) == EXIT_FATAL
    assert capsys.readouterr().err.splitlines() == [f"error: unknown config key {dotted}"]
    with pytest.raises(SystemExit) as exc:
        cli.main([f"--{dotted}", "false", "train"])
    assert exc.value.code == EXIT_FATAL
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: unrecognized arguments: --{dotted} ")


@pytest.mark.parametrize("flags,config_doc,command,message", [
    (["--model.epochs", "abc"], None, "train", 'model.epochs: expected an integer, got "abc"'),
    ([], {"model": {"epochs": "2"}}, "train", 'model.epochs: expected an integer, got "2"'),
    ([], ["model"], "train", 'expected an object, got ["model"]'),
    (["--textprep.max_vocab", "abc"], None, "train",
     'textprep.max_vocab: expected an integer or null, got "abc"'),
    (["--textprep.max_vocab", "1"], None, "train",
     "textprep.max_vocab: expected an integer >= 3 or null, got 1"),
    ([], {"textprep": {"max_vocab": 0}}, "train",
     "textprep.max_vocab: expected an integer >= 3 or null, got 0"),
    (["--balance.scope", "bogus"], None, "evaluate",
     'balance.scope: expected one of "train", "all", "both", "none", got "bogus"'),
    (["--model.dtype", "float16"], None, "train",
     'model.dtype: expected one of "float32", "float64", got "float16"'),
    (["--seed", "-1"], None, "train", "seed: expected an integer >= 0, got -1"),
    ([], {"seed": -1}, "evaluate", "seed: expected an integer >= 0, got -1"),
    (["--eval.folds", "1"], None, "evaluate", "eval.folds: expected an integer >= 2, got 1"),
    ([], {"eval": {"folds": 0}}, "evaluate", "eval.folds: expected an integer >= 2, got 0"),
    (["--balance.k", "0"], None, "train", "balance.k: expected an integer >= 1, got 0"),
    ([], {"balance": {"k": -2}}, "evaluate", "balance.k: expected an integer >= 1, got -2"),
], ids=["flag-int", "file-int", "file-list", "flag-optional-int", "flag-max-vocab",
        "file-max-vocab", "flag-scope", "flag-dtype", "flag-seed", "file-seed", "flag-folds",
        "file-folds", "flag-k", "file-k"])
def test_mistyped_setting_is_a_one_line_error(flags, config_doc, command, message,
                                              tmp_path, capsys):
    """Each of these used to end in a traceback, or to run with a value no
    stage can use (SMOTE skipped for an unknown scope, NaN weights in float16,
    SMOTE's `balance.k` 0 unused on a balanced dataset)."""
    ds = _tiny_dataset(tmp_path / "dataset.jsonl", n=40)
    args = ["--paths.dataset", str(ds), "--out", str(tmp_path)]
    if config_doc is not None:
        (tmp_path / "run.json").write_text(json.dumps(config_doc))
        args += ["--config", str(tmp_path / "run.json")]
    capsys.readouterr()
    assert cli.main(args + _TINY_MODEL_FLAGS + flags + [command]) == EXIT_FATAL
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and err[0].endswith(message)


def _errors(caplog):
    return [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]


@pytest.mark.parametrize("key,value", [
    ("embed_dim", "0"), ("conv1_filters", "0"), ("batch_size", "0"), ("epochs", "-1"),
    ("dropout_rate", "1.5"), ("learning_rate", "nan"), ("learning_rate", "0"),
])
def test_model_setting_out_of_range_is_a_one_line_error(key, value, tmp_path, caplog):
    """embed_dim 0 ended in a ZeroDivisionError traceback and batch_size 0 in a
    range() error; the others trained and exited 0."""
    ds = _tiny_dataset(tmp_path / "dataset.jsonl")
    rc = cli.main(["--paths.dataset", str(ds), "--out", str(tmp_path)] + _TINY_MODEL_FLAGS
                  + [f"--model.{key}", value, "train"])
    assert rc == EXIT_FATAL
    errors = _errors(caplog)
    assert len(errors) == 1 and errors[0].startswith(f"model.{key}: expected ")
    assert not (tmp_path / "model.bin").exists()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A directory with a tiny dataset and the model and dictionary trained on it."""
    d = tmp_path_factory.mktemp("trained")
    ds = _tiny_dataset(d / "dataset.jsonl")
    assert cli.main(["--paths.dataset", str(ds), "--out", str(d)]
                    + _TINY_MODEL_FLAGS + ["train"]) == EXIT_OK
    return d


@pytest.mark.parametrize("argv", [[], ["--summary", "!!! ---", "--description", " "]])
def test_predict_refuses_an_empty_report(argv, trained, capsys, caplog):
    """Such a report printed a label from the model's biases alone and exited 0."""
    capsys.readouterr()
    rc = cli.main(["--paths.model", str(trained / "model.bin"),
                   "--paths.dictionary", str(trained / "dictionary.tsv"), "predict"] + argv)
    assert rc == EXIT_FATAL and capsys.readouterr().out == ""
    assert _errors(caplog) == ["empty report text: no letter or digit in the summary or "
                               "description"]


def test_predict_loads_no_stage_it_does_not_run(trained):
    """A one-shot `predict` imports neither the scanner, the corpus and the
    labeler nor the evaluation and SMOTE."""
    argv = ["--paths.model", str(trained / "model.bin"),
            "--paths.dictionary", str(trained / "dictionary.tsv"),
            "predict", "--summary", "crash in parser"]
    loaded = modules_after(f"from smelltriage import cli\nassert cli.main({argv!r}) == 0")
    assert "smelltriage.cli" in loaded
    assert loaded.isdisjoint({f"smelltriage.{m}" for m in (
        "smellscan", "corpus", "labeler", "evaluation", "balance")})


def test_predict_stems_a_long_run_of_y(trained, capsys):
    """A description word of 3,000 y's in a row once ended in a traceback
    from the stemmer's RecursionError."""
    rc, probability = _predict(trained, "crash", "a" + "y" * 3000, capsys)
    assert rc == EXIT_OK and 0 <= probability <= 1


def test_predict_reads_only_the_embedding_rows_of_the_report(trained, tmp_path, capsys,
                                                            monkeypatch):
    """Every other row of the embedding is overwritten with NaN bytes in a
    copy of model.bin. Predict prints the line of the intact file, and the
    model it runs holds no NaN: it read none of those rows."""
    summary = "w1 w2 designflaw w3 crash"
    model = nnet.load_model(trained / "model.bin")
    X, _ = textprep.featurize([textprep.report_text(summary, "")], model.cfg.seq_len,
                              textprep.Dictionary.load(trained / "dictionary.tsv"))
    ids = np.union1d(0, X)  # the report's indices and the padding row
    assert 2 < len(ids) < model.cfg.vocab_size
    data = bytearray((trained / "model.bin").read_bytes())
    row_bytes = model.emb[0].nbytes
    emb_at = len(data) - sum(getattr(model, n).nbytes for n in nnet.PARAM_NAMES)
    nan_row = np.full(model.cfg.embed_dim, np.nan, model.emb.dtype).tobytes()
    for r in np.setdiff1d(np.arange(model.cfg.vocab_size), ids):
        data[emb_at + r * row_bytes: emb_at + (r + 1) * row_bytes] = nan_row
    for name in ("model.bin", "dictionary.tsv"):
        (tmp_path / name).write_bytes((trained / name).read_bytes())
    (tmp_path / "model.bin").write_bytes(data)
    poisoned = nnet.load_model(tmp_path / "model.bin")
    assert np.isnan(poisoned.emb).any(axis=1).sum() == model.cfg.vocab_size - len(ids)
    run, lines = [], []
    predict_batch = nnet.predict_batch
    monkeypatch.setattr(nnet, "predict_batch", lambda m, X: run.append(m) or predict_batch(m, X))
    for model_dir in (trained, tmp_path):
        capsys.readouterr()
        assert cli.main(["--paths.model", str(model_dir / "model.bin"), "--paths.dictionary",
                         str(model_dir / "dictionary.tsv"), "predict", "--summary",
                         summary]) == EXIT_OK
        lines.append(capsys.readouterr().out)
    assert lines[0].startswith("label=") and lines[1] == lines[0]
    assert [m.emb.shape[0] for m in run] == [len(ids)] * 2
    assert not np.isnan(run[1].emb).any()


@pytest.mark.parametrize("index", [-1, "vocab_size"])
def test_an_index_outside_the_model_is_refused_before_a_row_is_read(index, trained, tmp_path,
                                                                     caplog, monkeypatch):
    """A dictionary that maps a report word outside the model's vocabulary,
    and that the model was trained with, gives the forward pass's error."""
    cfg, _ = nnet.read_header(trained / "model.bin")
    index = cfg.vocab_size if index == "vocab_size" else index
    dictionary = textprep.Dictionary({"crash": index})
    dictionary.save(tmp_path / "dictionary.tsv")
    nnet.save_model(dataclasses.replace(nnet.load_model(trained / "model.bin"),
                                        dict_hash=dictionary.content_hash()),
                    tmp_path / "model.bin")
    loads = []
    monkeypatch.setattr(nnet, "load_model", lambda *a, **kw: loads.append(a))
    rc = cli.main(["--paths.model", str(tmp_path / "model.bin"), "--paths.dictionary",
                   str(tmp_path / "dictionary.tsv"), "predict", "--summary", "crash"])
    assert rc == EXIT_FATAL and loads == []
    assert _errors(caplog) == [f"index {index} not in [0, vocab size {cfg.vocab_size}) "
                               f"at position 0"]


def test_the_parser_is_built_once_and_keeps_nothing_between_calls(trained, capsys, monkeypatch):
    assert cli._build_parser() is cli._build_parser()
    rc, prob = _predict(trained, "crash in parser", "", capsys)
    assert rc == EXIT_OK
    with pytest.raises(SystemExit) as exc:
        cli.main(["--nope", "1", "predict"])
    assert exc.value.code == EXIT_FATAL
    assert _predict(trained, "crash in parser", "", capsys) == (rc, prob)
    seen = []
    monkeypatch.setattr(cli, "cmd_train", lambda cfg: seen.append(cfg.model.epochs) or EXIT_OK)
    monkeypatch.setattr(cli, "cmd_predict", lambda cfg, summary, description:
                        seen.append((cfg.paths.model, summary)) or EXIT_OK)
    for argv in (["--model.epochs", "1", "train"], ["train"],
                 ["--paths.model", "m", "predict", "--summary", "x"], ["predict"]):
        assert cli.main(argv) == EXIT_OK
    assert seen == [1, 20, ("m", "x"), (None, "")]


@pytest.mark.parametrize("command,key", [
    ("build-dataset", "issues"), ("build-dataset", "links"), ("build-dataset", "repo"),
    ("scan-smells", "repo"), ("label", "smell_vectors"), ("train", "dataset"),
    ("evaluate", "dataset"), ("predict", "model"), ("predict", "dictionary"),
])
def test_missing_path_setting_is_a_one_line_error(command, key, bug_repo, trained,
                                                  tmp_path, caplog):
    args = _base_args(bug_repo, tmp_path) + [
        "--paths.dataset", str(trained / "dataset.jsonl"),
        "--paths.model", str(trained / "model.bin"),
        "--paths.dictionary", str(trained / "dictionary.tsv")]
    flag = f"--paths.{key}"
    if flag in args:
        del args[args.index(flag): args.index(flag) + 2]
    assert cli.main(args + [command]) == EXIT_FATAL
    assert _errors(caplog) == [f"missing input: paths.{key}"]


def test_malformed_inputs_name_their_file_and_line_or_record(trained, tmp_path, caplog):
    """Each of these failed without naming the file, or in a traceback. A
    dictionary is not parsed: one that is not the model's is named as such."""
    ds = tmp_path / "dataset.jsonl"
    good = json.dumps({"issue_id": "T-1", "text": "crash", "label": 1})
    cases = [
        ("dataset", f'{good}\n"just a string"\n', "train",
         f"{ds} record 2: missing or malformed field "),
        ("dataset", f'{good}\n{{"issue_id": "T-2", "label": 0}}\n', "train",
         f"{ds} record 2: missing or malformed field 'text'"),
        ("dataset", f"{good}\n\nnot json\n", "evaluate",
         f"{ds}:3: Expecting value: line 1 column 1 (char 0)"),
        ("dictionary", "crash\t2\nno index here\n", "predict",
         f"{trained / 'model.bin'}: trained with dictionary "),
    ]
    for key, text, command, message in cases:
        path = ds if key == "dataset" else tmp_path / "dictionary.tsv"
        path.write_text(text, encoding="utf-8")
        caplog.clear()
        rc = cli.main(["--paths.dataset", str(ds), "--paths.model", str(trained / "model.bin"),
                       "--paths.dictionary", str(tmp_path / "dictionary.tsv"),
                       "--out", str(tmp_path / "out")] + _TINY_MODEL_FLAGS + [command])
        assert rc == EXIT_FATAL
        errors = _errors(caplog)
        assert len(errors) == 1 and errors[0].startswith(message), (key, text)


_ARBITRARY_TEXT = st.one_of(
    st.text(),
    st.text().map(lambda t: "STMODEL1\n" + t),  # past the model file's magic
    st.integers(1, 100_000).map(lambda n: "[" * n),  # nested deeper than json's recursion
)


@pytest.mark.parametrize("command,key", [
    ("train", "dataset"), ("evaluate", "dataset"), ("predict", "dictionary"),
    ("predict", "model"), ("label", "smell_vectors"), ("build-dataset", "records"),
])
@settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_ARBITRARY_TEXT,
       record_kind=st.sampled_from(["issues", "commits", "links"]))
def test_any_text_as_an_input_exits_with_a_code_and_at_most_one_error(
        command, key, text, record_kind, bug_repo, trained, tmp_path, caplog):
    """Exit 1 comes with one ERROR line that names the file; the other exits
    with none. Nothing raises. `build-dataset` reads the text as one of its
    three record files."""
    key = record_kind if key == "records" else key
    path = tmp_path / f"{key}.input"
    path.write_text(text, encoding="utf-8")
    args = _base_args(bug_repo, tmp_path / "out") + [
        "--paths.model", str(trained / "model.bin"),
        "--paths.dictionary", str(trained / "dictionary.tsv"),
        "--eval.folds", "2"] + _TINY_MODEL_FLAGS + [f"--paths.{key}", str(path), command]
    if command == "predict":
        args += ["--summary", "crash in parser"]
    caplog.clear()
    rc = cli.main(args)
    errors = _errors(caplog)
    if rc == EXIT_FATAL:
        assert len(errors) == 1 and str(path) in errors[0]
    else:
        assert rc in (EXIT_OK, EXIT_DIAGNOSTICS) and errors == []
