import json

import numpy as np
import pytest

from smelltriage import cli, datafiles
from smelltriage.cli import EXIT_DIAGNOSTICS, EXIT_FATAL, EXIT_OK


def _base_args(bug_repo, out_dir):
    p = bug_repo["record_paths"]
    return [
        "--paths.issues", str(p["issues"]),
        "--paths.commits", str(p["commits"]),
        "--paths.changes", str(p["changes"]),
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


def test_build_dataset_missing_input_is_fatal(bug_repo, tmp_path):
    args = _base_args(bug_repo, tmp_path)
    args[args.index("--paths.issues") + 1] = str(tmp_path / "absent.jsonl")
    assert cli.main(args + ["build-dataset"]) == EXIT_FATAL


def test_scan_smells_emits_commit_and_parent_rows(bug_repo, tmp_path):
    rc = cli.main(_base_args(bug_repo, tmp_path) + ["scan-smells"])
    assert rc == EXIT_OK
    _, rows = datafiles.read_jsonl(tmp_path / "smell_vectors.jsonl")
    fix = bug_repo["hashes"][1]
    kitchen = [r for r in rows if r["File_path"] == "Kitchen.java"]
    assert len(kitchen) == 1  # created at the fix commit, absent at the parent
    assert kitchen[0]["Commit_Hash"] == fix
    assert kitchen[0]["GodClass"] == 1
    assert kitchen[0]["Parent_Hash"] == bug_repo["hashes"][0]
    service = [r for r in rows if r["File_path"] == "Service.java"]
    assert all(r["GodClass"] == 0 for r in service)


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
    "--textprep.seq_len", "12", "--model.embed_dim", "4",
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


def test_evaluate_single_scope_default_filename(tmp_path):
    ds = _tiny_dataset(tmp_path / "dataset.jsonl", n=40)
    rc = cli.main(["--paths.dataset", str(ds), "--out", str(tmp_path),
                   "--eval.folds", "3"] + _TINY_MODEL_FLAGS + ["evaluate"])
    assert rc == EXIT_OK
    assert (tmp_path / "report.tsv").exists()


def test_config_file_plus_flag_override(bug_repo, tmp_path):
    cfg_file = tmp_path / "run.json"
    p = bug_repo["record_paths"]
    cfg_file.write_text(json.dumps({
        "paths": {"issues": str(p["issues"]), "commits": str(p["commits"]),
                  "changes": str(p["changes"]), "links": str(p["links"]),
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


def test_removed_balance_rounding_key_is_a_one_line_error(tmp_path, capsys):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"balance": {"rounding": False}}))
    assert cli.main(["--config", str(cfg_file), "train"]) == EXIT_FATAL
    assert capsys.readouterr().err.splitlines() == [
        "error: unknown config key balance.rounding"]
