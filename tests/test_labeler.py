import json
import re
import subprocess
from datetime import timedelta

import pytest
from hypothesis import given, strategies as st

from conftest import SMELL_FIXTURE_DIR, _git
from smelltriage import datafiles, labeler
from smelltriage.corpus import (
    ChangeLink, CommitRecord, CorpusError, CorpusStore, IssueRecord, IssueType, RecordKind,
    parse_utc,
)
from smelltriage.datafiles import DataFileError
from smelltriage.labeler import (
    GitScanSource, LabeledSample, VectorTableSource, build_labeled_dataset,
    fix_commits, label_commit, smell_delta, vectors_record,
)
from smelltriage.smellscan import SmellRule, SmellVector


def _vec(flags16):
    return SmellVector(tuple(bool(f) for f in flags16))


def test_smell_delta_clamps_removals():
    cur = _vec([1] + [0] * 15)
    prev = _vec([0, 1] + [0] * 14)
    d = smell_delta("c" * 40, "A.java", cur, prev)
    assert d.added_per_rule == (1,) + (0,) * 15
    assert d.total_added == 1
    assert d.signed_sum == 0   # one added, one removed


def test_smell_delta_missing_prev_counts_all_current():
    cur = _vec([1, 1] + [0] * 14)
    d = smell_delta("c" * 40, "A.java", cur, None)
    assert d.total_added == 2
    assert d.signed_sum == 2


def test_label_commit_no_files_is_zero_with_diagnostic():
    label, diags = label_commit([])
    assert label == 0
    assert any("no source files changed" in d for d in diags)


def _brute_force_label(pairs):
    """Oracle: 1 iff any rule flag transitions 0 -> 1 in any file."""
    for cur, prev in pairs:
        prev_flags = prev.flags if prev is not None else (False,) * 16
        for c, p in zip(cur.flags, prev_flags):
            if c and not p:
                return 1
    return 0


@given(st.lists(
    st.tuples(
        st.lists(st.booleans(), min_size=16, max_size=16),
        st.one_of(st.none(), st.lists(st.booleans(), min_size=16, max_size=16)),
    ),
    min_size=1, max_size=10,
))
def test_label_matches_brute_force_oracle(raw_pairs):
    pairs = [(_vec(c), _vec(p) if p is not None else None) for c, p in raw_pairs]
    deltas = [smell_delta("f" * 40, f"F{i}.java", cur, prev)
              for i, (cur, prev) in enumerate(pairs)]
    label, _ = label_commit(deltas)
    assert label == _brute_force_label(pairs)


@given(st.lists(
    st.tuples(st.lists(st.booleans(), min_size=16, max_size=16),
              st.lists(st.booleans(), min_size=16, max_size=16)),
    min_size=1, max_size=6))
def test_label_invariant_under_file_permutation(raw_pairs):
    pairs = [(_vec(c), _vec(p)) for c, p in raw_pairs]
    deltas = [smell_delta("f" * 40, f"F{i}.java", c, p) for i, (c, p) in enumerate(pairs)]
    label, _ = label_commit(deltas)
    label_rev, _ = label_commit(list(reversed(deltas)))
    assert label == label_rev


def test_labeled_sample_record_roundtrip():
    s = LabeledSample("B-1", "a" * 40, "dfs order broken", 1,
                      total_added_smells=2, raw_signed_delta=-1, synthetic=True)
    assert LabeledSample.from_record(s.to_record()) == s


@pytest.mark.parametrize("label", [0, 1, 0.0, 1.0, False, True])
def test_a_label_equal_to_0_or_1_loads_as_that_integer(label):
    sample = LabeledSample.from_record({"issue_id": "A", "text": "t", "label": label})
    assert type(sample.label) is int and sample.label == label


def test_whole_counts_and_a_boolean_synthetic_flag_load_as_they_are():
    sample = LabeledSample.from_record({"issue_id": "A", "text": "t", "label": 1,
                                        "total_added_smells": 2.0, "raw_signed_delta": -3,
                                        "synthetic": True})
    assert (sample.total_added_smells, sample.raw_signed_delta, sample.synthetic) == (2, -3, True)
    assert type(sample.total_added_smells) is int


@pytest.mark.parametrize("records, message", [
    ([], "0 samples labelled []; learning needs both labels 0 and 1"),
    ([{"issue_id": "A", "text": "t", "label": 1}] * 2,
     "2 samples labelled [1]; learning needs both labels 0 and 1"),
    ([{"issue_id": "A", "text": "t", "label": 0}, {"issue_id": "B", "text": "t", "label": 2}],
     "record 2: missing or malformed field label 2 is not 0 or 1"),
    ([{"issue_id": "A", "text": "t", "label": 0}, ["A", "t", 1]],
     "record 2: missing or malformed field "),
    ([{"issue_id": "A", "text": "t", "label": 0}, {"issue_id": "B", "text": "t", "label": 0.7}],
     "record 2: missing or malformed field label 0.7 is not 0 or 1"),
    ([{"issue_id": "A", "text": "t", "label": 1.9}, {"issue_id": "B", "text": "t", "label": 0}],
     "record 1: missing or malformed field label 1.9 is not 0 or 1"),
    ([{"issue_id": "A", "text": "t", "label": "1"}, {"issue_id": "B", "text": "t", "label": 0}],
     "record 1: missing or malformed field label '1' is not 0 or 1"),
    ([{"issue_id": "A", "text": "t", "label": 1, "synthetic": "false"},
      {"issue_id": "B", "text": "t", "label": 0}],
     "record 1: missing or malformed field synthetic 'false' is not true or false"),
    ([{"issue_id": "A", "text": "t", "label": 1},
      {"issue_id": "B", "text": "t", "label": 0, "synthetic": 0}],
     "record 2: missing or malformed field synthetic 0 is not true or false"),
    ([{"issue_id": "A", "text": "t", "label": 1, "total_added_smells": 2.9},
      {"issue_id": "B", "text": "t", "label": 0}],
     "record 1: missing or malformed field total_added_smells 2.9 is not an integer"),
    ([{"issue_id": "A", "text": "t", "label": 1, "total_added_smells": "2"},
      {"issue_id": "B", "text": "t", "label": 0}],
     "record 1: missing or malformed field total_added_smells '2' is not an integer"),
    ([{"issue_id": "A", "text": "t", "label": 1},
      {"issue_id": "B", "text": "t", "label": 0, "raw_signed_delta": -0.5}],
     "record 2: missing or malformed field raw_signed_delta -0.5 is not an integer"),
])
def test_load_dataset_refuses_what_cannot_be_learned_from(records, message, tmp_path):
    path = tmp_path / "dataset.jsonl"
    datafiles.write_jsonl(path, records, seed=0, kind="labeled-dataset")
    with pytest.raises(DataFileError, match=re.escape(f"{path}") + ":? " + re.escape(message)):
        labeler.load_dataset(path)


def test_vector_table_source_returns_recorded_previous():
    cur = _vec([1] + [0] * 15)
    prev = _vec([0] * 16)
    source = VectorTableSource({"a" * 40: [("A.java", cur, prev)]})
    diags = []
    out = source.file_vectors("a" * 40, diags)
    assert out == [("A.java", cur, prev)]
    assert diags == []


def test_vector_table_source_without_parent_treats_prev_as_none():
    cur = _vec([0] * 16)
    record = vectors_record("a" * 40, [("A.java", cur, None)])
    assert record["Files"][0]["Previous"] is None
    source = VectorTableSource.from_records([record])
    assert source.file_vectors("a" * 40, []) == [("A.java", cur, None)]


@given(st.lists(
    st.tuples(
        st.lists(st.booleans(), min_size=16, max_size=16),
        st.one_of(st.none(), st.lists(st.booleans(), min_size=16, max_size=16)),
        st.integers(0, 500),
    ),
    max_size=4,
))
def test_vectors_record_roundtrip(raw):
    vectors = [(f"F{i}.java", SmellVector(tuple(c), raw_npath_max=n),
                _vec(p) if p is not None else None)
               for i, (c, p, n) in enumerate(raw)]
    record = json.loads(json.dumps(vectors_record("c" * 40, vectors)))
    assert VectorTableSource.from_records([record]).file_vectors("c" * 40, []) == vectors


def test_vector_table_source_unknown_commit_raises():
    source = VectorTableSource({"a" * 40: []})
    assert source.file_vectors("a" * 40, []) == []
    with pytest.raises(CorpusError, match="no smell vectors for commit " + "b" * 40):
        source.file_vectors("b" * 40, [])


def _file_with(key, value):
    return {"Commit_Hash": "a" * 40,
            "Files": [{"File_path": "A.java", "Previous": None, key: value}]}


@pytest.mark.parametrize("record, field", [
    ({"Commit_Hash": "a" * 40, "File_path": "A.java", "GodClass": 1,
      "Parent_Hash": "b" * 40}, "'Files'"),
    ({"Commit_Hash": "a" * 40, "Files": [{"File_path": "A.java", "GodClass": 1}]},
     "'Previous'"),
    # bool(int(flag)) read these as set or clear, and int() truncated the counts
    (_file_with("GodClass", "1"), "GodClass '1' is not 0 or 1"),
    (_file_with("GodClass", 2), "GodClass 2 is not 0 or 1"),
    (_file_with("GodClass", -1), "GodClass -1 is not 0 or 1"),
    (_file_with("GodClass", 1.9), "GodClass 1.9 is not 0 or 1"),
    (_file_with("DataClass", 0.5), "DataClass 0.5 is not 0 or 1"),
    (_file_with("raw_npath_max", 2.9), "raw_npath_max 2.9 is not an integer"),
    (_file_with("raw_npath_max", "7"), "raw_npath_max '7' is not an integer"),
    (_file_with("raw_cyclomatic_max", -0.5), "raw_cyclomatic_max -0.5 is not an integer"),
])
def test_from_records_rejects_a_malformed_record(record, field):
    message = f"record 1: missing or malformed field {re.escape(field)}"
    with pytest.raises(DataFileError, match=message):
        VectorTableSource.from_records([record])


def test_whole_flags_and_counts_of_a_vector_load_as_they_are():
    record = _file_with("GodClass", True)
    record["Files"][0].update(DataClass=1.0, raw_npath_max=7.0)
    (_, vec, _), = VectorTableSource.from_records([record]).file_vectors("a" * 40, [])
    assert vec == SmellVector(tuple(i in (SmellRule.GodClass, SmellRule.DataClass)
                                    for i in range(16)), raw_npath_max=7)


# -- end-to-end against the scripted repository ------------------------------

def _load_store(bug_repo):
    store = CorpusStore(repo_path=bug_repo["repo"])
    paths = bug_repo["record_paths"]
    for kind in RecordKind:
        store.ingest_records(paths[kind.value], kind)
    return store


def test_build_labeled_dataset_matches_manifest(bug_repo):
    store = _load_store(bug_repo)
    dataset = build_labeled_dataset(store, GitScanSource(store=store))
    labels = {s.issue_id: s.label for s in dataset.samples}
    assert labels == bug_repo["expected_labels"]
    assert dataset.stats.total == 3
    assert dataset.stats.class1 == 1
    assert any("FEAT-1" in s for s in dataset.skipped)


def test_build_labeled_dataset_samples_carry_report_text(bug_repo):
    store = _load_store(bug_repo)
    dataset = build_labeled_dataset(store, GitScanSource(store=store))
    by_id = {s.issue_id: s for s in dataset.samples}
    assert "overflow" in by_id["BUG-1"].text
    assert by_id["BUG-1"].total_added_smells >= 1
    assert by_id["BUG-2"].total_added_smells == 0


def test_fix_commits_yields_in_issue_order_and_records_skips(bug_repo):
    store = _load_store(bug_repo)
    skipped: list[str] = []
    hashes = bug_repo["hashes"]
    assert list(fix_commits(store, skipped)) == [
        ("BUG-1", hashes[1]), ("BUG-2", hashes[2]), ("BUG-3", hashes[4])]
    assert skipped == ["FEAT-1: not a Bug issue"]


def _history_store(tmp_path, contents: list[bytes]) -> tuple[CorpusStore, list[str]]:
    """A repository whose commits write `Legacy.java` with each of `contents`
    in turn; every commit after the first fixes its own bug issue."""
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q", "-b", "main")
    store = CorpusStore(repo_path=repo)
    hashes = []
    for n, data in enumerate(contents):
        for name, body in (data if isinstance(data, dict) else {"Legacy.java": data}).items():
            (repo / name).write_bytes(body)
        _git(repo, "add", "."), _git(repo, "commit", "-q", "-m", f"commit {n}")
        hashes.append(_git(repo, "rev-parse", "HEAD"))
        date = parse_utc("2020-01-01T00:00:00Z") + timedelta(days=n)
        store.commits[hashes[-1]] = CommitRecord(hashes[-1], date)
        if n:
            store.issues[f"B-{n}"] = IssueRecord(f"B-{n}", IssueType.BUG, date,
                                                 summary_raw=f"crash number {n}")
            store._insert(RecordKind.LINKS, ChangeLink(f"B-{n}", hashes[-1]))
    return store, hashes


def test_non_utf8_source_is_labeled_with_a_diagnostic(tmp_path):
    latin1 = "// Autor: José Müller\n".encode("latin-1")
    kitchen = (SMELL_FIXTURE_DIR / "Kitchen.java").read_bytes()
    store, (base, fix) = _history_store(tmp_path, [latin1 + b"class Legacy {}\n",
                                                   latin1 + kitchen])
    dataset = build_labeled_dataset(store, GitScanSource(store=store))
    assert [(s.issue_id, s.label) for s in dataset.samples] == [("B-1", 1)]
    assert dataset.skipped == []
    assert dataset.diagnostics == [
        f"{fix}:Legacy.java: not valid UTF-8, undecodable bytes replaced",
        f"{base}:Legacy.java: not valid UTF-8, undecodable bytes replaced",
    ]


def test_a_report_word_of_a_long_run_of_y_is_labeled(tmp_path):
    """A description word of 3,000 y's in a row once ended the pass in the
    stemmer's RecursionError."""
    store, (_, fix) = _history_store(tmp_path, [b"class Legacy {}\n",
                                                b"class Legacy { int v; }\n"])
    store.issues["B-1"].description_raw = "a" + "y" * 3000
    dataset = build_labeled_dataset(store, GitScanSource(store=store))
    assert [(s.issue_id, s.commit_hash, s.label, s.text) for s in dataset.samples] == [
        ("B-1", fix, 0, "crash number 1 a" + "y" * 2999 + "i")]
    assert dataset.skipped == []


def test_git_scan_source_scans_each_content_once(tmp_path, monkeypatch):
    kitchen = (SMELL_FIXTURE_DIR / "Kitchen.java").read_bytes()
    store, _ = _history_store(tmp_path, [b"class Legacy {}\n",
                                         {"Legacy.java": kitchen, "Copy.java": kitchen},
                                         b"class Legacy {}\n"])
    scanned = []
    scan = labeler.scan_source
    monkeypatch.setattr(labeler, "scan_source", lambda src, *, thresholds:
                        scanned.append(src) or scan(src, thresholds=thresholds))
    dataset = build_labeled_dataset(store, GitScanSource(store=store))
    assert [(s.issue_id, s.label) for s in dataset.samples] == [("B-1", 1), ("B-2", 0)]
    # B-1 adds the same content under two paths; B-2's parent content is
    # B-1's content, and its own content is B-1's parent
    assert len(scanned) == 2


def test_a_pass_starts_the_same_git_processes_however_many_commits_it_reads(
        tmp_path, monkeypatch):
    """Every git process a pass starts goes through `CorpusStore._git`, and
    their number does not grow with the fix commits."""
    started = []

    class Popen(subprocess.Popen):
        def __init__(self, args, *rest, **kwargs):
            started.append(args[0])
            super().__init__(args, *rest, **kwargs)

    calls = []
    git = CorpusStore._git
    monkeypatch.setattr(CorpusStore, "_git",
                        lambda self, *a, **kw: calls.append(a[0]) or git(self, *a, **kw))
    for n in (10, 20):
        (tmp_path / str(n)).mkdir()
        store, _ = _history_store(tmp_path / str(n),
                                  [f"class Legacy {{ int v = {i}; }}\n".encode()
                                   for i in range(n + 1)])
        calls.clear(), started.clear()
        with monkeypatch.context() as m:
            m.setattr(subprocess, "Popen", Popen)
            dataset = build_labeled_dataset(store, GitScanSource(store=store))
        assert dataset.stats.total == n and dataset.skipped == []
        assert calls == ["cat-file", "diff-tree", "cat-file"]
        assert started == ["git"] * len(calls)
