import json
import re

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
from smelltriage.smellscan import SmellVector


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


@pytest.mark.parametrize("records, message", [
    ([], "0 samples labelled []; learning needs both labels 0 and 1"),
    ([{"issue_id": "A", "text": "t", "label": 1}] * 2,
     "2 samples labelled [1]; learning needs both labels 0 and 1"),
    ([{"issue_id": "A", "text": "t", "label": 0}, {"issue_id": "B", "text": "t", "label": 2}],
     "record 2: missing or malformed field label 2 is not 0 or 1"),
    ([{"issue_id": "A", "text": "t", "label": 0}, ["A", "t", 1]],
     "record 2: missing or malformed field "),
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


@pytest.mark.parametrize("record, field", [
    ({"Commit_Hash": "a" * 40, "File_path": "A.java", "GodClass": 1,
      "Parent_Hash": "b" * 40}, "'Files'"),
    ({"Commit_Hash": "a" * 40, "Files": [{"File_path": "A.java", "GodClass": 1}]},
     "'Previous'"),
])
def test_from_records_rejects_a_record_without_files_or_previous(record, field):
    with pytest.raises(DataFileError, match=f"record 1: missing or malformed field {field}"):
        VectorTableSource.from_records([record])


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
        date = parse_utc(f"2020-01-0{n + 1}T00:00:00Z")
        store.commits[hashes[-1]] = CommitRecord(hashes[-1], date)
        if n:
            store.issues[f"B-{n}"] = IssueRecord(f"B-{n}", IssueType.BUG, date,
                                                 summary_raw=f"crash number {n}")
            store.links[(f"B-{n}", hashes[-1])] = ChangeLink(f"B-{n}", hashes[-1])
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
