import json
from datetime import datetime, timedelta, timezone

import pytest

from conftest import _git
from smelltriage.corpus import (
    ChangeLink, CommitRecord, CorpusError, CorpusStore, DanglingLinkError,
    FileChange, IngestResult, IssueRecord, IssueType, RecordKind,
    UnlinkedIssueError, parse_utc,
)


HASH_A = "a" * 40
HASH_B = "b" * 40


def test_issue_type_parse_variants():
    assert IssueType.parse("Bug") is IssueType.BUG
    assert IssueType.parse("bug") is IssueType.BUG
    assert IssueType.parse("New Feature") is IssueType.NEW_FEATURE
    assert IssueType.parse("NewFeature") is IssueType.NEW_FEATURE
    assert IssueType.parse("Improvement") is IssueType.OTHER


def test_parse_utc_reads_zulu_offset_and_naive_times_as_utc():
    expected = datetime(2010, 7, 29, 21, 2, 29, tzinfo=timezone.utc)
    for raw in ("2010-07-29T21:02:29Z", "2010-07-29T23:02:29+02:00", "2010-07-29T21:02:29"):
        got = parse_utc(raw)
        assert got == expected and got.utcoffset() == timedelta(0)


def test_issue_record_from_record_ignores_tracker_stems():
    obj = IssueRecord.from_record({
        "Issue_id": "HDFS-1073", "Issue_type": "Bug",
        "Create_date": "2010-07-29T21:02:29Z", "Fixed_date": "2010-08-01T10:00:00Z",
        "Summary_raw": "dfs ordering broken", "Description_raw": "samples caused errors",
        "Summary_stemmed": "df order broke", "Description_stemmed": "sampl caus error",
    })
    assert obj == IssueRecord(
        issue_id="HDFS-1073", issue_type=IssueType.BUG,
        create_date=parse_utc("2010-07-29T21:02:29Z"),
        fixed_date=parse_utc("2010-08-01T10:00:00Z"),
        summary_raw="dfs ordering broken", description_raw="samples caused errors")


def test_issue_record_rejects_fixed_before_create():
    with pytest.raises(ValueError, match="precedes"):
        IssueRecord.from_record({
            "Issue_id": "X-1", "Issue_type": "Bug",
            "Create_date": "2020-01-02T00:00:00Z", "Fixed_date": "2020-01-01T00:00:00Z",
            "Summary_raw": "s",
        })


def test_issue_record_rejects_empty_text():
    with pytest.raises(ValueError, match="empty"):
        IssueRecord.from_record({
            "Issue_id": "X-1", "Issue_type": "Bug",
            "Create_date": "2020-01-01T00:00:00Z",
        })


def test_commit_record_rejects_bad_hash():
    with pytest.raises(ValueError, match="hash"):
        CommitRecord.from_record({"Commit_Hash": "abc", "Committed_Date": "2020-01-01T00:00:00Z"})


def test_file_change_rejects_negative_counts():
    with pytest.raises(ValueError, match="negative"):
        FileChange.from_record({"Commit_Hash": HASH_A, "File_path": "A.java",
                                "Sum_added_lines": -1})


def _write_lines(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def test_ingest_reports_malformed_lines_and_duplicates(tmp_path):
    p = tmp_path / "commits.jsonl"
    good = {"Commit_Hash": HASH_A, "Committed_Date": "2020-01-01T00:00:00Z"}
    p.write_text(
        json.dumps(good) + "\n"
        + "not json\n"
        + json.dumps({"Commit_Hash": "short", "Committed_Date": "2020-01-01T00:00:00Z"}) + "\n"
        + json.dumps(good) + "\n",
        encoding="utf-8")
    store = CorpusStore()
    result = store.ingest_records(p, RecordKind.COMMITS)
    assert result.accepted == 1
    assert len(result.diagnostics) == 3
    assert any("commits.jsonl:2" in d for d in result.diagnostics)
    assert any("duplicate key" in d for d in result.diagnostics)


def test_ingest_missing_file_raises(tmp_path):
    with pytest.raises(CorpusError, match="unreadable"):
        CorpusStore().ingest_records(tmp_path / "missing.jsonl", RecordKind.ISSUES)


def _store_with_links():
    store = CorpusStore()
    store.issues["B-1"] = IssueRecord(
        issue_id="B-1", issue_type=IssueType.BUG,
        create_date=parse_utc("2020-01-01T00:00:00Z"), summary_raw="s")
    store.commits[HASH_A] = CommitRecord(HASH_A, parse_utc("2020-01-02T00:00:00Z"))
    store.commits[HASH_B] = CommitRecord(HASH_B, parse_utc("2020-01-03T00:00:00Z"))
    return store


def _links(*links):
    return {(l.issue_id, l.commit_hash): l for l in links}


def test_resolve_fix_commit_latest_wins():
    store = _store_with_links()
    store.links = _links(ChangeLink("B-1", HASH_A), ChangeLink("B-1", HASH_B))
    assert store.resolve_fix_commit("B-1") == HASH_B


def test_resolve_fix_commit_unlinked_and_dangling():
    store = _store_with_links()
    with pytest.raises(UnlinkedIssueError):
        store.resolve_fix_commit("B-1")
    store.links = _links(ChangeLink("B-1", "c" * 40))
    with pytest.raises(DanglingLinkError):
        store.resolve_fix_commit("B-1")


def test_ingest_keys_links_by_issue_and_commit(tmp_path):
    p = tmp_path / "links.jsonl"
    _write_lines(p, [{"Issue_id": "B-1", "Commit_Hash": HASH_A},
                     {"Issue_id": "B-1", "Commit_Hash": HASH_B},
                     {"Issue_id": "B-2", "Commit_Hash": HASH_A},
                     {"Issue_id": "B-1", "Commit_Hash": HASH_A}])
    store = CorpusStore()
    result = store.ingest_records(p, RecordKind.LINKS)
    assert result.accepted == 3
    assert result.diagnostics == ["links.jsonl:4: duplicate key, first occurrence wins"]
    assert list(store.links) == [("B-1", HASH_A), ("B-1", HASH_B), ("B-2", HASH_A)]
    assert len(store.links) == 3


# -- git extraction against the scripted fixture repository ------------------

def test_changed_files_read_the_first_parent(bug_repo):
    store = CorpusStore(repo_path=bug_repo["repo"])
    hashes = bug_repo["hashes"]
    diagnostics: list[str] = []
    files = store.changed_files_with_contents(hashes[1], diagnostics)
    service = [f for f in files if f.file_path == "Service.java"][0]
    assert service.content_at_parent == _git(bug_repo["repo"], "show",
                                             f"{hashes[0]}:Service.java") + "\n"
    assert not any(d.startswith("merge commit") for d in diagnostics)


def test_merge_commit_diffs_against_first_parent_with_diagnostic(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q", "-b", "main")
    (repo / "A.java").write_text("class A {}\n", encoding="utf-8")
    _git(repo, "add", "."), _git(repo, "commit", "-q", "-m", "base")
    _git(repo, "checkout", "-q", "-b", "side")
    (repo / "B.java").write_text("class B {}\n", encoding="utf-8")
    _git(repo, "add", "."), _git(repo, "commit", "-q", "-m", "side")
    _git(repo, "checkout", "-q", "main")
    (repo / "A.java").write_text("class A { int x; }\n", encoding="utf-8")
    _git(repo, "add", "."), _git(repo, "commit", "-q", "-m", "main")
    _git(repo, "merge", "-q", "--no-ff", "-m", "merge side", "side")
    merge = _git(repo, "rev-parse", "HEAD")

    store = CorpusStore(repo_path=repo)
    diagnostics: list[str] = []
    files = store.changed_files_with_contents(merge, diagnostics)
    assert diagnostics == [f"merge commit {merge}: first-parent diff only"]
    assert [(f.file_path, f.content_at_parent) for f in files] == [("B.java", None)]


def test_changed_files_unknown_hash(bug_repo):
    store = CorpusStore(repo_path=bug_repo["repo"])
    with pytest.raises(CorpusError, match="unknown commit"):
        store.changed_files_with_contents("e" * 40)


def test_changed_files_filters_extensions_and_sorts(bug_repo):
    store = CorpusStore(repo_path=bug_repo["repo"])
    files = store.changed_files_with_contents(bug_repo["hashes"][1])
    assert [f.file_path for f in files] == ["Kitchen.java", "Service.java"]
    assert files[0].content_at_parent is None   # created in this commit
    assert files[0].content_at_commit is not None
    assert files[1].content_at_parent is not None
    # the docs-only commit touches no source file
    assert store.changed_files_with_contents(bug_repo["hashes"][3]) == []


def test_changed_files_at_root_commit(bug_repo):
    store = CorpusStore(repo_path=bug_repo["repo"])
    files = store.changed_files_with_contents(bug_repo["hashes"][0])
    assert [f.file_path for f in files] == ["Service.java"]
    assert files[0].content_at_parent is None


def test_git_requires_repo_path():
    with pytest.raises(CorpusError, match="repo_path"):
        CorpusStore().changed_files_with_contents(HASH_A)
