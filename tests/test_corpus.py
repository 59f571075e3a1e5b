import json
import os
import random
from datetime import datetime, timedelta, timezone

import pytest

from conftest import _git
from corpus_oracle import OracleStore
from smelltriage.corpus import (
    ChangedFile, ChangeLink, CommitRecord, CorpusError, CorpusStore, DanglingLinkError,
    FileChange, IngestResult, IssueRecord, IssueType, RecordKind,
    UnlinkedIssueError, parse_utc,
)
from smelltriage.datafiles import DataFileError


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


def test_ingest_reports_mistyped_dates_and_deep_nesting_as_line_diagnostics(tmp_path):
    """A date that is not a string, one that leaves the datetime range in UTC,
    and a line nested deeper than the JSON decoder recurses each ended the run
    in a traceback."""
    p = tmp_path / "commits.jsonl"
    lines = [json.dumps({"Commit_Hash": HASH_A, "Committed_Date": 5}),
             json.dumps({"Commit_Hash": HASH_A, "Committed_Date": "0001-01-01T00:00:00+01:00"}),
             "[" * 100_000,
             json.dumps({"Commit_Hash": HASH_A, "Committed_Date": "2020-01-01T00:00:00Z"})]
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = CorpusStore().ingest_records(p, RecordKind.COMMITS)
    assert result.accepted == 1
    assert [d.split(":")[:2] for d in result.diagnostics] == [
        ["commits.jsonl", "1"], ["commits.jsonl", "2"], ["commits.jsonl", "3"]]


def test_ingest_non_utf8_file_raises_naming_it(tmp_path):
    p = tmp_path / "issues.jsonl"
    p.write_bytes(b'{"Issue_id": "\xff"}\n')
    with pytest.raises(DataFileError, match=f"^{p}: not UTF-8: 'utf-8' codec"):
        CorpusStore().ingest_records(p, RecordKind.ISSUES)


def test_ingest_missing_file_raises(tmp_path):
    missing = tmp_path / "missing.jsonl"
    with pytest.raises(FileNotFoundError, match=str(missing)):
        CorpusStore().ingest_records(missing, RecordKind.ISSUES)


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


def test_git_not_on_path_raises(bug_repo, monkeypatch):
    monkeypatch.setenv("PATH", "")
    store = CorpusStore(repo_path=bug_repo["repo"])
    with pytest.raises(CorpusError, match="git executable not found"):
        store.changed_files_with_contents(bug_repo["hashes"][1])


def _commit(repo, message: str) -> str:
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "--allow-empty", "-m", message)
    return _git(repo, "rev-parse", "HEAD")


def test_two_git_processes_per_commit_whatever_it_changes(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q", "-b", "main")
    for i in range(6):
        (repo / f"F{i}.java").write_text(f"class F{i} {{}}\n", encoding="utf-8")
    root = _commit(repo, "six files")
    for i in range(6):
        (repo / f"F{i}.java").write_text(f"class F{i} {{ int x; }}\n", encoding="utf-8")
    six = _commit(repo, "change six files")
    (repo / "notes.txt").write_text("no source\n", encoding="utf-8")
    docs = _commit(repo, "docs only")

    calls = []
    git = CorpusStore._git
    monkeypatch.setattr(CorpusStore, "_git",
                        lambda self, *a, **kw: calls.append(a[0]) or git(self, *a, **kw))
    store = CorpusStore(repo_path=repo)
    for commit, n_files, procs in [(root, 6, 2), (six, 6, 2), (docs, 0, 1)]:
        calls.clear()
        assert len(store.changed_files_with_contents(commit)) == n_files
        assert len(calls) == procs


def test_non_ascii_source_path_is_kept(tmp_path):
    """`--numstat` C-quotes such a path, which hid it from the extension filter."""
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q", "-b", "main")
    (repo / "Café.java").write_text("class Cafe {}\n", encoding="utf-8")
    _commit(repo, "base")
    (repo / "Café.java").write_text("class Cafe { int x; }\n", encoding="utf-8")
    fix = _commit(repo, "fix")
    diagnostics: list[str] = []
    files = CorpusStore(repo_path=repo).changed_files_with_contents(fix, diagnostics)
    assert files == [ChangedFile("Café.java", "class Cafe { int x; }\n", "class Cafe {}\n")]
    assert diagnostics == []


# -- differential tests against the per-file extraction in corpus_oracle -----

_PATHS = ["A.java", "B.java", "core/C.java", "core/util/D.java", "core/util/E.java",
          "docs/notes.txt", "build.xml", "core/F.java"]


def _random_history(repo, seed: int) -> list[str]:
    """A seeded history whose commits add, modify, delete and rename (delete +
    create) files, change only a mode, touch subdirectories and non-source
    files, hold CRLF line ends, and end in a merge; returns every commit, root
    first."""
    rng = random.Random(seed)
    _git(repo, "init", "-q", "-b", "main")
    live: set[str] = set()

    def write(rel: str, crlf: bool = False) -> None:
        path = repo / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        body = "".join(f"class K{rng.randrange(10 ** 6)} {{ int f = {rng.randrange(99)}; }}\n"
                       for _ in range(rng.randint(1, 4)))
        if crlf or rng.random() < 0.2:
            body = body.replace("\n", "\r\n")
        path.write_bytes(body.encode("utf-8"))
        live.add(rel)

    for i, rel in enumerate(rng.sample(_PATHS, 4)):
        write(rel, crlf=i == 0)
    commits = [_commit(repo, "root")]
    # every kind of change once, then a seeded mix
    ops = ["add", "modify", "delete", "rename", "chmod", "empty"]
    ops += [rng.choice(ops[:5]) for _ in range(6)]
    for op in ops:
        absent = [p for p in _PATHS if p not in live]
        present = sorted(live)
        if op == "add" and absent:
            write(rng.choice(absent))
            if present:
                write(rng.choice(present))
        elif op == "modify" and present:
            for rel in rng.sample(present, min(len(present), rng.randint(1, 3))):
                write(rel)
        elif op == "delete" and len(present) > 1:
            rel = rng.choice(present)
            (repo / rel).unlink()
            live.discard(rel)
        elif op == "rename" and present and absent:
            src, dst = rng.choice(present), rng.choice(absent)
            (repo / dst).parent.mkdir(parents=True, exist_ok=True)
            _git(repo, "mv", src, dst)
            live.discard(src)
            live.add(dst)
        elif op == "chmod" and present:
            path = repo / rng.choice(present)
            path.chmod(path.stat().st_mode ^ 0o111)
        commits.append(_commit(repo, op))

    _git(repo, "checkout", "-q", "-b", "side")
    write("side/Side.java")
    write("side/notes.txt")
    commits.append(_commit(repo, "side"))
    _git(repo, "checkout", "-q", "main")
    write(rng.choice(sorted(p for p in live if not p.startswith("side/"))))
    commits.append(_commit(repo, "main"))
    _git(repo, "merge", "-q", "--no-ff", "-m", "merge side", "side")
    commits.append(_git(repo, "rev-parse", "HEAD"))
    return commits


@pytest.mark.parametrize("seed", range(3))
def test_extraction_matches_the_per_file_oracle(tmp_path, seed):
    repo = tmp_path / "repo"
    repo.mkdir()
    commits = _random_history(repo, seed)
    store, oracle = CorpusStore(repo_path=repo), OracleStore(repo_path=repo)
    seen = set()
    for commit in commits:
        got_diags, want_diags = [], []
        got = store.changed_files_with_contents(commit, got_diags)
        assert got == oracle.changed_files_with_contents(commit, want_diags), commit
        assert got_diags == want_diags, commit
        seen.update(("added" if f.content_at_parent is None else
                     "deleted" if f.content_at_commit is None else
                     "same" if f.content_at_commit == f.content_at_parent else "modified")
                    for f in got)
        seen.update("merge" for d in got_diags if d.startswith("merge commit"))
    assert {"added", "deleted", "same", "modified", "merge"} <= seen
