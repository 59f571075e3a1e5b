"""Ingest the four relational record kinds and pull changed-file
contents out of a local git working copy.

Record files are UTF-8 JSON lines, one object per line, with the field names
of the originating issue-tracker/VCS tables (Issue_id, Commit_Hash, ...).
"""

from __future__ import annotations

import json
import re
import subprocess
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from operator import attrgetter
from pathlib import Path

from . import datafiles

_HASH_RE = re.compile(r"^[0-9a-f]{40}$")
_NULL_SHA = "0" * 40


class CorpusError(ValueError):
    pass


class GitCommandError(CorpusError):
    """A git process exited non-zero."""


class UnlinkedIssueError(CorpusError):
    pass


class DanglingLinkError(CorpusError):
    pass


class IssueType(Enum):
    BUG = "Bug"
    NEW_FEATURE = "NewFeature"
    OTHER = "Other"

    @classmethod
    def parse(cls, raw: str) -> "IssueType":
        norm = raw.strip().replace(" ", "").replace("_", "").lower()
        if norm == "bug":
            return cls.BUG
        if norm == "newfeature":
            return cls.NEW_FEATURE
        return cls.OTHER


def parse_utc(raw: str) -> datetime:
    """Parse an ISO-8601 timestamp like 2010-07-29T21:02:29Z into UTC."""
    dt = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


@dataclass
class IssueRecord:
    issue_id: str
    issue_type: IssueType
    create_date: datetime
    fixed_date: datetime | None = None
    summary_raw: str = ""
    description_raw: str = ""

    def __post_init__(self) -> None:  # a record is checked wherever it is made
        if not self.issue_id:
            raise ValueError("empty Issue_id")
        if self.fixed_date is not None and self.fixed_date < self.create_date:
            raise ValueError("Fixed_date precedes Create_date")
        if not self.summary_raw and not self.description_raw:
            raise ValueError("both Summary_raw and Description_raw empty")

    @classmethod
    def from_record(cls, rec: dict) -> "IssueRecord":
        return cls(
            issue_id=str(rec["Issue_id"]),
            issue_type=IssueType.parse(str(rec.get("Issue_type", "Other"))),
            create_date=parse_utc(rec["Create_date"]),
            fixed_date=parse_utc(rec["Fixed_date"]) if rec.get("Fixed_date") else None,
            summary_raw=str(rec.get("Summary_raw", "") or ""),
            description_raw=str(rec.get("Description_raw", "") or ""),
        )


@dataclass
class CommitRecord:
    commit_hash: str
    committed_date: datetime

    def __post_init__(self) -> None:
        if not _HASH_RE.match(self.commit_hash):
            raise ValueError(f"hash length/format: {self.commit_hash!r} is not 40 lowercase hex")

    @classmethod
    def from_record(cls, rec: dict) -> "CommitRecord":
        return cls(
            commit_hash=str(rec["Commit_Hash"]),
            committed_date=parse_utc(rec["Committed_Date"]),
        )


@dataclass
class FileChange:
    commit_hash: str
    file_path: str
    sum_added_lines: int = 0
    sum_removed_lines: int = 0

    def __post_init__(self) -> None:
        if not _HASH_RE.match(self.commit_hash):
            raise ValueError(f"hash length/format: {self.commit_hash!r}")
        if not self.file_path:
            raise ValueError("empty File_path")
        if self.sum_added_lines < 0 or self.sum_removed_lines < 0:
            raise ValueError("negative line counts")

    @classmethod
    def from_record(cls, rec: dict) -> "FileChange":
        return cls(
            commit_hash=str(rec["Commit_Hash"]),
            file_path=str(rec["File_path"]),
            sum_added_lines=int(rec.get("Sum_added_lines", 0)),
            sum_removed_lines=int(rec.get("Sum_removed_lines", 0)),
        )


@dataclass
class ChangeLink:
    issue_id: str
    commit_hash: str

    def __post_init__(self) -> None:
        if not self.issue_id:
            raise ValueError("empty Issue_id")
        if not _HASH_RE.match(self.commit_hash):
            raise ValueError(f"hash length/format: {self.commit_hash!r}")

    @classmethod
    def from_record(cls, rec: dict) -> "ChangeLink":
        return cls(issue_id=str(rec["Issue_id"]), commit_hash=str(rec["Commit_Hash"]))


class RecordKind(Enum):
    ISSUES = "issues"
    COMMITS = "commits"
    CHANGES = "changes"
    LINKS = "links"


_KIND_CLASSES = {
    RecordKind.ISSUES: IssueRecord,
    RecordKind.COMMITS: CommitRecord,
    RecordKind.CHANGES: FileChange,
    RecordKind.LINKS: ChangeLink,
}

# the unique key of each record kind in its CorpusStore table
_KIND_KEYS = {
    RecordKind.ISSUES: attrgetter("issue_id"),
    RecordKind.COMMITS: attrgetter("commit_hash"),
    RecordKind.CHANGES: attrgetter("commit_hash", "file_path"),
    RecordKind.LINKS: attrgetter("issue_id", "commit_hash"),
}


@dataclass
class IngestResult:
    accepted: int = 0
    diagnostics: list[str] = field(default_factory=list)


@dataclass
class ChangedFile:
    file_path: str
    content_at_commit: str | None
    content_at_parent: str | None


@dataclass
class CorpusStore:
    issues: dict[str, IssueRecord] = field(default_factory=dict)
    commits: dict[str, CommitRecord] = field(default_factory=dict)
    changes: dict[tuple[str, str], FileChange] = field(default_factory=dict)
    links: dict[tuple[str, str], ChangeLink] = field(default_factory=dict)
    repo_path: Path | None = None
    source_extensions: tuple[str, ...] = (".java",)
    # issue id -> its linked commits in link order: the links table indexed by issue
    _commits_by_issue: dict[str, list[str]] = field(default_factory=dict, init=False, repr=False)

    # -- ingest -------------------------------------------------------------

    def ingest_records(self, path: str | Path, kind: RecordKind) -> IngestResult:
        """Load one JSON-lines record file; malformed lines and duplicate keys
        are reported per-line and skipped (first occurrence wins)."""
        path = Path(path)
        text = datafiles.read_text(path)
        result = IngestResult()
        cls = _KIND_CLASSES[kind]
        for lineno, line in enumerate(datafiles.split_lines(text), start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                if isinstance(rec, dict) and "_header" in rec:
                    continue
                obj = cls.from_record(rec)
            except (*datafiles.RECORD_ERRORS, RecursionError) as exc:
                result.diagnostics.append(f"{path.name}:{lineno}: {exc}")
                continue
            if not self._insert(kind, obj):
                result.diagnostics.append(f"{path.name}:{lineno}: duplicate key, first occurrence wins")
                continue
            result.accepted += 1
        return result

    def _insert(self, kind: RecordKind, obj) -> bool:
        table = getattr(self, kind.value)  # kinds are named after their tables
        key = _KIND_KEYS[kind](obj)
        if key in table:
            return False
        table[key] = obj
        if table is self.links:  # cheaper than comparing the enum member per record
            self._commits_by_issue.setdefault(obj.issue_id, []).append(obj.commit_hash)
        return True

    # -- queries ------------------------------------------------------------

    def resolve_fix_commit(self, issue_id: str) -> str:
        """The linked fix commit; with several links, the latest committed_date wins."""
        if issue_id not in self.issues:
            raise CorpusError(f"unknown issue {issue_id}")
        linked = self._commits_by_issue.get(issue_id, [])
        if not linked:
            raise UnlinkedIssueError(f"unlinked issue {issue_id}")
        dated = []
        for h in linked:
            commit = self.commits.get(h)
            if commit is None:
                raise DanglingLinkError(f"dangling link: issue {issue_id} -> unknown commit {h}")
            dated.append((commit.committed_date, h))
        return max(dated)[1]

    # -- git extraction -----------------------------------------------------

    def _git(self, *args: str, input: bytes | None = None) -> bytes:
        """The stdout of one git process run in the repository."""
        if self.repo_path is None:
            raise CorpusError("repo_path not configured")
        try:
            proc = subprocess.run(["git", "-C", str(self.repo_path), *args],
                                  input=input, capture_output=True)
        except FileNotFoundError:
            raise CorpusError(
                "git executable not found; install git or provide pre-scanned smell vectors"
            ) from None
        if proc.returncode != 0:
            stderr = proc.stderr.decode("utf-8", errors="replace").strip()
            raise GitCommandError(f"git {' '.join(args)} failed: {stderr}")
        return proc.stdout

    def _read_blobs(self, shas: list[str]) -> dict[str, memoryview | None]:
        """Blob contents by SHA from one `git cat-file --batch`, as views of
        its output; None for an object that is missing or not a blob (a
        gitlink, say)."""
        out = self._git("cat-file", "--batch", input=_lines(shas))
        view = memoryview(out)
        blobs: dict[str, memoryview | None] = {}
        pos = 0
        for sha in shas:
            eol = out.index(b"\n", pos)
            header = out[pos:eol].split()  # <sha> <type> <size>, or <sha> missing
            pos = eol + 1
            if len(header) != 3:
                blobs[sha] = None
                continue
            size = int(header[2])
            blobs[sha] = view[pos:pos + size] if header[1] == b"blob" else None
            pos += size + 1
        return blobs

    def changed_files(self, commits: Iterable[str], diagnostics: list[str]
                      ) -> Iterator[tuple[str, list[ChangedFile] | CorpusError]]:
        """Each distinct name of `commits` once, in order, with the changed
        source files of its commit, or with the `CorpusError` it cannot be
        read for: the name is unknown, or names a blob, tree or tag.

        Contents are read at the commit and its first parent, as UTF-8 with
        undecodable bytes replaced and LF line ends; renames surface as
        delete+create. A commit's diagnostics are appended as it is yielded.
        The stream starts its git processes as it is read:
        - one `git cat-file --batch-check` resolves every name and tells commits
          from missing objects and from blobs, trees and tags, all of which
          `diff-tree --stdin` would skip without a word;
        - one `git diff-tree --stdin` lists the parents and changed files of
          every commit;
        - one `git cat-file --batch` per `_CHUNK_COMMITS` commits that change a
          source file reads their blobs, before the first of them is yielded.
        So it holds one chunk's blobs at a time.
        """
        names = list(dict.fromkeys(commits))
        try:
            diffs = self._read_diffs(names)
        except CorpusError as exc:
            diffs = dict.fromkeys(names, exc)
        changing = {n for n, d in diffs.items() if not isinstance(d, CorpusError) and d[1]}
        chunk, held = [], 0  # `held` counts the commits of `chunk` that change a source file
        for i, name in enumerate(names, start=1):
            chunk.append(name)
            held += name in changing
            if held == _CHUNK_COMMITS or i == len(names):
                yield from self._read_chunk(chunk, changing, diffs, diagnostics)
                chunk, held = [], 0

    def changed_files_with_contents(self, commit_hash: str,
                                    diagnostics: list[str] | None = None) -> list[ChangedFile]:
        """The changed source files of one commit, read as `changed_files`
        reads them; a commit it cannot read raises its `CorpusError`."""
        [(_, files)] = self.changed_files([commit_hash], [] if diagnostics is None else diagnostics)
        if isinstance(files, CorpusError):
            raise files
        return files

    def _read_diffs(self, names: list[str]) -> dict[str, _Diff | CorpusError]:
        """Per name, the parents and changed source files of its commit, or
        why it names no commit."""
        lines = [n for n in names if "\n" not in n]  # a line break splits a name on stdin
        objects = {}
        if lines:
            out = self._git("cat-file", "--batch-check=%(objectname) %(objecttype)",
                            input=_lines(lines))
            # "<sha> <type>", or "<name> missing" / "<name> ambiguous"
            objects = {n: line.rsplit(" ", 1) for n, line in zip(lines, out.decode().split("\n"))}
        commits = list(dict.fromkeys(sha for sha, kind in objects.values() if kind == "commit"))
        by_sha = self._parse_diffs(self._git(*_DIFF_ARGS, input=_lines(commits))) if commits else {}
        diffs: dict[str, _Diff | CorpusError] = {}
        for name in names:
            sha, kind = objects.get(name, (name, "missing"))
            if kind in ("blob", "tree", "tag"):
                diffs[name] = CorpusError(f"{name} is a {kind}, not a commit")
            elif kind != "commit":
                diffs[name] = CorpusError(f"unknown commit hash {name}")
            else:  # a commit with an empty diff has no entry: no files, and no merge diagnostic
                diffs[name] = by_sha.get(sha, ([], []))
        return diffs

    def _parse_diffs(self, out: bytes) -> dict[str, _Diff]:
        # per commit with a non-empty diff: "<sha> <parents>", then one
        # (":<modes> <old sha> <new sha> <status>", <path>) pair per changed file
        diffs: dict[str, _Diff] = {}
        fields = out.split(b"\0")
        i = 0
        while i < len(fields) - 1:
            field = fields[i].lstrip(b"\n")  # git starts a commit's file list on a new line
            if field.startswith(b":"):
                path = fields[i + 1].decode("utf-8", errors="replace")
                if path.endswith(self.source_extensions):
                    _, _, old, new, _ = field.split()
                    files.append((path, new.decode(), old.decode()))
                i += 2
            else:
                sha, *parents = field.decode().split()
                files: list[tuple[str, str, str]] = []
                diffs[sha] = (parents, files)
                i += 1
        return diffs

    def _read_chunk(self, names: list[str], changing: set[str],
                    diffs: dict[str, _Diff | CorpusError], diagnostics: list[str]
                    ) -> Iterator[tuple[str, list[ChangedFile] | CorpusError]]:
        """Each of `names` with its changed files, from one read of their blobs."""
        changed = [n for n in names if n in changing]
        shas = dict.fromkeys(s for n in changed for _, new, old in diffs[n][1]
                             for s in (new, old) if s != _NULL_SHA)
        blobs: dict[str, memoryview | None] = {}
        if shas:
            try:
                blobs = self._read_blobs(list(shas))
            except CorpusError as exc:
                diffs.update(dict.fromkeys(changed, exc))
        for name in names:
            diff = diffs[name]
            yield name, diff if isinstance(diff, CorpusError) else _changed_files(
                name, *diff, blobs, diagnostics)


# Commits whose changed blobs one `git cat-file --batch` reads. A stream holds
# one chunk's blobs at a time, so it holds the changed source files of at most
# 128 commits, however long the history.
_CHUNK_COMMITS = 128

_DIFF_ARGS = ("diff-tree", "--stdin", "-r", "-z", "--raw", "--no-abbrev", "--no-renames",
              "--root", "--diff-merges=first-parent", "--format=%H %P")

# a commit's parents, and (path, new blob sha, old blob sha) per changed source file
_Diff = tuple[list[str], list[tuple[str, str, str]]]


def _lines(names: Iterable[str]) -> bytes:
    return "".join(f"{n}\n" for n in names).encode()


def _changed_files(name: str, parents: list[str], changed: list[tuple[str, str, str]],
                   blobs: dict[str, memoryview | None],
                   diagnostics: list[str]) -> list[ChangedFile]:
    parent = parents[0] if parents else None
    if len(parents) > 1:
        diagnostics.append(f"merge commit {name}: first-parent diff only")

    def content(rev: str | None, path: str, blob: str) -> str | None:
        data = blobs.get(blob)
        if data is None:
            return None
        try:
            text = str(data, "utf-8")
        except UnicodeDecodeError:
            text = str(data, "utf-8", "replace")
            diagnostics.append(f"{rev}:{path}: not valid UTF-8, undecodable bytes replaced")
        return datafiles.to_lf(text)

    entries: list[ChangedFile] = []
    for path, new, old in sorted(changed):
        cur = content(name, path, new)
        prev = content(parent, path, old)
        if cur is None:
            diagnostics.append(f"{name}:{path}: no content at commit (deleted?)")
        entries.append(ChangedFile(path, cur, prev))
    return entries
