"""Ingest the four relational record kinds and pull changed-file
contents out of a local git working copy.

Record files are UTF-8 JSON lines, one object per line, with the field names
of the originating issue-tracker/VCS tables (Issue_id, Commit_Hash, ...).
"""

from __future__ import annotations

import json
import re
import subprocess
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from operator import attrgetter
from pathlib import Path

from . import datafiles

_HASH_RE = re.compile(r"^[0-9a-f]{40}$")
_NULL_SHA = "0" * 40


class CorpusError(Exception):
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

    # -- ingest -------------------------------------------------------------

    def ingest_records(self, path: str | Path, kind: RecordKind) -> IngestResult:
        """Load one JSON-lines record file; malformed lines and duplicate keys
        are reported per-line and skipped (first occurrence wins)."""
        path = Path(path)
        text = datafiles.read_text(path)
        result = IngestResult()
        cls = _KIND_CLASSES[kind]
        for lineno, line in enumerate(text.splitlines(), start=1):
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
        return True

    # -- queries ------------------------------------------------------------

    def resolve_fix_commit(self, issue_id: str) -> str:
        """The linked fix commit; with several links, the latest committed_date wins."""
        if issue_id not in self.issues:
            raise CorpusError(f"unknown issue {issue_id}")
        linked = [h for i, h in self.links if i == issue_id]
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

    def _read_blobs(self, shas: list[str]) -> dict[str, bytes | None]:
        """Blob contents by SHA from one `git cat-file --batch`; None for an
        object that is missing or not a blob (a gitlink, say)."""
        out = self._git("cat-file", "--batch", input="".join(f"{s}\n" for s in shas).encode())
        blobs: dict[str, bytes | None] = {}
        pos = 0
        for sha in shas:
            eol = out.index(b"\n", pos)
            header = out[pos:eol].split()  # <sha> <type> <size>, or <sha> missing
            pos = eol + 1
            if len(header) != 3:
                blobs[sha] = None
                continue
            size = int(header[2])
            blobs[sha] = out[pos:pos + size] if header[1] == b"blob" else None
            pos += size + 1
        return blobs

    def changed_files_with_contents(self, commit_hash: str,
                                    diagnostics: list[str] | None = None) -> list[ChangedFile]:
        """Changed source files of a commit with contents at the commit and
        its first parent; renames surface as delete+create (no rename detection).

        Two git processes per commit, however many files it changes:
        `diff-tree` for the parents and the raw diff, then `cat-file --batch`
        for the changed blobs. Contents are read as UTF-8 with undecodable
        bytes replaced, and CRLF or CR line ends become LF.
        """
        try:
            out = self._git("diff-tree", "-r", "-z", "--raw", "--no-abbrev", "--no-renames",
                            "--root", "--diff-merges=first-parent", "--format=%P", commit_hash)
        except GitCommandError:
            raise CorpusError(f"unknown commit hash {commit_hash}") from None
        # <parents>\0, then one (":<modes> <old sha> <new sha> <status>", <path>) pair per file
        fields = out.split(b"\0")
        parents = fields[0].decode().split()
        parent = parents[0] if parents else None
        if diagnostics is not None and len(parents) > 1:
            diagnostics.append(f"merge commit {commit_hash}: first-parent diff only")
        changed = []
        for meta, raw_path in zip(fields[1::2], fields[2::2]):
            path = raw_path.decode("utf-8", errors="replace")
            if path.endswith(self.source_extensions):
                _, _, old, new, _ = meta.split()
                changed.append((path, new.decode(), old.decode()))
        shas = list(dict.fromkeys(
            sha for _, new, old in changed for sha in (new, old) if sha != _NULL_SHA))
        blobs = self._read_blobs(shas) if shas else {}

        def content(rev: str, path: str, sha: str) -> str | None:
            data = blobs.get(sha)
            if data is None:
                return None
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError:
                text = data.decode("utf-8", errors="replace")
                if diagnostics is not None:
                    diagnostics.append(f"{rev}:{path}: not valid UTF-8, undecodable bytes replaced")
            return text.replace("\r\n", "\n").replace("\r", "\n")

        entries: list[ChangedFile] = []
        for path, new, old in sorted(changed):
            cur = content(commit_hash, path, new)
            prev = content(parent, path, old)
            if cur is None and diagnostics is not None:
                diagnostics.append(f"{commit_hash}:{path}: no content at commit (deleted?)")
            entries.append(ChangedFile(path, cur, prev))
        return entries
