"""Ingest the four relational record kinds and pull changed-file
contents out of a local git working copy.

Record files are UTF-8 JSON lines, one object per line, with the field names
of the originating issue-tracker/VCS tables (Issue_id, Commit_Hash, ...).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from operator import attrgetter
from pathlib import Path

_HASH_RE = re.compile(r"^[0-9a-f]{40}$")


class CorpusError(Exception):
    pass


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

    def validate(self) -> None:
        if not self.issue_id:
            raise ValueError("empty Issue_id")
        if self.fixed_date is not None and self.fixed_date < self.create_date:
            raise ValueError("Fixed_date precedes Create_date")
        if not self.summary_raw and not self.description_raw:
            raise ValueError("both Summary_raw and Description_raw empty")

    @classmethod
    def from_record(cls, rec: dict) -> "IssueRecord":
        obj = cls(
            issue_id=str(rec["Issue_id"]),
            issue_type=IssueType.parse(str(rec.get("Issue_type", "Other"))),
            create_date=parse_utc(rec["Create_date"]),
            fixed_date=parse_utc(rec["Fixed_date"]) if rec.get("Fixed_date") else None,
            summary_raw=str(rec.get("Summary_raw", "") or ""),
            description_raw=str(rec.get("Description_raw", "") or ""),
        )
        obj.validate()
        return obj


@dataclass
class CommitRecord:
    commit_hash: str
    committed_date: datetime

    def validate(self) -> None:
        if not _HASH_RE.match(self.commit_hash):
            raise ValueError(f"hash length/format: {self.commit_hash!r} is not 40 lowercase hex")

    @classmethod
    def from_record(cls, rec: dict) -> "CommitRecord":
        obj = cls(
            commit_hash=str(rec["Commit_Hash"]),
            committed_date=parse_utc(rec["Committed_Date"]),
        )
        obj.validate()
        return obj


@dataclass
class FileChange:
    commit_hash: str
    file_path: str
    sum_added_lines: int = 0
    sum_removed_lines: int = 0

    def validate(self) -> None:
        if not _HASH_RE.match(self.commit_hash):
            raise ValueError(f"hash length/format: {self.commit_hash!r}")
        if not self.file_path:
            raise ValueError("empty File_path")
        if self.sum_added_lines < 0 or self.sum_removed_lines < 0:
            raise ValueError("negative line counts")

    @classmethod
    def from_record(cls, rec: dict) -> "FileChange":
        obj = cls(
            commit_hash=str(rec["Commit_Hash"]),
            file_path=str(rec["File_path"]),
            sum_added_lines=int(rec.get("Sum_added_lines", 0)),
            sum_removed_lines=int(rec.get("Sum_removed_lines", 0)),
        )
        obj.validate()
        return obj


@dataclass
class ChangeLink:
    issue_id: str
    commit_hash: str

    def validate(self) -> None:
        if not self.issue_id:
            raise ValueError("empty Issue_id")
        if not _HASH_RE.match(self.commit_hash):
            raise ValueError(f"hash length/format: {self.commit_hash!r}")

    @classmethod
    def from_record(cls, rec: dict) -> "ChangeLink":
        obj = cls(issue_id=str(rec["Issue_id"]), commit_hash=str(rec["Commit_Hash"]))
        obj.validate()
        return obj


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
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise CorpusError(f"unreadable record file {path}: {exc}") from exc
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
            except (ValueError, KeyError, TypeError) as exc:
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

    def _git(self, *args: str, check: bool = True) -> subprocess.CompletedProcess:
        if self.repo_path is None:
            raise CorpusError("repo_path not configured")
        if shutil.which("git") is None:
            raise CorpusError(
                "git executable not found; install git or provide pre-scanned smell vectors"
            )
        proc = subprocess.run(
            ["git", "-C", str(self.repo_path), *args],
            capture_output=True, text=True,
        )
        if check and proc.returncode != 0:
            raise CorpusError(f"git {' '.join(args)} failed: {proc.stderr.strip()}")
        return proc

    def _parents(self, commit_hash: str) -> list[str]:
        """Parent hashes, first parent first; empty for a root commit."""
        proc = self._git("rev-list", "--parents", "-n", "1", commit_hash, check=False)
        if proc.returncode != 0:
            raise CorpusError(f"unknown commit hash {commit_hash}")
        return proc.stdout.split()[1:]

    def _show_file(self, commit_hash: str, path: str) -> str | None:
        proc = self._git("show", f"{commit_hash}:{path}", check=False)
        if proc.returncode != 0:
            return None
        return proc.stdout

    def changed_files_with_contents(self, commit_hash: str,
                                    diagnostics: list[str] | None = None) -> list[ChangedFile]:
        """Changed source files of a commit with contents at the commit and
        its first parent; renames surface as delete+create (no rename detection)."""
        parents = self._parents(commit_hash)
        parent = parents[0] if parents else None
        if diagnostics is not None and len(parents) > 1:
            diagnostics.append(f"merge commit {commit_hash}: first-parent diff only")
        if parent is not None:
            proc = self._git("diff", "--numstat", "--no-renames", parent, commit_hash)
        else:
            proc = self._git("diff-tree", "--root", "--numstat", "--no-renames",
                             "--no-commit-id", "-r", commit_hash)
        entries: list[ChangedFile] = []
        for line in proc.stdout.splitlines():
            parts = line.split("\t")
            if len(parts) != 3:
                continue
            path = parts[2]
            if not path.endswith(self.source_extensions):
                continue
            cur = self._show_file(commit_hash, path)
            prev = self._show_file(parent, path) if parent else None
            if cur is None and diagnostics is not None:
                diagnostics.append(f"{commit_hash}:{path}: no content at commit (deleted?)")
            entries.append(ChangedFile(path, cur, prev))
        entries.sort(key=lambda e: e.file_path)
        return entries
