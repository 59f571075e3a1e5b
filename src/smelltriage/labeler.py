"""Binary labeling of bug fixes: 1 when fixing the bug added at least one
smell to any changed source file (additions-only delta), else 0."""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field
from typing import Iterator, Protocol

from .corpus import CorpusStore, IssueType, UnlinkedIssueError, DanglingLinkError, CorpusError
from .smellscan import RuleThresholds, SmellVector, scan_source
from . import datafiles, textprep


@dataclass
class SmellDelta:
    commit_hash: str
    file_path: str
    added_per_rule: tuple[int, ...]
    signed_sum: int  # raw sum of cur - prev, exported for audit

    @property
    def total_added(self) -> int:
        return sum(self.added_per_rule)


@dataclass
class LabeledSample:
    issue_id: str
    commit_hash: str
    text: str
    label: int
    total_added_smells: int
    raw_signed_delta: int = 0
    synthetic: bool = False

    def to_record(self) -> dict:
        return asdict(self)

    @classmethod
    def from_record(cls, rec: dict) -> "LabeledSample":
        label = rec["label"]
        if label not in (0, 1):  # True and 1.0 are 1; int() would truncate 0.7 to 0
            raise ValueError(f"label {label!r} is not 0 or 1")
        synthetic = rec.get("synthetic", False)
        if not isinstance(synthetic, bool):  # bool("false") is True
            raise ValueError(f"synthetic {synthetic!r} is not true or false")
        return cls(
            issue_id=str(rec["issue_id"]),
            commit_hash=str(rec.get("commit_hash", "")),
            text=str(rec["text"]),
            label=int(label),
            total_added_smells=datafiles.whole(rec, "total_added_smells"),
            raw_signed_delta=datafiles.whole(rec, "raw_signed_delta"),
            synthetic=synthetic,
        )


def load_dataset(path: str) -> list[LabeledSample]:
    """The samples of a dataset file to learn from, which has both labels."""
    samples = datafiles.parse_records(datafiles.read_jsonl(path)[1],
                                      LabeledSample.from_record, path)
    labels = sorted({s.label for s in samples})
    if labels != [0, 1]:
        raise datafiles.DataFileError(f"{path}: {len(samples)} samples labelled {labels}; "
                                      f"learning needs both labels 0 and 1")
    return samples


def smell_delta(commit_hash: str, file_path: str,
                cur: SmellVector, prev: SmellVector | None) -> SmellDelta:
    """Per-rule clamped difference max(0, cur - prev); absent prev counts as all-zero."""
    prev_flags = prev.flags if prev is not None else (False,) * 16
    added = tuple(max(0, int(c) - int(p)) for c, p in zip(cur.flags, prev_flags))
    signed = sum(int(c) - int(p) for c, p in zip(cur.flags, prev_flags))
    return SmellDelta(commit_hash, file_path, added, signed)


def label_commit(deltas: list[SmellDelta]) -> tuple[int, list[str]]:
    """1 iff any smell was added across the commit's changed source files."""
    diagnostics = []
    if not deltas:
        diagnostics.append("no source files changed")
    total = sum(d.total_added for d in deltas)
    return (1 if total > 0 else 0), diagnostics


class SmellSource(Protocol):
    """Supplies (path, current vector, previous vector) triples for a commit.
    Its readers call it inside a git pass of their store (`CorpusStore.reading`),
    which starts no git process until a commit is read from it."""

    def file_vectors(self, commit_hash: str,
                     diagnostics: list[str]) -> list[tuple[str, SmellVector, SmellVector | None]]:
        ...


@dataclass
class GitScanSource:
    """Scan changed file contents straight out of the repository.

    A commit is read from the store's git pass when one is open over it
    (`CorpusStore.reading`), and on its own otherwise. Each content is scanned
    once per source, whatever its path: a file's content at one fix is often
    its parent content at the next. The memo keys on a digest of the content,
    so it does not hold every scanned file in memory; build one source per
    pass so no result outlives it.
    """

    store: CorpusStore
    thresholds: RuleThresholds = field(default_factory=RuleThresholds)
    _scans: dict[bytes, SmellVector] = field(default_factory=dict, init=False, repr=False)

    def _scan(self, content: str) -> SmellVector:
        key = hashlib.blake2b(content.encode("utf-8"), digest_size=16).digest()
        if key not in self._scans:
            self._scans[key] = scan_source(content, thresholds=self.thresholds)
        return self._scans[key]

    def file_vectors(self, commit_hash, diagnostics):
        out = []
        for cf in self.store.changed_files_with_contents(commit_hash, diagnostics):
            if cf.content_at_commit is None:
                continue  # deleted file: nothing can have been added to it
            cur = self._scan(cf.content_at_commit)
            prev = None
            if cf.content_at_parent is not None:
                prev = self._scan(cf.content_at_parent)
            out.append((cf.file_path, cur, prev))
        return out


def vectors_record(commit_hash: str,
                   vectors: list[tuple[str, SmellVector, SmellVector | None]]) -> dict:
    """One `smell_vectors.jsonl` record: a commit's changed files, each with its
    vector at the commit and, under `Previous`, at the first parent (or null)."""
    return {"Commit_Hash": commit_hash, "Files": [
        {"File_path": path, **cur.to_record(),
         "Previous": prev.to_record() if prev is not None else None}
        for path, cur, prev in vectors]}


@dataclass
class VectorTableSource:
    """Pre-computed smell vectors: commit -> [(path, current, previous)]."""

    files: dict[str, list[tuple[str, SmellVector, SmellVector | None]]]

    @classmethod
    def from_records(cls, records: list[dict],
                     name: str = "smell vectors") -> "VectorTableSource":
        """Read back the records written by `vectors_record`, from the file `name`."""
        files = {}

        def add(rec):
            files[rec["Commit_Hash"]] = [
                (f["File_path"], SmellVector.from_record(f),
                 SmellVector.from_record(f["Previous"]) if f["Previous"] is not None else None)
                for f in rec["Files"]]
        datafiles.parse_records(records, add, name, "; rewrite the file with scan-smells")
        return cls(files)

    def file_vectors(self, commit_hash, diagnostics):
        if commit_hash not in self.files:
            raise CorpusError(f"no smell vectors for commit {commit_hash}")
        return self.files[commit_hash]


@dataclass
class DatasetStats:
    project: str
    total: int = 0
    class1: int = 0

    @property
    def class1_percent(self) -> float:
        return 100.0 * self.class1 / self.total if self.total else 0.0

    def to_record(self) -> dict:
        return {
            "project": self.project,
            "class1": self.class1,
            "total": self.total,
            "class1_percent": round(self.class1_percent, 1),
        }


@dataclass
class LabeledDataset:
    samples: list[LabeledSample]
    stats: DatasetStats
    skipped: list[str]
    diagnostics: list[str]


def fix_commits(store: CorpusStore, skipped: list[str]) -> Iterator[tuple[str, str]]:
    """(issue id, fix commit) for every Bug issue with a resolvable fix commit,
    in issue-id order; every other issue appends its reason to `skipped`."""
    for issue_id in sorted(store.issues):
        if store.issues[issue_id].issue_type is not IssueType.BUG:
            skipped.append(f"{issue_id}: not a Bug issue")
            continue
        try:
            commit = store.resolve_fix_commit(issue_id)
        except (UnlinkedIssueError, DanglingLinkError) as exc:
            skipped.append(f"{issue_id}: {exc}")
            continue
        yield issue_id, commit


def scan_fix_commits(store: CorpusStore, source: SmellSource,
                     diagnostics: list[str]) -> list[dict]:
    """One `vectors_record` per fix commit; a commit that cannot be scanned
    becomes a diagnostic, so `label` later skips its issue."""
    records: list[dict] = []
    first_issue: dict[str, str] = {}  # commit -> the first issue it fixes
    for issue_id, commit in fix_commits(store, []):
        first_issue.setdefault(commit, issue_id)
    with store.reading(first_issue):
        for commit, issue_id in first_issue.items():
            try:
                records.append(vectors_record(commit, source.file_vectors(commit, diagnostics)))
            except CorpusError as exc:
                diagnostics.append(f"{issue_id}: {exc}")
    return records


def build_labeled_dataset(store: CorpusStore, source: SmellSource,
                          project: str = "project") -> LabeledDataset:
    """One sample per Bug issue with a resolvable fix commit and nonempty text."""
    samples: list[LabeledSample] = []
    skipped: list[str] = []
    diagnostics: list[str] = []
    stats = DatasetStats(project=project)
    # in issue-id order, a skip reason or an (issue, fix commit, text) to label
    todo: list[str | tuple[str, str, str]] = []
    for issue_id, commit in fix_commits(store, todo):
        issue = store.issues[issue_id]
        text = textprep.report_text(issue.summary_raw, issue.description_raw)
        todo.append((issue_id, commit, text) if text else f"{issue_id}: empty report text")
    with store.reading(item[1] for item in todo if isinstance(item, tuple)):
        for item in todo:
            if isinstance(item, str):
                skipped.append(item)
                continue
            issue_id, commit, text = item
            try:
                vectors = source.file_vectors(commit, diagnostics)
            except CorpusError as exc:
                skipped.append(f"{issue_id}: {exc}")
                continue
            deltas = [smell_delta(commit, p, cur, prev) for p, cur, prev in vectors]
            label, diags = label_commit(deltas)
            diagnostics.extend(f"{issue_id}: {d}" for d in diags)
            samples.append(LabeledSample(
                issue_id=issue_id,
                commit_hash=commit,
                text=text,
                label=label,
                total_added_smells=sum(d.total_added for d in deltas),
                raw_signed_delta=sum(d.signed_sum for d in deltas),
            ))
            stats.total += 1
            stats.class1 += label
    return LabeledDataset(samples, stats, skipped, diagnostics)
