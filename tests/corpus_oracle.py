"""Git extraction as it was before the two-process rewrite, kept verbatim as
the reference for the differential tests in test_corpus.py.

It starts one `rev-list`, one `diff --numstat` and two `git show` per changed
source file, and reads everything as locale text; its `--numstat` paths are
C-quoted when they hold non-ASCII characters.
"""

from __future__ import annotations

import shutil
import subprocess
from dataclasses import dataclass
from pathlib import Path

from smelltriage.corpus import ChangedFile, CorpusError


@dataclass
class OracleStore:
    repo_path: Path | None = None
    source_extensions: tuple[str, ...] = (".java",)

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
