"""`Dictionary.load` as it was before the one-pass parse, kept verbatim as the
reference for the differential tests in test_textprep.py.

`load` reads the file in text mode, as `datafiles.read_text` then did, so CRLF
and CR line ends become LF before it splits the lines; it strips and splits
every line.
"""

from __future__ import annotations

from pathlib import Path

from smelltriage import datafiles


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file; other bytes raise DataFileError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise datafiles.DataFileError(f"{path}: not UTF-8: {exc}") from None


def load(path: str | Path) -> dict[str, int]:
    """Read a file written by `save`; a line that is not <word><tab><index>
    raises DataFileError naming the file and the line."""
    text = read_text(path)
    mapping: dict[str, int] = {}
    try:
        for line in text.splitlines():
            if line.strip():
                word, idx = line.rsplit("\t", 1)
                mapping[word] = int(idx)
    except ValueError:  # numbered only now: the first line equal to this one failed
        lineno = text.splitlines().index(line) + 1
        raise datafiles.DataFileError(f"{path}:{lineno}: expected <word><tab><index>") from None
    return mapping
