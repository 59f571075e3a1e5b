"""JSON-lines data files with a header line carrying the run seed, and their readers."""

from __future__ import annotations

import json
from pathlib import Path

# what parsing one JSON record raises for a missing, mistyped or out-of-range field
RECORD_ERRORS = (KeyError, TypeError, ValueError, AttributeError, OverflowError)


class DataFileError(ValueError):
    """Content a data file should not hold; the message names the file."""


def write_jsonl(path: str | Path, records: list[dict], seed: int | None = None,
                kind: str = "") -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        if seed is not None:
            fh.write(json.dumps({"_header": {"kind": kind, "seed": seed}},
                                sort_keys=True) + "\n")
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file, line ends as they are; other bytes raise
    DataFileError naming it."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataFileError(f"{path}: not UTF-8: {exc}") from None


def split_lines(text: str) -> list[str]:
    """`text` split at its line ends, LF, CRLF and CR, only. str.splitlines
    also splits at U+0085, U+2028 and U+2029, which JSON allows raw inside a
    string."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def read_jsonl(path: str | Path) -> tuple[dict | None, list]:
    """Returns (header or None, records); header lines carry a `_header` key.
    A line that is not JSON raises DataFileError naming the file and line."""
    header = None
    records = []
    for lineno, line in enumerate(split_lines(read_text(path)), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise DataFileError(f"{path}:{lineno}: {exc}") from None
        if isinstance(rec, dict) and "_header" in rec:
            header = rec["_header"]
        else:
            records.append(rec)
    return header, records


def whole(rec: dict, key: str) -> int:
    """The record's integer `key`, 0 if absent; int() alone would truncate
    2.9 to 2 and read "2" as 2."""
    value = rec.get(key, 0)
    if value != int(value):
        raise ValueError(f"{key} {value!r} is not an integer")
    return int(value)


def parse_records(records: list, parse, name: str | Path, hint: str = "") -> list:
    """`parse(record)` of each record read from the file `name`. A record it
    cannot read raises DataFileError naming the file and the record, then `hint`."""
    out = []
    for n, rec in enumerate(records, start=1):
        try:
            out.append(parse(rec))
        except RECORD_ERRORS as exc:
            raise DataFileError(
                f"{name} record {n}: missing or malformed field {exc}{hint}") from None
    return out
