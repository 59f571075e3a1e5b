"""Raw report text -> stemmed tokens -> fixed-length unique-word index sequences:
the one path from a bug report to model input, for training and prediction alike."""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import datafiles
from .stemmer import stem

PAD_INDEX = 0
OOV_INDEX = 1

_TOKEN_SPLIT = re.compile(r"[^a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on any non-alphanumeric character."""
    return [t for t in _TOKEN_SPLIT.split(text.lower()) if t]


def preprocess(text: str) -> list[str]:
    """Tokenize and stem raw text into the token stream fed to the dictionary."""
    return [stem(t) for t in tokenize(text)]


def report_text(summary: str, description: str) -> str:
    """The stems of a report's summary and description, joined by single spaces."""
    return " ".join(preprocess(summary) + preprocess(description))


@dataclass
class TokenDocument:
    issue_id: str
    tokens: list[str]


@dataclass
class Dictionary:
    """word -> index map; index 0 is padding, index 1 is out-of-vocabulary."""

    word_to_index: dict[str, int] = field(default_factory=dict)

    @property
    def vocab_size(self) -> int:
        return max(self.word_to_index.values(), default=OOV_INDEX) + 1

    def index_of(self, word: str) -> int:
        return self.word_to_index.get(word, OOV_INDEX)

    def export_text(self) -> str:
        lines = [f"{w}\t{i}" for w, i in sorted(self.word_to_index.items(), key=lambda kv: kv[1])]
        return "\n".join(lines) + ("\n" if lines else "")

    def content_hash(self) -> str:
        return hashlib.sha256(self.export_text().encode("utf-8")).hexdigest()

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.export_text(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Dictionary":
        """Read a file written by `save`; a line that is not <word><tab><index>
        raises DataFileError naming the file and the line."""
        text = datafiles.read_text(path)
        mapping: dict[str, int] = {}
        try:
            for line in text.splitlines():
                if line.strip():
                    word, idx = line.rsplit("\t", 1)
                    mapping[word] = int(idx)
        except ValueError:  # numbered only now: the first line equal to this one failed
            lineno = text.splitlines().index(line) + 1
            raise datafiles.DataFileError(f"{path}:{lineno}: expected <word><tab><index>") from None
        return cls(mapping)


def build_vocabulary(documents: list[TokenDocument], max_vocab: int | None = None) -> Dictionary:
    """Assign indices from 2 upward by descending corpus frequency, ties lexicographic."""
    counts: Counter[str] = Counter()
    for doc in documents:
        counts.update(doc.tokens)
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    if max_vocab is not None:
        ordered = ordered[: max(0, max_vocab - 2)]
    return Dictionary({word: i + 2 for i, (word, _) in enumerate(ordered)})


def doc2indices(doc: TokenDocument, dictionary: Dictionary, length: int) -> list[int]:
    """Unique tokens in first-occurrence order, mapped to indices, truncated to
    `length` and right-padded with zeros."""
    if length < 1:
        raise ValueError("sequence length must be >= 1")
    seen: set[str] = set()
    indices: list[int] = []
    for token in doc.tokens:
        if token in seen:
            continue
        seen.add(token)
        indices.append(dictionary.index_of(token))
    indices = indices[:length]
    indices.extend([PAD_INDEX] * (length - len(indices)))
    return indices


def featurize(texts: list[str], seq_len: int, dictionary: Dictionary | None = None,
              max_vocab: int | None = None) -> tuple[np.ndarray, Dictionary]:
    """An int64 (len(texts), seq_len) array of index rows, one per text, and
    the dictionary that mapped them: `dictionary`, or else the vocabulary built
    from `texts` with at most `max_vocab` indices."""
    docs = [TokenDocument("", tokenize(t)) for t in texts]
    if dictionary is None:
        dictionary = build_vocabulary(docs, max_vocab)
    X = np.array([doc2indices(d, dictionary, seq_len) for d in docs], dtype=np.int64)
    return X.reshape(len(docs), seq_len), dictionary
