"""Raw report text -> stemmed tokens -> fixed-length unique-word index sequences:
the one path from a bug report to model input, for training and prediction alike."""

from __future__ import annotations

import hashlib
import itertools
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

    def export_text(self) -> str:
        """One <word><tab><index> line per word, by index. A word that holds a
        line break is refused: read back, it would be two lines."""
        lines = [f"{w}\t{i}" for w, i in sorted(self.word_to_index.items(), key=lambda kv: kv[1])]
        text = "\n".join(lines) + ("\n" if lines else "")
        if "\r" in text or text.count("\n") != len(lines):
            word = next(w for w in self.word_to_index if "\n" in w or "\r" in w)
            raise ValueError(f"dictionary word {word!r} holds a line break")
        return text

    def content_hash(self) -> str:
        """The SHA-256 of export_text(), which `save` writes: a model's
        `dict_hash`, which `load_words` checks a dictionary file against."""
        return hashlib.sha256(self.export_text().encode("utf-8")).hexdigest()

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.export_text(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Dictionary":
        """Read a file of <word><tab><index> lines, as `save` writes it. Lines
        of only whitespace are skipped; any other line without a tab and an
        integer after its last tab raises DataFileError naming the file and
        the line."""
        lines = datafiles.read_text(path).splitlines()
        mapping: dict[str, int] = {}
        for line in lines:
            word, tab, idx = line.rpartition("\t")
            if tab:
                try:
                    mapping[word] = int(idx)
                    continue
                except ValueError:
                    pass
            if line.strip():  # numbered only now: an equal earlier line failed first
                raise datafiles.DataFileError(
                    f"{path}:{lines.index(line) + 1}: expected <word><tab><index>")
        return cls(mapping)


def load_words(path: str | Path, digest: str, text: str, seq_len: int) -> Dictionary | None:
    """The dictionary file at `path`, for `featurize` of `text`: it maps the
    first `seq_len` distinct words of `text` as the file does. None unless the
    SHA-256 of the file's bytes, CRLF and CR read as LF, is `digest`, a
    model's `dict_hash`: the one rule by which a dictionary fits a model.

    Such bytes are the `export_text` of the model's dictionary, so they need no
    parse: one regex finds the lines of a report word, one tab and an index.
    Its words form a trie, so a line costs a few character checks however many
    words there are."""
    data = Path(path).read_bytes()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if hashlib.sha256(data).hexdigest() != digest:
        return None
    keys = sorted(_first_distinct(tokenize(text), seq_len))
    if not keys:
        return Dictionary()
    lines = re.compile(f"\n({_trie(keys)})\t(-?[0-9]+)(?=\n)".encode())
    re.purge()  # a pattern for one report: re's cache would keep 512 of them, about 5 MB
    return Dictionary({m[1].decode(): int(m[2]) for m in lines.finditer(b"\n" + data)})


def _trie(words: list[str], depth: int = 2) -> str:
    """A regex for exactly the sorted, distinct `words`, branching on their
    first `depth` characters: deeper levels cost more to compile than they
    save in the match."""
    if depth == 0 or len(words) == 1:
        return words[0] if len(words) == 1 else f"(?:{'|'.join(words)})"
    end = words[0] == ""  # a word that ends here
    branches = "|".join(ch + _trie([w[1:] for w in group], depth - 1) for ch, group in
                        itertools.groupby(words[1:] if end else words, key=lambda w: w[0]))
    return f"(?:{branches})" + ("?" if end else "")


def build_vocabulary(documents: list[TokenDocument], max_vocab: int | None = None) -> Dictionary:
    """Assign indices from 2 upward by descending corpus frequency, ties lexicographic."""
    counts: Counter[str] = Counter()
    for doc in documents:
        counts.update(doc.tokens)
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    if max_vocab is not None:
        ordered = ordered[: max(0, max_vocab - 2)]
    return Dictionary({word: i + 2 for i, (word, _) in enumerate(ordered)})


def _first_distinct(tokens: list[str], n: int) -> list[str]:
    """The first `n` distinct tokens, in first-occurrence order: the words a
    model input of length `n` holds."""
    return list(itertools.islice(dict.fromkeys(tokens), n))


def doc2indices(doc: TokenDocument, dictionary: Dictionary, length: int) -> list[int]:
    """Unique tokens in first-occurrence order, mapped to indices, truncated to
    `length` and right-padded with zeros."""
    if length < 1:
        raise ValueError("sequence length must be >= 1")
    index = dictionary.word_to_index
    indices = [index.get(t, OOV_INDEX) for t in _first_distinct(doc.tokens, length)]
    return indices + [PAD_INDEX] * (length - len(indices))


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
