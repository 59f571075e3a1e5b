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
    # the SHA-256 of the bytes `load` read: content_hash() for a file `save` wrote
    file_hash: str | None = field(default=None, compare=False, repr=False)

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

    def matches(self, digest: str) -> bool:
        """Whether content_hash() is `digest`. A file `save` wrote holds exactly
        the bytes content_hash() hashes, so the hash of the bytes `load` read
        settles it without the re-export."""
        return self.file_hash == digest or self.content_hash() == digest

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.export_text(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Dictionary":
        """Read a file of <word><tab><index> lines, as `save` writes it. Blank
        lines are skipped; any other line without a tab and an integer after
        its last tab raises DataFileError naming the file and the line."""
        data = Path(path).read_bytes()
        lines = datafiles.decode(data, path).splitlines()
        mapping: dict[str, int] | None = {}
        try:  # one pass for a file `save` wrote, with no check per line
            for line in lines:
                word, _, idx = line.rpartition("\t")
                mapping[word] = int(idx)
        except ValueError:  # a blank or bad line
            mapping = None
        if mapping is None or "" in mapping:  # "" is also the word of a line without a tab
            mapping = _parse_lines(lines, path)
        return cls(mapping, hashlib.sha256(data).hexdigest())


def _parse_lines(lines: list[str], path: str | Path) -> dict[str, int]:
    """`Dictionary.load`'s checked pass, line by line."""
    mapping: dict[str, int] = {}
    for lineno, line in enumerate(lines, start=1):
        if line.strip():
            try:
                word, idx = line.rsplit("\t", 1)
                mapping[word] = int(idx)
            except ValueError:
                raise datafiles.DataFileError(
                    f"{path}:{lineno}: expected <word><tab><index>") from None
    return mapping


# the bytes of a saved dictionary's line other than its tab and line end, for
# the words of `tokenize` and their indices
_WORD_BYTES = b"abcdefghijklmnopqrstuvwxyz0123456789-"
_WORD = re.compile(r"[a-z0-9-]+")


def load_words(path: str | Path, digest: str, words: list[str]) -> Dictionary | None:
    """The entries of `words` in the dictionary file at `path`, read in one
    pass over its bytes, when they hash to `digest` and every line is one
    <word><tab><index> of the bytes [a-z0-9-]; else None.

    `digest` is a model's `dict_hash`, the `content_hash` of the dictionary
    `train` used, so matching bytes are that dictionary's `export_text`. With
    no other tab or line break in them, `load` reads each line as one entry,
    and a word's entry is the line that starts with the word and a tab. One
    regex over the bytes finds those lines: its words form a trie, so a line
    costs a few character checks however many words there are."""
    data = Path(path).read_bytes()
    if hashlib.sha256(data).hexdigest() != digest:
        return None
    separators = data.translate(None, _WORD_BYTES)
    if separators != b"\t\n" * (len(separators) // 2):
        return None
    keys = sorted({w for w in words if _WORD.fullmatch(w)})
    if not keys:
        return Dictionary()
    lines = re.compile(f"\n({_trie(keys)})\t([^\n]*)".encode())
    re.purge()  # a pattern for one report: re's cache would keep 512 of them, about 5 MB
    # a word on two lines takes the last one, as in `load`
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
