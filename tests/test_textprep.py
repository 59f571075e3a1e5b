import hashlib
import string

import numpy as np
import pytest
import textprep_oracle as oracle
from hypothesis import HealthCheck, example, given, settings, strategies as st

from smelltriage import textprep
from smelltriage.datafiles import DataFileError
from smelltriage.textprep import (
    Dictionary, TokenDocument, build_vocabulary, doc2indices,
    preprocess, tokenize, PAD_INDEX, OOV_INDEX,
)


def test_tokenize_lowercases_and_splits_on_non_alnum():
    assert tokenize("NullPointerException in DFS-client, v2!") == \
        ["nullpointerexception", "in", "dfs", "client", "v2"]


def test_tokenize_empty():
    assert tokenize("") == []
    assert tokenize("  ---  ") == []


def test_preprocess_stems():
    assert preprocess("ordering caused samples") == ["order", "caus", "sampl"]


def _docs(*token_lists):
    return [TokenDocument(f"I-{i}", list(t)) for i, t in enumerate(token_lists)]


def test_build_vocabulary_frequency_then_lexicographic():
    d = build_vocabulary(_docs(["b", "a", "b"], ["a", "c", "b"]))
    # a and b tie at 2+? b:3, a:2, c:1 -> b=2, a=3, c=4
    assert d.word_to_index == {"b": 2, "a": 3, "c": 4}


def test_build_vocabulary_tie_breaks_lexicographic():
    d = build_vocabulary(_docs(["z", "a"]))
    assert d.word_to_index == {"a": 2, "z": 3}


def test_build_vocabulary_max_vocab_counts_reserved_indices():
    d = build_vocabulary(_docs(["a", "b", "c", "a", "b", "a"]), max_vocab=4)
    # room for 2 real words beyond padding + OOV
    assert d.word_to_index == {"a": 2, "b": 3}
    assert d.vocab_size == 4


def test_doc2indices_unique_first_occurrence_then_pad():
    d = Dictionary({"alpha": 2, "beta": 3})
    doc = TokenDocument("I-1", ["alpha", "beta", "alpha", "gamma"])
    assert doc2indices(doc, d, 6) == [2, 3, OOV_INDEX, PAD_INDEX, PAD_INDEX, PAD_INDEX]


def test_doc2indices_truncates():
    d = Dictionary({"alpha": 2, "beta": 3})
    doc = TokenDocument("I-1", ["alpha", "beta"])
    assert doc2indices(doc, d, 1) == [2]


def test_doc2indices_rejects_nonpositive_length():
    with pytest.raises(ValueError):
        doc2indices(TokenDocument("I-1", []), Dictionary(), 0)


def test_dictionary_roundtrip(tmp_path):
    d = Dictionary({"alpha": 2, "beta": 3, "gamma": 4})
    p = tmp_path / "dict.tsv"
    d.save(p)
    loaded = Dictionary.load(p)
    assert loaded.word_to_index == d.word_to_index
    assert loaded.content_hash() == d.content_hash()


def test_dictionary_load_names_the_first_bad_line(tmp_path):
    p = tmp_path / "dict.tsv"
    p.write_text("alpha\t2\n\nno tab\nbeta\t3\nno tab\n", encoding="utf-8")
    with pytest.raises(DataFileError, match=f"^{p}:3: expected <word><tab><index>$"):
        Dictionary.load(p)
    p.write_text("alpha\t2\nbeta\tthree\n", encoding="utf-8")
    with pytest.raises(DataFileError, match=f"^{p}:2: "):
        Dictionary.load(p)
    p.write_bytes(b"alpha\t2\n\xff\t3\n")
    with pytest.raises(DataFileError, match=f"^{p}: not UTF-8"):
        Dictionary.load(p)


# every line boundary of str.splitlines
_LINE_ENDS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
              "\u2028", "\u2029"]
# words without a line boundary, as every dictionary `train` writes has;
# few letters, so that words repeat
_dict_words = st.text(alphabet="ab \t\u00e9", max_size=4)
# a word with a line boundary, which a re-export cannot read back as itself
_broken_words = st.tuples(_dict_words, st.sampled_from(_LINE_ENDS), _dict_words).map("".join)
_indices = st.one_of(st.integers(-3, 30).map(str),
                     st.sampled_from([" 5", "+5", "05", "1_0", "5 ", "\u0665", "x", "", "1__0"]))
_lines = st.one_of(
    st.tuples(_dict_words, _indices).map("\t".join),  # <word><tab><index>
    st.text(alphabet=" \t\u00a0\u3000", max_size=3),   # blank or whitespace only
    _indices,                                           # no tab
)


@st.composite
def _dictionary_files(draw):
    """The bytes of a dictionary file, and the words `save` wrote to it or
    None: what `save` writes for some words, at times one with a line break,
    that with CRLF line ends, or lines of any kind between any line ends."""
    kind = draw(st.sampled_from(["saved", "crlf", "lines"]))
    saved = None
    if kind != "lines":
        saved = draw(st.dictionaries(_dict_words, st.integers(-3, 30)))
        if draw(st.booleans()):
            saved.update(draw(st.dictionaries(_broken_words, st.integers(-3, 30), max_size=1)))
        text = Dictionary(saved).export_text()
        text = text.replace("\n", "\r\n") if kind == "crlf" else text
    else:
        lines = draw(st.lists(st.tuples(_lines, st.sampled_from(_LINE_ENDS)), max_size=8))
        text = "".join(line + end for line, end in lines)
        if lines and draw(st.booleans()):  # no line end after the last line
            text = text[: -len(lines[-1][1])]
    data = text.encode("utf-8")
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + data[at:]
    return data, saved


def _outcome(load, path):
    try:
        mapping = load(path)
    except DataFileError as exc:
        return "error", str(exc)
    return "loaded", list(mapping.items())


@pytest.mark.parametrize("data", [
    b"a\t2\nbad\nb\t3\nbad\n",                 # the same bad line twice: the first is named
    b"a\t2\nb\tx\nb\tx\n",
    b"\t5\n5\n",                                  # no tab after a line of the word ""
    b"\t5\n\t\n",
    " \t \na\t2\n\t\n  \n\t \t\n\u3000\n".encode(),   # whitespace only, with and without tabs
    b"a\t+2\nb\t 2\nc\t2 \n",                    # indices int() reads with a sign or spaces
    b"\n\na\t2\n\n\nb\t3",                         # blank lines, no LF after the last
    b"a\t2\r\nb\t3\r\n\r\n",                         # CRLF
    b"a\t2\rb\t3\r\rbad\r",                           # CR
    b"",
])
def test_dictionary_load_reads_each_line_as_the_old_parse(data, tmp_path):
    path = tmp_path / "dictionary.tsv"
    path.write_bytes(data)
    assert _outcome(lambda p: Dictionary.load(p).word_to_index, path) == \
        _outcome(oracle.load, path)


_report_words = st.lists(st.text(alphabet="ab1", min_size=1, max_size=2), max_size=12)


@settings(max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture])
# the bytes `save` wrote hash to the saved words' content hash, but "\r" breaks a line
@example(file=(b"\t0\n\r\t0\n1\t0\n", {"": 0, "\r": 0, "1": 0}), other={}, report=["1"],
         seq_len=8)
@given(file=_dictionary_files(), other=st.dictionaries(_dict_words, st.integers(-3, 30)),
       report=_report_words, seq_len=st.integers(1, 8))
def test_dictionary_load_and_predict_check_match_the_old_ones(file, other, report, seq_len,
                                                              tmp_path):
    """The one-pass parse reads the words, in the same order, that the old
    line-by-line parse read, or fails with the same message; and `load_words`
    accepts a model's dictionary hash exactly when the old `content_hash` of
    the file's words equals it, then gives the report the row those words
    give it. The model hashes are those of the file's
    words, of the words saved to it and of other words."""
    data, saved = file
    path = tmp_path / f"{hashlib.sha256(data).hexdigest()}.tsv"
    if not path.exists():  # a new file: truncating one is slow on some file systems
        path.write_bytes(data)
    outcome = _outcome(oracle.load, path)
    assert _outcome(lambda p: Dictionary.load(p).word_to_index, path) == outcome
    # a model's hash is the content hash of the dictionary it was trained with
    digests = [oracle.content_hash(other)] + ([] if saved is None else [oracle.content_hash(saved)])
    text = " ".join(report)
    if outcome[0] == "error":
        for digest in digests:
            assert _outcome(lambda p: textprep.load_words(p, digest, text, seq_len).word_to_index,
                            path) == outcome
        return
    words = dict(outcome[1])
    assert Dictionary.load(path).content_hash() == oracle.content_hash(words)
    for digest in digests + [oracle.content_hash(words)]:
        got = textprep.load_words(path, digest, text, seq_len)
        assert (got is not None) == (oracle.content_hash(words) == digest)
        if got is not None:
            assert textprep.featurize([text], seq_len, got)[0].tolist() == \
                textprep.featurize([text], seq_len, Dictionary(words))[0].tolist()


def test_saved_dictionary_matches_by_the_hash_of_its_bytes(tmp_path, monkeypatch):
    """A dictionary `save` wrote is neither parsed in full nor re-exported, and
    gives only the entries of the report's first distinct words."""
    d = Dictionary({"crash": 2, "parser": 3, "in": 4, "x": 5})
    d.save(tmp_path / "dictionary.tsv")
    monkeypatch.setattr(Dictionary, "content_hash", lambda self: pytest.fail("re-exported"))
    monkeypatch.setattr(Dictionary, "load", lambda path: pytest.fail("parsed"))
    got = textprep.load_words(tmp_path / "dictionary.tsv", hashlib.sha256(
        d.export_text().encode()).hexdigest(), "crash unseen crash in parser x", 4)
    assert got.word_to_index == {"crash": 2, "in": 4, "parser": 3}


def test_dictionary_hash_changes_with_content():
    assert Dictionary({"a": 2}).content_hash() != Dictionary({"b": 2}).content_hash()


def test_vocab_size_with_empty_dictionary():
    assert Dictionary().vocab_size == OOV_INDEX + 1


words = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)


@given(st.lists(words, max_size=50), st.integers(min_value=1, max_value=30))
def test_doc2indices_always_length_l(tokens, length):
    d = build_vocabulary([TokenDocument("I-0", tokens)])
    seq = doc2indices(TokenDocument("I-0", tokens), d, length)
    assert len(seq) == length
    assert all(0 <= i < d.vocab_size for i in seq)


@given(st.lists(words, min_size=1, max_size=50))
def test_doc2indices_no_duplicate_known_words(tokens):
    d = build_vocabulary([TokenDocument("I-0", tokens)])
    seq = doc2indices(TokenDocument("I-0", tokens), d, 100)
    real = [i for i in seq if i > OOV_INDEX]
    assert len(real) == len(set(real))


@given(st.lists(st.lists(words, max_size=20), max_size=10))
def test_vocabulary_indices_are_contiguous_from_two(token_lists):
    d = build_vocabulary(_docs(*token_lists))
    indices = sorted(d.word_to_index.values())
    assert indices == list(range(2, 2 + len(indices)))


def test_report_text_joins_the_stems_of_both_fields():
    assert textprep.report_text("Ordering caused", "large samples") == "order caus larg sampl"
    assert textprep.report_text("", "DFS-client") == "df client"
    assert textprep.report_text("", " -- ") == ""


def test_featurize_builds_the_vocabulary_or_uses_the_given_one():
    X, d = textprep.featurize(["b a b", "a c b"], 4)
    assert d.word_to_index == {"b": 2, "a": 3, "c": 4}
    assert X.dtype == np.int64 and X.tolist() == [[2, 3, 0, 0], [3, 4, 2, 0]]
    X, same = textprep.featurize(["c z"], 3, d)
    assert same is d and X.tolist() == [[4, OOV_INDEX, 0]]
    assert textprep.featurize(["b a b", "a c b"], 4, max_vocab=3)[1].word_to_index == {"b": 2}
    assert textprep.featurize([], 5, d)[0].shape == (0, 5)


_report_field = st.one_of(st.text(max_size=60),
                          st.text(alphabet=string.ascii_letters + string.digits + " -_.,'",
                                   max_size=60))


@given(_report_field, _report_field, st.lists(words, max_size=10),
       st.integers(min_value=2, max_value=30), st.integers(min_value=1, max_value=40))
def test_featurize_of_report_text_is_the_old_predict_path(summary, description, extra,
                                                          max_vocab, length):
    """One report through report_text and featurize gives the row that
    preprocessing each field and indexing the joined stems gives."""
    dictionary = build_vocabulary([TokenDocument("", preprocess(summary) + extra)], max_vocab)
    X, _ = textprep.featurize([textprep.report_text(summary, description)], length, dictionary)
    old = doc2indices(TokenDocument("", preprocess(summary) + preprocess(description)),
                      dictionary, length)
    assert X[0].tolist() == old
