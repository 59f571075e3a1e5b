import string

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
