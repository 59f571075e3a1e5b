import itertools
import string

from hypothesis import given, settings, strategies as st

import stemmer_oracle as oracle
from smelltriage.stemmer import STEM_CACHE_SIZE, stem

# classic published vectors for the 1980 algorithm, one per rule family
VECTORS = {
    # step 1a
    "caresses": "caress",
    "ponies": "poni",
    "ties": "ti",
    "caress": "caress",
    "cats": "cat",
    # step 1b
    "feed": "feed",
    "agreed": "agre",
    "plastered": "plaster",
    "bled": "bled",
    "motoring": "motor",
    "sing": "sing",
    "conflated": "conflat",
    "troubled": "troubl",
    "sized": "size",
    "hopping": "hop",
    "tanned": "tan",
    "falling": "fall",
    "hissing": "hiss",
    "fizzed": "fizz",
    "failing": "fail",
    "filing": "file",
    # step 1c
    "happy": "happi",
    "sky": "sky",
    # step 2
    "relational": "relat",
    "conditional": "condit",
    "rational": "ration",
    "valenci": "valenc",
    "hesitanci": "hesit",
    "digitizer": "digit",
    "conformabli": "conform",
    "radicalli": "radic",
    "differentli": "differ",
    "vileli": "vile",
    "analogousli": "analog",
    "vietnamization": "vietnam",
    "predication": "predic",
    "operator": "oper",
    "feudalism": "feudal",
    "decisiveness": "decis",
    "hopefulness": "hope",
    "callousness": "callous",
    "formaliti": "formal",
    "sensitiviti": "sensit",
    "sensibiliti": "sensibl",
    # step 3
    "triplicate": "triplic",
    "formative": "form",
    "formalize": "formal",
    "electriciti": "electr",
    "electrical": "electr",
    "hopeful": "hope",
    "goodness": "good",
    # step 4
    "revival": "reviv",
    "allowance": "allow",
    "inference": "infer",
    "airliner": "airlin",
    "gyroscopic": "gyroscop",
    "adjustable": "adjust",
    "defensible": "defens",
    "irritant": "irrit",
    "replacement": "replac",
    "adjustment": "adjust",
    "dependent": "depend",
    "adoption": "adopt",
    "homologou": "homolog",
    "communism": "commun",
    "activate": "activ",
    "angulariti": "angular",
    "homologous": "homolog",
    "effective": "effect",
    "bowdlerize": "bowdler",
    # step 5
    "probate": "probat",
    "rate": "rate",
    "cease": "ceas",
    "controll": "control",
    "roll": "roll",
    # common report words
    "ordering": "order",
    "samples": "sampl",
    "caused": "caus",
    "large": "larg",
    "dfs": "df",
    "hdfs": "hdf",
    "exception": "except",
    "running": "run",
    "connection": "connect",
}


def test_canonical_vectors():
    for word, expected in VECTORS.items():
        assert stem(word) == expected, f"{word} -> {stem(word)} != {expected}"


def test_short_words_unchanged():
    for word in ("a", "is", "be", "ox", "i"):
        assert stem(word) == word


def test_digits_pass_through():
    assert stem("404") == "404"
    assert stem("utf8") == "utf8"


@given(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=20))
def test_stem_never_longer_than_input(word):
    assert len(stem(word)) <= len(word)


@given(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=20))
def test_stem_is_lowercase_ascii(word):
    assert all(c in string.ascii_lowercase for c in stem(word))


# -- the linear stemmer against the recursive one it replaced ---------------------

_SUFFIXES = sorted(
    {s for rules in (oracle._STEP2, oracle._STEP3) for pair in rules for s in pair if s}
    | set(oracle._STEP4)
    | {"s", "ss", "sses", "ies", "eed", "ed", "ing", "y", "e", "ll", "sion", "tion"})
# roots of measure 0 to 3, with a y at the start, after a vowel, after a
# consonant and in runs, and endings that *o and the double-consonant rules read
_ROOTS = ["", "b", "y", "yy", "ay", "by", "oy", "yay", "ayy", "syzyg", "tr", "hop", "tann",
          "fizz", "fil", "rat", "feud", "sens", "gener", "troubl", "conform", "electr",
          "happ", "sky", "wow", "box", "control", "differ", "bowdler", "vietnam"]
# y-heavy, and whole suffixes are single draws so that words end in them often
_PIECES = st.sampled_from(list("aeiouyyyybcdlnrstwxz") + _SUFFIXES)


def _assert_stems_like_the_oracle(word):
    """The cached stem, the function it caches and the old stemmer agree."""
    assert stem(word) == stem.__wrapped__(word) == oracle.stem(word), word


def test_letters_outside_a_to_z_are_consonants_as_before():
    for word in ("cafés", "CAFÉS", "Ünïversities", "naïvety", "ÿyyes"):
        _assert_stems_like_the_oracle(word)


def test_vectors_and_every_root_and_suffix_stem_like_the_oracle():
    for word in VECTORS:
        _assert_stems_like_the_oracle(word)
    for root in _ROOTS:
        for suffix in _SUFFIXES:
            for tail in ("", "s", "ed", "ing", "ly", "y"):
                _assert_stems_like_the_oracle(root + suffix + tail)


@settings(max_examples=2000)
@given(st.lists(_PIECES, max_size=8).map(lambda pieces: "".join(pieces)[-20:]))
def test_stem_matches_the_old_stemmer(word):
    _assert_stems_like_the_oracle(word)


def test_a_long_run_of_y_is_stemmed():
    """The old stemmer recursed once per y in a row, so about 1,000 of them
    raised RecursionError."""
    assert stem("a" + "y" * 100_000) == "a" + "y" * 99_999 + "i"


def test_the_cache_holds_at_most_its_bound_of_words():
    words = ("".join(letters) for letters in itertools.product(string.ascii_lowercase, repeat=4))
    for word in itertools.islice(words, STEM_CACHE_SIZE + 1000):
        stem(word)
    info = stem.cache_info()
    assert info.maxsize == STEM_CACHE_SIZE and info.currsize == STEM_CACHE_SIZE
