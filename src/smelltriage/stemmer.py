"""Porter suffix-stripping stemmer (classic 1980 definition, steps 1a-5b).

Operates on single lowercase tokens. Tokens containing digits (or anything
non-alphabetic) pass through unchanged, as do tokens of length <= 2.

Every condition reads the form of its stem: the stem with each letter mapped
to "c" (consonant) or "v" (vowel). A stem's form is built in one pass, so a
token of any length is stemmed in time linear in its length.

`stem` is a pure function of its token, so it remembers the stems of the
STEM_CACHE_SIZE tokens it was last asked for (functools.lru_cache): report
text repeats its words, and a repeated word is stemmed once while it stays in
the cache. The bound keeps the memory at about 1.4 MiB.
"""

from __future__ import annotations

from functools import lru_cache

STEM_CACHE_SIZE = 10_000


class _Letters(dict):
    """str.translate table: a, e, i, o and u are vowels, y is kept to be
    resolved by its predecessor, and every other character is a consonant.
    Every ASCII code is listed, so an ASCII word never reaches __missing__."""

    def __missing__(self, code: int) -> str:
        return "c"


_LETTERS = _Letters(dict.fromkeys(range(128), "c") | str.maketrans("aeiouy", "vvvvvy"))


def _form(stem: str) -> str:
    """The consonant/vowel form of the stem. A y is a consonant at the start,
    otherwise the opposite of its predecessor."""
    form = stem.translate(_LETTERS)
    if "y" not in form:
        return form
    out, prev = [], "v"
    for ch in form:
        if ch == "y":
            ch = "c" if prev == "v" else "v"
        out.append(ch)
        prev = ch
    return "".join(out)


def _measure(stem: str) -> int:
    """Number of VC sequences in the stem (the m of the algorithm)."""
    return _form(stem).count("vc")


def _contains_vowel(stem: str) -> bool:
    return "v" in _form(stem)


def _ends_double_consonant(stem: str) -> bool:
    return len(stem) >= 2 and stem[-1] == stem[-2] and _form(stem)[-1] == "c"


def _ends_cvc(stem: str) -> bool:
    """The *o condition: consonant-vowel-consonant, final consonant not w, x, y."""
    return stem[-1:] not in ("w", "x", "y") and _form(stem).endswith("cvc")


def _step1a(w: str) -> str:
    if w.endswith(("sses", "ies")):
        return w[:-2]
    if w.endswith("s") and not w.endswith("ss"):
        return w[:-1]
    return w


def _step1b(w: str) -> str:
    if w.endswith("eed"):
        return w[:-1] if _measure(w[:-3]) > 0 else w
    stripped = None
    if w.endswith("ed") and _contains_vowel(w[:-2]):
        stripped = w[:-2]
    elif w.endswith("ing") and _contains_vowel(w[:-3]):
        stripped = w[:-3]
    if stripped is None:
        return w
    if stripped.endswith(("at", "bl", "iz")):
        return stripped + "e"
    if _ends_double_consonant(stripped) and stripped[-1] not in "lsz":
        return stripped[:-1]
    if _measure(stripped) == 1 and _ends_cvc(stripped):
        return stripped + "e"
    return stripped


def _step1c(w: str) -> str:
    if w.endswith("y") and _contains_vowel(w[:-1]):
        return w[:-1] + "i"
    return w


def _table(rules):
    """A suffix table sorted longest suffix first, so the first match is the
    longest, with the tuple of its suffixes for one test of a word's ending."""
    rules = sorted(rules, key=lambda r: -len(r[0]))
    return tuple(suffix for suffix, _ in rules), rules


_STEP2 = _table([
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
])

_STEP3 = _table([
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
])

_STEP4 = _table([(suffix, "") for suffix in (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)])


def _apply_rules(w: str, table, min_measure: int) -> str:
    suffixes, rules = table
    if not w.endswith(suffixes):
        return w
    for suffix, replacement in rules:
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            if _measure(stem) >= min_measure:
                return stem + replacement
            return w
    return w


def _step4(w: str) -> str:
    # no shorter suffix in the table ends "ion", so a failed "ion" ends the step
    if w.endswith("ion") and not w.endswith(("sion", "tion")):
        return w
    return _apply_rules(w, _STEP4, 2)


def _step5a(w: str) -> str:
    if w.endswith("e"):
        stem = w[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return w


def _step5b(w: str) -> str:
    if w.endswith("ll") and _measure(w) > 1:
        return w[:-1]
    return w


@lru_cache(maxsize=STEM_CACHE_SIZE)
def stem(token: str) -> str:
    """Stem one lowercase token; non-alphabetic or short tokens are unchanged.
    Cached: `stem.__wrapped__` is the uncached function."""
    if len(token) <= 2 or not token.isalpha():
        return token
    w = _step1a(token)
    w = _step1b(w)
    w = _step1c(w)
    w = _apply_rules(w, _STEP2, 1)
    w = _apply_rules(w, _STEP3, 1)
    w = _step4(w)
    w = _step5a(w)
    w = _step5b(w)
    return w
