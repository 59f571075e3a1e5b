"""Porter suffix-stripping stemmer (classic 1980 definition, steps 1a-5b).

Operates on single lowercase tokens. Tokens containing digits (or anything
non-alphabetic) pass through unchanged, as do tokens of length <= 2.
"""

from __future__ import annotations

_VOWELS = frozenset("aeiou")


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        # y is a consonant at the start, otherwise the opposite of its predecessor
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of VC sequences in the stem (the m of the algorithm)."""
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        if _is_consonant(stem, i):
            if prev_vowel:
                m += 1
            prev_vowel = False
        else:
            prev_vowel = True
    return m


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(stem: str) -> bool:
    return (
        len(stem) >= 2
        and stem[-1] == stem[-2]
        and _is_consonant(stem, len(stem) - 1)
    )


def _ends_cvc(stem: str) -> bool:
    """The *o condition: consonant-vowel-consonant, final consonant not w, x, y."""
    if len(stem) < 3:
        return False
    return (
        _is_consonant(stem, len(stem) - 3)
        and not _is_consonant(stem, len(stem) - 2)
        and _is_consonant(stem, len(stem) - 1)
        and stem[-1] not in "wxy"
    )


def _step1a(w: str) -> str:
    if w.endswith("sses"):
        return w[:-2]
    if w.endswith("ies"):
        return w[:-2]
    if w.endswith("ss"):
        return w
    if w.endswith("s"):
        return w[:-1]
    return w


def _step1b(w: str) -> str:
    if w.endswith("eed"):
        if _measure(w[:-3]) > 0:
            return w[:-1]
        return w
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


_STEP2 = [
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
]

_STEP3 = [
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
]

_STEP4 = [
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
]


def _apply_rules(w: str, rules, min_measure: int) -> str:
    for suffix, replacement in sorted(rules, key=lambda r: -len(r[0])):
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            if _measure(stem) > min_measure - 1:
                return stem + replacement
            return w
    return w


def _step4(w: str) -> str:
    for suffix in sorted(_STEP4, key=len, reverse=True):
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            if suffix == "ion" and not stem.endswith(("s", "t")):
                continue
            if _measure(stem) > 1:
                return stem
            return w
    return w


def _step5a(w: str) -> str:
    if w.endswith("e"):
        stem = w[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return w


def _step5b(w: str) -> str:
    if _measure(w) > 1 and _ends_double_consonant(w) and w.endswith("l"):
        return w[:-1]
    return w


def stem(token: str) -> str:
    """Stem one lowercase token; non-alphabetic or short tokens are unchanged."""
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
