"""Structural scanner for Java-like source plus the 16 smell-rule predicates.

The scanner is a lexer, not a grammar: a pre-pass blanks what is not code
(comments, the interiors of string, char and text-block literals, and the
argument lists of annotations), one pass pairs the brackets and finds class
declarations, and every later step reads offsets into that text. Statement
nesting has no depth limit. Every rule only needs counts, so this is enough.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field

from . import datafiles
from .config import RuleThresholds


class SmellRule(enum.IntEnum):
    """The 16 per-file smell flags, in canonical storage order."""

    AbstractClassWithoutAnyMethod = 0
    CouplingBetweenObjects = 1
    CyclomaticComplexity = 2
    DataClass = 3
    ExcessiveClassLength = 4
    ExcessiveImports = 5
    ExcessiveMethodLength = 6
    ExcessiveParameterList = 7
    ExcessivePublicCount = 8
    GodClass = 9
    LoosePackageCoupling = 10
    NcssCount = 11
    NPathComplexity = 12
    SwitchDensity = 13
    TooManyFields = 14
    TooManyMethods = 15


RULE_NAMES = [r.name for r in SmellRule]


@dataclass
class MethodMetrics:
    name: str
    param_count: int = 0
    line_count: int = 0
    ncss: int = 0
    decision_points: int = 0
    npath: int = 1
    switch_label_count: int = 0
    statement_count: int = 0
    is_public: bool = False
    is_accessor: bool = False

    @property
    def cyclomatic(self) -> int:
        return self.decision_points + 1


@dataclass
class ClassMetrics:
    name: str
    is_abstract: bool = False
    method_count: int = 0
    field_count: int = 0
    public_member_count: int = 0
    line_count: int = 0
    ncss: int = 0
    unique_coupled_types: int = 0
    methods: list[MethodMetrics] = field(default_factory=list)

    @property
    def accessor_ratio(self) -> float:
        if self.method_count == 0:
            return 0.0
        return sum(1 for m in self.methods if m.is_accessor) / self.method_count


@dataclass
class FileMetrics:
    import_count: int = 0
    imported_packages: set[str] = field(default_factory=set)
    classes: list[ClassMetrics] = field(default_factory=list)


@dataclass
class SmellVector:
    flags: tuple[bool, ...] = (False,) * 16
    raw_cyclomatic_max: int = 0
    raw_npath_max: int = 0

    def __post_init__(self):
        if len(self.flags) != 16:
            raise ValueError("smell vector needs exactly 16 flags")

    def __getitem__(self, rule: SmellRule) -> bool:
        return self.flags[rule]

    def to_record(self) -> dict:
        rec = {name: int(f) for name, f in zip(RULE_NAMES, self.flags)}
        rec["raw_cyclomatic_max"] = self.raw_cyclomatic_max
        rec["raw_npath_max"] = self.raw_npath_max
        return rec

    @classmethod
    def from_record(cls, rec: dict) -> "SmellVector":
        flags = [rec.get(name, 0) for name in RULE_NAMES]
        for name, flag in zip(RULE_NAMES, flags):
            if flag not in (0, 1):  # bool(int()) would read "1", 2 and 1.9 as set
                raise ValueError(f"{name} {flag!r} is not 0 or 1")
        return cls(
            flags=tuple(flag == 1 for flag in flags),
            raw_cyclomatic_max=datafiles.whole(rec, "raw_cyclomatic_max"),
            raw_npath_max=datafiles.whole(rec, "raw_npath_max"),
        )


# ---------------------------------------------------------------------------
# Comment / string stripping
# ---------------------------------------------------------------------------

# a comment, a text block (interior: group 2), or a string or char literal
# (interior: group 4). Without its closing delimiter a literal runs to the end
# of the text, and a string or char literal only to the end of its line. A
# backslash escapes one character
_LITERAL_RE = re.compile(
    r'''//[^\n]*|/\*.*?(?:\*/|\Z)|(""")((?:\\.?|(?!""")[^\\])*)(?:""")?'''
    r"""|(["'])((?:\\.?|(?!\3)[^\\\n])*)\3?""", re.DOTALL)
# an annotation's name and the `(` that opens its argument list
_ANNOTATION_RE = re.compile(r"@\s*[\w$.]+\s*\(")
_ANNOTATION_OR_PAREN_RE = re.compile(_ANNOTATION_RE.pattern + r"|[()]")


def _blank(text: str) -> str:
    """text with every character but its line breaks replaced by a space."""
    return "\n".join(" " * len(line) for line in text.split("\n"))


def _blank_group(m: re.Match, i: int) -> str:
    """The text of match m with its group i blanked."""
    (start, end), (a, b) = m.span(), m.span(i)
    return m.string[start:a] + _blank(m.string[a:b]) + m.string[b:end]


def strip_comments_and_strings(source: str) -> str:
    """Blank what is not code with spaces: comments, the interiors of text
    block, string and char literals, and the argument lists of annotations.

    Length, line breaks and column positions are all preserved; literal
    delimiters and annotation names are kept.
    """
    text = _LITERAL_RE.sub(
        lambda m: _blank_group(m, 2 if m.group(1) else 4 if m.group(3) else 0), source)
    return _blank_annotation_arguments(text)


def _blank_annotation_arguments(text: str) -> str:
    """text with the argument list of each annotation blanked, its parentheses
    included, however deep they nest. A list that the text ends inside is kept,
    but not the closed lists inside it."""
    spans, opens, pos = [], [], 0  # the outermost closed lists; the open `(`s
    while m := (_ANNOTATION_OR_PAREN_RE if opens else _ANNOTATION_RE).search(text, pos):
        pos = m.end()
        if m.group() != ")":
            opens.append(m)
        elif (o := opens.pop()).group() != "(":  # an argument list closes
            start = o.end() - 1
            while spans and spans[-1][0] > start:  # the lists inside it
                spans.pop()
            spans.append((start, m.end()))
    parts, done = [], 0
    for start, end in spans:
        parts += [text[done:start], _blank(text[start:end])]
        done = end
    return "".join(parts) + text[done:]


# ---------------------------------------------------------------------------
# Structure: one lexer pass, then NPath and metrics by offsets into its text
# ---------------------------------------------------------------------------

# `[^\S\n]*` rather than `\s*` after `^`: the same matches, but a run of blank
# lines is not rescanned from each of its line starts
_IMPORT_RE = re.compile(r"^[^\S\n]*import\s+(?:static\s+)?([\w.]+(?:\.\*)?)\s*;",
                        re.MULTILINE)
# a class keyword after '.' (`Foo.class`) is a literal (group 1), not a
# declaration (group 2). `c(?<![\w$]c)lass` is `\bclass` for names that may hold
# `$`, written to start with a literal character, so the engine can skip ahead.
# `record` declares a class (group 3) only where '(' or '<' follows the name, so
# `return record instanceof R` and a method named `record` stay code
_LEX_RE = re.compile(r"[(){};:]|(\.\s*(?:class|interface|enum)\s+[\w$]+)"
                     r"|(?:c(?<![\w$]c)lass|i(?<![\w$]i)nterface|e(?<![\w$]e)num)\s+([\w$]+)"
                     r"|r(?<![\w$]r)ecord\s+([\w$]+)(?=\s*[(<])")
_CONTROL_KEYWORDS = frozenset(
    "if else for while do switch case default try catch finally return "
    "throw new synchronized".split()
)


def _lex(text: str) -> tuple[dict[int, int], list[list]]:
    """The bracket table of cleaned source, mapping each matched '{' and '(' to
    its partner (braces and parentheses pair independently), and its class
    declarations as [name, header start, brace, declarations directly inside]:
    a header starts after the last ';', ':', '{' or '}' before its keyword (a
    case label is not in it), and its brace is the first '{' after the name."""
    pairs, braces, parens, decls, waiting, open_classes = {}, [], [], [], [], []
    boundary = 0
    for m in _LEX_RE.finditer(text):
        c, pos = m.group(), m.start()
        if m.lastindex:
            if m.group(1) is None:
                waiting.append([m.group(2) or m.group(3), boundary, -1, []])
        elif c == "(":
            parens.append(pos)
        elif c == ")":
            if parens:
                pairs[parens.pop()] = pos
        else:
            boundary = pos + 1
            if c == "{":
                braces.append(pos)
                for d in waiting:
                    d[2] = pos
                    if open_classes:
                        open_classes[-1][3].append(d)
                decls += waiting
                open_classes += waiting
                waiting = []
            elif c == "}" and braces:
                pairs[braces[-1]] = pos
                while open_classes and open_classes[-1][2] == braces[-1]:
                    open_classes.pop()
                braces.pop()
    return pairs, decls


def _close(pairs: dict[int, int], pos: int, end: int) -> int:
    """The partner of the bracket at pos, or end when it has none before end."""
    return min(pairs.get(pos, end), end)


_NPATH_KEYWORD_RE = re.compile(r"\b(if|for|while|do|switch)\b")
# a label ends at its ':' or, in the arrow form, at its '->'
_CASE_LABEL_RE = re.compile(r"\b(case\b[^:{};]*?|default\s*)(?::|->)")
_SWITCH_BODY_RE = re.compile(r"\{|" + _CASE_LABEL_RE.pattern)
_BLANKS_RE = re.compile(r"\s*")
_ELSE_RE = re.compile(r"\s*else\b")
_SEQ, _IF, _LOOP, _DO, _SWITCH = range(5)  # npath_of_block frame kinds


def _after_parens(text: str, pairs: dict[int, int], pos: int, end: int) -> int:
    """Past the (...) group that starts at the next '(' before end."""
    i = text.find("(", pos, end)
    return pos if i < 0 else min(_close(pairs, i, end) + 1, end)


def _case_groups(text: str, pairs: dict[int, int], start: int, end: int):
    """The case groups of the switch body text[start:end] as [start, end] spans,
    last first, whether a `default` label is among them, and the number of
    labels. Labels in nested blocks are not the switch's own. Labels with only
    blanks between them share a group, which runs from the end of its first
    label to the next group."""
    groups, has_default, labels = [], False, 0
    pos = prev = start
    while m := _SWITCH_BODY_RE.search(text, pos, end):
        if m.lastindex is None:  # '{': the labels inside are not the switch's
            pos = _close(pairs, m.start(), end) + 1
            if pos > end:
                break
            continue
        has_default = has_default or m.group(1).startswith("default")
        labels += 1
        if not groups or _BLANKS_RE.match(text, prev, m.start()).end() < m.start():
            if groups:
                groups[-1][1] = m.start()
            groups.append([m.end(), end])
        pos = prev = m.end()
    return groups[::-1], has_default, labels


def npath_of_block(text: str, start: int = 0, end: int | None = None,
                   pairs: dict[int, int] | None = None) -> int:
    """Acyclic path count of the statement sequence text[start:end] (Nejmeh
    1988): sequential composition multiplies, an `if` adds its branches with a
    missing `else` counting 1, a loop adds 1 to its body, and a `switch` sums
    its case groups plus 1 when it has no `default`. Straight-line code is 1.

    `pairs` is the bracket table of `text`, built here when not given. Open
    constructs are frames on an explicit stack, so nesting depth is not bounded
    by Python's recursion limit. Every search in a frame stops at its end:
      [_SEQ, end, product, end of its current keyword, position after it]
      [_IF | _LOOP | _DO, end, paths of the `then` branch once an `else` follows]
      [_SWITCH, end, sum of its case groups, groups left, position after it]
    """
    end = len(text) if end is None else end
    pairs = _lex(text)[0] if pairs is None else pairs
    stack: list[list] = [[_SEQ, end, 1, start, end]]
    pos, value = start, None
    no_else = -1  # nested ifs that end together look for `else` there once
    while stack:
        frame = stack[-1]
        kind, e = frame[0], frame[1]
        if value is not None:  # the current part of the top frame ended at pos
            if kind == _SEQ:
                frame[2] *= value
                pos, value = max(pos, frame[3]), None
            elif kind == _SWITCH:
                frame[2] += value
                if frame[3]:
                    gs, ge = frame[3].pop()
                    stack.append([_SEQ, ge, 1, gs, ge])
                    pos, value = gs, None
                else:
                    stack.pop()
                    pos, value = frame[4], frame[2]
            elif kind == _IF and frame[2] is None and pos != no_else and (
                    m := _ELSE_RE.match(text, pos, e)):
                frame[2], pos, value = value, m.end(), None
            else:  # the construct is complete
                no_else = pos if kind == _IF and frame[2] is None else no_else
                stack.pop()
                value += 1 if frame[2] is None else frame[2]
                if kind == _DO:  # past the trailing `while (...);`
                    semi = text.find(";", _after_parens(text, pairs, pos, e), e)
                    pos = semi + 1 if semi >= 0 else e
            continue
        if kind == _SEQ:  # the next construct of the sequence
            m = _NPATH_KEYWORD_RE.search(text, pos, e)
            if m is None:
                stack.pop()
                pos, value = frame[4], frame[2]
                continue
            frame[3] = m.end()
        else:  # a branch of a construct: a block, a construct or one statement
            pos = _BLANKS_RE.match(text, pos, e).end()
            m = _NPATH_KEYWORD_RE.match(text, pos, e)
            if pos < e and text[pos] == "{":
                close = _close(pairs, pos, e)
                stack.append([_SEQ, close, 1, pos, close + 1])
                pos += 1
                continue
            if m is None:
                semi = text.find(";", pos, e)
                pos, value = (semi + 1 if semi >= 0 else e), 1
                continue
        kw, pos = m.group(1), m.end()
        if kw != "do":
            pos = _after_parens(text, pairs, pos, e)
        if kw != "switch":
            stack.append([{"if": _IF, "do": _DO}.get(kw, _LOOP), e, None])
            continue
        pos = _BLANKS_RE.match(text, pos, e).end()
        if pos >= e or text[pos] != "{":
            value = 1
            continue
        close = _close(pairs, pos, e)
        groups, has_default, _ = _case_groups(text, pairs, pos + 1, close)
        stack.append([_SWITCH, e, 0 if has_default else 1, groups, close + 1])
        value = 0  # starts the first group
    return value


# ---------------------------------------------------------------------------
# Metrics scanning
# ---------------------------------------------------------------------------

_MEMBER_END_RE = re.compile(r"[;{(]")
_DECISION_KEYWORD_RE = re.compile(r"\b(?:if|while|for|case|catch)\b")
# a '?' of a conditional expression, not a generic wildcard such as `<?>`,
# `<?, T>` or `<? super T>`
_CONDITIONAL_RE = re.compile(r"\?(?!\s*(?:[>,]|(?:extends|super)\s+[\w$]))")
_NCSS_HEADER_RE = re.compile(r"\b(?:if|else|for|while|do|switch|try|catch|finally)\b")
_GETTER_RE = re.compile(r"\s*return\s+(?:this\s*\.\s*)?[\w$]+\s*;\s*")
_SETTER_RE = re.compile(r"\s*(?:this\s*\.\s*)?[\w$]+\s*=\s*[\w$]+\s*;\s*")
_TYPE_TOKEN_RE = re.compile(r"(?<![\w$])[A-Z][\w$]*")
_SWITCH_RE = re.compile(r"\bswitch\b")
_PUBLIC_RE = re.compile(r"\bpublic\b")
_ENUM_RE = re.compile(r"\benum\b")


def _package_of(import_path: str) -> str:
    parts = import_path.split(".")
    return ".".join(parts[:-1]) if len(parts) > 1 else import_path


# a type name and the '<' that opens its arguments, or one bracket or comma
_SPLIT_RE = re.compile(r"(?<![\w$])[A-Z][\w$]*\s*<|[()\[\]>,]")


def _split_top_level(text: str) -> list[str]:
    """The non-blank parts of text between commas outside (), [] and the <>
    of type arguments. A '<' opens type arguments only right after a name that
    starts with an upper-case letter, and a '>' closes them only while some are
    open, so `a < b, c`, `a > b, c` and `x -> x, y` split at their commas. A
    comparison with such a name, as in `A < b, c`, is still read as type
    arguments, and its comma is not split."""
    parts, depth, angles, start = [], 0, 0, 0
    for m in _SPLIT_RE.finditer(text):
        c = m.group()
        if len(c) > 1:
            angles += 1
        elif c == ">":
            angles -= angles > 0
        elif c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
        elif c == "," and depth == 0 and angles == 0:
            parts.append(text[start:m.start()])
            start = m.end()
    parts.append(text[start:])
    return [p.strip() for p in parts if p.strip()]


def _method_name(header: str) -> str | None:
    """Identifier immediately before the first '(' of a member header, or None
    when the header cannot be a method/constructor signature. A '=' before the
    '(' makes a field initializer, e.g. an anonymous class assignment."""
    paren = header.find("(")
    m = re.search(r"([\w$]+)\s*$", header[:paren]) if paren >= 0 else None
    if m is None or "=" in header[:paren] or m.group(1) in _CONTROL_KEYWORDS:
        return None
    return m.group(1)


def _switch_label_count(text: str, pairs: dict[int, int], start: int, end: int) -> int:
    """The case labels of the switches in text[start:end], each counted for
    the switch it belongs to, as NPath reads them: a switch in a case of
    another adds its labels, not the outer switch."""
    count = 0
    for sm in _SWITCH_RE.finditer(text, start, end):
        brace = text.find("{", sm.end(), end)  # the first '{' after the keyword
        if brace < 0:
            break
        count += _case_groups(text, pairs, brace + 1, _close(pairs, brace, end))[2]
    return count


def _scan_method(header: str, text: str, pairs: dict[int, int],
                 start: int, end: int) -> MethodMetrics:
    """Counts for the method with stripped `header` and body text[start:end]
    (empty for an abstract declaration)."""
    paren, close = header.find("("), header.rfind(")")
    statements = text.count(";", start, end)
    return MethodMetrics(
        name=_method_name(header) or "<anonymous>",
        param_count=len(_split_top_level(header[paren + 1: close] if close > paren else "")),
        line_count=header.count("\n") + text.count("\n", start, end) + 1,
        ncss=1 + statements + len(_NCSS_HEADER_RE.findall(text, start, end)),
        decision_points=len(_DECISION_KEYWORD_RE.findall(text, start, end))
        + text.count("&&", start, end) + text.count("||", start, end)
        + len(_CONDITIONAL_RE.findall(text, start, end)),
        npath=npath_of_block(text, start, end, pairs),
        switch_label_count=_switch_label_count(text, pairs, start, end),
        statement_count=statements,
        is_public=bool(_PUBLIC_RE.search(header, 0, paren)),
        is_accessor=bool(_GETTER_RE.fullmatch(text, start, end)
                         or _SETTER_RE.fullmatch(text, start, end)),
    )


def _enum_constants_end(text: str, pairs: dict[int, int], start: int, end: int) -> int:
    """Past the constant list that opens the enum body text[start:end]: its
    first ';' outside brackets, or end when there is none. Constants may have
    arguments and bodies, which hold ';' and '{' of their own."""
    pos = start
    while (m := _MEMBER_END_RE.search(text, pos, end)) is not None:
        if m.group() == ";":
            return m.end()
        pos = _close(pairs, m.start(), end) + 1
    return end


def _scan_class(text: str, pairs: dict[int, int], name: str, header: str,
                start: int, end: int) -> ClassMetrics:
    """Counts for the class with body text[start:end], which holds none of the
    classes declared in it. An enum's constants are neither fields nor methods,
    and a record's components, which sit in its header, are neither fields nor
    parameters."""
    types = set(_TYPE_TOKEN_RE.findall(text, start, end))
    cm = ClassMetrics(name=name, is_abstract=bool(re.search(r"\babstract\b", header)),
                      line_count=header.strip().count("\n") + text.count("\n", start, end) + 1,
                      unique_coupled_types=len(types - {name}))
    fields = 0
    pos = seg = _enum_constants_end(text, pairs, start, end) if _ENUM_RE.search(header) else start
    while m := _MEMBER_END_RE.search(text, pos, end):
        p = m.start()
        if text[p] == "(":  # initializers may hold ';' and '{'
            pos = min(pairs.get(p, p) + 1, end)
            continue
        segment = text[seg:p].strip()
        if text[p] == ";":
            if segment and _method_name(segment) is not None and ")" in segment:
                cm.methods.append(_scan_method(segment, text, pairs, p, p))  # abstract
            elif segment:
                count = max(len(_split_top_level(segment)), 1)
                if not (re.search(r"\bstatic\b", segment) and re.search(r"\bfinal\b", segment)):
                    fields += count
                if _PUBLIC_RE.search(segment):
                    cm.public_member_count += count
            pos = seg = p + 1
            continue
        close = _close(pairs, p, end)
        if close == end:
            break  # unbalanced braces: the rest of the class is not scanned
        if _method_name(segment) is not None:
            cm.methods.append(_scan_method(segment, text, pairs, p + 1, close))
            cm.public_member_count += cm.methods[-1].is_public
        elif "=" in segment:  # field initialized with an anonymous class body
            fields += 1
            cm.public_member_count += bool(_PUBLIC_RE.search(segment))
        pos = seg = close + 1
    cm.method_count = len(cm.methods)
    cm.field_count = fields
    cm.ncss = 1 + fields + sum(m.ncss for m in cm.methods)
    return cm


def scan_metrics(cleaned_source: str) -> FileMetrics:
    """Discover classes/methods in comment-stripped source and compute counts:
    one lexer pass, then one walk over each class body that jumps over blocks.
    A class that declares classes is walked over a copy of its body in which
    each of them, header to closing brace, is cut down to its line breaks, so
    the lexer reads each other character at most twice, however deep the nest."""
    text, n = cleaned_source, len(cleaned_source)
    imports = _IMPORT_RE.findall(text)
    fm = FileMetrics(len(imports), {_package_of(p) for p in imports})
    pairs, decls = _lex(text)
    for name, start, brace, nested in decls:
        body, body_pairs, lo, hi = text, pairs, brace + 1, pairs.get(brace, n)
        if nested:
            parts, pos = [], lo
            for d in nested:  # declarations that share a brace share a span
                cut, stop = max(d[1], pos), pairs.get(d[2], n) + 1
                parts += [text[pos:cut], "\n" * text.count("\n", cut, stop)]
                pos = stop
            body = "".join(parts) + text[pos:hi]
            body_pairs, lo, hi = _lex(body)[0], 0, len(body)
        fm.classes.append(_scan_class(body, body_pairs, name, text[start:brace], lo, hi))
    return fm


# ---------------------------------------------------------------------------
# Rule evaluation
# ---------------------------------------------------------------------------

def evaluate_rules(metrics: FileMetrics, thresholds: RuleThresholds | None = None) -> SmellVector:
    t = thresholds or RuleThresholds()
    flags = [False] * 16
    all_methods = [m for c in metrics.classes for m in c.methods]
    raw_cyclo = max((m.cyclomatic for m in all_methods), default=0)
    raw_npath = max((m.npath for m in all_methods), default=0)

    for c in metrics.classes:
        if c.is_abstract and c.method_count == 0 and c.field_count > 0:
            flags[SmellRule.AbstractClassWithoutAnyMethod] = True
        if c.unique_coupled_types > t.coupling_threshold:
            flags[SmellRule.CouplingBetweenObjects] = True
        if (
            c.method_count > 0
            and c.accessor_ratio >= t.dataclass_accessor_ratio
            and max((m.cyclomatic for m in c.methods), default=0) <= 2
        ):
            flags[SmellRule.DataClass] = True
        if c.line_count > t.class_length_threshold:
            flags[SmellRule.ExcessiveClassLength] = True
        if c.public_member_count > t.public_count_threshold:
            flags[SmellRule.ExcessivePublicCount] = True
        wmc = sum(m.cyclomatic for m in c.methods)
        if wmc > t.godclass_wmc_threshold and (
            c.field_count + c.method_count > t.godclass_member_threshold
        ):
            flags[SmellRule.GodClass] = True
        if c.ncss > t.ncss_class_threshold:
            flags[SmellRule.NcssCount] = True
        if c.field_count > t.field_threshold:
            flags[SmellRule.TooManyFields] = True
        if c.method_count > t.method_threshold:
            flags[SmellRule.TooManyMethods] = True

    for m in all_methods:
        if m.line_count > t.method_length_threshold:
            flags[SmellRule.ExcessiveMethodLength] = True
        if m.param_count > t.parameter_threshold:
            flags[SmellRule.ExcessiveParameterList] = True
        if m.ncss > t.ncss_method_threshold:
            flags[SmellRule.NcssCount] = True
        if m.switch_label_count > 0 and (
            m.statement_count / m.switch_label_count > t.switch_density_threshold
        ):
            flags[SmellRule.SwitchDensity] = True

    if metrics.import_count > t.import_threshold:
        flags[SmellRule.ExcessiveImports] = True
    if t.allowed_package_prefixes:
        for pkg in metrics.imported_packages:
            if not any(pkg == p or pkg.startswith(p + ".") for p in t.allowed_package_prefixes):
                flags[SmellRule.LoosePackageCoupling] = True
                break
    flags[SmellRule.CyclomaticComplexity] = raw_cyclo > t.cyclo_npath_threshold
    flags[SmellRule.NPathComplexity] = raw_npath > t.cyclo_npath_threshold

    return SmellVector(flags=tuple(flags), raw_cyclomatic_max=raw_cyclo, raw_npath_max=raw_npath)


def scan_source(source: str, thresholds: RuleThresholds | None = None) -> SmellVector:
    """strip -> scan -> evaluate, in one call."""
    return evaluate_rules(scan_metrics(strip_comments_and_strings(source)), thresholds)
