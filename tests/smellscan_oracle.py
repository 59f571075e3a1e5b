"""The structure scanner as it was before the single-pass rewrite, kept
verbatim as the reference for the differential tests in test_smellscan.py.

It recurses once per nesting level and rescans text it has passed, so deep
or long inputs can raise RecursionError or run slowly; the tests only compare
on inputs where it returns.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from smelltriage.smellscan import RuleThresholds, SmellRule, SmellVector


@dataclass
class MethodMetrics:
    name: str
    param_count: int = 0
    line_count: int = 0
    ncss: int = 0
    decision_points: int = 0
    npath: int = 1
    switch_statement_count: int = 0
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
    file_path: str
    package_name: str | None = None
    import_count: int = 0
    imported_packages: set[str] = field(default_factory=set)
    classes: list[ClassMetrics] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Comment / string stripping
# ---------------------------------------------------------------------------

def strip_comments_and_strings(source: str) -> tuple[str, list[str]]:
    """Blank comment and string-literal interiors with spaces.

    Byte length, line breaks and column positions are all preserved; string
    and char delimiters are kept so literals remain visible as empty tokens.
    """
    out = list(source)
    diagnostics: list[str] = []
    i, n = 0, len(source)
    line = 1
    state = "code"
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
        if state == "code":
            if ch == "/" and i + 1 < n and source[i + 1] == "/":
                out[i] = out[i + 1] = " "
                i += 2
                state = "line_comment"
                continue
            if ch == "/" and i + 1 < n and source[i + 1] == "*":
                out[i] = out[i + 1] = " "
                i += 2
                state = "block_comment"
                continue
            if ch == '"':
                state = "string"
            elif ch == "'":
                state = "char"
            i += 1
        elif state == "line_comment":
            if ch == "\n":
                state = "code"
            else:
                out[i] = " "
            i += 1
        elif state == "block_comment":
            if ch == "*" and i + 1 < n and source[i + 1] == "/":
                out[i] = out[i + 1] = " "
                i += 2
                state = "code"
                continue
            if ch != "\n":
                out[i] = " "
            i += 1
        else:  # string or char literal
            quote = '"' if state == "string" else "'"
            if ch == "\\" and i + 1 < n:
                out[i] = " "
                if source[i + 1] != "\n":
                    out[i + 1] = " "
                i += 2
                continue
            if ch == quote:
                state = "code"
            elif ch == "\n":
                diagnostics.append(f"line {line - 1}: unterminated {state} literal")
                state = "code"
            else:
                out[i] = " "
            i += 1
    if state == "block_comment":
        diagnostics.append("unterminated block comment at end of file")
    elif state in ("string", "char"):
        diagnostics.append(f"unterminated {state} literal at end of file")
    return "".join(out), diagnostics


# ---------------------------------------------------------------------------
# Brace utilities
# ---------------------------------------------------------------------------

def _match_brace(text: str, open_pos: int) -> int:
    """Index of the brace matching text[open_pos] == '{', or -1 if unbalanced."""
    depth = 0
    for i in range(open_pos, len(text)):
        c = text[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i
    return -1


# `[^\S\n]*` rather than `\s*` after `^`: the same matches, but a run of blank
# lines is not rescanned from each of its line starts
_PACKAGE_RE = re.compile(r"^[^\S\n]*package\s+([\w.]+)\s*;", re.MULTILINE)
_IMPORT_RE = re.compile(r"^[^\S\n]*import\s+(?:static\s+)?([\w.]+(?:\.\*)?)\s*;",
                        re.MULTILINE)
_CLASS_RE = re.compile(r"\b(class|interface|enum)\s+(\w+)")
_MODIFIER_WORDS = frozenset(
    "public private protected static final abstract strictfp sealed".split()
)
_CONTROL_KEYWORDS = frozenset(
    "if else for while do switch case default try catch finally return "
    "throw new synchronized".split()
)


# ---------------------------------------------------------------------------
# NPath composition
# ---------------------------------------------------------------------------

_NPATH_KEYWORD_RE = re.compile(r"\b(if|for|while|do|switch)\b")


def _skip_parens(text: str, pos: int) -> int:
    """Advance past a balanced (...) group starting at the next '('."""
    i = text.find("(", pos)
    if i < 0:
        return pos
    depth = 0
    for j in range(i, len(text)):
        if text[j] == "(":
            depth += 1
        elif text[j] == ")":
            depth -= 1
            if depth == 0:
                return j + 1
    return len(text)


def _parse_branch(text: str, pos: int) -> tuple[int, int]:
    """Parse one statement or block starting at pos; return (npath, next_pos)."""
    while pos < len(text) and text[pos].isspace():
        pos += 1
    if pos >= len(text):
        return 1, pos
    if text[pos] == "{":
        end = _match_brace(text, pos)
        if end < 0:
            return npath_of_block(text[pos + 1:]), len(text)
        return npath_of_block(text[pos + 1: end]), end + 1
    m = _NPATH_KEYWORD_RE.match(text, pos)
    if m:
        return _parse_construct(text, m)
    # single statement up to ';'
    semi = text.find(";", pos)
    if semi < 0:
        return 1, len(text)
    return 1, semi + 1


def _parse_construct(text: str, m: re.Match) -> tuple[int, int]:
    kw = m.group(1)
    pos = m.end()
    if kw == "if":
        pos = _skip_parens(text, pos)
        then_paths, pos = _parse_branch(text, pos)
        save = pos
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if text.startswith("else", pos) and (
            pos + 4 >= len(text) or not (text[pos + 4].isalnum() or text[pos + 4] == "_")
        ):
            else_paths, pos = _parse_branch(text, pos + 4)
            return then_paths + else_paths, pos
        return then_paths + 1, save
    if kw in ("for", "while"):
        pos = _skip_parens(text, pos)
        body_paths, pos = _parse_branch(text, pos)
        return body_paths + 1, pos
    if kw == "do":
        body_paths, pos = _parse_branch(text, pos)
        pos = _skip_parens(text, pos)  # trailing while (...)
        semi = text.find(";", pos)
        return body_paths + 1, (semi + 1 if semi >= 0 else len(text))
    # switch
    pos = _skip_parens(text, pos)
    while pos < len(text) and text[pos].isspace():
        pos += 1
    if pos >= len(text) or text[pos] != "{":
        return 1, pos
    end = _match_brace(text, pos)
    if end < 0:
        end = len(text)
    body = text[pos + 1: end]
    paths = _switch_paths(body)
    return paths, end + 1


_CASE_LABEL_RE = re.compile(r"\b(case\b[^:{};]*|default\s*):")


def _switch_paths(body: str) -> int:
    """Sum of case-group path counts, plus one when no default group exists."""
    labels = []
    depth = 0
    for m in _CASE_LABEL_RE.finditer(body):
        depth = body.count("{", 0, m.start()) - body.count("}", 0, m.start())
        if depth == 0:
            labels.append((m.start(), m.end(), m.group(1).startswith("default")))
    if not labels:
        return 1
    has_default = any(d for _, _, d in labels)
    total = 0
    # consecutive labels share one group; a group's text runs to the next label
    group_starts: list[int] = []
    prev_end = None
    for start, end, _ in labels:
        between = body[prev_end:start] if prev_end is not None else ""
        if prev_end is None or between.strip():
            group_starts.append(start)
        prev_end = end
    for gi, gstart in enumerate(group_starts):
        gend = group_starts[gi + 1] if gi + 1 < len(group_starts) else len(body)
        # drop the label text itself
        colon = body.find(":", gstart)
        group_text = body[colon + 1: gend] if colon >= 0 else body[gstart:gend]
        total += npath_of_block(group_text)
    if not has_default:
        total += 1
    return total


def npath_of_block(text: str) -> int:
    """Acyclic path count of a statement sequence (sequential composition
    multiplies; straight-line code contributes 1)."""
    paths = 1
    pos = 0
    while True:
        m = _NPATH_KEYWORD_RE.search(text, pos)
        if not m:
            break
        # skip keyword occurrences nested inside braces already consumed is
        # handled by advancing pos past each construct; keywords inside parens
        # (e.g. a for header) are consumed by _skip_parens of the construct
        sub, nxt = _parse_construct(text, m)
        paths *= max(sub, 1)
        pos = max(nxt, m.end())
    return max(paths, 1)


# ---------------------------------------------------------------------------
# Metrics scanning
# ---------------------------------------------------------------------------

_DECISION_KEYWORD_RE = re.compile(r"\b(?:if|while|for|case|catch)\b")
_NCSS_HEADER_RE = re.compile(r"\b(?:if|else|for|while|do|switch|try|catch|finally)\b")
_GETTER_RE = re.compile(r"^\s*return\s+(?:this\s*\.\s*)?[\w$]+\s*;\s*$")
_SETTER_RE = re.compile(r"^\s*(?:this\s*\.\s*)?[\w$]+\s*=\s*[\w$]+\s*;\s*$")
_TYPE_TOKEN_RE = re.compile(r"\b[A-Z][A-Za-z0-9_]*\b")
_SWITCH_RE = re.compile(r"\bswitch\b")


def _package_of(import_path: str) -> str:
    parts = import_path.split(".")
    return ".".join(parts[:-1]) if len(parts) > 1 else import_path


def _count_lines(text: str) -> int:
    return text.count("\n") + 1


def _split_top_level(text: str, sep: str = ",") -> list[str]:
    parts, depth, cur = [], 0, []
    for c in text:
        if c in "(<[":
            depth += 1
        elif c in ")>]":
            depth -= 1
        if c == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def _method_name(header: str) -> str | None:
    """Identifier immediately before the first top-level '(' of a member header,
    or None when the header cannot be a method/constructor signature."""
    paren = header.find("(")
    if paren < 0:
        return None
    if "=" in header[:paren]:
        return None  # field initializer, e.g. anonymous class assignment
    m = re.search(r"([\w$]+)\s*$", header[:paren])
    if not m:
        return None
    name = m.group(1)
    if name in _CONTROL_KEYWORDS:
        return None
    return name


def _scan_method(header: str, body: str, class_name: str) -> MethodMetrics:
    name = _method_name(header) or "<anonymous>"
    paren = header.find("(")
    close = header.rfind(")")
    params_text = header[paren + 1: close] if close > paren else ""
    params = _split_top_level(params_text)
    mm = MethodMetrics(name=name)
    mm.param_count = len(params)
    mm.is_public = bool(re.search(r"\bpublic\b", header[:paren]))
    mm.line_count = _count_lines(header.strip() + body)
    mm.statement_count = body.count(";")
    mm.decision_points = (
        len(_DECISION_KEYWORD_RE.findall(body))
        + body.count("&&")
        + body.count("||")
        + body.count("?")
    )
    mm.ncss = 1 + body.count(";") + len(_NCSS_HEADER_RE.findall(body))
    mm.npath = npath_of_block(body)
    mm.is_accessor = bool(_GETTER_RE.match(body.strip()) or _SETTER_RE.match(body.strip()))
    for sm in _SWITCH_RE.finditer(body):
        brace = body.find("{", sm.end())
        if brace < 0:
            continue
        end = _match_brace(body, brace)
        if end < 0:
            end = len(body)
        block = body[brace + 1: end]
        mm.switch_statement_count += block.count(";")
        mm.switch_label_count += len(_CASE_LABEL_RE.findall(block))
    return mm


def _scan_class_body(name: str, header: str, body: str, diagnostics: list[str]) -> ClassMetrics:
    cm = ClassMetrics(name=name)
    cm.is_abstract = bool(re.search(r"\babstract\b", header))
    cm.line_count = _count_lines(header.strip() + "{" + body + "}")
    type_tokens = set(_TYPE_TOKEN_RE.findall(body)) - {name}
    cm.unique_coupled_types = len(type_tokens)

    field_declarators = 0
    pos = 0
    n = len(body)
    seg_start = 0
    while pos < n:
        c = body[pos]
        if c == ";":
            segment = body[seg_start:pos].strip()
            if segment:
                mname = _method_name(segment)
                if mname is not None and ")" in segment:
                    # abstract/native method declaration
                    mm = _scan_method(segment, "", name)
                    cm.methods.append(mm)
                else:
                    count = max(len(_split_top_level(segment)), 1)
                    is_constant = bool(re.search(r"\bstatic\b", segment)) and bool(
                        re.search(r"\bfinal\b", segment)
                    )
                    if not is_constant:
                        field_declarators += count
                    if re.search(r"\bpublic\b", segment):
                        cm.public_member_count += count
            pos += 1
            seg_start = pos
        elif c == "{":
            end = _match_brace(body, pos)
            if end < 0:
                diagnostics.append(f"unbalanced braces in class {name}")
                break
            header_text = body[seg_start:pos].strip()
            inner = body[pos + 1: end]
            if _CLASS_RE.search(header_text):
                pass  # nested class, scanned separately
            elif _method_name(header_text) is not None:
                mm = _scan_method(header_text, inner, name)
                cm.methods.append(mm)
                if mm.is_public:
                    cm.public_member_count += 1
            elif "=" in header_text:
                # field initialized with an anonymous class body
                field_declarators += 1
                if re.search(r"\bpublic\b", header_text):
                    cm.public_member_count += 1
            pos = end + 1
            # swallow an optional trailing ';' (anonymous class assignment)
            while pos < n and body[pos] in " \t\r\n":
                pos += 1
            if pos < n and body[pos] == ";":
                pos += 1
            seg_start = pos
        else:
            pos += 1

    cm.method_count = len(cm.methods)
    cm.field_count = field_declarators
    cm.ncss = 1 + field_declarators + sum(m.ncss for m in cm.methods)
    return cm


def _mask_region(text: str, start: int, end: int) -> str:
    region = text[start:end]
    masked = "".join("\n" if c == "\n" else " " for c in region)
    return text[:start] + masked + text[end:]


def scan_metrics(cleaned_source: str, file_path: str = "<memory>") -> FileMetrics:
    """Discover classes/methods in comment-stripped source and compute counts."""
    fm = FileMetrics(file_path=file_path)
    m = _PACKAGE_RE.search(cleaned_source)
    if m:
        fm.package_name = m.group(1)
    imports = _IMPORT_RE.findall(cleaned_source)
    fm.import_count = len(imports)
    fm.imported_packages = {_package_of(p) for p in imports}

    # locate every class declaration and its body span
    decls = []
    for cm in _CLASS_RE.finditer(cleaned_source):
        before = cleaned_source[: cm.start()].rstrip()
        if before.endswith("."):
            continue  # Foo.class literal or qualified name
        brace = cleaned_source.find("{", cm.end())
        if brace < 0:
            fm.diagnostics.append(f"class {cm.group(2)} without body")
            continue
        end = _match_brace(cleaned_source, brace)
        if end < 0:
            fm.diagnostics.append(f"unbalanced braces after class {cm.group(2)}")
            end = len(cleaned_source)
        # header: modifiers between the previous member boundary and the keyword
        hdr_start = max(
            cleaned_source.rfind(";", 0, cm.start()),
            cleaned_source.rfind("{", 0, cm.start()),
            cleaned_source.rfind("}", 0, cm.start()),
        )
        header = cleaned_source[hdr_start + 1: brace]
        decls.append((cm.group(2), header, brace, end))

    for name, header, brace, end in decls:
        body = cleaned_source[brace + 1: end]
        # mask nested class declarations so their members are not double counted
        offset = brace + 1
        for oname, oheader, obrace, oend in decls:
            if obrace > brace and oend <= end:
                decl_start = max(obrace - offset - len(oheader), 0)
                end_in_body = min(oend + 1 - offset, len(body))
                body = _mask_region(body, decl_start, end_in_body)
        fm.classes.append(_scan_class_body(name, header, body, fm.diagnostics))
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


def scan_source(source: str, file_path: str = "<memory>",
                thresholds: RuleThresholds | None = None) -> SmellVector:
    """strip -> scan -> evaluate, in one call."""
    cleaned, diags = strip_comments_and_strings(source)
    metrics = scan_metrics(cleaned, file_path)
    metrics.diagnostics.extend(diags)
    return evaluate_rules(metrics, thresholds)
