import json
import re

import pytest
from hypothesis import given, strategies as st

from smelltriage import smellscan
from smelltriage.smellscan import (
    RULE_NAMES, RuleThresholds, SmellRule, SmellVector,
    evaluate_rules, ingest_pmd_report, npath_of_block,
    scan_metrics, scan_source, strip_comments_and_strings, PmdReportError,
)

from conftest import SMELL_FIXTURE_DIR


# -- comment / string stripping ---------------------------------------------

def test_strip_blanks_line_comment():
    cleaned, diags = strip_comments_and_strings("int a; // if (x) while\nint b;")
    assert cleaned == "int a; " + " " * len("// if (x) while") + "\nint b;"
    assert diags == []


def test_strip_blanks_block_comment_keeps_newlines():
    src = "a /* if\nwhile */ b"
    cleaned, _ = strip_comments_and_strings(src)
    assert len(cleaned) == len(src)
    assert cleaned.count("\n") == src.count("\n")
    assert "if" not in cleaned and "while" not in cleaned


def test_strip_keeps_string_delimiters():
    cleaned, _ = strip_comments_and_strings('call("if (x) { }");')
    assert cleaned == 'call("' + " " * len("if (x) { }") + '");'


def test_strip_handles_escaped_quote():
    cleaned, _ = strip_comments_and_strings(r'x = "a\"b"; y = 1;')
    assert cleaned == 'x = "    "; y = 1;'


def test_strip_comment_marker_inside_string_ignored():
    cleaned, _ = strip_comments_and_strings('s = "// not a comment"; t = 2;')
    assert "t = 2;" in cleaned


def test_strip_reports_unterminated_block_comment():
    _, diags = strip_comments_and_strings("int a; /* open")
    assert any("unterminated block comment" in d for d in diags)


@given(st.text(max_size=300))
def test_strip_preserves_length_and_newlines(src):
    cleaned, _ = strip_comments_and_strings(src)
    assert len(cleaned) == len(src)
    assert cleaned.count("\n") == src.count("\n")


# -- NPath composition -------------------------------------------------------

NPATH_CASES = [
    ("a = 1; b = 2;", 1),
    ("if (a) { x = 1; }", 2),
    ("if (a) { x = 1; } else { x = 2; }", 2),
    ("if (a) { x = 1; } if (b) { x = 2; }", 4),
    ("if (a) { if (b) { x = 1; } }", 3),
    ("if (a) { x = 1; } else { if (b) { x = 2; } }", 3),
    ("while (a) { x = 1; }", 2),
    ("for (i = 0; i < n; i++) { x = 1; }", 2),
    ("do { x = 1; } while (a);", 2),
    ("switch (t) { case 1: a = 1; break; case 2: a = 2; break; }", 3),
    ("switch (t) { case 1: a = 1; break; default: a = 0; }", 2),
    ("while (a) { if (b) { x = 1; } }", 3),
    ("if (a) { x = 1; } while (b) { y = 1; }", 4),
]


@pytest.mark.parametrize("body,expected", NPATH_CASES)
def test_npath_golden(body, expected):
    assert npath_of_block(body) == expected


def test_npath_six_sequential_ifs():
    body = " ".join("if (a) { x = 1; }" for _ in range(6))
    assert npath_of_block(body) == 64


@given(st.integers(min_value=0, max_value=8))
def test_npath_sequential_ifs_is_power_of_two(n):
    body = " ".join("if (a) { x = 1; }" for _ in range(n))
    assert npath_of_block(body) == 2 ** n


# -- golden fixtures ---------------------------------------------------------

def _manifest():
    return json.loads((SMELL_FIXTURE_DIR / "manifest.json").read_text())["fixtures"]


@pytest.mark.parametrize("entry", _manifest(), ids=lambda e: e["file"])
def test_fixture_triggers_exactly_its_rule(entry):
    src = (SMELL_FIXTURE_DIR / entry["file"]).read_text(encoding="utf-8")
    overrides = entry.get("thresholds", {})
    if "allowed_package_prefixes" in overrides:
        overrides = dict(overrides,
                         allowed_package_prefixes=tuple(overrides["allowed_package_prefixes"]))
    vec = scan_source(src, entry["file"], RuleThresholds(**overrides))
    fired = {SmellRule(i).name for i, f in enumerate(vec.flags) if f}
    expected = set() if entry["rule"] is None else {entry["rule"]}
    assert fired == expected


@pytest.mark.parametrize("entry", _manifest(), ids=lambda e: e["file"])
def test_fixture_metrics_match_hand_counts(entry):
    src = (SMELL_FIXTURE_DIR / entry["file"]).read_text(encoding="utf-8")
    cleaned, _ = strip_comments_and_strings(src)
    fm = scan_metrics(cleaned, entry["file"])
    c = fm.classes[0]
    vec = evaluate_rules(fm)
    observed = {
        "field_count": c.field_count,
        "method_count": c.method_count,
        "public_member_count": c.public_member_count,
        "line_count": c.line_count,
        "unique_coupled_types": c.unique_coupled_types,
        "import_count": fm.import_count,
        "wmc": sum(m.cyclomatic for m in c.methods),
        "max_param_count": max((m.param_count for m in c.methods), default=0),
        "max_method_ncss": max((m.ncss for m in c.methods), default=0),
        "raw_cyclomatic_max": vec.raw_cyclomatic_max,
        "raw_npath_max": vec.raw_npath_max,
    }
    for key, expected in entry["metrics"].items():
        assert observed[key] == expected, f"{entry['file']}: {key}"


def test_all_sixteen_rules_covered_by_fixtures():
    rules = {e["rule"] for e in _manifest() if e["rule"]}
    assert rules == set(RULE_NAMES)


# -- line-anchored import/package patterns ---------------------------------

# the line-anchored patterns before blank runs stopped being rescanned; kept
# as the oracle for the current ones
_OLD_PACKAGE_RE = re.compile(r"^\s*package\s+([\w.]+)\s*;", re.MULTILINE)
_OLD_IMPORT_RE = re.compile(r"^\s*import\s+(?:static\s+)?([\w.]+(?:\.\*)?)\s*;",
                            re.MULTILINE)

# lines of leading whitespace (newlines and non-ASCII spaces included), a
# keyword, spacing, a name and maybe the semicolon
_HEAD_LINE = st.tuples(
    st.text(" \t\n\r\x0b\x0c\x85\u2028", max_size=4),
    st.sampled_from(["import", "import static", "package", "x"]),
    st.text(" \t\n", max_size=2),
    st.sampled_from(["a", "b.c", "d.*", ""]),
    st.sampled_from([";", " ;", ""]),
).map("".join)


@given(st.lists(_HEAD_LINE, max_size=8).map("\n".join))
def test_line_anchored_patterns_match_the_old_ones(text):
    assert smellscan._IMPORT_RE.findall(text) == _OLD_IMPORT_RE.findall(text)
    old, new = _OLD_PACKAGE_RE.search(text), smellscan._PACKAGE_RE.search(text)
    assert (old and old.group(1)) == (new and new.group(1))


# -- thresholds are strict ---------------------------------------------------

def test_import_threshold_is_strict_greater_than():
    at = "\n".join(f"import p{i:02d}.C{i:02d};" for i in range(30))
    over = at + "\nimport p30.C30;"
    assert not scan_source(at + "\nclass A { int x; }")[SmellRule.ExcessiveImports]
    assert scan_source(over + "\nclass A { int x; }")[SmellRule.ExcessiveImports]


def test_field_threshold_is_strict_greater_than():
    def cls(n):
        fields = " ".join(f"int f{i:02d};" for i in range(n))
        return f"class A {{ {fields} }}"
    assert not scan_source(cls(15))[SmellRule.TooManyFields]
    assert scan_source(cls(16))[SmellRule.TooManyFields]


# -- smell vector record -----------------------------------------------------

def test_smell_vector_record_roundtrip():
    flags = tuple(i % 3 == 0 for i in range(16))
    vec = SmellVector(flags, raw_cyclomatic_max=7, raw_npath_max=12)
    assert SmellVector.from_record(vec.to_record()) == vec


def test_smell_vector_requires_sixteen_flags():
    with pytest.raises(ValueError):
        SmellVector(flags=(True,) * 15)


# -- PMD report ingestion ----------------------------------------------------

PMD_XML = """<?xml version="1.0"?>
<pmd xmlns="http://pmd.sourceforge.net/report/2.0.0">
  <file name="src/A.java">
    <violation rule="GodClass" beginline="1"/>
    <violation rule="CyclomaticComplexity" beginline="9"/>
    <violation rule="SomeOtherRule" beginline="2"/>
  </file>
  <file name="src/B.java">
    <violation rule="DataClass" beginline="1"/>
  </file>
</pmd>
"""


def test_pmd_ingest_sets_flags_and_counts_unmatched():
    result = ingest_pmd_report(PMD_XML)
    by_name = dict(result.vectors)
    assert by_name["src/A.java"][SmellRule.GodClass]
    assert by_name["src/A.java"][SmellRule.CyclomaticComplexity]
    assert by_name["src/A.java"].raw_cyclomatic_max == 41  # threshold + 1 sentinel
    assert by_name["src/B.java"].flags == tuple(
        r is SmellRule.DataClass for r in SmellRule)
    assert result.unmatched_rules == {"SomeOtherRule": 1}


def test_pmd_ingest_rejects_malformed_xml():
    with pytest.raises(PmdReportError):
        ingest_pmd_report("<pmd><file></pmd>")
