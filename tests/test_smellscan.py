import json
import re
from dataclasses import asdict

import pytest
from hypothesis import assume, given, settings, strategies as st

import smellscan_oracle as oracle
from smelltriage import smellscan
from smelltriage.smellscan import (
    RULE_NAMES, RuleThresholds, SmellRule, SmellVector,
    evaluate_rules, npath_of_block, scan_metrics, scan_source, strip_comments_and_strings,
)

from conftest import SMELL_FIXTURE_DIR


# -- comment / string stripping ---------------------------------------------

def test_strip_blanks_line_comment():
    cleaned = strip_comments_and_strings("int a; // if (x) while\nint b;")
    assert cleaned == "int a; " + " " * len("// if (x) while") + "\nint b;"


def test_strip_blanks_block_comment_keeps_newlines():
    src = "a /* if\nwhile */ b"
    cleaned = strip_comments_and_strings(src)
    assert len(cleaned) == len(src)
    assert cleaned.count("\n") == src.count("\n")
    assert "if" not in cleaned and "while" not in cleaned


def test_strip_keeps_string_delimiters():
    cleaned = strip_comments_and_strings('call("if (x) { }");')
    assert cleaned == 'call("' + " " * len("if (x) { }") + '");'


def test_strip_handles_escaped_quote():
    cleaned = strip_comments_and_strings(r'x = "a\"b"; y = 1;')
    assert cleaned == 'x = "    "; y = 1;'


def test_strip_comment_marker_inside_string_ignored():
    cleaned = strip_comments_and_strings('s = "// not a comment"; t = 2;')
    assert "t = 2;" in cleaned


def test_a_text_block_is_one_literal():
    assert strip_comments_and_strings('a = """x\\"""y""" + b;') == 'a = """      """ + b;'
    # an unterminated text block runs to the end of the text
    assert strip_comments_and_strings('s = """open\n} class B {') == 's = """' + " " * 4 + "\n" + " " * 11
    src = ('class A { String q() { return """\n select { from t; where x = 1; if (y) { z; } \n'
           ' """; } int f() { return 1; } }')
    fm = scan_metrics(strip_comments_and_strings(src))
    assert [(m.name, m.ncss, m.decision_points) for c in fm.classes for m in c.methods] == [
        ("q", 2, 0), ("f", 2, 0)]


@given(st.text(max_size=300))
def test_strip_preserves_length_and_newlines(src):
    cleaned = strip_comments_and_strings(src)
    assert len(cleaned) == len(src)
    assert cleaned.count("\n") == src.count("\n")


@settings(max_examples=500)
@given(st.text(alphabet="/*\"'\\\nab {}\r", max_size=60))
def test_strip_matches_the_old_stripper(src):
    # the old stripper reads a text block as strings, so `"""` is left out
    assume('"""' not in src)
    assert strip_comments_and_strings(src) == oracle.strip_comments_and_strings(src)[0]


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


def test_npath_deep_nesting_has_no_depth_limit():
    depth = 5000
    assert npath_of_block("if (a) { " * depth + "x = 1;" + " }" * depth) == depth + 1
    chain = "if (a) { x = 0; }" + "".join(f" else if (a) {{ x = {i}; }}" for i in range(depth - 1))
    assert npath_of_block(chain) == depth + 1
    method = f"class A {{ void m() {{ {chain} }} }}"
    assert scan_source(method).raw_npath_max == depth + 1


def _methods(src):
    """(name, parameter count, NPath, case labels) of every method in src."""
    fm = scan_metrics(strip_comments_and_strings(src))
    return [(m.name, m.param_count, m.npath, m.switch_label_count)
            for c in fm.classes for m in c.methods]


def test_arrow_switch_labels_are_labels():
    statement = "switch (k) { case 1 -> a(); case 2 -> b(); default -> c(); }"
    assert _methods(f"class A {{ void m(int k) {{ {statement} }} }}") == [("m", 1, 3, 3)]
    expression = "return switch (k) { case 1 -> 2; default -> 3; };"
    assert _methods(f"class A {{ int m(int k) {{ {expression} }} }}") == [("m", 1, 2, 2)]
    lambdas = "list.forEach(v -> { use(v); }); Runnable r = () -> { go(); };"
    assert _methods(f"class A {{ void m() {{ {lambdas} }} }}") == [("m", 0, 1, 0)]
    # a lambda inside an arrow case is not a label; its `if` counts, as in any statement
    mixed = "switch (k) { case 1 -> run(v -> { if (v) { go(); } }); default -> { if (a) b(); } }"
    assert _methods(f"class A {{ void m() {{ {mixed} }} }}") == [("m", 0, 4, 2)]


def test_annotation_arguments_are_not_members():
    src = 'class A { @SuppressWarnings({"a", "b"}) void m() { } }'
    assert _methods(src) == [("m", 0, 1, 0)]
    src = ('class A {\n  @Named(value = {1, 2}, id = (3))\n  public int get(int a, int b) '
           '{ return a; }\n  @Foo(RetentionPolicy.RUNTIME) int f;\n}')
    fm = scan_metrics(strip_comments_and_strings(src))
    (cls,) = fm.classes
    assert [(m.name, m.param_count, m.line_count, m.is_public) for m in cls.methods] == [
        ("get", 2, 2, True)]
    assert cls.field_count == 1
    assert cls.unique_coupled_types == 2  # Named and Foo, not the arguments
    # an argument list nesting parentheses four deep
    assert _methods("class A { @Ann(x = f(g(h(1)))) void m(int a) { } }") == [("m", 1, 1, 0)]
    # a list that the text ends inside is kept, but not a closed list inside it
    assert strip_comments_and_strings("@A(f(@B(g(1)) x") == "@A(f(@B" + " " * 7 + "x"


def test_a_generic_wildcard_is_not_a_decision_point():
    body = ("Map<String, ? super Integer> m = f(); List<?> l; Map<?, ? extends T> q;"
            " x = a ? b : c; y = c ? super.m() : 1;")
    fm = scan_metrics(strip_comments_and_strings(f"class A {{ void m() {{ {body} }} }}"))
    assert [m.decision_points for c in fm.classes for m in c.methods] == [2]


def _members_of(src):
    return [(c.name, [m.name for m in c.methods], c.field_count)
            for c in scan_metrics(strip_comments_and_strings(src)).classes]


def test_enum_constants_are_not_members():
    src = ("enum Kind { A(1), B(2); private final int v; "
           "Kind(int v) { this.v = v; } int v() { return v; } }")
    assert _members_of(src) == [("Kind", ["Kind", "v"], 1)]
    # constant arguments and bodies hold ';', '{' and methods of their own
    src = ('enum Op { PLUS("+") { int apply(int a, int b) { return a + b; } }, '
           'NEG(f(1, 2)), ZERO { }; abstract int apply(int a, int b); }')
    assert _members_of(src) == [("Op", ["apply"], 0)]
    # without a ';' the body is all constants; with an empty list, all members
    assert _members_of("enum Color { RED, GREEN, BLUE }") == [("Color", [], 0)]
    assert _members_of("enum Color { RED, GREEN; }") == [("Color", [], 0)]
    assert _members_of("enum E { ; int x; void m() { } }") == [("E", ["m"], 1)]
    src = "class A { enum K { X(1); K(int v) { } } int f; void m() { } }"
    assert _members_of(src) == [("A", ["m"], 1), ("K", ["K"], 0)]


def test_declarators_split_at_commas_after_comparisons_and_lambdas():
    assert _members_of("class A { boolean x = a < b, y; int z; }") == [("A", [], 3)]
    assert _members_of("class A { boolean x = a > b, y; int z; }") == [("A", [], 3)]
    assert _members_of("class A { Function<A, B> f = x -> x, g = y -> y; }") == [("A", [], 2)]
    # the commas of type arguments still split nothing
    src = ("class A { Map<String, List<Integer>> m, n; "
           "void k(Map<String, List<Integer>> m, int x) { } }")
    assert _members_of(src) == [("A", ["k"], 2)]
    assert scan_metrics(src).classes[0].methods[0].param_count == 2


def test_a_record_is_a_class_whose_components_are_not_members():
    src = "record Point(int x, int y) { int sum() { return x + y; } }"
    assert _members_of(src) == [("Point", ["sum"], 0)]
    assert _members_of("record Pair<A, B>(A a, B b) { }") == [("Pair", [], 0)]


def test_a_member_record_is_not_a_method_and_record_as_a_name_declares_nothing():
    src = ("class A { record R(int x) { int twice() { return 2 * x; } } "
           "Object f(Object record) { return record instanceof String; } "
           "void record(int a) { } int record = 1; }")
    assert _members_of(src) == [("A", ["f", "record"], 1), ("R", ["twice"], 0)]


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
    vec = scan_source(src, RuleThresholds(**overrides))
    fired = {SmellRule(i).name for i, f in enumerate(vec.flags) if f}
    expected = set() if entry["rule"] is None else {entry["rule"]}
    assert fired == expected


@pytest.mark.parametrize("entry", _manifest(), ids=lambda e: e["file"])
def test_fixture_metrics_match_hand_counts(entry):
    src = (SMELL_FIXTURE_DIR / entry["file"]).read_text(encoding="utf-8")
    cleaned = strip_comments_and_strings(src)
    fm = scan_metrics(cleaned)
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


# -- differential test against the old scanner ----------------------------

# Java-like sources: every construct the scanner counts, plus comments and
# literals whose text looks like code. Arrow-form switch labels, annotation
# arguments and text blocks are left out: the old scanner reads them wrongly,
# and unit tests cover them
_NAMES = st.sampled_from(["a", "b", "count", "total", "Item", "x$1"])
_TYPES = st.sampled_from(["int", "String", "List<Item>", "Map<String, List<Integer>>",
                          "int[]", "T", "Object"])
_COND = st.sampled_from([
    "a", "a && b", "a || b && !c", "x > 0", 's.equals("} else {")', "(a ? b : c)",
    "check(a, b) || ok", "x != 'x'", "list.isEmpty()",
])
_NOISE = st.sampled_from([
    "", "// if (x) { while (y) {\n", "/* } else { case 1: */ ", '"{ switch (s) }"',
    "/** {@code class Foo { } } */\n", "'{'", '"class Bar {"',
])
_SIMPLE = st.sampled_from([
    "x = y + 1;", "call(a, b);", "return x;", "break;", "i++;", "x = a ? b : c;",
    "continue;", 'throw new IllegalStateException("no");', "ok = a && b || c;",
    's = "if (a) { b; }";', "Item.KIND.run(x);", "list.forEach(v -> { if (v) { use(v); } });",
])


def _statements(inner):
    block = st.lists(inner, min_size=1, max_size=4).map(lambda ss: "{ " + " ".join(ss) + " }")
    branch = st.one_of(block, inner)
    label = st.sampled_from(["case 1:", "case A:", "case B: case C:", "case 'x':", "default:"])
    group = st.tuples(label, st.lists(inner, max_size=2)).map(lambda g: " ".join([g[0], *g[1]]))
    return st.one_of(
        st.tuples(_NOISE, inner).map("".join),
        st.builds("if ({}) {}".format, _COND, branch),
        st.builds("if ({}) {} else {}".format, _COND, branch, branch),
        st.builds("if ({}) {} else if ({}) {} else {}".format, _COND, block, _COND, block, block),
        st.builds("for (int i = 0; i < n; i++) {}".format, branch),
        st.builds("for (Item it : items) {}".format, branch),
        st.builds("while ({}) {}".format, _COND, branch),
        st.builds("do {} while ({});".format, block, _COND),
        st.builds("switch (k) {{{}}}".format,
                  st.lists(group, min_size=1, max_size=4).map(" ".join)),
        st.builds("try {} catch (IOException e) {} finally {}".format, block, block, block),
        st.builds("Runnable r = new Runnable() {{ public void run() {} }};".format, block),
        st.builds("class Local {{ int f; void m() {} }}".format, block),
        block,
    )


_STATEMENTS = st.recursive(_SIMPLE, _statements, max_leaves=40)
_METHOD_BODY = st.lists(_STATEMENTS, max_size=5).map(" ".join)
_PARAMS = st.lists(st.tuples(_TYPES, _NAMES).map(" ".join), max_size=12).map(", ".join)
_MODIFIERS = st.sampled_from(["", "public ", "private ", "protected ", "static ",
                              "public static ", "@Override\n    public ", "final "])


_KINDS = st.sampled_from(["class", "abstract class", "interface", "enum"])


def _type_body(kind, members):
    """An enum body opens with its constant list. The old scanner reads enum
    constants as fields and methods, so the generated enums leave the list
    empty; test_enum_constants_are_not_members covers constants."""
    return f"; {members}" if kind == "enum" else members


def _members(inner):
    return st.one_of(
        st.builds("{}int {}, {} = 2;".format, _MODIFIERS, _NAMES, _NAMES),
        st.just("public static final int LIMIT = 10;"),
        st.just('static final String NAME = "x;y";'),
        st.builds("public Object {} = new Object() {{ int hidden; }};".format, _NAMES),
        st.builds("Comparator<Item> {} = new Comparator<Item>() {{ "
                  "public int compare(Item p, Item q) {{ {} }} }};".format, _NAMES, _METHOD_BODY),
        st.builds("{}{} {}({}) {{ {} }}".format, _MODIFIERS,
                  st.sampled_from(["void", "int", "<T> T", "List<String>"]),
                  _NAMES, _PARAMS, _METHOD_BODY),
        st.builds("public int get{}() {{ return {}; }}".format, _NAMES, _NAMES),
        st.builds("void set{}(int v) {{ this.{} = v; }}".format, _NAMES, _NAMES),
        st.builds("abstract {} {}({});".format, _TYPES, _NAMES, _PARAMS),
        st.builds("Item({}) {{ {} }}".format, _PARAMS, _METHOD_BODY),
        st.builds("static {{ {} }}".format, _METHOD_BODY),
        st.tuples(_NOISE, inner).map("".join),
        st.builds(lambda modifiers, kind, name, params, members:
                  f"{modifiers}{kind} {name}{params} {{ {_type_body(kind, members)} }}",
                  _MODIFIERS, _KINDS, _NAMES,
                  st.sampled_from(["", "<T extends Comparable<T>>",
                                   " extends Base implements Runnable"]),
                  st.lists(inner, min_size=1, max_size=4).map("\n    ".join)),
    )


_FIELD = st.builds("{}{} {};".format, st.sampled_from(["", "public ", "static "]), _TYPES, _NAMES)
_MEMBERS = st.recursive(_FIELD, _members, max_leaves=12)
_JAVA_SOURCES = st.builds(
    lambda package, imports, noise, annotation, modifiers, kind, name, members, trailer:
    f"{package}{imports}{noise}{annotation}{modifiers} {kind}{name} {{\n"
    f"    {_type_body(kind, members)}\n}}\n{trailer}",
    st.sampled_from(["", "package org.demo.core;\n", "  package a.b ;\n"]),
    st.lists(st.sampled_from(["import java.util.List;", "import static org.x.Y.z;",
                              "import java.io.*;", "import a.b.C;", "  import p.Q ;"]),
             max_size=5).map(lambda xs: "".join(x + "\n" for x in xs)),
    _NOISE,
    st.sampled_from(["", '@SuppressWarnings("all")\n']),
    st.sampled_from(["public ", "", "public abstract ", "final "]),
    _KINDS,
    st.sampled_from([" Item", " Item<T>", " Big extends Base"]),
    st.lists(_MEMBERS, min_size=1, max_size=8).map("\n    ".join),
    st.sampled_from(["", "class Second { int y; }\n", "interface Api { void go(); }\n"]),
)


def _metrics_record(fm) -> dict:
    """Every metric of a scan, without the outputs the old scanner had and
    nothing read."""
    rec = asdict(fm)
    for key in ("file_path", "package_name", "diagnostics"):
        rec.pop(key, None)
    for c in rec["classes"]:
        for m in c["methods"]:
            m.pop("switch_statement_count", None)
    return rec


def _assert_scans_like_the_old_scanner(src):
    cleaned, _ = oracle.strip_comments_and_strings(src)
    try:
        expected = oracle.scan_metrics(cleaned)
    except RecursionError:
        return
    got = scan_metrics(strip_comments_and_strings(src))
    assert _metrics_record(got) == _metrics_record(expected)
    assert evaluate_rules(got) == oracle.evaluate_rules(expected)


@settings(max_examples=300)
@given(_JAVA_SOURCES, st.integers(min_value=0))
def test_scan_matches_the_old_scanner(src, cut):
    _assert_scans_like_the_old_scanner(src)
    # a truncated file leaves comments, strings and braces open
    _assert_scans_like_the_old_scanner(src[: cut % (len(src) + 1)])


@settings(max_examples=300)
@given(_METHOD_BODY)
def test_npath_matches_the_old_npath(body):
    cleaned = strip_comments_and_strings(body)
    assert npath_of_block(cleaned) == oracle.npath_of_block(cleaned)


@pytest.mark.parametrize("entry", _manifest(), ids=lambda e: e["file"])
def test_fixture_scans_like_the_old_scanner(entry):
    src = (SMELL_FIXTURE_DIR / entry["file"]).read_text(encoding="utf-8")
    _assert_scans_like_the_old_scanner(src)


# -- nested classes: each class is scanned from its own text -----------------

def _nest(kind, depth):
    """`depth` classes, each declaring the next in the place `kind` names:
    a method body, the class body, an anonymous class in a method, or a
    switch case."""
    src = ""
    for k in reversed(range(depth)):
        inner = {
            "local": f"x = 1;\n        {src}",
            "member": "x = 1;",
            "anonymous": "Runnable r = new Runnable() {\n"
                         f"            public void run() {{ if (a) {{ go(); }} {src} }}\n        }};",
            "switch": f"switch (k) {{\n        case 1: {src} break;\n        default: go();\n        }}",
        }[kind]
        member = src if kind == "member" else ""
        src = (f"class C{k} extends Base{k} {{\n    int f{k};\n    {member}\n"
               f"    void m(int k) {{\n        if (a && b) {{ y = 2; }}\n        {inner}\n"
               f"        return;\n    }}\n}}\n")
    return src


_NESTS = [_nest(kind, depth) for kind in ("local", "member", "anonymous", "switch")
          for depth in range(1, 7)]


@pytest.mark.parametrize("src", [
    *_NESTS,
    *(src[: len(src) // 2] for src in _NESTS),  # cut off mid-file
    "class A { class B class C {} int x; }",  # two declarations share one brace
    "class A { void m() { for (int i = 0; i < n; i++) class L { int f; } } }",
    "class A { int v;\n  int get() {\n    class L { int w; }\n    return v;\n  }\n}",
])
def test_nested_classes_scan_like_the_old_scanner(src):
    _assert_scans_like_the_old_scanner(src)


def test_nested_code_is_lexed_once_more_at_most(monkeypatch):
    """The classes around a nested class lex only their own text and the line
    breaks of what they declare, so the lexer reads each character at most
    twice, however deep the nest."""
    lexed = []
    lex = smellscan._lex
    monkeypatch.setattr(smellscan, "_lex",
                        lambda text: lexed.append(len(text) - text.count("\n")) or lex(text))
    src = ""
    for k in reversed(range(16)):  # member and local classes by turns
        member, local = (src, "") if k % 2 else ("", src)
        body = "\n".join(f"        x = x + {i};" for i in range(20))
        src = (f"class C{k} {{\n    int f;\n    {member}\n    void m() {{\n{body}\n"
               f"        {local}\n    }}\n}}\n")
    assert len(scan_metrics(src).classes) == 16
    assert sum(lexed) <= 2 * (len(src) - src.count("\n"))


def test_an_annotated_nested_class_leaves_no_member_behind():
    src = ('class A {\n  @SuppressWarnings({"a", "b"}) static class B { int f; }\n'
           '  @JsonSubTypes({ @Type(X.class),\n    @Type(Y.class) })\n'
           '  abstract static class C { }\n  void m() { @Ann({1}) class L { } }\n}')
    classes = scan_metrics(strip_comments_and_strings(src)).classes
    assert [(c.name, [m.name for m in c.methods], c.field_count, c.line_count,
             c.unique_coupled_types) for c in classes] == [
        ("A", ["m"], 0, 7, 0), ("B", [], 1, 1, 0), ("C", [], 0, 3, 0), ("L", [], 0, 1, 0)]


# -- annotation arguments are not code ---------------------------------------

# an annotation whose argument list is the placeholder `§`, which the test
# fills or deletes
_AT = st.sampled_from(["", "@Ann§ ", "@a.b.Named§\n    ", "@Ann§ @Override "])
_ARGUMENTS = st.sampled_from([
    '("x")', '({"a", "b"})', "(value = {1, 2}, id = (3))", """(")}" + "{(" + '}')""",
    "(RetentionPolicy.RUNTIME)", '({ @Type(X.class), @Type(name = "y;", value = Y.class) })',
    "(f(g(1), (2)))", "({})", "(when = Kind.ALWAYS, of = { @Of(Z.class) })",
    "(x = a(b(c(d(1)))))",
])
_AT_PARAMS = st.lists(st.builds("{}{} {}".format, _AT, _TYPES, _NAMES), max_size=4).map(", ".join)
_AT_BODY = st.lists(st.one_of(
    _STATEMENTS,
    st.builds("{}{} {} = {};".format, _AT, _TYPES, _NAMES, _NAMES),
    st.builds("{}class Local {{ {}int f; {}void m({}) {{ }} }}".format, _AT, _AT, _AT, _AT_PARAMS),
), max_size=5).map(" ".join)


def _at_members(inner):
    return st.one_of(
        st.builds("{}{}{} {}({}) {{ {} }}".format, _AT, _MODIFIERS,
                  st.sampled_from(["void", "int", "<T> T"]), _NAMES, _AT_PARAMS, _AT_BODY),
        st.builds(lambda at, modifiers, kind, name, members:
                  f"{at}{modifiers}{kind} {name} {{ {_type_body(kind, members)} }}",
                  _AT, _MODIFIERS, _KINDS, _NAMES,
                  st.lists(inner, min_size=1, max_size=4).map("\n    ".join)),
    )


_AT_SOURCES = st.builds(
    lambda at, kind, members: f"{at}public {kind} Item {{\n    {_type_body(kind, members)}\n}}\n",
    _AT, _KINDS,
    st.lists(st.recursive(st.builds("{}{}{} {};".format, _AT, _MODIFIERS, _TYPES, _NAMES),
                          _at_members, max_leaves=8), min_size=1, max_size=6).map("\n    ".join),
)


@settings(max_examples=200)
@given(_AT_SOURCES, st.lists(_ARGUMENTS, min_size=1, max_size=4))
def test_annotation_arguments_change_no_metric(template, arguments):
    """Annotations with argument lists before members, local variables,
    parameters and class headers scan like the same annotations without."""
    parts = template.split("§")
    filled = parts[0] + "".join(arguments[i % len(arguments)] + part
                                for i, part in enumerate(parts[1:]))
    assert (asdict(scan_metrics(strip_comments_and_strings(filled)))
            == asdict(scan_metrics(strip_comments_and_strings("".join(parts)))))


# -- lexer and stripper edge cases, against the old scanner ------------------

@pytest.mark.parametrize("src,classes", [
    # a class keyword after '.' is a class literal, across blanks and lines
    ("class A { Object o = Foo.class; }", ["A"]),
    ("Foo . class Bar {}", []),
    ("Foo.\nclass Bar {}", []),
    ("class A { Object o = Foo.\nclass Bar {} }", ["A"]),
    # a keyword inside or at the start of a longer word is not a keyword
    ("myenum class X {}", ["X"]),
    ("subclass Foo {}", []),
    ("subinterface Foo {}", []),
    ("interfaceX y;", []),
    ("class A { interfaceX y; }", ["A"]),
    # each keyword at offset 0
    ("class X {}", ["X"]),
    ("interface I { void f(); }", ["I"]),
    ("enum E { A, B; int v; }", ["E"]),
])
def test_lexer_edge_case_finds_the_classes_the_old_scanner_finds(src, classes):
    """The class declarations only: the old scanner counted an enum's constants
    as fields, and no field for an initializer that runs into a class literal."""
    cleaned = strip_comments_and_strings(src)
    assert [c.name for c in scan_metrics(cleaned).classes] == classes
    assert [c.name for c in oracle.scan_metrics(cleaned).classes] == classes


@pytest.mark.parametrize("src", [
    "'\\\n",
    "x = '\\\nclass Y {}",
    's = "a\\\nb"; class Z {}',
])
def test_a_literal_holding_a_backslash_newline_strips_like_the_old_stripper(src):
    assert strip_comments_and_strings(src) == oracle.strip_comments_and_strings(src)[0]
    _assert_scans_like_the_old_scanner(src)


# -- line-anchored import pattern ------------------------------------------

# the line-anchored import pattern before blank runs stopped being rescanned;
# kept as the oracle for the current one
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
    old = _OLD_IMPORT_RE.findall(text)
    fm = scan_metrics(text)
    assert fm.import_count == len(old)
    assert fm.imported_packages == {oracle._package_of(p) for p in old}


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
