import inspect
import itertools
import json
import re
from dataclasses import asdict, is_dataclass

import pytest
from hypothesis import example, given, settings, strategies as st

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
    ("if(a){if(b){x=1;}}", 3),
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


def test_decision_points_ncss_accessors_and_public_members_by_hand():
    src = ("class A { int v; static int s; A next;\n"
           "  public int get() { return this.v; }\n"
           "  void set(int v) { this.v = v; }\n"
           "  int m(int a) { try { if (a > 0 || b) { a++; } } catch (E e) { a--; }"
           " finally { a = 0; }\n    while (x) { } return a > 1 ? a : -a; }\n"
           "  protected int p; protected void q() { }\n"
           "  Runnable r = wrap(() -> { go(); }); Object o = new Object() { int h; };\n"
           "  abstract static class B { int f; }\n}")
    cls, nested = _scan(src).classes
    assert [(m.name, m.decision_points, m.ncss, m.is_accessor, m.is_public)
            for m in cls.methods] == [("get", 0, 2, True, True), ("set", 0, 2, True, False),
                                      ("m", 5, 10, False, False), ("q", 0, 1, False, False)]
    # E, Runnable and Object: a class couples neither to itself nor to what it declares
    assert (cls.field_count, cls.public_member_count, cls.ncss, cls.unique_coupled_types) == (
        6, 1, 22, 3)
    assert (cls.is_abstract, nested.is_abstract) == (False, True)


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
    assert _members_of("enum kind { A(1), B; int v; }") == [("kind", [], 1)]
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


def test_a_name_that_holds_a_dollar_is_one_name():
    """A Java name may hold `$`: a class or record so named is one class, and
    it couples neither to itself nor to the parts of its name."""
    src = ("class Foo$Bar { record x$1(int a) { int m$() { return a; } } "
           "Foo$Bar next; Outer$Inner other; $Hidden h; void $record(int b) { } }")
    assert _members_of(src) == [("Foo$Bar", ["$record"], 3), ("x$1", ["m$"], 0)]
    # Outer$Inner only: no part of a name is a type of its own
    assert [c.unique_coupled_types for c in scan_metrics(src).classes] == [1, 0]


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


# -- generated sources -------------------------------------------------------

# The generator writes templates: Java-like sources with every construct the
# scanner reads. The interior of each literal and comment is a hole, one
# character that names its kind, and so is the argument list of each
# annotation (`§`). `_fill` writes text into the holes, so a test can rewrite
# what is not code without a lexer of its own.
_LINE, _BLOCK, _STRING, _CHAR, _TEXT, _ARGS = "\x01\x02\x03\x04\x05§"
_HOLE_RE = re.compile("[\x01-\x05§]")

_CODE_BITS = ["{", "}", "(", ")", ";", ",", " ", "x", "if (a) ", "else ", "case 1:",
              "default -> ", "switch (k) {", "class Q {", "record R(int a) {", "enum E { A(1), ",
              "@A(", "void m() {", "return x;", "import a.b;", "a < b, c", "? ", "&& "]


def _interior(*extra):
    return st.lists(st.sampled_from(_CODE_BITS + list(extra)), max_size=6).map("".join)


def _ends_text_block(s):
    """Whether s holds an unescaped `\"\"\"` or ends with a quote that would run into one."""
    t = re.sub(r"\\.", "", s)
    return '"""' in t or t.endswith('"')


_INTERIORS = {
    _LINE: _interior("//", "/*", "*/", '"', "'", '"""', "\\"),
    _BLOCK: _interior("//", "/*", "\n", '"', "'", '"""', "\\", "*", "/").filter(
        lambda s: "*/" not in "*" + s),
    _STRING: _interior("'", '\\"', "\\\\", "//", "/*", "*/"),
    _CHAR: st.sampled_from(["x", "{", "}", "(", ";", '"', "\\'", "\\\\", "/", "\\n"]),
    # a text block opens with a line break
    _TEXT: _interior("\n", '"', "'", "//", "/*", '\\"""', "\\\\").map("\n".__add__).filter(
        lambda s: not _ends_text_block(s)),
    _ARGS: st.sampled_from([
        "", '("x")', '({"a", "b"})', "(value = {1, 2}, id = (3))", """(")}" + "{(" + '}')""",
        "(RetentionPolicy.RUNTIME)", '({ @Type(X.class), @Type(name = "y;", value = Y.class) })',
        "(f(g(1), (2)))", "({})", "(when = Kind.ALWAYS, of = { @Of(Z.class) })",
        "(x = a(b(c(d(1)))))",
    ]),
}
# texts for the holes of each kind, used by turns
_FILLS = st.fixed_dictionaries({hole: st.lists(text, min_size=1, max_size=3)
                                for hole, text in _INTERIORS.items()})
_PLAIN = {_LINE: ["x"], _BLOCK: ["x"], _STRING: ["x"], _CHAR: ["x"], _TEXT: ["\nx"], _ARGS: [""]}
_TRICKY = {_LINE: [" if (x) { while (y) {"], _BLOCK: [" } else {\n case 1: class Q {"],
           _STRING: ["} else { //"], _CHAR: ["{"], _TEXT: ['\nif (x) { y; } \\""" class Q {\n'],
           _ARGS: ["(x = f(g(h(1))))"]}


def _fill(template, fills=_TRICKY):
    """template with the holes of each kind filled by fills[kind], in turn."""
    texts = {hole: itertools.cycle(values) for hole, values in fills.items()}
    return _HOLE_RE.sub(lambda m: next(texts[m.group()]), template)


_NAMES = st.sampled_from(["a", "b", "count", "total", "Item", "x$1", "$v", "Item$"])
_CLASS_NAMES = st.sampled_from(["a", "Item", "Node", "total", "x$1", "Node$Leaf", "$Q"])
_TYPES = st.sampled_from(["int", "String", "List<Item>", "Map<String, List<Integer>>",
                          "int[]", "T", "Object"])
_COND = st.sampled_from([
    "a", "a && b", "a || b && !c", "x > 0", 's.equals("\x03")', "(a ? b : c)",
    "check(a, b) || ok", "x != '\x04'", "list.isEmpty()",
])
# a blank after a string: two empty strings would run together as `""""`,
# which opens a text block, not two strings
_NOISE = st.sampled_from(["", "//\x01\n", "/*\x02*/ ", '"\x03" ', "/**\x02*/\n", "'\x04'"])
_AT = st.sampled_from(["", "@Ann§ ", "@a.b.Named§\n    ", "@Ann§ @Override "])
_SIMPLE = st.sampled_from([
    "x = y + 1;", "call(a, b);", "return x;", "break;", "i++;", "x = a ? b : c;",
    "continue;", 'throw new IllegalStateException("\x03");', "ok = a && b || c;",
    's = "\x03";', 'q = """\x05""".strip();', "Item.KIND.run(x);",
    "list.forEach(v -> { if (v) { use(v); } });", "boolean p = a < b, q = c > d;",
    "Function<A, B> f = v -> v, g = w -> w;",
]) | st.builds("{}{} {} = {};".format, _AT, _TYPES, _NAMES, _NAMES)


def _statements(inner):
    block = st.lists(inner, min_size=1, max_size=4).map(lambda ss: "{ " + " ".join(ss) + " }")
    branch = st.one_of(block, inner)
    label = st.sampled_from(["case 1:", "case A:", "case B: case C:", "case '\x04':", "default:"])
    group = st.tuples(label, st.lists(inner, max_size=2)).map(lambda g: " ".join([g[0], *g[1]]))
    arrow = st.tuples(
        st.sampled_from(["case 1 ->", "case A, B ->", 'case "\x03" ->', "default ->"]),
        st.one_of(block, st.sampled_from(["f(a);", "x = y + 1;", "throw new E();"])))
    arrows = st.lists(arrow.map(" ".join), min_size=1, max_size=4).map(" ".join)
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
        st.builds("switch (k) {{ {} }}".format, arrows),
        st.builds("{}switch (k) {{ {} }};".format, st.sampled_from(["return ", "x = "]), arrows),
        st.builds("try {} catch (IOException e) {} finally {}".format, block, block, block),
        st.builds("Runnable r = new Runnable() {{ public void run() {} }};".format, block),
        st.builds("class Local {{ int f; void m() {} }}".format, block),
        st.builds("record Local<T>(T a, {} b) {{ int m() {} }}".format, _TYPES, block),
        st.builds("enum Local {{ A(1) {{ void m() {} }}, B; }}".format, block),
        block,
    )


_STATEMENTS = st.recursive(_SIMPLE, _statements, max_leaves=40)
_METHOD_BODY = st.lists(_STATEMENTS, max_size=5).map(" ".join)
_PARAMS = st.lists(st.builds("{}{} {}".format, _AT, _TYPES, _NAMES),
                   max_size=12).map(", ".join)
_MODIFIERS = st.sampled_from(["", "public ", "private ", "protected ", "static ",
                              "public static ", "@Override\n    public ", "final "])
_METHOD = st.one_of(
    st.builds("{}{}{} {}({}) {{ {} }}".format, _AT, _MODIFIERS,
              st.sampled_from(["void", "int", "<T> T", "List<String>"]),
              _NAMES, _PARAMS, _METHOD_BODY),
    st.builds("public int get{}() {{ return {}; }}".format, _NAMES, _NAMES),
    st.builds("void set{}(int v) {{ this.{} = v; }}".format, _NAMES, _NAMES),
    st.builds("abstract {} {}({});".format, _TYPES, _NAMES, _PARAMS),
    st.builds("{}Item({}) {{ {} }}".format, _AT, _PARAMS, _METHOD_BODY),
)
_CONSTANTS = st.lists(st.sampled_from([
    "A", "B(1)", 'C("\x03", f(2, 3))', "D { void g() { if (a) { b(); } } }",
    "E(1) { int h() { return 1; } }",
]), max_size=3).map(", ".join)


def _declare(at, modifiers, kind, name, generic, components, supers, constants, members):
    """A class, interface, enum or record: an enum's body opens with its
    constants, and a record's components follow its name."""
    if kind == "record":
        return f"{at}{modifiers}record {name}{generic}({components}){supers} {{ {members} }}"
    body = f"{constants}; {members}" if kind == "enum" else members
    return f"{at}{modifiers}{kind} {name}{generic}{supers} {{ {body} }}"


def _type_declarations(members):
    return st.builds(_declare, _AT, _MODIFIERS,
                     st.sampled_from(["class", "abstract class", "interface", "enum", "record"]),
                     _CLASS_NAMES, st.sampled_from(["", "<T extends Comparable<T>>"]),
                     st.lists(st.builds("{}{} {}".format, _AT, _TYPES, _NAMES),
                              max_size=3).map(", ".join),
                     st.sampled_from(["", " extends Base implements Runnable"]), _CONSTANTS,
                     st.lists(members, min_size=1, max_size=4).map("\n    ".join))


def _members(inner):
    return st.one_of(
        st.builds("{}{}int {}, {} = 2;".format, _AT, _MODIFIERS, _NAMES, _NAMES),
        st.just("public static final int LIMIT = 10;"),
        st.just('static final String NAME = "\x03";'),
        st.just('String q = """\x05""";'),
        st.builds("{}boolean {} = a < b, {};".format, _MODIFIERS, _NAMES, _NAMES),
        st.builds("Function<A, B> {} = v -> v, {} = w -> w;".format, _NAMES, _NAMES),
        st.builds("public Object {} = new Object() {{ int hidden; }};".format, _NAMES),
        st.builds("Comparator<Item> {} = new Comparator<Item>() {{ "
                  "public int compare(Item p, Item q) {{ {} }} }};".format, _NAMES, _METHOD_BODY),
        _METHOD,
        st.builds("static {{ {} }}".format, _METHOD_BODY),
        st.tuples(_NOISE, inner).map("".join),
        _type_declarations(inner),
    )


_FIELD = st.builds("{}{} {};".format, st.sampled_from(["", "public ", "static "]), _TYPES, _NAMES)
_CLASS = _type_declarations(st.recursive(_FIELD, _members, max_leaves=12))
_JAVA_SOURCES = st.builds(
    "{}{}{}{}\n{}".format,
    st.sampled_from(["", "package org.demo.core;\n", "  package a.b ;\n"]),
    st.lists(st.sampled_from(["import java.util.List;", "import static org.x.Y.z;",
                              "import java.io.*;", "import a.b.C;", "  import p.Q ;"]),
             max_size=5).map(lambda xs: "".join(x + "\n" for x in xs)),
    _NOISE, _CLASS,
    st.sampled_from(["", "class Second { int y; }\n", "interface Api { void go(); }\n"]),
)


def _filled(templates):
    return st.builds(_fill, templates, _FILLS)


# A member and a statement of each construct that is easy to misread; each
# relation has an @example for each
_CONSTRUCTS = {
    "record": ("record Pair<A, B>(A a, @Ann§ int b) implements Cmp { int sum() { return b; } }",
               "record Loc(int x, String s) { int twice() { return 2 * x; } }"),
    "arrow case": ("int pick(int k) { return switch (k) { case 1 -> f(); "
                   "case 2, 3 -> { if (a) { b(); } yield 2; } default -> throw new E(); }; }",
                   "switch (k) { case 1 -> f(); case 2 -> { if (a) { b(); } } "
                   "default -> throw new E(); }"),
    "text block": ('String q = """\x05""";', 'use("""\x05"""); if (a) { b(); }'),
    "annotation arguments": ("@Ann§ public int get(@Ann§ int a) { @Ann§ int v = a; return v; }",
                             "@a.b.Named§ final int v = f(1);"),
    "declarator list": ("boolean x = a < b, y; Function<A, B> f = v -> v, g = w -> w;",
                        "boolean p = a < b, q = c > d; int[] r = {1, 2}, s;"),
    "enum constants": ('enum Kind { A(1), B(f(2, 3)) { int g() { return 1; } }, C("\x03"); '
                       "Kind(int v) { } }",
                       "enum Loc { X { void g() { if (a) { b(); } } }, Y(2); }"),
}


def _host(member, statement=None):
    run = "" if statement is None else f" void run(int k) {{ {statement} }}"
    return f"class Host {{ {member}{run} }}"


def _for_each_construct(**make):
    """An @example for each construct, whose arguments `make` builds from its
    member and statement."""
    def add(test):
        for member, statement in _CONSTRUCTS.values():
            test = example(**{arg: f(member, statement) for arg, f in make.items()})(test)
        return test
    return add


def _scan(src):
    return scan_metrics(strip_comments_and_strings(src))


def _shape(metrics):
    """Scanner results as dicts and lists, without their line counts."""
    if is_dataclass(metrics):
        metrics = asdict(metrics)
    if isinstance(metrics, dict):
        return {k: _shape(v) for k, v in metrics.items() if k != "line_count"}
    if isinstance(metrics, list):
        return [_shape(v) for v in metrics]
    return metrics


# -- relation 1: what is not code changes no metric -----------------------------

@settings(max_examples=300)
@given(st.text(alphabet="/*\"'\\\nab {}\r@()", max_size=80) | _filled(_JAVA_SOURCES))
@_for_each_construct(src=lambda member, statement: _fill(_host(member, statement)))
def test_strip_keeps_every_character_it_does_not_blank(src):
    cleaned = strip_comments_and_strings(src)
    assert len(cleaned) == len(src)
    assert all(c == s or (c == " " and s != "\n") for c, s in zip(cleaned, src))


@settings(max_examples=300)
@given(_JAVA_SOURCES, _FILLS, _FILLS)
@_for_each_construct(template=_host, a=lambda *_: _TRICKY, b=lambda *_: _PLAIN)
def test_literal_comment_and_annotation_argument_text_changes_no_metric(template, a, b):
    """Rewriting the interior of literals and comments, and adding or removing
    annotation argument lists, changes line counts only."""
    assert _shape(_scan(_fill(template, a))) == _shape(_scan(_fill(template, b)))


@settings(max_examples=200)
@given(_JAVA_SOURCES, _FILLS, st.lists(st.one_of(
    st.just(" "), _INTERIORS[_BLOCK].map(" /*{}*/".format),
    _INTERIORS[_LINE].map(" //{}\n".format)), min_size=1, max_size=6))
@_for_each_construct(template=_host, fills=lambda *_: _TRICKY,
                     comments=lambda *_: [" /* { */", " ", " // } else\n"])
def test_a_comment_between_tokens_changes_no_metric(template, fills, comments):
    """The blanks of the template, where tokens meet, taken in turn by the
    comments, or by a blank that stays one."""
    turns = itertools.cycle(comments)
    commented = re.sub(" ", lambda _: next(turns), template)
    assert _shape(_scan(_fill(commented, fills))) == _shape(_scan(_fill(template, fills)))


# -- relation 2: names are only names ----------------------------------------

_KEYWORDS = frozenset(
    "abstract assert boolean break byte case catch char class const continue default do "
    "double else enum extends final finally float for goto if implements import instanceof "
    "int interface long native new package private protected public return short static "
    "strictfp super switch synchronized this throw throws transient try void volatile while "
    "true false null var record yield sealed permits when".split())
_LOWER_NAME_RE = re.compile(r"(?<![\w$])[a-z][\w$]*")


@settings(max_examples=200)
@given(_filled(_JAVA_SOURCES),
       st.lists(st.from_regex(r"[a-z][a-z0-9]{0,5}", fullmatch=True).filter(
           lambda s: s not in _KEYWORDS), unique=True, max_size=30))
@_for_each_construct(src=lambda member, statement: _fill(_host(member, statement)),
                     names=lambda *_: ["zz", "q9", "item", "counted"])
# a record member whose name holds `$` is a class, renamed as a whole
@example(src="class Host { record x$1(int a) { int m() { return a; } } }", names=["zz"])
def test_renaming_lower_case_names_changes_only_the_names(src, names):
    """Each lower-case name that is not a keyword gets another, one to one;
    `_`-names past the drawn ones cannot meet them."""
    old = sorted(set(_LOWER_NAME_RE.findall(src)) - _KEYWORDS)
    new = dict(zip(old, names + [f"r_{i}" for i in range(len(names), len(old))]))
    renamed = _scan(_LOWER_NAME_RE.sub(lambda m: new.get(m.group(), m.group()), src))
    expected = _scan(src)
    expected.imported_packages = {".".join(new.get(p, p) for p in package.split("."))
                                  for package in expected.imported_packages}
    for c in expected.classes:
        c.name = new.get(c.name, c.name)
        for m in c.methods:
            m.name = new.get(m.name, m.name)
    assert renamed == expected


# -- relation 3: a method adds its own metrics to its class -------------------

@settings(max_examples=200)
@given(_filled(_CLASS), _filled(_METHOD))
@_for_each_construct(cls=lambda member, _: _fill(_host(member)),
                     method=lambda _, statement: _fill(f"int run(int k) {{ {statement} }}"))
def test_appending_a_method_adds_exactly_its_metrics(cls, method):
    host, *nested = _scan(cls).classes
    alone, *local = _scan(f"class Z {{ {method} }}").classes
    (m,) = alone.methods
    after, *others = _scan(f"{cls[:-1]} {method} }}").classes
    assert _shape(after.methods) == _shape(host.methods + [m])
    assert (after.method_count, after.ncss, after.public_member_count, after.field_count) == (
        host.method_count + 1, host.ncss + m.ncss, host.public_member_count + m.is_public,
        host.field_count)
    assert _shape(others) == _shape(nested + local)


# -- relation 4: a class scans the same wherever it is declared ---------------

def _nest(kind, depth, flat=False):
    """`depth` classes, each declaring the next in the place `kind` names:
    a method body, the class body, an anonymous class in a method, or a
    switch case. Flat, each is declared after the one that would hold it."""
    src = ""
    for k in reversed(range(depth)):
        held = "" if flat else src
        inner = {
            "local": f"x = 1;\n        {held}",
            "member": "x = 1;",
            "anonymous": "Runnable r = new Runnable() {\n            public void run() "
                         f"{{ if (a) {{ go(); }} {held} }}\n        }};",
            "switch": f"switch (k) {{\n        case 1: {held} break;\n"
                      "        default: go();\n        }",
        }[kind]
        member = held if kind == "member" else ""
        src = (f"class C{k} extends Base{k} {{\n    int f{k};\n    {member}\n"
               f"    void m(int k) {{\n        if (a && b) {{ y = 2; }}\n        {inner}\n"
               f"        return;\n    }}\n}}\n") + (src if flat else "")
    return src


def _move(host, moved, local):
    """(host and moved class side by side, moved declared inside host): as a
    member, or as a local class of a method that is empty otherwise."""
    if local:
        return (f"{host[:-1]} void mv() {{ }} }}\n{moved}",
                f"{host[:-1]} void mv() {{ {moved} }} }}")
    return f"{host}\n{moved}", f"{host[:-1]} {moved} }}"


@settings(max_examples=200)
@given(_filled(_CLASS), _filled(_CLASS), st.booleans())
@_for_each_construct(host=lambda member, _: _fill(_host(member)),
                     moved=lambda member, statement: _fill(_host(member, statement)),
                     local=lambda *_: True)
def test_moving_a_class_into_another_changes_neither(host, moved, local):
    apart, inside = _move(host, moved, local)
    assert _shape(_scan(inside)) == _shape(_scan(apart))


@pytest.mark.parametrize("kind", ["local", "member", "anonymous", "switch"])
@pytest.mark.parametrize("depth", range(1, 7))
def test_nested_classes_scan_as_they_do_side_by_side(kind, depth):
    nested, flat = _nest(kind, depth), _nest(kind, depth, flat=True)
    assert _shape(_scan(nested)) == _shape(_scan(flat))


@pytest.mark.parametrize("kind", ["local", "member", "anonymous", "switch"])
@pytest.mark.parametrize("depth", range(1, 7))
def test_a_nest_cut_off_mid_file_keeps_only_what_it_declares(kind, depth):
    """A file cut off mid-way leaves comments, strings and braces open. It
    declares the classes the whole file opens first, and each keeps the
    methods that close before the cut, as they are, and counts no more."""
    src = _nest(kind, depth)
    whole, cut = _scan(src).classes, _scan(src[: len(src) // 2]).classes
    assert cut and [c.name for c in cut] == [c.name for c in whole[: len(cut)]]
    for part, full in zip(cut, whole):
        assert _shape(part.methods) == _shape(full.methods[: len(part.methods)])
        for count in ("method_count", "field_count", "public_member_count", "ncss",
                      "unique_coupled_types"):
            assert getattr(part, count) <= getattr(full, count)


# -- relation 5: NPath composes as Nejmeh (1988) defines it --------------------

def _npath(src):
    return npath_of_block(strip_comments_and_strings(src))


@settings(max_examples=300)
@given(_filled(_METHOD_BODY), _filled(_METHOD_BODY))
@_for_each_construct(a=lambda _, statement: _fill(statement),
                     b=lambda _, statement: _fill(f"if (c) {{ {statement} }} x = 1;"))
def test_npath_composes(a, b):
    na, nb = _npath(a), _npath(b)
    assert _npath(f"{a} {b}") == na * nb
    assert _npath(f"if (c) {{ {a} }}") == na + 1
    assert _npath(f"if (c) {{ {a} }} else {{ {b} }}") == na + nb
    for loop in ("while (c) {{ {} }}", "for (int i = 0; i < n; i++) {{ {} }}",
                 "for (Item it : items) {{ {} }}", "do {{ {} }} while (c);"):
        assert _npath(loop.format(a)) == na + 1
    # a group of labels is one path, however many labels it has
    assert _npath(f"switch (k) {{ case 1: case 2: {{ {a} }} break; case 3: {{ {b} }} }}") == (
        na + nb + 1)
    assert _npath(f"switch (k) {{ case 1: {{ {a} }} break; default: {{ {b} }} }}") == na + nb
    assert _npath(f"switch (k) {{ default -> {{ {a} }} case 1, 2 -> {{ {b} }} }}") == na + nb
    assert _npath(f"x = switch (k) {{ case 1 -> {{ {a} }} case 2 -> 3; }};") == na + 2


# -- a switch counts its own labels --------------------------------------------

def _labels(body):
    (method,) = _scan(f"class A {{ void m(int k) {{ {body} }} }}").classes[0].methods
    return method.switch_label_count


@settings(max_examples=100)
@given(_filled(_METHOD_BODY), _filled(_METHOD_BODY))
@example("switch (a) { case 1: x(); }", "switch (b) { case 2: y(); default: z(); }")
@_for_each_construct(a=lambda _, statement: _fill(statement),
                     b=lambda _, statement: _fill(f"switch (k) {{ case 1: {statement} }}"))
def test_the_labels_of_a_sequence_add_up(a, b):
    assert _labels(f"{a} {b}") == _labels(a) + _labels(b)


@settings(max_examples=100)
@given(_filled(_METHOD_BODY))
@_for_each_construct(body=lambda _, statement: _fill(
    f"switch (k) {{ case 1: {statement} break; default: go(); }}"))
def test_a_switch_in_a_case_adds_its_own_labels(body):
    own = _labels(body)
    outer = f"switch (j) {{ case 1: {body} break; case 2: default: go(); }}"
    assert _labels(outer) == own + 3
    assert _labels(f"switch (j) {{ case 1 -> {{ {body} }} default -> go(); }}") == own + 2


def test_a_switch_counts_only_its_own_labels():
    nested = "switch (k) { case 1: switch (j) { case 2: a(); case 3: b(); } case 4: c(); }"
    assert _methods(f"class A {{ void m(int k, int j) {{ {nested} }} }}") == [("m", 2, 5, 4)]


def test_a_class_right_after_a_case_label_leaves_the_label_to_its_method():
    """The class header took in the label, and the method's copy was cut from
    there: decision points 0, NPath 1 and one label."""
    src = ("class A { void m(int k) { switch (k) { case 1: class L { } break; "
           "default: go(); } } }")
    a, local = scan_metrics(strip_comments_and_strings(src)).classes
    (m,) = a.methods
    assert (m.decision_points, m.npath, m.switch_label_count) == (1, 2, 2)
    assert local.name == "L" and local.methods == []


# -- hand-written sources --------------------------------------------------------

@pytest.mark.parametrize("src,members,lines", [
    # two declarations share one brace, and neither holds what follows
    ("class A {\n class B\n class C {\n }\n int x;\n}",
     [("A", [], 1, 2), ("B", [], 0, 1), ("C", [], 0, 1)], 6),
    ("class A { class B class C {} void m() { class L { int f; } x(); } }",
     [("A", ["m"], 0, 3), ("B", [], 0, 1), ("C", [], 0, 1), ("L", [], 1, 2)], 1),
    ("class A { void m() { for (int i = 0; i < n; i++) class L { int f; } } }",
     [("A", ["m"], 0, 5), ("L", [], 1, 2)], 1),
    ("class A { int v;\n  int get() {\n    class L { int w; }\n    return v;\n  }\n}",
     [("A", ["get"], 1, 4), ("L", [], 1, 2)], 6),
    # a member whose braces do not close ends the scan of its class
    ("class A { int x; void m() { if (a) { y(); ", [("A", [], 1, 2)], 1),
])
def test_a_class_declared_in_an_odd_place_is_its_own(src, members, lines):
    classes = _scan(src).classes
    assert [(c.name, [m.name for m in c.methods], c.field_count, c.ncss)
            for c in classes] == members
    assert classes[0].line_count == lines


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


# -- lexer and stripper edge cases ---------------------------------------------

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
def test_lexer_edge_case_finds_the_classes_it_declares(src, classes):
    cleaned = strip_comments_and_strings(src)
    assert [c.name for c in scan_metrics(cleaned).classes] == classes


@pytest.mark.parametrize("src,cleaned,classes", [
    ('s = "open;\nint x; c = \'{;\nclass Y {}',
     's = "     \nint x; c = \'  \nclass Y {}', ["Y"]),
    ("'\\\n", "' \n", []),
    # the escaped line break does not end the literal, so the class is in it
    ("x = '\\\nclass Y {}", "x = ' \n" + " " * 10, []),
    ('s = "a\\\nb"; class Z {}', 's = "  \n "; class Z {}', ["Z"]),
])
def test_a_line_break_ends_a_string_or_char_literal_unless_escaped(src, cleaned, classes):
    assert strip_comments_and_strings(src) == cleaned
    assert [c.name for c in scan_metrics(cleaned).classes] == classes


# -- line-anchored import pattern ------------------------------------------

# the line-anchored import pattern before blank runs stopped being rescanned;
# kept as the oracle for the current one
_OLD_IMPORT_RE = re.compile(r"^\s*import\s+(?:static\s+)?([\w.]+(?:\.\*)?)\s*;",
                            re.MULTILINE)

# lines of leading whitespace (newlines and non-ASCII spaces included), a
# keyword, spacing, a name and maybe the semicolon
_HEAD_LINE = st.tuples(
    st.text(" \t\n\r\x0b\x0c\x85 ", max_size=4),
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
    # an import's package is all but its last name, or the name when it has one
    assert fm.imported_packages == {p.rpartition(".")[0] or p for p in old}


# -- every searched pattern lets the engine skip ahead -------------------------

# Each pattern as it was before it was rewritten to start with a literal, a
# class or alternatives that each start with a literal, with how the scanner
# read its matches and how it reads the new pattern's, and the text that the
# new one is searched in before the old one's (`\n` stands for a MULTILINE `^`)
def _span_and_groups(m):
    return m.span(), m.groups()


def _read_alike(old):
    return old, _span_and_groups, _span_and_groups, ""


_OLD_PATTERNS = {
    "_LITERAL_RE": (re.compile(
        r'''//[^\n]*|/\*.*?(?:\*/|\Z)|(""")((?:\\.?|(?!""")[^\\])*)(?:""")?'''
        r"""|(["'])((?:\\.?|(?!\3)[^\\\n])*)\3?""", re.DOTALL),
        lambda m: (m.span(), m.span(2 if m.group(1) else 4 if m.group(3) else 0)),
        lambda m: (m.span(), m.span(m.lastindex or 0)), ""),
    "_ANNOTATION_OR_PAREN_RE": _read_alike(re.compile(r"@\s*[\w$.]+\s*\(|[()]")),
    "_IMPORT_RE": (re.compile(r"^[^\S\n]*import\s+(?:static\s+)?([\w.]+(?:\.\*)?)\s*;",
                              re.MULTILINE),
                   _span_and_groups, lambda m: ((m.start(), m.end() - 1), m.groups()), "\n"),
    "_LEX_RE": (re.compile(
        r"[(){};:]|(\.\s*(?:class|interface|enum)\s+[\w$]+)"
        r"|(?:c(?<![\w$]c)lass|i(?<![\w$]i)nterface|e(?<![\w$]e)num)\s+([\w$]+)"
        r"|r(?<![\w$]r)ecord\s+([\w$]+)(?=\s*[(<])"),
        lambda m: (m.span(), None if m.group(1) else m.group(2) or m.group(3)),
        lambda m: (m.span(), m[m.lastindex] if m.lastindex else None), ""),
    "_NPATH_KEYWORD_RE": (re.compile(r"\b(if|for|while|do|switch)\b"),
                          lambda m: (m.span(), m.group(1)), lambda m: (m.span(), m.group()), ""),
    "_SWITCH_BODY_RE": (
        re.compile(r"\{|\b(case\b[^:{};]*?|default\s*)(?::|->)"),
        lambda m: (m.span(), m.lastindex is not None and m.group(1).startswith("default")),
        lambda m: (m.span(), m.group() != "{" and m.group()[0] == "d"), ""),
    "_DECISION_KEYWORD_RE": _read_alike(re.compile(r"\b(?:if|while|for|case|catch)\b")),
    "_NCSS_HEADER_RE": _read_alike(
        re.compile(r"\b(?:if|else|for|while|do|switch|try|catch|finally)\b")),
    "_TYPE_TOKEN_RE": _read_alike(re.compile(r"(?<![\w$])[A-Z][\w$]*")),
    "_NAME_AT_END_RE": _read_alike(re.compile(r"([\w$]+)\s*$")),
    "_SPLIT_RE": _read_alike(re.compile(r"(?<![\w$])[A-Z][\w$]*\s*<|[()\[\]>,]")),
    **{f"_{word.upper()}_RE": _read_alike(re.compile(rf"\b{word}\b"))
       for word in ("switch", "public", "enum", "abstract", "static", "final")},
}
_PATTERN_TOKENS = ["{", "}", "(", ")", "[", "]", ";", ":", ",", " ", "\n", "\t", "x", "$", "a$b",
                   "Foo", "Foo.class", ". class X", "class", "interface", "enum", "record",
                   "if", "else", "for", "while", "do", "switch", "case", "default", "try",
                   "catch", "finally", "public", "abstract", "static", "final", "->", "?", "<",
                   ">", "//", "/*", "*/", "*", "/", '"', "'", '"""', "\\", "@A", "@ a.b (",
                   "import", "import a.b;", "A<B>", "é", "_if", "if_", "$if", "Foo$1", "\r"]


@settings(max_examples=200)
@given(st.one_of(_filled(_JAVA_SOURCES), st.lists(_HEAD_LINE, max_size=8).map("\n".join),
                 st.lists(st.sampled_from(_PATTERN_TOKENS), max_size=60).map("".join)),
       st.tuples(st.integers(0, 2000), st.integers(0, 2000)))
@example("if (a) { do { x(); } while (b); } enum E { A } class C {", (0, 9999))  # text start
@example("$if a$class x$1; class $Q { case$: default$ -> $switch xdefault: _case 1: } "
         "record R$1(int a) {", (0, 99))  # names that run into a keyword
@example("Foo.class; x. class Y { int.enum z = Foo . interface I;", (0, 99))  # class literals
@example("class A { /* if (a) { case 1: } ** / class B {", (0, 99))  # an unclosed comment
@example('q = """\n a "" \\""" b \n""" + "\\"" + \'\\\'\' + """x', (0, 99))  # text blocks
def test_each_rewritten_pattern_matches_as_its_old_one(text, window):
    """The same matches, read as the scanner reads them, over the whole text
    and between a start and an end, where look-behinds see the text before
    the start."""
    pos, endpos = sorted(window)
    for name, (old, read_old, read_new, before) in _OLD_PATTERNS.items():
        new = getattr(smellscan, name)
        for start, end in ((0, len(text)), (pos, endpos)):
            assert [read_old(m) for m in old.finditer(text, start, end)] == [
                read_new(m) for m in new.finditer(before + text, start, end + len(before))], name


try:
    from re import _parser as sre_parse  # Python 3.11 and later
except ImportError:
    import sre_parse

_MATCHED_ONLY = {"_BLANKS_RE", "_ELSE_RE", "_GETTER_RE", "_SETTER_RE"}  # never searched


def _skips_ahead(pattern: re.Pattern) -> bool:
    """Whether `re` searches for pattern by skipping ahead to a character that
    can start a match: the pattern cannot match empty text, and its first
    item, inside any groups, is a literal, a class, or alternatives that each
    start with a literal. Otherwise it tries the pattern at every position."""
    parsed = sre_parse.parse(pattern.pattern, pattern.flags)
    items = parsed.data
    while items and items[0][0] is sre_parse.SUBPATTERN:
        items = items[0][1][-1].data
    if parsed.getwidth()[0] == 0 or not items:
        return False
    op, av = items[0]
    if op is sre_parse.BRANCH:
        return all(b.data and b.data[0][0] is sre_parse.LITERAL for b in av[1])
    return op is sre_parse.LITERAL or op is sre_parse.IN


def test_every_searched_pattern_lets_the_engine_skip_ahead():
    """So a search costs little in the blanked comments that make up most of
    a large file, on every Python the project supports."""
    source = inspect.getsource(smellscan)
    assert not re.search(r"\bre\.(?:search|finditer|findall|sub|split)\(", source)
    searched = {name: p for name, p in vars(smellscan).items()
                if isinstance(p, re.Pattern) and name not in _MATCHED_ONLY}
    for name in _MATCHED_ONLY:
        assert not re.search(rf"{name}\.(?:search|finditer|findall|sub|split)\(", source)
    assert set(_OLD_PATTERNS) <= set(searched)
    assert [name for name, p in searched.items() if not _skips_ahead(p)] == []
    assert [name for name, (old, *_) in _OLD_PATTERNS.items() if _skips_ahead(old)] == []


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


def _times(n, text):
    """n copies of text, the k-th with each `#` replaced by k."""
    return " ".join(text.replace("#", str(k)) for k in range(n))


@pytest.mark.parametrize("rule,key,source", [
    (SmellRule.CouplingBetweenObjects, "coupling_threshold",
     lambda n: f"class A {{ {_times(n, 'T# f#;')} }}"),
    (SmellRule.SwitchDensity, "switch_density_threshold",
     lambda n: f"class A {{ void m() {{ switch (k) {{ case 1: {_times(n, 'x();')} }} }} }}"),
    (SmellRule.ExcessiveParameterList, "parameter_threshold",
     lambda n: f"class A {{ void m({', '.join(f'int p{k}' for k in range(n))}) {{ }} }}"),
    (SmellRule.TooManyMethods, "method_threshold",
     lambda n: f"class A {{ {_times(n, 'void m#() { }')} }}"),
    (SmellRule.ExcessivePublicCount, "public_count_threshold",
     lambda n: f"class A {{ {_times(n, 'public int f#;')} }}"),
    (SmellRule.ExcessiveMethodLength, "method_length_threshold",
     lambda n: "class A { void m() {" + "\n" * (n - 1) + "} }"),
    (SmellRule.ExcessiveClassLength, "class_length_threshold",
     lambda n: "class A {" + "\n" * (n - 1) + "}"),
    (SmellRule.NcssCount, "ncss_method_threshold",
     lambda n: f"class A {{ void m() {{ {_times(n - 1, 'x();')} }} }}"),
    (SmellRule.CyclomaticComplexity, "cyclo_npath_threshold",
     lambda n: f"class A {{ void m() {{ {_times(n - 1, 'if (a) x();')} }} }}"),
    (SmellRule.NPathComplexity, "cyclo_npath_threshold",
     lambda n: f"class A {{ void m() {{ {' else '.join(['if (a) x();'] * (n - 1))} }} }}"),
])
def test_each_threshold_is_strict_greater_than(rule, key, source):
    thresholds = RuleThresholds(**{key: 3})
    assert not scan_source(source(3), thresholds)[rule]
    assert scan_source(source(4), thresholds)[rule]


def test_a_package_is_allowed_by_its_own_prefix_or_a_parent_one():
    thresholds = RuleThresholds(allowed_package_prefixes=("org.demo",))
    allowed = "import org.demo.C;\nimport org.demo.sub.D;\nclass A { }"
    assert not scan_source(allowed, thresholds)[SmellRule.LoosePackageCoupling]
    assert scan_source("import org.demox.D;\nclass A { }", thresholds)[
        SmellRule.LoosePackageCoupling]


def test_a_data_class_is_mostly_accessors_and_no_method_over_cyclomatic_two():
    def cls(ifs):
        getters = _times(4, "int get#() { return f#; }")
        return f"class A {{ {getters} void m() {{ {_times(ifs, 'if (a) x();')} }} }}"
    assert scan_source(cls(1))[SmellRule.DataClass]
    assert not scan_source(cls(2))[SmellRule.DataClass]
    assert scan_source("class A { int f; int get() { return f; } }")[SmellRule.DataClass]


def test_scan_source_counts_no_comment_or_literal():
    src = 'class A { /* int a; int b; */ String s = "int c; int d;"; }'
    assert not scan_source(src, RuleThresholds(field_threshold=1))[SmellRule.TooManyFields]


# -- smell vector record -----------------------------------------------------

def test_smell_vector_record_roundtrip():
    flags = tuple(i % 3 == 0 for i in range(16))
    vec = SmellVector(flags, raw_cyclomatic_max=7, raw_npath_max=12)
    assert SmellVector.from_record(vec.to_record()) == vec


def test_smell_vector_requires_sixteen_flags():
    with pytest.raises(ValueError):
        SmellVector(flags=(True,) * 15)
