"""Parser tests: test-method trees, syntax verdicts, focal file structure."""

from __future__ import annotations

import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqual import parser
from tqual.analyzer import analyze
from tqual.lexer import KIND, OFFSET, TEXT, TokenKind, scan
from tqual.nodes import Invocation, SyntaxDiagnostic
from tqual.parser import (
    MAX_NESTING,
    check_syntax,
    parse_focal_file,
    parse_test_method,
)


def invocations(source: str) -> list[Invocation]:
    tree = parse_test_method(source)
    out = []

    def walk(stmts):
        for stmt in stmts:
            out.extend(stmt.invocations)
            walk(stmt.children)

    walk(tree.statements())
    return out


# ── test method parsing ──────────────────────────────────────────────


def test_simple_method_header():
    tree = parse_test_method(
        "[TestMethod]\npublic void TestStop()\n{\n    var x = 1;\n}"
    )
    assert tree.method_name == "TestStop"
    assert not tree.has_fatal
    assert [s.kind for s in tree.statements()] == ["local-declaration"]


def test_statement_kinds():
    tree = parse_test_method(
        """[TestMethod]
public void TestRun()
{
    var x = new Service();
    x.Run();
    if (x.Done) { return; }
    while (x.Busy) { x.Wait(); }
    foreach (var item in x.Items) { item.Check(); }
    try { x.Close(); } catch (Exception e) { throw; }
    using (var scope = x.Scope()) { scope.Touch(); }
    do { x.Tick(); } while (x.Busy);
    for (var i = 0; i < 3; i++) { x.Step(); }
    switch (x.State) { default: break; }
    return;
}"""
    )
    assert not tree.has_fatal
    kinds = [s.kind for s in tree.statements()]
    assert kinds == [
        "local-declaration", "expression-statement", "if", "while",
        "foreach", "try", "using-statement", "do", "for", "switch", "return",
    ]


def test_nested_statements_are_children():
    tree = parse_test_method(
        "[TestMethod]\npublic void T()\n{\n    if (x) { a.Run(); b.Stop(); }\n}"
    )
    (if_stmt,) = tree.statements()
    assert if_stmt.kind == "if"

    def descendant_kinds(stmt):
        for child in stmt.children:
            yield child.kind
            yield from descendant_kinds(child)

    assert list(descendant_kinds(if_stmt)).count("expression-statement") == 2


def test_expression_bodied_method():
    source = "[TestMethod]\npublic void TestRun() => Assert.IsTrue(c.Run());"
    tree = parse_test_method(source)
    assert not tree.has_fatal
    assert any(inv.chain == ("Assert", "IsTrue") for inv in invocations(source))


@pytest.mark.parametrize("body, span, diags", [
    # At end of input the expression statement is empty at the end of the source.
    (" =>", (37, 37), [("method body missing", 35)]),
    (" => ;", (38, 39), [("method body missing", 38)]),
    (" => x.Run();", (38, 46), []),
], ids=["end-of-input", "semicolon", "expression"])
def test_an_expression_body_needs_an_expression(body, span, diags):
    source = "[TestMethod]\npublic void TestRun()" + body
    tree = parse_test_method(source)
    assert [(s.kind, s.span) for s in tree.statements()] == [("expression-statement", span)]
    assert diagnostics(tree) == diags
    assert check_syntax(source).correct == (not diags)


def test_bodiless_method_declaration():
    tree = parse_test_method("[TestMethod]\npublic void TestRun();")
    assert not tree.has_fatal
    assert tree.statements() == []


def test_ternary_sets_flag():
    tree = parse_test_method(
        "[TestMethod]\npublic void T()\n{\n    var x = flag ? 1 : 0;\n}"
    )
    assert tree.statements()[0].has_ternary


@pytest.mark.parametrize("statement, ternary", [
    # A '?' closed by its ')' leaves a named argument's ':' unmatched, also
    # one back at the '?''s depth inside a later call.
    ("var r = M((int?)a, b: 1);", False),
    ("var r = M((int?)a, F(b: 1));", False),
    ("var r = x ? F(a) : b;", True),
])
def test_a_colon_is_a_ternary_only_at_its_open_question_mark(statement, ternary):
    source = f"{HEAD}    {statement}\n}}"
    assert analyze(source, "M").conditional_or_exception is ternary


def test_statement_spans_index_the_source():
    source = "[TestMethod]\npublic void T()\n{\n    if (x) { a.Run(); }\n    b.Stop();\n}"
    tree = parse_test_method(source)
    assert tree.source == source
    if_stmt, stop = tree.statements()
    assert source[slice(*if_stmt.span)] == "if (x) { a.Run(); }"
    (block,) = if_stmt.children
    assert source[slice(*block.span)] == "{ a.Run(); }"
    assert source[slice(*block.children[0].span)] == "a.Run();"
    assert source[slice(*stop.span)] == "b.Stop();"


def test_partial_body_survives_fatal_parse():
    tree = parse_test_method(
        "[TestMethod]\npublic void T()\n{\n    Assert.IsTrue(x)\n}"
    )
    assert tree.has_fatal
    assert tree.statements(), "recovered statements should be available"


# ── invocation extraction ────────────────────────────────────────────


def test_rooted_dotted_chain():
    invs = invocations("[TestMethod]\nvoid T()\n{\n    command.Stop();\n}")
    assert invs == [Invocation(chain=("command", "Stop"))]


def test_constructor_marked():
    invs = invocations("[TestMethod]\nvoid T()\n{\n    var c = new UploadCommand();\n}")
    ctor = [i for i in invs if i.is_constructor]
    assert len(ctor) == 1
    assert ctor[0].callee == "UploadCommand"


def test_chained_call_off_expression_is_unrooted():
    invs = invocations("[TestMethod]\nvoid T()\n{\n    command.Stop().Wait();\n}")
    callees = {(i.callee, i.rooted) for i in invs}
    assert ("Stop", True) in callees
    assert ("Wait", False) in callees


def test_lambda_argument_invocations_are_extracted():
    invs = invocations(
        "[TestMethod]\nvoid T()\n{\n"
        "    Assert.ThrowsException<InvalidOperationException>(() => c.Run());\n}"
    )
    callees = {i.callee for i in invs}
    assert "ThrowsException" in callees
    assert "Run" in callees


def test_generic_method_call():
    for statement, chain in [
        ("service.Create<Widget>(x);", ("service", "Create")),
        # Generic argument lists closed by '>>'.
        ("var r = s.Get<List<int>>(1);", ("s", "Get")),
        ("Assert.AreEqual<Dictionary<string, List<int>>>(a, b);", ("Assert", "AreEqual")),
    ]:
        invs = invocations("[TestMethod]\nvoid T()\n{\n    " + statement + "\n}")
        assert any(i.chain == chain for i in invs)


def test_this_qualified_call():
    invs = invocations("[TestMethod]\nvoid T()\n{\n    this.Stop();\n}")
    assert any(i.callee == "Stop" and i.rooted for i in invs)


# ── syntax verdicts ──────────────────────────────────────────────────


def test_balanced_method_is_correct():
    verdict = check_syntax("[TestMethod]\npublic void T()\n{\n    x.Run();\n}")
    assert verdict.correct


def test_missing_close_brace_is_fatal():
    verdict = check_syntax("[TestMethod]\npublic void T()\n{\n    x.Run();")
    assert not verdict.correct


def test_missing_semicolon_is_fatal():
    verdict = check_syntax("[TestMethod]\npublic void T()\n{\n    var x = 1\n}")
    assert not verdict.correct


def test_missing_method_name_is_fatal():
    verdict = check_syntax("[TestMethod]\npublic void ()\n{\n}")
    assert not verdict.correct


def test_extra_close_brace_is_fatal():
    verdict = check_syntax("[TestMethod]\npublic void T()\n{\n    x.Run();\n}\n}")
    assert not verdict.correct


def test_unterminated_string_is_fatal():
    verdict = check_syntax('[TestMethod]\npublic void T()\n{\n    var s = "abc;\n}')
    assert not verdict.correct


def test_verdict_diagnostics_are_a_tuple():
    verdict = check_syntax("[TestMethod]\npublic void T()\n{\n}")
    assert isinstance(verdict.diagnostics, tuple)


@given(st.text(max_size=200))
@settings(max_examples=150, deadline=None)
def test_check_syntax_is_total(source):
    """Arbitrary input produces a verdict, never an exception."""
    verdict = check_syntax(source)
    assert isinstance(verdict.correct, bool)


# C#-like token soups, unbalanced and mismatched brackets included, and
# runs of one opener from shallow to twice the nesting cap.
_SOUPS = st.one_of(
    st.lists(
        st.sampled_from(
            ["{", "}", "(", ")", "[", "]", ";", "<", ">>", "x", ".", "Run", "var",
             "=", "1", "[TestMethod]\n", "public void T()", "\n", " ", '"s"',
             "if", "else", "namespace N {", "class C {", "enum E {"]
        ),
        max_size=60,
    ).map("".join),
    st.builds(
        lambda opener, depth, tail: opener * depth + tail,
        st.sampled_from(["{", "(", "if (x) {", "namespace N {", "class C {"]),
        st.integers(0, 2 * MAX_NESTING),
        st.sampled_from(["", "x.Run();", "}}}"]),
    ),
)


@given(_SOUPS)
@settings(max_examples=100, deadline=None)
def test_parse_test_method_is_total(source):
    tree = parse_test_method(source)
    assert isinstance(tree.has_fatal, bool)
    tree.statements()


@given(_SOUPS)
@settings(max_examples=100, deadline=None)
def test_parse_focal_file_is_total(source):
    tree = parse_focal_file(source)
    assert all(isinstance(cls.name, str) for cls in tree.walk_classes())


# ── recovery on broken or unusual input ──────────────────────────────
#
# These pin the exact trees and diagnostics the parser recovers, so the
# shared scanning code cannot drift on the edge cases each construct meets.


def outline(statements) -> list:
    return [(s.kind, outline(s.children)) if s.children else s.kind for s in statements]


def diagnostics(tree) -> list[tuple[str, int]]:
    return [(d.message, d.offset) for d in tree.diagnostics]


HEAD = "[TestMethod]\npublic void T()\n{\n"


@pytest.mark.parametrize("body, shape, diags, calls", [
    # An '(' left open runs to end of input; one closed by ']' too.
    ("    if (a.Run( { x.Stop(); }\n}", ["if"],
     [("unmatched '}'", 60), ("unclosed '('", 60), ("method body not closed", 60)],
     [("a", "Run"), ("x", "Stop")]),
    ("    if (a.Run(] { x.Stop(); }\n}", ["if"],
     [("unmatched ']'", 45), ("unclosed '('", 61), ("method body not closed", 61)],
     [("a", "Run"), ("x", "Stop")]),
    # case labels holding parens, a when clause or a ternary.
    ("    switch (k) { case (1): x.A(); break; case 2 when (y > 0): x.B(); break; }\n}",
     [("switch", ["expression-statement", "unknown-statement",
                  "expression-statement", "unknown-statement"])],
     [], [("x", "A"), ("x", "B")]),
    ("    switch (k) { case 1 ? 2 : 3: x.A(); break; default: x.C(); break; }\n}",
     [("switch", ["expression-statement", "unknown-statement",
                  "expression-statement", "unknown-statement"])],
     [], [("x", "A"), ("x", "C")]),
    # A case label never finds its ':' and swallows the rest.
    ("    switch (k) { case 1 } x.A();\n}", ["switch"],
     [("switch body not closed", 64), ("method body not closed", 64)], []),
    ("    switch (k) x.A();\n}", ["switch", "expression-statement"],
     [("switch body missing", 46)], [("x", "A")]),
    ("    try { x.A(); } catch (E e) x.B();\n}",
     [("try", [("block", ["expression-statement"])]), "expression-statement"],
     [("catch block missing", 62)], [("x", "A"), ("x", "B")]),
    # Statements outside the subset end at their block or at ';'.
    ("    lock (x) { x.A(); }\n    goto done;\n    done: x.B();\n}",
     ["unknown-statement", "unknown-statement", "expression-statement"],
     [], [("x", "A"), ("x", "B")]),
    ("    lock (x) { } ;\n    lock { ( ] ) ;\n}",
     ["unknown-statement", "expression-statement", "unknown-statement"],
     [("unmatched ']'", 63)], []),
    # Generic argument lists closed by '>>'.
    ("    List<List<int>> xs = Make();\n"
     "    Dictionary<string, List<int>> d = new Dictionary<string, List<int>>();\n}",
     ["local-declaration", "local-declaration"], [], [("Make",), ("Dictionary",)]),
    # try's finally block, present or not, and a catch filtered by when.
    ("    try { x.A(); } finally { x.B(); }\n}",
     [("try", [("block", ["expression-statement"]), ("block", ["expression-statement"])])],
     [], [("x", "A"), ("x", "B")]),
    ("    try { x.A(); } finally Stop();\n}",
     [("try", [("block", ["expression-statement"])]), "expression-statement"],
     [("finally block missing", 58)], [("x", "A"), ("Stop",)]),
    ("    try { x.A(); } catch (IOException e) when (e.Message != null) { x.B(); }\n}",
     [("try", [("block", ["expression-statement"]), ("block", ["expression-statement"])])],
     [], [("x", "A"), ("x", "B")]),
    # A do-statement without its ';' or without its while.
    ("    do { } while (x)\n}", [("do", ["block"])], [("do-statement missing ';'", 52)], []),
    ("    do { }\n}", [("do", ["block"])], [("do-statement missing 'while'", 42)], []),
    ("    const int n = 1;\n}", ["local-declaration"], [], []),
    # Nullable and array types declare locals too.
    ("    int? n = null;\n}", ["local-declaration"], [], []),
    ("    int[] xs = { 1 };\n}", ["local-declaration"], [], []),
    ("    string[,] grid = null;\n}", ["local-declaration"], [], []),
    # A body that ends in a bare const.
    ("    const", ["expression-statement"],
     [("unclosed '{'", 29), ("input ends mid-statement", 35), ("method body not closed", 35)],
     []),
])
def test_recovered_tree_is_pinned(body, shape, diags, calls):
    source = HEAD + body
    tree = parse_test_method(source)
    assert outline(tree.statements()) == shape
    assert diagnostics(tree) == diags
    assert [i.chain for i in invocations(source)] == calls


@pytest.mark.parametrize("body, diags", [
    # At end of input the offset is where trailing whitespace starts, or
    # else the start of the last token, comments included.
    ("    x.Run()", [("input ends mid-statement", 41), ("method body not closed", 41)]),
    ("    x.Run()  \n\t", [("input ends mid-statement", 42), ("method body not closed", 42)]),
    ("    x.Run();", [("method body not closed", 42)]),
    ("    x.Run();\n  ", [("method body not closed", 43)]),
    ("    x.Run(); // end", [("method body not closed", 44)]),
    ("    x.Run(); // end\n ", [("method body not closed", 50)]),
])
def test_end_of_input_diagnostic_offsets_are_pinned(body, diags):
    tree = parse_test_method(HEAD + body)
    assert diagnostics(tree) == [("unclosed '{'", 29)] + diags


# ── the end rule ─────────────────────────────────────────────────────
#
# Every statement that is neither a block nor a headed construct ends at its
# depth-zero ';'; the blocked keywords may also end at their block's '}'.
# Each body below is the whole method body, closed by the method's '}'.


@pytest.mark.parametrize("body, message", [
    # Keyword statements that stop at the closer without their ';'.
    ("sut.Run(); return", "statement missing ';'"),
    ("throw", "statement missing ';'"),
    ("using", "statement missing ';'"),
    ("while (x) { break }", "statement missing ';'"),
    ("while (x) { continue }", "statement missing ';'"),
    ("goto done", "statement missing ';'"),
    ("yield return 1", "statement missing ';'"),
    ("lock (x)", "statement missing ';'"),
    ("fixed (int* p = a)", "statement missing ';'"),
    ("unsafe", "statement missing ';'"),
    ("checked", "statement missing ';'"),
    ("unchecked", "statement missing ';'"),
    # Headed constructs with no statement before the closer.
    ("if (x)", "embedded statement missing"),
    ("if (a) x(); else", "embedded statement missing"),
    ("while (x)", "embedded statement missing"),
    ("for (;;)", "embedded statement missing"),
    ("foreach (var a in b)", "embedded statement missing"),
    ("using (x)", "embedded statement missing"),
    # Keywords that only continue a construct, found starting a statement.
    ("if (x) a(); b(); else c();", "'else' without its statement"),
    ("catch { } a();", "'catch' without its statement"),
    ("finally { } a();", "'finally' without its statement"),
    ("case 1: a();", "'case' without its statement"),
    # A switch section whose labels end at the switch's '}'.
    ("switch (k) { case 1: }", "switch section without a statement"),
    ("switch (k) { default: }", "switch section without a statement"),
    ("switch (k) { case 1: x(); break; case 2: }", "switch section without a statement"),
    ("switch (k) { case 1: case 2: }", "switch section without a statement"),
])
def test_a_statement_that_misses_its_end_is_fatal(body, message):
    source = f"{HEAD}    {body}\n}}"
    assert [d.message for d in parse_test_method(source).diagnostics] == [message]
    assert not check_syntax(source).correct


@pytest.mark.parametrize("body, shape", [
    ("return;", ["return"]),
    ("return x ? 1 : 2;", ["return"]),
    ("throw new X();", ["throw"]),
    ("using var x = Make();", ["using-statement"]),
    ("while (x) { break; }", [("while", [("block", ["unknown-statement"])])]),
    ("while (x) { continue; }", [("while", [("block", ["unknown-statement"])])]),
    ("goto done;\n    done: x.B();", ["unknown-statement", "expression-statement"]),
    ("switch (k) { case 1: goto case 2; case 2: break; }",
     [("switch", ["unknown-statement", "unknown-statement"])]),
    ("yield return 1;", ["unknown-statement"]),
    ("yield break;", ["unknown-statement"]),
    ("lock (x) { }", ["unknown-statement"]),
    ("checked { }", ["unknown-statement"]),
    ("unsafe { }", ["unknown-statement"]),
    ("fixed (int* p = a) { }", ["unknown-statement"]),
    ("if (a) x(); else y();", [("if", ["expression-statement", "expression-statement"])]),
    ("try { } catch (E e) when (f) { } finally { }", [("try", ["block", "block", "block"])]),
    ("switch (k) { case int n when n > 0: x.A(); break; default: x.B(); break; }",
     [("switch", ["expression-statement", "unknown-statement",
                  "expression-statement", "unknown-statement"])]),
    ("switch (k) { case 1: case 2: x(); break; }",
     [("switch", ["expression-statement", "unknown-statement"])]),
    ("switch (k) { case 1 when a > 0: break; }", [("switch", ["unknown-statement"])]),
    ("switch (k) { }", ["switch"]),
    ("switch (k) { case 1: { break; } }", [("switch", [("block", ["unknown-statement"])])]),
])
def test_a_statement_that_ends_by_the_rule_is_correct(body, shape):
    source = f"{HEAD}    {body}\n}}"
    assert outline(parse_test_method(source).statements()) == shape
    assert check_syntax(source).correct


_CALL_BLOCK = ("block", ["expression-statement"])


@pytest.mark.parametrize("body, shape, loop", [
    # 'await' prefixes the headed statement, last or not.
    ("await foreach (var x in xs) { x.Run(); }", [("foreach", [_CALL_BLOCK])], True),
    ("await foreach (var x in xs) { x.Run(); }\n    Stop();",
     [("foreach", [_CALL_BLOCK]), "expression-statement"], True),
    ("await using (var s = Open()) { s.Run(); }", [("using-statement", [_CALL_BLOCK])], False),
    ("await using (var s = Open()) { s.Run(); }\n    Stop();",
     [("using-statement", [_CALL_BLOCK]), "expression-statement"], False),
    # Without a '(' after the keyword, or with no keyword, nothing changes.
    ("await using var s = Open();", ["expression-statement"], False),
    ("await x;", ["local-declaration"], False),
])
def test_await_prefixes_a_headed_statement(body, shape, loop):
    source = f"{HEAD}    {body}\n}}"
    assert outline(parse_test_method(source).statements()) == shape
    assert check_syntax(source).correct
    assert analyze(source, "Run").conditional_or_exception is loop


@pytest.mark.parametrize("body, kind", [
    # Tuple, '::'-qualified, continued-generic and pointer types declare locals.
    ('(int, string) t = (1, "a");', "local-declaration"),
    ("global::System.Int32 n = 0;", "local-declaration"),
    ("A.B<C>.D d = null;", "local-declaration"),
    ("int* p = &v;", "local-declaration"),
    ("Dictionary<string, (int, int)> m = null;", "local-declaration"),
    # A deconstruction and a product stay expressions.
    ("(a, b) = (b, a);", "expression-statement"),
    ("Assert.AreEqual(a * b, c);", "expression-statement"),
    ("(x as IDisposable).Dispose();", "expression-statement"),
    # A predefined type is a whole name, never a qualified name's part.
    ("System.int n = 0;", "expression-statement"),
])
def test_a_statement_is_a_declaration_when_a_type_and_a_name_start_it(body, kind):
    source = f"{HEAD}    {body}\n}}"
    assert outline(parse_test_method(source).statements()) == [kind]
    assert check_syntax(source).correct


# ── token diagnostics against the two passes they merged ─────────────

_OPENERS = {"(": ")", "[": "]", "{": "}"}
_CLOSERS = {v: k for k, v in _OPENERS.items()}


def reference_lex_diagnostics(significant):
    return [SyntaxDiagnostic("unterminated literal, comment, or unsupported character",
                             t[OFFSET])
            for t in significant if t[KIND] is TokenKind.ERROR]


def reference_balance_diagnostics(significant):
    stack = []
    for tok in significant:
        if tok[KIND] is not TokenKind.PUNCTUATION:
            continue
        if tok[TEXT] in _OPENERS:
            stack.append((tok[TEXT], tok[OFFSET]))
        elif tok[TEXT] in _CLOSERS:
            if not stack or stack[-1][0] != _CLOSERS[tok[TEXT]]:
                return [SyntaxDiagnostic(f"unmatched '{tok[TEXT]}'", tok[OFFSET])]
            stack.pop()
    if stack:
        opener, offset = stack[-1]
        return [SyntaxDiagnostic(f"unclosed '{opener}'", offset)]
    return []


def test_token_diagnostics_list_errors_then_the_first_fault():
    significant, _ = scan("² ( ] \xa0 { ²")
    error = "unterminated literal, comment, or unsupported character"
    diags, parens, questions, angles = parser._token_diagnostics(significant)
    assert [(d.message, d.offset) for d in diags] == [
        (error, 0), (error, 6), (error, 10), ("unmatched ']'", 4)]
    assert (parens, questions, angles) == ([1], [], {})


@given(st.lists(st.sampled_from(
    ["(", ")", "[", "]", "{", "}", "[A(", "[A]", "x", ";", " ", "\n", "²", "\xa0", "#", "?", "?.",
     "'c'", '"s"', "'", '"open', "/* c */", "// c\n", "if", "Run"]), max_size=40).map("".join))
@settings(max_examples=300, deadline=None)
def test_token_diagnostics_match_the_two_reference_passes(source):
    significant, _ = scan(source)
    diags, parens, questions, _ = parser._token_diagnostics(significant)
    assert diags == (
        reference_lex_diagnostics(significant) + reference_balance_diagnostics(significant))
    punctuation = [(i, t[TEXT]) for i, t in enumerate(significant)
                   if t[KIND] is TokenKind.PUNCTUATION]
    assert parens == [i for i, text in punctuation if text == "("]
    assert questions == [i for i, text in punctuation if text == "?"]


# ── the angle table against the walk it replaced ─────────────────────

_ANGLES = {"<": 1, "<<": 2, ">": -1, ">>": -2}


def reference_skip_generic(toks, k, step=1, lo=0):
    """Index just past the generic argument list bracketed at ``toks[k]``:
    its ``<`` when ``step`` is 1, its closing ``>``/``>>`` when ``step`` is
    -1 (walking backwards).  Runs off the end, or below ``lo``, when the
    list is unclosed."""
    depth = 0
    while lo <= k < len(toks):
        depth += _ANGLES.get(toks[k][TEXT], 0) * step
        k += step
        if depth <= 0:
            break
    return k


# Every token with an angle in its text, 'operator' before a stray '>', and
# generic-shaped runs, so lists nest, close in pairs and stay open.
_ANGLE_SOUPS = st.lists(st.sampled_from(
    ["<", "<<", ">", ">>", "<<=", ">>=", ">=", "<=", "=>", "operator", "operator >(",
     "x", "List", ",", "(", ")", ";", "List<x>", "A<B<x>>", "A<B<C<x>>>", "a < b", "a >> b"]),
    max_size=30)


@given(_ANGLE_SOUPS)
@settings(max_examples=500, deadline=None)
def test_angle_table_matches_the_walk_both_ways_from_every_lo(fragments):
    significant, _ = scan(" ".join(fragments))
    *_, angles = parser._token_diagnostics(significant)
    n = len(significant)
    for k, tok in enumerate(significant):
        if tok[TEXT] in ("<", "<<"):
            assert angles.get(k, n - 1) + 1 == reference_skip_generic(significant, k)
        elif tok[TEXT] in (">", ">>"):
            for lo in range(k + 1):
                assert max(angles.get(k, lo), lo) - 1 == (
                    reference_skip_generic(significant, k, -1, lo))


def test_angle_table_pairs_double_angles():
    significant, _ = scan("A<B<C>> << x >> >")
    *_, angles = parser._token_diagnostics(significant)
    # A < B < C >> << x >> >
    # 0 1 2 3 4 5  6  7 8  9
    assert angles == {1: 5, 3: 5, 5: 1, 6: 8, 8: 6}


@pytest.mark.parametrize("source", [
    "[TestMethod]\npublic void T<U, V<W>>()\n{\n    x.Run<V<W>>();\n}",
    "[TestMethod]\npublic Task<List<int>> T()\n{\n    x.Run();\n}",
])
def test_generic_test_method_header(source):
    tree = parse_test_method(source)
    assert tree.method_name == "T"
    assert not tree.has_fatal
    assert invocations(source) == [Invocation(("x", "Run"))]


@pytest.mark.parametrize("header", [
    "public (int, int) TestA()",
    "public (int a, int b)[] TestA()",
    "public global::System.Threading.Tasks.Task TestA()",
    "public A.B<C>.D TestA()",
    "public unsafe int* TestA()",
])
def test_a_header_returning_any_type_names_its_method(header):
    tree = parse_test_method(f"[TestMethod]\n{header}\n{{\n    x.Run();\n}}")
    assert (tree.method_name, tree.diagnostics) == ("TestA", [])


@pytest.mark.parametrize("header", [
    "public void Test Foo()",  # two names
    "public (1 + 2) TestA()",  # an expression where the type goes
    "public List<1> TestA()",  # a literal as a generic argument
    "public int[ TestA()",  # an array rank left open
    "public void ()",  # no name
    "public (int) TestA()",  # a tuple of one element
    "public () TestA()",  # a tuple of none
    "public (int[,]) TestA()",  # a rank's comma parts no tuple
    "public (a>, b) TestA()",  # a stray angle in a tuple
    "public System.int TestA()",  # a predefined type as a qualified name's part
    "public A::void TestA()",
])
def test_a_header_that_is_not_a_type_and_a_name_is_fatal(header):
    source = f"[TestMethod]\n{header}\n{{\n    x.Run();\n}}"
    tree = parse_test_method(source)
    assert not check_syntax(source).correct
    assert tree.method_name == ""
    # Statements are read again from the first token after the modifiers.
    after_modifiers = len("[TestMethod]\npublic ")
    assert ("malformed method header", after_modifiers) in diagnostics(tree)
    assert tree.statements()[0].span[0] == after_modifiers
    assert Invocation(("x", "Run")) in invocations(source)


# ── call sites from the '(' index against the slice and two walks ────


def reference_extract_invocations(sig_toks):
    """Call sites and ternary presence of one expression's tokens, copied
    out of the stream: one walk for calls, one for ternaries."""
    invocations = []
    for idx, tok in enumerate(sig_toks):
        if tok[KIND] is not TokenKind.PUNCTUATION or tok[TEXT] != "(":
            continue
        j = idx - 1
        if j >= 0 and sig_toks[j][TEXT] in (">", ">>"):
            j = reference_skip_generic(sig_toks, j, -1)
        if j < 0 or sig_toks[j][KIND] is not TokenKind.IDENTIFIER:
            continue
        chain = [sig_toks[j][TEXT]]
        rooted = True
        j -= 1
        while j >= 0 and sig_toks[j][TEXT] in (".", "?."):
            prev = sig_toks[j - 1] if j >= 1 else None
            if prev is None:
                rooted = False
                break
            if prev[KIND] is TokenKind.IDENTIFIER or prev[TEXT] in ("this", "base"):
                chain.insert(0, prev[TEXT])
                j -= 2
            else:
                rooted = False
                break
        is_constructor = j >= 0 and sig_toks[j][TEXT] == "new"
        invocations.append(Invocation(tuple(chain), rooted, is_constructor))

    has_ternary = False
    depth = 0
    pending = []
    for tok in sig_toks:
        if tok[KIND] is not TokenKind.PUNCTUATION:
            continue
        if tok[TEXT] in _OPENERS:
            depth += 1
        elif tok[TEXT] in _CLOSERS:
            depth -= 1
            while pending and pending[-1] > depth:
                pending.pop()
        elif tok[TEXT] == "?":
            pending.append(depth)
        elif tok[TEXT] == ":" and pending and pending[-1] == depth:
            has_ternary = True
            break
    return invocations, has_ternary


# Single tokens, and call-shaped runs so that chains, generic lists and
# ternaries meet the range ends often.
_EXPRESSION_SOUPS = st.lists(st.sampled_from(
    ["(", ")", "?", ":", "<", ">", ">>", ".", "?.", "new", "this", "base", "x", "Run",
     ",", "[", "]", "{", "}", "1", '"s"', "=>", "??", ";",
     "a.Run(", "this.x.Run(", "base.Run(", "x?.y.Run(", "(a).Run(", "new List<x>(",
     "new a.B(", "Run<a, List<x>>(", "a.Run<List<x>>(", "c ? a : b", "c ? (a ? b : d) : e"]),
    max_size=30)


@given(_EXPRESSION_SOUPS, st.data())
@settings(max_examples=400, deadline=None)
def test_indexed_extraction_matches_the_slice_and_two_walks(fragments, data):
    significant, _ = scan(" ".join(fragments))
    _, parens, questions, angles = parser._token_diagnostics(significant)
    n = len(significant)
    if n == 0:
        return
    # Cuts just after a '<' or at a '.' split a generic list or a call
    # chain at ``lo``; the rest of the ranges start anywhere.
    cuts = [i for i in range(1, n) if significant[i - 1][TEXT] in ("<", ".", "?.")
            or significant[i][TEXT] in (".", "?.")]
    lo = data.draw(st.sampled_from(cuts) if cuts and data.draw(st.booleans())
                   else st.integers(0, n - 1))
    hi = data.draw(st.integers(lo, n - 1))
    assert parser._extract_invocations(significant, lo, hi, parens, questions, angles) == (
        reference_extract_invocations(significant[lo:hi + 1]))


# ── focal file parsing ───────────────────────────────────────────────


def test_upload_command_structure(upload_source):
    tree = parse_focal_file(upload_source)
    assert tree.diagnostics == []
    assert tree.classes[0].span[0] > upload_source.index("namespace App.Commands")
    names = [cls.name for cls in tree.walk_classes()]
    assert "UploadCommand" in names
    assert "RetryPolicy" in names


def test_upload_command_members(upload_source):
    tree = parse_focal_file(upload_source)
    upload = next(c for c in tree.walk_classes() if c.name == "UploadCommand")
    method_names = {m.name for m in upload.methods}
    assert {"Start", "Stop", "IsStopped"} <= method_names
    fields = [upload_source[slice(*span)] for span in upload.fields]
    assert {"private readonly ILogger _log;", "private bool _stopped;"} <= set(fields)
    assert tree.comments_within(upload.span), "comment spans should be recorded"


def test_method_spans_slice_back_to_source(upload_source):
    tree = parse_focal_file(upload_source)
    upload = next(c for c in tree.walk_classes() if c.name == "UploadCommand")
    stop = next(m for m in upload.methods if m.name == "Stop")
    text = upload_source[stop.span[0]:stop.span[1]]
    assert "Stop" in text
    assert text.count("{") == text.count("}")


def test_inventory_service_structure(inventory_source):
    tree = parse_focal_file(inventory_source)
    service = next(c for c in tree.walk_classes() if c.name == "InventoryService")
    names = {m.name for m in service.methods}
    assert {"Available", "Receive", "Reserve", "Release", "LowStock"} <= names


def test_signature_ends_at_parameter_list(inventory_source):
    tree = parse_focal_file(inventory_source)
    service = next(c for c in tree.walk_classes() if c.name == "InventoryService")
    for method in service.methods:
        assert inventory_source[method.sig_end - 1] == ")"


@pytest.mark.parametrize("member", [") { get;", ") ( => x;"])
def test_member_at_an_unmatched_closer_is_kept_raw(member):
    # The member scan finds a terminator, but the unmatched ')' stops the
    # skip to ';' before it consumes anything; parsing must still advance.
    tree = parse_focal_file("class C { " + member)
    (cls,) = tree.classes
    assert cls.fields == []
    assert cls.others[0] == (10, 11)


@pytest.mark.parametrize("run", ["a b c ", "a " * 4000], ids=["3", "4000"])
def test_member_run_without_terminator_is_one_raw_span(run):
    # A run of tokens with no member terminator before the type's '}' is
    # scanned once and kept as one raw member.
    source = "class C { int f; " + run + "}"
    (cls,) = parse_focal_file(source).classes
    assert cls.fields == [(10, 16)]
    assert cls.others == [(17, len(source) - 2)]
    assert cls.span == (0, len(source))


def test_focal_parse_with_many_classes_and_comments_is_linear():
    # 4000 classes with a comment before each and one inside.  A pass that
    # compared every comment with every class took 2.8 s on this input
    # (Python 3.11, 2 vCPU); spans make it about 0.2 s.
    source = "".join(f"// C{i}\nclass C{i} {{ /* f */ int f; }}\n" for i in range(4000))
    start = time.perf_counter()
    tree = parse_focal_file(source)
    elapsed = time.perf_counter() - start
    assert (len(tree.classes), len(tree.comments)) == (4000, 8000)
    assert [len(tree.comments_within(c.span)) for c in tree.classes[:3]] == [1, 1, 1]
    assert elapsed < 1.0


def test_focal_file_parse_is_total_on_test_snippets():
    tree = parse_focal_file("not a c# file { at ( all")
    assert isinstance(tree.classes, list)


def members(tree) -> list:
    src = tree.source
    return [(c.name, c.span,
             [(m.name, src[m.span[0]:m.sig_end] + ";", m.span) for m in c.methods],
             c.fields, c.others)
            for c in tree.walk_classes()]


@pytest.mark.parametrize("source, classes, diags", [
    ("namespace N {\n enum E { A, B = 2, C }\n public enum F : byte { X }\n"
     " class C { int f; }\n}",
     [("E", (15, 37), [], [], []),
      ("F", (39, 65), [], [], []),
      ("C", (67, 85), [], [(77, 83)], [])], []),
    # Property initializers after the accessor block.
    ("class C {\n public int P { get; } = 5;\n"
     " public List<int> Q { get; set; } = new List<int> { 1 };\n int f = 1;\n}",
     [("C", (0, 108), [], [(96, 106)], [(11, 37), (39, 94)])], []),
    # Expression-bodied property and methods.
    ("class C {\n public int P => _p + 1;\n public int M() => _p * 2;\n"
     " public override string ToString() => $\"x\";\n}",
     [("C", (0, 107),
       [("M", "public int M();", (36, 61)),
        ("ToString", "public override string ToString();", (63, 105))],
       [], [(11, 34)])], []),
    # Constraints between the parameter list and the body.
    ("class C {\n public T Make<T>() where T : new() { return new T(); }\n"
     " public void G<T>(T x) where T : class, IFoo;\n}",
     [("C", (0, 113),
       [("Make", "public T Make<T>();", (11, 65)),
        ("G", "public void G<T>(T x);", (67, 111))], [], [])], []),
    # Members without a terminator at end of file.
    ("class C {\n int f;\n public void M() { }\n public int Tail",
     [("C", (0, 55), [("M", "public void M();", (19, 38))], [(11, 17)], [(40, 55)])],
     [("unclosed '{'", 8), ("type 'C' not closed", 51)]),
    ("class C {\n public void M(int a",
     [("C", (0, 30), [("M", "public void M(int a;", (11, 30))], [], [])],
     [("unclosed '('", 24), ("type 'C' not closed", 29)]),
    # A file-scoped namespace, a record class, and a type with no name.
    ("namespace N;\nclass C { int f; }", [("C", (13, 31), [], [(23, 29)], [])], []),
    ("record class R { int f; }", [("R", (0, 25), [], [(17, 23)], [])], []),
    ("class {\n int f; }", [], [("type declaration missing name", 6)]),
    # Members typed with tuples: a '(' first in the type, or after '<' or
    # ',', starts a tuple type, not the parameter list.
    ("class C {\n public (int, int) Split(int n) => (n, n);\n}",
     [("C", (0, 54), [("Split", "public (int, int) Split(int n);", (11, 52))], [], [])], []),
    ("class C {\n public async Task<(bool Ok, string Error)> CheckoutAsync(string user) { }\n}",
     [("C", (0, 86),
       [("CheckoutAsync",
         "public async Task<(bool Ok, string Error)> CheckoutAsync(string user);",
         (11, 84))], [], [])], []),
    ("class C {\n (int, string)? Find(int id) { return null; }\n}",
     [("C", (0, 57), [("Find", "(int, string)? Find(int id);", (11, 55))], [], [])], []),
    ("class C {\n List<(int, int)>[] Pairs() => null;\n}",
     [("C", (0, 48), [("Pairs", "List<(int, int)>[] Pairs();", (11, 46))], [], [])], []),
    ("class C {\n private (int Count, decimal Total) _summary;\n}",
     [("C", (0, 57), [], [(11, 55)], [])], []),
    ("class C {\n Dictionary<string, (int, int)> _m = new();\n}",
     [("C", (0, 55), [], [(11, 53)], [])], []),
    ("class C {\n public (int, int) P { get; set; } = (1, 2);\n}",
     [("C", (0, 56), [], [], [(11, 54)])], []),
    ("class C {\n public (int, int) this[int i] => (i, i);\n}",
     [("C", (0, 53), [], [], [(11, 51)])], []),
    # Operators are methods named "".
    ("class C {\n public static C operator +(C a, C b) => a;\n}",
     [("C", (0, 55), [("", "public static C operator +(C a, C b);", (11, 53))], [], [])], []),
    ("class C {\n public static bool operator >(C a, C b) => true;\n}",
     [("C", (0, 61), [("", "public static bool operator >(C a, C b);", (11, 59))], [], [])],
     []),
    ("class C {\n public static bool operator <(C a, C b) => true;\n}",
     [("C", (0, 61), [("", "public static bool operator <(C a, C b);", (11, 59))], [], [])],
     []),
    ("class C {\n public static C operator checked +(C a, C b) => a;\n}",
     [("C", (0, 63), [("", "public static C operator checked +(C a, C b);", (11, 61))],
       [], [])], []),
    ("class C {\n public static implicit operator int(C c) => 0;\n}",
     [("C", (0, 59), [("", "public static implicit operator int(C c);", (11, 57))], [], [])],
     []),
    # A constructor's base call is stepped over.
    ("class C : B {\n public C(int x) : base(x) { }\n}",
     [("C", (0, 46), [("C", "public C(int x);", (15, 44))], [], [])], []),
    # 'ref' and 'file' are modifiers, of nested and top-level types alike.
    ("class Outer {\n public ref struct Inner { public void Stop() { } }\n}",
     [("Outer", (0, 67), [], [], []),
      ("Inner", (15, 65), [("Stop", "public void Stop();", (41, 63))], [], [])], []),
    ("public ref struct S { }\nfile class H { }",
     [("S", (0, 23), [], [], []), ("H", (24, 40), [], [], [])], []),
    # A conversion to a tuple type: the '(' after 'operator' starts the type.
    ("class C {\n public static implicit operator (int, int)(C c) => (0, 0);\n}",
     [("C", (0, 71),
       [("", "public static implicit operator (int, int)(C c);", (11, 69))], [], [])], []),
])
def test_focal_members_are_pinned(source, classes, diags):
    tree = parse_focal_file(source)
    assert members(tree) == classes
    assert diagnostics(tree) == diags


_MEMBER_TYPES = ["int", "(int, int)", "(int Count, decimal Total)?",
                 "Task<(bool Ok, string Error)>", "Dictionary<string, (int, int)>",
                 "List<(int, int)>[]"]
_METHOD_FORMS = ["NAME(int a) { }", "NAME((int, int) p) => x;",
                 "NAME<T>(T a) where T : new();"]
_OTHER_FORMS = ["NAME;", "NAME = new();", "NAME { get; set; }", "NAME { get; } = default;",
                "NAME => x;"]


@given(st.lists(st.tuples(st.sampled_from(_METHOD_FORMS + _OTHER_FORMS),
                          st.sampled_from(_MEMBER_TYPES)), max_size=8))
@settings(max_examples=200, deadline=None)
def test_a_member_reads_the_same_whatever_its_type(members):
    def read(types: list[str]) -> tuple:
        source = "class C {\n" + "".join(
            f" public {t} {form.replace('NAME', f'M{i}')}\n"
            for i, ((form, _), t) in enumerate(zip(members, types))) + "}"
        tree = parse_focal_file(source)
        (cls,) = tree.classes
        method_types = [t for (form, _), t in zip(members, types) if form in _METHOD_FORMS]
        return (tree.diagnostics, [m.name for m in cls.methods], len(cls.fields),
                len(cls.others), [source[m.span[0]:m.sig_end].replace(f" {t} ", " ", 1)
                                  for m, t in zip(cls.methods, method_types)])

    assert read([t for _, t in members]) == read(["int"] * len(members))


# Return types: the member types above, more predefined and tuple types, and
# names qualified by 'global::' or continued after generic arguments.
_NAME_PARTS = st.tuples(st.sampled_from(["A", "Task", "List"]),
                        st.sampled_from(["", "<C>", "<int, string>", "<(int, int)>"]))
_QUALIFIED = st.builds(
    lambda root, parts: root + ".".join(name + args for name, args in parts),
    st.sampled_from(["", "global::"]), st.lists(_NAME_PARTS, min_size=1, max_size=3))
_RETURN_TYPES = st.one_of(
    st.sampled_from(_MEMBER_TYPES + ["void", "string[]", "(int a, int b)[]", "int*"]), _QUALIFIED)
_HEADERS = st.builds(
    lambda attributes, modifiers, returns, generic, parameters:
        f"{attributes}{' '.join(modifiers)} {returns} TestA{generic}({parameters})",
    st.sampled_from(["", "[TestMethod]\n", "[Fact]\n[Trait(\"a\", \"b\")]\n"]),
    st.lists(st.sampled_from(sorted(parser.MODIFIER_WORDS)), max_size=3),
    _RETURN_TYPES,
    st.sampled_from(["", "<T>", "<T, U>"]),
    st.sampled_from(["", "int a", "(int, int) p", "List<(int, int)> xs"]))


@given(_HEADERS, st.sampled_from(["\n{\n    x.Run();\n}", " => x.Run();"]))
@settings(max_examples=300, deadline=None)
def test_the_test_and_focal_parsers_read_one_name_from_each_header(header, body):
    (cls,) = parse_focal_file("class C { " + header + body + " }").classes
    assert [m.name for m in cls.methods] == ["TestA"]
    assert parse_test_method(header + body).method_name == "TestA"
    assert check_syntax(header + body).correct


# ── nesting cap ──────────────────────────────────────────────────────


def nested_test(depth: int, opener: str = "if (ready)\n{\n") -> str:
    return ("[TestMethod]\npublic void TestDescendReachesDeepestLevel()\n{\n"
            + opener * depth
            + "var result = sut.Descend(1);\nAssert.AreEqual(1, result);\n"
            + "}\n" * depth + "}")


def test_depth_200_if_nest_parses_clean():
    # Its innermost statements sit at statement level 401.
    tree = parse_test_method(nested_test(200))
    assert tree.diagnostics == []
    level, stmts = 0, tree.statements()
    while stmts:
        level += 1
        stmts = stmts[0].children
    assert level == 401


def test_nesting_cap_is_the_first_fatal_level():
    inside = parse_test_method(nested_test(MAX_NESTING - 1, "{\n"))
    assert not inside.has_fatal
    past = parse_test_method(nested_test(MAX_NESTING, "{\n"))
    assert [d.message for d in past.diagnostics] == ["nesting too deep"]


# An opener and its closer for each construct that nests, each with a block
# body: two statement levels per nest.
_NESTS = {
    "if": ("if (ready) {\n", "}\n"),
    "else": ("if (ready) { } else {\n", "}\n"),
    "while": ("while (ready) {\n", "}\n"),
    "for": ("for (;;) {\n", "}\n"),
    "foreach": ("foreach (var item in items) {\n", "}\n"),
    "using": ("using (var scope = Open()) {\n", "}\n"),
    "do": ("do {\n", "} while (ready);\n"),
    "try": ("try {\n", "} finally { }\n"),
    "switch": ("switch (state) { default: {\n", "}\nbreak;\n}\n"),
}


@pytest.mark.parametrize("construct", list(_NESTS))
@pytest.mark.parametrize("depth", [(MAX_NESTING - 1) // 2, 10_000])
def test_every_nesting_construct_stops_at_the_cap(construct, depth):
    opener, closer = _NESTS[construct]
    source = ("[TestMethod]\npublic void T()\n{\n" + opener * depth
              + "sut.Descend(1);\n" + closer * depth + "}")
    tree = parse_test_method(source)
    if depth < MAX_NESTING:
        assert tree.diagnostics == []
    else:
        assert [d.message for d in tree.diagnostics] == ["nesting too deep"]


@pytest.mark.parametrize("depth", [400, 1000, 10_000])
def test_deep_test_method_is_fatal_not_a_crash(depth):
    tree = parse_test_method(nested_test(depth))
    assert [d.message for d in tree.diagnostics] == ["nesting too deep"]
    # The construct past the cap is kept flat, calls included.
    calls, stack = set(), list(tree.statements())
    while stack:
        stmt = stack.pop()
        calls.update(i.chain for i in stmt.invocations)
        stack.extend(stmt.children)
    assert calls == {("sut", "Descend"), ("Assert", "AreEqual")}


def test_deep_nest_analysis_memory_is_bounded():
    # Statements hold spans into the one source string, not copies of their
    # text, so memory grows with the input, not with depth times length:
    # about 8 MB here, most of it the 60 000 significant tokens, where a
    # copy per nesting level takes about 84 MB.
    source = nested_test(10_000)
    tracemalloc.start()
    try:
        analyze(source, "Descend")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40_000_000


@pytest.mark.parametrize("depth", [400, 1000, 10_000])
@pytest.mark.parametrize("opener", ["namespace N {\n", "class C {\n"])
def test_deep_focal_file_is_fatal_not_a_crash(opener, depth):
    tree = parse_focal_file(opener * depth + "class S { void Descend() { } }\n"
                            + "}\n" * depth)
    methods = [m.name for cls in tree.walk_classes() for m in cls.methods]
    if depth < MAX_NESTING:
        assert tree.diagnostics == []
        assert methods == ["Descend"]
    else:
        assert [d.message for d in tree.diagnostics] == ["nesting too deep"]
        assert methods == []
