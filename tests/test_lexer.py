"""Tokenizer tests: losslessness, literal handling, token classification."""

from __future__ import annotations

import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tqual
from tqual import lexer
from tqual.completion import RawCompletion, truncate_completion
from tqual.lexer import KIND, OFFSET, RESERVED_KEYWORDS, TEXT, Token, TokenKind, scan, tokenize
from tqual.parser import check_syntax, parse_focal_file


def roundtrip(source: str) -> str:
    return "".join(tok.text for tok in tokenize(source))


TRIVIA = frozenset({TokenKind.WHITESPACE, TokenKind.COMMENT_LINE, TokenKind.COMMENT_BLOCK})


def kinds(source: str) -> list[TokenKind]:
    return [tok.kind for tok in tokenize(source) if tok.kind not in TRIVIA]


def texts(source: str) -> list[str]:
    return [tok.text for tok in tokenize(source) if tok.kind not in TRIVIA]


# ── losslessness ─────────────────────────────────────────────────────


def test_roundtrip_simple_method():
    source = "[TestMethod]\npublic void TestStop()\n{\n    Assert.IsTrue(x);\n}"
    assert roundtrip(source) == source


def test_roundtrip_empty():
    assert tokenize("") == []


def test_roundtrip_fixture_files(upload_source, inventory_source):
    assert roundtrip(upload_source) == upload_source
    assert roundtrip(inventory_source) == inventory_source


@given(st.text(max_size=300))
@settings(max_examples=200, deadline=None)
def test_roundtrip_arbitrary_text(source):
    """Concatenated token texts reproduce any input byte for byte."""
    assert roundtrip(source) == source


CODE_FRAGMENTS = [
    "Assert", ".", "IsTrue", "(", ")", ";", "{", "}", "var",
    "x", "=", "1", " ", "\n", '"str"', "'c'", "// note\n",
    "/* block */", "[TestMethod]", "=>", "??", "0x1F", "$\"v {x}\"",
    "@\"raw\"", "#if DEBUG\n", "3.14f", "new", "Foo", "<", ">",
]


@given(st.lists(st.sampled_from(CODE_FRAGMENTS), max_size=40))
@settings(max_examples=200, deadline=None)
def test_roundtrip_code_shaped_text(fragments):
    source = "".join(fragments)
    assert roundtrip(source) == source


# ── strings and chars ────────────────────────────────────────────────


def test_regular_string_single_token():
    toks = texts('var s = "a b; { } [TestMethod]";')
    assert '"a b; { } [TestMethod]"' in toks


def test_escaped_quote_stays_inside():
    toks = texts(r'x = "say \"hi\"";')
    assert r'"say \"hi\""' in toks


def test_verbatim_string_with_doubled_quotes():
    source = '@"a ""quoted"" b"'
    toks = tokenize(source)
    assert len(toks) == 1
    assert toks[0].kind is TokenKind.STRING
    assert toks[0].text == source


def test_verbatim_string_spans_newlines():
    source = '@"line one\nline two"'
    assert kinds(source) == [TokenKind.STRING]


def test_interpolated_string_hole_with_braces():
    source = '$"total {items.Sum(i => i.Count)} done"'
    toks = tokenize(source)
    assert [t.kind for t in toks] == [TokenKind.STRING]
    assert toks[0].text == source


def test_interpolated_hole_containing_string_literal():
    source = '$"{call("inner")} end"'
    assert kinds(source) == [TokenKind.STRING]


def test_char_literals():
    assert kinds("'a'") == [TokenKind.CHAR]
    assert kinds(r"'\n'") == [TokenKind.CHAR]
    assert kinds(r"'A'") == [TokenKind.CHAR]


def test_unterminated_string_is_error_token():
    toks = tokenize('x = "abc\nAssert.IsTrue(x);')
    error = [t for t in toks if t.kind is TokenKind.ERROR]
    assert len(error) == 1
    # The error token swallows the rest of the input.
    assert error[0].text.startswith('"abc')
    assert toks[-1].kind is TokenKind.ERROR


def test_unterminated_block_comment_is_error_token():
    toks = tokenize("x(); /* never closed")
    assert toks[-1].kind is TokenKind.ERROR
    assert toks[-1].text == "/* never closed"


@pytest.mark.parametrize("source", [
    '@"\\""',  # the "" escape swallows the closing quote
    "'\\'",    # the backslash escapes the closing quote
])
def test_literal_ending_in_an_escaped_quote_is_unterminated(source):
    assert [(t.kind, t.text) for t in tokenize(source)] == [(TokenKind.ERROR, source)]


# ── comments and preprocessor ────────────────────────────────────────


def test_line_comment_runs_to_newline():
    toks = tokenize("x(); // checks the flag\ny();")
    comment = [t for t in toks if t.kind is TokenKind.COMMENT_LINE]
    assert [c.text for c in comment] == ["// checks the flag"]


def test_doc_comment_is_line_comment():
    assert TokenKind.COMMENT_LINE in kinds_all("/// <summary>x</summary>\n")


def test_block_comment_single_token():
    toks = tokenize("a /* one\ntwo */ b")
    assert [t.kind for t in toks if not t.kind is TokenKind.WHITESPACE] == [
        TokenKind.IDENTIFIER,
        TokenKind.COMMENT_BLOCK,
        TokenKind.IDENTIFIER,
    ]


def test_preprocessor_line_shares_comment_kind_with_hash_prefix():
    toks = tokenize("#region Setup\nvar x = 1;\n#endregion")
    pre = [t for t in toks if t.kind is TokenKind.COMMENT_LINE]
    assert [t.text for t in pre] == ["#region Setup", "#endregion"]


def test_hash_mid_line_is_punctuation():
    toks = texts("x # y")
    assert toks == ["x", "#", "y"]


def kinds_all(source: str) -> list[TokenKind]:
    return [tok.kind for tok in tokenize(source)]


# ── identifiers, keywords, numbers ───────────────────────────────────


def test_reserved_keyword_classification():
    assert kinds("if") == [TokenKind.KEYWORD]
    assert kinds("return") == [TokenKind.KEYWORD]
    assert "var" not in RESERVED_KEYWORDS
    assert kinds("var") == [TokenKind.IDENTIFIER]
    assert kinds("async") == [TokenKind.IDENTIFIER]


def test_at_prefixed_identifier():
    toks = tokenize("@class")
    assert len(toks) == 1
    assert toks[0].kind is TokenKind.IDENTIFIER
    assert toks[0].text == "@class"


def test_number_shapes():
    for literal in ("42", "0x1F", "0b1010", "1_000", "3.14", "3.14f", "1e-5", "42L", "2.5m"):
        assert kinds(literal) == [TokenKind.NUMBER], literal


def test_digits_that_are_not_decimal_are_errors():
    # C# numbers take decimal digits; a superscript or circled digit is
    # outside the subset wherever it cannot continue an identifier.
    assert [(t.kind, t.text) for t in tokenize("1²")] == [
        (TokenKind.NUMBER, "1"), (TokenKind.ERROR, "²")]
    assert [(t.kind, t.text) for t in tokenize("²")] == [(TokenKind.ERROR, "²")]
    assert not check_syntax("[TestMethod]\npublic void TestRun()\n{\n    x = 1²;\n}").correct
    assert kinds("x²") == [TokenKind.IDENTIFIER]
    assert kinds("١٢") == [TokenKind.NUMBER]


def test_lone_surrogate_is_an_error_token():
    # Tokens keep character offsets, so nothing encodes the text.
    assert [(t.kind, t.text) for t in tokenize("x\ud800")] == [
        (TokenKind.IDENTIFIER, "x"), (TokenKind.ERROR, "\ud800")]


def test_word_start_must_be_a_letter():
    assert [(t.kind, t.text) for t in tokenize("@²")][0] == (TokenKind.PUNCTUATION, "@")
    assert [(t.kind, t.text) for t in tokenize("@½x")][:2] == [
        (TokenKind.PUNCTUATION, "@"), (TokenKind.ERROR, "½")]
    assert TokenKind.ATTRIBUTE not in kinds("[²x]")
    assert texts("[²x]")[0] == "["


def test_dot_between_numbers_only_with_digit():
    # "1." without a following digit is number then dot.
    assert texts("1.x") == ["1", ".", "x"]
    assert texts("1.5") == ["1.5"]


# ── attributes ───────────────────────────────────────────────────────


def test_attribute_at_file_start():
    toks = tokenize("[TestMethod]")
    assert len(toks) == 1
    assert toks[0].kind is TokenKind.ATTRIBUTE


def test_attribute_after_statement_boundary():
    toks = tokenize("{ }\n[TestMethod]\npublic void F() { }")
    attr = [t for t in toks if t.kind is TokenKind.ATTRIBUTE]
    assert [t.text for t in attr] == ["[TestMethod]"]


def test_indexer_bracket_is_not_attribute():
    toks = tokenize("arr[0] = arr[i];")
    assert all(t.kind is not TokenKind.ATTRIBUTE for t in toks)


def test_attribute_with_tricky_string_argument():
    source = '[DataRow("]")]'
    toks = tokenize(source)
    assert len(toks) == 1
    assert toks[0].kind is TokenKind.ATTRIBUTE
    assert toks[0].text == source


@pytest.mark.parametrize("header", ["[TestMethod(]", "[TestMethod)]", "[DataRow({1)]"])
def test_attribute_with_mismatched_delimiter_is_not_one_token(header):
    # The delimiters reach the parser's balance check instead of hiding
    # inside an attribute token.
    source = header + "\npublic void TestRun()\n{\n}"
    assert TokenKind.ATTRIBUTE not in kinds(source)
    assert not check_syntax(source).correct
    # Nested pairs and a closer inside a literal still make one token.
    nested = '[DataRow(new[] { "]" }, \')\')]'
    assert [(t.kind, t.text) for t in tokenize(nested)] == [(TokenKind.ATTRIBUTE, nested)]


def test_unclosed_attribute_runs_lex_in_linear_time():
    # Each ";[" may open an attribute list that never closes; a scan from
    # one such "[" must not walk to the end of input again for every later one.
    source = ";[a" * 8000
    start = time.perf_counter()
    toks = tokenize(source)
    assert time.perf_counter() - start < 2.0
    assert [t.text for t in toks[:4]] == [";", "[", "a", ";"]
    assert TokenKind.ATTRIBUTE not in {t.kind for t in toks}


def test_attribute_list_with_arguments():
    source = "[DataRow(2, 3)]\n[TestMethod]\nvoid F() { }"
    attr = [t.text for t in tokenize(source) if t.kind is TokenKind.ATTRIBUTE]
    assert attr == ["[DataRow(2, 3)]", "[TestMethod]"]


# ── operators and offsets ────────────────────────────────────────────


def test_multichar_operators_are_single_tokens():
    assert texts("a => b") == ["a", "=>", "b"]
    assert texts("a ?? b") == ["a", "??", "b"]
    assert texts("a?.b") == ["a", "?.", "b"]
    assert texts("x ??= y") == ["x", "??=", "y"]
    assert texts("a == b != c") == ["a", "==", "b", "!=", "c"]


def test_offsets_count_characters_not_bytes():
    toks = tokenize('"é" x')
    assert toks[0].offset == 0
    # Quote + e-acute + quote = 3 characters (4 bytes in UTF-8).
    assert toks[1].offset == 3
    assert toks[2].offset == 4


@given(st.one_of(st.text(max_size=300),
                 st.lists(st.sampled_from(CODE_FRAGMENTS), max_size=40).map("".join)))
@settings(max_examples=200, deadline=None)
def test_offsets_index_the_source(source):
    pos = 0
    for tok in tokenize(source):
        assert tok.offset == pos
        assert source[tok.offset:tok.offset + len(tok.text)] == tok.text
        pos += len(tok.text)
    assert pos == len(source)


def test_token_is_frozen():
    tok = Token(TokenKind.IDENTIFIER, "x", 0)
    try:
        tok.text = "y"
    except AttributeError:
        return
    raise AssertionError("Token should be immutable")


# ── the whitespace prefix ────────────────────────────────────────────


def test_whitespace_alone_makes_no_token():
    assert scan("") == ([], [])
    assert scan(" \t\r\n\f\v ") == ([], [])
    assert scan("x \n\t") == ([Token(TokenKind.IDENTIFIER, "x", 0)], [])


def test_no_break_space_is_still_an_error():
    # Only ASCII whitespace separates tokens; U+00A0 is outside the subset.
    assert scan("x\xa0 y") == ([Token(TokenKind.IDENTIFIER, "x", 0),
                                 Token(TokenKind.ERROR, "\xa0", 1),
                                 Token(TokenKind.IDENTIFIER, "y", 3)], [])


def test_directive_after_leading_tabs_is_a_line_token():
    significant, comments = scan("x;\n\t\t#if DEBUG\n\t\ty;")
    assert comments == [Token(TokenKind.COMMENT_LINE, "#if DEBUG", 5)]
    assert [t[TEXT] for t in significant] == ["x", ";", "y", ";"]
    # A form feed before the '#' is whitespace but does not open a line.
    assert scan("\f#if")[0][0] == Token(TokenKind.PUNCTUATION, "#", 1)


# ── scan against the loop it replaced ────────────────────────────────
#
# The reference makes one match per position, whitespace runs included,
# builds each token through the NamedTuple constructor and sends every
# word through ``_resolve``.  ``scan`` must give equal rows, each an exact
# 3-tuple.

_REFERENCE_TOKEN = re.compile(
    r"""
    (?P<WHITESPACE>[ \t\r\n\f\v]+)
  | (?P<COMMENT_LINE>//[^\n]*)
  | (?P<COMMENT_BLOCK>/\*.*?\*/)
  | (?P<STRING>"(?:\\.|[^"\\\n])*"
              | @"(?:[^"]|"")*"(?!"))
  | (?P<CHAR>'(?:\\.[^'\n]*|[^'\n\\])?')
  | (?P<INTERPOLATED>\$@?"|@\$")
  | (?P<UNTERMINATED>/\*|@?"|')
  | (?P<NUMBER>(?:0[xXbB][0-9a-fA-F_]*
               | \d[\d_]*(?:\.\d[\d_]*)?(?:[eE][+-]?\d+)?)[fFdDmMuUlL]*)
  | (?P<WORD>@?[^\W\d]\w*)
  | (?P<HASH>\#)
  | (?P<BRACKET>\[)
  | (?P<PUNCTUATION>\?\?= | <<= | >>=
                   | => | [=!<>+\-*/%&|^]= | && | \|\| | \?\? | \?\. | \+\+ | -- | -> | :: | << | >>
                   | [(){}\]<>.,;:?!+\-*/%=&|^~@$])
  | (?P<ERROR>.)
    """,
    re.VERBOSE | re.DOTALL,
)
_REFERENCE_KINDS = {
    name: TokenKind[name] for name in _REFERENCE_TOKEN.groupindex if name in TokenKind.__members__
}


def reference_scan(source: str) -> tuple[list[Token], list[Token]]:
    significant: list[Token] = []
    comments: list[Token] = []
    decided: dict[int, int | None] = {}
    pos = 0
    while pos < len(source):
        m = _REFERENCE_TOKEN.match(source, pos)
        kind = _REFERENCE_KINDS.get(m.lastgroup)
        end = m.end()
        if kind is None:
            kind, end = lexer._resolve(source, m.lastgroup, pos, end, significant, decided)
        if kind is not TokenKind.WHITESPACE:
            token = Token(kind, source[pos:end], pos)
            comments_kind = kind in (TokenKind.COMMENT_LINE, TokenKind.COMMENT_BLOCK)
            (comments if comments_kind else significant).append(token)
        pos = end
    return significant, comments


SALT = [
    "\f", "\v", "\xa0", "\u2028", "²", "Ⅷ", "x²", "@class", "@x", "@²", "@Ⅷx",
    "\n  #if DEBUG\n", "\n\t#region R\n", " # ", '$"{', '$@"{x}"', '@$"', "[A(", "[",
    "'", '"', "/*", "é", "_x", "1e²", "١٢", "@", "$",
]
_SALTED_SOUPS = st.builds(
    lambda fragments, tail: "".join(fragments) + tail,
    st.lists(st.sampled_from(CODE_FRAGMENTS + SALT), max_size=40),
    st.sampled_from(["", " ", "\n", " \t\r\n", "\f", "\v"]),
)


@given(st.one_of(st.text(max_size=300), _SALTED_SOUPS))
@settings(max_examples=300, deadline=None)
def test_scan_matches_the_reference_loop(source):
    got = scan(source)
    assert got == reference_scan(source)
    assert all(type(row) is tuple and len(row) == 3 for rows in got for row in rows)


# Every ASCII character, and non-ASCII ones that stress the first-character
# dispatch: a letter, a non-decimal digit, a decimal digit, a letter
# numeral and two kinds of whitespace that C# allows but the lexer does not.
_DISPATCH_CHARS = [chr(c) for c in range(128)] + ["é", "²", "١", "Ⅷ", "\xa0", "\u2028"]


def test_scan_dispatch_matches_the_reference_on_every_short_source():
    assert lexer._SPAN.groups == 1
    for first in _DISPATCH_CHARS:
        for source in [first] + [first + second for second in _DISPATCH_CHARS]:
            assert scan(source) == reference_scan(source), repr(source)


# ── rows on the analysis path, Tokens only in tokenize ───────────────


@given(_SALTED_SOUPS)
@settings(max_examples=300, deadline=None)
def test_tokenize_is_scan_with_the_whitespace_put_back(source):
    tokens = tokenize(source)
    assert all(type(tok) is Token for tok in tokens)
    significant, comments = scan(source)
    comment_kinds = (TokenKind.COMMENT_LINE, TokenKind.COMMENT_BLOCK)
    fields = [(tok.kind, tok.text, tok.offset) for tok in tokens
              if tok.kind is not TokenKind.WHITESPACE]
    assert [f for f in fields if f[0] not in comment_kinds] == [
        (row[KIND], row[TEXT], row[OFFSET]) for row in significant]
    assert [f for f in fields if f[0] in comment_kinds] == [
        (row[KIND], row[TEXT], row[OFFSET]) for row in comments]


class _NoToken:
    """Fails when called, and is no tuple type, so neither ``Token(...)`` nor
    ``tuple.__new__(Token, ...)`` builds one while it stands in for ``Token``."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("a Token was built outside tokenize")


def test_the_analysis_path_builds_no_token(monkeypatch):
    monkeypatch.setattr(lexer, "Token", _NoToken)
    hint = "[TestMethod]\npublic void TestRun"
    body = ('()\n{\n#if DEBUG\n    // runs it\n    var s = $"{x}";\n'
            '    Assert.AreEqual(1, c.Run<int>(s)); /* done */\n#endif\n}')
    report = tqual.analyze('[TestMethod]\n[DataRow("]")]\npublic void TestRun' + body, "Run")
    assert report.correct_syntax and report.has_comment and report.invokes_focal
    cut = truncate_completion(RawCompletion(hint, body + "\n[TestMethod]\npublic void Next() { }"))
    assert cut == hint + body
    tree = parse_focal_file("namespace N {\n// c\n[Serializable] class C<T> {\n"
                            "    int f;\n    public T Run<U>(U u) where U : T { return u; }\n} }")
    assert [m.name for m in tree.classes[0].methods] == ["Run"]
