"""Tokenizer for a practical subset of C#.

``scan`` is the one pass over the source: it returns the significant tokens
and the comment tokens, and whitespace lies between them.  Each token comes
as a row, a plain ``(kind, text, offset)`` tuple that readers take apart by
the indices ``KIND``, ``TEXT`` and ``OFFSET`` or by unpacking; ``offset`` is
the character offset of ``text`` in the input.  A row is one tuple display,
where a ``Token`` NamedTuple costs a second tuple and a call: building
``Token``s took about a quarter of ``scan``'s time.  A row equals the
``Token`` of the same fields.  ``tokenize`` is the lossless view and the
only code that builds ``Token``s: it puts a ``whitespace`` token in each
gap, so concatenating the ``text`` of every token reproduces the input
exactly.

String and char literals keep their delimiters; verbatim (``@"..."``) and
interpolated (``$"..."``) strings are single tokens, with interpolation
holes scanned but not parsed.  An unterminated literal or block comment
yields a single ``error`` token covering the remainder of the input.
Preprocessor directives are consumed as line tokens sharing the
``comment-line`` kind; downstream consumers that care distinguish them by
text prefix.

The token patterns are written once and compiled twice.  ``scan`` finds
each token with the one-group form, which matches the token together with
the whitespace before it, so the scan makes one match per token and builds
no token for whitespace.  The first character then decides most kinds: an
ASCII letter or ``_`` starts a word (a reserved word is a keyword, any
other an identifier), an ASCII digit a number, and a character of
``(){}]<>.,;:?!+-*%=&|^~`` punctuation.  Any other token is matched again
with the named-group form, whose group gives its kind or sends it to hand
code.  Hand code runs only where context decides: an interpolated string's
holes, a ``#`` that opens a line, a ``[`` that may open an attribute list,
and an unterminated literal or comment.  It also turns away a word that
the regex word class admits but C# does not, one starting with a digit or
numeral that is not a letter, and resolves an ``@`` word.
"""

from __future__ import annotations

import re
import string
from enum import Enum
from operator import itemgetter
from typing import NamedTuple

__all__ = ["Token", "TokenKind", "Row", "KIND", "TEXT", "OFFSET", "scan", "tokenize",
           "RESERVED_KEYWORDS"]


class TokenKind(str, Enum):
    IDENTIFIER = "identifier"
    KEYWORD = "keyword"
    PUNCTUATION = "punctuation"
    STRING = "string-literal"
    CHAR = "char-literal"
    NUMBER = "number"
    COMMENT_LINE = "comment-line"
    COMMENT_BLOCK = "comment-block"
    ATTRIBUTE = "attribute-bracket"
    WHITESPACE = "whitespace"
    ERROR = "error"


# Reserved words only; contextual keywords (var, async, await, when, ...)
# stay identifiers so member accesses like result.value keep working.
RESERVED_KEYWORDS = frozenset(
    """
    abstract as base bool break byte case catch char checked class const
    continue decimal default delegate do double else enum event explicit
    extern false finally fixed float for foreach goto if implicit in int
    interface internal is lock long namespace new null object operator out
    override params private protected public readonly ref return sbyte
    sealed short sizeof stackalloc static string struct switch this throw
    true try typeof uint ulong unchecked unsafe ushort using virtual void
    volatile while
    """.split()
)

_COMMENT_KINDS = frozenset({TokenKind.COMMENT_LINE, TokenKind.COMMENT_BLOCK})
# Kinds as module constants: reading a member off the enum class goes
# through ``EnumType.__getattr__``, about ten times slower than a global.
_ATTRIBUTE = TokenKind.ATTRIBUTE
_PUNCTUATION = TokenKind.PUNCTUATION


class Token(NamedTuple):
    kind: TokenKind
    text: str
    offset: int  # character offset of ``text`` in the source


# A token as ``scan`` returns it, and the index of each of its fields.
Row = tuple[TokenKind, str, int]
KIND, TEXT, OFFSET = 0, 1, 2


# The token alternatives, in order: earlier ones win, so comments beat
# ``/``, literals beat their unterminated openers and ``??=`` beats ``??``
# beats ``?``.  ``ERROR`` matches any character the others do not, so the
# engine never backtracks into the whitespace before a token.  Numbers take
# Unicode decimal digits (``\d``); a digit that is not decimal, such as
# ``²``, is an error unless it continues a word.  The ``(?!")`` stops a
# verbatim string backtracking into a ``""`` escape.
_ALTERNATIVES = {
    "COMMENT_LINE": r"//[^\n]*",
    "COMMENT_BLOCK": r"/\*.*?\*/",
    "STRING": r""" "(?:\\.|[^"\\\n])*" | @"(?:[^"]|"")*"(?!") """,
    "CHAR": r"'(?:\\.[^'\n]*|[^'\n\\])?'",
    "INTERPOLATED": r"""\$@?" | @\$" """,
    "UNTERMINATED": r"""/\* | @?" | ' """,
    "NUMBER": r"""(?:0[xXbB][0-9a-fA-F_]*
                  | \d[\d_]*(?:\.\d[\d_]*)?(?:[eE][+-]?\d+)?)[fFdDmMuUlL]*""",
    "WORD": r"@?[^\W\d]\w*",
    "HASH": r"\#",
    "BRACKET": r"\[",
    "PUNCTUATION": r"""\?\?= | <<= | >>=
                     | => | [=!<>+\-*/%&|^]= | && | \|\| | \?\? | \?\. | \+\+ | -- | -> | :: | << | >>
                     | [(){}\]<>.,;:?!+\-*/%=&|^~@$]""",
    "ERROR": r".",
}
_WHITESPACE = " \t\r\n\f\v"


def _compile(tokens: str) -> re.Pattern[str]:
    """The whitespace before a token, then ``tokens``."""
    return re.compile(f"[{_WHITESPACE}]*" + tokens, re.VERBOSE | re.DOTALL)


# The alternatives compiled twice.  ``_TOKEN`` names each one: a group
# named after a TokenKind member yields that kind as matched, and the rest
# go to hand code in ``_resolve``.  ``_SPAN`` has one group and only finds
# where a token lies: with no named groups sre can rule out most branches
# by their first character, and a match keeps no per-group marks.  It
# tries ``WORD`` first, which moves no span, because no earlier
# alternative can start with a letter, ``_``, or ``@`` then a letter.
_TOKEN = _compile(
    "(?:" + "|".join(f"(?P<{name}>{alt})" for name, alt in _ALTERNATIVES.items()) + ")")
_SPAN = _compile(
    "(" + "|".join([_ALTERNATIVES["WORD"]]
                   + [alt for name, alt in _ALTERNATIVES.items() if name != "WORD"]) + ")")
_KIND_OF_GROUP = {
    name: TokenKind[name] for name in _TOKEN.groupindex if name in TokenKind.__members__
}
_KIND_OF_WORD = dict.fromkeys(RESERVED_KEYWORDS, TokenKind.KEYWORD)
# The kind a token's first character decides alone: ASCII words (looked up
# as keyword or identifier), ASCII numbers and punctuation that opens no
# comment, literal or attribute.  Other tokens go through ``_TOKEN``.
_KIND_OF_FIRST = {
    **dict.fromkeys(string.ascii_letters + "_", TokenKind.IDENTIFIER),
    **dict.fromkeys(string.digits, TokenKind.NUMBER),
    **dict.fromkeys("(){}]<>.,;:?!+-*%=&|^~", TokenKind.PUNCTUATION),
}
_LITERAL_GROUPS = frozenset({"STRING", "CHAR", "COMMENT_LINE", "COMMENT_BLOCK"})

# Runs of text the hand scanners step over in one match.
_INTERPOLATED_TEXT = {
    False: re.compile(r'(?:\\.|\{\{|[^"\\\n{])*', re.DOTALL),
    True: re.compile(r'(?:""|\{\{|[^"{])*'),
}
_HOLE_TEXT = re.compile(r"[^{}\"']*")
_ATTRIBUTE_TEXT = re.compile(r"[^()\[\]{}\"'/]*")
_ATTRIBUTE_NAME = re.compile(r"[ \t\r\n]*(.?)", re.DOTALL)
_ATTRIBUTE_CLOSERS = {")": "(", "]": "[", "}": "{"}


def _skip_literal(source: str, j: int) -> int | None:
    """``j`` points at a quote or slash inside a hole or an attribute.
    Returns the index past the string, char or comment starting there, one
    past a stray ``'`` or ``/``, or None for an unterminated string or
    block comment."""
    m = _TOKEN.match(source, j)
    if m.lastgroup in _LITERAL_GROUPS:
        return m.end()
    if m.lastgroup == "UNTERMINATED" and source[j] != "'":
        return None
    return j + 1


def _scan_interpolated(source: str, j: int, verbatim: bool) -> int | None:
    """``j`` is just past the opening quote.  Holes are brace-matched, and
    literals inside holes are skipped so their quotes cannot end the token.
    Returns the index past the closing quote, or None if unterminated."""
    depth = 0
    while j < len(source):
        if depth == 0:
            j = _INTERPOLATED_TEXT[verbatim].match(source, j).end()
            stop = source[j : j + 1]
            if stop != "{":
                return j + 1 if stop == '"' else None
            depth, j = 1, j + 1
            continue
        j = _HOLE_TEXT.match(source, j).end()
        stop = source[j : j + 1]
        if stop in ("{", "}"):
            depth += 1 if stop == "{" else -1
            j += 1
        elif stop:
            end = _skip_literal(source, j)
            if end is None:
                return None
            j = end
    return None


def _scan_attribute(source: str, i: int, decided: dict[int, int | None]) -> int | None:
    """``i`` points at ``[``. Returns the index past the matching ``]``, or
    None when the run is not one balanced attribute list.

    (), [] and {} are matched with a stack, skipping literals and comments,
    so ``[DataRow("]")]`` stays one token while ``[TestMethod(]`` is left
    to the punctuation rules and its unbalanced delimiter stays visible.

    ``decided`` maps each opener that a scan in this pass pushed to where a
    scan from it ends, so no run of unclosed ``[`` is rescanned per ``[``."""
    if i in decided:
        return decided[i]
    j = i + 1
    stack = [i]  # positions of the open delimiters
    while j < len(source):
        j = _ATTRIBUTE_TEXT.match(source, j).end()
        ch = source[j : j + 1]
        if ch in ("(", "[", "{"):
            stack.append(j)
            j += 1
        elif ch in _ATTRIBUTE_CLOSERS:
            if source[stack[-1]] != _ATTRIBUTE_CLOSERS[ch]:
                break
            j += 1
            decided[stack.pop()] = j  # a scan from there closes here too
            if not stack:
                return j
        elif ch:
            end = _skip_literal(source, j)
            if end is None:
                break
            j = end
    decided.update(dict.fromkeys(stack))  # still open at a failure: none can close
    return None


def _opens_attribute(source: str, i: int, significant: list[Row]) -> bool:
    # An attribute list can only open a file, follow another attribute, or
    # follow a statement/member boundary; everywhere else [ is indexing.
    # Its first name must start with a letter, ``_`` or ``@``.
    if significant:
        kind, text, _ = significant[-1]
        if kind is not _ATTRIBUTE and (kind is not _PUNCTUATION or text not in ("{", "}", ";")):
            return False
    first = _ATTRIBUTE_NAME.match(source, i + 1).group(1)
    return first.isalpha() or first in ("_", "@")


def _opens_line(source: str, i: int) -> bool:
    """True when only spaces and tabs sit between the previous newline (or
    the start of the input) and ``i``."""
    k = i - 1
    while k >= 0 and source[k] in " \t":
        k -= 1
    return k < 0 or source[k] == "\n"


def _resolve(source: str, group: str, start: int, end: int, significant: list[Row],
             decided: dict[int, int | None]) -> tuple[TokenKind, int]:
    """Kind and end of the token that ``group`` matched at ``start:end``,
    where context decides."""
    if group == "WORD":
        at = source[start] == "@"
        if source[start + at].isalpha() or source[start + at] == "_":
            return _KIND_OF_WORD.get(source[start:end], TokenKind.IDENTIFIER), end
        # \w also admits digits and numerals that are not letters.
        return (TokenKind.PUNCTUATION if at else TokenKind.ERROR), start + 1
    if group == "HASH":
        if not _opens_line(source, start):
            return TokenKind.PUNCTUATION, end
        end = source.find("\n", start)
        return TokenKind.COMMENT_LINE, (len(source) if end < 0 else end)
    if group == "BRACKET":
        attribute_end = (_opens_attribute(source, start, significant)
                         and _scan_attribute(source, start, decided))
        return (TokenKind.ATTRIBUTE, attribute_end) if attribute_end else (TokenKind.PUNCTUATION, end)
    if group == "INTERPOLATED":
        end = _scan_interpolated(source, end, verbatim="@" in source[start:end])
    if group == "UNTERMINATED" or end is None:
        return TokenKind.ERROR, len(source)
    return TokenKind.STRING, end


def scan(source: str) -> tuple[list[Row], list[Row]]:
    """The significant rows and the comment rows of ``source``, each in
    source order; whitespace is the only text that neither list covers."""
    significant: list[Row] = []
    comments: list[Row] = []
    decided: dict[int, int | None] = {}
    match, kind_of_first, kind_of_word = _SPAN.match, _KIND_OF_FIRST.get, _KIND_OF_WORD.get
    identifier, comment_kinds = TokenKind.IDENTIFIER, _COMMENT_KINDS
    # Before ``end`` a token is always left, so every match finds one.
    end = len(source.rstrip(_WHITESPACE))
    pos = 0
    while pos < end:
        start, pos = match(source, pos).span(1)
        text = source[start:pos]
        kind = kind_of_first(text[0])
        if kind is identifier:
            kind = kind_of_word(text, identifier)
        elif kind is None:
            group = _TOKEN.match(source, start).lastgroup
            kind = _KIND_OF_GROUP.get(group)
            if kind is None:
                kind, pos = _resolve(source, group, start, pos, significant, decided)
                text = source[start:pos]
            if kind in comment_kinds:
                comments.append((kind, text, start))
                continue
        significant.append((kind, text, start))
    return significant, comments


def tokenize(source: str) -> list[Token]:
    """Every token of ``source`` in order, whitespace too: ``scan``, lossless,
    as ``Token``s."""
    significant, comments = scan(source)
    tokens: list[Token] = []
    pos = 0
    for kind, text, offset in sorted(significant + comments, key=itemgetter(OFFSET)):
        if offset > pos:
            tokens.append(Token(TokenKind.WHITESPACE, source[pos:offset], pos))
        tokens.append(Token(kind, text, offset))
        pos = offset + len(text)
    if pos < len(source):
        tokens.append(Token(TokenKind.WHITESPACE, source[pos:], pos))
    return tokens
