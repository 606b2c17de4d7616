"""Lossless tokenizer for a practical subset of C#.

Concatenating the ``text`` of every token reproduces the input exactly,
byte for byte.  String and char literals keep their delimiters; verbatim
(``@"..."``) and interpolated (``$"..."``) strings are single tokens, with
interpolation holes scanned but not parsed.  An unterminated literal or
block comment yields a single ``error`` token covering the remainder of
the input.  Preprocessor directives are consumed as line tokens sharing
the ``comment-line`` kind; downstream consumers that care distinguish them
by text prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = ["Token", "TokenKind", "tokenize", "RESERVED_KEYWORDS"]


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

# Longest-first so ?? beats ?, => beats =, and so on.
_MULTI_CHAR_OPERATORS = (
    "??=", "<<=", ">>=",
    "=>", "==", "!=", "<=", ">=", "&&", "||", "??", "?.", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "->", "::", "<<", ">>",
)

_WS_CHARS = " \t\r\n\f\v"
_NUMBER_SUFFIX = "fFdDmMuUlL"
_TRIVIA_KINDS = frozenset(
    {TokenKind.WHITESPACE, TokenKind.COMMENT_LINE, TokenKind.COMMENT_BLOCK}
)


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    byte_offset: int

    @property
    def is_trivia(self) -> bool:
        return self.kind in _TRIVIA_KINDS


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_part(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def _scan_regular_string(source: str, i: int) -> int | None:
    """Return the index just past the closing quote, or None if unterminated."""
    j = i + 1
    n = len(source)
    while j < n:
        ch = source[j]
        if ch == "\\" and j + 1 < n:
            j += 2
            continue
        if ch == '"':
            return j + 1
        if ch == "\n":
            return None
        j += 1
    return None


def _scan_verbatim_string(source: str, i: int) -> int | None:
    """``i`` points at the opening quote. ``""`` escapes a quote."""
    j = i + 1
    n = len(source)
    while j < n:
        if source[j] == '"':
            if j + 1 < n and source[j + 1] == '"':
                j += 2
                continue
            return j + 1
        j += 1
    return None


def _scan_char(source: str, i: int) -> int | None:
    j = i + 1
    n = len(source)
    if j < n and source[j] == "\\":
        j += 2
        # \uXXXX and friends: swallow up to the closing quote on this line.
        while j < n and source[j] not in "'\n":
            j += 1
    elif j < n and source[j] not in "'\n":
        j += 1
    if j < n and source[j] == "'":
        return j + 1
    return None


def _scan_interpolated(source: str, i: int, verbatim: bool) -> int | None:
    """``i`` points at the opening quote. Holes are brace-matched, and
    literals inside holes are skipped so their quotes cannot end the token."""
    j = i + 1
    n = len(source)
    depth = 0
    while j < n:
        ch = source[j]
        if depth == 0:
            if ch == "{":
                if j + 1 < n and source[j + 1] == "{":
                    j += 2
                    continue
                depth = 1
                j += 1
                continue
            if ch == "}":
                if j + 1 < n and source[j + 1] == "}":
                    j += 2
                    continue
                j += 1
                continue
            if verbatim and ch == '"':
                if j + 1 < n and source[j + 1] == '"':
                    j += 2
                    continue
                return j + 1
            if not verbatim:
                if ch == "\\" and j + 1 < n:
                    j += 2
                    continue
                if ch == '"':
                    return j + 1
                if ch == "\n":
                    return None
            j += 1
        else:
            if ch == "{":
                depth += 1
                j += 1
            elif ch == "}":
                depth -= 1
                j += 1
            elif ch == '"':
                end = _scan_regular_string(source, j)
                if end is None:
                    return None
                j = end
            elif ch == "'":
                end = _scan_char(source, j)
                j = end if end is not None else j + 1
            else:
                j += 1
    return None


def _scan_number(source: str, i: int) -> int:
    j = i
    n = len(source)
    if source.startswith(("0x", "0X", "0b", "0B"), j):
        j += 2
        while j < n and (source[j] in "0123456789abcdefABCDEF_"):
            j += 1
    else:
        while j < n and (source[j].isdigit() or source[j] == "_"):
            j += 1
        if j < n and source[j] == "." and j + 1 < n and source[j + 1].isdigit():
            j += 1
            while j < n and (source[j].isdigit() or source[j] == "_"):
                j += 1
        if j < n and source[j] in "eE":
            k = j + 1
            if k < n and source[k] in "+-":
                k += 1
            if k < n and source[k].isdigit():
                j = k
                while j < n and source[j].isdigit():
                    j += 1
    while j < n and source[j] in _NUMBER_SUFFIX:
        j += 1
    return j


_ATTRIBUTE_CLOSERS = {")": "(", "]": "[", "}": "{"}


def _scan_attribute(source: str, i: int) -> int | None:
    """``i`` points at ``[``. Returns the index past the matching ``]``, or
    None when the run is not one balanced attribute list.

    (), [] and {} are matched with a stack, skipping literals and comments,
    so ``[DataRow("]")]`` stays one token while ``[TestMethod(]`` is left
    to the punctuation rules and its unbalanced delimiter stays visible."""
    j = i + 1
    n = len(source)
    stack = ["["]
    while j < n:
        ch = source[j]
        if ch in "([{":
            stack.append(ch)
            j += 1
        elif ch in _ATTRIBUTE_CLOSERS:
            if stack.pop() != _ATTRIBUTE_CLOSERS[ch]:
                return None
            j += 1
            if not stack:
                return j
        elif ch == '"':
            end = _scan_regular_string(source, j)
            if end is None:
                return None
            j = end
        elif ch == "'":
            end = _scan_char(source, j)
            j = end if end is not None else j + 1
        elif source.startswith("//", j):
            while j < n and source[j] != "\n":
                j += 1
        elif source.startswith("/*", j):
            close = source.find("*/", j + 2)
            if close < 0:
                return None
            j = close + 2
        else:
            j += 1
    return None


def _attribute_position(prev: Token | None) -> bool:
    # An attribute list can only open a file, follow another attribute, or
    # follow a statement/member boundary; everywhere else [ is indexing.
    if prev is None:
        return True
    if prev.kind is TokenKind.ATTRIBUTE:
        return True
    return prev.kind is TokenKind.PUNCTUATION and prev.text in ("{", "}", ";")


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    byte_pos = 0
    n = len(source)
    prev_significant: Token | None = None
    at_line_start = True

    def emit(kind: TokenKind, end: int) -> None:
        nonlocal i, byte_pos, prev_significant, at_line_start
        text = source[i:end]
        tok = Token(kind, text, byte_pos)
        tokens.append(tok)
        byte_pos += len(text.encode("utf-8"))
        i = end
        if tok.kind not in _TRIVIA_KINDS:
            prev_significant = tok
        last_nl = text.rfind("\n")
        if last_nl >= 0:
            at_line_start = text[last_nl + 1 :].strip(" \t") == ""
        else:
            at_line_start = at_line_start and text.strip(" \t") == "" and text != ""

    while i < n:
        ch = source[i]

        if ch in _WS_CHARS:
            j = i
            while j < n and source[j] in _WS_CHARS:
                j += 1
            emit(TokenKind.WHITESPACE, j)
            continue

        if source.startswith("//", i):
            j = source.find("\n", i)
            emit(TokenKind.COMMENT_LINE, n if j < 0 else j)
            continue

        if source.startswith("/*", i):
            close = source.find("*/", i + 2)
            if close < 0:
                emit(TokenKind.ERROR, n)
                continue
            emit(TokenKind.COMMENT_BLOCK, close + 2)
            continue

        if ch == "#" and at_line_start:
            j = source.find("\n", i)
            emit(TokenKind.COMMENT_LINE, n if j < 0 else j)
            continue

        if ch == '"':
            end = _scan_regular_string(source, i)
            emit(TokenKind.STRING if end is not None else TokenKind.ERROR,
                 end if end is not None else n)
            continue

        if ch == "'":
            end = _scan_char(source, i)
            emit(TokenKind.CHAR if end is not None else TokenKind.ERROR,
                 end if end is not None else n)
            continue

        if ch == "@":
            if source.startswith('@"', i):
                end = _scan_verbatim_string(source, i + 1)
                emit(TokenKind.STRING if end is not None else TokenKind.ERROR,
                     end if end is not None else n)
                continue
            if source.startswith('@$"', i):
                end = _scan_interpolated(source, i + 2, verbatim=True)
                emit(TokenKind.STRING if end is not None else TokenKind.ERROR,
                     end if end is not None else n)
                continue
            if i + 1 < n and _is_ident_start(source[i + 1]):
                j = i + 2
                while j < n and _is_ident_part(source[j]):
                    j += 1
                emit(TokenKind.IDENTIFIER, j)
                continue
            emit(TokenKind.PUNCTUATION, i + 1)
            continue

        if ch == "$":
            if source.startswith('$"', i):
                end = _scan_interpolated(source, i + 1, verbatim=False)
                emit(TokenKind.STRING if end is not None else TokenKind.ERROR,
                     end if end is not None else n)
                continue
            if source.startswith('$@"', i):
                end = _scan_interpolated(source, i + 2, verbatim=True)
                emit(TokenKind.STRING if end is not None else TokenKind.ERROR,
                     end if end is not None else n)
                continue
            emit(TokenKind.PUNCTUATION, i + 1)
            continue

        if ch.isdigit():
            emit(TokenKind.NUMBER, _scan_number(source, i))
            continue

        if _is_ident_start(ch):
            j = i + 1
            while j < n and _is_ident_part(source[j]):
                j += 1
            word = source[i:j]
            kind = TokenKind.KEYWORD if word in RESERVED_KEYWORDS else TokenKind.IDENTIFIER
            emit(kind, j)
            continue

        if ch == "[" and _attribute_position(prev_significant):
            k = i + 1
            while k < n and source[k] in " \t\r\n":
                k += 1
            if k < n and (_is_ident_start(source[k]) or source[k] == "@"):
                end = _scan_attribute(source, i)
                if end is not None:
                    emit(TokenKind.ATTRIBUTE, end)
                    continue

        matched = False
        for op in _MULTI_CHAR_OPERATORS:
            if source.startswith(op, i):
                emit(TokenKind.PUNCTUATION, i + len(op))
                matched = True
                break
        if matched:
            continue

        if ch in "(){}[]<>.,;:?!+-*/%=&|^~#":
            emit(TokenKind.PUNCTUATION, i + 1)
            continue

        # Anything else is outside the supported subset.
        emit(TokenKind.ERROR, i + 1)

    return tokens
