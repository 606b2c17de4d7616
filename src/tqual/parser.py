"""Recursive-descent parsers for the C# subset.

Two entry points: ``parse_test_method`` for a single attribute-decorated
test method, ``parse_focal_file`` for a whole focal source file.  Both are
recovery-oriented: constructs outside the subset become unknown statements
or raw member spans instead of hard failures, and ``check_syntax`` answers
the one question the pipeline needs, "would a C# compiler plausibly accept
this test".  Soundness rule: unbalanced delimiters outside literals and
comments are always fatal, as is every other diagnostic.  Every statement
that is neither a block nor a headed construct ends by one rule: at its
depth-zero ';', or fatally.  The keywords left outside the subset
(``break``, ``continue``, ``goto``, ``yield``, ``lock``, ``fixed``,
``unsafe``, ``checked``, ``unchecked``) give unknown statements by that
rule; the last five may also end at the '}' that closes their block.  A
switch section needs a statement after its labels.

One reader, ``_Parser.read_header``, reads the test method's header and
each focal member's.  The test method's name must be an identifier after
none or one type: predefined, a tuple, or a name of parts joined by '.' or
'::', each with any generic arguments; then any '?', '*' and array ranks.
The only keywords a tuple or generic argument list may hold are predefined
types.  Generic parameters after the name are identifiers, each after any
'[...]' attribute groups, with ',' between.  Else the header is fatal, and
its tokens are read as statements from the first one after the modifiers.
Of a focal file only names and spans are kept: of classes, methods and
signatures, fields and other members.

Every skip over a run of tokens goes through one of two primitives:
``_Parser.scan`` walks forward counting depth over a chosen set of
delimiter pairs and stops at a chosen depth-zero token or after a closing
one; the angle table steps over a ``<...>`` generic argument list,
forwards or backwards, in one lookup.  Both parsers descend at most
``MAX_NESTING`` levels (statements, or namespace and type bodies).
Constructs past the cap are skipped flat, the first with a fatal
``nesting too deep`` diagnostic, so no input exhausts the Python stack.

The one pass that checks error tokens and delimiters also records the
index of every ``(`` and ``?`` and builds the angle table, which pairs
each ``<`` with its ``>``.  Call sites and ternaries are read from that
index: each expression bisects to the ``(`` in its range and reads only
the tokens before each, and its ternary walk runs only when a ``?`` lies
in range, starting there.  No expression's tokens are copied.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .lexer import KIND, OFFSET, TEXT, Row, TokenKind
from .lexer import scan as tokenize  # the lexer call, by the name tracers patch
from .nodes import (
    ClassNode,
    FocalFileTree,
    Invocation,
    MethodNode,
    Statement,
    SyntaxDiagnostic,
    SyntaxVerdict,
    TestSyntaxTree,
)

__all__ = ["parse_test_method", "parse_focal_file", "check_syntax"]

MODIFIER_WORDS = frozenset(
    """
    public private protected internal static readonly volatile virtual
    override abstract sealed extern unsafe new const async partial required ref file
    """.split()
)

PREDEFINED_TYPES = frozenset(
    """
    bool byte sbyte char decimal double float int uint nint nuint long ulong
    short ushort object string void dynamic
    """.split()
)

# Deepest level either parser descends to.  Each level costs at most two
# Python frames, so a parse at the cap stays well inside the default
# recursion limit of 1000 frames.
MAX_NESTING = 420

# Module constants: an enum member read off its class is a slow lookup.
_IDENTIFIER = TokenKind.IDENTIFIER
_KEYWORD = TokenKind.KEYWORD
_PUNCTUATION = TokenKind.PUNCTUATION
_ATTRIBUTE = TokenKind.ATTRIBUTE
_ERROR = TokenKind.ERROR

_OPENERS = {"(": ")", "[": "]", "{": "}"}
_CLOSERS = {v: k for k, v in _OPENERS.items()}

# Depth steps for ``_Parser.scan``: which delimiters a scan counts.
_ALL = {**dict.fromkeys(_OPENERS, 1), **dict.fromkeys(_CLOSERS, -1)}
_PARENS = {"(": 1, ")": -1}
_BRACES = {"{": 1, "}": -1}
_FLAT: dict[str, int] = {}

# Scan stops.  A closer in a stop set ends the scan when unmatched.
_STATEMENT_END = frozenset({";", ")", "]", "}"})
_COLON = frozenset({":"})
_MEMBER_END = frozenset({"(", "=", ";", "{", "=>", "}"})
_TYPE_BODY = frozenset({"{", ";"})

# Generic angle brackets: how many angles each opens (> 0) or closes (< 0).
_ANGLES = {"<": 1, "<<": 2, ">": -1, ">>": -2}
# Punctuation a tuple type or a generic argument list may hold.
_TYPE_PUNCTUATION = frozenset({*",.?[]*()", "::", *_ANGLES})

_HEADED = {"if": "if", "while": "while", "for": "for", "foreach": "foreach",
           "using": "using-statement"}
# Keyword statements: the kind of each, and the closer that may also end it.
_KEYWORD_STATEMENTS = {
    "return": ("return", ""), "throw": ("throw", ""), "using": ("using-statement", ""),
    **dict.fromkeys("break continue goto yield".split(), ("unknown-statement", "")),
    **dict.fromkeys("lock fixed unsafe checked unchecked".split(), ("unknown-statement", "}")),
}
# Keywords that continue a construct, so never start a statement.
_ORPHAN_KEYWORDS = frozenset({"else", "catch", "finally", "case"})


# ── parser state ─────────────────────────────────────────────────────────


class _Parser:
    """The state of one parse, shared by both parsers: the significant
    tokens and the position in them, the comments, the diagnostics, the
    ``(`` and ``?`` indices, the angle table and the current nesting level.

    Row offsets are character offsets, so statement and member spans
    index straight into the source."""

    def __init__(self, source: str):
        self.source = source
        self.toks, self.comments = tokenize(source)
        self.pos = 0
        self.diags, self.parens, self.questions, self.angles = _token_diagnostics(self.toks)
        self.depth = 0
        self.capped = False

    @property
    def at_end(self) -> bool:
        return self.pos >= len(self.toks)

    def peek(self, k: int = 0) -> Row | None:
        j = self.pos + k
        return self.toks[j] if j < len(self.toks) else None

    def peek_text(self, k: int = 0) -> str:
        j = self.pos + k
        return self.toks[j][TEXT] if j < len(self.toks) else ""

    def advance(self) -> Row:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def accept(self, text: str) -> bool:
        """Consume the next token if its text is ``text``."""
        if self.peek_text() == text:
            self.pos += 1
            return True
        return False

    def offset(self) -> int:
        """Character offset of the current significant token; at end of input,
        that of the trailing whitespace, else that of the last token."""
        if not self.at_end:
            return self.toks[self.pos][OFFSET]
        spans = [(offset, offset + len(text))
                 for _, text, offset in self.toks[-1:] + self.comments[-1:]]
        start, end = max(spans, default=(0, 0))
        return end if end < len(self.source) else start

    def char_span(self, start_pos: int, end_pos: int) -> tuple[int, int]:
        """[start, end) character span covering significant tokens
        ``start_pos`` .. ``end_pos`` inclusive.  When ``end_pos`` is before
        ``start_pos`` the span is empty, where ``start_pos`` begins or at
        end of input."""
        if start_pos >= len(self.toks):
            return len(self.source), len(self.source)
        a = self.toks[start_pos][OFFSET]
        if end_pos < start_pos:
            return a, a
        _, text, offset = self.toks[end_pos]
        return a, offset + len(text)

    def scan(self, stops: frozenset[str] = frozenset(), pairs: dict[str, int] = _ALL,
             close: str = "") -> str:
        """Advance, counting depth with the ``pairs`` steps, to the first
        token in ``stops`` met at depth zero, or just past a ``close`` that
        brings depth back to zero.  Returns the text of that token (a stop
        is not consumed, a close is), or "" at end of input.

        Closers that are not stops may take depth below zero.  A caller that
        only looks ahead saves ``pos`` and puts it back."""
        toks = self.toks
        n = len(toks)
        depth = 0
        k = self.pos
        while k < n:
            t = toks[k][TEXT]
            if depth == 0 and t in stops:
                self.pos = k
                return t
            k += 1
            step = pairs.get(t)
            if step:
                depth += step
                if depth == 0 and t == close:
                    self.pos = k
                    return t
        self.pos = k
        return ""

    def to_semicolon(self) -> None:
        """Skip past the next depth-zero ';', or up to an unmatched closer."""
        self.scan(_STATEMENT_END)
        self.accept(";")

    def read_header(self) -> int | None:
        """Read a member header to past its parameter list, the first depth-zero
        '(' group that starts no tuple type (as one first in the type, after ','
        or a '<' naming no operator, or after 'operator' before another '(').
        The name's index, -1 if no identifier precedes the list and its generic
        parameters, or None at a member terminator or the end of input."""
        toks, start = self.toks, self.pos
        while self.scan(_MEMBER_END) == "(":
            j = self.pos - 1
            self.scan(pairs=_PARENS, close=")")
            if not (j < start
                    or toks[j][TEXT] in ("<", ",") and toks[j - 1][TEXT] != "operator"
                    or toks[j][TEXT] == "operator" and self.peek_text() == "("):
                if toks[j][TEXT] in (">", ">>"):  # past generic parameters
                    j = self.angles.get(j, 0) - 1
                return j if j >= start and toks[j][KIND] is _IDENTIFIER else -1
        return None

    def fatal(self, message: str) -> None:
        self.diags.append(SyntaxDiagnostic(message, self.offset()))

    def too_deep(self) -> bool:
        """True at the nesting cap, where the caller skips the construct
        flat instead of descending into it.  The first time is fatal."""
        if self.depth < MAX_NESTING:
            return False
        if not self.capped:
            self.capped = True
            self.fatal("nesting too deep")
        return True


def _type_end(toks: list[Row], angles: dict[int, int], k: int) -> int:
    """Index just past the type at ``toks[k]`` (see the module docstring), or
    -1.  Its tuple and generic argument lists are read by ``_group_end``."""
    n = len(toks)
    if k < n and toks[k][TEXT] == "(":
        k = _group_end(toks, angles, k)
    elif k < n and toks[k][KIND] is _KEYWORD and toks[k][TEXT] in PREDEFINED_TYPES:
        k += 1
    else:  # a name: parts joined by '.' or '::', each with its generic arguments
        while k < n and toks[k][KIND] is _IDENTIFIER:
            k += 1
            if k < n and toks[k][TEXT] == "<":
                k = _group_end(toks, angles, k)
            if not 0 <= k < n or toks[k][TEXT] not in (".", "::"):
                break
            k += 1
        else:  # no name part where one must be
            return -1
    in_rank = False  # between an array rank's '[' and its ']'
    while 0 <= k < n and toks[k][TEXT] in ((",", "]") if in_rank else ("?", "*", "[")):
        in_rank = toks[k][TEXT] in ("[", ",")
        k += 1
    return -1 if in_rank else k  # k is -1 after a refused group


def _group_end(toks: list[Row], angles: dict[int, int], k: int) -> int:
    """Index just past the tuple or generic argument list opened at
    ``toks[k]``, or -1 at a token in it that is not an identifier, a
    predefined type or ``_TYPE_PUNCTUATION`` or that closes a group opened
    before it (so no open '(' or '<' reads past its statement), or for a
    one-element tuple.  A tuple steps over its argument lists through the
    angle table."""
    is_tuple = toks[k][TEXT] == "("
    end = len(toks) if is_tuple else angles.get(k, len(toks) - 1) + 1
    depth = commas = 0
    while 0 <= k < end:  # -1 from an argument list ends a tuple's walk
        kind, text, _ = toks[k]
        if is_tuple and text in _ANGLES:  # a '<' and its generic arguments
            k = _group_end(toks, angles, k) if text == "<" else -1
            continue
        depth += _ALL.get(text, 0)
        if depth < 0 or not (kind is _IDENTIFIER or text in _TYPE_PUNCTUATION
                             or kind is _KEYWORD and text in PREDEFINED_TYPES):
            return -1
        commas += depth == 1 and text == ","
        if is_tuple and depth == 0:
            return k + 1 if commas else -1
        k += 1
    return -1 if is_tuple else end


def _type_parameters_valid(p: _Parser, k: int) -> bool:
    """Whether ``p.toks[k]``, after a method's name, is the '(' of its
    parameter list or opens a generic parameter list: identifiers, each after
    any '[...]' attribute groups, with ',' between.  ``p.pos`` is left where
    it was."""
    toks, angles, pos = p.toks, p.angles, p.pos
    if toks[k][TEXT] == "(":
        return True
    end = angles.get(k, k)  # the list's closer
    valid = False
    while k < end and toks[k][TEXT] in ("<", ","):
        p.pos = k + 1
        while p.peek_text() == "[":
            p.scan(close="]")
        k = p.pos
        if k >= end or toks[k][KIND] is not _IDENTIFIER:
            break
        k += 1
        valid = k == end and toks[k][TEXT] == ">"
    p.pos = pos
    return valid


# ── shared checks ────────────────────────────────────────────────────────

_ERROR_TOKEN_MESSAGE = "unterminated literal, comment, or unsupported character"


def _token_diagnostics(significant: list[Row]) -> tuple[
        list[SyntaxDiagnostic], list[int], list[int], dict[int, int]]:
    """A diagnostic for each ``error`` token, in source order, then one for
    the first delimiter fault, if any; the indices of every ``(`` and every
    ``?`` punctuation token, ascending; and the angle table.

    (), [] and {} are stack-matched over the punctuation; attribute tokens
    are internally balanced and skipped.  The first unmatched closer, or
    else the innermost opener left unclosed, is the fault.  Any fault is
    fatal: this is the soundness floor under check_syntax.

    Angles match on a stack of their own: ``<`` pushes its index once and
    ``<<`` twice; ``>`` pops one entry and ``>>`` two, or what is left.  The
    angle table maps an opener to the closer that pops its last copy, and a
    closer that pops its full count to the last index it pops."""
    diags: list[SyntaxDiagnostic] = []
    parens: list[int] = []
    questions: list[int] = []
    angles: dict[int, int] = {}
    opens: list[int] = []  # one entry per open angle
    stack: list[Row] = []
    fault = None
    for i, tok in enumerate(significant):
        kind, text, offset = tok
        if kind is _ERROR:
            diags.append(SyntaxDiagnostic(_ERROR_TOKEN_MESSAGE, offset))
        elif kind is _PUNCTUATION:
            if text == "(":
                parens.append(i)
            elif text == "?":
                questions.append(i)
            elif text in _ANGLES:
                count = _ANGLES[text]
                if count > 0:
                    opens += [i] * count
                else:
                    popped = opens[count:]
                    del opens[count:]
                    for k in popped:
                        if not opens or opens[-1] != k:
                            angles[k] = i
                    if len(popped) == -count:
                        angles[i] = popped[0]
            if fault is not None:
                continue
            if text in _OPENERS:
                stack.append(tok)
            elif text in _CLOSERS:
                if stack and stack[-1][TEXT] == _CLOSERS[text]:
                    stack.pop()
                else:
                    fault = SyntaxDiagnostic(f"unmatched '{text}'", offset)
    if fault is None and stack:
        _, text, offset = stack[-1]
        fault = SyntaxDiagnostic(f"unclosed '{text}'", offset)
    if fault is not None:
        diags.append(fault)
    return diags, parens, questions, angles


# ── expression-level extraction ──────────────────────────────────────────


def _extract_invocations(toks: list[Row], lo: int, hi: int, parens: list[int],
                         questions: list[int], angles: dict[int, int]
                         ) -> tuple[list[Invocation], bool]:
    """Call sites and ternary presence within the expression ``toks[lo ..
    hi]``.  ``parens``, ``questions`` and ``angles`` are the indices and the
    angle table of ``toks``, so only the tokens around each ``(`` are read."""
    invocations: list[Invocation] = []
    for idx in parens[bisect_left(parens, lo):bisect_right(parens, hi)]:
        j = idx - 1
        # Step over a generic argument list: Foo<Bar>( or Foo<A, B<C>>(.
        # A list opened before ``lo``, or never, leaves ``j`` below ``lo``.
        if j >= lo and toks[j][TEXT] in (">", ">>"):
            j = angles.get(j, 0) - 1
        if j < lo or toks[j][KIND] is not _IDENTIFIER:
            continue
        chain = [toks[j][TEXT]]
        rooted = True
        j -= 1
        while j >= lo and toks[j][TEXT] in (".", "?."):
            if j == lo:
                rooted = False
                break
            kind, text, _ = toks[j - 1]
            if kind is _IDENTIFIER or text in ("this", "base"):
                chain.insert(0, text)
                j -= 2
            else:
                # Chained off an expression result: (...).Wait() etc.
                rooted = False
                break
        is_constructor = j >= lo and toks[j][TEXT] == "new"
        invocations.append(Invocation(tuple(chain), rooted, is_constructor))

    # A ternary is a ':' at the depth of the last '?' still open.  Depths
    # only compare with each other, so the walk can start at the first '?'.
    first = bisect_left(questions, lo)
    if first == len(questions) or questions[first] > hi:
        return invocations, False
    depth = 0
    pending: list[int] = []  # depths of unmatched '?'
    for k in range(questions[first], hi + 1):
        kind, text, _ = toks[k]
        if kind is not _PUNCTUATION:
            continue
        if text in _OPENERS:
            depth += 1
        elif text in _CLOSERS:
            depth -= 1
            while pending and pending[-1] > depth:
                pending.pop()
        elif text == "?":
            pending.append(depth)
        elif text == ":" and pending and pending[-1] == depth:
            return invocations, True
    return invocations, False


# ── statement parsing ────────────────────────────────────────────────────


class _StatementParser(_Parser):
    def _make(self, kind: str, start: int, *, children: list[Statement] | None = None,
              expr: tuple[int, int] | None = None) -> Statement:
        # Indexed, not ``*expr``: a starred call made parsing 2% slower (CPython 3.11).
        invocations, has_ternary = _extract_invocations(
            self.toks, expr[0], expr[1], self.parens, self.questions, self.angles,
        ) if expr else ([], False)
        return Statement(kind, self.char_span(start, self.pos - 1), children or [],
                         invocations, has_ternary)

    def parse_block(self, closing: str | None, *, labels: bool = False) -> list[Statement]:
        """Statements up to the enclosing '}', which must follow (else the
        fatal ``closing`` diagnostic); with ``closing`` None, statements up
        to end of input, stray '}' included.  ``labels`` skips case labels."""
        statements: list[Statement] = []
        while not self.at_end:
            t = self.peek_text()
            if closing and t == "}":
                break
            if labels and (t == "case" or t == "default" and self.peek_text(1) == ":"):
                self.scan(_COLON)
                self.accept(":")
                if self.peek_text() == "}":
                    self.fatal("switch section without a statement")
            else:
                before = self.pos
                statements.append(self.parse_statement())
                if self.pos == before:  # safety: always make progress
                    self.advance()
        if closing and not self.accept("}"):
            self.fatal(closing)
        return statements

    def parse_statement(self) -> Statement:
        # Every construct recurses through here with at most one frame in
        # between, which keeps the cost of a nesting level at two frames.
        start = self.pos
        text = self.peek_text()
        if self.too_deep():
            return self._make("unknown-statement", start,
                              expr=(start, self._consume_simple_statement("}")))
        self.depth += 1
        if (text == "await" and self.peek_text(1) in ("foreach", "using")
                and self.peek_text(2) == "("):  # an awaited headed statement
            self.advance()  # its span keeps the 'await'
            text = self.peek_text()
        if text == "{":
            self.advance()
            stmt = self._make("block", start, children=self.parse_block("block not closed"))
        elif text in _HEADED and (text != "using" or self.peek_text(1) == "("):
            stmt = self._parse_headed(_HEADED[text], start)
        elif text == "switch":
            self.advance()
            header = self._consume_parens()
            children = []
            if self._at_block("switch body missing"):
                self.advance()
                children = self.parse_block("switch body not closed", labels=True)
            stmt = self._make("switch", start, children=children, expr=header)
        elif text == "do":
            stmt = self._parse_do(start)
        elif text == "try":
            stmt = self._parse_try(start)
        else:
            kind, close = _KEYWORD_STATEMENTS.get(text, ("", ""))
            if not kind:
                if text in _ORPHAN_KEYWORDS:
                    self.fatal(f"'{text}' without its statement")
                kind = ("local-declaration" if self._looks_like_declaration()
                        else "expression-statement")
            stmt = self._make(kind, start, expr=(start, self._consume_simple_statement(close)))
        self.depth -= 1
        return stmt

    # individual constructs

    def _parse_headed(self, kind: str, start: int) -> Statement:
        """``keyword (header) body``, plus an ``else`` branch for ``if``; a
        closer in place of a body is fatal (inline: a helper costs a frame)."""
        self.advance()
        header = self._consume_parens()
        children: list[Statement] = []
        while not self.at_end:
            if self.peek_text() in _CLOSERS:
                self.fatal("embedded statement missing")
                break
            children.append(self.parse_statement())
            if kind != "if" or len(children) == 2 or not self.accept("else"):
                break
        return self._make(kind, start, children=children, expr=header)

    def _parse_do(self, start: int) -> Statement:
        self.advance()
        children = [self.parse_statement()] if not self.at_end else []
        tail = self.pos
        if self.accept("while"):
            self._consume_parens()
            if not self.accept(";"):
                self.fatal("do-statement missing ';'")
        else:
            self.fatal("do-statement missing 'while'")
        return self._make("do", start, children=children, expr=(tail, self.pos - 1))

    def _parse_try(self, start: int) -> Statement:
        self.advance()
        children: list[Statement] = []
        if self._at_block("try block missing"):
            children.append(self.parse_statement())
        while self.accept("catch"):
            if self.peek_text() == "(":
                self._consume_parens()
            if self.peek_text() == "when" and self.peek_text(1) == "(":
                self.advance()
                self._consume_parens()
            if not self._at_block("catch block missing"):
                break
            children.append(self.parse_statement())
        if self.accept("finally") and self._at_block("finally block missing"):
            children.append(self.parse_statement())
        return self._make("try", start, children=children)

    def _at_block(self, missing: str) -> bool:
        """True at a '{'; anywhere else, fatal with ``missing``.  The caller
        parses the block, so a nesting level still costs two frames."""
        if self.peek_text() == "{":
            return True
        self.fatal(missing)
        return False

    # low-level consumers

    def _consume_parens(self) -> tuple[int, int]:
        """Consume a ``( ... )`` group, counting parentheses only; returns
        its sig-token range, empty when there is no '('."""
        start = self.pos
        if self.peek_text() != "(":
            self.fatal("expected '('")
        elif not self.scan(pairs=_PARENS, close=")"):
            self.fatal("unclosed '('")
        return (start, self.pos - 1)

    def _consume_simple_statement(self, close: str = "") -> int:
        """Consume up to and including ';' at depth zero, or with ``close``
        "}" also through a '}' that closes a block it opened: ``lock (x) { }``.
        Stops without consuming at an unmatched closer (enclosing block end)
        or at end of input, which is a missing-semicolon error.  Returns the
        last consumed sig position, excluding the ';'."""
        start = self.pos
        end = self.scan(_STATEMENT_END, close=close)
        if end == ";":
            self.advance()
            return self.pos - 2
        if self.pos > start and (end != close or self.toks[self.pos - 1][TEXT] != close):
            self.fatal("statement missing ';'" if end else "input ends mid-statement")
        return self.pos - 1

    def _looks_like_declaration(self) -> bool:
        toks = self.toks
        k = self.pos + (toks[self.pos][TEXT] == "const")
        if k < len(toks) and toks[k][TEXT] == "var" and toks[k][KIND] is _IDENTIFIER:
            return k + 1 < len(toks) and toks[k + 1][KIND] is _IDENTIFIER
        k = _type_end(toks, self.angles, k)
        return (0 <= k < len(toks) - 1 and toks[k][KIND] is _IDENTIFIER
                and toks[k + 1][TEXT] in ("=", ";", ","))


# ── test method parsing ──────────────────────────────────────────────────


def parse_test_method(source: str) -> TestSyntaxTree:
    sp = _StatementParser(source)

    while (tok := sp.peek()) is not None and tok[KIND] is _ATTRIBUTE:
        sp.advance()
    while sp.peek_text() in MODIFIER_WORDS:
        sp.advance()

    statements: list[Statement] = []
    problem = ""
    type_start = sp.pos  # where a refused header's tokens are read again
    name_at = sp.read_header()
    if (name_at is None or name_at < 0
            or name_at not in (type_start, _type_end(sp.toks, sp.angles, type_start))
            or not _type_parameters_valid(sp, name_at + 1)):
        name_at, problem, sp.pos = None, "malformed method header", type_start
    elif sp.accept("{"):
        statements = sp.parse_block("method body not closed")
    elif sp.accept("=>"):
        expr_start = sp.pos
        if sp.peek_text() in ("", ";"):  # no expression: end of input or '=> ;'
            sp.fatal("method body missing")
        end = sp._consume_simple_statement()
        statements = [sp._make("expression-statement", expr_start, expr=(expr_start, end))]
    elif not sp.accept(";"):  # a bodiless declaration has nothing to analyze
        problem = "method body missing"

    if problem or not sp.at_end:
        sp.fatal(problem or "unexpected content after method")
        # Keep parsing so detectors can still see the trailing statements.
        statements += sp.parse_block(None)

    method_name = "" if name_at is None else sp.toks[name_at][TEXT]
    return TestSyntaxTree(method_name, sp.diags, source, sp.comments, statements)


def check_syntax(source: str) -> SyntaxVerdict:
    """True only when the subset parser found no fatal problem.

    Never reports correct for input whose delimiters are unbalanced
    outside literals and comments."""
    tree = parse_test_method(source)
    return SyntaxVerdict(not tree.has_fatal, tuple(tree.diagnostics))


# ── focal file parsing ───────────────────────────────────────────────────

_TYPE_DECL_KEYWORDS = frozenset({"class", "struct", "interface", "enum", "record"})


def parse_focal_file(source: str) -> FocalFileTree:
    fp = _FocalParser(source)
    classes: list[ClassNode] = []
    fp.parse_container(classes, top_level=True)
    comments = [(offset, offset + len(text)) for _, text, offset in fp.comments]
    return FocalFileTree(source, classes, comments, fp.diags)


class _FocalParser(_Parser):
    def _at_type_declaration(self) -> bool:
        k = 0
        while self.peek_text(k) in MODIFIER_WORDS:
            k += 1
        return self.peek_text(k) in _TYPE_DECL_KEYWORDS

    def parse_container(self, classes: list[ClassNode], *, top_level: bool) -> None:
        while not self.at_end:
            kind, text, _ = self.peek()
            if text == "}" and not top_level:
                return
            if kind is _ATTRIBUTE:
                self.advance()
            elif text == "using":
                self.to_semicolon()
            elif text == "namespace":
                self.advance()
                while (tok := self.peek()) is not None and tok[KIND] is _IDENTIFIER:
                    self.advance()
                    self.accept(".")
                if self.peek_text() != "{":
                    self.accept(";")
                elif self.too_deep():
                    self.scan(pairs=_BRACES, close="}")
                else:
                    self.advance()
                    self.depth += 1
                    self.parse_container(classes, top_level=False)
                    self.depth -= 1
                    if not self.accept("}"):
                        self.fatal("namespace not closed")
            elif self._at_type_declaration():
                node = self.parse_type_declaration()
                if node is not None:
                    classes.append(node)
            elif text == "{":  # unknown construct: skip its balanced block
                self.scan(pairs=_BRACES, close="}")
            else:
                self.advance()

    def parse_type_declaration(self) -> ClassNode | None:
        start = self.pos
        while self.peek_text() in MODIFIER_WORDS:
            self.advance()
        kw = self.advance()[TEXT]  # class | struct | interface | enum | record
        if kw == "record" and self.peek_text() in ("class", "struct"):
            self.advance()
        name_tok = self.peek()
        if name_tok is None or name_tok[KIND] is not _IDENTIFIER:
            self.fatal("type declaration missing name")
            return None
        name = self.advance()[TEXT]
        # Generic parameters, base list, constraints: up to '{' or ';'.
        body = self.scan(_TYPE_BODY, pairs=_FLAT)
        node = ClassNode(name=name, span=self.char_span(start, self.pos - 1))
        if not body:
            self.fatal("type body missing")
            return node
        if body == ";":
            self.advance()
        elif kw == "enum" or self.too_deep():
            self.scan(pairs=_BRACES, close="}")
        else:
            self.advance()
            self.depth += 1
            self.parse_members(node)
            self.depth -= 1
            if not self.accept("}"):
                self.fatal(f"type '{name}' not closed")
        node.span = self.char_span(start, self.pos - 1)
        return node

    def parse_members(self, node: ClassNode) -> None:
        while not self.at_end and self.peek_text() != "}":
            member_start = self.pos
            while (tok := self.peek()) is not None and tok[KIND] is _ATTRIBUTE:
                self.advance()
            if self._at_type_declaration():
                inner = self.parse_type_declaration()
                if inner is not None:
                    node.nested.append(inner)
                continue
            while self.peek_text() in MODIFIER_WORDS:
                self.advance()
            start = self.pos
            name_at = self.read_header()
            if name_at is not None:  # then step over 'base(...)' and 'new()'
                sig_end = self.char_span(self.pos - 1, self.pos - 1)[1]
            while (terminator := self.scan(_MEMBER_END)) == "(":
                self.scan(pairs=_PARENS, close=")")
            if terminator == "{":
                self.scan(pairs=_BRACES, close="}")
                if self.peek_text() == "=":  # auto-property initializer
                    self.to_semicolon()
            elif terminator in (";", "=", "=>"):
                # Only looked ahead: consumed again from the start.
                self.pos = start
                self.to_semicolon()
                if self.pos == member_start:
                    # Nothing consumed, as at an unmatched closer: keep one
                    # token raw so the loop always makes progress.
                    self.advance()
                    node.others.append(self.char_span(member_start, member_start))
                    continue
            # Else no member terminator before the type's end or end of
            # input: the whole run is one member.
            span = self.char_span(member_start, self.pos - 1)
            if name_at is not None:
                name = self.toks[name_at][TEXT] if name_at >= 0 else ""
                node.methods.append(MethodNode(name, span, sig_end))
            elif terminator in (";", "="):
                node.fields.append(span)
            else:
                node.others.append(span)
