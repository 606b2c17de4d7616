"""Parse results of the C# subset parsers.

A test-method tree holds its statements as spans into the source.  A focal
file tree holds each class's name and span and the spans of its members,
which the prompt levels delete or shrink.  A diagnostic is a message and a
character offset; every one is fatal.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .lexer import Row


@dataclass(frozen=True)
class SyntaxDiagnostic:
    message: str
    offset: int  # character offset into the source


@dataclass(frozen=True)
class Invocation:
    """One call site: the dotted identifier chain ending at the called name.

    ``rooted`` is False when the chain hangs off an expression result, e.g.
    the ``.Wait()`` in ``command.Stop().Wait()``.  ``is_constructor`` marks
    ``new Type(...)``, which is not a method invocation.
    """

    chain: tuple[str, ...]
    rooted: bool = True
    is_constructor: bool = False

    @property
    def callee(self) -> str:
        return self.chain[-1]


Span = tuple[int, int]  # [start, end) character offsets into the source


@dataclass
class Statement:
    kind: str
    span: Span
    children: list["Statement"] = field(default_factory=list)
    invocations: list[Invocation] = field(default_factory=list)
    has_ternary: bool = False


@dataclass
class TestSyntaxTree:
    """Parse result for a single attribute-decorated test method.

    ``partial_body`` holds every statement recovered, even from broken
    input, so the analyzer can still run best-effort; ``statements()``
    returns it.  Statement spans index into ``source``.  ``comments`` holds
    the lexer's comment rows: ``//`` and ``/* */`` comments and
    preprocessor lines, in source order.
    """

    method_name: str
    diagnostics: list[SyntaxDiagnostic]
    source: str = field(repr=False)
    comments: list[Row] = field(default_factory=list, repr=False)
    partial_body: list[Statement] = field(default_factory=list, repr=False)

    @property
    def has_fatal(self) -> bool:
        return bool(self.diagnostics)

    def statements(self) -> list[Statement]:
        return self.partial_body


@dataclass(frozen=True)
class SyntaxVerdict:
    correct: bool
    diagnostics: tuple[SyntaxDiagnostic, ...]


@dataclass
class MethodNode:
    """A focal-file method: constructors, finalizers and operators too.  Its
    name is the identifier just before the parameter list, so an
    operator's is ""."""

    name: str
    span: Span
    sig_end: int  # offset just past the closing ')' of the parameter list


@dataclass
class ClassNode:
    name: str
    span: Span
    fields: list[Span] = field(default_factory=list)
    methods: list[MethodNode] = field(default_factory=list)
    others: list[Span] = field(default_factory=list)  # properties etc., kept raw
    nested: list["ClassNode"] = field(default_factory=list)

    def walk(self):
        yield self
        for inner in self.nested:
            yield from inner.walk()


@dataclass
class FocalFileTree:
    """Parse result for a whole focal file.  ``comments`` holds the span of
    every comment token (comments and preprocessor lines), in source order;
    a class owns the comments its ``span`` contains."""

    source: str
    classes: list[ClassNode]
    comments: list[Span] = field(default_factory=list)
    diagnostics: list[SyntaxDiagnostic] = field(default_factory=list)

    def walk_classes(self):
        for cls in self.classes:
            yield from cls.walk()

    def comments_within(self, span: Span) -> list[Span]:
        """The comment spans that lie inside ``span``.  Comments neither
        overlap nor nest, so their starts and their ends both ascend."""
        lo = bisect_left(self.comments, span[0], key=lambda c: c[0])
        hi = bisect_right(self.comments, span[1], key=lambda c: c[1])
        return self.comments[lo:hi]
