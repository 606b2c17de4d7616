"""Static quality analysis for C# unit tests.

One test method goes in, one ``QualityReport`` comes out: a syntax verdict
plus six structural booleans.  Detection is purely static and deliberately
conservative:

* assertion        - a call chain starting at Assert, StringAssert, or
                     CollectionAssert, or a ``Throws*`` method invoked on
                     an Assert-like receiver
* focal call       - some invocation's final callee equals the focal method
                     name (case-sensitive; constructor calls do not count)
* comment          - at least one ``//`` or ``/* */`` token in the method
* descriptive name - after stripping one leading ``Test`` and one occurrence
                     of the focal name, at least three alphanumeric
                     characters remain
* duplicate assertion - two adjacent assertion statements in the same block
                     whose texts match after whitespace normalization
* conditional or exception handling - if, switch, while, do, for, foreach,
                     a ternary expression, or try, at any nesting depth

When the parse has a fatal problem the booleans are still computed from
whatever statements were recovered and the report is marked
``low_confidence``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .corpus import REQUIRED, decode, encode
from .errors import EmptyCorpus
from .nodes import Invocation, TestSyntaxTree
from .parser import parse_test_method

__all__ = [
    "ASSERTION_CLASSES",
    "CONDITIONAL_KINDS",
    "PROPERTIES",
    "PROPERTY_FIELDS",
    "QualityProperty",
    "QualityReport",
    "ScoreConfig",
    "CorpusStats",
    "analyze",
    "score_corpus",
]

ASSERTION_CLASSES = frozenset({"Assert", "StringAssert", "CollectionAssert"})

CONDITIONAL_KINDS = frozenset({"if", "switch", "while", "do", "for", "foreach", "try"})


class QualityProperty(NamedTuple):
    name: str
    label: str  # its row in ``tqual report``
    short_names: tuple[str, ...]  # what a reward scheme accepts besides ``name``
    desirable: bool | None  # present (True), absent (False: a smell), or neither
    documentation: bool = False  # style rather than functional quality


# Every fact about the seven properties, in report order.  Rewards, the
# golden filter, the default quality score and the report table read it.
PROPERTIES = (
    QualityProperty("correct_syntax", "Correct Syntax", (), None),
    QualityProperty("has_assertion", "Has Assertion", ("assert", "assertion"), True),
    QualityProperty("invokes_focal", "Invokes Focal Method", ("focal",), True),
    QualityProperty("has_comment", "Has Comment", ("comment",), True, documentation=True),
    QualityProperty("descriptive_name", "Descriptive Name", ("descriptive",), True,
                    documentation=True),
    QualityProperty("duplicate_assertion", "Duplicate Assertion", ("dup", "duplicate"), False),
    QualityProperty("conditional_or_exception", "Conditional Or Exception",
                    ("cond", "conditional"), False),
)

PROPERTY_FIELDS = tuple(p.name for p in PROPERTIES)

_SCHEMA = "report.v1"


@dataclass(frozen=True)
class QualityReport:
    correct_syntax: bool
    has_assertion: bool
    invokes_focal: bool
    has_comment: bool
    descriptive_name: bool
    duplicate_assertion: bool
    conditional_or_exception: bool
    focal_method_name: str
    low_confidence: bool = False

    def to_dict(self) -> dict:
        return encode(self, _SCHEMA)

    @classmethod
    def from_dict(cls, data: dict) -> "QualityReport":
        return decode(cls, data, _REPORT_FIELDS)


# The seven properties are required; the rest default.
_REPORT_FIELDS = {
    **{prop: (bool, REQUIRED) for prop in PROPERTY_FIELDS},
    "focal_method_name": (str, ""),
    "low_confidence": (bool, False),
}


# ── detectors ────────────────────────────────────────────────────────────


def _is_assertion_invocation(inv: Invocation) -> bool:
    if inv.is_constructor or not inv.rooted:
        return False
    if inv.chain[0] in ASSERTION_CLASSES:
        return True
    # Xunit.Assert.Throws(...) and similar: a Throws* call on an
    # Assert-qualified receiver.
    return inv.callee.startswith("Throws") and any(
        part == "Assert" or part.endswith("Assert") for part in inv.chain[:-1]
    )


def _statement_properties(tree: TestSyntaxTree, focal_name: str) -> tuple[bool, bool, bool, bool]:
    """Assertion, focal call, duplicate assertion and conditional/exception,
    from one pass over every statement list of the tree."""
    assertion = focal = duplicate = conditional = False
    source = tree.source
    pending = [tree.statements()]
    while pending:
        previous = None  # normalized text of the preceding assertion statement
        for stmt in pending.pop():
            if stmt.children:
                pending.append(stmt.children)
            if stmt.kind in CONDITIONAL_KINDS or stmt.has_ternary:
                conditional = True
            asserts = False
            for inv in stmt.invocations:
                if _is_assertion_invocation(inv):
                    asserts = True
                if focal_name and inv.callee == focal_name and not inv.is_constructor:
                    focal = True
            assertion = assertion or asserts
            if asserts and stmt.kind == "expression-statement":
                a, b = stmt.span
                text = " ".join(source[a:b].split())
                duplicate = duplicate or text == previous
                previous = text
            else:
                previous = None
    return assertion, focal, duplicate, conditional


def _has_comment(tree: TestSyntaxTree) -> bool:
    # Preprocessor lines share the comment-line kind; the prefix check
    # keeps them from counting as documentation.
    return any(text.startswith(("//", "/*")) for _, text, _ in tree.comments)


def _is_descriptive(method_name: str, focal_name: str) -> bool:
    name = method_name
    if name.startswith("Test"):
        name = name[len("Test"):]
    if focal_name:
        name = name.replace(focal_name, "", 1)
    remainder = "".join(ch for ch in name if ch.isalnum())
    return len(remainder) >= 3


# ── entry points ─────────────────────────────────────────────────────────


def analyze(raw_test: str, focal_name: str) -> QualityReport:
    """Parse one test method and evaluate all seven quality properties."""
    tree = parse_test_method(raw_test)
    correct = not tree.has_fatal
    assertion, focal, duplicate, conditional = _statement_properties(tree, focal_name)
    return QualityReport(
        correct_syntax=correct,
        has_assertion=assertion,
        invokes_focal=focal,
        has_comment=_has_comment(tree),
        descriptive_name=_is_descriptive(tree.method_name, focal_name),
        duplicate_assertion=duplicate,
        conditional_or_exception=conditional,
        focal_method_name=focal_name,
        low_confidence=not correct,
    )


@dataclass(frozen=True)
class ScoreConfig:
    """Which properties add to and subtract from the corpus quality score.

    Documentation properties (comments, descriptive names) are excluded by
    default: they describe style rather than functional quality.  Pass a
    different config to include them.
    """

    positive_properties: tuple[str, ...] = tuple(
        p.name for p in PROPERTIES if p.desirable and not p.documentation)
    smell_properties: tuple[str, ...] = tuple(
        p.name for p in PROPERTIES if p.desirable is False)

    def __post_init__(self):
        for prop in self.positive_properties + self.smell_properties:
            if prop not in PROPERTY_FIELDS:
                raise ValueError(f"unknown quality property: {prop!r}")


@dataclass(frozen=True)
class CorpusStats:
    frequencies: dict[str, float]
    count: int
    quality_score: float

    def to_dict(self) -> dict:
        return encode(self, "stats.v1")


def score_corpus(reports: list[QualityReport],
                 config: ScoreConfig | None = None) -> CorpusStats:
    """Per-property frequencies plus a single scalar: the sum of positive
    property frequencies minus the sum of smell frequencies."""
    if not reports:
        raise EmptyCorpus("cannot score an empty corpus")
    config = config or ScoreConfig()
    count = len(reports)
    frequencies = {
        prop: sum(1 for r in reports if getattr(r, prop)) / count
        for prop in PROPERTY_FIELDS
    }
    score = sum(frequencies[p] for p in config.positive_properties) - sum(
        frequencies[s] for s in config.smell_properties
    )
    return CorpusStats(frequencies=frequencies, count=count, quality_score=score)
