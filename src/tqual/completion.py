"""Turning raw model completions into single test methods.

Language models overrun the end of the test they were asked to write:
after the closing brace they start a second ``[TestMethod]``, invent file
paths, or keep generating prose.  ``truncate_completion`` cuts the
concatenated prompt hint + completion at the earlier of

* a closing brace sitting at column zero (kept, cut after it), or
* the start of a second ``[TestMethod]`` annotation (dropped).

Both boundaries are found in one forward walk over the token stream, which
stops at the first, so braces and annotations inside string literals or
comments never trigger a cut.  The operation is idempotent: truncating an
already-truncated test returns it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lexer import OFFSET, TEXT, Row, TokenKind
from .lexer import scan as tokenize  # the lexer call, by the name tracers patch

__all__ = ["RawCompletion", "truncate_completion", "prompt_hint_for"]

_TEST_ANNOTATION = "TestMethod"
# Module constants: an enum member read off its class is a slow lookup.
_ATTRIBUTE = TokenKind.ATTRIBUTE
_PUNCTUATION = TokenKind.PUNCTUATION


@dataclass(frozen=True)
class RawCompletion:
    """A model completion plus the method stub the prompt ended with."""

    prompt_hint: str
    completion_text: str


def prompt_hint_for(focal_method: str) -> str:
    return f"[TestMethod]\npublic void Test{focal_method}"


def _is_annotation(source: str, significant: list[Row], i: int) -> bool:
    """Whether a [TestMethod] annotation begins at ``significant[i]``.

    Handles both lexings: a single attribute-bracket token, and a plain
    ``[`` ``TestMethod`` ``]`` punctuation run (whitespace allowed) for
    positions the attribute heuristic does not cover."""
    kind, text, offset = significant[i]
    if kind is _ATTRIBUTE:
        inner = text[1:-1]
    elif text == "[" and i + 2 < len(significant) and significant[i + 2][TEXT] == "]":
        # One token inside; a comment around it keeps the name from matching.
        inner = source[offset + 1:significant[i + 2][OFFSET]]
    else:
        return False
    return inner.split("(")[0].split(",")[0].strip() == _TEST_ANNOTATION


def truncate_completion(raw: RawCompletion) -> str:
    """Cut at the first boundary at or after the hint, walking forwards.

    The annotation that cuts is the second of the whole text, so a hint
    holding two annotations leaves only the brace rule."""
    full = raw.prompt_hint + raw.completion_text
    search_from = len(raw.prompt_hint)
    significant, _ = tokenize(full)
    annotations = 0
    for i, (kind, text, off) in enumerate(significant):
        if kind is _PUNCTUATION and text == "}":
            if off >= search_from and (off == 0 or full[off - 1] == "\n"):
                return full[:off + 1]
        elif annotations < 2 and _is_annotation(full, significant, i):
            annotations += 1
            if annotations == 2 and off >= search_from:
                return full[:off]
    return full
