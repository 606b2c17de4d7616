"""Turning raw model completions into single test methods.

Language models overrun the end of the test they were asked to write:
after the closing brace they start a second ``[TestMethod]``, invent file
paths, or keep generating prose.  ``truncate_completion`` cuts the
concatenated prompt hint + completion at the earlier of

* a closing brace sitting at column zero (kept, cut after it), or
* the start of a second ``[TestMethod]`` annotation (dropped).

Both boundaries are found on the token stream, so braces and annotations
inside string literals or comments never trigger a cut.  The operation is
idempotent: truncating an already-truncated test returns it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import CorpusRecord
from .lexer import Token, TokenKind
from .lexer import scan as tokenize  # the lexer call, by the name tracers patch

__all__ = ["RawCompletion", "truncate_completion", "assemble_record", "prompt_hint_for"]

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


def _annotation_offsets(source: str, significant: list[Token]) -> list[int]:
    """Character offsets where a [TestMethod] annotation begins.

    Handles both lexings: a single attribute-bracket token, and a plain
    ``[`` ``TestMethod`` ``]`` punctuation run (whitespace allowed) for
    positions the attribute heuristic does not cover."""
    offsets: list[int] = []
    for i, tok in enumerate(significant):
        if tok.kind is _ATTRIBUTE:
            inner = tok.text[1:-1]
        elif tok.text == "[" and i + 2 < len(significant) and significant[i + 2].text == "]":
            # One token inside; a comment around it keeps the name from matching.
            inner = source[tok.offset + 1:significant[i + 2].offset]
        else:
            continue
        if inner.split("(")[0].split(",")[0].strip() == _TEST_ANNOTATION:
            offsets.append(tok.offset)
    return offsets


def truncate_completion(raw: RawCompletion) -> str:
    full = raw.prompt_hint + raw.completion_text
    search_from = len(raw.prompt_hint)

    significant, _ = tokenize(full)
    brace_offset: int | None = None
    for tok in significant:
        if tok.kind is not _PUNCTUATION or tok.text != "}":
            continue
        off = tok.offset
        if off < search_from:
            continue
        if off == 0 or full[off - 1] == "\n":
            brace_offset = off
            break

    annotations = _annotation_offsets(full, significant)
    second_annotation: int | None = None
    if len(annotations) >= 2 and annotations[1] >= search_from:
        second_annotation = annotations[1]

    if brace_offset is None and second_annotation is None:
        return full
    if second_annotation is None or (
        brace_offset is not None and brace_offset <= second_annotation
    ):
        return full[: brace_offset + 1]
    return full[:second_annotation]


def assemble_record(prompt: str, raw: RawCompletion, *, repo: str = "",
                    focal_class: str = "", focal_method: str = "") -> CorpusRecord:
    """Pair a prompt with its truncated completion as one corpus record."""
    return CorpusRecord(
        repo=repo,
        focal_class=focal_class,
        focal_method=focal_method,
        prompt=prompt,
        test=truncate_completion(raw),
        source="generated",
    )
