"""Prompt assembly under a fixed token budget.

Context about the focal method is rendered at four levels of decreasing
size, and the prompt uses the first level that fits:

1. the entire focal file;
2. the focal class only, with non-focal methods reduced to signatures;
3. level 2 minus fields and comments;
4. the class declaration plus the focal method, nothing else.

Every level from 2 up is produced by deleting or shrinking spans of the
previous one, so lengths are monotonically non-increasing by construction.
Token counts are estimated at four characters per token.
"""

from __future__ import annotations

import math
import posixpath
from dataclasses import dataclass, replace

from .completion import prompt_hint_for
from .corpus import encode
from .errors import FocalNotFound, PromptTooLong
from .nodes import ClassNode, FocalFileTree

__all__ = [
    "BudgetConfig",
    "PromptRecord",
    "estimate_tokens",
    "render_level",
    "build_prompt",
    "test_path_for",
]

_LEVELS = (1, 2, 3, 4)


@dataclass(frozen=True)
class BudgetConfig:
    prompt_token_budget: int = 1536
    completion_token_budget: int = 512
    chars_per_token: int = 4
    model_context: int = 2048

    def __post_init__(self):
        if self.prompt_token_budget <= 0 or self.completion_token_budget <= 0:
            raise ValueError("token budgets must be positive")
        if self.chars_per_token <= 0:
            raise ValueError("chars_per_token must be positive")
        if self.prompt_token_budget + self.completion_token_budget > self.model_context:
            raise ValueError("prompt and completion budgets exceed the model context")


@dataclass(frozen=True)
class PromptRecord:
    focal_path: str
    test_path: str
    focal_method: str
    context_level: int
    prompt_text: str
    estimated_tokens: int

    def to_dict(self) -> dict:
        return encode(self, "prompt.v1")


def estimate_tokens(text: str, cfg: BudgetConfig | None = None) -> int:
    cfg = cfg or BudgetConfig()
    return math.ceil(len(text) / cfg.chars_per_token)


def test_path_for(focal_path: str) -> str:
    """The conventional test file path: the focal filename prefixed Test."""
    head, tail = posixpath.split(focal_path)
    return posixpath.join(head, f"Test{tail}")


def _find_focal_class(tree: FocalFileTree, focal: str) -> ClassNode:
    for cls in tree.walk_classes():
        if any(m.name == focal for m in cls.methods):
            return cls
    raise FocalNotFound(f"no method named {focal!r} in the focal file")


def _expand_deletion(text: str, start: int, end: int) -> tuple[int, int]:
    """Grow a deletion to cover whole lines when only whitespace remains
    around it, so removals do not leave blank gaps."""
    line_start = text.rfind("\n", 0, start) + 1
    if text[line_start:start].strip() == "":
        start = line_start
    n = len(text)
    j = end
    while j < n and text[j] in " \t\r":
        j += 1
    if j < n and text[j] == "\n":
        end = j + 1
    elif j >= n:
        end = n
    return start, end


def _apply_edits(text: str, edits: list[tuple[int, int, str]]) -> str:
    """Apply (start, end, replacement) edits given in source coordinates
    relative to ``text``, in order of start, the longest first.  An edit
    that starts before the end of the last one applied is dropped.  Every
    span starts and ends at a token, and a deletion grows only over blanks
    (``_expand_deletion``), so any two edits are nested or disjoint and the
    dropped ones are exactly those nested inside an applied one."""
    out: list[str] = []
    pos = 0
    for start, end, repl in sorted(edits, key=lambda e: (e[0], -e[1])):
        if start < pos:
            continue
        out.append(text[pos:start])
        out.append(repl)
        pos = end
    out.append(text[pos:])
    return "".join(out)


def render_level(tree: FocalFileTree, focal: str, level: int) -> str:
    if level not in _LEVELS:
        raise ValueError(f"context level must be 1..4, got {level}")
    cls = _find_focal_class(tree, focal)
    if level == 1:
        return tree.source

    base = cls.span[0]
    text = tree.source[cls.span[0]:cls.span[1]]
    edits: list[tuple[int, int, str]] = []

    def rel(span: tuple[int, int]) -> tuple[int, int]:
        return span[0] - base, span[1] - base

    def delete(span: tuple[int, int]) -> None:
        start, end = _expand_deletion(text, *rel(span))
        edits.append((start, end, ""))

    for method in cls.methods:
        if method.name == focal:
            continue
        if level == 4:
            delete(method.span)
            continue
        start, end = method.sig_end - base, method.span[1] - base
        if end - start >= 1:
            edits.append((start, end, ";"))

    if level >= 3:
        for span in cls.fields + tree.comments_within(cls.span):
            delete(span)

    if level == 4:
        for span in cls.others:
            delete(span)
        for inner in cls.nested:
            delete(inner.span)

    return _apply_edits(text, edits)


def build_prompt(tree: FocalFileTree, focal: str, focal_path: str,
                 cfg: BudgetConfig | None = None) -> PromptRecord:
    """Render the smallest-numbered context level whose prompt fits the
    budget.  Raises PromptTooLong when even level 4 does not fit."""
    cfg = cfg or BudgetConfig()
    test_path = test_path_for(focal_path)
    # Find the focal class once: each level renders from a view of the tree
    # that holds only that class, so its lookup stops at the first class.
    view = replace(tree, classes=[_find_focal_class(tree, focal)])
    for level in _LEVELS:
        context = render_level(view, focal, level)
        prompt_text = (
            f"{focal_path}:\n{context}\n"
            f"{test_path}:\n{prompt_hint_for(focal)}"
        )
        tokens = estimate_tokens(prompt_text, cfg)
        if tokens <= cfg.prompt_token_budget:
            return PromptRecord(
                focal_path=focal_path,
                test_path=test_path,
                focal_method=focal,
                context_level=level,
                prompt_text=prompt_text,
                estimated_tokens=tokens,
            )
    raise PromptTooLong(
        f"method {focal!r}: even level 4 context exceeds "
        f"{cfg.prompt_token_budget} tokens"
    )
