"""The host's current speed, from a fixed piece of pure-Python work.

The hosts this benchmark was built on switch between speeds up to 1.6x
apart, for stretches from a second to more than a run's length, and every
process on the host slows alike, in CPU time as in wall time.  ``run.py``
times ``measure()`` before and after each operation and scales the
operation's time by ``REFERENCE_S`` over the mean of the two, so a time
reads as it would on a host that does this work in ``REFERENCE_S``
seconds.  The work is the kind the package does (a regex tokenizer, a
tree of small objects, dict counts, string joins) but shares no code with
it, so a change to the package cannot move it.
"""

from __future__ import annotations

import random
import re
import time

REPS = 10
REFERENCE_S = 0.1   # about what REPS rounds take on the machine this was built on

_WORDS = ("alpha", "beta", "Assert", "(", ")", "{", "}", ";", "var", "=", "x1", "42",
          '"s"', "// note\n", "if", ".")
_TEXT = " ".join(random.Random(5).choice(_WORDS) for _ in range(6000))
_TOKEN = re.compile(r'\s+|//[^\n]*|"[^"]*"|\d+|\w+|[^\w\s]')


class _Node:
    __slots__ = ("kind", "text", "children")

    def __init__(self, kind: str, text: str) -> None:
        self.kind, self.text, self.children = kind, text, []


def _size(node: _Node) -> int:
    return 1 + sum(_size(child) for child in node.children)


def _round() -> tuple:
    tokens = [m.group() for m in _TOKEN.finditer(_TEXT) if not m.group().isspace()]
    root = _Node("root", "")
    stack, counts = [root], {}
    for token in tokens:
        counts[token] = counts.get(token, 0) + 1
        if token == "{":
            node = _Node("block", token)
            stack[-1].children.append(node)
            stack.append(node)
        elif token == "}" and len(stack) > 1:
            stack.pop()
        else:
            stack[-1].children.append(_Node("token", token.lower()))
    return _size(root), sorted(counts.items())[:3], ",".join(tokens[:50])


def measure() -> float:
    """Seconds that REPS rounds of the fixed work take now."""
    start = time.perf_counter()
    for _ in range(REPS):
        _round()
    return time.perf_counter() - start
