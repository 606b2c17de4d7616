"""Snapshot parity: pinned digests of everything the lexer and parsers feed.

A fixed, seeded corpus (the hand-labeled cases, both focal fixtures and
generated code soups) goes through every public reader of the token stream,
and each output family is hashed into one sha256 digest.  A refactor that
keeps behaviour keeps every digest; an intended behaviour change updates the
digest it moves and says why.

Run ``PYTHONPATH=src python tests/test_snapshot.py`` to print the current digests.
With ``--inputs`` it prints one line per input per family instead: the
family, the input's index, the digest of that one output and the input's
origin (labeled, soup, method-wrapped soup, fixture or class-wrapped soup).
Diffing that listing across two commits names every input a digest move
touched, and what kind of input it was.
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

import pytest

from labeled_corpus import LABELED_TESTS
from test_lexer import CODE_FRAGMENTS
from tqual.analyzer import analyze
from tqual.completion import RawCompletion, prompt_hint_for, truncate_completion
from tqual.lexer import tokenize
from tqual.parser import parse_focal_file, parse_test_method
from tqual.prompting import render_level

FOCAL_FILES = Path(__file__).parent / "fixtures" / "focal_files"

# Delimiters, literals and names that make ``[`` runs attribute-shaped, so
# attribute lexing and its fallback to punctuation are both exercised.
ATTRIBUTE_FRAGMENTS = ["[", "]", "(", ")", "{", "}", '"', "'", "/", "DataRow", ",", ";"]
SOUP_COUNT = 2000


def _soups() -> list[str]:
    rng = random.Random(20231004)
    plain = [rng.choices(CODE_FRAGMENTS, k=rng.randrange(41)) for _ in range(SOUP_COUNT // 2)]
    pool = CODE_FRAGMENTS + ATTRIBUTE_FRAGMENTS * 3
    bracketed = [rng.choices(pool, k=rng.randrange(41)) for _ in range(SOUP_COUNT // 2)]
    return ["".join(parts) for parts in plain + bracketed]


def _as_method(body: str) -> str:
    return f"[TestMethod]\npublic void TestRun()\n{{\n{body}\n}}"


def _as_class(body: str) -> str:
    return f"namespace N {{\nclass C {{\n{body}\n}}\n}}"


def _outputs() -> dict[str, list[tuple[str, object]]]:
    """Each family's outputs in input order, each with its input's origin."""
    fixtures = [(p.read_text(encoding="utf-8"), "fixture")
                for p in sorted(FOCAL_FILES.glob("*.cs"))]
    soups = [(s, "soup") for s in _soups()]
    classes = [(_as_class(s), "class-wrapped soup") for s, _ in soups]
    tests = ([(c["test"], c["focal"], "labeled") for c in LABELED_TESTS]
             + [(s, "Run", origin) for s, origin in soups]
             + [(_as_method(s), "Run", "method-wrapped soup") for s, _ in soups])

    def test_tree(source: str) -> tuple:
        tree = parse_test_method(source)
        return tree.method_name, tree.diagnostics, tree.statements()

    def renders(source: str) -> list:
        tree = parse_focal_file(source)
        out = []
        for name in sorted({m.name for c in tree.walk_classes() for m in c.methods}):
            for level in (1, 2, 3, 4):
                try:
                    out.append((name, level, render_level(tree, name, level)))
                except Exception as exc:  # the failure itself is pinned
                    out.append((name, level, type(exc).__name__))
        return out

    hint = prompt_hint_for("Run")

    lossless = [(s, origin) for s, _, origin in tests] + fixtures
    return {
        "tokens": [(o, [(t.kind.value, t.text, t.offset) for t in tokenize(s)])
                   for s, o in lossless],
        "reports": [(o, analyze(s, focal).to_dict()) for s, focal, o in tests],
        "test_trees": [(o, test_tree(s)) for s, _, o in tests],
        "focal_trees": [(o, parse_focal_file(s)) for s, o in fixtures + soups + classes],
        "renders": [(o, renders(s)) for s, o in fixtures + classes],
        "cuts": [(o, len(truncate_completion(RawCompletion(hint, s)))) for s, _, o in tests],
    }


def _digest(values: list) -> str:
    """Dataclass reprs list every field, so a digest of reprs pins them all."""
    h = hashlib.sha256()
    for value in values:
        h.update(repr(value).encode("utf-8", "surrogatepass"))
        h.update(b"\n")
    return h.hexdigest()


PINNED = {
    "cuts": "5dc2235763ce344acf20eb77db2a2e29ad8f50288cc9880b4ded77e569eb34dd",
    "focal_trees": "28de87156ff3cb117a9a3d43d1e806a0f7d33f384bf35d5f5c981ab1f1880991",
    "renders": "6fd45fc6181c44564bb8aa88916d5ebed9a216c163126fa79b463000ed0d9eed",
    "reports": "fdf41c05d19b923b86fde459b17a3ca15c4a771c5e4caa2185ae821696cb2760",
    "test_trees": "d325d57fb800a31c1905c4e674bec7ef030f1e9d73eb26e3ddec17f2386e3e69",
    "tokens": "0042ee6646821ed77c43dd9eba93a27bdc730fd40f1f14e5968f0cc758321b9c",
}


@pytest.fixture(scope="module")
def digests() -> dict[str, str]:
    return {family: _digest([value for _, value in outputs])
            for family, outputs in _outputs().items()}


@pytest.mark.parametrize("family", sorted(PINNED))
def test_snapshot_digest(digests, family):
    assert digests[family] == PINNED[family]


if __name__ == "__main__":
    outputs = sorted(_outputs().items())
    if sys.argv[1:] == ["--inputs"]:
        for family, values in outputs:
            for index, (origin, value) in enumerate(values):
                print(family, index, _digest([value]), origin)
    else:
        for family, values in outputs:
            print(f'    "{family}": "{_digest([value for _, value in values])}",')
