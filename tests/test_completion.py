"""Completion truncation tests: cut boundaries and idempotence."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from tqual.completion import (
    RawCompletion,
    prompt_hint_for,
    truncate_completion,
)
from tqual.lexer import KIND, OFFSET, TEXT, TokenKind, scan

HINT = prompt_hint_for("Stop")


def retruncate(text: str) -> str:
    return truncate_completion(RawCompletion("", text))


def test_prompt_hint_shape():
    assert HINT == "[TestMethod]\npublic void TestStop"


def test_cut_after_column_zero_brace():
    raw = RawCompletion(HINT, "()\n{\n    c.Stop();\n}\nleftover prose")
    out = truncate_completion(raw)
    assert out == HINT + "()\n{\n    c.Stop();\n}"


def test_cut_before_second_annotation():
    # Every brace is indented, so the annotation is the only boundary.
    raw = RawCompletion(
        HINT, "()\n{\n    if (x) { y(); }\n    [TestMethod]\npublic void TestMore()"
    )
    out = truncate_completion(raw)
    assert out.endswith("    ")
    assert out.count("[TestMethod]") == 1


def test_no_boundary_returns_everything():
    raw = RawCompletion(HINT, "()\n{\n    c.Stop();")
    assert truncate_completion(raw) == HINT + "()\n{\n    c.Stop();"


def test_earlier_boundary_wins():
    completion = "()\n{\n    x();\n}\n[TestMethod]\npublic void TestNext()\n{\n}"
    out = truncate_completion(RawCompletion(HINT, completion))
    assert out.endswith("x();\n}")


def test_brace_inside_string_is_not_a_boundary():
    # The verbatim literal spans a newline, putting a } at column zero
    # inside the string; only the real closing brace ends the test.
    raw = RawCompletion(HINT, '()\n{\n    var s = @"\n}";\n    y();\n}\njunk')
    out = truncate_completion(raw)
    assert out.endswith("y();\n}")


def test_annotation_inside_comment_is_not_a_boundary():
    raw = RawCompletion(HINT, "()\n{\n    // [TestMethod] in prose\n    x();\n}\n")
    out = truncate_completion(raw)
    assert out.endswith("x();\n}")


def test_hint_annotation_does_not_trigger_cut():
    raw = RawCompletion(HINT, "()\n{\n    x();\n}")
    assert truncate_completion(raw) == HINT + "()\n{\n    x();\n}"


def test_indented_brace_is_not_a_boundary():
    raw = RawCompletion(HINT, "()\n{\n    if (x) { y(); }\n    z();\n}")
    out = truncate_completion(raw)
    assert out.endswith("z();\n}")


def test_truncation_is_idempotent_on_fixed_cases():
    cases = [
        RawCompletion(HINT, "()\n{\n    c.Stop();\n}\nmore\n}"),
        RawCompletion(HINT, "()\n{\n    [TestMethod]\n"),
        RawCompletion(HINT, "()\n{\n    x();"),
        RawCompletion("", "public void T()\n{\n}\n[TestMethod]\nvoid U()\n{\n}"),
    ]
    for raw in cases:
        once = truncate_completion(raw)
        assert retruncate(once) == once


_FRAGMENTS = [
    "()\n", "{\n", "}\n", "}", "    c.Stop();\n", "    Assert.IsTrue(x);\n",
    "[TestMethod]\n", "public void TestMore()\n", "// trailing note\n",
    '    var s = "}";\n', "random prose ", "\n",
]


@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=12))
@settings(max_examples=300, deadline=None)
def test_truncation_idempotent_on_fuzzed_completions(fragments):
    raw = RawCompletion(HINT, "".join(fragments))
    once = truncate_completion(raw)
    assert retruncate(once) == once


def reference_truncate(raw: RawCompletion) -> str:
    """Truncation as it was before the one forward walk: the first column-zero
    brace at or after the hint, then a list of every annotation offset, of
    which the second cuts if it lies at or after the hint."""
    full = raw.prompt_hint + raw.completion_text
    search_from = len(raw.prompt_hint)
    significant, _ = scan(full)
    brace_offset = None
    for tok in significant:
        if tok[KIND] is not TokenKind.PUNCTUATION or tok[TEXT] != "}":
            continue
        off = tok[OFFSET]
        if off < search_from:
            continue
        if off == 0 or full[off - 1] == "\n":
            brace_offset = off
            break

    annotations = []
    for i, tok in enumerate(significant):
        if tok[KIND] is TokenKind.ATTRIBUTE:
            inner = tok[TEXT][1:-1]
        elif tok[TEXT] == "[" and i + 2 < len(significant) and significant[i + 2][TEXT] == "]":
            inner = full[tok[OFFSET] + 1:significant[i + 2][OFFSET]]
        else:
            continue
        if inner.split("(")[0].split(",")[0].strip() == "TestMethod":
            annotations.append(tok[OFFSET])
    second_annotation = None
    if len(annotations) >= 2 and annotations[1] >= search_from:
        second_annotation = annotations[1]

    if brace_offset is None and second_annotation is None:
        return full
    if second_annotation is None or (
        brace_offset is not None and brace_offset <= second_annotation
    ):
        return full[: brace_offset + 1]
    return full[:second_annotation]


_ANNOTATIONS = ["[TestMethod]\n", "[ TestMethod ]", "[TestMethod(\"x\")]", "[TestMethod, Ignore]",
                "x[TestMethod]", "[/*c*/TestMethod]"]
_DIFF_FRAGMENTS = _FRAGMENTS + _ANNOTATIONS + ["[", "]", "TestMethod", " ", "x[0] = 1;\n",
                                               "/* } */", "@\"\n}\"", "[Ignore]\n"]
_HINT_FILLER = ["public void TestStop", "\n", "{\n", "}\n", "    x();\n", "// note\n",
                '"[TestMethod]"', "[Ignore]\n", "namespace N\n"]


@given(
    st.integers(0, 2),
    st.lists(st.sampled_from(_HINT_FILLER), max_size=4),
    st.lists(st.sampled_from(_DIFF_FRAGMENTS), max_size=14),
    st.data(),
)
@settings(max_examples=500, deadline=None)
def test_forward_walk_matches_the_two_pass_truncation(count, filler, fragments, data):
    # Hints holding 0, 1 and 2 annotations, each spelled one of the ways.
    hint_parts = list(filler)
    for _ in range(count):
        at = data.draw(st.integers(0, len(hint_parts)))
        hint_parts.insert(at, data.draw(st.sampled_from(_ANNOTATIONS)))
    raw = RawCompletion("".join(hint_parts), "".join(fragments))
    assert truncate_completion(raw) == reference_truncate(raw)


def test_a_hint_with_two_annotations_disables_annotation_cuts():
    hint = "[TestMethod]\n[TestMethod]\npublic void TestStop"
    body = "()\n{\n    x();\n    [TestMethod]\n    y();\n"
    raw = RawCompletion(hint, body)
    assert truncate_completion(raw) == hint + body
    # The brace rule still holds.
    raw = RawCompletion(hint, body + "}\n[TestMethod]\nvoid U()")
    assert truncate_completion(raw) == hint + body + "}"
