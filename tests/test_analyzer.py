"""Analyzer tests: the seven detectors against hand labels, plus scoring."""

from __future__ import annotations

import pytest

import tqual.analyzer
import tqual.nodes
import tqual.parser
from labeled_corpus import LABELED_TESTS, PROPERTIES
from tqual.analyzer import (
    PROPERTY_FIELDS,
    CorpusStats,
    QualityReport,
    ScoreConfig,
    analyze,
    score_corpus,
)
from tqual.errors import DomainError, EmptyCorpus
from tqual.lexer import KIND, TokenKind
from tqual.nodes import Invocation, Statement


def make_report(**overrides) -> QualityReport:
    values = dict.fromkeys(PROPERTY_FIELDS, False)
    values.update(overrides)
    return QualityReport(focal_method_name="Stop", **values)


def test_property_fields_order_matches_labels():
    assert PROPERTY_FIELDS == PROPERTIES


@pytest.mark.parametrize(
    "case", LABELED_TESTS, ids=[c["name"] for c in LABELED_TESTS]
)
def test_detectors_match_hand_labels(case):
    """Every detector agrees with the label assigned by reading the source."""
    report = analyze(case["test"], case["focal"])
    got = {prop: getattr(report, prop) for prop in PROPERTIES}
    assert got == case["labels"]


def test_low_confidence_tracks_broken_syntax():
    ok = analyze("[TestMethod]\npublic void T()\n{\n}", "Stop")
    broken = analyze("[TestMethod]\npublic void T()\n{\n", "Stop")
    assert not ok.low_confidence
    assert broken.low_confidence


def test_report_dict_round_trip():
    report = analyze(
        "[TestMethod]\npublic void TestStopWorks()\n{\n    c.Stop();\n    Assert.IsTrue(x);\n}",
        "Stop",
    )
    data = report.to_dict()
    assert data["schema"] == "report.v1"
    assert QualityReport.from_dict(data) == report


@pytest.mark.parametrize("change", [
    {"has_assertion": "false"}, {"correct_syntax": 1}, {"low_confidence": None},
    {"focal_method_name": 7},
], ids=["text-bool", "int-bool", "null-bool", "number-name"])
def test_report_from_dict_coerces_nothing(change):
    data = {**analyze("[TestMethod]\npublic void T()\n{\n}", "Stop").to_dict(), **change}
    with pytest.raises(DomainError, match=repr(next(iter(change)))):
        QualityReport.from_dict(data)


def test_report_from_dict_needs_every_property():
    data = analyze("[TestMethod]\npublic void T()\n{\n}", "Stop").to_dict()
    del data["duplicate_assertion"]
    with pytest.raises(DomainError, match="'duplicate_assertion'"):
        QualityReport.from_dict(data)


# ── targeted detector edges ──────────────────────────────────────────


def test_qualified_xunit_assert_is_not_counted():
    report = analyze(
        "[TestMethod]\npublic void T()\n{\n    Xunit.Assert.True(x);\n}", "Run"
    )
    assert not report.has_assertion


def test_bare_assert_call_is_counted():
    report = analyze("[TestMethod]\npublic void T()\n{\n    Assert(x);\n}", "Run")
    assert report.has_assertion


def test_assert_throws_counts_as_assertion_and_focal_call():
    report = analyze(
        "[TestMethod]\npublic void T()\n{\n"
        "    Assert.ThrowsException<InvalidOperationException>(() => c.Run());\n}",
        "Run",
    )
    assert report.has_assertion
    assert report.invokes_focal


def test_focal_match_is_case_sensitive():
    report = analyze("[TestMethod]\npublic void T()\n{\n    c.stop();\n}", "Stop")
    assert not report.invokes_focal


def test_constructor_does_not_count_as_focal_call():
    report = analyze(
        "[TestMethod]\npublic void T()\n{\n    var s = new Stop();\n}", "Stop"
    )
    assert not report.invokes_focal


def test_comment_inside_string_is_not_a_comment():
    report = analyze(
        '[TestMethod]\npublic void T()\n{\n    var s = "// not a comment";\n}', "Run"
    )
    assert not report.has_comment


def test_region_directive_is_not_a_comment():
    report = analyze(
        "[TestMethod]\npublic void T()\n{\n#region setup\n#endregion\n}", "Run"
    )
    assert not report.has_comment


def test_duplicate_requires_adjacency():
    apart = analyze(
        "[TestMethod]\npublic void T()\n{\n"
        "    Assert.IsTrue(x);\n    c.Run();\n    Assert.IsTrue(x);\n}",
        "Run",
    )
    adjacent = analyze(
        "[TestMethod]\npublic void T()\n{\n"
        "    Assert.IsTrue(x);\n    Assert.IsTrue(x);\n}",
        "Run",
    )
    assert not apart.duplicate_assertion
    assert adjacent.duplicate_assertion


def test_duplicate_whitespace_runs_collapse_but_spacing_differences_remain():
    collapsed = analyze(
        "[TestMethod]\npublic void T()\n{\n"
        "    Assert.IsTrue(x == y);\n    Assert.IsTrue(x  ==  y);\n}",
        "Run",
    )
    different = analyze(
        "[TestMethod]\npublic void T()\n{\n"
        "    Assert.IsTrue( x );\n    Assert.IsTrue(x);\n}",
        "Run",
    )
    assert collapsed.duplicate_assertion
    assert not different.duplicate_assertion


def test_detectors_run_on_partial_parse():
    report = analyze(
        "[TestMethod]\npublic void T()\n{\n    Assert.IsTrue(c.Run())\n}", "Run"
    )
    assert not report.correct_syntax
    assert report.has_assertion
    assert report.invokes_focal


def test_analyze_lexes_its_input_once(monkeypatch):
    real = tqual.parser.tokenize
    calls = []
    kinds = set()

    def counting(source):
        calls.append(source)
        lexed = real(source)
        kinds.update(t[KIND] for tokens in lexed for t in tokens)
        return lexed

    monkeypatch.setattr(tqual.parser, "tokenize", counting)
    source = ("[TestMethod]\n[DataRow(2, \"b\"), Timeout(100)]\n"
              "public void TestAdd(int a, string b)\n{\n    // adds\n"
              "    Assert.AreEqual(a, b.Add());\n}")
    report = analyze(source, "Add")
    assert report.correct_syntax and report.has_assertion and report.invokes_focal
    assert report.has_comment
    assert calls == [source]
    # The analysis path never builds a token for whitespace.
    assert TokenKind.COMMENT_LINE in kinds and TokenKind.WHITESPACE not in kinds


def test_detectors_walk_any_depth_without_recursion(monkeypatch):
    source = "Assert.IsTrue(sut.Stop());"
    call = [Invocation(("Assert", "IsTrue")), Invocation(("sut", "Stop"))]
    leaf = Statement("expression-statement", (0, len(source)), invocations=call)
    stmt = Statement("block", (0, len(source)), children=[leaf, leaf])
    for _ in range(5000):
        stmt = Statement("block", (0, len(source)), children=[stmt])
    tree = tqual.nodes.TestSyntaxTree("TestStopsDeep", [], source, partial_body=[stmt])
    monkeypatch.setattr(tqual.analyzer, "parse_test_method", lambda _: tree)
    report = analyze(source, "Stop")
    assert report.has_assertion and report.invokes_focal and report.duplicate_assertion
    assert not report.conditional_or_exception


# ── corpus scoring ───────────────────────────────────────────────────


def test_score_corpus_frequencies_are_exact_fractions():
    reports = [
        make_report(correct_syntax=True, has_assertion=True),
        make_report(correct_syntax=True),
        make_report(correct_syntax=False, conditional_or_exception=True),
        make_report(correct_syntax=True, has_assertion=True, invokes_focal=True),
    ]
    stats = score_corpus(reports)
    assert stats.count == 4
    assert stats.frequencies["correct_syntax"] == 0.75
    assert stats.frequencies["has_assertion"] == 0.5
    assert stats.frequencies["invokes_focal"] == 0.25
    assert stats.frequencies["conditional_or_exception"] == 0.25


def test_quality_score_is_positive_minus_smell_mass():
    reports = [
        make_report(has_assertion=True, duplicate_assertion=True),
        make_report(invokes_focal=True),
    ]
    stats = score_corpus(reports)
    # (0.5 + 0.5) positives minus (0.5 + 0.0) smells.
    assert stats.quality_score == pytest.approx(0.5)


def test_score_config_can_include_documentation_properties():
    reports = [make_report(has_comment=True, descriptive_name=True)]
    default = score_corpus(reports)
    custom = score_corpus(
        reports,
        ScoreConfig(
            positive_properties=("has_comment", "descriptive_name"),
            smell_properties=(),
        ),
    )
    assert default.quality_score == 0.0
    assert custom.quality_score == pytest.approx(2.0)


def test_default_score_config_is_the_literal_property_tuples_in_order():
    # The quality score is a float sum taken in this order.
    config = ScoreConfig()
    assert config.positive_properties == ("has_assertion", "invokes_focal")
    assert config.smell_properties == ("duplicate_assertion", "conditional_or_exception")
    assert config == ScoreConfig(("has_assertion", "invokes_focal"),
                                 ("duplicate_assertion", "conditional_or_exception"))


def test_score_config_rejects_unknown_property():
    with pytest.raises(ValueError):
        ScoreConfig(positive_properties=("made_up",))


def test_empty_corpus_raises():
    with pytest.raises(EmptyCorpus):
        score_corpus([])


def test_stats_to_dict_schema():
    stats = score_corpus([make_report(correct_syntax=True)])
    data = stats.to_dict()
    assert data["schema"] == "stats.v1"
    assert data["count"] == 1
    assert isinstance(stats, CorpusStats)
