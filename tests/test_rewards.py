"""Reward scheme tests: property algebra, labeled records, balanced resampling."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqual.analyzer import PROPERTY_FIELDS, QualityReport
from tqual.corpus import CorpusRecord
from tqual.errors import DomainError, InsufficientData
from tqual.rewards import (
    NEGATIVE_PROPERTIES,
    POSITIVE_PROPERTIES,
    LabeledRecord,
    RewardScheme,
    canonical_property,
    property_score,
    resample_balanced,
    reward_for,
)


def make_report(**overrides) -> QualityReport:
    values = dict.fromkeys(PROPERTY_FIELDS, False)
    values["correct_syntax"] = True
    values.update(overrides)
    return QualityReport(focal_method_name="Stop", **values)


def make_labeled(reward: int, i: int = 0) -> LabeledRecord:
    record = CorpusRecord(
        repo=f"r{i}", focal_class="C", focal_method="Stop", prompt="p", test=f"t{i}"
    )
    return LabeledRecord(record, make_report(), reward)


report_strategy = st.builds(
    lambda bits: QualityReport(focal_method_name="Stop", **dict(zip(PROPERTY_FIELDS, bits))),
    st.lists(st.booleans(), min_size=7, max_size=7),
)


# ── property names and polarity ──────────────────────────────────────


def test_canonical_property_aliases():
    assert canonical_property("assertion") == "has_assertion"
    assert canonical_property("Focal") == "invokes_focal"
    assert canonical_property("duplicate") == "duplicate_assertion"
    assert canonical_property("conditional_or_exception") == "conditional_or_exception"


def test_unknown_property_rejected():
    with pytest.raises(ValueError):
        canonical_property("correct_syntax")  # not rewardable on its own
    with pytest.raises(ValueError):
        canonical_property("made_up")


def test_polarities_partition_the_rewardable_properties():
    assert POSITIVE_PROPERTIES | NEGATIVE_PROPERTIES == set(PROPERTY_FIELDS) - {
        "correct_syntax"
    }
    assert "has_assertion" in POSITIVE_PROPERTIES
    assert "duplicate_assertion" in NEGATIVE_PROPERTIES


# Each rewardable property, spelled out, with whether its presence is desirable.
LITERAL_POLARITY = {
    "has_assertion": True,
    "invokes_focal": True,
    "has_comment": True,
    "descriptive_name": True,
    "duplicate_assertion": False,
    "conditional_or_exception": False,
}


@pytest.mark.parametrize("prop", sorted(LITERAL_POLARITY))
def test_single_property_reward_is_its_literal_polarity_on_all_128_reports(prop):
    names = ("correct_syntax",) + tuple(LITERAL_POLARITY)
    scheme = RewardScheme.individual(prop)
    for bits in itertools.product((False, True), repeat=7):
        values = dict(zip(names, bits))
        report = QualityReport(focal_method_name="Stop", **values)
        if not values["correct_syntax"]:
            want = -1
        else:
            want = 1 if values[prop] == LITERAL_POLARITY[prop] else 0
        assert reward_for(report, scheme) == want, bits
    assert (prop in POSITIVE_PROPERTIES) == LITERAL_POLARITY[prop]


# ── scheme construction ──────────────────────────────────────────────


def test_individual_scheme_takes_exactly_one_property():
    scheme = RewardScheme.individual("assertion")
    assert scheme.properties == ("has_assertion",)
    assert scheme.k == 1
    with pytest.raises(ValueError):
        RewardScheme(("has_assertion", "invokes_focal"), "individual")


def test_combined_scheme_canonicalizes_and_counts():
    scheme = RewardScheme.combined(["assertion", "conditional"])
    assert scheme.properties == ("has_assertion", "conditional_or_exception")
    assert scheme.k == 2


def test_scheme_rejects_duplicates_and_unknown_strategy():
    with pytest.raises(ValueError):
        RewardScheme.combined(["assertion", "has_assertion"])
    with pytest.raises(ValueError):
        RewardScheme(("has_assertion",), "mixed")
    with pytest.raises(ValueError):
        RewardScheme((), "combined")


# ── reward values ────────────────────────────────────────────────────


def test_property_score_polarity():
    assert property_score(make_report(has_assertion=True), "has_assertion") == 1
    assert property_score(make_report(), "has_assertion") == 0
    assert property_score(make_report(), "duplicate_assertion") == 1
    assert property_score(make_report(duplicate_assertion=True), "duplicate_assertion") == 0


def test_individual_reward_values():
    scheme = RewardScheme.individual("assertion")
    assert reward_for(make_report(has_assertion=True), scheme) == 1
    assert reward_for(make_report(), scheme) == 0
    assert reward_for(make_report(correct_syntax=False, has_assertion=True), scheme) == -1


def test_combined_reward_sums_desirable_states():
    scheme = RewardScheme.combined(["assertion", "focal", "conditional"])
    report = make_report(has_assertion=True, invokes_focal=True)
    # Assertion present, focal present, conditional absent: all desirable.
    assert reward_for(report, scheme) == 3
    worst = make_report(conditional_or_exception=True)
    assert reward_for(worst, scheme) == 0


def test_broken_syntax_dominates_any_strategy():
    broken = make_report(correct_syntax=False, has_assertion=True, invokes_focal=True)
    assert reward_for(broken, RewardScheme.individual("assertion")) == -1
    assert reward_for(broken, RewardScheme.combined(["assertion", "focal"])) == -1


@given(report_strategy)
@settings(max_examples=300, deadline=None)
def test_reward_range_individual(report):
    reward = reward_for(report, RewardScheme.individual("assertion"))
    if report.correct_syntax:
        assert reward in (0, 1)
    else:
        assert reward == -1


@given(report_strategy)
@settings(max_examples=300, deadline=None)
def test_reward_range_combined(report):
    scheme = RewardScheme.combined(
        ["assertion", "focal", "comment", "descriptive", "duplicate", "conditional"]
    )
    reward = reward_for(report, scheme)
    if report.correct_syntax:
        assert 0 <= reward <= scheme.k
    else:
        assert reward == -1


# ── labeled records ──────────────────────────────────────────────────


def test_labeled_record_dict_round_trip():
    labeled = make_labeled(1)
    data = labeled.to_dict()
    assert data["schema"] == "labeled.v1"
    assert LabeledRecord.from_dict(data) == labeled


@pytest.mark.parametrize("change, field", [
    ({"reward": True}, "'reward'"),
    ({"reward": 1.0}, "'reward'"),
    ({"record": ["t0"]}, "'record'"),
    ({"report": "report.v1"}, "'report'"),
], ids=["bool-reward", "float-reward", "list-record", "text-report"])
def test_labeled_record_from_dict_coerces_nothing(change, field):
    data = {**make_labeled(1).to_dict(), **change}
    with pytest.raises(DomainError, match=field):
        LabeledRecord.from_dict(data)


# ── balanced resampling ──────────────────────────────────────────────


def test_resample_sizes_single_property_scheme():
    labeled = (
        [make_labeled(0, i) for i in range(30)]
        + [make_labeled(1, 100 + i) for i in range(10)]
        + [make_labeled(-1, 200 + i) for i in range(40)]
    )
    out = resample_balanced(labeled, seed=7)
    rewards = [l.reward for l in out]
    assert rewards.count(0) == 10
    assert rewards.count(1) == 10
    assert rewards.count(-1) == 20


def test_resample_caps_negative_class_at_available():
    labeled = (
        [make_labeled(0, i) for i in range(5)]
        + [make_labeled(1, 100 + i) for i in range(9)]
        + [make_labeled(-1, 200 + i) for i in range(3)]
    )
    out = resample_balanced(labeled, seed=0)
    rewards = [l.reward for l in out]
    assert rewards.count(0) == 5
    assert rewards.count(1) == 5
    assert rewards.count(-1) == 3


def test_resample_combined_rewards_split_at_median():
    labeled = [make_labeled(r, i) for i, r in enumerate([0, 1, 1, 2, 3, 3, -1, -1])]
    out = resample_balanced(labeled, seed=3)
    rewards = sorted(l.reward for l in out)
    # Median of [0,1,1,2,3,3] is 1.5: low {0,1,1}, high {2,3,3}, d=3.
    assert len([r for r in rewards if 0 <= r < 1.5]) == 3
    assert len([r for r in rewards if r >= 1.5]) == 3
    assert rewards.count(-1) == 2


def test_resample_is_deterministic_per_seed():
    labeled = (
        [make_labeled(0, i) for i in range(20)]
        + [make_labeled(1, 100 + i) for i in range(20)]
        + [make_labeled(-1, 200 + i) for i in range(20)]
    )
    first = [l.to_dict() for l in resample_balanced(labeled, seed=11)]
    second = [l.to_dict() for l in resample_balanced(labeled, seed=11)]
    other = [l.to_dict() for l in resample_balanced(labeled, seed=12)]
    assert first == second
    assert first != other


def test_resample_requires_both_classes():
    with pytest.raises(InsufficientData):
        resample_balanced([make_labeled(1, i) for i in range(5)], seed=0)
    with pytest.raises(InsufficientData):
        resample_balanced([make_labeled(-1, i) for i in range(5)], seed=0)
