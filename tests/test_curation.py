"""Curation tests: golden filtering, dedup, and leakage-free splits."""

from __future__ import annotations

import itertools
import json
import random

import pytest

from tqual.analyzer import PROPERTY_FIELDS, QualityReport
from tqual.cli import main
from tqual.corpus import CorpusRecord, dump_line
from tqual.curation import (
    RL_STAGES,
    SplitSpec,
    dedupe,
    is_golden,
    split_by_repository,
    split_manifest,
    subsample,
)
from tqual.errors import TooFewRepos

GOLDEN_TEST = (
    "[TestMethod]\npublic void TestStop()\n{\n"
    "    c.Stop();\n    Assert.IsTrue(c.IsStopped());\n}"
)


def make_report(**overrides) -> QualityReport:
    values = dict.fromkeys(PROPERTY_FIELDS, False)
    values.update(
        dict(correct_syntax=True, has_assertion=True, invokes_focal=True)
    )
    values.update(overrides)
    return QualityReport(focal_method_name="Stop", **values)


def make_record(repo: str, i: int = 0, test: str = GOLDEN_TEST) -> CorpusRecord:
    return CorpusRecord(
        repo=repo,
        focal_class="C",
        focal_method="Stop",
        prompt=f"prompt-{repo}-{i}",
        test=test,
    )


def synthetic_corpus(repo_sizes: dict[str, int]) -> list[CorpusRecord]:
    return [
        make_record(repo, i) for repo, size in repo_sizes.items() for i in range(size)
    ]


# ── golden filter ────────────────────────────────────────────────────


def test_is_golden_requires_all_five_conditions():
    assert is_golden(make_report())
    assert not is_golden(make_report(correct_syntax=False))
    assert not is_golden(make_report(has_assertion=False))
    assert not is_golden(make_report(invokes_focal=False))
    assert not is_golden(make_report(duplicate_assertion=True))
    assert not is_golden(make_report(conditional_or_exception=True))


def test_is_golden_equals_the_five_conditions_on_all_128_reports():
    names = ("correct_syntax", "has_assertion", "invokes_focal", "has_comment",
             "descriptive_name", "duplicate_assertion", "conditional_or_exception")
    kept = 0
    for bits in itertools.product((False, True), repeat=7):
        r = QualityReport(focal_method_name="Stop", **dict(zip(names, bits)))
        want = (r.correct_syntax and r.has_assertion and r.invokes_focal
                and not r.duplicate_assertion and not r.conditional_or_exception)
        assert is_golden(r) is want, bits
        kept += want
    assert kept == 4  # the two documentation properties are free


def test_golden_ignores_documentation_properties():
    assert is_golden(make_report(has_comment=True, descriptive_name=True))
    assert is_golden(make_report(has_comment=False, descriptive_name=False))


def test_filter_golden_end_to_end(tmp_path, capsys):
    good = make_record("r", 0)
    no_assert = make_record(
        "r", 1, test="[TestMethod]\npublic void TestStop()\n{\n    c.Stop();\n}"
    )
    broken = make_record(
        "r", 2, test="[TestMethod]\npublic void TestStop()\n{\n    c.Stop()\n}"
    )
    path = tmp_path / "c.jsonl"
    path.write_text("".join(dump_line(r.to_dict()) + "\n" for r in (good, no_assert, broken)))
    assert main(["golden", str(path)]) == 0
    kept = [CorpusRecord.from_dict(json.loads(line))
            for line in capsys.readouterr().out.splitlines()]
    assert kept == [good]


# ── dedup ────────────────────────────────────────────────────────────


def test_dedupe_keeps_first_occurrence():
    a = make_record("r1", 0)
    b = CorpusRecord(
        repo="r2",  # same prompt+test, different metadata: still a duplicate
        focal_class="C",
        focal_method="Stop",
        prompt=a.prompt,
        test=a.test,
    )
    c = make_record("r1", 1)
    assert dedupe([a, b, c]) == [a, c]


# ── repository splits ────────────────────────────────────────────────


def test_split_preserves_every_record_exactly_once():
    corpus = synthetic_corpus({f"repo{i}": 10 + i for i in range(8)})
    splits = split_by_repository(corpus, SplitSpec(seed=1))
    flattened = [r for members in splits.values() for r in members]
    assert sorted(r.prompt for r in flattened) == sorted(r.prompt for r in corpus)


def test_split_never_divides_a_repository():
    corpus = synthetic_corpus({f"repo{i}": 7 for i in range(10)})
    splits = split_by_repository(corpus, SplitSpec(seed=2))
    manifest = split_manifest(splits)
    for name, members in splits.items():
        for record in members:
            assert manifest[record.repo] == name


def test_split_names_and_nonempty():
    corpus = synthetic_corpus({f"repo{i}": 20 for i in range(6)})
    splits = split_by_repository(corpus, SplitSpec(seed=0))
    assert set(splits) == {"train", "val", "test"}
    assert all(len(members) > 0 for members in splits.values())


def test_split_is_deterministic_per_seed():
    corpus = synthetic_corpus({f"repo{i}": random.Random(4).randint(5, 30) for i in range(9)})
    one = split_manifest(split_by_repository(corpus, SplitSpec(seed=5)))
    two = split_manifest(split_by_repository(corpus, SplitSpec(seed=5)))
    assert one == two


def test_split_preserves_record_order_within_split():
    corpus = synthetic_corpus({f"repo{i}": 12 for i in range(5)})
    splits = split_by_repository(corpus, SplitSpec(seed=3))
    position = {r.prompt: i for i, r in enumerate(corpus)}
    for members in splits.values():
        indices = [position[r.prompt] for r in members]
        assert indices == sorted(indices)


def test_split_requires_three_repositories():
    corpus = synthetic_corpus({"a": 10, "b": 10})
    with pytest.raises(TooFewRepos):
        split_by_repository(corpus, SplitSpec())


def test_split_rejects_empty_repo_names():
    corpus = [make_record("", 0)] + synthetic_corpus({"a": 5, "b": 5, "c": 5})
    with pytest.raises(ValueError):
        split_by_repository(corpus)


def test_three_way_rl_split_partitions_training_mass():
    corpus = synthetic_corpus({f"repo{i}": 15 for i in range(12)})
    splits = split_by_repository(corpus, SplitSpec(rl_three_way=True, seed=6))
    assert set(splits) == set(RL_STAGES) | {"val", "test"}
    assert all(len(members) > 0 for members in splits.values())
    manifest = split_manifest(splits)
    # Stage membership is still whole-repository.
    for name, members in splits.items():
        assert all(manifest[r.repo] == name for r in members)


def test_three_way_rl_split_needs_five_repositories():
    corpus = synthetic_corpus({f"repo{i}": 10 for i in range(4)})
    with pytest.raises(TooFewRepos):
        split_by_repository(corpus, SplitSpec(rl_three_way=True))


def test_split_spec_validation():
    with pytest.raises(ValueError):
        SplitSpec(test_fraction=0.0)
    with pytest.raises(ValueError):
        SplitSpec(test_fraction=0.6, val_fraction=0.5)


def test_split_manifest_is_sorted():
    corpus = synthetic_corpus({"zeta": 5, "alpha": 5, "mid": 5})
    manifest = split_manifest(split_by_repository(corpus))
    assert list(manifest) == sorted(manifest)


# ── subsampling ──────────────────────────────────────────────────────


def test_subsample_seeded_and_without_replacement():
    corpus = synthetic_corpus({"a": 30})
    first = subsample(corpus, 10, seed=9)
    second = subsample(corpus, 10, seed=9)
    assert first == second
    assert len({r.prompt for r in first}) == 10


def test_subsample_returns_all_when_n_exceeds_corpus():
    corpus = synthetic_corpus({"a": 4})
    assert subsample(corpus, 10, seed=0) == corpus


def test_subsample_rejects_negative_n():
    with pytest.raises(ValueError):
        subsample([], -1, seed=0)
