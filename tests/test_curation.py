"""Curation tests: golden filtering, dedup, and leakage-free splits."""

from __future__ import annotations

import collections
import itertools
import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tqual.analyzer import PROPERTY_FIELDS, QualityReport
from tqual.cli import main
from tqual.corpus import CorpusRecord, dump_line
from tqual.curation import (
    RL_STAGES,
    SplitSpec,
    _greedy_assign,
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


def reference_greedy_assign(repo_sizes, targets, order):
    """The greedy pass as it was with its repair loop: a split left empty
    steals the smallest repo from the most overfull donor."""
    assigned: dict[str, str] = {}
    mass = {name: 0 for name in targets}
    for repo, size in repo_sizes:
        best = max(
            targets,
            key=lambda name: (
                (targets[name] - mass[name]) / targets[name],
                targets[name],
                -order.index(name),
            ),
        )
        assigned[repo] = best
        mass[best] += size

    for name in order:
        if any(s == name for s in assigned.values()):
            continue
        donors = [n for n in targets if n != name
                  and sum(1 for s in assigned.values() if s == n) > 1]
        if not donors:
            donors = [n for n in targets if n != name
                      and any(s == n for s in assigned.values())]
        donor = max(donors, key=lambda n: mass[n] - targets[n])
        repo = min((r for r, s in assigned.items() if s == donor),
                   key=lambda r: dict(repo_sizes)[r])
        assigned[repo] = name
        mass[donor] -= dict(repo_sizes)[repo]
        mass[name] += dict(repo_sizes)[repo]
    return assigned


def reference_split(records, spec):
    """``split_by_repository`` as it was: a shuffle rank, both sorts, and the
    repair loop."""
    counts = collections.Counter(r.repo for r in records)
    required = 5 if spec.rl_three_way else 3
    if len(counts) < required:
        raise TooFewRepos(f"need at least {required} distinct repositories, got {len(counts)}")
    rng = random.Random(spec.seed)
    names = sorted(counts)
    rng.shuffle(names)
    shuffle_rank = {name: i for i, name in enumerate(names)}
    repo_sizes = sorted(counts.items(), key=lambda kv: (-kv[1], shuffle_rank[kv[0]]))
    total = sum(counts.values())
    train_fraction = 1.0 - spec.test_fraction - spec.val_fraction
    targets = {
        "train": train_fraction * total,
        "val": spec.val_fraction * total,
        "test": spec.test_fraction * total,
    }
    assigned = reference_greedy_assign(repo_sizes, targets, ["train", "val", "test"])
    if spec.rl_three_way:
        train_repos = sorted(
            ((r, counts[r]) for r, s in assigned.items() if s == "train"),
            key=lambda kv: (-kv[1], shuffle_rank[kv[0]]),
        )
        if len(train_repos) < 3:
            raise TooFewRepos("three-way RL split needs at least 3 training repositories")
        third = sum(size for _, size in train_repos) / 3.0
        stage_targets = {stage: third for stage in RL_STAGES}
        assigned.update(reference_greedy_assign(train_repos, stage_targets, list(RL_STAGES)))
    split_names = (list(RL_STAGES) if spec.rl_three_way else ["train"]) + ["val", "test"]
    splits = {name: [] for name in split_names}
    for record in records:
        splits[assigned[record.repo]].append(record)
    return splits


def _outcome(split, records, spec):
    try:
        return split(records, spec)
    except TooFewRepos as exc:
        return ("TooFewRepos", str(exc))


@given(
    sizes=st.lists(
        st.one_of(st.integers(1, 200), st.sampled_from([1, 5, 40])), min_size=1, max_size=14
    ),
    test_fraction=st.floats(0.001, 0.9),
    val_fraction=st.floats(0.001, 0.9),
    seed=st.integers(0, 2**32),
    order_seed=st.integers(0, 2**32),
    rl_three_way=st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_split_matches_the_split_with_its_repair_loop(
    sizes, test_fraction, val_fraction, seed, order_seed, rl_three_way
):
    assume(test_fraction + val_fraction < 1)
    spec = SplitSpec(test_fraction=test_fraction, val_fraction=val_fraction,
                     rl_three_way=rl_three_way, seed=seed)
    records = synthetic_corpus({f"repo{i}": size for i, size in enumerate(sizes)})
    random.Random(order_seed).shuffle(records)
    assert _outcome(split_by_repository, records, spec) == _outcome(reference_split, records, spec)


@given(
    sizes=st.lists(st.integers(1, 200), min_size=1, max_size=14),
    targets=st.lists(st.floats(1e-3, 1e6), min_size=1, max_size=6),
)
@settings(max_examples=400, deadline=None)
def test_greedy_pass_leaves_no_split_empty(sizes, targets):
    assume(len(sizes) >= len(targets))
    repo_sizes = [(f"repo{i}", size) for i, size in enumerate(sizes)]
    named = {f"split{i}": target for i, target in enumerate(targets)}
    assigned = _greedy_assign(repo_sizes, named)
    assert set(assigned) == {repo for repo, _ in repo_sizes}
    assert set(assigned.values()) == set(named)


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
