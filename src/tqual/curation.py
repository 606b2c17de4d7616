"""Dataset curation: golden filtering, dedup, and repository-level splits.

The golden filter keeps only tests that demonstrate every practice the
pipeline can verify statically: correct syntax, an assertion, a focal
call, no duplicated assertion, and no conditional or exception-handling
logic.  Splits are made at whole-repository granularity so near-identical
tests from one project can never land on both sides of a train/test
boundary.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .analyzer import PROPERTIES, QualityReport
from .corpus import CorpusRecord
from .errors import TooFewRepos

__all__ = [
    "SplitSpec",
    "is_golden",
    "dedupe",
    "split_by_repository",
    "split_manifest",
    "subsample",
]

RL_STAGES = ("sft", "rm", "pm")


@dataclass(frozen=True)
class SplitSpec:
    test_fraction: float = 0.05
    val_fraction: float = 0.10
    rl_three_way: bool = False
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.test_fraction < 1) or not (0 < self.val_fraction < 1):
            raise ValueError("split fractions must lie in (0, 1)")
        if self.test_fraction + self.val_fraction >= 1:
            raise ValueError("test and validation fractions leave no training data")


# Each functional property with its desirable value: present, or a smell absent.
_GOLDEN_STATES = tuple(
    (p.name, p.desirable) for p in PROPERTIES if p.desirable is not None and not p.documentation
)


def is_golden(report: QualityReport) -> bool:
    return report.correct_syntax and all(
        getattr(report, name) == desirable for name, desirable in _GOLDEN_STATES
    )


def dedupe(records: Sequence[CorpusRecord]) -> list[CorpusRecord]:
    """Drop exact (prompt, test) duplicates, keeping the first occurrence."""
    seen: set[tuple[str, str]] = set()
    out: list[CorpusRecord] = []
    for record in records:
        key = (record.prompt, record.test)
        if key in seen:
            continue
        seen.add(key)
        out.append(record)
    return out


def _greedy_assign(
    repo_sizes: list[tuple[str, int]], targets: dict[str, float]
) -> dict[str, str]:
    """Largest repo first, into the split with the biggest relative deficit.

    Ties go to the split with the larger target, then to the earlier key of
    ``targets``.  No split is left empty when there are at least as many
    repos as splits: an empty split's relative deficit ``(T - 0) / T`` is
    exactly 1, and one that holds a repo has a smaller one, so each of the
    first ``len(targets)`` repos goes to a split that is still empty."""
    assigned: dict[str, str] = {}
    mass = {name: 0 for name in targets}
    for repo, size in repo_sizes:
        best = max(
            targets,
            key=lambda name: ((targets[name] - mass[name]) / targets[name], targets[name]),
        )
        assigned[repo] = best
        mass[best] += size
    return assigned


def split_by_repository(
    records: Sequence[CorpusRecord], spec: SplitSpec | None = None
) -> dict[str, list[CorpusRecord]]:
    """Partition records into train/val/test (plus sft/rm/pm instead of
    train when ``rl_three_way``) with every repository wholly on one side."""
    spec = spec or SplitSpec()
    counts = Counter(r.repo for r in records)
    if "" in counts:
        raise ValueError("every record needs a non-empty repo for splitting")
    required = 5 if spec.rl_three_way else 3
    if len(counts) < required:
        raise TooFewRepos(
            f"need at least {required} distinct repositories, got {len(counts)}"
        )

    # Largest first; equal sizes in a seeded shuffle of the sorted names.
    names = sorted(counts)
    random.Random(spec.seed).shuffle(names)
    repo_sizes = sorted(((name, counts[name]) for name in names), key=lambda kv: -kv[1])

    total = sum(counts.values())
    train_fraction = 1.0 - spec.test_fraction - spec.val_fraction
    targets = {
        "train": train_fraction * total,
        "val": spec.val_fraction * total,
        "test": spec.test_fraction * total,
    }
    assigned = _greedy_assign(repo_sizes, targets)

    if spec.rl_three_way:
        train_repos = [(repo, size) for repo, size in repo_sizes if assigned[repo] == "train"]
        if len(train_repos) < 3:
            raise TooFewRepos(
                "three-way RL split needs at least 3 training repositories"
            )
        third = sum(size for _, size in train_repos) / 3.0
        stage_targets = {stage: third for stage in RL_STAGES}
        assigned.update(_greedy_assign(train_repos, stage_targets))

    split_names = (list(RL_STAGES) if spec.rl_three_way else ["train"]) + ["val", "test"]
    splits: dict[str, list[CorpusRecord]] = {name: [] for name in split_names}
    for record in records:
        splits[assigned[record.repo]].append(record)
    return splits


def split_manifest(splits: dict[str, list[CorpusRecord]]) -> dict[str, str]:
    """repo -> split name, for audit and reproducibility."""
    manifest: dict[str, str] = {}
    for name, records in splits.items():
        for record in records:
            manifest[record.repo] = name
    return dict(sorted(manifest.items()))


def subsample(records: Sequence[CorpusRecord], n: int, seed: int) -> list[CorpusRecord]:
    """Uniform sample of min(n, len) records without replacement."""
    if n < 0:
        raise ValueError("sample size must be non-negative")
    if n >= len(records):
        return list(records)
    return random.Random(seed).sample(list(records), n)
