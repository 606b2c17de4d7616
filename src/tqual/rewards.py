"""Reward assignment for generated tests and class-balanced resampling.

A reward scheme names one or more quality properties and a strategy.
Positive-polarity properties reward presence, smells reward absence.  A
syntactically incorrect test always scores -1 regardless of strategy; a
correct one scores in [0, k] where k is the number of properties.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from typing import Sequence

from .analyzer import PROPERTIES, QualityReport
from .corpus import REQUIRED, CorpusRecord, decode, encode
from .errors import InsufficientData

__all__ = [
    "POSITIVE_PROPERTIES",
    "NEGATIVE_PROPERTIES",
    "RewardScheme",
    "LabeledRecord",
    "canonical_property",
    "property_score",
    "reward_for",
    "resample_balanced",
]

POSITIVE_PROPERTIES = frozenset(p.name for p in PROPERTIES if p.desirable)
NEGATIVE_PROPERTIES = frozenset(p.name for p in PROPERTIES if p.desirable is False)

# Every name a scheme accepts, lower case, to its property; correct_syntax
# is neither desirable nor undesirable on its own, so it has none.
_ALIASES = {
    alias: p.name
    for p in PROPERTIES if p.desirable is not None
    for alias in (p.name, *p.short_names)
}


def canonical_property(name: str) -> str:
    key = name.strip().lower()
    if key not in _ALIASES:
        raise ValueError(f"unknown quality property: {name!r}")
    return _ALIASES[key]


@dataclass(frozen=True)
class RewardScheme:
    properties: tuple[str, ...]
    strategy: str  # "individual" | "combined"

    def __post_init__(self):
        if not self.properties:
            raise ValueError("a reward scheme needs at least one property")
        canonical = tuple(canonical_property(p) for p in self.properties)
        object.__setattr__(self, "properties", canonical)
        if len(set(canonical)) != len(canonical):
            raise ValueError("duplicate properties in reward scheme")
        if self.strategy not in ("individual", "combined"):
            raise ValueError(f"unknown strategy: {self.strategy!r}")
        if self.strategy == "individual" and len(canonical) != 1:
            raise ValueError("individual strategy takes exactly one property")

    @classmethod
    def individual(cls, prop: str) -> "RewardScheme":
        return cls((prop,), "individual")

    @classmethod
    def combined(cls, props: Sequence[str]) -> "RewardScheme":
        return cls(tuple(props), "combined")

    @property
    def k(self) -> int:
        return len(self.properties)


def property_score(report: QualityReport, prop: str) -> int:
    """1 when the property is in its desirable state, else 0."""
    prop = canonical_property(prop)
    value = getattr(report, prop)
    return int(value) if prop in POSITIVE_PROPERTIES else int(not value)


def reward_for(report: QualityReport, scheme: RewardScheme) -> int:
    """-1 for broken syntax, else how many of the scheme's properties are in
    their desirable state."""
    if not report.correct_syntax:
        return -1
    return sum(property_score(report, p) for p in scheme.properties)


@dataclass(frozen=True)
class LabeledRecord:
    record: CorpusRecord
    report: QualityReport
    reward: int

    def to_dict(self) -> dict:
        return encode(self, "labeled.v1")

    @classmethod
    def from_dict(cls, data: dict) -> "LabeledRecord":
        return decode(cls, data, {
            "record": (CorpusRecord.from_dict, REQUIRED),
            "report": (QualityReport.from_dict, REQUIRED),
            "reward": (int, REQUIRED),
        })


def resample_balanced(labeled: Sequence[LabeledRecord], seed: int) -> list[LabeledRecord]:
    """Balance reward classes for reward-model training.

    With d = min(|low|, |high|) over the non-negative reward classes, the
    output holds d samples of each plus min(2d, all of them) of the -1
    class.  Sampling is uniform without replacement and fully determined
    by the seed.  For a single-property scheme low/high are exactly the
    0 and 1 classes; for combined rewards they generalize to below-median
    and at-or-above-median.
    """
    negative = [l for l in labeled if l.reward < 0]
    nonneg = [l for l in labeled if l.reward >= 0]
    if not nonneg:
        raise InsufficientData("no records with non-negative reward")
    rewards = [l.reward for l in nonneg]
    if max(rewards) <= 1:
        low = [l for l in nonneg if l.reward == 0]
        high = [l for l in nonneg if l.reward == 1]
    else:
        median = statistics.median(rewards)
        low = [l for l in nonneg if l.reward < median]
        high = [l for l in nonneg if l.reward >= median]
    if not low or not high:
        raise InsufficientData(
            "balancing needs both a low and a high reward class"
        )
    d = min(len(low), len(high))
    rng = random.Random(seed)
    result = rng.sample(low, d) + rng.sample(high, d)
    result += rng.sample(negative, min(2 * d, len(negative)))
    return result
