"""Flat key/value configuration for the batch pipeline.

The format is one ``section.key = value`` pair per line, with ``#`` comments
and blank lines ignored.  Each section mirrors one of the typed configs:
``budget.*`` for prompt budgets, ``split.*`` for dataset splitting,
``reward.*`` for the reward scheme, ``train.*`` for the RL loop and
``score.*`` for corpus scoring.  One table, ``_DEFAULTS``, maps every
settable key to its default.  Loading a file checks every line against it:
an unknown key or a value that does not parse as its default's type is an
error naming the file and the line, whichever sections the caller reads.
Range checks run when a section is built, after command-line overrides.  A
range error that the overrides alone do not raise names the file and the
key whose value raises it, or the section for a check across keys.

``TrainConfig``, the RL loop's settings, is defined here rather than in
``rlcore.trainer`` (which re-exports it): it is plain data, and reading a
config file must not import numpy, which only the RL core needs.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from .analyzer import ScoreConfig
from .corpus import read_input
from .curation import SplitSpec
from .errors import DomainError
from .prompting import BudgetConfig
from .rewards import RewardScheme

__all__ = ["PipelineConfig", "TrainConfig", "parse_config_text", "load_config"]


@dataclass(frozen=True)
class TrainConfig:
    beta: float = 0.05
    epsilon: float = 0.2
    learning_rate: float = 0.5
    episodes: int = 2000
    max_tokens: int = 512
    temperature: float = 0.7
    top_p: float = 1.0
    frequency_penalty: float = 0.5
    seed: int = 0
    batch_size: int = 25
    ppo_epochs: int = 4
    baseline_decay: float = 0.9
    eval_interval: int = 200
    eval_samples: int = 100

    def __post_init__(self) -> None:
        # One-sided range checks such as ``beta < 0`` let NaN and inf through.
        for name in ("beta", "learning_rate", "temperature", "frequency_penalty"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        if self.beta < 0:
            raise DomainError(f"beta must be non-negative, got {self.beta}")
        if not (0 < self.epsilon < 1):
            raise DomainError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.learning_rate <= 0:
            raise DomainError("learning_rate must be positive")
        if self.temperature <= 0:
            raise DomainError(f"temperature must be positive, got {self.temperature}")
        if not (0 < self.top_p <= 1):
            raise DomainError(f"top_p must lie in (0, 1], got {self.top_p}")
        if self.frequency_penalty < 0:
            raise DomainError("frequency_penalty cannot be negative")
        for name in ("episodes", "max_tokens", "batch_size", "ppo_epochs",
                     "eval_interval", "eval_samples"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be at least 1")
        if not (0 <= self.baseline_decay < 1):
            raise DomainError("baseline_decay must lie in [0, 1)")
        if self.seed < 0:
            raise DomainError(f"seed must be non-negative, got {self.seed}")


# Every settable key, with the default that gives its value's type.
_DEFAULTS: dict[str, Any] = {
    f"{section}.{f.name}": f.default
    for section, factory in (("budget", BudgetConfig), ("split", SplitSpec),
                             ("train", TrainConfig), ("score", ScoreConfig))
    for f in dataclasses.fields(factory)
} | {"reward.properties": (), "reward.strategy": ""}


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines into a flat string map, checking each key
    against ``_DEFAULTS`` and each value against its default's type."""
    values: dict[str, str] = {}
    for number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {number}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _DEFAULTS:
            raise ValueError(f"config line {number}: unknown key {key!r}")
        try:
            _coerce(value, _DEFAULTS[key])
        except ValueError as exc:
            raise ValueError(f"config line {number}: {key}: {exc}") from None
        values[key] = value
    return values


def load_config(path: str | Path) -> dict[str, str]:
    return read_input(path, parse_config_text)


def _coerce(raw: str, template: Any) -> Any:
    if isinstance(template, bool):
        lowered = raw.lower()
        if lowered in ("true", "yes", "1", "on"):
            return True
        if lowered in ("false", "no", "0", "off"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    if isinstance(template, int):
        return int(raw)
    if isinstance(template, float):
        return float(raw)
    if isinstance(template, tuple):
        return tuple(part.strip() for part in raw.split(",") if part.strip())
    return raw


def _reward_scheme(properties: tuple[str, ...] | None = None,
                   strategy: str | None = None) -> RewardScheme | None:
    """The scheme of ``properties``, None without them; the strategy is
    ``individual`` for one property and ``combined`` for more unless set."""
    if properties is None:
        return None
    if strategy is None:
        strategy = "individual" if len(properties) == 1 else "combined"
    return RewardScheme(properties, strategy)


def _error(make: Callable[..., Any], values: dict[str, Any]) -> Exception | None:
    """The range error ``make(**values)`` raises, or None."""
    try:
        make(**values)
    except (ValueError, DomainError) as exc:
        return exc
    return None


@dataclass(frozen=True)
class PipelineConfig:
    """Typed view over the flat config map; missing keys take defaults.
    ``path`` names the file the values came from, "" for none."""

    values: dict[str, str]
    path: str = ""

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        return cls(load_config(path), str(path))

    @classmethod
    def empty(cls) -> "PipelineConfig":
        return cls({})

    def _build(self, section: str, make: Callable[..., Any], overrides: dict[str, Any]) -> Any:
        """``make`` called with each override that is not None and, for the
        section's other keys, the file's values.  A range error is put on
        the file when the overrides alone do not raise it: on the first key
        whose value raises one by itself, else on the whole section."""
        given = {name: value for name, value in overrides.items() if value is not None}
        filed: dict[str, Any] = {}
        for key, default in _DEFAULTS.items():
            owner, _, name = key.partition(".")
            if owner == section and key in self.values and name not in given:
                filed[name] = _coerce(self.values[key], default)
        try:
            return make(**given, **filed)
        except (ValueError, DomainError) as error:
            if not filed or _error(make, given) is not None:
                raise
            where = f"{self.path}: " if self.path else ""
            for name, value in filed.items():
                alone = _error(make, given | {name: value})
                if alone is not None:
                    raise type(alone)(f"{where}{section}.{name}: {alone}") from None
            raise type(error)(f"{where}{section}: {error}") from None

    def budget(self, **overrides: Any) -> BudgetConfig:
        return self._build("budget", BudgetConfig, overrides)

    def split_spec(self, **overrides: Any) -> SplitSpec:
        return self._build("split", SplitSpec, overrides)

    def train_config(self, **overrides: Any) -> TrainConfig:
        return self._build("train", TrainConfig, overrides)

    def score_config(self, **overrides: Any) -> ScoreConfig:
        return self._build("score", ScoreConfig, overrides)

    def reward_scheme(
        self,
        properties: str | None = None,
        strategy: str | None = None,
    ) -> RewardScheme | None:
        """Scheme from overrides or config; None when neither names properties."""
        return self._build("reward", _reward_scheme, {
            "properties": None if properties is None else _coerce(properties, ()),
            "strategy": strategy or None,
        })
