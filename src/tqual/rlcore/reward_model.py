"""Linear reward model over token-count features.

The model scores a test body as ``weights . counts + bias`` where counts
are occurrences of a fixed set of feature tokens.  Features are the most
frequent significant lexer tokens of the training texts, so the model and
the analyzer read code through the same tokenizer.

Training is one least-squares solve of the rewards on the counts of every
example: there are no epochs, no learning rate and no held-out slice, so
the fit has no settings.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from ..corpus import REQUIRED, decode, encode
from ..errors import DomainError, InsufficientData
from ..lexer import scan

__all__ = ["LinearRewardModel", "train_reward_model"]

MAX_FEATURES = 512


@dataclass
class LinearRewardModel:
    feature_tokens: tuple[str, ...]
    weights: np.ndarray
    bias: float

    def __post_init__(self) -> None:
        self.feature_tokens = tuple(self.feature_tokens)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (len(self.feature_tokens),):
            raise DomainError(
                f"weight shape {self.weights.shape} does not match "
                f"{len(self.feature_tokens)} features"
            )
        for name, value in (("weights", self.weights), ("bias", self.bias)):
            if not np.all(np.isfinite(value)):
                raise DomainError(f"{name} must be finite")

    def featurize(self, text: str) -> np.ndarray:
        counts = _token_counts(text)
        return np.array([counts[t] for t in self.feature_tokens], dtype=float)

    def predict(self, text: str) -> float:
        return float(self.featurize(text) @ self.weights + self.bias)

    def to_dict(self) -> dict[str, Any]:
        return encode(self, "reward-model.v1")

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "LinearRewardModel":
        return decode(cls, payload, {
            "feature_tokens": ([str], REQUIRED),
            "weights": ([float], REQUIRED),
            "bias": (float, REQUIRED),
        }, schema="reward-model.v1")


def _token_counts(text: str) -> Counter[str]:
    """How often each significant lexer token occurs in ``text``."""
    return Counter(token for _, token, _ in scan(text)[0])


def train_reward_model(examples: Sequence[tuple[str, float]]) -> LinearRewardModel:
    """Fit a linear model to (test text, reward) pairs by least squares.
    Where the counts leave the weights free (fewer texts than features, or
    features that move together), the smallest best-fitting weights win."""
    targets = np.array([float(r) for _, r in examples])
    if not len(targets) or targets.max() == targets.min():
        raise InsufficientData("rewards are empty or constant; nothing to regress")

    # The features are the most frequent tokens, stored in sorted order.
    counts = [_token_counts(text) for text, _ in examples]
    frequency: Counter[str] = Counter()
    for text_counts in counts:
        frequency.update(text_counts)
    ranked = sorted(frequency, key=lambda t: (-frequency[t], t))
    features = tuple(sorted(ranked[:MAX_FEATURES]))
    design = np.array([[c[t] for t in features] for c in counts], dtype=float)

    # Centring the columns fits the bias exactly and leaves it out of the
    # minimum-norm choice.
    means = design.mean(axis=0)
    weights = np.linalg.lstsq(design - means, targets - targets.mean(), rcond=None)[0]
    return LinearRewardModel(features, weights, float(targets.mean() - means @ weights))
