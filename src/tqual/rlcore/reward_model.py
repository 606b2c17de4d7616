"""Linear reward model over token-count features.

The model scores a test body as ``weights . counts + bias`` where counts
are occurrences of a fixed set of feature tokens.  Features are the most
frequent significant lexer tokens of the training texts, so the model and
the analyzer read code through the same tokenizer.

Training is full-batch gradient descent on mean squared error against the
assigned rewards, with a held-out slice for early stopping.  Descent runs
in standardized feature space for conditioning; the learned weights are
folded back to raw counts, so prediction stays a plain dot product.
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

DEFAULT_MAX_FEATURES = 512


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

    @classmethod
    def zeros(cls, feature_tokens: Sequence[str]) -> "LinearRewardModel":
        return cls(
            feature_tokens=tuple(feature_tokens),
            weights=np.zeros(len(feature_tokens)),
            bias=0.0,
        )

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


def train_reward_model(
    examples: Sequence[tuple[str, float]],
    *,
    max_features: int = DEFAULT_MAX_FEATURES,
    epochs: int = 500,
    learning_rate: float = 0.1,
    val_fraction: float = 0.1,
    patience: int = 25,
    seed: int = 0,
) -> tuple[LinearRewardModel, list[dict[str, float]]]:
    """Fit a linear model to (test text, reward) pairs.

    Returns the model holding the weights from the best validation epoch
    and a per-epoch history of train and validation MSE.
    """
    if epochs < 0 or max_features < 1 or learning_rate <= 0 or patience < 1:
        raise DomainError("invalid training hyperparameters")
    if not (0 < val_fraction < 1):
        raise DomainError(f"val_fraction must lie in (0, 1), got {val_fraction}")
    n_val = max(1, round(val_fraction * len(examples)))
    if len(examples) <= n_val:  # the training slice needs an example too
        raise InsufficientData(f"need at least {n_val + 1} examples to hold {n_val} out "
                               f"for validation, got {len(examples)}")
    targets_all = [float(r) for _, r in examples]
    if max(targets_all) == min(targets_all):
        raise InsufficientData("rewards are constant; nothing to regress")

    # The features are the most frequent tokens, stored in sorted order.
    counts = [_token_counts(text) for text, _ in examples]
    frequency: Counter[str] = Counter()
    for text_counts in counts:
        frequency.update(text_counts)
    ranked = sorted(frequency, key=lambda t: (-frequency[t], t))
    features = tuple(sorted(ranked[:max_features]))
    model = LinearRewardModel.zeros(features)
    if epochs == 0:
        return model, []

    design = np.array([[c[t] for t in features] for c in counts], dtype=float)
    targets = np.array(targets_all)

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(examples))
    val_idx, train_idx = order[:n_val], order[n_val:]

    means = design[train_idx].mean(axis=0)
    scales = design[train_idx].std(axis=0)
    scales[scales == 0] = 1.0
    scaled = (design - means) / scales

    x_train, y_train = scaled[train_idx], targets[train_idx]
    x_val, y_val = scaled[val_idx], targets[val_idx]

    weights = np.zeros(len(features))
    bias = 0.0
    best = (np.inf, weights.copy(), bias)
    stale = 0
    history: list[dict[str, float]] = []

    for epoch in range(epochs):
        preds = x_train @ weights + bias
        grad_pred = 2.0 * (preds - y_train) / len(y_train)
        weights -= learning_rate * (x_train.T @ grad_pred)
        bias -= learning_rate * float(grad_pred.sum())

        train_mse = float(np.mean((x_train @ weights + bias - y_train) ** 2))
        val_mse = float(np.mean((x_val @ weights + bias - y_val) ** 2))
        history.append({"epoch": epoch, "train_mse": train_mse, "val_mse": val_mse})

        if val_mse < best[0] - 1e-12:
            best = (val_mse, weights.copy(), bias)
            stale = 0
        else:
            stale += 1
            if stale >= patience:
                break

    _, weights, bias = best
    # Fold the standardization into raw-count space.
    model.weights = weights / scales
    model.bias = bias - float((weights * means / scales).sum())
    return model, history
