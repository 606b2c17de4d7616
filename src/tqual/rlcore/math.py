"""Scalar training math for the desk-scale RL core.

The trainer runs one function of this module, ``kl_penalized_reward``, once
per episode.  The rest are scalar references, small enough to verify by hand
or against finite differences: acceptance criterion 8 checks them, and the
PPO pass's differential test checks the trainer's array pass against
``clipped_surrogate_grad`` applied step by step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..errors import DomainError, LengthMismatch

__all__ = [
    "TrajectoryStep",
    "mse_loss",
    "mse_grad",
    "kl_penalized_reward",
    "clipped_surrogate",
    "clipped_surrogate_grad",
    "kl_divergence",
]


@dataclass(frozen=True)
class TrajectoryStep:
    """One sampled token: vocabulary indices plus the log-probabilities of
    the action under the updated and the data-collection policy."""

    state: int
    action: int
    logprob_new: float
    logprob_old: float
    advantage: float

    @property
    def ratio(self) -> float:
        return math.exp(self.logprob_new - self.logprob_old)


def mse_loss(predictions: Sequence[float], targets: Sequence[float]) -> float:
    if len(predictions) != len(targets) or not predictions:
        raise LengthMismatch(
            f"need equal non-empty sequences, got {len(predictions)} and {len(targets)}"
        )
    n = len(predictions)
    return sum((p - t) ** 2 for p, t in zip(predictions, targets)) / n


def mse_grad(predictions: Sequence[float], targets: Sequence[float]) -> list[float]:
    """d(mse)/d(prediction_i) = 2 (p_i - t_i) / n."""
    if len(predictions) != len(targets) or not predictions:
        raise LengthMismatch(
            f"need equal non-empty sequences, got {len(predictions)} and {len(targets)}"
        )
    n = len(predictions)
    return [2.0 * (p - t) / n for p, t in zip(predictions, targets)]


def kl_penalized_reward(model_reward: float, kl: float, beta: float) -> float:
    """Final episode reward: model reward minus beta times the divergence
    from the pre-training policy."""
    if beta < 0:
        raise DomainError(f"beta must be non-negative, got {beta}")
    if kl < 0:
        raise DomainError(f"KL divergence cannot be negative, got {kl}")
    return model_reward - beta * kl


def _clip(x: float, lo: float, hi: float) -> float:
    return lo if x < lo else hi if x > hi else x


def clipped_surrogate(step: TrajectoryStep, epsilon: float) -> float:
    """min(ratio * A, clip(ratio, 1-eps, 1+eps) * A) for one step."""
    if not (0 < epsilon < 1):
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon}")
    r = step.ratio
    return min(r * step.advantage, _clip(r, 1 - epsilon, 1 + epsilon) * step.advantage)


def clipped_surrogate_grad(step: TrajectoryStep, epsilon: float) -> float:
    """d(surrogate)/d(logprob_new).

    Zero when the clip saturates: for positive advantage that is
    ratio > 1+eps, for negative advantage ratio < 1-eps.  Otherwise the
    unclipped branch is active and the derivative is ratio * advantage.
    """
    if not (0 < epsilon < 1):
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon}")
    r = step.ratio
    a = step.advantage
    if a >= 0 and r > 1 + epsilon:
        return 0.0
    if a < 0 and r < 1 - epsilon:
        return 0.0
    return r * a


def kl_divergence(p_row: Sequence[float], q_row: Sequence[float]) -> float:
    """KL(p || q) over one distribution row, with 0 * ln 0 = 0."""
    if len(p_row) != len(q_row):
        raise LengthMismatch(
            f"rows differ in length: {len(p_row)} vs {len(q_row)}"
        )
    total = 0.0
    for p, q in zip(p_row, q_row):
        if p < 0 or q < 0:
            raise DomainError("probabilities cannot be negative")
        if p == 0:
            continue
        if q == 0:
            raise DomainError("KL undefined: q is zero where p is positive")
        total += p * math.log(p / q)
    return total
