"""The per-step clipped-surrogate rule, ``trainer.clipped_surrogate_grad``.

``trainer._ascend`` applies this rule to a whole batch at once, and its
differential test in ``test_trainer.py`` uses the rule as the bit-for-bit
reference.  Acceptance criterion 8 checks ``_ascend`` itself.
"""

from __future__ import annotations

import math

import pytest

from tqual.rlcore.trainer import clipped_surrogate_grad


def _surrogate(logprob: float, advantage: float, epsilon: float) -> float:
    """min(ratio * A, clip(ratio, 1-eps, 1+eps) * A) at ratio exp(logprob)."""
    ratio = math.exp(logprob)
    clipped = min(max(ratio, 1 - epsilon), 1 + epsilon)
    return min(ratio * advantage, clipped * advantage)


def test_surrogate_grad_zero_when_clip_saturates():
    assert clipped_surrogate_grad(1.5, 1.0, 0.2) == 0.0
    assert clipped_surrogate_grad(0.5, -1.0, 0.2) == 0.0


def test_surrogate_grad_active_branch_value():
    assert clipped_surrogate_grad(1.1, 1.0, 0.2) == pytest.approx(1.1)
    assert clipped_surrogate_grad(1.5, -2.0, 0.2) == pytest.approx(-3.0)


def test_surrogate_grad_matches_central_differences():
    h = 1e-6
    cases = [
        (0.5, 1.5), (0.9, -0.7), (1.0, 2.0), (1.1, 0.3), (1.15, -1.0),
        (1.5, -2.0), (0.6, -0.2), (2.5, 0.4), (0.3, 3.0), (1.9, -0.9),
    ]
    for ratio, advantage in cases:
        logprob = math.log(ratio)
        analytic = clipped_surrogate_grad(math.exp(logprob), advantage, 0.2)
        numeric = (_surrogate(logprob + h, advantage, 0.2)
                   - _surrogate(logprob - h, advantage, 0.2)) / (2 * h)
        assert analytic == pytest.approx(numeric, rel=1e-4, abs=1e-9), (ratio, advantage)
