"""Training math tests: losses, the KL penalty, and the clipped surrogate."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqual.errors import DomainError, LengthMismatch
from tqual.rlcore.math import (
    TrajectoryStep,
    clipped_surrogate,
    clipped_surrogate_grad,
    kl_divergence,
    kl_penalized_reward,
    mse_grad,
    mse_loss,
)


def step(ratio: float, advantage: float) -> TrajectoryStep:
    return TrajectoryStep(
        state=0, action=1, logprob_new=math.log(ratio), logprob_old=0.0,
        advantage=advantage,
    )


# ── mean squared error ───────────────────────────────────────────────


def test_mse_zero_at_perfect_fit():
    assert mse_loss([1.0, 2.0], [1.0, 2.0]) == 0.0


def test_mse_hand_computed():
    assert mse_loss([1.0, 2.0], [0.0, 0.0]) == pytest.approx(2.5)


def test_mse_grad_hand_computed():
    assert mse_grad([1.0], [0.0]) == [2.0]
    assert mse_grad([1.0, 3.0], [0.0, 1.0]) == [1.0, 2.0]


def test_mse_grad_matches_central_differences():
    predictions = [0.3, -1.2, 2.0, 0.0]
    targets = [0.1, 0.4, 2.0, -1.0]
    grad = mse_grad(predictions, targets)
    h = 1e-6
    for i in range(len(predictions)):
        bumped_up = list(predictions)
        bumped_down = list(predictions)
        bumped_up[i] += h
        bumped_down[i] -= h
        numeric = (mse_loss(bumped_up, targets) - mse_loss(bumped_down, targets)) / (2 * h)
        assert grad[i] == pytest.approx(numeric, rel=1e-6, abs=1e-9)


def test_mse_rejects_mismatched_or_empty_inputs():
    with pytest.raises(LengthMismatch):
        mse_loss([1.0], [1.0, 2.0])
    with pytest.raises(LengthMismatch):
        mse_loss([], [])
    with pytest.raises(LengthMismatch):
        mse_grad([1.0, 2.0], [1.0])


# ── KL-penalized reward ──────────────────────────────────────────────


def test_kl_penalty_vanishes_at_zero_divergence():
    assert kl_penalized_reward(1.0, 0.0, 100.0) == 1.0


def test_kl_penalty_hand_computed():
    assert kl_penalized_reward(1.0, 0.5, 0.2) == pytest.approx(0.9)
    assert kl_penalized_reward(-1.0, 2.0, 0.5) == pytest.approx(-2.0)


def test_kl_penalty_domain_checks():
    with pytest.raises(DomainError):
        kl_penalized_reward(1.0, 0.5, -0.1)
    with pytest.raises(DomainError):
        kl_penalized_reward(1.0, -0.5, 0.1)


# ── clipped surrogate ────────────────────────────────────────────────


def test_surrogate_equals_plain_product_at_ratio_one():
    assert clipped_surrogate(step(1.0, 2.0), 0.2) == pytest.approx(2.0)


def test_surrogate_clips_large_ratio_with_positive_advantage():
    assert clipped_surrogate(step(2.0, 1.0), 0.2) == pytest.approx(1.2)


def test_surrogate_is_pessimistic_for_negative_advantage():
    # min picks the unclipped branch: 0.5 * -1 < 0.8 * -1.
    assert clipped_surrogate(step(0.5, -1.0), 0.2) == pytest.approx(-0.8)


def test_surrogate_identity_inside_the_trust_region():
    for ratio in (0.81, 0.9, 1.0, 1.1, 1.19):
        for advantage in (-2.0, 0.5, 3.0):
            got = clipped_surrogate(step(ratio, advantage), 0.2)
            assert got == pytest.approx(ratio * advantage)


@given(
    st.floats(min_value=0.05, max_value=20.0),
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=0.05, max_value=0.95),
)
@settings(max_examples=300, deadline=None)
def test_surrogate_never_exceeds_either_branch(ratio, advantage, epsilon):
    value = clipped_surrogate(step(ratio, advantage), epsilon)
    clipped_ratio = min(max(ratio, 1 - epsilon), 1 + epsilon)
    assert value <= ratio * advantage + 1e-12
    assert value <= clipped_ratio * advantage + 1e-12


def test_surrogate_epsilon_domain():
    with pytest.raises(DomainError):
        clipped_surrogate(step(1.0, 1.0), 0.0)
    with pytest.raises(DomainError):
        clipped_surrogate(step(1.0, 1.0), 1.0)


@pytest.mark.parametrize("epsilon", [0.0, 1.0, -0.1, 1.5])
def test_surrogate_grad_epsilon_domain(epsilon):
    with pytest.raises(DomainError, match=r"epsilon must lie in \(0, 1\)"):
        clipped_surrogate_grad(step(1.0, 1.0), epsilon)


def test_surrogate_grad_zero_when_clip_saturates():
    assert clipped_surrogate_grad(step(1.5, 1.0), 0.2) == 0.0
    assert clipped_surrogate_grad(step(0.5, -1.0), 0.2) == 0.0


def test_surrogate_grad_active_branch_value():
    assert clipped_surrogate_grad(step(1.1, 1.0), 0.2) == pytest.approx(1.1)
    assert clipped_surrogate_grad(step(1.5, -2.0), 0.2) == pytest.approx(-3.0)


def test_surrogate_grad_matches_central_differences():
    h = 1e-6
    cases = [
        (0.5, 1.5), (0.9, -0.7), (1.0, 2.0), (1.1, 0.3), (1.15, -1.0),
        (1.5, -2.0), (0.6, -0.2), (2.5, 0.4), (0.3, 3.0), (1.9, -0.9),
    ]
    for ratio, advantage in cases:
        base = step(ratio, advantage)
        analytic = clipped_surrogate_grad(base, 0.2)
        up = TrajectoryStep(0, 1, base.logprob_new + h, 0.0, advantage)
        down = TrajectoryStep(0, 1, base.logprob_new - h, 0.0, advantage)
        numeric = (clipped_surrogate(up, 0.2) - clipped_surrogate(down, 0.2)) / (2 * h)
        assert analytic == pytest.approx(numeric, rel=1e-4, abs=1e-9), (ratio, advantage)


def test_trajectory_step_ratio():
    s = TrajectoryStep(0, 1, logprob_new=-1.0, logprob_old=-2.0, advantage=0.0)
    assert s.ratio == pytest.approx(math.e)


# ── KL divergence ────────────────────────────────────────────────────


def test_kl_zero_between_identical_rows():
    assert kl_divergence([0.3, 0.7], [0.3, 0.7]) == 0.0


def test_kl_hand_computed():
    assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2))
    expected = 0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1)
    assert kl_divergence([0.5, 0.5], [0.9, 0.1]) == pytest.approx(expected)
    assert expected == pytest.approx(0.5108, abs=1e-4)


def test_kl_zero_mass_conventions():
    # 0 * ln 0 contributes nothing on the p side.
    assert kl_divergence([0.0, 1.0], [0.5, 0.5]) == pytest.approx(math.log(2))
    with pytest.raises(DomainError):
        kl_divergence([0.5, 0.5], [1.0, 0.0])


def test_kl_rejects_bad_inputs():
    with pytest.raises(LengthMismatch):
        kl_divergence([1.0], [0.5, 0.5])
    with pytest.raises(DomainError):
        kl_divergence([-0.5, 1.5], [0.5, 0.5])


@given(
    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=8),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=300, deadline=None)
def test_kl_nonnegative_on_random_pairs(raw_p, salt):
    import random

    rng = random.Random(salt)
    raw_q = [rng.uniform(0.01, 1.0) for _ in raw_p]
    p = [x / sum(raw_p) for x in raw_p]
    q = [x / sum(raw_q) for x in raw_q]
    assert kl_divergence(p, q) >= -1e-12
