"""Desk-scale RL core: training math, tabular policy, reward model, trainer."""

from .math import (
    TrajectoryStep,
    clipped_surrogate,
    clipped_surrogate_grad,
    kl_divergence,
    kl_penalized_reward,
    mse_grad,
    mse_loss,
)
from .policy import PolicyTable, SampledCompletion, sample_completion
from .reward_model import LinearRewardModel, train_reward_model
from .trainer import (
    DEFAULT_VOCAB,
    MetricsEntry,
    TrainConfig,
    bigram_policy_from_corpus,
    generate_completions,
    make_analyzer_reward,
    make_model_reward,
    render_toy_test,
    train_toy_policy,
)

__all__ = [
    "TrajectoryStep",
    "clipped_surrogate",
    "clipped_surrogate_grad",
    "kl_divergence",
    "kl_penalized_reward",
    "mse_grad",
    "mse_loss",
    "PolicyTable",
    "SampledCompletion",
    "sample_completion",
    "LinearRewardModel",
    "train_reward_model",
    "DEFAULT_VOCAB",
    "MetricsEntry",
    "TrainConfig",
    "bigram_policy_from_corpus",
    "generate_completions",
    "make_analyzer_reward",
    "make_model_reward",
    "render_toy_test",
    "train_toy_policy",
]
