"""Desk-scale RL core: tabular policy, reward model and PPO trainer.

The training math lives where it runs: the KL to the reference in
``policy.kl_table``, the clipped-surrogate step in ``trainer._ascend`` (with
the per-step rule ``trainer.clipped_surrogate_grad``) and the least-squares
fit in ``reward_model.train_reward_model``.  Acceptance criterion 8 checks
all three.
"""

from .policy import PolicyTable, SampledCompletion, sample_completion
from .reward_model import LinearRewardModel, train_reward_model
from .trainer import (
    DEFAULT_VOCAB,
    MetricsEntry,
    TrainConfig,
    bigram_policy_from_corpus,
    clipped_surrogate_grad,
    generate_completions,
    make_analyzer_reward,
    make_model_reward,
    render_toy_test,
    train_toy_policy,
)

__all__ = [
    "PolicyTable",
    "SampledCompletion",
    "sample_completion",
    "LinearRewardModel",
    "train_reward_model",
    "DEFAULT_VOCAB",
    "MetricsEntry",
    "TrainConfig",
    "bigram_policy_from_corpus",
    "clipped_surrogate_grad",
    "generate_completions",
    "make_analyzer_reward",
    "make_model_reward",
    "render_toy_test",
    "train_toy_policy",
]
