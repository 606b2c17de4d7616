"""Episodic PPO over a tabular bigram policy.

One episode is one sampled completion.  The episode reward is the plugged-in
scorer's value minus beta times the divergence from the run's initial policy,
averaged over the rows the episode visited.  Advantages subtract a running
baseline, and updates ascend the clipped surrogate objective for several
passes over each collected batch.

Checkpointing follows generation quality, not the raw reward: at fixed
intervals the trainer samples a validation batch with a derived seed, scores
it with the corpus scorer, and keeps the weights from the best evaluation.

Rewards are pluggable.  ``make_analyzer_reward`` renders token sequences as
test methods and scores them with the static analyzer;
``make_model_reward`` does the same through a trained reward model.

Each piece of work is done once.  ``analyze`` is pure, so the analyzer
reward memoises reports per run in a bounded dict keyed by the rendered
text, and its reward and report functions share it: sampled texts repeat
often, and evaluation's quality pass only reads back what its reward pass
stored.  The policy is frozen while a batch is collected and while an
evaluation runs, so each visited row's reference KL (and, in a batch, its
log-probabilities) is computed once and reused by every episode in it.
For the same reason each collected batch, and each ``generate_completions``
call, shares one draw table across its completions: a nucleus is built once
per (state, token counts) key and later draws from it are lookups.  A table
holds at most ``DRAW_TABLE_SIZE`` (512) entries, so a long evaluation or
``tqual sample`` run cannot grow it without bound.

``TrainConfig`` is defined in ``tqual.config``, which must not import numpy,
and is re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from ..analyzer import QualityReport, ScoreConfig, analyze, score_corpus
from ..config import TrainConfig
from ..corpus import encode
from ..errors import DomainError
from ..rewards import RewardScheme, reward_for
from .math import TrajectoryStep, clipped_surrogate_grad, kl_penalized_reward
from .policy import DrawTable, PolicyTable, SampledCompletion, sample_completion
from .reward_model import LinearRewardModel

__all__ = [
    "TrainConfig",
    "MetricsEntry",
    "train_toy_policy",
    "generate_completions",
    "render_toy_test",
    "make_analyzer_reward",
    "make_model_reward",
    "bigram_policy_from_corpus",
    "DEFAULT_VOCAB",
]

RewardFn = Callable[[Sequence[str]], float]
ReportFn = Callable[[Sequence[str]], QualityReport]

# Most reports one analyzer reward keeps.  A 2000-episode toy run renders a
# few hundred distinct texts; past the bound the oldest report is dropped.
REPORT_CACHE_SIZE = 4096

# Offset added to the training seed for validation sampling, so evaluation
# draws never share a stream with collection.
_VAL_SEED_OFFSET = 986533

DEFAULT_VOCAB: tuple[str, ...] = (
    "</s>", "Assert", "StringAssert", "IsTrue", "IsFalse", "AreEqual",
    "Throws", "(", ")", "{", "}", ";", ".", ",", "new", "var", "if",
    "else", "try", "catch", "while", "return", "true", "false", "null",
    "0", "1", "42", "x", "y", "result", "value", "command", "service",
    "client", "Stop", "Start", "Run", "Execute", "Wait", "IsStopped",
    "Count", "expected", "actual", "==", "!=", "=", "+", "//", "Test",
)


@dataclass(frozen=True)
class MetricsEntry:
    """One evaluation snapshot; serializes to a JSONL-friendly dict."""

    epoch: int
    episode: int
    mean_reward: float
    mean_kl: float
    quality_score: float | None = None
    frequencies: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return encode(self, "metrics.v1")


# ── reward plumbing ─────────────────────────────────────────────────

def render_toy_test(tokens: Sequence[str], focal_name: str) -> str:
    """Wrap a sampled token sequence in a minimal test method shell."""
    body = " ".join(tokens)
    return f"[TestMethod]\npublic void Test{focal_name}()\n{{\n{body}\n}}"


def make_analyzer_reward(
    scheme: RewardScheme, focal_name: str
) -> tuple[RewardFn, ReportFn]:
    """Reward straight from the static analyzer, plus the matching report
    function for metrics and checkpoint scoring.

    Both read one dict of reports keyed by the rendered text, so a text is
    analyzed once while it stays among the last ``REPORT_CACHE_SIZE``
    stored.  ``report_fn.reports`` is that dict.
    """
    reports: dict[str, QualityReport] = {}
    bound = REPORT_CACHE_SIZE

    def report_fn(tokens: Sequence[str]) -> QualityReport:
        text = render_toy_test(tokens, focal_name)
        report = reports.get(text)
        if report is None:
            report = analyze(text, focal_name)
            if len(reports) >= bound:
                del reports[next(iter(reports))]
            reports[text] = report
        return report

    def reward_fn(tokens: Sequence[str]) -> float:
        return reward_for(report_fn(tokens), scheme)

    report_fn.reports = reports  # type: ignore[attr-defined]
    return reward_fn, report_fn


def make_model_reward(model: LinearRewardModel, focal_name: str) -> RewardFn:
    """Reward from a trained model instead of the analyzer."""

    def reward_fn(tokens: Sequence[str]) -> float:
        return model.predict(render_toy_test(tokens, focal_name))

    return reward_fn


def bigram_policy_from_corpus(
    token_lists: Sequence[Sequence[str]],
    vocabulary: Sequence[str],
    *,
    stop_token: str = "</s>",
    smoothing: float = 0.5,
) -> PolicyTable:
    """Log-count bigram policy fit on example token sequences.

    Stands in for a supervised-fine-tuned starting point: the policy speaks
    whatever the seed corpus speaks, smoothed so no transition is impossible.
    """
    if smoothing <= 0:
        raise DomainError("smoothing must be positive")
    policy = PolicyTable.uniform(tuple(vocabulary), stop_token=stop_token)
    counts = np.full((policy.size, policy.size), smoothing)
    stop = policy.stop_index
    for tokens in token_lists:
        indices = [policy.token_index(t) for t in tokens]
        previous = stop
        for index in indices:
            counts[previous, index] += 1.0
            previous = index
        counts[previous, stop] += 1.0
    logits = np.log(counts)
    policy.logits = logits
    policy.ref_logits = logits.copy()
    return policy


# ── sampling and evaluation ─────────────────────────────────────────

def generate_completions(
    policy: PolicyTable,
    cfg: TrainConfig,
    *,
    seed: int,
    count: int,
) -> list[SampledCompletion]:
    rng = np.random.default_rng(seed)
    tables: DrawTable = {}
    return [
        sample_completion(
            policy,
            rng,
            max_tokens=cfg.max_tokens,
            temperature=cfg.temperature,
            top_p=cfg.top_p,
            frequency_penalty=cfg.frequency_penalty,
            tables=tables,
        )
        for _ in range(count)
    ]


class _FrozenRows:
    """Per-row values of a policy that does not change while they are read:
    each visited row's reference KL and log-probabilities, computed once by
    the policy's own per-row code and reused."""

    def __init__(self, policy: PolicyTable) -> None:
        self.policy = policy
        self._kl: dict[int, float] = {}
        self._log_probs: dict[int, np.ndarray] = {}

    def episode_kl(self, states: Sequence[int]) -> float:
        kl = self._kl
        for state in states:
            if state not in kl:
                kl[state] = self.policy.kl_from_reference(state)
        return float(np.mean([kl[s] for s in states]))

    def log_prob(self, state: int, action: int) -> float:
        row = self._log_probs.get(state)
        if row is None:
            row = self._log_probs[state] = self.policy.log_probs(state)
        return float(row[action])


def _evaluate(
    policy: PolicyTable,
    cfg: TrainConfig,
    reward_fn: RewardFn,
    report_fn: ReportFn | None,
    score_config: ScoreConfig | None,
    epoch: int,
    episode: int,
) -> tuple[MetricsEntry, float]:
    """Score a fresh validation batch; returns the metrics row and the
    scalar used for checkpoint selection."""
    completions = generate_completions(
        policy, cfg, seed=cfg.seed + _VAL_SEED_OFFSET, count=cfg.eval_samples
    )
    rows = _FrozenRows(policy)
    rewards = [reward_fn(c.tokens) for c in completions]
    kls = [rows.episode_kl(c.states) for c in completions]
    mean_reward = float(np.mean(rewards))
    mean_kl = float(np.mean(kls))

    quality: float | None = None
    frequencies: dict[str, float] = {}
    if report_fn is not None:
        stats = score_corpus([report_fn(c.tokens) for c in completions], score_config)
        quality = stats.quality_score
        frequencies = stats.frequencies

    entry = MetricsEntry(
        epoch=epoch,
        episode=episode,
        mean_reward=mean_reward,
        mean_kl=mean_kl,
        quality_score=quality,
        frequencies=frequencies,
    )
    selection = quality if quality is not None else mean_reward
    return entry, selection


# ── training loop ───────────────────────────────────────────────────

@dataclass
class _Episode:
    steps: list[TrajectoryStep]
    reward: float


def train_toy_policy(
    init: PolicyTable,
    reward_fn: RewardFn,
    cfg: TrainConfig,
    report_fn: ReportFn | None = None,
    score_config: ScoreConfig | None = None,
) -> tuple[PolicyTable, list[MetricsEntry]]:
    """Run the episodic loop and return (best checkpoint, metrics).

    The incoming policy's weights become the run's KL reference, so chaining
    calls trains each stage against the previous stage's endpoint.  Without a
    report function, checkpoints fall back to mean validation reward.
    """
    work = init.copy()
    work.refreeze_reference()
    rng = np.random.default_rng(cfg.seed)

    baseline = 0.0
    episodes_done = 0
    epoch = 0
    metrics: list[MetricsEntry] = []

    entry, selection = _evaluate(
        work, cfg, reward_fn, report_fn, score_config, epoch, episodes_done
    )
    metrics.append(entry)
    best_score = selection
    best_policy = work.copy()
    next_eval = cfg.eval_interval

    while episodes_done < cfg.episodes:
        batch_size = min(cfg.batch_size, cfg.episodes - episodes_done)
        episodes: list[_Episode] = []
        rows = _FrozenRows(work)
        tables: DrawTable = {}
        for _ in range(batch_size):
            completion = sample_completion(
                work,
                rng,
                max_tokens=cfg.max_tokens,
                temperature=cfg.temperature,
                top_p=cfg.top_p,
                frequency_penalty=cfg.frequency_penalty,
                tables=tables,
            )
            raw = float(reward_fn(completion.tokens))
            kl = rows.episode_kl(completion.states)
            total = kl_penalized_reward(raw, kl, cfg.beta)
            advantage = total - baseline
            steps = [
                TrajectoryStep(
                    state=state,
                    action=action,
                    logprob_new=logprob,
                    logprob_old=logprob,
                    advantage=advantage,
                )
                for state, action in zip(completion.states, completion.actions)
                for logprob in [rows.log_prob(state, action)]
            ]
            episodes.append(_Episode(steps=steps, reward=total))
        episodes_done += batch_size

        rewards = [e.reward for e in episodes]
        baseline = cfg.baseline_decay * baseline + (1 - cfg.baseline_decay) * float(
            np.mean(rewards)
        )

        all_steps = [s for e in episodes for s in e.steps]
        for _ in range(cfg.ppo_epochs):
            _ascend(work, all_steps, cfg)

        if episodes_done >= next_eval or episodes_done >= cfg.episodes:
            epoch += 1
            entry, selection = _evaluate(
                work, cfg, reward_fn, report_fn, score_config, epoch, episodes_done
            )
            metrics.append(entry)
            if selection > best_score:
                best_score = selection
                best_policy = work.copy()
            while next_eval <= episodes_done:
                next_eval += cfg.eval_interval

    return best_policy, metrics


def _ascend(policy: PolicyTable, steps: list[TrajectoryStep], cfg: TrainConfig) -> None:
    """One gradient-ascent pass of the clipped surrogate over a batch."""
    if not steps:
        return
    grad = np.zeros_like(policy.logits)
    by_state: dict[int, list[TrajectoryStep]] = {}
    for step in steps:
        by_state.setdefault(step.state, []).append(step)

    for state, group in by_state.items():
        log_row = policy.log_probs(state)
        prob_row = np.exp(log_row)
        for step in group:
            current = TrajectoryStep(
                state=step.state,
                action=step.action,
                logprob_new=float(log_row[step.action]),
                logprob_old=step.logprob_old,
                advantage=step.advantage,
            )
            g = clipped_surrogate_grad(current, cfg.epsilon)
            if g == 0.0:
                continue
            grad[state] -= g * prob_row
            grad[state, step.action] += g

    policy.logits = policy.logits + cfg.learning_rate * grad / len(steps)
