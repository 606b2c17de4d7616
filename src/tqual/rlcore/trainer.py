"""Episodic PPO over a tabular bigram policy.

One episode is one sampled completion.  The episode reward is the plugged-in
scorer's value minus beta times the divergence from the run's initial policy,
averaged over the rows the episode visited.  Advantages subtract a running
baseline, and updates ascend the clipped surrogate objective for several
passes over each collected batch.

Checkpointing follows generation quality, not the raw reward: at each
evaluation (``train_toy_policy`` says when) the trainer samples a validation
batch with a derived seed, scores it with the corpus scorer, and keeps the
weights from the best evaluation.

Rewards are pluggable.  ``make_analyzer_reward`` renders token sequences as
test methods and scores them with the static analyzer;
``make_model_reward`` does the same through a trained reward model.

Each piece of work is done once.  ``analyze`` is pure, so the analyzer
reward memoises reports per run in a bounded dict keyed by the rendered
text, and its reward and report functions share it: sampled texts repeat
often, and evaluation's quality pass only reads back what its reward pass
stored.  The policy is frozen while a batch is collected, while an
evaluation runs and during each PPO pass, so each of these reads its
reference KL and log-probabilities from whole tables built once
(``kl_table``, ``log_prob_table``) instead of row by row.  For the same
reason ``_sample`` draws each collected batch, and each
``generate_completions`` call, with one draw table shared across its
completions: a nucleus is built once per (state, token counts) key and later
draws from it are lookups.  A table holds at most ``DRAW_TABLE_SIZE`` (512)
entries, so a long evaluation or ``tqual sample`` run cannot grow it without
bound.  Collection groups a batch's steps by state as it scores them, once
per batch, in the shape every PPO pass over the batch reads.  It reads the
log-prob rows as lists, converted once per batch, so a step costs no numpy
call, and an episode's KL is one ``np.add.reduce`` over the visited rows
divided by their count: ``np.mean``'s arithmetic without its overhead.

A PPO pass makes no call per step.  Per state it reads the log-prob row
once, takes each step's ratio with ``math.exp`` and the clip test of
``clipped_surrogate_grad`` inline, and sums the kept steps' gradient terms
with one sequential ``np.add.accumulate``, so every float of the update
equals that of calling ``clipped_surrogate_grad`` step by step.

``TrainConfig`` is defined in ``tqual.config``, which must not import numpy,
and is re-exported here.  Its range checks are the only ones the decoding
settings get: ``_sample`` hands the run's ``TrainConfig`` to
``sample_completion`` as it is.  A seeded policy (``bigram_policy_from_corpus``)
always uses ``</s>`` as its stop token and ``BIGRAM_SMOOTHING`` as its prior
count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from ..analyzer import QualityReport, ScoreConfig, analyze, score_corpus
from ..completion import prompt_hint_for
from ..config import TrainConfig
from ..corpus import encode
from ..rewards import RewardScheme, reward_for
# ``_ascend`` inlines clipped_surrogate_grad; the import stays because
# perfbench/tracing.py wraps this module's binding of it.
from .math import clipped_surrogate_grad, kl_penalized_reward
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
# A PPO batch: each state's (action, old log-prob, advantage) steps, in
# collection order.
_Batch = dict[int, list[tuple[int, float, float]]]

# Most reports one analyzer reward keeps.  A 2000-episode toy run renders a
# few hundred distinct texts; past the bound the oldest report is dropped.
REPORT_CACHE_SIZE = 4096

# Count added to every bigram transition of a seeded policy.
BIGRAM_SMOOTHING = 0.5

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
    return f"{prompt_hint_for(focal_name)}()\n{{\n{body}\n}}"


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
    token_lists: Sequence[Sequence[str]], vocabulary: Sequence[str]
) -> PolicyTable:
    """Log-count bigram policy fit on example token sequences.

    Stands in for a supervised-fine-tuned starting point: the policy speaks
    whatever the seed corpus speaks, with ``BIGRAM_SMOOTHING`` added to every
    count so no transition is impossible.  ``</s>`` starts and ends each
    sequence.
    """
    policy = PolicyTable.uniform(tuple(vocabulary))
    counts = np.full((policy.size, policy.size), BIGRAM_SMOOTHING)
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

def _sample(
    policy: PolicyTable, cfg: TrainConfig, rng: np.random.Generator, count: int
) -> list[SampledCompletion]:
    """``count`` completions drawn from ``rng`` with one shared draw table."""
    tables: DrawTable = {}
    return [sample_completion(policy, rng, cfg, tables=tables) for _ in range(count)]


def generate_completions(
    policy: PolicyTable,
    cfg: TrainConfig,
    *,
    seed: int,
    count: int,
) -> list[SampledCompletion]:
    return _sample(policy, cfg, np.random.default_rng(seed), count)


def _episode_kl(kl: np.ndarray, completion: SampledCompletion) -> float:
    """Mean reference KL over the rows a completion visited: the one
    ``add.reduce`` and true division by the count that ``np.mean`` makes."""
    states = completion.states
    return float(np.add.reduce(kl[list(states)])) / len(states)


def _evaluate(
    policy: PolicyTable,
    cfg: TrainConfig,
    reward_fn: RewardFn,
    report_fn: ReportFn | None,
    score_config: ScoreConfig | None,
    epoch: int,
    episode: int,
) -> MetricsEntry:
    """Score a fresh validation batch as one metrics row."""
    completions = generate_completions(
        policy, cfg, seed=cfg.seed + _VAL_SEED_OFFSET, count=cfg.eval_samples
    )
    kl = policy.kl_table()
    rewards = [reward_fn(c.tokens) for c in completions]
    kls = [_episode_kl(kl, c) for c in completions]

    quality, frequencies = None, {}
    if report_fn is not None:
        stats = score_corpus([report_fn(c.tokens) for c in completions], score_config)
        quality, frequencies = stats.quality_score, stats.frequencies

    return MetricsEntry(
        epoch=epoch,
        episode=episode,
        mean_reward=float(np.mean(rewards)),
        mean_kl=float(np.mean(kls)),
        quality_score=quality,
        frequencies=frequencies,
    )


# ── training loop ───────────────────────────────────────────────────

def train_toy_policy(
    init: PolicyTable,
    reward_fn: RewardFn,
    cfg: TrainConfig,
    report_fn: ReportFn | None = None,
    score_config: ScoreConfig | None = None,
) -> tuple[PolicyTable, list[MetricsEntry]]:
    """Run the episodic loop and return (best checkpoint, metrics).

    The run is evaluated before the first batch, after each batch that
    reaches a new multiple of ``eval_interval``, and after the last batch.
    The incoming policy's weights become the run's KL reference, so chaining
    calls trains each stage against the previous stage's endpoint.  Without a
    report function, checkpoints fall back to mean validation reward.
    """
    work = init.copy()
    work.refreeze_reference()
    rng = np.random.default_rng(cfg.seed)

    baseline = 0.0
    start = done = 0
    metrics: list[MetricsEntry] = []
    best_policy, best_score = work, 0.0

    while True:
        # Evaluate and checkpoint; the first evaluation is always kept, and
        # a later one only when it scores strictly higher.
        if (done == 0 or done >= cfg.episodes
                or done // cfg.eval_interval > start // cfg.eval_interval):
            entry = _evaluate(
                work, cfg, reward_fn, report_fn, score_config, len(metrics), done
            )
            metrics.append(entry)
            score = entry.mean_reward if report_fn is None else entry.quality_score
            if len(metrics) == 1 or score > best_score:
                best_policy, best_score = work.copy(), score
        if done >= cfg.episodes:
            return best_policy, metrics

        start, done = done, min(done + cfg.batch_size, cfg.episodes)
        completions = _sample(work, cfg, rng, done - start)
        log_probs = work.log_prob_table().tolist()
        kl = work.kl_table()
        batch: _Batch = {}
        totals: list[float] = []
        steps = 0
        for completion in completions:
            raw = float(reward_fn(completion.tokens))
            total = kl_penalized_reward(raw, _episode_kl(kl, completion), cfg.beta)
            totals.append(total)
            advantage = total - baseline
            for state, action in zip(completion.states, completion.actions):
                batch.setdefault(state, []).append(
                    (action, log_probs[state][action], advantage)
                )
            steps += len(completion.actions)

        baseline = cfg.baseline_decay * baseline + (1 - cfg.baseline_decay) * float(
            np.mean(totals)
        )
        for _ in range(cfg.ppo_epochs):
            _ascend(work, batch, steps, cfg)


def _ascend(policy: PolicyTable, batch: _Batch, steps: int, cfg: TrainConfig) -> None:
    """One gradient-ascent pass of the clipped surrogate over a batch of
    ``steps`` steps grouped by state.

    Each state's row is one array computation.  A step's ratio and clip
    test are those of ``clipped_surrogate_grad``, taken with ``math.exp``
    (numpy's ``exp`` may differ in the last bit) on the row's Python
    floats, and a step whose gradient ``g`` is zero is dropped.  The kept
    steps become a matrix of terms, per step ``-g * probs[state]`` and then
    ``g`` at its action and ``0.0`` elsewhere.  ``np.add.accumulate`` sums
    the rows in order, so its last row is, float for float, what
    ``grad[state] -= g * probs[state]; grad[state, action] += g`` gives
    step by step from a zeroed row: ``x - y`` is ``x + (-y)``, and adding
    ``0.0`` changes only a ``-0.0``.  A first term can leave ``-0.0`` where
    ``0.0 - 0.0`` gives ``+0.0``, but the step's second row adds ``0.0`` or
    ``g`` there, and from then on no sum is ``-0.0``.
    """
    if not steps:
        return
    grad = np.zeros_like(policy.logits)
    log_probs = policy.log_prob_table()
    probs = np.exp(log_probs)
    lo, hi = 1 - cfg.epsilon, 1 + cfg.epsilon
    for state, group in batch.items():
        row = log_probs[state].tolist()
        actions: list[int] = []
        gains: list[float] = []
        for action, logprob_old, advantage in group:
            ratio = math.exp(row[action] - logprob_old)
            if advantage >= 0 and ratio > hi or advantage < 0 and ratio < lo:
                continue
            g = ratio * advantage
            if g != 0.0:
                actions.append(action)
                gains.append(g)
        if not gains:
            continue
        k = len(gains)
        terms = np.zeros((2 * k, policy.size))
        terms[0::2] = -(np.array(gains)[:, None] * probs[state])
        terms[np.arange(1, 2 * k, 2), actions] = gains
        grad[state] = np.add.accumulate(terms)[-1]

    policy.logits = policy.logits + cfg.learning_rate * grad / steps
