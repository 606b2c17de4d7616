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
bound.

Collection builds each batch once, in the shape every PPO pass over it
reads: four flat arrays in collection order, of states, actions, old
log-probs (one gather from the batch's ``log_prob_table``) and advantages
(one ``np.repeat`` over the episode lengths).  The episode KLs of a batch
or an evaluation take one ``np.add.reduce`` per distinct episode length:
per episode, the arithmetic of ``np.mean``.  A PPO pass is a fixed set of
whole-batch array calls with no loop over states or steps, bit-identical to
``clipped_surrogate_grad`` applied step by step (see ``_ascend``).

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
from itertools import chain
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


def _episode_kls(kl: np.ndarray, completions: Sequence[SampledCompletion]) -> list[float]:
    """Each completion's mean reference KL over the rows it visited.

    Completions of one length are reduced together: one ``np.add.reduce``
    along the rows of their visited entries, and true division by the
    length.  A row's reduce is the 1-D reduce of that row, so each value is
    the one ``add.reduce`` and division that ``np.mean`` makes.
    """
    by_length: dict[int, list[int]] = {}
    for i, completion in enumerate(completions):
        by_length.setdefault(len(completion.states), []).append(i)
    kls = np.empty(len(completions))
    for length, rows in by_length.items():
        visited = kl[np.array([completions[i].states for i in rows])]
        kls[rows] = np.add.reduce(visited, axis=1) / length
    return kls.tolist()


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
    kls = _episode_kls(kl, completions)

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
        kls = _episode_kls(work.kl_table(), completions)
        totals = [kl_penalized_reward(float(reward_fn(c.tokens)), kl, cfg.beta)
                  for c, kl in zip(completions, kls)]
        states = np.fromiter(chain.from_iterable(c.states for c in completions), np.intp)
        actions = np.fromiter(chain.from_iterable(c.actions for c in completions), np.intp)
        old_log_probs = work.log_prob_table()[states, actions]
        advantages = np.repeat(np.array(totals) - baseline,
                               [len(c.actions) for c in completions])

        baseline = cfg.baseline_decay * baseline + (1 - cfg.baseline_decay) * float(
            np.mean(totals)
        )
        for _ in range(cfg.ppo_epochs):
            _ascend(work, states, actions, old_log_probs, advantages, cfg)


def _ascend(
    policy: PolicyTable,
    states: np.ndarray,
    actions: np.ndarray,
    old_log_probs: np.ndarray,
    advantages: np.ndarray,
    cfg: TrainConfig,
) -> None:
    """One gradient-ascent pass of the clipped surrogate over a batch of
    steps, given as flat arrays in collection order.

    Every float equals that of ``clipped_surrogate_grad`` applied step by
    step.  The ratios are taken with ``math.exp``, because numpy's ``exp``
    may differ in the last bit.  The clip test's strict comparisons become
    a mask, and a step is kept when it passes and its gradient ``g = ratio
    * advantage`` is non-zero.  A kept step's terms are ``g * -probs[state]``
    for each cell of its state's row, then ``g`` for its action's cell; one
    ``np.add.at`` over the flattened gradient (its fast form) adds them in
    index order.  So each cell sums its terms in collection order from
    ``+0.0``, as ``grad[state] -= g * probs[state]; grad[state, action] +=
    g`` does: ``x - y`` is ``x + (-y)`` and ``g * -p`` is ``-(g * p)``.
    ``np.add.reduceat`` does not sum in sequence, and differs in the last
    bit.  A dropped step adds nothing, as in the scalar loop (its terms
    would be zeros, which leave a sum begun at ``+0.0`` unchanged), but it
    counts in the step total that divides the update.  The update is
    applied even when no step is kept: it turns ``-0.0`` logits into
    ``+0.0``.
    """
    steps = len(states)
    if not steps:
        return
    size = policy.size
    log_probs = policy.log_prob_table()
    log_ratios = (log_probs[states, actions] - old_log_probs).tolist()
    ratios = np.fromiter(map(math.exp, log_ratios), float, steps)
    lo, hi = 1 - cfg.epsilon, 1 + cfg.epsilon
    clipped = ((advantages >= 0) & (ratios > hi)) | ((advantages < 0) & (ratios < lo))
    gains = ratios * advantages
    kept = ~clipped & (gains != 0.0)
    gains, kept_states = gains[kept], states[kept]
    # Row s: the factors of g in a step's terms from state s; the last
    # column is its action's cell.
    factors = np.empty((size, size + 1))
    factors[:, :size] = -np.exp(log_probs)
    factors[:, size] = 1.0
    first = kept_states * size
    cells = np.empty((len(gains), size + 1), dtype=np.intp)
    cells[:, :size] = first[:, None] + np.arange(size)
    cells[:, size] = first + actions[kept]
    grad = np.zeros(size * size)
    np.add.at(grad, cells.ravel(), (gains[:, None] * factors[kept_states]).ravel())
    policy.logits = policy.logits + cfg.learning_rate * grad.reshape(size, size) / steps
