"""Trainer tests: config, reward plumbing, and the episodic PPO loop."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toy_setup import (
    SEED_CORPUS_ASSERT,
    TOY_FOCAL,
    assert_seeded_policy,
    toy_config,
)
from tqual.analyzer import PROPERTY_FIELDS
from tqual.errors import DomainError
from tqual.rewards import RewardScheme
from tqual.rlcore import policy as policy_module
from tqual.rlcore import trainer
from tqual.rlcore.math import TrajectoryStep, clipped_surrogate_grad
from tqual.rlcore.policy import PolicyTable, SampledCompletion
from tqual.rlcore.reward_model import LinearRewardModel
from tqual.rlcore.trainer import (
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


# ── configuration ────────────────────────────────────────────────────


def test_default_config_values():
    cfg = TrainConfig()
    assert cfg.max_tokens == 512
    assert cfg.temperature == 0.7
    assert cfg.top_p == 1.0
    assert cfg.frequency_penalty == 0.5
    assert cfg.epsilon == 0.2
    assert cfg.seed == 0


def test_config_validation():
    with pytest.raises(DomainError):
        TrainConfig(beta=-0.1)
    with pytest.raises(DomainError):
        TrainConfig(epsilon=1.0)
    with pytest.raises(DomainError):
        TrainConfig(temperature=0.0)
    with pytest.raises(DomainError):
        TrainConfig(top_p=0.0)
    with pytest.raises(DomainError):
        TrainConfig(top_p=1.5)
    with pytest.raises(DomainError):
        TrainConfig(episodes=0)
    with pytest.raises(DomainError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(DomainError):
        TrainConfig(baseline_decay=1.0)


@pytest.mark.parametrize(
    "name", ["beta", "learning_rate", "temperature", "frequency_penalty"]
)
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_config_rejects_non_finite_values(name, value):
    # ``nan < 0`` is False, so a sign check alone lets NaN through.
    with pytest.raises(DomainError, match=f"{name} must be finite"):
        TrainConfig(**{name: value})


def test_config_rejects_a_negative_seed_by_name():
    # numpy's generator would refuse it later with a message naming nothing.
    with pytest.raises(DomainError, match="seed must be non-negative, got -1"):
        TrainConfig(seed=-1)


def test_default_vocab_is_valid_and_small():
    policy = PolicyTable.uniform(DEFAULT_VOCAB)
    assert policy.size <= 200
    assert policy.stop_token in DEFAULT_VOCAB


# ── reward plumbing ──────────────────────────────────────────────────


def test_render_toy_test_shape():
    text = render_toy_test(["Assert", "(", ")", ";"], "Stop")
    assert text == "[TestMethod]\npublic void TestStop()\n{\nAssert ( ) ;\n}"


def test_analyzer_reward_values():
    reward_fn, report_fn = make_analyzer_reward(
        RewardScheme.individual("has_assertion"), TOY_FOCAL
    )
    assert reward_fn(["Assert", "(", ")", ";"]) == 1
    assert reward_fn([]) == 0  # valid empty test, no assertion
    assert reward_fn(["("]) == -1  # unbalanced body breaks the method
    assert report_fn(["Assert", "(", ")", ";"]).has_assertion


def test_model_reward_uses_prediction():
    model = LinearRewardModel(
        feature_tokens=("Assert",), weights=np.array([2.0]), bias=0.5
    )
    reward_fn = make_model_reward(model, TOY_FOCAL)
    assert reward_fn(["Assert", "(", ")", ";"]) == pytest.approx(2.5)
    assert reward_fn(["x", ";"]) == pytest.approx(0.5)


# ── bigram seeding ───────────────────────────────────────────────────


def test_bigram_counts_shape_the_logits():
    policy = bigram_policy_from_corpus([["x", ";"]], ("</s>", "x", ";"))
    stop, x, semi = 0, 1, 2
    assert policy.logits[stop, x] == pytest.approx(np.log(1.5))
    assert policy.logits[x, semi] == pytest.approx(np.log(1.5))
    assert policy.logits[semi, stop] == pytest.approx(np.log(1.5))
    # Unseen transitions keep the smoothing mass.
    assert policy.logits[x, x] == pytest.approx(np.log(0.5))
    assert np.array_equal(policy.logits, policy.ref_logits)


def test_bigram_rejects_bad_inputs():
    with pytest.raises(DomainError):
        bigram_policy_from_corpus([["unknown"]], ("</s>", "x"))


def test_seeded_policy_emits_corpus_shaped_text():
    policy = assert_seeded_policy()
    cfg = toy_config()
    completions = generate_completions(policy, cfg, seed=3, count=50)
    texts = {" ".join(c.tokens) for c in completions}
    assert any("Assert" in t for t in texts)
    assert any(TOY_FOCAL in t for t in texts)


def test_generate_completions_deterministic():
    policy = assert_seeded_policy()
    cfg = toy_config()
    a = generate_completions(policy, cfg, seed=9, count=5)
    b = generate_completions(policy, cfg, seed=9, count=5)
    assert [c.tokens for c in a] == [c.tokens for c in b]
    assert len(a) == 5


# ── training loop ────────────────────────────────────────────────────


def test_zero_reward_leaves_logits_unchanged():
    """With no signal the surrogate gradient cancels exactly."""
    init = assert_seeded_policy()
    before = init.logits.copy()
    cfg = toy_config(episodes=100, eval_interval=50, eval_samples=10)
    trained, _ = train_toy_policy(init, lambda tokens: 0.0, cfg)
    assert float(np.max(np.abs(trained.logits - before))) == 0.0


def test_short_run_improves_mean_reward():
    init = assert_seeded_policy()
    cfg = toy_config(episodes=400, eval_interval=200)
    reward_fn, report_fn = make_analyzer_reward(
        RewardScheme.individual("has_assertion"), TOY_FOCAL
    )
    _, metrics = train_toy_policy(init, reward_fn, cfg, report_fn)
    assert metrics[-1].mean_reward > metrics[0].mean_reward


def test_metrics_schedule_and_schema():
    init = assert_seeded_policy()
    cfg = toy_config(episodes=500, eval_interval=200, eval_samples=20)
    reward_fn, report_fn = make_analyzer_reward(
        RewardScheme.individual("has_assertion"), TOY_FOCAL
    )
    _, metrics = train_toy_policy(init, reward_fn, cfg, report_fn)
    episodes = [m.episode for m in metrics]
    assert episodes == [0, 200, 400, 500]
    assert [m.epoch for m in metrics] == [0, 1, 2, 3]
    for entry in metrics:
        assert set(entry.frequencies) == set(PROPERTY_FIELDS)
        assert entry.quality_score is not None
        data = entry.to_dict()
        assert data["schema"] == "metrics.v1"
        assert data["mean_kl"] >= 0


@pytest.mark.parametrize("overrides, episodes", [
    (dict(eval_interval=30), [0, 50, 75, 100, 110]),
    (dict(batch_size=40, eval_interval=60), [0, 80, 110]),
], ids=["25-by-30", "40-by-60"])
def test_a_batch_that_reaches_a_new_interval_multiple_is_evaluated(overrides, episodes):
    # Batches that do not line up with the interval: the run is evaluated
    # before the first batch, after each batch that reaches a new multiple
    # of eval_interval, and after the last batch.
    cfg = toy_config(episodes=110, eval_samples=10, **overrides)
    _, metrics = train_toy_policy(assert_seeded_policy(), lambda tokens: 0.0, cfg)
    assert [m.episode for m in metrics] == episodes
    assert [m.epoch for m in metrics] == list(range(len(episodes)))


@pytest.mark.parametrize("scoring", ["quality", "mean-reward", "tied"])
def test_the_checkpoint_is_the_first_best_scored_evaluation(monkeypatch, scoring):
    # The score is the row's quality_score, or its mean_reward without a
    # report function; a later evaluation replaces the checkpoint only when
    # it scores strictly higher, so a constant reward keeps the first.
    weights: list[np.ndarray] = []
    real_evaluate = trainer._evaluate

    def recording_evaluate(policy, *args):
        weights.append(policy.logits.copy())
        return real_evaluate(policy, *args)

    monkeypatch.setattr(trainer, "_evaluate", recording_evaluate)
    reward_fn, report_fn = make_analyzer_reward(
        RewardScheme.individual("has_assertion"), TOY_FOCAL
    )
    if scoring != "quality":
        report_fn = None
    if scoring == "tied":
        reward_fn = lambda tokens: 1.0  # noqa: E731
    cfg = toy_config(episodes=110, eval_interval=30, eval_samples=10)
    best, metrics = train_toy_policy(assert_seeded_policy(), reward_fn, cfg, report_fn)
    scores = [m.mean_reward if report_fn is None else m.quality_score for m in metrics]
    assert len(weights) == len(metrics) == 5
    assert not np.array_equal(weights[0], weights[-1])
    assert np.array_equal(best.logits, weights[scores.index(max(scores))])


def test_metrics_without_report_fn_lack_quality():
    init = assert_seeded_policy()
    cfg = toy_config(episodes=50, eval_interval=50, eval_samples=10)
    _, metrics = train_toy_policy(init, lambda tokens: 1.0, cfg)
    assert all(m.quality_score is None for m in metrics)
    assert all(m.frequencies == {} for m in metrics)


def test_incoming_weights_become_the_kl_reference():
    init = assert_seeded_policy()
    # Give the incoming policy a stale reference; the trainer must anchor
    # on the weights it receives, making initial KL zero.
    init.ref_logits = init.ref_logits + 3.0
    cfg = toy_config(episodes=25, eval_interval=25, eval_samples=10)
    _, metrics = train_toy_policy(init, lambda tokens: 0.0, cfg)
    assert metrics[0].mean_kl == pytest.approx(0.0)


def test_high_beta_keeps_policy_closer_than_zero_beta():
    init = assert_seeded_policy()
    reward_fn, _ = make_analyzer_reward(
        RewardScheme.individual("has_assertion"), TOY_FOCAL
    )
    free_cfg = toy_config(episodes=1000, beta=0.0)
    tied_cfg = toy_config(episodes=1000, beta=100.0)
    _, free_metrics = train_toy_policy(init, reward_fn, free_cfg)
    _, tied_metrics = train_toy_policy(init, reward_fn, tied_cfg)
    assert tied_metrics[-1].mean_kl < free_metrics[-1].mean_kl


def test_training_does_not_mutate_the_input_policy():
    init = assert_seeded_policy()
    before = init.logits.copy()
    cfg = toy_config(episodes=50, eval_interval=50, eval_samples=10)
    reward_fn, _ = make_analyzer_reward(
        RewardScheme.individual("has_assertion"), TOY_FOCAL
    )
    train_toy_policy(init, reward_fn, cfg)
    assert np.array_equal(init.logits, before)


def test_metrics_entry_serialization():
    entry = MetricsEntry(
        epoch=1, episode=200, mean_reward=0.5, mean_kl=0.01,
        quality_score=0.4, frequencies={"has_assertion": 0.5},
    )
    data = entry.to_dict()
    assert data == {
        "schema": "metrics.v1",
        "epoch": 1,
        "episode": 200,
        "mean_reward": 0.5,
        "mean_kl": 0.01,
        "quality_score": 0.4,
        "frequencies": {"has_assertion": 0.5},
    }


def test_overflowing_logits_stop_the_run():
    init = assert_seeded_policy()
    reward_fn, report_fn = make_analyzer_reward(
        RewardScheme.individual("has_assertion"), TOY_FOCAL
    )
    cfg = toy_config(episodes=100, eval_interval=50, eval_samples=10,
                     learning_rate=1e308)
    with np.errstate(all="ignore"), pytest.raises(DomainError, match="not finite"):
        train_toy_policy(init, reward_fn, cfg, report_fn)


@pytest.mark.parametrize("learning_rate", [1e-9, 1e-12, 1e-14])
def test_tiny_steps_do_not_round_the_kl_below_zero(learning_rate):
    # The updated rows differ from the reference by a few ulps, where the
    # KL sum can round to a tiny negative value that the penalty rejects.
    reward_fn, report_fn = make_analyzer_reward(
        RewardScheme.individual("has_assertion"), TOY_FOCAL
    )
    cfg = toy_config(episodes=100, eval_interval=50, eval_samples=10,
                     learning_rate=learning_rate)
    _, metrics = train_toy_policy(assert_seeded_policy(), reward_fn, cfg, report_fn)
    assert metrics[-1].episode == 100
    assert all(m.mean_kl >= 0.0 for m in metrics)


def _kl_rows(source: np.random.Generator):
    """Seeded KL rows 12 wide, at scales from 1e-8 to 1e2: spread rows, rows
    with zeros, rows with values below 1e-300, and rows of subnormals."""
    for trial in range(32):
        kl = source.exponential(1.0, 12) * 10.0 ** float(source.integers(-8, 3))
        mask = source.random(12) < 0.5
        if trial % 4 == 1:
            kl[mask] = 0.0
        elif trial % 4 == 2:
            kl[mask] = source.uniform(0.0, 1e-300, int(mask.sum()))
        elif trial % 4 == 3:
            kl = source.integers(0, 1000, 12) * 5e-324
        yield kl


def test_episode_kls_are_np_mean_bit_for_bit():
    # ``np.add.reduce`` sums pairwise from eight entries on, so every length
    # from 1 to 64 occurs.  One batch mixes the lengths in a shuffled order,
    # with one length drawn once and the rest three times; the others hold
    # one length only.
    source = np.random.default_rng(17)
    for kl in _kl_rows(np.random.default_rng(3)):
        once = int(source.integers(1, 65))
        mixed = [n for n in range(1, 65) for _ in range(1 if n == once else 3)]
        batches = [source.permutation(mixed).tolist()]
        batches += [[n] * 5 for n in (1, 7, 8, 9, 33, 64)]
        for lengths in batches:
            completions = [
                SampledCompletion((), states, states, True)
                for states in (tuple(source.integers(0, len(kl), n).tolist())
                               for n in lengths)
            ]
            got = trainer._episode_kls(kl, completions)
            assert len(got) == len(completions)
            for value, completion in zip(got, completions):
                want = float(np.mean(kl[list(completion.states)]))
                assert type(value) is float
                assert value.hex() == want.hex()


# ── the PPO pass against the scalar loop ─────────────────────────────


def _scalar_ascend(policy, batch, steps, cfg):
    """The PPO pass as one ``clipped_surrogate_grad`` call per step: the
    reference ``trainer._ascend`` must match bit for bit."""
    if not steps:
        return
    grad = np.zeros_like(policy.logits)
    log_probs = policy.log_prob_table()
    probs = np.exp(log_probs)
    for state, group in batch.items():
        for action, logprob_old, advantage in group:
            current = TrajectoryStep(
                state, action, float(log_probs[state, action]), logprob_old, advantage
            )
            g = clipped_surrogate_grad(current, cfg.epsilon)
            if g == 0.0:
                continue
            grad[state] -= g * probs[state]
            grad[state, action] += g
    policy.logits = policy.logits + cfg.learning_rate * grad / steps


def _old_for_ratio(new, target):
    """An old log-prob near ``new - log(target)`` whose ratio
    ``exp(new - old)`` is exactly ``target`` when one lies within 64 ulps,
    else the nearest one found."""
    best = new - math.log(target)
    for direction in (math.inf, -math.inf):
        candidate = new - math.log(target)
        for _ in range(64):
            ratio = math.exp(new - candidate)
            if ratio == target:
                return candidate
            if abs(ratio - target) < abs(math.exp(new - best) - target):
                best = candidate
            candidate = math.nextafter(candidate, direction)
    return best


@st.composite
def _ppo_passes(draw):
    """A policy, a batch of steps in collection order and a config for one
    PPO pass.

    Logits span scales where rows are near uniform to scales where some
    probabilities underflow to zero, with some entries set to ``+0.0`` or
    ``-0.0`` so a gradient's sign of zero shows in the updated logits.
    States repeat and interleave, advantages take both signs and both
    zeros, and old log-probs put ratios at 1, at the clip edges and anywhere
    between.  A step is ``(state, action, old log-prob, advantage)``.
    """
    size = draw(st.integers(2, 8))
    scale = draw(st.sampled_from([1e-3, 0.1, 1.0, 5.0, 30.0, 1000.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logits = rng.standard_normal((size, size)) * scale
    zeros = rng.random((size, size))
    logits[zeros < 0.15] = 0.0
    logits[zeros > 0.85] = -0.0
    policy = PolicyTable(tuple(f"t{i}" for i in range(size)), logits,
                         logits.copy(), stop_token="t0")
    epsilon = draw(st.sampled_from([0.05, 0.2, 0.5]) | st.floats(0.01, 0.99))
    cfg = TrainConfig(
        epsilon=epsilon,
        learning_rate=draw(st.sampled_from([1e-9, 1e-3, 1.0, 50.0])
                           | st.floats(1e-9, 50.0)),
    )
    log_probs = policy.log_prob_table()
    advantages = (st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0])
                  | st.floats(-1e-300, 1e-300))
    steps: list[tuple[int, int, float, float]] = []
    distinct_states = draw(st.integers(1, size))
    for _ in range(draw(st.integers(0, 24))):
        state = draw(st.integers(0, distinct_states - 1))
        action = draw(st.integers(0, size - 1))
        new = float(log_probs[state, action])
        kind = draw(st.sampled_from(["same", "hi", "lo", "free"]))
        if kind == "same":
            old = new
        elif kind == "free":
            old = new + draw(st.floats(-1.0, 1.0))
        else:
            old = _old_for_ratio(new, 1 + epsilon if kind == "hi" else 1 - epsilon)
        steps.append((state, action, old, draw(advantages)))
    return policy, steps, cfg


@given(_ppo_passes())
@settings(max_examples=400, deadline=None)
def test_ppo_pass_matches_the_scalar_loop_bit_for_bit(case):
    policy, steps, cfg = case
    # The pass reads flat arrays in collection order; the reference reads
    # each state's steps grouped, in the same order.
    columns = list(zip(*steps)) or [()] * 4
    states, actions = (np.array(column, dtype=np.intp) for column in columns[:2])
    old, advantages = (np.array(column, dtype=float) for column in columns[2:])
    batch: dict[int, list[tuple[int, float, float]]] = {}
    for state, action, logprob_old, advantage in steps:
        batch.setdefault(state, []).append((action, logprob_old, advantage))
    fast, slow = policy.copy(), policy.copy()
    with np.errstate(all="ignore"):
        trainer._ascend(fast, states, actions, old, advantages, cfg)
        _scalar_ascend(slow, batch, len(steps), cfg)
    assert np.array_equal(fast.logits, slow.logits, equal_nan=True)
    assert np.array_equal(np.signbit(fast.logits), np.signbit(slow.logits))


def test_the_clip_edges_are_drawn_exactly():
    # On rows of small log-probs the differential test's edge steps sit
    # exactly on 1 +- epsilon, where the clip test's strict comparisons
    # keep the step.
    policy = PolicyTable.uniform(("a", "b", "c"), stop_token="a")
    new = float(policy.log_prob_table()[0, 1])
    for target in (1 + 0.2, 1 - 0.2):
        assert math.exp(new - _old_for_ratio(new, target)) == target


# ── each piece of work once ──────────────────────────────────────────


def _counted_run(monkeypatch, cfg):
    """Train with counters on ``analyze`` and on the policy's table and row
    distribution methods.

    Returns the analyzed texts, the (method, phase) of each table or row
    computation, the sizes of the report dict seen at each analysis, the
    dict itself and the metrics.
    """
    texts: list[str] = []
    builds: list[tuple[str, str]] = []
    sizes: list[int] = []
    phase = ["collect"]

    real_analyze = trainer.analyze
    real_evaluate = trainer._evaluate
    real_ascend = trainer._ascend

    def counting_analyze(source, focal):
        texts.append(source)
        sizes.append(len(report_fn.reports))
        return real_analyze(source, focal)

    def counted(name):
        real = getattr(PolicyTable, name)

        def wrapper(self, *args):
            builds.append((name, phase[0]))
            return real(self, *args)
        return wrapper

    def marked(name, fn):
        def wrapper(*args, **kwargs):
            phase[0] = name
            try:
                return fn(*args, **kwargs)
            finally:
                phase[0] = "collect"
        return wrapper

    monkeypatch.setattr(trainer, "analyze", counting_analyze)
    for name in ("log_prob_table", "kl_table", "log_probs", "kl_from_reference"):
        monkeypatch.setattr(PolicyTable, name, counted(name))
    monkeypatch.setattr(trainer, "_evaluate", marked("eval", real_evaluate))
    monkeypatch.setattr(trainer, "_ascend", marked("ascend", real_ascend))
    reward_fn, report_fn = make_analyzer_reward(
        RewardScheme.individual("has_assertion"), TOY_FOCAL
    )
    _, metrics = train_toy_policy(assert_seeded_policy(), reward_fn, cfg, report_fn)
    return texts, builds, sizes, report_fn.reports, metrics


def test_each_text_is_analyzed_and_each_row_computed_once(monkeypatch):
    cfg = toy_config(episodes=300, eval_interval=100, eval_samples=30)
    texts, builds, sizes, reports, _ = _counted_run(monkeypatch, cfg)

    # Once per distinct rendered text per run: evaluation's report pass and
    # repeated samples are all served from the dict.
    assert texts and max(Counter(texts).values()) == 1
    assert len(reports) == len(texts)
    assert max(sizes) < trainer.REPORT_CACHE_SIZE

    # The weights are frozen within a batch, an evaluation and an ascent
    # pass, so each builds the tables it reads once and no row on its own.
    batches = cfg.episodes // cfg.batch_size
    evaluations = 1 + cfg.episodes // cfg.eval_interval
    assert Counter(builds) == {
        ("log_prob_table", "collect"): batches,
        ("kl_table", "collect"): batches,
        ("kl_table", "eval"): evaluations,
        ("log_prob_table", "ascend"): batches * cfg.ppo_epochs,
    }


def test_report_dict_stays_within_its_bound(monkeypatch):
    cfg = toy_config(episodes=200, eval_interval=100, eval_samples=30)
    _, _, _, _, unbounded = _counted_run(monkeypatch, cfg)
    monkeypatch.undo()

    monkeypatch.setattr(trainer, "REPORT_CACHE_SIZE", 8)
    texts, _, sizes, reports, bounded = _counted_run(monkeypatch, cfg)
    assert max(sizes) <= 8 and len(reports) == 8
    # Evicted texts are analyzed again, and the run's output is unchanged.
    assert len(texts) > len(set(texts))
    assert [m.to_dict() for m in bounded] == [m.to_dict() for m in unbounded]


def _spy_on_draw_tables(monkeypatch):
    """Count, per draw table, the completions sampled with it, their draws
    and the nucleus tables built for them, and record its largest size.
    Each table is kept alive, so no two share an ``id``."""
    stats: dict[int, dict] = {}
    builds = [0]
    real_table = policy_module._nucleus_table
    real_sample = trainer.sample_completion

    def counting_table(probs, top_p):
        builds[0] += 1
        return real_table(probs, top_p)

    def counting_sample(*args, tables, **kwargs):
        before = builds[0]
        completion = real_sample(*args, tables=tables, **kwargs)
        entry = stats.setdefault(
            id(tables), dict(tables=tables, completions=0, draws=0, builds=0, size=0)
        )
        entry["completions"] += 1
        entry["draws"] += len(completion.actions)
        entry["builds"] += builds[0] - before
        entry["size"] = max(entry["size"], len(tables))
        return completion

    monkeypatch.setattr(policy_module, "_nucleus_table", counting_table)
    monkeypatch.setattr(trainer, "sample_completion", counting_sample)
    return stats


def test_a_collected_batch_builds_fewer_tables_than_it_draws(monkeypatch):
    stats = _spy_on_draw_tables(monkeypatch)
    cfg = toy_config(episodes=50, eval_interval=50, eval_samples=30)
    reward_fn, report_fn = make_analyzer_reward(
        RewardScheme.individual("has_assertion"), TOY_FOCAL
    )
    train_toy_policy(assert_seeded_policy(), reward_fn, cfg, report_fn)
    # Two batches and two evaluations, each with a table of its own.
    sizes = sorted(entry["completions"] for entry in stats.values())
    assert sizes == [cfg.batch_size] * 2 + [cfg.eval_samples] * 2
    for entry in stats.values():
        assert 0 < entry["builds"] < entry["draws"]
        assert entry["size"] == entry["builds"] <= policy_module.DRAW_TABLE_SIZE


def test_generate_completions_keeps_its_table_within_the_cap(monkeypatch):
    stats = _spy_on_draw_tables(monkeypatch)
    generate_completions(assert_seeded_policy(), toy_config(), seed=1, count=2000)
    (entry,) = stats.values()
    assert entry["completions"] == 2000
    # The table fills; misses past the cap are built and used, not stored.
    assert entry["size"] == policy_module.DRAW_TABLE_SIZE < entry["builds"] < entry["draws"]


def test_greedy_sampling_builds_no_table_and_draws_no_uniform(monkeypatch):
    builds = []
    monkeypatch.setattr(policy_module, "_nucleus_table", lambda *args: builds.append(args))
    policy = assert_seeded_policy()
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    cfg = TrainConfig(max_tokens=16, temperature=1e-9, top_p=0.9, frequency_penalty=0.5)
    tables: dict = {}
    for _ in range(20):
        policy_module.sample_completion(policy, rng, cfg, tables=tables)
    assert builds == [] and tables == {}
    assert rng.bit_generator.state == state
