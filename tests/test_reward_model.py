"""Linear reward model tests: features, prediction, the least-squares fit.

Run ``PYTHONPATH=src python tests/test_reward_model.py`` to print the
held-out agreement of the fit on the toy assertion setup, seeds 1-5.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from toy_setup import TOY_FOCAL, assert_seeded_policy, toy_config
from tqual.analyzer import analyze
from tqual.errors import DomainError, InsufficientData
from tqual.lexer import scan
from tqual.rlcore.reward_model import MAX_FEATURES, LinearRewardModel, train_reward_model
from tqual.rlcore.trainer import generate_completions, render_toy_test

WITH_ASSERT = "[TestMethod]\npublic void T()\n{\n    Assert.IsTrue(x);\n}"
WITHOUT_ASSERT = "[TestMethod]\npublic void T()\n{\n    y.Run();\n}"


def separable_examples(n: int = 100) -> list[tuple[str, float]]:
    """Reward is exactly the presence of an Assert token."""
    out = []
    for i in range(n):
        if i % 2 == 0:
            out.append((f"Assert.IsTrue(x{i});", 1.0))
        else:
            out.append((f"y{i}.Run();", 0.0))
    return out


# ── features and prediction ──────────────────────────────────────────


def test_featurize_counts_significant_tokens_only():
    model = LinearRewardModel(("Assert", ";", "x"), np.zeros(3), 0.0)
    counts = model.featurize("Assert ( x ) ; // Assert in a comment\n x ;")
    assert counts.tolist() == [1.0, 2.0, 2.0]


def test_featurize_ignores_unknown_tokens():
    model = LinearRewardModel(("Assert",), np.zeros(1), 0.0)
    assert model.featurize("y.Run();").tolist() == [0.0]


def test_predict_is_a_dot_product_plus_bias():
    model = LinearRewardModel(
        feature_tokens=("Assert", ";"), weights=np.array([2.0, -0.5]), bias=1.0
    )
    # One Assert, two semicolons: 2*1 - 0.5*2 + 1.
    assert model.predict("Assert(x); y();") == pytest.approx(2.0)


def test_weight_shape_is_validated():
    with pytest.raises(DomainError):
        LinearRewardModel(feature_tokens=("a", "b"), weights=np.zeros(3), bias=0.0)


def test_dict_round_trip():
    model = LinearRewardModel(
        feature_tokens=("Assert",), weights=np.array([1.5]), bias=-0.25
    )
    data = model.to_dict()
    assert data["schema"] == "reward-model.v1"
    back = LinearRewardModel.from_dict(data)
    assert back.feature_tokens == model.feature_tokens
    assert np.array_equal(back.weights, model.weights)
    assert back.bias == model.bias
    with pytest.raises(DomainError):
        LinearRewardModel.from_dict({"schema": "other"})


@pytest.mark.parametrize("key, value", [("bias", None), ("weights", [True]),
                                        ("feature_tokens", "Assert")],
                         ids=["missing-bias", "bool-weight", "text-features"])
def test_model_from_dict_names_the_bad_key(key, value):
    data = LinearRewardModel(("Assert",), np.zeros(1), 0.0).to_dict()
    if value is None:
        del data[key]
    else:
        data[key] = value
    with pytest.raises(DomainError, match=f"'{key}"):
        LinearRewardModel.from_dict(data)


@pytest.mark.parametrize("weights, bias, field", [("[NaN]", "Infinity", "weights"),
                                                  ("[Infinity]", "0", "weights"),
                                                  ("[1.5]", "-Infinity", "bias"),
                                                  ("[1.5]", "NaN", "bias")])
def test_model_from_dict_refuses_non_finite_numbers(weights, bias, field):
    # json.loads reads NaN and Infinity, so the model itself must refuse them.
    data = json.loads(f'{{"schema": "reward-model.v1", "feature_tokens": ["a"], '
                      f'"weights": {weights}, "bias": {bias}}}')
    with pytest.raises(DomainError, match=f"^{field} must be finite$"):
        LinearRewardModel.from_dict(data)


# ── training ─────────────────────────────────────────────────────────


def test_training_fits_linearly_separable_rewards():
    model = train_reward_model(separable_examples())
    assert model.predict(WITH_ASSERT) > 0.5
    assert model.predict(WITHOUT_ASSERT) < 0.5


def test_a_reward_linear_in_the_counts_is_recovered():
    rng = random.Random(7)
    examples = []
    for _ in range(30):
        a, b, c = (rng.randint(0, 5) for _ in range(3))
        examples.append((" ".join(["a"] * a + ["b"] * b + ["c"] * c), 2 * a - b + 0.5 * c + 3))
    model = train_reward_model(examples)
    assert model.feature_tokens == ("a", "b", "c")
    assert model.weights == pytest.approx([2.0, -1.0, 0.5], rel=0, abs=1e-9)
    assert model.bias == pytest.approx(3.0, rel=0, abs=1e-9)


def test_single_class_rewards_rejected():
    constant = [(f"x{i};", 1.0) for i in range(10)]
    with pytest.raises(InsufficientData):
        train_reward_model(constant)


def test_too_few_examples_rejected():
    with pytest.raises(InsufficientData):
        train_reward_model([("x;", 1.0)])
    with pytest.raises(InsufficientData):
        train_reward_model([])


def test_max_features_caps_the_vocabulary():
    # ";" is in every text and each name in one; ties go to the smaller token.
    examples = [(f"v{i:03d};", float(i % 2)) for i in range(MAX_FEATURES + 88)]
    model = train_reward_model(examples)
    assert model.feature_tokens == (";",) + tuple(f"v{i:03d}" for i in range(MAX_FEATURES - 1))


# ── the fit against an independent solve ─────────────────────────────


def reference_train_reward_model(examples):
    """Count the tokens in dicts, lexing each text twice, and take the
    minimum-norm least-squares weights of the centred counts from
    ``np.linalg.pinv``, with the cutoff ``lstsq`` uses by default."""
    frequency = {}
    for text, _ in examples:
        for _, token, _ in scan(text)[0]:
            frequency[token] = frequency.get(token, 0) + 1
    ranked = sorted(frequency, key=lambda t: (-frequency[t], t))
    features = tuple(sorted(ranked[:MAX_FEATURES]))

    def featurize(text):
        counts = dict.fromkeys(features, 0)
        for _, token, _ in scan(text)[0]:
            if token in counts:
                counts[token] += 1
        return [counts[t] for t in features]

    design = np.array([featurize(text) for text, _ in examples], dtype=float)
    targets = np.array([float(r) for _, r in examples])
    means = design.mean(axis=0)
    centred = design - means
    rcond = np.finfo(float).eps * max(centred.shape)
    weights = np.linalg.pinv(centred, rcond=rcond) @ (targets - targets.mean())
    return features, weights, targets.mean() - means @ weights


FRAGMENTS = ["Assert.IsTrue(x);", "Assert.AreEqual(1, y);", "y.Run();", "var z = new C();",
             "// note\n", "if (a) { b(); }", "return;", "x.Stop();", "  \n"]


def random_examples(rng: random.Random) -> list[tuple[str, float]]:
    examples = [("".join(rng.choices(FRAGMENTS, k=rng.randint(0, 6))),
                 rng.choice([0.0, 0.5, 1.0, rng.uniform(-1, 2)]))
                for _ in range(rng.randint(3, 40))]
    examples[0] = (examples[0][0], 0.0)
    examples[1] = (examples[1][0], 1.0)
    return examples


@pytest.mark.parametrize("case", range(20))
def test_training_matches_the_list_reference(case):
    # Fragments always pair "(" with ")", so the counts have repeated
    # columns, and with few examples fewer rows than columns.
    examples = random_examples(random.Random(case))
    model = train_reward_model(examples)
    features, weights, bias = reference_train_reward_model(examples)
    assert model.feature_tokens == features
    assert np.max(np.abs(model.weights - weights), initial=0.0) <= 1e-12
    assert abs(model.bias - bias) <= 1e-12


# ── agreement with the analyzer on the toy assertion setup ───────────


def _ranks(values) -> np.ndarray:
    """Ranks from 0, with tied values sharing the mean of their ranks."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return ((ends - counts + ends - 1) / 2)[inverse]


def held_out_rho(seed: int) -> float:
    """Spearman ρ between the analyzer's ``has_assertion`` and a model fit
    on 600 completions of the seeded assertion policy, over the next 200."""
    cfg = toy_config(seed=seed)
    completions = generate_completions(assert_seeded_policy(), cfg, seed=seed, count=800)
    texts = [render_toy_test(c.tokens, TOY_FOCAL) for c in completions]
    labels = [float(analyze(text, TOY_FOCAL).has_assertion) for text in texts]
    model = train_reward_model(list(zip(texts[:600], labels[:600])))
    predictions = [model.predict(text) for text in texts[600:]]
    return float(np.corrcoef(_ranks(predictions), _ranks(labels[600:]))[0, 1])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_fit_agrees_with_the_analyzer_on_held_out_completions(seed):
    assert held_out_rho(seed) >= 0.35


if __name__ == "__main__":
    print("seed  held-out rho")
    for seed in range(1, 6):
        print(f"{seed:>4}  {held_out_rho(seed):.3f}")
