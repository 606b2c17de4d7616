"""Linear reward model tests: features, prediction, training behavior."""

from __future__ import annotations

import random

import numpy as np
import pytest

from tqual.errors import DomainError, InsufficientData
from tqual.lexer import scan
from tqual.rlcore.math import mse_grad, mse_loss
from tqual.rlcore.reward_model import LinearRewardModel, train_reward_model

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
    model = LinearRewardModel.zeros(("Assert", ";", "x"))
    counts = model.featurize("Assert ( x ) ; // Assert in a comment\n x ;")
    assert counts.tolist() == [1.0, 2.0, 2.0]


def test_featurize_ignores_unknown_tokens():
    model = LinearRewardModel.zeros(("Assert",))
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
    data = LinearRewardModel.zeros(("Assert",)).to_dict()
    if value is None:
        del data[key]
    else:
        data[key] = value
    with pytest.raises(DomainError, match=f"'{key}"):
        LinearRewardModel.from_dict(data)


# ── training ─────────────────────────────────────────────────────────


def test_training_fits_linearly_separable_rewards():
    model, history = train_reward_model(separable_examples(), seed=0)
    assert history, "training should run at least one epoch"
    assert min(h["val_mse"] for h in history) < 0.05
    assert model.predict(WITH_ASSERT) > 0.5
    assert model.predict(WITHOUT_ASSERT) < 0.5


def test_training_history_schema_and_monotone_epochs():
    _, history = train_reward_model(separable_examples(), seed=0)
    assert [h["epoch"] for h in history] == list(range(len(history)))
    assert all(set(h) == {"epoch", "train_mse", "val_mse"} for h in history)


def test_training_is_deterministic_per_seed():
    a, _ = train_reward_model(separable_examples(), seed=5)
    b, _ = train_reward_model(separable_examples(), seed=5)
    assert np.array_equal(a.weights, b.weights)
    assert a.bias == b.bias


def test_zero_epochs_returns_untouched_zeros_model():
    model, history = train_reward_model(separable_examples(), epochs=0, seed=0)
    assert history == []
    assert np.all(model.weights == 0.0)
    assert model.bias == 0.0


def test_single_class_rewards_rejected():
    constant = [(f"x{i};", 1.0) for i in range(10)]
    with pytest.raises(InsufficientData):
        train_reward_model(constant, seed=0)


def test_too_few_examples_rejected():
    with pytest.raises(InsufficientData):
        train_reward_model([("x;", 1.0)], seed=0)
    with pytest.raises(InsufficientData):
        train_reward_model([], seed=0)


def test_bad_hyperparameters_rejected():
    examples = separable_examples(10)
    with pytest.raises(DomainError):
        train_reward_model(examples, learning_rate=0.0, seed=0)
    with pytest.raises(DomainError):
        train_reward_model(examples, val_fraction=1.5, seed=0)
    with pytest.raises(DomainError):
        train_reward_model(examples, max_features=0, seed=0)


def test_max_features_caps_the_vocabulary():
    model, _ = train_reward_model(separable_examples(), max_features=3, seed=0)
    assert len(model.feature_tokens) == 3
    assert list(model.feature_tokens) == sorted(model.feature_tokens)


def test_early_stopping_respects_patience():
    _, history = train_reward_model(
        separable_examples(), epochs=500, patience=5, seed=0
    )
    assert len(history) < 500


def test_a_validation_slice_of_every_example_is_rejected():
    with pytest.raises(InsufficientData, match="need at least 3 examples to hold 2 out"):
        train_reward_model(separable_examples(2), val_fraction=0.9, seed=0)


# ── the array fit against the list fit it replaced ───────────────────


def reference_train_reward_model(examples, *, max_features=512, epochs=500,
                                 learning_rate=0.1, val_fraction=0.1, patience=25, seed=0):
    """The fit that lexed each text twice and ran the descent through the
    scalar ``mse_grad`` and ``mse_loss``, on lists."""
    frequency = {}
    for text, _ in examples:
        for _, token, _ in scan(text)[0]:
            frequency[token] = frequency.get(token, 0) + 1
    ranked = sorted(frequency, key=lambda t: (-frequency[t], t))
    model = LinearRewardModel.zeros(tuple(sorted(ranked[:max_features])))
    if epochs == 0:
        return model, []

    def featurize(text):
        counts = dict.fromkeys(model.feature_tokens, 0)
        for _, token, _ in scan(text)[0]:
            if token in counts:
                counts[token] += 1
        return np.array([counts[t] for t in model.feature_tokens], dtype=float)

    design = np.stack([featurize(text) for text, _ in examples])
    targets = np.array([float(r) for _, r in examples])
    order = np.random.default_rng(seed).permutation(len(examples))
    n_val = max(1, round(val_fraction * len(examples)))
    val_idx, train_idx = order[:n_val], order[n_val:]
    means = design[train_idx].mean(axis=0)
    scales = design[train_idx].std(axis=0)
    scales[scales == 0] = 1.0
    scaled = (design - means) / scales
    x_train, y_train = scaled[train_idx], targets[train_idx]
    x_val, y_val = scaled[val_idx], targets[val_idx]
    weights = np.zeros(len(model.feature_tokens))
    bias = 0.0
    best = (np.inf, weights.copy(), bias)
    stale = 0
    history = []
    for epoch in range(epochs):
        preds = x_train @ weights + bias
        grad_pred = np.array(mse_grad(preds.tolist(), y_train.tolist()))
        weights -= learning_rate * (x_train.T @ grad_pred)
        bias -= learning_rate * float(grad_pred.sum())
        train_mse = mse_loss((x_train @ weights + bias).tolist(), y_train.tolist())
        val_mse = mse_loss((x_val @ weights + bias).tolist(), y_val.tolist())
        history.append({"epoch": epoch, "train_mse": train_mse, "val_mse": val_mse})
        if val_mse < best[0] - 1e-12:
            best = (val_mse, weights.copy(), bias)
            stale = 0
        else:
            stale += 1
            if stale >= patience:
                break
    _, weights, bias = best
    model.weights = weights / scales
    model.bias = bias - float((weights * means / scales).sum())
    return model, history


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
    rng = random.Random(case)
    examples = random_examples(rng)
    settings = {"max_features": rng.choice([1, 3, 512]), "epochs": rng.choice([0, 5, 200]),
                "val_fraction": rng.choice([0.1, 0.3]), "patience": rng.choice([3, 25]),
                "seed": case}
    model, history = train_reward_model(examples, **settings)
    expected, expected_history = reference_train_reward_model(examples, **settings)
    assert model.feature_tokens == expected.feature_tokens
    assert np.array_equal(model.weights, expected.weights)
    assert model.bias == expected.bias
    assert len(history) == len(expected_history)
    for row, want in zip(history, expected_history):
        assert row["epoch"] == want["epoch"]
        assert row["train_mse"] == pytest.approx(want["train_mse"], rel=0, abs=1e-12)
        assert row["val_mse"] == pytest.approx(want["val_mse"], rel=0, abs=1e-12)
