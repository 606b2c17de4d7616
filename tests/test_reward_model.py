"""Linear reward model tests: features, prediction, training behavior."""

from __future__ import annotations

import numpy as np
import pytest

from tqual.errors import DomainError, InsufficientData
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
