"""Configuration parsing tests: the flat key=value format and typed views."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import tqual.config
import tqual.rlcore
import tqual.rlcore.trainer
from tqual.cli import main
from tqual.config import PipelineConfig, load_config, parse_config_text
from tqual.errors import DomainError


def test_parse_key_value_lines():
    values = parse_config_text(
        "# comment\n\nbudget.prompt_token_budget = 1024\nsplit.seed = 7\n"
    )
    assert values == {"budget.prompt_token_budget": "1024", "split.seed": "7"}


def test_parse_rejects_unknown_section_and_key():
    with pytest.raises(ValueError):
        parse_config_text("mystery.key = 1")
    with pytest.raises(ValueError):
        parse_config_text("budget.no_such_field = 1")
    with pytest.raises(ValueError):
        parse_config_text("reward.no_such_field = x")


def test_parse_rejects_malformed_lines():
    with pytest.raises(ValueError):
        parse_config_text("just words")
    with pytest.raises(ValueError):
        parse_config_text("= value")


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "pipeline.cfg"
    path.write_text("train.episodes = 10\n")
    assert load_config(path) == {"train.episodes": "10"}


def test_typed_views_coerce_values():
    cfg = PipelineConfig(
        {
            "budget.prompt_token_budget": "1000",
            "split.rl_three_way": "true",
            "split.test_fraction": "0.2",
            "train.beta": "0.25",
            "score.positive_properties": "has_assertion, invokes_focal",
        }
    )
    assert cfg.budget().prompt_token_budget == 1000
    assert cfg.split_spec().rl_three_way is True
    assert cfg.split_spec().test_fraction == 0.2
    assert cfg.train_config().beta == 0.25
    assert cfg.score_config().positive_properties == ("has_assertion", "invokes_focal")


def test_bad_boolean_rejected():
    with pytest.raises(ValueError):
        PipelineConfig({"split.rl_three_way": "maybe"}).split_spec()


def test_overrides_beat_config_values():
    cfg = PipelineConfig({"train.episodes": "100"})
    assert cfg.train_config().episodes == 100
    assert cfg.train_config(episodes=5).episodes == 5
    # None overrides fall back to the config value.
    assert cfg.train_config(episodes=None).episodes == 100


def test_empty_config_uses_dataclass_defaults():
    cfg = PipelineConfig.empty()
    assert cfg.budget().prompt_token_budget == 1536
    assert cfg.split_spec().test_fraction == 0.05
    assert cfg.train_config().max_tokens == 512


def test_reward_scheme_resolution():
    empty = PipelineConfig.empty()
    assert empty.reward_scheme() is None

    configured = PipelineConfig(
        {"reward.properties": "assertion, focal", "reward.strategy": "combined"}
    )
    scheme = configured.reward_scheme()
    assert scheme.properties == ("has_assertion", "invokes_focal")
    assert scheme.strategy == "combined"

    # Explicit arguments beat the file.
    override = configured.reward_scheme("conditional", "individual")
    assert override.properties == ("conditional_or_exception",)
    assert override.strategy == "individual"


def test_reward_scheme_default_strategy_tracks_arity():
    assert PipelineConfig.empty().reward_scheme("assertion").strategy == "individual"
    assert (
        PipelineConfig.empty().reward_scheme("assertion, focal").strategy == "combined"
    )


def test_readme_config_example_parses():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    config = PipelineConfig(parse_config_text(block))
    assert config.budget().prompt_token_budget == 1536
    assert config.split_spec().test_fraction == 0.05
    assert config.reward_scheme().properties == ("has_assertion", "invokes_focal")
    assert config.train_config().episodes == 2000


# ── the RL loop's settings ───────────────────────────────────────────


def test_train_config_is_one_class_wherever_it_is_imported():
    assert tqual.config.TrainConfig is tqual.rlcore.trainer.TrainConfig is tqual.rlcore.TrainConfig


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_beta_from_a_config_file_is_a_domain_error(tmp_path, value):
    path = tmp_path / "pipeline.cfg"
    path.write_text(f"train.beta = {value}\n")
    with pytest.raises(DomainError, match="beta must be finite"):
        PipelineConfig.from_file(path).train_config()


def test_config_file_values_reach_train_toy_when_flags_are_left_out(tmp_path, capsys):
    # Keys without a flag, set in both files: evaluate every 10 episodes.
    shape = "train.batch_size = 10\ntrain.eval_interval = 10\n"
    full = tmp_path / "full.cfg"
    full.write_text(shape + "train.seed = 5\ntrain.episodes = 30\ntrain.max_tokens = 6\n")
    interval = tmp_path / "interval.cfg"
    interval.write_text(shape)

    def run(*args: str) -> tuple[str, list[int]]:
        policy, metrics = tmp_path / "policy.json", tmp_path / "metrics.jsonl"
        assert main(["train-toy", "--out", str(policy), "--metrics", str(metrics), *args]) == 0
        capsys.readouterr()
        episodes = [json.loads(line)["episode"] for line in metrics.read_text().splitlines()]
        return policy.read_text(), episodes

    from_file = run("--config", str(full))
    assert from_file[1] == [0, 10, 20, 30]
    assert from_file == run("--config", str(interval), "--seed", "5", "--episodes", "30",
                            "--max-tokens", "6")
    assert from_file != run("--config", str(full), "--seed", "0")
