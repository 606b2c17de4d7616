"""Snapshot parity for the toy PPO loop: pinned digests of its outputs.

Short fixed-seed runs of the assertion setup write ``metrics.v1`` rows and
the chosen ``policy.v1`` checkpoint exactly as ``tqual train-toy`` does, and
each is hashed into one sha256 digest.  A change that keeps the sampled
streams, rewards, KL terms and gradient steps bit-identical keeps every
digest; an intended behaviour change updates the digest it moves and says
why.

Run ``PYTHONPATH=src python tests/test_trainer_snapshot.py`` to print the
current digests.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from toy_setup import TOY_FOCAL, assert_seeded_policy, toy_config
from tqual.corpus import dump_line
from tqual.rewards import RewardScheme
from tqual.rlcore.trainer import make_analyzer_reward, train_toy_policy

RUNS = {
    "assert": dict(episodes=300, eval_interval=100, eval_samples=30, seed=7),
    "assert_top_p": dict(episodes=300, eval_interval=100, eval_samples=30, seed=11,
                         top_p=0.8),
    "assert_sampling_knobs": dict(episodes=300, eval_interval=100, eval_samples=30,
                                  seed=5, frequency_penalty=0.0, temperature=1.3,
                                  top_p=0.9),
    # Greedy decoding draws nothing, so every completion of a batch is the
    # same; an always-earned reward gives the ascent and the KL work to do.
    "focal_greedy": dict(episodes=300, eval_interval=100, eval_samples=30, seed=3,
                         temperature=1e-9, reward="invokes_focal"),
}


def _run(overrides: dict) -> dict[str, str]:
    overrides = dict(overrides)
    reward_fn, report_fn = make_analyzer_reward(
        RewardScheme.individual(overrides.pop("reward", "has_assertion")), TOY_FOCAL
    )
    trained, metrics = train_toy_policy(
        assert_seeded_policy(), reward_fn, toy_config(**overrides), report_fn
    )
    rows = "".join(dump_line(entry.to_dict()) + "\n" for entry in metrics)
    policy = json.dumps(trained.to_dict(), sort_keys=True) + "\n"
    return {
        "metrics": hashlib.sha256(rows.encode("utf-8")).hexdigest(),
        "policy": hashlib.sha256(policy.encode("utf-8")).hexdigest(),
    }


PINNED = {
    "assert": {
        "metrics": "87bd8586e88d0354201483bcb1a242f9897418ba2557e0326cc67e53e0e386b0",
        "policy": "360ef751d452809a1314008d0dead4c4d499b638f46c48f2eef770e95efcfbc6",
    },
    "assert_top_p": {
        "metrics": "bad2cda3e0338fc9be0612e9f67f24090c443106b8fed00837716d9c8c9c9745",
        "policy": "9fe844afa731569b6d2291f437b6e4aef61e463a63bcfc46bfe0f2af4c0252d0",
    },
    "assert_sampling_knobs": {
        "metrics": "968996373bea277ef41223db4f2285171511253f3fc6da676c60557fc7d4bb21",
        "policy": "2b64ff168c151252c7989d228ed1ad4dc0ec970ac038ae7538495f11e98f369f",
    },
    "focal_greedy": {
        "metrics": "ed238fac7e5cffbdae12d331afefdaa0ac673c3a3f2fe1ce5975f4c51a862027",
        "policy": "800c686389e88fcc494ae689c9b3c9e227c7ec90c6afb0b355eb04fadae15fa9",
    },
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_trainer_snapshot_digest(run):
    assert _run(RUNS[run]) == PINNED[run]


if __name__ == "__main__":
    for name in sorted(RUNS):
        print(f'    "{name}": {_run(RUNS[name])},')
