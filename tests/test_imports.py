"""The numpy boundary: only the RL core, ``train-toy`` and ``sample`` load it.

The analyzer and the dataset pipeline are plain token-stream code, so
importing the package and running any pipeline command must leave numpy
unloaded.  Module state is per process, so each check runs its commands in a
fresh interpreter.  The tracer contract is checked in process: a wrapper set
on ``tqual.cli`` before any command runs is what the RL commands call.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tqual
import tqual.cli as cli
import tqual.rlcore.trainer as trainer
from tqual.cli import main
from tqual.corpus import CorpusRecord, dump_line

SRC = Path(tqual.__file__).resolve().parent.parent
FOCAL_FILE = Path(__file__).parent / "fixtures" / "focal_files" / "InventoryService.cs"

# A golden, an assertion-free and an unparsable test: three reward classes.
TESTS = (
    "[TestMethod]\npublic void TestStop()\n{\n"
    "    c.Stop();\n    Assert.IsTrue(c.IsStopped());\n}",
    "[TestMethod]\npublic void TestStop()\n{\n    c.Stop();\n}",
    "[TestMethod]\npublic void TestStop()\n{\n    c.Stop()\n}",
)

# Imports ``tqual`` and ``tqual.cli``, runs each argv of ``sys.argv[1]`` (a
# JSON list) through ``main``, and prints, as its last line, one [exit code,
# numpy loaded] pair after the imports and one after each argv.
_RUNNER = """
import contextlib, io, json, sys
import tqual, tqual.cli
from tqual.cli import main
results = [[None, "numpy" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, "numpy" in sys.modules])
print(json.dumps(results))
"""


def run_fresh(cwd: Path, argvs: list[list[str]]) -> list[tuple[int | None, bool]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", _RUNNER, json.dumps(argvs)],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return [tuple(pair) for pair in json.loads(proc.stdout.strip().splitlines()[-1])]


def write_fixtures(root: Path) -> None:
    with open(root / "corpus.jsonl", "w", encoding="utf-8") as handle:
        for i in range(24):
            record = CorpusRecord(repo=f"repo{i % 8}", focal_class="C", focal_method="Stop",
                                  prompt=f"p{i}", test=TESTS[i % 3])
            handle.write(dump_line(record.to_dict()) + "\n")
    (root / "raw.jsonl").write_text(dump_line(
        {"focal_method": "Stop", "completion": "()\n{\n    c.Stop();\n}\nleftover"}) + "\n")
    (root / "wanted.jsonl").write_text(dump_line(
        {"focal_path": str(FOCAL_FILE), "focal_method": "Reserve"}) + "\n")


PIPELINE_ARGVS = [
    ["analyze", "corpus.jsonl", "--out", "reports.jsonl"],
    ["report", "reports.jsonl"],
    ["truncate", "raw.jsonl"],
    ["prompt", "wanted.jsonl"],
    ["reward", "corpus.jsonl", "--properties", "assertion", "--out", "labeled.jsonl"],
    ["resample", "labeled.jsonl", "--seed", "3"],
    ["golden", "corpus.jsonl"],
    ["split", "corpus.jsonl", "--out-dir", "splits", "--seed", "1"],
    ["subsample", "corpus.jsonl", "--n", "3", "--seed", "2"],
    ["--help"],
    ["--version"],
]


def test_importing_the_package_loads_no_numpy(tmp_path):
    assert run_fresh(tmp_path, []) == [(None, False)]


def test_pipeline_commands_load_no_numpy(tmp_path):
    write_fixtures(tmp_path)
    imports, *runs = run_fresh(tmp_path, PIPELINE_ARGVS)
    assert imports == (None, False)
    by_command = {argv[0]: run for argv, run in zip(PIPELINE_ARGVS, runs)}
    assert by_command == {argv[0]: (0, False) for argv in PIPELINE_ARGVS}


def test_rl_commands_load_numpy(tmp_path):
    train = ["train-toy", "--episodes", "10", "--max-tokens", "6", "--out", "policy.json"]
    sample = ["sample", "--policy", "policy.json", "--count", "2", "--max-tokens", "6"]
    assert run_fresh(tmp_path, [train]) == [(None, False), (0, True)]
    assert run_fresh(tmp_path, [sample]) == [(None, False), (0, True)]


# ── the tracer contract ──────────────────────────────────────────────


@pytest.fixture
def unbound_cli(monkeypatch):
    """``tqual.cli`` as a fresh import leaves it: no RL name bound yet."""
    for name in cli._RLCORE_NAMES:
        monkeypatch.delitem(vars(cli), name, raising=False)
    return cli


@pytest.mark.parametrize("name", cli._RLCORE_NAMES)
def test_rl_names_resolve_as_attributes_before_any_command(unbound_cli, name):
    assert name not in vars(unbound_cli)
    assert getattr(unbound_cli, name) is getattr(trainer, name)


def test_wrappers_set_on_the_module_are_what_train_toy_calls(unbound_cli, monkeypatch, tmp_path):
    calls = {"train": 0, "make_reward": 0, "reward": 0}
    train, make_reward = unbound_cli.train_toy_policy, unbound_cli.make_analyzer_reward

    def counted_train(*args, **kwargs):
        calls["train"] += 1
        return train(*args, **kwargs)

    def counted_make_reward(*args, **kwargs):
        calls["make_reward"] += 1
        reward_fn, report_fn = make_reward(*args, **kwargs)

        def counted_reward(tokens):
            calls["reward"] += 1
            return reward_fn(tokens)
        return counted_reward, report_fn

    monkeypatch.setattr(unbound_cli, "train_toy_policy", counted_train)
    monkeypatch.setattr(unbound_cli, "make_analyzer_reward", counted_make_reward)
    assert main(["train-toy", "--episodes", "10", "--max-tokens", "6",
                 "--out", str(tmp_path / "policy.json")]) == 0
    assert calls["train"] == 1
    assert calls["make_reward"] == 1
    assert calls["reward"] >= 10
    assert unbound_cli.train_toy_policy is counted_train


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name
    assert not hasattr(cli, "no_such_name")
