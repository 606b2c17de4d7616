"""Smoke test of the benchmark's traced runs.

``perfbench/tracing.py`` wraps the package's entry points by name and reads
parse results (``statements()``, ``has_fatal``) in its counters.  Only a
``--trace 1`` benchmark run uses it, so a renamed or deleted name would
otherwise fail nowhere else.  This installs the tracer in a fresh
interpreter, runs three pipeline commands and checks the counts against
what the parser gives for the same inputs, then runs a short ``train-toy``
and checks the trainer's counts.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from test_imports import SRC, TESTS, write_fixtures
from toy_setup import SEED_CORPUS_ASSERT, VOCAB_ASSERT
from tqual.corpus import dump_line
from tqual.parser import parse_test_method

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Installs a tracer, runs each argv of ``sys.argv[1]`` through ``main``, and
# prints the exit codes and the tracer's summary as one JSON line.
_RUNNER = """
import contextlib, io, json, sys
import tracing
from tqual.cli import main
tracer = tracing.Tracer()
tracing.install(tracer)
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps({"codes": codes, **tracer.summary()}))
"""


def count_statements(statements) -> int:
    return sum(1 + count_statements(s.children) for s in statements)


def run_traced(tmp_path: Path, argvs: list[list[str]]) -> dict:
    """The tracer's summary, with the exit codes, of ``argvs`` run in
    ``tmp_path``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(PERFBENCH)])
    proc = subprocess.run([sys.executable, "-c", _RUNNER, json.dumps(argvs)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_pipeline_counts_statements_and_fatal_parses(tmp_path):
    write_fixtures(tmp_path)
    summary = run_traced(tmp_path, [["analyze", "corpus.jsonl"], ["prompt", "wanted.jsonl"],
                                    ["truncate", "raw.jsonl"]])

    # The corpus holds each of TESTS eight times; one of them is unparsable.
    trees = [parse_test_method(test) for test in TESTS]
    assert summary["codes"] == [0, 0, 0]
    assert summary["calls"]["analyzer.analyze"] == 24
    assert summary["calls"]["prompting.build_prompt"] == 1
    assert summary["calls"]["completion.truncate_completion"] == 1
    assert summary["counters"]["parser.statements"] == 8 * sum(
        count_statements(tree.statements()) for tree in trees)
    assert summary["counters"]["parser.fatal"] == 8 * sum(tree.has_fatal for tree in trees) == 8


def test_traced_train_toy_samples_and_makes_no_per_step_gradient_call(tmp_path):
    (tmp_path / "vocab.txt").write_text("\n".join(VOCAB_ASSERT) + "\n", encoding="utf-8")
    (tmp_path / "seed.jsonl").write_text(
        "".join(dump_line({"tokens": tokens}) + "\n" for tokens in SEED_CORPUS_ASSERT),
        encoding="utf-8")
    summary = run_traced(tmp_path, [[
        "train-toy", "--seed-corpus", "seed.jsonl", "--vocab-file", "vocab.txt",
        "--properties", "has_assertion", "--episodes", "50", "--max-tokens", "16",
        "--seed", "1", "--out", "policy.json"]])
    assert summary["codes"] == [0]
    assert summary["calls"]["policy.sample"] > 0
    # The PPO pass inlines the scalar gradient, so the wrapped binding of
    # clipped_surrogate_grad is never called.
    assert summary["calls"].get("math.surrogate_grad", 0) == 0
