"""Smoke test of the benchmark's traced runs.

``perfbench/tracing.py`` wraps the package's entry points by name and reads
parse results (``statements()``, ``has_fatal``) in its counters.  Only a
``--trace 1`` benchmark run uses it, so a renamed or deleted name would
otherwise fail nowhere else.  This installs the tracer in a fresh
interpreter, runs three pipeline commands, and checks the counts against
what the parser gives for the same inputs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from test_imports import SRC, TESTS, write_fixtures
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


def test_traced_pipeline_counts_statements_and_fatal_parses(tmp_path):
    write_fixtures(tmp_path)
    argvs = [["analyze", "corpus.jsonl"], ["prompt", "wanted.jsonl"],
             ["truncate", "raw.jsonl"]]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(PERFBENCH)])
    proc = subprocess.run([sys.executable, "-c", _RUNNER, json.dumps(argvs)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])

    # The corpus holds each of TESTS eight times; one of them is unparsable.
    trees = [parse_test_method(test) for test in TESTS]
    assert summary["codes"] == [0, 0, 0]
    assert summary["calls"]["analyzer.analyze"] == 24
    assert summary["calls"]["prompting.build_prompt"] == 1
    assert summary["calls"]["completion.truncate_completion"] == 1
    assert summary["counters"]["parser.statements"] == 8 * sum(
        count_statements(tree.statements()) for tree in trees)
    assert summary["counters"]["parser.fatal"] == 8 * sum(tree.has_fatal for tree in trees) == 8
