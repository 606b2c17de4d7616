"""Benchmark parity: the seed-1 outputs of every benchmark workload, pinned.

Each workload's seed-1 plan is built by ``perfbench/gen.py`` in a temporary
directory (for ``train``, the inputs ``perfbench/worker.py`` prepares are
written too), and each command runs in-process through ``tqual.cli.main``.
The output files are hashed as ``perfbench/run.py`` hashes them, and the
``outputs``, ``report.v1``, ``metrics.v1`` and ``analyze()`` digests must
equal what ``python3 perfbench/run.py --seed 1`` prints for that workload.
Every command's exit code and output also pass the benchmark's own oracle
(``perfbench/checks.py``), so ``correct`` is checked here too.

A change that keeps every output keeps every pin; an intended move edits
``PINNED`` and says which workload moved and why.

Run ``PYTHONPATH=src python tests/test_benchmark_parity.py`` to print the
current pins.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

from tqual.cli import main  # noqa: E402

SEED = 1

# Output files whose own digest ``run.report`` prints, by schema.
SCHEMA_FILES = {"report.v1": "out/reports.jsonl", "metrics.v1": "out/metrics.jsonl"}


def _digests(workload: str, work: Path) -> tuple[dict[str, str], list[str]]:
    """Run the workload's seed-1 plan in ``work``; returns its digests and
    the problems the benchmark's checks find."""
    previous = os.getcwd()
    os.chdir(work)
    try:
        plan = gen.build(workload, SEED, ROOT, work)
        if workload == "train":
            worker._prepare_train(ROOT, SEED, plan.samples)
        files: dict[str, str] = {}
        problems: list[str] = []
        for cmd in plan.commands:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = main(list(cmd.argv))
            files.update(run.digest_files(work, cmd.outputs))
            if rc != checks.expected_rc(plan, cmd.name):
                problems.append(f"{cmd.name}: exit code {rc}")
                continue
            check, rel = checks.CHECKS[(workload, cmd.name)]
            problems += [f"{cmd.name}: {problem}" for problem in check(work, plan, rel)]
        latency: dict = {}
        worker._op_latency({"file": plan.latency}, latency)
    finally:
        os.chdir(previous)
    digests = {"outputs": hashlib.sha256(
        json.dumps(files, sort_keys=True).encode()).hexdigest()}
    digests.update((schema, files[rel]) for schema, rel in SCHEMA_FILES.items()
                   if rel in files)
    digests["analyze()"] = latency["digest"]
    return digests, problems


PINNED = {
    "curate": {
        "outputs": "18f82221e68cda281a9e2efe22726f23955b17f0f2a5a2198cf58e5f4dcfc05d",
        "report.v1": "62c6555e0800c1becde21841cc57a4b62bef27c50fa495757d905eaf80c042f8",
        "analyze()": "62c6555e0800c1becde21841cc57a4b62bef27c50fa495757d905eaf80c042f8",
    },
    "long_tests": {
        "outputs": "819794c8163094a2db161d0726387402a6667b00de546e98ecb1d944b3858331",
        "report.v1": "b175d0a019368f627095b31cae1963390d29f76845cd446d7e1133076a058340",
        "analyze()": "b175d0a019368f627095b31cae1963390d29f76845cd446d7e1133076a058340",
    },
    "train": {
        "outputs": "84e7d93bd9cf365885422b393b69f213a5fbabb1f8936af08ba38ff51610837b",
        "metrics.v1": "358794042731f2556c9fcdfb1a548fdc2902aab5084e1825d26a894549701b7d",
        "analyze()": "5aa2c6ca55e16031fbac2f28c1ab4dee26d9f1796c8a2545cd42eb8ef63278dc",
    },
}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_benchmark_outputs_are_pinned_and_correct(workload, tmp_path):
    digests, problems = _digests(workload, tmp_path)
    assert problems == []
    assert digests == PINNED[workload]


if __name__ == "__main__":
    for name in gen.WORKLOADS:
        with tempfile.TemporaryDirectory() as work:
            digests, problems = _digests(name, Path(work))
        print(f'    "{name}": {{')
        for key, value in digests.items():
            print(f'        "{key}": "{value}",')
        print("    },")
        for problem in problems:
            print(f"    # check failed: {problem}")
