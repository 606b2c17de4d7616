"""Shared fixtures and the acceptance-suite terminal summary."""

from __future__ import annotations

from pathlib import Path

import pytest

from tqual.analyzer import analyze

FIXTURES = Path(__file__).parent / "fixtures"
FOCAL_FILES = FIXTURES / "focal_files"

# One line per acceptance criterion, printed after the run so the pass/fail
# state of the whole gate is visible at a glance.
_CRITERIA = {
    1: "detector oracle suite",
    2: "golden-filter soundness",
    3: "reward algebra",
    4: "resampler class sizes",
    5: "split leakage",
    6: "prompt builder levels",
    7: "truncation properties",
    8: "PPO step, KL table, reward fit",
    9: "toy PPO convergence",
    10: "sequential strategy",
    11: "reporting fidelity",
}


@pytest.fixture(autouse=True)
def _fresh_analyze_memo():
    """Each test starts with ``analyze``'s memo empty, so no test sees the
    reports another test left there."""
    analyze.cache_clear()


@pytest.fixture(scope="session")
def upload_source() -> str:
    return (FOCAL_FILES / "UploadCommand.cs").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def inventory_source() -> str:
    return (FOCAL_FILES / "InventoryService.cs").read_text(encoding="utf-8")


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_criterion_" not in report.nodeid:
        return
    marker = report.nodeid.split("test_criterion_")[1]
    number = int(marker.split("_")[0])
    outcome = "PASS" if report.passed else "FAIL"
    _OUTCOMES[number] = outcome


_OUTCOMES: dict[int, str] = {}


def pytest_terminal_summary(terminalreporter):
    if not _OUTCOMES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_CRITERIA):
        outcome = _OUTCOMES.get(number, "NOT RUN")
        terminalreporter.write_line(
            f"criterion {number:2d} ({_CRITERIA[number]}): {outcome}"
        )
