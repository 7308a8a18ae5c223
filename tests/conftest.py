"""The acceptance summary hook, and ``tests/`` on the import path.

Tests marked ``@pytest.mark.acceptance(num, label)`` feed a one-line
PASS/FAIL summary per criterion printed at the end of the run.  A criterion
is FAIL when any of its tests fails in setup, call or teardown.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

pytest_plugins = ["pytester"]

_ACCEPTANCE_RESULTS: dict[tuple[int, str], list[str]] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(num, label): acceptance-criterion test, summarised at exit"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    # a setup or teardown error has no passing call to hide behind
    if report.when != "call" and not report.failed:
        return
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    key = (marker.args[0], marker.args[1])
    _ACCEPTANCE_RESULTS.setdefault(key, []).append(report.outcome)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for (num, label), outcomes in sorted(_ACCEPTANCE_RESULTS.items()):
        verdict = "PASS" if all(o == "passed" for o in outcomes) else "FAIL"
        terminalreporter.write_line(f"criterion {num} ({label}): {verdict}")
