"""Shared pytest plumbing: the hypothesis profile and the acceptance-criteria
summary block.

Every hypothesis test draws the same examples on every run: the profile
loaded here derandomizes them and reads no example database, and each test
keeps its own example count.

Tests append one line per criterion through the ``criterion`` fixture; the
lines are replayed after the run so the verdicts stay visible even when
pytest captures stdout.
"""

import pytest
from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")

_LINES: list[str] = []


@pytest.fixture
def criterion():
    def record(num: int, ok: bool, detail: str) -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
        _LINES.append(line)
        assert ok, line

    return record


@pytest.fixture(scope="session")
def summary_line():
    """Append one line, as given, to the summary block."""
    return _LINES.append


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _LINES:
        terminalreporter.section("acceptance criteria")
        for line in _LINES:
            terminalreporter.write_line(line)
