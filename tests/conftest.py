"""Shared pytest plumbing: collect acceptance-criterion verdicts and print
one pass/fail line per criterion at the end of the session, and start every
test with no design's kernel spectra held."""

import pytest

from bayescub import cubature

ACCEPTANCE_LINES: list[str] = []


def record_criterion(number: int, title: str, passed: bool, detail: str = "") -> None:
    mark = "PASS" if passed else "FAIL"
    line = f"criterion {number:2d} [{mark}] {title}"
    if detail:
        line += f" -- {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def no_held_design():
    """Empty the fast loop's held spectra, so a test that counts builds sees
    them built whatever test ran before it on the same design."""
    cubature._held.clear()
