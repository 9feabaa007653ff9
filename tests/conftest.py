"""Shared pytest plumbing: collect acceptance-criterion verdicts and print
one pass/fail line per criterion at the end of the test run, start every
test with no design's kernel spectra held, and stand in a loss of lam_1
alone for the fast loop's."""

import numpy as np
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


def patch_first_eigenvalue_loss(monkeypatch, loss, slope, curve) -> None:
    """Make the fast loop's loss loss(td), a function of lam_1 alone, and its
    derivatives in the eigenvalues those of that function: the stand-in for
    cubature.eigenvalue_adjoint, whole rows or entries lo..hi - 1 like it,
    is slope(td) at lam_1 and 0 elsewhere, and its curvature curve(td)
    there and 0 elsewhere."""
    monkeypatch.setattr(cubature, "objective", lambda kind, td: loss(td))

    def adjoint(td, kind, curvature=False, lo=0, hi=None):
        cols = td.lams_rest.shape[0] + 1
        size = (cols if hi is None else min(hi, cols)) - lo
        a, diag = np.zeros(size), np.zeros(size)
        if lo == 0:
            a[0], diag[0] = slope(td), curve(td)
        return (a, (diag, np.zeros((0, size)), np.zeros(0))) if curvature else a

    monkeypatch.setattr(cubature, "eigenvalue_adjoint", adjoint)
