"""Fixtures shared by the test modules."""

import time

import pytest

from hilbertnorm.verification import run_all


@pytest.fixture(scope="session")
def verify_run():
    """The verification suite at the default verify configuration
    (tol 1e-8), run once per session: (reports, wall time in seconds)."""
    t0 = time.perf_counter()
    reports = run_all(tol=1e-8)
    return reports, time.perf_counter() - t0


def _fact(report, name):
    """The fact of report named name."""
    return next(fact for fact in report.facts if fact.name == name)
