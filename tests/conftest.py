"""Shared pytest plumbing: the acceptance summary block and the always_fork fixture.

test_acceptance.py records one entry per criterion; the hook below prints
them as a single PASS/FAIL line each at the end of the run, so the verdicts
stay visible even when pytest captures stdout.
"""

import pytest

ACCEPTANCE_RESULTS = []


def record_criterion(number, description, ok, detail=""):
    ACCEPTANCE_RESULTS.append((number, description, bool(ok), detail))


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, ok, detail in sorted(ACCEPTANCE_RESULTS):
        verdict = "PASS" if ok else "FAIL"
        line = f"{verdict} criterion {number}: {description}"
        if detail:
            line += f" [{detail}]"
        terminalreporter.write_line(line)


@pytest.fixture
def always_fork(monkeypatch):
    """Fork every ensemble that asks for more than one worker, however few its chain-steps.

    Tests of the forked path run small ensembles, which would otherwise run in
    one process and pass without forking.
    """
    from oja_diffusion import montecarlo

    monkeypatch.setattr(montecarlo, "_FORK_MIN_CHAIN_STEPS", 0)
